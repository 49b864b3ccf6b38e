"""Self-tests of the benchmark: run with `python -m pytest perfbench` from the
repository root."""

import filecmp
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import SPECS, generate, read_pfm, write_pfm  # noqa: E402


def _plan(name, seed, root):
    return generate(name, seed, str(root))


def _call(plan, label):
    return next(c for c in plan.calls if c.label == label)


def _files(root):
    return sorted(
        os.path.relpath(os.path.join(d, f), root)
        for d, _, names in os.walk(root) for f in names
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_generator_is_deterministic(tmp_path, name):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    _plan(name, 7, a)
    _plan(name, 7, b)
    _plan(name, 8, c)
    files = _files(a)
    assert files and files == _files(b)
    _, mismatch, errors = filecmp.cmpfiles(a, b, files, shallow=False)
    assert not mismatch and not errors
    _, mismatch, _ = filecmp.cmpfiles(a, c, files, shallow=False)
    assert mismatch, "another seed must give other inputs"


def _flip_center_pixel(path):
    img = read_pfm(path).copy()
    center = (img.shape[0] // 2, img.shape[1] // 2)
    img[center] = img[center] * 2.0 + 1.0
    write_pfm(path, img)


@pytest.mark.parametrize("workload,label,output", [
    ("volume", "vsg-trace-after", 0),
    ("analysis", "reproject", 1),
])
def test_corrupted_output_fails_its_check(tmp_path, workload, label, output):
    plan = _plan(workload, 3, tmp_path)
    call = _call(plan, label)
    verify = run.Verifier(plan)
    res = run.run_in_process(call)
    verify(call, res)
    assert (verify.attempted, verify.failed, verify.wrong) == (1, 0, [])
    _flip_center_pixel(call.outputs[output])
    verify(call, res)
    assert verify.attempted == 2 and verify.failed == 1
    assert [w[0] for w in verify.wrong] == [label]


def test_hole_scene_counts_as_failed_not_wrong(tmp_path):
    plan = _plan("analysis", 3, tmp_path)
    call = _call(plan, "reproject-holes")
    verify = run.Verifier(plan)
    verify(call, run.run_in_process(call))
    assert verify.failed == 1 and verify.wrong == []


def _digests(plan, verify, labels, tracer=None):
    out = {}
    for label in labels:
        call = _call(plan, label)
        if tracer is not None:
            tracer.begin_op(label)
        res = run.run_in_process(call)
        out[label] = (res.rc, res.stderr,
                      verify.digest(call, res) if res.rc == 0 else None)
    return out


def _nested(events):
    spans = [e for e in events if e["ph"] == "X"]
    for tid in {e["tid"] for e in spans}:
        open_ends = []
        for e in sorted((e for e in spans if e["tid"] == tid),
                        key=lambda e: (e["ts"], -e["dur"])):
            while open_ends and e["ts"] >= open_ends[-1] - 1e-3:
                open_ends.pop()
            if open_ends and e["ts"] + e["dur"] > open_ends[-1] + 1e-3:
                return False
            open_ends.append(e["ts"] + e["dur"])
    return True


@pytest.mark.parametrize("workload,labels", [
    ("volume", ["vsg-trace-after"]),
    ("analysis", ["reproject-holes", "fit", "metrics-g5"]),
    ("render", ["render-t2"]),
])
def test_traced_run_is_byte_identical_and_additive(tmp_path, workload, labels):
    import sglight.cli

    plan = _plan(workload, 5, tmp_path)
    verify = run.Verifier(plan)
    original = sglight.cli.main
    plain = _digests(plan, verify, labels)
    tracer = Tracer()
    with tracer:
        assert sglight.cli.main is not original
        traced = _digests(plan, verify, labels, tracer)
    assert sglight.cli.main is original
    assert traced == plain

    times = tracer.module_times()
    assert times["total"] > 0.0
    assert sum(times["self_s"].values()) == pytest.approx(times["total"], rel=1e-9)
    assert min(times["self_s"].values()) >= 0.0
    events = tracer.chrome_events()
    assert {e["args"]["op"] for e in events if e["ph"] == "X"} == set(range(len(labels)))
    assert _nested(events)
    if workload == "volume":  # 4096 per-pixel sample_ray calls, one span
        sample = [e for e in events if e.get("name") == "vsg.sample_ray"]
        assert len(sample) == 1 and sample[0]["args"]["calls"] == 64 * 64
    if workload == "render":  # worker threads get their own tracks
        assert len({e["tid"] for e in events if e.get("name") == "brdf.render_specular"}) == 2
