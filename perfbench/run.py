"""sglight benchmark: seeded CLI workloads, checked outputs, per-module trace.

Run from the root of a checkout (the directory holding `src/sglight`):

    python3 perfbench/run.py --workload render --seed 1 --seconds 25 --trace 0

`--trace 0` runs the workload's CLI invocations one at a time as
subprocesses, in passes, until `--seconds` of passes are measured, and
reports the end-to-end metrics named in BENCHMARK.json. `--trace 1` runs
the same invocations in-process through `sglight.cli.main`, alternating an
untraced pass with a pass under the module-boundary tracer, and reports
the per-layer metrics; the traced pass's spans go to a Chrome trace-event
file under `.perfbench/`. Every output is checked (see checks.py). The
last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPS = 3
# one BLAS thread per process: `render --threads 2` then uses exactly the
# host's two cores, and BLAS threads cannot contend with the CLI's own.
# main() sets it before anything loads numpy, which is why the modules
# that use numpy (workloads, checks, tracer) are imported inside functions.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CALL_TIMEOUT_S = 120.0

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import sglight.cli
t1 = time.perf_counter()
from sglight.pfm import read_pfm
from sglight.scene import parse_scene
for kind, path in json.loads(sys.argv[1]):
    (parse_scene if kind == "scene" else read_pfm)(path)
print(json.dumps({"import_s": t1 - t0, "load_s": time.perf_counter() - t1}))
"""


@dataclass
class Result:
    rc: int
    wall: float
    stdout: str
    stderr: str
    rss_mb: float = 0.0


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, workdir) -> Result:
    """Run argv to completion; wall time and max RSS come from os.wait4."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env())
        watchdog = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Result(proc.returncode, wall, out.read().decode(), err.read().decode(),
                      usage.ru_maxrss / 1024.0)


def _clear_outputs(call):
    """Remove a call's earlier outputs, so a stale file cannot pass its check."""
    for path in call.outputs:
        if os.path.exists(path):
            os.remove(path)


def run_cli(call, workdir) -> Result:
    _clear_outputs(call)
    return run_child([sys.executable, "-m", "sglight", *call.argv], workdir)


def run_in_process(call) -> Result:
    import sglight.cli

    _clear_outputs(call)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = sglight.cli.main(call.argv)
    return Result(rc, time.perf_counter() - start, out.getvalue(), err.getvalue())


def setup_times(plan, reps) -> list:
    """Fresh interpreters that import sglight.cli and load the inputs."""
    load = json.dumps(plan.load)
    runs = []
    for _ in range(reps):
        res = run_child([sys.executable, "-c", SETUP_CODE, load], plan.root)
        if res.rc != 0:
            raise RuntimeError(f"set-up child failed: {res.stderr.strip()}")
        runs.append((res.wall, json.loads(res.stdout)))
    return runs


class Verifier:
    """Checks each call's outputs. A call's first output is checked in full;
    later identical outputs reuse that verdict, and changed outputs are
    checked again (they should never change: the CLI is deterministic)."""

    def __init__(self, plan):
        self.plan = plan
        self.digests = {}
        self.facts = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # (label, message) of outputs that failed a check

    def digest(self, call, res) -> str:
        h = hashlib.sha256(res.stdout.encode())
        for path in call.outputs:
            with open(path, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def __call__(self, call, res, expect_digest=None) -> dict:
        """Record one attempt; return the check's facts ({} when it failed)."""
        from checks import CheckError, check

        self.attempted += 1
        if res.rc != 0:
            self.failed += 1
            return {}
        try:
            digest = self.digest(call, res)
            if expect_digest is not None and digest != expect_digest:
                raise CheckError("output differs from the untraced run")
            if self.digests.get(call.label) == digest and call.argv[0] != "bench-order":
                return self.facts[call.label]
            facts = check(self.plan, call, res)
        # a missing or unparsable output is a wrong output too
        except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            self.failed += 1
            self.wrong.append((call.label, f"{type(exc).__name__}: {exc}"))
            return {}
        self.digests[call.label] = digest
        self.facts[call.label] = facts
        return facts


def _median(values):
    return statistics.median(values) if values else 0.0


def timed_run(plan, seconds) -> tuple:
    """Untraced subprocess passes; returns (end-to-end metrics, report, verifier).

    Set-up children run before the first pass and after every pass, so
    their samples spread over the run like the passes do.
    """
    setups = setup_times(plan, SETUP_REPS)
    verify = Verifier(plan)
    passes = []
    measured = 0.0
    while measured < seconds or not passes:
        start = time.perf_counter()
        results = [run_cli(call, plan.root) for call in plan.calls]
        wall = time.perf_counter() - start
        measured += wall
        for call, res in zip(plan.calls, results):
            verify(call, res)
        passes.append((wall, results))
        setups += setup_times(plan, 1)
    kernel = [
        sum(c.work for c in plan.calls)
        / sum(r.wall for c, r in zip(plan.calls, results) if c.work)
        for _, results in passes
    ]
    metrics = {
        "wall_s": _median([w for w, _ in passes]),
        "setup_s": _median([w for w, _ in setups]),
        "peak_rss_mb": _median([max(r.rss_mb for r in results) for _, results in passes]),
        "work_per_s": _median(kernel),
    }
    per_call = {
        call.label: {
            "wall_s": _median([results[k].wall for _, results in passes]),
            "peak_rss_mb": _median([results[k].rss_mb for _, results in passes]),
            "exit_codes": sorted({results[k].rc for _, results in passes}),
        }
        for k, call in enumerate(plan.calls)
    }
    named = {"render": "render_px_per_s", "volume": "trace_samples_per_s",
             "analysis": "reproject_px_per_s"}
    report = {
        "work_unit": plan.work_unit,
        "samples": len(passes),
        "pass_wall_s": [w for w, _ in passes],
        "setup_samples": len(setups),
        "setup_import_s": _median([s["import_s"] for _, s in setups]),
        "per_call": per_call,
        named[plan.name]: metrics["work_per_s"],
    }
    if "fit" in per_call:
        report["fit_s"] = per_call["fit"]["wall_s"]
    return metrics, report, verify


def traced_run(plan, seconds) -> tuple:
    """In-process passes, each untraced then traced.

    Returns (per-layer metrics, report, verifier, tracer of the reported
    pass). The reported pass is the traced pass with the median total, so
    its module self times add up to the reported total exactly.
    """
    import sglight.cli  # noqa: F401  (import outside the timed passes)
    from tracer import Tracer

    setups = setup_times(plan, SETUP_REPS)
    verify = Verifier(plan)
    pfm_bytes = {"read": 0, "written": 0}
    observers = {
        "pfm.read_pfm": lambda a, k, r: _add_size(pfm_bytes, "read", a[0]),
        "pfm.write_pfm": lambda a, k, r: _add_size(pfm_bytes, "written", a[0]),
    }
    untraced, traced = [], []
    bench = {"composite_before_s": [], "composite_after_s": []}
    measured = 0.0
    while measured < seconds or not traced:
        start = time.perf_counter()
        base = [run_in_process(call) for call in plan.calls]
        untraced.append(time.perf_counter() - start)
        digests = {}
        for call, res in zip(plan.calls, base):
            _collect(bench, verify(call, res))
            if res.rc == 0 and call.argv[0] != "bench-order":
                digests[call.label] = verify.digest(call, res)
        pfm_bytes.update(read=0, written=0)
        tracer = Tracer(observers)
        with tracer:
            results = []
            for call in plan.calls:
                tracer.begin_op(call.label)
                results.append(run_in_process(call))
        for call, res in zip(plan.calls, results):
            _collect(bench, verify(call, res, digests.get(call.label)))
        traced.append((tracer.module_times(), tracer, dict(pfm_bytes)))
        measured += untraced[-1] + traced[-1][0]["total"]
    totals = [t[0]["total"] for t in traced]
    times, tracer, pfm = sorted(traced, key=lambda t: t[0]["total"])[(len(traced) - 1) // 2]
    metrics = per_layer_metrics(plan, verify.facts, times, pfm, bench)
    metrics["cli.import_s"] = _median([s["import_s"] for _, s in setups])
    metrics["trace.overhead_frac"] = _median(totals) / _median(untraced) - 1.0
    report = {
        "samples": len(totals),
        "self_s_all_modules": times["self_s"],
        "calls_all_modules": times["calls"],
        "additivity_residual_s": times["total"] - sum(times["self_s"].values()),
        "untraced_total_s": untraced,
        "traced_total_s": totals,
    }
    return metrics, report, verify, tracer


def _add_size(counter, key, path):
    counter[key] += os.path.getsize(path)


def _collect(bench, facts):
    for key in bench:
        if key in facts:
            bench[key].append(facts[key])


def per_layer_metrics(plan, facts, times, pfm, bench) -> dict:
    """Per-module metrics of one traced pass; work counts are per pass."""
    from workloads import RENDER_QUAD, VOLUME_NR

    self_s, calls = times["self_s"], times["calls"]
    renders = [c for c in plan.calls if c.argv[0] == "render"]
    traces = [facts.get(c.label, {}) for c in plan.calls if c.argv[0] == "vsg-trace"]
    px = plan.sizes.get("pixels", 0)
    nodes = RENDER_QUAD[0] * RENDER_QUAD[1] if renders else 0
    back = facts.get(renders[0].label, {}).get("backfacing_px", 0) if renders else 0
    fit = facts.get("fit", {})
    repro = facts.get("reproject", {})
    hits = sum(t.get("rays_hit", 0) for t in traces)
    reprojected = {"reproject": plan.sizes.get("reproject_px", 0),
                   "reproject-holes": plan.sizes.get("hole_px", 0)}
    bench_csv = facts.get("bench-order", {})
    return {
        "cli.self_s": self_s.get("cli", 0.0),
        "trace.total_s": times["total"],
        "scene.self_s": self_s.get("scene", 0.0),
        "pfm.self_s": self_s.get("pfm", 0.0),
        "pfm.bytes_read": pfm["read"],
        "pfm.bytes_written": pfm["written"],
        "sg.self_s": self_s.get("sg", 0.0),
        "sg.calls": calls.get("sg", 0),
        # diffuse and specular each evaluate S lobes at P pixels x M nodes
        "sg.lobe_evals": 2 * len(renders) * px * nodes * plan.sizes.get("lobes", 0),
        "brdf.self_s": self_s.get("brdf", 0.0),
        "brdf.quad_nodes": nodes,
        "brdf.backfacing_px": back * len(renders),
        # one (P, M, 3) float64 intermediate of a single-thread render
        "brdf.tensor_mb": px * nodes * 3 * 8 / 1e6,
        "vsg.self_s": self_s.get("vsg", 0.0),
        "vsg.calls": calls.get("vsg", 0),
        "vsg.rays_hit": hits,
        "vsg.rays_missed": sum(t.get("rays_missed", 0) for t in traces),
        "vsg.samples": hits * VOLUME_NR,
        "vsg.bench_composite_before_s": _median(bench["composite_before_s"]),
        "vsg.bench_composite_after_s": _median(bench["composite_after_s"]),
        "vsg.g_evals_before": bench_csv.get("g_evals_before", 0),
        "vsg.g_evals_after": bench_csv.get("g_evals_after", 0),
        "multiview.self_s": self_s.get("multiview", 0.0),
        "multiview.calls": calls.get("multiview", 0),
        "multiview.px": sum(n for label, n in reprojected.items() if label in facts),
        "multiview.out_of_frame_frac": repro.get("out_of_frame_frac", 0.0),
        "multiview.masked_frac": repro.get("masked_frac", 0.0),
        "sgfit.self_s": self_s.get("sgfit", 0.0),
        "sgfit.iterations": fit.get("iterations", 0),
        "sgfit.s_per_iter": self_s.get("sgfit", 0.0) / fit["iterations"] if fit else 0.0,
        "sgfit.final_loss": fit.get("final_loss", 0.0),
        "envmap.self_s": self_s.get("envmap", 0.0),
        "metrics.self_s": self_s.get("metrics", 0.0),
    }


def metadata(plan) -> dict:
    import numpy as np
    import scipy

    from workloads import L2_BYTES, L3_BYTES, SPECS

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sizes = dict(plan.sizes)
    working_set = sizes.pop("working_set_bytes")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "workload": plan.name,
        "seed": plan.seed,
        "why": SPECS[plan.name].why,
        "properties": SPECS[plan.name].properties,
        "input_sizes": sizes,
        "working_set_bytes": working_set,
        "l2_bytes": L2_BYTES,
        "l3_bytes": L3_BYTES,
        "l3_note": "shared with other tenants",
    }


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def declared_metrics(trace: bool) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    os.environ.update(BLAS_ENV)  # before numpy loads, for the in-process runs
    from workloads import SPECS, generate

    args = parse_args(argv, sorted(SPECS))
    if not os.path.isfile(os.path.join(SRC, "sglight", "cli.py")):
        print(f"error: no sglight sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    declared = declared_metrics(bool(args.trace))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan = generate(args.workload, args.seed, workdir)
        meta = metadata(plan)
        if args.trace:
            values, report, verify, tracer = traced_run(plan, args.seconds)
            trace_path = os.path.join(OUT_DIR, f"{tag}.trace.json")
            tracer.write_chrome(trace_path, meta)
            report["chrome_trace"] = os.path.relpath(trace_path, ROOT)
        else:
            values, report, verify = timed_run(plan, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(declared) - set(values))
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items()}
    report.update(metadata=meta, metrics=metrics, wrong_outputs=verify.wrong,
                  fail_ratio=verify.failed / verify.attempted)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for key in ("render_px_per_s", "trace_samples_per_s", "reproject_px_per_s",
                "fit_s", "fail_ratio"):
        if key in report:
            print(f"{key:32s} {report[key]:.6g} (samples {report['samples']})")
    for label, message in verify.wrong:
        print(f"check failed: {label}: {message}")
    print(json.dumps({
        "correct": not verify.wrong,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
