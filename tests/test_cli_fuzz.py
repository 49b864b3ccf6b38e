"""Fuzzed malformed PFM, VSG and scene files and argument vectors against
the CLI contract.

Each file example writes one small, valid input set (4x4 maps, a 2x2x2
volume, a two-camera scene that every command accepts), breaks exactly
one file in a way that makes it invalid wherever it is read, and runs a
command on it in-process. The command must exit 1 or 2 and print exactly
one `error:` line, with no traceback and no warning (a warning would print
to stderr too). Every count stays at 16 or less and every file under
4 KB; the runs are deterministic and bounded at 200 examples in total.

The argument examples run every subcommand on the valid input set with
flags and values drawn from small ranges, junk strings, unknown flags and
dropped arguments; each run exits 0 with nothing on stderr, or 1 or 2 with
one `error:` line. No drawn value starts more than 8 threads, traces more
than 64 rays of 64 samples or fits more than 4 lobes for 5 iterations.
"""

import contextlib
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sglight.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None)

SIZE = 4
SCENE = """sgscene 1
[camera.0]
intrinsics: 4 4 2 2
pose: 1 0 0 0
pose: 0 1 0 0
pose: 0 0 1 0
size: 4 4
depth: d0.pfm
[camera.1]
intrinsics: 4 4 2 2
pose: 1 0 0 0.1
pose: 0 1 0 0
pose: 0 0 1 0
size: 4 4
depth: d1.pfm
[gbuffer]
albedo: albedo.pfm
roughness: rough.pfm
normal: normal.pfm
depth: depth.pfm
[lighting]
sg: 0 0 -1 2 1 1 1
vsg: vol.vsg
[render]
resolution: 4 4
quadrature: 4 8
seed: 0
"""
SCENE_COMMANDS = {
    "render": ["--out-prefix", "{d}/r"],
    "vsg-trace": ["--order", "after", "--nr", "4", "--out", "{d}/v.pfm"],
    "bench-order": ["--rays", "8", "--nr-sweep", "2", "--out", "{d}/b.csv"],
    "reproject": ["--target", "1", "--out", "{d}/e.pfm", "{d}/w.pfm", "{d}/m.txt"],
}
SCENE_MAPS = ("d0.pfm", "d1.pfm", "albedo.pfm", "rough.pfm", "normal.pfm", "depth.pfm")
METRICS_ARGS = ["{d}/a.pfm", "{d}/b.pfm", "--mask", "{d}/mask.pfm"]


def pfm_bytes(data, magic=None, dims=None, scale=b"-1.0"):
    data = np.asarray(data, dtype="<f4")
    if magic is None:
        magic = b"PF" if data.ndim == 3 else b"Pf"
    if dims is None:
        dims = f"{data.shape[1]} {data.shape[0]}".encode()
    return b"\n".join([magic, dims, scale, data[::-1].tobytes()])


def base_maps():
    """name -> array of every valid map: scene maps and metrics inputs."""
    up = np.zeros((SIZE, SIZE, 3))
    up[..., 2] = 1.0
    return {
        "d0.pfm": np.full((SIZE, SIZE), 2.0), "d1.pfm": np.full((SIZE, SIZE), 2.1),
        "albedo.pfm": np.full((SIZE, SIZE, 3), 0.5),
        "rough.pfm": np.full((SIZE, SIZE), 0.4),
        "normal.pfm": -up, "depth.pfm": np.full((SIZE, SIZE), 2.0),
        "a.pfm": up, "b.pfm": up, "mask.pfm": np.ones((SIZE, SIZE)),
        "t.pfm": np.full((SIZE, 2 * SIZE, 3), 0.5),
    }


VSG_HEADER = [b"VSG1", b"2 2 2", b"-1 -1 1 1 1 3", b"alpha intensity axis sharpness"]


def base_vsg_records():
    rec = np.zeros((2, 2, 2, 8))
    rec[..., 0] = 0.5
    rec[..., 1:4] = 1.0
    rec[..., 6] = -1.0
    rec[..., 7] = 4.0
    return rec


def vsg_bytes(header, records):
    return b"\n".join(header) + b"\n" + np.asarray(records, "<f4").tobytes()


def write_inputs(d, replace=None):
    """Write the valid input set into d, then the files in replace."""
    for name, data in base_maps().items():
        with open(os.path.join(d, name), "wb") as fh:
            fh.write(pfm_bytes(data))
    files = {"scene.txt": SCENE.encode(), "vol.vsg": vsg_bytes(VSG_HEADER, base_vsg_records())}
    files.update(replace or {})
    for name, blob in files.items():
        assert len(blob) < 4096
        with open(os.path.join(d, name), "wb") as fh:
            fh.write(blob)


def run(argv):
    """(exit code, stderr) of one in-process run; warnings count as stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    text = err.getvalue() + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return rc, text


def check_contract(argv, d):
    rc, err = run([a.format(d=d) for a in argv])
    assert rc in (1, 2), (rc, err)
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err


def scene_argv(command):
    return [command, "{d}/scene.txt", *SCENE_COMMANDS[command]]


@pytest.mark.parametrize("argv", [scene_argv(c) for c in SCENE_COMMANDS]
                         + [["metrics", *METRICS_ARGS, "--metric", m]
                            for m in ("g1", "g2", "g3", "g4", "g5")]
                         + [["fit", "{d}/t.pfm", "--lobes", "1", "--max-iterations", "2",
                             "--out", "{d}/l.txt"]])
def test_base_inputs_pass(argv):
    """Every command accepts the unbroken inputs, so each fault below is
    what makes its example fail."""
    with tempfile.TemporaryDirectory() as d:
        write_inputs(d)
        rc, err = run([a.format(d=d) for a in argv])
    assert (rc, err) == (0, "")


BAD_NUMBERS = ["nan", "inf", "-inf", "1e999", "-1e999", "x", "0x10", "1,5", ""]
BAD_LINES = ["[nope]", "no colon here", "[camera.x]", "[camera.0]", "[camera.2]",
             "[camera.9]", "bogus: 1", "sg: 1 2", "pose: 1 0 0 0", "depth: missing.pfm",
             "vsg: missing.vsg", "quadrature: 4 8", "intrinsics: 4 4 2 2"]
BAD_HEADERS = ["sgscene 2", "sgscene", "SGSCENE 1", "", "[render]"]


@st.composite
def broken_scenes(draw):
    lines = SCENE.splitlines()
    kind = draw(st.sampled_from(["number", "line", "header"]))
    if kind == "number":
        numeric = [i for i, text in enumerate(lines)
                   if ":" in text and text.split(":")[1].split()[0][-1].isdigit()]
        i = draw(st.sampled_from(numeric))
        key, values = lines[i].split(":")
        values = values.split()
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(BAD_NUMBERS))
        lines[i] = f"{key}: {' '.join(values)}"
    elif kind == "line":
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(BAD_LINES)))
    else:
        lines[0] = draw(st.sampled_from(BAD_HEADERS))
    return "\n".join(lines) + "\n"


@settings(FUZZ, max_examples=70)
@given(text=broken_scenes(), command=st.sampled_from(sorted(SCENE_COMMANDS)))
def test_malformed_scene_file(text, command):
    with tempfile.TemporaryDirectory() as d:
        write_inputs(d, {"scene.txt": text.encode()})
        check_contract(scene_argv(command), d)


BAD_MAGIC = [b"P6", b"", b"pf", b"PF ", b"F", b"PFf"]
BAD_DIMS = [b"0 4", b"-1 4", b"4", b"4 4 4", b"a 4", b"4.0 4", b"1e999 4", b"nan 4",
            b"", b"16 16", b"1 1", b"4 -4"]
BAD_SCALES = [b"0", b"0.0", b"-0", b"nan", b"inf", b"-inf", b"x", b""]


@st.composite
def broken_pfms(draw, data, sized=True, depth=False):
    """A PFM of data with one fault that any reader of this file rejects.

    sized: the reader checks the map's size against other inputs, so a
    resized map is a fault too. depth: the map holds depths, which every
    reader also rejects when a pixel is infinite.
    """
    faults = ["magic", "dims", "scale", "truncate", "append", "newline", "nan",
              "channels"]
    if sized:
        faults.append("size")
    if depth:
        faults.append("inf")
    fault = draw(st.sampled_from(faults))
    blob = pfm_bytes(data)
    if fault == "magic":
        return pfm_bytes(data, magic=draw(st.sampled_from(BAD_MAGIC)))
    if fault == "dims":
        return pfm_bytes(data, dims=draw(st.sampled_from(BAD_DIMS)))
    if fault == "scale":
        return pfm_bytes(data, scale=draw(st.sampled_from(BAD_SCALES)))
    if fault == "truncate":
        return blob[:-draw(st.integers(1, len(blob)))]
    if fault == "append":
        return blob + draw(st.binary(min_size=1, max_size=16))
    if fault == "newline":  # drop one header line's terminator
        cut = [i for i, b in enumerate(blob[:16]) if b == ord("\n")][draw(st.integers(0, 2))]
        return blob[:cut] + blob[cut + 1:]
    if fault in ("nan", "inf"):
        flat = np.array(data, dtype="<f4").ravel()
        bad = np.nan if fault == "nan" else draw(st.sampled_from([np.inf, -np.inf]))
        flat[draw(st.integers(0, flat.size - 1))] = bad
        return pfm_bytes(flat.reshape(np.shape(data)))
    if fault == "channels":  # a grayscale map where RGB is read, or the reverse
        flat = np.asarray(data).reshape(SIZE, -1)
        return pfm_bytes(flat[:, :SIZE] if flat.shape[1] > SIZE else np.stack([flat] * 3, -1))
    rows, cols = draw(st.sampled_from([(SIZE + 1, SIZE), (SIZE, SIZE - 1), (1, 16)]))
    return pfm_bytes(np.resize(data, (rows, cols) + np.shape(data)[2:]))


DEPTHS = ("d0.pfm", "d1.pfm", "depth.pfm")
PFM_TARGETS = (
    [("metrics", name) for name in ("a.pfm", "b.pfm", "mask.pfm")]
    + [("fit", "t.pfm")]
    + [(command, name) for command in SCENE_COMMANDS for name in SCENE_MAPS]
)


@st.composite
def broken_pfm_runs(draw):
    command, name = draw(st.sampled_from(PFM_TARGETS))
    blob = draw(broken_pfms(base_maps()[name], sized=command != "fit", depth=name in DEPTHS))
    if command == "metrics":
        metric = draw(st.sampled_from(["g1", "g2", "g3", "g4", "g5"]))
        argv = ["metrics", *METRICS_ARGS, "--metric", metric]
    elif command == "fit":
        argv = ["fit", "{d}/t.pfm", "--lobes", "1", "--max-iterations", "2",
                "--out", "{d}/l.txt"]
    else:
        argv = scene_argv(command)
    return argv, name, blob


def _inf_depth():
    depth = base_maps()["d0.pfm"]
    depth[1, 2] = np.inf
    return pfm_bytes(depth)


@settings(FUZZ, max_examples=70)
@given(case=broken_pfm_runs())
@example(case=(scene_argv("reproject"), "d0.pfm", _inf_depth()))  # a source view's depth
def test_malformed_pfm_file(case):
    argv, name, blob = case
    with tempfile.TemporaryDirectory() as d:
        write_inputs(d, {name: blob})
        check_contract(argv, d)


BAD_VSG_LINES = [
    [b"VSG2", b"vsg1", b"", b"VSG1 "],
    [b"0 2 2", b"-1 2 2", b"2 2", b"2 2 2 2", b"2 2 x", b"1e999 2 2", b"2.5 2 2",
     b"nan 2 2", b"3 2 2", b"1 1 1"],
    [b"-1 -1 1 1 1 nan", b"nan -1 1 1 1 3", b"-1 -1 1 inf 1 3", b"-inf -1 1 1 1 3",
     b"-1 -1 1 1 1 1e999", b"1 -1 1 -1 1 3", b"-1 -1 3 1 1 1", b"-1 -1 1 1 1",
     b"-1 -1 1 1 1 3 4", b"-1 -1 1 1 1 x"],
    [b"alpha axis intensity sharpness", b"", b"alpha intensity axis sharpness "],
]


@st.composite
def broken_vsgs(draw):
    header, records = list(VSG_HEADER), base_vsg_records()
    fault = draw(st.sampled_from(["header", "value", "truncate", "append"]))
    if fault == "header":
        line = draw(st.integers(0, 3))
        header[line] = draw(st.sampled_from(BAD_VSG_LINES[line]))
    elif fault == "value":  # one record entry outside its channel's domain
        channel = draw(st.integers(0, 7))
        bad = [np.nan, np.inf, -np.inf] + {0: [-0.5, 1.5], 7: [-1.0]}.get(channel, [])
        records.reshape(-1, 8)[draw(st.integers(0, 7)), channel] = draw(st.sampled_from(bad))
    blob = vsg_bytes(header, records)
    if fault == "truncate":
        return blob[:-draw(st.integers(1, len(blob)))]
    if fault == "append":
        return blob + draw(st.binary(min_size=1, max_size=16))
    return blob


@settings(FUZZ, max_examples=60)
@given(blob=broken_vsgs(), command=st.sampled_from(sorted(SCENE_COMMANDS)))
def test_malformed_vsg_file(blob, command):
    with tempfile.TemporaryDirectory() as d:
        write_inputs(d, {"vol.vsg": blob})
        check_contract(scene_argv(command), d)


JUNK = ["", "x", "-1", "0", "nan", "1e3", "3.5", "0x10", "-", "--", "g7"]
PATHS = ["{d}/o"] * 3 + ["{d}", "{d}/missing/o"]  # fine, a directory, a missing directory
PREFIXES = ["{d}/r"] * 3 + ["{d}/missing/r"]
# unknown flags, then --seed=1 (known to bench-order only) and -h (help, exit 0)
EXTRA_FLAGS = ["--bogus", "-z", "--outt", "--threads2", "--seed=1", "-h"]
COUNT = st.integers(-1, 64).map(str)
# command -> (positional values, [(flag, one value strategy per token)]);
# these strategies hold the bounds the module docstring states
ARG_SPECS = {
    "fit": (["{d}/t.pfm"], [("--lobes", [st.integers(-1, 4).map(str)]),
                            ("--max-iterations", [st.integers(-1, 5).map(str)]),
                            ("--out", [st.sampled_from(PATHS)])]),
    "render": (["{d}/scene.txt"], [("--threads", [st.integers(-1, 8).map(str)]),
                                   ("--out-prefix", [st.sampled_from(PREFIXES)])]),
    "vsg-trace": (["{d}/scene.txt"], [("--order", [st.sampled_from(["before", "after"])]),
                                      ("--nr", [COUNT]), ("--out", [st.sampled_from(PATHS)])]),
    "bench-order": (["{d}/scene.txt"], [
        ("--rays", [COUNT]), ("--seed", [COUNT]), ("--out", [st.sampled_from(PATHS)]),
        ("--nr-sweep", [st.lists(st.integers(-1, 64), min_size=1, max_size=3).map(
            lambda v: ",".join(map(str, v)))])]),
    "reproject": (["{d}/scene.txt"], [("--target", [st.integers(-1, 2).map(str)]),
                                      ("--out", [st.sampled_from(PATHS)] * 3)]),
    "metrics": (["{d}/a.pfm", "{d}/b.pfm"], [
        ("--metric", [st.sampled_from(["g1", "g2", "g3", "g4", "g5", "g6"])]),
        ("--mask", [st.sampled_from(["{d}/mask.pfm", "{d}/t.pfm", "{d}/missing.pfm"])])]),
}


@st.composite
def argument_vectors(draw):
    """A subcommand with each argument kept, given a junk value or dropped,
    in shuffled order, possibly with an extra flag or an unknown command."""
    command = draw(st.sampled_from(sorted(ARG_SPECS) * 4 + ["bogus", ""]))
    positionals, flags = ARG_SPECS.get(command, ([], []))
    groups = []
    for value in positionals:
        fate = draw(st.sampled_from(["keep"] * 6 + ["junk", "drop"]))
        if fate != "drop":
            groups.append([value if fate == "keep" else draw(st.sampled_from(JUNK))])
    for flag, values in flags:
        fate = draw(st.sampled_from(["keep"] * 6 + ["junk", "drop"]))
        if fate != "drop":
            groups.append([flag] + [draw(v) if fate == "keep" else draw(st.sampled_from(JUNK))
                                    for v in values])
    if draw(st.sampled_from([False] * 3 + [True])):
        groups.append([draw(st.sampled_from(EXTRA_FLAGS))])
    groups = draw(st.permutations(groups))
    return [command] * bool(command) + [token for group in groups for token in group]


@settings(FUZZ, max_examples=100)
@given(argv=argument_vectors())
@example(argv=["vsg-trace", "{d}/scene.txt", "--order", "before", "--nr", "1000000000000000",
               "--out", "{d}/v.pfm"])  # numpy refuses the 57 PiB record buffer at once
def test_fuzzed_argument_vectors(argv):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        write_inputs(d)
        os.chdir(d)  # a junk output path such as "x" is written there
        try:
            rc, err = run([a.format(d=d) for a in argv])
        finally:
            os.chdir(cwd)
    if rc == 0:
        assert err == "", err
    else:
        assert rc in (1, 2), (rc, err)
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), err
