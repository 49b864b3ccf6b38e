"""Behaviour ledger: what every subcommand writes, by sha256.

Each subcommand runs in process on small scenes built by the CLI tests'
helpers: the wall scene, the volume scene, the 3-view posed scene (also
with a depth hole in its target) and a 16x32 environment. LEDGER holds one
sha256 per output file and one per call of its exit code, stdout and
stderr. `bench-order`'s CSV is hashed without its measured seconds column,
and `fit`'s lobes are compared by value within the cross-host bound of
README (SIMD_LOBE_RTOL), with the same iteration count. The whole ledger
runs again in a child process with numpy's dispatched SIMD groups
disabled, where it must give the same table.

A change that alters output bytes on purpose updates the table (print the
current one with `PYTHONPATH=src python tests/test_ledger.py`) and names
each changed entry in CHANGES.md.
"""

import csv
import hashlib
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import sglight
from sglight.envmap import decode_env
from sglight.pfm import read_pfm, write_pfm
from sglight.sg import SgEnvironment, SphericalGaussian, normalize

from test_cli import (
    SIMD_LOBE_RTOL,
    _fit_numbers,
    _simd_groups,
    write_posed_scene,
    write_volume_scene,
    write_wall_scene,
)

LEDGER = {
    "bench-order": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "bench.csv": "6ccb1abaf1f91a9aefe7c662285fe9077321eaf73ecf1103a77af82253cea635",
    "e0.pfm": "059ecad2d4a68eef6db3de12e43dc53aa92412cef4058df0dc802a2515ac9abd",
    "e2.pfm": "1c8f731e404f1a8076a93ea912b661a3cb49be569d949722315e519b1da71822",
    "fit": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "m0.txt": "c2ada79574d34931466ae09bdc43b328162c92e222038b2d9a46d91a9d715ca8",
    "m2.txt": "a066c28d027a46fc3e3f115bf2b815776e5eed13399768069d964a7ac3797a6e",
    "metrics-g1": "637273f69746583286180f6ffc2c1bac31227bfae47104adee80c713fb7a58b2",
    "metrics-g2": "4fe3bd4867f14ad9e71d64bce9b80ed90a3a120e62aef70b17ccd99890002728",
    "metrics-g3": "48c6f08a6b068d81e379976684af2f0fabcfab22694b3b229478af70ab988a04",
    "metrics-g4": "474515b2f5ed93ed005d21f19ce1da445b6cfbb9ad8aac61d59664dda39876ff",
    "metrics-g5": "fc52c62fe5a57487c7f1f8064db0fe92f9d31955d7cd8b67a20cf7e156947861",
    "metrics-g6": "cec5152a1060e5a91152649a0eed9ddfda3d6345e48facb3872d4bcca2961953",
    "r1_diffuse.pfm": "26b2d021aac0125528ebe4588ae8f4b0f3ead1538e7be0d17125e81a8a5d1093",
    "r1_full.pfm": "8d8dd2d37876c5d378de8b9b94a52ee6ed3e25fd2822e3b43b69d82aa3ee500f",
    "r1_specular.pfm": "8d09e2ab56539f90e993b5290beeb1f17d0f99a0414f4e1ffec8fca8fd1280d0",
    "r2_diffuse.pfm": "26b2d021aac0125528ebe4588ae8f4b0f3ead1538e7be0d17125e81a8a5d1093",
    "r2_full.pfm": "8d8dd2d37876c5d378de8b9b94a52ee6ed3e25fd2822e3b43b69d82aa3ee500f",
    "r2_specular.pfm": "8d09e2ab56539f90e993b5290beeb1f17d0f99a0414f4e1ffec8fca8fd1280d0",
    "r4_diffuse.pfm": "26b2d021aac0125528ebe4588ae8f4b0f3ead1538e7be0d17125e81a8a5d1093",
    "r4_full.pfm": "8d8dd2d37876c5d378de8b9b94a52ee6ed3e25fd2822e3b43b69d82aa3ee500f",
    "r4_specular.pfm": "8d09e2ab56539f90e993b5290beeb1f17d0f99a0414f4e1ffec8fca8fd1280d0",
    "render-t1": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "render-t2": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "render-t4": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "reproject-0": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "reproject-2": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "reproject-hole": "bce9457131a409421aaac2e2a261702110822c7f6adadc5199cfeb6832018a1b",
    "v_after.pfm": "2089a4b3ad813361d584477d89e1683304ef0e82c269a0bbd5248813681a9026",
    "v_before.pfm": "0253ac50a240cf5c161a7be1604def34a7470c78ec1f2d016ba80c3fc30c1d81",
    "vsg-trace-after": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "vsg-trace-before": "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa",
    "w0.pfm": "4ff55f671afb2aa34ce0c3153a195c736c6b43e68fa6235b51644f9c3055525f",
    "w2.pfm": "e7610b915726051d74e4f9ebc8cab33bc701f96c65af9e7bc53835d3b33ae317",
}
# fit's written lobes (ax ay az sharpness ir ig ib) and loss; its
# iterations and converged keys are exact
FIT_LOBES = [
    [0.30868933664479664, -0.20757709518509143, 0.9282363077343586, 12.009723154782014,
     1.4998697307563682, 1.004121357617533, 0.6033263636095038],
    [-0.8090072616526306, 0.5762709410643382, 0.11584063655787818, 30.0770633235396,
     0.3941532198997055, 0.797615157296951, 1.1810334148263961],
    [0.09833736553432738, 0.9094113688787661, -0.40410484369012106, 4.985786832590455,
     0.7005023017982798, 0.5941667942014796, 0.4976696152498798],
]
FIT_LOSS = 1.5373892742636953e-05
FIT_TAGS = {"iterations": "7", "converged": "1"}


def write_inputs(d):
    """The ledger's scenes and images under d; returns the calls as
    (label, argv) with "{out}" standing for the output directory."""
    wall = write_wall_scene(d, "sg: 0.2 -0.3 -0.9 7 1 0.7 0.4\nsg: 0.6 0 -0.8 30 0.4 0.5 0.9\n",
                            quadrature=(4, 8), size=8)
    volume = write_volume_scene(d, size=8)
    posed = write_posed_scene(d)
    hole = d / "hole"
    hole.mkdir()
    holed = write_posed_scene(hole)
    depth = read_pfm(hole / "d0.pfm").copy()
    depth[4, 1] = 0.0
    write_pfm(hole / "d0.pfm", depth)
    rng = np.random.default_rng(23)
    lobes = (SphericalGaussian(normalize([0.3, -0.2, 0.9]), 12.0, [1.5, 1.0, 0.6]),
             SphericalGaussian(normalize([-0.7, 0.5, 0.1]), 30.0, [0.4, 0.8, 1.2]),
             SphericalGaussian(normalize([0.1, 0.9, -0.4]), 5.0, [0.7, 0.6, 0.5]))
    env = decode_env(SgEnvironment(lobes), rows=16, cols=32).data
    write_pfm(d / "env.pfm", (env * rng.uniform(0.95, 1.05, env.shape)).astype(np.float32))
    ref = rng.uniform(0.1, 2.0, size=(8, 8, 3))
    write_pfm(d / "ref.pfm", ref.astype(np.float32))
    write_pfm(d / "pred.pfm", (1.3 * ref + rng.uniform(0.0, 0.2, ref.shape)).astype(np.float32))
    for name in ("n_pred.pfm", "n_ref.pfm"):
        n = rng.normal(size=(8, 8, 3))
        write_pfm(d / name, (n / np.linalg.norm(n, axis=-1, keepdims=True)).astype(np.float32))
    write_pfm(d / "mask.pfm", (rng.uniform(size=(8, 8)) > 0.3).astype(np.float32))
    write_pfm(d / "albedo.pfm", rng.uniform(0.05, 1.0, size=(8, 8, 3)).astype(np.float32))
    calls = [(f"render-t{t}", ["render", str(wall), "--out-prefix", f"{{out}}/r{t}",
                               "--threads", str(t)]) for t in (1, 2, 4)]
    calls += [(f"vsg-trace-{order}", ["vsg-trace", str(volume), "--order", order, "--nr", "16",
                                      "--out", f"{{out}}/v_{order}.pfm"])
              for order in ("before", "after")]
    calls.append(("bench-order", ["bench-order", str(volume), "--rays", "64",
                                  "--nr-sweep", "4,16", "--seed", "3", "--out", "{out}/bench.csv"]))
    calls += [(f"reproject-{t}", ["reproject", str(posed), "--target", str(t), "--out",
                                  *(f"{{out}}/{n}{t}.{x}" for n, x in (("e", "pfm"), ("w", "pfm"),
                                                                        ("m", "txt")))])
              for t in (0, 2)]
    calls.append(("reproject-hole", ["reproject", str(holed), "--target", "0", "--out",
                                     "{out}/eh.pfm", "{out}/wh.pfm", "{out}/mh.txt"]))
    calls.append(("fit", ["fit", str(d / "env.pfm"), "--lobes", "3", "--max-iterations", "60",
                          "--out", "{out}/lobes.txt"]))
    calls.append(("metrics-g1", ["metrics", str(d / "n_pred.pfm"), str(d / "n_ref.pfm"),
                                 "--mask", str(d / "mask.pfm"), "--metric", "g1"]))
    calls += [(f"metrics-{g}", ["metrics", str(d / "pred.pfm"), str(d / "ref.pfm"),
                                "--mask", str(d / "mask.pfm"), "--metric", g])
              for g in ("g2", "g3", "g4", "g5")]
    calls.append(("metrics-g6", ["metrics", str(d / "albedo.pfm"), str(d / "ref.pfm"),
                                 "--metric", "g6"]))
    return calls


def run_calls(argvs):
    """Run each argv through the CLI in this process: (exit code, stdout + stderr) each."""
    import contextlib
    import io

    from sglight.cli import main
    results = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
        results.append((rc, out.getvalue() + err.getvalue()))
    return results


def ledger(calls, out, env=None):
    """The digest table and fit's lobes.txt text of calls run into out: in
    this process, or, given env, in one child process with that environment."""
    argvs = [[a.replace("{out}", str(out)) for a in argv] for _, argv in calls]
    if env is None:
        results = run_calls(argvs)
    else:
        code = inspect.getsource(run_calls) + (
            "import json, sys\nprint(json.dumps(run_calls(json.loads(sys.argv[1]))))\n")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, check=True)
        results = json.loads(proc.stdout)
    table = {label: hashlib.sha256(f"{rc}\n{text}".encode()).hexdigest()
             for (label, _), (rc, text) in zip(calls, results)}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.name == "lobes.txt":
            continue
        if path.name == "bench.csv":  # every column but the measured seconds
            rows = csv.reader(io.StringIO(data.decode()))
            data = "".join(",".join(row[:-1]) + "\n" for row in rows).encode()
        table[path.name] = hashlib.sha256(data).hexdigest()
    return table, (out / "lobes.txt").read_text()


def check(table, lobes_text):
    """Every entry of LEDGER, by name, and fit's lobes within SIMD_LOBE_RTOL."""
    assert sorted(table) == sorted(LEDGER)
    changed = [name for name in sorted(LEDGER) if table[name] != LEDGER[name]]
    assert changed == [], f"outputs changed: {changed}"
    lobes, loss, tags = _fit_numbers(lobes_text)
    assert tags == FIT_TAGS
    assert abs(loss - FIT_LOSS) <= SIMD_LOBE_RTOL * FIT_LOSS
    want = np.array(FIT_LOBES)
    assert np.all(np.abs(lobes - want) <= SIMD_LOBE_RTOL * np.abs(want)), lobes


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("ledger")
    return d, write_inputs(d)


def test_every_output_matches_the_ledger(inputs):
    d, calls = inputs
    out = d / "plain"
    out.mkdir()
    check(*ledger(calls, out))


@pytest.mark.skipif(not _simd_groups()[1], reason="numpy dispatches no SIMD group above "
                                                  "its baseline on this host")
def test_ledger_holds_without_dispatched_simd(inputs):
    d, calls = inputs
    out = d / "baseline"
    out.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NPY_DISABLE_CPU_FEATURES=" ".join(_simd_groups()[1]))
    env["PYTHONPATH"] = str(pathlib.Path(sglight.__file__).parents[1])
    check(*ledger(calls, out, env))


if __name__ == "__main__":  # print the current table, to update LEDGER and FIT_*
    with tempfile.TemporaryDirectory() as tmp:
        d = pathlib.Path(tmp)
        calls = write_inputs(d)
        (d / "out").mkdir()
        table, lobes_text = ledger(calls, d / "out")
    print("LEDGER = {")
    for name, digest in sorted(table.items()):
        print(f"    {name!r}: {digest!r},")
    print("}")
    lobes, loss, tags = _fit_numbers(lobes_text)
    print(f"FIT_LOBES = {lobes.tolist()!r}\nFIT_LOSS = {loss!r}\nFIT_TAGS = {tags!r}")
