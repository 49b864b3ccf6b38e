"""Command-line interface: all six subcommands plus error handling."""

import csv
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import sglight.cli
import sglight.multiview
from sglight.cli import METRIC_NAMES, _mask_lines, _mask_patterns, main
from sglight.envmap import decode_env
from sglight.multiview import (
    MultiViewSet,
    depth_projection_error,
    multiview_mask,
    multiview_weight,
)
from sglight.pfm import read_pfm, write_pfm
from sglight.scene import parse_scene
from sglight.sg import SgEnvironment, SphericalGaussian, normalize
from sglight.vsg import CHUNK_POINTS, VsgVolume, save_vsg

from test_cli_fuzz import (
    SCENE,
    SCENE_COMMANDS,
    VSG_HEADER,
    base_vsg_records,
    vsg_bytes,
    write_inputs,
)
from test_scene import write_gbuffer
from test_sgfit import five_lobe_map


def write_wall_scene(dirpath, lighting="sg: 0 0 1 0.0 0.6 0.6 0.6\n",
                     quadrature=(32, 64), size=4):
    """Camera at the origin facing a flat albedo-1 wall at z = 2."""
    write_pfm(dirpath / "albedo.pfm",
              np.ones((size, size, 3), dtype=np.float32))
    write_pfm(dirpath / "rough.pfm",
              np.full((size, size), 0.4, dtype=np.float32))
    normal = np.zeros((size, size, 3), dtype=np.float32)
    normal[..., 2] = -1.0
    write_pfm(dirpath / "normal.pfm", normal)
    jj, ii = np.meshgrid(np.arange(size), np.arange(size), indexing="xy")
    ray = np.stack(
        [(jj + 0.5 - size / 2.0) / 20.0, (ii + 0.5 - size / 2.0) / 20.0,
         np.ones((size, size))],
        axis=-1,
    )
    ray /= np.linalg.norm(ray, axis=-1, keepdims=True)
    write_pfm(dirpath / "depth.pfm",
              (2.0 / ray[..., 2]).astype(np.float32))
    text = (
        "sgscene 1\n"
        "[camera.0]\n"
        f"intrinsics: 20 20 {size / 2} {size / 2}\n"
        "pose: 1 0 0 0\npose: 0 1 0 0\npose: 0 0 1 0\n"
        f"size: {size} {size}\n"
        "[gbuffer]\n"
        "albedo: albedo.pfm\nroughness: rough.pfm\n"
        "normal: normal.pfm\ndepth: depth.pfm\n"
        "[lighting]\n" + lighting +
        "[render]\n"
        f"resolution: {size} {size}\n"
        f"quadrature: {quadrature[0]} {quadrature[1]}\n"
    )
    path = dirpath / "scene.txt"
    path.write_text(text)
    return path


def write_volume_scene(dirpath, size=4):
    rng = np.random.default_rng(5)
    dims = (3, 3, 3)
    axis = rng.normal(size=dims + (3,))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    vol = VsgVolume.from_fields(
        rng.uniform(0.2, 0.9, size=dims),
        rng.uniform(0.1, 2.0, size=dims + (3,)),
        axis,
        rng.uniform(0.0, 20.0, size=dims),
        bbox_min=[-1.0, -1.0, 1.0], bbox_max=[1.0, 1.0, 3.0],
    )
    save_vsg(dirpath / "vol.vsg", vol)
    text = (
        "sgscene 1\n"
        "[camera.0]\n"
        f"intrinsics: 4 4 {size / 2} {size / 2}\n"
        "pose: 1 0 0 0\npose: 0 1 0 0\npose: 0 0 1 0\n"
        f"size: {size} {size}\n"
        "[lighting]\nvsg: vol.vsg\n"
        "[render]\n"
        f"resolution: {size} {size}\n"
    )
    path = dirpath / "vscene.txt"
    path.write_text(text)
    return path


def write_pair_scene(dirpath, size=4, offset=0.0):
    """Two cameras sharing a center, constant range-2 shells."""
    write_pfm(dirpath / "d0.pfm", np.full((size, size), 2.0,
                                          dtype=np.float32))
    write_pfm(dirpath / "d1.pfm",
              np.full((size, size), 2.0 + offset, dtype=np.float32))
    c, s = np.cos(0.05), np.sin(0.05)
    text = (
        "sgscene 1\n"
        "[camera.0]\n"
        f"intrinsics: 4 4 {size / 2} {size / 2}\n"
        "pose: 1 0 0 0\npose: 0 1 0 0\npose: 0 0 1 0\n"
        f"size: {size} {size}\ndepth: d0.pfm\n"
        "[camera.1]\n"
        f"intrinsics: 4 4 {size / 2} {size / 2}\n"
        f"pose: {c} 0 {-s} 0\npose: 0 1 0 0\npose: {s} 0 {c} 0\n"
        f"size: {size} {size}\ndepth: d1.pfm\n"
    )
    path = dirpath / "pair.txt"
    path.write_text(text)
    return path


def write_posed_scene(dirpath, size=6):
    """Three cameras with rotated, translated poses and random depths."""
    rng = np.random.default_rng(11)
    text = "sgscene 1\n"
    for k, (angle, trans) in enumerate([(0.35, (0.2, -0.1, 0.4)),
                                         (0.1, (0.0, 0.1, 0.0)),
                                         (0.8, (0.3, 0.0, -0.2))]):
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
        rot = rot @ np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
        write_pfm(dirpath / f"d{k}.pfm",
                  rng.uniform(1.5, 3.0, size=(size, size)).astype(np.float32))
        text += (f"[camera.{k}]\nintrinsics: 5 5 {size / 2} {size / 2}\n"
                 + "".join(f"pose: {r[0]!r} {r[1]!r} {r[2]!r} {t!r}\n"
                           for r, t in zip(rot.tolist(), trans))
                 + f"size: {size} {size}\ndepth: d{k}.pfm\n")
    path = dirpath / "posed.txt"
    path.write_text(text)
    return path


_CLI_MODULES = {"sglight", "sglight.cli", "sglight.pfm"}
# command -> (sglight modules beyond _CLI_MODULES, other tracked modules it loads)
_COMMAND_IMPORTS = {
    "metrics": ({"metrics"}, []),
    "fit": ({"_arrays", "envmap", "sg", "sgfit"}, []),
    "render": ({"_arrays", "scene", "sg", "brdf", "envmap", "multiview"}, []),
    "render-threads": ({"_arrays", "scene", "sg", "brdf", "envmap", "multiview"},
                       ["concurrent.futures"]),
    "vsg-trace": ({"_arrays", "scene", "sg", "vsg", "multiview"}, []),
    "bench-order": ({"_arrays", "scene", "sg", "vsg", "multiview"}, ["csv"]),
    "reproject": ({"_arrays", "scene", "multiview"}, []),
}


def _modules_after(statement):
    """(sglight modules, loaded ones of concurrent.futures, csv and scipy)
    after importing the CLI and running statement in a fresh interpreter."""
    code = (
        "import sys\n"
        "from sglight.cli import main\n"
        f"{statement}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'sglight')))\n"
        "print(' '.join(m for m in ('concurrent.futures', 'csv', 'scipy') if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    ours, others = proc.stdout.splitlines()[-2:]
    return ours.split(), others.split()


def _probe_argv(command, d):
    """A quick invocation of command on tiny inputs written under d."""
    if command == "metrics":
        rng = np.random.default_rng(5)
        ref = rng.uniform(0.1, 2.0, size=(4, 4, 3)).astype(np.float32)
        write_pfm(d / "a.pfm", (1.3 * ref).astype(np.float32))
        write_pfm(d / "b.pfm", ref)
        return ["metrics", str(d / "a.pfm"), str(d / "b.pfm"), "--metric", "g5"]
    if command == "fit":
        lobe = SphericalGaussian(normalize([0.3, -0.1, 0.95]), 9.0, [1.2, 0.8, 0.5])
        target = decode_env(SgEnvironment((lobe,)), rows=8, cols=16)
        write_pfm(d / "t.pfm", target.data.astype(np.float32))
        return ["fit", str(d / "t.pfm"), "--lobes", "1", "--out", str(d / "lobes.txt")]
    if command.startswith("render"):
        scene = write_wall_scene(d, quadrature=(4, 8))
        threads = ["--threads", "2"] if command == "render-threads" else []
        return ["render", str(scene), "--out-prefix", str(d / "r"), *threads]
    if command == "vsg-trace":
        return ["vsg-trace", str(write_volume_scene(d)), "--order", "before",
                "--nr", "8", "--out", str(d / "v.pfm")]
    if command == "bench-order":
        return ["bench-order", str(write_volume_scene(d)), "--rays", "16",
                "--nr-sweep", "4", "--out", str(d / "b.csv")]
    return ["reproject", str(write_pair_scene(d)), "--target", "0",
            "--out", str(d / "e.pfm"), str(d / "w.pfm"), str(d / "m.txt")]


class TestFit:
    def test_recovers_lobe(self, tmp_path):
        true = SphericalGaussian(normalize([0.3, -0.1, 0.95]), 9.0,
                                 [1.2, 0.8, 0.5])
        target = decode_env(SgEnvironment((true,)), rows=16, cols=32)
        write_pfm(tmp_path / "t.pfm", target.data.astype(np.float32))
        out = tmp_path / "lobes.txt"
        rc = main(["fit", str(tmp_path / "t.pfm"), "--lobes", "1",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("# loss=")
        vals = [float(v) for v in lines[0].split()]
        assert len(vals) == 7
        axis = np.array(vals[0:3])
        np.testing.assert_allclose(np.linalg.norm(axis), 1.0, rtol=1e-12)
        assert np.degrees(np.arccos(np.clip(axis @ true.axis, -1, 1))) <= 1.0
        np.testing.assert_allclose(vals[3], true.sharpness, rtol=2e-2)
        np.testing.assert_allclose(vals[4:7], true.intensity, rtol=2e-2)

    def test_surplus_lobes_converge_without_warning(self, tmp_path, capsys):
        write_pfm(tmp_path / "env.pfm", five_lobe_map())
        out = tmp_path / "lobes.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            rc = main(["fit", str(tmp_path / "env.pfm"), "--lobes", "7",
                       "--max-iterations", "30", "--out", str(out)])
        assert rc == 0 and capsys.readouterr().err == ""
        lines = out.read_text().splitlines()
        lobes = np.array([[float(v) for v in line.split()] for line in lines[:-1]])
        assert lobes.shape == (7, 7) and np.all(np.isfinite(lobes))
        assert lines[-1].endswith(" converged=1")

    def test_rejects_grayscale_target(self, tmp_path, capsys):
        write_pfm(tmp_path / "g.pfm", np.ones((4, 4), dtype=np.float32))
        rc = main(["fit", str(tmp_path / "g.pfm"), "--out",
                   str(tmp_path / "o.txt")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("lobes, rc", [(16, 0), (17, 1), (1000, 1)])
    def test_refuses_more_parameters_than_residuals(self, lobes, rc, tmp_path, capsys):
        """A 4x8 map has 96 residuals, so at most 16 lobes of 6 parameters."""
        write_pfm(tmp_path / "t.pfm", np.ones((4, 8, 3), dtype=np.float32))
        out = tmp_path / "lobes.txt"
        assert main(["fit", str(tmp_path / "t.pfm"), "--lobes", str(lobes),
                     "--max-iterations", "1", "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err == (f"error: num_lobes must be <= 16 for a 4x8 map (6 parameters "
                           f"per lobe, 3 residuals per cell), got {lobes}\n")
            assert not out.exists()
        else:
            assert err == "" and len(out.read_text().splitlines()) == lobes + 1

    def test_refused_fit_allocates_no_normal_matrix(self, tmp_path):
        """The lobe count is checked before anything of size S is built: the
        traced peak stays below one (6S, 6S) float64 matrix, here 288 MB."""
        lobes = 1000
        write_pfm(tmp_path / "t.pfm", np.ones((4, 8, 3), dtype=np.float32))
        argv = ["fit", str(tmp_path / "t.pfm"), "--lobes", str(lobes),
                "--out", str(tmp_path / "lobes.txt")]
        tracemalloc.start()
        try:
            assert main(argv) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (6 * lobes) ** 2 * 8, peak

    @pytest.mark.parametrize("seed", [1, 3])
    def test_bytes_independent_of_blas_threads(self, seed, tmp_path):
        """fit sums its squared residuals without a BLAS dot product, whose
        threads split the sum, so 1 and 2 OpenBLAS threads write one file."""
        rng = np.random.default_rng(seed)
        lobes = tuple(SphericalGaussian(normalize(rng.normal(size=3)), rng.uniform(1.0, 80.0),
                                        rng.uniform(0.0, 3.0, size=3)) for _ in range(5))
        data = decode_env(SgEnvironment(lobes), rows=64, cols=128).data
        write_pfm(tmp_path / "t.pfm", (data * rng.uniform(0.9, 1.1, data.shape)).astype(np.float32))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            out = tmp_path / f"lobes{threads}.txt"
            subprocess.run([sys.executable, "-m", "sglight", "fit", str(tmp_path / "t.pfm"),
                            "--lobes", "8", "--max-iterations", "100", "--out", str(out)],
                           env=env, check=True)
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestRender:
    def test_furnace_outputs(self, tmp_path):
        scene = write_wall_scene(tmp_path)
        rc = main(["render", str(scene), "--out-prefix",
                   str(tmp_path / "img")])
        assert rc == 0
        diffuse = read_pfm(tmp_path / "img_diffuse.pfm")
        specular = read_pfm(tmp_path / "img_specular.pfm")
        full = read_pfm(tmp_path / "img_full.pfm")
        np.testing.assert_allclose(diffuse, 0.6, rtol=1e-6)
        assert np.all(specular > 0.0)
        np.testing.assert_allclose(full, diffuse + specular, rtol=1e-6)

    def test_threads_bit_identical(self, tmp_path):
        """The row-banded thread pool must not change a single byte, also
        with more threads than rows (6 threads on 4 rows: a row per band)."""
        for size, threads in ((5, "3"), (4, "6")):
            d = tmp_path / str(size)
            d.mkdir()
            scene = write_wall_scene(
                d, lighting="sg: 0.2 -0.3 0.9 7.0 1.0 0.7 0.4\n", size=size
            )
            rc = main(["render", str(scene), "--out-prefix",
                       str(d / "a")])
            assert rc == 0
            rc = main(["render", str(scene), "--out-prefix",
                       str(d / "b"), "--threads", threads])
            assert rc == 0
            for kind in ("diffuse", "specular", "full"):
                a = (d / f"a_{kind}.pfm").read_bytes()
                b = (d / f"b_{kind}.pfm").read_bytes()
                assert a == b, (size, kind)

    def test_camera_size_mismatch_fails(self, tmp_path, capsys):
        """A 4x4 G-buffer seen by a 5x5 camera is an error, not a render."""
        scene = write_wall_scene(tmp_path)
        scene.write_text(scene.read_text().replace("size: 4 4", "size: 5 5"))
        rc = main(["render", str(scene), "--out-prefix", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "camera" in err
        assert not (tmp_path / "x_specular.pfm").exists()

    @pytest.mark.parametrize("value", ["0", "-5", "abc"])
    def test_threads_below_one_is_usage_error(self, value, tmp_path, capsys):
        scene = write_wall_scene(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["render", str(scene), "--out-prefix", str(tmp_path / "x"),
                  "--threads", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--threads" in err and value in err
        assert not (tmp_path / "x_diffuse.pfm").exists()

    def test_missing_lighting_fails(self, tmp_path, capsys):
        write_gbuffer(tmp_path)
        scene = tmp_path / "scene.txt"
        scene.write_text(
            "sgscene 1\n[camera.0]\nintrinsics: 20 20 2 2\n"
            "pose: 1 0 0 0\npose: 0 1 0 0\npose: 0 0 1 0\nsize: 4 4\n"
            "[gbuffer]\nalbedo: albedo.pfm\nroughness: rough.pfm\n"
            "normal: normal.pfm\ndepth: depth.pfm\n"
        )
        rc = main(["render", str(scene), "--out-prefix",
                   str(tmp_path / "x")])
        assert rc == 1
        assert "lighting" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    # the axis's length overflows before it is normalized
    ("sg: 0 0 1 0.0 0.6 0.6 0.6", "sg: 1e300 1e300 -1e300 2 1 1 1", "normalize"),
    # rot @ rot.T overflows in the orthonormality check
    ("pose: 1 0 0 0", "pose: 1e300 0 0 0", "orthonormal"),
    # finite float64 radiance beyond the float32 range of the PFM outputs
    ("0.6 0.6 0.6", "1e300 1e300 1e300", "float32"),
])
def test_overflowing_finite_values_are_one_error_line(old, new, message, tmp_path, capsys):
    """Finite scene values that overflow give one error line, no warning."""
    scene = write_wall_scene(tmp_path)
    scene.write_text(scene.read_text().replace(old, new))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        rc = main(["render", str(scene), "--out-prefix", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and message in err, err
    assert not list(tmp_path.glob("x_*.pfm"))


def write_overflow_scene(dirpath, case):
    """A wall scene whose finite lobe overflows float64 inside a renderer."""
    if case != "specular":
        scene = write_wall_scene(dirpath, "sg: 0 0 -1 0.0 1e308 1e308 1e308\n")
        if case == "zero-albedo":  # 0 * inf in the diffuse pass's albedo product
            albedo = np.ones((4, 4, 3), dtype=np.float32)
            albedo[0, 0] = 0.0
            write_pfm(dirpath / "albedo.pfm", albedo)
        return scene
    # the one node of a 1x1 grid, (-sqrt(3)/2, 0, -1/2) in world space, is
    # pixel (0, 0)'s mirror direction, so GGX at roughness 0.01 peaks there
    # near 1 / (pi alpha^2); diffuse stays near the lobe's 1e306
    scene = write_wall_scene(dirpath, "sg: 0 0 -1 0.0 1e306 1e306 1e306\n", quadrature=(1, 1))
    scene.write_text(scene.read_text().replace(
        "intrinsics: 20 20 2.0 2.0", f"intrinsics: 1 1 {0.5 + 3.0 ** 0.5!r} 0.5"))
    write_pfm(dirpath / "rough.pfm", np.full((4, 4), 0.01, dtype=np.float32))
    return scene


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", ["both", "zero-albedo", "specular"])
def test_overflow_inside_the_renderers_is_one_error_line(case, threads, tmp_path, capsys):
    """Lobes that overflow in the shading pass give one error line and no
    warning, also when the overflow happens in a band thread."""
    scene = write_overflow_scene(tmp_path, case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        rc = main(["render", str(scene), "--out-prefix", str(tmp_path / "x"),
                   "--threads", threads])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: HdrImage data must be finite\n", err
    assert not list(tmp_path.glob("x_*.pfm"))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case, message", [
    ("roughness", "error: roughness must be > 0 (delta lobes unsupported)\n"),
    ("size", "error: gbuffer is 4x4 but the camera is 5x4\n"),
])
def test_specular_checks_fail_before_diffuse_shading(case, message, threads, tmp_path,
                                                      capsys, monkeypatch):
    """A zero roughness or a camera of the wrong size is reported before the
    diffuse pass shades anything."""
    import sglight.brdf

    def no_diffuse(*args, **kwargs):
        raise AssertionError("render_diffuse ran before the specular checks")

    monkeypatch.setattr(sglight.brdf, "render_diffuse", no_diffuse)
    scene = write_wall_scene(tmp_path)
    if case == "roughness":
        rough = np.full((4, 4), 0.4, dtype=np.float32)
        rough[2, 1] = 0.0
        write_pfm(tmp_path / "rough.pfm", rough)
    else:
        scene.write_text(scene.read_text().replace("size: 4 4", "size: 5 4"))
    rc = main(["render", str(scene), "--out-prefix", str(tmp_path / "x"),
               "--threads", threads])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not list(tmp_path.glob("x_*.pfm"))


def test_out_of_memory_is_one_error_line(tmp_path, capsys):
    """numpy refuses the 57 PiB (8, 1, n_r) record buffer at once, so no memory is touched."""
    scene = write_volume_scene(tmp_path)
    rc = main(["vsg-trace", str(scene), "--order", "before", "--nr", "1000000000000000",
               "--out", str(tmp_path / "o.pfm")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err
    assert not (tmp_path / "o.pfm").exists()


def run_fuzz_scene(d, scene, command, target):
    """Run one command on the fuzz tests' valid input set with warnings as errors."""
    write_inputs(str(d), {"scene.txt": scene.encode()})
    argv = [command, str(d / "scene.txt")] + [a.format(d=d) for a in SCENE_COMMANDS[command]]
    if target is not None:
        argv[argv.index("--target") + 1] = target
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
        return main(argv)


@pytest.mark.parametrize("command, target", [
    ("render", None), ("vsg-trace", None), ("reproject", "0"), ("reproject", "1"),
])
@pytest.mark.parametrize("intrinsics", ["1e-300 1e-300 2 2", "4 4 1e300 2"])
def test_overflowing_pixel_rays_are_one_error_line(command, target, intrinsics, tmp_path,
                                                   capsys):
    """Camera 0's corner rays have no finite length: the camera is refused."""
    scene = SCENE.replace("intrinsics: 4 4 2 2", f"intrinsics: {intrinsics}", 1)
    assert run_fuzz_scene(tmp_path, scene, command, target) == 1
    assert capsys.readouterr().err == "error: intrinsics overflow the pixel rays\n"


@pytest.mark.parametrize("target", ["0", "1"])
@pytest.mark.parametrize("tx", ["1.5e154", "1e300", "1.7e308"])
def test_far_camera_gets_no_vote_without_warning(target, tx, tmp_path, capsys):
    """Camera 1 so far away that its distances overflow: e = inf, exit 0."""
    scene = SCENE.replace("pose: 1 0 0 0.1", f"pose: 1 0 0 {tx}")
    assert run_fuzz_scene(tmp_path, scene, "reproject", target) == 0
    assert capsys.readouterr().err == ""
    other = 1 - int(target)  # the other view's block of the tiled error map
    assert np.all(np.isinf(read_pfm(tmp_path / "e.pfm")[:, 4 * other:4 * other + 4]))


def test_far_target_pose_gives_uniform_weights_without_warning(tmp_path, capsys):
    """The target itself turned 45 degrees about z and moved to (1.7e308,
    1.7e308, 0): its points overflow, so every e is inf and every weight is
    the uniform 0.5, exit 0."""
    c = repr(0.5 ** 0.5)
    scene = SCENE.replace("pose: 1 0 0 0.1\npose: 0 1 0 0",
                          f"pose: {c} -{c} 0 1.7e308\npose: {c} {c} 0 1.7e308")
    assert run_fuzz_scene(tmp_path, scene, "reproject", "1") == 0
    assert capsys.readouterr().err == ""
    assert np.all(np.isinf(read_pfm(tmp_path / "e.pfm")))
    assert np.all(read_pfm(tmp_path / "w.pfm") == 0.5)


class TestVsgTrace:
    def test_renders_camera_size_not_resolution(self, tmp_path):
        """The image is camera 0's size, and each pixel is one sample_ray
        along the per-pixel ray build."""
        from sglight.vsg import composite_sg_before, sample_ray
        scene = write_volume_scene(tmp_path)
        scene.write_text(scene.read_text().replace("size: 4 4", "size: 5 3")
                         .replace("resolution: 4 4", "resolution: 7 2"))
        rc = main(["vsg-trace", str(scene), "--order", "before", "--nr", "16",
                   "--out", str(tmp_path / "b.pfm")])
        assert rc == 0
        parsed = parse_scene(scene)
        cam = parsed.cameras[0]
        want = np.zeros((3, 5, 3))
        for i in range(3):
            for j in range(5):
                ray = np.array([(j + 0.5 - cam.cx) / cam.fx, (i + 0.5 - cam.cy) / cam.fy, 1.0])
                ray = cam.rotation.T @ (ray / np.linalg.norm(ray))
                samples = sample_ray(parsed.volume, cam.center, ray, 16)
                if len(samples):
                    want[i, j] = composite_sg_before(samples, ray)
        assert np.any(want > 0.0)
        assert np.array_equal(read_pfm(tmp_path / "b.pfm"), want.astype(np.float32))

    @pytest.mark.parametrize("order", ["before", "after"])
    @pytest.mark.parametrize("n_r", [37, CHUNK_POINTS + 1])
    def test_pfm_equals_per_pixel_reference(self, tmp_path, n_r, order):
        """The image, composited CHUNK_POINTS // n_r rays at a time (two
        chunks, the second partial, at n_r 37; one ray a chunk past
        CHUNK_POINTS), has the bytes of compositing each pixel's sample_ray
        set on its own; the 12 x 12 view's outer pixels miss the volume."""
        from sglight.vsg import composite_sg_after, composite_sg_before, sample_ray
        scene = write_volume_scene(tmp_path, size=12)
        out = tmp_path / "v.pfm"
        assert main(["vsg-trace", str(scene), "--order", order, "--nr", str(n_r),
                     "--out", str(out)]) == 0
        parsed = parse_scene(scene)
        composite = composite_sg_before if order == "before" else composite_sg_after
        rays = parsed.cameras[0].pixel_rays()
        want = np.zeros_like(rays)
        for i, j in np.ndindex(rays.shape[:2]):
            samples = sample_ray(parsed.volume, parsed.cameras[0].center, rays[i, j], n_r)
            if len(samples):
                want[i, j] = composite(samples, rays[i, j])
        hit = np.any(want > 0.0, axis=-1)
        assert 0 < hit.sum() < hit.size
        write_pfm(tmp_path / "want.pfm", want.astype(np.float32))
        assert out.read_bytes() == (tmp_path / "want.pfm").read_bytes()

    def test_malformed_resolution_is_a_parse_error(self, tmp_path, capsys):
        """resolution: is not read, but it is still checked, on its line."""
        scene = write_volume_scene(tmp_path)
        scene.write_text(scene.read_text().replace("resolution: 4 4", "resolution: 4"))
        rc = main(["vsg-trace", str(scene), "--order", "after", "--out",
                   str(tmp_path / "a.pfm")])
        assert rc == 1
        assert capsys.readouterr().err == "error: line 11: resolution needs 2 values, got 1\n"

    def test_repeated_intrinsics_is_a_parse_error(self, tmp_path, capsys):
        """A second intrinsics line is refused, not loaded over the first."""
        scene = write_volume_scene(tmp_path)
        scene.write_text(scene.read_text().replace("size: 4 4\n",
                                                   "size: 4 4\nintrinsics: 9 9 1 1\n"))
        rc = main(["vsg-trace", str(scene), "--order", "after", "--out",
                   str(tmp_path / "a.pfm")])
        assert rc == 1
        assert capsys.readouterr().err == "error: line 8: duplicate camera key 'intrinsics'\n"

    def test_orders_produce_different_images(self, tmp_path):
        scene = write_volume_scene(tmp_path)
        rc = main(["vsg-trace", str(scene), "--order", "before",
                   "--nr", "16", "--out", str(tmp_path / "b.pfm")])
        assert rc == 0
        rc = main(["vsg-trace", str(scene), "--order", "after",
                   "--nr", "16", "--out", str(tmp_path / "a.pfm")])
        assert rc == 0
        before = read_pfm(tmp_path / "b.pfm")
        after = read_pfm(tmp_path / "a.pfm")
        assert before.shape == (4, 4, 3)
        assert np.any(before > 0.0)
        assert not np.allclose(before, after, rtol=1e-3)

    def test_deterministic(self, tmp_path):
        scene = write_volume_scene(tmp_path)
        main(["vsg-trace", str(scene), "--order", "before", "--nr", "8",
              "--out", str(tmp_path / "x.pfm")])
        main(["vsg-trace", str(scene), "--order", "before", "--nr", "8",
              "--out", str(tmp_path / "y.pfm")])
        assert (tmp_path / "x.pfm").read_bytes() == \
            (tmp_path / "y.pfm").read_bytes()


class TestBenchOrder:
    def test_csv_layout_and_eval_counts(self, tmp_path):
        scene = write_volume_scene(tmp_path)
        out = tmp_path / "bench.csv"
        rc = main(["bench-order", str(scene), "--rays", "256",
                   "--nr-sweep", "4,16", "--out", str(out)])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["order", "n_r", "rays", "g_evals", "seconds"]
        assert len(rows) == 5
        for row in rows[1:]:
            assert row[0] in ("before", "after")
            n_r, rays, g_evals = int(row[1]), int(row[2]), int(row[3])
            assert rays == 256
            expected = rays * n_r if row[0] == "before" else rays
            assert g_evals == expected
            assert float(row[4]) > 0.0

    def test_deterministic_apart_from_seconds(self, tmp_path):
        scene = write_volume_scene(tmp_path)
        frames = []
        for name in ("x.csv", "y.csv"):
            main(["bench-order", str(scene), "--rays", "64",
                  "--nr-sweep", "4", "--out", str(tmp_path / name)])
            with open(tmp_path / name, newline="") as fh:
                frames.append([row[:4] for row in csv.reader(fh)])
        assert frames[0] == frames[1]

    def test_bad_sweep_rejected(self, tmp_path, capsys):
        scene = write_volume_scene(tmp_path)
        rc = main(["bench-order", str(scene), "--nr-sweep", "4,x",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert "nr-sweep" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["vsg-trace", "--order", "before", "--out"],
    ["bench-order", "--out"],
])
def test_zero_size_volume_is_clean_error(command, tmp_path, capsys):
    """A .vsg with a zero dimension fails with one error line, no traceback."""
    write_volume_scene(tmp_path)
    (tmp_path / "vol.vsg").write_bytes(
        b"VSG1\n0 4 4\n-1 -1 1 1 1 3\nalpha intensity axis sharpness\n"
    )
    name, *flags = command
    rc = main([name, str(tmp_path / "vscene.txt"), *flags, str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert [line for line in err.splitlines() if line] == [err.strip()]
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [["--nr-sweep", "0"], ["--nr-sweep", "-3"],
                                   ["--rays", "0"], ["--rays", "-5"]])
def test_bench_order_rejects_empty_counts(flags, tmp_path, capsys):
    """Sample and ray counts below 1 fail with one error line, no traceback."""
    scene = write_volume_scene(tmp_path)
    rc = main(["bench-order", str(scene), *flags, "--out", str(tmp_path / "o.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert [line for line in err.splitlines() if line] == [err.strip()]
    assert err.startswith("error:") and "must be >= 1" in err


@pytest.mark.parametrize("flags", [["--nr-sweep", "8,0"], ["--rays", "0"]])
def test_bench_order_checks_counts_before_the_csv(flags, tmp_path, capsys):
    """A count below 1 anywhere in the sweep fails before any n_r is timed:
    one error line and no CSV, not one with the header and earlier rows."""
    scene = write_volume_scene(tmp_path)
    out = tmp_path / "o.csv"
    assert main(["bench-order", str(scene), "--rays", "16", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: rays and n_r must be >= 1\n"
    assert not out.exists()


def test_bench_order_writes_no_csv_when_a_later_count_fails(tmp_path, capsys):
    """An n_r that cannot be allocated after one that ran fails with one
    error line and no CSV: every n_r runs before the CSV opens, so no file
    holds the header and the earlier rows as if the sweep were complete."""
    scene = write_volume_scene(tmp_path)
    out = tmp_path / "o.csv"
    rc = main(["bench-order", str(scene), "--rays", "1",
               "--nr-sweep", "8,1000000000000000", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert [line for line in err.splitlines() if line] == [err.strip()]
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("dims,payload", [(b"-1 -1 4", 128), (b"-2 4 4", 0)])
def test_negative_volume_dimensions_are_clean_error(dims, payload, tmp_path, capsys):
    """Negative header dimensions fail with one error line, no traceback."""
    write_volume_scene(tmp_path)
    (tmp_path / "vol.vsg").write_bytes(
        b"VSG1\n" + dims + b"\n-1 -1 1 1 1 3\nalpha intensity axis sharpness\n"
        + b"\x00" * payload
    )
    rc = main(["vsg-trace", str(tmp_path / "vscene.txt"), "--order", "before",
               "--out", str(tmp_path / "o.pfm")])
    err = capsys.readouterr().err
    assert rc == 1
    assert [line for line in err.splitlines() if line] == [err.strip()]
    assert err.startswith("error:")
    assert "dimensions must be >= 1" in err
    assert "Traceback" not in err


def _scene_with(old, new):
    return {"scene.txt": SCENE.replace(old, new, 1).encode()}


def _vsg_with(dims=b"2 2 2", sharpness=4.0):
    records = base_vsg_records()
    records[0, 0, 0, 7] = sharpness
    return {"vol.vsg": vsg_bytes([VSG_HEADER[0], dims, *VSG_HEADER[2:]], records)}


_RENDER = ["render", "{d}/scene.txt", "--out-prefix", "{d}/r"]
_TRACE = ["vsg-trace", "{d}/scene.txt", "--order", "before", "--out", "{d}/v.pfm"]


@pytest.mark.parametrize("argv, replace, message", [
    (["bench-order", "{d}/scene.txt", "--nr-sweep", ",", "--out", "{d}/b.csv"], {},
     "--nr-sweep is empty"),
    (["metrics", "{d}/a.pfm", "{d}/b.pfm", "--mask", "{d}/a.pfm", "--metric", "g2"], {},
     "mask must be a grayscale PFM"),
    (["metrics", "{d}/mask.pfm", "{d}/mask.pfm", "--metric", "g1"], {},
     "inputs must be matching (..., 3) vector fields"),
    (["fit", "{d}/t.pfm", "--max-iterations", "0", "--out", "{d}/l.txt"], {},
     "max_iterations must be >= 1"),
    ([*_TRACE, "--nr", "0"], {}, "n_r must be >= 1"),
    (_TRACE, _vsg_with(dims=b"2 2 x"), "malformed volume header"),
    (_TRACE, _vsg_with(sharpness=-1.0), "sharpness channel must be >= 0"),
    (_RENDER, _scene_with("quadrature: 4 8", "quadrature: 0 8"), "resolution must be positive"),
    (_RENDER, _scene_with("size: 4 4", "size: 0 4"), "image size must be positive"),
    (_RENDER, _scene_with("pose: 0 0 1 0", "pose: 0 0 -1 0"), "rotation must have determinant 1"),
    (_RENDER, _scene_with("sg: 0 0 -1", "sg: 0 0 0"), "cannot normalize a zero vector"),
], ids=["empty-sweep", "rgb-mask", "grayscale-g1", "zero-iterations", "zero-samples",
        "vsg-header", "vsg-sharpness", "zero-quadrature", "zero-camera-size",
        "reflecting-pose", "zero-sg-axis"])
def test_rejected_input_is_its_one_error_line(argv, replace, message, tmp_path, capsys):
    """Each input, invalid in one way on the fuzz tests' valid set, exits 1
    with exactly its own error line."""
    write_inputs(tmp_path, replace)
    assert main([a.format(d=tmp_path) for a in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# float64 bytes per pixel of each command's per-pixel inputs and outputs:
# render reads 8 G-buffer channels and writes 3 RGB images; vsg-trace
# marches one ray direction per pixel and writes 1 RGB image; reproject
# reads K = 3 depth maps, writes 2K error and weight planes and one m.txt
# line, counted at its length in bytes
_IO_BYTES_PER_PX = {"render": (8 + 3 * 3) * 8, "vsg-trace": (3 + 3) * 8,
                    "reproject": (3 + 2 * 3) * 8 + len("95 95 1 0 1 0\n")}


@pytest.mark.parametrize("command", sorted(_IO_BYTES_PER_PX))
def test_peak_memory_grows_with_inputs_and_outputs(command, tmp_path, monkeypatch):
    """From a 48^2 to a 96^2 image, the traced peak of one in-process run
    grows by at most twice the float64 inputs and outputs it adds. A
    command holds each per-pixel input and output as float64 (1x), as
    float32 file data (1/2x), and, while write_pfm runs, one float32
    payload copy of one output (at most 1/4x): under 2x in all. Per-pixel
    work arrays, such as quadrature nodes, ray samples or a whole view's
    reprojection errors, would break it."""
    peaks = []
    for side in (48, 96):
        d = tmp_path / str(side)
        d.mkdir()
        if command == "render":  # 512 nodes: a 256-pixel chunk at both sides
            argv = ["render", str(write_wall_scene(d, quadrature=(16, 32), size=side)),
                    "--out-prefix", str(d / "r")]
        elif command == "reproject":  # bands of 480 pixels at both sides
            monkeypatch.setattr(sglight.multiview, "BAND_PX", 480)
            argv = ["reproject", str(write_posed_scene(d, size=side)), "--target", "0",
                    "--out", *(str(d / n) for n in ("e.pfm", "w.pfm", "m.txt"))]
        else:
            argv = ["vsg-trace", str(write_volume_scene(d, size=side)), "--order", "before",
                    "--nr", "16", "--out", str(d / "v.pfm")]
        assert main(argv) == 0  # imports and first-call caches stay out of the peak
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    added_px = 96**2 - 48**2
    assert peaks[1] - peaks[0] <= 2 * _IO_BYTES_PER_PX[command] * added_px, peaks


def test_render_threads_peak_grows_by_one_band_and_workspace_per_thread(tmp_path, monkeypatch):
    """From --threads 1 to 2 and 4, the traced peak of render on a 128^2
    image grows by at most one band's diffuse and specular images and one
    chunk workspace per extra thread. The workspace is eight chunk buffers:
    specular's five and three for the chunk's frame and node products, as in
    test_brdf's chunk-buffer budget. 256-pixel chunks keep it at 512 KiB, so
    a band thread holding a full-size 384 KiB image breaks the bound."""
    size, chunk_nodes = 128, 1 << 13
    monkeypatch.setattr(sglight.brdf, "CHUNK_NODES", chunk_nodes)  # 256 px of 32 nodes
    scene = write_wall_scene(tmp_path, lighting="sg: 0.2 -0.3 0.9 7.0 1.0 0.7 0.4\n",
                             quadrature=(4, 8), size=size)
    peaks = {}
    for threads in (1, 2, 4):
        argv = ["render", str(scene), "--out-prefix", str(tmp_path / "r"),
                "--threads", str(threads)]
        assert main(argv) == 0  # imports and first-call caches stay out of the peak
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peaks[threads] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    for threads in (2, 4):
        band_images = 2 * (size // threads) * size * 3 * 8
        per_thread = 8 * chunk_nodes * 8 + band_images
        assert peaks[threads] - peaks[1] <= (threads - 1) * per_thread, peaks


def _simd_groups():
    """numpy's extension module and the runtime-dispatched SIMD groups above
    its build's baseline that this host has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return umath, [g for g in umath.__cpu_dispatch__ if umath.__cpu_features__.get(g)]


def _fit_numbers(text):
    """lobes.txt as (lobe rows, loss, the other trailing key=value pairs)."""
    *rows, tail = text.splitlines()
    tags = dict(kv.split("=") for kv in tail.lstrip("# ").split())
    return np.array([[float(v) for v in r.split()] for r in rows]), float(tags.pop("loss")), tags


# fit's lobes across SIMD dispatch levels, relative per value: np.exp and
# np.log round differently with and without AVX-512, and the benchmark's fits
# moved by at most 7.0e-16 (a few ulps); the bound leaves a factor of 4. A
# fit with a degenerate lobe moves further (6.3e-12 measured on a 3-lobe fit
# in which one lobe's sharpness ran to 1.9e7), so the test fits a
# well-conditioned map, as the benchmark does.
SIMD_LOBE_RTOL = 3e-15


@pytest.mark.skipif(not _simd_groups()[1], reason="numpy dispatches no SIMD group above "
                                                  "its baseline on this host")
def test_outputs_across_simd_dispatch_levels(tmp_path):
    """README promises bytes on one host and one numpy build. Run with numpy's
    dispatched SIMD groups disabled, render, vsg-trace and reproject write the
    same float32 files, and fit's lobes and loss move by at most SIMD_LOBE_RTOL
    relative in the same number of iterations."""
    umath, groups = _simd_groups()
    probe = f"import {umath.__name__} as m; print(*(g for g in {groups!r} if m.__cpu_features__[g]))"
    rng = np.random.default_rng(17)
    lobes = tuple(SphericalGaussian(normalize(rng.normal(size=3)), rng.uniform(1.0, 80.0),
                                    rng.uniform(0.0, 3.0, size=3)) for _ in range(10))
    data = decode_env(SgEnvironment(lobes), rows=64, cols=128).data
    target = tmp_path / "t.pfm"
    write_pfm(target, (data * rng.uniform(0.9, 1.1, data.shape)).astype(np.float32))
    wall = write_wall_scene(tmp_path, "sg: 0 0 -1 8 1 0.8 0.6\nsg: 0.6 0 -0.8 30 0.4 0.5 0.9\n",
                            quadrature=(8, 16), size=8)
    volume, posed = write_volume_scene(tmp_path, size=8), write_posed_scene(tmp_path)
    files = {}
    for level, disabled in (("plain", None), ("baseline", " ".join(groups))):
        out = tmp_path / level
        out.mkdir()
        env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
        env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        # the child really runs without the groups
        seen = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True).stdout.split()
        assert seen == ([] if disabled else groups)
        for argv in (
            ["fit", str(target), "--lobes", "8", "--max-iterations", "100",
             "--out", str(out / "lobes.txt")],
            ["render", str(wall), "--out-prefix", str(out / "r")],
            ["vsg-trace", str(volume), "--order", "before", "--nr", "32",
             "--out", str(out / "v_before.pfm")],
            ["vsg-trace", str(volume), "--order", "after", "--nr", "32",
             "--out", str(out / "v_after.pfm")],
            ["reproject", str(posed), "--target", "0",
             "--out", *(str(out / n) for n in ("e.pfm", "w.pfm", "m.txt"))],
        ):
            subprocess.run([sys.executable, "-m", "sglight", *argv], env=env, check=True)
        files[level] = {p.name: p.read_bytes() for p in out.iterdir()}
    plain, baseline = files["plain"], files["baseline"]
    assert sorted(plain) == sorted(baseline) and len(plain) == 9
    for name in plain:
        if name != "lobes.txt":
            assert plain[name] == baseline[name], name
    (lobes_a, loss_a, tags_a), (lobes_b, loss_b, tags_b) = (
        _fit_numbers(f["lobes.txt"].decode()) for f in (plain, baseline))
    assert tags_a == tags_b  # iterations and converged
    assert abs(loss_a - loss_b) <= SIMD_LOBE_RTOL * loss_a
    assert np.all(np.abs(lobes_a - lobes_b) <= SIMD_LOBE_RTOL * np.abs(lobes_a)), (lobes_a, lobes_b)


class TestReproject:
    def test_outputs_match_library(self, tmp_path):
        scene_path = write_pair_scene(tmp_path, offset=0.3)
        outs = [str(tmp_path / n) for n in ("e.pfm", "w.pfm", "m.txt")]
        rc = main(["reproject", str(scene_path), "--target", "0",
                   "--out", *outs])
        assert rc == 0
        emap = read_pfm(outs[0])
        wmap = read_pfm(outs[1])
        assert emap.shape == (4, 8) and wmap.shape == (4, 8)
        scene = parse_scene(scene_path)
        mvs = MultiViewSet(tuple(scene.cameras), target=0)
        e = depth_projection_error(mvs, (1, 2))
        np.testing.assert_allclose([emap[1, 2], emap[1, 4 + 2]], e,
                                   rtol=1e-6)
        np.testing.assert_allclose(
            [wmap[1, 2], wmap[1, 4 + 2]], multiview_weight(e), rtol=1e-6
        )
        lines = (tmp_path / "m.txt").read_text().splitlines()
        assert len(lines) == 16
        first = [int(v) for v in lines[0].split()]
        assert first[:2] == [0, 0] and len(first) == 5
        assert first[2] == 1  # target entry

    def test_posed_outputs_equal_per_pixel_library(self, tmp_path):
        """A rotated, translated target: every output matches exactly."""
        scene_path = write_posed_scene(tmp_path)
        outs = [str(tmp_path / n) for n in ("e.pfm", "w.pfm", "m.txt")]
        assert main(["reproject", str(scene_path), "--target", "0", "--out", *outs]) == 0
        mvs = MultiViewSet(tuple(parse_scene(scene_path).cameras), target=0)
        pixels = [(i, j) for i in range(6) for j in range(6)]
        e = np.array([depth_projection_error(mvs, p) for p in pixels]).reshape(6, 6, 3)
        w = np.array([multiview_weight(r) for r in e.reshape(-1, 3)]).reshape(6, 6, 3)
        assert np.isinf(e).any() and np.isfinite(e[..., 1:]).any()

        def tiled(a):
            return a.transpose(0, 2, 1).reshape(6, 18).astype(np.float32)

        assert np.array_equal(read_pfm(outs[0]), tiled(e))
        assert np.array_equal(read_pfm(outs[1]), tiled(w))
        want = [f"{i} {j} " + " ".join(str(v) for v in multiview_mask(e[i, j]))
                for i, j in pixels]
        assert (tmp_path / "m.txt").read_text() == "\n".join(want) + "\n"

    def test_target_depth_hole_aborts(self, tmp_path, capsys, monkeypatch):
        """A hole in row 4 writes no output, in one band and in one-row
        bands, where rows 0 to 3 were computed before it."""
        scene_path = write_posed_scene(tmp_path)
        depth = read_pfm(tmp_path / "d0.pfm").copy()
        depth[4, 1] = 0.0
        write_pfm(tmp_path / "d0.pfm", depth)
        outs = [tmp_path / n for n in ("e.pfm", "w.pfm", "m.txt")]
        for band_px in (sglight.multiview.BAND_PX, 6):
            monkeypatch.setattr(sglight.multiview, "BAND_PX", band_px)
            rc = main(["reproject", str(scene_path), "--target", "0", "--out", *map(str, outs)])
            assert rc == 1
            assert capsys.readouterr().err == "error: target pixel has no valid depth\n"
            assert not any(out.exists() for out in outs)

    def test_outputs_independent_of_band_size(self, tmp_path, monkeypatch):
        """Bands of one row, three rows and the whole 6x6 view write the same bytes."""
        scene_path = write_posed_scene(tmp_path)
        written = []
        for band_px in (6, 18, 36):
            monkeypatch.setattr(sglight.multiview, "BAND_PX", band_px)
            outs = [tmp_path / f"{band_px}{n}" for n in ("e.pfm", "w.pfm", "m.txt")]
            assert main(["reproject", str(scene_path), "--target", "0",
                         "--out", *map(str, outs)]) == 0
            written.append([out.read_bytes() for out in outs])
        assert written[0] == written[1] == written[2]

    @pytest.mark.parametrize("k", [*range(1, 9), 9, 17])
    def test_mask_lines_equal_per_row_join(self, k):
        """The m.txt line builder writes the text of the per-pixel join over
        the (row, col, mask) table that it replaced, for random masks whose
        view entries take one byte (K <= 8) or more."""
        rng = np.random.default_rng(k)
        rows = slice(10, 14)
        mask = rng.integers(0, 2, size=(4, 9, k + 1))
        mask[..., 0] = 1
        pixels = np.indices((4, 9)).transpose(1, 2, 0) + [rows.start, 0]
        table = np.concatenate([pixels, mask], axis=-1).reshape(4 * 9, -1)
        want = "".join(" ".join(map(str, row)) + "\n" for row in table.tolist())
        codes = np.packbits(mask[..., 1:], axis=-1, bitorder="little")
        assert _mask_lines(rows, codes, _mask_patterns(k)) == want

    @pytest.mark.parametrize("view", [0, 2], ids=["target", "source"])
    def test_missing_depth_map_is_one_error_line(self, view, tmp_path, capsys):
        """A view without a depth map, the target or a source, fails before
        any depth is read: one error line naming the view, no files."""
        scene_path = write_posed_scene(tmp_path)
        scene_path.write_text(scene_path.read_text().replace(f"depth: d{view}.pfm\n", ""))
        outs = [tmp_path / n for n in ("e.pfm", "w.pfm", "m.txt")]
        rc = main(["reproject", str(scene_path), "--target", "0", "--out", *map(str, outs)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: view {view} has no depth map\n"
        assert not any(out.exists() for out in outs)

    @pytest.mark.parametrize("view", [0, 1], ids=["target", "source"])
    def test_infinite_depth_is_one_error_line(self, view, tmp_path, capsys):
        """One inf depth pixel, in the target's map or a source view's, is
        rejected as the scene loads: one error line and no warning."""
        scene_path = write_posed_scene(tmp_path)
        depth = read_pfm(tmp_path / f"d{view}.pfm").copy()
        depth[2, 3] = np.inf
        write_pfm(tmp_path / f"d{view}.pfm", depth)
        outs = [str(tmp_path / n) for n in ("e.pfm", "w.pfm", "m.txt")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            rc = main(["reproject", str(scene_path), "--target", "0", "--out", *outs])
        assert rc == 1
        assert capsys.readouterr().err == "error: camera depth map must be finite\n"
        assert not (tmp_path / "e.pfm").exists()

    def test_needs_two_cameras(self, tmp_path, capsys):
        scene = write_wall_scene(tmp_path)
        rc = main(["reproject", str(scene), "--target", "0", "--out",
                   str(tmp_path / "e.pfm"), str(tmp_path / "w.pfm"),
                   str(tmp_path / "m.txt")])
        assert rc == 1
        assert "two cameras" in capsys.readouterr().err

    def test_depth_map_size_mismatch_fails(self, tmp_path, capsys):
        """A camera whose size disagrees with its depth map is rejected."""
        scene = write_pair_scene(tmp_path)
        scene.write_text(scene.read_text().replace("size: 4 4", "size: 9 7", 1))
        rc = main(["reproject", str(scene), "--target", "0", "--out",
                   str(tmp_path / "e.pfm"), str(tmp_path / "w.pfm"),
                   str(tmp_path / "m.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "depth" in err
        assert not (tmp_path / "e.pfm").exists()


class TestMetrics:
    def test_identical_images_zero(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        img = rng.uniform(0.0, 2.0, size=(4, 4, 3)).astype(np.float32)
        write_pfm(tmp_path / "a.pfm", img)
        rc = main(["metrics", str(tmp_path / "a.pfm"),
                   str(tmp_path / "a.pfm"), "--metric", "g2"])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_scaled_copy_g5(self, tmp_path, capsys):
        rng = np.random.default_rng(42)
        ref = rng.uniform(0.1, 2.0, size=(4, 4, 3)).astype(np.float32)
        write_pfm(tmp_path / "b.pfm", ref)
        write_pfm(tmp_path / "a.pfm", (7.0 * ref).astype(np.float32))
        rc = main(["metrics", str(tmp_path / "a.pfm"),
                   str(tmp_path / "b.pfm"), "--metric", "g5"])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) < 1e-10

    def test_zero_prediction_g5_is_g4(self, tmp_path, capsys):
        """Every scale leaves a zero prediction zero: g5 prints g4 and exits
        0, while g3, which divides by the prediction's energy, exits 1."""
        rng = np.random.default_rng(8)
        write_pfm(tmp_path / "zero.pfm", np.zeros((3, 5, 3), dtype=np.float32))
        write_pfm(tmp_path / "ref.pfm", rng.uniform(0.1, 2.0, size=(3, 5, 3)).astype(np.float32))
        paths = [str(tmp_path / "zero.pfm"), str(tmp_path / "ref.pfm")]
        out = {}
        for metric in ("g4", "g5"):
            assert main(["metrics", *paths, "--metric", metric]) == 0
            out[metric] = capsys.readouterr().out
        assert out["g5"] == out["g4"] and float(out["g5"]) > 0.0
        assert main(["metrics", *paths, "--metric", "g3"]) == 1
        err = capsys.readouterr().err
        assert err == "error: masked prediction energy is zero\n"

    def test_metric_choices_are_the_registry(self):
        """The parser's literal --metric choices name every metric, sorted."""
        from sglight.metrics import METRICS
        assert METRIC_NAMES == tuple(sorted(METRICS))

    def test_mask_respected(self, tmp_path, capsys):
        a = np.zeros((2, 2, 3), dtype=np.float32)
        b = np.zeros((2, 2, 3), dtype=np.float32)
        a[0, 0] = 9.0
        mask = np.ones((2, 2), dtype=np.float32)
        mask[0, 0] = 0.0
        write_pfm(tmp_path / "a.pfm", a)
        write_pfm(tmp_path / "b.pfm", b)
        write_pfm(tmp_path / "m.pfm", mask)
        rc = main(["metrics", str(tmp_path / "a.pfm"),
                   str(tmp_path / "b.pfm"), "--metric", "g2",
                   "--mask", str(tmp_path / "m.pfm")])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) == 0.0

    def test_g6_reads_only_first_image(self, tmp_path, capsys):
        a = np.full((2, 2, 3), 0.5, dtype=np.float32)
        write_pfm(tmp_path / "a.pfm", a)
        rc = main(["metrics", str(tmp_path / "a.pfm"), "ignored.pfm",
                   "--metric", "g6"])
        assert rc == 0
        out = float(capsys.readouterr().out.strip())
        np.testing.assert_allclose(out, -0.5 * np.log(0.5), rtol=1e-12)

    def test_g6_refuses_a_mask(self, tmp_path, capsys):
        """g6 reads no mask, so one given is an error, not silently dropped."""
        write_pfm(tmp_path / "a.pfm", np.full((2, 2, 3), 0.5, dtype=np.float32))
        write_pfm(tmp_path / "m.pfm", np.ones((2, 2), dtype=np.float32))
        rc = main(["metrics", str(tmp_path / "a.pfm"), "ignored.pfm",
                   "--metric", "g6", "--mask", str(tmp_path / "m.pfm")])
        assert rc == 1
        assert capsys.readouterr() == ("", "error: g6 takes no mask\n")

    def test_shape_mismatch_fails(self, tmp_path, capsys):
        write_pfm(tmp_path / "a.pfm", np.ones((2, 2, 3), dtype=np.float32))
        write_pfm(tmp_path / "b.pfm", np.ones((3, 3, 3), dtype=np.float32))
        rc = main(["metrics", str(tmp_path / "a.pfm"),
                   str(tmp_path / "b.pfm"), "--metric", "g2"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        """python -m sglight works end to end in a subprocess."""
        img = np.full((2, 2, 3), 0.5, dtype=np.float32)
        write_pfm(tmp_path / "a.pfm", img)
        proc = subprocess.run(
            [sys.executable, "-m", "sglight", "metrics",
             str(tmp_path / "a.pfm"), str(tmp_path / "a.pfm"),
             "--metric", "g2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert float(proc.stdout.strip()) == 0.0

    def test_missing_file_is_clean_error(self, capsys):
        rc = main(["metrics", "missing_a.pfm", "missing_b.pfm",
                   "--metric", "g2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" == err[-1]

    def test_bad_metric_choice_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["metrics", "a.pfm", "b.pfm", "--metric", "g9"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["fit", "t.pfm", "--out", "o.txt", "--seed", "1"],
        ["fit", "t.pfm", "--out", "o.txt", "--threads", "2"],
        ["render", "s.txt", "--out-prefix", "o", "--seed", "1"],
        ["vsg-trace", "s.txt", "--order", "before", "--out", "o.pfm", "--threads", "2"],
        ["bench-order", "s.txt", "--out", "o.csv", "--threads", "2"],
        ["reproject", "s.txt", "--target", "0", "--out", "e", "w", "m", "--seed", "1"],
        ["metrics", "a.pfm", "b.pfm", "--metric", "g2", "--threads", "2"],
    ])
    def test_flags_nothing_reads_are_usage_errors(self, argv, capsys):
        """--threads belongs to render and --seed to bench-order only."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bare_import_loads_no_compute_module(self):
        """Importing the CLI loads only the parser's modules."""
        loaded = _modules_after("pass")
        assert loaded == (sorted(_CLI_MODULES), [])

    @pytest.mark.parametrize("command", list(_COMMAND_IMPORTS))
    def test_command_imports_only_its_modules(self, command, tmp_path):
        """Each command, run in a fresh interpreter, loads exactly the
        sglight modules it runs; scipy stays unloaded (no sglight module
        imports it), and the thread pool and csv load only for render
        --threads and bench-order."""
        extra, others = _COMMAND_IMPORTS[command]
        argv = _probe_argv(command, tmp_path)
        loaded = _modules_after(f"assert main({argv!r}) == 0")
        assert loaded == (sorted(_CLI_MODULES | {f"sglight.{m}" for m in extra}), others)

    @pytest.mark.parametrize("command", ["fit", "render", "vsg-trace", "reproject", "metrics",
                                         "bench-order"])
    def test_only_bench_order_draws_random_numbers(self, command, tmp_path, monkeypatch,
                                                   capsys):
        """With numpy's generator and seed sequence made to raise, every
        command but bench-order writes the bytes of an unpatched run."""
        plain, patched = tmp_path / "plain", tmp_path / "patched"
        plain.mkdir()
        patched.mkdir()
        argvs = [_probe_argv(command, d) for d in (plain, patched)]  # inputs draw numbers
        inputs = {p.name for p in plain.iterdir()}

        def run(d, argv):
            assert main(argv) == 0
            return ({p.name: p.read_bytes() for p in d.iterdir() if p.name not in inputs},
                    capsys.readouterr())

        def draw(*args, **kwargs):
            raise AssertionError("a command drew random numbers")

        want = run(plain, argvs[0])
        assert want[0] or want[1].out
        monkeypatch.setattr(np.random, "default_rng", draw)
        monkeypatch.setattr(np.random, "SeedSequence", draw)
        if command == "bench-order":  # the patch reaches the one command that draws
            with pytest.raises(AssertionError, match="drew random numbers"):
                main(argvs[1])
        else:
            assert run(patched, argvs[1]) == want

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
