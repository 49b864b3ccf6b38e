"""The package namespace: every exported name loads its module on first use."""

import importlib
import subprocess
import sys

import pytest

import sglight

EXPORTS = {
    "sg": ["SgEnvironment", "SphericalGaussian", "eval_mixture", "eval_sg",
           "integrate_sg_sphere", "sphere_grid"],
    "envmap": ["EnvironmentMap", "HdrImage", "decode_env", "hdr_forward", "hdr_inverse"],
    "pfm": ["PfmError", "read_pfm", "write_pfm"],
    "vsg": ["RaySampleSet", "VsgVolume", "bench_orders", "composite_sg_after",
            "composite_sg_before", "load_vsg", "sample_ray", "save_vsg"],
    "brdf": ["GBuffer", "SpecEncoding", "half_vector", "reflect", "render_diffuse",
             "render_specular", "shading", "spec_encode"],
    "multiview": ["CameraView", "MultiViewSet", "VisibleSurfaceVolume",
                  "depth_projection_error", "depth_projection_errors",
                  "estimate_depth_scale", "multiview_mask", "multiview_weight",
                  "splat_visible_surface"],
    "aggregation": ["AttentionParams", "TokenSequence", "build_tokens",
                    "masked_attention", "mean_variance_aggregate",
                    "positional_encode", "weighted_attention"],
    "sgfit": ["FitConfig", "FitResult", "fit_sg", "fit_visibility", "sg_gradients"],
    "metrics": ["g1_angular", "g2_mse", "g3_scaled_mse", "g4_log_mse",
                "g5_scaled_log_mse", "g6_entropy", "lsq_scale"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_names_are_the_defining_modules_objects(module):
    defining = importlib.import_module(f"sglight.{module}")
    for name in EXPORTS[module]:
        namespace = {}
        exec(f"from sglight import {name}", namespace)
        assert namespace[name] is getattr(defining, name)


def test_all_and_dir_list_every_name():
    assert len(NAMES) == 58
    assert sorted(sglight.__all__) == NAMES
    assert set(NAMES) <= set(dir(sglight))
    assert "__version__" in dir(sglight)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        sglight.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from sglight import no_such_name", {})


def test_names_follow_rebinding_in_the_defining_module(monkeypatch):
    """Nothing is cached in the package: a name patched in its module (as
    a tracer does) is seen through the package and restored with it."""
    from sglight import vsg

    original = vsg.sample_ray
    assert sglight.sample_ray is original
    assert "sample_ray" not in vars(sglight)
    monkeypatch.setattr(vsg, "sample_ray", lambda *a: None)
    assert sglight.sample_ray is vsg.sample_ray
    monkeypatch.undo()
    assert sglight.sample_ray is original


def test_import_loads_no_submodule():
    code = (
        "import sys, sglight\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'sglight')))\n"
        "sglight.read_pfm\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'sglight')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["sglight", "sglight sglight.pfm"]


def test_numpy_is_the_only_runtime_dependency():
    """With scipy unimportable, every sglight module loads and
    fit_visibility, the last scipy user, runs."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "import importlib, pkgutil\n"
        "import numpy as np\n"
        "import sglight\n"
        "names = [m.name for m in pkgutil.iter_modules(sglight.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module(f'sglight.{name}')\n"
        "from sglight.envmap import decode_env\n"
        "from sglight.sg import SgEnvironment, SphericalGaussian\n"
        "from sglight.sgfit import fit_visibility\n"
        "env = SgEnvironment((SphericalGaussian([0.0, 0.0, 1.0], 6.0, [1.0, 1.0, 1.0]),))\n"
        "full = decode_env(env, rows=8, cols=16).data\n"
        "mu = fit_visibility(env, np.stack([0.25 * full, 2.0 * full]))\n"
        "print(' '.join(sorted(names)))\n"
        "print(' '.join(f'{v:.6f}' for v in mu.ravel()))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    names, factors = proc.stdout.splitlines()
    assert set(EXPORTS) | {"cli", "scene", "__main__"} <= set(names.split())
    assert factors == "0.250000 1.000000"
