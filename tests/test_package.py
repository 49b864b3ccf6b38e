"""The package namespace: every exported name loads its module on first use."""

import ast
import importlib
import inspect
import pathlib
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
    "sgfit": ["FitResult", "fit_sg", "fit_visibility", "sg_gradients"],
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
    assert len(NAMES) == 57
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


ROOT = pathlib.Path(__file__).resolve().parents[1]


def _defaulted_parameters():
    """(callee name, parameter, positional index or None, default) of every
    defaulted parameter that sglight's own source declares."""
    for path in sorted((ROOT / "src" / "sglight").glob("*.py")):
        module = importlib.import_module(
            "sglight" if path.stem == "__init__" else f"sglight.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, getattr(module, node.name), False)]
            elif isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                # the constructor only when this module wrote it (a dataclass counts)
                init = getattr(cls.__init__, "__module__", None) == module.__name__
                defs = [(node.name, cls, False)] if init else []
                defs += [(item.name, getattr(cls, item.name),
                          not any(getattr(d, "id", "") in ("staticmethod", "classmethod")
                                  for d in item.decorator_list))
                         for item in node.body if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for name, obj, has_self in defs:
                if isinstance(obj, property):
                    continue
                params = list(inspect.signature(obj).parameters.values())[int(has_self):]
                for i, p in enumerate(params):
                    if p.default is not p.empty:
                        pos = i if p.kind == p.POSITIONAL_OR_KEYWORD else None
                        yield name, p.name, pos, p.default


def _calls_by_name():
    """Every call in src/, tests/ and perfbench/, keyed by the called name."""
    calls = {}
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
    return calls


def _passed(call, name, pos):
    """The argument node a call gives the parameter, or None when it passes none.

    A *args reaching the position or a **kwargs stands for an unknown value.
    """
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) and pos is not None and i <= pos:
            return arg
        if i == pos:
            return arg
    for kw in call.keywords:
        if kw.arg in (name, None):
            return kw.value
    return None


def _is_default(node, default):
    try:
        return bool(ast.literal_eval(node) == default)
    except ValueError:  # a name or expression: a second value
        return False


def test_every_defaulted_parameter_is_set_by_some_call():
    """A parameter that every call leaves at its default is a constant.

    Scans sglight's own definitions and every call in the source, the tests
    and the benchmark; a call passing nothing, or a literal equal to the
    default, does not count as setting it.
    """
    calls = _calls_by_name()
    default_only = [
        f"{func}({name}={default!r})"
        for func, name, pos, default in _defaulted_parameters()
        if all(_is_default(arg, default) for arg in
               (_passed(call, name, pos) for call in calls.get(func, []))
               if arg is not None)
    ]
    assert default_only == []


SHARED = {"UNIT_TOL", "_as_unit", "_dot", "_frozen"}


def test_the_array_helpers_live_in_one_leaf_module():
    """_arrays imports only numpy, is the one module that defines the shared
    array helpers, and no file imports them through sg."""
    tree = ast.parse((ROOT / "src" / "sglight" / "_arrays.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"numpy", "__future__"}
    defined, through_sg = [], []
    for path in sorted((ROOT / "src" / "sglight").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [f"{path.stem}.{name}" for name in names if name in SHARED]
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.module in ("sg", "sglight.sg"):
                    through_sg += [f"{path.name}:{node.lineno} {alias.name}"
                                   for alias in node.names if alias.name in SHARED]
    assert sorted(defined) == sorted(f"_arrays.{name}" for name in SHARED)
    assert through_sg == []


@pytest.mark.parametrize("module", ["multiview", "aggregation"])
def test_module_loads_no_sg(module):
    """multiview and aggregation check their arrays through _arrays, so a
    fresh import of either loads no SG code."""
    code = (
        f"import sys, sglight.{module}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'sglight')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["sglight", "sglight._arrays", f"sglight.{module}"]


def test_no_contraction_is_handed_to_blas():
    """No np.einsum in src/ passes optimize=, and nothing calls np.tensordot,
    a dot (np.dot or an array's .dot) or a norm: _arrays._dot sums three-term
    dot products, and every vector length is np.sqrt(_dot(v, v)).

    All can hand a contraction to BLAS, whose blocking and thread count
    change the last bits of a sum, so outputs would depend on the host;
    np.linalg.norm of a 1-D array is x.dot(x), a BLAS ddot.
    """
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("tensordot", "dot", "norm") or (
                    name == "einsum" and any(kw.arg in ("optimize", None) for kw in node.keywords)):
                found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


# (module, function) of every product still handed to BLAS by @ or a call named matmul
BLAS_PRODUCTS = {
    ("aggregation", "_attention_probs"), ("aggregation", "masked_attention"),
    ("aggregation", "weighted_attention"), ("aggregation", "mean_variance_aggregate"),
    ("sg", "mixture_radiance"),
    ("sgfit", "_objective_parts"), ("sgfit", "_normal_equations"), ("sgfit", "_box_lsq"),
    ("sgfit", "fit_visibility"),
    ("vsg", "_interp_records"),  # the integer stride @ i0, which is exact
}


def test_every_blas_product_is_named():
    """The functions holding an @ or a matmul call are exactly BLAS_PRODUCTS.

    BLAS picks its kernels by CPU, so a product added elsewhere (in
    CameraView, say) would make that code's bytes follow the host.
    """
    found = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}  # node -> innermost enclosing function: ast.walk visits outer ones first
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                    or isinstance(node, ast.Call) and "matmul" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                found.add((path.stem, owner.get(node, "<module>")))
    assert found == BLAS_PRODUCTS


def test_cli_leaves_the_band_loops_to_the_library():
    """cli.py starts no thread and calls no per-band kernel: brdf.render and
    multiview.consistency_maps own the band loops, so a library caller gets
    the same threads and bounded memory as the command."""
    tree = ast.parse((ROOT / "src" / "sglight" / "cli.py").read_text())
    imported, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {f"{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Call):
            called.add(getattr(node.func, "id", getattr(node.func, "attr", None)))
    assert not {name for name in imported
                if name.split(".")[0] in ("concurrent", "threading")}, imported
    kernels = {"render_diffuse", "render_specular", "depth_projection_errors",
               "multiview_weight", "multiview_mask"}
    assert not called & kernels, called & kernels


def test_cli_reads_no_sample_channel_by_name():
    """cli.py copies sample_ray's (8, n) records whole: the channel order is
    vsg's alone, so no attribute of cli.py is named after a channel."""
    tree = ast.parse((ROOT / "src" / "sglight" / "cli.py").read_text())
    found = [f"cli.py:{node.lineno} .{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("alpha", "intensity", "axis", "sharpness")]
    assert found == []


def test_cli_binds_no_module_level_number():
    """A size or tolerance belongs next to the library code it tunes, as
    brdf.CHUNK_NODES, vsg.CHUNK_POINTS and multiview.BAND_PX do: a number
    bound in cli.py would tune a library call that other callers cannot see."""
    import sglight.cli

    numbers = [name for name, value in vars(sglight.cli).items()
               if isinstance(value, (int, float)) and not isinstance(value, bool)]
    assert numbers == []
