"""Input invariants: read-only float64 copies, and non-finite input rejected
by constructors and domain checks."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from sglight.aggregation import AttentionParams, TokenSequence
from sglight.brdf import GBuffer
from sglight.envmap import EnvironmentMap, HdrImage, hdr_forward, hdr_inverse
from sglight.metrics import g4_log_mse, g6_entropy
from sglight.multiview import CameraView
from sglight.sg import SgEnvironment, SphericalGaussian, eval_sg, normalize
from sglight.vsg import VsgVolume, load_vsg


def _normals():
    n = np.zeros((2, 3, 3))
    n[..., 2] = 1.0
    return n


def _volume_data():
    data = np.zeros((2, 2, 2, 8))
    data[..., 0] = 0.5
    data[..., 1:4] = 1.0
    data[..., 6] = 1.0
    data[..., 7] = 3.0
    return data


def _camera_args():
    return dict(fx=4.0, fy=4.0, cx=1.5, cy=1.0, rotation=np.eye(3),
                translation=np.array([0.1, 0.2, 0.3]), width=3, height=2)


# constructor -> keyword arguments, every array a fresh writable float64
CASES = {
    "SphericalGaussian": (SphericalGaussian, lambda: dict(
        axis=np.array([0.0, 0.0, 1.0]), sharpness=2.0,
        intensity=np.array([1.0, 0.5, 0.25]))),
    "SgEnvironment": (SgEnvironment, lambda: dict(
        lobes=(SphericalGaussian([0.0, 1.0, 0.0], 1.0, [1.0, 1.0, 1.0]),),
        visibility=np.full((2, 3, 1), 0.5))),
    "GBuffer": (GBuffer, lambda: dict(
        albedo=np.full((2, 3, 3), 0.5), roughness=np.full((2, 3), 0.4),
        normal=_normals(), depth=np.full((2, 3), 2.0),
        confidence=np.full((2, 3), 0.9))),
    "HdrImage": (HdrImage, lambda: dict(data=np.full((2, 3, 3), 1.5))),
    "EnvironmentMap": (EnvironmentMap, lambda: dict(data=np.full((2, 4, 3), 0.5))),
    "VsgVolume": (VsgVolume, lambda: dict(
        data=_volume_data(), bbox_min=np.zeros(3), bbox_max=np.ones(3))),
    "TokenSequence": (TokenSequence, lambda: dict(
        target=np.arange(3.0), tokens=np.ones((2, 3)))),
    "AttentionParams": (AttentionParams, lambda: dict(
        wq=np.eye(3), wk=2.0 * np.eye(3), wv=np.ones((3, 3)))),
    "CameraView": (CameraView, lambda: dict(
        _camera_args(), image=np.full((2, 3, 3), 0.2), depth=np.full((2, 3), 2.0),
        confidence=np.ones((2, 3)))),
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("name", list(CASES))
def test_array_fields_are_frozen_float64_copies(name, dtype):
    """Every array field is float64 and read-only, and writing to the
    caller's input after construction leaves the stored copy unchanged."""
    cls, make = CASES[name]
    args = {k: v.astype(dtype) if isinstance(v, np.ndarray) else v
            for k, v in make().items()}
    obj = cls(**args)
    arrays = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
              if isinstance(getattr(obj, f.name), np.ndarray)}
    assert set(k for k, v in args.items() if isinstance(v, np.ndarray)) <= set(arrays)
    for field, value in arrays.items():
        assert value.dtype == np.float64, field
        assert not value.flags.writeable, field
        with pytest.raises(ValueError):
            value[...] = 0.0
    kept = {k: v.copy() for k, v in arrays.items()}
    for value in args.values():
        if isinstance(value, np.ndarray):
            value[...] = np.nan
    for field, value in arrays.items():
        assert np.array_equal(getattr(obj, field), kept[field]), field


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field,index", [
    ("fx", None), ("fy", None), ("cx", None), ("cy", None),
    ("rotation", (0, 0)), ("rotation", (1, 2)), ("translation", (2,)),
])
def test_camera_rejects_non_finite_intrinsics_and_pose(field, index, bad):
    args = _camera_args()
    if index is None:
        args[field] = bad
    else:
        args[field] = args[field].copy()
        args[field][index] = bad
    with pytest.raises(ValueError):
        CameraView(**args)


@pytest.mark.parametrize("field, value, message", [
    ("cx", np.inf, "intrinsics must be finite"),
    ("rotation", np.full((3, 3), np.nan), "rotation must be finite"),
    ("translation", np.zeros(4), "translation must have shape (3,), got (4,)"),
    ("translation", np.array([0.0, -np.inf, 0.0]), "translation must be finite"),
    ("image", np.zeros((2, 3)), "camera image map must have shape (2, 3, 3), got (2, 3)"),
    ("depth", np.ones((3, 2)), "camera depth map must have shape (2, 3), got (3, 2)"),
], ids=["intrinsics", "rotation-finite", "translation-shape", "translation-finite",
        "image-shape", "depth-shape"])
def test_camera_messages_name_the_array_at_fault(field, value, message):
    """CameraView checks its intrinsics, pose and maps with the shared
    _frozen, so each message is _frozen's and names the one array (the
    rotation's shape message is the input-check case multiview-pose-shape)."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        CameraView(**{**_camera_args(), field: value})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["image", "depth", "confidence"])
def test_camera_rejects_non_finite_maps(name, bad):
    args = CASES["CameraView"][1]()
    args[name][(1, 2)] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"camera {name} map must be finite"):
            CameraView(**args)


@pytest.mark.parametrize("build, match", [
    (lambda: SphericalGaussian([1e300, 1e300, -1e300], 2.0, [1.0, 1.0, 1.0]), "unit"),
    (lambda: normalize(np.array([1e300, 1e300, -1e300])), "infinite length"),
    (lambda: CameraView(**{**_camera_args(), "rotation": np.diag([1e300, 1.0, 1.0])}),
     "orthonormal"),
    (lambda: CameraView(**{**_camera_args(), "fx": 1e-300, "fy": 1e-300}), "pixel rays"),
    (lambda: CameraView(**{**_camera_args(), "cx": 1e300}), "pixel rays"),
    (lambda: CameraView(**{**_camera_args(), "cy": -1e300}), "pixel rays"),
    (lambda: CameraView(**{**_camera_args(), "fy": 5e-324}), "pixel rays"),
], ids=["sg-axis", "normalize", "camera-rotation", "camera-focal", "camera-cx",
        "camera-cy", "camera-denormal-focal"])
def test_finite_values_that_overflow_are_rejected_without_warning(build, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            build()


@pytest.mark.parametrize("call, match", [
    (lambda: eval_sg(SphericalGaussian([0.0, 0.0, 1.0], 2.0, [1.0, 1.0, 1.0]),
                     [np.nan, 0.0, 0.0]), "not unit length"),
    (lambda: hdr_forward([0.5, np.nan]), "hdr_forward domain"),
    (lambda: hdr_inverse([0.5, np.nan]), "hdr_inverse domain"),
    (lambda: g4_log_mse([[0.5, np.nan]], [[0.5, 0.5]], [[1.0, 1.0]]), "nonnegative"),
    (lambda: g6_entropy([0.5, np.nan]), "entropy domain"),
    (lambda: CameraView(**_camera_args()).unproject(1.0, 1.0, np.nan), "distance must be > 0"),
    (lambda: normalize([np.nan, 1.0, 0.0]), "NaN entries"),
], ids=["sg-direction", "hdr-forward", "hdr-inverse", "log-metrics", "entropy",
        "camera-unproject", "normalize"])
def test_domain_checks_reject_nan(call, match):
    """NaN fails every comparison, so each domain check must be one NaN fails."""
    with pytest.raises(ValueError, match=match):
        call()


def test_camera_keeps_intrinsics_whose_pixel_rays_stay_finite():
    """The corner rays bound every pixel ray: x^2 near 1e300 still passes."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cam = CameraView(**{**_camera_args(), "fx": 1e-150, "cy": 1e149})
        rays = cam.pixel_rays()
    assert np.all(np.isfinite(rays))
    np.testing.assert_allclose(np.linalg.norm(rays, axis=-1), 1.0, atol=1e-15)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("corner", ["bbox_min", "bbox_max"])
@pytest.mark.parametrize("axis", [0, 2])
def test_volume_rejects_non_finite_bbox(corner, axis, bad):
    args = dict(data=_volume_data(), bbox_min=np.zeros(3), bbox_max=np.ones(3))
    args[corner][axis] = bad
    with pytest.raises(ValueError, match=corner):
        VsgVolume(**args)


def test_load_vsg_rejects_nan_bbox(tmp_path):
    path = tmp_path / "v.vsg"
    path.write_bytes(b"VSG1\n1 1 1\n0 0 nan 1 1 1\nalpha intensity axis sharpness\n"
                     + np.zeros(8, "<f4").tobytes())
    with pytest.raises(ValueError, match="bbox_min must be finite"):
        load_vsg(path)
