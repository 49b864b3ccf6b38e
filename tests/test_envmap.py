"""Environment map rasterization, HDR curve, and per-pixel tiling."""

import numpy as np
import pytest

from sglight.envmap import (
    EnvironmentMap,
    HdrImage,
    decode_env,
    grid_directions,
    hdr_forward,
    hdr_inverse,
    solid_angle_weights,
)
from sglight.sg import SgEnvironment, SphericalGaussian, eval_sg


class TestGrid:
    def test_directions_are_unit(self):
        dirs = grid_directions(16, 32)
        assert dirs.shape == (16, 32, 3)
        np.testing.assert_allclose(
            np.linalg.norm(dirs, axis=-1), 1.0, rtol=1e-14
        )

    def test_weights_sum_to_sphere(self):
        """Cell solid angles telescope to exactly 4*pi."""
        for rows, cols in ((2, 4), (16, 32), (33, 7 * 8)):
            w = solid_angle_weights(rows, cols)
            np.testing.assert_allclose(w.sum(), 4.0 * np.pi, rtol=1e-13)
            assert np.all(w > 0.0)

    def test_row_zero_near_pole(self):
        dirs = grid_directions(16, 32)
        assert np.all(dirs[0, :, 2] > dirs[-1, :, 2])


class TestDecode:
    def test_constant_lobe(self):
        """A zero-sharpness lobe decodes to its intensity in every cell."""
        lobe = SphericalGaussian([0.0, 0.0, 1.0], 0.0, [0.25, 0.5, 0.75])
        m = decode_env(SgEnvironment((lobe,)), rows=8, cols=16)
        np.testing.assert_allclose(
            m.data, np.broadcast_to([0.25, 0.5, 0.75], (8, 16, 3))
        )

    def test_constant_weighted_mean_exact(self):
        """Solid-angle mean of a constant decode is the intensity exactly."""
        lobe = SphericalGaussian([0.0, 1.0, 0.0], 0.0, [1.5, 1.5, 1.5])
        m = decode_env(SgEnvironment((lobe,)), rows=16, cols=32)
        w = solid_angle_weights(16, 32)
        mean = np.einsum("rc,rcx->x", w, m.data) / (4.0 * np.pi)
        np.testing.assert_allclose(mean, 1.5, rtol=1e-14)

    def test_peak_cell_contains_axis(self):
        """The brightest cell of a sharp lobe is the cell nearest the axis."""
        rng = np.random.default_rng(42)
        dirs = grid_directions(16, 32)
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            lobe = SphericalGaussian(axis, 60.0, [1.0, 1.0, 1.0])
            m = decode_env(SgEnvironment((lobe,)), rows=16, cols=32)
            flat = m.data[..., 0].argmax()
            nearest = np.einsum("rcx,x->rc", dirs, axis).argmax()
            assert flat == nearest

    def test_additive_in_lobes(self):
        rng = np.random.default_rng(3)
        lobes = []
        for _ in range(3):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            lobes.append(SphericalGaussian(axis, rng.uniform(1.0, 20.0),
                                           rng.uniform(0.1, 2.0, size=3)))
        total = decode_env(SgEnvironment(tuple(lobes)), rows=8, cols=16)
        parts = sum(
            decode_env(SgEnvironment((lobe,)), rows=8, cols=16).data
            for lobe in lobes
        )
        np.testing.assert_allclose(total.data, parts, rtol=1e-14)

    def test_per_pixel_visibility(self):
        lobe = SphericalGaussian([0.0, 0.0, 1.0], 5.0, [2.0, 2.0, 2.0])
        env = SgEnvironment((lobe,), visibility=np.array([[1.0], [0.25]]))
        full = decode_env(env, rows=8, cols=16, pixel=0)
        dimmed = decode_env(env, rows=8, cols=16, pixel=1)
        np.testing.assert_allclose(dimmed.data, 0.25 * full.data, rtol=1e-14)
        with pytest.raises(ValueError):
            decode_env(env, rows=8, cols=16)

    def test_matches_eval_sg_at_centers(self):
        lobe = SphericalGaussian([1.0, 0.0, 0.0], 3.0, [1.0, 0.5, 0.25])
        m = decode_env(SgEnvironment((lobe,)), rows=8, cols=16)
        dirs = grid_directions(8, 16)
        np.testing.assert_allclose(
            m.data[3, 7], eval_sg(lobe, dirs[3, 7]), rtol=1e-14
        )


class TestHdrCurve:
    def test_round_trip(self):
        rng = np.random.default_rng(42)
        x = 10.0 ** rng.uniform(-6.0, 4.0, size=1000)
        np.testing.assert_allclose(hdr_inverse(hdr_forward(x)), x, rtol=1e-12)

    def test_zero_maps_to_zero(self):
        assert hdr_forward(0.0) == 0.0
        assert hdr_inverse(0.0) == 0.0

    def test_monotone(self):
        x = np.linspace(0.0, 100.0, 501)
        y = hdr_forward(x)
        assert np.all(np.diff(y) > 0.0)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            hdr_forward(-0.1)
        with pytest.raises(ValueError):
            hdr_inverse(-0.1)


class TestValidation:
    def test_hdr_image_rejects_negative(self):
        with pytest.raises(ValueError):
            HdrImage(-np.ones((2, 2, 3)))

    def test_env_map_min_size(self):
        with pytest.raises(ValueError):
            EnvironmentMap(np.ones((1, 4, 3)))
        with pytest.raises(ValueError):
            EnvironmentMap(np.ones((2, 3, 3)))

    def test_env_map_rejects_nan(self):
        bad = np.ones((2, 4, 3))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            EnvironmentMap(bad)
