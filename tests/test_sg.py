"""Lobe evaluation, mixtures, and the closed-form sphere integral."""

import math
from fractions import Fraction

import numpy as np
import pytest

from sglight._arrays import _dot
from sglight.brdf import hemisphere_grid
from sglight.sg import (
    SgEnvironment,
    SphericalGaussian,
    eval_mixture,
    eval_sg,
    integrate_sg_sphere,
    lobe_values,
    normalize,
    sg_radiance,
    sphere_grid,
    spherical_to_unit,
    unit_to_spherical,
)
from sglight.sgfit import sg_gradients


def quadrature_integral(lobe, n_lat=256, n_lon=512):
    """Independent route: equal-solid-angle midpoint quadrature."""
    dirs, w = sphere_grid(n_lat, n_lon)
    vals = sg_radiance(lobe.intensity, lobe.sharpness, lobe.axis, dirs)
    return np.einsum("nc,n->c", vals, w)


class TestEqualAreaGrid:
    @pytest.mark.parametrize("n_lat, n_lon", [(1, 1), (1, 8), (5, 1), (3, 7), (16, 32),
                                              (32, 64), (64, 128)])
    def test_sphere_and_hemisphere_keep_their_bytes(self, n_lat, n_lon):
        """The one builder at lo = -1 and lo = 0 gives the bytes of the two
        grids it replaced: the sphere's meshgrid form and the hemisphere's
        outer-product form."""
        phi = (np.arange(n_lon) + 0.5) / n_lon * 2.0 * np.pi
        u = (np.arange(n_lat) + 0.5) / n_lat * 2.0 - 1.0
        uu, pp = np.meshgrid(u, phi, indexing="ij")
        st = np.sqrt(np.clip(1.0 - uu * uu, 0.0, None))
        dirs = np.stack([st * np.cos(pp), st * np.sin(pp), uu], axis=-1).reshape(-1, 3)
        got = sphere_grid(n_lat, n_lon)
        assert got[0].tobytes() == dirs.tobytes()
        assert got[1].tobytes() == np.full(len(dirs), 4.0 * np.pi / len(dirs)).tobytes()

        u = (np.arange(n_lat) + 0.5) / n_lat
        st = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
        x, y = np.outer(st, np.cos(phi)).ravel(), np.outer(st, np.sin(phi)).ravel()
        local = np.stack([x, y, np.repeat(u, n_lon)], axis=-1)
        got = hemisphere_grid((n_lat, n_lon))
        assert got[0].tobytes() == local.tobytes()
        assert got[1].tobytes() == np.full(len(local), 2.0 * np.pi / len(local)).tobytes()


class TestSphereIntegral:
    def test_matches_quadrature_across_sharpness(self):
        """Closed form tracks the quadrature within 1e-4 relative.

        Midpoint quadrature error grows like sharpness^2 / n_lat^2, so the
        sharp end of the sweep needs the tall grid to make 1e-4 honest.
        """
        for sharp in (0.1, 1.0, 10.0, 100.0):
            lobe = SphericalGaussian([0.0, 0.0, 1.0], sharp, [1.0, 0.5, 2.0])
            q = quadrature_integral(lobe, n_lat=8192, n_lon=128)
            c = integrate_sg_sphere(lobe)
            np.testing.assert_allclose(c, q, rtol=1e-4)

    def test_random_axis_orientation_free(self):
        """The integral does not depend on where the lobe points."""
        rng = np.random.default_rng(42)
        for sharp in (0.1, 1.0, 10.0):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            lobe = SphericalGaussian(axis, sharp, [1.0, 0.5, 2.0])
            q = quadrature_integral(lobe, n_lat=1024, n_lon=2048)
            c = integrate_sg_sphere(lobe)
            np.testing.assert_allclose(c, q, rtol=1e-6)

    def test_unit_sharpness_value(self):
        # frozen from the 256x512 equal-area quadrature oracle
        lobe = SphericalGaussian([0.0, 0.0, 1.0], 1.0, [1.0, 1.0, 1.0])
        q = quadrature_integral(lobe)
        np.testing.assert_allclose(q, 5.432834827580139, rtol=1e-12)
        np.testing.assert_allclose(integrate_sg_sphere(lobe), q, rtol=1e-4)

    def test_zero_sharpness_limit(self):
        """sharpness -> 0 integrates to 4*pi times the intensity."""
        lobe = SphericalGaussian([0.0, 1.0, 0.0], 0.0, [2.0, 2.0, 2.0])
        np.testing.assert_allclose(
            integrate_sg_sphere(lobe), 8.0 * np.pi, rtol=1e-12
        )
        np.testing.assert_allclose(
            quadrature_integral(lobe), 8.0 * np.pi, rtol=1e-10
        )

    def test_tiny_sharpness_is_stable(self):
        lobe = SphericalGaussian([0.0, 0.0, 1.0], 1e-12, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            integrate_sg_sphere(lobe), 4.0 * np.pi, rtol=1e-9
        )


class TestEvalSg:
    def test_peak_at_axis(self):
        """No sampled direction beats the axis value."""
        rng = np.random.default_rng(42)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        lobe = SphericalGaussian(axis, 7.0, [1.0, 2.0, 3.0])
        peak = eval_sg(lobe, axis)
        dirs = rng.normal(size=(10000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vals = sg_radiance(lobe.intensity, lobe.sharpness, lobe.axis, dirs)
        assert np.all(vals <= peak[None, :] + 1e-15)
        np.testing.assert_allclose(peak, lobe.intensity)

    def test_linear_in_intensity(self):
        rng = np.random.default_rng(7)
        axis = np.array([0.0, 0.0, 1.0])
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        base = eval_sg(SphericalGaussian(axis, 3.0, [1.0, 1.0, 1.0]), d)
        scaled = eval_sg(SphericalGaussian(axis, 3.0, [2.5, 2.5, 2.5]), d)
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)

    def test_rejects_non_unit_direction(self):
        lobe = SphericalGaussian([0.0, 0.0, 1.0], 2.0, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            eval_sg(lobe, [0.0, 0.0, 2.0])

    def test_rejects_angle_pair(self):
        """Directions are unit 3-vectors only: a (theta, phi) pair is an
        error in each lobe evaluator, not an angle."""
        lobe = SphericalGaussian([0.0, 0.0, 1.0], 2.0, [1.0, 1.0, 1.0])
        env = SgEnvironment((lobe,))
        for evaluate in (eval_sg, sg_gradients):
            with pytest.raises(ValueError, match="3-vector"):
                evaluate(lobe, (0.3, 1.2))
        with pytest.raises(ValueError, match="3-vector"):
            eval_mixture(env, (0.3, 1.2))


class TestDirections:
    def test_round_trip(self):
        """unit -> (theta, phi) -> unit within 1e-6 radians."""
        rng = np.random.default_rng(42)
        v = rng.normal(size=(500, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        theta, phi = unit_to_spherical(v)
        back = spherical_to_unit(theta, phi)
        angle = np.arccos(np.clip(np.sum(v * back, axis=1), -1.0, 1.0))
        assert np.max(angle) < 1e-6

    def test_poles(self):
        theta, phi = unit_to_spherical([0.0, 0.0, 1.0])
        assert theta == 0.0
        np.testing.assert_allclose(
            spherical_to_unit(np.pi, 0.0), [0.0, 0.0, -1.0], atol=1e-15
        )


class TestValidation:
    def test_axis_must_be_unit(self):
        with pytest.raises(ValueError):
            SphericalGaussian([0.0, 0.0, 1.1], 1.0, [1.0, 1.0, 1.0])

    def test_sharpness_nonnegative(self):
        with pytest.raises(ValueError):
            SphericalGaussian([0.0, 0.0, 1.0], -0.5, [1.0, 1.0, 1.0])

    def test_intensity_nonnegative(self):
        with pytest.raises(ValueError):
            SphericalGaussian([0.0, 0.0, 1.0], 1.0, [1.0, -1.0, 1.0])

    def test_environment_needs_a_lobe(self):
        with pytest.raises(ValueError):
            SgEnvironment(())

    def test_visibility_clamped_at_construction(self):
        lobe = SphericalGaussian([0.0, 0.0, 1.0], 1.0, [1.0, 1.0, 1.0])
        env = SgEnvironment((lobe,), visibility=np.array([[1.7], [-0.3]]))
        assert env.visibility.max() == 1.0
        assert env.visibility.min() == 0.0

    def test_visibility_width_must_match(self):
        lobe = SphericalGaussian([0.0, 0.0, 1.0], 1.0, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            SgEnvironment((lobe,), visibility=np.ones((4, 2)))


class TestMixture:
    def test_sum_of_lobes(self):
        rng = np.random.default_rng(3)
        lobes = []
        for _ in range(3):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            lobes.append(SphericalGaussian(axis, rng.uniform(0.5, 10.0),
                                           rng.uniform(0.1, 2.0, size=3)))
        env = SgEnvironment(tuple(lobes))
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        total = sum(eval_sg(lobe, d) for lobe in lobes)
        np.testing.assert_allclose(eval_mixture(env, d), total, rtol=1e-14)
        # a (4, 5, 3) batch of directions under one pixel's visibility row
        batch = rng.normal(size=(4, 5, 3))
        batch /= np.linalg.norm(batch, axis=-1, keepdims=True)
        vis = rng.uniform(0.0, 1.0, size=(2, 3))
        shadowed = SgEnvironment(tuple(lobes), visibility=vis)
        total = sum(m * eval_sg(lobe, batch) for m, lobe in zip(vis[1], lobes))
        got = eval_mixture(shadowed, batch, pixel=1)
        assert got.shape == (4, 5, 3)
        np.testing.assert_allclose(got, total, rtol=1e-14)

    def test_visibility_attenuates(self):
        """mu = 0.5 on one lobe halves exactly that contribution."""
        lobe_a = SphericalGaussian([0.0, 0.0, 1.0], 2.0, [1.0, 1.0, 1.0])
        lobe_b = SphericalGaussian([1.0, 0.0, 0.0], 2.0, [1.0, 1.0, 1.0])
        vis = np.array([[0.5, 1.0]])
        env = SgEnvironment((lobe_a, lobe_b), visibility=vis)
        d = np.array([0.0, 1.0, 0.0])
        expected = 0.5 * eval_sg(lobe_a, d) + eval_sg(lobe_b, d)
        np.testing.assert_allclose(eval_mixture(env, d, pixel=0), expected)

    def test_pixel_required_iff_visibility(self):
        lobe = SphericalGaussian([0.0, 0.0, 1.0], 1.0, [1.0, 1.0, 1.0])
        plain = SgEnvironment((lobe,))
        with_vis = SgEnvironment((lobe,), visibility=np.ones((2, 1)))
        d = [0.0, 0.0, 1.0]
        with pytest.raises(ValueError):
            eval_mixture(plain, d, pixel=0)
        with pytest.raises(ValueError):
            eval_mixture(with_vis, d)


def exact_dot(a, b):
    """a . b correctly rounded: math.fsum of each product and its exact rounding error."""
    terms = []
    for x, y in zip(a, b):
        p = x * y
        terms += [p, float(Fraction(x) * Fraction(y) - Fraction(p))]
    return math.fsum(terms)


class TestDot:
    """_arrays._dot, the one three-term dot product, against exact sums.

    Summing three rounded products in any fixed order stays within
    gamma_3 * sum_i |a_i b_i| of the exact dot, gamma_3 = 3u / (1 - 3u)
    with u = eps / 2 (Higham, Accuracy and Stability, 3.1)."""

    GAMMA_3 = 3 * (np.finfo(np.float64).eps / 2) / (1 - 3 * np.finfo(np.float64).eps / 2)

    @staticmethod
    def cases():
        rng = np.random.default_rng(17)
        a = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2000, 3))
        # mixed signs that cancel: b nearly orthogonal to a, so the exact dot is tiny
        c = rng.normal(size=(2000, 3))
        near = np.cross(a, c) + 1e-9 * rng.normal(size=(2000, 3))
        return [
            (normalize(rng.normal(size=(2000, 3))), normalize(rng.normal(size=(2000, 3)))),
            (a, rng.normal(size=(2000, 3)) * np.sign(rng.normal(size=(2000, 3)))),
            (a, near),
        ]

    def test_within_gamma_3_of_the_exact_sum(self):
        """Random, mixed-sign and cancelling pairs, C-ordered, Fortran-ordered,
        strided and broadcast against one vector: every result equals the
        fixed order (a0*b0 + a2*b2) + a1*b1 in Python floats bit for bit and
        lies within gamma_3 * sum |a_i b_i| of the exact dot (measured: at
        most 0.67 of that bound)."""
        for a, b in self.cases():
            wide = np.repeat(a, 2, axis=0)[::2]
            layouts = [(a, b), (np.asfortranarray(a), np.asfortranarray(b)), (wide, b),
                       (a[0], b), (b, a[-1])]
            for x, y in layouts:
                got = _dot(x, y)
                xs, ys = np.broadcast_arrays(x, y)
                assert got.shape == xs.shape[:-1]
                for g, u, v in zip(got.tolist(), xs.tolist(), ys.tolist()):
                    assert g == (u[0] * v[0] + u[2] * v[2]) + u[1] * v[1]
                    bound = self.GAMMA_3 * math.fsum(abs(p * q) for p, q in zip(u, v))
                    assert abs(g - exact_dot(u, v)) <= bound

    def test_one_vector_gives_a_numpy_scalar(self):
        a, b = np.array([0.3, -0.2, 0.9]), np.array([-0.1, 0.7, 0.4])
        got = _dot(a, b)
        assert isinstance(got, np.float64)
        assert got == (0.3 * -0.1 + 0.9 * 0.4) + -0.2 * 0.7


class TestLobeValues:
    """lobe_values sums its dot product as (d0*a0 + d2*a2) + d1*a1 whatever
    the operands' memory layout, so a batch and one direction round alike."""

    @staticmethod
    def inputs():
        rng = np.random.default_rng(31)
        return (normalize(rng.normal(size=(128, 3))), normalize(rng.normal(size=(5, 3))),
                rng.uniform(0.5, 60.0, size=5))

    @staticmethod
    def fixed_order(axis, sharpness, dirs):
        """The exponent summed in that order in Python floats, then np.exp."""
        shape = np.broadcast_shapes(np.shape(dirs)[:-1], np.shape(axis)[:-1], np.shape(sharpness))
        d = np.broadcast_to(dirs, shape + (3,))
        a = np.broadcast_to(axis, shape + (3,))
        s = np.broadcast_to(sharpness, shape)
        x = np.empty(shape)
        for i in np.ndindex(shape):
            (d0, d1, d2), (a0, a1, a2) = d[i].tolist(), a[i].tolist()
            x[i] = float(s[i]) * ((d0 * a0 + d2 * a2) + d1 * a1 - 1.0)
        return np.exp(x)

    def test_bits_independent_of_layout(self):
        """Fortran-ordered and strided copies, and one direction at a time,
        give the C-ordered batch's bits."""
        dirs, axes, sharp = self.inputs()
        ref = lobe_values(axes, sharp, dirs[:, None, :])
        assert ref.shape == (128, 5)
        for copy in (np.asfortranarray, lambda x: np.repeat(x, 2, axis=0)[::2]):
            assert np.array_equal(lobe_values(copy(axes), sharp, copy(dirs)[:, None, :]), ref)
        for i, d in enumerate(dirs):
            assert np.array_equal(lobe_values(axes, sharp, d), ref[i])

    def test_bits_equal_the_former_inline_sum(self):
        """lobe_values takes its dot from _dot with the bits of the sum it
        used to write inline, on C-ordered, Fortran-ordered and broadcast
        operands."""
        def inline(axis, sharpness, dirs):
            d, a = np.asarray(dirs, dtype=np.float64), np.asarray(axis, dtype=np.float64)
            g = d[..., 0] * a[..., 0]
            g += d[..., 2] * a[..., 2]
            g += d[..., 1] * a[..., 1]
            g -= 1.0
            g *= sharpness
            return np.exp(g, out=g) if g.ndim else np.exp(g)

        dirs, axes, sharp = self.inputs()
        cases = [
            (axes, sharp, dirs[:, None, :]),
            (np.asfortranarray(axes), sharp, np.asfortranarray(dirs)[:, None, :]),
            (axes, sharp, np.broadcast_to(dirs[0], (128, 5, 3))),
            (np.broadcast_to(axes[0], (128, 3)), 7.5, dirs),
            (axes[0], 7.5, dirs[0]),
        ]
        for axis, s, d in cases:
            got, want = lobe_values(axis, s, d), inline(axis, s, d)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_shapes_equal_fixed_order(self):
        """Scalar, (N,), (N, S) and broadcast-sharpness calls equal the
        fixed-order sum bit for bit; one direction gives a numpy scalar."""
        dirs, axes, sharp = self.inputs()
        cases = [
            (axes[0], 7.5, dirs[0]),
            (axes[0], 7.5, dirs),
            (axes, sharp, dirs[:, None, :]),
            (axes, 7.5, dirs[:, None, :]),
            (axes, np.linspace(0.5, 60.0, 128)[:, None], dirs[:, None, :]),
        ]
        for axis, s, d in cases:
            got = lobe_values(axis, s, d)
            want = self.fixed_order(axis, s, d)
            assert np.shape(got) == want.shape
            assert np.array_equal(got, want)
        assert isinstance(lobe_values(axes[0], 7.5, dirs[0]), np.float64)
