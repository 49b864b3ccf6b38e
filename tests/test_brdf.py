"""Microfacet BRDF terms, shading integrals, and the specular renderers."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from sglight import brdf
from sglight.brdf import (
    F0_DEFAULT,
    GBuffer,
    ggx_ndf,
    half_vector,
    hemisphere_grid,
    onb,
    reflect,
    render_diffuse,
    render_specular,
    schlick_fresnel,
    shading,
    smith_g2,
    spec_encode,
    specular_brdf,
)
from sglight.cli import main
from sglight.multiview import CameraView
from sglight.pfm import write_pfm
from sglight.scene import parse_scene
from sglight.sg import SgEnvironment, SphericalGaussian, normalize

from mc_oracles import mc_render_diffuse, mc_render_specular


def wall_camera(size=4, fx=20.0, plane_z=2.0):
    """Camera at the origin looking down +z at a flat wall z = plane_z.

    Returns (camera, gbuffer) with exact plane depths and normals facing
    the camera.
    """
    cam = CameraView(
        fx=fx, fy=fx, cx=size / 2.0, cy=size / 2.0,
        rotation=np.eye(3), translation=np.zeros(3),
        width=size, height=size,
    )
    jj, ii = np.meshgrid(np.arange(size), np.arange(size), indexing="xy")
    ray = np.stack(
        [
            (jj + 0.5 - cam.cx) / cam.fx,
            (ii + 0.5 - cam.cy) / cam.fy,
            np.ones((size, size)),
        ],
        axis=-1,
    )
    ray /= np.linalg.norm(ray, axis=-1, keepdims=True)
    depth = plane_z / ray[..., 2]
    g = GBuffer(
        albedo=np.full((size, size, 3), 1.0),
        roughness=np.full((size, size), 0.4),
        normal=np.broadcast_to([0.0, 0.0, -1.0], (size, size, 3)).copy(),
        depth=depth,
    )
    return cam, g


def constant_env(value):
    lobe = SphericalGaussian([0.0, 0.0, 1.0], 0.0, [value] * 3)
    return SgEnvironment((lobe,))


def random_scene(height, width, seed=0, lobes=4):
    """Camera, G-buffer and lit environment with per-pixel visibility.

    Stored as float32 like scene files: normals are unit only to about
    1e-7. Roughness is U(0.2, 0.9); about 10% of normals face away from
    the camera.
    """
    rng = np.random.default_rng(seed)
    f32 = lambda a: np.asarray(a, dtype=np.float32).astype(np.float64)
    cam = CameraView(
        fx=0.9 * width, fy=0.9 * width, cx=width / 2.0, cy=height / 2.0,
        rotation=np.eye(3), translation=np.zeros(3), width=width, height=height,
    )
    depth = f32(rng.uniform(2.0, 4.0, size=(height, width)))
    jj, ii = np.meshgrid(np.arange(width), np.arange(height), indexing="xy")
    view = cam.center - cam.unproject(jj + 0.5, ii + 0.5, depth)
    view /= np.linalg.norm(view, axis=-1, keepdims=True)
    back = rng.random((height, width)) < 0.1
    normal = normalize(np.where(back[..., None], -view, view)
                       + 0.7 * rng.normal(size=(height, width, 3)))
    # put each pixel on the side of its horizon that back picked
    flip = (np.sum(normal * view, axis=-1) > 0.0) == back
    normal = f32(np.where(flip[..., None], -normal, normal))
    g = GBuffer(
        albedo=f32(rng.uniform(0.1, 0.9, size=(height, width, 3))),
        roughness=f32(rng.uniform(0.2, 0.9, size=(height, width))),
        normal=normal,
        depth=depth,
    )
    sg = tuple(
        SphericalGaussian(normalize(rng.normal(size=3)), rng.uniform(1.0, 25.0),
                          rng.uniform(0.2, 2.0, size=3))
        for _ in range(lobes)
    )
    vis = rng.uniform(0.0, 1.0, size=(height, width, lobes))
    return cam, g, SgEnvironment(sg, visibility=vis)


def reference_render(g, env, cam, resolution):
    """Per-pixel world-frame diffuse and specular images: rotate the grid
    into each pixel's frame and evaluate lobes and GGX on 3-vectors."""
    local, wq = hemisphere_grid(resolution)
    h, w = g.shape
    diffuse, specular = np.zeros((h, w, 3)), np.zeros((h, w, 3))
    for i in range(h):
        for j in range(w):
            n = g.normal[i, j]
            t, b = onb(n)
            dirs = local[:, 0:1] * t + local[:, 1:2] * b + local[:, 2:3] * n
            radiance = sum(
                mu * lobe.intensity
                * np.exp(lobe.sharpness * (dirs @ lobe.axis - 1.0))[:, None]
                for mu, lobe in zip(env.visibility[i, j], env.lobes)
            )
            diffuse[i, j] = g.albedo[i, j] / np.pi * (radiance.T @ (wq * local[:, 2]))
            p = cam.unproject(np.array(j + 0.5), np.array(i + 0.5), g.depth[i, j])
            v = normalize(cam.center - p)
            cos_v = n @ v
            if cos_v <= 0.0:
                continue
            alpha = g.roughness[i, j] ** 2
            hvec = v + dirs
            hnorm = np.linalg.norm(hvec, axis=-1)
            hvec /= np.where(hnorm > 1e-12, hnorm, 1.0)[:, None]
            kernel = (ggx_ndf(np.clip(hvec @ n, 0.0, 1.0), alpha)
                      * smith_g2(cos_v, local[:, 2], alpha)
                      * schlick_fresnel(hvec @ v) / (4.0 * cos_v))
            specular[i, j] = radiance.T @ (kernel * wq)
    return diffuse, specular


def allocating_grid_dot(coef, grid, offset):
    """brdf._grid_dot as it was before the reused chunk workspace."""
    st, u, cos_phi, sin_phi = grid
    ring = np.multiply.outer(coef[:, 0], cos_phi) + np.multiply.outer(coef[:, 1], sin_phi)
    band = np.multiply.outer(coef[:, 2], u) + np.reshape(offset, (-1, 1))
    out = ring[:, None, :] * st[:, None]
    out += band[:, :, None]
    return out.reshape(len(coef), -1)


def allocating_render(g, env, cam, resolution):
    """The chunked diffuse and specular renderers as they were before the
    reused chunk workspace: fresh (p, M) temporaries for every lobe and
    kernel factor, the BRDF factors on (p, M), and frozen copies of the
    GGX D, Smith G2 and Schlick F formulas. Chunks of brdf.CHUNK_NODES."""
    def ndf(cos_h, alpha):
        a2 = alpha * alpha
        d = cos_h * cos_h * (a2 - 1.0) + 1.0
        return a2 / (np.pi * d * d)

    def smith_lambda(cos_t, alpha):
        c = np.clip(cos_t, 1e-9, 1.0)
        tan2 = (1.0 - c * c) / (c * c)
        return 0.5 * (-1.0 + np.sqrt(1.0 + alpha * alpha * tan2))

    def fresnel(cos_vh):
        c = np.clip(cos_vh, 0.0, 1.0)
        return F0_DEFAULT + (1.0 - F0_DEFAULT) * (1.0 - c) ** 5

    def shade(pixels, grid, kernel):
        normals = g.normal.reshape(-1, 3)[pixels]
        mu = env.visibility.reshape(-1, env.num_lobes)
        m = grid[0].size * grid[2].size
        step = max(1, brdf.CHUNK_NODES // m)
        out = np.zeros((len(normals), 3))
        for start in range(0, len(normals), step):
            rows = slice(start, start + step)
            frame = np.stack((*onb(normals[rows]), normals[rows]), axis=1)
            k = np.broadcast_to(kernel(rows, frame), (len(frame), m))
            for s, row in enumerate(env.packed):
                lam = row[3]
                e = allocating_grid_dot(lam * np.einsum("pjk,k->pj", frame, row[:3]),
                                        grid, -lam)
                c = np.einsum("pm,pm->p", np.exp(e, out=e), k)
                c *= mu[pixels[rows], s]
                out[rows] += c[:, None] * row[4:]
        return out

    h, w = g.shape
    grid, _, wq = brdf._equal_area_grid(resolution, 0.0)
    wz = wq * np.repeat(grid[1], grid[2].size)
    s = shade(np.arange(h * w), grid, lambda rows, frame: wz)
    diffuse = (g.albedo.reshape(-1, 3) / np.pi * s).reshape(h, w, 3)

    pixels = np.arange(h * w)
    v = brdf._view_dirs(g, cam).reshape(-1, 3)
    cos_v = np.einsum("pk,pk->p", g.normal.reshape(-1, 3), v)
    front = cos_v > 0.0
    pixels, v, cos_v = pixels[front], v[front], cos_v[front, None]
    alpha = g.roughness.reshape(-1)[pixels, None] ** 2
    cos_l = np.repeat(grid[1], grid[2].size)

    def kernel(rows, frame):
        vr, cv, a = v[rows], cos_v[rows], alpha[rows]
        hk = [allocating_grid_dot(frame[:, :, k], grid, vr[:, k]) for k in range(3)]
        hn = np.sqrt(hk[0] * hk[0] + hk[1] * hk[1] + hk[2] * hk[2])
        hn = np.where(hn > 1e-12, hn, 1.0)
        n = frame[:, 2]
        nh = (n[:, 0:1] * hk[0] + n[:, 1:2] * hk[1] + n[:, 2:3] * hk[2]) / hn
        vh = allocating_grid_dot(np.einsum("pjk,pk->pj", frame, vr), grid,
                                 np.einsum("pk,pk->p", vr, vr)) / hn
        g2 = 1.0 / (1.0 + smith_lambda(cv, a) + smith_lambda(cos_l, a))
        return ndf(np.clip(nh, 0.0, 1.0), a) * g2 * fresnel(vh) / (4.0 * cv) * wq

    specular = np.zeros((h * w, 3))
    specular[pixels] = shade(pixels, grid, kernel)
    return diffuse, specular.reshape(h, w, 3)


def write_scene(dirpath, cam, g, env, quadrature):
    """Write a scene file (and its float32 maps) for a random_scene."""
    for name, arr in (("albedo", g.albedo), ("rough", g.roughness),
                      ("normal", g.normal), ("depth", g.depth)):
        write_pfm(dirpath / f"{name}.pfm", arr.astype(np.float32))
    lobes = "".join(
        "sg: " + " ".join(repr(float(x)) for x in (*lobe.axis, lobe.sharpness,
                                                   *lobe.intensity)) + "\n"
        for lobe in env.lobes
    )
    path = dirpath / "scene.txt"
    path.write_text(
        "sgscene 1\n[camera.0]\n"
        f"intrinsics: {cam.fx!r} {cam.fy!r} {cam.cx!r} {cam.cy!r}\n"
        "pose: 1 0 0 0\npose: 0 1 0 0\npose: 0 0 1 0\n"
        f"size: {cam.width} {cam.height}\n"
        "[gbuffer]\nalbedo: albedo.pfm\nroughness: rough.pfm\n"
        "normal: normal.pfm\ndepth: depth.pfm\n[lighting]\n" + lobes
        + f"[render]\nresolution: {cam.width} {cam.height}\n"
        f"quadrature: {quadrature[0]} {quadrature[1]}\n"
    )
    return path


class TestMicrofacetTerms:
    def test_ndf_normalized(self):
        """int D(h) (n.h) dh over the hemisphere equals 1."""
        for rough in (0.15, 0.4, 1.0):
            a = rough * rough
            val, err = quad(
                lambda c: ggx_ndf(c, a) * c * 2.0 * np.pi, 0.0, 1.0,
                points=[1.0 - a * a, 1.0], limit=200,
            )
            assert err < 1e-8
            np.testing.assert_allclose(val, 1.0, rtol=1e-10)

    def test_ndf_peaks_at_normal(self):
        c = np.linspace(0.0, 1.0, 101)
        d = ggx_ndf(c, 0.25)
        assert d.argmax() == 100

    def test_smith_bounds(self):
        rng = np.random.default_rng(42)
        cv = rng.uniform(0.01, 1.0, size=200)
        cl = rng.uniform(0.01, 1.0, size=200)
        g2 = smith_g2(cv, cl, 0.3)
        assert np.all(g2 > 0.0) and np.all(g2 <= 1.0)
        np.testing.assert_allclose(smith_g2(1.0, 1.0, 0.5), 1.0, rtol=1e-12)

    def test_fresnel_endpoints(self):
        np.testing.assert_allclose(schlick_fresnel(1.0), F0_DEFAULT)
        np.testing.assert_allclose(schlick_fresnel(0.0), 1.0)
        c = np.linspace(0.0, 1.0, 51)
        assert np.all(np.diff(schlick_fresnel(c)) < 0.0)

    def test_brdf_reciprocal(self):
        rng = np.random.default_rng(7)
        n = np.array([0.0, 0.0, 1.0])
        for _ in range(20):
            v = normalize(rng.normal(size=3) * [1, 1, 0] + [0, 0, 1])
            l = normalize(rng.normal(size=3) * [1, 1, 0] + [0, 0, 1])
            a = specular_brdf(v, l, n, 0.5)
            b = specular_brdf(l, v, n, 0.5)
            np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_brdf_within_a_stated_bound_of_the_blas_dots(self):
        """1000 random (v, l, n, roughness) against the BRDF with its four
        dot products taken by BLAS np.dot, as sglight once did. Two sums of
        a unit 3-vector dot lie within 3 eps of each other (gamma_3 each,
        see test_sg's TestDot); 1/(n.v) and 1/(n.l) amplify that by their
        inverse cosines, GGX by at most 4 / alpha^2 and Fresnel by at most 5,
        so the relative gap stays within 4 eps (1/n.v + 1/n.l + 4/alpha^2 + 5)
        (measured: 0.45 of it over 20000 cases). Below the horizon both are 0."""
        def blas_brdf(v, l, n, roughness):
            cos_v, cos_l = float(np.dot(n, v)), float(np.dot(n, l))
            if cos_v <= 0.0 or cos_l <= 0.0:
                return 0.0
            h, alpha = half_vector(v, l), roughness * roughness
            d = ggx_ndf(float(np.dot(n, h)), alpha)
            f = schlick_fresnel(float(np.dot(v, h)))
            return float(d * smith_g2(cos_v, cos_l, alpha) * f / (4.0 * cos_v * cos_l))

        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(3)
        lit = 0
        for _ in range(1000):
            n, v, l = normalize(rng.normal(size=(3, 3)))
            roughness = rng.uniform(0.1, 1.0)
            got, want = specular_brdf(v, l, n, roughness), blas_brdf(v, l, n, roughness)
            if want == 0.0:
                assert got == 0.0
                continue
            lit += 1
            cos_v, cos_l = math.fsum(n * v), math.fsum(n * l)
            bound = 4 * eps * (1 / cos_v + 1 / cos_l + 4 / roughness ** 4 + 5)
            assert abs(got - want) <= bound * want
        assert lit > 200

    def test_brdf_below_horizon_is_zero(self):
        n = np.array([0.0, 0.0, 1.0])
        v = normalize([0.3, 0.0, 1.0])
        assert specular_brdf(v, [0.0, 0.0, -1.0], n, 0.5) == 0.0

    def test_brdf_rejects_zero_roughness(self):
        n = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            specular_brdf(n, n, n, 0.0)


class TestVectorOps:
    def test_reflect(self):
        r = reflect([0.0, 0.0, 1.0], normalize([0.0, 1.0, 1.0]))
        np.testing.assert_allclose(r, [0.0, 1.0, 0.0], atol=1e-15)

    def test_half_vector_of_equal_dirs(self):
        v = normalize([0.2, -0.3, 0.9])
        np.testing.assert_allclose(half_vector(v, v), v, rtol=1e-12)

    def test_half_vector_antipodal_rejected(self):
        v = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            half_vector(v, -v)

    def test_onb_orthonormal(self):
        rng = np.random.default_rng(42)
        n = rng.normal(size=(100, 3))
        n /= np.linalg.norm(n, axis=-1, keepdims=True)
        t, b = onb(n)
        np.testing.assert_allclose(np.einsum("ik,ik->i", t, n), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.einsum("ik,ik->i", b, n), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.einsum("ik,ik->i", t, b), 0.0, atol=1e-12)
        cross = np.cross(t, b)
        np.testing.assert_allclose(cross, n, atol=1e-12)


class TestHemisphereGrid:
    def test_equal_area_weights_exact(self):
        local, w = hemisphere_grid((32, 64))
        np.testing.assert_allclose(w.sum(), 2.0 * np.pi, rtol=1e-13)
        assert np.all(local[:, 2] > 0.0)
        np.testing.assert_allclose(
            np.linalg.norm(local, axis=-1), 1.0, rtol=1e-13
        )

    def test_equal_area_cosine_integral_exact(self):
        """Midpoints in cos(theta) average to exactly 1/2, so the cosine
        integral is pi to machine precision at any resolution."""
        local, w = hemisphere_grid((4, 8))
        np.testing.assert_allclose(np.sum(w * local[:, 2]), np.pi, rtol=1e-13)


class TestShading:
    def test_furnace_constant_env(self):
        """Constant radiance L0 gives S = pi * L0 for any normal."""
        env = constant_env(0.75)
        rng = np.random.default_rng(42)
        for _ in range(5):
            n = normalize(rng.normal(size=3))
            s = shading(env, n)
            np.testing.assert_allclose(s, np.pi * 0.75, rtol=1e-12)

    def test_rotation_invariance(self):
        """Rotating lighting and normal together leaves S unchanged."""
        rng = np.random.default_rng(3)
        axis = normalize(rng.normal(size=3))
        lobe = SphericalGaussian(axis, 6.0, [1.0, 0.5, 0.25])
        n = normalize(rng.normal(size=3))
        s0 = shading(SgEnvironment((lobe,)), n)
        # random rotation via QR
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1.0
        rot_lobe = SphericalGaussian(q @ axis, 6.0, [1.0, 0.5, 0.25])
        s1 = shading(SgEnvironment((rot_lobe,)), q @ n)
        np.testing.assert_allclose(s1, s0, rtol=1e-6)

    def test_converges_with_resolution(self):
        """Successive grid refinements agree, 64x128 vs 256x512 to 1e-4."""
        lobe = SphericalGaussian(normalize([0.3, 0.2, 0.9]), 12.0,
                                 [2.0, 1.0, 0.5])
        env = SgEnvironment((lobe,))
        n = normalize([0.1, -0.2, 1.0])
        coarse = shading(env, n, resolution=(64, 128))
        dense = shading(env, n, resolution=(256, 512))
        np.testing.assert_allclose(coarse, dense, rtol=1e-4)

    def test_rejects_per_pixel_visibility(self):
        """shading has no pixel argument, so its error names the
        environment, not a pixel index."""
        lobe = SphericalGaussian(normalize([0.0, 0.0, 1.0]), 4.0, [1.0, 1.0, 1.0])
        env = SgEnvironment((lobe,), visibility=np.ones((2, 2, 1)))
        with pytest.raises(ValueError, match="^shading takes an environment "
                                             "without per-pixel visibility$"):
            shading(env, [0.0, 0.0, 1.0])


class TestRenderers:
    def test_diffuse_furnace(self):
        """A = 1 under constant L0 renders L0 at every pixel."""
        cam, g = wall_camera()
        img = render_diffuse(g, constant_env(0.6))
        np.testing.assert_allclose(img.data, 0.6, rtol=1e-12)

    def test_diffuse_scales_with_albedo(self):
        cam, g = wall_camera()
        g2 = GBuffer(
            albedo=np.full((4, 4, 3), 0.5), roughness=g.roughness,
            normal=g.normal, depth=g.depth,
        )
        full = render_diffuse(g, constant_env(1.0))
        half = render_diffuse(g2, constant_env(1.0))
        np.testing.assert_allclose(half.data, 0.5 * full.data, rtol=1e-12)

    def test_specular_white_furnace_bounded(self):
        """Specular-only energy under constant light never exceeds it."""
        for rough in (0.2, 0.5, 1.0):
            cam, g = wall_camera()
            g = GBuffer(albedo=g.albedo, roughness=np.full((4, 4), rough),
                        normal=g.normal, depth=g.depth)
            img = render_specular(g, constant_env(1.0), cam)
            assert np.all(img.data <= 1.0 + 1e-2)
            assert np.all(img.data > 0.0)

    def test_specular_rows_band_matches_full(self):
        """A banded render returns exactly its rows, with the full values."""
        cam, g = wall_camera()
        lobe = SphericalGaussian(normalize([0.2, 0.1, -0.9]), 8.0,
                                 [1.0, 2.0, 0.5])
        env = SgEnvironment((lobe,))
        full = render_specular(g, env, cam)
        band = render_specular(g, env, cam, rows=slice(1, 3))
        assert band.data.shape == (2, 4, 3)
        assert band.data.tobytes() == full.data[1:3].tobytes()

    @pytest.mark.parametrize("shape", [(2, 0), (0, 2), (0, 0)])
    def test_empty_images_and_bands(self, shape):
        """Zero-size G-buffers and empty bands render (rows, W, 3) images."""
        g = GBuffer(albedo=np.ones(shape + (3,)), roughness=np.full(shape, 0.4),
                    normal=np.broadcast_to([0.0, 0.0, 1.0], shape + (3,)), depth=np.ones(shape))
        assert render_diffuse(g, constant_env(1.0)).data.shape == shape + (3,)
        cam, g = wall_camera()
        assert render_diffuse(g, constant_env(1.0), rows=slice(2, 2)).data.shape == (0, 4, 3)
        assert render_specular(g, constant_env(1.0), cam, rows=slice(2, 2)).data.shape == (0, 4, 3)

    def test_specular_backfacing_black(self):
        cam, g = wall_camera()
        flipped = GBuffer(
            albedo=g.albedo, roughness=g.roughness,
            normal=np.broadcast_to([0.0, 0.0, 1.0], (4, 4, 3)).copy(),
            depth=g.depth,
        )
        img = render_specular(flipped, constant_env(1.0), cam)
        np.testing.assert_array_equal(img.data, 0.0)

    def test_mc_diffuse_furnace_exact(self):
        """Cosine-weighted sampling of constant light has zero variance."""
        cam, g = wall_camera()
        img = mc_render_diffuse(g, constant_env(0.8), n_samples=64, seed=0)
        np.testing.assert_allclose(img.data, 0.8, rtol=1e-12)

    def test_mc_vs_quadrature_specular(self):
        """Monte Carlo importance sampling agrees with the quadrature
        renderer on a small image (loose tolerance, few samples)."""
        cam, g = wall_camera(size=2)
        lobe = SphericalGaussian(normalize([0.3, -0.2, -0.9]), 5.0,
                                 [1.0, 1.5, 0.5])
        env = SgEnvironment((lobe,))
        quad_img = render_specular(g, env, cam, resolution=(64, 128))
        mc_img = mc_render_specular(g, env, cam, n_samples=30000, seed=0)
        np.testing.assert_allclose(mc_img.data, quad_img.data, rtol=3e-2)

    def test_mc_deterministic_per_seed(self):
        cam, g = wall_camera(size=2)
        env = constant_env(1.0)
        a = mc_render_specular(g, env, cam, n_samples=500, seed=3)
        b = mc_render_specular(g, env, cam, n_samples=500, seed=3)
        c = mc_render_specular(g, env, cam, n_samples=500, seed=4)
        np.testing.assert_array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)


class TestChunkedRenderers:
    """The chunked frame-coefficient renderers against the per-pixel
    world-frame formulation, their determinism, and their memory."""

    # seed 2 holds a grazing view whose half vectors the identity
    # n.h = (n.v + n.l) / |v + l| resolves only to about 1e-11
    @pytest.mark.parametrize("seed", [2, 3])
    def test_matches_world_frame_reference(self, seed):
        cam, g, env = random_scene(9, 7, seed=seed)
        resolution = (12, 24)
        ref_d, ref_s = reference_render(g, env, cam, resolution)
        diffuse = render_diffuse(g, env, resolution).data
        specular = render_specular(g, env, cam, resolution).data
        back = np.all(ref_s == 0.0, axis=-1)  # the reference skips n.v <= 0
        assert 2 <= back.sum() <= 15
        for ref, got in ((ref_d, diffuse), (ref_s, specular)):
            nz = ref != 0.0
            np.testing.assert_array_equal(got[~nz], 0.0)
            np.testing.assert_allclose(got[nz], ref[nz], rtol=1e-12, atol=0.0)

    def test_bytes_independent_of_bands_threads_and_chunking(self, tmp_path, monkeypatch):
        resolution = (4, 8)
        m = resolution[0] * resolution[1]
        # 2.5 chunks of pixels: three chunks for each renderer, also for
        # specular, which shades only the ~90% front-facing pixels
        size = int(np.sqrt(2.5 * brdf.CHUNK_NODES / m)) + 1
        cam, g, env = random_scene(size, size, seed=5, lobes=3)
        env = SgEnvironment(env.lobes)  # scene files carry no visibility
        scene = write_scene(tmp_path, cam, g, env, resolution)
        g = parse_scene(scene).gbuffer
        plain_d = render_diffuse(g, env, resolution).data
        plain_s = render_specular(g, env, cam, resolution).data
        assert plain_s.any() and (plain_s == 0.0).any()
        for band in [slice(r, r + 1) for r in range(size)] + [slice(0, 7), slice(7, size)]:
            for plain, got in ((plain_s, render_specular(g, env, cam, resolution, rows=band)),
                               (plain_d, render_diffuse(g, env, resolution, rows=band))):
                assert got.data.shape == plain[band].shape, band
                assert got.data.tobytes() == plain[band].tobytes(), band
        assert main(["render", str(scene), "--out-prefix", str(tmp_path / "t1")]) == 0
        assert main(["render", str(scene), "--out-prefix", str(tmp_path / "t3"),
                     "--threads", "3"]) == 0
        monkeypatch.setattr(brdf, "CHUNK_NODES", 7 * m + 5)  # 7-pixel chunks
        assert render_diffuse(g, env, resolution).data.tobytes() == plain_d.tobytes()
        assert render_specular(g, env, cam, resolution).data.tobytes() == plain_s.tobytes()
        assert main(["render", str(scene), "--out-prefix", str(tmp_path / "c7")]) == 0
        for kind, img in (("diffuse", plain_d), ("specular", plain_s),
                          ("full", plain_d + plain_s)):
            write_pfm(tmp_path / f"lib_{kind}.pfm", img.astype(np.float32))
            expected = (tmp_path / f"lib_{kind}.pfm").read_bytes()
            for prefix in ("t1", "t3", "c7"):
                assert (tmp_path / f"{prefix}_{kind}.pfm").read_bytes() == expected, (
                    prefix, kind)

    @pytest.mark.parametrize("resolution, chunk_px", [
        pytest.param((12, 24), None, id="None"), pytest.param((12, 24), 7, id="7"),
        pytest.param((1, 1), 1, id="1x1-1px"), pytest.param((5, 1), 1, id="5x1-1px")])
    def test_bytes_equal_allocating_renderers(self, resolution, chunk_px, monkeypatch):
        """The reused workspace, the in-place D and F and the latitude-only
        G2 keep every byte of the allocating renderers, with visibility."""
        cam, g, env = random_scene(13, 11, seed=4)
        if chunk_px is not None:
            monkeypatch.setattr(brdf, "CHUNK_NODES", chunk_px * resolution[0] * resolution[1])
        ref_d, ref_s = allocating_render(g, env, cam, resolution)
        assert ref_s.any() and (ref_s == 0.0).any()
        assert np.array_equal(render_diffuse(g, env, resolution).data, ref_d)
        assert np.array_equal(render_specular(g, env, cam, resolution).data, ref_s)

    @pytest.mark.parametrize("p", [1, 7, 64])
    @pytest.mark.parametrize("resolution", [(1, 1), (1, 8), (5, 1), (32, 64)],
                             ids=["1x1", "1x8", "5x1", "32x64"])
    def test_grid_dot_bytes_equal_broadcast(self, p, resolution):
        """The node product as an einsum gives each node the broadcast's bits."""
        rng = np.random.default_rng(p)
        coef, offset = rng.normal(size=(p, 3)), rng.normal(size=p)
        grid, _, _ = brdf._equal_area_grid(resolution, 0.0)
        out = np.empty((p, resolution[0] * resolution[1]))
        got = brdf._grid_dot(coef, grid, offset, out)
        assert got is out
        assert got.tobytes() == allocating_grid_dot(coef, grid, offset).tobytes()

    @pytest.mark.parametrize("renderer, buffers", [("diffuse", 2), ("specular", 8)])
    def test_peak_memory_is_a_few_chunk_buffers(self, renderer, buffers):
        """One call reuses a fixed set of chunk buffers, so its traced peak
        on a 48^2 G-buffer at (32, 64) nodes stays within a few of them."""
        cam, g, env = random_scene(48, 48, seed=9)
        tracemalloc.start()
        try:
            if renderer == "diffuse":
                render_diffuse(g, env, resolution=(32, 64))
            else:
                render_specular(g, env, cam, resolution=(32, 64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= buffers * brdf.CHUNK_NODES * 8, peak

    @pytest.mark.parametrize("renderer, buffers", [("diffuse", 1), ("specular", 5)])
    def test_one_row_band_peaks_within_its_own_rows(self, renderer, buffers):
        """A one-row band of a 256^2 G-buffer at (4, 8) nodes holds the
        renderer's 64 KiB chunk buffers, three more for the chunk's frame and
        node products (the allowance above), and the band's image and its
        HdrImage copy; one full-size image alone would be 1.5 MiB."""
        cam, g, env = random_scene(256, 256, seed=9)
        resolution, band = (4, 8), slice(100, 101)
        if renderer == "diffuse":
            render = lambda: render_diffuse(g, env, resolution, rows=band)
        else:
            render = lambda: render_specular(g, env, cam, resolution, rows=band)
        render()  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            img = render()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert img.data.shape == (1, 256, 3)
        chunk = 256 * 4 * 8 * 8  # the band's 256 pixels of 32 nodes, float64
        assert peak <= (buffers + 3) * chunk + 2 * img.data.nbytes, peak

    @pytest.mark.parametrize("renderer", ["diffuse", "specular"])
    def test_peak_memory_bounded(self, renderer):
        cam, g, env = random_scene(128, 128, seed=9)
        tracemalloc.start()
        try:
            if renderer == "diffuse":
                render_diffuse(g, env, resolution=(16, 32))
            else:
                render_specular(g, env, cam, resolution=(16, 32))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20, peak

    def test_specular_rejects_camera_size_mismatch(self):
        cam, g = wall_camera(size=4)
        small = CameraView(fx=20.0, fy=20.0, cx=2.0, cy=2.0, rotation=np.eye(3),
                           translation=np.zeros(3), width=4, height=3)
        with pytest.raises(ValueError, match="camera"):
            render_specular(g, constant_env(1.0), small)


def random_pose(rng, distance):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.linalg.det(q)), normalize(rng.normal(size=3)) * distance


class TestViewRays:
    def test_specular_bytes_do_not_depend_on_depth(self):
        """The view direction is the reversed pixel ray, so a new depth map
        leaves every float64 byte of a rotated, translated camera's render."""
        rng = np.random.default_rng(21)
        rot, t = random_pose(rng, 3.0)
        cam = CameraView(fx=7.0, fy=6.5, cx=4.2, cy=3.9, rotation=rot, translation=t,
                         width=8, height=8)
        _, g, env = random_scene(8, 8, seed=5)
        jj, ii = np.meshgrid(np.arange(8) + 0.5, np.arange(8) + 0.5)
        toward = normalize(np.stack([(jj - 4.2) / 7.0, (ii - 3.9) / 6.5, np.ones((8, 8))], -1))
        normal = normalize(0.6 * rng.normal(size=(8, 8, 3)) - toward @ rot)
        g = GBuffer(albedo=g.albedo, roughness=g.roughness, normal=normal, depth=g.depth)
        moved = GBuffer(albedo=g.albedo, roughness=g.roughness, normal=normal,
                        depth=rng.uniform(0.5, 9.0, size=(8, 8)))
        a = render_specular(g, env, cam, resolution=(8, 16)).data
        b = render_specular(moved, env, cam, resolution=(8, 16)).data
        assert np.count_nonzero(a.any(axis=-1)) > 32
        assert a.tobytes() == b.tobytes()

    def test_far_camera_view_direction_is_exact(self):
        """At |t| = 1e6 each direction is within 1e-15 of a long-double
        reference; rebuilding it from the surface point loses 1e-10."""
        rng = np.random.default_rng(22)
        rot, t = random_pose(rng, 1e6)
        cam = CameraView(fx=9.0, fy=7.0, cx=4.3, cy=2.8, rotation=rot, translation=t,
                         width=8, height=6)
        g = GBuffer(albedo=np.full((6, 8, 3), 0.5), roughness=np.full((6, 8), 0.4),
                    normal=np.broadcast_to([0.0, 0.0, 1.0], (6, 8, 3)).copy(),
                    depth=rng.uniform(0.5, 2.0, size=(6, 8)))
        ld = np.longdouble
        jj, ii = np.meshgrid(np.arange(8, dtype=ld) + ld(0.5), np.arange(6, dtype=ld) + ld(0.5))
        r = np.stack([(jj - ld(cam.cx)) / ld(cam.fx), (ii - ld(cam.cy)) / ld(cam.fy),
                      np.ones_like(jj)], axis=-1)
        r /= np.sqrt(np.sum(r * r, axis=-1, keepdims=True))
        ref = -(r @ rot.astype(ld))  # -R^T r per pixel
        assert np.max(np.abs(brdf._view_dirs(g, cam) - ref)) <= 1e-15


class TestSpecEncode:
    def test_mask_semantics(self):
        n = np.array([0.0, 0.0, 1.0])
        v = normalize([0.3, 0.0, 1.0])
        bright_up = SphericalGaussian(normalize([0.1, 0.0, 1.0]), 4.0,
                                      [1.0, 1.0, 1.0])
        dark_up = SphericalGaussian(normalize([0.1, 0.0, 1.0]), 4.0,
                                    [0.0, 0.0, 0.0])
        below = SphericalGaussian(normalize([0.1, 0.0, -1.0]), 4.0,
                                  [1.0, 1.0, 1.0])
        env = SgEnvironment((bright_up, dark_up, below))
        enc = spec_encode(env, n, v, roughness=0.4)
        assert enc.mask.tolist() == [1, 0, 0]

    def test_undefined_half_vector_zeroed(self):
        n = np.array([0.0, 0.0, 1.0])
        v = normalize([0.3, 0.0, 1.0])
        opposite = SphericalGaussian(-v, 4.0, [1.0, 1.0, 1.0])
        enc = spec_encode(SgEnvironment((opposite,)), n, v, roughness=0.4)
        assert enc.mask[0] == 0
        np.testing.assert_array_equal(enc.fresnel[0], 0.0)
        assert enc.half_cos_sq[0] == 0.0

    def test_feature_ranges(self):
        rng = np.random.default_rng(42)
        n = np.array([0.0, 0.0, 1.0])
        for _ in range(20):
            v = normalize(rng.normal(size=3) * [1, 1, 0] + [0, 0, 1.5])
            axis = normalize(rng.normal(size=3))
            lobe = SphericalGaussian(axis, rng.uniform(0.1, 50.0),
                                     rng.uniform(0.0, 3.0, size=3))
            enc = spec_encode(SgEnvironment((lobe,)), n, v, roughness=0.3)
            assert -1.0 <= enc.axis_cos[0] <= 1.0
            assert -1.0 <= enc.view_cos <= 1.0
            assert 0.0 <= enc.half_cos_sq[0] <= 1.0
            assert np.all(enc.fresnel[0] <= 1.0)
            assert enc.mask[0] in (0, 1)

    @staticmethod
    def fsum_reference(env, n, v):
        """Rows (fresnel, half_cos_sq, axis_cos, mask) lobe by lobe, every sum a math.fsum."""
        def dot(a, b):
            return math.fsum(x * y for x, y in zip(a, b))

        rows = []
        for row in env.packed.tolist():
            axis, intensity = row[:3], row[4:]
            h = [x + y for x, y in zip(v, axis)]
            length = math.sqrt(math.fsum(x * x for x in h))
            fresnel = half_cos_sq = 0.0
            if length > 1e-9:
                h = [x / length for x in h]
                c = min(max(dot(v, h), 0.0), 1.0)
                fresnel = F0_DEFAULT + (1.0 - F0_DEFAULT) * (1.0 - c) ** 5
                half_cos_sq = dot(n, h) ** 2
            energetic = math.fsum(map(abs, intensity)) * dot(n, axis) > 0.0
            rows.append((fresnel, half_cos_sq, dot(n, axis), int(energetic and length > 1e-9)))
        return np.array(rows)

    def test_rows_match_an_fsum_reference(self):
        """Every row of 3000 random pixels against fsum sums, with 5% of the
        axes antipodal to the view (no half vector) and 5% within 1e-6 of it.
        Masks are equal. A single dot product rounds two partial sums of
        magnitude at most 1, so n . axis and n . v stay within 2 eps; the
        half-vector features add its normalisation and a square or fifth
        power and stay within 8 eps (measured: 0.5 and 3 eps)."""
        eps = np.finfo(np.float64).eps
        rng = np.random.default_rng(5)
        undefined = 0
        for _ in range(3000):
            n, v = normalize(rng.normal(size=(2, 3)))
            axes = normalize(rng.normal(size=(rng.integers(1, 6), 3)))
            pick = rng.random(len(axes))
            axes[pick < 0.05] = -v
            near = (pick >= 0.05) & (pick < 0.1)
            axes[near] = normalize(1e-6 * rng.normal(size=(near.sum(), 3)) - v)
            intensity = rng.uniform(0.0, 2.0, (len(axes), 3)) * (rng.random((len(axes), 1)) > 0.1)
            env = SgEnvironment(tuple(SphericalGaussian(a, rng.uniform(0.0, 50.0), i)
                                      for a, i in zip(axes, intensity)))
            enc = spec_encode(env, n, v, roughness=0.3)
            ref = self.fsum_reference(env, n.tolist(), v.tolist())
            assert enc.mask.dtype == np.int64 and enc.mask.tolist() == ref[:, 3].tolist()
            assert np.all(enc.fresnel == enc.fresnel[:, :1])
            assert np.max(np.abs(enc.fresnel[:, 0] - ref[:, 0])) <= 8 * eps
            assert np.max(np.abs(enc.half_cos_sq - ref[:, 1])) <= 8 * eps
            assert np.max(np.abs(enc.axis_cos - ref[:, 2])) <= 2 * eps
            assert abs(enc.view_cos - math.fsum(n * v)) <= 2 * eps
            assert enc.intensity.tolist() == env.packed[:, 4:].tolist()
            assert enc.sharpness.tolist() == env.packed[:, 3].tolist()
            assert enc.roughness == 0.3
            undefined += int(np.sum(pick < 0.05))
        assert undefined > 300


class TestGBufferValidation:
    def test_albedo_range(self):
        with pytest.raises(ValueError):
            GBuffer(
                albedo=np.full((2, 2, 3), 1.5),
                roughness=np.full((2, 2), 0.5),
                normal=np.broadcast_to([0.0, 0.0, 1.0], (2, 2, 3)).copy(),
                depth=np.ones((2, 2)),
            )

    def test_normal_must_be_unit(self):
        with pytest.raises(ValueError):
            GBuffer(
                albedo=np.full((2, 2, 3), 0.5),
                roughness=np.full((2, 2), 0.5),
                normal=np.full((2, 2, 3), 1.0),
                depth=np.ones((2, 2)),
            )

    def test_depth_positive(self):
        with pytest.raises(ValueError):
            GBuffer(
                albedo=np.full((2, 2, 3), 0.5),
                roughness=np.full((2, 2), 0.5),
                normal=np.broadcast_to([0.0, 0.0, 1.0], (2, 2, 3)).copy(),
                depth=np.zeros((2, 2)),
            )


class TestRender:
    """brdf.render: the band pool of the render command, as a library call."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 11])
    def test_bytes_equal_full_renders(self, threads, monkeypatch):
        """At 1, 2, 3 and H + 2 threads, both images keep the bytes of one
        full render_diffuse and render_specular call, with visibility. One
        thread shades in the calling thread; more shade only in pool threads."""
        cam, g, env = random_scene(9, 7, seed=6)
        resolution = (6, 12)
        want_d = render_diffuse(g, env, resolution).data
        want_s = render_specular(g, env, cam, resolution).data
        shaded_by, specular = set(), brdf.render_specular

        def traced(*args, **kwargs):
            shaded_by.add(threading.get_ident())
            return specular(*args, **kwargs)

        monkeypatch.setattr(brdf, "render_specular", traced)
        diffuse, spec = brdf.render(g, env, cam, resolution, threads=threads)
        assert diffuse.shape == spec.shape == (9, 7, 3)
        assert diffuse.tobytes() == want_d.tobytes()
        assert spec.tobytes() == want_s.tobytes()
        assert shaded_by and (threading.get_ident() in shaded_by) == (threads == 1)

    @pytest.mark.parametrize("height, threads, bands", [
        (5, 2, [3, 2]), (7, 4, [2, 2, 2, 1]), (48, 2, [24, 24])])
    def test_one_band_per_thread(self, height, threads, bands, monkeypatch):
        """H rows on T threads make exactly min(T, H) bands of ceil(H / T)
        rows (the last one shorter), so no band waits for a second round."""
        cam, g, env = random_scene(height, 3, seed=2)
        heights, specular = [], brdf.render_specular

        def counted(*args, **kwargs):
            out = specular(*args, **kwargs)
            heights.append(len(out.data))
            return out

        monkeypatch.setattr(brdf, "render_specular", counted)
        brdf.render(g, env, cam, (2, 4), threads=threads)
        assert sorted(heights, reverse=True) == bands

    @pytest.mark.parametrize("threads", [1, 2])
    def test_zero_roughness_is_reported_before_diffuse_shading(self, threads, monkeypatch):
        cam, g, env = random_scene(6, 5, seed=7)
        rough = g.roughness.copy()
        rough[4, 2] = 0.0
        g = GBuffer(albedo=g.albedo, roughness=rough, normal=g.normal, depth=g.depth)

        def no_diffuse(*args, **kwargs):
            raise AssertionError("render_diffuse ran before the specular checks")

        monkeypatch.setattr(brdf, "render_diffuse", no_diffuse)
        with pytest.raises(ValueError, match=r"^roughness must be > 0 \(delta lobes"):
            brdf.render(g, env, cam, (4, 8), threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_zero_height_gbuffer_fails_the_camera_check(self, threads):
        cam, _, env = random_scene(4, 4, seed=1)
        g = GBuffer(albedo=np.ones((0, 4, 3)), roughness=np.full((0, 4), 0.4),
                    normal=np.broadcast_to([0.0, 0.0, 1.0], (0, 4, 3)), depth=np.ones((0, 4)))
        with pytest.raises(ValueError, match="^gbuffer is 4x0 but the camera is 4x4$"):
            brdf.render(g, env, cam, (4, 8), threads=threads)

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_fail_before_shading(self, threads, monkeypatch):
        cam, g, env = random_scene(4, 4, seed=3)

        def no_shading(*args, **kwargs):
            raise AssertionError("shading ran before the threads check")

        monkeypatch.setattr(brdf, "render_specular", no_shading)
        with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
            brdf.render(g, env, cam, (4, 8), threads=threads)
