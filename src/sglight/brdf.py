"""Microfacet shading under SG illumination.

The diffuse term is I_d = (A / pi) * S with S the cosine-weighted
hemisphere integral of incident radiance. The specular term integrates
the mixture against a GGX microfacet BRDF with height-correlated Smith
masking and a Schlick Fresnel at F0 = 0.04. The NDF alpha is the square
of the perceptual roughness R. Both integrals use one equal-solid-angle
hemisphere grid, which integrates constants and the cosine exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._arrays import _as_unit, _dot, _frozen
from .envmap import HdrImage
from .sg import SgEnvironment, _equal_area_grid, mixture_radiance

F0_DEFAULT = 0.04
NORMAL_TOL = 1e-4
# pixel-nodes per chunk; each reused (pixels, M) float64 chunk buffer is 1 MiB
CHUNK_NODES = 1 << 17


@dataclass(frozen=True)
class GBuffer:
    """Per-pixel material and geometry.

    albedo (H, W, 3) in [0, 1]; roughness (H, W) in [0, 1]; normal
    (H, W, 3) unit within 1e-4; depth (H, W) > 0 holding the ray distance
    to the camera center; optional confidence (H, W).
    """

    albedo: np.ndarray
    roughness: np.ndarray
    normal: np.ndarray
    depth: np.ndarray
    confidence: Optional[np.ndarray] = None

    def __post_init__(self):
        albedo = _frozen(self.albedo, "albedo", 0.0, 1.0)
        if albedo.ndim != 3 or albedo.shape[2] != 3:
            raise ValueError(f"albedo must be (H, W, 3), got {albedo.shape}")
        shape = albedo.shape[:2]
        rough = _frozen(self.roughness, "roughness", 0.0, 1.0, shape)
        normal = _frozen(self.normal, "normal", shape=shape + (3,))
        depth = _frozen(self.depth, "depth", shape=shape)
        if np.any(np.abs(np.linalg.norm(normal, axis=-1) - 1.0) > NORMAL_TOL):
            raise ValueError("normals must be unit length")
        if np.any(depth <= 0.0):
            raise ValueError("depth must be > 0")
        conf = self.confidence
        if conf is not None:
            conf = _frozen(conf, "confidence", shape=shape)
        object.__setattr__(self, "albedo", albedo)
        object.__setattr__(self, "roughness", rough)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "confidence", conf)

    @property
    def shape(self) -> tuple:
        return self.albedo.shape[:2]


@dataclass(frozen=True)
class SpecEncoding:
    """Per-lobe specular features and validity masks, row s for lobe s of env.packed.

    fresnel (S, 3) is Schlick F at the half vector of view and lobe axis (three
    equal channels for the fixed F0); half_cos_sq (S,) is (n . h)^2; axis_cos (S,)
    is n . axis; view_cos is n . v. mask (S,) = 1 only when the lobe carries
    energy, points into the upper hemisphere, and the half vector exists.
    """

    fresnel: np.ndarray
    half_cos_sq: np.ndarray
    axis_cos: np.ndarray
    view_cos: float
    intensity: np.ndarray
    sharpness: np.ndarray
    roughness: float
    mask: np.ndarray


def reflect(v, n) -> np.ndarray:
    """Mirror direction 2*(n.v)*n - v for unit v, n."""
    v = _as_unit(v)
    n = _as_unit(n)
    return 2.0 * _dot(n, v)[..., None] * n - v


def half_vector(v, l) -> np.ndarray:
    """normalize(v + l); rejects the antipodal case."""
    v = _as_unit(v)
    l = _as_unit(l)
    h = v + l
    n = np.linalg.norm(h, axis=-1, keepdims=True)
    if np.any(n < 1e-9):
        raise ValueError("half vector undefined for antipodal inputs")
    return h / n


def onb(n: np.ndarray):
    """Branchless orthonormal tangent frame (t, b) for unit normals.

    Vectorized over leading axes.
    """
    n = np.asarray(n, dtype=np.float64)
    s = np.copysign(1.0, n[..., 2])
    a = -1.0 / (s + n[..., 2])
    b = n[..., 0] * n[..., 1] * a
    t = np.stack([1.0 + s * n[..., 0] ** 2 * a, s * b, -s * n[..., 0]], axis=-1)
    bb = np.stack([b, s + n[..., 1] ** 2 * a, -n[..., 1]], axis=-1)
    return t, bb


def hemisphere_grid(resolution=(32, 64)):
    """Equal-solid-angle quadrature nodes over the local (+z) hemisphere.

    sg._equal_area_grid at lo = 0: equal weights summing to 2*pi, so constants
    and the cosine integrate exactly. Returns (local dirs (M, 3), weights (M,)).
    """
    return _equal_area_grid(resolution, 0.0)[1:]


def ggx_ndf(cos_h, alpha, out=None):
    """GGX normal distribution D for cos_h = n . h and ndf alpha; given
    out, D goes there and the array cos_h, of D's shape, is overwritten."""
    a2 = alpha * alpha
    buf = None if out is None else cos_h
    d = np.add(np.multiply(np.multiply(cos_h, cos_h, out=buf), a2 - 1.0, out=buf), 1.0, out=buf)
    return np.divide(a2, np.multiply(np.multiply(np.pi, d, out=out), d, out=out), out=out)


def _smith_lambda(cos_t, alpha):
    c = np.clip(cos_t, 1e-9, 1.0)
    tan2 = (1.0 - c * c) / (c * c)
    return 0.5 * (-1.0 + np.sqrt(1.0 + alpha * alpha * tan2))


def smith_g2(cos_v, cos_l, alpha):
    """Height-correlated Smith masking-shadowing."""
    return 1.0 / (1.0 + _smith_lambda(cos_v, alpha) + _smith_lambda(cos_l, alpha))


def schlick_fresnel(cos_vh, out=None):
    """F = F0 + (1 - F0) * (1 - cos)^5, into out (which may be cos_vh)."""
    c = np.subtract(1.0, np.clip(cos_vh, 0.0, 1.0, out=out), out=out)
    c **= 5  # in place on arrays; scalars keep their scalar power
    c *= 1.0 - F0_DEFAULT
    return np.add(c, F0_DEFAULT, out=out)


def specular_brdf(v, l, n, roughness: float) -> float:
    """Full microfacet BRDF value D * G2 * F / (4 (n.v)(n.l)).

    Scalar because F0 is scalar; zero when either direction is below the
    horizon. Symmetric in v and l; its dot products are _arrays._dot's, not BLAS's.
    """
    if roughness <= 0.0:
        raise ValueError("roughness must be > 0 (delta lobes unsupported)")
    v = _as_unit(v)
    l = _as_unit(l)
    n = _as_unit(n)
    cos_v = float(_dot(n, v))
    cos_l = float(_dot(n, l))
    if cos_v <= 0.0 or cos_l <= 0.0:
        return 0.0
    h = half_vector(v, l)
    alpha = roughness * roughness
    d = ggx_ndf(float(_dot(n, h)), alpha)
    g = smith_g2(cos_v, cos_l, alpha)
    f = schlick_fresnel(float(_dot(v, h)))
    return float(d * g * f / (4.0 * cos_v * cos_l))


def shading(env: SgEnvironment, normal, resolution=(32, 64)) -> np.ndarray:
    """Cosine-weighted irradiance S = int L(l) max(n.l, 0) dl; env has no visibility."""
    if env.visibility is not None:
        raise ValueError("shading takes an environment without per-pixel visibility")
    n = _as_unit(normal)
    local, w = hemisphere_grid(resolution)
    t, b = onb(n)
    dirs = local[:, 0:1] * t + local[:, 1:2] * b + local[:, 2:3] * n
    radiance = mixture_radiance(env, dirs)
    return np.einsum("mc,m,m->c", radiance, w, local[:, 2])


def _grid_dot(coef, grid, offset, out):
    """coef . l + offset at every node l of grid into out: (p, 3), (p,) -> (p, M).

    Node (i, j) is l = (st_i cos phi_j, st_i sin phi_j, u_i), so this is
    st_i ring[p, j] + band[p, i], two element-wise passes over (p, M).
    No BLAS, so a pixel's bytes never depend on its chunk's other pixels.
    The st_i ring product is an einsum that sums nothing, so each node gets
    the same one product as a broadcast, in about half the time: one inner
    loop instead of one per (pixel, latitude) row of n_lon nodes.
    """
    st, u, cos_phi, sin_phi = grid
    ring = np.multiply.outer(coef[:, 0], cos_phi) + np.multiply.outer(coef[:, 1], sin_phi)
    band = np.multiply.outer(coef[:, 2], u) + np.reshape(offset, (-1, 1))
    nodes = out.reshape(len(coef), st.size, cos_phi.size)  # a view: out is contiguous
    np.einsum("pj,i->pij", ring, st, out=nodes)
    nodes += band[:, :, None]
    return out


def _shade(env, g, pixels, grid, kernel, buffers=1):
    """sum_s I_s mu_s sum_m e_s(p, m) k(p, m) over the flat pixel indices.

    e_s = exp(lambda_s (a_s . l - 1)) at node l = x t + y b + z n of the
    pixel's frame (t, b, n), from the coefficients lambda_s a_s . (t, b, n).
    kernel(rows, frame, bufs) gives the weights k, (p, M) or (M,), of
    pixels[rows] with frame (p, 3, 3), and may overwrite the (p, M) bufs; e_s
    goes to bufs[0], so k may be any other. Every chunk and lobe reuses one
    (buffers, min(step, P), M) array: memory is `buffers` chunk buffers.
    """
    normals = g.normal.reshape(-1, 3)[pixels]
    mu = _visibility_rows(env, g.shape)
    m = grid[0].size * grid[2].size
    step = max(1, CHUNK_NODES // m)
    work = np.empty((buffers, min(step, len(normals)), m))
    out = np.zeros((len(normals), 3))
    # lobes may overflow float64; HdrImage rejects it (errstate is per thread)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(normals), step):
            rows = slice(start, start + step)
            frame = np.stack((*onb(normals[rows]), normals[rows]), axis=1)
            k = np.broadcast_to(kernel(rows, frame, work[:, :len(frame)]), (len(frame), m))
            e = work[0, :len(frame)]
            for s, row in enumerate(env.packed):  # ax ay az sharpness ir ig ib
                lam = row[3]
                _grid_dot(lam * np.einsum("pjk,k->pj", frame, row[:3]), grid, -lam, e)
                c = np.einsum("pm,pm->p", np.exp(e, out=e), k)
                if mu is not None:
                    c *= mu[pixels[rows], s]
                out[rows] += c[:, None] * row[4:]
    return out


def _visibility_rows(env: SgEnvironment, shape):
    if env.visibility is None:
        return None
    if env.visibility.shape[:-1] != shape:
        raise ValueError("visibility leading shape must match the image")
    return env.visibility.reshape(-1, env.num_lobes)


def _view_dirs(g: GBuffer, cam, band=slice(None)):
    """Reversed pixel rays: unit directions to the camera, (rows of band, W, 3)."""
    h, w = g.shape
    if (cam.height, cam.width) != (h, w):
        raise ValueError(f"gbuffer is {w}x{h} but the camera is {cam.width}x{cam.height}")
    return -cam.pixel_rays(band)


def _band_pixels(shape, rows):
    """Flat indices of the pixels in a slice of image rows, and the band's image shape."""
    h, w = shape
    band = np.arange(h)[rows, None] * w + np.arange(w)
    return band.reshape(-1), band.shape + (3,)


def render_diffuse(
    g: GBuffer,
    env: SgEnvironment,
    resolution=(32, 64),
    rows: slice = slice(None),
) -> HdrImage:
    """Diffuse image I_d = (A / pi) * S per pixel of the band rows (see render)."""
    pixels, shape = _band_pixels(g.shape, rows)
    grid, _, wq = _equal_area_grid(resolution, 0.0)
    wz = wq * np.repeat(grid[1], grid[2].size)
    s = _shade(env, g, pixels, grid, lambda rows, frame, bufs: wz)
    with np.errstate(invalid="ignore"):  # albedo 0 times an overflowed s; HdrImage rejects it
        s *= g.albedo.reshape(-1, 3)[pixels] / np.pi
    return HdrImage(s.reshape(shape))


def render_specular(
    g: GBuffer,
    env: SgEnvironment,
    cam,
    resolution=(32, 64),
    rows: slice = slice(None),
) -> HdrImage:
    """Specular image per pixel int L(l) B(v, l) max(n.l, 0) dl of the band rows (see render).

    cam provides the view ray per pixel (its pixel_rays) and must match
    the G-buffer's size. Backfacing pixels (n.v <= 0) render black.
    """
    if np.any(g.roughness <= 0.0):
        raise ValueError("roughness must be > 0 (delta lobes unsupported)")
    pixels, shape = _band_pixels(g.shape, rows)
    v = _view_dirs(g, cam, rows).reshape(-1, 3)
    cos_v = np.einsum("pk,pk->p", g.normal.reshape(-1, 3)[pixels], v)
    front = cos_v > 0.0  # backfacing pixels stay black
    pixels, v, cos_v = pixels[front], v[front], cos_v[front, None]
    alpha = g.roughness.reshape(-1)[pixels, None] ** 2
    grid, _, wq = _equal_area_grid(resolution, 0.0)

    def kernel(rows, frame, bufs):
        e, h0, h1, h2, hn = bufs  # e is free scratch until the lobes run
        vr, cv, a = v[rows], cos_v[rows], alpha[rows]
        # v + l by world axis k, (t_k, b_k, n_k) . l + v_k. At grazing views
        # v.l nears -1: v.v + 2 v.l + |l|^2 would cancel, and GGX would
        # amplify separate roundings of n.v + n.l and |v + l|; n . (v + l)
        # over |v + l| from the same components is flat near n.h = 1. Both
        # sums stay element-wise: einsum may sum them in another order.
        for axis, hk in enumerate((h0, h1, h2)):
            _grid_dot(frame[:, :, axis], grid, vr[:, axis], hk)
        np.multiply(h0, h0, out=hn)
        hn += np.multiply(h1, h1, out=e)
        hn += np.multiply(h2, h2, out=e)
        # hn is finite, so this is np.where(hn > 1e-12, hn, 1.0) in place
        np.copyto(hn, 1.0, where=np.sqrt(hn, out=hn) <= 1e-12)
        n = frame[:, 2]
        h0 *= n[:, 0:1]
        h0 += np.multiply(h1, n[:, 1:2], out=h1)
        h0 += np.multiply(h2, n[:, 2:3], out=h2)
        nh = np.clip(np.divide(h0, hn, out=h0), 0.0, 1.0, out=h0)
        # v.h = (v.v + v.l) / |v + l|; Fresnel barely feels its rounding
        vh = np.divide(_grid_dot(np.einsum("pjk,pk->pj", frame, vr), grid,
                                 np.einsum("pk,pk->p", vr, vr), h1), hn, out=h1)
        # B * (n.l) with the cosine cancelled against the denominator
        k = ggx_ndf(nh, a, out=h2)
        by_lat = k.reshape(len(a), grid[1].size, -1)  # a view of k
        by_lat *= smith_g2(cv, grid[1], a)[:, :, None]  # n.l is the row's u_i
        k *= schlick_fresnel(vh, out=vh)
        k /= 4.0 * cv
        return np.multiply(k, wq, out=k)

    img = np.zeros(shape)
    img.reshape(-1, 3)[front] = _shade(env, g, pixels, grid, kernel, buffers=5)
    return HdrImage(img)


def render(g: GBuffer, env: SgEnvironment, cam, resolution, threads=1):
    """Diffuse and specular images (H, W, 3) of g under env, seen from cam.

    Both renderers shade only the band rows, a slice of image rows, and
    return its (rows, W, 3) image with the bytes of those rows of a full
    render. So threads > 1 shade min(threads, H) bands of ceil(H / threads)
    rows in a pool and join them in row order; one thread shades in the caller.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    def shade(band):
        # specular first: its roughness and camera-size checks fail before any shading
        specular = render_specular(g, env, cam, resolution=resolution, rows=band).data
        return render_diffuse(g, env, resolution=resolution, rows=band).data, specular

    if threads == 1:  # no pool: a pool thread costs a glibc malloc arena
        return shade(slice(None))
    from concurrent.futures import ThreadPoolExecutor
    step = max(1, -(-g.shape[0] // threads))  # the ceiling: no band beyond the pool's first round
    # at H = 0, one empty band still runs the specular checks, as one thread does
    bands = [slice(start, start + step) for start in range(0, max(1, g.shape[0]), step)]
    with ThreadPoolExecutor(max_workers=threads) as pool:  # each band returns its rows
        return tuple(map(np.concatenate, zip(*pool.map(shade, bands))))


def spec_encode(env: SgEnvironment, normal, view, roughness: float) -> SpecEncoding:
    """Per-lobe specular features with validity masks, from one pass over env.packed.

    mask_s = 1 iff the lobe has nonzero L1 intensity, its axis points
    above the surface (n . axis > 0, strict), and view + axis does not
    vanish (half vector defined). Half-vector features are zeroed for
    masked lobes with an undefined half vector. Every dot product is _arrays._dot's.
    """
    n = _as_unit(normal)
    v = _as_unit(view)
    axes, intensity = env.packed[:, :3], env.packed[:, 4:]
    axis_cos = _dot(n, axes)
    h = v + axes
    length = np.sqrt(_dot(h, h))
    defined = length > 1e-9
    h /= np.where(defined, length, 1.0)[:, None]  # undefined rows are zeroed below
    fresnel = np.where(defined, schlick_fresnel(_dot(v, h)), 0.0)
    half_cos_sq = np.where(defined, _dot(n, h) ** 2, 0.0)
    energetic = np.sum(np.abs(intensity), axis=-1) * axis_cos > 0.0
    mask = (energetic & defined).astype(np.int64)
    return SpecEncoding(np.repeat(fresnel[:, None], 3, axis=1), half_cos_sq, axis_cos,
                        float(_dot(n, v)), intensity, env.packed[:, 3], float(roughness), mask)
