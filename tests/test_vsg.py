"""Volumetric lobe grids: ray marching, compositing, and the disk format."""

import math
import tracemalloc

import numpy as np
import pytest

from sglight import vsg
from sglight.sg import normalize
from sglight.vsg import (
    RaySampleSet,
    VsgVolume,
    bench_orders,
    composite_rays,
    composite_sg_after,
    composite_sg_before,
    compositing_weights,
    load_vsg,
    ray_box_intersect,
    sample_ray,
    save_vsg,
)


def random_volume(rng, dims=(4, 4, 4)):
    alpha = rng.uniform(0.0, 1.0, size=dims)
    intensity = rng.uniform(0.0, 2.0, size=dims + (3,))
    axis = rng.normal(size=dims + (3,))
    axis /= np.linalg.norm(axis, axis=-1, keepdims=True)
    sharpness = rng.uniform(0.0, 30.0, size=dims)
    return VsgVolume.from_fields(
        alpha, intensity, axis, sharpness,
        bbox_min=[-1.0, -1.0, -1.0], bbox_max=[1.0, 1.0, 1.0],
    )


def constant_volume(alpha, intensity, axis, sharpness, dims=(3, 3, 3)):
    return VsgVolume.from_fields(
        np.full(dims, alpha),
        np.broadcast_to(intensity, dims + (3,)).copy(),
        np.broadcast_to(normalize(axis), dims + (3,)).copy(),
        np.full(dims, sharpness),
        bbox_min=[-1.0, -1.0, -1.0], bbox_max=[1.0, 1.0, 1.0],
    )


class TestRayBox:
    def test_hit_through_center(self):
        t0, t1, hit = ray_box_intersect(
            np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]),
            np.array([-3.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]),
        )
        assert hit
        np.testing.assert_allclose([t0, t1], [2.0, 4.0])

    def test_miss(self):
        _, _, hit = ray_box_intersect(
            np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]),
            np.array([-3.0, 5.0, 0.0]), np.array([1.0, 0.0, 0.0]),
        )
        assert not hit

    def test_origin_inside_clamps_near(self):
        t0, t1, hit = ray_box_intersect(
            np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]),
            np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]),
        )
        assert hit and t0 == 0.0
        np.testing.assert_allclose(t1, 1.0)

    def test_box_behind_ray(self):
        _, _, hit = ray_box_intersect(
            np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]),
            np.array([0.0, 0.0, 5.0]), np.array([0.0, 0.0, 1.0]),
        )
        assert not hit

    def test_axis_parallel_inside_slab(self):
        """A ray lying in an axis plane of the box still intersects."""
        t0, t1, hit = ray_box_intersect(
            np.array([-1.0, -1.0, -1.0]), np.array([1.0, 1.0, 1.0]),
            np.array([-3.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]),
        )
        assert hit
        np.testing.assert_allclose([t0, t1], [2.0, 4.0])

    def test_hit_rule_equals_the_two_sided_rule(self):
        """hit = t_far > t_near, with t_near = max(lo, 0) >= 0 or NaN, is the
        former (t_far > t_near) & (t_far > 0). Checked on random rays and on
        origins at every face, edge and corner of the box, inside, on and
        outside it, cast along every axis-parallel direction made of -1,
        -0.0, +0.0 and 1 components."""
        lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 2.5])
        levels = np.stack([lo - 1.0, lo, (lo + hi) / 2, hi, hi + 1.0], axis=1)  # (3, 5)
        origins = np.array([[levels[0, i], levels[1, j], levels[2, k]]
                            for i, j, k in np.ndindex(5, 5, 5)])
        comps = [-1.0, -0.0, 0.0, 1.0]
        dirs = np.array([[x, y, z] for x in comps for y in comps for z in comps])
        rng = np.random.default_rng(12)
        cases = [
            (origins[:, None, :], dirs[None, :, :]),
            (rng.uniform(-3.0, 5.0, size=(5000, 3)), normalize(rng.normal(size=(5000, 3)))),
        ]
        for o, d in cases:
            t_near, t_far, hit = ray_box_intersect(lo, hi, o, d)
            assert np.array_equal(hit, (t_far > t_near) & (t_far > 0.0))
            assert hit.any() and not hit.all()
            assert np.all(t_near >= 0.0)


class TestSampling:
    def test_midpoint_positions(self):
        vol = constant_volume(0.5, [1.0, 1.0, 1.0], [0.0, 0.0, 1.0], 2.0)
        s = sample_ray(vol, [-2.0, 0.0, 0.0], [1.0, 0.0, 0.0], n_r=4)
        assert len(s) == 4
        np.testing.assert_allclose(s.t, [1.25, 1.75, 2.25, 2.75])

    def test_constant_volume_fields_exact(self):
        vol = constant_volume(0.25, [1.0, 2.0, 3.0], [0.0, 1.0, 0.0], 7.0)
        s = sample_ray(vol, [-2.0, 0.1, -0.2], normalize([1.0, 0.05, 0.1]),
                       n_r=16)
        np.testing.assert_allclose(s.records[0], 0.25, rtol=1e-12)
        np.testing.assert_allclose(s.records[7], 7.0, rtol=1e-12)
        np.testing.assert_allclose(
            s.records[1:4].T, np.broadcast_to([1.0, 2.0, 3.0], (16, 3)), rtol=1e-12
        )
        np.testing.assert_allclose(
            s.records[4:7].T, np.broadcast_to([0.0, 1.0, 0.0], (16, 3)), atol=1e-12
        )

    @pytest.mark.parametrize("n_r", [1, 37, 4097])
    def test_records_are_one_channel_major_array(self, n_r):
        """A hit's records are one C-ordered float64 (8, n_r) array, a miss's (8, 0)."""
        vol = random_volume(np.random.default_rng(5))
        hit = sample_ray(vol, [-2.0, 0.3, 0.1], normalize([1.0, -0.2, 0.05]), n_r=n_r)
        miss = sample_ray(vol, [0.0, 5.0, 0.0], [0.0, 1.0, 0.0], n_r=n_r)
        for s, n in ((hit, n_r), (miss, 0)):
            assert s.records.shape == (8, n) and s.records.dtype == np.float64
            assert s.records.flags.c_contiguous and s.t.shape == (n,)

    def test_miss_yields_empty(self):
        vol = constant_volume(0.5, [1.0, 1.0, 1.0], [0.0, 0.0, 1.0], 2.0)
        s = sample_ray(vol, [0.0, 5.0, 0.0], [0.0, 1.0, 0.0], n_r=8)
        assert len(s) == 0
        with pytest.raises(ValueError):
            composite_sg_before(s, [0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            composite_sg_after(s, [0.0, 0.0, 1.0])

    def test_interpolated_axis_is_unit(self):
        rng = np.random.default_rng(42)
        vol = random_volume(rng)
        s = sample_ray(vol, [-2.0, 0.3, 0.1], normalize([1.0, -0.2, 0.05]),
                       n_r=32)
        np.testing.assert_allclose(
            np.linalg.norm(s.records[4:7], axis=0), 1.0, rtol=1e-12
        )

    def test_vanishing_axis_falls_back_to_z(self):
        """Opposite axes +x and -x average to zero midway between their
        voxels, where the record's axis becomes +z; off the midpoint the
        nearer voxel's axis survives renormalization."""
        axes = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0]).reshape(2, 1, 1, 3)
        vol = VsgVolume.from_fields(
            np.full((2, 1, 1), 0.5), np.ones((2, 1, 1, 3)), axes, np.full((2, 1, 1), 4.0),
            bbox_min=[-1.0, -1.0, -1.0], bbox_max=[1.0, 1.0, 1.0],
        )
        rec = np.empty((8, 2))
        vsg._interp_records(vol, np.array([[0.0, 0.0, 0.0], [-0.25, 0.0, 0.0]]).T, rec,
                            np.empty(16))
        assert np.array_equal(rec.T, [[0.5, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 4.0],
                                    [0.5, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 4.0]])

    def test_direction_must_be_unit(self):
        vol = constant_volume(0.5, [1.0, 1.0, 1.0], [0.0, 0.0, 1.0], 2.0)
        with pytest.raises(ValueError):
            sample_ray(vol, [-2.0, 0.0, 0.0], [2.0, 0.0, 0.0])


def trilinear_reference(vol, points):
    """Per-corner trilinear interpolation with clamped 3-array indexing,
    in one pass without flat indices; the axis is left as blended."""
    dims = np.array(vol.dims, dtype=np.float64)
    g = (points - vol.bbox_min) / ((vol.bbox_max - vol.bbox_min) / dims) - 0.5
    g = np.clip(g, 0.0, dims - 1.0)
    i0 = np.minimum(np.floor(g).astype(np.int64),
                    (dims - 2).astype(np.int64).clip(min=0))
    f = g - i0
    rec = np.zeros(points.shape[:-1] + (8,))
    for dx in (0, 1):
        wx = (1.0 - f[..., 0]) if dx == 0 else f[..., 0]
        x = np.minimum(i0[..., 0] + dx, int(dims[0]) - 1)
        for dy in (0, 1):
            wy = (1.0 - f[..., 1]) if dy == 0 else f[..., 1]
            y = np.minimum(i0[..., 1] + dy, int(dims[1]) - 1)
            for dz in (0, 1):
                wz = (1.0 - f[..., 2]) if dz == 0 else f[..., 2]
                z = np.minimum(i0[..., 2] + dz, int(dims[2]) - 1)
                rec += (wx * wy * wz)[..., None] * vol.data[x, y, z]
    return rec


def reference_records(vol, points):
    """trilinear_reference with the axis renormalized, +z where it vanishes."""
    rec = trilinear_reference(vol, points)
    axis = rec[..., 4:7]
    norm = np.linalg.norm(axis, axis=-1, keepdims=True)
    ok = norm > 1e-12
    rec[..., 4:7] = np.where(ok, axis / np.where(ok, norm, 1.0), [0.0, 0.0, 1.0])
    return rec


def ray_records(s):
    return s.records.T


class TestChunkedSampling:
    """The chunked interpolation kernel is exact: the sampler run on a
    batch of rays, as bench_orders runs it, agrees bit for bit with
    sample_ray and with the per-corner reference, whatever the chunk size."""

    @pytest.mark.parametrize("dims", [(1, 4, 5), (1, 1, 1), (16, 16, 16)])
    @pytest.mark.parametrize("n_r", [16, 37, "above_chunk"])
    @pytest.mark.parametrize("chunk", [None, 7, 50])
    def test_batch_equals_per_ray(self, dims, n_r, chunk, monkeypatch):
        """n_r "above_chunk" is CHUNK_POINTS + 1 at the chunk size in force
        (4097 at the default), so every ray's samples span two chunks."""
        if chunk is not None:
            monkeypatch.setattr(vsg, "CHUNK_POINTS", chunk)
        if n_r == "above_chunk":
            n_r = vsg.CHUNK_POINTS + 1
        rng = np.random.default_rng(11)
        vol = random_volume(rng, dims=dims)
        origins, dirs = vsg._random_rays(vol, 40, rng)
        t_near, t_far, _ = ray_box_intersect(vol.bbox_min, vol.bbox_max, origins, dirs)
        t, batch = vsg._march(vol, origins, dirs, t_near, t_far, vsg._workspace((40, n_r)),
                              np.empty((8, 40, n_r)))
        for i in range(40):
            s = sample_ray(vol, origins[i], dirs[i], n_r=n_r)
            assert np.array_equal(t[i], s.t)
            assert np.array_equal(batch[:, i].T, ray_records(s))
            points = origins[i] + s.t[:, None] * dirs[i]
            assert np.array_equal(batch[:, i].T, reference_records(vol, points))

    @pytest.mark.parametrize("dims", [(1, 4, 5), (16, 16, 16)])
    def test_per_ray_independent_of_chunk(self, dims, monkeypatch):
        rng = np.random.default_rng(12)
        vol = random_volume(rng, dims=dims)
        origins, dirs = vsg._random_rays(vol, 8, rng)
        whole = [ray_records(sample_ray(vol, o, d, 128)) for o, d in zip(origins, dirs)]
        monkeypatch.setattr(vsg, "CHUNK_POINTS", 7)
        split = [ray_records(sample_ray(vol, o, d, 128)) for o, d in zip(origins, dirs)]
        assert all(np.array_equal(a, b) for a, b in zip(whole, split))

    @pytest.mark.parametrize("dims", [(1, 4, 5), (1, 1, 1), (3, 7, 2)])
    def test_faces_and_corners_gather_exact_voxels(self, dims):
        """Points on and just beyond every face, edge and corner of the box.

        The gathers use mode="clip", which would silently clamp a wrong
        flat index; the records must still be the per-corner reference
        exactly. Each volume is checked as drawn and with a third of its
        voxel axes zero and a third 1e-13 long, so one chunk mixes
        renormalized records with +z fallback records."""
        vol = random_volume(np.random.default_rng(15), dims=dims)
        data = vol.data.copy()
        phase = np.indices(dims).sum(axis=0) % 3
        data[phase == 0, 4:7] = 0.0
        data[phase == 1, 4:7] *= 1e-13
        vanishing = VsgVolume(data, vol.bbox_min, vol.bbox_max)
        cell = (vol.bbox_max - vol.bbox_min) / np.array(dims)
        lo, hi = vol.bbox_min, vol.bbox_max
        ticks = np.stack([lo - 0.3 * cell, lo - 1e-12, lo, lo + 0.5 * cell,
                          (lo + hi) / 2, hi - 0.5 * cell, hi, hi + 1e-12, hi + 0.3 * cell])
        points = np.stack(np.meshgrid(ticks[:, 0], ticks[:, 1], ticks[:, 2],
                                      indexing="ij"), axis=-1).reshape(-1, 3)
        rec = np.empty((8, len(points)))
        for v in (vol, vanishing):
            vsg._interp_records(v, points.T, rec, np.empty(8 * len(points)))
            assert np.array_equal(rec.T, reference_records(v, points))
        # the vanishing volume falls back to +z, and renormalizes too where
        # it has more than one voxel
        ok = np.linalg.norm(trilinear_reference(vanishing, points)[:, 4:7], axis=-1) > 1e-12
        assert not ok.all() and (ok.any() or dims == (1, 1, 1))
        assert (rec.T[~ok, 4:7] == [0.0, 0.0, 1.0]).all()


class TestCompositing:
    def test_weight_hand_case(self):
        w = compositing_weights(np.array([0.5, 0.5, 1.0]))
        np.testing.assert_allclose(w, [0.5, 0.25, 0.25])

    def test_opaque_first_sample_takes_all(self):
        w = compositing_weights(np.array([1.0, 0.7, 0.3]))
        np.testing.assert_allclose(w, [1.0, 0.0, 0.0])

    def test_transmittance_identity(self):
        """sum(w) + prod(1 - alpha) = 1 for random alphas."""
        rng = np.random.default_rng(42)
        alpha = rng.uniform(0.0, 1.0, size=(200, 16))
        w = compositing_weights(alpha)
        total = w.sum(axis=-1) + np.prod(1.0 - alpha, axis=-1)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    @staticmethod
    def left_to_right(alpha):
        """Python-float weights, each ray's transmittance multiplied from 1."""
        w = []
        for ray in alpha.reshape(-1, alpha.shape[-1]).tolist():
            p = 1.0
            for a in ray:
                w.append(p * a)
                p *= 1.0 - a
        return np.array(w).reshape(alpha.shape)

    def test_weight_bits_at_any_shape_and_layout(self):
        rng = np.random.default_rng(31)
        a = rng.uniform(0.0, 0.3, size=(128, 128))
        cases = [a, np.repeat(a, 2, -1)[..., ::2], a[5],
                 rng.uniform(0.0, 1.0, size=(2, 3, 37))]
        for alpha in cases:
            assert np.array_equal(compositing_weights(alpha), self.left_to_right(alpha))

    @pytest.mark.parametrize("shape", [(0,), (4, 0)])
    def test_empty_weights(self, shape):
        w = compositing_weights(np.zeros(shape))
        assert w.shape == shape

    def test_single_opaque_sample_orders_agree(self):
        """One sample with alpha = 1 makes both orders the bare lobe."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            axis = normalize(rng.normal(size=3))
            l = normalize(rng.normal(size=3))
            eta = rng.uniform(0.1, 2.0, size=3)
            lam = rng.uniform(0.0, 40.0)
            s = RaySampleSet(np.array([1.0]), np.array([1.0, *eta, *axis, lam])[:, None])
            before = composite_sg_before(s, l)
            after = composite_sg_after(s, l)
            expected = eta * np.exp(lam * (axis @ -l - 1.0))
            np.testing.assert_allclose(before, after, rtol=1e-9)
            np.testing.assert_allclose(before, expected, rtol=1e-12)

    def test_homogeneous_volume_orders_agree(self):
        """Identical records along the ray: blending parameters first
        reproduces the blend of evaluations once sum(w) saturates."""
        vol = constant_volume(0.5, [1.0, 0.5, 2.0], [0.3, -0.4, 0.6], 9.0)
        l = normalize([0.2, 0.9, -0.3])
        s = sample_ray(vol, [-2.0, 0.0, 0.0], [1.0, 0.0, 0.0], n_r=128)
        before = composite_sg_before(s, l)
        after = composite_sg_after(s, l)
        np.testing.assert_allclose(before, after, rtol=1e-9)

    def test_orders_differ_in_general(self):
        """Heterogeneous rays are a genuine operation-order change."""
        rng = np.random.default_rng(11)
        vol = random_volume(rng)
        s = sample_ray(vol, [-2.0, 0.2, -0.1], normalize([1.0, 0.1, 0.0]),
                       n_r=32)
        l = normalize([0.5, 0.5, 0.7])
        before = composite_sg_before(s, l)
        after = composite_sg_after(s, l)
        assert not np.allclose(before, after, rtol=1e-3)

    def test_evaluates_toward_negative_direction(self):
        """The lobe argument is -l: a lobe facing the ray lights it."""
        axis = np.array([0.0, 0.0, 1.0])
        s = RaySampleSet(np.array([1.0]), np.array([1.0, 1.0, 1.0, 1.0, *axis, 50.0])[:, None])
        toward = composite_sg_before(s, [0.0, 0.0, -1.0])
        away = composite_sg_before(s, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(toward, 1.0, rtol=1e-12)
        assert np.all(away < 1e-30)


def fsum_composites(s, l):
    """Both orders for one sample set, each sum over samples exact
    (math.fsum of the float64 per-sample terms) and each dot product too;
    the weights are compositing_weights'."""
    w = compositing_weights(s.records[0]).tolist()
    minus_l = [-v for v in l]
    g = [math.exp(lam * (math.fsum(a * d for a, d in zip(ax, minus_l)) - 1.0))
         for ax, lam in zip(s.records[4:7].T.tolist(), s.records[7].tolist())]
    before = [math.fsum(wn * gn * i for wn, gn, i in zip(w, g, s.records[1 + c].tolist()))
              for c in range(3)]
    fields = s.records[1:].tolist()
    agg = [math.fsum(wn * v for wn, v in zip(w, row)) for row in fields]
    lobe = math.exp(agg[6] * (math.fsum(a * d for a, d in zip(agg[3:6], minus_l)) - 1.0))
    return np.array(before), np.array(agg[:3]) * lobe


class TestBatchedCompositing:
    """bench_orders composites chunks of rays with the kernels that
    composite_sg_before and composite_sg_after run on one sample_ray set."""

    @staticmethod
    def batch(vol, rays, n_r, rng):
        origins, dirs = vsg._random_rays(vol, rays, rng)
        t_near, t_far, _ = ray_box_intersect(vol.bbox_min, vol.bbox_max, origins, dirs)
        _, rec = vsg._march(vol, origins, dirs, t_near, t_far, vsg._workspace((rays, n_r)),
                            np.empty((8, rays, n_r)))
        return origins, dirs, (rec[0], rec[1:4], rec[4:7], rec[7])

    @pytest.mark.parametrize("n_r", [1, 37, 128])
    @pytest.mark.parametrize("rays", [1, 3, 64])
    def test_composites_equal_per_ray(self, n_r, rays):
        rng = np.random.default_rng(21)
        vol = random_volume(rng, dims=(5, 4, 3))
        origins, dirs, fields = self.batch(vol, rays, n_r, rng)
        before = vsg._composite_before(*fields, dirs)
        after = vsg._composite_after(*fields, dirs)
        assert before.shape == after.shape == (rays, 3)
        for i in range(rays):
            s = sample_ray(vol, origins[i], dirs[i], n_r=n_r)
            assert np.array_equal(before[i], composite_sg_before(s, dirs[i]))
            assert np.array_equal(after[i], composite_sg_after(s, dirs[i]))

    @pytest.mark.parametrize("n_r", [1, 37, 128, vsg.CHUNK_POINTS + 1])
    def test_composites_independent_of_record_layout(self, n_r):
        """sample_ray's C-ordered records, Fortran-ordered and (n, 8).T copies
        and a strided view of them composite to the same bits in both orders."""
        rng = np.random.default_rng(23)
        vol = random_volume(rng, dims=(5, 4, 3))
        origins, dirs = vsg._random_rays(vol, 3, rng)
        for o, d in zip(origins, dirs):
            s = sample_ray(vol, o, d, n_r=n_r)
            layouts = [np.asfortranarray(s.records), np.ascontiguousarray(s.records.T).T,
                       np.repeat(s.records, 2, axis=1)[:, ::2]]
            if n_r > 1:
                assert not any(r.flags.c_contiguous for r in layouts)
            for one in (composite_sg_before, composite_sg_after):
                want = one(s, d)
                for records in layouts:
                    assert np.array_equal(one(RaySampleSet(s.t, records), d), want)

    @pytest.mark.parametrize("n_r", [1, 37, 128])
    def test_within_ulps_of_exact_sums(self, n_r):
        """Against fsum_composites, "before" stays within 2e-14 relative and
        "after" within 1e-13: inside exp, the blended sharpness (up to 30)
        scales the rounding of the blended sharpness and axis."""
        rng = np.random.default_rng(22)
        vol = random_volume(rng)
        origins, dirs, fields = self.batch(vol, 32, n_r, rng)
        before = vsg._composite_before(*fields, dirs)
        after = vsg._composite_after(*fields, dirs)
        for i in range(32):
            exact_before, exact_after = fsum_composites(
                sample_ray(vol, origins[i], dirs[i], n_r=n_r), dirs[i].tolist())
            assert np.all(np.abs(before[i] - exact_before) <= 2e-14 * exact_before)
            assert np.all(np.abs(after[i] - exact_after) <= 1e-13 * exact_after)


class TestCompositeRays:
    """composite_rays on the first rows of a larger record buffer, filled as
    vsg-trace fills it from sample_ray sets, equals composite_sg_before and
    composite_sg_after on each set bit for bit."""

    @pytest.mark.parametrize("order", ["before", "after"])
    @pytest.mark.parametrize("n_r", [1, 37, 128, vsg.CHUNK_POINTS + 1])
    def test_partial_chunk_equals_per_ray(self, n_r, order):
        rng = np.random.default_rng(29)
        vol = random_volume(rng, dims=(5, 4, 3))
        rays = 5 if n_r <= 128 else 2
        origins, dirs = vsg._random_rays(vol, rays, rng)
        buf = np.full((8, rays + 3, n_r), np.nan)  # rows past the chunk are not read
        sets = [sample_ray(vol, origins[k], dirs[k], n_r=n_r) for k in range(rays)]
        for k, s in enumerate(sets):
            buf[:, k] = s.records
        got = composite_rays(buf[:, :rays], dirs, order)
        one = composite_sg_before if order == "before" else composite_sg_after
        assert got.shape == (rays, 3)
        for k, s in enumerate(sets):
            assert np.array_equal(got[k], one(s, dirs[k]))

    @pytest.mark.parametrize("records, dirs, order", [
        ((8, 2, 4), (2, 3), "sideways"),
        ((8, 2, 4), (2, 3), None),
        ((7, 2, 4), (2, 3), "before"),
        ((8, 8), (8, 3), "before"),
        ((8, 2, 0), (2, 3), "after"),
        ((8, 2, 4), (3, 3), "after"),
        ((8, 2, 4), (2, 2), "before"),
        ((8, 1, 4), (3,), "after"),
    ], ids=["order", "no-order", "channels", "2d-records", "no-samples", "ray-count",
            "dir-width", "one-dir"])
    def test_bad_input_is_one_value_error(self, records, dirs, order):
        with pytest.raises(ValueError):
            composite_rays(np.full(records, 0.5), np.full(dirs, 0.5), order)


class TestWorkspace:
    def test_march_peak_independent_of_samples(self):
        """With its workspace and records allocated by the caller, _march
        computes distances and points in place, and only _interp_records'
        per-chunk coordinate rows are allocated, so its traced peak is the
        same at 2^14 and 2^16 samples. An untraced call first makes the
        first use's one-off allocations."""
        rng = np.random.default_rng(16)
        vol = random_volume(rng, dims=(16, 16, 16))
        peaks = []
        for rays in (128, 512):
            origins, dirs = vsg._random_rays(vol, rays, rng)
            t_near, t_far, _ = ray_box_intersect(vol.bbox_min, vol.bbox_max, origins, dirs)
            args = origins, dirs, t_near, t_far, vsg._workspace((rays, 128))
            rec = np.empty((8, rays, 128))
            vsg._march(vol, *args, rec)
            tracemalloc.start()
            try:
                vsg._march(vol, *args, rec)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] == peaks[1]


class TestBench:
    def test_eval_counts_and_keys(self):
        rng = np.random.default_rng(42)
        vol = random_volume(rng, dims=(3, 3, 3))
        out = bench_orders(vol, rays=512, n_r=16, seed=1)
        assert out["g_evals_before"] == 512 * 16
        assert out["g_evals_after"] == 512
        assert out["seconds_before"] > 0.0
        assert out["seconds_after"] > 0.0
        assert out["rays"] == 512 and out["n_r"] == 16

    @staticmethod
    def traced_peak(monkeypatch, **kwargs):
        """One timed run is enough: the runs reuse the chunk's records."""
        monkeypatch.setattr(vsg, "BENCH_RUNS", 1)
        vol = random_volume(np.random.default_rng(14), dims=(16, 16, 16))
        tracemalloc.start()
        try:
            bench_orders(vol, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_bounded(self, monkeypatch):
        """Records are sampled and composited in chunks of BENCH_SAMPLES
        samples (1 MiB of records), so the traced peak stays far below the
        134 MB of (16384, 128, 8) records."""
        assert self.traced_peak(monkeypatch, rays=16384, n_r=128) < 8e6

    def test_peak_memory_bounded_at_large_n_r(self, monkeypatch):
        """Past BENCH_SAMPLES samples per ray a chunk is one ray: 8 MiB of
        records at n_r = 2^17, not a fixed ray count times n_r."""
        assert self.traced_peak(monkeypatch, rays=8, n_r=2**17) < 40e6


class TestDiskFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        vol = random_volume(rng, dims=(3, 4, 5))
        path = tmp_path / "v.vsg"
        save_vsg(path, vol)
        back = load_vsg(path)
        assert np.array_equal(
            back.data.astype(np.float32).view(np.uint32),
            vol.data.astype(np.float32).view(np.uint32),
        )
        np.testing.assert_array_equal(back.bbox_min, vol.bbox_min)
        np.testing.assert_array_equal(back.bbox_max, vol.bbox_max)

    @staticmethod
    def traced_peak(call, *args):
        tracemalloc.start()
        try:
            result = call(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_write_holds_one_payload_copy(self, tmp_path):
        """The float32 grid goes to the file as it is: saving a 32^3
        volume peaks below 1.5x its float32 payload."""
        vol = random_volume(np.random.default_rng(16), dims=(32, 32, 32))
        save_vsg(tmp_path / "warm.vsg", random_volume(np.random.default_rng(16), dims=(1, 1, 1)))
        _, peak = self.traced_peak(save_vsg, tmp_path / "v.vsg", vol)
        payload = vol.data.size * 4
        assert peak < 1.5 * payload, peak / payload
        assert len((tmp_path / "v.vsg").read_bytes().split(b"\n", 4)[4]) == payload

    def test_read_holds_no_payload_slice(self, tmp_path):
        """The payload is read in place from the file's bytes and widened
        once, by the constructor, straight into its channel-major grid:
        loading a 32^3 volume peaks at 3.25x its float32 payload (the
        file's bytes, the float64 grid, two, and its finiteness mask, a
        quarter), below 3.5x."""
        vol = random_volume(np.random.default_rng(17), dims=(32, 32, 32))
        save_vsg(tmp_path / "warm.vsg", random_volume(np.random.default_rng(17), dims=(1, 1, 1)))
        load_vsg(tmp_path / "warm.vsg")
        save_vsg(tmp_path / "v.vsg", vol)
        back, peak = self.traced_peak(load_vsg, tmp_path / "v.vsg")
        payload = vol.data.size * 4
        assert peak < 3.5 * payload, peak / payload
        assert np.array_equal(back.data, vol.data.astype(np.float32))

    def test_header_layout(self, tmp_path):
        vol = constant_volume(0.5, [1.0, 1.0, 1.0], [0.0, 0.0, 1.0], 2.0,
                              dims=(2, 2, 2))
        path = tmp_path / "v.vsg"
        save_vsg(path, vol)
        lines = path.read_bytes().split(b"\n", 4)
        assert lines[0] == b"VSG1"
        assert lines[1] == b"2 2 2"
        assert len(lines[4]) == 2 * 2 * 2 * 8 * 4

    def test_float32_overflow_refused_before_writing(self, tmp_path):
        """A finite float64 value beyond float32, which load_vsg would refuse
        as infinite, raises one ValueError and leaves no file."""
        vol = constant_volume(0.5, [1.0, 1.0, 1.0], [0.0, 0.0, 1.0], 1e39)
        path = tmp_path / "v.vsg"
        with pytest.raises(ValueError, match="^volume data overflows the float32 range of VSG$"):
            save_vsg(path, vol)
        assert not path.exists()

    def test_bbox_round_trips_at_full_precision(self, tmp_path):
        """A box 1e-10 wide, which 9 significant digits would collapse, loads back exactly."""
        vol = VsgVolume(np.full((1, 1, 1, 8), 0.5), [1.0000000001, 0.0, 0.0],
                        [1.0000000002, 1.0, 1.0])
        save_vsg(tmp_path / "v.vsg", vol)
        back = load_vsg(tmp_path / "v.vsg")
        assert back.bbox_min.tolist() == vol.bbox_min.tolist()
        assert back.bbox_max.tolist() == vol.bbox_max.tolist()

    def test_truncated_rejected(self, tmp_path):
        vol = constant_volume(0.5, [1.0, 1.0, 1.0], [0.0, 0.0, 1.0], 2.0,
                              dims=(2, 2, 2))
        path = tmp_path / "v.vsg"
        save_vsg(path, vol)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError):
            load_vsg(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "v.vsg"
        path.write_bytes(b"NOPE\n1 1 1\n0 0 0\n1 1 1\n" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_vsg(path)


class TestValidation:
    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            VsgVolume.from_fields(
                np.full((2, 2, 2), 1.5), np.ones((2, 2, 2, 3)),
                np.broadcast_to([0.0, 0.0, 1.0], (2, 2, 2, 3)).copy(),
                np.ones((2, 2, 2)),
                bbox_min=[0.0, 0.0, 0.0], bbox_max=[1.0, 1.0, 1.0],
            )

    def test_bbox_ordering(self):
        with pytest.raises(ValueError):
            VsgVolume.from_fields(
                np.zeros((2, 2, 2)), np.ones((2, 2, 2, 3)),
                np.broadcast_to([0.0, 0.0, 1.0], (2, 2, 2, 3)).copy(),
                np.ones((2, 2, 2)),
                bbox_min=[1.0, 0.0, 0.0], bbox_max=[0.0, 1.0, 1.0],
            )
