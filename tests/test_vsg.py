"""Volumetric lobe grids: ray marching, compositing, and the disk format."""

import tracemalloc

import numpy as np
import pytest

from sglight import vsg
from sglight.sg import normalize
from sglight.vsg import (
    RaySampleSet,
    VsgVolume,
    bench_orders,
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
        np.testing.assert_allclose(s.alpha, 0.25, rtol=1e-12)
        np.testing.assert_allclose(s.sharpness, 7.0, rtol=1e-12)
        np.testing.assert_allclose(
            s.intensity, np.broadcast_to([1.0, 2.0, 3.0], (16, 3)), rtol=1e-12
        )
        np.testing.assert_allclose(
            s.axis, np.broadcast_to([0.0, 1.0, 0.0], (16, 3)), atol=1e-12
        )

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
            np.linalg.norm(s.axis, axis=-1), 1.0, rtol=1e-12
        )

    def test_nearest_mode_picks_voxel_values(self):
        rng = np.random.default_rng(3)
        vol = random_volume(rng, dims=(2, 2, 2))
        s = sample_ray(vol, [-2.0, -0.5, -0.5], [1.0, 0.0, 0.0],
                       n_r=8, nearest=True)
        # every sampled record must be one of the 8 stored voxel records
        stored = vol.data.reshape(-1, 8)
        sampled = np.concatenate(
            [s.alpha[:, None], s.intensity, s.axis, s.sharpness[:, None]],
            axis=1,
        )
        for row in sampled:
            match = np.isclose(stored[:, 0], row[0]) & np.isclose(
                stored[:, 7], row[7]
            )
            assert match.any()

    def test_direction_must_be_unit(self):
        vol = constant_volume(0.5, [1.0, 1.0, 1.0], [0.0, 0.0, 1.0], 2.0)
        with pytest.raises(ValueError):
            sample_ray(vol, [-2.0, 0.0, 0.0], [2.0, 0.0, 0.0])


def reference_records(vol, points):
    """Per-corner trilinear interpolation with clamped 3-array indexing
    and a renormalized axis, in one pass without flat indices."""
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
    axis = rec[..., 4:7]
    norm = np.linalg.norm(axis, axis=-1, keepdims=True)
    ok = norm > 1e-12
    rec[..., 4:7] = np.where(ok, axis / np.where(ok, norm, 1.0), [0.0, 0.0, 1.0])
    return rec


def ray_records(s):
    return np.concatenate(
        [s.alpha[:, None], s.intensity, s.axis, s.sharpness[:, None]], axis=1
    )


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
        t, batch = vsg._march(vol, origins, dirs, t_near, t_far, n_r)
        for i in range(40):
            s = sample_ray(vol, origins[i], dirs[i], n_r=n_r)
            assert np.array_equal(t[i], s.t)
            assert np.array_equal(batch[i], ray_records(s))
            points = origins[i] + s.t[:, None] * dirs[i]
            assert np.array_equal(batch[i], reference_records(vol, points))

    @pytest.mark.parametrize("dims", [(1, 4, 5), (16, 16, 16)])
    def test_per_ray_independent_of_chunk(self, dims, monkeypatch):
        rng = np.random.default_rng(12)
        vol = random_volume(rng, dims=dims)
        origins, dirs = vsg._random_rays(vol, 8, rng)
        for nearest in (False, True):
            whole = [ray_records(sample_ray(vol, o, d, 128, nearest))
                     for o, d in zip(origins, dirs)]
            monkeypatch.setattr(vsg, "CHUNK_POINTS", 7)
            split = [ray_records(sample_ray(vol, o, d, 128, nearest))
                     for o, d in zip(origins, dirs)]
            monkeypatch.undo()
            assert all(np.array_equal(a, b) for a, b in zip(whole, split))

    def test_nearest_picks_rounded_voxel(self):
        rng = np.random.default_rng(13)
        vol = random_volume(rng, dims=(1, 4, 5))
        s = sample_ray(vol, [-1.0, -0.9, -0.8], normalize([1.0, 0.7, 0.6]),
                       n_r=64, nearest=True)
        points = s.t[:, None] * normalize([1.0, 0.7, 0.6]) + [-1.0, -0.9, -0.8]
        dims = np.array(vol.dims, dtype=np.float64)
        g = (points - vol.bbox_min) / ((vol.bbox_max - vol.bbox_min) / dims) - 0.5
        idx = np.rint(np.clip(g, 0.0, dims - 1.0)).astype(np.int64)
        want = vol.data[idx[:, 0], idx[:, 1], idx[:, 2]].copy()
        norm = np.linalg.norm(want[:, 4:7], axis=-1, keepdims=True)
        want[:, 4:7] /= norm
        assert np.array_equal(ray_records(s), want)

    @pytest.mark.parametrize("dims", [(1, 4, 5), (1, 1, 1), (3, 7, 2)])
    def test_faces_and_corners_gather_exact_voxels(self, dims):
        """Points on and just beyond every face, edge and corner of the box.

        The gathers use mode="clip", which would silently clamp a wrong
        flat index; both modes must still give the per-corner reference
        and the rounded voxel exactly."""
        vol = random_volume(np.random.default_rng(15), dims=dims)
        cell = (vol.bbox_max - vol.bbox_min) / np.array(dims)
        lo, hi = vol.bbox_min, vol.bbox_max
        ticks = np.stack([lo - 0.3 * cell, lo - 1e-12, lo, lo + 0.5 * cell,
                          (lo + hi) / 2, hi - 0.5 * cell, hi, hi + 1e-12, hi + 0.3 * cell])
        points = np.stack(np.meshgrid(ticks[:, 0], ticks[:, 1], ticks[:, 2],
                                      indexing="ij"), axis=-1).reshape(-1, 3)
        rec = np.empty((len(points), 8))
        vsg._interp_records(vol, points, rec)
        assert np.array_equal(rec, reference_records(vol, points))
        vsg._interp_records(vol, points, rec, nearest=True)
        g = (points - lo) / cell - 0.5
        idx = np.rint(np.clip(g, 0.0, np.array(dims) - 1.0)).astype(np.int64)
        want = vol.data[idx[:, 0], idx[:, 1], idx[:, 2]].copy()
        want[:, 4:7] /= np.linalg.norm(want[:, 4:7], axis=-1, keepdims=True)
        assert np.array_equal(rec, want)


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

    def test_single_opaque_sample_orders_agree(self):
        """One sample with alpha = 1 makes both orders the bare lobe."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            axis = normalize(rng.normal(size=3))
            l = normalize(rng.normal(size=3))
            eta = rng.uniform(0.1, 2.0, size=3)
            lam = rng.uniform(0.0, 40.0)
            s = RaySampleSet(
                np.zeros(3), l, np.array([1.0]), np.array([1.0]),
                eta[None, :], axis[None, :], np.array([lam]),
            )
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
        s = RaySampleSet(
            np.zeros(3), axis, np.array([1.0]), np.array([1.0]),
            np.ones((1, 3)), axis[None, :], np.array([50.0]),
        )
        toward = composite_sg_before(s, [0.0, 0.0, -1.0])
        away = composite_sg_before(s, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(toward, 1.0, rtol=1e-12)
        assert np.all(away < 1e-30)


class TestBench:
    def test_eval_counts_and_keys(self):
        rng = np.random.default_rng(42)
        vol = random_volume(rng, dims=(3, 3, 3))
        out = bench_orders(vol, rays=512, n_r=16, runs=2, seed=1)
        assert out["g_evals_before"] == 512 * 16
        assert out["g_evals_after"] == 512
        assert out["seconds_before"] > 0.0
        assert out["seconds_after"] > 0.0
        assert out["rays"] == 512 and out["n_r"] == 16

    @staticmethod
    def traced_peak(**kwargs):
        vol = random_volume(np.random.default_rng(14), dims=(16, 16, 16))
        tracemalloc.start()
        try:
            bench_orders(vol, runs=1, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_bounded(self):
        """Records are sampled and composited in chunks of BENCH_SAMPLES
        samples (1 MiB of records), so the traced peak stays far below the
        134 MB of (16384, 128, 8) records."""
        assert self.traced_peak(rays=16384, n_r=128) < 8e6

    def test_peak_memory_bounded_at_large_n_r(self):
        """Past BENCH_SAMPLES samples per ray a chunk is one ray: 8 MiB of
        records at n_r = 2^17, not a fixed ray count times n_r."""
        assert self.traced_peak(rays=8, n_r=2**17) < 40e6


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

    def test_header_layout(self, tmp_path):
        vol = constant_volume(0.5, [1.0, 1.0, 1.0], [0.0, 0.0, 1.0], 2.0,
                              dims=(2, 2, 2))
        path = tmp_path / "v.vsg"
        save_vsg(path, vol)
        lines = path.read_bytes().split(b"\n", 4)
        assert lines[0] == b"VSG1"
        assert lines[1] == b"2 2 2"
        assert len(lines[4]) == 2 * 2 * 2 * 8 * 4

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
