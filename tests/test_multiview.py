"""Cameras, cross-view consistency, weights/masks, and surface splatting."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from sglight import multiview
from sglight.brdf import GBuffer
from sglight.multiview import (
    MASK_THRESHOLD,
    CameraView,
    MultiViewSet,
    bilinear_lookup,
    consistency_maps,
    depth_projection_error,
    depth_projection_errors,
    estimate_depth_scale,
    multiview_mask,
    multiview_weight,
    splat_visible_surface,
    voxel_centers,
)


def simple_camera(size=4, fx=20.0, rotation=None, translation=None):
    return CameraView(
        fx=fx, fy=fx, cx=size / 2.0, cy=size / 2.0,
        rotation=np.eye(3) if rotation is None else rotation,
        translation=np.zeros(3) if translation is None else translation,
        width=size, height=size,
    )


def yaw(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def pitch(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def posed_views(size=8, target=1, seed=3):
    """Four views with rotated, translated poses and random depth maps.

    View 2 turns far enough that most projections leave its frame, and
    view 3 looks away, so some points land behind it.
    """
    rng = np.random.default_rng(seed)
    poses = [
        (yaw(0.05), [0.1, 0.0, 0.0]),
        (yaw(0.3) @ pitch(-0.2), [0.2, -0.1, 0.5]),
        (yaw(0.9), [0.3, 0.2, 0.1]),
        (yaw(2.0) @ pitch(0.4), [-0.4, 0.3, 1.2]),
    ]
    views = tuple(
        CameraView(fx=9.0, fy=7.0, cx=size / 2.0 + 0.3, cy=size / 2.0 - 0.2,
                   rotation=r, translation=np.array(t), width=size, height=size,
                   depth=rng.uniform(1.5, 3.0, size=(size, size)))
        for r, t in poses
    )
    return MultiViewSet(views, target=target)


class TestCamera:
    def test_project_unproject_round_trip(self):
        rng = np.random.default_rng(42)
        cam = simple_camera(
            rotation=yaw(0.3), translation=np.array([0.2, -0.1, 0.5])
        )
        pts = rng.normal(size=(200, 3)) * 0.5 + [0.0, 0.0, 4.0]
        u, v, dist, valid = cam.project(pts)
        assert np.all(valid)
        back = cam.unproject(u, v, dist)
        np.testing.assert_allclose(back, pts, atol=1e-10)

    def test_center(self):
        r = yaw(0.7)
        t = np.array([1.0, 2.0, 3.0])
        cam = simple_camera(rotation=r, translation=t)
        np.testing.assert_allclose(cam.center, -r.T @ t)
        # the center projects at zero distance, never valid
        _, _, dist, valid = cam.project(cam.center)
        assert not valid
        np.testing.assert_allclose(dist, 0.0, atol=1e-12)

    def test_behind_camera_invalid(self):
        cam = simple_camera()
        _, _, _, valid = cam.project(np.array([0.0, 0.0, -1.0]))
        assert not valid

    def test_unproject_requires_positive_distance(self):
        cam = simple_camera()
        with pytest.raises(ValueError):
            cam.unproject(2.0, 2.0, 0.0)

    def test_rotation_must_be_orthonormal(self):
        with pytest.raises(ValueError):
            simple_camera(rotation=np.eye(3) * 2.0)

    def test_pixel_center_ray_distance(self):
        """Unprojecting a pixel center at distance d lands at range d."""
        cam = simple_camera()
        p = cam.unproject(1.5, 2.5, 3.0)
        np.testing.assert_allclose(np.linalg.norm(p - cam.center), 3.0)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.linalg.det(q))


def one_ray(cam, i, j):
    """The per-pixel build: normalize the camera-frame ray, then rotate it."""
    ray = np.array([(j + 0.5 - cam.cx) / cam.fx, (i + 0.5 - cam.cy) / cam.fy, 1.0])
    ray /= np.linalg.norm(ray)
    return cam.rotation.T @ ray


class TestPixelRays:
    def test_bits_of_the_one_ray_build(self):
        """Whole images and row bands of random rotated, translated,
        non-square cameras: every ray has the per-pixel build's bits."""
        rng = np.random.default_rng(14)
        for _ in range(12):
            w, h = (int(n) for n in rng.integers(2, 24, size=2))
            cam = CameraView(fx=rng.uniform(2.0, 60.0), fy=rng.uniform(2.0, 60.0),
                             cx=rng.uniform(-w, 2 * w), cy=rng.uniform(-h, 2 * h),
                             rotation=random_rotation(rng),
                             translation=rng.normal(size=3) * 10.0 ** rng.integers(0, 7),
                             width=w, height=h)
            ref = np.array([[one_ray(cam, i, j) for j in range(w)] for i in range(h)])
            assert np.array_equal(cam.pixel_rays(), ref)
            for band in (slice(0, 1), slice(h // 3, h - 1), slice(h - 1, h), slice(1, h, 2)):
                assert np.array_equal(cam.pixel_rays(band), ref[band])

    def test_unit_and_through_the_pixel_centers(self):
        cam = posed_views().views[1]
        rays = cam.pixel_rays()
        np.testing.assert_allclose(np.linalg.norm(rays, axis=-1), 1.0, atol=1e-15)
        jj, ii = np.meshgrid(np.arange(cam.width) + 0.5, np.arange(cam.height) + 0.5)
        u, v, _, valid = cam.project(cam.center + 2.0 * rays)
        assert np.all(valid)
        np.testing.assert_allclose(u, jj, atol=1e-12)
        np.testing.assert_allclose(v, ii, atol=1e-12)


class TestFarCamera:
    @pytest.mark.parametrize("t", [1.5e154, 1e300, 1.7e308])
    def test_overflowing_distance_is_inf_without_warning(self, t):
        cam = simple_camera(translation=np.array([t, 0.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, _, dist, valid = cam.project(np.array([[0.0, 0.0, 2.0], [1.0, -1.0, 3.0]]))
        assert np.all(valid) and np.all(np.isinf(dist))
        assert not np.any(bilinear_lookup(np.ones((4, 4)), u, np.full(2, 2.0))[1])

    @pytest.mark.parametrize("target", [0, 1])
    def test_far_view_gets_no_vote(self, target):
        views = posed_views(target=target).views[:2]
        far = dataclasses.replace(views[1], translation=np.array([1e300, 0.0, 0.0]))
        mvs = MultiViewSet((views[0], far), target=target)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = depth_projection_errors(mvs, np.indices((8, 8)).transpose(1, 2, 0))
        assert np.all(np.isinf(e[..., 1 - target]))
        assert np.all(multiview_mask(e)[..., 2 - target] == 0)

    def test_far_target_pose_gives_uniform_weights(self):
        """A target turned 45 degrees about z and moved to (1.7e308, 1.7e308, 0)
        unprojects its pixels to inf points: every e is inf and every row
        falls back to uniform weights, with no warning."""
        c = np.sqrt(0.5)
        views = posed_views(target=1).views[:2]
        far = dataclasses.replace(views[1], rotation=np.array([[c, -c, 0.0], [c, c, 0.0],
                                                               [0.0, 0.0, 1.0]]),
                                  translation=np.array([1.7e308, 1.7e308, 0.0]))
        mvs = MultiViewSet((views[0], far), target=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = depth_projection_errors(mvs, np.indices((8, 8)).transpose(1, 2, 0))
            w = multiview_weight(e)
        assert np.all(np.isinf(e)) and np.all(w == 0.5)


class TestCameraMaps:
    def test_maps_must_match_size(self):
        cam = dict(fx=4.0, fy=4.0, cx=2.0, cy=1.5, rotation=np.eye(3),
                   translation=np.zeros(3), width=4, height=3)
        CameraView(**cam, image=np.zeros((3, 4, 3)), depth=np.ones((3, 4)),
                   confidence=np.ones((3, 4)))
        for name, arr in (("image", np.zeros((4, 3, 3))), ("image", np.zeros((3, 4))),
                          ("depth", np.ones((4, 3))), ("depth", np.ones((3, 4, 1))),
                          ("confidence", np.ones((3, 5)))):
            with pytest.raises(ValueError, match=name):
                CameraView(**cam, **{name: arr})


class TestBilinear:
    def test_exact_at_pixel_centers(self):
        rng = np.random.default_rng(42)
        img = rng.uniform(size=(3, 5))
        val, inside = bilinear_lookup(img, 2.5, 1.5)  # pixel (1, 2)
        assert inside
        np.testing.assert_allclose(val, img[1, 2])

    def test_midpoint_between_pixels(self):
        img = np.array([[0.0, 1.0]])
        val, inside = bilinear_lookup(img, 1.0, 0.5)
        assert inside
        np.testing.assert_allclose(val, 0.5)

    def test_outside_support(self):
        img = np.ones((2, 2))
        val, inside = bilinear_lookup(img, 0.2, 1.0)
        assert not inside and val == 0.0
        val, inside = bilinear_lookup(img, 1.0, 1.9)
        assert not inside and val == 0.0

    def test_multichannel(self):
        img = np.zeros((2, 2, 3))
        img[0, 0] = [1.0, 2.0, 3.0]
        val, inside = bilinear_lookup(img, 0.5, 0.5)
        assert inside
        np.testing.assert_allclose(val, [1.0, 2.0, 3.0])


class TestDepthError:
    def shell_views(self, offset=0.0):
        """Two cameras sharing a center, constant range-2 depth maps.

        Shared center makes the ray distance identical in both views, so
        the consistency error is exactly the map perturbation.
        """
        size = 8
        depth_a = np.full((size, size), 2.0)
        depth_b = np.full((size, size), 2.0 + offset)
        cam_a = CameraView(
            fx=8.0, fy=8.0, cx=4.0, cy=4.0, rotation=np.eye(3),
            translation=np.zeros(3), width=size, height=size, depth=depth_a,
        )
        cam_b = CameraView(
            fx=8.0, fy=8.0, cx=4.0, cy=4.0, rotation=yaw(0.05),
            translation=np.zeros(3), width=size, height=size, depth=depth_b,
        )
        return MultiViewSet((cam_a, cam_b), target=0)

    def test_consistent_views_zero_error(self):
        e = depth_projection_error(self.shell_views(), (4, 4))
        np.testing.assert_allclose(e, 0.0, atol=1e-12)

    def test_perturbation_shows_up_exactly(self):
        e = depth_projection_error(self.shell_views(offset=0.3), (4, 4))
        np.testing.assert_allclose(e, [0.0, 0.3], atol=1e-12)

    def test_out_of_frame_is_inf(self):
        mvs = self.shell_views()
        big_yaw = CameraView(
            fx=8.0, fy=8.0, cx=4.0, cy=4.0, rotation=yaw(1.2),
            translation=np.zeros(3), width=8, height=8,
            depth=np.full((8, 8), 2.0),
        )
        mvs2 = MultiViewSet((mvs.views[0], big_yaw), target=0)
        e = depth_projection_error(mvs2, (4, 4))
        assert e[0] == 0.0 and np.isinf(e[1])

    def test_requires_target_depth(self):
        cam = simple_camera()
        with pytest.raises(ValueError):
            depth_projection_error(MultiViewSet((cam, cam)), (0, 0))


class TestBatchedReprojection:
    """The whole-view kernel agrees exactly with its one-pixel case."""

    @staticmethod
    def pixels(size):
        return np.indices((size, size)).transpose(1, 2, 0)

    @staticmethod
    def per_pixel(mvs, size):
        return np.array([[depth_projection_error(mvs, (i, j)) for j in range(size)]
                         for i in range(size)])

    def test_whole_view_equals_pixel_loop(self):
        mvs = posed_views()
        batched = depth_projection_errors(mvs, self.pixels(8))
        assert batched.shape == (8, 8, 4)
        assert np.array_equal(batched, self.per_pixel(mvs, 8))
        # the scene reaches every branch: in frame, out of frame, behind
        tview = mvs.views[mvs.target]
        jj, ii = np.meshgrid(np.arange(8) + 0.5, np.arange(8) + 0.5)
        points = tview.unproject(jj, ii, tview.depth)
        assert not np.all(mvs.views[3].project(points)[3])
        assert np.isinf(batched[..., 2]).any() and np.isfinite(batched[..., 2]).any()
        assert np.max(batched[1:-1, 1:-1, mvs.target]) < 1e-12

    def test_border_pixels_keep_their_own_view(self):
        """The target's own entry is ~0 at every valid pixel, border included,
        although the unproject/project round trip can leave its support."""
        mvs = posed_views()
        own = depth_projection_errors(mvs, self.pixels(8))[..., mvs.target]
        assert np.all(np.isfinite(own)) and np.max(own) < 1e-12

    def test_pixel_list_and_nan_depth(self):
        """Any leading shape works; a NaN target depth never gets here,
        because the camera rejects it at construction."""
        mvs = posed_views(size=5, target=0)
        depth = mvs.views[0].depth.copy()
        depth[2, 3] = np.nan
        with pytest.raises(ValueError, match="camera depth map must be finite"):
            dataclasses.replace(mvs.views[0], depth=depth)
        pixels = np.array([[2, 3], [0, 0], [4, 1]])
        batched = depth_projection_errors(mvs, pixels)
        loop = np.array([depth_projection_error(mvs, tuple(p)) for p in pixels])
        assert np.array_equal(batched, loop)
        assert np.isfinite(batched[:, 0]).all()

    def test_single_hole_still_raises(self):
        mvs = posed_views()
        views = list(mvs.views)
        depth = views[mvs.target].depth.copy()
        depth[5, 2] = 0.0
        views[mvs.target] = dataclasses.replace(views[mvs.target], depth=depth)
        mvs = dataclasses.replace(mvs, views=tuple(views))
        with pytest.raises(ValueError, match="target pixel has no valid depth"):
            depth_projection_errors(mvs, self.pixels(8))
        with pytest.raises(ValueError, match="target pixel has no valid depth"):
            depth_projection_error(mvs, (5, 2))
        assert np.isfinite(depth_projection_error(mvs, (5, 3))[mvs.target])

    def test_weight_and_mask_rows(self):
        """(H, W, K) inputs equal their row-by-row results."""
        e = depth_projection_errors(posed_views(), self.pixels(8))
        e[0, :3] = np.inf  # all-inf rows: the uniform fallback
        e[1, 1] = [0.0, 0.02, 0.05, 2.0]  # the cap, the strict threshold
        e[1, 2] = [1.0, 3.0, np.inf, 10.0]  # finite but voteless
        rows = e.reshape(-1, 4)
        w = multiview_weight(e)
        assert np.array_equal(w, np.array([multiview_weight(r) for r in rows]).reshape(w.shape))
        assert np.array_equal(w[0, :3], np.full((3, 4), 0.25))
        assert np.array_equal(w[1, 2], np.full(4, 0.25))
        m = multiview_mask(e)
        assert m.shape == (8, 8, 5) and m.dtype == np.int64
        assert np.array_equal(m, np.array([multiview_mask(r) for r in rows]).reshape(m.shape))
        assert np.array_equal(m[1, 1], [1, 1, 1, 0, 0])


class TestWeights:
    def test_hand_case_one_good_one_bad(self):
        np.testing.assert_allclose(
            multiview_weight([0.5, 2.0]), [1.0, 0.0]
        )

    def test_hand_case_equal_errors(self):
        e = np.exp(-1.0)
        np.testing.assert_allclose(
            multiview_weight([e, e]), [0.5, 0.5]
        )

    def test_uniform_fallback(self):
        """Errors >= 1 carry no vote; the fallback is uniform."""
        np.testing.assert_allclose(
            multiview_weight([1.0, 3.0, 10.0]), [1 / 3, 1 / 3, 1 / 3]
        )

    def test_zero_error_hits_cap(self):
        w = multiview_weight([0.0, np.exp(-1.0)])
        np.testing.assert_allclose(w, [50.0 / 51.0, 1.0 / 51.0])

    def test_infinite_error_no_vote(self):
        w = multiview_weight([np.exp(-1.0), np.inf])
        np.testing.assert_allclose(w, [1.0, 0.0])

    @pytest.mark.parametrize("shape", [(0,), (3, 0), ()])
    def test_no_views_rejected(self, shape):
        """K = 0 views, or a scalar with no view axis, is a ValueError,
        not a division by zero or an index error."""
        with pytest.raises(ValueError, match=r"K >= 1 views"):
            multiview_weight(np.zeros(shape))

    def test_sums_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            e = 10.0 ** rng.uniform(-3.0, 1.0, size=5)
            np.testing.assert_allclose(multiview_weight(e).sum(), 1.0,
                                       rtol=1e-12)

    def test_negative_error_rejected(self):
        with pytest.raises(ValueError):
            multiview_weight([-0.1, 0.5])


class TestMask:
    def test_hand_case(self):
        m = multiview_mask([0.04, 0.06, 0.01])
        np.testing.assert_array_equal(m, [1, 1, 0, 1])

    def test_boundary_is_strict(self):
        m = multiview_mask([0.05])
        np.testing.assert_array_equal(m, [1, 0])

    def test_target_always_on(self):
        m = multiview_mask([np.inf, np.inf])
        np.testing.assert_array_equal(m, [1, 0, 0])


class TestDepthScale:
    def test_recovers_scale(self):
        rng = np.random.default_rng(42)
        ref = rng.uniform(1.0, 5.0, size=(8, 8))
        conf = np.ones((8, 8))
        tau = estimate_depth_scale(ref / 2.0, ref, conf)
        np.testing.assert_allclose(tau, 2.0, rtol=1e-12)

    def test_low_confidence_excluded(self):
        ref = np.array([[2.0, 100.0]])
        pred = np.array([[1.0, 1.0]])
        conf = np.array([[1.0, 0.5]])
        tau = estimate_depth_scale(pred, ref, conf)
        np.testing.assert_allclose(tau, 2.0)

    def test_threshold_is_strict(self):
        ref = np.array([[2.0, 100.0]])
        pred = np.array([[1.0, 1.0]])
        conf = np.array([[1.0, 0.9]])
        tau = estimate_depth_scale(pred, ref, conf)
        np.testing.assert_allclose(tau, 2.0)

    def test_no_qualifying_pixel_raises(self):
        with pytest.raises(ValueError):
            estimate_depth_scale(
                np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2))
            )

    def test_zero_energy_raises(self):
        with pytest.raises(ValueError):
            estimate_depth_scale(
                np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2))
            )


class TestSplat:
    def shell_gbuffer(self, size=4, confidence=None):
        g = GBuffer(
            albedo=np.full((size, size, 3), 0.5),
            roughness=np.full((size, size), 0.3),
            normal=np.broadcast_to([0.0, 0.0, -1.0], (size, size, 3)).copy(),
            depth=np.full((size, size), 2.0),
            confidence=confidence,
        )
        cam = CameraView(
            fx=20.0, fy=20.0, cx=2.0, cy=2.0, rotation=np.eye(3),
            translation=np.zeros(3), width=size, height=size,
            image=np.broadcast_to([0.2, 0.4, 0.6], (size, size, 3)).copy(),
        )
        return g, cam

    def test_voxel_centers_hand_case(self):
        c = voxel_centers((2, 1, 1), [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(c[0, 0, 0], [0.25, 0.5, 0.5])
        np.testing.assert_allclose(c[1, 0, 0], [0.75, 0.5, 0.5])

    def test_on_surface_full_weight(self):
        """A voxel exactly on the range-2 shell gets rho = 1 and the
        appearance stack scaled by 1."""
        g, cam = self.shell_gbuffer()
        vol = splat_visible_surface(
            g, cam, dims=(1, 1, 2),
            bbox_min=[-0.5, -0.5, 1.75], bbox_max=[0.5, 0.5, 2.75],
        )
        np.testing.assert_allclose(vol.rho[0, 0, 0], 1.0, rtol=1e-12)
        np.testing.assert_allclose(
            vol.features[0, 0, 0],
            [0.2, 0.4, 0.6, 0.0, 0.0, -1.0, 0.5, 0.5, 0.5, 0.3],
            atol=1e-12,
        )

    def test_fixed_sigma_falloff(self):
        """A voxel 0.5 behind the shell decays by the Gaussian factor."""
        g, cam = self.shell_gbuffer()
        vol = splat_visible_surface(
            g, cam, dims=(1, 1, 2),
            bbox_min=[-0.5, -0.5, 1.75], bbox_max=[0.5, 0.5, 2.75],
        )
        expected = np.exp(-0.25 / (2.0 * 0.15 * 0.15))
        np.testing.assert_allclose(vol.rho[0, 0, 1], expected, rtol=1e-12)

    def test_confidence_variant(self):
        g, cam = self.shell_gbuffer(confidence=np.full((4, 4), 0.8))
        vol = splat_visible_surface(
            g, cam, dims=(1, 1, 2),
            bbox_min=[-0.5, -0.5, 1.75], bbox_max=[0.5, 0.5, 2.75],
            variant="confidence",
        )
        np.testing.assert_allclose(vol.rho[0, 0, 0], 1.0, rtol=1e-12)
        np.testing.assert_allclose(
            vol.rho[0, 0, 1], np.exp(-0.8 * 0.25), rtol=1e-12
        )

    def test_confidence_variant_needs_confidence(self):
        g, cam = self.shell_gbuffer()
        with pytest.raises(ValueError):
            splat_visible_surface(
                g, cam, dims=(1, 1, 1),
                bbox_min=[-0.5, -0.5, 1.5], bbox_max=[0.5, 0.5, 2.5],
                variant="confidence",
            )

    def test_out_of_frame_zeroed(self):
        g, cam = self.shell_gbuffer()
        vol = splat_visible_surface(
            g, cam, dims=(1, 1, 1),
            bbox_min=[19.5, -0.5, 1.5], bbox_max=[20.5, 0.5, 2.5],
        )
        assert vol.rho[0, 0, 0] == 0.0
        np.testing.assert_array_equal(vol.features[0, 0, 0], 0.0)

    def test_extras_appended(self):
        g, cam = self.shell_gbuffer()
        extras = np.full((4, 4, 2), 0.9)
        vol = splat_visible_surface(
            g, cam, dims=(1, 1, 1),
            bbox_min=[-0.5, -0.5, 1.5], bbox_max=[0.5, 0.5, 2.5],
            extras=extras,
        )
        assert vol.features.shape[-1] == 12
        np.testing.assert_allclose(vol.features[0, 0, 0, 10:], 0.9,
                                   rtol=1e-12)


class TestMultiViewSet:
    def test_needs_two_views(self):
        with pytest.raises(ValueError):
            MultiViewSet((simple_camera(),))

    def test_target_in_range(self):
        with pytest.raises(ValueError):
            MultiViewSet((simple_camera(), simple_camera()), target=2)


class TestConsistencyMaps:
    """consistency_maps: reproject's band loop, as a library call."""

    @staticmethod
    def views(height=7, width=10):
        """Nine views of a 7x10 image: posed_views' four and five repeats, so
        the mask's view entries fill two packed bytes."""
        rng = np.random.default_rng(8)
        views = tuple(dataclasses.replace(v, width=width, height=height, cx=width / 2.0,
                                          cy=height / 2.0,
                                          depth=rng.uniform(1.5, 3.0, size=(height, width)))
                      for v in posed_views().views)
        return MultiViewSet(views + views[:3] + views[1:3], target=1)

    @pytest.mark.parametrize("band_rows", [1, 3, 7])
    def test_equals_one_unbanded_pass(self, band_rows, monkeypatch):
        """Bands of W, 3W and H * W pixels give the bytes of one
        depth_projection_errors, multiview_weight and multiview_mask pass."""
        mvs = self.views()
        h, w, k = 7, 10, 9
        monkeypatch.setattr(multiview, "BAND_PX", band_rows * w)
        bands, planes, codes = consistency_maps(mvs)
        assert [(b.start, b.stop) for b in bands] == [
            (r, min(r + band_rows, h)) for r in range(0, h, band_rows)]
        e = depth_projection_errors(mvs, np.indices((h, w)).transpose(1, 2, 0))
        assert np.isinf(e).any() and (e < MASK_THRESHOLD).any()
        assert planes.dtype == np.float32 and planes.shape == (2, h, k, w)
        assert planes[0].tobytes() == e.astype(np.float32).transpose(0, 2, 1).tobytes()
        want_w = multiview_weight(e).astype(np.float32).transpose(0, 2, 1)
        assert planes[1].tobytes() == want_w.tobytes()
        assert codes.dtype == np.uint8 and codes.shape == (h, w, 2)
        views = np.unpackbits(codes, axis=-1, count=k, bitorder="little")
        assert np.array_equal(views, multiview_mask(e)[..., 1:])

    def test_peak_memory_is_outputs_and_one_band(self, monkeypatch):
        """On a 96^2 view with K = 4, bands of three rows trace at most the
        two planes, the packed mask and 64 float64 per band pixel: the band's
        (n, K) errors, weights and int64 mask, and one view's projection and
        bilinear lookup at a time. The whole view at once needs over 200 B
        per pixel beyond the outputs."""
        mvs = posed_views(size=96)
        monkeypatch.setattr(multiview, "BAND_PX", 3 * 96)
        consistency_maps(mvs)  # first-call caches stay out of the peak
        tracemalloc.start()
        try:
            _, planes, codes = consistency_maps(mvs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= planes.nbytes + codes.nbytes + 64 * 8 * 3 * 96, peak
