"""Acceptance gate: twelve checks, one printed verdict line each.

Every check computes its result first, prints a single PASS or FAIL
line (visible under pytest -s), and only then asserts, so the verdict
line appears even for a failing criterion.
"""

import time

import numpy as np

from sglight.brdf import (
    GBuffer,
    render_diffuse,
    render_specular,
)
from sglight.envmap import decode_env
from sglight.metrics import (
    g1_angular,
    g2_mse,
    g3_scaled_mse,
    g4_log_mse,
    g5_scaled_log_mse,
)
from sglight.multiview import multiview_mask, multiview_weight
from sglight.pfm import read_pfm, write_pfm
from sglight.sg import (
    SgEnvironment,
    SphericalGaussian,
    integrate_sg_sphere,
    normalize,
)
from sglight.sgfit import fit_sg, sg_gradients
from sglight.vsg import (
    bench_orders,
    composite_sg_after,
    composite_sg_before,
    compositing_weights,
    sample_ray,
)
from sglight.aggregation import TokenSequence, masked_attention, weighted_attention

from mc_oracles import mc_render_specular
from test_aggregation import random_setup
from test_brdf import constant_env, wall_camera
from test_cli import write_wall_scene
from test_metrics import random_pair
from test_sg import quadrature_integral
from test_sgfit import fd_gradients, match_lobes, rel_err
from test_vsg import constant_volume, random_volume


def report(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_sphere_integral():
    """Quadrature matches the closed-form sphere integral per sharpness."""
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (0.1, 1.0, 10.0, 100.0):
        lobe = SphericalGaussian([0.0, 0.0, 1.0], lam, [1.0, 1.0, 1.0])
        closed = integrate_sg_sphere(lobe)
        quad = quadrature_integral(lobe, n_lat=8192, n_lon=128)
        worst = max(worst, float(np.max(np.abs(quad - closed) / closed)))
    elapsed = time.perf_counter() - t0
    report(1, "sg sphere integral", worst <= 1e-4 and elapsed < 1.0,
           f"max rel err {worst:.3g}, {elapsed:.2f} s")


def test_criterion_02_diffuse_furnace():
    """Unit albedo under constant light renders the light value."""
    cam, g = wall_camera()
    level = 0.7
    img = render_diffuse(g, constant_env(level))
    err = float(np.max(np.abs(img.data - level) / level))
    report(2, "diffuse furnace", err <= 1e-3, f"max rel err {err:.3g}")


def test_criterion_03_specular_oracle():
    """Quadrature specular render agrees with importance-sampled MC and
    never amplifies a constant light."""
    cam, g = wall_camera(size=8)
    env = SgEnvironment((
        SphericalGaussian(normalize([0.3, 0.2, -0.9]), 6.0, [1.0, 0.8, 0.6]),
        SphericalGaussian(normalize([-0.4, 0.1, -0.8]), 1.5, [0.4, 0.5, 0.7]),
    ))
    quad = render_specular(g, env, cam, resolution=(128, 256))
    mc = mc_render_specular(g, env, cam, n_samples=100000, seed=0)
    rel = float(np.max(np.abs(quad.data - mc.data) / np.abs(mc.data)))
    furnace_max = 0.0
    for rough in (0.2, 0.5, 1.0):
        rg = GBuffer(albedo=g.albedo, roughness=np.full(g.shape, rough),
                     normal=g.normal, depth=g.depth)
        img = render_specular(rg, constant_env(1.0), cam)
        furnace_max = max(furnace_max, float(np.max(img.data)))
    ok = rel <= 2e-2 and furnace_max <= 1.0 + 1e-2
    report(3, "specular oracle", ok,
           f"mc rel err {rel:.3g}, white furnace max {furnace_max:.4f}")


def test_criterion_04_compositing_equivalence():
    """Both compositing orders agree where theory says they must, and
    weights plus residual transmittance always telescope to one."""
    l = normalize([0.2, -0.4, 0.9])

    opaque = constant_volume(1.0, [2.0, 1.0, 0.5], normalize([0.3, 0.5, 0.8]),
                             6.0)
    s1 = sample_ray(opaque, [0.0, 0.0, -3.0], [0.0, 0.0, 1.0], n_r=1)
    d_opaque = rel_err(composite_sg_before(s1, l), composite_sg_after(s1, l))

    homog = constant_volume(0.5, [1.0, 2.0, 0.4], normalize([0.1, -0.7, 0.7]),
                            3.0)
    s128 = sample_ray(homog, [0.0, 0.0, -3.0], [0.0, 0.0, 1.0], n_r=128)
    d_homog = rel_err(composite_sg_before(s128, l), composite_sg_after(s128, l))
    w_sum = float(compositing_weights(s128.records[0]).sum())

    rng = np.random.default_rng(9)
    vol = random_volume(rng)
    alphas = np.empty((10000, 16))
    for i in range(10000):
        origin = 3.0 * normalize(rng.normal(size=3))
        target = rng.uniform(-0.8, 0.8, size=3)
        alphas[i] = sample_ray(vol, origin, normalize(target - origin),
                               n_r=16).records[0]
    w = compositing_weights(alphas)
    identity = np.abs(w.sum(axis=-1) + np.prod(1.0 - alphas, axis=-1) - 1.0)
    d_identity = float(identity.max())

    ok = (d_opaque <= 1e-9 and d_homog <= 1e-9
          and abs(w_sum - 1.0) <= 1e-9 and d_identity <= 1e-9)
    report(4, "compositing equivalence", ok,
           f"opaque {d_opaque:.2g}, homog {d_homog:.2g}, "
           f"weight sum dev {abs(w_sum - 1.0):.2g}, identity {d_identity:.2g}")


def test_criterion_05_order_benchmark():
    """Compositing after aggregation needs one lobe evaluation per ray and
    runs faster than evaluating at every sample."""
    vol = random_volume(np.random.default_rng(3))
    res = bench_orders(vol, rays=100000, n_r=128, seed=0)
    ratio_ok = (res["g_evals_before"] == 128 * res["g_evals_after"]
                and res["g_evals_after"] == 100000)
    faster = res["seconds_after"] < res["seconds_before"]
    report(5, "operation order benchmark", ratio_ok and faster,
           f"evals {res['g_evals_before']}:{res['g_evals_after']}, "
           f"before {res['seconds_before']:.3f} s, "
           f"after {res['seconds_after']:.3f} s")


def _fit_recovery(true_env):
    target = decode_env(true_env, rows=32, cols=64)
    t0 = time.perf_counter()
    result = fit_sg(target, num_lobes=len(true_env.lobes))
    elapsed = time.perf_counter() - t0
    axis_deg = 0.0
    d_log_eta = 0.0
    d_log_lam = 0.0
    for i_fit, i_ref in match_lobes(result.environment, true_env):
        fit = result.environment.lobes[i_fit]
        ref = true_env.lobes[i_ref]
        cos_t = np.clip(fit.axis @ ref.axis, -1.0, 1.0)
        axis_deg = max(axis_deg, float(np.degrees(np.arccos(cos_t))))
        d_log_eta = max(d_log_eta, float(
            np.max(np.abs(np.log(fit.intensity) - np.log(ref.intensity)))))
        d_log_lam = max(d_log_lam, float(
            abs(np.log(fit.sharpness) - np.log(ref.sharpness))))
    return axis_deg, d_log_eta, d_log_lam, result.iterations, elapsed


def test_criterion_06_fit_recovery():
    """Synthesize-then-fit recovers one lobe and three separated lobes."""
    single = SgEnvironment((
        SphericalGaussian(normalize([0.3, -0.1, 0.95]), 9.0, [1.2, 0.8, 0.5]),
    ))
    triple = SgEnvironment((
        SphericalGaussian([0.0, 0.0, 1.0], 4.0, [1.5, 1.0, 0.5]),
        SphericalGaussian(normalize([1.0, 0.2, -0.1]), 12.0, [0.3, 0.6, 0.9]),
        SphericalGaussian(normalize([-0.3, 0.9, 0.2]), 25.0, [0.8, 0.2, 0.4]),
    ))
    details = []
    ok = True
    for name, env in (("S=1", single), ("S=3", triple)):
        axis_deg, d_eta, d_lam, iters, elapsed = _fit_recovery(env)
        ok = ok and (axis_deg <= 1.0 and d_eta <= 1e-2 and d_lam <= 1e-2
                     and iters <= 200 and elapsed < 10.0)
        details.append(f"{name}: axis {axis_deg:.2g} deg, dlog eta {d_eta:.2g}, "
                       f"dlog lam {d_lam:.2g}, {iters} iters, {elapsed:.2f} s")
    report(6, "sg fit recovery", ok, "; ".join(details))


def test_criterion_07_gradient_check():
    """Analytic lobe partials match central differences over 1000 draws."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        axis = normalize(rng.normal(size=3))
        lobe = SphericalGaussian(
            axis, rng.uniform(0.1, 40.0), rng.uniform(0.05, 3.0, size=3)
        )
        l = normalize(rng.normal(size=3))
        g = sg_gradients(lobe, l)
        d_eta, d_lam, d_theta, d_phi = fd_gradients(lobe, l)
        worst = max(
            worst,
            rel_err(g["intensity"], d_eta),
            rel_err(g["sharpness"], d_lam),
            rel_err(g["theta"], d_theta),
            rel_err(g["phi"], d_phi),
        )
    report(7, "gradient check", worst <= 1e-4, f"max rel err {worst:.3g}")


def test_criterion_08_weight_and_mask():
    """Hand-derived reprojection weight and mask cases match exactly."""
    w = multiview_weight([0.5, 2.0])
    w_ok = np.array_equal(w, [1.0, 0.0])
    m = multiview_mask([0.04, 0.06, 0.01])
    m_ok = np.array_equal(m, [1, 1, 0, 1])
    rng = np.random.default_rng(8)
    sums_ok = True
    for _ in range(20):
        wr = multiview_weight(rng.uniform(0.01, 5.0, size=4))
        sums_ok = sums_ok and abs(float(wr.sum()) - 1.0) <= 1e-12
    fallback = multiview_weight([np.inf, np.inf, np.inf])
    fb_ok = np.array_equal(fallback, np.full(3, 1.0 / 3.0))
    ok = w_ok and m_ok and sums_ok and fb_ok
    report(8, "multiview weight and mask", ok,
           f"w {w.tolist()}, m {m.tolist()}, sums to 1 {sums_ok}, "
           f"uniform fallback {fb_ok}")


def test_criterion_09_attention_semantics():
    """Masked rows cannot influence a single bit; weighted outputs are
    convex combinations of the value rows."""
    rng = np.random.default_rng(42)
    bitwise_ok = True
    convex_ok = True
    for _ in range(100):
        seq, params = random_setup(rng)
        mask = np.array([1, 1, 0, 1, 0])
        base = masked_attention(seq, params, mask)
        garbled = np.array(seq.tokens)
        garbled[1] = rng.normal(size=6) * 1e6
        garbled[3] = -rng.normal(size=6) * 1e6
        out = masked_attention(TokenSequence(seq.target, garbled), params, mask)
        bitwise_ok = bitwise_ok and np.array_equal(base, out)

        weights = rng.uniform(0.0, 2.0, size=4)
        out_w, coeff = weighted_attention(seq, params, weights,
                                          return_coefficients=True)
        values = seq.tokens @ params.wv.T
        convex_ok = convex_ok and bool(
            np.all(coeff >= 0.0)
            and abs(float(coeff.sum()) - 1.0) <= 1e-12
            and np.allclose(out_w, coeff @ values, rtol=1e-12)
        )
    report(9, "attention semantics", bitwise_ok and convex_ok,
           f"bitwise invariance {bitwise_ok}, convexity {convex_ok}")


def test_criterion_10_metric_properties():
    """Scale-invariant metrics vanish on scaled copies and never exceed
    their unscaled counterparts; angular error stays in [0, pi]."""
    rng = np.random.default_rng(10)
    base = rng.uniform(0.5, 2.0, size=(6, 6, 3))
    mask = np.ones((6, 6))
    g3_max = max(float(g3_scaled_mse(c * base, base, mask))
                 for c in (0.1, 1.0, 7.0))
    order_ok = True
    for _ in range(100):
        pred, ref, m = random_pair(rng)
        order_ok = order_ok and (
            g2_mse(pred, ref, m) + 1e-15 >= g3_scaled_mse(pred, ref, m)
            and g4_log_mse(pred, ref, m) + 1e-15 >= g5_scaled_log_mse(pred, ref, m)
        )
    bounds_ok = True
    for _ in range(100):
        n1 = rng.normal(size=(4, 4, 3))
        n1 /= np.linalg.norm(n1, axis=-1, keepdims=True)
        n2 = rng.normal(size=(4, 4, 3))
        n2 /= np.linalg.norm(n2, axis=-1, keepdims=True)
        val = g1_angular(n1, n2, np.ones((4, 4)))
        bounds_ok = bounds_ok and 0.0 <= val <= np.pi
    ok = g3_max <= 1e-20 and order_ok and bounds_ok
    report(10, "metric properties", ok,
           f"g3 on scaled copies {g3_max:.2g}, orderings {order_ok}, "
           f"g1 bounds {bounds_ok}")


def test_criterion_11_pfm_round_trip(tmp_path):
    """Fifty random images, denormals included, survive disk bit-exact."""
    rng = np.random.default_rng(11)
    all_exact = True
    for i in range(50):
        h, w = (int(v) for v in rng.integers(1, 17, size=2))
        shape = (h, w, 3) if i % 2 == 0 else (h, w)
        img = rng.uniform(-1e4, 1e4, size=shape).astype(np.float32)
        flat = img.reshape(-1)
        k = rng.integers(0, flat.size, size=6)
        flat[k[0]] = np.float32(1e-45)
        flat[k[1]] = np.float32(-1e-45)
        flat[k[2]] = np.float32(7e-41)
        flat[k[3]] = np.float32(-0.0)
        flat[k[4]] = np.float32(3e38)
        if i % 7 == 0:
            flat[k[5]] = np.float32(-np.inf)
        path = tmp_path / f"rt_{i}.pfm"
        write_pfm(path, img)
        back = read_pfm(path)
        all_exact = all_exact and bool(
            back.shape == img.shape
            and np.array_equal(back.view(np.uint32), img.view(np.uint32))
        )
    report(11, "pfm round trip", all_exact, "50 images bit-exact" if all_exact
           else "bit mismatch")


def test_criterion_12_end_to_end(tmp_path, capsys):
    """Fit lighting from a rendered target, re-render, and compare, all
    through the command-line interface."""
    from sglight.cli import main

    t0 = time.perf_counter()
    true_lobes = (
        SphericalGaussian(normalize([0.3, -0.1, -0.95]), 9.0, [1.2, 0.8, 0.5]),
        SphericalGaussian(normalize([-0.6, 0.2, -0.5]), 3.0, [0.4, 0.5, 0.9]),
    )
    target = decode_env(SgEnvironment(true_lobes), rows=16, cols=32)
    write_pfm(tmp_path / "target.pfm", target.data.astype(np.float32))

    rc_fit = main(["fit", str(tmp_path / "target.pfm"), "--lobes", "2",
                   "--out", str(tmp_path / "lobes.txt")])
    fitted_lines = [
        "sg: " + line + "\n"
        for line in (tmp_path / "lobes.txt").read_text().splitlines()
        if not line.startswith("#")
    ]
    true_lines = [
        "sg: " + " ".join(
            f"{v:.17g}"
            for v in (*lobe.axis, lobe.sharpness, *lobe.intensity)
        ) + "\n"
        for lobe in true_lobes
    ]

    dir_true = tmp_path / "true"
    dir_fit = tmp_path / "fit"
    dir_true.mkdir()
    dir_fit.mkdir()
    scene_true = write_wall_scene(dir_true, lighting="".join(true_lines))
    scene_fit = write_wall_scene(dir_fit, lighting="".join(fitted_lines))
    rc_a = main(["render", str(scene_true), "--out-prefix",
                 str(dir_true / "img")])
    rc_b = main(["render", str(scene_fit), "--out-prefix",
                 str(dir_fit / "img")])

    capsys.readouterr()
    rc_m = main(["metrics", str(dir_fit / "img_full.pfm"),
                 str(dir_true / "img_full.pfm"), "--metric", "g5"])
    g5_value = float(capsys.readouterr().out.strip())
    elapsed = time.perf_counter() - t0

    ok = (rc_fit == rc_a == rc_b == rc_m == 0
          and g5_value <= 1e-3 and elapsed < 60.0)
    report(12, "end to end", ok,
           f"g5 {g5_value:.3g}, {elapsed:.1f} s, exit codes "
           f"{(rc_fit, rc_a, rc_b, rc_m)}")
