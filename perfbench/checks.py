"""Output checks for every benchmark invocation.

Each check recomputes the invocation's outputs independently through
sglight's public functions, from the exact data the generator wrote, and
compares within float32 rounding (outputs are float32 PFMs of float64
results). A check raises `CheckError` on any mismatch and otherwise
returns facts about the outputs (hit rays, iterations, ...) that the
traced run reports as work counters. Calls that exited nonzero are
counted as failed before any check runs.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from sglight.brdf import hemisphere_grid, onb, shading, specular_brdf
from sglight.envmap import EnvironmentMap
from sglight.metrics import g4_log_mse
from sglight.multiview import (
    CameraView, MultiViewSet, depth_projection_error, multiview_mask, multiview_weight,
)
from sglight.sg import SgEnvironment, SphericalGaussian, eval_mixture
from sglight.sgfit import fit_objective
from sglight.vsg import VsgVolume, composite_sg_after, composite_sg_before, sample_ray

from workloads import (
    BENCH_RAYS, FIT_LOBES, FIT_MAX_ITER, G1_ANGLES, RENDER_QUAD, VOLUME_NR,
    read_pfm,
)

# float32 keeps 24 significand bits; two half-ulps of slack on top of the
# float64 reference's own (negligible) summation-order differences
F32_RTOL = 2.0**-22
SAMPLE_PIXELS = 32
BACKFACING_SAMPLES = 4
FIT_LOSS_RTOL = 1e-9
# the fit must explain at least this share of the map's weighted log energy
FIT_EXPLAINED = 0.9


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _close(got, want, what, rtol=F32_RTOL):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    _require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    same_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) == np.sign(want))
    with np.errstate(invalid="ignore"):
        ok = same_inf | (np.abs(got - want) <= rtol * np.abs(want))
    if not np.all(ok):
        idx = np.unravel_index(int(np.argmin(ok)), ok.shape)
        raise CheckError(f"{what}: at {idx} got {got[idx]!r}, expected {want[idx]!r}")


def _render_env(t):
    return SgEnvironment(tuple(
        SphericalGaussian(t["axes"][s], t["sharp"][s], t["inten"][s])
        for s in range(len(t["sharp"]))
    ))


def _camera(f, c, size, rot=None, center=None, depth=None):
    rot = np.eye(3) if rot is None else rot
    center = np.zeros(3) if center is None else center
    return CameraView(f, f, c, c, rot, -rot @ center, size, size, depth=depth)


def check_render(plan, call, res):
    if call is not plan.calls[0]:
        for mine, ref in zip(call.outputs, plan.calls[0].outputs):
            with open(mine, "rb") as a, open(ref, "rb") as b:
                _require(a.read() == b.read(),
                         f"{mine} differs from the single-thread render")
        return {}
    diffuse, specular, full = (read_pfm(p).astype(np.float64) for p in call.outputs)
    _close(full, diffuse + specular, "full vs diffuse + specular",
           rtol=2 * F32_RTOL)
    t = plan.truth
    env = _render_env(t)
    n = t["normal"].shape[0]
    cam = _camera(t["f"], t["c"], n)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    view = cam.center - cam.unproject(jj + 0.5, ii + 0.5, t["depth"])
    view /= np.linalg.norm(view, axis=-1, keepdims=True)
    back = np.sum(view * t["normal"], axis=-1) <= 0.0
    rng = np.random.default_rng([plan.seed, 1])
    picks = np.concatenate([
        rng.choice(np.flatnonzero(~back), SAMPLE_PIXELS - BACKFACING_SAMPLES, False),
        rng.choice(np.flatnonzero(back), BACKFACING_SAMPLES, False),
    ])
    local, weights = hemisphere_grid(RENDER_QUAD)
    for p in picks:
        i, j = divmod(int(p), n)
        normal, v = t["normal"][i, j], view[i, j]
        _close(diffuse[i, j], t["albedo"][i, j] / np.pi
               * shading(env, normal, resolution=RENDER_QUAD),
               f"diffuse pixel {(i, j)}")
        tan, bit = onb(normal)
        dirs = local[:, 0:1] * tan + local[:, 1:2] * bit + local[:, 2:3] * normal
        brdf = np.array([specular_brdf(v, l, normal, t["rough"][i, j]) for l in dirs])
        # The integrand is B(v, l) max(n.l, 0). A float32 normal is unit
        # only to about 1e-7, so n.l and the node's local z, which the
        # renderer uses in its masking term, differ slightly at grazing
        # nodes. Masking grows with the cosine more slowly than the cosine
        # itself, so each node's rendered value lies between B n.l and B z.
        a = brdf * np.maximum(dirs @ normal, 0.0)
        b = brdf * local[:, 2]
        radiance = eval_mixture(env, dirs)
        lo = (np.minimum(a, b) * weights) @ radiance
        hi = (np.maximum(a, b) * weights) @ radiance
        got = specular[i, j]
        _require(np.all(got >= lo * (1 - F32_RTOL)) and np.all(got <= hi * (1 + F32_RTOL)),
                 f"specular pixel {(i, j)}: {got.tolist()} outside {lo.tolist()} .. {hi.tolist()}")
    return {"backfacing_px": int(back.sum())}


def check_vsg_trace(plan, call, res):
    t = plan.truth
    img = read_pfm(call.outputs[0]).astype(np.float64)
    vol = VsgVolume(t["data"], t["lo"], t["hi"])
    composite = composite_sg_before if "before" in call.label else composite_sg_after
    f, c, size = t["f"], t["c"], t["size"]
    want = np.zeros((size, size, 3))
    hits = 0
    for i in range(size):
        for j in range(size):
            ray = np.array([(j + 0.5 - c) / f, (i + 0.5 - c) / f, 1.0])
            ray /= np.linalg.norm(ray)
            samples = sample_ray(vol, np.zeros(3), ray, VOLUME_NR)
            if len(samples):
                hits += 1
                want[i, j] = composite(samples, ray)
    _close(img, want, call.label)
    return {"rays_hit": hits, "rays_missed": size * size - hits}


def check_bench_order(plan, call, res):
    with open(call.outputs[0], newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    _require(rows[0] == ["order", "n_r", "rays", "g_evals", "seconds"],
             f"bad CSV header {rows[0]}")
    _require([r[0] for r in rows[1:]] == ["before", "after"], "bad CSV rows")
    facts = {}
    for order, n_r, rays, g_evals, seconds in rows[1:]:
        _require(int(n_r) == VOLUME_NR and int(rays) == BENCH_RAYS,
                 f"{order}: n_r/rays {n_r}/{rays}")
        want = BENCH_RAYS * VOLUME_NR if order == "before" else BENCH_RAYS
        _require(int(g_evals) == want, f"{order}: g_evals {g_evals} != {want}")
        secs = float(seconds)
        _require(math.isfinite(secs) and secs >= 0.0, f"{order}: seconds {seconds}")
        facts[f"g_evals_{order}"] = int(g_evals)
        facts[f"composite_{order}_s"] = secs
    return facts


def _tiled(path, views):
    img = read_pfm(path).astype(np.float64)
    h = img.shape[0]
    return img.reshape(h, views, -1).transpose(0, 2, 1)


def check_reproject(plan, call, res):
    t = plan.truth
    holey = call.label == "reproject-holes"
    size, depths = (t["hole_size"], t["hole_depths"]) if holey else (t["size"], t["depths"])
    views = len(depths)
    mvs = MultiViewSet(tuple(
        _camera(0.9 * size, size / 2.0, size, rot, center, depth)
        for (rot, center), depth in zip(t["cams"], depths)
    ), target=0)
    emap = _tiled(call.outputs[0], views)
    wmap = _tiled(call.outputs[1], views)
    with open(call.outputs[2], encoding="ascii") as fh:
        rows = [[int(v) for v in line.split()] for line in fh.read().splitlines()]
    _require([r[:2] for r in rows] == [[i, j] for i in range(size) for j in range(size)],
             "mask lines are not one per pixel in row-major order")
    want_e = np.zeros((size, size, views))
    want_w = np.zeros((size, size, views))
    hole = depths[0] <= 0.0
    for row in rows:
        i, j, mask = row[0], row[1], row[2:]
        _require(len(mask) == views + 1, f"mask line {row[:2]} length")
        if hole[i, j]:
            _require(not any(mask[1:]), f"hole pixel {(i, j)} is not masked out")
            want_e[i, j] = emap[i, j]  # any error value, but no weight
            continue
        e = depth_projection_error(mvs, (i, j))
        want_e[i, j] = e.astype(np.float32)
        want_w[i, j] = multiview_weight(e)
        _require(mask == multiview_mask(e).tolist(), f"mask at {(i, j)}")
    _close(emap, want_e, f"{call.label} errors")
    _close(wmap, want_w, f"{call.label} weights")
    masks = np.array([r[3:] for r in rows])
    return {"out_of_frame_frac": float(np.isinf(emap[..., 1:]).mean()),
            "masked_frac": float((masks == 0).mean())}


def check_fit(plan, call, res):
    with open(call.outputs[0], encoding="ascii") as fh:
        lines = fh.read().splitlines()
    _require(len(lines) == FIT_LOBES + 1, f"{len(lines)} lines")
    tail = dict(kv.split("=") for kv in lines[-1].lstrip("# ").split())
    loss, iterations = float(tail["loss"]), int(tail["iterations"])
    _require(tail["converged"] == "1" and 1 <= iterations <= FIT_MAX_ITER,
             f"fit did not converge: {lines[-1]}")
    lobes = []
    for line in lines[:-1]:
        v = [float(x) for x in line.split()]
        lobes.append(SphericalGaussian(v[0:3], v[3], v[4:7]))
    target = EnvironmentMap(plan.truth["env"])
    got = fit_objective(SgEnvironment(tuple(lobes)), target)
    _require(abs(got - loss) <= FIT_LOSS_RTOL * abs(got),
             f"reported loss {loss!r} != objective {got!r}")
    dark = SgEnvironment((SphericalGaussian([0.0, 0.0, 1.0], 1.0, [0.0] * 3),))
    baseline = fit_objective(dark, target)
    _require(loss <= (1.0 - FIT_EXPLAINED) * baseline,
             f"loss {loss!r} explains under {FIT_EXPLAINED:.0%} of {baseline!r}")
    return {"iterations": iterations, "final_loss": loss}


def check_metrics(plan, call, res):
    t = plan.truth
    value = float(res.stdout.strip())
    _require(math.isfinite(value) and value >= 0.0, f"value {value!r}")
    if call.label == "metrics-g5":
        g4 = g4_log_mse(t["pred"], t["ref"], t["mask"])
        _require(value <= g4, f"g5 {value!r} exceeds g4 {g4!r}")
    else:
        # float32 inputs move each dot product by a few 2^-24; the angle
        # moves by that over sin(angle), smallest at the lowest angle
        tol = 8 * 2.0**-24 / math.sin(G1_ANGLES[0])
        _require(abs(value - t["g1_mean"]) <= tol,
                 f"g1 {value!r} != closed form {t['g1_mean']!r}")
    return {}


CHECKS = {
    "render": check_render,
    "vsg-trace": check_vsg_trace,
    "bench-order": check_bench_order,
    "reproject": check_reproject,
    "fit": check_fit,
    "metrics": check_metrics,
}


def check(plan, call, res) -> dict:
    """Run the check for `call` (chosen by its subcommand) on result `res`."""
    return CHECKS[call.argv[0]](plan, call, res)
