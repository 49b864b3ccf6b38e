"""Seeded inputs and invocation lists for the benchmark's three workloads.

`generate(name, seed, root)` writes every input file of one workload under
`root` and returns a `Plan`: the sglight CLI invocations to run, in order,
and the exact input data the output checks compare against. The same seed
gives byte-identical files. The program only ever sees the written files.

Files are written by the small PFM and VSG writers below rather than by
sglight's own, so a defect in the program's writers cannot leak into the
inputs, and the checks read outputs with `read_pfm` from this module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

L2_BYTES = 4 * 2**20
L3_BYTES = 300 * 2**20


@dataclass(frozen=True)
class Spec:
    """Why a workload exists and the input properties it covers."""

    why: str
    properties: dict


SPECS = {
    "render": Spec(
        why="brdf and the sg lobe kernel do nearly all the work on (P, M, 3) "
            "tensors far larger than L2; plain single-thread baseline plus "
            "--threads 2; write side of pfm",
        properties={
            "loops": "batched arrays",
            "working_set": "(P, M, 3) float64 of 113 MB, far above L2",
            "ray_misses": "none (10% backfacing pixels instead)",
            "dominated_by": "compute",
        },
    ),
    "volume": Spec(
        why="vsg dominates, used two ways: a per-pixel Python loop over "
            "sample_ray with ray misses, and the batched all-hit _sample_batch",
        properties={
            "loops": "per-pixel Python loop (vsg-trace) and batched arrays "
                     "(bench-order)",
            "working_set": "volume 128 KiB fits L2; bench-order's (rays, n_r, 8) "
                           "float64 records, 134 MB (786 MB peak), do not",
            "ray_misses": "about a quarter of camera rays miss the box",
            "dominated_by": "compute",
        },
    ),
    "analysis": Spec(
        why="multiview reprojection and sgfit do the work; short metrics "
            "calls are dominated by start-up; read side of pfm; keeps the "
            "known depth-hole defect visible",
        properties={
            "loops": "per-pixel Python loop (reproject) and batched arrays "
                     "(fit, metrics)",
            "working_set": "depth maps and fit Jacobian (9.4 MB) around L2",
            "ray_misses": "out-of-frame reprojections and target depth holes",
            "dominated_by": "start-up for metrics, compute for reproject and "
                            "fit (one fit, up to symmetry, on every seed)",
        },
    ),
}

RENDER_SIZE = 48
RENDER_QUAD = (32, 64)
RENDER_LOBES = 4
VOLUME_DIMS = (16, 16, 16)
VOLUME_SIZE = 64
VOLUME_NR = 128
BENCH_RAYS = 16384
VIEWS = 4
REPROJECT_SIZE = 64
HOLE_SIZE = 16
HOLE_FRAC = 0.05
FIT_SHAPE = (64, 128)
FIT_LOBES = 8
FIT_SOURCE_LOBES = 10
FIT_MAX_ITER = 100
FIT_BASE_SEED = (0, 7)
METRIC_SIZE = 64
G1_ANGLES = (0.2, 1.4)


@dataclass
class Call:
    """One CLI invocation. `work` is its share of the workload's work units."""

    label: str
    argv: list
    outputs: list
    work: float = 0.0


@dataclass
class Plan:
    name: str
    root: str
    calls: list
    work_unit: str  # what one unit of Call.work counts
    truth: dict = field(default_factory=dict)
    load: list = field(default_factory=list)  # ("scene"|"pfm", path) for setup_s
    sizes: dict = field(default_factory=dict)
    seed: int = 0


def write_pfm(path, data) -> None:
    """Little-endian PFM, rows stored bottom to top."""
    arr = np.asarray(data, dtype="<f4")
    magic = b"PF" if arr.ndim == 3 else b"Pf"
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{w} {h}\n-1.0\n".encode("ascii"))
        fh.write(np.ascontiguousarray(arr[::-1]).tobytes())


def read_pfm(path) -> np.ndarray:
    """Read a PFM as float32, top row first; either endianness."""
    with open(path, "rb") as fh:
        buf = fh.read()
    lines = buf.split(b"\n", 3)
    if len(lines) != 4 or lines[0] not in (b"PF", b"Pf"):
        raise ValueError(f"{path}: not a PFM")
    w, h = (int(v) for v in lines[1].split())
    dtype = "<f4" if float(lines[2]) < 0 else ">f4"
    shape = (h, w, 3) if lines[0] == b"PF" else (h, w)
    data = np.frombuffer(lines[3], dtype=dtype)
    if data.size != int(np.prod(shape)):
        raise ValueError(f"{path}: payload size mismatch")
    return data.astype(np.float32).reshape(shape)[::-1]


def _write_vsg(path, data, lo, hi) -> None:
    x, y, z = data.shape[:3]
    header = (
        f"VSG1\n{x} {y} {z}\n"
        + " ".join(repr(float(v)) for v in (*lo, *hi))
        + "\nalpha intensity axis sharpness\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(data, dtype="<f4").tobytes())


def _f32(a) -> np.ndarray:
    """Round to float32 as the program will read it, back in float64."""
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def _unit(v) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, sorted(SPECS).index(name)])


def _num(v) -> str:
    return repr(float(v))


def _camera_text(index, f, c, rot, trans, size, depth=None) -> str:
    lines = [f"[camera.{index}]", f"intrinsics: {_num(f)} {_num(f)} {_num(c)} {_num(c)}"]
    for r in range(3):
        lines.append("pose: " + " ".join(_num(v) for v in (*rot[r], trans[r])))
    lines.append(f"size: {size} {size}")
    if depth:
        lines.append(f"depth: {depth}")
    return "\n".join(lines) + "\n"


def _pixel_rays(f, c, size) -> np.ndarray:
    """Unit camera-frame rays through pixel centers, shape (size, size, 3)."""
    jj, ii = np.meshgrid(np.arange(size), np.arange(size), indexing="xy")
    ray = np.stack([(jj + 0.5 - c) / f, (ii + 0.5 - c) / f, np.ones(jj.shape)], axis=-1)
    return _unit(ray)


def _random_lobes(rng, count, sharp, inten):
    axes = _unit(rng.normal(size=(count, 3)))
    sharpness = rng.uniform(*sharp, size=count)
    intensity = rng.uniform(*inten, size=(count, 3))
    return axes, sharpness, intensity


def _render(rng, root) -> Plan:
    n = RENDER_SIZE
    f, c = 40.0, n / 2.0
    view = -_pixel_rays(f, c, n)  # camera at the origin, identity pose
    back = rng.random((n, n)) < 0.1
    normal = np.empty((n, n, 3))
    todo = np.ones((n, n), dtype=bool)
    while np.any(todo):  # rejection-sample normals on the wanted side of v
        cand = _unit(np.where(back[..., None], -view, view)
                     + 0.8 * rng.normal(size=(n, n, 3)))
        cos_v = np.sum(cand * view, axis=-1)
        ok = todo & np.where(back, cos_v < -0.05, cos_v > 0.05)
        normal[ok] = cand[ok]
        todo &= ~ok
    normal = _f32(normal)
    albedo = _f32(rng.uniform(0.1, 0.9, size=(n, n, 3)))
    rough = _f32(rng.uniform(0.2, 0.9, size=(n, n)))
    depth = _f32(rng.uniform(2.0, 4.0, size=(n, n)))
    axes, sharp, inten = _random_lobes(rng, RENDER_LOBES, (1.0, 25.0), (0.2, 2.0))
    for name, arr in (("albedo", albedo), ("rough", rough),
                      ("normal", normal), ("depth", depth)):
        write_pfm(os.path.join(root, f"{name}.pfm"), arr)
    text = (
        "sgscene 1\n"
        + _camera_text(0, f, c, np.eye(3), np.zeros(3), n)
        + "[gbuffer]\nalbedo: albedo.pfm\nroughness: rough.pfm\n"
        "normal: normal.pfm\ndepth: depth.pfm\n[lighting]\n"
        + "".join(
            "sg: " + " ".join(_num(v) for v in (*axes[s], sharp[s], *inten[s])) + "\n"
            for s in range(RENDER_LOBES)
        )
        + f"[render]\nresolution: {n} {n}\n"
        f"quadrature: {RENDER_QUAD[0]} {RENDER_QUAD[1]}\n"
    )
    scene = os.path.join(root, "render.txt")
    with open(scene, "w", encoding="ascii") as fh:
        fh.write(text)
    out = os.path.join(root, "out")
    calls = [
        Call(f"render-t{t}", ["render", scene, "--out-prefix", f"{out}/r{t}",
                              "--threads", str(t)],
             [f"{out}/r{t}_{k}.pfm" for k in ("diffuse", "specular", "full")],
             work=n * n)
        for t in (1, 2)
    ]
    m = RENDER_QUAD[0] * RENDER_QUAD[1]
    return Plan(
        "render", root, calls, "pixels shaded",
        truth=dict(albedo=albedo, rough=rough, normal=normal, depth=depth,
                   f=f, c=c, axes=axes, sharp=sharp, inten=inten),
        load=[("scene", scene)],
        sizes=dict(pixels=n * n, quad_nodes=m, lobes=RENDER_LOBES,
                   working_set_bytes=n * n * m * 3 * 8),
    )


def _volume(rng, root) -> Plan:
    dims = VOLUME_DIMS
    lo, hi = np.array([-1.0, -1.0, 1.0]), np.array([1.0, 1.0, 3.0])
    data = np.concatenate(
        [
            rng.uniform(0.0, 0.3, size=dims + (1,)),
            rng.uniform(0.1, 2.0, size=dims + (3,)),
            _unit(rng.normal(size=dims + (3,))),
            rng.uniform(0.0, 20.0, size=dims + (1,)),
        ],
        axis=-1,
    )
    data = _f32(data)
    _write_vsg(os.path.join(root, "vol.vsg"), data, lo, hi)
    n = VOLUME_SIZE
    # rays through |x/z| <= 1 and |y/z| <= 1 hit the box's front face; this
    # focal length leaves about a quarter of the image outside that cone
    f, c = 27.7, n / 2.0
    scene = os.path.join(root, "volume.txt")
    with open(scene, "w", encoding="ascii") as fh:
        fh.write("sgscene 1\n" + _camera_text(0, f, c, np.eye(3), np.zeros(3), n)
                 + f"[lighting]\nvsg: vol.vsg\n[render]\nresolution: {n} {n}\n")
    out = os.path.join(root, "out")
    calls = [
        Call(f"vsg-trace-{o}", ["vsg-trace", scene, "--order", o,
                                "--nr", str(VOLUME_NR), "--out", f"{out}/v_{o}.pfm"],
             [f"{out}/v_{o}.pfm"], work=n * n * VOLUME_NR)
        for o in ("before", "after")
    ]
    calls.append(Call("bench-order", ["bench-order", scene, "--rays", str(BENCH_RAYS),
                                      "--nr-sweep", str(VOLUME_NR),
                                      "--out", f"{out}/bench.csv",
                                      "--seed", str(int(rng.integers(2**31)))],
                      [f"{out}/bench.csv"]))
    return Plan(
        "volume", root, calls, "ray samples (rays x n_r)",
        truth=dict(data=data, lo=lo, hi=hi, f=f, c=c, size=n),
        load=[("scene", scene)],
        sizes=dict(volume_dims=list(dims), pixels=n * n, n_r=VOLUME_NR,
                   bench_rays=BENCH_RAYS,
                   working_set_bytes=BENCH_RAYS * VOLUME_NR * 8 * 8),
    )


def _rotation(rng, max_angle) -> np.ndarray:
    axis = _unit(rng.normal(size=3))
    angle = rng.uniform(-max_angle, max_angle)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def _reproject_scene(root, tag, cams, plane_n, plane_d, size, holes=None):
    """K cameras whose depth maps are ray distances to one plane."""
    f, c = size * 0.9, size / 2.0
    rays = _pixel_rays(f, c, size)
    text = "sgscene 1\n"
    depths = []
    for k, (rot, center) in enumerate(cams):
        world = rays @ rot  # rows of R^T applied to camera rays
        depth = (plane_d - plane_n @ center) / (world @ plane_n)
        if k == 0 and holes is not None:
            depth = np.where(holes, 0.0, depth)
        depth = _f32(depth)
        depths.append(depth)
        name = f"{tag}_d{k}.pfm"
        write_pfm(os.path.join(root, name), depth)
        text += _camera_text(k, f, c, rot, -rot @ center, size, depth=name)
    path = os.path.join(root, f"{tag}.txt")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path, depths


def _env_radiance(dirs, axes, sharp, inten, sky):
    dot = dirs @ axes.T
    lobes = np.exp(sharp * (dot - 1.0)) @ inten
    return lobes + sky[0] + sky[1] * np.clip(dirs[..., 2:3], 0.0, None)


def _analysis(rng, root) -> Plan:
    out = os.path.join(root, "out")
    plane_n = _unit(np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), 1.0]))
    plane_d = 5.0
    cams = [(np.eye(3), np.zeros(3))] + [
        (_rotation(rng, 0.08), rng.uniform(-0.3, 0.3, size=3)) for _ in range(VIEWS - 1)
    ]
    consistent, depths = _reproject_scene(root, "views", cams, plane_n, plane_d,
                                          REPROJECT_SIZE)
    holes = rng.random((HOLE_SIZE, HOLE_SIZE)) < HOLE_FRAC
    holes.flat[rng.integers(holes.size)] = True  # at least one hole
    holey, hole_depths = _reproject_scene(root, "holes", cams, plane_n, plane_d,
                                          HOLE_SIZE, holes=holes)

    rows, cols = FIT_SHAPE
    theta = (np.arange(rows) + 0.5) * np.pi / rows
    phi = (np.arange(cols) + 0.5) * 2.0 * np.pi / cols
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    dirs = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], -1)
    # Levenberg-Marquardt needs 13 to 100+ iterations on independently drawn
    # targets, which would make wall_s measure the seed. The seed instead
    # turns one fixed target about the pole by whole grid columns and
    # permutes its channels: exact symmetries of the fit, so every seed
    # gets other bytes but the same iteration count.
    base = np.random.default_rng(FIT_BASE_SEED)
    axes, sharp, inten = _random_lobes(base, FIT_SOURCE_LOBES, (5.0, 60.0), (0.2, 3.0))
    sky = (base.uniform(0.02, 0.1, size=3), base.uniform(0.05, 0.3, size=3))
    env = _env_radiance(dirs, axes, sharp[None, :], inten, sky)
    env = _f32(np.roll(env, int(rng.integers(cols)), axis=1)[..., rng.permutation(3)])
    env_path = os.path.join(root, "env.pfm")
    write_pfm(env_path, env)

    n = METRIC_SIZE
    ref = _f32(rng.uniform(0.05, 3.0, size=(n, n, 3)))
    pred = _f32(ref * 1.3 * np.exp(rng.normal(0.0, 0.1, size=ref.shape)))
    mask = _f32(rng.random((n, n)) < 0.7)
    a = _unit(rng.normal(size=(n, n, 3)))
    perp = _unit(np.cross(a, rng.normal(size=(n, n, 3))))
    angle = rng.uniform(*G1_ANGLES, size=(n, n))
    b = np.cos(angle)[..., None] * a + np.sin(angle)[..., None] * perp
    files = dict(pred=pred, ref=ref, mask=mask, na=_f32(a), nb=_f32(b))
    for name, arr in files.items():
        write_pfm(os.path.join(root, f"{name}.pfm"), arr)
    p = {k: os.path.join(root, f"{k}.pfm") for k in files}

    def reproject(label, scene, size):
        outs = [f"{out}/{label}_e.pfm", f"{out}/{label}_w.pfm", f"{out}/{label}_m.txt"]
        return Call(label, ["reproject", scene, "--target", "0", "--out", *outs],
                    outs, work=size * size if label == "reproject" else 0.0)

    calls = [
        reproject("reproject", consistent, REPROJECT_SIZE),
        reproject("reproject-holes", holey, HOLE_SIZE),
        Call("fit", ["fit", env_path, "--lobes", str(FIT_LOBES),
                     "--max-iterations", str(FIT_MAX_ITER),
                     "--out", f"{out}/lobes.txt"], [f"{out}/lobes.txt"]),
        Call("metrics-g5", ["metrics", p["pred"], p["ref"], "--metric", "g5",
                            "--mask", p["mask"]], []),
        Call("metrics-g1", ["metrics", p["na"], p["nb"], "--metric", "g1"], []),
    ]
    return Plan(
        "analysis", root, calls, "target pixels reprojected",
        truth=dict(cams=cams, size=REPROJECT_SIZE, depths=depths,
                   hole_size=HOLE_SIZE, hole_depths=hole_depths, env=env,
                   g1_mean=float(np.mean(angle)), **files),
        load=[("scene", consistent), ("scene", holey), ("pfm", env_path),
              *(("pfm", p[k]) for k in files)],
        sizes=dict(views=VIEWS, reproject_px=REPROJECT_SIZE**2,
                   hole_px=HOLE_SIZE**2, holes=int(holes.sum()),
                   fit_map=list(FIT_SHAPE), fit_lobes=FIT_LOBES,
                   metric_px=n * n,
                   working_set_bytes=rows * cols * 3 * FIT_LOBES * 6 * 8),
    )


_BUILDERS = {"render": _render, "volume": _volume, "analysis": _analysis}


def generate(name: str, seed: int, root: str) -> Plan:
    """Write workload `name`'s inputs for `seed` under root; return its plan."""
    os.makedirs(os.path.join(root, "out"), exist_ok=True)
    plan = _BUILDERS[name](_rng(name, seed), root)
    plan.seed = seed
    return plan
