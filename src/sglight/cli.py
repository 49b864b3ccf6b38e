"""Command-line interface.

Subcommands: fit, render, vsg-trace, bench-order, reproject, metrics.
Every command exits 0 on success; failures print one line of the form
"error: <message>" to stderr and exit nonzero (2 for usage problems).
Outputs are byte-identical across reruns (for bench-order, at a fixed
--seed), except the measured seconds column of bench-order.

Each command imports only the modules it runs, inside its own function,
so a short invocation such as `metrics` never loads the shading, volume
or fitting code.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .pfm import read_pfm, write_pfm

METRIC_NAMES = ("g1", "g2", "g3", "g4", "g5", "g6")  # sorted(METRICS), without importing it


class _Parser(argparse.ArgumentParser):
    """argparse with single-line machine-parseable usage errors."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _thread_count(text: str) -> int:
    """argparse type of --threads: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="sglight", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit SG lobes to an equirectangular PFM")
    p.add_argument("target", help="environment map, 3-channel PFM")
    p.add_argument("--lobes", type=int, default=3)
    p.add_argument("--out", required=True, help="output lobe text file")
    p.add_argument("--max-iterations", type=int, default=200)

    p = sub.add_parser("render", help="render a scene's gbuffer under SG lighting")
    p.add_argument("scene")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--threads", type=_thread_count, default=1)

    p = sub.add_parser("vsg-trace", help="ray march a volume in one operation order")
    p.add_argument("scene")
    p.add_argument("--order", choices=("before", "after"), required=True)
    p.add_argument("--nr", type=int, default=128, help="samples per ray")
    p.add_argument("--out", required=True)

    p = sub.add_parser("bench-order", help="time both compositing orders")
    p.add_argument("scene")
    p.add_argument("--rays", type=int, default=100000)
    p.add_argument("--nr-sweep", default="8,32,128", help="comma-separated n_r values")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("reproject", help="cross-view consistency maps for a target view")
    p.add_argument("scene")
    p.add_argument("--target", type=int, required=True, help="target view index")
    p.add_argument("--out", nargs=3, required=True,
                   metavar=("E_PFM", "W_PFM", "M_TXT"))

    p = sub.add_parser("metrics", help="compare two PFM images")
    p.add_argument("a", help="prediction image")
    p.add_argument("b", help="reference image (accepted but not read for g6)")
    p.add_argument("--mask", default=None, help="grayscale PFM, nonzero keeps")
    p.add_argument("--metric", choices=METRIC_NAMES, required=True)
    return parser


def _require(scene, what: str):
    value = {
        "camera": scene.cameras[0] if scene.cameras else None,
        "gbuffer": scene.gbuffer,
        "lighting": scene.lighting,
        "volume": scene.volume,
    }[what]
    if value is None:
        raise ValueError(f"scene lacks a {what} section required by this command")
    return value


def _cmd_fit(args) -> int:
    from .envmap import EnvironmentMap
    from .sgfit import fit_sg
    result = fit_sg(EnvironmentMap(read_pfm(args.target)), num_lobes=args.lobes,
                    max_iterations=args.max_iterations)
    # one line per packed lobe row: ax ay az sharpness ir ig ib
    lines = [" ".join(f"{v:.17g}" for v in row) for row in result.environment.packed]
    lines.append(
        f"# loss={result.final_loss:.17g} iterations={result.iterations} "
        f"converged={int(result.converged)}"
    )
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_render(args) -> int:
    from .brdf import render
    from .scene import parse_scene
    scene = parse_scene(args.scene)
    cam = _require(scene, "camera")
    g = _require(scene, "gbuffer")
    env = _require(scene, "lighting")
    diffuse, specular = render(g, env, cam, scene.quadrature, threads=args.threads)
    with np.errstate(over="ignore"):  # overflow is reported below
        images = {kind: img.astype(np.float32) for kind, img in
                  (("diffuse", diffuse), ("specular", specular), ("full", diffuse + specular))}
    if not all(np.isfinite(img).all() for img in images.values()):
        raise ValueError("rendered radiance overflows the float32 range of PFM")
    for kind, img in images.items():
        write_pfm(f"{args.out_prefix}_{kind}.pfm", img)
    return 0


def _cmd_vsg_trace(args) -> int:
    from .scene import parse_scene
    from .vsg import CHUNK_POINTS, composite_rays, sample_ray
    scene = parse_scene(args.scene)
    cam = _require(scene, "camera")
    vol = _require(scene, "volume")
    grid = cam.pixel_rays()
    n_r = args.nr
    if n_r < 1:  # sample_ray's own check, before the chunk arithmetic
        raise ValueError("n_r must be >= 1")
    # rays are sampled one at a time and composited a chunk at a time from one
    # (8, chunk, n_r) record buffer: 256 KiB up to CHUNK_POINTS samples a ray
    rays = grid.reshape(-1, 3)
    img = np.zeros_like(rays)
    chunk = max(1, CHUNK_POINTS // n_r)
    rec = np.empty((8, chunk, n_r))
    origin = cam.center
    for lo in range(0, len(rays), chunk):
        hits = []
        for p in range(lo, min(lo + chunk, len(rays))):
            s = sample_ray(vol, origin, rays[p], n_r)
            if len(s):
                rec[:, len(hits)] = s.records
                hits.append(p)
        if hits:  # misses stay 0
            img[hits] = composite_rays(rec[:, :len(hits)], rays[hits], args.order)
    write_pfm(args.out, img.reshape(grid.shape).astype(np.float32))
    return 0


def _cmd_bench_order(args) -> int:
    import csv

    from .scene import parse_scene
    from .vsg import bench_orders
    scene = parse_scene(args.scene)
    vol = _require(scene, "volume")
    try:
        sweep = [int(v) for v in args.nr_sweep.split(",") if v.strip()]
    except ValueError:
        raise ValueError("--nr-sweep must be comma-separated integers") from None
    if not sweep:
        raise ValueError("--nr-sweep is empty")
    if args.rays < 1 or min(sweep) < 1:  # bench_orders' own check, before any n_r runs
        raise ValueError("rays and n_r must be >= 1")
    results = [bench_orders(vol, rays=args.rays, n_r=n_r, seed=args.seed) for n_r in sweep]
    with open(args.out, "w", newline="", encoding="ascii") as fh:  # once every n_r has run
        writer = csv.writer(fh)
        writer.writerow(["order", "n_r", "rays", "g_evals", "seconds"])
        for n_r, result in zip(sweep, results):
            for order in ("before", "after"):
                writer.writerow([order, n_r, args.rays, result[f"g_evals_{order}"],
                                 f"{result[f'seconds_{order}']:.6f}"])
    return 0


def _mask_patterns(k: int) -> np.ndarray:
    """(ceil(K / 8), 256) strings " m m ..." of the mask entries each packed byte holds.

    Byte g, bit b (little bit order) is the entry of view 8g + b; the last
    byte's strings end the line. A code with bits beyond its byte's views stays None.
    """
    table = np.empty(((k + 7) // 8, 256), dtype=object)
    for g in range(len(table)):
        bits, end = min(8, k - 8 * g), "\n" if g == len(table) - 1 else ""
        for code in range(1 << bits):
            table[g, code] = "".join(f" {code >> b & 1}" for b in range(bits)) + end
    return table


def _mask_lines(rows: slice, codes, patterns) -> str:
    """m.txt lines "i j 1 m_1 ... m_K" of a band of whole target rows.

    codes (rows, W, ceil(K / 8)) uint8 holds each pixel's view entries,
    packed as np.packbits(..., axis=-1, bitorder="little") packs them, and
    patterns is _mask_patterns(K). Each line joins the strings f"{i} ",
    f"{j} 1" and one pattern per byte, so no pixel is formatted on its own.
    """
    n, w, g = codes.shape
    parts = np.empty((n, w, 2 + g), dtype=object)
    parts[..., 0] = np.array([f"{i} " for i in range(rows.start, rows.stop)], dtype=object)[:, None]
    parts[..., 1] = [f"{j} 1" for j in range(w)]
    parts[..., 2:] = patterns[np.arange(g), codes]
    return "".join(parts.ravel().tolist())


def _cmd_reproject(args) -> int:
    from .multiview import MultiViewSet, consistency_maps
    from .scene import parse_scene
    scene = parse_scene(args.scene)
    mvs = MultiViewSet(tuple(scene.cameras), target=args.target)
    bands, planes, codes = consistency_maps(mvs)  # every band, before any output opens
    # error and weight planes (H, K, W), each K views tiled horizontally into a grayscale map
    for path, plane in zip(args.out[:2], planes):
        write_pfm(path, plane.reshape(len(plane), -1))
    patterns = _mask_patterns(planes.shape[2])
    with open(args.out[2], "w", encoding="ascii") as fh:  # one line per pixel, row-major
        for band in bands:
            fh.write(_mask_lines(band, codes[band], patterns))
    return 0


def _cmd_metrics(args) -> int:
    from .metrics import METRICS
    a = np.asarray(read_pfm(args.a), dtype=np.float64)
    if args.metric == "g6":
        if args.mask is not None:
            raise ValueError("g6 takes no mask")
        print(f"{METRICS['g6'](a):.17g}")
        return 0
    b = np.asarray(read_pfm(args.b), dtype=np.float64)
    if args.mask is not None:
        mask = np.asarray(read_pfm(args.mask), dtype=np.float64)
        if mask.ndim != 2:
            raise ValueError("mask must be a grayscale PFM")
    else:
        mask = np.ones(a.shape[:2] if a.ndim == 3 else a.shape)
    value = METRICS[args.metric](a, b, mask)
    print(f"{value:.17g}")
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "render": _cmd_render,
    "vsg-trace": _cmd_vsg_trace,
    "bench-order": _cmd_bench_order,
    "reproject": _cmd_reproject,
    "metrics": _cmd_metrics,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
