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


class CliError(RuntimeError):
    pass


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
        raise CliError(f"scene lacks a {what} section required by this command")
    return value


def _cmd_fit(args) -> int:
    from .envmap import EnvironmentMap
    from .sgfit import FitConfig, fit_sg
    result = fit_sg(
        EnvironmentMap(read_pfm(args.target)),
        FitConfig(num_lobes=args.lobes, max_iterations=args.max_iterations),
    )
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
    from .brdf import render_diffuse, render_specular
    from .scene import parse_scene
    scene = parse_scene(args.scene)
    cam = _require(scene, "camera")
    g = _require(scene, "gbuffer")
    env = _require(scene, "lighting")
    res = scene.quadrature
    h, threads = g.shape[0], args.threads
    # specular first: its roughness and camera-size checks fail before any shading
    if threads == 1:
        specular = render_specular(g, env, cam, resolution=res).data
    else:
        from concurrent.futures import ThreadPoolExecutor
        bands = [
            slice(start, min(start + max(1, h // threads), h))
            for start in range(0, h, max(1, h // threads))
        ]
        specular = np.zeros(g.albedo.shape)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = pool.map(
                lambda band: (band, render_specular(g, env, cam, resolution=res,
                                                    rows=band).data[band]),
                bands,
            )
            for band, part in parts:
                specular[band] = part
    diffuse = render_diffuse(g, env, resolution=res).data
    with np.errstate(over="ignore"):  # overflow is reported below
        images = {kind: img.astype(np.float32) for kind, img in
                  (("diffuse", diffuse), ("specular", specular), ("full", diffuse + specular))}
    if not all(np.isfinite(img).all() for img in images.values()):
        raise CliError("rendered radiance overflows the float32 range of PFM")
    for kind, img in images.items():
        write_pfm(f"{args.out_prefix}_{kind}.pfm", img)
    return 0


def _cmd_vsg_trace(args) -> int:
    from .scene import parse_scene
    from .vsg import composite_sg_after, composite_sg_before, sample_ray
    scene = parse_scene(args.scene)
    cam = _require(scene, "camera")
    vol = _require(scene, "volume")
    composite = composite_sg_before if args.order == "before" else composite_sg_after
    rays = cam.pixel_rays()
    img = np.zeros_like(rays)
    origin = cam.center
    for i, j in np.ndindex(rays.shape[:2]):
        samples = sample_ray(vol, origin, rays[i, j], args.nr)
        if len(samples):
            img[i, j] = composite(samples, rays[i, j])
    write_pfm(args.out, img.astype(np.float32))
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
        raise CliError("--nr-sweep must be comma-separated integers") from None
    if not sweep:
        raise CliError("--nr-sweep is empty")
    with open(args.out, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["order", "n_r", "rays", "g_evals", "seconds"])
        for n_r in sweep:
            result = bench_orders(vol, rays=args.rays, n_r=n_r, seed=args.seed)
            writer.writerow(["before", n_r, args.rays,
                             result["g_evals_before"],
                             f"{result['seconds_before']:.6f}"])
            writer.writerow(["after", n_r, args.rays,
                             result["g_evals_after"],
                             f"{result['seconds_after']:.6f}"])
    return 0


def _cmd_reproject(args) -> int:
    from .multiview import (MultiViewSet, depth_projection_errors, multiview_mask,
                            multiview_weight)
    from .scene import parse_scene
    scene = parse_scene(args.scene)
    mvs = MultiViewSet(tuple(scene.cameras), target=args.target)
    tview = mvs.views[args.target]
    if tview.depth is None:  # the pixel grid below is sized by the depth map
        raise CliError(f"camera {args.target} has no depth map")
    h, w = tview.depth.shape
    k = len(mvs)
    pixels = np.indices((h, w)).transpose(1, 2, 0)  # (h, w, 2) of (row, col)
    emap = depth_projection_errors(mvs, pixels)
    wmap = multiview_weight(emap)
    # one row-major line per pixel: row col mask...
    table = np.concatenate([pixels, multiview_mask(emap)], axis=-1).reshape(h * w, -1)
    # K views tiled horizontally into grayscale maps
    write_pfm(args.out[0], emap.transpose(0, 2, 1).reshape(h, w * k).astype(np.float32))
    write_pfm(args.out[1], wmap.transpose(0, 2, 1).reshape(h, w * k).astype(np.float32))
    with open(args.out[2], "w", encoding="ascii") as fh:
        fh.write("".join(" ".join(map(str, row)) + "\n" for row in table.tolist()))
    return 0


def _cmd_metrics(args) -> int:
    from .metrics import METRICS
    a = np.asarray(read_pfm(args.a), dtype=np.float64)
    if args.metric == "g6":
        print(f"{METRICS['g6'](a):.17g}")
        return 0
    b = np.asarray(read_pfm(args.b), dtype=np.float64)
    if args.mask is not None:
        mask = np.asarray(read_pfm(args.mask), dtype=np.float64)
        if mask.ndim != 2:
            raise CliError("mask must be a grayscale PFM")
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
    except (CliError, ValueError, OSError, MemoryError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
