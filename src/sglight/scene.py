"""Plain-text scene files.

A scene is a diffable text file whose first nonblank line must be the
format version header "sgscene 1". Sections:

    [camera.N]    intrinsics: fx fy cx cy
                  pose: r11 r12 r13 tx     (three pose rows, world to camera)
                  size: width height
                  image|depth|confidence: relative/path.pfm   (optional)
    [gbuffer]     albedo/roughness/normal/depth: path.pfm
                  confidence: path.pfm                         (optional)
    [lighting]    sg: ax ay az sharpness ir ig ib   (one line per lobe)
                  vsg: volume.vsg   (vsg-trace, bench-order; beside sg)
    [render]      quadrature: n_lat n_lon
                  resolution: width height   (both checked, never read, so
                  seed: 0                     older files load; images take
                                              their camera's size)

Referenced files are resolved against the scene file's directory and
must exist. Cameras must be numbered 0..K-1. pose and sg lines collect
one item each; any other key may appear once per section. Every value
must be a finite number. Parse errors carry the line number; the array
checks are left to the constructors the loaded maps are handed to.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import pfm

if TYPE_CHECKING:
    from .brdf import GBuffer
    from .sg import SgEnvironment
    from .vsg import VsgVolume

VERSION_HEADER = "sgscene 1"
GBUFFER_KEYS = ("albedo", "roughness", "normal", "depth", "confidence")


class SceneError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class Scene:
    cameras: list
    gbuffer: Optional[GBuffer]
    lighting: Optional[SgEnvironment]
    volume: Optional[VsgVolume]
    quadrature: tuple  # render's hemisphere grid, (n_lat, n_lon)


def _floats(text: str, count: int, line: int, what: str):
    parts = text.split()
    if len(parts) != count:
        raise SceneError(f"{what} needs {count} values, got {len(parts)}", line)
    try:
        vals = [float(v) for v in parts]
    except ValueError:
        raise SceneError(f"{what} values must be numbers", line) from None
    if not np.all(np.isfinite(vals)):
        raise SceneError(f"{what} values must be finite", line)
    return vals


def _ints(text: str, count: int, line: int, what: str):
    vals = _floats(text, count, line, what)
    out = [int(v) for v in vals]
    if any(o != v for o, v in zip(out, vals)):
        raise SceneError(f"{what} values must be integers", line)
    return out


def _resolve(path: str, base: str, line: int) -> str:
    full = os.path.join(base, path)
    if not os.path.isfile(full):
        raise SceneError(f"referenced file does not exist: {path}", line)
    return full


def _lobe(text: str, count: int, line: int, what: str):
    from .sg import SphericalGaussian, normalize
    vals = _floats(text, count, line, what)
    return SphericalGaussian(normalize(np.array(vals[0:3])), vals[3], np.array(vals[4:7]))


def _volume(path: str):
    from .vsg import load_vsg
    return load_vsg(path)


# section -> key -> (label, count, parser) of its numbers, or the function
# that takes the resolved path of its referenced file (str keeps the path,
# read once the whole file has parsed). pose and sg collect one item per line.
_GRAMMAR = {
    "camera": {"intrinsics": ("intrinsics", 4, _floats), "pose": ("pose row", 4, _floats),
               "size": ("size", 2, _ints), "image": str, "depth": str, "confidence": str},
    "gbuffer": dict.fromkeys(GBUFFER_KEYS, str),
    "lighting": {"sg": ("sg lobe", 7, _lobe), "vsg": _volume},
    # resolution and seed are checked so older files load, and never read
    "render": {"quadrature": ("quadrature", 2, _ints), "resolution": ("resolution", 2, _ints),
               "seed": ("seed", 1, _ints)},
}


def parse_scene(path: str) -> Scene:
    """Parse and load a scene file, including referenced PFM/volume data."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    cameras: dict = {}
    sections = {"gbuffer": {}, "lighting": {"sg": []}, "render": {}}
    section = store = None
    version_seen = False

    for num, rawline in enumerate(lines, start=1):
        text = rawline.split("#", 1)[0].strip()
        if not text:
            continue
        if not version_seen:
            if text != VERSION_HEADER:
                raise SceneError(
                    f"first line must be the version header {VERSION_HEADER!r}", num
                )
            version_seen = True
            continue
        if text.startswith("[") and text.endswith("]"):
            name = text[1:-1]
            if name.startswith("camera."):
                try:
                    cam_index = int(name.split(".", 1)[1])
                except ValueError:
                    raise SceneError(f"bad camera section {name!r}", num) from None
                if cam_index in cameras:
                    raise SceneError(f"duplicate camera {cam_index}", num)
                section, store = "camera", {"pose": [], "line": num}
                cameras[cam_index] = store
            elif name in sections:
                section, store = name, sections[name]
            else:
                raise SceneError(f"unknown section [{name}]", num)
            continue
        if section is None:
            raise SceneError("content before any section", num)
        if ":" not in text:
            raise SceneError("expected 'key: values'", num)
        key, value = (part.strip() for part in text.split(":", 1))
        rule = _GRAMMAR[section].get(key)
        if rule is None:
            raise SceneError(f"unknown {section} key {key!r}", num)
        if key in store and key not in ("pose", "sg"):  # before a vsg file loads
            raise SceneError(f"duplicate {section} key {key!r}", num)
        if isinstance(rule, tuple):
            label, count, parser = rule
            value = parser(value, count, num, label)
        else:
            value = rule(_resolve(value, base, num))
        if key in ("pose", "sg"):
            store[key].append(value)
        else:
            store[key] = value

    if not version_seen:
        raise SceneError("empty scene file", len(lines) + 1)

    views = []
    for idx in range(len(cameras)):
        if idx not in cameras:
            raise SceneError(
                f"cameras must be numbered 0..{len(cameras) - 1}, missing {idx}",
                1,
            )
        cam = cameras[idx]
        for req in ("intrinsics", "size"):
            if req not in cam:
                raise SceneError(f"camera {idx} lacks {req}", cam["line"])
        if len(cam["pose"]) != 3:
            raise SceneError(f"camera {idx} needs three pose rows", cam["line"])
        pose = np.array(cam["pose"])
        from .multiview import CameraView
        views.append(
            CameraView(
                fx=cam["intrinsics"][0],
                fy=cam["intrinsics"][1],
                cx=cam["intrinsics"][2],
                cy=cam["intrinsics"][3],
                rotation=pose[:, 0:3],
                translation=pose[:, 3],
                width=cam["size"][0],
                height=cam["size"][1],
                **{key: pfm.read_pfm(cam[key])
                   for key in ("image", "depth", "confidence") if key in cam},
            )
        )

    gbuffer, gbuffer_entries = None, sections["gbuffer"]
    if gbuffer_entries:
        for req in GBUFFER_KEYS[:4]:  # confidence is optional
            if req not in gbuffer_entries:
                raise SceneError(f"gbuffer lacks {req}", 1)
        from .brdf import GBuffer
        gbuffer = GBuffer(**{key: pfm.read_pfm(gbuffer_entries[key]) for key in GBUFFER_KEYS
                             if key in gbuffer_entries})

    lighting, lobes = None, sections["lighting"]["sg"]
    if lobes:
        from .sg import SgEnvironment
        lighting = SgEnvironment(tuple(lobes))
    return Scene(views, gbuffer, lighting, sections["lighting"].get("vsg"),
                 tuple(sections["render"].get("quadrature", (32, 64))))
