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
                  vsg: volume.vsg                   (alternative to sg)
    [render]      quadrature: n_lat n_lon
                  resolution: width height   (both checked, never read, so
                  seed: 0                     older files load; images take
                                              their camera's size)

Referenced files are resolved against the scene file's directory and
must exist. Cameras must be numbered 0..K-1. Every value must be a
finite number. Parse errors carry the line number; the array checks are
left to the constructors the loaded maps are handed to.
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


def parse_scene(path: str) -> Scene:
    """Parse and load a scene file, including referenced PFM/volume data."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()

    cameras: dict = {}
    gbuffer_entries: dict = {}
    lighting_lobes: list = []
    volume = None
    quadrature = (32, 64)
    section = None
    cam_index = None
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
                cameras[cam_index] = {"pose": [], "line": num}
                section = "camera"
            elif name in ("gbuffer", "lighting", "render"):
                section = name
            else:
                raise SceneError(f"unknown section [{name}]", num)
            continue
        if section is None:
            raise SceneError("content before any section", num)
        if ":" not in text:
            raise SceneError("expected 'key: values'", num)
        key, value = (part.strip() for part in text.split(":", 1))

        if section == "camera":
            cam = cameras[cam_index]
            if key == "intrinsics":
                cam["intrinsics"] = _floats(value, 4, num, "intrinsics")
            elif key == "pose":
                cam["pose"].append(_floats(value, 4, num, "pose row"))
            elif key == "size":
                cam["size"] = _ints(value, 2, num, "size")
            elif key in ("image", "depth", "confidence"):
                cam[key] = _resolve(value, base, num)
            else:
                raise SceneError(f"unknown camera key {key!r}", num)
        elif section == "gbuffer":
            if key not in GBUFFER_KEYS:
                raise SceneError(f"unknown gbuffer key {key!r}", num)
            gbuffer_entries[key] = _resolve(value, base, num)
        elif section == "lighting":
            if key == "sg":
                from .sg import SphericalGaussian, normalize
                vals = _floats(value, 7, num, "sg lobe")
                axis = normalize(np.array(vals[0:3]))
                lighting_lobes.append(
                    SphericalGaussian(axis, vals[3], np.array(vals[4:7]))
                )
            elif key == "vsg":
                from .vsg import load_vsg
                volume = load_vsg(_resolve(value, base, num))
            else:
                raise SceneError(f"unknown lighting key {key!r}", num)
        elif section == "render":
            if key == "quadrature":
                quadrature = tuple(_ints(value, 2, num, "quadrature"))
            elif key in ("resolution", "seed"):  # checked so older files load; never read
                _ints(value, 2 if key == "resolution" else 1, num, key)
            else:
                raise SceneError(f"unknown render key {key!r}", num)

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

    gbuffer = None
    if gbuffer_entries:
        for req in GBUFFER_KEYS[:4]:  # confidence is optional
            if req not in gbuffer_entries:
                raise SceneError(f"gbuffer lacks {req}", 1)
        from .brdf import GBuffer
        gbuffer = GBuffer(**{key: pfm.read_pfm(gbuffer_entries[key]) for key in GBUFFER_KEYS
                             if key in gbuffer_entries})

    lighting = None
    if lighting_lobes:
        from .sg import SgEnvironment
        lighting = SgEnvironment(tuple(lighting_lobes))
    return Scene(views, gbuffer, lighting, volume, quadrature)
