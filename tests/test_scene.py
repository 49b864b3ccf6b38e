"""Scene file parsing: happy path, referenced data, and error reporting."""

import numpy as np
import pytest

from sglight.pfm import write_pfm
from sglight.scene import Scene, SceneError, parse_scene
from sglight.vsg import VsgVolume, save_vsg


def write_gbuffer(dirpath, size=4):
    write_pfm(dirpath / "albedo.pfm",
              np.full((size, size, 3), 0.5, dtype=np.float32))
    write_pfm(dirpath / "rough.pfm",
              np.full((size, size), 0.4, dtype=np.float32))
    normal = np.zeros((size, size, 3), dtype=np.float32)
    normal[..., 2] = -1.0
    write_pfm(dirpath / "normal.pfm", normal)
    write_pfm(dirpath / "depth.pfm",
              np.full((size, size), 2.0, dtype=np.float32))


def basic_scene_text(extra=""):
    return (
        "sgscene 1\n"
        "# a comment line\n"
        "[camera.0]\n"
        "intrinsics: 20 20 2 2\n"
        "pose: 1 0 0 0\n"
        "pose: 0 1 0 0\n"
        "pose: 0 0 1 0\n"
        "size: 4 4\n"
        "[gbuffer]\n"
        "albedo: albedo.pfm\n"
        "roughness: rough.pfm\n"
        "normal: normal.pfm\n"
        "depth: depth.pfm\n"
        "[lighting]\n"
        "sg: 0 0 1 5.0 1.0 0.5 0.25\n"
        "[render]\n"
        "resolution: 4 4\n"
        "quadrature: 16 32\n"
        "seed: 7\n" + extra
    )


class TestParse:
    def test_full_scene(self, tmp_path):
        write_gbuffer(tmp_path)
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(basic_scene_text())
        scene = parse_scene(scene_file)
        assert isinstance(scene, Scene)
        assert len(scene.cameras) == 1
        cam = scene.cameras[0]
        assert cam.fx == 20.0 and cam.width == 4
        assert scene.gbuffer is not None
        np.testing.assert_allclose(scene.gbuffer.albedo, 0.5)
        assert scene.lighting is not None and scene.lighting.num_lobes == 1
        lobe = scene.lighting.lobes[0]
        np.testing.assert_allclose(lobe.axis, [0.0, 0.0, 1.0])
        assert lobe.sharpness == 5.0
        assert scene.quadrature == (16, 32)
        assert not hasattr(scene, "seed")  # read, then dropped
        assert not hasattr(scene, "resolution")
        assert scene.volume is None

    def test_lobe_axis_normalized_at_parse(self, tmp_path):
        write_gbuffer(tmp_path)
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(
            "sgscene 1\n[lighting]\nsg: 0 0 9 5.0 1 1 1\n"
        )
        scene = parse_scene(scene_file)
        np.testing.assert_allclose(
            scene.lighting.lobes[0].axis, [0.0, 0.0, 1.0]
        )

    def test_vsg_lighting(self, tmp_path):
        vol = VsgVolume.from_fields(
            np.full((2, 2, 2), 0.5), np.ones((2, 2, 2, 3)),
            np.broadcast_to([0.0, 0.0, 1.0], (2, 2, 2, 3)).copy(),
            np.ones((2, 2, 2)),
            bbox_min=[-1.0, -1.0, -1.0], bbox_max=[1.0, 1.0, 1.0],
        )
        save_vsg(tmp_path / "vol.vsg", vol)
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text("sgscene 1\n[lighting]\nvsg: vol.vsg\n")
        scene = parse_scene(scene_file)
        assert scene.volume is not None
        assert scene.volume.dims == (2, 2, 2)
        assert scene.lighting is None

    def test_multiple_cameras_with_depth(self, tmp_path):
        write_pfm(tmp_path / "d.pfm", np.full((4, 4), 2.0, dtype=np.float32))
        text = (
            "sgscene 1\n"
            "[camera.0]\n"
            "intrinsics: 8 8 2 2\npose: 1 0 0 0\npose: 0 1 0 0\n"
            "pose: 0 0 1 0\nsize: 4 4\ndepth: d.pfm\n"
            "[camera.1]\n"
            "intrinsics: 8 8 2 2\npose: 1 0 0 0.1\npose: 0 1 0 0\n"
            "pose: 0 0 1 0\nsize: 4 4\ndepth: d.pfm\n"
        )
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(text)
        scene = parse_scene(scene_file)
        assert len(scene.cameras) == 2
        assert scene.cameras[1].depth is not None
        np.testing.assert_allclose(scene.cameras[1].translation,
                                   [0.1, 0.0, 0.0])


class TestErrors:
    def test_missing_header(self, tmp_path):
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text("[lighting]\nsg: 0 0 1 1 1 1 1\n")
        with pytest.raises(SceneError) as exc:
            parse_scene(scene_file)
        assert exc.value.line == 1

    def test_unknown_section(self, tmp_path):
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text("sgscene 1\n[telephone]\n")
        with pytest.raises(SceneError) as exc:
            parse_scene(scene_file)
        assert exc.value.line == 2

    def test_missing_referenced_file(self, tmp_path):
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(
            "sgscene 1\n[gbuffer]\nalbedo: nowhere.pfm\n"
        )
        with pytest.raises(SceneError) as exc:
            parse_scene(scene_file)
        assert exc.value.line == 3
        assert "nowhere.pfm" in str(exc.value)

    def test_camera_numbering_gap(self, tmp_path):
        text = (
            "sgscene 1\n"
            "[camera.0]\nintrinsics: 8 8 2 2\npose: 1 0 0 0\n"
            "pose: 0 1 0 0\npose: 0 0 1 0\nsize: 4 4\n"
            "[camera.2]\nintrinsics: 8 8 2 2\npose: 1 0 0 0\n"
            "pose: 0 1 0 0\npose: 0 0 1 0\nsize: 4 4\n"
        )
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(text)
        with pytest.raises(SceneError, match="missing 1"):
            parse_scene(scene_file)

    def test_incomplete_gbuffer(self, tmp_path):
        write_gbuffer(tmp_path)
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text("sgscene 1\n[gbuffer]\nalbedo: albedo.pfm\n")
        with pytest.raises(SceneError, match="lacks"):
            parse_scene(scene_file)

    def test_non_numeric_value(self, tmp_path):
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(
            "sgscene 1\n[lighting]\nsg: a b c 1 1 1 1\n"
        )
        with pytest.raises(SceneError) as exc:
            parse_scene(scene_file)
        assert exc.value.line == 3

    @pytest.mark.parametrize("value", ["1 2", "1.5", "x", ""])
    def test_ignored_seed_still_one_integer(self, tmp_path, value):
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(f"sgscene 1\n[render]\nseed: {value}\n")
        with pytest.raises(SceneError) as exc:
            parse_scene(scene_file)
        assert exc.value.line == 3

    @pytest.mark.parametrize("section,key", [("render", "resolution"),
                                             ("render", "quadrature"),
                                             ("camera.0", "size")])
    @pytest.mark.parametrize("value", ["inf", "1e999", "nan"])
    def test_non_finite_integers(self, tmp_path, section, key, value):
        """Values int() cannot convert are a SceneError on their line."""
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(f"sgscene 1\n[{section}]\n{key}: 4 {value}\n")
        with pytest.raises(SceneError, match="finite") as exc:
            parse_scene(scene_file)
        assert exc.value.line == 3

    def test_content_before_section(self, tmp_path):
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text("sgscene 1\nresolution: 4 4\n")
        with pytest.raises(SceneError) as exc:
            parse_scene(scene_file)
        assert exc.value.line == 2

    def test_wrong_pose_row_count(self, tmp_path):
        text = (
            "sgscene 1\n[camera.0]\nintrinsics: 8 8 2 2\n"
            "pose: 1 0 0 0\nsize: 4 4\n"
        )
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(text)
        with pytest.raises(SceneError, match="three pose rows"):
            parse_scene(scene_file)

    def test_empty_file(self, tmp_path):
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text("\n# only comments\n")
        with pytest.raises(SceneError):
            parse_scene(scene_file)

    @pytest.mark.parametrize("section,line", [
        ("camera.0", "intrinsics: 4 4 2 2"),
        ("camera.0", "size: 4 4"),
        ("camera.0", "depth: depth.pfm"),
        ("gbuffer", "albedo: albedo.pfm"),
        ("render", "quadrature: 4 8"),
        ("render", "resolution: 4 4"),
        ("render", "seed: 0"),
    ])
    def test_repeated_single_valued_key(self, tmp_path, section, line):
        """A second line of a key that holds one value is refused on its line."""
        write_gbuffer(tmp_path)
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(f"sgscene 1\n[{section}]\n{line}\n# again\n{line}\n")
        with pytest.raises(SceneError, match="duplicate") as exc:
            parse_scene(scene_file)
        assert exc.value.line == 5

    def test_repeated_vsg_is_refused_before_loading(self, tmp_path):
        """The second vsg file is never read: its bad header would raise otherwise."""
        save_vsg(tmp_path / "vol.vsg", VsgVolume(np.zeros((1, 1, 1, 8)), [0, 0, 0], [1, 1, 1]))
        (tmp_path / "bad.vsg").write_bytes(b"not a volume\n")
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text("sgscene 1\n[lighting]\nvsg: vol.vsg\nvsg: bad.vsg\n")
        with pytest.raises(SceneError, match="duplicate lighting key 'vsg'") as exc:
            parse_scene(scene_file)
        assert exc.value.line == 4

    def test_duplicate_camera(self, tmp_path):
        text = "sgscene 1\n[camera.0]\n[camera.0]\n"
        scene_file = tmp_path / "scene.txt"
        scene_file.write_text(text)
        with pytest.raises(SceneError, match="duplicate"):
            parse_scene(scene_file)
