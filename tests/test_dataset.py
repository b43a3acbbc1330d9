"""Tests for synthetic generation and sequence directory I/O."""

import numpy as np
import pytest

from slowtrack.dataset import (
    Sequence,
    SynthSpec,
    generate,
    load_sequence,
    _write_netpbm,
    save_sequence,
)
from slowtrack.errors import ConfigError, FormatError
from slowtrack.geometry import BBox


def sequences_equal(a: Sequence, b: Sequence) -> bool:
    """Pixel-, ground-truth- and occlusion-exact equality (name ignored)."""
    if a.T != b.T or a.occluded != b.occluded or a.groundtruth != b.groundtruth:
        return False
    return all(np.array_equal(fa.pixels, fb.pixels) for fa, fb in zip(a.frames, b.frames))


class TestGenerate:
    def test_static_target_has_constant_groundtruth(self):
        seq = generate(SynthSpec(T=20, velocity=(0.0, 0.0), scale_rate=1.0, seed=3))
        assert all(b == seq.groundtruth[0] for b in seq.groundtruth)

    def test_kinematics_velocity_two_right(self):
        spec = SynthSpec(T=10, velocity=(2.0, 0.0), start_x=0.0, seed=1)
        seq = generate(spec)
        assert [b.x for b in seq.groundtruth] == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0]

    def test_groundtruth_matches_kinematics_exactly(self):
        spec = SynthSpec(
            T=30, velocity=(1.5, -0.5), scale_rate=1.01, start_x=20.0, start_y=60.0, seed=7
        )
        seq = generate(spec)
        for t, box in enumerate(seq.groundtruth):
            assert box == spec.box_at(t)

    def test_same_seed_is_byte_identical(self):
        spec = SynthSpec(T=8, velocity=(1.0, 1.0), distractors=2, seed=42)
        assert sequences_equal(generate(spec), generate(spec))

    def test_different_seeds_differ(self):
        a = generate(SynthSpec(T=3, seed=0))
        b = generate(SynthSpec(T=3, seed=1))
        assert not sequences_equal(a, b)

    def test_target_exits_frame_rejected(self):
        with pytest.raises(ConfigError):
            generate(SynthSpec(T=100, velocity=(50.0, 0.0)))

    def test_target_exits_left_rejected(self):
        with pytest.raises(ConfigError):
            generate(SynthSpec(T=60, velocity=(-3.0, 0.0)))

    @pytest.mark.parametrize(
        "size, frame",
        # 24 * 10**307 overflows; at 1e-10 the power 10**309 itself does
        [(24.0, 307), (1e-10, 309)],
        ids=["product", "power"],
    )
    def test_overflowing_target_size_rejected(self, size, frame):
        spec = SynthSpec(T=400, target_w=size, target_h=size, scale_rate=10.0)
        with pytest.raises(ConfigError, match=f"^target size overflows at frame {frame};"):
            generate(spec)

    def test_growing_target_stays_in_frame_is_valid(self):
        # Growth around a fixed origin never exits the frame, so this is
        # a legal (if extreme) spec rather than an error.
        seq = generate(SynthSpec(T=10, scale_rate=1.2, seed=1))
        assert seq.T == 10

    def test_occlusion_flags_follow_windows(self):
        spec = SynthSpec(T=12, occlusions=((3, 5), (9, 9)), seed=5)
        seq = generate(spec)
        assert seq.occluded == [
            False, False, False, True, True, True, False, False, False, True, False, False,
        ]

    def test_occluded_frame_still_has_groundtruth(self):
        spec = SynthSpec(T=6, velocity=(2.0, 0.0), start_x=10.0, occlusions=((2, 4),), seed=5)
        seq = generate(spec)
        assert seq.groundtruth[3] == spec.box_at(3)

    def test_occlusion_overdraws_target(self):
        # The occluded frame should look flat where the target was; the
        # visible frame should show high-contrast texture.
        spec = SynthSpec(
            T=2, velocity=(0.0, 0.0), occlusions=((1, 1),), noise_level=0.0, seed=11
        )
        seq = generate(spec)
        gt = seq.groundtruth[0]
        sl = np.s_[int(gt.y) : int(gt.y + gt.h), int(gt.x) : int(gt.x + gt.w)]
        assert seq.frames[0].pixels[sl].std() > 10.0
        assert seq.frames[1].pixels[sl].std() == 0.0

    def test_target_region_visibly_textured(self):
        seq = generate(SynthSpec(T=1, noise_level=0.0, seed=2))
        gt = seq.groundtruth[0]
        inside = seq.frames[0].pixels[
            int(gt.y) : int(gt.y + gt.h), int(gt.x) : int(gt.x + gt.w)
        ]
        assert inside.std() > 10.0

    def test_rgb_frames_have_three_channels(self):
        seq = generate(SynthSpec(T=2, rgb=True, seed=4))
        assert seq.frames[0].pixels.shape == (120, 160, 3)

    def test_distractors_change_pixels_but_not_groundtruth(self):
        base = SynthSpec(T=4, seed=9)
        busy = SynthSpec(T=4, distractors=3, seed=9)
        assert generate(base).groundtruth == generate(busy).groundtruth


class TestSequenceType:
    def test_groundtruth_length_mismatch_rejected(self):
        seq = generate(SynthSpec(T=2, seed=0))
        with pytest.raises(ValueError):
            Sequence("bad", seq.frames, seq.groundtruth[:1])

    @pytest.mark.parametrize("flags", [[True], [False] * 3, [True] * 5])
    def test_occlusion_flag_count_mismatch_rejected(self, flags):
        # One flag per frame, as save_sequence writes and load_sequence
        # reads them; an empty list means none occluded.
        seq = generate(SynthSpec(T=4, seed=0))
        with pytest.raises(ValueError, match=f"4 frames but {len(flags)} occlusion flags"):
            Sequence("bad", seq.frames, seq.groundtruth, occluded=flags)
        assert Sequence("ok", seq.frames, seq.groundtruth, occluded=[]).occluded == [False] * 4

    def test_frames_of_another_shape_rejected(self):
        # track_sequence would stop at frame 3, which does not fit the model
        seq = generate(SynthSpec(T=3, seed=0))
        rgb = generate(SynthSpec(T=1, rgb=True, seed=0)).frames
        shapes = r"frame 3 has shape \(120, 160, 3\), frame 1 \(120, 160\)"
        with pytest.raises(ValueError, match=shapes):
            Sequence("bad", seq.frames[:2] + rgb, seq.groundtruth)


class TestSaveLoad:
    def test_round_trip_equality(self, tmp_path):
        seq = generate(SynthSpec(T=5, velocity=(1.0, 0.5), distractors=1, seed=13))
        save_sequence(seq, tmp_path / "seq")
        assert sequences_equal(load_sequence(tmp_path / "seq"), seq)

    def test_round_trip_rgb(self, tmp_path):
        seq = generate(SynthSpec(T=3, rgb=True, seed=13))
        save_sequence(seq, tmp_path / "seq")
        loaded = load_sequence(tmp_path / "seq")
        assert loaded.frames[0].pixels.ndim == 3
        assert sequences_equal(loaded, seq)

    def test_round_trip_occlusion_flags(self, tmp_path):
        seq = generate(SynthSpec(T=6, occlusions=((1, 2),), seed=20))
        save_sequence(seq, tmp_path / "seq")
        assert load_sequence(tmp_path / "seq").occluded == seq.occluded

    @pytest.mark.parametrize(
        "first, second",
        [
            (SynthSpec(T=6, occlusions=((1, 3),), seed=0), SynthSpec(T=6, seed=0)),
            (SynthSpec(T=6, seed=0), SynthSpec(T=4, seed=1)),
            (SynthSpec(T=3, rgb=True, seed=0), SynthSpec(T=3, seed=0)),
        ],
        ids=["occluded-then-clear", "shorter", "rgb-then-gray"],
    )
    def test_save_replaces_earlier_sequence(self, tmp_path, first, second):
        d = tmp_path / "seq"
        save_sequence(generate(first), d)
        (d / "notes.txt").write_text("kept\n")
        seq = generate(second)
        save_sequence(seq, d)
        assert sequences_equal(load_sequence(d), seq)
        assert (d / "notes.txt").read_text() == "kept\n"

    def test_unpadded_frame_names_load_in_numeric_order(self, tmp_path):
        # benchmark-style 1.pgm .. 12.pgm: by text, 10 would load as frame 2
        d = tmp_path / "seq"
        seq = generate(SynthSpec(T=12, seed=0))
        save_sequence(seq, d)
        for p in (d / "img").iterdir():
            p.rename(p.with_name(f"{int(p.stem)}{p.suffix}"))
        assert sequences_equal(load_sequence(d), seq)

    def test_file_layout(self, tmp_path):
        save_sequence(generate(SynthSpec(T=3, seed=0)), tmp_path / "s")
        imgs = sorted(p.name for p in (tmp_path / "s" / "img").iterdir())
        assert imgs == ["000001.pgm", "000002.pgm", "000003.pgm"]
        gt_lines = (tmp_path / "s" / "groundtruth_rect.txt").read_text().splitlines()
        assert len(gt_lines) == 3

    def test_int_box_groundtruth_written_as_floats(self, tmp_path):
        seq = generate(SynthSpec(T=1, seed=0))
        save_sequence(Sequence("s", seq.frames, [BBox(10, 20, 30, 40)]), tmp_path / "s")
        assert (tmp_path / "s" / "groundtruth_rect.txt").read_bytes() == b"10.0,20.0,30.0,40.0\n"

    def test_empty_sequence_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_sequence(Sequence("empty", [], []), tmp_path / "s")
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("flag", ["2", "x", "true"])
    def test_bad_occlusion_flag_names_file_and_line(self, tmp_path, flag):
        d = tmp_path / "s"
        save_sequence(generate(SynthSpec(T=3, seed=0)), d)
        (d / "occlusion.txt").write_text(f"0\n1\n{flag}\n")
        with pytest.raises(FormatError, match=f"occlusion.txt:3: flag '{flag}'"):
            load_sequence(d)

    def test_count_mismatch_raises_format_error(self, tmp_path):
        d = tmp_path / "s"
        save_sequence(generate(SynthSpec(T=2, seed=0)), d)
        (d / "groundtruth_rect.txt").write_text("1,2,3,4\n")
        with pytest.raises(FormatError):
            load_sequence(d)

    def test_bad_line_reports_line_number(self, tmp_path):
        d = tmp_path / "s"
        save_sequence(generate(SynthSpec(T=2, seed=0)), d)
        (d / "groundtruth_rect.txt").write_text("1,2,3,4\n5,6,seven\n")
        with pytest.raises(FormatError, match=":2"):
            load_sequence(d)

    @pytest.mark.parametrize("name", ["groundtruth_rect.txt", "occlusion.txt"])
    def test_non_utf8_text_file_names_the_file(self, tmp_path, name):
        d = tmp_path / "s"
        save_sequence(generate(SynthSpec(T=2, occlusions=((1, 1),), seed=0)), d)
        path = d / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(FormatError, match=f"cannot read .*{name}: 'utf-8' codec"):
            load_sequence(d)

    @pytest.mark.parametrize("line", ["0,0,0,0", "10,10,-5,8", "nan,nan,nan,nan", "inf,1,2,3"])
    def test_unusable_box_names_file_and_line(self, tmp_path, line):
        # eval cannot score a frame against such a box
        d = tmp_path / "s"
        save_sequence(generate(SynthSpec(T=5, seed=0)), d)
        gt = d / "groundtruth_rect.txt"
        lines = gt.read_text().splitlines()
        lines[3] = line
        gt.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=rf"groundtruth_rect.txt:4: box .* is not a valid box$"):
            load_sequence(d)

    def test_missing_groundtruth_raises(self, tmp_path):
        d = tmp_path / "s"
        save_sequence(generate(SynthSpec(T=1, seed=0)), d)
        (d / "groundtruth_rect.txt").unlink()
        with pytest.raises(FormatError):
            load_sequence(d)

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FormatError):
            load_sequence(tmp_path / "nope")

    def test_named_by_the_last_component_of_its_absolute_path(self, tmp_path, monkeypatch):
        d = tmp_path / "seq"
        save_sequence(generate(SynthSpec(T=1, seed=0)), d)
        (tmp_path / "link").symlink_to(d)
        monkeypatch.chdir(d)
        # `.` and `img/..` stand for seq; a symlink is not resolved
        for path, name in [(".", "seq"), ("img/..", "seq"), (f"{d}/.", "seq"),
                           (tmp_path / "link", "link")]:
            assert load_sequence(path).name == name

    def test_whitespace_separated_groundtruth_accepted(self, tmp_path):
        # Some benchmark sequences use tabs/spaces instead of commas.
        d = tmp_path / "s"
        save_sequence(generate(SynthSpec(T=1, seed=0)), d)
        (d / "groundtruth_rect.txt").write_text("10 20\t30 40\n")
        assert load_sequence(d).groundtruth[0] == BBox(10, 20, 30, 40)

    def test_truncated_image_raises(self, tmp_path):
        d = tmp_path / "s"
        save_sequence(generate(SynthSpec(T=1, seed=0)), d)
        img = d / "img" / "000001.pgm"
        img.write_bytes(img.read_bytes()[:-10])
        with pytest.raises(FormatError):
            load_sequence(d)

    @pytest.mark.parametrize(
        "name, pixels, shape",
        [
            ("000003.ppm", np.zeros((120, 160, 3), np.uint8), r"\(120, 160, 3\)"),
            ("000003.pgm", np.zeros((119, 160), np.uint8), r"\(119, 160\)"),
        ],
        ids=["ppm-among-pgm", "smaller-frame"],
    )
    def test_frame_of_another_shape_names_its_file(self, tmp_path, name, pixels, shape):
        # loaded, frame 3 would stop tracking and training partway through
        d = tmp_path / "s"
        save_sequence(generate(SynthSpec(T=4, seed=0)), d)
        (d / "img" / "000003.pgm").unlink()
        _write_netpbm(d / "img" / name, pixels)
        first = r"000001.pgm's \(120, 160\)"
        with pytest.raises(FormatError, match=rf"{name}: frame shape {shape} differs from {first}"):
            load_sequence(d)
