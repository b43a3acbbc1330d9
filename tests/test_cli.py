"""End-to-end tests for the command-line interface.

A module-scoped pipeline fixture runs gen -> train -> track -> eval once
on tiny settings; individual tests then assert on the artifacts, exit
codes, and determinism guarantees.
"""

import ast
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest

from slowtrack.bound import BoundParams
from slowtrack.cli import NetConfig, _tracker_config, build_parser, derive_seed, dispatch
from slowtrack.config import parse_config_text, settable_fields, split_sections
from slowtrack import cli
from slowtrack.dataset import SynthSpec, _write_netpbm, generate, load_sequence, save_sequence
from slowtrack.geometry import BBox
from slowtrack.loss import VARIANTS, LossWeights
from slowtrack.net import load_model
from slowtrack.sampler import SamplerConfig
from slowtrack.tracker import TrackerConfig, read_results
from slowtrack.train import StepConfig, TrainConfig

DIMS = "64,16,8,8,4,2"

GEN_A = "synth.T = 8\nsynth.velocity = 1.0,0.0\nsynth.seed = 5\n"
GEN_B = "synth.T = 8\nsynth.velocity = 0.5,0.5\nsynth.seed = 6\n"
TRAIN = (
    f"net.dims = {DIMS}\nnet.seed = 0\n"
    "train.iterations = 40\ntrain.optimizer = sgd\ntrain.learning_rate = 0.01\n"
    "train.batch_size = 8\ntrain.seed = 1\nsampler.seed = 2\n"
)
TRACK = (
    "tracker.m = 100\ntracker.top_k = 3\nsampler.seed = 4\n"
    "init_train.iterations = 30\ninit_train.learning_rate = 0.01\n"
    "init_train.batch_size = 8\n"
    "update_train.iterations = 10\nupdate_train.batch_size = 8\n"
)


def run(*argv):
    return dispatch([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    for name, text in [
        ("gen-a.cfg", GEN_A), ("gen-b.cfg", GEN_B),
        ("train.cfg", TRAIN), ("track.cfg", TRACK),
    ]:
        (root / name).write_text(text)
    assert run("gen", "--config", root / "gen-a.cfg", "--out", root / "seq-a") == 0
    assert run("gen", "--config", root / "gen-b.cfg", "--out", root / "seq-b") == 0
    assert run(
        "train", root / "seq-a", root / "seq-b",
        "--config", root / "train.cfg", "--out", root / "run",
    ) == 0
    assert run(
        "track", root / "seq-a",
        "--model", root / "run" / "model.txt",
        "--config", root / "track.cfg", "--out", root / "run",
    ) == 0
    assert run(
        "eval",
        "--run", "full", root / "run" / "results-seq-a.csv", root / "seq-a",
        "--out", root / "evals",
    ) == 0
    return root


class TestExitCodes:
    def test_unknown_command_is_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys, tmp_path):
        assert run("gen", "--out", tmp_path / "o", "--frob") == 1
        assert "unrecognized" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert dispatch(["gen"]) == 1
        assert "--out" in capsys.readouterr().err

    def test_no_command_at_all(self, capsys):
        assert dispatch([]) == 1

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        out = capsys.readouterr().out
        assert "gen" in out and "verify-bound" in out

    def test_subcommand_help_exits_zero(self, capsys):
        assert dispatch(["train", "--help"]) == 0
        assert "--config" in capsys.readouterr().out

    def test_validation_failure_exits_one(self, tmp_path, caplog):
        with caplog.at_level(logging.ERROR):
            rc = run("train", tmp_path / "missing", "--out", tmp_path / "o")
        assert rc == 1

    def test_internal_error_exits_two(self, tmp_path, monkeypatch, caplog):
        import slowtrack.cli as cli

        def boom(spec):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "generate", boom)
        with caplog.at_level(logging.ERROR):
            rc = run("gen", "--out", tmp_path / "o")
        assert rc == 2
        assert "internal error" in caplog.text

    def test_unknown_config_key_exits_one(self, tmp_path, caplog):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synth.bogus = 1\n")
        with caplog.at_level(logging.ERROR):
            rc = run("gen", "--config", cfg, "--out", tmp_path / "o")
        assert rc == 1
        assert "unknown key" in caplog.text

    def test_non_finite_config_float_exits_one(self, tmp_path, caplog):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synth.velocity = 1.0,nan\n")
        with caplog.at_level(logging.ERROR):
            rc = run("gen", "--config", cfg, "--out", tmp_path / "o")
        assert rc == 1
        assert "synth.velocity: expected a finite number, got 'nan'" in caplog.text

    def test_overflowing_target_size_exits_one(self, tmp_path, caplog):
        # 24 * 10**307 overflows a float; the spec is rejected, not crashed on.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synth.T = 400\nsynth.scale_rate = 10.0\n")
        with caplog.at_level(logging.ERROR):
            rc = run("gen", "--config", cfg, "--out", tmp_path / "o")
        assert rc == 1
        assert "target size overflows at frame 307" in caplog.text

    @pytest.mark.parametrize("what", ["config", "groundtruth", "results", "model"])
    def test_non_utf8_input_exits_one(self, pipeline, tmp_path, caplog, what):
        seq = tmp_path / "seq-a"
        assert run("gen", "--config", pipeline / "gen-a.cfg", "--out", seq) == 0
        cfg, model, results = tmp_path / "gen.cfg", tmp_path / "model.txt", tmp_path / "r.csv"
        cfg.write_bytes((pipeline / "gen-a.cfg").read_bytes())
        model.write_bytes((pipeline / "run" / "model.txt").read_bytes())
        results.write_bytes((pipeline / "run" / "results-seq-a.csv").read_bytes())
        bad = {
            "config": cfg, "groundtruth": seq / "groundtruth_rect.txt",
            "results": results, "model": model,
        }[what]
        bad.write_bytes(b"\xff" + bad.read_bytes())
        out = tmp_path / "o"
        track = ["track", seq, "--model", model, "--config", pipeline / "track.cfg", "--out", out]
        argv = {
            "config": ["gen", "--config", cfg, "--out", out],
            "groundtruth": track,
            "results": ["eval", "--run", "full", results, seq, "--out", out],
            "model": track,
        }[what]
        with caplog.at_level(logging.ERROR):
            rc = run(*argv)
        assert rc == 1
        assert str(bad) in caplog.text

    def test_unknown_config_section_exits_one(self, tmp_path, caplog):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tracker.m = 50\n")  # gen does not read tracker
        with caplog.at_level(logging.ERROR):
            rc = run("gen", "--config", cfg, "--out", tmp_path / "o")
        assert rc == 1
        assert "unknown section" in caplog.text


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, "synth") == derive_seed(3, "synth")

    def test_scope_changes_seed(self):
        assert derive_seed(3, "synth") != derive_seed(3, "sampler")

    def test_master_changes_seed(self):
        assert derive_seed(3, "synth") != derive_seed(4, "synth")

    def test_range_fits_numpy_seeding(self):
        for master in range(8):
            s = derive_seed(master, "x")
            assert 0 <= s < 2**63

    def test_explicit_config_seed_wins(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("synth.T = 4\nsynth.seed = 5\n")
        assert run("gen", "--config", cfg, "--out", tmp_path / "a", "--seed", 1) == 0
        assert run("gen", "--config", cfg, "--out", tmp_path / "b", "--seed", 2) == 0
        gt = "groundtruth_rect.txt"
        assert (tmp_path / "a" / gt).read_bytes() == (tmp_path / "b" / gt).read_bytes()

    def test_master_seed_fans_out_when_config_silent(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("synth.T = 4\n")
        assert run("gen", "--config", cfg, "--out", tmp_path / "a", "--seed", 1) == 0
        assert run("gen", "--config", cfg, "--out", tmp_path / "b", "--seed", 2) == 0
        # the target sits still, so compare the pixel noise instead of the track
        frame = next(iter(sorted((tmp_path / "a" / "img").iterdir()))).name
        assert (tmp_path / "a" / "img" / frame).read_bytes() != (
            tmp_path / "b" / "img" / frame
        ).read_bytes()


class TestGen:
    def test_sequence_loads_back(self, pipeline):
        seq = load_sequence(pipeline / "seq-a")
        assert seq.T == 8
        assert seq.name == "seq-a"

    def test_same_seed_runs_identical(self, pipeline, tmp_path):
        assert run("gen", "--config", pipeline / "gen-a.cfg", "--out", tmp_path / "again") == 0
        a, b = pipeline / "seq-a", tmp_path / "again"
        assert (a / "groundtruth_rect.txt").read_bytes() == (b / "groundtruth_rect.txt").read_bytes()
        frames_a = sorted(p.name for p in (a / "img").iterdir())
        frames_b = sorted(p.name for p in (b / "img").iterdir())
        assert frames_a == frames_b
        for name in frames_a:
            assert (a / "img" / name).read_bytes() == (b / "img" / name).read_bytes()

    def test_distractor_wider_than_frame_exits_zero(self, tmp_path):
        # Distractors are drawn at 0.8-1.2x the target's size, so at 34
        # of 35 columns any drawn above 1.03x is clamped to the frame.
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(
            "synth.T = 4\nsynth.frame_w = 35\nsynth.target_w = 34\nsynth.distractors = 5\n"
        )
        assert run("gen", "--config", cfg, "--out", tmp_path / "seq") == 0
        assert load_sequence(tmp_path / "seq").T == 4

    @pytest.mark.parametrize(
        "line, named",
        [
            ("synth.noise_level = -20", "noise_level must be >= 0, got -20.0"),
            ("synth.occlusions = 2:8", "occlusions window 2:8 must have 0 <= start <= end < T = 8"),
        ],
    )
    def test_invalid_synth_value_exits_one(self, tmp_path, caplog, line, named):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"synth.T = 8\n{line}\n")
        with caplog.at_level(logging.ERROR):
            assert run("gen", "--config", cfg, "--out", tmp_path / "seq") == 1
        assert named in caplog.text
        assert not (tmp_path / "seq").exists()


class TestTrain:
    def test_artifacts_exist(self, pipeline):
        assert (pipeline / "run" / "model.txt").exists()
        assert (pipeline / "run" / "loss.csv").exists()

    def test_model_loads_with_configured_dims(self, pipeline):
        model = load_model(pipeline / "run" / "model.txt")
        assert model.dims == tuple(int(d) for d in DIMS.split(","))

    def test_trace_has_configured_steps(self, pipeline):
        lines = (pipeline / "run" / "loss.csv").read_text().splitlines()
        assert lines[0] == "step,loss,loss_c,loss_d,loss_s"
        assert len(lines) == 1 + 40

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        assert run(
            "train", pipeline / "seq-a", pipeline / "seq-b",
            "--config", pipeline / "train.cfg", "--out", tmp_path / "run2",
        ) == 0
        for name in ("model.txt", "loss.csv"):
            assert (tmp_path / "run2" / name).read_bytes() == (
                pipeline / "run" / name
            ).read_bytes()

    def test_tarspec_with_classifier_only_exits_one(self, pipeline, tmp_path, caplog):
        cfg = tmp_path / "train.cfg"
        cfg.write_text(TRAIN + "train.variant = tarspec\ntrain.classifier_only = true\n")
        with caplog.at_level(logging.ERROR):
            rc = run("train", pipeline / "seq-a", "--config", cfg, "--out", tmp_path / "o")
        assert rc == 1
        assert "train nothing" in caplog.text
        assert not (tmp_path / "o" / "model.txt").exists()

    def test_ablate_with_classifier_only_exits_before_training(
        self, pipeline, tmp_path, caplog
    ):
        # tarspec, the last variant, cannot run with the features frozen.
        cfg = tmp_path / "ablate.cfg"
        cfg.write_text(TRAIN + "train.classifier_only = true\n")
        with caplog.at_level(logging.ERROR):
            rc = run(
                "ablate", pipeline / "seq-a", "--track", pipeline / "seq-b",
                "--config", cfg, "--out", tmp_path / "abl",
            )
        assert rc == 1
        assert "train nothing" in caplog.text
        assert not (tmp_path / "abl").exists()


class TestTrack:
    def test_results_round_trip(self, pipeline):
        records = read_results(pipeline / "run" / "results-seq-a.csv")
        assert [r.frame for r in records] == list(range(2, 9))

    def test_rerun_byte_identical(self, pipeline, tmp_path):
        assert run(
            "track", pipeline / "seq-a",
            "--model", pipeline / "run" / "model.txt",
            "--config", pipeline / "track.cfg", "--out", tmp_path / "run2",
        ) == 0
        assert (tmp_path / "run2" / "results-seq-a.csv").read_bytes() == (
            pipeline / "run" / "results-seq-a.csv"
        ).read_bytes()

    def test_first_frame_exhaustion_exits_one(self, pipeline, tmp_path, caplog):
        cfg = tmp_path / "track.cfg"
        cfg.write_text(TRACK.replace("sampler.seed = 4\n", "sampler.max_rejections = 1\n"))
        code = run(
            "track", pipeline / "seq-a", "--model", pipeline / "run" / "model.txt",
            "--config", cfg, "--out", tmp_path / "out",
        )
        assert code == 1
        assert "positive sampling found 1/16 in 1 attempts" in caplog.text
        assert not (tmp_path / "out" / "results-seq-a.csv").exists()

    def test_repeated_sequence_name_rejected_before_tracking(self, pipeline, tmp_path, caplog):
        # both directories are named seq-a, so both would write results-seq-a.csv;
        # seq-a/. is seq-a itself
        shutil.copytree(pipeline / "seq-a", tmp_path / "copy" / "seq-a")
        for again in (tmp_path / "copy" / "seq-a", f"{pipeline / 'seq-a'}/."):
            caplog.clear()
            with caplog.at_level(logging.ERROR):
                code = run(
                    "track", pipeline / "seq-a", again,
                    "--model", pipeline / "run" / "model.txt",
                    "--config", pipeline / "track.cfg", "--out", tmp_path / "out",
                )
            assert code == 1
            assert "repeated sequence name 'seq-a'" in caplog.text
            assert not (tmp_path / "out").exists()

    def test_frame_of_another_shape_exits_one_before_tracking(
        self, pipeline, tmp_path, caplog, monkeypatch
    ):
        # an RGB frame 3 among grey ones would stop tracking at frame 3
        seq = tmp_path / "mixed"
        shutil.copytree(pipeline / "seq-a", seq)
        (seq / "img" / "000003.pgm").unlink()
        _write_netpbm(seq / "img" / "000003.ppm", np.zeros((120, 160, 3), np.uint8))
        tracked = []
        monkeypatch.setattr(cli, "track_sequence", lambda *args: tracked.append(args))
        with caplog.at_level(logging.ERROR):
            code = run(
                "track", seq, "--model", pipeline / "run" / "model.txt",
                "--config", pipeline / "track.cfg", "--out", tmp_path / "out",
            )
        assert code == 1
        assert "000003.ppm: frame shape (120, 160, 3) differs" in caplog.text
        assert tracked == []
        assert not (tmp_path / "out" / "results-mixed.csv").exists()

    def test_dot_names_the_directory_and_eval_accepts_its_results(
        self, pipeline, tmp_path, monkeypatch
    ):
        # run inside the sequence directory, `.` is named seq-a, not ''
        monkeypatch.chdir(pipeline / "seq-a")
        out = tmp_path / "out"
        assert run(
            "track", ".", "--model", pipeline / "run" / "model.txt",
            "--config", pipeline / "track.cfg", "--out", out,
        ) == 0
        assert [p.name for p in out.iterdir()] == ["results-seq-a.csv"]
        assert (out / "results-seq-a.csv").read_bytes() == (
            pipeline / "run" / "results-seq-a.csv"
        ).read_bytes()
        assert run(
            "eval", "--run", "full", out / "results-seq-a.csv", ".", "--out", tmp_path / "evals",
        ) == 0
        assert (tmp_path / "evals" / "precision-full-seq-a.csv").exists()


class TestTrackerConfig:
    def test_no_sections_gives_defaults_and_derived_seeds(self):
        assert _tracker_config({}, 3) == TrackerConfig(
            m=800, top_k=5, update_period=5, update_score_threshold=0.95,
            sampler=SamplerConfig(seed=derive_seed(3, "sampler")),
            init_train=StepConfig(iterations=300, optimizer="sgd"),
            update_train=StepConfig(iterations=50, optimizer="sgd"),
        )

    def test_track_sections_overlay_the_defaults(self):
        sections = split_sections(parse_config_text(TRACK))
        assert _tracker_config(sections, 0) == TrackerConfig(
            m=100, top_k=3,
            sampler=SamplerConfig(seed=4),
            init_train=StepConfig(
                iterations=30, optimizer="sgd", learning_rate=0.01, batch_size=8
            ),
            update_train=StepConfig(iterations=10, optimizer="sgd", batch_size=8),
        )

    def test_sub_config_as_tracker_key_exits_one(self, pipeline, tmp_path, caplog):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("tracker.init_train = 5\n")
        with caplog.at_level(logging.ERROR):
            rc = run(
                "track", pipeline / "seq-a",
                "--model", pipeline / "run" / "model.txt",
                "--config", cfg, "--out", tmp_path / "o",
            )
        assert rc == 1
        assert "tracker.init_train: unknown key" in caplog.text

    @pytest.mark.parametrize("section", ["init_train", "update_train"])
    @pytest.mark.parametrize(
        "key, value", [("variant", "full"), ("seed", "5"), ("skip_occluded", "true")]
    )
    def test_offline_only_key_exits_one(self, pipeline, tmp_path, caplog, section, key, value):
        # The online phases read no variant, seed or occlusion switch.
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{section}.{key} = {value}\n")
        with caplog.at_level(logging.ERROR):
            rc = run(
                "track", pipeline / "seq-a",
                "--model", pipeline / "run" / "model.txt",
                "--config", cfg, "--out", tmp_path / "o",
            )
        assert rc == 1
        assert f"{section}.{key}: unknown key" in caplog.text


class TestEval:
    def test_table_and_plots_exist(self, pipeline):
        evals = pipeline / "evals"
        assert (evals / "table.csv").exists()
        assert (evals / "precision.svg").exists()
        assert (evals / "success.svg").exists()
        assert (evals / "precision-full-seq-a.csv").exists()
        assert (evals / "success-full-seq-a.csv").exists()

    def test_table_row_parses(self, pipeline):
        lines = (pipeline / "evals" / "table.csv").read_text().splitlines()
        assert lines[0] == "tracker,sequence,prec@20,auc"
        tracker, sequence, p20, area = lines[1].split(",")
        assert (tracker, sequence) == ("full", "seq-a")
        assert 0.0 <= float(p20) <= 1.0
        assert 0.0 <= float(area) <= 1.0

    def test_curve_csv_round_trips(self, pipeline):
        text = (pipeline / "evals" / "precision-full-seq-a.csv").read_text()
        header, *rows = text.splitlines()
        assert header == "threshold,value"
        thresholds = [float(row.split(",")[0]) for row in rows]
        assert thresholds[0] == 0.0
        assert thresholds[-1] == 50.0

    # Before the check, "a,b" wrote a 5-field table row under the 4-field
    # header and "a&b" an SVG that is not well-formed XML, both exiting 0;
    # "x/y" exited 1 on an OSError after creating the output directory.
    @pytest.mark.parametrize("label", ["a,b", "a&b", "x/y"], ids=["comma", "amp", "slash"])
    def test_bad_label_rejected_before_any_output(self, pipeline, tmp_path, caplog, label):
        with caplog.at_level(logging.ERROR):
            rc = run(
                "eval", "--run", label, pipeline / "run" / "results-seq-a.csv",
                pipeline / "seq-a", "--out", tmp_path / "evals",
            )
        assert rc == 1
        assert f"eval --run label {label!r}: use letters" in caplog.text
        assert not (tmp_path / "evals").exists()

    def test_bad_sequence_name_rejected_before_any_output(self, pipeline, tmp_path, caplog):
        # the series and the table row take the name of the sequence directory
        seq = tmp_path / "seq&a"
        shutil.copytree(pipeline / "seq-a", seq)
        with caplog.at_level(logging.ERROR):
            rc = run(
                "eval", "--run", "full", pipeline / "run" / "results-seq-a.csv", seq,
                "--out", tmp_path / "evals",
            )
        assert rc == 1
        assert "eval --run sequence name 'seq&a': use letters" in caplog.text
        assert not (tmp_path / "evals").exists()

    def test_stdout_echoes_table(self, pipeline, capsys):
        assert run(
            "eval",
            "--run", "full", pipeline / "run" / "results-seq-a.csv", pipeline / "seq-a",
            "--out", pipeline / "evals-echo",
        ) == 0
        out = capsys.readouterr().out
        assert "tracker,sequence,prec@20,auc" in out
        assert "full,seq-a," in out

    def test_perfect_results_score_one(self, pipeline, tmp_path, capsys):
        # a results file that copies the ground truth must hit the ceiling
        seq = load_sequence(pipeline / "seq-a")
        lines = ["frame,x,y,w,h,score,updated"]
        for t in range(2, seq.T + 1):
            b = seq.groundtruth[t - 1]
            lines.append(f"{t},{b.x!r},{b.y!r},{b.w!r},{b.h!r},1.0,0")
        results = tmp_path / "perfect.csv"
        results.write_text("\n".join(lines) + "\n")
        assert run(
            "eval", "--run", "oracle", results, pipeline / "seq-a",
            "--out", tmp_path / "evals",
        ) == 0
        table = (tmp_path / "evals" / "table.csv").read_text().splitlines()[1]
        _, _, p20, area = table.split(",")
        assert float(p20) == 1.0
        assert float(area) == pytest.approx(20 / 21)  # 1.0 everywhere but iou > 1.0

    def test_mismatched_sequence_rejected(self, pipeline, tmp_path, caplog):
        short = tmp_path / "short.cfg"
        short.write_text("synth.T = 3\nsynth.seed = 5\n")
        assert run("gen", "--config", short, "--out", tmp_path / "seq-short") == 0
        with caplog.at_level(logging.ERROR):
            rc = run(
                "eval",
                "--run", "full", pipeline / "run" / "results-seq-a.csv",
                tmp_path / "seq-short",
                "--out", tmp_path / "evals",
            )
        assert rc == 1
        assert "outside sequence" in caplog.text

    def test_config_section_rejected(self, pipeline, tmp_path, capsys):
        # eval reads no section, so it takes no config file
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("trackr.m = 5\n")
        rc = run(
            "eval",
            "--run", "full", pipeline / "run" / "results-seq-a.csv", pipeline / "seq-a",
            "--config", cfg, "--out", tmp_path / "evals",
        )
        assert rc == 1
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    def test_zero_width_result_box_exits_one(self, pipeline, tmp_path, caplog):
        lines = (pipeline / "run" / "results-seq-a.csv").read_text().splitlines()
        frame, x, y, _, h, score, updated = lines[1].split(",")
        lines[1] = ",".join([frame, x, y, "0.0", h, score, updated])
        results = tmp_path / "results.csv"
        results.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.ERROR):
            rc = run(
                "eval", "--run", "full", results, pipeline / "seq-a",
                "--out", tmp_path / "evals",
            )
        assert rc == 1
        assert f"{results}:2: box" in caplog.text

    def test_zero_size_groundtruth_exits_one(self, pipeline, tmp_path, caplog):
        seq = tmp_path / "seq-a"
        assert run("gen", "--config", pipeline / "gen-a.cfg", "--out", seq) == 0
        gt = seq / "groundtruth_rect.txt"
        lines = gt.read_text().splitlines()
        lines[3] = "0,0,0,0"
        gt.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.ERROR):
            rc = run(
                "eval", "--run", "full", pipeline / "run" / "results-seq-a.csv", seq,
                "--out", tmp_path / "evals",
            )
        assert rc == 1
        assert f"{gt}:4: box 0.0,0.0,0.0,0.0 is not a valid box" in caplog.text
        assert not (tmp_path / "evals").exists()

    @pytest.mark.parametrize("frames, fault", [
        ([2, 2, 2, 2], "repeat frame 2"),  # scored Prec@20 1.0 and AUC 0.9524
        ([2, 4, 5], "lack frame 3"),
        ([2, 3, 4], "lack frame 5"),
    ])
    def test_repeated_or_missing_frames_exit_one(self, tmp_path, caplog, frames, fault):
        cfg = tmp_path / "five.cfg"
        cfg.write_text("synth.T = 5\nsynth.seed = 5\n")
        assert run("gen", "--config", cfg, "--out", tmp_path / "seq-five") == 0
        b = load_sequence(tmp_path / "seq-five").groundtruth[1]
        lines = ["frame,x,y,w,h,score,updated"]
        lines += [f"{t},{b.x!r},{b.y!r},{b.w!r},{b.h!r},1.0,0" for t in frames]
        results = tmp_path / "results.csv"
        results.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.ERROR):
            rc = run(
                "eval", "--run", "full", results, tmp_path / "seq-five",
                "--out", tmp_path / "evals",
            )
        assert rc == 1
        assert f"{fault}; expected frames 2..5, each once and in order" in caplog.text
        assert not (tmp_path / "evals").exists()

    def test_duplicate_series_rejected(self, pipeline, tmp_path, caplog):
        results = pipeline / "run" / "results-seq-a.csv"
        with caplog.at_level(logging.ERROR):
            rc = run(
                "eval",
                "--run", "full", results, pipeline / "seq-a",
                "--run", "full", results, pipeline / "seq-a",
                "--out", tmp_path / "evals",
            )
        assert rc == 1
        assert "duplicate" in caplog.text


class TestGradcheck:
    def test_passes_and_reports(self, capsys):
        assert run("gradcheck", "--models", 2, "--seed", 1) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2
        assert "worst relative error" in out

    def test_tracker_sized_model_passes(self, capsys):
        # fc1 at the tracker's 1024-128 width
        assert run("gradcheck", "--dims", "1024,128,32,32,16,2", "--models", 1) == 0
        assert "model 0 (full): gradient check PASS: 136946 entries" in capsys.readouterr().out

    def test_isolated_variant_flag(self, capsys):
        assert run("gradcheck", "--models", 1, "--variant", "SlossOnly") == 0
        assert "SlossOnly" in capsys.readouterr().out

    def test_bad_dims_token_exits_one(self, caplog):
        with caplog.at_level(logging.ERROR):
            assert run("gradcheck", "--dims", "64,32,x,16,8,2") == 1
        assert "gradcheck.dims: invalid literal for int()" in caplog.text
        assert "internal error" not in caplog.text

    @pytest.mark.parametrize("models", [0, -1])
    def test_no_models_is_usage_error(self, capsys, models):
        assert run("gradcheck", "--models", models) == 1
        assert f"--models: must be >= 1, got {models}" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "0", "-1", "nan"])
    def test_tolerance_that_decides_alone_is_usage_error(self, capsys, tol):
        # inf passed every entry, and 0, -1 and nan failed all of them
        assert run("gradcheck", "--models", 1, "--tol", tol) == 1
        assert f"--tol: must be finite and > 0, got {tol}" in capsys.readouterr().err


class TestVerifyBound:
    def test_report_written_and_passes(self, tmp_path, capsys):
        assert run(
            "verify-bound", "--trials", 2000, "--out", tmp_path / "b", "--seed", 9
        ) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        lines = (tmp_path / "b" / "bound-report.csv").read_text().splitlines()
        assert lines[0] == "trial_param_set,rho,violation_rate,satisfaction_rate,pass"
        assert len(lines) == 6  # three generators + two predictor scenarios

    def test_rerun_byte_identical(self, tmp_path):
        for sub in ("x", "y"):
            assert run(
                "verify-bound", "--trials", 2000, "--out", tmp_path / sub, "--seed", 9
            ) == 0
        assert (tmp_path / "x" / "bound-report.csv").read_bytes() == (
            tmp_path / "y" / "bound-report.csv"
        ).read_bytes()

    def test_inadmissible_params_exit_one(self, tmp_path, caplog):
        cfg = tmp_path / "bound.cfg"
        cfg.write_text("bound.delta = 0.1\n")  # below the admissibility floor
        with caplog.at_level(logging.ERROR):
            rc = run("verify-bound", "--config", cfg, "--out", tmp_path / "b")
        assert rc == 1
        assert "no guarantee" in caplog.text


class TestAblate:
    def test_one_row_per_variant(self, pipeline, tmp_path):
        cfg = tmp_path / "ablate.cfg"
        cfg.write_text(
            f"net.dims = {DIMS}\nnet.seed = 0\n"
            "train.iterations = 10\ntrain.optimizer = sgd\n"
            "train.learning_rate = 0.01\ntrain.batch_size = 8\n"
            "tracker.m = 60\n"
            "init_train.iterations = 10\ninit_train.batch_size = 8\n"
            "update_train.iterations = 5\nupdate_train.batch_size = 8\n"
        )
        out = tmp_path / "abl"
        assert run(
            "ablate", pipeline / "seq-a", "--track", pipeline / "seq-b",
            "--config", cfg, "--out", out, "--seed", 7,
        ) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "tracker,sequence,prec@20,auc"
        names = sorted(line.split(",")[0] for line in lines[1:])
        assert names == sorted(VARIANTS)
        for variant in VARIANTS:
            assert (out / variant / "model.txt").exists()
            assert (out / variant / f"results-seq-b.csv").exists()

    def test_variant_key_exits_one(self, pipeline, tmp_path, caplog):
        cfg = tmp_path / "ablate.cfg"
        cfg.write_text("train.variant = full\n")
        with caplog.at_level(logging.ERROR):
            rc = run(
                "ablate", pipeline / "seq-a", "--track", pipeline / "seq-b",
                "--config", cfg, "--out", tmp_path / "abl",
            )
        assert rc == 1
        assert "train.variant: ablate runs every variant" in caplog.text

    def test_track_sequence_the_model_cannot_take_exits_one_before_training(
        self, pipeline, tmp_path, caplog, monkeypatch
    ):
        # an RGB sequence to track with the 64-input grey model
        save_sequence(generate(SynthSpec(T=4, rgb=True)), tmp_path / "rgb")
        trained = []
        monkeypatch.setattr(cli, "train_offline", lambda *args: trained.append(args))
        out = tmp_path / "abl"
        with caplog.at_level(logging.ERROR):
            rc = run(
                "ablate", pipeline / "seq-a", "--track", tmp_path / "rgb",
                "--config", pipeline / "train.cfg", "--out", out,
            )
        assert rc == 1
        assert "sequence 'rgb': model input size 64 is not divisible by 3 channels" in caplog.text
        assert trained == []
        assert not (out / "full").exists()

    @pytest.mark.parametrize("name, T, first_box, message", [
        ("one", 1, None, "sequence 'one' has 1 frame(s); need >= 2"),
        ("off", 4, BBox(-100.0, -100.0, 10.0, 10.0),
         "sequence 'off': first-frame ground truth BBox(x=-100.0, y=-100.0, w=10.0, h=10.0) "
         "is not a visible box"),
    ])
    def test_track_sequence_it_cannot_track_exits_one_before_training(
        self, pipeline, tmp_path, caplog, monkeypatch, name, T, first_box, message
    ):
        seq = generate(SynthSpec(T=T))
        if first_box is not None:
            seq.groundtruth[0] = first_box
        save_sequence(seq, tmp_path / name)
        trained = []
        monkeypatch.setattr(cli, "train_offline", lambda *args: trained.append(args))
        out = tmp_path / "abl"
        with caplog.at_level(logging.ERROR):
            rc = run(
                "ablate", pipeline / "seq-a", "--track", tmp_path / name,
                "--config", pipeline / "train.cfg", "--out", out,
            )
        assert rc == 1
        assert message in caplog.text
        assert trained == []
        assert not (out / "full").exists()


def test_train_track_and_ablate_say_one_frame_alike(pipeline, tmp_path, caplog):
    save_sequence(generate(SynthSpec(T=1)), tmp_path / "one")
    one = tmp_path / "one"
    commands = {
        "train": ("train", one, "--config", pipeline / "train.cfg"),
        "track": ("track", one, "--model", pipeline / "run" / "model.txt"),
        "ablate": ("ablate", pipeline / "seq-a", "--track", one, "--config", pipeline / "train.cfg"),
    }
    for command, argv in commands.items():
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            assert run(*argv, "--out", tmp_path / command) == 1
        errors = [r.getMessage() for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == ["sequence 'one' has 1 frame(s); need >= 2"], command


def _subparsers():
    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    return sub.choices


class TestParserShape:
    def test_all_subcommands_registered(self):
        assert set(_subparsers()) == {
            "gen", "train", "track", "eval", "gradcheck", "verify-bound", "ablate"
        }

    def test_each_subcommand_takes_only_the_flags_it_reads(self):
        common = {"--config", "--seed", "--out"}
        flags = {
            name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
            for name, p in _subparsers().items()
        }
        assert flags == {
            "gen": common,
            "train": common,
            "track": common | {"--model"},
            "eval": {"--run", "--out"},
            "gradcheck": {"--dims", "--models", "--tol", "--variant", "--seed"},
            "verify-bound": common | {"--trials"},
            "ablate": common | {"--track"},
        }


# --- guard: every config field changes its command's output -----------------

# The config dataclass behind each section, and the command the guard
# runs for it. sampler and loss are read by train, track and ablate;
# train is the cheapest of them.
SECTIONS = {
    "synth": (SynthSpec, "gen"),
    "net": (NetConfig, "train"),
    "train": (TrainConfig, "train"),
    "sampler": (SamplerConfig, "train"),
    "loss": (LossWeights, "train"),
    "tracker": (TrackerConfig, "track"),
    "init_train": (StepConfig, "track"),
    "update_train": (StepConfig, "track"),
    "bound": (BoundParams, "verify-bound"),
}

# Each command's baseline at tiny sizes. The train corpus has an occluded
# frame, and the track baseline fires an online update on frames 2 and 4
# (T = 5, update_period = 2, a threshold every score clears), so that
# the occlusion switch and the update_train fields have something to act
# on. The bound baseline is at n = 1, where an error-bound trial can fail,
# so that K and dt can move a satisfaction rate.
GUARD_BASE = {
    "gen": {
        "synth.T": "3", "synth.frame_w": "24", "synth.frame_h": "20",
        "synth.target_w": "8", "synth.target_h": "8",
    },
    "train": {
        "net.dims": DIMS, "train.iterations": "3", "train.batch_size": "4",
    },
    "track": {
        "tracker.m": "20", "tracker.top_k": "3", "tracker.update_period": "2",
        "tracker.update_score_threshold": "0.0",
        "init_train.iterations": "2", "init_train.batch_size": "4",
        "update_train.iterations": "2", "update_train.batch_size": "4",
    },
    "verify-bound": {
        "bound.n": "1", "bound.m": "20", "bound.delta": "0.4", "bound.K": "0.05",
    },
}

# One value off the baseline for every field `build` accepts.
MOVED = {
    "synth.T": "4",
    "synth.frame_w": "28",
    "synth.frame_h": "24",
    "synth.target_w": "9",
    "synth.target_h": "9",
    "synth.start_x": "2",
    "synth.start_y": "2",
    "synth.velocity": "1.0,0.0",
    "synth.scale_rate": "1.1",
    "synth.occlusions": "1:1",
    "synth.distractors": "1",
    # The generator's only change of the target's appearance over time,
    # which is what the continuity term is about.
    "synth.appearance_drift": "5.0",
    "synth.noise_level": "10.0",
    "synth.rgb": "true",
    "synth.seed": "1",
    "net.dims": "64,12,8,8,4,2",
    "net.seed": "1",
    "train.iterations": "4",
    "train.learning_rate": "0.01",
    "train.optimizer": "sgd",
    "train.adam_beta1": "0.5",
    "train.adam_beta2": "0.5",
    "train.adam_eps": "1e-3",
    "train.batch_size": "5",
    "train.classifier_only": "true",
    "train.variant": "SlossOnly",
    "train.seed": "1",
    # Only a corpus with occluded frames has pairs to skip.
    "train.skip_occluded": "false",
    "sampler.lo": "0.3",
    "sampler.hi": "0.5",
    "sampler.shift_max": "1",
    "sampler.m_p": "8",
    "sampler.m_n": "16",
    "sampler.sigma_xy": "0.5",
    "sampler.sigma_scale": "0.1",
    # The first negative round asks for 4 * m_n = 128 proposals; a cap
    # below that shortens it, while the default cap never binds.
    "sampler.max_rejections": "100",
    "sampler.seed": "1",
    "loss.lam": "1.0",
    "loss.mu": "1.0",
    "loss.beta": "0.5",
    # The default floor clamps no probability; 0.45 clamps those of an
    # untrained classifier that stray from 0.5.
    "loss.p_floor": "0.45",
    "tracker.m": "30",
    "tracker.top_k": "2",
    "tracker.update_period": "3",
    "tracker.update_score_threshold": "0.999",
    **{
        f"{phase}.{name}": value
        for phase in ("init_train", "update_train")
        for name, value in [
            ("iterations", "3"), ("learning_rate", "0.01"), ("optimizer", "adam"),
            ("adam_beta1", "0.5"), ("adam_beta2", "0.5"), ("adam_eps", "1e-3"),
            ("batch_size", "5"), ("classifier_only", "true"),
        ]
    },
    "bound.n": "2",
    "bound.m": "30",
    "bound.delta": "0.5",
    "bound.K": "0.1",
    "bound.dt": "2.0",
    "bound.max_var": "0.5",
}

# Baseline entries a field needs to act at all: the online phases train
# with sgd, which reads no adam_* field.
NEEDS = {
    f"{phase}.{name}": {f"{phase}.optimizer": "adam"}
    for phase in ("init_train", "update_train")
    for name in ("adam_beta1", "adam_beta2", "adam_eps")
}


@pytest.fixture(scope="module")
def guard(tmp_path_factory):
    """outputs(command, entries): the bytes of every file the command
    writes with that config, memoized, so each baseline runs once."""
    root = tmp_path_factory.mktemp("guard")
    memo = {}
    argv = {"gen": [], "verify-bound": ["--trials", 500]}

    def outputs(command: str, entries: dict[str, str]) -> dict[str, bytes]:
        text = "".join(f"{k} = {v}\n" for k, v in entries.items())
        if (command, text) not in memo:
            cfg, out = root / f"run-{len(memo)}.cfg", root / f"run-{len(memo)}"
            cfg.write_text(text)
            assert run(command, *argv[command], "--config", cfg, "--out", out) == 0
            files = [p for p in out.rglob("*") if p.is_file()]
            memo[command, text] = {str(p.relative_to(out)): p.read_bytes() for p in files}, out
        return memo[command, text]

    seqs = [
        outputs("gen", {**GUARD_BASE["gen"], "synth.T": "5", **extra})[1]
        for extra in ({}, {"synth.occlusions": "2:2"})
    ]
    argv["train"] = seqs
    _, model = outputs("train", GUARD_BASE["train"])
    argv["track"] = [seqs[0], "--model", model / "model.txt"]
    return lambda command, entries: outputs(command, entries)[0]


class TestEveryFieldChangesOutput:
    @pytest.mark.parametrize("key", sorted(MOVED))
    def test_moving_the_field_changes_bytes(self, guard, key):
        command = SECTIONS[key.split(".")[0]][1]
        base = {**GUARD_BASE[command], **NEEDS.get(key, {})}
        assert guard(command, base) != guard(command, {**base, key: MOVED[key]})

    def test_table_lists_every_built_field(self):
        built = {
            f"{section}.{name}"
            for section, (dc, _) in SECTIONS.items()
            for name in settable_fields(dc)
        }
        assert built == set(MOVED)

    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_ablate_reads_exactly_the_train_and_track_sections(
        self, pipeline, tmp_path, caplog, section
    ):
        cfg = tmp_path / "ablate.cfg"
        cfg.write_text(f"{section}.bogus = 1\n")
        with caplog.at_level(logging.ERROR):
            rc = run(
                "ablate", pipeline / "seq-a", "--track", pipeline / "seq-b",
                "--config", cfg, "--out", tmp_path / "abl",
            )
        assert rc == 1
        if SECTIONS[section][1] in ("train", "track"):
            assert f"{section}.bogus: unknown key" in caplog.text
        else:
            assert "unknown section" in caplog.text


# --- guard: every parameter default is a knob some program sets --------------

ROOT = Path(__file__).resolve().parent.parent

# Parameters with a default that no program passes, each with the test
# that sets it and why the parameter stays.
SET_ONLY_BY_TESTS = {
    "net.conditioned_batch(max_tries)": (
        "test_net.py::TestConditionedBatch::test_nan_rejects_the_batch",
        "a model that never yields a batch fails in a few tries",
    ),
    "tracker.crop_candidates(dtype)": (
        "test_tracker.py::TestScaleLadder::test_ladder_patches_equal_per_box_crops_of_snapped_boxes",
        "the ladder's float64 patches are checked against crop_many's",
    ),
    "loss.loss_d(beta)": (
        "test_loss.py::TestLossD::test_beta_sharpens",
        "the paper's beta, pinned by the term's closed form",
    ),
    "loss.loss_s(p_floor)": (
        "test_loss.py::TestLossS::test_worst_case_is_finite",
        "the clamp that keeps the log finite at p = 0",
    ),
    "bound.standard_scenario(noise)": (
        "test_bound.py::TestStreamedBlocks::test_block_size_changes_no_report",
        "the error-bound verifier under each noise generator",
    ),
}


def _defaulted_parameters():
    """{"module.function(parameter)": (function name, positional index
    or None)} for every parameter with a default of every function in
    src/slowtrack, methods and nested functions too. The index counts
    the arguments a call passes, so it skips a method's self and
    __init__ goes by its class's name."""
    found = {}

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, scope + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                method = isinstance(node, ast.ClassDef)
                name = scope[-1] if child.name == "__init__" else child.name
                where = ".".join([module, *scope, child.name])
                for i in range(len(positional) - len(args.defaults), len(positional)):
                    found[f"{where}({positional[i].arg})"] = (name, i - method)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found[f"{where}({arg.arg})"] = (name, None)
                visit(child, module, scope + [child.name])
            else:
                visit(child, module, scope)

    for path in sorted((ROOT / "src" / "slowtrack").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, [])
    return found


def _program_calls():
    """Every call in src/, scripts/ and perfbench/ outside the tests, by
    the name it calls (a numpy call is none of ours)."""
    calls = {}
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name):
                    calls.setdefault(func.id, []).append(node)
                elif isinstance(func, ast.Attribute) and not (
                    isinstance(func.value, ast.Name) and func.value.id == "np"
                ):
                    calls.setdefault(func.attr, []).append(node)
    return calls


def _passes(call, parameter, index):
    if any(k.arg in (parameter, None) for k in call.keywords):  # None: **mapping
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return index is not None and len(call.args) > index


class TestEveryDefaultIsSet:
    def test_some_program_passes_every_defaulted_parameter(self):
        calls = _program_calls()
        unset = {
            key
            for key, (name, index) in _defaulted_parameters().items()
            if not any(_passes(c, key[key.index("(") + 1 : -1], index) for c in calls.get(name, []))
        }
        assert unset - set(SET_ONLY_BY_TESTS) == set(), "drop them, or allowlist them"
        assert set(SET_ONLY_BY_TESTS) - unset == set(), "a program sets these now"

    def test_allowlist_names_tests_that_exist(self):
        for test, why in SET_ONLY_BY_TESTS.values():
            file, cls, name = test.split("::")
            text = (ROOT / "tests" / file).read_text(encoding="utf-8")
            assert f"class {cls}" in text and f"def {name}(" in text, test
            assert why
