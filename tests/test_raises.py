"""Failure paths that no other test reaches, each triggered on purpose:
one row per `raise`, with the call, the exception type and a fragment
of its message; and the guard that every `raise` in src/slowtrack is
named by one of these rows or by another test that triggers it."""

import ast
import importlib.util
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from slowtrack import bound
from slowtrack.cli import _eval_records
from slowtrack.config import build
from slowtrack.dataset import Frame, Sequence, SynthSpec, generate, load_sequence, save_sequence
from slowtrack.errors import ConfigError, FormatError, NumericalError
from slowtrack.geometry import BBox, crop_many
from slowtrack.net import forward_margins, init_model
from slowtrack.sampler import SamplerConfig
from slowtrack.tracker import RESULTS_HEADER, read_results
from slowtrack.train import _patch_side, _sequence_side


@dataclass
class Listed:
    """A config dataclass with a field type `build` cannot parse."""

    xs: list[int] = field(default_factory=list)


def _bound_call(trials=10, predictor_scale=1.0):
    params = bound.BoundParams()
    scenario = bound.standard_scenario(params, predictor_scale=predictor_scale)
    return lambda tmp: bound.verify_error_bound(params, scenario, trials=trials)


def _header_only_results(tmp):
    path = tmp / "results.csv"
    path.write_text(RESULTS_HEADER + "\n")
    return _eval_records(read_results(path), generate(SynthSpec(T=3)))


FRAME = "img/000001.pgm"  # the first frame of a saved grey sequence


def _load_edited(name, content, spec=SynthSpec(T=1)):
    """Load a saved sequence after replacing its file `name` (relative to
    the sequence directory) with the bytes `content`, or with an empty
    directory when `content` is None."""

    def call(tmp):
        d = tmp / "seq"
        save_sequence(generate(spec), d)
        path = d / name
        path.unlink()
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        return load_sequence(d)

    return call


def _load_without_frames(tmp):
    d = tmp / "seq"
    save_sequence(generate(SynthSpec(T=1)), d)
    (d / FRAME).unlink()
    return load_sequence(d)


def _save_onto_directory(tmp):
    (tmp / "seq" / FRAME).mkdir(parents=True)
    save_sequence(generate(SynthSpec(T=1)), tmp / "seq")


RGB = Frame(np.zeros((40, 40, 3), dtype=np.uint8))


def _margins_past_float32(tmp):
    model = init_model((64, 8, 4, 4, 3, 2), seed=0)
    model["b5"][1] = -1e300
    return forward_margins(model, np.zeros((3, 64), dtype=np.float32))


ROWS = [
    pytest.param(
        lambda tmp: SamplerConfig(m_n=0), ConfigError, "m_p and m_n must be >= 1",
        id="sampler-m_n",
    ),
    pytest.param(
        lambda tmp: SamplerConfig(sigma_scale=-0.01), ConfigError,
        "sigmas must be non-negative", id="sampler-sigma",
    ),
    pytest.param(
        lambda tmp: SamplerConfig(max_rejections=0), ConfigError,
        "max_rejections must be >= 1", id="sampler-max_rejections",
    ),
    pytest.param(
        _bound_call(trials=0), ConfigError, "trials must be >= 1, got 0", id="bound-trials",
    ),
    pytest.param(
        _bound_call(predictor_scale=-1.0), ConfigError, "predictor_scale must be >= 0",
        id="bound-predictor_scale",
    ),
    pytest.param(
        lambda tmp: crop_many(RGB.pixels, np.array([[5.0, 5.0, 10.0, 10.0]]), 0), ValueError,
        "patch side must be positive, got 0", id="crop-side",
    ),
    pytest.param(
        _margins_past_float32, NumericalError, "parameter b5 is not finite in float32",
        id="margins-float32-range",
    ),
    pytest.param(
        lambda tmp: _patch_side(init_model((64, 8, 4, 4, 3, 2), seed=0), RGB), ConfigError,
        "model input size 64 is not divisible by 3 channels", id="patch-channels",
    ),
    pytest.param(
        lambda tmp: _sequence_side(
            init_model((64, 8, 4, 4, 3, 2), seed=0), generate(SynthSpec(T=2, rgb=True))
        ),
        ConfigError, "sequence 'synth-0': model input size 64 is not divisible",
        id="sequence-patch-channels",
    ),
    pytest.param(
        _header_only_results, ConfigError, "no tracked frames for sequence", id="eval-no-frames",
    ),
    pytest.param(
        lambda tmp: build(Listed, {"xs": "1,2"}), ConfigError,
        "Listed.xs: unsupported field type", id="config-unsupported-type",
    ),
    pytest.param(
        lambda tmp: generate(SynthSpec(T=0)), ConfigError, "T must be >= 1, got 0",
        id="synth-T",
    ),
    pytest.param(
        lambda tmp: load_sequence("/"), ConfigError, "sequence directory '/' has no name",
        id="sequence-root",
    ),
    pytest.param(
        lambda tmp: generate(SynthSpec(frame_w=3)), ConfigError, "frame 3x120 too small",
        id="synth-frame-size",
    ),
    pytest.param(
        lambda tmp: generate(SynthSpec(scale_rate=0.0)), ConfigError,
        "scale_rate must be positive, got 0.0", id="synth-scale_rate",
    ),
    pytest.param(
        lambda tmp: generate(SynthSpec(target_w=0.0)), ConfigError,
        "target size must be positive", id="synth-target-size",
    ),
    pytest.param(
        lambda tmp: generate(SynthSpec(distractors=-3)), ConfigError,
        "distractors must be >= 0, got -3", id="synth-distractors",
    ),
    pytest.param(
        lambda tmp: generate(SynthSpec(noise_level=-20.0)), ConfigError,
        "noise_level must be >= 0, got -20.0", id="synth-noise_level",
    ),
    pytest.param(
        lambda tmp: generate(SynthSpec(appearance_drift=-4.0)), ConfigError,
        "appearance_drift must be >= 0, got -4.0", id="synth-appearance_drift",
    ),
    pytest.param(
        lambda tmp: generate(SynthSpec(T=100, occlusions=((10, 20), (50, 30)))), ConfigError,
        "occlusions window 50:30 must have 0 <= start <= end < T = 100",
        id="synth-occlusion-reversed",
    ),
    pytest.param(
        lambda tmp: generate(SynthSpec(T=100, occlusions=((-5, -1),))), ConfigError,
        "occlusions window -5:-1", id="synth-occlusion-negative",
    ),
    pytest.param(
        lambda tmp: generate(SynthSpec(T=100, occlusions=((90, 100),))), ConfigError,
        "occlusions window 90:100", id="synth-occlusion-past-T",
    ),
    pytest.param(
        _load_without_frames, FormatError, "img: no .pgm/.ppm frames found", id="load-no-frames",
    ),
    pytest.param(
        lambda tmp: save_sequence(Sequence("s", [Frame(np.zeros((8, 8)))], [BBox(1, 1, 4, 4)]),
                                  tmp / "seq"),
        ValueError, "frame pixels must be uint8, got float64", id="save-non-uint8",
    ),
    pytest.param(
        _load_edited(FRAME, b"P2\n1 1\n255\n\x00"), FormatError,
        "000001.pgm: bad magic b'P2', expected binary P5/P6", id="netpbm-magic",
    ),
    pytest.param(
        _load_edited(FRAME, b"P5\n4 4"), FormatError, "000001.pgm: truncated header",
        id="netpbm-truncated-header",
    ),
    pytest.param(
        _load_edited(FRAME, b"P5\n4 x 255\n"), FormatError,
        "000001.pgm: bad header token b'x'", id="netpbm-header-token",
    ),
    pytest.param(
        _load_edited(FRAME, b"P5\n1 1\n65535\n\x00\x00"), FormatError,
        "000001.pgm: only maxval 255 supported, got 65535", id="netpbm-maxval",
    ),
    pytest.param(
        _load_edited("img/000002.pgm", b"P5\n2 2\n255\n" + bytes(4), SynthSpec(T=2)),
        FormatError, "000002.pgm: frame shape (2, 2) differs from 000001.pgm's (120, 160)",
        id="load-frame-shape",
    ),
    pytest.param(
        lambda tmp: Sequence("s", [Frame(np.zeros((8, 8), np.uint8)), RGB], [BBox(1, 1, 4, 4)] * 2),
        ValueError, "s: frame 2 has shape (40, 40, 3), frame 1 (8, 8)", id="sequence-frame-shape",
    ),
    pytest.param(
        _load_edited("occlusion.txt", b"0\n1\n", SynthSpec(T=3, occlusions=((1, 1),))),
        FormatError, "occlusion.txt: expected 3 flags", id="load-occlusion-count",
    ),
    pytest.param(
        _load_edited(FRAME, None), FormatError, "cannot read ", id="netpbm-read-failure",
    ),
    pytest.param(
        _save_onto_directory, FormatError, "cannot write ", id="netpbm-write-failure",
    ),
    pytest.param(
        _load_edited("groundtruth_rect.txt", b"1,2,x,4\n"), FormatError,
        "groundtruth_rect.txt:1: could not convert string to float: 'x'",
        id="load-groundtruth-float",
    ),
]


@pytest.mark.parametrize("call, exc, fragment", ROWS)
def test_raises(tmp_path, call, exc, fragment):
    with pytest.raises(exc) as info:
        call(tmp_path)
    assert fragment in str(info.value)


# -- the guard: every raise is named ------------------------------------------

TESTS = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location(
    "raise_coverage", TESTS.parent / "scripts" / "raise_coverage.py"
)
raise_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(raise_coverage)

# Each `raise` in src/slowtrack, by "module.function" (a method as
# "module.Class.method"), and the test that triggers it on purpose: one
# entry per `raise` in the function, in source order. An entry is the id
# of a row of ROWS, or "test_file.py::Class::test" (or
# "test_file.py::test") without parameters. A new `raise` needs an entry;
# `PYTHONPATH=src python scripts/raise_coverage.py -q` shows whether the
# tests really run it.
TRIGGERED_BY = {
    "bound.BoundParams.__post_init__": (
        "test_bound.py::TestBoundParams::test_rejects_bad_fields",
        "test_bound.py::TestBoundParams::test_rejects_bad_fields",
        "test_bound.py::TestBoundParams::test_rejects_bad_fields",
        "test_bound.py::TestBoundParams::test_rejects_bad_fields",
        "test_bound.py::TestBoundParams::test_rejects_bad_fields",
        "test_bound.py::TestBoundParams::test_rejects_bad_fields",
        "test_bound.py::TestBoundParams::test_rejects_delta_at_admissibility_floor",
    ),
    "bound.bound_value": (
        "test_bound.py::TestClosedForms::test_bound_value_rejects_wrong_length",
        "test_bound.py::TestClosedForms::test_bound_value_rejects_negative_loss",
    ),
    "bound._fill_noise": (
        "test_bound.py::TestNoiseGenerators::test_negative_variance_rejected",
        "test_bound.py::TestNoiseGenerators::test_unknown_generator_rejected",
    ),
    "bound._trial_blocks": ("bound-trials",),
    "bound.verify_error_bound": (
        "test_bound.py::TestVerifyErrorBound::test_wrong_shape_rejected",
        "test_bound.py::TestVerifyErrorBound::test_drift_over_cap_rejected",
        "test_bound.py::TestVerifyErrorBound::test_unknown_predictor_rejected",
        "bound-predictor_scale",
    ),
    "cli._Parser.error": ("test_cli.py::TestExitCodes::test_no_command_at_all",),
    "cli._eval_records": (
        "eval-no-frames",
        "test_cli.py::TestEval::test_mismatched_sequence_rejected",
        "test_cli.py::TestEval::test_repeated_or_missing_frames_exit_one",
    ),
    "cli.cmd_eval": (
        "test_cli.py::TestEval::test_bad_label_rejected_before_any_output",
        "test_cli.py::TestEval::test_duplicate_series_rejected",
    ),
    "cli.cmd_track": (
        "test_cli.py::TestTrack::test_repeated_sequence_name_rejected_before_tracking",
    ),
    "cli.cmd_ablate": ("test_cli.py::TestAblate::test_variant_key_exits_one",),
    "cli.build_parser.count": ("test_cli.py::TestGradcheck::test_no_models_is_usage_error",),
    "cli.build_parser.tolerance": (
        "test_cli.py::TestGradcheck::test_tolerance_that_decides_alone_is_usage_error",
    ),
    "config.parse_config_text": (
        "test_config.py::TestParse::test_missing_equals_rejected",
        "test_config.py::TestParse::test_empty_key_rejected",
        "test_config.py::TestParse::test_duplicate_key_rejected",
    ),
    "config._convert": (
        "test_config.py::TestBuild::test_bool_garbage_rejected",
        "test_config.py::TestBuild::test_int_garbage_rejected",
        "test_config.py::TestBuild::test_non_finite_float_rejected",
        "test_config.py::TestBuild::test_fixed_tuple_arity_error",
        "config-unsupported-type",
    ),
    "config.build": ("test_config.py::TestBuild::test_unknown_key_lists_known",),
    "config.check_known_sections": (
        "test_config.py::TestSections::test_unknown_section_rejected",
    ),
    "dataset.Sequence.__post_init__": (
        "test_dataset.py::TestSequenceType::test_groundtruth_length_mismatch_rejected",
        "sequence-frame-shape",
    ),
    "dataset.SynthSpec.box_at": (
        "test_dataset.py::TestGenerate::test_overflowing_target_size_rejected",
    ),
    "dataset._validate_spec": (
        "synth-T",
        "synth-frame-size",
        "synth-scale_rate",
        "synth-distractors",
        "synth-occlusion-reversed",
        "synth-target-size",
        "test_dataset.py::TestGenerate::test_target_exits_left_rejected",
    ),
    "dataset.save_sequence": ("test_dataset.py::TestSaveLoad::test_empty_sequence_rejected",),
    "dataset.sequence_name": ("sequence-root",),
    "dataset.load_sequence": (
        "test_dataset.py::TestSaveLoad::test_missing_directory_raises",
        "load-no-frames",
        "test_dataset.py::TestSaveLoad::test_missing_groundtruth_raises",
        "test_dataset.py::TestSaveLoad::test_bad_line_reports_line_number",
        "load-groundtruth-float",
        "test_dataset.py::TestSaveLoad::test_unusable_box_names_file_and_line",
        "test_dataset.py::TestSaveLoad::test_count_mismatch_raises_format_error",
        "load-frame-shape",
        "test_dataset.py::TestSaveLoad::test_bad_occlusion_flag_names_file_and_line",
        "load-occlusion-count",
    ),
    "dataset._write_netpbm": ("save-non-uint8", "netpbm-write-failure"),
    "dataset._read_netpbm": (
        "netpbm-read-failure",
        "netpbm-magic",
        "netpbm-truncated-header",
        "netpbm-header-token",
        "netpbm-maxval",
        "test_dataset.py::TestSaveLoad::test_truncated_image_raises",
    ),
    "errors.read_text": ("test_config.py::TestParse::test_load_config_missing_file",),
    "evaluate.Curve.__post_init__": (
        "test_evaluate.py::TestCurveType::test_mismatched_lengths_rejected",
        "test_evaluate.py::TestCurveType::test_empty_rejected",
        "test_evaluate.py::TestCurveType::test_non_increasing_grid_rejected",
    ),
    "evaluate.Curve.at": ("test_evaluate.py::TestCurveType::test_at_off_grid_rejected",),
    "evaluate._check_pairs": (
        "test_evaluate.py::TestSuccessCurve::test_length_mismatch_rejected",
        "test_evaluate.py::TestPrecisionCurve::test_empty_rejected",
    ),
    "evaluate.auc": ("test_evaluate.py::TestAuc::test_single_point_rejected",),
    "evaluate.emit_plots": ("test_evaluate.py::TestEmitPlots::test_empty_curve_set_rejected",),
    "geometry._require_valid": ("test_geometry.py::TestIou::test_degenerate_rejected",),
    "geometry.average_boxes": ("test_geometry.py::TestAverageBoxes::test_empty_rejected",),
    "geometry.crop_many": ("crop-side", "test_geometry.py::TestCrop::test_out_of_view_raises"),
    "loss.LossWeights.__post_init__": (
        "test_loss.py::TestWeights::test_invalid_rejected",
        "test_loss.py::TestWeights::test_invalid_rejected",
        "test_loss.py::TestWeights::test_invalid_rejected",
    ),
    "loss._pair": ("test_loss.py::TestLossC::test_length_mismatch_rejected",),
    "loss.loss_d": ("test_loss.py::TestLossD::test_nonpositive_beta_rejected",),
    "loss.uses_pair": ("test_loss.py::TestTotalLoss::test_unknown_variant_rejected",),
    "loss.loss_pass": (
        "test_loss.py::TestTotalLoss::test_missing_inputs_rejected",
        "test_loss.py::TestTotalLoss::test_missing_inputs_rejected",
    ),
    "net.FlatParams.__init__": ("test_net.py::TestFlatParams::test_zeros_and_layout_checks",),
    "net.FlatParams.run": ("test_net.py::TestFlatParams::test_run_is_a_slice_of_the_same_vector",),
    "net.Model.__setattr__": (
        "test_net.py::TestOneVector::test_parameter_attributes_neither_read_nor_bind",
    ),
    "net.check_finite": ("test_net.py::TestFlatParams::test_check_finite_with_vector",),
    "net._checked_dims": (
        "test_net.py::TestInit::test_bad_dims_rejected",
        "test_net.py::TestInit::test_bad_dims_rejected",
        "test_net.py::TestInit::test_bad_dims_rejected",
    ),
    "net._as_batch": (
        "test_net.py::TestBackward::test_three_dimensional_stream_rejected",
        "test_net.py::TestForwardFeatures::test_dim_mismatch_rejected",
    ),
    "net._forward": (
        "test_net.py::TestBackward::test_stream_batch_size_mismatch_rejected",
        "test_net.py::TestBackward::test_missing_pair_rejected_outside_sloss_only",
        "test_net.py::TestBackward::test_stream_batch_size_mismatch_rejected",
    ),
    "net._gradient_pass": ("test_net.py::TestBackward::test_nan_parameter_raises_named_error",),
    "net.forward_margins": ("margins-float32-range",),
    "net.finite_diff_check": (
        "test_net.py::TestFiniteDiff::test_unknown_parameter_name_rejected",
        "test_net.py::TestFiniteDiff::test_repeated_parameter_name_rejected",
    ),
    "net.conditioned_batch": ("test_net.py::TestConditionedBatch::test_nan_rejects_the_batch",),
    "net.load_model": (
        "test_net.py::TestSaveLoad::test_wrong_magic_named",
        "test_net.py::TestSaveLoad::test_truncated_file_rejected",
        "test_net.py::TestSaveLoad::test_trailing_garbage_rejected",
        "test_net.py::TestLoadModelRejects::test_rejects",
        "test_net.py::TestLoadModelRejects::test_rejects",
        "test_net.py::TestLoadModelRejects::test_rejects",
        "test_net.py::TestLoadModelRejects::test_rejects",
        "test_net.py::TestLoadModelRejects::test_rejects",
    ),
    "sampler.SamplerConfig.__post_init__": (
        "test_sampler.py::TestConfig::test_lo_below_hi",
        "test_sampler.py::TestConfig::test_shift_max_one_or_two",
        "sampler-m_n",
        "sampler-sigma",
        "sampler-max_rejections",
    ),
    "sampler.Sampler.sample_update_batch": (
        "test_train.py::TestFinetuneUpdate::test_exhaustion_raises",
    ),
    "sampler.Sampler._draw_until": ("test_sampler.py::TestNegatives::test_exhaustion_message",),
    "tracker.TrackerConfig.__post_init__": (
        "test_tracker.py::TestTrackerConfig::test_rejects_bad_values",
        "test_tracker.py::TestTrackerConfig::test_rejects_bad_values",
        "test_tracker.py::TestTrackerConfig::test_rejects_bad_values",
    ),
    "tracker.select": (
        "test_tracker.py::TestSelect::test_nan_inside_top_k_raises_with_its_count",
    ),
    "tracker.track_frame": (
        "test_tracker.py::TestTrackFrame::test_degenerate_previous_box_rejected",
    ),
    "tracker.check_sequence": (
        "test_tracker.py::TestTrackSequence::test_invisible_first_box_rejected_naming_the_sequence",
    ),
    "tracker.read_results": (
        "test_tracker.py::TestResultsCsv::test_bad_header_rejected",
        "test_tracker.py::TestResultsCsv::test_short_line_rejected_with_line_number",
        "test_tracker.py::TestResultsCsv::test_bad_float_rejected",
        "test_tracker.py::TestResultsCsv::test_impossible_box_rejected_with_line_number",
    ),
    "train.StepConfig.__post_init__": (
        "test_train.py::TestTrainConfig::test_rejects_bad_values",
        "test_train.py::TestTrainConfig::test_rejects_bad_values",
        "test_train.py::TestTrainConfig::test_rejects_bad_values",
        "test_train.py::TestTrainConfig::test_rejects_bad_values",
        "test_train.py::TestTrainConfig::test_rejects_bad_values",
        "test_train.py::TestTrainConfig::test_rejects_bad_values",
    ),
    "train.TrainConfig.__post_init__": ("test_train.py::TestTrainConfig::test_rejects_bad_values",),
    "train.optimizer_step": ("test_train.py::TestOptimizerStep::test_shape_mismatch_rejected",),
    "train._patch_side": (
        "patch-channels",
        "test_train.py::TestFinetuneInitial::test_rejects_non_square_input_size",
    ),
    "train._sequence_side": (
        "test_tracker.py::TestTrackSequence::test_single_frame_sequence_rejected",
        "sequence-patch-channels",
    ),
    "train._check_first_box": ("test_train.py::TestFinetuneInitial::test_rejects_invisible_box",),
    "train._first_frame_batches": (
        "test_train.py::TestDrawAhead::test_exhaustion_surfaces_at_the_step_whose_draw_failed",
    ),
    "train.train_offline": (
        "test_train.py::TestTrainOffline::test_requires_sequences",
        "test_train.py::TestTrainOffline::test_rejects_fully_occluded_corpus",
    ),
    "train.train_offline.draw": (
        "test_train.py::TestTrainOffline::test_exhaustion_names_sequence_and_frame",
    ),
    "train.finetune_update": (
        "test_train.py::TestFinetuneUpdate::test_wrecked_finite_update_raises",
    ),
}


def _defined_tests(path: Path) -> set[str]:
    """The "Class::test" and "test" names a test file defines at its top
    level."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names |= {
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name.startswith("test")
            }
    return names


def test_every_raise_is_named():
    sites = Counter(f"{path.stem}.{name}" for path, _, _, name in raise_coverage.raise_sites())
    named = {site: len(tests) for site, tests in TRIGGERED_BY.items()}
    assert named == dict(sites), {
        site: f"{sites.get(site, 0)} raise(s), {named.get(site, 0)} named"
        for site in set(sites) | set(named)
        if sites.get(site, 0) != named.get(site, 0)
    }
    rows = {row.id for row in ROWS}
    defined = {}
    unknown = []
    for site, tests in TRIGGERED_BY.items():
        for test in tests:
            if "::" not in test:
                found = test in rows
            else:
                file, name = test.split("::", 1)
                if file not in defined:
                    defined[file] = _defined_tests(TESTS / file)
                found = name in defined[file]
            if not found:
                unknown.append((site, test))
    assert unknown == []
