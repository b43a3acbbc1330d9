"""Failure paths that no other test reaches, each triggered on purpose:
one row per `raise`, with the call, the exception type and a fragment
of its message."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from slowtrack import bound
from slowtrack.cli import _eval_records
from slowtrack.config import build
from slowtrack.dataset import Frame, Sequence, SynthSpec, generate, load_sequence, save_sequence
from slowtrack.errors import ConfigError, FormatError
from slowtrack.geometry import BBox, crop_many
from slowtrack.net import init_model
from slowtrack.sampler import SamplerConfig
from slowtrack.tracker import RESULTS_HEADER, read_results
from slowtrack.train import _patch_side


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
        lambda tmp: _patch_side(init_model((64, 8, 4, 4, 3, 2), seed=0), RGB), ConfigError,
        "model input size 64 is not divisible by 3 channels", id="patch-channels",
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
