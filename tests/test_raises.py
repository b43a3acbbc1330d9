"""Failure paths outside `dataset` that no other test reaches, each
triggered on purpose: one row per `raise`, with the call, the exception
type and a fragment of its message."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from slowtrack import bound
from slowtrack.cli import _eval_records
from slowtrack.config import build
from slowtrack.dataset import Frame, SynthSpec, generate
from slowtrack.errors import ConfigError
from slowtrack.geometry import crop_many
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
]


@pytest.mark.parametrize("call, exc, fragment", ROWS)
def test_raises(tmp_path, call, exc, fragment):
    with pytest.raises(exc) as info:
        call(tmp_path)
    assert fragment in str(info.value)
