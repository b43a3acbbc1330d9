"""Tests for the flat key=value config reader."""

import pytest

from slowtrack.bound import BoundParams
from slowtrack.config import (
    build,
    check_known_sections,
    load_config,
    parse_config_text,
    split_sections,
)
from slowtrack.dataset import SynthSpec
from slowtrack.errors import ConfigError
from slowtrack.sampler import SamplerConfig
from slowtrack.train import StepConfig, TrainConfig


class TestParse:
    def test_basic_lines(self):
        entries = parse_config_text("a=1\nb = two\n")
        assert entries == {"a": "1", "b": "two"}

    def test_comments_and_blanks_skipped(self):
        text = "# heading\n\na=1   # trailing\n   \n# b=9\n"
        assert parse_config_text(text) == {"a": "1"}

    def test_value_may_contain_equals(self):
        assert parse_config_text("k=a=b") == {"k": "a=b"}

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match=r"fish\.cfg:2"):
            parse_config_text("a=1\nbogus line\n", source="fish.cfg")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("=5")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a=1\na=2")

    def test_load_config_reads_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("synth.T=4\n")
        assert load_config(p) == {"synth.T": "4"}

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    def test_non_utf8_file_names_the_file(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"synth.T = 4\n# caf\xe9\n")
        with pytest.raises(ConfigError, match=r"cannot read .*bad\.cfg: 'utf-8' codec"):
            load_config(p)

    def test_parse_error_names_the_file(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("oops\n")
        with pytest.raises(ConfigError, match=r"bad\.cfg:1"):
            load_config(p)


class TestSections:
    def test_split_on_first_dot(self):
        entries = {"sampler.lo": "0.1", "sampler.hi": "0.5", "train.seed": "3"}
        sections = split_sections(entries)
        assert sections == {
            "sampler": {"lo": "0.1", "hi": "0.5"},
            "train": {"seed": "3"},
        }

    def test_bare_keys_go_to_unnamed_section(self):
        assert split_sections({"seed": "1"}) == {"": {"seed": "1"}}

    def test_nested_dots_stay_in_rest(self):
        assert split_sections({"a.b.c": "x"}) == {"a": {"b.c": "x"}}

    def test_known_sections_pass(self):
        check_known_sections({"synth": {}}, {"synth", "other"})

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            check_known_sections({"synht": {}}, {"synth"})

    def test_unknown_section_lists_what_is_read(self):
        with pytest.raises(ConfigError) as info:
            check_known_sections({"bogus": {}}, {"synth"})
        assert str(info.value) == (
            "config: unknown section(s) ['bogus']; this command reads ['synth']"
        )


class TestBuild:
    def test_defaults_when_no_entries(self):
        assert build(SamplerConfig, {}) == SamplerConfig()

    def test_scalar_fields(self):
        sc = build(SamplerConfig, {"lo": "0.3", "m_p": "4", "seed": "9"})
        assert sc.lo == 0.3 and sc.m_p == 4 and sc.seed == 9
        assert sc.hi == SamplerConfig().hi  # untouched default

    def test_string_field(self):
        tc = build(TrainConfig, {"optimizer": "sgd", "iterations": "1"})
        assert tc.optimizer == "sgd"

    @pytest.mark.parametrize("raw,value", [
        ("true", True), ("yes", True), ("1", True),
        ("false", False), ("no", False), ("0", False), ("False", False),
    ])
    def test_bool_forms(self, raw, value):
        tc = build(TrainConfig, {"skip_occluded": raw, "iterations": "1"})
        assert tc.skip_occluded is value

    def test_bool_garbage_rejected(self):
        with pytest.raises(ConfigError, match="boolean"):
            build(TrainConfig, {"skip_occluded": "maybe", "iterations": "1"})

    def test_optional_none(self):
        spec = build(SynthSpec, {"start_x": "none"})
        assert spec.start_x is None

    def test_optional_with_value(self):
        spec = build(SynthSpec, {"start_x": "42.5"})
        assert spec.start_x == 42.5

    def test_fixed_tuple_comma(self):
        spec = build(SynthSpec, {"velocity": "1.0,0.5"})
        assert spec.velocity == (1.0, 0.5)

    def test_fixed_tuple_colon(self):
        spec = build(SynthSpec, {"velocity": "1.0:0.5"})
        assert spec.velocity == (1.0, 0.5)

    def test_fixed_tuple_arity_error(self):
        with pytest.raises(ConfigError, match="expected 2 values"):
            build(SynthSpec, {"velocity": "1.0,0.5,0.2"})

    def test_variadic_tuple_of_pairs(self):
        spec = build(SynthSpec, {"occlusions": "20:30,50:60"})
        assert spec.occlusions == ((20, 30), (50, 60))

    def test_variadic_tuple_empty(self):
        spec = build(SynthSpec, {"occlusions": ""})
        assert spec.occlusions == ()

    def test_variadic_int_tuple(self):
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class Dims:
            dims: tuple[int, ...] = ()

        assert build(Dims, {"dims": "64, 16, 8"}).dims == (64, 16, 8)

    def test_unknown_key_lists_known(self):
        with pytest.raises(ConfigError, match="unknown key.*m_n"):
            build(SamplerConfig, {"m_x": "4"}, section="sampler")

    def test_error_carries_section_prefix(self):
        with pytest.raises(ConfigError, match=r"sampler\.lo"):
            build(SamplerConfig, {"lo": "abc"}, section="sampler")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("dc, key, template", [
        (SamplerConfig, "sigma_xy", "{}"),  # scalar
        (SynthSpec, "velocity", "1.0,{}"),  # inside a tuple
        (SynthSpec, "start_x", "{}"),  # optional
    ])
    def test_non_finite_float_rejected(self, raw, dc, key, template):
        message = rf"^sec\.{key}: expected a finite number, got '{raw}'$"
        with pytest.raises(ConfigError, match=message):
            build(dc, {key: template.format(raw)}, section="sec")

    def test_int_garbage_rejected(self):
        with pytest.raises(ConfigError):
            build(SamplerConfig, {"m_p": "4.5"})

    def test_dataclass_validation_still_runs(self):
        with pytest.raises(ConfigError):
            build(SamplerConfig, {"lo": "0.9", "hi": "0.1"})

    def test_instance_keeps_unmentioned_fields(self):
        base = StepConfig(iterations=300, optimizer="sgd")
        tc = build(base, {"batch_size": "7", "learning_rate": "0.01"}, section="init_train")
        assert tc == StepConfig(
            iterations=300, optimizer="sgd", batch_size=7, learning_rate=0.01
        )
        assert base == StepConfig(iterations=300, optimizer="sgd")

    def test_instance_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match=r"init_train\.bogus: unknown key"):
            build(StepConfig(iterations=300), {"bogus": "1"}, section="init_train")

    def test_instance_validation_still_runs(self):
        with pytest.raises(ConfigError):
            build(SamplerConfig(seed=3), {"lo": "0.9", "hi": "0.1"})

    def test_bound_params_from_strings(self):
        bp = build(BoundParams, {"n": "4", "m": "100", "delta": "0.5"})
        assert bp == BoundParams(n=4, m=100, delta=0.5)

    def test_full_synth_spec_round_trip(self):
        spec = build(SynthSpec, {
            "T": "16",
            "velocity": "2.0,-1.0",
            "occlusions": "3:5",
            "distractors": "2",
            "rgb": "true",
            "seed": "11",
        })
        assert spec.T == 16
        assert spec.velocity == (2.0, -1.0)
        assert spec.occlusions == ((3, 5),)
        assert spec.distractors == 2
        assert spec.rgb is True
        assert spec.seed == 11
