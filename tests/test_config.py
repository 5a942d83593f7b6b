from dataclasses import fields, replace

import pytest

from emospeaker.config import (
    ConfigError,
    RunConfig,
    build_config,
    config_keys,
    load_config_file,
    parse_value,
)
from emospeaker.dsp import FrontEnd

# a valid value other than the default for every front-end parameter
FRONT_END_VALUES = {
    "window_ms": 25.0, "hop_ms": 10.0, "n_fft": 1024, "n_bands": 12, "f_low": 150.0,
    "f_high": 7000.0, "block_size": 7, "f0_min": 60.0, "f0_max": 350.0,
    "voicing_threshold": 0.4,
}


class TestDefaults:
    def test_reference_setup(self):
        cfg = RunConfig()
        assert cfg.plan == "unbiased"
        assert cfg.alpha == 0.5
        assert (cfg.window_ms, cfg.hop_ms) == (30.0, 5.0)
        assert (cfg.n_fft, cfg.n_bands) == (512, 16)
        assert (cfg.f_low, cfg.f_high) == (100.0, 8000.0)
        assert cfg.block_size == 9
        assert (cfg.acoustic_states, cfg.acoustic_mixtures) == (9, 10)
        assert (cfg.prosodic_states, cfg.prosodic_mixtures) == (3, 2)
        assert cfg.sample_rate == 16000
        cfg.validate()

    def test_front_end_and_topology_derived(self):
        cfg = RunConfig(n_bands=8, acoustic_states=3)
        fe = cfg.front_end()
        assert fe.n_bands == 8
        topo = cfg.topology()
        assert topo.acoustic_dim == 8
        assert topo.acoustic_states == 3
        assert topo.prosodic_dim == 4

    def test_emotion_lists(self):
        cfg = RunConfig(emotions=" neutral, angry ,sad ", bias_emotions="")
        assert cfg.emotion_list() == ("neutral", "angry", "sad")
        assert cfg.bias_emotion_list() == ()


class TestFrontEnd:
    def test_defaults_are_the_front_end_defaults(self):
        assert RunConfig().front_end() == FrontEnd()

    @pytest.mark.parametrize("name", [f.name for f in fields(FrontEnd)])
    def test_each_parameter_reaches_the_front_end(self, name):
        value = FRONT_END_VALUES[name]
        assert value != getattr(FrontEnd(), name)
        front_end = build_config(overrides={name: value}).front_end()
        assert front_end == replace(FrontEnd(), **{name: value})

    def test_config_keys_unchanged(self):
        assert config_keys() == [
            "manifest", "out", "plan", "alpha", "seed", "window_ms", "hop_ms", "n_fft",
            "n_bands", "f_low", "f_high", "block_size", "f0_min", "f0_max",
            "voicing_threshold", "acoustic_states", "acoustic_mixtures", "prosodic_states",
            "prosodic_mixtures", "max_iterations", "tolerance", "n_folds", "t_test_n",
            "n_speakers", "emotions", "bias_emotions", "separation", "bias_boost",
            "noise_scale", "frames_min", "frames_max", "sample_rate", "synth_audio",
        ]


class TestParseValue:
    def test_types(self):
        assert parse_value("alpha", "0.25") == 0.25
        assert parse_value("seed", "42") == 42
        assert parse_value("plan", "biased:angry") == "biased:angry"
        assert parse_value("synth_audio", "true") is True
        assert parse_value("synth_audio", "0") is False

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            parse_value("bogus", "1")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_value("alpha", "lots")
        with pytest.raises(ConfigError):
            parse_value("synth_audio", "maybe")


class TestConfigFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment\n"
            "alpha = 0.3   # fusion weight\n"
            "\n"
            "seed=9\n"
            "plan = biased:angry\n"
        )
        values = load_config_file(path)
        assert values == {"alpha": 0.3, "seed": 9, "plan": "biased:angry"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config_file(tmp_path / "nope.cfg")

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = 0.5\njust words\n")
        with pytest.raises(ConfigError, match=":2:"):
            load_config_file(path)

    def test_unknown_key_in_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("wat = 1\n")
        with pytest.raises(ConfigError, match="unknown"):
            load_config_file(path)


class TestBuildConfig:
    def test_precedence_file_then_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = 0.3\nseed = 9\n")
        cfg = build_config(path, {"alpha": 0.7})
        assert cfg.alpha == 0.7  # override wins
        assert cfg.seed == 9  # file wins over default
        assert cfg.plan == "unbiased"  # untouched default

    def test_none_overrides_skipped(self):
        cfg = build_config(None, {"alpha": None, "seed": 3})
        assert cfg.alpha == 0.5
        assert cfg.seed == 3

    def test_validation_runs(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = 1.5\n")
        with pytest.raises(ConfigError, match="alpha"):
            build_config(path)

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"alpha": -0.1}, "alpha"),
            ({"n_fft": 0}, "positive"),
            ({"f_low": 9000.0}, "f_low"),
            ({"f_high": 9000.0}, "Nyquist"),
            ({"f0_min": 500.0}, "f0"),
            ({"voicing_threshold": 1.5}, "voicing"),
            ({"n_folds": 1}, "n_folds"),
            ({"t_test_n": -1}, "t_test_n"),
            ({"frames_min": 50, "frames_max": 40}, "frames"),
            ({"separation": -1.0}, "separation"),
            ({"n_speakers": 1}, "n_speakers"),
        ],
    )
    def test_range_checks(self, overrides, fragment):
        with pytest.raises(ConfigError, match=fragment):
            build_config(None, overrides)

