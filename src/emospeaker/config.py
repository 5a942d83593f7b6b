"""Flat key=value run configuration shared by every command.

One config file describes a whole experiment — corpus location, plan, fusion
weight, topology, front-end and training knobs, output directory — and every
key can be overridden by a command-line flag of the same name. Defaults
reproduce the reference setup (16-band 100-8000 Hz front end over 30 ms/5 ms
frames, 9x10 acoustic and 3x2 prosodic topology, alpha = 0.5).
"""

import typing
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import read_utf8
from .dsp import FrontEnd
from .sphmm import Topology


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


@dataclass
class RunConfig:
    # experiment identity
    manifest: str = ""
    out: str = ""
    plan: str = "unbiased"
    alpha: float = 0.5
    seed: int = 0
    # acoustic front end
    window_ms: float = FrontEnd.window_ms
    hop_ms: float = FrontEnd.hop_ms
    n_fft: int = FrontEnd.n_fft
    n_bands: int = FrontEnd.n_bands
    f_low: float = FrontEnd.f_low
    f_high: float = FrontEnd.f_high
    # prosodic front end
    block_size: int = FrontEnd.block_size
    f0_min: float = FrontEnd.f0_min
    f0_max: float = FrontEnd.f0_max
    voicing_threshold: float = FrontEnd.voicing_threshold
    # model topology
    acoustic_states: int = Topology.acoustic_states
    acoustic_mixtures: int = Topology.acoustic_mixtures
    prosodic_states: int = Topology.prosodic_states
    prosodic_mixtures: int = Topology.prosodic_mixtures
    # training
    max_iterations: int = 40
    tolerance: float = 1e-4
    # evaluation
    n_folds: int = 5
    t_test_n: int = 0  # 0: use the per-category trial count of the session
    # synthetic corpus generation
    n_speakers: int = 10
    emotions: str = "neutral,angry,sad,happy,disgust,fear"
    bias_emotions: str = ""
    separation: float = 4.0
    bias_boost: float = 2.0
    noise_scale: float = 2.0
    frames_min: int = 40
    frames_max: int = 60
    sample_rate: int = 16000
    synth_audio: bool = False

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        positive = (
            "window_ms", "hop_ms", "n_fft", "n_bands", "block_size",
            "acoustic_states", "acoustic_mixtures", "prosodic_states",
            "prosodic_mixtures", "max_iterations", "sample_rate", "bias_boost",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.f_low < self.f_high:
            raise ConfigError(f"need 0 < f_low < f_high, got {self.f_low}, {self.f_high}")
        if self.f_high > self.sample_rate / 2:
            raise ConfigError(
                f"f_high {self.f_high} above Nyquist for sample_rate {self.sample_rate}"
            )
        if not 0 < self.f0_min < self.f0_max:
            raise ConfigError(f"need 0 < f0_min < f0_max, got {self.f0_min}, {self.f0_max}")
        if not 0.0 <= self.voicing_threshold <= 1.0:
            raise ConfigError(f"voicing_threshold must lie in [0, 1], got {self.voicing_threshold}")
        if self.tolerance < 0:
            raise ConfigError(f"tolerance must be >= 0, got {self.tolerance}")
        if self.n_folds < 2:
            raise ConfigError(f"n_folds must be >= 2, got {self.n_folds}")
        if self.t_test_n < 0:
            raise ConfigError(f"t_test_n must be >= 0, got {self.t_test_n}")
        if self.n_speakers < 2:
            raise ConfigError(f"n_speakers must be >= 2, got {self.n_speakers}")
        if not 1 <= self.frames_min <= self.frames_max:
            raise ConfigError(
                f"need 1 <= frames_min <= frames_max, got {self.frames_min}, {self.frames_max}"
            )
        if self.noise_scale < 0:
            raise ConfigError(f"noise_scale must be >= 0, got {self.noise_scale}")
        if self.separation < 0:
            raise ConfigError(f"separation must be >= 0, got {self.separation}")

    def front_end(self) -> FrontEnd:
        return FrontEnd(**{f.name: getattr(self, f.name) for f in fields(FrontEnd)})

    def topology(self) -> Topology:
        """States and mixtures by field name, ``n_bands`` as the acoustic width."""
        shape = {f.name: getattr(self, f.name) for f in fields(Topology) if hasattr(self, f.name)}
        return Topology(**shape, acoustic_dim=self.n_bands)

    def emotion_list(self) -> tuple[str, ...]:
        return _split_list(self.emotions)

    def bias_emotion_list(self) -> tuple[str, ...]:
        return _split_list(self.bias_emotions)


def _split_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


_FIELD_TYPES: dict[str, type] = typing.get_type_hints(RunConfig)


def config_keys() -> list[str]:
    return [f.name for f in fields(RunConfig)]


def parse_value(key: str, raw: str):
    """Convert one textual value to the key's declared type."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    target = _FIELD_TYPES[key]
    try:
        if target is bool:
            return _parse_bool(raw)
        return target(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def value_parser(key: str):
    """``parse_value`` for one key, as a callable named after the key's type.

    argparse names a flag's type by its ``__name__`` in a usage error, so a
    bad ``--alpha`` reads ``invalid float value: 'x'``.
    """
    def parse(raw: str):
        return parse_value(key, raw)

    parse.__name__ = _FIELD_TYPES[key].__name__
    return parse


def load_config_file(path: str | Path) -> dict:
    """Read ``key = value`` lines; ``#`` starts a comment, blank lines ignored.

    Every fault, an unreadable or non-UTF-8 file included, raises ``ConfigError``.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = {}
    for lineno, line in enumerate(read_utf8(path, ConfigError).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        values[key] = parse_value(key, raw.strip())
    return values


def build_config(file_path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Defaults, then the config file, then explicit overrides; validated."""
    settings: dict = {}
    if file_path is not None:
        settings.update(load_config_file(file_path))
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        settings[key] = value
    config = RunConfig(**settings)
    config.validate()
    return config

