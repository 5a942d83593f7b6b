"""Corpus data model, manifest I/O, WAV ingestion, and synthetic corpus generation.

A corpus is described by a manifest: a UTF-8, comma-delimited text file with
the header

    speaker_id,gender,emotion,sentence_id,bias_tag,session,repetition,source

Lines starting with ``#`` before the header carry ``key=value`` metadata
(``sample_rate`` is special-cased), each key once; a ``#`` line without ``=``
is a comment. Each speaker utters 5 sentences, 15 times each, per emotion:
repetitions 1..9 belong to the training session and 10..15 to the test
session. ``bias_tag`` is either ``unbiased`` or ``biased:<emotion>``;
a neutral-biased sentence set is the unbiased set itself, so ``biased:neutral``
is normalized to ``unbiased`` on load.

Utterance sources are WAV files (PCM signed 16-bit mono) or precomputed
feature files (see :func:`write_feature_file`).
"""

import csv
import hashlib
import struct
import wave
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dsp import frame_geometry

EMOTIONS = ("neutral", "angry", "sad", "happy", "disgust", "fear")
GENDERS = ("male", "female")

SENTENCE_IDS = (1, 2, 3, 4, 5)
TRAIN_REPS = tuple(range(1, 10))
TEST_REPS = tuple(range(10, 16))

UNBIASED = "unbiased"

MANIFEST_COLUMNS = (
    "speaker_id",
    "gender",
    "emotion",
    "sentence_id",
    "bias_tag",
    "session",
    "repetition",
    "source",
)


class CorpusError(ValueError):
    """Base class for corpus-level failures."""


class ManifestError(CorpusError):
    """Raised when a manifest is missing, malformed, or inconsistent."""


class AudioFormatError(CorpusError):
    """Raised when an audio file is not mono 16-bit PCM WAV."""


class FeatureFileError(CorpusError):
    """Raised when a feature file fails magic/version/shape validation."""


def normalize_bias_tag(tag: str) -> str:
    """Validate a bias tag and map ``biased:neutral`` onto ``unbiased``."""
    if tag == UNBIASED:
        return tag
    if tag.startswith("biased:"):
        emotion = tag.split(":", 1)[1]
        if emotion not in EMOTIONS:
            raise CorpusError(f"unknown emotion {emotion!r} in bias tag {tag!r}")
        return UNBIASED if emotion == "neutral" else tag
    raise CorpusError(f"invalid bias tag {tag!r} (expected 'unbiased' or 'biased:<emotion>')")


def bias_file_token(tag: str) -> str:
    """Filename-safe form of a bias tag (``biased:angry`` -> ``biased-angry``)."""
    return tag.replace(":", "-")


def session_for_repetition(repetition: int) -> str:
    return "train" if repetition <= 9 else "test"


@dataclass(frozen=True)
class UtteranceRecord:
    """One labeled utterance of the corpus."""

    speaker_id: str
    gender: str
    emotion: str
    sentence_id: int
    bias_tag: str
    session: str
    repetition: int
    source: str

    @property
    def key(self) -> str:
        """Stable, filename-safe identifier for this utterance."""
        return (
            f"{self.speaker_id}_{self.emotion}_s{self.sentence_id}"
            f"_r{self.repetition:02d}_{bias_file_token(self.bias_tag)}"
        )

    @property
    def group_key(self) -> tuple:
        """Uniqueness key: one record per (speaker, emotion, sentence, bias, rep)."""
        return (self.speaker_id, self.emotion, self.sentence_id, self.bias_tag, self.repetition)

    def validate(self) -> None:
        if self.gender not in GENDERS:
            raise CorpusError(f"unknown gender {self.gender!r}")
        if self.emotion not in EMOTIONS:
            raise CorpusError(f"unknown emotion {self.emotion!r}")
        if self.sentence_id not in SENTENCE_IDS:
            raise CorpusError(f"sentence_id {self.sentence_id} out of 1..5")
        if not 1 <= self.repetition <= 15:
            raise CorpusError(f"repetition {self.repetition} out of 1..15")
        if normalize_bias_tag(self.bias_tag) != self.bias_tag:
            raise CorpusError(f"bias tag {self.bias_tag!r} not normalized")
        if self.session != session_for_repetition(self.repetition):
            raise CorpusError(
                f"session {self.session!r} inconsistent with repetition {self.repetition}"
                f" (1..9 train, 10..15 test)"
            )


@dataclass
class CorpusManifest:
    """All records of one corpus plus its recording parameters."""

    records: list[UtteranceRecord]
    sample_rate: int = 16000
    metadata: dict[str, str] = field(default_factory=dict)
    root: Path | None = None

    @property
    def speakers(self) -> list[str]:
        return sorted({r.speaker_id for r in self.records})

    def resolve(self, record: UtteranceRecord) -> Path:
        """Absolute path of a record's source, relative paths anchored at root."""
        if self.root is None:
            return Path(record.source)
        return self.root / record.source  # an absolute source replaces root


def load_manifest(path: str | Path) -> CorpusManifest:
    """Parse a manifest file, rejecting malformed rows with line-numbered errors."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"manifest not found: {path}")

    metadata: dict[str, str] = {}
    key_lines: dict[str, int] = {}
    header_line = None
    rows: list[tuple[int, list[str]]] = []
    with path.open(encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.rstrip("\n").rstrip("\r")
            if not stripped:
                continue
            if stripped.startswith("#"):
                if header_line is not None:
                    raise ManifestError(f"{path}:{lineno}: comment after header")
                key, is_pair, value = stripped[1:].strip().partition("=")
                if not is_pair:
                    continue  # a free-text comment
                key = key.strip()
                if key in key_lines:
                    raise ManifestError(
                        f"{path}:{lineno}: metadata key {key!r} already set on line {key_lines[key]}"
                    )
                key_lines[key] = lineno
                metadata[key] = value.strip()
                continue
            if header_line is None:
                header_line = lineno
                fields = next(csv.reader([stripped]))
                if tuple(fields) != MANIFEST_COLUMNS:
                    raise ManifestError(
                        f"{path}:{lineno}: bad header {fields!r}, expected"
                        f" {','.join(MANIFEST_COLUMNS)}"
                    )
                continue
            rows.append((lineno, next(csv.reader([stripped]))))

    if header_line is None:
        raise ManifestError(f"{path}: no header row found")

    rate = metadata.pop("sample_rate", "16000")
    if not rate.isdecimal() or int(rate) == 0:
        raise ManifestError(f"{path}: sample_rate {rate!r} is not a positive integer")
    sample_rate = int(rate)
    records: list[UtteranceRecord] = []
    errors: list[str] = []
    seen: dict[tuple, int] = {}
    for lineno, fields in rows:
        if len(fields) != len(MANIFEST_COLUMNS):
            errors.append(f"row {lineno}: expected {len(MANIFEST_COLUMNS)} fields, got {len(fields)}")
            continue
        speaker, gender, emotion, sentence, bias, session, rep, source = fields
        try:
            record = UtteranceRecord(
                speaker_id=speaker,
                gender=gender,
                emotion=emotion,
                sentence_id=int(sentence),
                bias_tag=normalize_bias_tag(bias),
                session=session,
                repetition=int(rep),
                source=source,
            )
            record.validate()
        except (CorpusError, ValueError) as exc:
            errors.append(f"row {lineno}: {exc}")
            continue
        if record.group_key in seen:
            errors.append(
                f"row {lineno}: duplicate of row {seen[record.group_key]}"
                f" ({record.speaker_id}, {record.emotion}, sentence {record.sentence_id},"
                f" {record.bias_tag}, repetition {record.repetition})"
            )
            continue
        seen[record.group_key] = lineno
        records.append(record)

    if errors:
        raise ManifestError(f"{path}: {len(errors)} bad row(s):\n  " + "\n  ".join(errors))
    return CorpusManifest(records=records, sample_rate=sample_rate, metadata=metadata, root=path.parent)


def write_manifest(manifest: CorpusManifest, path: str | Path) -> None:
    """Write a manifest; ``load_manifest`` of the result reproduces the input."""
    path = Path(path)
    lines = [f"# sample_rate={manifest.sample_rate}"]
    for key in sorted(manifest.metadata):
        lines.append(f"# {key}={manifest.metadata[key]}")
    lines.append(",".join(MANIFEST_COLUMNS))
    for r in manifest.records:
        row = [
            r.speaker_id,
            r.gender,
            r.emotion,
            str(r.sentence_id),
            r.bias_tag,
            r.session,
            str(r.repetition),
            r.source,
        ]
        for value in row:
            if "," in value or '"' in value or "\n" in value:
                raise ManifestError(f"field {value!r} needs quoting; not supported")
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- protocol count validation -------------------------------------------------

@dataclass
class ProtocolReport:
    """Pass/fail result of checking a manifest against a training plan."""

    ok: bool
    plan: str
    expected_train_per_speaker: int
    expected_test_per_speaker: int
    train_counts: dict[str, int]
    test_counts: dict[str, int]
    deficits: list[tuple]

    @property
    def test_total(self) -> int:
        return sum(self.test_counts.values())

    @property
    def train_total(self) -> int:
        return sum(self.train_counts.values())

    def summary(self) -> str:
        status = "pass" if self.ok else "fail"
        lines = [
            f"plan={self.plan} status={status}",
            f"train per speaker: expected {self.expected_train_per_speaker}",
            f"test per speaker: expected {self.expected_test_per_speaker}",
            f"train total: {self.train_total}",
            f"test total: {self.test_total}",
        ]
        for speaker, emotion, sentence, bias, session, have, want in self.deficits:
            lines.append(
                f"deficit: {speaker} {emotion} sentence {sentence} {bias}"
                f" {session}: {have}/{want}"
            )
        return "\n".join(lines)


def normalize_plan(plan: str) -> str:
    """A training plan is a bias tag; ``biased:neutral`` resolves to unbiased."""
    return normalize_bias_tag(plan)


def plan_cells(manifest: CorpusManifest, plan: str) -> list[tuple[str, str]]:
    """(emotion, bias_tag) cells a plan draws from on this manifest: the one plan rule.

    A plan covers every emotion that has unbiased records in the manifest and
    draws each from its unbiased material, except that plan ``biased:<e>``
    draws emotion e from its ``biased:<e>`` material instead. That cell comes
    first and is always covered, with or without records; the others follow
    in ``EMOTIONS`` order.
    """
    plan = normalize_plan(plan)
    unbiased = {r.emotion for r in manifest.records if r.bias_tag == UNBIASED}
    if plan == UNBIASED:
        return [(e, UNBIASED) for e in EMOTIONS if e in unbiased]
    target = plan.split(":", 1)[1]
    return [(target, plan)] + [(e, UNBIASED) for e in EMOTIONS if e in unbiased and e != target]


def plan_grid(manifest: CorpusManifest, plan: str) -> dict[tuple, list[UtteranceRecord]]:
    """The records a plan draws from, grouped once by cell.

    Maps each (speaker, emotion, bias_tag, sentence) cell of :func:`plan_cells`
    that has records to its records of both sessions, in repetition order;
    cells without records are absent. Every consumer of a plan reads this grid
    and imposes its own order.
    """
    wanted = set(plan_cells(manifest, plan))
    grid: dict[tuple, list[UtteranceRecord]] = {}
    for r in manifest.records:
        if (r.emotion, r.bias_tag) in wanted:
            grid.setdefault((r.speaker_id, r.emotion, r.bias_tag, r.sentence_id), []).append(r)
    for cell in grid.values():
        cell.sort(key=lambda r: r.repetition)
    return grid


def session_part(cell: list[UtteranceRecord], session: str) -> list[UtteranceRecord]:
    """A grid cell's records of one session, in repetition order.

    The one completeness rule: a cell is complete for a session when this
    holds as many records as the session has repetitions.
    """
    return [r for r in cell if r.session == session]


def validate_protocol_counts(manifest: CorpusManifest, plan: str) -> ProtocolReport:
    """Check the 9-train/6-test sentence grid for every speaker under a plan.

    Every (emotion, bias) cell of :func:`plan_cells` must hold 5 sentences x
    9 training and 6 test repetitions, so reduced synthetic corpora validate
    under the same rule. Deficits are listed per speaker, then cell, then
    sentence, train before test.
    """
    plan = normalize_plan(plan)
    cells = plan_cells(manifest, plan)
    grid = plan_grid(manifest, plan)
    sessions = (("train", len(TRAIN_REPS)), ("test", len(TEST_REPS)))

    speakers = manifest.speakers
    counts = {session: dict.fromkeys(speakers, 0) for session, _ in sessions}
    deficits = []
    for speaker in speakers:
        for emotion, bias in cells:
            for sentence in SENTENCE_IDS:
                cell = grid.get((speaker, emotion, bias, sentence), [])
                for session, want in sessions:
                    have = len(session_part(cell, session))
                    counts[session][speaker] += have
                    if have != want:
                        deficits.append((speaker, emotion, sentence, bias, session, have, want))

    return ProtocolReport(
        ok=not deficits,
        plan=plan,
        expected_train_per_speaker=len(cells) * len(SENTENCE_IDS) * len(TRAIN_REPS),
        expected_test_per_speaker=len(cells) * len(SENTENCE_IDS) * len(TEST_REPS),
        train_counts=counts["train"],
        test_counts=counts["test"],
        deficits=deficits,
    )


# --- audio I/O -------------------------------------------------------------------

@dataclass
class AudioSignal:
    """Mono 16-bit PCM audio."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples)
        if self.samples.ndim != 1:
            raise AudioFormatError("audio must be mono (1-D sample array)")
        if self.samples.size == 0:
            raise AudioFormatError("audio is empty")

    def as_float(self) -> np.ndarray:
        return self.samples.astype(np.float64)


def read_audio(path: str | Path) -> AudioSignal:
    """Decode a mono 16-bit PCM WAV file exactly."""
    if not isinstance(path, Path):
        path = Path(path)
    if not path.exists():
        raise AudioFormatError(f"audio file not found: {path}")
    try:
        with wave.open(str(path), "rb") as wav:
            n_channels = wav.getnchannels()
            sample_width = wav.getsampwidth()
            rate = wav.getframerate()
            n_frames = wav.getnframes()
            raw = wav.readframes(n_frames)
    except (wave.Error, EOFError) as exc:
        raise AudioFormatError(f"{path}: unsupported encoding ({exc})") from exc
    if n_channels != 1:
        raise AudioFormatError(f"{path}: expected mono, got {n_channels} channels")
    if sample_width != 2:
        raise AudioFormatError(f"{path}: expected 16-bit samples, got {8 * sample_width}-bit")
    if len(raw) != 2 * n_frames:
        raise AudioFormatError(f"{path}: truncated file ({len(raw)} bytes for {n_frames} frames)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.int16)
    return AudioSignal(samples=samples, sample_rate=rate)


def write_audio(signal: AudioSignal, path: str | Path) -> None:
    path = Path(path)
    samples = np.asarray(signal.samples, dtype="<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(signal.sample_rate)
        wav.writeframes(samples.tobytes())


# --- feature files ----------------------------------------------------------------

FEATURE_MAGIC = b"EMSPFEAT"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<8sIII")


def write_feature_file(array: np.ndarray, path: str | Path) -> None:
    """Write a (frames, coefficients) float array: magic, version, shape, raw f64 LE."""
    array = np.ascontiguousarray(array, dtype="<f8")
    if array.ndim != 2:
        raise FeatureFileError("feature array must be 2-D (frames x coefficients)")
    header = _FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, array.shape[0], array.shape[1])
    with open(path, "wb") as fh:
        fh.write(header + array.tobytes())


def read_feature_file(path: str | Path) -> np.ndarray:
    if not isinstance(path, Path):
        path = Path(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        raise FeatureFileError(f"feature file not found: {path}") from None
    if len(blob) < _FEATURE_HEADER.size:
        raise FeatureFileError(f"{path}: truncated header")
    magic, version, n_frames, n_coeffs = _FEATURE_HEADER.unpack_from(blob)
    if magic != FEATURE_MAGIC:
        raise FeatureFileError(f"{path}: bad magic {magic!r}")
    if version != FEATURE_VERSION:
        raise FeatureFileError(f"{path}: unsupported version {version}")
    expected = _FEATURE_HEADER.size + 8 * n_frames * n_coeffs
    if len(blob) != expected:
        raise FeatureFileError(f"{path}: size {len(blob)} != expected {expected}")
    data = np.frombuffer(blob, dtype="<f8", offset=_FEATURE_HEADER.size)
    array = data.reshape(n_frames, n_coeffs).copy()
    if not np.all(np.isfinite(array)):
        raise FeatureFileError(f"{path}: non-finite values")
    return array


# --- synthetic corpus --------------------------------------------------------------

def derive_seed(seed: int, *parts) -> int:
    """Integer seed keyed by (seed, parts) via sha256: stable across processes.

    Unlike ``hash()``, the derivation does not depend on interpreter
    randomization, so every run of the same request draws the same streams.
    """
    text = ":".join(str(p) for p in parts)
    digest = hashlib.sha256(f"{seed}|{text}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _derived_rng(seed: int, *parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, *parts))


_PROSODIC_BASE = np.array([140.0, 30.0, -25.0, 0.7])
_PROSODIC_SPEAKER_SCALE = np.array([5.0, 2.0, 1.5, 0.02])
_PROSODIC_EMOTION_SCALE = np.array([8.0, 4.0, 2.0, 0.05])
_PROSODIC_NOISE_SCALE = np.array([3.0, 1.5, 1.0, 0.04])


def _clip_prosodic(blocks: np.ndarray) -> np.ndarray:
    blocks[:, 0] = np.clip(blocks[:, 0], 75.0, 400.0)
    blocks[:, 1] = np.maximum(blocks[:, 1], 0.0)
    blocks[:, 3] = np.clip(blocks[:, 3], 0.05, 1.0)
    return blocks


def generate_synthetic_corpus(
    seed: int,
    n_speakers: int,
    emotions: tuple[str, ...],
    separation: float,
    out_dir: str | Path,
    *,
    bias_emotions: tuple[str, ...] = (),
    bias_boost: float = 2.0,
    n_coefficients: int = 16,
    frames_range: tuple[int, int] = (40, 60),
    block_size: int = 9,
    noise_scale: float = 2.0,
    audio: bool = False,
    sample_rate: int = 16000,
) -> CorpusManifest:
    """Generate a seeded corpus following the 9-train/6-test repetition protocol.

    Every utterance is sampled from a per-(speaker, emotion) Gaussian-HMM
    source whose speaker component scales with ``separation``; at separation 0
    all speakers share one source distribution. For emotions listed in
    ``bias_emotions``, additional ``biased:<emotion>`` records are emitted whose
    speaker component is amplified by ``bias_boost`` (content coupled more
    tightly to the speaker). By default feature files are written (acoustic
    ``{key}.lfpc.feat`` plus prosodic ``{key}.pros.feat``); with ``audio=True``
    WAV files of summed harmonics plus noise are written instead.

    Deterministic: every random stream is keyed by the seed and what it
    describes, so identical arguments yield byte-identical output files.
    ``base`` and each speaker's signatures (features) or voice (audio) are
    drawn once. Each (speaker, cell), a cell being an (emotion, bias tag)
    pair, draws its constants once: in feature mode the emotion offset, the
    speaker x emotion interaction, 3 state offsets and the prosodic emotion
    offset, which fix the cell's acoustic and prosodic means; in audio mode
    the emotion factor, which with the speaker's voice fixes the harmonics.
    Each utterance then draws only from its own ``(seed, "utt", key)``
    stream.
    """
    if n_speakers < 2:
        raise CorpusError("need at least 2 speakers")
    for e in emotions:
        if e not in EMOTIONS:
            raise CorpusError(f"unknown emotion {e!r}")
    bias_tags = []
    for e in bias_emotions:
        if e not in emotions:
            raise CorpusError(f"bias emotion {e!r} not in corpus emotions")
        tag = normalize_bias_tag(f"biased:{e}")
        if tag != UNBIASED:  # biased:neutral is the unbiased set itself
            bias_tags.append((e, tag))

    out_dir = Path(out_dir)
    (out_dir / ("audio" if audio else "features")).mkdir(parents=True, exist_ok=True)

    base = _derived_rng(seed, "base").normal(30.0, 5.0, n_coefficients)
    speakers = [f"spk{i + 1:02d}" for i in range(n_speakers)]

    records = []
    for si, speaker in enumerate(speakers):
        gender = GENDERS[si % 2]
        if audio:
            spk_rng = _derived_rng(seed, "spk", speaker, "audio")
            voice = (spk_rng.normal(0.0, 4.0), spk_rng.normal(0.0, 0.2))
        else:
            signature = separation * _derived_rng(seed, "spk", speaker).standard_normal(n_coefficients)
            pros_signature = separation * _derived_rng(seed, "spk", speaker, "pros").standard_normal(4)
        for emotion in emotions:
            cells = [(emotion, UNBIASED)]
            cells.extend((e, tag) for e, tag in bias_tags if e == emotion)
            for cell_emotion, bias_tag in cells:
                boost = bias_boost if bias_tag != UNBIASED else 1.0
                if audio:
                    write = _audio_cell_writer(
                        seed, out_dir, voice, cell_emotion, separation * boost,
                        frames_range, sample_rate,
                    )
                else:
                    write = _feature_cell_writer(
                        seed, out_dir, speaker, cell_emotion,
                        base, signature * boost, pros_signature * boost,
                        n_coefficients, frames_range, block_size, noise_scale,
                    )
                for sentence in SENTENCE_IDS:
                    for rep in TRAIN_REPS + TEST_REPS:
                        record = UtteranceRecord(
                            speaker_id=speaker,
                            gender=gender,
                            emotion=cell_emotion,
                            sentence_id=sentence,
                            bias_tag=bias_tag,
                            session=session_for_repetition(rep),
                            repetition=rep,
                            source="",
                        )
                        records.append(replace(record, source=write(record.key)))

    records.sort(key=lambda r: (r.speaker_id, r.bias_tag, EMOTIONS.index(r.emotion),
                                r.sentence_id, r.repetition))
    manifest = CorpusManifest(
        records=records,
        sample_rate=sample_rate,
        metadata={
            "generator": "synthetic",
            "seed": str(seed),
            "n_speakers": str(n_speakers),
            "emotions": " ".join(emotions),
            "bias_emotions": " ".join(bias_emotions),
            "separation": repr(float(separation)),
            "bias_boost": repr(float(bias_boost)),
            "mode": "audio" if audio else "features",
        },
        root=out_dir,
    )
    write_manifest(manifest, out_dir / "manifest.csv")
    return manifest


def _feature_cell_writer(seed, out_dir, speaker, emotion, base, signature, pros_signature,
                         n_coefficients, frames_range, block_size, noise_scale):
    """Writer of one (speaker, cell)'s feature files: ``write(key)`` -> source path.

    The cell's constants are drawn here, once; ``write`` draws only from the
    utterance's own stream: frame count, source chain, acoustic noise, then
    prosodic noise.
    """
    emotion_offset = _derived_rng(seed, "emo", emotion).normal(0.0, 3.0, n_coefficients)
    interaction = 0.5 * np.linalg.norm(signature) * _derived_rng(
        seed, "inter", speaker, emotion
    ).standard_normal(n_coefficients) / max(np.sqrt(n_coefficients), 1.0)
    n_states = 3
    state_offsets = np.stack([
        _derived_rng(seed, "emo", emotion, "state", k).normal(0.0, 2.0, n_coefficients)
        for k in range(n_states)
    ])
    mean = base + signature + emotion_offset + interaction
    pros_emotion = _derived_rng(seed, "emo", emotion, "pros").standard_normal(4)
    pros_mean = (
        _PROSODIC_BASE
        + pros_signature * _PROSODIC_SPEAKER_SCALE
        + pros_emotion * _PROSODIC_EMOTION_SCALE
    )

    def write(key):
        rng = _derived_rng(seed, "utt", key)
        n_frames = int(rng.integers(frames_range[0], frames_range[1] + 1))
        # sticky source chain so frames are serially correlated like real speech
        path = np.empty(n_frames, dtype=int)
        path[0] = rng.integers(n_states)
        for t in range(1, n_frames):
            path[t] = path[t - 1] if rng.random() < 0.7 else rng.integers(n_states)
        acoustic = mean + state_offsets[path] + noise_scale * rng.standard_normal(
            (n_frames, n_coefficients)
        )
        rel = f"features/{key}.lfpc.feat"
        write_feature_file(acoustic, out_dir / rel)

        n_blocks = -(-n_frames // block_size)
        blocks = pros_mean + _PROSODIC_NOISE_SCALE * rng.standard_normal((n_blocks, 4))
        write_feature_file(_clip_prosodic(blocks), out_dir / f"features/{key}.pros.feat")
        return rel

    return write


def _audio_cell_writer(seed, out_dir, voice, emotion, separation, frames_range, sample_rate):
    """Writer of one (speaker, cell)'s WAV files: ``write(key)`` -> source path.

    ``voice`` is the speaker's two draws for f0 and harmonic decay; with the
    emotion factor they fix the cell's harmonics here, once. ``write`` draws
    only from the utterance's own stream: frame count, one phase per
    harmonic, then noise. A WAV of n frames holds exactly the samples that
    the front end's framing at ``sample_rate`` (``dsp.frame_geometry``) cuts
    into n frames.
    """
    window_length, hop = frame_geometry(sample_rate)
    f0 = float(np.clip(130.0 + separation * voice[0], 80.0, 320.0))
    decay = 1.5 + abs(voice[1]) * (1.0 + separation)
    emotion_factor = 1.0 + 0.04 * _derived_rng(seed, "emo", emotion, "audio").standard_normal()
    harmonics = []  # (amplitude, angular frequency) below Nyquist
    for h in range(1, 9):
        freq = h * f0 * emotion_factor
        if freq >= sample_rate / 2:
            break
        harmonics.append((np.exp(-h / decay), 2 * np.pi * freq))

    def write(key):
        rng = _derived_rng(seed, "utt", key)
        n_frames = int(rng.integers(frames_range[0], frames_range[1] + 1))
        n_samples = window_length + (n_frames - 1) * hop
        t = np.arange(n_samples) / sample_rate
        wave_sum = np.zeros(n_samples)
        for amplitude, omega in harmonics:
            wave_sum += amplitude * np.sin(omega * t + rng.uniform(0, 2 * np.pi))
        wave_sum += 0.01 * rng.standard_normal(n_samples)
        wave_sum *= 0.3 / max(np.max(np.abs(wave_sum)), 1e-9)
        samples = np.round(wave_sum * 32767.0).astype(np.int16)
        rel = f"audio/{key}.wav"
        write_audio(AudioSignal(samples=samples, sample_rate=sample_rate), out_dir / rel)
        return rel

    return write
