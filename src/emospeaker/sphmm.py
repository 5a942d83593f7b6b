"""Per-speaker dual-stream models and weighted log-probability fusion.

Each enrolled speaker owns two ergodic HMMs: a spectral model over LFPC frames
and a much smaller suprasegmental model over prosodic block vectors. An
utterance O = (acoustic, prosodic) is scored against speaker v by

    score_v(alpha) = (1 - alpha) * [log P(O_ac | model_ac,v) + log P(v)]
                   +      alpha  * [log P(O_pr | model_pr,v) + log P(v)]

The evidence term log P(O) is identical for every speaker and is omitted; the
remaining expression is the posterior log-probability up to that shared
constant, and the decision is its argmax over speakers. ``alpha`` in [0, 1]
sets the prosodic weight: 0 reduces exactly to the spectral-only classifier,
1 to the prosodic-only one. ``fused_log_scores`` computes it for a group of
utterances against the whole population in one batched pass per stream;
``fused_log_score`` is its one-pair case.

An enrolled population is a :class:`Population`, the only thing scored: its
speakers' models in enrollment order, with each stream's models stacked for
scoring (``hmm.HmmStack``) when the population is built, not on every scoring
call. Building it rejects an empty population, a speaker id given twice and
speakers that disagree on a stream's (states, mixtures, dim).
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import derive_seed
from .hmm import (
    HmmModel,
    HmmStack,
    ModelError,
    ModelFormatError,
    TrainingResult,
    baum_welch_train,
    init_model,
    log_forward_table,
    model_from_text,
    model_to_text,
)

# The two feature streams, in the order they are trained and fused.
STREAMS = ("acoustic", "prosodic")


@dataclass(frozen=True)
class Topology:
    """State/mixture counts for the two streams."""

    acoustic_states: int = 9
    acoustic_mixtures: int = 10
    acoustic_dim: int = 16
    prosodic_states: int = 3
    prosodic_mixtures: int = 2
    prosodic_dim: int = 4

    def validate(self) -> None:
        for name in (
            "acoustic_states", "acoustic_mixtures", "acoustic_dim",
            "prosodic_states", "prosodic_mixtures", "prosodic_dim",
        ):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1")


@dataclass
class DualObservation:
    """One utterance as seen by the classifier: both feature streams."""

    acoustic: np.ndarray  # (T, acoustic_dim)
    prosodic: np.ndarray  # (B, prosodic_dim)

    def __post_init__(self):
        self.acoustic = np.atleast_2d(np.asarray(self.acoustic, dtype=np.float64))
        self.prosodic = np.atleast_2d(np.asarray(self.prosodic, dtype=np.float64))


@dataclass
class SpeakerModel:
    """Both stream models for one speaker plus the speaker's log prior."""

    speaker_id: str
    acoustic: HmmModel
    prosodic: HmmModel
    log_prior: float = 0.0

    def validate(self) -> None:
        self.acoustic.validate()
        self.prosodic.validate()
        if not (np.isfinite(self.log_prior) and self.log_prior <= 0.0):
            raise ModelError(f"log prior must be finite and <= 0, got {self.log_prior}")


class Population(Sequence):
    """The enrolled speakers' models, in enrollment order, stacked once for scoring.

    A sequence of :class:`SpeakerModel`. ``acoustic`` and ``prosodic`` are
    each stream's models as one ``HmmStack``, and ``log_priors`` holds the
    speakers' log priors. Speaker ids must be distinct, every speaker must
    share each stream's (states, mixtures, dim), and the models must not
    change after the population is built.
    """

    def __init__(self, models: list[SpeakerModel]):
        self._models = tuple(models)
        if not self._models:
            raise ModelError("empty enrolled population")
        ids = [m.speaker_id for m in self._models]
        twice = sorted({i for i in ids if ids.count(i) > 1})
        if twice:
            raise ModelError(f"speaker id(s) enrolled more than once: {', '.join(twice)}")
        first = self._models[0]
        for stream in STREAMS:
            want = _shape(getattr(first, stream))
            for model in self._models:
                got = _shape(getattr(model, stream))
                if got != want:
                    raise ModelError(
                        f"speaker {model.speaker_id!r}: {stream} model is {got} (states,"
                        f" mixtures, dim) where speaker {first.speaker_id!r} has {want};"
                        " an enrolled population shares one topology"
                    )
        self.acoustic = HmmStack([m.acoustic for m in self._models])
        self.prosodic = HmmStack([m.prosodic for m in self._models])
        self.log_priors = np.array([m.log_prior for m in self._models])

    def __getitem__(self, index):
        return self._models[index]

    def __len__(self) -> int:
        return len(self._models)


def fused_log_scores(
    population: Population, observations: list[DualObservation], alpha: float
) -> np.ndarray:
    """Fused scores of every utterance against every speaker: a (U, V) table.

    Each stream with a nonzero weight is scored in one batched pass
    (``log_forward_table``) against the population's stack of that stream; a
    stream whose weight is 0 is not scored and contributes 0.0, so alpha 0
    and 1 give exactly the single-stream posterior. Callers bound the pass's
    memory by grouping the utterances (``hmm.batch_groups``).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ModelError(f"alpha must lie in [0, 1], got {alpha}")
    fused = []
    for stream, weight in zip(STREAMS, (1.0 - alpha, alpha)):
        if weight == 0.0:
            fused.append(0.0)
            continue
        sequences = [getattr(o, stream) for o in observations]
        table = log_forward_table(getattr(population, stream), sequences)
        fused.append(table + population.log_priors)
    return (1.0 - alpha) * fused[0] + alpha * fused[1]


def _shape(model: HmmModel) -> tuple[int, int, int]:
    return model.n_states, model.n_mixtures, model.dim


def fused_log_score(model: SpeakerModel, obs: DualObservation, alpha: float) -> float:
    """Affine combination of the two stream posteriors with prosodic weight alpha:
    the one-speaker, one-utterance case of :func:`fused_log_scores`."""
    return float(fused_log_scores(Population([model]), [obs], alpha)[0, 0])


@dataclass
class SpeakerTrainingResult:
    model: SpeakerModel
    acoustic: TrainingResult
    prosodic: TrainingResult


def train_speaker_model(
    speaker_id: str,
    observations: list[DualObservation],
    topology: Topology = Topology(),
    *,
    seed: int = 0,
    prior: float = 1.0,
    max_iterations: int = 40,
    tolerance: float = 1e-4,
) -> SpeakerTrainingResult:
    """Fit both stream models on the same utterances.

    Both streams' feature dimensions are checked before either is trained;
    then each stream, acoustic first, is initialized and re-estimated.
    Initialization seeds derive from (seed, stream, speaker_id), so a
    population trains reproducibly regardless of speaker order or process.
    """
    topology.validate()
    if not observations:
        raise ModelError(f"speaker {speaker_id!r}: no training utterances")
    if not 0.0 < prior <= 1.0:
        raise ModelError(f"prior must lie in (0, 1], got {prior}")

    sequences = {stream: [getattr(o, stream) for o in observations] for stream in STREAMS}
    for stream in STREAMS:
        dim, want = sequences[stream][0].shape[1], getattr(topology, f"{stream}_dim")
        if dim != want:
            raise ModelError(
                f"speaker {speaker_id!r}: {stream} features have dim {dim}, topology expects {want}"
            )
    results = {}
    for stream in STREAMS:
        init = init_model(
            sequences[stream],
            getattr(topology, f"{stream}_states"),
            getattr(topology, f"{stream}_mixtures"),
            seed=derive_seed(seed, stream, speaker_id),
        )
        results[stream] = baum_welch_train(
            init, sequences[stream], max_iterations=max_iterations, tolerance=tolerance
        )

    model = SpeakerModel(
        speaker_id=speaker_id,
        acoustic=results["acoustic"].model,
        prosodic=results["prosodic"].model,
        log_prior=math.log(prior),
    )
    model.validate()
    return SpeakerTrainingResult(model=model, **results)


# --- serialization -----------------------------------------------------------------

SPEAKER_MAGIC = "EMSPSPK"
SPEAKER_VERSION = 1


def speaker_model_to_text(model: SpeakerModel) -> str:
    model.validate()
    parts = [
        f"{SPEAKER_MAGIC} {SPEAKER_VERSION}",
        f"speaker {model.speaker_id}",
        f"log_prior {repr(float(model.log_prior))}",
        "acoustic",
        model_to_text(model.acoustic).rstrip("\n"),
        "prosodic",
        model_to_text(model.prosodic).rstrip("\n"),
    ]
    return "\n".join(parts) + "\n"


def speaker_model_from_text(text: str) -> SpeakerModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != [SPEAKER_MAGIC, str(SPEAKER_VERSION)]:
        raise ModelFormatError(f"bad speaker model header: {lines[:1]}")
    if len(lines) < 5 or not lines[1].startswith("speaker "):
        raise ModelFormatError("missing speaker line")
    speaker_id = lines[1].split(" ", 1)[1].strip()
    if not lines[2].startswith("log_prior "):
        raise ModelFormatError("missing log_prior line")
    try:
        log_prior = float(lines[2].split(" ", 1)[1])
    except ValueError as exc:
        raise ModelFormatError(f"bad log_prior: {lines[2]!r}") from exc

    try:
        ac_start = lines.index("acoustic")
        pr_start = lines.index("prosodic")
    except ValueError as exc:
        raise ModelFormatError("missing acoustic/prosodic section") from exc
    if not ac_start < pr_start:
        raise ModelFormatError("sections out of order")

    acoustic = model_from_text("\n".join(lines[ac_start + 1 : pr_start]))
    prosodic = model_from_text("\n".join(lines[pr_start + 1 :]))
    model = SpeakerModel(
        speaker_id=speaker_id, acoustic=acoustic, prosodic=prosodic, log_prior=log_prior
    )
    try:
        model.validate()
    except ModelError as exc:
        raise ModelFormatError(f"deserialized speaker model invalid: {exc}") from exc
    return model


def save_speaker_model(model: SpeakerModel, path: str | Path) -> None:
    Path(path).write_text(speaker_model_to_text(model), encoding="utf-8")


def load_speaker_model(path: str | Path) -> SpeakerModel:
    path = Path(path)
    if not path.exists():
        raise ModelFormatError(f"speaker model file not found: {path}")
    return speaker_model_from_text(path.read_text(encoding="utf-8"))
