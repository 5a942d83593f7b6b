"""Enrollment/identification sessions and their bookkeeping.

The session protocol: every speaker records 5 sentences x 15 repetitions per
emotion; repetitions 1..9 (first session) train, 10..15 (second session) test.
A *training plan* selects material per emotion: the ``unbiased`` plan uses the
emotion's unbiased recordings, while plan ``biased:<e>`` swaps emotion e's
material for recordings whose content correlates with the speaker
(``biased:<e>`` rows in the manifest). ``corpus.plan_cells`` is the one rule
for which cells a plan covers, and ``corpus.plan_grid`` groups the manifest's
records by cell once: the training sets, the test trials, the cross-validation
folds and ``corpus.validate_protocol_counts`` all read that grid, each in its
own order. Identification is the argmax of the fused two-stream score over the
enrolled population, ties resolved to the earliest enrolled speaker.

An enrolled population is a ``sphmm.Population``, which stacks each stream's
models once: ``train_population`` returns one, cross-validation builds one per
fold, and ``identify``, ``score_session`` and ``run_session`` take one and
nothing else. ``score_session`` is the one session scorer, which both
``run_session`` and ``cross_validate`` use: test utterances are loaded in
order, in groups of whole utterances that fit one memory budget
(``hmm.batch_groups``), and each group is scored against every speaker at once
(``sphmm.fused_log_scores``). ``identify`` is the one-utterance case.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .corpus import (
    EMOTIONS,
    SENTENCE_IDS,
    TRAIN_REPS,
    CorpusError,
    CorpusManifest,
    UtteranceRecord,
    derive_seed,
    normalize_plan,
    plan_cells,
    plan_grid,
    session_part,
)
from .hmm import batch_groups
from .sphmm import Population, Topology, fused_log_scores, train_speaker_model


class ProtocolError(CorpusError):
    """A manifest cannot support the requested session."""


_EMOTION_RANK = {emotion: rank for rank, emotion in enumerate(EMOTIONS)}


def _trial_order(record: UtteranceRecord) -> tuple:
    """Sort key of a session's trials: (speaker, emotion, sentence, repetition)."""
    return (
        record.speaker_id, _EMOTION_RANK[record.emotion], record.sentence_id, record.repetition
    )


def assemble_training_set(
    manifest: CorpusManifest, speaker_id: str, plan: str
) -> list[UtteranceRecord]:
    """Training-session records for one speaker under a plan.

    The full protocol expects 9 repetitions per (emotion, sentence) cell —
    45 utterances per emotion; a cell short of that raises.
    """
    plan = normalize_plan(plan)
    return _training_set(plan_grid(manifest, plan), plan_cells(manifest, plan), speaker_id, plan)


def _training_set(grid: dict, cells: list, speaker_id: str, plan: str) -> list[UtteranceRecord]:
    """One speaker's training records from a plan's grid and cells.

    Ordered by plan cell, then sentence, then repetition: EM sums in this order.
    """
    selected: list[UtteranceRecord] = []
    missing: list[str] = []
    for emotion, bias in cells:
        for sentence in SENTENCE_IDS:
            cell = session_part(grid.get((speaker_id, emotion, bias, sentence), []), "train")
            if len(cell) != len(TRAIN_REPS):
                missing.append(
                    f"{speaker_id} {emotion} sentence {sentence} {bias}:"
                    f" {len(cell)}/{len(TRAIN_REPS)} training repetitions"
                )
            selected.extend(cell)
    if missing:
        raise ProtocolError("incomplete training material:\n  " + "\n  ".join(missing))
    if not selected:
        raise ProtocolError(f"no training material for speaker {speaker_id!r} under {plan}")
    return selected


def session_test_records(manifest: CorpusManifest, plan: str) -> list[UtteranceRecord]:
    """Every identification trial of a session: one per test-session utterance.

    Ordered by (speaker, emotion, sentence, repetition); with the full corpus
    this enumerates speakers x emotions x 5 sentences x 6 repetitions trials.
    """
    grid = plan_grid(manifest, plan)
    return sorted((r for cell in grid.values() for r in session_part(cell, "test")),
                  key=_trial_order)


def identify(population: Population, obs, alpha: float) -> tuple[str, np.ndarray]:
    """Argmax of the fused score over the enrolled population.

    Returns (speaker_id, score vector in enrollment order). On an exact score
    tie the earliest enrolled speaker wins (np.argmax picks the first maximum).
    """
    scores = fused_log_scores(population, [obs], alpha)[0]
    return population[int(np.argmax(scores))].speaker_id, scores


def train_population(
    manifest: CorpusManifest,
    loader,
    plan: str,
    topology: Topology = Topology(),
    *,
    seed: int = 0,
    max_iterations: int = 40,
    tolerance: float = 1e-4,
    training_sets: dict[str, list[UtteranceRecord]] | None = None,
) -> Population:
    """Enroll every speaker of the manifest under one plan.

    Speakers are enrolled in sorted id order and share a uniform prior 1/V.
    ``training_sets`` overrides the per-speaker record selection (used by
    cross-validation); otherwise the plan's full training session is used,
    every speaker's drawn from one grid.
    """
    speakers = manifest.speakers
    if not speakers:
        raise ProtocolError("manifest has no speakers")
    plan = normalize_plan(plan)
    if training_sets is None:
        grid, cells = plan_grid(manifest, plan), plan_cells(manifest, plan)
        training_sets = {s: _training_set(grid, cells, s, plan) for s in speakers}
    train_seed = derive_seed(seed, "train", plan)
    prior = 1.0 / len(speakers)
    models = []
    for speaker_id in speakers:
        observations = [loader(r) for r in training_sets[speaker_id]]
        result = train_speaker_model(
            speaker_id,
            observations,
            topology,
            seed=train_seed,
            prior=prior,
            max_iterations=max_iterations,
            tolerance=tolerance,
        )
        models.append(result.model)
    return Population(models)


@dataclass
class Trial:
    """One identification attempt."""

    record: UtteranceRecord
    predicted: str

    @property
    def correct(self) -> bool:
        return self.predicted == self.record.speaker_id


@dataclass
class PerformanceTable:
    """Correct/total identification counts per (emotion, gender) cell."""

    cells: dict[tuple[str, str], list[int]] = field(default_factory=dict)

    @classmethod
    def from_trials(cls, trials: list[Trial]) -> "PerformanceTable":
        table = cls()
        cells = table.cells
        for trial in trials:
            record = trial.record
            cell = cells.setdefault((record.emotion, record.gender), [0, 0])
            cell[0] += trial.predicted == record.speaker_id  # Trial.correct
            cell[1] += 1
        return table

    @property
    def emotions(self) -> list[str]:
        present = {e for e, _ in self.cells}
        return [e for e in EMOTIONS if e in present]

    def percent(self, emotion: str, gender: str) -> float | None:
        cell = self.cells.get((emotion, gender))
        if not cell or cell[1] == 0:
            return None
        return 100.0 * cell[0] / cell[1]

    def emotion_average(self, emotion: str) -> float:
        values = [v for g in ("male", "female") if (v := self.percent(emotion, g)) is not None]
        if not values:
            raise ProtocolError(f"no trials for emotion {emotion!r}")
        return float(np.mean(values))

    def grand_average(self) -> float:
        """Mean of the per-emotion averages (each emotion weighs equally)."""
        return float(np.mean([self.emotion_average(e) for e in self.emotions]))

    def accuracy(self) -> float:
        correct = sum(c for c, _ in self.cells.values())
        total = sum(t for _, t in self.cells.values())
        return correct / total if total else 0.0

    def rows(self) -> list[tuple[str, float | None, float | None, float]]:
        return [
            (e, self.percent(e, "male"), self.percent(e, "female"), self.emotion_average(e))
            for e in self.emotions
        ]


@dataclass
class SessionResult:
    """Everything one identification session produced."""

    plan: str
    alpha: float
    speakers: list[str]
    trials: list[Trial]
    table: PerformanceTable

    @property
    def accuracy(self) -> float:
        return self.table.accuracy()

    def confusion(self) -> np.ndarray:
        """Speaker confusion counts, rows = true, columns = predicted."""
        index = {s: i for i, s in enumerate(self.speakers)}
        matrix = np.zeros((len(self.speakers), len(self.speakers)), dtype=int)
        for trial in self.trials:
            matrix[index[trial.record.speaker_id], index[trial.predicted]] += 1
        return matrix


def score_session(
    population: Population, records: list[UtteranceRecord], loader, plan: str, alpha: float
) -> SessionResult:
    """Identify every record, in order, scoring whole groups of utterances at once.

    Records are loaded in order and scored a group at a time, so neither the
    session's observations nor its score tables are ever held whole. In each
    stream an utterance of T frames spans max(T, N) rows of V * N + D cells
    for V speakers of N states and D-dimensional frames: the padded emission
    and forward tables, the frames themselves and the recursion's per-frame
    step (``hmm.batch_groups``). A record of a speaker the population does
    not enroll raises ``ProtocolError`` before anything is loaded or scored.

    Per utterance the session does only its load, its two row counts and its
    share of each group's argmax: the predicted speaker ids are collected
    group by group, and the trials are built once, at the end.
    """
    speakers = [m.speaker_id for m in population]
    unknown = sorted({r.speaker_id for r in records}.difference(speakers))
    if unknown:
        raise ProtocolError(f"test speaker(s) not enrolled: {', '.join(unknown)}")
    acoustic, prosodic = population.acoustic, population.prosodic
    row_cells = tuple(s.emissions.n_states + s.emissions.dim for s in (acoustic, prosodic))
    acoustic_states, prosodic_states = acoustic.shape[0], prosodic.shape[0]

    def rows(obs) -> tuple[int, int]:
        return max(len(obs.acoustic), acoustic_states), max(len(obs.prosodic), prosodic_states)

    predicted = []
    for group in batch_groups(map(loader, records), rows, row_cells):
        best = np.argmax(fused_log_scores(population, group, alpha), axis=1)  # first maximum wins
        predicted.extend(map(speakers.__getitem__, best.tolist()))
    trials = list(map(Trial, records, predicted))
    return SessionResult(
        plan=plan,
        alpha=alpha,
        speakers=speakers,
        trials=trials,
        table=PerformanceTable.from_trials(trials),
    )


def run_session(
    population: Population, manifest: CorpusManifest, loader, plan: str, alpha: float = 0.5
) -> SessionResult:
    """Score every test-session utterance of the plan against the population."""
    plan = normalize_plan(plan)
    records = session_test_records(manifest, plan)
    if not records:
        raise ProtocolError(f"no test-session records for plan {plan}")
    return score_session(population, records, loader, plan, alpha)


# --- cross-validation ---------------------------------------------------------------

@dataclass
class CrossValidationResult:
    plan: str
    alpha: float
    folds: list[SessionResult]  # in fold order

    @property
    def accuracies(self) -> list[float]:
        return [f.accuracy for f in self.folds]

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def sd_accuracy(self) -> float:
        return float(np.std(self.accuracies, ddof=1)) if len(self.folds) > 1 else 0.0


def partition_folds(
    manifest: CorpusManifest, plan: str, n_folds: int, seed: int
) -> list[dict[str, list[UtteranceRecord]]]:
    """Deal each (speaker, emotion, bias, sentence) cell's repetitions across folds.

    Every cell's repetitions are shuffled with a cell-specific seeded
    permutation and assigned round-robin, so each fold holds a stratified
    slice and each speaker keeps train and test material in every fold.
    """
    grid = plan_grid(manifest, plan)
    if n_folds < 2:
        raise ProtocolError("need at least 2 folds")
    assignments: list[dict[str, list[UtteranceRecord]]] = [
        {"test": [], "train": []} for _ in range(n_folds)
    ]
    for key in sorted(grid):
        cell = grid[key]
        if len(cell) < n_folds:
            raise ProtocolError(
                f"cell {key} has {len(cell)} repetitions < {n_folds} folds"
            )
        rng = np.random.default_rng(derive_seed(seed, "fold", *key))
        order = rng.permutation(len(cell))
        for position, idx in enumerate(order):
            held_out_fold = position % n_folds
            for fold in range(n_folds):
                role = "test" if fold == held_out_fold else "train"
                assignments[fold][role].append(cell[idx])
    return assignments


def cross_validate(
    manifest: CorpusManifest,
    loader,
    plan: str,
    topology: Topology = Topology(),
    *,
    alpha: float = 0.5,
    n_folds: int = 5,
    seed: int = 0,
    max_iterations: int = 40,
    tolerance: float = 1e-4,
) -> CrossValidationResult:
    """Retrain the whole population once per fold and score the held-out slice.

    Folds pool both session halves (all 15 repetitions per cell), so the
    estimate is independent of the fixed 9/6 session split. Each record is
    loaded once per call and its observation reused by every fold; each fold's
    population is stacked once and scores the whole held-out slice.
    """
    plan = normalize_plan(plan)
    loader = functools.cache(loader)
    assignments = partition_folds(manifest, plan, n_folds, seed)
    speakers = manifest.speakers
    folds = []
    for fold_idx, assignment in enumerate(assignments):
        training_sets: dict[str, list[UtteranceRecord]] = {s: [] for s in speakers}
        for r in assignment["train"]:
            training_sets[r.speaker_id].append(r)
        for speaker_id, records in training_sets.items():
            if not records:
                raise ProtocolError(f"fold {fold_idx}: speaker {speaker_id} has no training data")
        population = train_population(
            manifest,
            loader,
            plan,
            topology,
            seed=derive_seed(seed, "xval", fold_idx),
            max_iterations=max_iterations,
            tolerance=tolerance,
            training_sets=training_sets,
        )
        test_records = sorted(assignment["test"], key=_trial_order)
        if not test_records:
            raise ProtocolError(f"fold {fold_idx}: no test data")
        folds.append(score_session(population, test_records, loader, plan, alpha))
    return CrossValidationResult(plan=plan, alpha=alpha, folds=folds)
