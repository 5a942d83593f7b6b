import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from emospeaker.corpus import (
    EMOTIONS,
    SENTENCE_IDS,
    CorpusManifest,
    UtteranceRecord,
    plan_cells,
    session_for_repetition,
    validate_protocol_counts,
)
from emospeaker import hmm, protocol, sphmm
from emospeaker.hmm import HmmModel, ModelError, log_forward
from emospeaker.protocol import (
    PerformanceTable,
    ProtocolError,
    Trial,
    assemble_training_set,
    cross_validate,
    identify,
    partition_folds,
    run_session,
    score_session,
    session_test_records,
    train_population,
)
from emospeaker.sphmm import DualObservation, Population, SpeakerModel
from helpers import random_model, traced_peak


def make_trial(speaker, gender, emotion, predicted, sentence=1, rep=10):
    record = UtteranceRecord(
        speaker_id=speaker,
        gender=gender,
        emotion=emotion,
        sentence_id=sentence,
        bias_tag="unbiased",
        session="test",
        repetition=rep,
        source=f"{speaker}.feat",
    )
    return Trial(record=record, predicted=predicted)


class TestAssembleTrainingSet:
    def test_full_session_counts(self, tiny_corpus):
        records = assemble_training_set(tiny_corpus, "spk01", "unbiased")
        # 2 emotions x 5 sentences x 9 repetitions
        assert len(records) == 90
        assert all(r.session == "train" for r in records)
        assert all(r.speaker_id == "spk01" for r in records)
        assert {r.emotion for r in records} == {"neutral", "angry"}

    def test_ordering_is_rep_within_sentence(self, tiny_corpus):
        records = assemble_training_set(tiny_corpus, "spk01", "unbiased")
        for i in range(0, len(records), 9):
            block = records[i : i + 9]
            assert len({(r.emotion, r.sentence_id) for r in block}) == 1
            assert [r.repetition for r in block] == list(range(1, 10))

    def test_unknown_speaker_raises(self, tiny_corpus):
        with pytest.raises(ProtocolError):
            assemble_training_set(tiny_corpus, "spk99", "unbiased")

    def test_missing_cell_raises_with_detail(self, tiny_corpus):
        pruned = replace(
            tiny_corpus,
            records=[
                r
                for r in tiny_corpus.records
                if not (
                    r.speaker_id == "spk02"
                    and r.emotion == "angry"
                    and r.sentence_id == 3
                    and r.repetition == 4
                )
            ],
        )
        with pytest.raises(ProtocolError, match="spk02 angry sentence 3.*8/9"):
            assemble_training_set(pruned, "spk02", "unbiased")

    def test_biased_plan_key_sequence(self):
        """Target's biased cell, other emotions in EMOTIONS order, sentence, repetition."""
        manifest = manifest_with_cells([
            ("sad", "unbiased"), ("angry", "unbiased"), ("neutral", "unbiased"),
            ("angry", "biased:angry"), ("fear", "unbiased"),
        ])
        manifest = replace(manifest, records=manifest.records[::-1])
        want = [
            f"spk01_{emotion}_s{sentence}_r{rep:02d}_{token}"
            for emotion, token in (("angry", "biased-angry"), ("neutral", "unbiased"),
                                   ("sad", "unbiased"), ("fear", "unbiased"))
            for sentence in SENTENCE_IDS
            for rep in range(1, 10)
        ]
        records = assemble_training_set(manifest, "spk01", "biased:angry")
        assert [r.key for r in records] == want

    def test_biased_plan_swaps_target_material(self, biased_corpus):
        records = assemble_training_set(biased_corpus, "spk01", "biased:angry")
        angry = [r for r in records if r.emotion == "angry"]
        other = [r for r in records if r.emotion != "angry"]
        assert len(angry) == 45 and len(other) == 45
        assert all(r.bias_tag == "biased:angry" for r in angry)
        assert all(r.bias_tag == "unbiased" for r in other)

    def test_biased_neutral_is_unbiased(self, tiny_corpus):
        a = assemble_training_set(tiny_corpus, "spk01", "biased:neutral")
        b = assemble_training_set(tiny_corpus, "spk01", "unbiased")
        assert a == b


class TestSessionTestRecords:
    def test_counts_and_session(self, tiny_corpus):
        records = session_test_records(tiny_corpus, "unbiased")
        # 3 speakers x 2 emotions x 5 sentences x 6 repetitions
        assert len(records) == 180
        assert all(r.session == "test" for r in records)

    def test_sorted_by_speaker_emotion_sentence_rep(self, tiny_corpus):
        records = session_test_records(tiny_corpus, "unbiased")
        keys = [
            (r.speaker_id, EMOTIONS.index(r.emotion), r.sentence_id, r.repetition)
            for r in records
        ]
        assert keys == sorted(keys)

    def test_biased_plan_uses_biased_test_material(self, biased_corpus):
        records = session_test_records(biased_corpus, "biased:angry")
        angry = [r for r in records if r.emotion == "angry"]
        assert len(records) == 180
        assert angry and all(r.bias_tag == "biased:angry" for r in angry)
        assert not any(
            r.emotion == "angry" and r.bias_tag == "unbiased" for r in records
        )


class TestIdentify:
    def make_population(self, seed, n=3):
        rng = np.random.default_rng(seed)
        return [
            SpeakerModel(
                speaker_id=f"spk{i:02d}",
                acoustic=random_model(rng, 2, 1, 3),
                prosodic=random_model(rng, 2, 1, 2),
                log_prior=math.log(1 / n),
            )
            for i in range(1, n + 1)
        ]

    def test_returns_argmax(self):
        models = self.make_population(50)
        rng = np.random.default_rng(51)
        obs = DualObservation(rng.standard_normal((10, 3)), rng.standard_normal((4, 2)))
        winner, scores = identify(Population(models), obs, 0.5)
        assert winner == models[int(np.argmax(scores))].speaker_id
        assert scores.shape == (3,)

    def test_tie_breaks_to_first_enrolled(self):
        models = self.make_population(52, n=1)
        clone = SpeakerModel(
            speaker_id="zz_clone",
            acoustic=models[0].acoustic,
            prosodic=models[0].prosodic,
            log_prior=models[0].log_prior,
        )
        rng = np.random.default_rng(53)
        obs = DualObservation(rng.standard_normal((8, 3)), rng.standard_normal((3, 2)))
        winner, scores = identify(Population([models[0], clone]), obs, 0.5)
        assert scores[0] == scores[1]
        assert winner == "spk01"

    def test_non_finite_observation_rejected(self):
        # a NaN score would pass through argmax and name the first enrolled speaker
        models = self.make_population(54)
        rng = np.random.default_rng(55)
        acoustic, prosodic = rng.standard_normal((6, 3)), rng.standard_normal((3, 2))
        acoustic[2, 0] = np.nan
        with pytest.raises(ModelError, match="non-finite"):
            identify(Population(models), DualObservation(acoustic, prosodic), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "entry", ["log_forward", "log_forward_table", "fused_log_scores", "identify",
                  "baum_welch_train"]
    )
    def test_non_finite_frame_rejected_at_every_entry_point(self, entry, bad):
        # each pass checks its frames once, on all of them together; a bad value
        # in the last frame of the last sequence sits next to the block padding
        models = self.make_population(58)
        rng = np.random.default_rng(59)
        acoustic = [rng.standard_normal((int(t), 3)) for t in (5, 17, 3)]
        prosodic = [rng.standard_normal((3, 2)) for _ in acoustic]
        acoustic[-1][-1, 1] = bad
        population = Population(models)
        calls = {
            "log_forward": lambda: log_forward(models[0].acoustic, acoustic[-1]),
            "log_forward_table": lambda: hmm.log_forward_table(population.acoustic, acoustic),
            "fused_log_scores": lambda: sphmm.fused_log_scores(
                population, [DualObservation(*pair) for pair in zip(acoustic, prosodic)], 0.5
            ),
            "identify": lambda: identify(
                population, DualObservation(acoustic[-1], prosodic[0]), 0.5
            ),
            "baum_welch_train": lambda: hmm.baum_welch_train(
                models[0].acoustic, acoustic, max_iterations=1
            ),
        }
        with pytest.raises(ModelError, match="non-finite values in observation sequence"):
            calls[entry]()

    @pytest.mark.parametrize("stream", ["acoustic", "prosodic"])
    def test_mixed_shape_population_rejected(self, stream):
        # a population is scored as one stacked mixture, so it shares one topology
        models = self.make_population(56)
        rng = np.random.default_rng(57)
        dim = getattr(models[0], stream).dim
        models[1] = replace(models[1], **{stream: random_model(rng, 3, 1, dim)})
        obs = DualObservation(rng.standard_normal((6, 3)), rng.standard_normal((3, 2)))
        with pytest.raises(ModelError, match=f"speaker 'spk02': {stream} model is"):
            identify(Population(models), obs, 0.5)


def per_pair_fused(model: SpeakerModel, obs: DualObservation, alpha: float) -> float:
    """(1-alpha)*(log_forward(ac)+lp) + alpha*(log_forward(pr)+lp), one pair at a
    time; a stream of weight 0 is skipped, as 0 * -inf is undefined."""
    lp = model.log_prior
    ac = log_forward(model.acoustic, obs.acoustic)[0] + lp if alpha < 1.0 else 0.0
    pr = log_forward(model.prosodic, obs.prosodic)[0] + lp if alpha > 0.0 else 0.0
    return (1.0 - alpha) * ac + alpha * pr


def per_pair_table(models, observations, alpha) -> np.ndarray:
    return np.array([[per_pair_fused(m, o, alpha) for m in models] for o in observations])


def session_setup(make_obs):
    """A one-emotion manifest (60 test utterances) and a loader of make_obs(rng) per record."""
    manifest = manifest_with_cells([("neutral", "unbiased")])
    rng = np.random.default_rng(60)
    observations = {r.key: make_obs(rng) for r in manifest.records if r.session == "test"}
    return manifest, lambda record: observations[record.key]


def ragged_observation(rng) -> DualObservation:
    """3-D acoustic and 2-D prosodic frames of ragged lengths, often 1 frame long."""
    frames = int(rng.choice([1, 1, 2, 5, 13, 30]))
    blocks = int(rng.choice([1, 1, 2, 4]))
    return DualObservation(rng.normal(0.0, 2.0, (frames, 3)), rng.normal(0.0, 2.0, (blocks, 2)))


def left_right_population() -> list[SpeakerModel]:
    """Three speakers whose acoustic model is the left-right zero-transition probe
    at variance 1e-6, means shifted per speaker, and a 1-D prosodic model."""
    models = []
    for i in range(3):
        acoustic = HmmModel(
            pi=[1.0, 0.0, 0.0],
            transitions=[[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.0, 0.0, 1.0]],
            weights=np.ones((3, 1)),
            means=np.array([0.0, 1.0, 2.0])[:, None, None] + i,
            variances=np.full((3, 1, 1), 1e-6),
        )
        prosodic = HmmModel(
            pi=[1.0], transitions=[[1.0]], weights=[[1.0]], means=[[[float(i)]]], variances=[[[1.0]]]
        )
        models.append(SpeakerModel(f"spk{i + 1:02d}", acoustic, prosodic, math.log(1 / 3)))
    return models


class TestBatchedScoring:
    """identify, score_session and run_session score a whole group of utterances
    against the whole population at once; every fused score must equal the
    per-pair expression exactly."""

    ALPHAS = (0.0, 0.25, 0.5, 1.0)

    def population(self):
        rng = np.random.default_rng(58)
        models = [
            SpeakerModel(
                speaker_id=f"spk{i:02d}",
                acoustic=random_model(rng, 3, 2, 3),
                prosodic=random_model(rng, 2, 1, 2),
                log_prior=math.log(1 / 4),
            )
            for i in (1, 2, 3)
        ]
        # a clone enrolled last ties with spk01 everywhere; the first enrolled wins
        return models + [replace(models[0], speaker_id="zz_clone")]

    @staticmethod
    def record_tables(monkeypatch) -> list:
        """(observations, fused table) of every batched scoring call protocol makes."""
        calls = []

        def spy(models, observations, alpha):
            table = sphmm.fused_log_scores(models, observations, alpha)
            calls.append((observations, table))
            return table

        monkeypatch.setattr(protocol, "fused_log_scores", spy)
        return calls

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_identify_equals_per_pair(self, alpha):
        models = self.population()
        population = Population(models)
        rng = np.random.default_rng(59)
        for _ in range(12):
            obs = ragged_observation(rng)
            winner, scores = identify(population, obs, alpha)
            want = per_pair_table(models, [obs], alpha)[0]
            assert np.array_equal(scores, want)
            assert scores[3] == scores[0]
            assert winner == models[int(np.argmax(want))].speaker_id != "zz_clone"

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_sessions_equal_per_pair(self, alpha, monkeypatch):
        models = self.population()
        manifest, loader = session_setup(ragged_observation)
        records = session_test_records(manifest, "unbiased")
        calls = self.record_tables(monkeypatch)
        population = Population(models)
        session = run_session(population, manifest, loader, "unbiased", alpha)
        trials = score_session(population, records, loader, "unbiased", alpha).trials
        assert [t.record for t in session.trials] == records
        assert [t.predicted for t in session.trials] == [t.predicted for t in trials]
        assert len(calls) == 2  # 60 short utterances are one group per session
        for observations, table in calls:
            want = per_pair_table(models, observations, alpha)
            assert np.array_equal(table, want)
            assert np.array_equal(table[:, 3], table[:, 0])
        want = per_pair_table(models, [loader(r) for r in records], alpha)
        assert [t.predicted for t in trials] == [models[i].speaker_id for i in np.argmax(want, 1)]
        assert "zz_clone" not in {t.predicted for t in trials}

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_left_right_probe_far_from_means(self, alpha, monkeypatch):
        # 1e-6 variances scored far from their means; frames at 1e200 overflow
        # every density to -inf, which must come out -inf in the same places
        models = left_right_population()
        path = np.array([0, 0, 1, 1, 1, 2, 2, 0], dtype=float)[:, None]
        observations = [
            DualObservation(path + 40.0, [[0.5]]),
            DualObservation(path[:1] - 25.0, [[1.5], [2.5]]),
            DualObservation(np.full((3, 1), 1e200), [[0.0]]),
            DualObservation(path, [[1e200]]),
        ]
        manifest, loader = session_setup(lambda rng: observations[int(rng.integers(4))])
        calls = self.record_tables(monkeypatch)
        population = Population(models)
        with np.errstate(over="ignore"):
            want = per_pair_table(models, observations, alpha)
            got = np.array([identify(population, obs, alpha)[1] for obs in observations])
            run_session(population, manifest, loader, "unbiased", alpha)
            for observations_seen, table in calls:
                assert np.array_equal(table, per_pair_table(models, observations_seen, alpha))
        assert np.array_equal(got, want)
        dead = np.zeros_like(want, dtype=bool)
        dead[2], dead[3] = alpha < 1.0, alpha > 0.0  # rows whose scored stream sits at 1e200
        assert np.array_equal(np.isneginf(want), dead)
        if alpha < 1.0:
            assert np.all(want[:2] < -1e6)

    @pytest.mark.parametrize("alpha, scored", [(0.0, "acoustic"), (1.0, "prosodic")])
    def test_zero_weight_stream_never_scored(self, alpha, scored, monkeypatch):
        models = self.population()
        manifest, loader = session_setup(ragged_observation)
        records = session_test_records(manifest, "unbiased")
        streams = []

        def spy(hmms, sequences):
            streams.append([s for s in ("acoustic", "prosodic")
                            if all(h is getattr(m, s) for h, m in zip(hmms, models))])
            return real(hmms, sequences)

        real = sphmm.log_forward_table
        monkeypatch.setattr(sphmm, "log_forward_table", spy)
        population = Population(models)
        identify(population, loader(records[0]), alpha)
        score_session(population, records, loader, "unbiased", alpha)
        run_session(population, manifest, loader, "unbiased", alpha)
        assert streams == [[scored]] * 3


class TestScoringWorkingSet:
    """Sessions are loaded and scored in groups of whole utterances that fit a
    fixed budget, so memory does not grow with the number of trials."""

    def test_peak_does_not_grow_with_utterances(self):
        rng = np.random.default_rng(61)
        speakers, states, dim = 50, 8, 4
        models = [
            SpeakerModel(f"spk{i:02d}", random_model(rng, states, 1, dim),
                         random_model(rng, 1, 1, 2), math.log(1 / speakers))
            for i in range(speakers)
        ]
        # long enough that two utterances overflow one scoring group
        frames = hmm._GROUP_CELLS // (2 * (speakers * states + dim)) + 1
        records = session_test_records(manifest_with_cells([("neutral", "unbiased")]), "unbiased")
        index = {r.key: i for i, r in enumerate(records)}

        def loader(record):
            generator = np.random.default_rng(index[record.key])
            return DualObservation(generator.normal(0.0, 2.0, (frames, dim)), [[0.0, 1.0]])

        def peak(records):
            return traced_peak(
                lambda: score_session(Population(models), records, loader, "unbiased", 0.5)
            )

        few, many = peak(records[:5]), peak(records[:50])
        assert many <= 1.1 * few

    def test_prosodic_stream_can_set_the_group_size(self, monkeypatch):
        # 1-state acoustic and 16-state prosodic models of 4 speakers: an
        # utterance of 10 frames and 1000 blocks costs 10 * (4 * 1 + 2) = 60
        # acoustic cells and 1000 * (4 * 16 + 2) = 66,000 prosodic ones, so
        # three fit one group of 2**18 cells and a fourth does not
        rng = np.random.default_rng(63)
        population = Population([
            SpeakerModel(f"spk{i:02d}", random_model(rng, 1, 1, 2),
                         random_model(rng, 16, 1, 2), math.log(1 / 4))
            for i in range(4)
        ])
        records = session_test_records(manifest_with_cells([("neutral", "unbiased")]), "unbiased")

        def loader(record):
            return DualObservation(np.zeros((10, 2)), np.zeros((1000, 2)))

        calls = TestBatchedScoring.record_tables(monkeypatch)
        score_session(population, records[:10], loader, "unbiased", 0.5)
        assert [len(observations) for observations, _ in calls] == [3, 3, 3, 1]

    def test_paper_topology_peak_within_per_call_stacking_peak(self):
        # 50 speakers at 9x10 acoustic / 3x2 prosodic, 400-frame utterances,
        # with the population stacked inside the measured call. The bound is
        # the peak of this same call when scoring restacked the population on
        # every call instead of holding it: 3,958,645 bytes under CPython 3.11
        # and numpy 2.4. The stacked terms (about 1.2 MB) now live through the
        # whole session, and the call still fits (about 3.6 MB) because the
        # forward pass writes alpha over the emission table.
        rng = np.random.default_rng(62)
        models = [
            SpeakerModel(f"spk{i:02d}", random_model(rng, 9, 10, 16),
                         random_model(rng, 3, 2, 4), math.log(1 / 50))
            for i in range(50)
        ]
        observations = [
            DualObservation(rng.normal(0.0, 2.0, (400, 16)), rng.normal(0.0, 2.0, (45, 4)))
            for _ in range(2)
        ]
        records = session_test_records(manifest_with_cells([("neutral", "unbiased")]), "unbiased")[:2]

        def loader(record):
            return observations[records.index(record)]

        batched = traced_peak(
            lambda: score_session(Population(models), records, loader, "unbiased", 0.5)
        )
        assert batched <= 3_958_645


class TestPerformanceTable:
    def build(self):
        trials = []
        # angry male: 3/4 correct; angry female: 1/2
        trials += [make_trial("a", "male", "angry", "a")] * 3
        trials += [make_trial("a", "male", "angry", "b")]
        trials += [make_trial("c", "female", "angry", "c")]
        trials += [make_trial("c", "female", "angry", "a")]
        # sad male only: 1/1
        trials += [make_trial("a", "male", "sad", "a")]
        return PerformanceTable.from_trials(trials)

    def test_cell_percentages(self):
        table = self.build()
        assert table.percent("angry", "male") == pytest.approx(75.0)
        assert table.percent("angry", "female") == pytest.approx(50.0)
        assert table.percent("sad", "female") is None
        assert table.percent("happy", "male") is None

    def test_emotion_average_is_mean_of_gender_percentages(self):
        table = self.build()
        # (75 + 50) / 2, not 4/6 of trials
        assert table.emotion_average("angry") == pytest.approx(62.5)
        assert table.emotion_average("sad") == pytest.approx(100.0)

    def test_grand_average_weighs_emotions_equally(self):
        table = self.build()
        assert table.grand_average() == pytest.approx((62.5 + 100.0) / 2)

    def test_accuracy_is_trial_weighted(self):
        table = self.build()
        assert table.accuracy() == pytest.approx(5 / 7)

    def test_rows_follow_emotion_order(self):
        table = self.build()
        rows = table.rows()
        assert [r[0] for r in rows] == ["angry", "sad"]
        assert rows[0] == ("angry", 75.0, 50.0, 62.5)
        assert rows[1] == ("sad", 100.0, None, 100.0)

    def test_missing_emotion_average_raises(self):
        table = self.build()
        with pytest.raises(ProtocolError):
            table.emotion_average("fear")

    def test_empty_table(self):
        table = PerformanceTable.from_trials([])
        assert table.emotions == []
        assert table.accuracy() == 0.0


class TestSessions:
    def test_tiny_corpus_identification_is_strong(
        self, tiny_corpus, tiny_loader, tiny_models
    ):
        result = run_session(tiny_models, tiny_corpus, tiny_loader, "unbiased", alpha=0.5)
        assert len(result.trials) == 180
        assert result.accuracy >= 0.95
        assert result.speakers == ["spk01", "spk02", "spk03"]

    def test_confusion_matches_trials(self, tiny_corpus, tiny_loader, tiny_models):
        result = run_session(tiny_models, tiny_corpus, tiny_loader, "unbiased", alpha=0.5)
        confusion = result.confusion()
        assert confusion.sum() == len(result.trials)
        assert confusion.trace() == sum(t.correct for t in result.trials)
        # rows are per true speaker: 2 emotions x 5 sentences x 6 reps each
        assert list(confusion.sum(axis=1)) == [60, 60, 60]

    def test_score_records_preserves_order(self, tiny_corpus, tiny_loader, tiny_models):
        records = session_test_records(tiny_corpus, "unbiased")[:10]
        trials = score_session(tiny_models, records, tiny_loader, "unbiased", 0.5).trials
        assert [t.record for t in trials] == records

    def test_unenrolled_test_speaker_rejected_before_scoring(self, tiny_corpus, tiny_models):
        enrolled = Population([m for m in tiny_models if m.speaker_id != "spk02"])
        records = session_test_records(tiny_corpus, "unbiased")
        loaded = []
        with pytest.raises(ProtocolError, match=r"test speaker\(s\) not enrolled: spk02$"):
            score_session(enrolled, records, loaded.append, "unbiased", 0.5)
        assert loaded == []

    def test_train_population_deterministic(
        self, tiny_corpus, tiny_loader, small_topology
    ):
        from emospeaker.sphmm import speaker_model_to_text

        a = train_population(
            tiny_corpus, tiny_loader, "unbiased", small_topology, seed=5, max_iterations=2
        )
        b = train_population(
            tiny_corpus, tiny_loader, "unbiased", small_topology, seed=5, max_iterations=2
        )
        assert [speaker_model_to_text(m) for m in a] == [
            speaker_model_to_text(m) for m in b
        ]

    def test_train_population_returns_population(self, tiny_corpus, tiny_models):
        assert isinstance(tiny_models, Population)
        assert [m.speaker_id for m in tiny_models] == tiny_corpus.speakers
        assert all(tiny_models.acoustic[v] is m.acoustic for v, m in enumerate(tiny_models))

    def test_population_priors_uniform(self, tiny_models):
        for model in tiny_models:
            assert model.log_prior == pytest.approx(math.log(1 / 3))


class TestFolds:
    def test_partition_is_deterministic(self, tiny_corpus):
        a = partition_folds(tiny_corpus, "unbiased", 3, seed=11)
        b = partition_folds(tiny_corpus, "unbiased", 3, seed=11)
        assert a == b
        c = partition_folds(tiny_corpus, "unbiased", 3, seed=12)
        assert a != c

    def test_test_slices_partition_the_corpus(self, tiny_corpus):
        folds = partition_folds(tiny_corpus, "unbiased", 3, seed=11)
        all_keys = sorted(r.key for r in tiny_corpus.records)
        test_keys = sorted(k for f in folds for k in (r.key for r in f["test"]))
        assert test_keys == all_keys

    def test_train_test_complementary_within_fold(self, tiny_corpus):
        folds = partition_folds(tiny_corpus, "unbiased", 3, seed=11)
        all_keys = {r.key for r in tiny_corpus.records}
        for fold in folds:
            test = {r.key for r in fold["test"]}
            train = {r.key for r in fold["train"]}
            assert test | train == all_keys
            assert not test & train

    def test_stratified_per_cell(self, tiny_corpus):
        folds = partition_folds(tiny_corpus, "unbiased", 3, seed=11)
        # 15 repetitions per cell deal 5 to each of 3 folds
        for fold in folds:
            counts = {}
            for r in fold["test"]:
                counts[(r.speaker_id, r.emotion, r.sentence_id)] = (
                    counts.get((r.speaker_id, r.emotion, r.sentence_id), 0) + 1
                )
            assert set(counts.values()) == {5}

    def test_assignment_digest_is_frozen(self):
        manifest = manifest_with_cells(
            [("neutral", "unbiased"), ("angry", "unbiased"), ("angry", "biased:angry")]
        )
        folds = partition_folds(manifest, "biased:angry", 3, seed=5)
        lines = [
            f"{fold} {role} {r.key}"
            for fold, assignment in enumerate(folds)
            for role in ("test", "train")
            for r in assignment[role]
        ]
        # every record of 2 speakers x 2 cells x 5 sentences x 15 reps, once per fold
        assert len(lines) == 3 * 2 * 2 * 5 * 15
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "193543d2df56f815d41e2f1e1201b6a808a4d99e178c20a58fe51431fd4e0b24"

    def test_too_many_folds_raises(self, tiny_corpus):
        with pytest.raises(ProtocolError, match="folds"):
            partition_folds(tiny_corpus, "unbiased", 16, seed=0)
        with pytest.raises(ProtocolError, match="folds"):
            partition_folds(tiny_corpus, "unbiased", 1, seed=0)

    def test_cross_validate_small(self, tiny_corpus, tiny_loader, small_topology):
        loads: dict[str, int] = {}

        def counting_loader(record):
            loads[record.key] = loads.get(record.key, 0) + 1
            return tiny_loader(record)

        result = cross_validate(
            tiny_corpus,
            counting_loader,
            "unbiased",
            small_topology,
            alpha=0.5,
            n_folds=3,
            seed=7,
            max_iterations=2,
        )
        assert len(result.folds) == 3
        # each fold tests one third of 450 records
        assert all(len(f.result.trials) == 150 for f in result.folds)
        assert result.mean_accuracy >= 0.9
        assert result.sd_accuracy >= 0.0
        assert result.mean_accuracy == pytest.approx(np.mean(result.accuracies))
        # every record is loaded once and reused by all folds
        assert loads == {r.key: 1 for r in tiny_corpus.records}
        assert result.accuracies == [1.0, 1.0, 1.0]


def manifest_with_cells(cells) -> CorpusManifest:
    """Two speakers, 5 sentences x 15 repetitions per (emotion, bias) cell."""
    records = [
        UtteranceRecord(
            speaker_id=speaker,
            gender=gender,
            emotion=emotion,
            sentence_id=sentence,
            bias_tag=bias,
            session=session_for_repetition(rep),
            repetition=rep,
            source=f"{speaker}_{emotion}_{sentence}_{rep}_{bias}.lfpc.feat",
        )
        for speaker, gender in (("spk01", "male"), ("spk02", "female"))
        for emotion, bias in cells
        for sentence in SENTENCE_IDS
        for rep in range(1, 16)
    ]
    return CorpusManifest(records=records)


class TestPlanCells:
    """Every consumer of a plan draws from the cells :func:`plan_cells` names."""

    # angry exists only as biased material; sad only as material of another plan
    CELLS = [("neutral", "unbiased"), ("angry", "biased:angry"), ("sad", "biased:sad")]

    @pytest.mark.parametrize("plan, want", [
        ("biased:angry", {("angry", "biased:angry"), ("neutral", "unbiased")}),
        ("unbiased", {("neutral", "unbiased")}),
    ])
    def test_consumers_agree(self, plan, want):
        manifest = manifest_with_cells(self.CELLS)
        assert set(plan_cells(manifest, plan)) == want

        report = validate_protocol_counts(manifest, plan)
        assert report.ok
        assert report.expected_train_per_speaker == 45 * len(want)
        assert report.train_counts == {"spk01": 45 * len(want), "spk02": 45 * len(want)}

        def cells_of(records):
            return {(r.emotion, r.bias_tag) for r in records}

        assert cells_of(assemble_training_set(manifest, "spk01", plan)) == want
        assert cells_of(session_test_records(manifest, plan)) == want
        folds = partition_folds(manifest, plan, 3, seed=0)
        assert cells_of(r for fold in folds for r in fold["train"] + fold["test"]) == want
