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
from emospeaker.hmm import ModelError
from emospeaker.protocol import (
    PerformanceTable,
    ProtocolError,
    Trial,
    assemble_training_set,
    cross_validate,
    identify,
    partition_folds,
    run_session,
    score_records,
    session_test_records,
    train_population,
)
from emospeaker.sphmm import DualObservation, SpeakerModel
from helpers import random_model


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

    def test_allow_partial_skips_check(self, tiny_corpus):
        pruned = replace(
            tiny_corpus, records=[r for r in tiny_corpus.records if r.repetition != 4]
        )
        records = assemble_training_set(pruned, "spk01", "unbiased", allow_partial=True)
        assert len(records) == 80  # 8 reps instead of 9

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
        winner, scores = identify(models, obs, 0.5)
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
        winner, scores = identify([models[0], clone], obs, 0.5)
        assert scores[0] == scores[1]
        assert winner == "spk01"

    def test_non_finite_observation_rejected(self):
        # a NaN score would pass through argmax and name the first enrolled speaker
        models = self.make_population(54)
        rng = np.random.default_rng(55)
        acoustic, prosodic = rng.standard_normal((6, 3)), rng.standard_normal((3, 2))
        acoustic[2, 0] = np.nan
        with pytest.raises(ModelError, match="non-finite"):
            identify(models, DualObservation(acoustic, prosodic), 0.5)

    def test_empty_population(self):
        obs = DualObservation(np.zeros((4, 3)), np.zeros((2, 2)))
        with pytest.raises(ProtocolError, match="empty"):
            identify([], obs, 0.5)


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
        trials = score_records(tiny_models, records, tiny_loader, 0.5)
        assert [t.record for t in trials] == records

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
