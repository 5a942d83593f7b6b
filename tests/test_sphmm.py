import math
from collections.abc import Sequence
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emospeaker import sphmm
from emospeaker.hmm import ModelError, ModelFormatError, log_forward
from emospeaker.sphmm import (
    DualObservation,
    Population,
    SpeakerModel,
    Topology,
    fused_log_score,
    load_speaker_model,
    save_speaker_model,
    speaker_model_from_text,
    speaker_model_to_text,
    train_speaker_model,
)
from helpers import random_model


@pytest.fixture(scope="module")
def speaker_fixture():
    rng = np.random.default_rng(30)
    acoustic = random_model(rng, 3, 2, 4)
    prosodic = random_model(rng, 2, 1, 3)
    model = SpeakerModel(
        speaker_id="spk07",
        acoustic=acoustic,
        prosodic=prosodic,
        log_prior=math.log(0.25),
    )
    obs = DualObservation(
        acoustic=rng.standard_normal((25, 4)),
        prosodic=rng.standard_normal((6, 3)),
    )
    return model, obs


class TestDualObservation:
    """Both streams are normalised once, as np.atleast_2d(np.asarray(x, float64))."""

    @pytest.mark.parametrize("stream", [
        [0.5, -1.0, 2.0],
        [[0.5, -1.0], [2.0, 3.0]],
        np.arange(6).reshape(3, 2),
        np.linspace(-1.0, 1.0, 8, dtype=np.float32).reshape(4, 2),
    ], ids=["1-d frame", "nested list", "int array", "float32 array"])
    def test_each_stream_is_the_normalised_array(self, stream):
        obs = DualObservation(stream, stream)
        want = np.atleast_2d(np.asarray(stream, dtype=np.float64))
        for got in (obs.acoustic, obs.prosodic):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_float64_two_axis_streams_are_kept(self):
        acoustic, prosodic = np.zeros((5, 4)), np.ones((2, 3))
        obs = DualObservation(acoustic, prosodic)
        assert obs.acoustic is acoustic and obs.prosodic is prosodic


class TestTopology:
    def test_defaults(self):
        topo = Topology()
        assert (topo.acoustic_states, topo.acoustic_mixtures) == (9, 10)
        assert (topo.prosodic_states, topo.prosodic_mixtures) == (3, 2)
        topo.validate()

    @pytest.mark.parametrize("kwargs", [
        {"acoustic_states": 0},
        {"acoustic_mixtures": -1},
        {"acoustic_dim": 0},
        {"prosodic_states": 0},
        {"prosodic_dim": 0},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ModelError):
            Topology(**kwargs).validate()


class TestFusion:
    def test_alpha_zero_is_exactly_acoustic(self, speaker_fixture):
        model, obs = speaker_fixture
        expected = log_forward(model.acoustic, obs.acoustic)[0] + model.log_prior
        assert fused_log_score(model, obs, 0.0) == expected

    def test_alpha_one_is_exactly_prosodic(self, speaker_fixture):
        model, obs = speaker_fixture
        expected = log_forward(model.prosodic, obs.prosodic)[0] + model.log_prior
        assert fused_log_score(model, obs, 1.0) == expected

    def test_affine_in_alpha(self, speaker_fixture):
        model, obs = speaker_fixture
        s0 = fused_log_score(model, obs, 0.0)
        s1 = fused_log_score(model, obs, 1.0)
        for alpha in (0.1, 0.25, 0.5, 0.6180339887, 0.9):
            expected = (1.0 - alpha) * s0 + alpha * s1
            assert fused_log_score(model, obs, alpha) == pytest.approx(
                expected, abs=1e-12 * max(1.0, abs(expected))
            )

    @given(alpha=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_score_between_endpoints(self, speaker_fixture, alpha):
        model, obs = speaker_fixture
        s0 = fused_log_score(model, obs, 0.0)
        s1 = fused_log_score(model, obs, 1.0)
        score = fused_log_score(model, obs, alpha)
        lo, hi = min(s0, s1), max(s0, s1)
        assert lo - 1e-9 <= score <= hi + 1e-9

    @pytest.mark.parametrize("alpha", [-0.01, 1.01, float("nan")])
    def test_alpha_out_of_range(self, speaker_fixture, alpha):
        model, obs = speaker_fixture
        with pytest.raises(ModelError, match="alpha"):
            fused_log_score(model, obs, alpha)

    def test_prior_enters_both_streams(self, speaker_fixture):
        model, obs = speaker_fixture
        flat = SpeakerModel(
            speaker_id=model.speaker_id,
            acoustic=model.acoustic,
            prosodic=model.prosodic,
            log_prior=0.0,
        )
        delta = model.log_prior
        for alpha in (0.0, 0.3, 1.0):
            assert fused_log_score(model, obs, alpha) == pytest.approx(
                fused_log_score(flat, obs, alpha) + delta, rel=1e-12
            )

    def test_global_prior_shift_preserves_ranking(self, speaker_fixture):
        # adding the same constant to every log prior cannot change the argmax
        _, obs = speaker_fixture
        rng = np.random.default_rng(31)
        models = []
        for i in range(4):
            models.append(SpeakerModel(
                speaker_id=f"spk{i:02d}",
                acoustic=random_model(rng, 2, 2, 4),
                prosodic=random_model(rng, 2, 1, 3),
                log_prior=math.log(0.25),
            ))
        for alpha in (0.0, 0.5, 1.0):
            base = [fused_log_score(m, obs, alpha) for m in models]
            shifted = []
            for m in models:
                moved = SpeakerModel(
                    speaker_id=m.speaker_id,
                    acoustic=m.acoustic,
                    prosodic=m.prosodic,
                    log_prior=m.log_prior - 1.7,
                )
                shifted.append(fused_log_score(moved, obs, alpha))
            assert int(np.argmax(base)) == int(np.argmax(shifted))
            assert np.allclose(np.array(shifted) - np.array(base), -1.7)

    def test_positive_log_prior_rejected(self, speaker_fixture):
        model, _ = speaker_fixture
        with pytest.raises(ModelError, match="prior"):
            SpeakerModel(
                speaker_id="bad",
                acoustic=model.acoustic,
                prosodic=model.prosodic,
                log_prior=0.1,
            ).validate()


class TestPopulation:
    """A population is the enrolled speakers in order, each stream stacked once."""

    def models(self, seed, n=3):
        rng = np.random.default_rng(seed)
        return [
            SpeakerModel(f"spk{i:02d}", random_model(rng, 2, 2, 3), random_model(rng, 3, 1, 2),
                         math.log(1 / n))
            for i in range(1, n + 1)
        ]

    def test_sequence_of_speaker_models_in_enrollment_order(self):
        # what callers outside the package rely on: iterate, index, read fields
        models = self.models(36)
        population = Population(models)
        assert isinstance(population, Sequence)
        assert len(population) == 3
        assert all(a is b for a, b in zip(population, models, strict=True))
        assert population[-1] is models[-1]
        assert [m.speaker_id for m in population[1:]] == ["spk02", "spk03"]
        for v, model in enumerate(models):
            assert population.acoustic[v] is model.acoustic
            assert population.prosodic[v] is model.prosodic
        assert np.array_equal(population.log_priors, [m.log_prior for m in models])

    def test_empty_rejected(self):
        with pytest.raises(ModelError, match="empty enrolled population"):
            Population([])

    @pytest.mark.parametrize("stream", ["acoustic", "prosodic"])
    def test_mixed_shapes_rejected_when_built(self, stream):
        models = self.models(37)
        other = random_model(np.random.default_rng(38), 4, 1, getattr(models[0], stream).dim)
        models[1] = replace(models[1], **{stream: other})
        with pytest.raises(ModelError, match=f"speaker 'spk02': {stream} model is \\(4, 1, "):
            Population(models)

    def test_duplicate_speaker_ids_rejected(self):
        # a speaker enrolled twice would be counted twice in the session's
        # speakers and lose its trials to one copy in the confusion matrix
        models = self.models(39, n=4)
        models[3] = replace(models[3], speaker_id="spk02")
        with pytest.raises(ModelError, match=r"enrolled more than once: spk02$"):
            Population(models)
        Population(models[:3])


class TestTraining:
    def make_observations(self, seed, n=8):
        rng = np.random.default_rng(seed)
        return [
            DualObservation(
                acoustic=rng.standard_normal((20, 4)) + 2.0,
                prosodic=rng.standard_normal((5, 3)),
            )
            for _ in range(n)
        ]

    def test_deterministic_given_seed(self):
        topo = Topology(2, 2, 4, 2, 1, 3)
        obs = self.make_observations(40)
        a = train_speaker_model("spk01", obs, topo, seed=9, max_iterations=3)
        b = train_speaker_model("spk01", obs, topo, seed=9, max_iterations=3)
        assert speaker_model_to_text(a.model) == speaker_model_to_text(b.model)

    def test_seed_changes_model(self):
        topo = Topology(2, 2, 4, 2, 1, 3)
        obs = self.make_observations(41)
        a = train_speaker_model("spk01", obs, topo, seed=9, max_iterations=3)
        b = train_speaker_model("spk01", obs, topo, seed=10, max_iterations=3)
        assert speaker_model_to_text(a.model) != speaker_model_to_text(b.model)

    def test_streams_trained_on_their_own_data(self):
        topo = Topology(2, 1, 4, 2, 1, 3)
        obs = self.make_observations(42)
        result = train_speaker_model("spk01", obs, topo, seed=0, max_iterations=5)
        model = result.model
        # acoustic data was shifted by +2; the trained means should reflect it
        acoustic_means = np.mean([s.means.mean() for s in model.acoustic.states])
        prosodic_means = np.mean([s.means.mean() for s in model.prosodic.states])
        assert acoustic_means > 1.0
        assert abs(prosodic_means) < 1.0

    def test_prior_recorded(self):
        topo = Topology(2, 1, 4, 2, 1, 3)
        obs = self.make_observations(43)
        result = train_speaker_model("spk01", obs, topo, seed=0,
                                     max_iterations=2, prior=0.1)
        assert result.model.log_prior == pytest.approx(math.log(0.1))

    @pytest.mark.parametrize("stream", ["acoustic", "prosodic"])
    def test_dimension_mismatch_rejected(self, stream, monkeypatch):
        # features are 4-D acoustic and 3-D prosodic; the topology expects 5
        # in one stream. Both streams are checked before either initializes.
        dims = {"acoustic": 4, "prosodic": 3}
        want = {s: 5 if s == stream else d for s, d in dims.items()}
        topo = Topology(2, 1, want["acoustic"], 2, 1, want["prosodic"])
        calls = []
        real_init = sphmm.init_model

        def counting_init(*args, **kwargs):
            calls.append(args[1:3])
            return real_init(*args, **kwargs)

        monkeypatch.setattr(sphmm, "init_model", counting_init)
        obs = self.make_observations(44)
        with pytest.raises(ModelError) as err:
            train_speaker_model("spk01", obs, topo, seed=0, max_iterations=2)
        assert str(err.value) == (
            f"speaker 'spk01': {stream} features have dim {dims[stream]}, topology expects 5"
        )
        assert calls == []

    def test_no_observations_rejected(self):
        topo = Topology(2, 1, 4, 2, 1, 3)
        with pytest.raises(ModelError, match="no training"):
            train_speaker_model("spk01", [], topo, seed=0)


class TestSerialization:
    def test_round_trip_exact(self, speaker_fixture):
        model, obs = speaker_fixture
        restored = speaker_model_from_text(speaker_model_to_text(model))
        assert restored.speaker_id == model.speaker_id
        assert restored.log_prior == model.log_prior
        assert fused_log_score(restored, obs, 0.37) == fused_log_score(model, obs, 0.37)

    def test_file_round_trip_score_drift(self, tmp_path, speaker_fixture):
        model, obs = speaker_fixture
        path = tmp_path / "spk07.model"
        save_speaker_model(model, path)
        restored = load_speaker_model(path)
        for alpha in (0.0, 0.5, 1.0):
            a = fused_log_score(model, obs, alpha)
            b = fused_log_score(restored, obs, alpha)
            assert b == pytest.approx(a, rel=1e-12)

    def test_forward_identical_after_round_trip(self, speaker_fixture):
        model, obs = speaker_fixture
        restored = speaker_model_from_text(speaker_model_to_text(model))
        assert log_forward(restored.acoustic, obs.acoustic)[0] == \
            log_forward(model.acoustic, obs.acoustic)[0]

    def test_bad_magic(self, speaker_fixture):
        model, _ = speaker_fixture
        text = speaker_model_to_text(model)
        with pytest.raises(ModelFormatError):
            speaker_model_from_text("NOPE 1\n" + text.split("\n", 1)[1])

    def test_missing_section(self, speaker_fixture):
        model, _ = speaker_fixture
        text = speaker_model_to_text(model)
        cut = text[: text.index("\nprosodic\n")]
        with pytest.raises(ModelFormatError):
            speaker_model_from_text(cut)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="not found"):
            load_speaker_model(tmp_path / "nope.model")
