import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

import emospeaker
from emospeaker import hmm
from emospeaker.hmm import (
    HmmModel,
    HmmStack,
    ModelError,
    ModelFormatError,
    TrainingError,
    _kmeans,
    batch_groups,
    baum_welch_train,
    init_model,
    log_forward,
    log_forward_table,
    model_from_text,
    model_to_text,
)
from helpers import (
    brute_force_em_step,
    brute_force_log_likelihood,
    direct_component_log_pdf,
    log_backward,
    log_domain_backward,
    log_domain_forward,
    log_emissions,
    log_mixture_density,
    looped_init_model,
    looped_reestimate,
    looped_kmeans,
    looped_mixtures,
    mixture_density,
    per_sequence_baum_welch,
    random_model,
    traced_peak,
)


def parameter_vectors(model: HmmModel) -> list[np.ndarray]:
    """Start and transition probabilities, then each state's weights, means and variances."""
    vectors = [model.pi, model.transitions]
    for state in model.states:
        vectors += [state.weights, state.means, state.variances]
    return vectors


def two_state_sequences(rng, n_sequences=10, length=30, gap=6.0):
    """Sticky two-regime data with well-separated 2-D emissions."""
    sequences = []
    for _ in range(n_sequences):
        state = rng.integers(2)
        obs = np.empty((length, 2))
        for t in range(length):
            if rng.random() < 0.25:
                state = 1 - state
            center = -gap / 2 if state == 0 else gap / 2
            obs[t] = center + 0.5 * rng.standard_normal(2)
        sequences.append(obs)
    return sequences


class TestValidation:
    def test_valid_model(self):
        model = random_model(np.random.default_rng(0), 3, 2, 2)
        model.validate()

    def test_weights_must_sum_to_one(self):
        model = HmmModel([1.0], [[1.0]], [[0.5, 0.4]], np.zeros((1, 2, 1)), np.ones((1, 2, 1)))
        with pytest.raises(ModelError, match="distribution"):
            model.validate()

    def test_nonpositive_variance_rejected(self):
        model = HmmModel([1.0], [[1.0]], [[1.0]], np.zeros((1, 1, 2)), [[[1.0, 0.0]]])
        with pytest.raises(ModelError, match="positive"):
            model.validate()

    def test_transition_rows_are_distributions(self):
        model = random_model(np.random.default_rng(1), 2, 1, 1)
        model.transitions = np.array([[0.9, 0.2], [0.5, 0.5]])
        with pytest.raises(ModelError, match="transition"):
            model.validate()

    def test_state_count_mismatch(self):
        model = random_model(np.random.default_rng(2), 2, 1, 1)
        model.weights, model.means, model.variances = (
            x[:1] for x in (model.weights, model.means, model.variances)
        )
        with pytest.raises(ModelError):
            model.validate()

    def test_observation_dim_checked(self):
        model = random_model(np.random.default_rng(3), 2, 1, 3)
        with pytest.raises(ModelError, match="dim"):
            log_forward(model, np.zeros((4, 2)))
        with pytest.raises(ModelError, match="empty"):
            log_forward(model, np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observations_rejected(self, bad):
        model = random_model(np.random.default_rng(4), 2, 1, 3)
        obs = np.random.default_rng(5).standard_normal((6, 3))
        obs[3, 1] = bad
        with pytest.raises(ModelError, match="non-finite"):
            log_forward(model, obs)
        with pytest.raises(ModelError, match="non-finite"):
            log_forward_table(HmmStack([model]), [obs[:3], obs])
        with pytest.raises(ModelError, match="non-finite"):
            baum_welch_train(model, [obs[:3], obs], max_iterations=1)


class TestArrayModel:
    """A model's five arrays are its only parameters; ``states`` views them."""

    @staticmethod
    def arrays(model: HmmModel) -> list[np.ndarray]:
        return [model.pi, model.transitions, model.weights, model.means, model.variances]

    def test_kernel_terms_leave_the_arrays_as_they_were(self):
        rng = np.random.default_rng(45)
        models = [random_model(rng, 3, 2, 4) for _ in range(2)]
        before = [[x.copy() for x in self.arrays(model)] for model in models]
        HmmStack(models)
        HmmStack(models[:1])
        for state in models[0].states:
            state.component_log_pdf(rng.normal(0.0, 2.0, (5, 4)))
        for model, copies in zip(models, before):
            for got, want in zip(self.arrays(model), copies):
                assert got.tobytes() == want.tobytes()

    def test_states_are_frozen_views(self):
        model = random_model(np.random.default_rng(46), 3, 2, 4)
        state = model.states[1]
        for name in ("weights", "means", "variances"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state, name, getattr(state, name).copy())
        state.means[0, 2] = 7.5
        assert model.means[1, 0, 2] == 7.5
        assert [len(model.states), *model.states[0].means.shape] == [3, 2, 4]


class TestEmissions:
    def test_mixture_log_pdf_matches_reference(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 1, 2, 3)
        state = model.states[0]
        for _ in range(5):
            x = rng.standard_normal(3)
            expected = np.log(mixture_density(state, x))
            assert log_emissions(model, x[None, :])[0, 0] == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def assert_close(got, want, rtol):
        assert np.all(np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want)))

    def test_kernel_matches_direct_formula(self):
        rng = np.random.default_rng(33)
        for _ in range(30):
            n, m, d = (int(k) for k in rng.integers(1, 6, size=3))
            model = random_model(rng, n, m, d)
            obs = rng.normal(0.0, 3.0, (int(rng.integers(1, 40)), d))
            for state in model.states:
                self.assert_close(
                    state.component_log_pdf(obs), direct_component_log_pdf(state, obs), 1e-12
                )

    @staticmethod
    def wav_shaped_prosodic_model(rng) -> HmmModel:
        """3x2 over (mean f0, f0 range, log energy, voiced fraction) as trained on
        synthetic WAV speech: f0 near 115 Hz, range 0 and voicing 1 constant, so
        those variances sit at the 1e-6 floor."""
        weights = np.empty((3, 2))
        means = np.empty((3, 2, 4))
        variances = np.full((3, 2, 4), 1e-6)
        for j in range(3):
            means[j, :, 0] = 115.3 + rng.normal(0.0, 1e-3, 2)
            means[j, :, 1] = 0.0
            means[j, :, 2] = rng.uniform(72.0, 74.0, 2)
            means[j, :, 3] = 1.0
            variances[j, :, 2] = rng.uniform(0.17, 0.49, 2)
            weights[j] = rng.dirichlet(np.ones(2))
        transitions = np.stack([rng.dirichlet(np.ones(3)) for _ in range(3)])
        model = HmmModel(rng.dirichlet(np.ones(3)), transitions, weights, means, variances)
        model.validate()
        return model

    @pytest.mark.parametrize("f0", [115.3, 139.7])
    def test_kernel_at_variance_floor_far_from_origin(self, f0):
        # the speaker's own voice (115.3 Hz) and another's (139.7 Hz); without the
        # per-state shift the expansion is off by about 2e-6 nats a frame here
        rng = np.random.default_rng(34)
        model = self.wav_shaped_prosodic_model(rng)
        obs = np.column_stack([
            np.full(12, f0), np.zeros(12), rng.normal(73.0, 0.5, 12), np.ones(12)
        ])
        want = np.array([[log_mixture_density(s, x) for s in model.states] for x in obs])
        self.assert_close(log_emissions(model, obs), want, 1e-9)
        ll, _ = log_forward(model, obs)
        self.assert_close(ll, log_domain_forward(model, obs)[0], 1e-9)

    def test_kernel_with_one_component_at_the_floor(self):
        # a prosodic state trained on synthetic blocks, one of whose components
        # holds the blocks clipped to f0 = 75 Hz at the 1e-6 variance floor, the
        # other the voiced ones near 115 Hz; scored on two clipped blocks. Shifted
        # by the plain mean of its means (95 Hz), its log-likelihood was off by
        # 1e-8 relative; the precision-weighted shift sits at the clipped mean.
        model = HmmModel(
            pi=[1.0],
            transitions=[[1.0]],
            weights=[[0.85929233, 0.14070767]],
            means=[[[75.0, 55.69730978, -20.24296955, 0.45069946],
                    [114.86418833, 43.39402019, -25.75191681, 0.62612365]]],
            variances=[[[1e-6, 2.6335868, 1.10690701, 1.40896705e-3],
                        [1.31231124, 0.864164517, 0.502285281, 1.40944766e-3]]],
        )
        state = model.states[0]
        obs = np.array([[75.0, 53.35580345, -21.36630989, 0.4117448],
                        [75.0, 54.91713625, -19.1654557, 0.42523499]])
        self.assert_close(state.component_log_pdf(obs), direct_component_log_pdf(state, obs), 1e-12)
        self.assert_close(log_forward(model, obs)[0], log_domain_forward(model, obs)[0], 1e-12)

    def test_state_alone_equals_its_slice_of_the_stack(self):
        # a state scores bit for bit the same on its own as among a population's
        # stacked states, for one frame or many at a time
        rng = np.random.default_rng(35)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 13))
            d = int(rng.integers(1, 17))
            models = [random_model(rng, n, m, d) for _ in range(int(rng.integers(1, 5)))]
            obs = rng.normal(0.0, 3.0, (int(rng.integers(2, 60)), d))
            terms = HmmStack(models).emissions
            stacked = terms.component_log_pdf(obs).reshape(len(models), n, m, len(obs))
            for v, model in enumerate(models):
                for j, state in enumerate(model.states):
                    assert np.array_equal(state.component_log_pdf(obs), stacked[v, j].T)
                    for t in (0, len(obs) - 1):
                        one = state.component_log_pdf(obs[t : t + 1])
                        assert np.array_equal(one, stacked[v, j, :, t : t + 1].T)


KERNEL_SHAPES = pytest.mark.parametrize(
    "n, m, d",
    [(9, 10, 16), (3, 2, 4), (2, 2, 16), (2, 1, 4)],
    ids=["paper-acoustic", "paper-prosodic", "small-acoustic", "small-prosodic"],
)


class TestKernelInvariance:
    """The emission kernel gives a frame and a state the same values wherever they sit.

    Every BLAS product of the kernel has one shape, a state's (M, 2D) weights
    times a block of B frames. These tests hold on a BLAS build that computes
    each column of a product at that shape by the same arithmetic in every
    call, as OpenBLAS's fixed register-tile micro-kernels do; they fail on a
    build that does not. The shapes are the paper's streams (9x10 over 16
    LFPC bands, 3x2 over 4 prosodic values) and the small WAV workload's
    (2x2 and 2x1).
    """

    @staticmethod
    def scores(terms, obs):
        """Component (S, M, T) and mixture (T, S) log densities of frames under ``terms``."""
        log_b = hmm._mixtures(terms.block_log_pdf(hmm._blocked(obs)))[:, : len(obs)].T
        return terms.component_log_pdf(obs), log_b

    @KERNEL_SHAPES
    def test_frame_alone_equals_it_at_every_block_position(self, n, m, d):
        rng = np.random.default_rng(39)
        terms = HmmStack([random_model(rng, n, m, d) for _ in range(2)]).emissions
        block = hmm._BLOCK
        for _ in range(3):
            frame = rng.normal(0.0, 2.0, (1, d))
            comp_alone, b_alone = self.scores(terms, frame)
            # every position of the first block, then either side of the next two boundaries
            for t in [*range(block), block, 2 * block - 1, 2 * block]:
                obs = rng.normal(0.0, 2.0, (2 * block + 1 + int(rng.integers(block)), d))
                obs[t] = frame[0]
                comp, log_b = self.scores(terms, obs)
                assert np.array_equal(comp[:, :, t], comp_alone[:, :, 0])
                assert np.array_equal(log_b[t], b_alone[0])

    @KERNEL_SHAPES
    def test_state_alone_equals_it_in_a_stack_and_across_model_slices(
        self, n, m, d, monkeypatch
    ):
        rng = np.random.default_rng(40)
        models = [random_model(rng, n, m, d) for _ in range(10)]
        sequences = [rng.normal(0.0, 2.0, (int(t), d)) for t in rng.integers(1, 40, size=5)]
        frames = np.concatenate(sequences)
        lengths = np.array([len(seq) for seq in sequences])
        layout = hmm._layout(lengths)
        stack = HmmStack(models)
        stacked = stack.emissions.component_log_pdf(frames).reshape(10, n, m, len(frames))
        default = hmm._padded_emissions(stack.emissions, stack.shape, frames, lengths, layout)
        # three models and one block per kernel call: slices start at models 3, 6 and 9
        monkeypatch.setattr(hmm, "_SLICE_ELEMENTS", 3 * n * hmm._BLOCK * max(2 * d, m))
        sliced = hmm._padded_emissions(stack.emissions, stack.shape, frames, lengths, layout)
        for v, model in enumerate(models):
            alone = hmm._padded_emissions(
                HmmStack([model]).emissions, (n, 1), frames, lengths, layout
            )
            assert np.array_equal(default[:, :, v], alone[:, :, 0])
            assert np.array_equal(sliced[:, :, v], alone[:, :, 0])
            for j, state in enumerate(model.states):
                assert np.array_equal(state.component_log_pdf(frames), stacked[v, j].T)


class TestMixtures:
    """The floored, mixture-major log-sum-exp equals the unfloored sum in order, bit for bit."""

    @staticmethod
    def table(rng, m: int) -> np.ndarray:
        """Component log densities (S, K, M, B) that reach every path of exp.

        Each frame has one component at a drawn maximum and the others below
        it by one of six kinds of offset: 0 (a tie), up to 30 (normal terms),
        700 to 708.4 (normal, just above log(tiny)), 708.4 to 745.2 (a
        subnormal exp), 745.2 to 1e9 (an exp of 0) and inf (an exact -inf).
        About one frame in ten and the whole first state are all -inf.
        """
        shape = (5, 3, m, hmm._BLOCK)
        offsets = np.choose(rng.integers(0, 6, shape), [
            np.zeros(shape),
            rng.uniform(0.0, 30.0, shape),
            rng.uniform(700.0, 708.4, shape),
            rng.uniform(708.4, 745.2, shape),
            10.0 ** rng.uniform(np.log10(745.2), 9.0, shape),
            np.full(shape, np.inf),
        ])
        np.put_along_axis(offsets, rng.integers(0, m, (*shape[:2], 1, shape[3])), 0.0, axis=2)
        table = rng.normal(0.0, 200.0, (*shape[:2], 1, shape[3])) - offsets
        table[np.broadcast_to(rng.random((*shape[:2], 1, shape[3])) < 0.1, shape)] = -np.inf
        table[0] = -np.inf
        return table

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 10, 17])
    def test_equals_the_unfloored_sum_in_order(self, m):
        rng = np.random.default_rng(44 + m)
        for _ in range(20):
            table = self.table(rng, m)
            if m > 1:
                with np.errstate(invalid="ignore"):
                    shifted = table - table.max(axis=2, keepdims=True)
                assert np.any((shifted > -745.2) & (shifted < np.log(np.finfo(np.float64).tiny)))
            want = looped_mixtures(table)
            assert np.all(want[0] == -np.inf)
            comp_log = np.ascontiguousarray(table.transpose(2, 0, 1, 3))
            assert np.array_equal(hmm._mixtures(comp_log), want)
            assert np.array_equal(hmm._mixtures(comp_log, out=comp_log), want)

    @pytest.mark.parametrize("m", [2, 10])
    def test_kernel_equals_the_oracle_on_far_apart_components(self, m):
        # means 30 apart against unit variances put most shifted terms below log(tiny)
        rng = np.random.default_rng(43)
        models = [random_model(rng, 9, m, 16) for _ in range(2)]
        for model in models:
            model.means *= 15.0
        terms = HmmStack(models).emissions
        obs = rng.normal(0.0, 30.0, (40, 16))
        comp_log = terms.component_log_pdf(obs)  # (S, M, T)
        log_b = hmm._mixtures(terms.block_log_pdf(hmm._blocked(obs)))[:, : len(obs)]  # (S, T)
        want = looped_mixtures(comp_log.transpose(0, 2, 1)[..., None])
        assert np.array_equal(log_b, want)


def masked_logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """The log-sum-exp that zeroed every non-finite peak, which ``_logsumexp`` replaced."""
    peak = x.max(axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    return np.log(np.exp(x - peak).sum(axis=axis)) + peak.squeeze(axis)


class TestLogsumexp:
    def test_all_minus_inf_slice_gives_minus_inf(self):
        x = np.array([[-np.inf, -np.inf, -np.inf], [0.0, -np.inf, 1.0]])
        with np.errstate(divide="ignore"):
            got = hmm._logsumexp(x, axis=1)
        assert got[0] == -np.inf
        assert got[1] == pytest.approx(np.logaddexp(0.0, 1.0), rel=1e-15)

    def test_nan_propagates(self):
        x = np.array([[0.0, np.nan, 1.0], [np.nan, -np.inf, -np.inf], [np.nan] * 3])
        assert np.all(np.isnan(hmm._logsumexp(x, axis=1)))
        assert np.all(np.isnan(hmm._logsumexp(x, axis=0)))

    def test_equals_masked_form_on_tables_with_minus_inf(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            shape = tuple(int(k) for k in rng.integers(1, 6, size=int(rng.integers(1, 5))))
            x = rng.normal(0.0, 30.0, shape)
            x[rng.random(shape) < 0.4] = -np.inf
            for axis in range(-x.ndim, 0):
                with np.errstate(divide="ignore"):
                    assert np.array_equal(hmm._logsumexp(x, axis), masked_logsumexp(x, axis))


class TestForward:
    def test_matches_brute_force_on_random_models(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 3))
            d = int(rng.integers(1, 3))
            t = int(rng.integers(1, 6))
            model = random_model(rng, n, m, d)
            obs = rng.normal(0.0, 1.5, (t, d))
            fast, _ = log_forward(model, obs)
            slow = brute_force_log_likelihood(model, obs)
            assert fast == pytest.approx(slow, rel=1e-10)

    def test_single_frame_is_plain_mixture(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, 3, 2, 2)
        x = rng.standard_normal((1, 2))
        expected = logsumexp(np.log(model.pi) + log_emissions(model, x)[0])
        assert log_forward(model, x)[0] == pytest.approx(float(expected), rel=1e-12)

    def test_table_equals_per_pair_forward(self):
        # one batched pass over ragged sequences, 1-frame ones included, and
        # models with zero transitions: every entry is log_forward's, bit for
        # bit. The last two trials have 9 states, so the termination's state
        # sum is one that numpy adds pairwise on a contiguous axis.
        rng = np.random.default_rng(27)
        for trial in range(22):
            n, m, d = (int(k) for k in rng.integers(1, 5, size=3))
            if trial >= 20:
                n = 9
            models = [random_model(rng, n, m, d) for _ in range(int(rng.integers(1, 5)))]
            if trial % 2:
                for model in models:
                    upper = np.triu(model.transitions)
                    model.transitions = upper / upper.sum(axis=1, keepdims=True)
            sequences = [rng.normal(0.0, 3.0, (int(t), d)) for t in rng.choice([1, 2, 9, 40], 5)]
            table = log_forward_table(HmmStack(models), sequences)
            per_pair = [[log_forward(model, seq)[0] for model in models] for seq in sequences]
            assert np.array_equal(table, per_pair)

    @pytest.mark.parametrize("n, m, d", [(9, 10, 16), (3, 2, 4)], ids=["acoustic", "prosodic"])
    def test_short_utterances_score_alone_as_in_a_group(self, n, m, d):
        # the paper's two streams, 2 speakers: a 1- or 2-frame utterance's
        # emissions and scores are the same alone as among others, although a
        # lone frame fills its own kernel call (numpy's sum over 10 components
        # adds a lone frame's terms in another order). Components lie close
        # together and frames near them, so log b is near 0 and every term of a
        # mixture sum reaches its last bits.
        rng = np.random.default_rng(36)
        models = [random_model(rng, n, m, d) for _ in range(2)]
        for model in models:
            model.means *= 0.15
            model.variances *= 0.1
        stack = HmmStack(models)
        for _ in range(10):
            sequences = [rng.normal(0.0, 0.3, (int(t), d)) for t in rng.choice([1, 2, 9], 8)]
            ends = np.cumsum([len(seq) for seq in sequences])
            for model in stack:
                log_b = log_emissions(model, np.concatenate(sequences))
                for seq, end in zip(sequences, ends):
                    assert np.array_equal(log_emissions(model, seq), log_b[end - len(seq) : end])
            table = log_forward_table(stack, sequences)
            for u, seq in enumerate(sequences):
                assert np.array_equal(table[u], log_forward_table(stack, [seq])[0])
                assert np.array_equal(table[u], [log_forward(model, seq)[0] for model in stack])

    def test_batched_backward_equals_per_sequence(self):
        # ragged sequences padded to the longest: each one's beta is
        # log_backward's bit for bit and exactly 0 from its last frame on. The
        # transition rows sum to 1 + 4e-9, so padding read as data would show.
        # The last two trials have 9 states, whose next-state sums numpy adds
        # pairwise on a contiguous axis and in order on any other.
        rng = np.random.default_rng(32)
        for trial in range(12):
            n, m, d = (int(k) for k in rng.integers(1, 5, size=3))
            if trial >= 10:
                n = 9
            model = random_model(rng, n, m, d)
            if trial % 2:
                upper = np.triu(model.transitions)
                model.transitions = upper / upper.sum(axis=1, keepdims=True)
            model.transitions *= 1.0 + 4e-9
            seqs = [rng.normal(0.0, 3.0, (int(t), d)) for t in rng.choice([1, 2, 9, 30], 6)]
            lengths = np.array([len(s) for s in seqs])
            stack = HmmStack([model])
            log_b = hmm._padded_emissions(
                stack.emissions, stack.shape, np.concatenate(seqs), lengths, hmm._layout(lengths)
            )
            log_beta = hmm._backward(stack.log_a[..., None], log_b, lengths)
            for k, seq in enumerate(seqs):
                assert np.array_equal(log_beta[: len(seq), :, 0, k], log_backward(model, seq))
                assert np.all(log_beta[len(seq) - 1 :, :, 0, k] == 0.0)

    def test_backward_sums_next_states_on_a_contiguous_axis(self):
        # at 9 states numpy adds a contiguous axis pairwise and any other in
        # order; each backward step sums its next states as the plain (N, N)
        # table's last axis, the order EM's statistics are computed in
        rng = np.random.default_rng(38)
        model = random_model(rng, 9, 2, 3)
        obs = rng.normal(0.0, 3.0, (30, 3))
        log_a, log_b = np.log(model.transitions), log_emissions(model, obs)
        want = np.zeros_like(log_b)
        for t in range(len(obs) - 2, -1, -1):
            terms = log_a + (log_b[t + 1] + want[t + 1])[None, :]
            peak = terms.max(axis=1, keepdims=True)
            want[t] = np.log(np.exp(terms - peak).sum(axis=1)) + peak[:, 0]
        assert np.array_equal(log_backward(model, obs), want)

    def test_long_sequence_stays_finite(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, 3, 2, 4)
        obs = rng.normal(0.0, 3.0, (800, 4))
        ll, log_alpha = log_forward(model, obs)
        assert np.isfinite(ll)
        assert log_alpha.shape == (800, 3)

    def test_alpha_beta_consistency(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, 3, 2, 2)
        obs = rng.standard_normal((40, 2))
        ll, log_alpha = log_forward(model, obs)
        log_beta = log_backward(model, obs)
        # P(O) recoverable at every time slice
        for t in (0, 13, 39):
            assert logsumexp(log_alpha[t] + log_beta[t]) == pytest.approx(ll, rel=1e-12)


def assert_matches_log_domain_oracle(model, obs) -> float:
    """log_forward and log_backward equal the per-frame oracle: the same
    non-finite entries, every finite one within 1e-9 relative. Returns log P."""
    ll, log_alpha = log_forward(model, obs)
    exact_ll, exact_alpha = log_domain_forward(model, obs)
    assert ll == pytest.approx(exact_ll, rel=1e-9)
    pairs = ((log_alpha, exact_alpha), (log_backward(model, obs), log_domain_backward(model, obs)))
    for fast, exact in pairs:
        finite = np.isfinite(exact)
        assert np.array_equal(np.isfinite(fast), finite)
        assert np.array_equal(fast[~finite], exact[~finite])
        assert fast[finite] == pytest.approx(exact[finite], rel=1e-9)
    return ll


class TestLogDomainOracle:
    """The forward and backward recursions against the per-frame scipy oracle."""

    @pytest.mark.parametrize("variance", [1.0, 1e-3, 1e-6])
    def test_left_right_with_zero_transitions(self, variance):
        # emissions at 1e-6 differ by ~2e6 nats, far past exp underflow, while
        # the zero transitions leave some states unreachable (-inf)
        model = HmmModel(
            pi=[1.0, 0.0, 0.0],
            transitions=[[0.9, 0.1, 0.0], [0.0, 0.9, 0.1], [0.0, 0.0, 1.0]],
            weights=np.ones((3, 1)),
            means=np.array([0.0, 1.0, 2.0])[:, None, None],
            variances=np.full((3, 1, 1), variance),
        )
        obs = np.array([0, 0, 1, 1, 1, 2, 2, 0], dtype=float)[:, None]
        ll = assert_matches_log_domain_oracle(model, obs)
        if variance == 1e-3:
            assert ll == pytest.approx(-1482.655, abs=1e-3)

    def test_floor_variances_far_from_means(self):
        rng = np.random.default_rng(25)
        model = random_model(rng, 3, 2, 3)
        model.variances = np.full_like(model.variances, 1e-6)
        obs = rng.normal(0.0, 3.0, (30, 3))
        assert assert_matches_log_domain_oracle(model, obs) < -1e6

    def test_long_random_sequence(self):
        rng = np.random.default_rng(26)
        model = random_model(rng, 4, 3, 2)
        assert_matches_log_domain_oracle(model, rng.normal(0.0, 2.5, (300, 2)))


class TestInit:
    def test_deterministic(self):
        rng = np.random.default_rng(11)
        seqs = two_state_sequences(rng)
        a = init_model(seqs, 2, 2, seed=77)
        b = init_model(seqs, 2, 2, seed=77)
        assert model_to_text(a) == model_to_text(b)
        c = init_model(seqs, 2, 2, seed=78)
        assert model_to_text(a) != model_to_text(c)

    def test_valid_and_uniform_start(self):
        rng = np.random.default_rng(12)
        model = init_model(two_state_sequences(rng), 3, 2, seed=0)
        model.validate()
        assert np.allclose(model.pi, 1 / 3)
        assert np.allclose(model.transitions, 1 / 3)

    def test_more_clusters_than_points(self):
        seqs = [np.array([[0.0, 0.0], [1.0, 1.0]])]
        model = init_model(seqs, 3, 2, seed=1)  # 6 clusters, 2 points
        model.validate()

    def test_kmeans_update_matches_cluster_loop(self):
        # the bincount/add.at Lloyd update gives the per-cluster loop's centroids
        # and assignments bit for bit, with constant columns, duplicate points,
        # empty clusters and fewer points than clusters. (Frames of one
        # dimension are left out: numpy sums a 1-D mean pairwise, not in order.)
        rng = np.random.default_rng(28)
        for trial in range(25):
            k = int(rng.integers(1, 60))
            n = int(rng.integers(1, k + 1)) if trial % 6 == 0 else int(rng.integers(1, 400))
            points = rng.normal(0.0, 3.0, (n, int(rng.integers(2, 20)))) * rng.uniform(0.1, 100.0)
            if trial % 4 == 0:
                points[:, 0] = 2.0
            if trial % 5 == 0:
                points = np.round(points)
            centroids, assign = _kmeans(points, k, np.random.default_rng(trial))
            want_centroids, want_assign = looped_kmeans(points, k, np.random.default_rng(trial))
            assert np.array_equal(centroids, want_centroids)
            assert np.array_equal(assign, want_assign)

    def test_seeding_sampler_is_generator_choice(self):
        # k-means++ picks with the sampler Generator.choice runs internally; if
        # a numpy release changes choice, the index or the generator's next
        # draw differs here instead of the picks drifting in silence
        rng = np.random.default_rng(41)
        kinds = set()
        for trial in range(1200):
            kind = trial % 4
            n = {0: 1, 1: 2000}.get(kind, int(rng.integers(1, 2001)))
            weights = rng.exponential(1.0, n) ** 2
            if kind == 2:    # zero entries
                weights[rng.random(n) < 0.6] = 0.0
            elif kind == 3:  # a single non-zero entry
                weights[:] = 0.0
            if not weights.any():
                weights[rng.integers(n)] = rng.uniform(1e-3, 1e3)
            kinds.add(("n=1" if n == 1 else "n=2000" if n == 2000 else "other",
                       int(np.count_nonzero(weights == 0.0) > 0),
                       int(np.count_nonzero(weights) == 1)))
            p = weights / weights.sum()
            ours, numpys = np.random.default_rng(trial), np.random.default_rng(trial)
            assert hmm._choice_index(ours, p) == int(numpys.choice(n, p=p))
            assert ours.random() == numpys.random()
        assert {("n=1", 0, 1), ("n=2000", 0, 0), ("other", 1, 0), ("other", 1, 1)} <= kinds

    def test_init_model_matches_masked_oracle(self):
        # members read as slices of the frames sorted stably by cluster give
        # the model that one boolean mask per cluster gives, byte for byte
        rng = np.random.default_rng(42)
        shapes = set()
        for trial in range(40):
            n_states, n_mixtures = int(rng.integers(1, 10)), int(rng.integers(1, 11))
            k = n_states * n_mixtures
            d = int(rng.integers(2, 17))
            n_frames = int(rng.integers(1, k)) if trial % 5 == 0 and k > 1 else int(
                rng.integers(k, 600)
            )
            points = rng.normal(0.0, 2.0, (n_frames, d)) * rng.uniform(0.1, 50.0)
            if trial % 3 == 0:
                points[:, int(rng.integers(d))] = 7.5
                shapes.add("constant column")
            if trial % 4 == 1:  # duplicate points, a few distinct rows
                points = points[rng.integers(0, max(1, n_frames // 8), n_frames)]
                shapes.add("duplicate points")
            if n_frames < k:
                shapes.add("fewer frames than states x mixtures")
            _, assign = looped_kmeans(points, k, np.random.default_rng(trial))
            if np.bincount(assign, minlength=k).min() == 0:
                shapes.add("empty cluster")
            cuts = np.sort(rng.integers(0, n_frames + 1, int(rng.integers(0, 5))))
            sequences = [s for s in np.split(points, cuts) if len(s)]
            got = model_to_text(init_model(sequences, n_states, n_mixtures, seed=trial))
            assert got == model_to_text(looped_init_model(sequences, n_states, n_mixtures, trial))
        assert shapes == {"constant column", "duplicate points", "empty cluster",
                          "fewer frames than states x mixtures"}

    def test_kmeans_peak_is_one_distance_table(self):
        # one (n, k) distance table per call, refilled in place by every step
        points = np.random.default_rng(44).normal(0.0, 3.0, (2000, 16))
        table = 2000 * 90 * 8
        peak = traced_peak(lambda: _kmeans(points, 90, np.random.default_rng(1)))
        assert peak <= 1.5 * table

    def test_errors(self):
        with pytest.raises(TrainingError):
            init_model([], 2, 1)
        with pytest.raises(TrainingError):
            init_model([np.zeros((3, 2)), np.zeros((3, 3))], 2, 1)
        with pytest.raises(TrainingError):
            init_model([np.array([[np.inf, 0.0]])], 1, 1)


class TestBaumWelch:
    def test_loglik_non_decreasing(self):
        rng = np.random.default_rng(13)
        seqs = two_state_sequences(rng)
        model = init_model(seqs, 2, 2, seed=3)
        result = baum_welch_train(model, seqs, max_iterations=20, tolerance=0.0)
        diffs = np.diff(result.log_likelihoods)
        assert np.all(diffs >= -1e-6)
        assert result.log_likelihoods[-1] > result.log_likelihoods[0]

    def test_converged_flag_and_early_stop(self):
        rng = np.random.default_rng(14)
        seqs = two_state_sequences(rng)
        model = init_model(seqs, 2, 1, seed=3)
        result = baum_welch_train(model, seqs, max_iterations=40, tolerance=1e-3)
        assert result.converged
        assert len(result.log_likelihoods) < 40

    def test_iteration_cap_returns_unscored_model(self):
        # stopped by max_iterations, the run re-estimates once more after its
        # last recorded log-likelihood, so the returned model was never scored
        rng = np.random.default_rng(16)
        seqs = two_state_sequences(rng)
        model = init_model(seqs, 2, 2, seed=3)
        result = baum_welch_train(model, seqs, max_iterations=3, tolerance=0.0)
        assert result.converged is False
        assert len(result.log_likelihoods) == 3
        returned = sum(log_forward(result.model, s)[0] for s in seqs)
        assert returned > result.log_likelihoods[-1]

    def test_model_stays_valid_each_iteration(self):
        rng = np.random.default_rng(15)
        seqs = two_state_sequences(rng, n_sequences=6, length=20)
        model = init_model(seqs, 2, 2, seed=4)
        seen = []

        def check(iteration, ll, current):
            current.validate()
            seen.append(iteration)

        baum_welch_train(model, seqs, max_iterations=8, tolerance=0.0, on_iteration=check)
        assert seen == list(range(8))

    def test_recovers_separated_means(self):
        rng = np.random.default_rng(16)
        seqs = two_state_sequences(rng, n_sequences=20, length=40, gap=8.0)
        model = init_model(seqs, 2, 1, seed=5)
        result = baum_welch_train(model, seqs, max_iterations=25)
        centers = sorted(float(s.means[0, 0]) for s in result.model.states)
        assert centers[0] == pytest.approx(-4.0, abs=0.5)
        assert centers[1] == pytest.approx(4.0, abs=0.5)

    def test_variance_floor_enforced(self):
        # a constant dimension would collapse variance to zero without a floor
        rng = np.random.default_rng(17)
        seqs = [np.column_stack([rng.standard_normal(25), np.full(25, 2.0)])
                for _ in range(4)]
        model = init_model(seqs, 2, 1, seed=6)
        result = baum_welch_train(model, seqs, max_iterations=10, tolerance=0.0)
        for state in result.model.states:
            assert np.all(state.variances >= 1e-6)

    def test_one_iteration_matches_brute_force(self):
        rng = np.random.default_rng(27)
        floors = dict(variance_floor=hmm.VARIANCE_FLOOR, transition_floor=hmm.TRANSITION_FLOOR,
                      weight_floor=hmm.WEIGHT_FLOOR)
        for _ in range(10):
            n, m, d = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
            model = random_model(rng, n, m, d)
            seqs = [rng.normal(0.0, 2.0, (int(rng.integers(1, 6)), d))
                    for _ in range(int(rng.integers(2, 4)))]
            got = baum_welch_train(model, seqs, max_iterations=1).model
            want = brute_force_em_step(model, seqs, **floors)
            assert got.pi == pytest.approx(want.pi, rel=1e-9)
            assert got.transitions == pytest.approx(want.transitions, rel=1e-9)
            for a, b in zip(got.states, want.states):
                assert a.weights == pytest.approx(b.weights, rel=1e-9)
                assert a.means == pytest.approx(b.means, rel=1e-9)
                assert a.variances == pytest.approx(b.variances, rel=1e-9)

    def test_reestimate_matches_looped_m_step(self):
        # random accumulators with zero transition rows, states and components
        # with no responsibility, and every floor binding somewhere
        rng = np.random.default_rng(33)
        floors = (hmm.VARIANCE_FLOOR, hmm.TRANSITION_FLOOR, hmm.WEIGHT_FLOOR)
        met = dict.fromkeys(["zero row", "zero state", "zero component", "start floor",
                             "transition floor", "weight floor", "variance floor"], 0)

        def sparse(shape, total=1.0):
            # non-negative rows with some zero and some tiny entries
            x = rng.uniform(0.0, total, shape)
            x[rng.random(shape) < 0.2] = 0.0
            x[rng.random(shape) < 0.1] = 1e-10 * total
            return x

        for _ in range(300):
            n, m, d = (int(k) for k in rng.integers(1, [6, 5, 5]))
            n_sequences = int(rng.integers(1, 9))
            model = random_model(rng, n, m, d)
            pi_acc = sparse(n) + (np.arange(n) == rng.integers(n))  # a non-zero entry
            pi_acc *= n_sequences / pi_acc.sum()
            xi_acc = sparse((n, n), 50.0)
            xi_acc[rng.random(n) < 0.2] = 0.0
            occ = sparse((n, m), 20.0)
            occ[rng.random(n) < 0.2] = 0.0
            means = rng.normal(0.0, 3.0, (n, m, d))
            spread = np.where(rng.random((n, m, d)) < 0.2, 1e-9, rng.uniform(0.1, 2.0, (n, m, d)))
            first = occ[:, :, None] * means
            second = occ[:, :, None] * (means * means + spread)
            got = hmm._reestimate(model, pi_acc, xi_acc, occ, first, second, n_sequences)
            want = looped_reestimate(model, pi_acc, xi_acc, occ, first, second, n_sequences,
                                     *floors)
            assert model_to_text(got) == model_to_text(want)
            with np.errstate(divide="ignore", invalid="ignore"):
                variances = second / occ[:, :, None] - (first / occ[:, :, None]) ** 2
                met["zero row"] += np.any(xi_acc.sum(axis=1) == 0)
                met["zero state"] += np.any(occ.sum(axis=1) == 0)
                met["zero component"] += np.any((occ == 0) & (occ.sum(axis=1) > 0)[:, None])
                met["start floor"] += np.any(pi_acc / n_sequences < hmm.TRANSITION_FLOOR)
                met["transition floor"] += np.any(
                    xi_acc / xi_acc.sum(axis=1, keepdims=True) < hmm.TRANSITION_FLOOR)
                met["weight floor"] += np.any(occ / occ.sum(axis=1, keepdims=True) < hmm.WEIGHT_FLOOR)
                met["variance floor"] += np.any(
                    (variances < hmm.VARIANCE_FLOOR) & (occ > 0)[:, :, None])
        assert all(met.values()), met

    @pytest.mark.parametrize("group_cells", [None, 64])
    def test_batched_e_step_matches_per_sequence_loop(self, group_cells, monkeypatch):
        # ragged sequences of 1-30 frames, half the models with zero transitions,
        # in one EM group or (64 cells) mostly one sequence per group; the last
        # two models have 9 states, as the paper's acoustic models do, and 24
        # sequences, enough frames that no component starves
        if group_cells is not None:
            monkeypatch.setattr(hmm, "_GROUP_CELLS", group_cells)
        rng = np.random.default_rng(29)
        floors = dict(variance_floor=hmm.VARIANCE_FLOOR, transition_floor=hmm.TRANSITION_FLOOR,
                      weight_floor=hmm.WEIGHT_FLOOR)
        cases = []
        for trial in range(14):
            n, m, d = (int(k) for k in rng.integers(1, 5, size=3))
            if trial >= 12:
                n = 9
            model = random_model(rng, n, m, d)
            if trial % 2:
                upper = np.triu(model.transitions)
                model.transitions = upper / upper.sum(axis=1, keepdims=True)
            lengths = rng.integers(1, 31, size=24 if trial >= 12 else int(rng.integers(1, 25)))
            cases.append((model, [rng.normal(0.0, 2.0, (int(t), d)) for t in lengths]))
        seqs = two_state_sequences(rng, n_sequences=6, length=20)
        cases.append((init_model(seqs, 2, 2, seed=4), seqs))
        for model, seqs in cases:
            got = baum_welch_train(model, seqs, max_iterations=3, tolerance=0.0)
            want, history = per_sequence_baum_welch(model, seqs, 3, 0.0, **floors)
            assert got.log_likelihoods[0] == history[0]
            assert got.log_likelihoods == pytest.approx(history, rel=1e-12, abs=0)
            for a, b in zip(parameter_vectors(got.model), parameter_vectors(want)):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_non_finite_sequence_named(self):
        # a frame at 1e200 has zero density under every state: the error names
        # that sequence's index and length and the iteration
        rng = np.random.default_rng(30)
        model = random_model(rng, 2, 2, 3)
        seqs = [rng.standard_normal((5, 3)), rng.standard_normal((7, 3)), rng.standard_normal((4, 3))]
        seqs[1][3, 0] = 1e200
        message = r"^sequence 1: non-finite log-likelihood -inf \(length 7\) at iteration 0$"
        with np.errstate(over="ignore"), pytest.raises(TrainingError, match=message):
            baum_welch_train(model, seqs, max_iterations=2)

    def test_no_sequences_rejected(self):
        model = random_model(np.random.default_rng(18), 2, 1, 2)
        with pytest.raises(TrainingError):
            baum_welch_train(model, [])

    def test_training_improves_fit_on_unseen_data(self):
        rng = np.random.default_rng(19)
        train = two_state_sequences(rng, n_sequences=15)
        test = two_state_sequences(rng, n_sequences=5)
        init = init_model(train, 2, 2, seed=7)
        trained = baum_welch_train(init, train, max_iterations=15).model
        before = sum(log_forward(init, s)[0] for s in test)
        after = sum(log_forward(trained, s)[0] for s in test)
        assert after > before


class TestBatchGroups:
    """Training and scoring group whole items into runs by one rule: U items
    cost U * max over streams of (longest rows * cells per row), within
    hmm._GROUP_CELLS = 2**18."""

    @staticmethod
    def sizes(items, rows, row_cells):
        return [len(run) for run in batch_groups(items, rows, row_cells)]

    def test_run_that_exactly_fills_the_budget_is_one_group(self):
        # 4 items * 65,536 rows * 1 cell = 2**18
        assert hmm._GROUP_CELLS == 1 << 18
        assert self.sizes([1 << 16] * 4, lambda t: (t,), (1,)) == [4]
        assert self.sizes([1 << 10] * 33, lambda t: (t,), (16,)) == [16, 16, 1]

    def test_run_that_overflows_by_one_cell_splits(self):
        # 5 items * 52,429 rows = 2**18 + 1; the fifth starts a new run
        assert 5 * 52_429 == (1 << 18) + 1
        assert self.sizes([52_429] * 5, lambda t: (t,), (1,)) == [4, 1]

    def test_longest_item_sets_every_items_cost(self):
        # 3 items of 10 rows fit; a 100,000-row fourth would make all four cost 100,000
        assert self.sizes([10, 10, 10, 100_000, 10], lambda t: (t,), (1,)) == [3, 2]

    def test_costliest_stream_sets_the_run(self):
        # (acoustic, prosodic) rows of (5, 100) at (10, 1000) cells per row: the
        # acoustic stream alone would fit every item, the prosodic one fits two
        items = [(5, 100)] * 5
        assert self.sizes(items, lambda item: item, (10, 1000)) == [2, 2, 1]
        assert self.sizes(items, lambda item: item[:1], (10,)) == [5]

    def test_item_over_budget_is_a_group_of_its_own(self):
        runs = list(batch_groups([10, 300_000, 10, 10], lambda t: (t,), (1,)))
        assert runs == [[10], [300_000], [10, 10]]
        assert list(batch_groups([], lambda t: (t,), (1,))) == []

    def test_items_are_read_one_run_at_a_time(self):
        read = []

        def items():
            for t in [1 << 17] * 5:
                read.append(t)
                yield t

        runs = batch_groups(items(), lambda t: (t,), (1,))
        assert next(runs) == [1 << 17] * 2
        assert len(read) == 3  # the item that closed the run, and no more


class TestEmWorkingSet:
    """EM runs over groups of whole sequences that fit a fixed budget, so its
    memory does not grow with the number of training sequences."""

    def test_peak_does_not_grow_with_sequences(self):
        rng = np.random.default_rng(31)
        n, m, d = 16, 16, 16
        model = random_model(rng, n, m, d)
        # long enough that two sequences overflow one EM group
        length = hmm._GROUP_CELLS // (2 * (n * (m + n) + d)) + 1
        seqs = [rng.normal(0.0, 2.0, (length, d)) for _ in range(30)]
        few = traced_peak(lambda: baum_welch_train(model, seqs[:3], max_iterations=1))
        many = traced_peak(lambda: baum_welch_train(model, seqs, max_iterations=1))
        assert many <= 1.1 * few


class TestDependencies:
    def test_package_import_loads_no_scipy(self):
        code = (
            "import importlib, pkgutil, sys, emospeaker\n"
            "for info in pkgutil.iter_modules(emospeaker.__path__):\n"
            "    importlib.import_module('emospeaker.' + info.name)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        src = str(Path(emospeaker.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestSerialization:
    def test_round_trip_is_exact(self):
        model = random_model(np.random.default_rng(20), 3, 2, 4)
        restored = model_from_text(model_to_text(model))
        assert np.array_equal(restored.pi, model.pi)
        assert np.array_equal(restored.transitions, model.transitions)
        for a, b in zip(restored.states, model.states):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.means, b.means)
            assert np.array_equal(a.variances, b.variances)

    def test_score_drift_zero(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, 3, 2, 4)
        obs = rng.standard_normal((30, 4))
        restored = model_from_text(model_to_text(model))
        assert log_forward(restored, obs)[0] == log_forward(model, obs)[0]

    def test_file_round_trip(self, tmp_path):
        model = random_model(np.random.default_rng(22), 2, 2, 3)
        path = tmp_path / "m.model"
        path.write_text(model_to_text(model), encoding="utf-8")
        restored = model_from_text(path.read_text(encoding="utf-8"))
        assert model_to_text(restored) == model_to_text(model)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda lines: ["WRONG 1"] + lines[1:],
            lambda lines: lines[:3],  # truncated
            lambda lines: lines + ["junk trailing line"],
            lambda lines: [lines[0], lines[1].replace("dim 3", "dim 4")] + lines[2:],
            lambda lines: [lines[0], lines[1].replace("mixtures 1", "mixtures -1")] + lines[2:],
            lambda lines: [lines[0], lines[1].replace("states 2", "states 0")] + lines[2:],
        ],
    )
    def test_corrupt_text_rejected(self, mutate):
        model = random_model(np.random.default_rng(23), 2, 1, 3)
        lines = model_to_text(model).splitlines()
        bad = "\n".join(mutate(lines))
        with pytest.raises(ModelFormatError):
            model_from_text(bad)

    def test_non_numeric_rejected(self):
        model = random_model(np.random.default_rng(24), 2, 1, 2)
        text = model_to_text(model).replace("pi ", "pi abc ", 1)
        with pytest.raises(ModelFormatError):
            model_from_text(text)
