"""Tests of the benchmark's own reference computations.

Run with ``python3 -m pytest bench``. They need numpy only, not the package.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

import reference


def _random_model(rng, n_states, n_mixtures, dim):
    states = [
        SimpleNamespace(
            weights=rng.dirichlet(np.ones(n_mixtures)),
            means=rng.normal(0.0, 2.0, (n_mixtures, dim)),
            variances=rng.uniform(0.2, 2.0, (n_mixtures, dim)),
        )
        for _ in range(n_states)
    ]
    return SimpleNamespace(
        pi=rng.dirichlet(np.ones(n_states)),
        transitions=np.stack([rng.dirichlet(np.ones(n_states)) for _ in range(n_states)]),
        states=states,
    )


def _log_density(state, x):
    logs = [
        math.log(w) + sum(-0.5 * (x[d] - mean[d]) ** 2 / var[d] - 0.5 * math.log(2 * math.pi * var[d])
                          for d in range(len(x)))
        for w, mean, var in zip(state.weights, state.means, state.variances)
    ]
    top = max(logs)
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _path_sum(model, obs):
    """log of the sum over every state path of P(path) P(obs | path), in the log domain."""
    terms = []
    for path in itertools.product(range(len(model.pi)), repeat=len(obs)):
        log_p = math.log(model.pi[path[0]]) + _log_density(model.states[path[0]], obs[0])
        for t in range(1, len(obs)):
            log_p += math.log(model.transitions[path[t - 1], path[t]])
            log_p += _log_density(model.states[path[t]], obs[t])
        terms.append(log_p)
    top = max(terms)
    return top + math.log(sum(math.exp(v - top) for v in terms))


@pytest.mark.parametrize("trial", range(20))
def test_forward_matches_exhaustive_path_sum(trial):
    rng = np.random.default_rng(trial)
    n_states, n_mixtures, dim = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
    model = _random_model(rng, n_states, n_mixtures, dim)
    obs = rng.normal(0.0, 2.0, (int(rng.integers(1, 5)), dim))
    assert reference.forward_log_likelihood(model, obs) == pytest.approx(_path_sum(model, obs), rel=1e-10)


def test_forward_survives_emissions_far_below_underflow():
    rng = np.random.default_rng(7)
    model = _random_model(rng, 2, 2, 2)
    far = rng.normal(0.0, 1.0, (3, 2)) + 1e3  # every density is 0.0 in the probability domain
    log_p = reference.forward_log_likelihood(model, far)
    assert log_p < -1e4
    assert log_p == pytest.approx(_path_sum(model, far), rel=1e-12)


def test_fused_argmax_prefers_earliest_on_ties():
    assert reference.fused_argmax([(-1.0, -5.0, 0.0), (-1.0, -5.0, 0.0)], 0.5) == 0
    assert reference.fused_argmax([(-1.0, -9.0, 0.0), (-2.0, -1.0, 0.0)], 0.0) == 0
    assert reference.fused_argmax([(-1.0, -9.0, 0.0), (-2.0, -1.0, 0.0)], 1.0) == 1


def test_frame_count_formula():
    for n in (480, 481, 559, 560, 16000):
        frames = reference.frame_count(n, 480, 80)
        assert frames == (n - 480) // 80 + 1
        assert (frames - 1) * 80 + 480 <= n < frames * 80 + 480


def test_bands_tile_the_axis_and_grow_geometrically():
    bands = reference.band_bins(16000, 512, 16, 100.0, 8000.0)
    assert len(bands) == 16
    for (lo, hi, _), (next_lo, _, _) in zip(bands, bands[1:]):
        assert lo <= hi and next_lo == hi + 1
    widths = [w for _, _, w in bands]
    ratios = [b / a for a, b in zip(widths, widths[1:])]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-12)
    assert sum(widths) == pytest.approx(7900.0)


def test_lfpc_of_a_tone_peaks_in_its_band():
    rate = 16000
    t = np.arange(4000) / rate
    bands = reference.band_bins(rate, 512, 16, 100.0, 8000.0)
    for freq in (1000.0, 3000.0, 6000.0):
        rows = reference.lfpc_rows(10000.0 * np.sin(2 * np.pi * freq * t), rate)
        peak_bin = round(freq / (rate / 512))
        want = next(m for m, (lo, hi, _) in enumerate(bands) if lo <= peak_bin <= hi)
        assert rows.shape == (reference.frame_count(4000, 480, 80), 16)
        assert set(np.argmax(rows, axis=1)) == {want}


def test_lfpc_band_sums_match_a_direct_dft():
    rng = np.random.default_rng(3)
    samples = rng.normal(0.0, 1000.0, 480)
    n_fft = 512
    window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(480) / 479)
    k = np.arange(n_fft // 2 + 1)[:, None]
    n = np.arange(480)[None, :]
    dft = (samples * window * np.exp(-2j * np.pi * k * n / n_fft)).sum(axis=1)
    power = np.abs(dft) ** 2
    want = [10 * math.log10(power[lo : hi + 1].sum() / width)
            for lo, hi, width in reference.band_bins(16000, n_fft, 16, 100.0, 8000.0)]
    assert reference.lfpc_rows(samples, 16000)[0] == pytest.approx(want, abs=1e-9)
