"""Independent reference implementations the fast code is checked against.

Everything here trades speed for obviousness: explicit loops, probability
domain where it cannot underflow, scipy's log-sum-exp where it can, no shared
code with the package internals.
"""

import itertools
import math

import numpy as np
from scipy.special import logsumexp

from emospeaker.hmm import GaussianMixture, HmmModel


def component_densities(state: GaussianMixture, x) -> list[float]:
    """Plain probability-domain w_m * N(x; mu_m, var_m), one per component."""
    densities = []
    for m in range(state.n_components):
        component = 1.0
        for d in range(state.dim):
            var = state.variances[m, d]
            diff = x[d] - state.means[m, d]
            component *= math.exp(-0.5 * diff * diff / var) / math.sqrt(2.0 * math.pi * var)
        densities.append(state.weights[m] * component)
    return densities


def mixture_density(state: GaussianMixture, x) -> float:
    """Plain probability-domain diagonal-Gaussian mixture density."""
    return sum(component_densities(state, x))


def brute_force_log_likelihood(model: HmmModel, obs) -> float:
    """Sum P(path) * P(obs | path) over every state path, then log."""
    obs = np.atleast_2d(obs)
    total = 0.0
    for path in itertools.product(range(model.n_states), repeat=len(obs)):
        p = model.pi[path[0]]
        for t in range(1, len(obs)):
            p *= model.transitions[path[t - 1], path[t]]
        for t, j in enumerate(path):
            p *= mixture_density(model.states[j], obs[t])
        total += p
    return math.log(total)


def brute_force_viterbi(model: HmmModel, obs):
    """Best path by exhaustive enumeration: (path tuple, log joint prob)."""
    obs = np.atleast_2d(obs)
    best_path, best_log = None, -math.inf
    for path in itertools.product(range(model.n_states), repeat=len(obs)):
        p = model.pi[path[0]]
        for t in range(1, len(obs)):
            p *= model.transitions[path[t - 1], path[t]]
        for t, j in enumerate(path):
            p *= mixture_density(model.states[j], obs[t])
        if p > 0 and math.log(p) > best_log:
            best_path, best_log = path, math.log(p)
    return best_path, best_log


def log_mixture_density(state: GaussianMixture, x) -> float:
    """Log of :func:`mixture_density`, summed per component in the log domain."""
    components = []
    for m in range(state.n_components):
        log_component = math.log(state.weights[m]) if state.weights[m] > 0 else -math.inf
        for d in range(state.dim):
            var = state.variances[m, d]
            diff = x[d] - state.means[m, d]
            log_component += -0.5 * (diff * diff / var + math.log(2.0 * math.pi * var))
        components.append(log_component)
    return float(logsumexp(components))


def _log_model_terms(model: HmmModel, obs):
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    with np.errstate(divide="ignore"):
        log_pi, log_a = np.log(model.pi), np.log(model.transitions)
    log_b = np.array([[log_mixture_density(s, x) for s in model.states] for x in obs])
    return log_pi, log_a, log_b


def log_domain_forward(model: HmmModel, obs):
    """Per-frame log-domain forward recursion: (log P(obs), log alpha (T, N)).

    The long-sequence oracle: exact where probability-domain enumeration
    underflows, and -inf only for states no allowed path reaches.
    """
    log_pi, log_a, log_b = _log_model_terms(model, obs)
    log_alpha = np.empty_like(log_b)
    log_alpha[0] = log_pi + log_b[0]
    for t in range(1, len(log_b)):
        for j in range(model.n_states):
            log_alpha[t, j] = logsumexp(log_alpha[t - 1] + log_a[:, j]) + log_b[t, j]
    return float(logsumexp(log_alpha[-1])), log_alpha


def log_domain_backward(model: HmmModel, obs):
    """Per-frame log-domain backward recursion: log beta (T, N)."""
    _, log_a, log_b = _log_model_terms(model, obs)
    log_beta = np.zeros_like(log_b)
    for t in range(len(log_b) - 2, -1, -1):
        for i in range(model.n_states):
            log_beta[t, i] = logsumexp(log_a[i] + log_b[t + 1] + log_beta[t + 1])
    return log_beta


def _floored(p, floor):
    """Raise entries below ``floor`` and renormalize; untouched when none is below."""
    p = np.asarray(p, dtype=float)
    if all(v >= floor for v in p):
        return p
    p = np.array([max(v, floor) for v in p])
    return p / p.sum()


def brute_force_em_step(
    model: HmmModel, sequences, variance_floor, transition_floor, weight_floor
) -> HmmModel:
    """One Baum-Welch re-estimation from exact posteriors by path enumeration.

    gamma_t(j), xi_t(i, j) and the component responsibilities
    gamma_t(j, m) = gamma_t(j) w_jm N_jm(x_t) / b_j(x_t) are sums of joint path
    probabilities over every state path, divided by P(obs). Parameters that
    receive no responsibility keep their old values.
    """
    n, m, d = model.n_states, model.n_mixtures, model.dim
    pi_acc = np.zeros(n)
    xi_acc = np.zeros((n, n))
    occ = np.zeros((n, m))
    first = np.zeros((n, m, d))
    frames = []  # (x_t, responsibilities (n, m)) over every sequence

    for obs in sequences:
        obs = np.atleast_2d(obs)
        length = len(obs)
        comp = np.array([[component_densities(s, x) for s in model.states] for x in obs])  # (T, n, m)
        dens = comp.sum(axis=2)  # (T, n)
        gamma = np.zeros((length, n))
        xi = np.zeros((n, n))
        total = 0.0
        for path in itertools.product(range(n), repeat=length):
            p = model.pi[path[0]] * dens[0, path[0]]
            for t in range(1, length):
                p *= model.transitions[path[t - 1], path[t]] * dens[t, path[t]]
            total += p
            for t, j in enumerate(path):
                gamma[t, j] += p
            for t in range(length - 1):
                xi[path[t], path[t + 1]] += p
        gamma /= total
        pi_acc += gamma[0]
        xi_acc += xi / total
        for t in range(length):
            resp = gamma[t][:, None] * comp[t] / dens[t][:, None]
            occ += resp
            first += resp[:, :, None] * obs[t]
            frames.append((obs[t], resp))

    pi = _floored(pi_acc / len(sequences), transition_floor)
    transitions = model.transitions.copy()
    for i in range(n):
        if xi_acc[i].sum() > 0:
            transitions[i] = _floored(xi_acc[i] / xi_acc[i].sum(), transition_floor)
    states = []
    for j, old in enumerate(model.states):
        weights, means, variances = old.weights.copy(), old.means.copy(), old.variances.copy()
        if occ[j].sum() > 0:
            weights = _floored(occ[j] / occ[j].sum(), weight_floor)
            for k in range(m):
                if occ[j, k] > 0:
                    mu = first[j, k] / occ[j, k]
                    spread = sum(r[j, k] * (x - mu) ** 2 for x, r in frames) / occ[j, k]
                    means[k] = mu
                    variances[k] = np.maximum(spread, variance_floor)
        states.append(GaussianMixture(weights=weights, means=means, variances=variances))
    return HmmModel(pi=pi, transitions=transitions, states=states)


def random_model(rng: np.random.Generator, n_states: int, n_mixtures: int, dim: int) -> HmmModel:
    """Fully random valid model: Dirichlet distributions, spread-out means."""
    states = []
    for _ in range(n_states):
        states.append(
            GaussianMixture(
                weights=rng.dirichlet(np.ones(n_mixtures)),
                means=rng.normal(0.0, 2.0, (n_mixtures, dim)),
                variances=rng.uniform(0.2, 2.0, (n_mixtures, dim)),
            )
        )
    model = HmmModel(
        pi=rng.dirichlet(np.ones(n_states)),
        transitions=np.stack([rng.dirichlet(np.ones(n_states)) for _ in range(n_states)]),
        states=states,
    )
    model.validate()
    return model


def naive_frame_slices(signal, frame_length: int, hop: int):
    """Framing by explicit slicing, the obvious way."""
    frames = []
    start = 0
    while start + frame_length <= len(signal):
        frames.append(np.asarray(signal[start : start + frame_length], dtype=float))
        start += hop
    return frames


def direct_band_power(power_row, lo: int, hi: int) -> float:
    """Sum of spectral power over inclusive bin range, plain loop."""
    total = 0.0
    for b in range(lo, hi + 1):
        total += float(power_row[b])
    return total
