"""Independent reference implementations the fast code is checked against.

Everything here trades speed for obviousness: explicit loops, probability
domain where it cannot underflow, scipy's log-sum-exp where it can, no shared
code with the package internals. The recursions' order oracles,
``in_order_forward`` and ``in_order_backward``, add each step's states one
explicit add at a time, in order, in plain numpy, so that the package's one
step function is pinned bit for bit from both sides by code that does not
call it. The exceptions are ``log_emissions``, the package's emission kernel
and mixture sum on one model's blocked frames, which ``log_backward`` takes
its emissions from, and the one-sequence-at-a-time EM oracle, which builds on
them and on ``log_forward``; the other oracles check all of these. Models are built from
their parameter arrays; the oracles read a state's mixture through
``HmmModel.states``.
"""

import itertools
import math
import tracemalloc

import numpy as np
from scipy.special import logsumexp

from emospeaker import hmm
from emospeaker.hmm import GaussianMixture, HmmModel, HmmStack, log_forward
from emospeaker.prosody import lag_bounds


def log_emissions(model: HmmModel, obs) -> np.ndarray:
    """The package's state log densities of frames under one model: (T, N)."""
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    terms = HmmStack([model]).emissions
    return hmm._mixtures(terms.block_log_pdf(hmm._blocked(obs)))[:, : len(obs)].T


def _in_order_step(ahead, log_a) -> np.ndarray:
    """log sum_k exp(ahead[k] + log_a[k]) over k, one explicit add per k, in order.

    ``ahead`` (N, ...) and ``log_a`` (N, N, ...) hold k on their leading
    axis. The shift is the maximum over k, raised to at least the lowest
    float, so an all -inf sum is -inf.
    """
    terms = [ahead[k] + log_a[k] for k in range(len(log_a))]
    peak = terms[0]
    for term in terms[1:]:
        peak = np.maximum(peak, term)
    peak = np.maximum(peak, np.finfo(np.float64).min)
    total = np.exp(terms[0] - peak)
    for term in terms[1:]:
        total = total + np.exp(term - peak)
    with np.errstate(divide="ignore"):
        return np.log(total) + peak


def in_order_forward(log_pi, log_a, log_b) -> np.ndarray:
    """log alpha (T, N, ...) with each step's source states i added one at a time, in order.

    log_pi (N, ...), log_a (N, N, ...) from-state first and log_b (T, N, ...)
    as ``hmm._forward`` takes them; every frame of log_b is read as data.
    """
    log_alpha = np.empty_like(log_b)
    log_alpha[0] = log_pi + log_b[0]
    for t in range(1, len(log_b)):
        log_alpha[t] = _in_order_step(log_alpha[t - 1], log_a) + log_b[t]
    return log_alpha


def in_order_backward(log_a, log_b, lengths) -> np.ndarray:
    """log beta (T, N, ...) with each step's next states j added one at a time, in order.

    log_a (N, N, ...) and log_b (T, N, ...) as ``hmm._backward`` takes them.
    Each sequence's beta is 0 from its last frame (``lengths`` broadcast
    against the batch axes) onward.
    """
    log_beta = np.zeros_like(log_b)
    last = np.asarray(lengths) - 1
    into = np.swapaxes(log_a, 0, 1)  # next state j first: into[j] holds log a_ij over i
    for t in range(len(log_b) - 2, -1, -1):
        total = _in_order_step(log_b[t + 1] + log_beta[t + 1], into)
        log_beta[t] = np.where(t < last, total, 0.0)
    return log_beta


def log_backward(model: HmmModel, obs) -> np.ndarray:
    """The in-order backward recursion on one sequence, no batch axes: log beta (T, N)."""
    with np.errstate(divide="ignore"):
        log_a = np.log(model.transitions)
    return in_order_backward(log_a, log_emissions(model, obs), len(obs))


def component_densities(state: GaussianMixture, x) -> list[float]:
    """Plain probability-domain w_m * N(x; mu_m, var_m), one per component."""
    densities = []
    for m in range(len(state.weights)):
        component = 1.0
        for d in range(len(x)):
            var = state.variances[m, d]
            diff = x[d] - state.means[m, d]
            component *= math.exp(-0.5 * diff * diff / var) / math.sqrt(2.0 * math.pi * var)
        densities.append(state.weights[m] * component)
    return densities


def direct_component_log_pdf(state: GaussianMixture, obs) -> np.ndarray:
    """log(w_m * N(x_t; mu_m, var_m)) from the quadratic form sum_d (x - mu)^2 / var: (T, M).

    The direct formula, with a (T, M, D) temporary, that the package's
    expanded, centred emission kernel replaces.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    diff = obs[:, None, :] - state.means[None, :, :]
    quad = np.sum(diff * diff / state.variances[None, :, :], axis=2)
    log_norm = -0.5 * (obs.shape[1] * math.log(2.0 * math.pi) + np.sum(np.log(state.variances), axis=1))
    with np.errstate(divide="ignore"):
        log_w = np.log(state.weights)
    return log_w[None, :] + log_norm[None, :] - 0.5 * quad


def looped_mixtures(comp_log) -> np.ndarray:
    """Mixture log densities (S, K * B) from component ones (S, K, M, B), with no exp floor.

    The mixture arithmetic the package's floored, mixture-major form
    replaces: the exact maximum over M with -inf raised to the lowest float,
    exp of every shifted term as it is, subnormal or 0, and the M rows added
    one at a time, in order.
    """
    comp_log = np.asarray(comp_log, dtype=np.float64)
    peak = np.maximum(comp_log.max(axis=2), np.finfo(np.float64).min)
    total = np.exp(comp_log[:, :, 0] - peak)
    for row in range(1, comp_log.shape[2]):
        total = total + np.exp(comp_log[:, :, row] - peak)
    with np.errstate(divide="ignore"):
        return (np.log(total) + peak).reshape(len(total), -1)


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


def log_mixture_density(state: GaussianMixture, x) -> float:
    """Log of :func:`mixture_density`, summed per component in the log domain."""
    components = []
    for m in range(len(state.weights)):
        log_component = math.log(state.weights[m]) if state.weights[m] > 0 else -math.inf
        for d in range(len(x)):
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


def scaled_forward(model: HmmModel, obs) -> float:
    """log P(obs | model) by the probability-domain forward recursion with scaling.

    Rabiner (1989), section V-A, in explicit loops: each frame's state
    densities come from ``direct_component_log_pdf`` and are scaled by their
    largest value, alpha is renormalised to sum to one after every frame, and
    log P is the sum of the log scale factors and shifts. It shares no code
    with the package's recursions or emission kernel; the benchmark's
    referee computes the same quantity the same way.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    n = model.n_states
    log_b = np.empty((len(obs), n))
    for j, state in enumerate(model.states):
        components = direct_component_log_pdf(state, obs)
        for t in range(len(obs)):
            peak = components[t].max()
            log_b[t, j] = peak + math.log(math.fsum(math.exp(c - peak) for c in components[t]))
    log_p, alpha = 0.0, None
    for t in range(len(obs)):
        shift = log_b[t].max()
        b = [math.exp(log_b[t, j] - shift) for j in range(n)]
        if alpha is None:
            alpha = [model.pi[j] * b[j] for j in range(n)]
        else:
            alpha = [
                sum(alpha[i] * model.transitions[i, j] for i in range(n)) * b[j] for j in range(n)
            ]
        scale = sum(alpha)
        alpha = [a / scale for a in alpha]
        log_p += math.log(scale) + shift
    return log_p


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
    weights, means, variances = model.weights.copy(), model.means.copy(), model.variances.copy()
    for j in range(n):
        if occ[j].sum() > 0:
            weights[j] = _floored(occ[j] / occ[j].sum(), weight_floor)
            for k in range(m):
                if occ[j, k] > 0:
                    mu = first[j, k] / occ[j, k]
                    spread = sum(r[j, k] * (x - mu) ** 2 for x, r in frames) / occ[j, k]
                    means[j, k] = mu
                    variances[j, k] = np.maximum(spread, variance_floor)
    return HmmModel(pi, transitions, weights, means, variances)


def per_sequence_baum_welch(
    model: HmmModel, sequences, max_iterations, tolerance, variance_floor, transition_floor,
    weight_floor,
):
    """Multi-sequence EM that visits one sequence at a time: (model, history).

    Each sequence's posteriors come from the unbatched ``log_forward`` and
    ``log_backward``; its accumulators are added in sequence order, and the
    stopping rule and re-estimation are those of ``baum_welch_train``.
    """
    n, m, d = model.n_states, model.n_mixtures, model.dim
    history = []
    for _ in range(max_iterations):
        with np.errstate(divide="ignore"):
            log_a = np.log(model.transitions)
        pi_acc, xi_acc = np.zeros(n), np.zeros((n, n))
        occ, first, second = np.zeros((n, m)), np.zeros((n, m, d)), np.zeros((n, m, d))
        total = 0.0
        for obs in sequences:
            comp_log = np.stack([s.component_log_pdf(obs) for s in model.states], axis=1)
            log_b = log_emissions(model, obs)
            ll, log_alpha = log_forward(model, obs)
            log_beta = log_backward(model, obs)
            total += ll
            log_gamma = log_alpha + log_beta - ll
            pi_acc += np.exp(log_gamma[0])
            for t in range(len(obs) - 1):
                xi_acc += np.exp(
                    log_alpha[t][:, None] + log_a + (log_b[t + 1] + log_beta[t + 1])[None, :] - ll
                )
            for t, x in enumerate(obs):
                resp = np.exp(log_gamma[t][:, None] + comp_log[t] - log_b[t][:, None])
                occ += resp
                first += resp[:, :, None] * x
                second += resp[:, :, None] * (x * x)
        history.append(total)
        if len(history) >= 2 and total - history[-2] < tolerance * max(1.0, abs(history[-2])):
            break
        model = looped_reestimate(
            model, pi_acc, xi_acc, occ, first, second, len(sequences),
            variance_floor, transition_floor, weight_floor,
        )
    return model, history


def looped_reestimate(
    model: HmmModel, pi_acc, xi_acc, occ, first, second, n_sequences, variance_floor,
    transition_floor, weight_floor,
) -> HmmModel:
    """The Baum-Welch M-step one transition row, state and component at a time.

    ``occ`` (N, M) holds component occupancies and ``first`` and ``second``
    (N, M, D) their first and second moments. A row, state or component with
    no responsibility keeps its old parameters.
    """
    n, m = model.n_states, model.n_mixtures
    pi = _floored(pi_acc / n_sequences, transition_floor)
    transitions = model.transitions.copy()
    for i in range(n):
        if xi_acc[i].sum() > 0:
            transitions[i] = _floored(xi_acc[i] / xi_acc[i].sum(), transition_floor)
    weights, means, variances = model.weights.copy(), model.means.copy(), model.variances.copy()
    for j in range(n):
        if occ[j].sum() > 0:
            weights[j] = _floored(occ[j] / occ[j].sum(), weight_floor)
            for k in range(m):
                if occ[j, k] > 0:
                    means[j, k] = first[j, k] / occ[j, k]
                    variances[j, k] = np.maximum(
                        second[j, k] / occ[j, k] - means[j, k] * means[j, k], variance_floor
                    )
    return HmmModel(pi, transitions, weights, means, variances)


def _sq_dist(points, centroids):
    d2 = (
        np.sum(points * points, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids * centroids, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def looped_kmeans(points, k, rng, n_iter=10):
    """Seeded k-means whose Lloyd update loops over clusters: (centroids, assignments).

    The seeding and distances repeat ``hmm._kmeans`` draw for draw. A cluster
    moves to the mean of its points; an empty one to the point that fits its
    own cluster worst.
    """
    n = len(points)
    if n >= k:
        centroids = np.empty((k, points.shape[1]))
        centroids[0] = points[rng.integers(n)]
        min_d2 = _sq_dist(points, centroids[:1])[:, 0]
        for j in range(1, k):
            total = min_d2.sum()
            idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=min_d2 / total))
            centroids[j] = points[idx]
            min_d2 = np.minimum(min_d2, _sq_dist(points, centroids[j : j + 1])[:, 0])
    else:
        spread = points.std(axis=0) + 1e-6
        centroids = points[np.arange(k) % n] + 1e-3 * spread * rng.standard_normal(
            (k, points.shape[1])
        )
    for _ in range(n_iter):
        d2 = _sq_dist(points, centroids)
        assign = np.argmin(d2, axis=1)
        new_centroids = centroids.copy()
        for j in range(k):
            mask = assign == j
            if mask.any():
                new_centroids[j] = points[mask].mean(axis=0)
            else:
                new_centroids[j] = points[np.argmax(d2[np.arange(n), assign])]
        if np.array_equal(new_centroids, centroids):
            break
        centroids = new_centroids
    return centroids, np.argmin(_sq_dist(points, centroids), axis=1)


def looped_init_model(sequences, n_states: int, n_mixtures: int, seed: int = 0) -> HmmModel:
    """``hmm.init_model`` from ``looped_kmeans`` and one boolean mask per cluster.

    Clusters ordered by centroid coordinate sum are dealt to states in
    blocks. A cluster's weight is its share of its state's frames, and its
    variances are those of its members, or of all frames when it has fewer
    than two. Start and transition distributions are uniform.
    """
    points = np.concatenate([np.atleast_2d(np.asarray(s, dtype=float)) for s in sequences])
    centroids, assign = looped_kmeans(points, n_states * n_mixtures, np.random.default_rng(seed))
    order = np.argsort(centroids.sum(axis=1), kind="stable")
    global_var = np.maximum(points.var(axis=0), hmm.VARIANCE_FLOOR)
    weights = np.empty((n_states, n_mixtures))
    variances = np.empty((n_states, n_mixtures, points.shape[1]))
    for j in range(n_states):
        cluster_ids = order[j * n_mixtures : (j + 1) * n_mixtures]
        counts = np.array([(assign == c).sum() for c in cluster_ids], dtype=float)
        if counts.sum() > 0:
            weights[j] = _floored(counts / counts.sum(), hmm.WEIGHT_FLOOR)
        else:
            weights[j] = np.full(n_mixtures, 1.0 / n_mixtures)
        for k, c in enumerate(cluster_ids):
            mask = assign == c
            if mask.sum() >= 2:
                variances[j, k] = np.maximum(points[mask].var(axis=0), hmm.VARIANCE_FLOOR)
            else:
                variances[j, k] = global_var
    return HmmModel(
        pi=np.full(n_states, 1.0 / n_states),
        transitions=np.full((n_states, n_states), 1.0 / n_states),
        weights=weights,
        means=centroids[order].reshape(n_states, n_mixtures, -1),
        variances=variances,
    )


def traced_peak(fn) -> int:
    """Peak bytes that numpy and Python allocate while fn runs, above what was live before."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def random_model(rng: np.random.Generator, n_states: int, n_mixtures: int, dim: int) -> HmmModel:
    """Fully random valid model: Dirichlet distributions, spread-out means."""
    weights = np.empty((n_states, n_mixtures))
    means = np.empty((n_states, n_mixtures, dim))
    variances = np.empty((n_states, n_mixtures, dim))
    for j in range(n_states):  # each state's draws in turn
        weights[j] = rng.dirichlet(np.ones(n_mixtures))
        means[j] = rng.normal(0.0, 2.0, (n_mixtures, dim))
        variances[j] = rng.uniform(0.2, 2.0, (n_mixtures, dim))
    model = HmmModel(
        pi=rng.dirichlet(np.ones(n_states)),
        transitions=np.stack([rng.dirichlet(np.ones(n_states)) for _ in range(n_states)]),
        weights=weights,
        means=means,
        variances=variances,
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


def looped_scores(frame, sample_rate: int, front_end):
    """Normalized autocorrelation per lag, one np.dot per lag: (lags, scores, denominators).

    r(k) = sum_t x_t x_{t+k} over the mean-removed frame, divided by the
    square root of the energies of its two overlapping segments; 0 where
    either is silent. A frame of equal samples is mean-removed to zeros.
    """
    frame = np.asarray(frame, dtype=np.float64)
    if np.all(frame == frame[0]):
        frame = np.zeros_like(frame)
    else:
        frame = frame - frame.mean()
    n = frame.size
    lag_min, lag_max = lag_bounds(front_end, sample_rate, n)

    energy = frame * frame
    csum = np.concatenate([[0.0], np.cumsum(energy)])
    lags = np.arange(lag_min, lag_max + 1)
    corr = np.array([np.dot(frame[: n - k], frame[k:]) for k in lags])
    head = csum[n - lags] - csum[0]
    tail = csum[n] - csum[lags]
    denom = np.sqrt(head * tail)
    with np.errstate(invalid="ignore", divide="ignore"):
        score = np.where(denom > 0.0, corr / denom, 0.0)
    return lags, score, denom


def looped_decision(lags, score, sample_rate: int, voicing_threshold: float):
    """(f0, voiced) from one frame's scores: the best peak and the shortest near it."""
    best = int(np.argmax(score))
    if score[best] < voicing_threshold:
        return 0.0, False
    padded = np.concatenate([[-np.inf], score, [-np.inf]])
    is_peak = (score >= padded[:-2]) & (score >= padded[2:])
    candidates = np.flatnonzero(is_peak & (score >= 0.9 * score[best]))
    return sample_rate / float(lags[candidates[0]]), True


def looped_f0(frame, sample_rate: int, front_end):
    """(f0, voiced) for one frame by the per-lag loop."""
    lags, score, _ = looped_scores(frame, sample_rate, front_end)
    return looped_decision(lags, score, sample_rate, front_end.voicing_threshold)

