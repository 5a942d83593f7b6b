"""Ergodic hidden Markov models with diagonal-covariance Gaussian mixture states.

All inference runs in the log domain, so likelihoods of long observation
sequences never underflow, and a state that a zero transition cuts off stays
exactly -inf however far apart the emissions are. Log-sum-exp is a private
plain-numpy max-shift (`_logsumexp`); the package needs numpy only.

Scoring and training share one emission kernel (`_StateTerms`). Each state s
is shifted by c_s, the precision-weighted mean of its component means (per
dimension, sum_m mu_m / var_m over sum_m 1 / var_m), and the quadratic form
of each diagonal component is expanded around that shift:

    log w + log N(x; mu, var) = k - sum_d (x - c_s)^2 / (2 var)
                                  + sum_d (x - c_s) (mu - c_s) / var,

with k = log w - (D log 2pi + sum_d [log var + (mu - c_s)^2 / var]) / 2
precomputed once per stack of states, along with c_s, -1/(2 var) and
(mu - c_s)/var. The rounding error of the expansion is about
eps * sum_d ((x - c_s)^2 + (mu - c_s)^2) / var: centring keeps it small where
the variances are tiny against the means, as on prosodic features at the
variance floor, and the precision weights, which minimize
sum_m (mu_m - c_s)^2 / var_m, keep a component pinned at the floor (a clipped
or constant feature) from paying for its state's broad components far away.
Two components at the floor far apart in one state would still cost about
eps * (distance / 2)^2 / var each.

The emission tables put the frames on the contiguous axis, so numpy's inner
loops run along the frames rather than along D dimensions or M components: a
slice of frames costs one centring, (states, D, frames), and two `einsum`
contractions to (states, M, frames). The mixture log-sum-exp takes the exact
maximum over M, then adds the M rows of exp(x - max) into one
(states, frames) total one row at a time, in order; numpy's `sum` over M
would add a lone frame's terms pairwise and many frames' in order. Only the
per-state log b is transposed, as a view, into the recursions'
(frames, ..., states) layout, and EM's responsibilities keep the
(states, M, frames) layout. Every entry's arithmetic is thus independent of
how many frames or states share a call: a state scores bit for bit the same
alone as in a population's stack, and a frame the same alone as among
others, which keeps `log_forward_table` equal to `log_forward`.

`HmmStack` is the one path from models to kernel terms and log start and
transition tables: it stacks V models that share a shape, once. A population
is scored against its stack, and the one-model forms, `log_forward` and each
EM iteration, build the V = 1 case of it.

Scoring and training also share one forward and one backward recursion, the
only loops over frames; both take batch axes, and `_padded_emissions` lays
ragged sequences out for them, padded to the longest. A population is scored
in one batched pass (`log_forward_table`): a group of utterances runs against
every model of the stack at once, each pair with the arithmetic of
`log_forward`.
Training is multi-sequence expectation-maximization with parameter floors;
each iteration runs every sequence through the recursions in one batched pass
per group of whole sequences, and accumulates its statistics over the real
frames with one broadcast for the transitions and one matmul per moment.
Training and scoring form their groups by one rule (`batch_groups`), which
keeps every batched pass within one budget of table cells. Initialization is
a deterministic seeded k-means over pooled frames. Models serialize to a
versioned text format whose floats round-trip exactly.
"""

import math
import operator
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)
_LOWEST = np.finfo(np.float64).min

# Parameter floors of initialization and EM re-estimation: the least variance
# per dimension, and the least start, transition and mixture-weight
# probability before a distribution is renormalized.
VARIANCE_FLOOR = 1e-6
TRANSITION_FLOOR = 1e-8
WEIGHT_FLOOR = 1e-8

# Elements of the (states, max(D, M), frames) temporaries one kernel call of
# _padded_emissions may make: cache-sized slices were fastest, and larger ones
# raise peak memory without gain.
_SLICE_ELEMENTS = 1 << 15

# float64 cells (2 MB) the tables of one batched pass may fill (batch_groups),
# so that the peak memory of training and of scoring does not grow with the
# number of sequences.
_GROUP_CELLS = 1 << 18


class ModelError(ValueError):
    """Invalid model parameters."""


class ModelFormatError(ModelError):
    """Unreadable or corrupt serialized model."""


class TrainingError(RuntimeError):
    """Training could not proceed (empty data, non-finite likelihood, ...)."""


@dataclass
class GaussianMixture:
    """Diagonal-covariance Gaussian mixture emission density for one state."""

    weights: np.ndarray    # (M,)
    means: np.ndarray      # (M, D)
    variances: np.ndarray  # (M, D)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.variances = np.atleast_2d(np.asarray(self.variances, dtype=np.float64))

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def validate(self) -> None:
        if self.weights.ndim != 1:
            raise ModelError("mixture weights must be 1-D")
        if self.means.shape != (self.n_components, self.dim):
            raise ModelError("means shape mismatch")
        if self.variances.shape != self.means.shape:
            raise ModelError("variances shape mismatch")
        if np.any(self.weights < 0) or not math.isclose(
            self.weights.sum(), 1.0, rel_tol=0, abs_tol=1e-8
        ):
            raise ModelError(f"mixture weights must be a distribution, got sum {self.weights.sum()}")
        if np.any(self.variances <= 0):
            raise ModelError("variances must be positive")
        if not (np.all(np.isfinite(self.means)) and np.all(np.isfinite(self.variances))):
            raise ModelError("non-finite mixture parameters")

    def component_log_pdf(self, obs: np.ndarray) -> np.ndarray:
        """log(w_m * N(x_t; mu_m, var_m)) for every frame/component: (T, M).

        The one-state case of the emission kernel (``_StateTerms``). Only
        tests score a lone state; the method stays because the benchmark's
        ``hmm.emission`` layer traces it by name.
        """
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        return _StateTerms.of([self]).component_log_pdf(obs)[0].T


@dataclass(frozen=True)
class _StateTerms:
    """The emission kernel's precomputed terms for a stack of S mixture states.

    Every state has M components of dimension D. ``shift`` is c_s, the mean
    of state s's component means weighted by their precisions 1/var, per
    dimension; the component log density of a frame x is
    ``constant + sum_d precision * (x - c_s)**2 + sum_d linear * (x - c_s)``
    (see the module docstring).
    """

    shift: np.ndarray      # (S, D): c_s
    precision: np.ndarray  # (S, M, D): -1 / (2 var)
    linear: np.ndarray     # (S, M, D): (mu - c_s) / var
    constant: np.ndarray   # (S, M): log w + log_norm - sum_d (mu - c_s)^2 / (2 var)

    @classmethod
    def of(cls, states: list[GaussianMixture]) -> "_StateTerms":
        """Terms of these states, in order; they must share (mixtures, dim)."""
        means = np.stack([s.means for s in states])
        variances = np.stack([s.variances for s in states])
        with np.errstate(divide="ignore"):
            log_w = np.log(np.stack([s.weights for s in states]))
        log_norm = -0.5 * (means.shape[2] * _LOG_2PI + np.sum(np.log(variances), axis=2))
        inverse = np.divide(1.0, variances, out=variances)
        shift = np.sum(means * inverse, axis=1) / np.sum(inverse, axis=1)
        offset = np.subtract(means, shift[:, None, :], out=means)
        linear = offset * inverse
        quad = np.multiply(offset, linear, out=offset)
        return cls(
            shift=shift,
            precision=np.multiply(inverse, -0.5, out=inverse),
            linear=linear,
            constant=log_w + log_norm - 0.5 * np.sum(quad, axis=2),
        )

    @property
    def n_states(self) -> int:
        return self.constant.shape[0]

    @property
    def n_mixtures(self) -> int:
        return self.constant.shape[1]

    @property
    def dim(self) -> int:
        return self.shift.shape[1]

    def component_log_pdf(self, obs: np.ndarray) -> np.ndarray:
        """Component log densities of (T, D) frames under every state: (S, M, T)."""
        centred = obs.T[None, :, :] - self.shift[:, :, None]
        out = np.einsum("sdt,smd->smt", centred * centred, self.precision)
        out += np.einsum("sdt,smd->smt", centred, self.linear)
        out += self.constant[:, :, None]
        return out


@dataclass
class HmmModel:
    """Ergodic HMM: start distribution, dense transitions, one mixture per state."""

    pi: np.ndarray           # (N,)
    transitions: np.ndarray  # (N, N)
    states: list[GaussianMixture] = field(default_factory=list)

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        self.transitions = np.atleast_2d(np.asarray(self.transitions, dtype=np.float64))

    @property
    def n_states(self) -> int:
        return len(self.pi)

    @property
    def n_mixtures(self) -> int:
        return self.states[0].n_components

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def validate(self) -> None:
        n = self.n_states
        if n < 1 or len(self.states) != n:
            raise ModelError(f"need one emission mixture per state ({len(self.states)} != {n})")
        if self.transitions.shape != (n, n):
            raise ModelError("transition matrix must be (n_states, n_states)")
        if np.any(self.pi < 0) or not math.isclose(self.pi.sum(), 1.0, rel_tol=0, abs_tol=1e-8):
            raise ModelError(f"start probabilities must be a distribution, got sum {self.pi.sum()}")
        row_sums = self.transitions.sum(axis=1)
        if np.any(self.transitions < 0) or not np.allclose(row_sums, 1.0, rtol=0, atol=1e-8):
            raise ModelError(f"transition rows must be distributions, got sums {row_sums}")
        dims = {s.dim for s in self.states}
        comps = {s.n_components for s in self.states}
        if len(dims) != 1 or len(comps) != 1:
            raise ModelError("all states must share dimension and component count")
        for s in self.states:
            s.validate()


class HmmStack(Sequence):
    """V models that share (states, mixtures, dim), stacked once.

    A sequence of the models in their given order, which also holds their
    kernel terms as one stack of V*N states, model-major then state-major,
    and their log start and transition probabilities as (V, N) and (V, N, N)
    arrays, where a zero probability is -inf. Every pass builds its terms
    here: scoring a population, and scoring or training one model as V = 1.
    The models must not change after the stack is built.
    """

    def __init__(self, models: list[HmmModel]):
        self._models = tuple(models)
        self.states = (len(self._models), self._models[0].n_states)
        self.emissions = _StateTerms.of([s for model in self._models for s in model.states])
        with np.errstate(divide="ignore"):
            self.log_pi = np.log(np.stack([model.pi for model in self._models]))
            self.log_a = np.log(np.stack([model.transitions for model in self._models]))

    def __getitem__(self, index):
        return self._models[index]

    def __len__(self) -> int:
        return len(self._models)


def _clamp_peak(peak: np.ndarray) -> np.ndarray:
    """A log-sum-exp's maximum with -inf raised, in place, to the lowest float.

    An all -inf slice then still sums exp(-inf) = 0 and gives -inf, and NaN
    stays NaN.
    """
    return np.maximum(peak, _LOWEST, out=peak)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along ``axis``, shifted by the maximum; -inf where all are -inf.

    Callers silence the divide warning that log(0) gives for an all -inf slice.
    """
    peak = _clamp_peak(x.max(axis=axis, keepdims=True))
    scaled = np.subtract(x, peak)
    total = np.exp(scaled, out=scaled).sum(axis=axis, keepdims=True)
    np.log(total, out=total)
    total += peak
    return total.squeeze(axis)


def _emissions(
    terms: _StateTerms, states: tuple[int, ...], obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Component log densities (*states, M, T) and their per-state mixtures (T, *states).

    ``states`` is (N,) for one model's stack and (V, N) for a population's.
    The mixtures, log b, come back as a transposed view. Their M rows are
    added in order, so a frame's sum does not depend on how many frames share
    the call (see the module docstring).
    """
    comp_log = terms.component_log_pdf(obs)
    peak = _clamp_peak(comp_log.max(axis=1))
    scaled = np.subtract(comp_log, peak[:, None, :])
    np.exp(scaled, out=scaled)
    total = scaled[:, 0]
    for row in range(1, terms.n_mixtures):
        total += scaled[:, row]
    with np.errstate(divide="ignore"):
        np.log(total, out=total)
    total += peak
    return (
        comp_log.reshape(*states, terms.n_mixtures, len(obs)),
        total.T.reshape(len(obs), *states),
    )


def _layout(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's (sequence, position in it) once sequences of these lengths are concatenated."""
    ends = np.cumsum(lengths)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    position = np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)
    return owner, position


def _padded_emissions(
    terms: _StateTerms,
    states: tuple[int, ...],
    frames: np.ndarray,
    lengths: np.ndarray,
    components: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Emissions of S concatenated sequences: log b padded to (T, S, *states).

    T is the longest length; padded frames hold 0 and no recursion reads them
    as data. Densities are taken over the concatenated frames in slices of at
    most ``_SLICE_ELEMENTS`` elements of each (states, D, frames) and
    (states, M, frames) temporary. With ``components``, the component log
    densities of the real frames, (*states, M, F) with the F frames in
    concatenation order, come back too.
    """
    owner, position = _layout(lengths)
    log_b = np.zeros((lengths.max(), len(lengths), *states))
    comp_log = None
    if components:
        comp_log = np.empty((*states, terms.n_mixtures, len(frames)))
    step = max(1, _SLICE_ELEMENTS // (terms.n_states * max(terms.dim, terms.n_mixtures)))
    for lo in range(0, len(frames), step):
        part = slice(lo, lo + step)
        comp_part, log_b[position[part], owner[part]] = _emissions(terms, states, frames[part])
        if comp_log is not None:
            comp_log[..., part] = comp_part
    return log_b, comp_log


def _check_obs(model: HmmModel, obs: np.ndarray) -> np.ndarray:
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    if obs.shape[0] == 0:
        raise ModelError("empty observation sequence")
    if obs.shape[1] != model.dim:
        raise ModelError(f"observation dim {obs.shape[1]} != model dim {model.dim}")
    if not np.isfinite(obs).all():
        raise ModelError("non-finite values in observation sequence")
    return obs


def _forward(
    log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """log alpha (T, ..., N) from log parameters and log emissions (T, ..., N).

    Batch axes between the frame and state axes run many (sequence, model)
    pairs in one step per frame; log_pi (..., N) and log_a (..., N, N)
    broadcast against them. Each pair's arithmetic is the same as unbatched.
    ``out`` may be ``log_b`` itself, whose frame t is read before frame t of
    alpha is written, for a caller that needs no emissions afterwards.
    """
    log_alpha = np.empty_like(log_b) if out is None else out
    log_alpha[0] = log_pi + log_b[0]
    with np.errstate(divide="ignore"):
        for t in range(1, len(log_b)):
            step = _logsumexp(log_alpha[t - 1][..., :, None] + log_a, axis=-2)
            np.add(step, log_b[t], out=log_alpha[t])
    return log_alpha


def _termination(log_alpha_last: np.ndarray) -> np.ndarray:
    """log P(obs) from the log alpha (..., N) of each sequence's last frame."""
    with np.errstate(divide="ignore"):
        return _logsumexp(log_alpha_last, axis=-1)


def _backward(log_a: np.ndarray, log_b: np.ndarray, lengths) -> np.ndarray:
    """log beta (T, ..., N) from log transitions and log emissions (T, ..., N).

    The batch axes are those of ``_forward``. ``lengths`` (...) gives each
    batch entry's sequence length: its beta is held at exactly 0 from its
    last frame onward, so the padding after it never enters.
    """
    log_beta = np.zeros_like(log_b)
    last = np.asarray(lengths)[..., None] - 1
    with np.errstate(divide="ignore"):
        for t in range(len(log_b) - 2, -1, -1):
            step = _logsumexp(log_a + (log_b[t + 1] + log_beta[t + 1])[..., None, :], axis=-1)
            log_beta[t] = np.where(t < last, step, 0.0)
    return log_beta


def log_forward(model: HmmModel, obs: np.ndarray) -> tuple[float, np.ndarray]:
    """Forward recursion. Returns (log P(obs | model), log alpha matrix (T, N))."""
    obs = _check_obs(model, obs)
    stack = HmmStack([model])
    _, log_b = _emissions(stack.emissions, (model.n_states,), obs)
    log_alpha = _forward(stack.log_pi[0], stack.log_a[0], log_b)
    return float(_termination(log_alpha[-1])), log_alpha


def log_forward_table(stack: HmmStack, sequences: list[np.ndarray]) -> np.ndarray:
    """log P(sequence u | model v) for every pair: a (U, V) table.

    One pass for the lot against the stacked models. The sequences, padded
    to the longest, run through the forward recursion together, and each is
    read at its own last frame. Every entry equals
    ``log_forward(stack[v], sequences[u])[0]`` bit for bit. Memory grows
    with U * max length * V * N, one table that holds the emissions and then
    alpha; callers bound it by grouping the sequences (``batch_groups``).
    """
    seqs = [_check_obs(stack[0], s) for s in sequences]
    lengths = np.array([len(s) for s in seqs])
    log_b, _ = _padded_emissions(stack.emissions, stack.states, np.concatenate(seqs), lengths)
    log_alpha = _forward(stack.log_pi, stack.log_a, log_b, out=log_b)
    return _termination(log_alpha[lengths - 1, np.arange(len(seqs))])


def log_likelihood(model: HmmModel, obs: np.ndarray) -> float:
    return log_forward(model, obs)[0]


# --- initialization ---------------------------------------------------------------

def _pairwise_sq_dist(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(points * points, axis=1)[:, None]
        - 2.0 * points @ centroids.T
        + np.sum(centroids * centroids, axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeans_pp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(len(points))]
    min_d2 = _pairwise_sq_dist(points, centroids[:1])[:, 0]
    for j in range(1, k):
        total = min_d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(len(points)))
        else:
            idx = int(rng.choice(len(points), p=min_d2 / total))
        centroids[j] = points[idx]
        min_d2 = np.minimum(min_d2, _pairwise_sq_dist(points, centroids[j : j + 1])[:, 0])
    return centroids


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator, n_iter: int = 10):
    """Seeded Lloyd iterations; empty clusters reseed to the worst-fit point."""
    n = len(points)
    if n >= k:
        centroids = _kmeans_pp_seed(points, k, rng)
    else:
        spread = points.std(axis=0) + 1e-6
        centroids = points[np.arange(k) % n] + 1e-3 * spread * rng.standard_normal(
            (k, points.shape[1])
        )
    assign = np.zeros(n, dtype=int)
    for _ in range(n_iter):
        d2 = _pairwise_sq_dist(points, centroids)
        assign = np.argmin(d2, axis=1)
        counts = np.bincount(assign, minlength=k)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, points)   # each cluster's points summed in order, as .mean does
        filled = counts > 0
        new_centroids = np.empty_like(centroids)
        new_centroids[filled] = sums[filled] / counts[filled, None]
        new_centroids[~filled] = points[np.argmax(d2[np.arange(n), assign])]
        if np.array_equal(new_centroids, centroids):
            break
        centroids = new_centroids
    assign = np.argmin(_pairwise_sq_dist(points, centroids), axis=1)
    return centroids, assign


def init_model(
    sequences: list[np.ndarray],
    n_states: int,
    n_mixtures: int,
    seed: int = 0,
) -> HmmModel:
    """Deterministic starting model: k-means clusters dealt to states in blocks.

    Pooled frames are clustered into n_states * n_mixtures groups (k-means++
    seeding from ``seed``); clusters are ordered by centroid coordinate sum and
    assigned to states contiguously. Start and transition distributions begin
    uniform (fully ergodic).
    """
    if not sequences:
        raise TrainingError("no training sequences")
    arrays = [np.atleast_2d(np.asarray(s, dtype=np.float64)) for s in sequences]
    dims = {a.shape[1] for a in arrays}
    if len(dims) != 1:
        raise TrainingError(f"sequences disagree on dimension: {sorted(dims)}")
    points = np.concatenate(arrays, axis=0)
    if not np.all(np.isfinite(points)):
        raise TrainingError("non-finite values in training data")

    rng = np.random.default_rng(seed)
    k = n_states * n_mixtures
    centroids, assign = _kmeans(points, k, rng)

    order = np.argsort(centroids.sum(axis=1), kind="stable")
    global_var = np.maximum(points.var(axis=0), VARIANCE_FLOOR)

    states = []
    for j in range(n_states):
        cluster_ids = order[j * n_mixtures : (j + 1) * n_mixtures]
        counts = np.array([(assign == c).sum() for c in cluster_ids], dtype=np.float64)
        weights = _floor_distribution(
            counts / counts.sum() if counts.sum() > 0 else np.full(n_mixtures, 1.0 / n_mixtures),
            WEIGHT_FLOOR,
        )
        means = centroids[cluster_ids].copy()
        variances = np.empty_like(means)
        for m, c in enumerate(cluster_ids):
            members = points[assign == c]
            if len(members) >= 2:
                variances[m] = np.maximum(members.var(axis=0), VARIANCE_FLOOR)
            else:
                variances[m] = global_var
        states.append(GaussianMixture(weights=weights, means=means, variances=variances))

    model = HmmModel(
        pi=np.full(n_states, 1.0 / n_states),
        transitions=np.full((n_states, n_states), 1.0 / n_states),
        states=states,
    )
    model.validate()
    return model


def _floor_distribution(p: np.ndarray, floor: float) -> np.ndarray:
    """Raise entries below ``floor`` and renormalize; identity when nothing binds."""
    if not np.any(p < floor):
        return p
    p = np.maximum(p, floor)
    return p / p.sum()


# --- training ---------------------------------------------------------------------

@dataclass
class TrainingResult:
    model: HmmModel
    log_likelihoods: list[float]
    converged: bool

    @property
    def n_iterations(self) -> int:
        return len(self.log_likelihoods)


def baum_welch_train(
    model: HmmModel,
    sequences: list[np.ndarray],
    *,
    max_iterations: int = 40,
    tolerance: float = 1e-4,
    on_iteration=None,
) -> TrainingResult:
    """Multi-sequence EM re-estimation of every parameter group.

    The E-step takes the sequences in consecutive groups that fit a fixed
    memory budget, each group in one batched pass: emissions of its
    concatenated frames, then the forward and backward recursions over the
    padded group, then posteriors on the real frames only. Each sequence's
    log-likelihood is the one ``log_forward`` gives, bit for bit, and they
    are summed in sequence order.

    Each iteration records the total log-likelihood of the model *entering*
    that iteration, so the recorded sequence is non-decreasing (up to floor
    adjustments). Components or states that receive no responsibility keep
    their previous parameters. Stops early once the relative improvement
    drops below ``tolerance``; the model returned then is the one whose
    likelihood was recorded last. A run stopped by ``max_iterations`` instead
    returns ``converged=False`` and a model re-estimated once more after the
    last recorded log-likelihood, so that model's own likelihood was never
    computed.
    """
    model.validate()
    obs_list = [_check_obs(model, s) for s in sequences]
    if not obs_list:
        raise TrainingError("no training sequences")

    n, m, d = model.n_states, model.n_mixtures, model.dim
    # a frame's component responsibilities and transition posteriors outweigh
    # its emission, forward and backward cells; d counts the frame itself
    groups = list(batch_groups(obs_list, lambda obs: (len(obs),), (n * (m + n) + d,)))
    history: list[float] = []
    converged = False

    for iteration in range(max_iterations):
        stack = HmmStack([model])
        log_pi, log_a = stack.log_pi[0], stack.log_a[0]

        pi_acc = np.zeros(n)
        xi_acc = np.zeros((n, n))
        comp_acc = np.zeros((n, m))
        mean_acc = np.zeros((n, m, d))
        sq_acc = np.zeros((n, m, d))
        total_ll = 0.0

        first = 0  # index of the group's first sequence
        for group in groups:
            lengths = np.array([len(obs) for obs in group])
            frames = np.concatenate(group)
            log_b, comp_log = _padded_emissions(
                stack.emissions, (n,), frames, lengths, components=True
            )
            log_alpha = _forward(log_pi, log_a, log_b)
            lls = _termination(log_alpha[lengths - 1, np.arange(len(lengths))])
            bad = np.flatnonzero(~np.isfinite(lls))
            if len(bad):
                k = bad[0]
                raise TrainingError(
                    f"sequence {first + k}: non-finite log-likelihood {float(lls[k])} "
                    f"(length {lengths[k]}) at iteration {iteration}"
                )
            # the same left-to-right sum as adding one sequence at a time
            total_ll = float(np.add.accumulate(np.concatenate(([total_ll], lls)))[-1])
            log_beta = _backward(log_a, log_b, lengths)

            # from here on only real frames, in concatenation order
            owner, position = _layout(lengths)
            log_alpha, log_beta, log_b = (x[position, owner] for x in (log_alpha, log_beta, log_b))
            frame_ll = lls[owner, None]
            log_gamma = log_alpha + log_beta - frame_ll               # (F, N)
            pi_acc += np.exp(log_gamma[position == 0]).sum(axis=0)
            src = np.flatnonzero(position[1:])     # frames whose successor is in their sequence
            xi = log_alpha[src, :, None] + log_a
            xi += (log_b + log_beta)[src + 1, None, :]
            xi -= frame_ll[src, :, None]
            xi_acc += np.exp(xi, out=xi).sum(axis=0)
            comp_log += log_gamma.T[:, None, :]                     # responsibilities, in place
            comp_log -= log_b.T[:, None, :]
            resp = np.exp(comp_log, out=comp_log)                   # (N, M, F)
            comp_acc += resp.sum(axis=2)
            resp = resp.reshape(n * m, len(frames))
            mean_acc += (resp @ frames).reshape(n, m, d)
            sq_acc += (resp @ (frames * frames)).reshape(n, m, d)
            first += len(group)

        history.append(total_ll)
        if on_iteration is not None:
            on_iteration(iteration, total_ll, model)
        if len(history) >= 2:
            prev = history[-2]
            if total_ll - prev < tolerance * max(1.0, abs(prev)):
                converged = True
                break

        model = _reestimate(model, pi_acc, xi_acc, comp_acc, mean_acc, sq_acc, len(obs_list))

    return TrainingResult(model=model, log_likelihoods=history, converged=converged)


def batch_groups(
    items: Iterable, rows: Callable[[object], tuple[int, ...]], row_cells: tuple[int, ...]
) -> Iterator[list]:
    """Consecutive runs of whole items, in order, whose batched pass fits ``_GROUP_CELLS``.

    In stream k of the pass an item spans ``rows(item)[k]`` rows of
    ``row_cells[k]`` cells each, and every item of a run is padded to the
    run's longest, so a run of U items costs
    U * max_k(longest rows in stream k * row_cells[k]). An item that alone
    exceeds the budget is a run of its own. ``items`` is read one run at a
    time, so a lazy iterable is never held whole.
    """
    run, longest = [], ()
    for item in items:
        size = rows(item)
        grown = tuple(map(max, longest, size)) if run else size
        if run and (len(run) + 1) * max(map(operator.mul, grown, row_cells)) > _GROUP_CELLS:
            yield run
            run, grown = [], size
        run.append(item)
        longest = grown
    if run:
        yield run


def _reestimate(model, pi_acc, xi_acc, comp_acc, mean_acc, sq_acc, n_sequences) -> HmmModel:
    n, m, _ = model.n_states, model.n_mixtures, model.dim

    pi = _floor_distribution(pi_acc / n_sequences, TRANSITION_FLOOR)

    transitions = model.transitions.copy()
    for i in range(n):
        row_total = xi_acc[i].sum()
        if row_total > 0:
            transitions[i] = _floor_distribution(xi_acc[i] / row_total, TRANSITION_FLOOR)

    states = []
    for j in range(n):
        old = model.states[j]
        state_total = comp_acc[j].sum()
        weights = old.weights.copy()
        means = old.means.copy()
        variances = old.variances.copy()
        if state_total > 0:
            weights = _floor_distribution(comp_acc[j] / state_total, WEIGHT_FLOOR)
            for k in range(m):
                occ = comp_acc[j, k]
                if occ > 0:
                    mu = mean_acc[j, k] / occ
                    var = sq_acc[j, k] / occ - mu * mu
                    means[k] = mu
                    variances[k] = np.maximum(var, VARIANCE_FLOOR)
        states.append(GaussianMixture(weights=weights, means=means, variances=variances))

    new_model = HmmModel(pi=pi, transitions=transitions, states=states)
    new_model.validate()
    return new_model


# --- serialization -----------------------------------------------------------------

MODEL_MAGIC = "EMSPHMM"
MODEL_VERSION = 1


def _fmt(values: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(values).ravel())


def model_to_text(model: HmmModel) -> str:
    """Serialize with full float precision (``repr`` round-trips exactly)."""
    model.validate()
    lines = [
        f"{MODEL_MAGIC} {MODEL_VERSION}",
        f"states {model.n_states} mixtures {model.n_mixtures} dim {model.dim}",
        f"pi {_fmt(model.pi)}",
    ]
    for i in range(model.n_states):
        lines.append(f"A {i} {_fmt(model.transitions[i])}")
    for j, s in enumerate(model.states):
        lines.append(f"state {j} weights {_fmt(s.weights)}")
        for k in range(s.n_components):
            lines.append(f"state {j} mean {k} {_fmt(s.means[k])}")
            lines.append(f"state {j} var {k} {_fmt(s.variances[k])}")
    return "\n".join(lines) + "\n"


def model_from_text(text: str) -> HmmModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    it = iter(lines)

    def take(prefix: str) -> list[str]:
        try:
            line = next(it)
        except StopIteration:
            raise ModelFormatError(f"unexpected end of model file (wanted {prefix!r})") from None
        tokens = line.split()
        want = prefix.split()
        if tokens[: len(want)] != want:
            raise ModelFormatError(f"expected line starting {prefix!r}, got {line!r}")
        return tokens[len(want):]

    header = take(MODEL_MAGIC)
    if header != [str(MODEL_VERSION)]:
        raise ModelFormatError(f"unsupported model version {header}")
    tokens = take("states")
    try:
        n = int(tokens[0])
        m = int(tokens[tokens.index("mixtures") + 1])
        d = int(tokens[tokens.index("dim") + 1])
    except (ValueError, IndexError) as exc:
        raise ModelFormatError(f"bad shape line: {tokens}") from exc

    def floats(tokens: list[str], count: int) -> np.ndarray:
        if len(tokens) != count:
            raise ModelFormatError(f"expected {count} numbers, got {len(tokens)}")
        try:
            return np.array([float(t) for t in tokens])
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc

    pi = floats(take("pi"), n)
    transitions = np.stack([floats(take(f"A {i}"), n) for i in range(n)])
    states = []
    for j in range(n):
        weights = floats(take(f"state {j} weights"), m)
        means = np.empty((m, d))
        variances = np.empty((m, d))
        for k in range(m):
            means[k] = floats(take(f"state {j} mean {k}"), d)
            variances[k] = floats(take(f"state {j} var {k}"), d)
        states.append(GaussianMixture(weights=weights, means=means, variances=variances))
    leftover = list(it)
    if leftover:
        raise ModelFormatError(f"{len(leftover)} trailing line(s) in model file")

    model = HmmModel(pi=pi, transitions=transitions, states=states)
    try:
        model.validate()
    except ModelError as exc:
        raise ModelFormatError(f"deserialized model invalid: {exc}") from exc
    return model

