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

The kernel takes the frames in blocks of exactly B = 16, the last one padded
with copies of the last frame, and builds [(x - c_s)^2 | x - c_s] as
(states, blocks, 2D, B), with the frames on the contiguous axis. One batched
`np.matmul` multiplies each state's (M, 2D) weights
[-1/(2 var) | (mu - c_s)/var] into every block, so every product has the one
shape (M, 2D) @ (2D, B). A BLAS product runs a fixed micro-kernel over
register tiles (Goto and van de Geijn, "Anatomy of high-performance matrix
multiplication", ACM TOMS 34(3), 2008): at a fixed shape, a frame meets the
same tiles whatever block position it holds, however many frames share the
call and whichever states are stacked with its own. A product over all the
frames at once would not do: OpenBLAS's tile edges then move with the number
of frames, and so do a frame's last bits. This invariance is a property of
the BLAS build, not a promise of numpy, and `tests/test_hmm.py` checks it
with `==` at both streams' shapes. A kernel call takes whole blocks, and
whole models when one block under all of a stack's states is too large
(`_SLICE_ELEMENTS`); each state's products are independent, so slicing
changes no value. The mixture log-sum-exp keeps the (states, blocks, M, B)
layout: it takes the exact maximum over M, then adds the M rows of
exp(x - max) into one (states, blocks, B) total one row at a time, in order,
so a frame's sum does not depend on its neighbours either. EM copies the
component densities out to its (states, M, frames) responsibilities. Every
entry's arithmetic is thus independent of how many frames or states share a
call: a state scores bit for bit the same alone as in a population's stack,
and a frame the same alone as among others, which keeps `log_forward_table`
equal to `log_forward`.

Each pass checks the finiteness of its frames once, on all of them together
(`_blocked`), and the public entry points, `log_forward`,
`log_forward_table` and each EM iteration, silence the divide warning of
log(0) once for the kernel and recursions beneath them: a state cut off by a
zero probability scores exactly -inf.

The recursions' tables are states-major, (T, N, V, U): frames, states,
models, sequences, with the sequences innermost. A forward step sums over its
leading source-state axis, so its inner loops add whole contiguous (N, V, U)
blocks, one source state at a time in order, which is also the order of one
lone sequence's sum: every alpha is the same bit for bit however many pairs
share the step. Numpy adds a contiguous last axis of 8 or more terms
pairwise, not in order, and the backward step's sum over next states and the
termination's over final states are taken that way, each with its terms laid
out states-last; EM's statistics and every score depend on those orders.

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
Re-estimation is whole-array, one expression per parameter group, where masks
keep the old parameters of what received no responsibility. Training and
scoring form their groups by one rule (`batch_groups`), which keeps every
batched pass within one budget of table cells. Initialization is a
deterministic seeded k-means over pooled frames. Models serialize to a
versioned text format whose floats round-trip exactly. Initialization,
re-estimation and deserialization build every model with one constructor
(`_model`) from stacked parameter arrays.
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

# Frames per product of the emission kernel. Every product is one state's
# (M, 2D) weights times one block's (2D, B) frames, a fixed shape that meets
# the same BLAS register tiles whatever the number of frames, so a frame's
# values do not depend on where it sits or how many frames share a call.
_BLOCK = 16

# Elements of the (states, blocks, max(2D, M), B) temporaries one kernel call
# of _padded_emissions may make. A slice is whole blocks of frames, and whole
# models as well when one block under all of a stack's states would exceed
# it; every state's products are independent, so slicing changes no value.
# Cache-sized slices were fastest, and larger ones raise peak memory without
# gain.
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
    dimension. ``weights`` holds each component's two linear forms side by
    side, [-1 / (2 var) | (mu - c_s) / var], so that a frame x's component
    log densities are ``constant + weights @ [(x - c_s)**2 | x - c_s]`` (see
    the module docstring): one (M, 2D) @ (2D, B) product per state and block
    of B frames.
    """

    shift: np.ndarray     # (S, D): c_s
    weights: np.ndarray   # (S, M, 2D): [-1 / (2 var) | (mu - c_s) / var]
    constant: np.ndarray  # (S, M): log w + log_norm - sum_d (mu - c_s)^2 / (2 var)

    @classmethod
    def of(cls, states: list[GaussianMixture]) -> "_StateTerms":
        """Terms of these states, in order; they must share (mixtures, dim)."""
        means = np.stack([s.means for s in states])
        variances = np.stack([s.variances for s in states])
        with np.errstate(divide="ignore"):
            log_w = np.log(np.stack([s.weights for s in states]))
        d = means.shape[2]
        log_norm = -0.5 * (d * _LOG_2PI + np.sum(np.log(variances), axis=2))
        inverse = np.divide(1.0, variances, out=variances)
        shift = np.sum(means * inverse, axis=1) / np.sum(inverse, axis=1)
        offset = np.subtract(means, shift[:, None, :], out=means)
        weights = np.empty((*offset.shape[:2], 2 * d))
        linear = np.multiply(offset, inverse, out=weights[..., d:])
        quad = np.multiply(offset, linear, out=offset)
        np.multiply(inverse, -0.5, out=weights[..., :d])
        constant = log_w + log_norm - 0.5 * np.sum(quad, axis=2)
        return cls(shift=shift, weights=weights, constant=constant)

    @property
    def n_states(self) -> int:
        return self.constant.shape[0]

    @property
    def n_mixtures(self) -> int:
        return self.constant.shape[1]

    @property
    def dim(self) -> int:
        return self.shift.shape[1]

    def block_log_pdf(self, blocks: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
        """Component log densities of frame blocks (K, B, D) under states ``rows``: (S, K, M, B).

        One batched ``np.matmul`` of every state's (M, 2D) weights with each
        block's (2D, B) centred squares and offsets, then the constants.
        """
        shift = self.shift[rows]
        d = shift.shape[1]
        stacked = np.empty((len(shift), len(blocks), 2 * d, _BLOCK))
        centred = np.subtract(
            blocks.transpose(0, 2, 1), shift[:, None, :, None], out=stacked[:, :, d:]
        )
        np.multiply(centred, centred, out=stacked[:, :, :d])
        out = np.matmul(self.weights[rows, None], stacked)
        out += self.constant[rows, None, :, None]
        return out

    def component_log_pdf(self, obs: np.ndarray) -> np.ndarray:
        """Component log densities of (T, D) frames under every state: (S, M, T)."""
        out = self.block_log_pdf(_blocked(obs)).transpose(0, 2, 1, 3)
        return out.reshape(*out.shape[:2], -1)[..., : len(obs)]


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
    and their log start and transition probabilities as (N, V) and
    (N, N, V) arrays (from-state, to-state, model), where a zero probability
    is -inf. These are the recursions' states-major layout, so no pass
    transposes or copies them. Every pass builds its terms here: scoring a
    population, and scoring or training one model as V = 1. The models must
    not change after the stack is built.
    """

    def __init__(self, models: list[HmmModel]):
        self._models = tuple(models)
        self.shape = (self._models[0].n_states, len(self._models))
        self.emissions = _StateTerms.of([s for model in self._models for s in model.states])
        with np.errstate(divide="ignore"):
            self.log_pi = np.log(np.stack([model.pi for model in self._models], axis=-1))
            self.log_a = np.log(np.stack([model.transitions for model in self._models], axis=-1))

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


def _blocked(frames: np.ndarray) -> np.ndarray:
    """(F, D) frames padded to whole blocks of B with copies of the last: (K, B, D).

    A padded frame thus costs no arithmetic that a real one does not, and
    raises no floating-point warning of its own. Every kernel pass runs its
    one finiteness check here, on all its frames.
    """
    padded = np.empty((-(-len(frames) // _BLOCK) * _BLOCK, frames.shape[1]))
    padded[: len(frames)] = frames
    padded[len(frames) :] = frames[-1]
    if not np.isfinite(padded).all():
        raise ModelError("non-finite values in observation sequence")
    return padded.reshape(-1, _BLOCK, padded.shape[1])


def _mixtures(comp_log: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each state's mixture log density, (S, K * B), from component ones (S, K, M, B).

    The exact maximum over M, then the M rows of exp(x - max) added into one
    total one row at a time, in order, so a frame's sum does not depend on
    where it sits or how many frames share the call. A lone component is its
    own mixture: max + log(exp(0)) is the component's value bit for bit, so
    it is returned as it is, a view. Otherwise ``out`` may be ``comp_log``
    itself, which is then overwritten. Callers silence the divide warning of
    a state whose components are all -inf.
    """
    m = comp_log.shape[2]
    if m == 1:
        return comp_log.reshape(len(comp_log), -1)
    peak = _clamp_peak(comp_log.max(axis=2))
    scaled = np.subtract(comp_log, peak[:, :, None], out=out)
    np.exp(scaled, out=scaled)
    total = np.add(scaled[:, :, 0], scaled[:, :, 1])
    for row in range(2, m):
        total += scaled[:, :, row]
    np.log(total, out=total)
    total += peak
    return total.reshape(len(total), -1)


def _emissions(
    terms: _StateTerms, states: tuple[int, ...], obs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Component log densities (S, K, M, B) and their per-state mixtures (T, *states).

    ``states`` is (N,) for one model's S = N states and (V, N) for a
    stack's S = V * N, model-major. The frames are taken in padded blocks
    of B (``_blocked``); the mixtures, log b, come back as a transposed view
    of the real frames.
    """
    comp_log = terms.block_log_pdf(_blocked(obs))
    log_b = _mixtures(comp_log)[:, : len(obs)]
    return comp_log, log_b.T.reshape(len(obs), *states)


def _layout(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each frame's (sequence, position in it) once sequences of these lengths are concatenated."""
    ends = np.cumsum(lengths)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    position = np.arange(ends[-1]) - np.repeat(ends - lengths, lengths)
    return owner, position


def _padded_emissions(
    terms: _StateTerms,
    states: tuple[int, int],
    frames: np.ndarray,
    lengths: np.ndarray,
    layout: tuple[np.ndarray, np.ndarray],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Emissions of U concatenated sequences: log b padded to (T, N, V, U).

    ``states`` is the stack's (N, V) and ``layout`` is ``_layout(lengths)``.
    T is the longest length; padded frames hold 0 and no recursion reads
    them as data. The table is states-major with the sequences innermost,
    the layout of the recursions (see the module docstring): each frame's
    (N, V) block is scattered to its (position, sequence) column, straight
    from the kernel's block layout. The kernel runs over slices of whole
    blocks (``_blocked``) and, where one block under every state would
    exceed ``_SLICE_ELEMENTS``, of whole models. Given ``out``,
    (N * V, M, K * B), the component log densities of the blocked frames
    are written into it, in concatenation order.
    """
    owner, position = layout
    n, v = states
    blocks = _blocked(frames)
    log_b = np.zeros((lengths.max(), n, v, len(lengths)))
    model_cells = n * _BLOCK * max(2 * terms.dim, terms.n_mixtures)
    models = max(1, min(v, _SLICE_ELEMENTS // model_cells))
    step = max(1, _SLICE_ELEMENTS // (models * model_cells))
    for first in range(0, v, models):
        group = slice(first, first + models)
        rows = slice(first * n, (first + models) * n)
        for lo in range(0, len(blocks), step):
            comp_log = terms.block_log_pdf(blocks[lo : lo + step], rows)
            part = slice(lo * _BLOCK, (lo + step) * _BLOCK)
            if out is not None:
                target = out[rows, :, part].reshape(*comp_log.shape[::2], -1, _BLOCK)
                target[...] = comp_log.transpose(0, 2, 1, 3)
            real = min(part.stop, len(frames)) - part.start
            b = _mixtures(comp_log, out=comp_log)[:, :real]
            log_b[position[part], :, group, owner[part]] = b.T.reshape(real, -1, n).swapaxes(1, 2)
    return log_b


def _check_obs(obs: np.ndarray, dim: int) -> np.ndarray:
    """The sequence as a (T, D) float array; an empty one or one of another dim is rejected.

    Its values are checked once per pass, on all the pass's frames (``_blocked``).
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    if obs.shape[0] == 0:
        raise ModelError("empty observation sequence")
    if obs.shape[1] != dim:
        raise ModelError(f"observation dim {obs.shape[1]} != model dim {dim}")
    return obs


def _forward(
    log_pi: np.ndarray, log_a: np.ndarray, log_b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """log alpha (T, N, ...) from log parameters and log emissions (T, N, ...).

    Batch axes after the state axis run many (model, sequence) pairs in one
    step per frame; log_pi (N, ...) and log_a (N, N, ...), from-state first,
    broadcast against them. A step fills one (N, N, ...) table of
    alpha_i + log a_ij and reduces it over its leading axis, the source
    state i. Numpy reduces a leading axis by adding whole contiguous
    (N, ...) blocks, one source state after another in order, which is the
    order of a lone pair's sum too: each pair's arithmetic is the same as
    unbatched. ``out`` may be ``log_b`` itself, whose frame t is read before
    frame t of alpha is written, for a caller that needs no emissions
    afterwards.
    """
    log_alpha = np.empty_like(log_b) if out is None else out
    log_alpha[0] = log_pi + log_b[0]
    terms = np.empty((log_b.shape[1], *log_b.shape[1:]))
    for t in range(1, len(log_b)):
        np.add(log_alpha[t - 1][:, None], log_a, out=terms)
        np.add(_logsumexp(terms, axis=0), log_b[t], out=log_alpha[t])
    return log_alpha


def _termination(log_alpha: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """log P (U, V) of each (sequence, model) pair from its (T, N, V, U) log alpha.

    Each pair's alpha at its own last frame is gathered as (U, V, N) and
    copied C-contiguous, so that ``_logsumexp`` sums the states on a last,
    contiguous axis, pairwise at 8 or more states (see the module docstring).
    """
    last = log_alpha.transpose(3, 0, 2, 1)[np.arange(len(lengths)), lengths - 1]
    return _logsumexp(last.copy(), axis=-1)


def _backward(log_a: np.ndarray, log_b: np.ndarray, lengths) -> np.ndarray:
    """log beta (T, N, ...) from log transitions and log emissions (T, N, ...).

    The batch axes and log_a (N, N, ...) are those of ``_forward``.
    ``lengths`` broadcasts against the batch axes (the last, the sequences,
    in a padded table) and gives each sequence's length: its beta is held at
    exactly 0 from its last frame onward, so the padding after it never
    enters. A step fills one (N, ..., N) table of log a_ij + log b_j +
    beta_j with the next state j on the last, contiguous axis, and reduces
    it there: numpy adds a contiguous last axis of 8 or more terms pairwise,
    and EM's statistics at 8 or more states depend on that order.
    """
    log_beta = np.zeros_like(log_b)
    last = np.asarray(lengths) - 1
    next_last = np.moveaxis(log_a, 1, -1)  # (N, ..., N): from-state first, next state last
    states_last = (*range(1, log_b.ndim - 1), 0)  # a frame's (N, ...) as (..., N)
    terms = np.empty((log_b.shape[1], *log_b.shape[2:], log_b.shape[1]))
    for t in range(len(log_b) - 2, -1, -1):
        np.add(next_last, (log_b[t + 1] + log_beta[t + 1]).transpose(states_last), out=terms)
        log_beta[t] = np.where(t < last, _logsumexp(terms, axis=-1), 0.0)
    return log_beta


def log_forward(model: HmmModel, obs: np.ndarray) -> tuple[float, np.ndarray]:
    """Forward recursion. Returns (log P(obs | model), log alpha matrix (T, N))."""
    obs = _check_obs(obs, model.dim)
    stack = HmmStack([model])
    with np.errstate(divide="ignore"):
        _, log_b = _emissions(stack.emissions, (model.n_states,), obs)
        log_alpha = _forward(
            stack.log_pi[..., None], stack.log_a[..., None], log_b[..., None, None]
        )
        log_p = _termination(log_alpha, np.array([len(obs)]))[0, 0]
    return float(log_p), log_alpha[:, :, 0, 0]


def log_forward_table(stack: HmmStack, sequences: list[np.ndarray]) -> np.ndarray:
    """log P(sequence u | model v) for every pair: a (U, V) table.

    One pass for the lot against the stacked models. The sequences, padded
    to the longest, run through the forward recursion together, and each is
    read at its own last frame. Every entry equals
    ``log_forward(stack[v], sequences[u])[0]`` bit for bit. Memory grows
    with U * max length * V * N, one table that holds the emissions and then
    alpha; callers bound it by grouping the sequences (``batch_groups``).
    """
    dim = stack.emissions.dim
    seqs = [_check_obs(s, dim) for s in sequences]
    lengths = np.array([len(s) for s in seqs])
    with np.errstate(divide="ignore"):
        log_b = _padded_emissions(
            stack.emissions, stack.shape, np.concatenate(seqs), lengths, _layout(lengths)
        )
        log_alpha = _forward(stack.log_pi[..., None], stack.log_a[..., None], log_b, out=log_b)
        return _termination(log_alpha, lengths)


def log_likelihood(model: HmmModel, obs: np.ndarray) -> float:
    return log_forward(model, obs)[0]


# --- initialization ---------------------------------------------------------------

def _pairwise_sq_dist(
    norms: np.ndarray, doubled: np.ndarray, centroids: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Squared distances of n points to k centroids, written into ``out`` (n, k).

    ``norms`` is ``np.sum(points * points, axis=1)`` and ``doubled`` is
    ``2.0 * points``, both taken once per k-means. Each entry is
    max(norm - (2 x) . c + |c|^2, 0), added in that order.
    """
    np.matmul(doubled, centroids.T, out=out)
    np.subtract(norms[:, None], out, out=out)
    out += np.sum(centroids * centroids, axis=1)[None, :]
    return np.maximum(out, 0.0, out=out)


def _choice_index(rng: np.random.Generator, p: np.ndarray) -> int:
    """``int(rng.choice(len(p), p=p))`` by the sampler ``choice`` runs, without its checks.

    A cumulative sum scaled by its last entry, searched with one ``random()``:
    the same index, and the same draws from ``rng``.
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp_seed(
    points: np.ndarray, norms: np.ndarray, doubled: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    column = np.empty((n, 1))
    min_d2 = _pairwise_sq_dist(norms, doubled, centroids[:1], column)[:, 0].copy()
    for j in range(1, k):
        total = min_d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = _choice_index(rng, min_d2 / total)
        centroids[j] = points[idx]
        np.minimum(
            min_d2, _pairwise_sq_dist(norms, doubled, centroids[j : j + 1], column)[:, 0], out=min_d2
        )
    return centroids


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator, n_iter: int = 10):
    """Seeded Lloyd iterations; empty clusters reseed to the worst-fit point.

    k-means++ seeding draws each next centroid with the sampler that
    ``Generator.choice(n, p=...)`` runs internally (a scaled cumulative sum
    searched with one ``random()``), so the picks and the generator's state
    are those of ``choice``. One call holds one (n, k) distance table, which
    every Lloyd step refills in place, and one (n, 1) column for seeding.
    """
    n = len(points)
    norms = np.sum(points * points, axis=1)
    doubled = 2.0 * points
    if n >= k:
        centroids = _kmeans_pp_seed(points, norms, doubled, k, rng)
    else:
        spread = points.std(axis=0) + 1e-6
        centroids = points[np.arange(k) % n] + 1e-3 * spread * rng.standard_normal(
            (k, points.shape[1])
        )
    d2 = np.empty((n, k))
    for _ in range(n_iter):
        assign = np.argmin(_pairwise_sq_dist(norms, doubled, centroids, d2), axis=1)
        counts = np.bincount(assign, minlength=k)
        # each cluster's points summed in input order, as .mean does
        sums = np.stack(
            [np.bincount(assign, weights=column, minlength=k) for column in points.T], axis=1
        )
        filled = counts > 0
        new_centroids = np.empty_like(centroids)
        new_centroids[filled] = sums[filled] / counts[filled, None]
        if not filled.all():
            new_centroids[~filled] = points[np.argmax(d2[np.arange(n), assign])]
        if np.array_equal(new_centroids, centroids):
            break
        centroids = new_centroids
    assign = np.argmin(_pairwise_sq_dist(norms, doubled, centroids, d2), axis=1)
    return centroids, assign


def init_model(
    sequences: list[np.ndarray],
    n_states: int,
    n_mixtures: int,
    seed: int = 0,
) -> HmmModel:
    """Deterministic starting model: k-means clusters dealt to states in blocks.

    Pooled frames are clustered into n_states * n_mixtures groups (k-means++
    seeding from ``seed``, whose picks are ``Generator.choice``'s own draw for
    draw; the k-means holds one (n, k) distance table per call). Clusters are
    ordered by centroid coordinate sum and assigned to states contiguously;
    a cluster's members are read as one slice of the frames sorted stably by
    cluster, in their pooled order. Start and transition distributions begin
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
    sizes = np.bincount(assign, minlength=k)
    starts = np.cumsum(sizes) - sizes
    grouped = points[np.argsort(assign, kind="stable")]  # cluster by cluster, in pooled order

    # one cluster at a time, so that each keeps the two-pass arithmetic of .var
    variances = np.empty_like(centroids)
    for row, c in enumerate(order):
        if sizes[c] >= 2:
            members = grouped[starts[c] : starts[c] + sizes[c]]
            variances[row] = np.maximum(members.var(axis=0), VARIANCE_FLOOR)
        else:
            variances[row] = global_var

    counts = sizes[order].reshape(n_states, n_mixtures).astype(np.float64)
    totals = counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        weights = np.where(totals > 0, counts / totals, 1.0 / n_mixtures)
    return _model(
        np.full(n_states, 1.0 / n_states),
        np.full((n_states, n_states), 1.0 / n_states),
        _floor_rows(weights, WEIGHT_FLOOR),
        centroids[order].reshape(n_states, n_mixtures, -1),
        variances.reshape(n_states, n_mixtures, -1),
    )


def _model(pi, transitions, weights, means, variances) -> HmmModel:
    """The validated model of weights (N, M), means and variances (N, M, D); states hold views."""
    states = [GaussianMixture(*state) for state in zip(weights, means, variances)]
    model = HmmModel(pi=pi, transitions=transitions, states=states)
    model.validate()
    return model


def _floor_rows(p: np.ndarray, floor: float) -> np.ndarray:
    """Rows (last axis) with an entry below ``floor`` raised to it, renormalized; others as given."""
    raised = np.maximum(p, floor)
    binds = np.any(p < floor, axis=-1, keepdims=True)
    return np.where(binds, raised / raised.sum(axis=-1, keepdims=True), p)


# --- training ---------------------------------------------------------------------

@dataclass
class TrainingResult:
    model: HmmModel
    log_likelihoods: list[float]
    converged: bool


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

    The responsibilities (N, M, F) and transition posteriors (F - S, N, N)
    of every group are views of two working buffers, each sized for its
    largest group (the responsibilities' in whole blocks of the emission
    kernel). A group's frames and layout are rebuilt in each iteration, so
    that EM's peak memory does not grow with the number of sequences, and
    its frames are checked for finiteness there, once per batched pass.
    """
    model.validate()
    obs_list = [_check_obs(s, model.dim) for s in sequences]
    if not obs_list:
        raise TrainingError("no training sequences")

    n, m, d = model.n_states, model.n_mixtures, model.dim
    # a frame's component responsibilities and transition posteriors outweigh
    # its emission, forward and backward cells; d counts the frame itself
    groups = list(batch_groups(obs_list, lambda obs: (len(obs),), (n * (m + n) + d,)))
    group_frames = [sum(map(len, group)) for group in groups]
    resp_buffer = np.empty(n * m * -(-max(group_frames) // _BLOCK) * _BLOCK)
    xi_buffer = np.empty(n * n * max(f - len(g) for f, g in zip(group_frames, groups)))
    history: list[float] = []
    converged = False

    for iteration in range(max_iterations):
        stack = HmmStack([model])
        pi_table, a_table = stack.log_pi[..., None], stack.log_a[..., None]
        log_a = stack.log_a[..., 0]

        pi_acc = np.zeros(n)
        xi_acc = np.zeros((n, n))
        comp_acc = np.zeros((n, m))
        mean_acc = np.zeros((n, m, d))
        sq_acc = np.zeros((n, m, d))
        total_ll = 0.0

        first = 0  # index of the group's first sequence
        with np.errstate(divide="ignore"):
            for group, n_frames in zip(groups, group_frames):
                lengths = np.array([len(obs) for obs in group])
                frames = np.concatenate(group)
                owner, position = _layout(lengths)
                padded = resp_buffer[: n * m * -(-n_frames // _BLOCK) * _BLOCK].reshape(n, m, -1)
                log_b = _padded_emissions(
                    stack.emissions, stack.shape, frames, lengths, (owner, position), out=padded
                )
                comp_log = padded[..., :n_frames]
                log_alpha = _forward(pi_table, a_table, log_b)
                lls = _termination(log_alpha, lengths)[:, 0]
                bad = np.flatnonzero(~np.isfinite(lls))
                if len(bad):
                    k = bad[0]
                    raise TrainingError(
                        f"sequence {first + k}: non-finite log-likelihood {float(lls[k])} "
                        f"(length {lengths[k]}) at iteration {iteration}"
                    )
                # the same left-to-right sum as adding one sequence at a time
                total_ll = float(np.add.accumulate(np.concatenate(([total_ll], lls)))[-1])
                log_beta = _backward(a_table, log_b, lengths)

                # from here on only real frames, in concatenation order
                log_alpha, log_beta, log_b = (
                    x[position, :, 0, owner] for x in (log_alpha, log_beta, log_b)
                )
                frame_ll = lls[owner, None]
                log_gamma = log_alpha + log_beta - frame_ll               # (F, N)
                pi_acc += np.exp(log_gamma[position == 0]).sum(axis=0)
                src = np.flatnonzero(position[1:])     # frames whose successor is in their sequence
                xi = xi_buffer[: len(src) * n * n].reshape(len(src), n, n)
                np.add(log_alpha[src, :, None], log_a, out=xi)
                xi += (log_b + log_beta)[src + 1, None, :]
                xi -= frame_ll[src, :, None]
                xi_acc += np.exp(xi, out=xi).sum(axis=0)
                comp_log += log_gamma.T[:, None, :]                     # responsibilities, in place
                comp_log -= log_b.T[:, None, :]
                resp = np.exp(comp_log, out=comp_log)                   # (N, M, F)
                comp_acc += resp.sum(axis=2)
                resp = resp.reshape(n * m, n_frames)
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
    """The M-step over every state and component at once, from EM's accumulators.

    A transition row, state or component with no responsibility keeps its old parameters.
    """
    xi_total = xi_acc.sum(axis=1, keepdims=True)
    comp_total = comp_acc.sum(axis=1, keepdims=True)
    occ = comp_acc[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        transitions = _floor_rows(xi_acc / xi_total, TRANSITION_FLOOR)
        weights = _floor_rows(comp_acc / comp_total, WEIGHT_FLOOR)
        means = mean_acc / occ
        variances = np.maximum(sq_acc / occ - means * means, VARIANCE_FLOOR)
    states = model.states
    return _model(
        _floor_rows(pi_acc / n_sequences, TRANSITION_FLOOR),
        np.where(xi_total > 0, transitions, model.transitions),
        np.where(comp_total > 0, weights, np.stack([s.weights for s in states])),
        np.where(occ > 0, means, np.stack([s.means for s in states])),
        np.where(occ > 0, variances, np.stack([s.variances for s in states])),
    )


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
    if min(n, m, d) < 1:
        raise ModelFormatError(f"bad shape line: {tokens}")

    def floats(tokens: list[str], count: int) -> np.ndarray:
        if len(tokens) != count:
            raise ModelFormatError(f"expected {count} numbers, got {len(tokens)}")
        try:
            return np.array([float(t) for t in tokens])
        except ValueError as exc:
            raise ModelFormatError(str(exc)) from exc

    pi = floats(take("pi"), n)
    transitions = np.stack([floats(take(f"A {i}"), n) for i in range(n)])
    weights, means, variances = np.empty((n, m)), np.empty((n, m, d)), np.empty((n, m, d))
    for j in range(n):
        weights[j] = floats(take(f"state {j} weights"), m)
        for k in range(m):
            means[j, k] = floats(take(f"state {j} mean {k}"), d)
            variances[j, k] = floats(take(f"state {j} var {k}"), d)
    leftover = list(it)
    if leftover:
        raise ModelFormatError(f"{len(leftover)} trailing line(s) in model file")

    try:
        return _model(pi, transitions, weights, means, variances)
    except ModelError as exc:
        raise ModelFormatError(f"deserialized model invalid: {exc}") from exc

