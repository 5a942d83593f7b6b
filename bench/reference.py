"""Reference computations the benchmark checks the package against.

Written apart from the package on purpose: nothing here imports emospeaker,
and each routine is the plain textbook form, loops included, so that a fast
rewrite of the package cannot share a mistake with its referee.

* :func:`forward_log_likelihood` - scaled forward recursion (Rabiner 1989,
  section V-A) over per-frame max-shifted emission densities.
* :func:`lfpc_rows` - framing, Hamming window, ``rfft`` power spectrum and
  geometric band sums by explicit loop.
* :func:`read_wav` and :func:`feature_file_shape` / :func:`read_feature_rows`
  read the two on-disk formats with the standard library.
"""

import math
import struct
import wave

import numpy as np


def _log_sum_exp(values: np.ndarray) -> float:
    top = float(np.max(values))
    if top == -math.inf:
        return -math.inf
    return top + math.log(float(np.sum(np.exp(values - top))))


def state_log_densities(model, obs: np.ndarray) -> np.ndarray:
    """log b_j(o_t) for every frame and state, (T, N), one component at a time.

    ``model`` needs ``states`` with ``weights`` (M,), ``means`` (M, D) and
    ``variances`` (M, D), as the package's HMMs have.
    """
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    log_b = np.empty((obs.shape[0], len(model.states)))
    for j, state in enumerate(model.states):
        components = np.empty((obs.shape[0], len(state.weights)))
        for m, weight in enumerate(state.weights):
            var = np.asarray(state.variances[m], dtype=np.float64)
            diff = obs - np.asarray(state.means[m], dtype=np.float64)
            log_norm = -0.5 * np.sum(np.log(2.0 * math.pi * var))
            log_w = math.log(weight) if weight > 0 else -math.inf
            components[:, m] = log_w + log_norm - 0.5 * np.sum(diff * diff / var, axis=1)
        for t in range(obs.shape[0]):
            log_b[t, j] = _log_sum_exp(components[t])
    return log_b


def forward_log_likelihood(model, obs: np.ndarray) -> float:
    """log P(obs | model) by the scaled forward recursion.

    Each frame's emissions are divided by their largest value before use (the
    shift is added back in the log domain), and alpha is renormalised to sum
    to one after every frame; log P is the sum of the log scale factors.
    """
    log_b = state_log_densities(model, obs)
    pi = np.asarray(model.pi, dtype=np.float64)
    a = np.asarray(model.transitions, dtype=np.float64)
    n_states = len(pi)
    log_p = 0.0
    alpha = None
    for t in range(log_b.shape[0]):
        shift = float(np.max(log_b[t]))
        if shift == -math.inf:
            return -math.inf
        b = np.exp(log_b[t] - shift)
        if alpha is None:
            alpha = pi * b
        else:
            nxt = np.zeros(n_states)
            for j in range(n_states):
                total = 0.0
                for i in range(n_states):
                    total += alpha[i] * a[i, j]
                nxt[j] = total * b[j]
            alpha = nxt
        scale = float(np.sum(alpha))
        if scale <= 0.0:
            return -math.inf
        alpha = alpha / scale
        log_p += math.log(scale) + shift
    return log_p


def fused_argmax(scores: list[tuple[float, float, float]], alpha: float) -> int:
    """Index of the best (acoustic, prosodic, log prior) triple under fusion weight alpha.

    Ties go to the earliest index, as enrolment order decides them.
    """
    best, best_score = 0, -math.inf
    for index, (acoustic, prosodic, log_prior) in enumerate(scores):
        score = (1.0 - alpha) * (acoustic + log_prior) + alpha * (prosodic + log_prior)
        if score > best_score:
            best, best_score = index, score
    return best


def frame_count(n_samples: int, frame_length: int, hop: int) -> int:
    """floor((n - frame_length) / hop) + 1, the frames a signal of n samples yields."""
    return (n_samples - frame_length) // hop + 1


def band_bins(sample_rate: int, n_fft: int, n_bands: int, f_low: float, f_high: float):
    """Inclusive DFT-bin range and width in Hz of each geometric band.

    Edge i lies at f_low * (f_high / f_low) ** (i / n_bands), rounded to the
    nearest bin; every band after the first starts one bin above the previous
    band's upper edge, so the bands tile the axis without overlap.
    """
    edges_hz = [f_low * (f_high / f_low) ** (i / n_bands) for i in range(n_bands + 1)]
    bin_width = sample_rate / n_fft
    edge_bins = [int(round(edge / bin_width)) for edge in edges_hz]
    bands = []
    for m in range(n_bands):
        lo = edge_bins[m] + (1 if m > 0 else 0)
        bands.append((lo, edge_bins[m + 1], edges_hz[m + 1] - edges_hz[m]))
    return bands


def lfpc_rows(
    samples: np.ndarray,
    sample_rate: int,
    *,
    window_ms: float = 30.0,
    hop_ms: float = 5.0,
    n_fft: int = 512,
    n_bands: int = 16,
    f_low: float = 100.0,
    f_high: float = 8000.0,
    rows: list[int] | None = None,
) -> np.ndarray:
    """Log-frequency power coefficients, in dB, of the requested frames (default: all)."""
    samples = np.asarray(samples, dtype=np.float64)
    frame_length = int(round(sample_rate * window_ms / 1000.0))
    hop = int(round(sample_rate * hop_ms / 1000.0))
    n_frames = frame_count(len(samples), frame_length, hop)
    if rows is None:
        rows = list(range(n_frames))
    window = np.array(
        [0.54 - 0.46 * math.cos(2.0 * math.pi * n / (frame_length - 1)) for n in range(frame_length)]
    )
    bands = band_bins(sample_rate, n_fft, n_bands, f_low, f_high)
    out = np.empty((len(rows), n_bands))
    for r, t in enumerate(rows):
        frame = samples[t * hop : t * hop + frame_length] * window
        power = np.abs(np.fft.rfft(frame, n=n_fft)) ** 2
        for m, (lo, hi, width_hz) in enumerate(bands):
            total = 0.0
            for k in range(lo, hi + 1):
                total += float(power[k])
            out[r, m] = 10.0 * math.log10(max(total / width_hz, 1e-10))
    return out


def read_wav(path) -> tuple[np.ndarray, int]:
    """Samples (float64) and sample rate of a mono 16-bit PCM WAV file."""
    with wave.open(str(path), "rb") as wav:
        if wav.getnchannels() != 1 or wav.getsampwidth() != 2:
            raise ValueError(f"{path}: not mono 16-bit PCM")
        rate = wav.getframerate()
        raw = wav.readframes(wav.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64), rate


_FEATURE_HEADER = struct.Struct("<8sIII")


def feature_file_shape(path) -> tuple[int, int]:
    """(rows, columns) from a feature file's header: magic, version, rows, columns."""
    with open(path, "rb") as fh:
        magic, _version, n_rows, n_cols = _FEATURE_HEADER.unpack(fh.read(_FEATURE_HEADER.size))
    if magic != b"EMSPFEAT":
        raise ValueError(f"{path}: bad magic {magic!r}")
    return n_rows, n_cols


def read_feature_rows(path) -> np.ndarray:
    """Every row of a feature file as a float64 array."""
    n_rows, n_cols = feature_file_shape(path)
    with open(path, "rb") as fh:
        fh.seek(_FEATURE_HEADER.size)
        data = np.frombuffer(fh.read(8 * n_rows * n_cols), dtype="<f8")
    return data.reshape(n_rows, n_cols)
