"""Pitch and energy contour features aggregated over multi-frame blocks.

A small observation stream summarizes prosody: per frame, fundamental
frequency and log energy; frames are then grouped into fixed-size blocks and
each block yields a 4-dimensional vector

    [mean voiced f0, f0 range, mean log energy, voiced fraction]

suitable for a coarser HMM than the spectral stream.

Pitch is picked from the normalized autocorrelation inside a plausible pitch
range, the autocorrelation method of Rabiner & Schafer, *Digital Processing
of Speech Signals* (1978), ch. 4. The autocorrelation of every lag comes from
one power spectrum per frame (the Wiener-Khinchin relation), as in Boersma,
"Accurate short-term analysis of the fundamental frequency and the
harmonics-to-noise ratio of a sampled sound", IFA Proc. 17 (1993); a
waveform's frames go through the FFT a fixed-size slice at a time.
"""

from dataclasses import dataclass

import numpy as np

from .dsp import DspError, frame_geometry, frame_signal

ENERGY_FLOOR = 1e-10

# Frames per FFT slice of the pitch tracker: bounds the (frames, n_fft)
# spectrum and correlation temporaries, so the working set does not grow
# with the length of the utterance.
_SLICE_FRAMES = 256


@dataclass(frozen=True)
class PitchTrackerConfig:
    f_min: float = 75.0
    f_max: float = 400.0
    voicing_threshold: float = 0.3

    def lag_bounds(self, sample_rate: int, frame_length: int) -> tuple[int, int]:
        """Inclusive autocorrelation lag range searched for a pitch peak."""
        lag_min = int(np.ceil(sample_rate / self.f_max))
        lag_max = min(int(np.floor(sample_rate / self.f_min)), frame_length - 1)
        if lag_min < 1 or lag_min > lag_max:
            raise DspError(
                f"frame of {frame_length} samples too short for pitch range"
                f" [{self.f_min}, {self.f_max}] Hz at {sample_rate} Hz"
            )
        return lag_min, lag_max


def _autocorrelation_scores(frames: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Normalized autocorrelation (frames, lags) of mean-removed frames.

    r(k) = sum_t x_t x_{t+k} for every lag at once from the power spectrum
    (Wiener-Khinchin): irfft(|rfft(x, n_fft)|^2) with n_fft >= n + the
    largest lag, so that no lag wraps around. Each r(k) is divided by
    sqrt(e_head(k) * e_tail(k)), the energies of the two overlapping
    segments, which keeps the score in [-1, 1]; lags where either segment is
    silent score 0. A frame whose samples are all equal is set to exact
    zeros, so it scores 0 even where its computed mean is inexact and
    subtracting it would leave a tiny constant that correlates at every lag.
    """
    flat = frames.max(axis=1) == frames.min(axis=1)
    frames = frames - frames.mean(axis=1, keepdims=True)
    frames[flat] = 0.0
    n = frames.shape[1]
    n_fft = 1 << int(n + lags[-1] - 1).bit_length()
    spectrum = np.fft.rfft(frames, n=n_fft, axis=1)
    power = spectrum.real * spectrum.real + spectrum.imag * spectrum.imag
    corr = np.fft.irfft(power, n=n_fft, axis=1)[:, lags]
    csum = np.zeros((len(frames), n + 1))
    np.cumsum(frames * frames, axis=1, out=csum[:, 1:])
    head = csum[:, n - lags]
    tail = csum[:, n : n + 1] - csum[:, lags]
    denom = np.sqrt(head * tail)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(denom > 0.0, corr / denom, 0.0)


def _pitch_decisions(
    score: np.ndarray, lags: np.ndarray, sample_rate: int, voicing_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """(f0, voiced) per row of a (frames, lags) score table.

    A row is voiced when its best score reaches the threshold. Its f0 comes
    from the shortest lag that is a local peak (at least both neighbours,
    with -inf beyond the ends) and scores at least 0.9 times the best.
    """
    best = score.max(axis=1, keepdims=True)
    voiced = best[:, 0] >= voicing_threshold
    padded = np.full((score.shape[0], score.shape[1] + 2), -np.inf)
    padded[:, 1:-1] = score
    is_peak = (score >= padded[:, :-2]) & (score >= padded[:, 2:])
    first = np.argmax(is_peak & (score >= 0.9 * best), axis=1)
    f0 = np.where(voiced, sample_rate / lags[first].astype(np.float64), 0.0)
    return f0, voiced


def _f0_rows(
    frames: np.ndarray, sample_rate: int, config: PitchTrackerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(f0, voiced) for every row of a (frames, n) array."""
    lag_min, lag_max = config.lag_bounds(sample_rate, frames.shape[1])
    lags = np.arange(lag_min, lag_max + 1)
    score = _autocorrelation_scores(frames, lags)
    return _pitch_decisions(score, lags, sample_rate, config.voicing_threshold)


def estimate_f0(
    frame: np.ndarray, sample_rate: int, config: PitchTrackerConfig = PitchTrackerConfig()
) -> tuple[float, bool]:
    """Estimate (f0_hz, voiced) for one frame: the one-row case of the track.

    The normalized autocorrelation r(k) / sqrt(e0 * e_k) is evaluated for lags
    inside the configured pitch range (e_k is the energy of the lag-k-shifted
    segment, so the score stays in [-1, 1]), all lags at once from the
    frame's power spectrum; the frame is voiced when the best peak reaches
    the voicing threshold. Among lags scoring within 90% of the best peak the
    shortest wins, which suppresses period-doubling errors at multiples of
    the true lag. Unvoiced frames report f0 = 0.
    """
    frame = np.asarray(frame, dtype=np.float64)
    f0, voiced = _f0_rows(frame[None, :], sample_rate, config)
    return float(f0[0]), bool(voiced[0])


def frame_log_energy(frames: np.ndarray) -> np.ndarray:
    """10*log10 of mean squared amplitude per frame, floored at 1e-10."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    mean_sq = np.mean(frames * frames, axis=1)
    return 10.0 * np.log10(np.maximum(mean_sq, ENERGY_FLOOR))


def pitch_energy_track(
    samples: np.ndarray,
    sample_rate: int,
    *,
    window_ms: float = 30.0,
    hop_ms: float = 5.0,
    config: PitchTrackerConfig = PitchTrackerConfig(),
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame (f0, voiced, log_energy) arrays for a waveform.

    Frames are analyzed ``_SLICE_FRAMES`` at a time, so the FFT temporaries
    stay the same size however long the waveform is.
    """
    frames = frame_signal(samples, *frame_geometry(sample_rate, window_ms, hop_ms))
    f0 = np.empty(len(frames))
    voiced = np.empty(len(frames), dtype=bool)
    log_energy = np.empty(len(frames))
    for lo in range(0, len(frames), _SLICE_FRAMES):
        part = slice(lo, lo + _SLICE_FRAMES)
        f0[part], voiced[part] = _f0_rows(frames[part], sample_rate, config)
        log_energy[part] = frame_log_energy(frames[part])
    return f0, voiced, log_energy


def aggregate_blocks(
    f0: np.ndarray, voiced: np.ndarray, log_energy: np.ndarray, block_size: int = 9
) -> np.ndarray:
    """Fold frame tracks into (n_blocks, 4) vectors; the last block may be short.

    Columns: mean f0 over voiced frames (0 if none), f0 range over voiced
    frames, mean log energy, fraction of voiced frames.
    """
    f0 = np.asarray(f0, dtype=np.float64)
    voiced = np.asarray(voiced, dtype=bool)
    log_energy = np.asarray(log_energy, dtype=np.float64)
    if not (f0.shape == voiced.shape == log_energy.shape) or f0.ndim != 1:
        raise DspError("f0, voiced, log_energy must be equal-length 1-D arrays")
    if f0.size == 0:
        raise DspError("empty frame track")
    if block_size < 1:
        raise DspError("block_size must be >= 1")

    n_blocks = -(-f0.size // block_size)
    out = np.zeros((n_blocks, 4))
    for b in range(n_blocks):
        sl = slice(b * block_size, min((b + 1) * block_size, f0.size))
        v = voiced[sl]
        if v.any():
            voiced_f0 = f0[sl][v]
            out[b, 0] = voiced_f0.mean()
            out[b, 1] = voiced_f0.max() - voiced_f0.min()
        out[b, 2] = log_energy[sl].mean()
        out[b, 3] = v.mean()
    return out


def suprasegmental_sequence(
    samples: np.ndarray,
    sample_rate: int,
    *,
    window_ms: float = 30.0,
    hop_ms: float = 5.0,
    block_size: int = 9,
    config: PitchTrackerConfig = PitchTrackerConfig(),
) -> np.ndarray:
    """Waveform -> (n_blocks, 4) prosodic observation sequence."""
    f0, voiced, energy = pitch_energy_track(
        samples, sample_rate, window_ms=window_ms, hop_ms=hop_ms, config=config
    )
    return aggregate_blocks(f0, voiced, energy, block_size)
