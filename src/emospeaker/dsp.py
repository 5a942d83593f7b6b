"""Short-time analysis and log-frequency power coefficients (LFPC).

The front end frames a waveform (30 ms window, 5 ms hop by default), applies a
Hamming window, and measures band powers through a bank of 16 rectangular
filters whose edges grow geometrically between 100 Hz and 8 kHz, i.e. constant
bandwidth on a log-frequency axis. Band power is normalized by bandwidth and
expressed in dB:

    LFPC_t(m) = 10 * log10(S_t(m) / B_m)

with S_t(m) the sum of squared magnitude-spectrum samples inside band m and
B_m the band's width in Hz.
"""

from dataclasses import dataclass

import numpy as np

POWER_FLOOR = 1e-10


class DspError(ValueError):
    pass


def frame_geometry(
    sample_rate: int, window_ms: float = 30.0, hop_ms: float = 5.0
) -> tuple[int, int]:
    """(frame length, hop) in samples of a ``window_ms`` window every ``hop_ms``.

    At 16 kHz the defaults give a 480-sample window with an 80-sample hop.
    """
    return int(round(sample_rate * window_ms / 1000.0)), int(round(sample_rate * hop_ms / 1000.0))


def frame_signal(samples: np.ndarray, frame_length: int, hop: int) -> np.ndarray:
    """Slice a 1-D signal into overlapping frames, dropping any tail remainder.

    Returns a new C-contiguous array of shape (n_frames, frame_length) where
    n_frames = floor((len(samples) - frame_length) / hop) + 1.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise DspError("expected a 1-D signal")
    if frame_length <= 0 or hop <= 0:
        raise DspError("frame_length and hop must be positive")
    if samples.size < frame_length:
        raise DspError(
            f"signal of {samples.size} samples shorter than one frame ({frame_length})"
        )
    windows = np.lib.stride_tricks.sliding_window_view(samples, frame_length)
    return windows[::hop].copy()


def hamming_window(length: int) -> np.ndarray:
    """Hamming taper 0.54 - 0.46 cos(2 pi n / (N - 1))."""
    if length < 1:
        raise DspError("window length must be >= 1")
    if length == 1:
        return np.ones(1)
    n = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (length - 1))


def power_spectrum(frames: np.ndarray, n_fft: int) -> np.ndarray:
    """Squared magnitude of the one-sided DFT, shape (n_frames, n_fft // 2 + 1)."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if frames.shape[1] > n_fft:
        raise DspError(f"frame length {frames.shape[1]} exceeds n_fft {n_fft}")
    spectrum = np.fft.rfft(frames, n=n_fft, axis=1)
    return np.abs(spectrum) ** 2


@dataclass(frozen=True)
class LogFilterbank:
    """Bank of contiguous rectangular bands, geometric on the frequency axis.

    ``bin_lo``/``bin_hi`` are inclusive DFT bin indices per band. ``center_hz``
    and ``bandwidth_hz`` keep the exact (pre-quantization) band geometry: with
    edges f_low * ratio**i the centers grow by the constant factor ``ratio``
    and so do the bandwidths.
    """

    sample_rate: int
    n_fft: int
    bin_lo: np.ndarray
    bin_hi: np.ndarray
    center_hz: np.ndarray
    bandwidth_hz: np.ndarray

    @property
    def n_bands(self) -> int:
        return len(self.bin_lo)


def build_log_filterbank(
    sample_rate: int,
    n_fft: int,
    n_bands: int = 16,
    f_low: float = 100.0,
    f_high: float = 8000.0,
) -> LogFilterbank:
    """Construct the geometric band edges and their DFT-bin quantization.

    Edge i sits at f_low * (f_high / f_low)**(i / n_bands). Edges are rounded
    to the nearest DFT bin; band m then covers bins [edge_m, edge_{m+1}] with
    the lower edge of every band after the first shifted up by one bin so the
    bands tile the axis without overlap.
    """
    if not 0 < f_low < f_high:
        raise DspError("need 0 < f_low < f_high")
    if f_high > sample_rate / 2:
        raise DspError(f"f_high {f_high} above Nyquist {sample_rate / 2}")
    if n_bands < 1:
        raise DspError("need at least one band")

    ratio = (f_high / f_low) ** (1.0 / n_bands)
    edges_hz = f_low * ratio ** np.arange(n_bands + 1)
    bin_width = sample_rate / n_fft
    edge_bins = np.rint(edges_hz / bin_width).astype(int)
    if np.any(np.diff(edge_bins) < 1):
        raise DspError(
            f"n_fft {n_fft} too small: adjacent band edges quantize to the same bin"
        )
    bin_lo = edge_bins[:-1].copy()
    bin_lo[1:] += 1
    bin_hi = edge_bins[1:]

    centers = 0.5 * (edges_hz[:-1] + edges_hz[1:])
    bandwidths = np.diff(edges_hz)
    return LogFilterbank(
        sample_rate=sample_rate,
        n_fft=n_fft,
        bin_lo=bin_lo,
        bin_hi=bin_hi,
        center_hz=centers,
        bandwidth_hz=bandwidths,
    )


def filterbank_energies(power: np.ndarray, bank: LogFilterbank) -> np.ndarray:
    """Sum spectral power inside each band: shape (n_frames, n_bands)."""
    power = np.atleast_2d(np.asarray(power, dtype=np.float64))
    n_bins = bank.n_fft // 2 + 1
    if power.shape[1] != n_bins:
        raise DspError(f"expected {n_bins} spectral bins, got {power.shape[1]}")
    # cumulative sum turns each band's inclusive bin range into a difference
    csum = np.concatenate(
        [np.zeros((power.shape[0], 1)), np.cumsum(power, axis=1)], axis=1
    )
    return csum[:, bank.bin_hi + 1] - csum[:, bank.bin_lo]


def lfpc(energies: np.ndarray, bank: LogFilterbank) -> np.ndarray:
    """Bandwidth-normalized band power in dB, floored at 10*log10(1e-10)."""
    energies = np.atleast_2d(np.asarray(energies, dtype=np.float64))
    normalized = energies / bank.bandwidth_hz[None, :]
    return 10.0 * np.log10(np.maximum(normalized, POWER_FLOOR))


def lfpc_sequence(
    samples: np.ndarray,
    sample_rate: int,
    *,
    window_ms: float = 30.0,
    hop_ms: float = 5.0,
    n_fft: int = 512,
    n_bands: int = 16,
    f_low: float = 100.0,
    f_high: float = 8000.0,
) -> np.ndarray:
    """Full front end: frames -> Hamming -> power spectrum -> banded dB power.

    Returns (n_frames, n_bands) float64, framed by ``frame_geometry``.
    """
    frame_length, hop = frame_geometry(sample_rate, window_ms, hop_ms)
    bank = build_log_filterbank(sample_rate, n_fft, n_bands, f_low, f_high)
    frames = frame_signal(samples, frame_length, hop)
    windowed = frames * hamming_window(frame_length)[None, :]
    power = power_spectrum(windowed, n_fft)
    return lfpc(filterbank_energies(power, bank), bank)
