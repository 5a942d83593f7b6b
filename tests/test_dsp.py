import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emospeaker.dsp import (
    DspError,
    build_log_filterbank,
    filterbank_energies,
    frame_signal,
    hamming_window,
    lfpc,
    lfpc_sequence,
    power_spectrum,
)
from helpers import direct_band_power, naive_frame_slices, traced_peak


class TestFraming:
    def test_hand_example(self):
        frames = frame_signal(np.arange(10.0), frame_length=4, hop=3)
        # starts at 0, 3, 6; start 9 would overrun
        assert frames.shape == (3, 4)
        assert np.array_equal(frames[1], [3.0, 4.0, 5.0, 6.0])

    def test_one_second_at_16k(self):
        frames = frame_signal(np.zeros(16000), frame_length=480, hop=80)
        assert frames.shape == (195, 480)

    @given(
        n=st.integers(1, 4000),
        frame_length=st.integers(1, 600),
        hop=st.integers(1, 300),
    )
    @settings(max_examples=80, deadline=None)
    def test_count_formula_and_content(self, n, frame_length, hop):
        signal = np.arange(n, dtype=float)
        if n < frame_length:
            with pytest.raises(DspError):
                frame_signal(signal, frame_length, hop)
            return
        frames = frame_signal(signal, frame_length, hop)
        expected = (n - frame_length) // hop + 1
        assert frames.shape == (expected, frame_length)
        naive = naive_frame_slices(signal, frame_length, hop)
        assert len(naive) == expected
        assert np.array_equal(frames, np.stack(naive))
        assert frames.flags.c_contiguous and frames.flags.writeable

    def test_frames_are_a_copy(self):
        signal = np.arange(10.0)
        frame_signal(signal, frame_length=4, hop=3)[0, 0] = -1.0
        assert signal[0] == 0.0

    def test_working_set_is_the_frames(self):
        # no (n_frames, frame_length) index array beside the frames: 60 s at
        # 16 kHz gives 43.9 MiB of frames, and int64 offsets as many again
        signal = np.random.default_rng(4).standard_normal(60 * 16000)
        frames_bytes = ((signal.size - 480) // 80 + 1) * 480 * 8
        peak = traced_peak(lambda: frame_signal(signal, 480, 80))
        assert peak <= 1.1 * frames_bytes

    def test_rejects_bad_args(self):
        with pytest.raises(DspError):
            frame_signal(np.zeros((4, 4)), 2, 1)
        with pytest.raises(DspError):
            frame_signal(np.zeros(10), 4, 0)
        with pytest.raises(DspError):
            frame_signal(np.zeros(10), 0, 2)


class TestHamming:
    def test_formula(self):
        n = 480
        window = hamming_window(n)
        k = np.arange(n)
        assert np.allclose(window, 0.54 - 0.46 * np.cos(2 * np.pi * k / (n - 1)))

    def test_endpoints_and_symmetry(self):
        window = hamming_window(101)
        assert window[0] == pytest.approx(0.08)
        assert window[-1] == pytest.approx(0.08)
        assert window[50] == pytest.approx(1.0)
        assert np.allclose(window, window[::-1])

    def test_degenerate_lengths(self):
        assert np.array_equal(hamming_window(1), [1.0])
        with pytest.raises(DspError):
            hamming_window(0)


class TestPowerSpectrum:
    def test_matches_direct_dft(self):
        rng = np.random.default_rng(4)
        frame = rng.standard_normal(64)
        power = power_spectrum(frame, n_fft=64)[0]
        k = np.arange(64)
        for b in (0, 1, 17, 32):
            direct = np.sum(frame * np.exp(-2j * np.pi * b * k / 64))
            assert power[b] == pytest.approx(abs(direct) ** 2, rel=1e-10)

    def test_parseval_total_energy(self):
        rng = np.random.default_rng(5)
        frame = rng.standard_normal(128)
        power = power_spectrum(frame, n_fft=128)[0]
        # one-sided spectrum: double every bin except DC and Nyquist
        total = power[0] + power[-1] + 2.0 * power[1:-1].sum()
        assert total == pytest.approx(128 * np.sum(frame**2), rel=1e-12)

    def test_frame_longer_than_fft_rejected(self):
        with pytest.raises(DspError):
            power_spectrum(np.zeros(520), n_fft=512)


class TestFilterbank:
    def test_geometric_spacing(self):
        bank = build_log_filterbank(16000, 512, n_bands=16, f_low=100.0, f_high=8000.0)
        ratio = (8000.0 / 100.0) ** (1.0 / 16.0)
        assert np.allclose(bank.bandwidth_hz[1:] / bank.bandwidth_hz[:-1], ratio)
        assert np.allclose(bank.center_hz[1:] / bank.center_hz[:-1], ratio)
        assert bank.bandwidth_hz[0] == pytest.approx(100.0 * (ratio - 1.0))

    def test_bands_tile_contiguously(self):
        bank = build_log_filterbank(16000, 512)
        assert np.all(bank.bin_lo[1:] == bank.bin_hi[:-1] + 1)
        assert np.all(bank.bin_hi >= bank.bin_lo)
        assert bank.n_bands == 16

    def test_known_bin_edges(self):
        bank = build_log_filterbank(16000, 512)
        assert bank.bin_lo[0] == 3
        assert bank.bin_hi[-1] == 256  # 8 kHz = Nyquist bin

    def test_too_small_fft_rejected(self):
        with pytest.raises(DspError):
            build_log_filterbank(16000, 64)

    def test_band_above_nyquist_rejected(self):
        with pytest.raises(DspError):
            build_log_filterbank(16000, 512, f_high=9000.0)
        with pytest.raises(DspError):
            build_log_filterbank(16000, 512, f_low=0.0)


class TestBandEnergies:
    def test_matches_direct_summation(self):
        bank = build_log_filterbank(16000, 512)
        rng = np.random.default_rng(12)
        power = rng.uniform(0.0, 5.0, (20, 257))
        energies = filterbank_energies(power, bank)
        for t in (0, 7, 19):
            for m in range(bank.n_bands):
                direct = direct_band_power(power[t], bank.bin_lo[m], bank.bin_hi[m])
                assert energies[t, m] == pytest.approx(direct, rel=1e-12)

    def test_total_conserves_in_range_power(self):
        bank = build_log_filterbank(16000, 512)
        rng = np.random.default_rng(13)
        power = rng.uniform(0.0, 3.0, (50, 257))
        energies = filterbank_energies(power, bank)
        in_range = power[:, bank.bin_lo[0] : bank.bin_hi[-1] + 1].sum(axis=1)
        assert np.allclose(energies.sum(axis=1), in_range, rtol=1e-9, atol=0)

    def test_wrong_bin_count_rejected(self):
        bank = build_log_filterbank(16000, 512)
        with pytest.raises(DspError):
            filterbank_energies(np.zeros((3, 100)), bank)


class TestLfpc:
    def test_bandwidth_normalization_and_db(self):
        bank = build_log_filterbank(16000, 512)
        # energy equal to the band width -> normalized power 1 -> 0 dB
        energies = np.tile(bank.bandwidth_hz, (2, 1))
        assert np.allclose(lfpc(energies, bank), 0.0)

    def test_floor_on_silence(self):
        bank = build_log_filterbank(16000, 512)
        out = lfpc(np.zeros((1, 16)), bank)
        assert np.allclose(out, -100.0)  # 10*log10(1e-10)

    def test_scaling_adds_decibels(self):
        bank = build_log_filterbank(16000, 512)
        energies = np.full((1, 16), 1000.0)
        low = lfpc(energies, bank)
        high = lfpc(energies * 100.0, bank)
        assert np.allclose(high - low, 20.0)


class TestLfpcSequence:
    def test_shape_and_finiteness(self):
        rng = np.random.default_rng(3)
        seq = lfpc_sequence(rng.standard_normal(16000) * 100, 16000)
        assert seq.shape == (195, 16)
        assert np.all(np.isfinite(seq))

    def test_narrowband_tone_concentrates_in_one_band(self):
        sr = 16000
        t = np.arange(sr) / sr
        tone = 1000.0 * np.sin(2 * np.pi * 1000.0 * t)
        seq = lfpc_sequence(tone, sr)
        bank = build_log_filterbank(sr, 512)
        hot = int(np.argmax(seq.mean(axis=0)))
        lo_hz = bank.center_hz[hot] - bank.bandwidth_hz[hot]
        hi_hz = bank.center_hz[hot] + bank.bandwidth_hz[hot]
        assert lo_hz <= 1000.0 <= hi_hz
