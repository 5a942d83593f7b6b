import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emospeaker import prosody
from emospeaker.dsp import DspError, FrontEnd, frame_signal
from emospeaker.prosody import (
    aggregate_blocks,
    estimate_f0,
    frame_log_energy,
    lag_bounds,
    pitch_energy_track,
    suprasegmental_sequence,
)
from helpers import looped_decision, looped_f0, looped_scores, traced_peak


def tone(freq: float, sr: int = 16000, seconds: float = 1.0) -> np.ndarray:
    t = np.arange(int(sr * seconds)) / sr
    return np.sin(2 * np.pi * freq * t)


class TestPitchEstimation:
    @pytest.mark.parametrize("freq", [100.0, 160.0, 200.0, 320.0])
    def test_exact_period_tones(self, freq):
        f0, voiced = estimate_f0(tone(freq)[:480], 16000)
        assert voiced
        assert f0 == pytest.approx(freq, rel=0.01)

    def test_harmonic_rich_signal(self):
        sr = 16000
        t = np.arange(480) / sr
        voice = sum(np.exp(-h / 2.0) * np.sin(2 * np.pi * h * 125.0 * t) for h in range(1, 6))
        f0, voiced = estimate_f0(voice, sr)
        assert voiced
        assert f0 == pytest.approx(125.0, rel=0.02)

    def test_noise_is_unvoiced(self):
        frame = np.random.default_rng(8).standard_normal(480)
        f0, voiced = estimate_f0(frame, 16000)
        assert not voiced
        assert f0 == 0.0

    def test_reported_f0_confined_to_search_range(self):
        # tones outside [75, 400] Hz may read as voiced (smooth signals
        # autocorrelate everywhere) but the reported f0 must stay in range
        for freq in (20.0, 50.0, 500.0, 701.0):
            f0, voiced = estimate_f0(tone(freq)[:480], 16000)
            if voiced:
                assert 75.0 <= f0 <= 400.0

    def test_lag_bounds(self):
        lag_min, lag_max = lag_bounds(FrontEnd(), 16000, 480)
        assert lag_min == 40   # ceil(16000 / 400)
        assert lag_max == 213  # floor(16000 / 75)

    def test_frame_too_short_rejected(self):
        with pytest.raises(DspError):
            lag_bounds(FrontEnd(), 16000, 30)

    def test_silence_is_unvoiced(self):
        f0, voiced = estimate_f0(np.zeros(480), 16000)
        assert not voiced


class TestFrameEnergy:
    def test_known_values(self):
        frames = np.stack([np.zeros(100), np.ones(100)])
        energy = frame_log_energy(frames)
        assert energy[0] == pytest.approx(-100.0)  # floored
        assert energy[1] == pytest.approx(0.0)

    def test_amplitude_scaling(self):
        rng = np.random.default_rng(2)
        frame = rng.standard_normal(200)
        base = frame_log_energy(frame[None, :])[0]
        scaled = frame_log_energy(10.0 * frame[None, :])[0]
        assert scaled - base == pytest.approx(20.0)


class TestBlockAggregation:
    def test_hand_example(self):
        f0 = np.array([100.0, 110.0, 0.0, 120.0, 0.0])
        voiced = np.array([True, True, False, True, False])
        energy = np.array([-10.0, -12.0, -30.0, -8.0, -40.0])
        blocks = aggregate_blocks(f0, voiced, energy, block_size=3)
        assert blocks.shape == (2, 4)
        # block 0: voiced f0s {100, 110}
        assert blocks[0] == pytest.approx([105.0, 10.0, (-10 - 12 - 30) / 3, 2 / 3])
        # block 1 (partial): voiced f0s {120}
        assert blocks[1] == pytest.approx([120.0, 0.0, (-8 - 40) / 2, 1 / 2])

    def test_fully_unvoiced_block(self):
        blocks = aggregate_blocks(
            np.zeros(4), np.zeros(4, dtype=bool), np.full(4, -50.0), block_size=4
        )
        assert blocks[0] == pytest.approx([0.0, 0.0, -50.0, 0.0])

    @given(n=st.integers(1, 200), block=st.integers(1, 20))
    @settings(max_examples=60, deadline=None)
    def test_block_count_is_ceiling(self, n, block):
        blocks = aggregate_blocks(
            np.full(n, 150.0), np.ones(n, dtype=bool), np.zeros(n), block_size=block
        )
        assert blocks.shape == (-(-n // block), 4)

    def test_shape_validation(self):
        with pytest.raises(DspError):
            aggregate_blocks(np.zeros(3), np.zeros(4, dtype=bool), np.zeros(3))
        with pytest.raises(DspError):
            aggregate_blocks(np.zeros(0), np.zeros(0, dtype=bool), np.zeros(0))
        with pytest.raises(DspError):
            aggregate_blocks(np.zeros(3), np.zeros(3, dtype=bool), np.zeros(3), block_size=0)


class TestEndToEnd:
    def test_track_lengths_match_frames(self):
        signal = tone(160.0)
        f0, voiced, energy = pitch_energy_track(signal, 16000)
        assert len(f0) == len(voiced) == len(energy) == 195

    def test_tone_blocks(self):
        blocks = suprasegmental_sequence(tone(160.0), 16000)
        assert blocks.shape == (-(-195 // 9), 4)
        assert np.allclose(blocks[:, 0], 160.0)
        assert np.allclose(blocks[:, 1], 0.0)
        assert np.allclose(blocks[:, 3], 1.0)

    def test_alternating_voicing_summary(self):
        sr = 16000
        # 0.5 s tone then 0.5 s silence: later blocks mostly unvoiced
        signal = np.concatenate([tone(200.0, sr, 0.5), np.zeros(sr // 2)])
        blocks = suprasegmental_sequence(signal, sr)
        assert blocks[0, 3] == 1.0
        assert blocks[-1, 3] == 0.0


SR = 16000
FRAME = 480
CONFIG = FrontEnd()
LAG_MIN, LAG_MAX = lag_bounds(CONFIG, SR, FRAME)
LAGS = np.arange(LAG_MIN, LAG_MAX + 1)
SCORE_TOL = 1e-12


def voice_frame(seed, f0, amplitude, noise, onset):
    """16-bit-valued frame: silence until ``onset``, then six random harmonics of f0 plus noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(FRAME - onset) / SR
    weights = rng.uniform(0.0, 1.0, 6)
    phases = rng.uniform(0.0, 2.0 * np.pi, 6)
    voice = sum(
        w * np.sin(2.0 * np.pi * (h + 1) * f0 * t + p)
        for h, (w, p) in enumerate(zip(weights, phases))
    )
    voice = voice + noise * rng.standard_normal(t.size)
    voice = amplitude * voice / max(np.abs(voice).max(), 1e-12)
    return np.concatenate([np.zeros(onset), np.rint(voice)])


def near_tie(score, tol):
    """Whether one frame's loop scores come within ``tol`` of flipping its decision.

    That is: the best score within ``tol`` of the voicing threshold, or (when
    voiced) a score within ``tol`` of 0.9 x best, or two neighbouring scores
    within ``tol`` of each other where either could be a candidate.
    """
    best = score.max()
    if abs(best - CONFIG.voicing_threshold) <= tol:
        return True
    if best < CONFIG.voicing_threshold:
        return False
    if np.any(np.abs(score - 0.9 * best) <= tol):
        return True
    candidate = score >= 0.9 * best - tol
    flat = np.abs(np.diff(score)) <= tol
    return bool(np.any(flat & (candidate[:-1] | candidate[1:])))


def score_tolerance(frame):
    """1e-12, or the FFT's error bound on frames with a near-silent overlap.

    The FFT's error in r(k) scales with the whole frame's energy r(0), not
    with the energies of the two overlapping segments that normalize it.
    Where those are many orders below r(0), as when a near-silent stretch
    meets a loud one, the normalized error can pass 1e-12; r(k) itself stays
    within 1e-13 of r(0).
    """
    _, _, denom = looped_scores(frame, SR, CONFIG)
    centred = frame - frame.mean()
    if not np.any(denom > 0):
        return SCORE_TOL
    return max(SCORE_TOL, 1e-13 * (centred @ centred) / denom[denom > 0].min())


def compare_with_loop(frames, tolerances=None):
    """Check the batched tracker against the per-lag loop; return the frames left uncompared.

    Every normalized score agrees within its frame's tolerance (1e-12 unless
    given) and every (f0, voiced) under ==, except on frames whose loop
    scores sit within that tolerance of a tie (:func:`near_tie`): there the
    FFT's rounding may break the tie the other way, and their count is
    returned.
    """
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if tolerances is None:
        tolerances = [SCORE_TOL] * len(frames)
    got_scores = prosody._autocorrelation_scores(frames, LAGS)
    f0, voiced = prosody._f0_rows(frames, SR, CONFIG)
    uncompared = 0
    for frame, got_score, got, tol in zip(frames, got_scores, zip(f0, voiced), tolerances):
        _, score, _ = looped_scores(frame, SR, CONFIG)
        assert np.max(np.abs(got_score - score)) <= tol
        if near_tie(score, tol):
            uncompared += 1
            continue
        want = looped_decision(LAGS, score, SR, CONFIG.voicing_threshold)
        assert (float(got[0]), bool(got[1])) == want
    return uncompared


class TestBatchedTrackerMatchesLoop:
    """The FFT autocorrelation against the per-lag np.dot loop in tests/helpers.py."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        f0=st.floats(50.0, 500.0),
        amplitude=st.floats(1.0, 32767.0),
        noise=st.floats(0.0, 3.0),
        onset=st.integers(0, FRAME - 1),
    )
    # near-silent 1-bit frames: lags 75 and 76 tie exactly in the loop
    @example(seed=385, f0=423.5, amplitude=1.0, noise=0.0, onset=384)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_voice_frames(self, seed, f0, amplitude, noise, onset):
        frame = voice_frame(seed, f0, amplitude, noise, onset)
        compare_with_loop(frame, [score_tolerance(frame)])

    @given(frame=arrays(np.int16, FRAME, elements=st.integers(-32768, 32767)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_random_16_bit_frames(self, frame):
        frame = frame.astype(np.float64)
        compare_with_loop(frame, [score_tolerance(frame)])

    @pytest.mark.parametrize("level", [0.0, 1.0, -3.0, 1000.0, 32767.0, -32768.0])
    def test_silence_and_constant_frames_are_unvoiced(self, level):
        # A constant of whole-sample value has an exact mean, so the
        # mean-removed frame is all zeros and every denominator is 0.
        frame = np.full(FRAME, level)
        scores = prosody._autocorrelation_scores(frame[None, :], LAGS)
        assert not np.any(scores)
        assert estimate_f0(frame, SR) == looped_f0(frame, SR, CONFIG) == (0.0, False)

    @pytest.mark.parametrize("level", [0.1, -0.7, 1.1, 7.77, 1e-3, 3e-5])
    def test_inexact_constant_frames_are_unvoiced(self, level):
        # level * 480 is not exact in floating point, so subtracting the
        # computed mean leaves a tiny constant whose normalized scores would
        # all be 1: a flat peak read as voiced. Equal samples are zeroed.
        frame = np.full(FRAME, level)
        assert np.any(frame - frame.mean())
        scores = prosody._autocorrelation_scores(frame[None, :], LAGS)
        assert not np.any(scores)
        assert estimate_f0(frame, SR) == (0.0, False)
        assert looped_f0(frame, SR, CONFIG) == (0.0, False)
        f0, voiced, _ = pitch_energy_track(np.full(2000, level), SR)
        assert not voiced.any() and not f0.any()

    @pytest.mark.parametrize("phase", [0.0, 0.7, 2.0])
    @pytest.mark.parametrize("amplitude", [1.0, 16000.0])
    def test_tones_at_range_and_lag_bounds(self, phase, amplitude):
        freqs = [
            CONFIG.f0_min, CONFIG.f0_max,        # the range
            SR / LAG_MIN, SR / LAG_MAX,          # periods of exactly lag_min and lag_max
            SR / (LAG_MIN - 1), SR / (LAG_MAX + 1),  # one lag beyond each bound
            SR / (LAG_MIN + 0.5), SR / (LAG_MAX - 0.5),
        ]
        t = np.arange(FRAME) / SR
        frames = [amplitude * np.sin(2.0 * np.pi * f * t + phase) for f in freqs]
        frames += [np.rint(frame) for frame in frames if amplitude > 1.0]
        assert compare_with_loop(frames) == 0
        at_lag_min = estimate_f0(frames[2], SR)
        assert at_lag_min == (SR / LAG_MIN, True)

    @pytest.mark.parametrize("f0", [110.0, 150.0, 200.0, 310.0])
    def test_period_doubled_signals(self, f0):
        # a subharmonic at f0 / 2 of growing weight, and pulse trains whose
        # every other pulse is weaker: the true period and twice it compete
        t = np.arange(FRAME) / SR
        frames = [
            np.sin(2.0 * np.pi * f0 * t) + weight * np.sin(np.pi * f0 * t + 0.3)
            for weight in (0.0, 0.1, 0.3, 0.6, 1.0, 2.0)
        ]
        period = int(round(SR / f0))
        for ratio in (1.0, 0.95, 0.8, 0.5):
            train = np.zeros(FRAME)
            train[::period] = 1.0
            train[period::2 * period] = ratio
            frames.append(np.convolve(train, np.hanning(9), mode="same"))
        assert compare_with_loop(frames) == 0

    def test_decision_ties_follow_the_loops_rule(self):
        # Ties are decided on the score table by the loop's rule: voiced at
        # best >= threshold, candidates at score >= 0.9 x best, and a lag is
        # a peak when it is >= both neighbours, so a flat top counts from its
        # first lag. One ulp either side flips each decision. The FFT's
        # rounding can move a score by that much, so on frames whose loop
        # scores tie exactly the two trackers may differ (see the example in
        # test_random_voice_frames); the corpora's features are unchanged.
        threshold = CONFIG.voicing_threshold
        below = np.nextafter(threshold, 0.0)

        def row(*points):
            score = np.zeros(LAGS.size)
            for index, value in points:
                score[index] = value
            return score

        tables = {
            "best at the threshold": (row((10, threshold)), SR / LAGS[10]),
            "best one ulp below": (row((10, below)), 0.0),
            "candidate at 0.9 x best": (row((5, 0.9 * 0.8), (60, 0.8)), SR / LAGS[5]),
            "candidate one ulp below": (
                row((5, np.nextafter(0.9 * 0.8, 0.0)), (60, 0.8)), SR / LAGS[60]
            ),
            "flat top": (row((20, 0.7), (21, 0.7), (22, 0.7)), SR / LAGS[20]),
            "flat top, second lag one ulp up": (
                row((20, 0.7), (21, np.nextafter(0.7, 1.0)), (22, 0.7)), SR / LAGS[21]
            ),
        }
        for name, (score, want) in tables.items():
            f0, voiced = prosody._pitch_decisions(score[None, :], LAGS, SR, threshold)
            expected = looped_decision(LAGS, score, SR, threshold)
            assert (float(f0[0]), bool(voiced[0])) == expected, name
            assert expected == (want, want > 0.0), name

    def test_multi_slice_sequence_matches_oracle_blocks(self):
        # longer than one FFT slice of frames, with silence, noise and a glide
        rng = np.random.default_rng(11)
        seconds = 2.0 * prosody._SLICE_FRAMES * 80 / SR
        t = np.arange(int(seconds * SR)) / SR
        signal = 8000.0 * np.sin(2.0 * np.pi * (120.0 * t + 40.0 * t * t))
        signal[: SR // 4] = 0.0
        signal[len(t) // 2 : len(t) // 2 + SR // 5] = 0.0
        signal = np.rint(signal + 300.0 * rng.standard_normal(t.size))
        frames = frame_signal(signal, FRAME, 80)
        assert len(frames) > prosody._SLICE_FRAMES
        track = [looped_f0(frame, SR, CONFIG) for frame in frames]
        oracle = aggregate_blocks(
            np.array([f for f, _ in track]),
            np.array([v for _, v in track]),
            frame_log_energy(frames),
        )
        assert np.array_equal(suprasegmental_sequence(signal, SR), oracle)

    def test_working_set_bounded_on_long_signal(self):
        # 60 s at 16 kHz: 11996 frames, 43.9 MiB of them. The bound leaves
        # room for one slice's FFT temporaries, not for a second array the
        # size of the frames, nor for one FFT over every frame (about 450 MiB).
        rng = np.random.default_rng(12)
        t = np.arange(60 * SR) / SR
        signal = np.rint(8000.0 * np.sin(2.0 * np.pi * 150.0 * t) + 500.0 * rng.standard_normal(t.size))
        frames_bytes = ((signal.size - FRAME) // 80 + 1) * FRAME * 8
        peak = traced_peak(lambda: pitch_energy_track(signal, SR))
        assert peak <= 1.5 * frames_bytes
