"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Each test prints (and registers for the terminal summary) a single line naming
its criterion. Reference percentages come from the published evaluation the
engine models; everything else runs on seeded synthetic corpora and random
models, so the whole suite is self-contained and deterministic.
"""

import functools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import conftest
from emospeaker.corpus import (
    EMOTIONS,
    CorpusManifest,
    UtteranceRecord,
    generate_synthetic_corpus,
    read_feature_file,
    write_feature_file,
)
from emospeaker.dsp import build_log_filterbank, filterbank_energies, frame_signal
from emospeaker.features import make_loader
from emospeaker.hmm import (
    baum_welch_train,
    init_model,
    log_forward,
    log_likelihood,
    model_from_text,
    model_to_text,
)
from emospeaker.protocol import (
    assemble_training_set,
    run_session,
    session_test_records,
    train_population,
)
from emospeaker.sphmm import (
    DualObservation,
    SpeakerModel,
    Topology,
    fused_log_score,
    speaker_model_to_text,
)
from emospeaker.stats import (
    TwoSampleSummary,
    cohen_kappa,
    kappa_annotation,
    kappa_band,
    mean_performance,
    relative_improvement,
    significant_at_005,
    t_statistic,
)
from helpers import brute_force_log_likelihood, naive_frame_slices, random_model

# --- reference tables (male %, female %) per emotion ---------------------------------

UNBIASED_REFERENCE = {
    "neutral": (86, 87),
    "angry": (64, 65),
    "sad": (68, 70),
    "happy": (72, 74),
    "disgust": (73, 72),
    "fear": (72, 74),
}
UNBIASED_BASELINE_REFERENCE = {  # single-stream classifier in the same environment
    "neutral": (81, 82),
    "angry": (57, 58),
    "sad": (61, 61),
    "happy": (65, 66),
    "disgust": (67, 68),
    "fear": (65, 65),
}
BIASED_REFERENCE = {
    "angry": {
        "neutral": (87, 88), "angry": (76, 78), "sad": (70, 69),
        "happy": (75, 76), "disgust": (76, 74), "fear": (76, 76),
    },
    "sad": {
        "neutral": (87, 89), "angry": (64, 64), "sad": (80, 81),
        "happy": (73, 72), "disgust": (74, 76), "fear": (74, 73),
    },
    "happy": {
        "neutral": (88, 89), "angry": (64, 65), "sad": (70, 69),
        "happy": (84, 84), "disgust": (75, 73), "fear": (76, 76),
    },
    "disgust": {
        "neutral": (89, 89), "angry": (68, 68), "sad": (70, 72),
        "happy": (74, 73), "disgust": (85, 85), "fear": (75, 76),
    },
    "fear": {
        "neutral": (88, 88), "angry": (66, 66), "sad": (71, 71),
        "happy": (74, 74), "disgust": (75, 74), "fear": (84, 85),
    },
}
EXPECTED_GRAND_AVERAGES = {
    "unbiased": 73.08,
    "baseline": 66.33,
    "angry": 76.75,
    "sad": 75.58,
    "happy": 76.08,
    "disgust": 77.00,
    "fear": 76.33,
}
EXPECTED_IMPROVEMENTS = {
    "angry": 19.38,
    "sad": 16.67,
    "happy": 15.07,
    "disgust": 17.24,
    "fear": 15.75,
}
REPORTED_BIASED_T = {
    "angry": 8.312,
    "sad": 8.911,
    "happy": 8.433,
    "disgust": 8.001,
    "fear": 8.453,
}


def _emotion_averages(table: dict) -> list[float]:
    return [(male + female) / 2 for male, female in table.values()]


def criterion(label):
    """Print and register the PASS/FAIL line for one acceptance test."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"[FAIL] {label}"
                conftest.ACCEPTANCE_LINES.append(line)
                print(line, flush=True)
                raise
            line = f"[PASS] {label}"
            conftest.ACCEPTANCE_LINES.append(line)
            print(line, flush=True)

        return wrapper

    return decorate


@criterion("criterion 1: reference grand averages and improvement rates, 2 decimals")
def test_reference_arithmetic():
    start = time.perf_counter()

    assert mean_performance(_emotion_averages(UNBIASED_REFERENCE)) == 73.08
    assert mean_performance(_emotion_averages(UNBIASED_BASELINE_REFERENCE)) == 66.33
    for target, table in BIASED_REFERENCE.items():
        assert mean_performance(_emotion_averages(table)) == EXPECTED_GRAND_AVERAGES[target]

    for target, expected in EXPECTED_IMPROVEMENTS.items():
        biased_avg = sum(BIASED_REFERENCE[target][target]) / 2
        unbiased_avg = sum(UNBIASED_REFERENCE[target]) / 2
        assert relative_improvement(biased_avg, unbiased_avg) == expected

    assert time.perf_counter() - start < 1.0


@criterion("criterion 2: two-sample t = 8.191 +/- 0.01 at n=180; biased-run t values significant")
def test_t_statistic_fidelity():
    summary = TwoSampleSummary(mean1=73.08, sd1=7.36, mean2=66.33, sd2=8.25, n=180)
    t = t_statistic(summary)
    assert t == pytest.approx(8.191, abs=0.01)
    assert significant_at_005(t)
    for t_reported in REPORTED_BIASED_T.values():
        assert significant_at_005(t_reported)


@criterion("criterion 3: forward algorithm matches exhaustive path sum on 200 random models")
def test_forward_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        d = int(rng.integers(1, 3))
        t = int(rng.integers(1, 6))
        model = random_model(rng, n, m, d)
        obs = rng.normal(0.0, 1.5, (t, d))
        fast = log_forward(model, obs)[0]
        slow = brute_force_log_likelihood(model, obs)
        assert fast == pytest.approx(slow, rel=1e-9)
    assert time.perf_counter() - start < 30.0


@criterion("criterion 4: EM log-likelihood non-decreasing over 50 runs, invariants each iteration")
def test_em_monotone_with_invariants():
    rng = np.random.default_rng(4096)
    for run in range(50):
        n_states = int(rng.integers(1, 3))
        n_mixtures = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 3))
        sequences = [
            rng.normal(rng.uniform(-2, 2), 1.0, (int(rng.integers(4, 13)), dim))
            for _ in range(int(rng.integers(2, 4)))
        ]
        model = init_model(sequences, n_states, n_mixtures, seed=run)

        def assert_invariants(iteration, ll, current):
            current.validate()  # rows, weights, positivity all intact

        result = baum_welch_train(
            model,
            sequences,
            max_iterations=40,
            tolerance=1e-4,
            on_iteration=assert_invariants,
        )
        assert len(result.log_likelihoods) <= 40
        diffs = np.diff(result.log_likelihoods)
        assert np.all(diffs >= -1e-6), f"run {run}: decreasing log-likelihood {diffs.min()}"


@criterion("criterion 5: filter bank conserves in-range power; frame-count formula; 195 frames/s")
def test_dsp_conservation():
    rng = np.random.default_rng(515)
    bank = build_log_filterbank(sample_rate=16000, n_fft=512, n_bands=16,
                                f_low=100.0, f_high=8000.0)
    for _ in range(100):
        spectrum = rng.uniform(0.0, 10.0, 257)
        energies = filterbank_energies(spectrum[None, :], bank)[0]
        in_range = spectrum[bank.bin_lo[0] : bank.bin_hi[-1] + 1].sum()
        assert energies.sum() == pytest.approx(in_range, rel=1e-9)

    for _ in range(100):
        window = int(rng.integers(2, 600))
        hop = int(rng.integers(1, window + 1))
        length = int(rng.integers(window, 4 * window + 7))
        signal = np.zeros(length)
        frames = frame_signal(signal, window, hop)
        assert len(frames) == (length - window) // hop + 1
        assert len(frames) == len(naive_frame_slices(signal, window, hop))

    assert frame_signal(np.zeros(16000), 480, 80).shape[0] == 195


@criterion("criterion 6: fusion degeneracy, affinity in alpha, argmax shift/scale invariance")
def test_fusion_properties():
    rng = np.random.default_rng(66)
    models = [
        SpeakerModel(
            speaker_id=f"spk{i:02d}",
            acoustic=random_model(rng, 2, 2, 5),
            prosodic=random_model(rng, 2, 1, 3),
            log_prior=float(np.log(0.2)),
        )
        for i in range(5)
    ]
    observations = [
        DualObservation(rng.standard_normal((12, 5)), rng.standard_normal((4, 3)))
        for _ in range(10)
    ]
    alphas = [0.1, 0.3, 0.5, 0.7, 0.9]

    for obs in observations:
        for model in models:
            s0 = fused_log_score(model, obs, 0.0)
            s1 = fused_log_score(model, obs, 1.0)
            assert s0 == log_forward(model.acoustic, obs.acoustic)[0] + model.log_prior  # exact
            assert s1 == log_forward(model.prosodic, obs.prosodic)[0] + model.log_prior  # exact
            for alpha in alphas:
                expected = (1.0 - alpha) * s0 + alpha * s1
                got = fused_log_score(model, obs, alpha)
                assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))

    # global additive shift of every log prior, and uniform prior rescaling,
    # must leave every identification decision unchanged
    for shift in (-3.0, float(np.log(7.0))):
        shifted = [
            SpeakerModel(
                speaker_id=m.speaker_id,
                acoustic=m.acoustic,
                prosodic=m.prosodic,
                log_prior=m.log_prior + shift,
            )
            for m in models
        ]
        for obs in observations:
            for alpha in (0.0, 0.25, 0.5, 1.0):
                base = np.array([fused_log_score(m, obs, alpha) for m in models])
                moved = np.array([fused_log_score(m, obs, alpha) for m in shifted])
                assert int(np.argmax(base)) == int(np.argmax(moved))
                assert np.allclose(moved - base, shift, rtol=0, atol=1e-9)


def _reference_scale_manifest(n_speakers: int = 50) -> CorpusManifest:
    """In-memory manifest with the full published-protocol shape."""
    records = []
    for i in range(1, n_speakers + 1):
        speaker = f"spk{i:02d}"
        gender = "male" if i <= n_speakers // 2 else "female"
        combos = [(e, "unbiased") for e in EMOTIONS]
        combos += [(e, f"biased:{e}") for e in EMOTIONS if e != "neutral"]
        for emotion, bias in combos:
            for sentence in range(1, 6):
                for rep in range(1, 16):
                    records.append(
                        UtteranceRecord(
                            speaker_id=speaker,
                            gender=gender,
                            emotion=emotion,
                            sentence_id=sentence,
                            bias_tag=bias,
                            session="train" if rep <= 9 else "test",
                            repetition=rep,
                            source=f"{speaker}_{emotion}_{sentence}_{rep}.wav",
                        )
                    )
    return CorpusManifest(records=records, sample_rate=16000, metadata={}, root=Path("."))


@criterion("criterion 7: full-protocol counts — 270 train/speaker, 45+225 biased split, 9000 trials")
def test_protocol_counts_at_reference_scale():
    manifest = _reference_scale_manifest(50)
    assert len(manifest.records) == 41250
    plans = ["unbiased"] + [f"biased:{e}" for e in EMOTIONS if e != "neutral"]

    # per-speaker sub-manifests keep the 300 assembly calls linear overall
    by_speaker = {s: [] for s in manifest.speakers}
    for record in manifest.records:
        by_speaker[record.speaker_id].append(record)

    for plan in plans:
        for speaker in manifest.speakers:
            view = replace(manifest, records=by_speaker[speaker])
            records = assemble_training_set(view, speaker, plan)
            assert len(records) == 270
            if plan != "unbiased":
                target = plan.split(":")[1]
                biased = [r for r in records if r.bias_tag == plan]
                unbiased = [r for r in records if r.bias_tag == "unbiased"]
                assert len(biased) == 45
                assert len(unbiased) == 225
                assert all(r.emotion == target for r in biased)
                assert not any(r.emotion == target for r in unbiased)

    for plan in plans:
        trials = session_test_records(manifest, plan)
        assert len(trials) == 9000
        if plan != "unbiased":
            target = plan.split(":")[1]
            assert not any(
                r.emotion == target and r.bias_tag == "unbiased" for r in trials
            )


SMALL_TOPOLOGY = Topology(
    acoustic_states=2,
    acoustic_mixtures=2,
    acoustic_dim=16,
    prosodic_states=2,
    prosodic_mixtures=1,
    prosodic_dim=4,
)


def _train_and_score(manifest, plan, seed, alpha=0.5, max_iterations=3):
    loader = make_loader(manifest)
    models = train_population(
        manifest, loader, plan, SMALL_TOPOLOGY, seed=seed, max_iterations=max_iterations
    )
    return run_session(models, manifest, loader, plan, alpha=alpha)


@criterion("criterion 8: synthetic corpus — >=90% grand average when separated, chance when not")
def test_end_to_end_synthetic_discrimination(tmp_path):
    start = time.perf_counter()

    separated = generate_synthetic_corpus(
        seed=801,
        n_speakers=10,
        emotions=("neutral", "angry", "sad"),
        separation=4.0,
        out_dir=tmp_path / "separated",
        frames_range=(16, 22),
    )
    result = _train_and_score(separated, "unbiased", seed=801)
    assert len(result.trials) == 10 * 3 * 5 * 6
    grand = result.table.grand_average()
    assert grand >= 90.0, f"separated corpus grand average {grand:.2f}%"

    indistinct = generate_synthetic_corpus(
        seed=802,
        n_speakers=10,
        emotions=EMOTIONS,
        separation=0.0,
        out_dir=tmp_path / "indistinct",
        frames_range=(16, 22),
    )
    chance_result = _train_and_score(indistinct, "unbiased", seed=802)
    assert len(chance_result.trials) == 1800
    chance_grand = chance_result.table.grand_average()
    assert abs(chance_grand - 10.0) <= 3.0, f"chance-level grand average {chance_grand:.2f}%"

    assert time.perf_counter() - start < 600.0


@criterion("criterion 9: biased-plan grand average >= unbiased on matched corpora over 5 seeds")
def test_biased_plan_dominates_over_seeds(tmp_path):
    for seed in range(1, 6):
        manifest = generate_synthetic_corpus(
            seed=900 + seed,
            n_speakers=3,
            emotions=("neutral", "angry"),
            separation=0.5,
            out_dir=tmp_path / f"seed{seed}",
            frames_range=(14, 18),
            bias_emotions=("angry",),
            bias_boost=2.5,
        )
        unbiased = _train_and_score(manifest, "unbiased", seed=seed)
        biased = _train_and_score(manifest, "biased:angry", seed=seed)
        assert biased.table.grand_average() >= unbiased.table.grand_average(), (
            f"seed {seed}: biased {biased.table.grand_average():.2f}%"
            f" < unbiased {unbiased.table.grand_average():.2f}%"
        )


@criterion("criterion 10: kappa hand values, perfect/independent extremes, banding + annotation")
def test_kappa_reference_behavior():
    assert cohen_kappa(np.array([[20, 5], [10, 15]])) == pytest.approx(0.4, abs=1e-12)
    assert cohen_kappa(np.diag([7, 3, 11])) == pytest.approx(1.0)

    margins_rows = np.array([0.6, 0.4])
    margins_cols = np.array([0.3, 0.7])
    independent = 100 * np.outer(margins_rows, margins_cols)
    assert cohen_kappa(independent) == pytest.approx(0.0, abs=1e-12)

    assert kappa_band(0.1) == "slight"
    assert kappa_band(0.4) == "fair"
    assert kappa_band(0.5) == "moderate"
    assert kappa_band(0.7) == "substantial"
    assert kappa_band(0.9) == "almost perfect"
    note = kappa_annotation(0.3)
    assert note is not None and "fair" in note and "moderate" in note
    assert kappa_annotation(0.5) is None
    assert kappa_annotation(0.15) is None


@criterion("criterion 11: byte-identical artifacts under identical config; round-trip drift <= 1e-12")
def test_determinism_and_round_trips(tmp_path):
    from emospeaker.cli import write_performance_csv, write_raw_log_csv

    texts, reports = [], []
    for name in ("a", "b"):
        manifest = generate_synthetic_corpus(
            seed=1111,
            n_speakers=2,
            emotions=("neutral",),
            separation=2.0,
            out_dir=tmp_path / name,
            frames_range=(12, 16),
        )
        loader = make_loader(manifest)
        models = train_population(
            manifest, loader, "unbiased", SMALL_TOPOLOGY, seed=4, max_iterations=2
        )
        texts.append([speaker_model_to_text(m) for m in models])
        result = run_session(models, manifest, loader, "unbiased", alpha=0.5)
        perf = tmp_path / f"{name}_performance.csv"
        raw = tmp_path / f"{name}_raw.csv"
        write_performance_csv(result, perf)
        write_raw_log_csv(result, raw)
        reports.append((perf.read_bytes(), raw.read_bytes()))

        # corpus generation itself must be byte-identical too
        manifest_bytes = (tmp_path / name / "manifest.csv").read_bytes()
        feature_bytes = sorted(
            p.read_bytes() for p in (tmp_path / name / "features").glob("*.lfpc.feat")
        )
        texts[-1].append(manifest_bytes)
        texts[-1].extend(feature_bytes)

    assert texts[0] == texts[1]
    assert reports[0] == reports[1]

    # model text round-trip: fused scores drift at most relative 1e-12
    manifest = generate_synthetic_corpus(
        seed=1112,
        n_speakers=2,
        emotions=("neutral",),
        separation=2.0,
        out_dir=tmp_path / "rt",
        frames_range=(12, 16),
    )
    loader = make_loader(manifest)
    models = train_population(
        manifest, loader, "unbiased", SMALL_TOPOLOGY, seed=4, max_iterations=2
    )
    model = models[0]
    restored_acoustic = model_from_text(model_to_text(model.acoustic))
    obs = loader(manifest.records[0])
    for alpha in (0.0, 0.5, 1.0):
        before = fused_log_score(model, obs, alpha)
        rebuilt = SpeakerModel(
            speaker_id=model.speaker_id,
            acoustic=restored_acoustic,
            prosodic=model.prosodic,
            log_prior=model.log_prior,
        )
        after = fused_log_score(rebuilt, obs, alpha)
        assert abs(after - before) <= 1e-12 * max(1.0, abs(before))

    # feature-file round-trip is bit exact, so scores cannot move at all
    path = tmp_path / "roundtrip.lfpc.feat"
    write_feature_file(obs.acoustic, path)
    again = read_feature_file(path)
    assert np.array_equal(again, obs.acoustic)
    assert log_likelihood(model.acoustic, again) == log_likelihood(
        model.acoustic, obs.acoustic
    )
