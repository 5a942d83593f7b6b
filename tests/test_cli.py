import os
from pathlib import Path

import numpy as np
import pytest

from emospeaker.cli import main, read_performance_csv
from emospeaker.corpus import AudioSignal, write_audio

TINY_FLAGS = [
    "--n_speakers", "2",
    "--emotions", "neutral,angry",
    "--frames_min", "15",
    "--frames_max", "20",
    "--acoustic_states", "2",
    "--acoustic_mixtures", "1",
    "--prosodic_states", "2",
    "--prosodic_mixtures", "1",
    "--max_iterations", "2",
    "--separation", "3.0",
]


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A trained tiny experiment: synthetic corpus + enrolled population."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    corpus = root / "corpus"
    out = root / "run"
    assert run(["synth", "--seed", "3", "--out", str(corpus), *TINY_FLAGS]) == 0
    manifest = corpus / "manifest.csv"
    assert manifest.exists()
    assert (
        run(
            [
                "train",
                "--manifest", str(manifest),
                "--out", str(out),
                "--seed", "3",
                *TINY_FLAGS,
            ]
        )
        == 0
    )
    return {"root": root, "manifest": manifest, "out": out, "corpus": corpus}


class TestPipeline:
    def test_models_on_disk(self, pipeline):
        models = pipeline["out"] / "models" / "unbiased"
        assert (models / "population.txt").exists()
        assert (models / "spk01.model").exists()
        assert (models / "spk02.model").exists()

    def test_evaluate_writes_reports(self, pipeline, capsys):
        code = run(
            [
                "evaluate",
                "--manifest", str(pipeline["manifest"]),
                "--out", str(pipeline["out"]),
                *TINY_FLAGS,
            ]
        )
        assert code == 0
        reports = pipeline["out"] / "reports" / "unbiased"
        performance = reports / "performance.csv"
        lines = performance.read_text().splitlines()
        assert lines[0] == "Emotion,Males(%),Females(%),Average(%)"
        assert lines[-1].startswith("average,")
        assert {ln.split(",")[0] for ln in lines[1:-1]} == {"neutral", "angry"}
        raw = (reports / "raw_log.csv").read_text().splitlines()
        # 2 speakers x 2 emotions x 5 sentences x 6 test reps
        assert len(raw) == 1 + 120
        stats = dict(
            ln.split(",", 1) for ln in (reports / "statistics.csv").read_text().splitlines()[1:]
        )
        assert stats["plan"] == "unbiased"
        assert stats["trials"] == "120"
        assert float(stats["kappa"]) <= 1.0
        assert "grand average" in capsys.readouterr().out

    def test_identify_feature_input(self, pipeline, capsys):
        feat = next((pipeline["corpus"] / "features").glob("*.lfpc.feat"))
        code = run(
            [
                "identify",
                "--out", str(pipeline["out"]),
                "--input", str(feat),
                *TINY_FLAGS,
            ]
        )
        assert code == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert out_lines[0].startswith("predicted spk")
        assert len(out_lines) == 3  # prediction + one ranked line per speaker
        rank1 = out_lines[1].split()
        assert rank1[0] == "1"
        assert out_lines[0] == f"predicted {rank1[1]}"
        scores = [float(ln.split()[2]) for ln in out_lines[1:]]
        assert scores == sorted(scores, reverse=True)

    def test_identify_matches_true_speaker_mostly(self, pipeline, capsys):
        hits = 0
        feats = sorted((pipeline["corpus"] / "features").glob("spk01_*.lfpc.feat"))[:5]
        for feat in feats:
            run(
                [
                    "identify",
                    "--out", str(pipeline["out"]),
                    "--input", str(feat),
                    *TINY_FLAGS,
                ]
            )
            first = capsys.readouterr().out.splitlines()[0]
            hits += first == "predicted spk01"
        assert hits >= 4

    def test_xval_report(self, pipeline):
        code = run(
            [
                "xval",
                "--manifest", str(pipeline["manifest"]),
                "--out", str(pipeline["out"]),
                "--n_folds", "3",
                "--seed", "3",
                *TINY_FLAGS,
            ]
        )
        assert code == 0
        lines = (pipeline["out"] / "reports" / "unbiased" / "xval.csv").read_text().splitlines()
        assert lines[0] == "fold,accuracy(%)"
        assert [ln.split(",")[0] for ln in lines[1:]] == ["0", "1", "2", "mean", "sd"]
        folds = [float(ln.split(",")[1]) for ln in lines[1:4]]
        mean = float(lines[4].split(",")[1])
        assert mean == pytest.approx(sum(folds) / 3, abs=0.01)

    def test_compare_against_baseline_report(self, pipeline, tmp_path):
        reports = pipeline["out"] / "reports" / "unbiased"
        baseline = tmp_path / "baseline_performance.csv"
        baseline.write_text(
            "Emotion,Males(%),Females(%),Average(%)\n"
            "neutral,92.00,88.00,90.00\n"
            "angry,78.00,82.00,80.00\n"
            "average,85.00,85.00,85.00\n"
        )
        code = run(
            [
                "evaluate",
                "--manifest", str(pipeline["manifest"]),
                "--out", str(pipeline["out"]),
                "--compare", str(baseline),
                "--t_test_n", "60",
                *TINY_FLAGS,
            ]
        )
        assert code == 0
        stats = dict(
            ln.split(",", 1) for ln in (reports / "statistics.csv").read_text().splitlines()[1:]
        )
        # the tiny run identifies perfectly: 100 vs 90 and 100 vs 80
        assert stats["improvement(%):neutral"] == "11.11"
        assert stats["improvement(%):angry"] == "25.00"
        assert stats["t_n"] == "60"
        assert (stats["candidate_mean"], stats["baseline_mean"]) == ("100.00", "85.00")
        assert float(stats["t_statistic"]) > 0.0
        assert stats["significant_at_0.05"] == "true"
        comparison = (reports / "comparison.csv").read_text().splitlines()
        assert comparison[0] == "comparison,mean1,sd1,mean2,sd2,n,t,significant,kappa"
        assert comparison[1].startswith("unbiased-vs-baseline,100.00,")

    def test_compare_identical_reports_is_degenerate(self, pipeline, capsys):
        reports = pipeline["out"] / "reports" / "unbiased"
        run(
            [
                "evaluate",
                "--manifest", str(pipeline["manifest"]),
                "--out", str(pipeline["out"]),
                *TINY_FLAGS,
            ]
        )
        capsys.readouterr()
        # both emotion averages are 100% here; comparing a run against its own
        # report leaves nothing to test (zero spread on both sides)
        code = run(
            [
                "evaluate",
                "--manifest", str(pipeline["manifest"]),
                "--out", str(pipeline["out"]),
                "--compare", str(reports / "performance.csv"),
                *TINY_FLAGS,
            ]
        )
        assert code == 1
        assert "pooled SD is zero" in capsys.readouterr().err

    def test_read_performance_round_trip(self, pipeline):
        run(
            [
                "evaluate",
                "--manifest", str(pipeline["manifest"]),
                "--out", str(pipeline["out"]),
                *TINY_FLAGS,
            ]
        )
        averages = read_performance_csv(
            pipeline["out"] / "reports" / "unbiased" / "performance.csv"
        )
        assert set(averages) == {"neutral", "angry"}
        assert all(0.0 <= v <= 100.0 for v in averages.values())


class TestDeterminism:
    def test_same_seed_gives_identical_artifacts(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            corpus = tmp_path / name / "corpus"
            out = tmp_path / name / "run"
            assert run(["synth", "--seed", "11", "--out", str(corpus), *TINY_FLAGS]) == 0
            assert (
                run(
                    [
                        "train",
                        "--manifest", str(corpus / "manifest.csv"),
                        "--out", str(out),
                        "--seed", "11",
                        *TINY_FLAGS,
                    ]
                )
                == 0
            )
            assert (
                run(
                    [
                        "evaluate",
                        "--manifest", str(corpus / "manifest.csv"),
                        "--out", str(out),
                        "--seed", "11",
                        *TINY_FLAGS,
                    ]
                )
                == 0
            )
            outputs.append((corpus, out))
        (corpus_a, out_a), (corpus_b, out_b) = outputs
        assert (corpus_a / "manifest.csv").read_bytes() == (corpus_b / "manifest.csv").read_bytes()
        for model_file in sorted((out_a / "models" / "unbiased").glob("*.model")):
            twin = out_b / "models" / "unbiased" / model_file.name
            assert model_file.read_bytes() == twin.read_bytes()
        for report in ("performance.csv", "raw_log.csv", "statistics.csv"):
            a = (out_a / "reports" / "unbiased" / report).read_bytes()
            b = (out_b / "reports" / "unbiased" / report).read_bytes()
            assert a == b


@pytest.fixture(scope="module")
def wav_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("wav_corpus")
    assert (
        run(
            [
                "synth",
                "--seed", "5",
                "--out", str(corpus),
                "--synth_audio", "true",
                *TINY_FLAGS,
            ]
        )
        == 0
    )
    return corpus


class TestExtract:
    def test_extract_then_train_from_features(self, wav_corpus, tmp_path):
        features = tmp_path / "features"
        code = run(
            [
                "extract",
                "--manifest", str(wav_corpus / "manifest.csv"),
                "--out", str(features),
                *TINY_FLAGS,
            ]
        )
        assert code == 0
        feature_manifest = features / "features.csv"
        assert feature_manifest.exists()
        n_feats = len(list((features / "features").glob("*.lfpc.feat")))
        assert n_feats == 2 * 2 * 5 * 15  # speakers x emotions x sentences x reps
        out = tmp_path / "run"
        assert (
            run(
                [
                    "train",
                    "--manifest", str(feature_manifest),
                    "--out", str(out),
                    *TINY_FLAGS,
                ]
            )
            == 0
        )

    def test_extract_is_idempotent_unless_forced(self, wav_corpus, tmp_path):
        features = tmp_path / "features"
        args = [
            "extract",
            "--manifest", str(wav_corpus / "manifest.csv"),
            "--out", str(features),
            *TINY_FLAGS,
        ]
        assert run(args) == 0
        sample = next((features / "features").glob("*.lfpc.feat"))
        first = sample.stat().st_mtime_ns
        assert run(args) == 0
        assert sample.stat().st_mtime_ns == first  # untouched on rerun
        assert run(args + ["--force"]) == 0
        assert sample.stat().st_mtime_ns > first  # rewritten under --force

    def test_identify_wav_input(self, wav_corpus, tmp_path, capsys):
        out = tmp_path / "run"
        features = tmp_path / "features"
        run(
            [
                "extract",
                "--manifest", str(wav_corpus / "manifest.csv"),
                "--out", str(features),
                *TINY_FLAGS,
            ]
        )
        run(["train", "--manifest", str(features / "features.csv"),
             "--out", str(out), *TINY_FLAGS])
        capsys.readouterr()
        wav = next((wav_corpus / "audio").glob("spk02_*.wav"))
        code = run(["identify", "--out", str(out), "--input", str(wav), *TINY_FLAGS])
        assert code == 0
        assert capsys.readouterr().out.startswith("predicted spk")


class TestErrors:
    def test_missing_required_key(self, capsys):
        assert run(["train", "--out", "/tmp/x", *TINY_FLAGS]) == 1
        assert "manifest" in capsys.readouterr().err

    def test_missing_manifest_file(self, tmp_path, capsys):
        code = run(
            [
                "train",
                "--manifest", str(tmp_path / "ghost.csv"),
                "--out", str(tmp_path),
                *TINY_FLAGS,
            ]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_incomplete_protocol_exits_1(self, pipeline, tmp_path, capsys):
        lines = pipeline["manifest"].read_text().splitlines()
        body = [ln for ln in lines if not ln.startswith("#")]
        # drop one training row (repetition 1 of some cell)
        dropped = next(i for i, ln in enumerate(body[1:], start=1) if ",train,1," in ln or ln.endswith(",1"))
        del body[dropped]
        broken = tmp_path / "broken.csv"
        broken.write_text(
            "\n".join([ln for ln in lines if ln.startswith("#")] + body) + "\n"
        )
        code = run(["train", "--manifest", str(broken), "--out", str(tmp_path / "o"), *TINY_FLAGS])
        assert code == 1
        err = capsys.readouterr().err
        assert "status=fail" in err and "deficit" in err

    def test_bad_sample_rate_exits_1(self, pipeline, tmp_path, capsys):
        lines = pipeline["manifest"].read_text().splitlines()
        body = [ln for ln in lines if not ln.startswith("# sample_rate=")]
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(["# sample_rate=abc"] + body) + "\n")
        code = run(["train", "--manifest", str(broken), "--out", str(tmp_path / "o"), *TINY_FLAGS])
        assert code == 1
        assert "sample_rate 'abc' is not a positive integer" in capsys.readouterr().err

    def test_repeated_metadata_key_exits_1(self, pipeline, tmp_path, capsys):
        lines = pipeline["manifest"].read_text().splitlines()
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(["# sample_rate=8000"] + lines) + "\n")
        code = run(["train", "--manifest", str(broken), "--out", str(tmp_path / "o"), *TINY_FLAGS])
        assert code == 1
        assert "metadata key 'sample_rate' already set on line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "row, message",
        [
            ("angry,78.00,82.00", "line 3: 3 fields, expected 4"),
            ("angry,78.00,82.00,high", "line 3: Average(%) 'high' is not a number"),
        ],
        ids=["three-fields", "non-numeric-average"],
    )
    def test_malformed_compare_report_exits_1(self, pipeline, tmp_path, capsys, row, message):
        baseline = tmp_path / "baseline_performance.csv"
        baseline.write_text(
            "Emotion,Males(%),Females(%),Average(%)\n"
            f"neutral,92.00,88.00,90.00\n{row}\naverage,85.00,85.00,85.00\n"
        )
        code = run(
            [
                "evaluate",
                "--manifest", str(pipeline["manifest"]),
                "--out", str(pipeline["out"]),
                "--compare", str(baseline),
                *TINY_FLAGS,
            ]
        )
        assert code == 1
        assert f"error: {baseline}: {message}" in capsys.readouterr().err

    def test_duplicate_speaker_in_population_exits_1(self, pipeline, tmp_path, capsys):
        # a speaker listed twice would be scored twice and counted as a third
        # speaker of a two-speaker population in statistics.csv
        models = tmp_path / "run" / "models" / "unbiased"
        models.mkdir(parents=True)
        for name in ("spk01.model", "spk02.model"):
            (models / name).write_bytes((pipeline["out"] / "models" / "unbiased" / name).read_bytes())
        (models / "population.txt").write_text("spk01\nspk02\nspk01\n")
        code = run(
            [
                "evaluate",
                "--manifest", str(pipeline["manifest"]),
                "--out", str(tmp_path / "run"),
                *TINY_FLAGS,
            ]
        )
        assert code == 1
        assert "speaker id(s) enrolled more than once: spk01" in capsys.readouterr().err
        assert not (tmp_path / "run" / "reports").exists()

    def test_duplicate_emotion_in_compare_report_exits_1(self, pipeline, tmp_path, capsys):
        # a second row for an emotion would silently replace the first
        baseline = tmp_path / "baseline_performance.csv"
        baseline.write_text(
            "Emotion,Males(%),Females(%),Average(%)\n"
            "neutral,85.00,85.00,85.00\nangry,78.00,82.00,80.00\n"
            "neutral,10.00,10.00,10.00\naverage,85.00,85.00,85.00\n"
        )
        code = run(
            [
                "evaluate",
                "--manifest", str(pipeline["manifest"]),
                "--out", str(pipeline["out"]),
                "--compare", str(baseline),
                *TINY_FLAGS,
            ]
        )
        assert code == 1
        assert f"error: {baseline}: lines 2 and 4 both list 'neutral'" in capsys.readouterr().err

    def test_unenrolled_test_speaker_exits_1(self, pipeline, tmp_path, capsys):
        # a 3-speaker manifest against the 2 speakers the pipeline enrolled
        corpus = tmp_path / "corpus"
        flags = [*TINY_FLAGS, "--n_speakers", "3"]
        assert run(["synth", "--seed", "4", "--out", str(corpus), *flags]) == 0
        models = tmp_path / "run" / "models"
        models.mkdir(parents=True)
        (models / "unbiased").symlink_to(pipeline["out"] / "models" / "unbiased")
        code = run(
            [
                "evaluate",
                "--manifest", str(corpus / "manifest.csv"),
                "--out", str(tmp_path / "run"),
                *flags,
            ]
        )
        assert code == 1
        assert "error: test speaker(s) not enrolled: spk03" in capsys.readouterr().err
        assert not (tmp_path / "run" / "reports").exists()

    def test_identify_without_models(self, tmp_path, pipeline, capsys):
        feat = next((pipeline["corpus"] / "features").glob("*.lfpc.feat"))
        code = run(
            ["identify", "--out", str(tmp_path / "empty"), "--input", str(feat), *TINY_FLAGS]
        )
        assert code == 1
        assert "population" in capsys.readouterr().err

    def test_bad_flag_value_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["evaluate", "--alpha", "fishy", "--manifest", "m", "--out", "o"])
        assert exc.value.code == 1

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_input_flag_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["identify", "--out", "/tmp/x"])
        assert exc.value.code == 1

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2.5\n")
        code = run(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")])
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    def test_identify_wav_at_wrong_sample_rate(self, pipeline, tmp_path, capsys):
        t = np.arange(4000) / 8000
        samples = (0.3 * 32767 * np.sin(2 * np.pi * 150.0 * t)).astype(np.int16)
        wav = tmp_path / "slow.wav"
        write_audio(AudioSignal(samples=samples, sample_rate=8000), wav)
        code = run(["identify", "--out", str(pipeline["out"]), "--input", str(wav), *TINY_FLAGS])
        assert code == 1
        err = capsys.readouterr().err
        assert "sample rate 8000" in err and "16000" in err

    def test_unsupported_input_type(self, pipeline, tmp_path, capsys):
        bogus = tmp_path / "note.txt"
        bogus.write_text("hello")
        code = run(
            ["identify", "--out", str(pipeline["out"]), "--input", str(bogus), *TINY_FLAGS]
        )
        assert code == 1
        assert "unsupported" in capsys.readouterr().err
