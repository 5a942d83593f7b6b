import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from emospeaker.cli import main, read_performance_csv, save_population
from emospeaker.corpus import AudioSignal, write_audio
from emospeaker.hmm import TrainingError
from emospeaker.sphmm import load_speaker_model

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

    @pytest.mark.parametrize("speakers", [("spk01",), ("spk01", "spk02")])
    def test_identify_ranks_tied_speakers_in_enrollment_order(self, pipeline, tmp_path, capsys,
                                                             speakers):
        # each speaker enrolled twice, under a second id: every score is tied
        trained = pipeline["out"] / "models" / "unbiased"
        enrolled = []
        for speaker in speakers:
            model = load_speaker_model(trained / f"{speaker}.model")
            enrolled += [model, replace(model, speaker_id=f"{speaker}_clone")]
        save_population(enrolled, tmp_path / "run" / "models" / "unbiased")
        feat = next((pipeline["corpus"] / "features").glob("spk01_*.lfpc.feat"))
        code = run(["identify", "--out", str(tmp_path / "run"), "--input", str(feat),
                    *TINY_FLAGS])
        assert code == 0
        out_lines = capsys.readouterr().out.splitlines()
        ranked = [line.split() for line in out_lines[1:]]
        assert [rank for rank, _, _ in ranked] == [str(i + 1) for i in range(len(enrolled))]
        assert out_lines[0] == f"predicted {ranked[0][1]}"
        score = {speaker: float(value) for _, speaker, value in ranked}
        assert all(score[s] == score[f"{s}_clone"] for s in speakers)
        order = sorted(range(len(enrolled)), key=lambda i: (-score[enrolled[i].speaker_id], i))
        assert [speaker for _, speaker, _ in ranked] == [enrolled[i].speaker_id for i in order]

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

    def test_extract_in_place_fails_on_a_missing_feature_file(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run(["synth", "--seed", "3", "--out", str(corpus), *TINY_FLAGS]) == 0
        key = "spk01_neutral_s1_r01_unbiased"
        lost = corpus / "features" / f"{key}.pros.feat"
        lost.unlink()
        capsys.readouterr()
        code = run(["extract", "--manifest", str(corpus / "manifest.csv"), "--out", str(corpus),
                    *TINY_FLAGS])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"failed: {key}: feature file not found: {lost}\n"
        assert captured.out.startswith("extracted 299/300 utterances")

    def test_extract_to_another_spelling_of_the_corpus_root(self, tmp_path, monkeypatch,
                                                           capsys):
        corpus = tmp_path / "corpus"
        assert run(["synth", "--seed", "3", "--out", str(corpus), *TINY_FLAGS]) == 0
        before = {p.name: p.read_bytes() for p in (corpus / "features").iterdir()}
        key = "spk02_angry_s4_r11_unbiased"
        acoustic = corpus / "features" / f"{key}.lfpc.feat"
        older = acoustic.stat().st_mtime_ns - 10**9
        os.utime(corpus / "features" / f"{key}.pros.feat", ns=(older, older))
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code = run(["extract", "--manifest", "corpus/manifest.csv", "--out", str(corpus),
                    *TINY_FLAGS])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out.startswith("extracted 300/300 utterances")
        assert {p.name: p.read_bytes() for p in (corpus / "features").iterdir()} == before

    def test_extract_of_damaged_feature_sources_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert run(["synth", "--seed", "3", "--out", str(corpus), *TINY_FLAGS]) == 0
        lost = corpus / "features" / "spk01_neutral_s2_r03_unbiased.pros.feat"
        lost.unlink()
        cut = corpus / "features" / "spk02_angry_s5_r14_unbiased.lfpc.feat"
        cut.write_bytes(cut.read_bytes()[:10])
        capsys.readouterr()
        code = run(["extract", "--manifest", str(corpus / "manifest.csv"),
                    "--out", str(tmp_path / "out"), *TINY_FLAGS])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines() == [
            f"failed: spk01_neutral_s2_r03_unbiased: feature file not found: {lost}",
            f"failed: spk02_angry_s5_r14_unbiased: {cut}: truncated header",
        ]
        assert captured.out.startswith("extracted 298/300 utterances")
        written = {p.name for p in (tmp_path / "out" / "features").iterdir()}
        assert len(written) == 2 * 298
        assert not any(name.startswith(("spk01_neutral_s2_r03_", "spk02_angry_s5_r14_"))
                       for name in written)

    def test_extract_rejects_a_speaker_id_outside_out(self, pipeline, tmp_path, capsys):
        lines = pipeline["manifest"].read_text(encoding="utf-8").splitlines()
        features = f"{pipeline['corpus'] / 'features'}/"
        edited = [line.replace(",features/", f",{features}").replace("spk02,", "../../evil,", 1)
                  for line in lines]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(edited) + "\n", encoding="utf-8")
        capsys.readouterr()
        code = run(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "a" / "out"),
                    *TINY_FLAGS])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: 150 bad row(s):\n  row ")
        assert "speaker id '../../evil' is not a plain file name" in err
        assert sorted(tmp_path.rglob("*")) == [manifest]

    @pytest.mark.parametrize("command", ["extract", "train"])
    def test_speaker_id_with_a_comma_exits_1_before_writing(self, pipeline, tmp_path, capsys,
                                                            command):
        # reports and manifests are written unquoted: a quoted "a,b" would
        # split into two fields there
        lines = pipeline["manifest"].read_text(encoding="utf-8").splitlines()
        features = f"{pipeline['corpus'] / 'features'}/"
        edited = [line.replace(",features/", f",{features}") for line in lines]
        edited = ['"a,b",' + line.removeprefix("spk01,") if line.startswith("spk01,") else line
                  for line in edited]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(edited) + "\n", encoding="utf-8")
        first = 1 + next(i for i, line in enumerate(edited) if line.startswith('"a,b",'))
        capsys.readouterr()
        code = run([command, "--manifest", str(manifest), "--out", str(tmp_path / "out"),
                    *TINY_FLAGS])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[:2] == [
            f"error: {manifest}: 150 bad row(s):",
            f"  row {first}: speaker id 'a,b' contains a comma or a double quote",
        ]
        assert sorted(tmp_path.rglob("*")) == [manifest]

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

    def test_synth_audio_non_default_hop_exits_1(self, tmp_path, capsys):
        # synthetic WAVs are cut for a 30 ms window every 5 ms, whatever the run asks
        for flag, value in (("--hop_ms", "10"), ("--window_ms", "25")):
            out = tmp_path / flag.strip("-")
            code = run(["synth", "--out", str(out), "--synth_audio", "true", flag, value,
                        *TINY_FLAGS])
            assert code == 1
            err = capsys.readouterr().err
            assert "window_ms=30 and hop_ms=5" in err
            assert f"{flag.strip('-')}={value}" in err
            assert not (out / "manifest.csv").exists()

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

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("model-not-utf8", "spk02.model: not valid UTF-8 at byte 40"),
            ("model-is-directory", "spk02.model: cannot read (Is a directory)"),
            ("population-not-utf8", "population.txt: not valid UTF-8 at byte 6"),
        ],
        ids=["model-not-utf8", "model-is-directory", "population-not-utf8"],
    )
    def test_unreadable_model_file_exits_1(self, pipeline, tmp_path, capsys, damage, message):
        trained = pipeline["out"] / "models" / "unbiased"
        models = tmp_path / "run" / "models" / "unbiased"
        models.mkdir(parents=True)
        for name in ("spk01.model", "spk02.model", "population.txt"):
            (models / name).write_bytes((trained / name).read_bytes())
        if damage == "model-not-utf8":
            text = (models / "spk02.model").read_bytes()
            (models / "spk02.model").write_bytes(text[:40] + b"\xff" + text[41:])
        elif damage == "model-is-directory":
            (models / "spk02.model").unlink()
            (models / "spk02.model").mkdir()
        else:
            (models / "population.txt").write_bytes(b"spk01\n\xe9spk02\n")
        code = run(
            [
                "evaluate",
                "--manifest", str(pipeline["manifest"]),
                "--out", str(tmp_path / "run"),
                *TINY_FLAGS,
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"{models}/{message}" in err and "internal error" not in err

    @pytest.mark.parametrize("damage", ["manifest", "config", "baseline", "wav-header"])
    def test_damaged_input_exits_1(self, pipeline, tmp_path, capsys, damage):
        # each reader names the file, and a decode error its byte offset
        def bad_byte(source: bytes, at: int) -> tuple[bytes, str]:
            return source[:at] + b"\xff" + source[at:], f"not valid UTF-8 at byte {at}"

        manifest, extra = str(pipeline["manifest"]), []
        if damage == "manifest":
            path = tmp_path / "manifest.csv"
            blob, message = bad_byte(pipeline["manifest"].read_bytes(), 30)
            manifest = str(path)
        elif damage == "config":
            path = tmp_path / "run.cfg"
            blob, message = bad_byte(b"alpha = 0.5\n# a note\n", 16)
            extra = ["--config", str(path)]
        elif damage == "baseline":
            path = tmp_path / "performance.csv"
            blob, message = bad_byte(b"Emotion,Males(%),Females(%),Average(%)\nneutral,1,2,3\n", 41)
            extra = ["--compare", str(path)]
        else:
            path = tmp_path / "damaged.wav"
            write_audio(AudioSignal(samples=np.zeros(800, dtype=np.int16), sample_rate=16000), path)
            wav = path.read_bytes()
            blob = wav[:16] + (2**31).to_bytes(4, "little") + wav[20:]  # fmt chunk past the RIFF end
            message = "unsupported encoding ("
        path.write_bytes(blob)
        if damage == "wav-header":
            argv = ["identify", "--out", str(pipeline["out"]), "--input", str(path)]
        else:
            argv = ["evaluate", "--manifest", manifest, "--out", str(pipeline["out"]), *extra]
        code = run([*argv, *TINY_FLAGS])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

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

    @pytest.mark.parametrize(
        "exc, message",
        [
            (TrainingError("no frames to train on"), "error: no frames to train on"),
            (RuntimeError("boom"), "internal error: RuntimeError: boom"),
        ],
        ids=["training-error", "unexpected-error"],
    )
    def test_runtime_failure_exits_2(self, pipeline, tmp_path, capsys, monkeypatch, exc, message):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("emospeaker.cli.train_population", fail)
        code = run(["train", "--manifest", str(pipeline["manifest"]), "--out", str(tmp_path),
                    *TINY_FLAGS])
        assert code == 2
        assert capsys.readouterr().err == message + "\n"
        assert list(tmp_path.iterdir()) == []

    def test_model_file_of_another_speaker_exits_1(self, pipeline, tmp_path, capsys):
        trained = pipeline["out"] / "models" / "unbiased"
        models = tmp_path / "run" / "models" / "unbiased"
        models.mkdir(parents=True)
        for name in ("spk01.model", "population.txt"):
            (models / name).write_bytes((trained / name).read_bytes())
        (models / "spk02.model").write_bytes((trained / "spk01.model").read_bytes())
        code = run(["evaluate", "--manifest", str(pipeline["manifest"]),
                    "--out", str(tmp_path / "run"), *TINY_FLAGS])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {models / 'spk02.model'}: contains model for 'spk01'\n"
        )

    def test_comment_after_manifest_header_exits_1(self, pipeline, tmp_path, capsys):
        lines = pipeline["manifest"].read_text(encoding="utf-8").splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("speaker_id,"))
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join([*lines[:header + 2], "# a note", *lines[header + 2:]]) + "\n")
        code = run(["train", "--manifest", str(broken), "--out", str(tmp_path / "o"), *TINY_FLAGS])
        assert code == 1
        assert capsys.readouterr().err == f"error: {broken}:{header + 3}: comment after header\n"

    def test_compare_report_sharing_one_emotion_exits_1(self, pipeline, tmp_path, capsys):
        baseline = tmp_path / "baseline_performance.csv"
        baseline.write_text(
            "Emotion,Males(%),Females(%),Average(%)\n"
            "neutral,92.00,88.00,90.00\nsad,78.00,82.00,80.00\naverage,85.00,85.00,85.00\n"
        )
        code = run(["evaluate", "--manifest", str(pipeline["manifest"]),
                    "--out", str(pipeline["out"]), "--compare", str(baseline), *TINY_FLAGS])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: baseline report shares 1 emotion(s) with this run; need at least 2\n"
        )

    def test_missing_compare_report_exits_1(self, pipeline, tmp_path, capsys):
        ghost = tmp_path / "ghost.csv"
        code = run(["evaluate", "--manifest", str(pipeline["manifest"]),
                    "--out", str(pipeline["out"]), "--compare", str(ghost), *TINY_FLAGS])
        assert code == 1
        assert capsys.readouterr().err == f"error: performance report not found: {ghost}\n"

    def test_identify_without_models(self, tmp_path, pipeline, capsys):
        feat = next((pipeline["corpus"] / "features").glob("*.lfpc.feat"))
        code = run(
            ["identify", "--out", str(tmp_path / "empty"), "--input", str(feat), *TINY_FLAGS]
        )
        assert code == 1
        assert "population" in capsys.readouterr().err

    def test_bad_flag_value_usage_error(self, capsys):
        # the message names the flag and its type, holds no object address,
        # and so reads the same from every parser build
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                run(["evaluate", "--alpha", "fishy", "--manifest", "m", "--out", "o"])
            assert exc.value.code == 1
            errors.append(capsys.readouterr().err)
        assert "argument --alpha: invalid float value: 'fishy'" in errors[0]
        assert "0x" not in errors[0]
        assert errors[0] == errors[1]

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

    def test_identify_wav_shorter_than_one_frame_exits_1(self, pipeline, tmp_path, capsys):
        wav = tmp_path / "short.wav"
        write_audio(AudioSignal(samples=np.zeros(300, dtype=np.int16), sample_rate=16000), wav)
        code = run(["identify", "--out", str(pipeline["out"]), "--input", str(wav), *TINY_FLAGS])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "300 samples" in err and "(480)" in err

    @pytest.mark.parametrize("name", ["dir.lfpc.feat", "dir.wav"])
    def test_identify_unreadable_input_exits_1(self, pipeline, tmp_path, capsys, name):
        # a directory where a feature file or WAV should be is invalid input
        target = tmp_path / name
        target.mkdir()
        code = run(["identify", "--out", str(pipeline["out"]), "--input", str(target), *TINY_FLAGS])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: {target}: cannot read (")

    def test_unsupported_input_type(self, pipeline, tmp_path, capsys):
        bogus = tmp_path / "note.txt"
        bogus.write_text("hello")
        code = run(
            ["identify", "--out", str(pipeline["out"]), "--input", str(bogus), *TINY_FLAGS]
        )
        assert code == 1
        assert "unsupported" in capsys.readouterr().err
