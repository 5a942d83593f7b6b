"""tools/digest_artifacts.py lists exactly the models, population indexes and reports of a
run; tools/model_drift.py measures how far two runs' model parameters moved;
tools/ab_inprocess.py times two trees' packages in one process; tools/cli_ab.py checks
that two trees' command lines write the same outputs, and times their default run."""

import copy
import hashlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from emospeaker.sphmm import SpeakerModel, save_speaker_model
from helpers import random_model

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str = "digest_artifacts"):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_every_artifact_sorted_by_path(tmp_path, capsys):
    tool = load_tool()
    files = {
        "models/unbiased/spk02.model": b"two",
        "models/unbiased/spk01.model": b"one",
        "models/unbiased/population.txt": b"spk01\nspk02\n",
        "reports/unbiased/performance.csv": b"p",
        "reports/unbiased/statistics.csv": b"s",
        "manifest.csv": b"not an artifact",
        "features/u1.lfpc.feat": b"nor this",
    }
    for name, blob in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(blob)
    assert tool.main([str(tmp_path)]) == 0
    listed = sorted(name for name in files if name.startswith(("models/", "reports/")))
    want = [f"{hashlib.sha256(files[name]).hexdigest()}  {name}" for name in listed]
    assert capsys.readouterr().out.splitlines() == want


def test_run_without_artifacts_exits_1(tmp_path, capsys):
    tool = load_tool()
    (tmp_path / "manifest.csv").write_text("x")
    assert tool.main([str(tmp_path)]) == 1
    assert tool.main([str(tmp_path / "missing")]) == 1
    assert tool.main([]) == 1
    assert "no models or reports" in capsys.readouterr().err


def write_run(root: Path, models: dict) -> Path:
    """A run directory holding these speaker models under models/unbiased."""
    directory = root / "models" / "unbiased"
    directory.mkdir(parents=True)
    for speaker_id, model in models.items():
        save_speaker_model(model, directory / f"{speaker_id}.model")
    return root


def speaker(speaker_id, rng, acoustic_states=2):
    return SpeakerModel(
        speaker_id, random_model(rng, acoustic_states, 2, 3), random_model(rng, 2, 1, 2), -0.5
    )


def test_drift_is_the_largest_change_per_line_kind(tmp_path, capsys):
    tool = load_tool("model_drift")
    rng = np.random.default_rng(70)
    old = {"spk01": speaker("spk01", rng), "spk02": speaker("spk02", rng)}
    new = copy.deepcopy(old)
    moved = new["spk02"].acoustic.states[1]
    moved.means[0, 2] += 1e-12 * np.abs(moved.means[0]).max()  # 1e-12 of the line's largest entry
    new["spk02"].prosodic.states[0].variances[0, 1] *= 1.0 + 4e-15  # at most 4e-15 of it
    write_run(tmp_path / "old", old)
    write_run(tmp_path / "new", new)
    table = tool.drifts(tmp_path / "old", tmp_path / "new")
    assert list(table) == ["models/unbiased/spk01.model", "models/unbiased/spk02.model"]
    assert table["models/unbiased/spk01.model"] == dict.fromkeys(tool.KINDS, 0.0)
    drift = table["models/unbiased/spk02.model"]
    assert (drift["pi"], drift["A"], drift["weights"]) == (0.0, 0.0, 0.0)
    assert drift["mean"] == pytest.approx(1e-12, rel=1e-3)
    assert 0.0 < drift["var"] <= 4e-15
    assert tool.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["file", *tool.KINDS]
    assert lines[1].split() == ["models/unbiased/spk01.model", "0", "0", "0", "0", "0"]
    assert lines[3].split()[:5] == ["largest", "0", "0", "0", "1e-12"]


def test_runs_that_differ_in_files_or_shapes_exit_1(tmp_path, capsys):
    tool = load_tool("model_drift")
    rng = np.random.default_rng(71)
    one, two = speaker("spk01", rng), speaker("spk02", rng)
    write_run(tmp_path / "base", {"spk01": one, "spk02": two})
    write_run(tmp_path / "fewer", {"spk01": one})
    reshaped = speaker("spk02", rng, acoustic_states=3)
    write_run(tmp_path / "reshaped", {"spk01": one, "spk02": reshaped})
    assert tool.main([str(tmp_path / "base"), str(tmp_path / "fewer")]) == 1
    assert "different model files: models/unbiased/spk02.model" in capsys.readouterr().err
    assert tool.main([str(tmp_path / "base"), str(tmp_path / "reshaped")]) == 1
    assert "models/unbiased/spk02.model: " in capsys.readouterr().err
    assert tool.main([str(tmp_path / "base"), str(tmp_path / "missing")]) == 1
    assert tool.main([str(tmp_path / "base")]) == 1


def test_ab_inprocess_runs_a_tree_against_itself(tmp_path):
    # a subprocess, so that the bench module's BLAS setting and imports stay out of this one
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), src, src, "--rounds", "2"],
        capture_output=True, text=True, check=False, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["workload"] == "enroll_paper"
    assert report["predictions_agree"] and report["scores_identical"] and report["models_identical"]
    assert report["model_drift"] == dict.fromkeys(("pi", "A", "weights", "mean", "var"), 0.0)
    assert list(report["phases"]) == ["extract", "enroll", "identify", "sweep"]
    for phase in report["phases"].values():
        assert phase["old_s"] > 0 and phase["new_s"] > 0 and phase["rounds"] == 2
        assert phase["ratio"] == phase["new_s"] / phase["old_s"]
        assert 0 <= phase["new_lower"] <= 2
    missing = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), src, str(tmp_path)],
        capture_output=True, text=True, check=False,
    )
    assert missing.returncode == 1 and "no emospeaker package under" in missing.stderr


def test_ab_inprocess_extracts_wav_small_fresh_each_round(tmp_path):
    # wav_small's fresh_extract: every round runs the front end into a new directory
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), src, src,
         "--workload", "wav_small", "--rounds", "2"],
        capture_output=True, text=True, check=False, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["workload"] == "wav_small"
    assert report["predictions_agree"] and report["scores_identical"] and report["models_identical"]
    assert report["model_drift"] == dict.fromkeys(("pi", "A", "weights", "mean", "var"), 0.0)
    written = report["fresh_extracts"]
    files = written["old"][0]
    assert files > 0 and files % 2 == 0  # both streams of every record
    assert written == {"old": [files, files], "new": [files, files]}
    assert report["phases"]["extract"]["rounds"] == 2
    assert list(tmp_path.iterdir()) == []


def run_cli_ab(*argv) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_ab.py"), *map(str, argv)],
        capture_output=True, text=True, check=False,
    )
    return done.returncode, json.loads(done.stdout.splitlines()[-1]) if done.stdout else {}


def test_cli_ab_reads_a_tree_against_itself_as_identical_and_a_changed_digit_as_different(
    tmp_path,
):
    src = ROOT / "src"
    code, report = run_cli_ab(src, src, "--script", "tiny")
    assert code == 0, report
    assert report["verdict"] == "identical" and report["differences"] == []
    assert report["commands"] == 6 and report["exit_codes"] == [0, 0, 0, 0, 1, 1]
    assert report["files_digested"] > 300  # the corpus, the models and the reports

    # a copy whose speaker files write the log prior one ulp lower: one model digit
    changed = tmp_path / "src"
    shutil.copytree(src, changed, ignore=shutil.ignore_patterns("__pycache__"))
    sphmm = changed / "emospeaker" / "sphmm.py"
    text = sphmm.read_text()
    line = 'f"log_prior {repr(float(model.log_prior))}"'
    assert line in text
    sphmm.write_text(text.replace(
        line, 'f"log_prior {repr(math.nextafter(float(model.log_prior), -math.inf))}"'
    ))
    code, report = run_cli_ab(src, changed, "--script", "tiny")
    assert code == 1 and report["verdict"] == "different"
    train = next(d for d in report["differences"] if d["command"].startswith("train"))
    assert train["field"] == "files"
    assert train["paths"] == ["feat/run/models/unbiased/spk01.model",
                              "feat/run/models/unbiased/spk02.model"]

    code, _ = run_cli_ab(src, tmp_path / "nowhere", "--script", "tiny")
    assert code == 1


def test_cli_ab_runs_each_side_on_one_blas_thread(tmp_path, monkeypatch):
    tool = load_tool("cli_ab")
    started = []
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(tool.subprocess, "Popen", lambda argv, env, **_: started.append(env))
    tool.start_side(ROOT / "src", tmp_path / "work", "tiny", tmp_path / "side.json")
    assert [{var: env[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")} for env in started] == [
        {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    ]


def test_cli_ab_times_a_tree_against_itself(tmp_path):
    src = ROOT / "src"
    code, report = run_cli_ab(src, src, "--time", "1", "--script", "tiny")
    assert code == 0, report
    assert (report["mode"], report["script"], report["rounds"]) == ("time", "tiny", 1)
    for metric in ("train_s", "evaluate_s"):
        row = report[metric]
        assert row["old"] == [row["old_s"]] and row["new"] == [row["new_s"]]
        assert row["old_s"] > 0 and row["new_s"] > 0 and row["rounds"] == 1
        assert row["ratio"] == row["new_s"] / row["old_s"]
        assert row["new_lower"] in (0, 1)
    code, report = run_cli_ab(src, tmp_path / "nowhere", "--time", "1")
    assert code == 1 and report == {}


def test_cli_ab_timing_alternates_which_tree_goes_first(tmp_path, monkeypatch):
    tool = load_tool("cli_ab")
    runs = []

    def timed(src, work, commands, result):
        runs.append((src, [argv[0] for argv in commands]))
        seconds = {"old": 2.0, "new": 1.0}.get(Path(src).name, 0.0) + len(runs) / 100
        return [{"command": " ".join(argv), "exit": 0, "seconds": seconds} for argv in commands]

    monkeypatch.setattr(tool, "timed", timed)
    report = tool.time_trees(Path("old"), Path("new"), "standard", 3)
    assert runs == [
        (Path("old"), ["synth"]),
        (Path("old"), ["train", "evaluate"]), (Path("new"), ["train", "evaluate"]),
        (Path("new"), ["train", "evaluate"]), (Path("old"), ["train", "evaluate"]),
        (Path("old"), ["train", "evaluate"]), (Path("new"), ["train", "evaluate"]),
    ]
    assert report["train_s"]["old"] == [2.02, 2.05, 2.06]
    assert report["train_s"]["new"] == [1.03, 1.04, 1.07]
    assert (report["train_s"]["old_s"], report["train_s"]["new_s"]) == (2.05, 1.04)
    assert report["evaluate_s"]["new_lower"] == 3
