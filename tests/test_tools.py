"""tools/digest_artifacts.py lists exactly the models, population indexes and reports of a run."""

import hashlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("digest_artifacts", ROOT / "tools" / "digest_artifacts.py")
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
