"""Print the sha256 of every model, population.txt and report file under a run directory.

    python3 tools/digest_artifacts.py RUN_DIR

A run directory is what ``emospeaker train``, ``evaluate`` and ``xval`` write
under ``--out``: ``models/<plan>/*.model`` with their ``population.txt``, and
``reports/<plan>/*``. Each line is ``<sha256>  <path>``, the path relative to
its run directory, sorted by path, so two runs are byte-identical exactly
when their outputs are identical:

    diff <(python3 tools/digest_artifacts.py old/run) <(python3 tools/digest_artifacts.py new/run)

The exit code is 1 when the run directory is missing or holds none of these files.
"""

import hashlib
import sys
from pathlib import Path


def is_artifact(relative: Path) -> bool:
    """A model file, a population index, or any file under a ``reports`` directory."""
    return (
        relative.suffix == ".model"
        or relative.name == "population.txt"
        or "reports" in relative.parts[:-1]
    )


def digests(run_dir: Path) -> list[tuple[str, str]]:
    """(sha256 hex, path relative to ``run_dir``) of every artifact, sorted by path."""
    found = []
    for path in run_dir.rglob("*"):
        relative = path.relative_to(run_dir)
        if path.is_file() and is_artifact(relative):
            found.append((hashlib.sha256(path.read_bytes()).hexdigest(), relative.as_posix()))
    return sorted(found, key=lambda item: item[1])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/digest_artifacts.py RUN_DIR", file=sys.stderr)
        return 1
    run_dir = Path(argv[0])
    found = digests(run_dir) if run_dir.is_dir() else []
    if not found:
        print(f"error: no models or reports under {run_dir}", file=sys.stderr)
        return 1
    for digest, relative in found:
        print(f"{digest}  {relative}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
