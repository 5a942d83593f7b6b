"""Print how far the model files of two run directories moved, per parameter kind.

    python3 tools/model_drift.py OLD_RUN NEW_RUN

A run directory is what ``emospeaker train`` writes under ``--out``:
``models/<plan>/*.model``. The two runs must hold the same model files, by
path relative to their run directories, and each pair must agree on every
line but the parameter values: the same speakers, streams and shapes.

A parameter line is a ``pi``, ``A``, ``weights``, ``mean`` or ``var`` line.
Its drift is the largest absolute difference between its two versions,
divided by the largest absolute entry of the old line (or by 1 where that
entry is 0). For each model file the tool prints the largest drift of each
kind of line, then a ``largest`` row over every file:

    file                          pi        A         weights   mean      var
    models/unbiased/spk01.model   0         2.1e-16   0         8.9e-16   3.3e-15
    largest                       0         2.1e-16   0         8.9e-16   3.3e-15

Identical parameters print ``0``. The exit code is 1 when a run has no model
files, when the two runs hold different model files, or when a pair of files
differs in anything but its parameter values.
"""

import sys
from pathlib import Path

KINDS = ("pi", "A", "weights", "mean", "var")


class DriftError(Exception):
    """Two runs whose model files cannot be compared parameter by parameter."""


def split_line(line: str) -> tuple[str | None, list[str], list[float]]:
    """(parameter kind or None, the line's leading words, its values) of one model line.

    A parameter line's leading words are its kind and indices (``A 3``,
    ``state 2 mean 0``); every other line is all leading words.
    """
    tokens = line.split()
    if tokens[:1] == ["pi"]:
        kind, head = "pi", 1
    elif tokens[:1] == ["A"]:
        kind, head = "A", 2
    elif tokens[:1] == ["state"] and tokens[2:3] == ["weights"]:
        kind, head = "weights", 3
    elif tokens[:1] == ["state"] and tokens[2:3] in (["mean"], ["var"]):
        kind, head = tokens[2], 4
    else:
        return None, tokens, []
    try:
        return kind, tokens[:head], [float(t) for t in tokens[head:]]
    except ValueError:
        raise DriftError(f"not a parameter line: {line!r}") from None


def file_drift(old: str, new: str) -> dict[str, float]:
    """The largest relative drift of each kind of parameter line between two model texts."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        raise DriftError(f"{len(old_lines)} lines against {len(new_lines)}")
    drift = dict.fromkeys(KINDS, 0.0)
    for number, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
        kind, head, before = split_line(a)
        _, new_head, after = split_line(b)
        if head != new_head or len(before) != len(after):
            raise DriftError(f"line {number} differs in more than its values: {a!r} against {b!r}")
        if kind is None:
            continue
        scale = max(abs(x) for x in before) or 1.0
        largest = max(abs(x - y) for x, y in zip(before, after)) / scale
        drift[kind] = max(drift[kind], largest)
    return drift


def model_files(run_dir: Path) -> dict[str, Path]:
    """Every ``*.model`` file under ``run_dir``, keyed by its path relative to it."""
    return {p.relative_to(run_dir).as_posix(): p for p in run_dir.rglob("*.model") if p.is_file()}


def drifts(old_run: Path, new_run: Path) -> dict[str, dict[str, float]]:
    """Each model file's drift per kind, sorted by path; raises DriftError when incomparable."""
    old, new = model_files(old_run), model_files(new_run)
    if not old or not new:
        raise DriftError(f"no model files under {old_run if not old else new_run}")
    if old.keys() != new.keys():
        only = sorted(old.keys() ^ new.keys())
        raise DriftError(f"the runs hold different model files: {', '.join(only)}")
    result = {}
    for name in sorted(old):
        try:
            result[name] = file_drift(old[name].read_text(encoding="utf-8"),
                                      new[name].read_text(encoding="utf-8"))
        except DriftError as exc:
            raise DriftError(f"{name}: {exc}") from None
    return result


def _cell(value: float) -> str:
    return "0" if value == 0.0 else f"{value:.2g}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/model_drift.py OLD_RUN NEW_RUN", file=sys.stderr)
        return 1
    try:
        table = drifts(Path(argv[0]), Path(argv[1]))
    except DriftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    table["largest"] = {kind: max(row[kind] for row in table.values()) for kind in KINDS}
    width = max(len(name) for name in table) + 2
    print("file".ljust(width) + "".join(kind.ljust(10) for kind in KINDS).rstrip())
    for name, row in table.items():
        print(name.ljust(width) + "".join(_cell(row[kind]).ljust(10) for kind in KINDS).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
