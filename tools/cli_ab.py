"""Check that two source trees' command lines write the same outputs, or time them.

    python3 tools/cli_ab.py OLD_SRC NEW_SRC [--script standard|tiny] [--time K]

Each SRC is a directory holding an ``emospeaker`` package, such as a
checkout's ``src``. Both trees run the same script of ``emospeaker``
commands, each in its own process with ``PYTHONPATH`` at its SRC and its own
empty work directory as the working directory; the two processes run at
once, each with one BLAS thread as ``bench/run.py`` runs, because a trained
model's trailing digits depend on the thread count. The ``standard`` script is:

* the CLI tests' feature corpus: ``synth --seed 3`` at the tests' tiny flags,
  ``train``, ``evaluate`` at alpha 0, 0.5 and 1 and with ``--compare`` a
  baseline report, 3-fold ``xval``, ``identify`` on one feature file, an
  ``extract`` over the corpus's own directory and one into a separate
  directory;
* their WAV corpus: ``synth --seed 5 --synth_audio true``, ``extract`` and
  then again with every output up to date, ``train``, ``evaluate`` and
  ``identify`` on one WAV; then ``extract`` into a directory of its own,
  ``train`` and ``evaluate`` with each of the ten front-end keys off its
  default (``FRONT_END``), so that each must reach its stage; then the same
  WAV corpus synthesized for ``FRONT_END``'s framing, extracted, trained on
  and evaluated with ``FRONT_END``;
* a 3-speaker ``biased:angry`` corpus at the paper's topology (9x10
  acoustic, 3x2 prosodic): ``train`` and ``evaluate`` at alpha 0, 0.5 and 1
  under both plans, and 3-fold ``xval`` under the biased one;
* then the CLI tests' error paths, each on input that is wrong in one way.

The ``tiny`` script is the feature corpus's ``synth`` of its neutral
utterances only, ``train``, one ``evaluate`` and one ``identify``, then two
error paths: a check of the tool itself that takes about a second.

Each command runs through ``emospeaker.cli.main`` in its tree's process. Its
record is its exit code, its stdout and stderr with the work directory
written as ``<work>`` and object addresses as ``0x?``, and the sha256 of
every file under the work directory that it created or changed: corpora,
feature files, models, ``population.txt`` and reports, each taken right
after the command that wrote it. The last line of output is one JSON object whose ``verdict`` is
``identical`` when every record of the two trees matches, and ``different``
otherwise, with the first differences listed. The exit code is 0 for
identical and 1 for different, or when a tree holds no package or its
process fails.

With ``--time K`` the tool times the default run instead of checking
outputs. The old tree runs ``synth --seed 7 --n_speakers 4`` once; then, in
each of K rounds, each tree runs ``train --seed 7`` and ``evaluate`` at
default config on that corpus, into a models directory of its own, in a
process of its own with one BLAS thread (``ONE_BLAS_THREAD``). The trees
run one after the other, and the one that goes first alternates from round
to round. A command's time is the wall time of its ``emospeaker.cli.main``
call, so interpreter start-up and imports are not counted. With ``--script
tiny`` every command takes the ``tiny`` script's flags instead, a check of
the tool itself. The last line of output is one JSON object: for
``train_s`` and ``evaluate_s``, each tree's times, their medians, the ratio
new/old and in how many rounds the new tree was lower. The exit code is 0,
or 1 when a tree holds no package, a process fails or a command exits
non-zero.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
import wave
from pathlib import Path

WORK = "<work>"
# an object's address in a repr, which differs from process to process
ADDRESS = re.compile(r"\b0x[0-9a-f]{6,}\b")
MAX_LISTED = 20  # differences listed in the verdict

# the CLI tests' tiny experiment (tests/test_cli.py)
TINY = [
    "--n_speakers", "2", "--emotions", "neutral,angry", "--frames_min", "15",
    "--frames_max", "20", "--acoustic_states", "2", "--acoustic_mixtures", "1",
    "--prosodic_states", "2", "--prosodic_mixtures", "1", "--max_iterations", "2",
    "--separation", "3.0",
]
# three speakers at the default (paper) topology, with biased angry material
PAPER = [
    "--n_speakers", "3", "--emotions", "neutral,angry", "--bias_emotions", "angry",
    "--frames_min", "8", "--frames_max", "12", "--max_iterations", "2",
]
BASELINE = (
    "Emotion,Males(%),Females(%),Average(%)\n"
    "neutral,92.00,88.00,90.00\nangry,78.00,82.00,80.00\naverage,85.00,85.00,85.00\n"
)
# every front-end key off its default, each changing the WAV corpus's
# features: n_fft still covers the 15 ms window, and the pitch range and
# voicing threshold cut across its voices (about 137-157 Hz, peak scores
# near 1)
FRONT_END = [
    "--window_ms", "15", "--hop_ms", "4", "--n_fft", "256", "--n_bands", "12",
    "--f_low", "120", "--f_high", "7000", "--block_size", "7", "--f0_min", "100",
    "--f0_max", "145", "--voicing_threshold", "0.8",
]
FEATURE_FILE = "feat/corpus/features/spk01_neutral_s1_r10_unbiased.lfpc.feat"
WAV_FILE = "wav/corpus/audio/spk02_angry_s3_r12_unbiased.wav"
MODELS = "feat/run/models/unbiased"
ONE_BLAS_THREAD = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                        "MKL_NUM_THREADS")}


# --- inputs that the error paths read, written by the tool on both sides -----------

def write_wav(path: Path, samples: list[int], rate: int) -> None:
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(rate)
        wav.writeframes(struct.pack(f"<{len(samples)}h", *samples))


def edit_manifest(work: Path, name: str, edit) -> None:
    """err/<name>: the feature corpus's manifest with its lines passed through ``edit``."""
    lines = (work / "feat/corpus/manifest.csv").read_text(encoding="utf-8").splitlines()
    (work / "err" / name).write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def drop_training_row(lines: list[str]) -> list[str]:
    first = next(i for i, line in enumerate(lines) if ",train,1," in line)
    return lines[:first] + lines[first + 1:]


def copy_models(work: Path, run: str) -> Path:
    target = work / "err" / run / "models" / "unbiased"
    shutil.copytree(work / MODELS, target)
    return target


def prepare_errors(work: Path) -> None:
    err = work / "err"
    err.mkdir()
    edit_manifest(work, "incomplete.csv", drop_training_row)
    edit_manifest(work, "rate.csv", lambda lines: ["# sample_rate=abc"]
                  + [line for line in lines if not line.startswith("# sample_rate=")])
    edit_manifest(work, "repeated.csv", lambda lines: ["# sample_rate=8000", *lines])
    manifest = (work / "feat/corpus/manifest.csv").read_bytes()
    (err / "not_utf8.csv").write_bytes(manifest[:30] + b"\xff" + manifest[30:])
    (err / "three_fields.csv").write_text(BASELINE.replace("angry,78.00,82.00,80.00",
                                                           "angry,78.00,82.00"))
    (err / "run.cfg").write_text("alpha = 2.5\n")
    (copy_models(work, "dup") / "population.txt").write_text("spk01\nspk02\nspk01\n")
    model = copy_models(work, "utf8") / "spk02.model"
    text = model.read_bytes()
    model.write_bytes(text[:40] + b"\xff" + text[41:])
    copy_models(work, "unenrolled")
    write_wav(err / "slow.wav", [round(0.3 * 32767 * math.sin(2 * math.pi * 150.0 * t / 8000))
                                 for t in range(4000)], 8000)
    write_wav(err / "short.wav", [0] * 300, 16000)
    write_wav(err / "damaged.wav", [0] * 800, 16000)
    blob = (err / "damaged.wav").read_bytes()
    (err / "damaged.wav").write_bytes(blob[:16] + (2**31).to_bytes(4, "little") + blob[20:])
    (err / "dir.lfpc.feat").mkdir()
    (err / "note.txt").write_text("hello")


def prepare_baseline(work: Path) -> None:
    (work / "feat" / "baseline.csv").write_text(BASELINE)


# --- scripts --------------------------------------------------------------------

def feature_corpus(alphas: tuple[str, ...], full: bool) -> list:
    flags = TINY if full else [*TINY, "--emotions", "neutral"]
    evaluate = ["evaluate", "--manifest", "feat/corpus/manifest.csv", "--out", "feat/run", *flags]
    steps = [
        ["synth", "--seed", "3", "--out", "feat/corpus", *flags],
        ["train", "--manifest", "feat/corpus/manifest.csv", "--out", "feat/run", "--seed", "3",
         *flags],
        *([*evaluate, "--alpha", alpha] for alpha in alphas),
        ["identify", "--out", "feat/run", "--input", FEATURE_FILE, *flags],
    ]
    if full:
        steps += [
            prepare_baseline,
            [*evaluate, "--compare", "feat/baseline.csv", "--t_test_n", "60"],
            [*evaluate, "--compare", "feat/run/reports/unbiased/performance.csv"],
            ["xval", "--manifest", "feat/corpus/manifest.csv", "--out", "feat/run",
             "--n_folds", "3", "--seed", "3", *TINY],
            ["extract", "--manifest", "feat/corpus/manifest.csv", "--out", "feat/corpus", *TINY],
            ["extract", "--manifest", "feat/corpus/manifest.csv", "--out", "feat/extracted",
             *TINY],
        ]
    return steps


def wav_corpus() -> list:
    extract = ["extract", "--manifest", "wav/corpus/manifest.csv", "--out", "wav/features", *TINY]
    front_end = ["--manifest", "wav/front_end/features.csv", "--out", "wav/front_end_run", *TINY,
                 *FRONT_END]
    framed = ["--manifest", "wav/framed_features/features.csv", "--out", "wav/framed_run",
              *TINY, *FRONT_END]
    return [
        ["synth", "--seed", "5", "--synth_audio", "true", "--out", "wav/corpus", *TINY],
        extract,
        extract,  # every output up to date
        ["train", "--manifest", "wav/features/features.csv", "--out", "wav/run", *TINY],
        ["evaluate", "--manifest", "wav/features/features.csv", "--out", "wav/run", *TINY],
        ["identify", "--out", "wav/run", "--input", WAV_FILE, *TINY],
        ["extract", "--manifest", "wav/corpus/manifest.csv", "--out", "wav/front_end", *TINY,
         *FRONT_END],
        ["train", *front_end],
        ["evaluate", *front_end],
        ["synth", "--seed", "5", "--synth_audio", "true", "--out", "wav/framed", *TINY,
         *FRONT_END],
        ["extract", "--manifest", "wav/framed/manifest.csv", "--out", "wav/framed_features",
         *TINY, *FRONT_END],
        ["train", *framed],
        ["evaluate", *framed],
    ]


def paper_corpus() -> list:
    steps = [["synth", "--seed", "7", "--out", "paper/corpus", *PAPER]]
    common = ["--manifest", "paper/corpus/manifest.csv", "--out", "paper/run", *PAPER]
    for plan in ("unbiased", "biased:angry"):
        steps.append(["train", "--plan", plan, "--seed", "7", *common])
        steps += [["evaluate", "--plan", plan, "--alpha", alpha, *common]
                  for alpha in ("0", "0.5", "1")]
    steps.append(["xval", "--plan", "biased:angry", "--n_folds", "3", "--seed", "7", *common])
    return steps


def error_paths() -> list:
    evaluate = ["evaluate", "--manifest", "feat/corpus/manifest.csv", "--out", "feat/run"]
    return [
        prepare_errors,
        ["train", "--out", "err/o", *TINY],
        ["train", "--manifest", "err/ghost.csv", "--out", "err/o", *TINY],
        ["train", "--manifest", "err/incomplete.csv", "--out", "err/o", *TINY],
        ["train", "--manifest", "err/rate.csv", "--out", "err/o", *TINY],
        ["train", "--manifest", "err/repeated.csv", "--out", "err/o", *TINY],
        ["synth", "--config", "err/run.cfg", "--out", "err/c"],
        [*evaluate, "--compare", "err/three_fields.csv", *TINY],
        ["evaluate", "--manifest", "err/not_utf8.csv", "--out", "feat/run", *TINY],
        ["evaluate", "--manifest", "feat/corpus/manifest.csv", "--out", "err/dup", *TINY],
        ["evaluate", "--manifest", "feat/corpus/manifest.csv", "--out", "err/utf8", *TINY],
        ["synth", "--seed", "4", "--out", "err/three", *TINY, "--n_speakers", "3"],
        ["evaluate", "--manifest", "err/three/manifest.csv", "--out", "err/unenrolled", *TINY,
         "--n_speakers", "3"],
        ["identify", "--out", "err/empty", "--input", FEATURE_FILE, *TINY],
        *(["identify", "--out", "feat/run", "--input", f"err/{name}", *TINY]
          for name in ("slow.wav", "short.wav", "damaged.wav", "dir.lfpc.feat", "note.txt")),
        ["evaluate", "--alpha", "fishy", "--manifest", "m", "--out", "o"],
        ["frobnicate"],
        ["identify", "--out", "err/o"],
    ]


SCRIPTS = {
    "standard": lambda: [*feature_corpus(("0", "0.5", "1"), full=True), *wav_corpus(),
                         *paper_corpus(), *error_paths()],
    "tiny": lambda: [*feature_corpus(("0.5",), full=False),
                     ["train", "--manifest", "err/ghost.csv", "--out", "err/o", *TINY],
                     ["frobnicate"]],
}


# --- one tree's side: run the script in this process ----------------------------------

class Snapshot:
    """sha256 of the files under a directory, rehashed only where size or mtime moved."""

    def __init__(self, root: Path):
        self.root = root
        self.seen: dict[str, tuple[tuple[int, int], str]] = {}

    def changes(self) -> dict[str, str | None]:
        """Every file created, changed or removed since the last call: path -> sha256 or None."""
        changed, present = {}, set()
        for directory, _, names in os.walk(self.root):
            for name in names:
                path = Path(directory) / name
                relative = path.relative_to(self.root).as_posix()
                present.add(relative)
                stat = path.stat()
                key = (stat.st_size, stat.st_mtime_ns)
                old = self.seen.get(relative)
                if old is not None and old[0] == key:
                    continue
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                self.seen[relative] = (key, digest)
                if old is None or old[1] != digest:
                    changed[relative] = digest
        for relative in sorted(set(self.seen) - present):
            del self.seen[relative]
            changed[relative] = None
        return dict(sorted(changed.items()))


def run_command(main, argv: list[str], work: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - recorded and compared, not hidden
            code = f"raised {type(exc).__name__}: {exc}"

    def normalised(text: str) -> str:
        return ADDRESS.sub("0x?", text.replace(str(work), WORK))

    return {"command": " ".join(argv), "exit": code,
            "stdout": normalised(out.getvalue()), "stderr": normalised(err.getvalue())}


def tree_main(src: Path):
    """``emospeaker.cli.main`` of the tree at ``src``, checked to be imported from it."""
    import emospeaker
    from emospeaker.cli import main

    package = Path(emospeaker.__file__).resolve().parent
    if package != (src / "emospeaker").resolve():
        raise RuntimeError(f"imported emospeaker from {package}, not from {src}")
    return main


def run_side(src: Path, work: Path, script: str) -> list[dict]:
    """The records of every command of ``script``, run by the tree at ``src`` in ``work``."""
    main = tree_main(src)
    work = work.resolve()
    os.chdir(work)
    snapshot, records = Snapshot(work), []
    for step in SCRIPTS[script]():
        if callable(step):
            step(work)
            snapshot.changes()  # prepared inputs are the tool's, the same on both sides
            continue
        record = run_command(main, step, work)
        record["files"] = snapshot.changes()
        records.append(record)
    return records


# --- both trees --------------------------------------------------------------------

def differences(old: list[dict], new: list[dict]) -> list[dict]:
    found = []
    for step, (a, b) in enumerate(zip(old, new)):
        for field in ("exit", "stdout", "stderr"):
            if a[field] != b[field]:
                found.append({"step": step, "command": a["command"], "field": field,
                              "old": a[field], "new": b[field]})
        paths = sorted(p for p in a["files"].keys() | b["files"].keys()
                       if a["files"].get(p, "absent") != b["files"].get(p, "absent"))
        if paths:
            found.append({"step": step, "command": a["command"], "field": "files",
                          "paths": paths[:MAX_LISTED], "count": len(paths)})
    if len(old) != len(new):
        found.append({"field": "commands", "old": len(old), "new": len(new)})
    return found


def start_process(src: Path, args: list[str]) -> subprocess.Popen:
    """This tool, run with ``args`` in a process of its own on the tree at ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), **ONE_BLAS_THREAD)
    argv = [sys.executable, str(Path(__file__).resolve()), *args]
    return subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def start_side(src: Path, work: Path, script: str, result: Path) -> subprocess.Popen:
    work.mkdir(parents=True)
    return start_process(src, ["--side", str(src), str(work), script, str(result)])


def compare(old_src: Path, new_src: Path, script: str) -> tuple[dict, int]:
    with tempfile.TemporaryDirectory(prefix="cli_ab-") as tmp:
        sides = {label: (Path(tmp) / label, Path(tmp) / f"{label}.json")
                 for label in ("old", "new")}
        running = {label: start_side(src, sides[label][0], script, sides[label][1])
                   for label, src in (("old", old_src), ("new", new_src))}
        records, failed = {}, {}
        for label, process in running.items():
            _, stderr = process.communicate()
            if process.returncode != 0:
                failed[label] = stderr.strip().splitlines()[-1:] or [f"exit {process.returncode}"]
            else:
                records[label] = json.loads(sides[label][1].read_text())
    if failed:
        return {"verdict": "failed", "script": script, "failed": failed}, 1
    found = differences(records["old"], records["new"])
    report = {
        "verdict": "different" if found else "identical",
        "script": script,
        "commands": len(records["old"]),
        "exit_codes": [r["exit"] for r in records["old"]],
        "files_digested": sum(len(r["files"]) for r in records["old"]),
        "differences": found[:MAX_LISTED],
    }
    return report, 1 if found else 0


# --- timing mode -------------------------------------------------------------------

# per script: the flags of every timed command, and synth's own
TIMED_FLAGS = {"standard": ([], ["--n_speakers", "4"]), "tiny": (TINY, [])}
TIMED = ("train", "evaluate")


def run_timed(src: Path, work: Path, commands: list[list[str]]) -> list[dict]:
    """Each command's record (``run_command``) and the wall seconds of its ``main`` call."""
    main = tree_main(src)
    work = work.resolve()
    os.chdir(work)
    records = []
    for argv in commands:
        start = time.perf_counter()
        record = run_command(main, argv, work)
        record["seconds"] = time.perf_counter() - start
        records.append(record)
    return records


def timed(src: Path, work: Path, commands: list[list[str]], result: Path) -> list[dict]:
    """``run_timed`` in a process of its own on the tree at ``src``; raises if anything fails."""
    process = start_process(src, ["--timed", str(src), str(work), str(result),
                                  json.dumps(commands)])
    _, stderr = process.communicate()
    if process.returncode != 0:
        raise RuntimeError(f"{src}: " + (stderr.strip().splitlines()[-1:] or
                                         [f"exit {process.returncode}"])[0])
    records = json.loads(result.read_text())
    for record in records:
        if record["exit"] != 0:
            raise RuntimeError(f"{src}: {record['command']} exited {record['exit']}")
    return records


def time_trees(old_src: Path, new_src: Path, script: str, rounds: int) -> dict:
    flags, synth_flags = TIMED_FLAGS[script]
    manifest = "corpus/manifest.csv"
    times = {f"{name}_s": {"old": [], "new": []} for name in TIMED}
    with tempfile.TemporaryDirectory(prefix="cli_ab-time-") as tmp:
        work, result = Path(tmp), Path(tmp) / "result.json"
        timed(old_src, work, [["synth", "--seed", "7", "--out", "corpus", *flags,
                               *synth_flags]], result)
        for k in range(rounds):
            order = (("old", old_src), ("new", new_src))
            for label, src in order if k % 2 == 0 else order[::-1]:
                out = ["--manifest", manifest, "--out", f"run-{label}", *flags]
                records = timed(src, work, [["train", *out, "--seed", "7"],
                                            ["evaluate", *out]], result)
                for name, record in zip(TIMED, records):
                    times[f"{name}_s"][label].append(record["seconds"])
    report = {"mode": "time", "script": script, "rounds": rounds}
    for metric, sides in times.items():
        old_s, new_s = statistics.median(sides["old"]), statistics.median(sides["new"])
        report[metric] = {
            "old_s": old_s,
            "new_s": new_s,
            "ratio": new_s / old_s,
            "new_lower": sum(n < o for o, n in zip(sides["old"], sides["new"])),
            "rounds": rounds,
            "old": sides["old"],
            "new": sides["new"],
        }
    return report


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--side"]:  # one tree's own process, as start_side runs it
        _, src, work, script, result = argv
        Path(result).write_text(json.dumps(run_side(Path(src), Path(work), script)))
        return 0
    if argv[:1] == ["--timed"]:  # one tree's timed commands, as timed runs them
        _, src, work, result, commands = argv
        Path(result).write_text(json.dumps(run_timed(Path(src), Path(work),
                                                     json.loads(commands))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--script", choices=sorted(SCRIPTS), default="standard")
    parser.add_argument("--time", type=int, metavar="K",
                        help="time K rounds of the default run instead of comparing outputs")
    args = parser.parse_args(argv)
    if args.time is not None and args.time < 1:
        parser.error("--time needs at least one round")
    for src in (args.old_src, args.new_src):
        if not (src / "emospeaker" / "__init__.py").is_file():
            print(f"cli_ab: no emospeaker package under {src}", file=sys.stderr)
            return 1
    if args.time is not None:
        try:
            report, code = time_trees(args.old_src, args.new_src, args.script, args.time), 0
        except RuntimeError as exc:
            report, code = {"mode": "time", "verdict": "failed", "failed": str(exc)}, 1
    else:
        report, code = compare(args.old_src, args.new_src, args.script)
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
