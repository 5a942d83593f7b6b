"""Time two source trees' packages against each other in one process.

    python3 tools/ab_inprocess.py OLD_SRC NEW_SRC [--workload enroll_paper] [--rounds 20]

Each SRC is a directory holding an ``emospeaker`` package, such as a
checkout's ``src``. Both packages are imported into this process under
different names. Each generates the workload's corpus (seed 1) in a
temporary directory and extracts it once, over the corpus's own directory.
The workloads and the fusion weights are those of ``bench/run.py``, read
from it as it stands. Every round then times each phase once per side, and
the side that goes first alternates from round to round:

* extract: ``extract_corpus`` as ``bench/run.py``'s extract phase runs it:
  into a new directory when the workload's ``fresh_extract`` is set, so that
  every round runs the front end, and over the corpus's own directory
  otherwise. A fresh directory is deleted once the round has timed it;
* enroll: ``train_population``;
* identify: ``identify`` on every test utterance, observations loaded beforehand;
* sweep: ``run_session`` once per fusion weight.

One process sees one machine state, so a ratio here is steadier than one
from separate benchmark runs. Times are unscaled wall seconds. The last line
of output is one JSON object: per phase, each side's median, the ratio
new/old, and in how many rounds the new side was lower. ``predictions_agree``
says whether the two sides identified every utterance alike in the sweep.
``scores_identical`` says whether their ``fused_log_scores`` tables of the
loaded test observations are equal at every fusion weight, and
``models_identical`` whether ``speaker_model_to_text`` gives the same text
for every enrolled speaker. ``model_drift`` is the largest drift of each kind
of parameter line over every speaker's two texts, as ``tools/model_drift.py``
measures it (``file_drift``). ``fresh_extracts`` lists, per side, how many
feature files each round's fresh extract wrote (empty when the workload
extracts in place). Exits 1 when the predictions differ or a tree
holds no package; the equalities and drifts are reported only, so that a
change that moves trailing digits on purpose can still be timed.
"""

import argparse
import importlib.util
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PHASES = ("extract", "enroll", "identify", "sweep")
SEED = 1


def load_module(name: str, path: Path, search: list[str] | None = None):
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_bench():
    """bench/run.py as a module. Loaded before numpy, so its one-BLAS-thread setting holds."""
    sys.path.insert(0, str(BENCH))
    return load_module("_ab_bench_run", BENCH / "run.py")


def load_package(src: Path, alias: str) -> dict:
    """The tree's corpus, features, protocol and sphmm modules, imported as ``alias``."""
    package = src / "emospeaker"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"no emospeaker package under {src}")
    load_module(alias, package / "__init__.py", [str(package)])
    return {name: importlib.import_module(f"{alias}.{name}")
            for name in ("corpus", "features", "protocol", "sphmm")}


class Side:
    """One tree's package, corpus and models, and its phases as calls."""

    def __init__(self, pkg: dict, bench, workload, directory: Path):
        self.pkg, self.bench, self.workload = pkg, bench, workload
        corpus, features, protocol = pkg["corpus"], pkg["features"], pkg["protocol"]
        self.directory = directory
        self.fresh: Path | None = None  # the last fresh extract's directory, until tidied
        self.fresh_files: list[int] = []  # feature files each fresh extract wrote
        self.source = corpus.generate_synthetic_corpus(
            seed=SEED, out_dir=directory, **workload.corpus
        )
        self.manifest = features.extract_corpus(self.source, self.source.root)
        self.loader = features.make_loader(self.manifest)
        self.observations = [self.loader(r) for r in
                             protocol.session_test_records(self.manifest, workload.plan)]
        self.topology = pkg["sphmm"].Topology(**workload.topology)
        self.models = None
        self.sessions = None

    def extract(self):
        out = self.source.root
        if self.workload.fresh_extract:
            out = self.fresh = self.directory / f"extract-{len(self.fresh_files) + 1}"
        self.pkg["features"].extract_corpus(self.source, out)

    def tidy(self):
        """Count a fresh extract's feature files and delete its directory; run after timing."""
        if self.fresh is not None:
            self.fresh_files.append(len(list((self.fresh / "features").iterdir())))
            shutil.rmtree(self.fresh)
            self.fresh = None

    def enroll(self):
        self.models = self.pkg["protocol"].train_population(
            self.manifest, self.loader, self.workload.plan, self.topology,
            seed=SEED, max_iterations=self.workload.max_iterations,
        )

    def identify(self):
        identify, alpha = self.pkg["protocol"].identify, self.bench.IDENTIFY_ALPHA
        for obs in self.observations:
            identify(self.models, obs, alpha)

    def sweep(self):
        run_session = self.pkg["protocol"].run_session
        self.sessions = [
            run_session(self.models, self.manifest, self.loader, self.workload.plan, alpha)
            for alpha in self.bench.ALPHAS
        ]

    def predictions(self) -> list:
        return [[t.predicted for t in session.trials] for session in self.sessions]

    def score_tables(self) -> list:
        fused_log_scores = self.pkg["sphmm"].fused_log_scores
        return [fused_log_scores(self.models, self.observations, alpha)
                for alpha in self.bench.ALPHAS]

    def model_texts(self) -> list[str]:
        return [self.pkg["sphmm"].speaker_model_to_text(model) for model in self.models]


def scores_identical(old: Side, new: Side) -> bool:
    import numpy as np  # after load_bench, whose BLAS setting must precede numpy

    return all(np.array_equal(a, b) for a, b in zip(old.score_tables(), new.score_tables()))


def model_drift(old: Side, new: Side, drift) -> dict[str, float]:
    """The largest drift of each kind of parameter line over every speaker's two model texts.

    ``drift`` is tools/model_drift.py as a module.
    """
    rows = [drift.file_drift(a, b) for a, b in zip(old.model_texts(), new.model_texts())]
    return {kind: max(row[kind] for row in rows) for kind in drift.KINDS}


def compare(old: Side, new: Side, rounds: int) -> dict:
    times = {phase: {"old": [], "new": []} for phase in PHASES}
    for k in range(rounds):
        order = (("old", old), ("new", new)) if k % 2 == 0 else (("new", new), ("old", old))
        for phase in PHASES:
            for label, side in order:
                t0 = time.perf_counter()
                getattr(side, phase)()
                times[phase][label].append(time.perf_counter() - t0)
                side.tidy()
    phases = {}
    for phase, sides in times.items():
        old_s, new_s = statistics.median(sides["old"]), statistics.median(sides["new"])
        phases[phase] = {
            "old_s": old_s,
            "new_s": new_s,
            "ratio": new_s / old_s,
            "new_lower": sum(n < o for o, n in zip(sides["old"], sides["new"])),
            "rounds": rounds,
        }
    return phases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--workload", default="enroll_paper")
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)

    bench = load_bench()
    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (one of {', '.join(sorted(bench.WORKLOADS))})")
    workload = bench.WORKLOADS[args.workload]
    try:
        old_pkg = load_package(args.old_src, "_ab_old")
        new_pkg = load_package(args.new_src, "_ab_new")
    except FileNotFoundError as exc:
        print(f"ab_inprocess: {exc}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        old = Side(old_pkg, bench, workload, Path(tmp) / "old")
        new = Side(new_pkg, bench, workload, Path(tmp) / "new")
        phases = compare(old, new, max(args.rounds, 1))
        agree = old.predictions() == new.predictions()
    drift = model_drift(old, new, load_module("_ab_model_drift", ROOT / "tools" / "model_drift.py"))
    print(json.dumps({"workload": args.workload, "phases": phases,
                      "predictions_agree": agree,
                      "scores_identical": scores_identical(old, new),
                      "models_identical": old.model_texts() == new.model_texts(),
                      "model_drift": drift,
                      "fresh_extracts": {"old": old.fresh_files, "new": new.fresh_files}}))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
