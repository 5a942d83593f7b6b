"""Benchmark for enrollment, identification and the WAV front end.

Run from the root of a checkout:

    python3 bench/run.py --workload enroll_paper --seed 1 --seconds 40 --trace 0

The set-up generates a seeded synthetic corpus. Each round then runs

    extract -> enroll -> identify -> sweep

``extract`` runs ``extract_corpus``, ``enroll`` is ``train_population``,
``identify`` calls ``identify(models, obs, 0.5)`` once per test utterance
with the observations loaded beforehand, and ``sweep`` runs ``run_session``
once per fusion weight in :data:`ALPHAS`. A workload chooses the corpus, the
topology, the plan and the iteration cap. After an untimed warm-up the
set-up runs :data:`SETUP_REPEATS` times, with whole rounds between the
set-ups filling ``--seconds``. Every timed call is bracketed by runs of a
fixed calibration kernel and reported at a fixed machine speed
(``calibration.py``). README.md says why each workload exists and what each
metric should move.

With ``--trace 1`` one set-up and every other round run with spans recorded
around the public functions of each layer (``tracing.py``); that run prints
the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when a check failed or an operation raised, and 2
when the package cannot be found in this checkout.
"""

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread: the run is one single-threaded caller, and on a machine of
# two or so shared cores a second BLAS thread measures the scheduler. Set
# before numpy loads OpenBLAS; run facts report the count it took.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import reference  # noqa: E402
from tracing import Patches, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / ".bench_results"
WORK_DIR = ROOT / ".bench_work"

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
IDENTIFY_ALPHA = 0.5
TAIL_BEYOND = 10  # identify_tail_ms: the per-utterance time with this many above it
SETUP_REPEATS = 10
PHASE_KERNEL_REPS = 100  # calibration kernels before and after each set-up and phase call
CALL_KERNEL_REPS = 1  # ... and around each identify call
CHECK_UTTERANCES = 3
LL_RTOL = 1e-9
LFPC_ATOL_DB = 1e-8
EM_TOLERANCE = 1e-6  # acceptance criterion 4: recorded log-likelihoods never drop by more
MIN_GRAND_AVERAGE = 90.0

PAPER = dict(acoustic_states=9, acoustic_mixtures=10, prosodic_states=3, prosodic_mixtures=2)
SMALL = dict(acoustic_states=2, acoustic_mixtures=2, prosodic_states=2, prosodic_mixtures=1)


@dataclass(frozen=True)
class Workload:
    corpus: dict
    plan: str
    topology: dict
    max_iterations: int
    fresh_extract: bool  # extract into a new directory, not over the corpus itself


WORKLOADS = {
    "enroll_paper": Workload(
        corpus=dict(n_speakers=2, emotions=("neutral", "angry"), separation=4.0,
                    frames_range=(8, 12), bias_emotions=("angry",)),
        plan="biased:angry",
        topology=PAPER,
        max_iterations=2,
        fresh_extract=False,
    ),
    "wav_small": Workload(
        corpus=dict(n_speakers=2, emotions=("neutral",), separation=4.0,
                    frames_range=(16, 22), audio=True),
        plan="unbiased",
        topology=SMALL,
        max_iterations=3,
        fresh_extract=True,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "enroll_s": "s",
    "identify_ms": "ms",
    "identify_tail_ms": "ms",
    "sweep_s": "s",
    "extract_s": "s",
    "small_session_s": "s",
    "peak_rss_mb": "MB",
}


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


# per-layer metric -> (unit, layer it needs, value from that layer's totals)
PER_LAYER = {
    "corpus.generate_synthetic_corpus.s": ("s", "corpus.generate_synthetic_corpus", lambda t: t["s"]),
    "corpus.read_feature_file.calls": ("count", "corpus.read_feature_file", lambda t: t["calls"]),
    "corpus.read_feature_file.s": ("s", "corpus.read_feature_file", lambda t: t["s"]),
    "corpus.read_feature_file.bytes": ("bytes", "corpus.read_feature_file", lambda t: t.get("bytes", 0)),
    "corpus.read_audio.calls": ("count", "corpus.read_audio", lambda t: t["calls"]),
    "corpus.read_audio.s": ("s", "corpus.read_audio", lambda t: t["s"]),
    "corpus.write_feature_file.calls": ("count", "corpus.write_feature_file", lambda t: t["calls"]),
    "corpus.write_feature_file.s": ("s", "corpus.write_feature_file", lambda t: t["s"]),
    "dsp.lfpc_sequence.calls": ("count", "dsp.lfpc_sequence", lambda t: t["calls"]),
    "dsp.lfpc_sequence.s": ("s", "dsp.lfpc_sequence", lambda t: t["s"]),
    "dsp.frames": ("count", "dsp.lfpc_sequence", lambda t: t.get("frames", 0)),
    "dsp.frames_per_s": ("1/s", "dsp.lfpc_sequence", lambda t: _rate(t.get("frames", 0), t["s"])),
    "prosody.suprasegmental_sequence.calls": ("count", "prosody.suprasegmental_sequence", lambda t: t["calls"]),
    "prosody.suprasegmental_sequence.s": ("s", "prosody.suprasegmental_sequence", lambda t: t["s"]),
    "prosody.frames": ("count", "prosody.suprasegmental_sequence", lambda t: t.get("frames", 0)),
    "prosody.frames_per_s": ("1/s", "prosody.suprasegmental_sequence",
                             lambda t: _rate(t.get("frames", 0), t["s"])),
    "features.load_observation.calls": ("count", "features.load_observation", lambda t: t["calls"]),
    "features.load_observation.self_s": ("s", "features.load_observation", lambda t: t["self_s"]),
    "features.extract_corpus.self_s": ("s", "features.extract_corpus", lambda t: t["self_s"]),
    "hmm.emission.calls": ("count", "hmm.emission", lambda t: t["calls"]),
    "hmm.emission.s": ("s", "hmm.emission", lambda t: t["s"]),
    "hmm.emission.frames": ("count", "hmm.emission", lambda t: t.get("frames", 0)),
    "hmm.log_forward.calls": ("count", "hmm.log_forward", lambda t: t["calls"]),
    "hmm.log_forward.self_s": ("s", "hmm.log_forward", lambda t: t["self_s"]),
    "hmm.log_forward.frames": ("count", "hmm.log_forward", lambda t: t.get("frames", 0)),
    "hmm.forward_frames_per_s": ("1/s", "hmm.log_forward", lambda t: _rate(t.get("frames", 0), t["s"])),
    "hmm.init_model.calls": ("count", "hmm.init_model", lambda t: t["calls"]),
    "hmm.init_model.s": ("s", "hmm.init_model", lambda t: t["s"]),
    "hmm.baum_welch_train.calls": ("count", "hmm.baum_welch_train", lambda t: t["calls"]),
    "hmm.baum_welch_train.self_s": ("s", "hmm.baum_welch_train", lambda t: t["self_s"]),
    "hmm.em_iterations": ("count", "hmm.baum_welch_train", lambda t: t.get("iterations", 0)),
    "hmm.em_frames": ("count", "hmm.baum_welch_train", lambda t: t.get("frames", 0)),
    "hmm.em_iteration_s": ("s", "hmm.baum_welch_train",
                           lambda t: t["s"] / t["iterations"] if t.get("iterations") else 0.0),
    "sphmm.train_speaker_model.self_s": ("s", "sphmm.train_speaker_model", lambda t: t["self_s"]),
    "sphmm.fused_log_score.calls": ("count", "sphmm.fused_log_score", lambda t: t["calls"]),
    "sphmm.fused_log_score.self_s": ("s", "sphmm.fused_log_score", lambda t: t["self_s"]),
    "protocol.train_population.self_s": ("s", "protocol.train_population", lambda t: t["self_s"]),
    "protocol.identify.calls": ("count", "protocol.identify", lambda t: t["calls"]),
    "protocol.identify.self_s": ("s", "protocol.identify", lambda t: t["self_s"]),
    "protocol.run_session.self_s": ("s", "protocol.run_session", lambda t: t["self_s"]),
}


class PackageMissing(RuntimeError):
    pass


def import_package():
    """Import emospeaker from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "emospeaker" / "__init__.py").is_file():
        raise PackageMissing(f"no emospeaker package under {src}")
    sys.path.insert(0, str(src))
    import emospeaker
    from emospeaker import corpus, features, hmm, protocol, sphmm

    if Path(emospeaker.__file__).resolve().parent != (src / "emospeaker").resolve():
        raise PackageMissing(f"emospeaker imported from {emospeaker.__file__}, not {src}")
    return corpus, features, hmm, protocol, sphmm


corpus = features = hmm = protocol = sphmm = None  # bound by main() after the path check


def run_facts() -> dict:
    import scipy

    blas = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas.update(name=info.get("name", "unknown"), version=info.get("version", "unknown"))
    except (KeyError, TypeError, ValueError):
        pass
    blas["threads"] = _blas_threads()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, when it says."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


@dataclass
class State:
    """What the phases hand each other within one set-up and its rounds."""

    seed: int
    workload: Workload
    root: Path
    source: object = None      # generated manifest
    manifest: object = None    # manifest the pipeline reads (extracted)
    models: list = None
    extracts: int = 0
    enrolled_records: list = field(default_factory=list)
    test_records: list = None
    predictions: dict = None   # record key -> identify's speaker at IDENTIFY_ALPHA
    sessions: dict = None      # alpha -> SessionResult


def loader_for(manifest, seen: list | None = None):
    """Record -> DualObservation through features.load_observation, as make_loader does."""

    def loader(record):
        if seen is not None:
            seen.append(record)
        return features.load_observation(manifest, record)

    return loader


def phase_extract(state: State, samples: dict, tracer) -> None:
    # Over the corpus's own directory every output is already up to date, so
    # extract_corpus only checks and rewrites the manifest.
    if state.workload.fresh_extract:
        state.extracts += 1
        out = state.root / f"extract-{state.extracts}"
    else:
        out = state.source.root
    state.manifest, elapsed, kernel = calibration.timed(
        lambda: features.extract_corpus(state.source, out), PHASE_KERNEL_REPS
    )
    samples["extract"].append((elapsed, kernel))


def phase_enroll(state: State, samples: dict, tracer) -> None:
    w = state.workload
    seen: list = []
    loader = loader_for(state.manifest, seen)
    topology = sphmm.Topology(**w.topology)
    state.models, elapsed, kernel = calibration.timed(
        lambda: protocol.train_population(
            state.manifest, loader, w.plan, topology, seed=state.seed, max_iterations=w.max_iterations
        ),
        PHASE_KERNEL_REPS,
    )
    samples["enroll"].append((elapsed, kernel))
    state.enrolled_records = seen


def phase_identify(state: State, samples: dict, tracer) -> None:
    loader = loader_for(state.manifest)
    with tracer.span("bench.preload") if tracer else nullcontext():
        records = protocol.session_test_records(state.manifest, state.workload.plan)
        observations = [loader(r) for r in records]
    predictions, times = {}, []
    for record, obs in zip(records, observations):
        (speaker, _), elapsed, kernel = calibration.timed(
            lambda: protocol.identify(state.models, obs, IDENTIFY_ALPHA), CALL_KERNEL_REPS
        )
        times.append((elapsed, kernel))
        predictions[record.key] = speaker
    samples["identify"].append(times)  # one pass: a sample per test utterance, in record order
    state.test_records = records
    state.predictions = predictions


def phase_sweep(state: State, samples: dict, tracer) -> None:
    loader = loader_for(state.manifest)
    sessions, times = {}, []
    for alpha in ALPHAS:
        sessions[alpha], elapsed, kernel = calibration.timed(
            lambda: protocol.run_session(state.models, state.manifest, loader, state.workload.plan, alpha),
            PHASE_KERNEL_REPS,
        )
        times.append((elapsed, kernel))
    samples["sweep"].append(times)  # one pass: a sample per alpha, in ALPHAS order
    state.sessions = sessions


ROUND = (phase_extract, phase_enroll, phase_identify, phase_sweep)


def run_round(state: State, samples: dict, tracer=None) -> None:
    for phase in ROUND:
        with tracer.span(f"bench.{phase.__name__[6:]}") if tracer else nullcontext():
            phase(state, samples, tracer)


def user_cpu_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def set_up(seed: int, workload: Workload, root: Path, samples: dict, tracer=None) -> State:
    """Generate the workload's corpus in a fresh directory; that is the set-up.

    The set-up is timed in user-mode CPU time, not wall time: it creates a
    file per feature stream or WAV (900 files on ``enroll_paper``), and on
    the build machine the kernel's share of that, file-system inode
    allocation, took from 0.02 s to 0.7 s for the same files, varying from
    minute to minute with the file system's state rather than with the
    program. The wall time is kept in the result file.
    """
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    state = State(seed=seed, workload=workload, root=root)
    user = []

    def generate():
        u0 = user_cpu_s()
        source = corpus.generate_synthetic_corpus(seed=seed, out_dir=root / "corpus", **workload.corpus)
        user.append(user_cpu_s() - u0)
        return source

    with tracer.span("bench.setup") if tracer else nullcontext():
        state.source, elapsed, kernel = calibration.timed(generate, PHASE_KERNEL_REPS)
    samples["setup"].append((user[0], kernel))
    samples["setup_wall"].append(elapsed)
    return state


# --- checks ------------------------------------------------------------------------

def check_outputs(state: State, histories: list, failures: list) -> None:
    w = state.workload
    n_speakers = w.corpus["n_speakers"]
    n_emotions = len(w.corpus["emotions"])

    for label, lls in histories:
        drops = np.diff(lls)
        if drops.size and drops.min() < -EM_TOLERANCE:
            failures.append(f"{label}: EM log-likelihood fell by {-drops.min():.3g}")
    if not histories:
        failures.append("no EM training results were recorded")

    if w.plan != "unbiased":
        target = w.plan.split(":", 1)[1]
        for speaker in state.source.speakers:
            mine = [r for r in state.enrolled_records if r.speaker_id == speaker]
            biased = sum(r.emotion == target and r.bias_tag == w.plan for r in mine)
            unbiased = sum(r.emotion == target and r.bias_tag == "unbiased" for r in mine)
            if biased != 45 or unbiased != 0:
                failures.append(
                    f"{speaker}: {w.plan} training set has {biased} biased and"
                    f" {unbiased} unbiased {target} utterances (want 45 and 0)"
                )

    expected_trials = n_speakers * n_emotions * 5 * 6
    for alpha, session in state.sessions.items():
        if len(session.trials) != expected_trials:
            failures.append(f"alpha {alpha}: {len(session.trials)} trials, want {expected_trials}")
    grand = state.sessions[IDENTIFY_ALPHA].table.grand_average()
    if grand < MIN_GRAND_AVERAGE:
        failures.append(f"alpha {IDENTIFY_ALPHA} grand average {grand:.2f}% < {MIN_GRAND_AVERAGE}%")
    for trial in state.sessions[IDENTIFY_ALPHA].trials:
        if state.predictions.get(trial.record.key) != trial.predicted:
            failures.append(f"{trial.record.key}: identify and run_session disagree at alpha 0.5")
            break

    check_scores(state, failures)
    check_feature_shapes(state, failures)


def check_scores(state: State, failures: list) -> None:
    """Package log_forward and every predicted speaker against the reference recursion."""
    rng = np.random.default_rng(state.seed)
    picks = rng.choice(len(state.test_records), size=CHECK_UTTERANCES, replace=False)
    loader = loader_for(state.manifest)
    for index in sorted(int(i) for i in picks):
        record = state.test_records[index]
        obs = loader(record)
        triples = []
        for model in state.models:
            pair = []
            for stream, seq in (("acoustic", obs.acoustic), ("prosodic", obs.prosodic)):
                hmm_model = getattr(model, stream)
                ours = reference.forward_log_likelihood(hmm_model, seq)
                theirs = hmm.log_forward(hmm_model, seq)[0]
                if not abs(ours - theirs) <= LL_RTOL * max(1.0, abs(ours)):
                    failures.append(
                        f"{record.key} vs {model.speaker_id} {stream}: log_forward {theirs!r},"
                        f" reference {ours!r}"
                    )
                pair.append(ours)
            triples.append((pair[0], pair[1], model.log_prior))
        want = state.models[reference.fused_argmax(triples, IDENTIFY_ALPHA)].speaker_id
        if state.predictions[record.key] != want:
            failures.append(f"{record.key}: identify chose {state.predictions[record.key]}, reference {want}")
        for alpha, session in state.sessions.items():
            want = state.models[reference.fused_argmax(triples, alpha)].speaker_id
            got = next(t.predicted for t in session.trials if t.record.key == record.key)
            if got != want:
                failures.append(f"{record.key} alpha {alpha}: run_session chose {got}, reference {want}")


def check_feature_shapes(state: State, failures: list) -> None:
    """Frame and block counts of every extracted record; sampled LFPC rows by reference."""
    block_size = 9
    audio = state.workload.corpus.get("audio", False)
    rng = np.random.default_rng(state.seed + 1)
    sampled = set(int(i) for i in rng.choice(len(state.manifest.records), CHECK_UTTERANCES, replace=False))
    for index, (src, out) in enumerate(zip(state.source.records, state.manifest.records)):
        ac_path = state.manifest.resolve(out)
        pr_path = ac_path.with_name(ac_path.name.replace(".lfpc.feat", ".pros.feat"))
        frames, _ = reference.feature_file_shape(ac_path)
        blocks, _ = reference.feature_file_shape(pr_path)
        if blocks != math.ceil(frames / block_size):
            failures.append(f"{out.key}: {blocks} prosodic blocks for {frames} frames")
        if not audio:
            continue
        samples, rate = reference.read_wav(state.source.resolve(src))
        frame_length, hop = round(rate * 0.030), round(rate * 0.005)
        want = reference.frame_count(len(samples), frame_length, hop)
        if frames != want:
            failures.append(f"{out.key}: {frames} frames from {len(samples)} samples, want {want}")
        if index in sampled:
            rows = [0, frames // 2, frames - 1]
            ours = reference.lfpc_rows(samples, rate, rows=rows)
            theirs = reference.read_feature_rows(ac_path)[rows]
            worst = float(np.max(np.abs(ours - theirs)))
            if worst > LFPC_ATOL_DB:
                failures.append(f"{out.key}: LFPC rows differ from reference by {worst:.3g} dB")


def expected_calls(state: State) -> dict:
    """Calls each layer makes in one set-up plus one round, from the workload's definition."""
    w = state.workload
    v = w.corpus["n_speakers"]
    e = len(w.corpus["emotions"])
    records = len(state.source.records)
    train = 45 * e  # per speaker: 5 sentences x 9 repetitions per plan emotion
    tests = 30 * e * v
    g = len(ALPHAS)
    analysed = records if w.corpus.get("audio") else 0
    na, np_ = w.topology["acoustic_states"], w.topology["prosodic_states"]
    ac_passes = 1 + sum(a < 1.0 for a in ALPHAS)
    pr_passes = 1 + sum(a > 0.0 for a in ALPHAS)
    feature_loads = v * train + tests + tests * g  # enrol, preload for identify, sweep
    return {
        "corpus.generate_synthetic_corpus": 1,
        "corpus.write_feature_file": 2 * analysed if analysed else 2 * records,
        "corpus.read_audio": analysed,
        "dsp.lfpc_sequence": analysed,
        "prosody.suprasegmental_sequence": analysed,
        "features.extract_corpus": 1,
        "features.load_observation": analysed + feature_loads,
        "corpus.read_feature_file": 2 * feature_loads,
        "hmm.init_model": 2 * v,
        "hmm.baum_welch_train": 2 * v,
        "sphmm.train_speaker_model": v,
        "protocol.train_population": 1,
        "protocol.identify": tests * (1 + g),
        "protocol.run_session": g,
        "sphmm.fused_log_score": v * tests * (1 + g),
        "hmm.log_forward": v * tests * (ac_passes + pr_passes),
        "hmm.emission": v * train * w.max_iterations * (na + np_)
        + v * tests * (na * ac_passes + np_ * pr_passes),
        "hmm.em_iterations": 2 * v * w.max_iterations,
    }


# --- metrics -----------------------------------------------------------------------

def end_to_end_metrics(rounds: dict, setups: dict) -> dict:
    """Median phase times, each sample scaled to the nominal machine speed.

    Every sample is (wall time, calibration kernel time next to it), the
    set-up's (user CPU time, kernel time); see ``calibration.py``. A phase
    made of several calls (one per test utterance, one per alpha) takes each
    call's median over the rounds, so the tail is over inputs, not over
    moments of the host.
    """
    def median(samples):
        return statistics.median(calibration.scaled(s) for s in samples)

    identify = sorted(median(col) for col in zip(*rounds["identify"]))  # per test utterance
    sessions = [median(col) for col in zip(*rounds["sweep"])]  # per alpha
    enroll = median(rounds["enroll"])
    values = {
        "setup_s": median(setups["setup"]),
        "enroll_s": enroll,
        "identify_ms": 1000.0 * statistics.median(identify),
        "identify_tail_ms": 1000.0 * identify[-1 - TAIL_BEYOND],
        "sweep_s": sum(sessions),
        "extract_s": median(rounds["extract"]),
        "small_session_s": enroll + sessions[ALPHAS.index(IDENTIFY_ALPHA)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def wall_medians(rounds: dict, setups: dict) -> dict:
    """Unscaled median wall time of each timed call, the set-up's median user
    CPU time, and the median kernel time."""
    calls = {"extract": rounds["extract"], "enroll": rounds["enroll"],
             "identify_call": [s for one_pass in rounds["identify"] for s in one_pass],
             "session": [s for one_pass in rounds["sweep"] for s in one_pass]}
    out = {name: statistics.median(e for e, _ in samples) for name, samples in calls.items()}
    out["setup"] = statistics.median(setups["setup_wall"])
    out["setup_user_cpu"] = statistics.median(u for u, _ in setups["setup"])
    out["kernel"] = statistics.median(k for samples in (*calls.values(), setups["setup"]) for _, k in samples)
    return out


def per_layer_metrics(tracer: Tracer, setup_range, round_ranges, overhead_s: float) -> dict:
    per_round = [tracer.totals([setup_range, r]) for r in round_ranges]
    out = {}
    for name, (unit, layer, value) in PER_LAYER.items():
        if layer in tracer.absent:
            continue
        empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
        out[name] = {"value": statistics.median(value(t.get(layer, empty)) for t in per_round), "unit": unit}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out


def compare_counts(tracer: Tracer, state: State, setup_range, round_range) -> list[str]:
    totals = tracer.totals([setup_range, round_range])
    notes = []
    for layer, want in expected_calls(state).items():
        if layer == "hmm.em_iterations":
            got = totals.get("hmm.baum_welch_train", {}).get("iterations", 0)
        elif layer in tracer.absent:
            continue
        else:
            got = totals.get(layer, {}).get("calls", 0)
        if got != want:
            notes.append(f"{layer}: {got} calls, workload definition gives {want}")
    return notes


# --- runs --------------------------------------------------------------------------

def record_em_histories(histories: list) -> Patches:
    """Keep every stream's log-likelihood trajectory as train_population enrols speakers."""
    patches = Patches()

    def make(fn):
        @functools.wraps(fn)
        def recorder(speaker_id, *args, **kwargs):
            result = fn(speaker_id, *args, **kwargs)
            for stream in ("acoustic", "prosodic"):
                histories.append((f"{speaker_id} {stream}", list(getattr(result, stream).log_likelihoods)))
            return result

        return recorder

    patches.wrap("emospeaker.sphmm", "train_speaker_model", make)
    return patches


def measure(args, workload: Workload, work: Path, extra: dict):
    """Untraced run: an untimed warm-up set-up, then SETUP_REPEATS timed set-ups
    with the rounds between them.

    Set-up k is followed by whole rounds until the rounds have taken k + 1
    shares of ``args.seconds`` (none if they already have, and at least one
    after the last), so set-up and round samples are spread over the whole
    run rather than taken in one stretch. The last set-up's state is checked.
    """
    setup_samples, round_samples = defaultdict(list), defaultdict(list)
    set_up(args.seed, workload, work / "warm-up", defaultdict(list))
    rounds, round_time = 0, 0.0
    for i in range(SETUP_REPEATS):
        state = set_up(args.seed, workload, work / f"setup-{i}", setup_samples)
        target = args.seconds * (i + 1) / SETUP_REPEATS
        must_run = i == SETUP_REPEATS - 1
        while must_run or round_time < target:
            t0 = time.perf_counter()
            run_round(state, round_samples)
            round_time += time.perf_counter() - t0
            rounds += 1
            must_run = False
    extra.update(rounds=rounds, wall_medians_s=wall_medians(round_samples, setup_samples),
                 setup_samples=setup_samples, round_samples=round_samples)
    return state, rounds, end_to_end_metrics(round_samples, setup_samples)


def measure_traced(args, workload: Workload, work: Path, extra: dict):
    """Traced run: an untimed warm-up set-up and one traced set-up, then
    untraced and traced rounds in turn."""
    set_up(args.seed, workload, work / "warm-up", defaultdict(list))
    tracer = Tracer()
    tracer.install()
    mark = tracer.mark()
    try:
        state = set_up(args.seed, workload, work / "setup", defaultdict(list), tracer)
    finally:
        tracer.uninstall()
    setup_range = (mark, tracer.mark())
    round_ranges, seconds = [], {False: [], True: []}
    start = time.perf_counter()
    rounds = 0
    while rounds < 2 or time.perf_counter() - start < args.seconds:
        traced = rounds % 2 == 1
        if traced:
            tracer.install()
        mark = tracer.mark()
        t0 = time.perf_counter()
        try:
            run_round(state, defaultdict(list), tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        seconds[traced].append(time.perf_counter() - t0)
        if traced:
            round_ranges.append((mark, tracer.mark()))
        rounds += 1
    overhead = statistics.median(seconds[True]) - statistics.median(seconds[False])
    extra.update(rounds=rounds, traced_round_s=seconds[True], plain_round_s=seconds[False],
                 absent=tracer.absent, spans=tracer,
                 count_mismatches=compare_counts(tracer, state, setup_range, round_ranges[0]))
    return state, rounds, per_layer_metrics(tracer, setup_range, round_ranges, overhead)


def run(args) -> tuple[dict, list[str], dict]:
    workload = WORKLOADS[args.workload]
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    histories: list = []
    recorder = record_em_histories(histories)
    failures: list[str] = []
    extra: dict = {}
    try:
        state, rounds, metrics = (measure_traced if args.trace else measure)(args, workload, work, extra)
        check_outputs(state, histories, failures)
    except Exception:  # a broken program: report it, never a partial measurement
        traceback.print_exc()
        failures.append("an operation raised; see the traceback above")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, failures, extra
    finally:
        recorder.restore()
        shutil.rmtree(work, ignore_errors=True)
    attempted = rounds * round_operations(workload)
    return {"correct": not failures, "attempted": attempted, "failed": 0, "metrics": metrics}, failures, extra


def round_operations(w: Workload) -> int:
    """Package calls one round makes: one per extract, enrol and session, one per identify."""
    tests = 30 * len(w.corpus["emotions"]) * w.corpus["n_speakers"]
    return 1 + 1 + tests + len(ALPHAS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    global corpus, features, hmm, protocol, sphmm
    try:
        corpus, features, hmm, protocol, sphmm = import_package()
    except (PackageMissing, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    facts = run_facts()
    print("run facts: " + json.dumps(facts), file=sys.stderr)
    result, failures, extra = run(args)

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    tracer = extra.pop("spans", None)
    if tracer is not None:
        tracer.write(RESULTS_DIR / f"{stem}.spans.jsonl")
    with open(RESULTS_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "facts": facts, "result": result, "failures": failures, **extra},
                  fh, indent=1)

    if "wall_medians_s" in extra:
        print("unscaled median wall times (s): " + json.dumps(extra["wall_medians_s"]), file=sys.stderr)
    for note in extra.get("count_mismatches", []):
        print(f"call count: {note}", file=sys.stderr)
    for name in extra.get("absent", []):
        print(f"absent: {name} no longer exists; its metrics are not reported", file=sys.stderr)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted = {result['attempted']}  failed = {result['failed']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
