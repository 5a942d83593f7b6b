"""Batch command-line surface.

    emospeaker synth    --config run.cfg            generate a seeded corpus
    emospeaker extract  --config run.cfg            audio -> feature files
    emospeaker train    --config run.cfg            enroll the population
    emospeaker identify --config run.cfg --input f  score one utterance
    emospeaker evaluate --config run.cfg            session report + statistics
    emospeaker xval     --config run.cfg            k-fold retraining estimate

Every config key is also a flag of the same name (flag wins). Exit codes:
0 success, 1 validation failure (bad config, manifest, data, or model files),
2 runtime failure. Reports are plain delimited text and byte-identical across
reruns of the same configuration.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from .config import ConfigError, RunConfig, build_config, config_keys, value_parser
from .corpus import (
    CorpusError,
    bias_file_token,
    load_manifest,
    normalize_plan,
    read_utf8,
    validate_protocol_counts,
)
from .dsp import DspError
from .features import extract_corpus, make_loader, read_observation
from .hmm import ModelError, ModelFormatError, TrainingError
from .protocol import (
    SessionResult,
    cross_validate,
    identify,
    run_session,
    train_population,
)
from .sphmm import Population, load_speaker_model, save_speaker_model
from .stats import (
    StatsError,
    cohen_kappa,
    compare_performance,
    format_comparison_table,
    kappa_annotation,
    kappa_band,
)


class CliParser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the validation code (1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> CliParser:
    parser = CliParser(prog="emospeaker", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "synth": (cmd_synth, "generate a synthetic corpus"),
        "extract": (cmd_extract, "compute feature files for a manifest"),
        "train": (cmd_train, "enroll every speaker under a plan"),
        "identify": (cmd_identify, "identify the speaker of one utterance"),
        "evaluate": (cmd_evaluate, "score the test session and write reports"),
        "xval": (cmd_xval, "cross-validated accuracy with per-fold retraining"),
    }
    for name, (handler, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="key=value config file")
        for key in config_keys():
            p.add_argument(
                f"--{key}",
                dest=f"cfg_{key}",
                type=value_parser(key),
                default=None,
                help=argparse.SUPPRESS,
                metavar=key.upper(),
            )
        if name == "extract":
            p.add_argument("--force", action="store_true", help="recompute up-to-date outputs")
        if name == "identify":
            p.add_argument("--input", required=True, help="WAV or .lfpc.feat utterance")
        if name == "evaluate":
            p.add_argument(
                "--compare",
                help="performance.csv of a baseline run; emit improvement and t rows",
            )
    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {
        key: getattr(args, f"cfg_{key}")
        for key in config_keys()
        if getattr(args, f"cfg_{key}", None) is not None
    }
    return build_config(args.config, overrides)


def _require(config: RunConfig, *names: str) -> None:
    for name in names:
        if not getattr(config, name):
            raise ConfigError(f"config key {name!r} is required for this command")


def _models_dir(config: RunConfig) -> Path:
    return Path(config.out) / "models" / bias_file_token(normalize_plan(config.plan))


def _reports_dir(config: RunConfig) -> Path:
    return Path(config.out) / "reports" / bias_file_token(normalize_plan(config.plan))


def save_population(models, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for model in models:
        save_speaker_model(model, directory / f"{model.speaker_id}.model")
    order = "\n".join(m.speaker_id for m in models)
    (directory / "population.txt").write_text(order + "\n", encoding="utf-8")


def load_population(directory: Path) -> Population:
    index = directory / "population.txt"
    if not index.exists():
        raise ModelError(f"no trained population at {directory} (missing population.txt)")
    models = []
    for speaker_id in read_utf8(index, ModelFormatError).split():
        model = load_speaker_model(directory / f"{speaker_id}.model")
        if model.speaker_id != speaker_id:
            raise ModelError(
                f"{directory / (speaker_id + '.model')}: contains model for"
                f" {model.speaker_id!r}"
            )
        models.append(model)
    return Population(models)


# --- commands ---------------------------------------------------------------------

def cmd_synth(args) -> int:
    config = _config_from_args(args)
    _require(config, "out")
    manifest = corpus_mod.generate_synthetic_corpus(
        seed=config.seed,
        n_speakers=config.n_speakers,
        emotions=config.emotion_list(),
        separation=config.separation,
        out_dir=config.out,
        bias_emotions=config.bias_emotion_list(),
        bias_boost=config.bias_boost,
        front_end=config.front_end(),
        frames_range=(config.frames_min, config.frames_max),
        noise_scale=config.noise_scale,
        audio=config.synth_audio,
        sample_rate=config.sample_rate,
    )
    print(f"wrote {len(manifest.records)} utterances to {Path(config.out) / 'manifest.csv'}")
    return 0


def cmd_extract(args) -> int:
    config = _config_from_args(args)
    _require(config, "manifest", "out")
    manifest = load_manifest(config.manifest)
    failures: list = []
    extracted = extract_corpus(
        manifest, config.out, config.front_end(), force=args.force, failures=failures
    )
    for record, exc in failures:
        print(f"failed: {record.key}: {exc}", file=sys.stderr)
    print(
        f"extracted {len(extracted.records)}/{len(manifest.records)} utterances"
        f" to {Path(config.out) / 'features.csv'}"
    )
    return 1 if failures else 0


def cmd_train(args) -> int:
    config = _config_from_args(args)
    _require(config, "manifest", "out")
    manifest = load_manifest(config.manifest)
    report = validate_protocol_counts(manifest, config.plan)
    if not report.ok:
        print(report.summary(), file=sys.stderr)
        return 1
    loader = make_loader(manifest, config.front_end())
    models = train_population(
        manifest,
        loader,
        config.plan,
        config.topology(),
        seed=config.seed,
        max_iterations=config.max_iterations,
        tolerance=config.tolerance,
    )
    directory = _models_dir(config)
    save_population(models, directory)
    print(f"trained {len(models)} speaker models into {directory}")
    return 0


def cmd_identify(args) -> int:
    config = _config_from_args(args)
    _require(config, "out")
    models = load_population(_models_dir(config))
    obs = read_observation(Path(args.input), config.front_end(), config.sample_rate)
    predicted, scores = identify(models, obs, config.alpha)
    print(f"predicted {predicted}")
    # descending, ties in enrollment order: rank 1 is the predicted speaker
    for rank, idx in enumerate(np.argsort(-scores, kind="stable"), start=1):
        print(f"{rank} {models[idx].speaker_id} {repr(float(scores[idx]))}")
    return 0


def _format_pct(value) -> str:
    return "" if value is None else f"{value:.2f}"


def write_performance_csv(result: SessionResult, path: Path) -> None:
    table = result.table
    lines = ["Emotion,Males(%),Females(%),Average(%)"]
    for emotion, male, female, avg in table.rows():
        lines.append(f"{emotion},{_format_pct(male)},{_format_pct(female)},{_format_pct(avg)}")
    males = [v for e in table.emotions if (v := table.percent(e, "male")) is not None]
    females = [v for e in table.emotions if (v := table.percent(e, "female")) is not None]
    lines.append(
        "average,"
        f"{_format_pct(float(np.mean(males)) if males else None)},"
        f"{_format_pct(float(np.mean(females)) if females else None)},"
        f"{_format_pct(table.grand_average())}"
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_performance_csv(path: Path) -> dict[str, float]:
    """Emotion -> Average(%) mapping from a performance report; each emotion once.

    Every fault, an unreadable or non-UTF-8 file included, raises ``CorpusError``.
    """
    if not path.exists():
        raise CorpusError(f"performance report not found: {path}")
    lines = read_utf8(path, CorpusError).splitlines()
    if not lines or lines[0] != "Emotion,Males(%),Females(%),Average(%)":
        raise CorpusError(f"{path}: not a performance report")
    averages = {}
    line_of = {}
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 4:
            raise CorpusError(f"{path}: line {number}: {len(fields)} fields, expected 4")
        emotion, avg = fields[0], fields[3]
        if emotion == "average":
            continue
        if emotion in line_of:
            message = f"{path}: lines {line_of[emotion]} and {number} both list {emotion!r}"
            raise CorpusError(message)
        line_of[emotion] = number
        try:
            averages[emotion] = float(avg)
        except ValueError:
            message = f"{path}: line {number}: Average(%) {avg!r} is not a number"
            raise CorpusError(message) from None
    return averages


def write_raw_log_csv(result: SessionResult, path: Path) -> None:
    lines = ["speaker_id,gender,emotion,sentence_id,bias_tag,repetition,predicted,correct"]
    for trial in result.trials:
        r = trial.record
        lines.append(
            f"{r.speaker_id},{r.gender},{r.emotion},{r.sentence_id},{r.bias_tag},"
            f"{r.repetition},{trial.predicted},{str(trial.correct).lower()}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_statistics_csv(result: SessionResult, path: Path, comparison=None,
                         baseline_path: str | None = None) -> None:
    kappa = cohen_kappa(result.confusion())
    rows = [
        ("plan", result.plan),
        ("alpha", repr(result.alpha)),
        ("speakers", str(len(result.speakers))),
        ("trials", str(len(result.trials))),
        ("correct", str(sum(t.correct for t in result.trials))),
        ("accuracy(%)", f"{100.0 * result.accuracy:.2f}"),
        ("grand_average(%)", f"{result.table.grand_average():.2f}"),
        ("kappa", f"{kappa:.4f}"),
        ("kappa_band", kappa_band(kappa)),
    ]
    note = kappa_annotation(kappa)
    if note is not None:
        rows.append(("kappa_note", note.replace(",", ";")))
    if comparison is not None:
        rows.append(("baseline_report", baseline_path or ""))
        for emotion, improvement in zip(comparison.categories, comparison.improvements):
            rows.append((f"improvement(%):{emotion}", f"{improvement:.2f}"))
        summary = comparison.summary
        rows.extend(
            [
                ("candidate_mean", f"{summary.mean1:.2f}"),
                ("candidate_sd", f"{summary.sd1:.2f}"),
                ("baseline_mean", f"{summary.mean2:.2f}"),
                ("baseline_sd", f"{summary.sd2:.2f}"),
                ("t_n", str(summary.n)),
                ("t_statistic", f"{comparison.t:.3f}"),
                ("significant_at_0.05", str(comparison.significant).lower()),
            ]
        )
    lines = ["statistic,value"] + [f"{key},{value}" for key, value in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_evaluate(args) -> int:
    config = _config_from_args(args)
    _require(config, "manifest", "out")
    manifest = load_manifest(config.manifest)
    models = load_population(_models_dir(config))
    loader = make_loader(manifest, config.front_end())
    baseline = None
    if args.compare:
        # reports are written with unquoted fields, the path among them
        if any(c in args.compare for c in ',"\n\r'):
            message = f"--compare {args.compare!r} contains a comma, a double quote or a newline"
            raise ConfigError(message)
        baseline = read_performance_csv(Path(args.compare))
    result = run_session(models, manifest, loader, config.plan, alpha=config.alpha)

    comparison = None
    if baseline is not None:
        shared = [e for e in result.table.emotions if e in baseline]
        if len(shared) < 2:
            raise StatsError(
                f"baseline report shares {len(shared)} emotion(s) with this run;"
                " need at least 2"
            )
        candidate = [result.table.emotion_average(e) for e in shared]
        n = config.t_test_n or len(result.trials) // len(result.table.emotions)
        comparison = compare_performance(shared, candidate, [baseline[e] for e in shared], n)

    reports = _reports_dir(config)
    reports.mkdir(parents=True, exist_ok=True)
    write_performance_csv(result, reports / "performance.csv")
    write_raw_log_csv(result, reports / "raw_log.csv")
    write_statistics_csv(
        result, reports / "statistics.csv", comparison, baseline_path=args.compare
    )
    if comparison is not None:
        name = f"{result.plan}-vs-baseline"
        table_text = format_comparison_table(
            [(name, comparison, cohen_kappa(result.confusion()))]
        )
        (reports / "comparison.csv").write_text(table_text, encoding="utf-8")
    print(
        f"plan {result.plan} alpha {result.alpha}: grand average"
        f" {result.table.grand_average():.2f}% over {len(result.trials)} trials;"
        f" reports in {reports}"
    )
    return 0


def cmd_xval(args) -> int:
    config = _config_from_args(args)
    _require(config, "manifest", "out")
    manifest = load_manifest(config.manifest)
    loader = make_loader(manifest, config.front_end())
    result = cross_validate(
        manifest,
        loader,
        config.plan,
        config.topology(),
        alpha=config.alpha,
        n_folds=config.n_folds,
        seed=config.seed,
        max_iterations=config.max_iterations,
        tolerance=config.tolerance,
    )
    reports = _reports_dir(config)
    reports.mkdir(parents=True, exist_ok=True)
    lines = ["fold,accuracy(%)"]
    for index, fold in enumerate(result.folds):
        lines.append(f"{index},{100.0 * fold.accuracy:.2f}")
    lines.append(f"mean,{100.0 * result.mean_accuracy:.2f}")
    lines.append(f"sd,{100.0 * result.sd_accuracy:.2f}")
    (reports / "xval.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(
        f"{config.n_folds}-fold accuracy {100.0 * result.mean_accuracy:.2f}%"
        f" (sd {100.0 * result.sd_accuracy:.2f}); report in {reports / 'xval.csv'}"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, CorpusError, DspError, ModelError, StatsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
