"""Bridging corpus records to classifier observations.

A record's ``source`` is either a WAV file (features are computed on the fly)
or a precomputed ``*.lfpc.feat`` file with a ``*.pros.feat`` sibling; both
are read by :func:`read_observation`, the one path-to-observation loader.
:func:`extract_corpus` writes both streams of every record through it into a
self-contained directory, so later stages never touch audio.
"""

import os
from pathlib import Path

from .corpus import (
    ACOUSTIC_SUFFIX,
    MISSING_ERRNOS,
    PROSODIC_SUFFIX,
    CorpusError,
    CorpusManifest,
    FeatureFileError,
    UtteranceRecord,
    feature_source,
    prosodic_sibling,
    read_audio,
    read_feature_file,
    write_feature_file,
    write_manifest,
)
from .dsp import FrontEnd, lfpc_sequence
from .prosody import suprasegmental_sequence
from .sphmm import DualObservation


def read_observation(path: str | Path, front_end: FrontEnd, sample_rate: int) -> DualObservation:
    """Both feature streams of one utterance file: a WAV at ``sample_rate``,
    analyzed by ``front_end``, or a ``*.lfpc.feat`` file and its sibling.

    The suffix tests and the sibling run on the path's string, and feature
    files are opened by it, so a loaded record builds no second Path.
    """
    text = os.fspath(path)
    if text.endswith(".wav"):
        signal = read_audio(path)
        if signal.sample_rate != sample_rate:
            raise CorpusError(
                f"{Path(path)}: sample rate {signal.sample_rate} != expected rate {sample_rate}"
            )
        samples = signal.as_float()
        return DualObservation(
            acoustic=lfpc_sequence(samples, signal.sample_rate, front_end),
            prosodic=suprasegmental_sequence(samples, signal.sample_rate, front_end),
        )
    if text.endswith(ACOUSTIC_SUFFIX):
        return DualObservation(
            acoustic=read_feature_file(text),
            prosodic=read_feature_file(prosodic_sibling(text)),
        )
    raise CorpusError(f"unsupported source type: {Path(path)} (want .wav or {ACOUSTIC_SUFFIX})")


def load_observation(
    manifest: CorpusManifest, record: UtteranceRecord, front_end: FrontEnd = FrontEnd()
) -> DualObservation:
    """Read or compute both feature streams for one record, found by its
    string source path (:meth:`CorpusManifest.source_path`)."""
    return read_observation(manifest.source_path(record), front_end, manifest.sample_rate)


def make_loader(manifest: CorpusManifest, front_end: FrontEnd = FrontEnd()):
    """Bind manifest + front end into a record -> DualObservation callable."""

    def loader(record: UtteranceRecord) -> DualObservation:
        return load_observation(manifest, record, front_end)

    return loader


def extract_corpus(
    manifest: CorpusManifest,
    out_dir: str | Path,
    front_end: FrontEnd = FrontEnd(),
    *,
    force: bool = False,
    failures: list | None = None,
) -> CorpusManifest:
    """Write both feature streams of every record into ``out_dir``.

    Record ``r``'s outputs are ``out_dir/features/<r.key>.lfpc.feat`` and its
    ``.pros.feat`` sibling (:func:`feature_source`). Three rules, in order:

    1. **Own output.** When ``out_dir`` is the manifest's root and a record's
       source is exactly :func:`feature_source` of its key, the record is its
       own output and is returned as it is, with no system call of its own.
       It fails when either of its two files is absent from one
       ``os.listdir`` of the features directory, made only when such a
       record exists.
    2. **Up to date.** Unless ``force``, a record's outputs are reused when
       both are at least as new as its source, or when its source is missing
       and both exist (:func:`_stale`): at most one ``stat`` per output and
       one for the source, three on an up-to-date corpus.
    3. **Everything else** is loaded by :func:`load_observation`, both
       streams whole and checked, and then written, one
       :func:`write_feature_file` per stream. So a damaged source fails
       before anything is written, and a source that is its own output under
       another spelling is rewritten byte for byte.

    Writes ``features.csv`` (a manifest whose sources point at the outputs)
    only when its bytes change (:func:`write_manifest`), and returns it.
    With ``failures`` (a list), a record whose extraction fails is skipped
    and ``(record, exception)`` appended instead of aborting the whole run.
    """
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    out_text, feat_text = os.fspath(out_dir), os.fspath(feat_dir)
    in_place = _same_directory(out_dir, manifest.root)
    listed: frozenset[str] | None = None

    def require_own_files(key: str) -> None:
        """Raise for the first absent file of a record that is its own output."""
        nonlocal listed
        if listed is None:
            listed = frozenset(os.listdir(feat_text))
        for name in (key + ACOUSTIC_SUFFIX, key + PROSODIC_SUFFIX):
            if name not in listed:
                raise FeatureFileError(f"feature file not found: {os.path.join(feat_text, name)}")

    new_records = []
    for record in manifest.records:
        key = record.key
        rel = feature_source(key)
        own = in_place and record.source == rel
        if not own:
            ac_out = os.path.join(out_text, rel)
            pr_out = prosodic_sibling(ac_out)
        if own or force or _stale(manifest.source_path(record), ac_out, pr_out):
            try:
                if own:
                    require_own_files(key)
                else:
                    obs = load_observation(manifest, record, front_end)
                    write_feature_file(obs.acoustic, ac_out)
                    write_feature_file(obs.prosodic, pr_out)
            except Exception as exc:
                if failures is None:
                    raise
                failures.append((record, exc))
                continue
        # the fields spelled out: dataclasses.replace costs about twice as much
        new_records.append(record if own else UtteranceRecord(
            speaker_id=record.speaker_id, gender=record.gender, emotion=record.emotion,
            sentence_id=record.sentence_id, bias_tag=record.bias_tag, session=record.session,
            repetition=record.repetition, source=rel,
        ))

    extracted = CorpusManifest(
        records=new_records,
        sample_rate=manifest.sample_rate,
        metadata=dict(manifest.metadata),
        root=out_dir,
    )
    write_manifest(extracted, out_dir / "features.csv")
    return extracted


def _same_directory(out_dir: Path, root: Path | None) -> bool:
    """Whether ``out_dir`` and ``root`` name one directory, by file identity.

    Two ``stat`` calls, so any spelling of the root counts. A root that is
    unset or does not exist is not ``out_dir``.
    """
    try:
        return root is not None and os.path.samefile(out_dir, root)
    except OSError:
        return False


def _stale(source: str, acoustic: str, prosodic: str) -> bool:
    """Whether either output is missing or older than the source.

    One ``stat`` per path, the acoustic output first, and none after the
    answer is known. A missing source makes only a missing output stale.
    "Missing" is what ``Path.exists()`` calls missing.
    """
    ac_stat = _stat(acoustic)
    if ac_stat is None:
        return True
    src_stat = _stat(source)
    if src_stat is None:
        return _stat(prosodic) is None
    if ac_stat.st_mtime < src_stat.st_mtime:
        return True
    pr_stat = _stat(prosodic)
    return pr_stat is None or pr_stat.st_mtime < src_stat.st_mtime


def _stat(path: str) -> os.stat_result | None:
    """``os.stat(path)``, or None where ``Path.exists()`` is False."""
    try:
        return os.stat(path)
    except OSError as exc:
        if exc.errno in MISSING_ERRNOS:
            return None
        raise
    except ValueError:  # an embedded null byte
        return None
