import os
import re
from dataclasses import replace

import numpy as np
import pytest

from emospeaker.corpus import (
    AudioSignal,
    CorpusError,
    CorpusManifest,
    FeatureFileError,
    UtteranceRecord,
    generate_synthetic_corpus,
    load_manifest,
    write_audio,
)
from emospeaker import features
from emospeaker.features import (
    ACOUSTIC_SUFFIX,
    PROSODIC_SUFFIX,
    FrontEnd,
    extract_corpus,
    load_observation,
    make_loader,
    prosodic_sibling,
)
from emospeaker.dsp import lfpc_sequence
from emospeaker.prosody import suprasegmental_sequence
from pathlib import Path


def tone_wav(path, freq=150.0, seconds=0.5, sample_rate=16000, amplitude=0.3):
    t = np.arange(int(seconds * sample_rate)) / sample_rate
    samples = (amplitude * 32767 * np.sin(2 * np.pi * freq * t)).astype(np.int16)
    write_audio(AudioSignal(samples=samples, sample_rate=sample_rate), path)
    return path


def wav_record(source, **over):
    fields = dict(
        speaker_id="spk01",
        gender="male",
        emotion="neutral",
        sentence_id=1,
        bias_tag="unbiased",
        session="train",
        repetition=1,
        source=source,
    )
    fields.update(over)
    return UtteranceRecord(**fields)


@pytest.fixture
def wav_manifest(tmp_path):
    tone_wav(tmp_path / "a.wav")
    tone_wav(tmp_path / "b.wav", freq=220.0)
    records = [
        wav_record("a.wav"),
        wav_record("b.wav", repetition=2),
    ]
    return CorpusManifest(records=records, sample_rate=16000, metadata={}, root=tmp_path)


class TestFrontEnd:
    def test_acoustic_shape(self):
        fe = FrontEnd()
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.4, 0.4, 16000)
        feats = lfpc_sequence(samples, 16000, fe)
        assert feats.shape == (195, 16)
        assert np.all(np.isfinite(feats))

    def test_prosodic_shape_follows_block_size(self):
        fe = FrontEnd(block_size=9)
        rng = np.random.default_rng(1)
        samples = rng.uniform(-0.4, 0.4, 16000)
        blocks = suprasegmental_sequence(samples, 16000, fe)
        assert blocks.shape == (np.ceil(195 / 9), 4)

    def test_knobs_propagate(self):
        fe = FrontEnd(n_bands=8, n_fft=256, f_high=4000.0)
        samples = np.sin(2 * np.pi * 440 * np.arange(8000) / 8000)
        feats = lfpc_sequence(samples, 8000, fe)
        assert feats.shape[1] == 8


class TestSibling:
    def test_maps_suffix(self):
        assert prosodic_sibling(Path("/x/u1.lfpc.feat")) == Path("/x/u1.pros.feat")

    def test_rejects_other_names(self):
        with pytest.raises(CorpusError, match="acoustic"):
            prosodic_sibling(Path("/x/u1.wav"))


class TestLoadObservation:
    def test_wav_source(self, wav_manifest):
        obs = load_observation(wav_manifest, wav_manifest.records[0])
        assert obs.acoustic.shape[1] == 16
        assert obs.prosodic.shape[1] == 4

    def test_sample_rate_mismatch(self, tmp_path):
        tone_wav(tmp_path / "slow.wav", sample_rate=8000)
        manifest = CorpusManifest(
            records=[wav_record("slow.wav")], sample_rate=16000, metadata={}, root=tmp_path
        )
        with pytest.raises(CorpusError, match="sample rate"):
            load_observation(manifest, manifest.records[0])

    def test_unsupported_source(self, tmp_path):
        manifest = CorpusManifest(
            records=[wav_record("u.mp3")], sample_rate=16000, metadata={}, root=tmp_path
        )
        with pytest.raises(CorpusError, match="unsupported"):
            load_observation(manifest, manifest.records[0])

    def test_loader_binds_front_end(self, wav_manifest):
        loader = make_loader(wav_manifest, FrontEnd(n_bands=12))
        obs = loader(wav_manifest.records[0])
        assert obs.acoustic.shape[1] == 12


class TestExtractCorpus:
    def test_materializes_and_rewrites_sources(self, wav_manifest, tmp_path):
        out = tmp_path / "out"
        extracted = extract_corpus(wav_manifest, out)
        assert len(extracted.records) == 2
        for record in extracted.records:
            assert record.source.startswith("features/")
            assert record.source.endswith(ACOUSTIC_SUFFIX)
            assert (out / record.source).exists()
            assert (out / record.source.replace(ACOUSTIC_SUFFIX, PROSODIC_SUFFIX)).exists()
        assert (out / "features.csv").exists()
        # extracted output is loadable without the original audio
        obs = load_observation(extracted, extracted.records[0])
        assert obs.acoustic.shape[1] == 16

    def test_feature_passthrough_is_copy(self, wav_manifest, tmp_path):
        staged = extract_corpus(wav_manifest, tmp_path / "stage1")
        final = extract_corpus(staged, tmp_path / "stage2")
        a = (tmp_path / "stage1" / staged.records[0].source).read_bytes()
        b = (tmp_path / "stage2" / final.records[0].source).read_bytes()
        assert a == b

    def test_reuses_fresh_outputs(self, wav_manifest, tmp_path):
        out = tmp_path / "out"
        extracted = extract_corpus(wav_manifest, out)
        target = out / extracted.records[0].source
        before = target.stat().st_mtime_ns
        extract_corpus(wav_manifest, out)
        assert target.stat().st_mtime_ns == before
        extract_corpus(wav_manifest, out, force=True)
        assert target.stat().st_mtime_ns > before

    def test_recomputes_when_source_newer(self, wav_manifest, tmp_path):
        import os

        out = tmp_path / "out"
        extracted = extract_corpus(wav_manifest, out)
        target = out / extracted.records[0].source
        src = wav_manifest.root / "a.wav"
        os.utime(src, ns=(target.stat().st_mtime_ns + 10**9,) * 2)
        before = target.stat().st_mtime_ns
        extract_corpus(wav_manifest, out)
        assert target.stat().st_mtime_ns > before

    def test_failures_collected_not_raised(self, wav_manifest, tmp_path):
        (wav_manifest.root / "a.wav").write_bytes(b"not audio at all")
        failures = []
        extracted = extract_corpus(wav_manifest, tmp_path / "out", failures=failures)
        assert len(failures) == 1
        assert failures[0][0].source == "a.wav"
        assert len(extracted.records) == 1  # only the healthy record survives

    def test_failures_raise_without_collector(self, wav_manifest, tmp_path):
        (wav_manifest.root / "a.wav").write_bytes(b"not audio at all")
        with pytest.raises(CorpusError):
            extract_corpus(wav_manifest, tmp_path / "out")


@pytest.fixture
def feature_corpus(tmp_path):
    """A small feature corpus extracted over its own directory: every output up to date."""
    source = generate_synthetic_corpus(
        seed=2, n_speakers=2, emotions=("neutral",), separation=2.0,
        out_dir=tmp_path / "corpus", frames_range=(3, 4),
    )
    return source, extract_corpus(source, source.root)


def touch_ns(path, ns):
    os.utime(path, ns=(ns, ns))


def recorded(monkeypatch, name: str) -> list[str]:
    """The path of every later ``os.<name>`` call, until ``monkeypatch.undo()``."""
    real, paths = getattr(os, name), []

    def recording(path, *args, **kwargs):
        paths.append(os.fspath(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(os, name, recording)
    return paths


class TestExtractUpToDate:
    """The up-to-date check: both outputs at least as new as the source."""

    def test_in_place_extract_stats_no_feature_file(self, feature_corpus, monkeypatch):
        source, extracted = feature_corpus
        stats, listings = recorded(monkeypatch, "stat"), recorded(monkeypatch, "listdir")
        again = extract_corpus(source, source.root)
        monkeypatch.undo()
        assert [p for p in stats if p.endswith((ACOUSTIC_SUFFIX, PROSODIC_SUFFIX))] == []
        assert listings == [os.fspath(source.root / "features")]
        assert again.records == extracted.records
        assert all(a is b for a, b in zip(again.records, source.records))

    def test_three_stats_per_record_when_up_to_date_elsewhere(self, wav_manifest, tmp_path,
                                                              monkeypatch):
        out = tmp_path / "out"
        extract_corpus(wav_manifest, out)
        stats, listings = recorded(monkeypatch, "stat"), recorded(monkeypatch, "listdir")
        extract_corpus(wav_manifest, out)
        monkeypatch.undo()
        assert listings == []
        per_record = [p for p in stats if p.endswith((ACOUSTIC_SUFFIX, PROSODIC_SUFFIX, ".wav"))]
        assert len(per_record) == 3 * len(wav_manifest.records)
        assert len(set(per_record)) == len(per_record)

    @pytest.mark.parametrize("prefix", ["", "./"])
    @pytest.mark.parametrize(
        "lost",
        [(ACOUSTIC_SUFFIX,), (PROSODIC_SUFFIX,), (ACOUSTIC_SUFFIX, PROSODIC_SUFFIX)],
        ids=["acoustic", "prosodic", "both"],
    )
    def test_own_output_with_a_missing_file_fails(self, feature_corpus, prefix, lost):
        source, extracted = feature_corpus
        manifest = replace(
            source, records=[replace(r, source=prefix + r.source) for r in source.records]
        )
        record = manifest.records[1]
        missing = [source.root / "features" / f"{record.key}{suffix}" for suffix in lost]
        for path in missing:
            path.unlink()
        failures = []
        again = extract_corpus(manifest, source.root, failures=failures)
        assert [(r, str(e)) for r, e in failures] == [
            (record, f"feature file not found: {missing[0]}")
        ]
        assert again.records == extracted.records[:1] + extracted.records[2:]
        with pytest.raises(FeatureFileError, match=re.escape(f"not found: {missing[0]}") + "$"):
            extract_corpus(manifest, source.root)

    def test_unchanged_features_csv_is_not_rewritten(self, feature_corpus):
        source, _ = feature_corpus
        written = source.root / "features.csv"
        before = written.read_bytes()
        touch_ns(written, 10**18)
        extract_corpus(source, source.root)
        assert written.read_bytes() == before
        assert written.stat().st_mtime_ns == 10**18

    def test_changed_features_csv_is_rewritten(self, feature_corpus):
        source, extracted = feature_corpus
        written = source.root / "features.csv"
        touch_ns(written, 10**18)
        (source.root / source.records[0].source).unlink()
        again = extract_corpus(source, source.root, failures=[])
        assert written.stat().st_mtime_ns != 10**18
        assert load_manifest(written).records == again.records == extracted.records[1:]

    def test_features_csv_that_is_a_directory_raises(self, wav_manifest, tmp_path):
        out = tmp_path / "out"
        (out / "features.csv").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            extract_corpus(wav_manifest, out)

    def test_missing_output_is_stale(self, wav_manifest, tmp_path):
        out = tmp_path / "out"
        extracted = extract_corpus(wav_manifest, out)
        prosodic = out / prosodic_sibling(extracted.records[1].source)
        prosodic.unlink()
        extract_corpus(wav_manifest, out)
        assert prosodic.exists()

    def test_older_prosodic_output_is_stale(self, wav_manifest, tmp_path):
        out = tmp_path / "out"
        extracted = extract_corpus(wav_manifest, out)
        acoustic = out / extracted.records[0].source
        prosodic = out / prosodic_sibling(extracted.records[0].source)
        source_ns = (wav_manifest.root / "a.wav").stat().st_mtime_ns + 10**9
        touch_ns(wav_manifest.root / "a.wav", source_ns)
        touch_ns(acoustic, source_ns)  # as new as the source: not stale by itself
        touch_ns(prosodic, source_ns - 10**9)
        extract_corpus(wav_manifest, out)
        assert prosodic.stat().st_mtime_ns > source_ns - 10**9
        assert acoustic.stat().st_mtime_ns != source_ns  # the record was redone whole

    def test_outputs_as_new_as_the_source_are_reused(self, wav_manifest, tmp_path):
        out = tmp_path / "out"
        extracted = extract_corpus(wav_manifest, out)
        acoustic = out / extracted.records[0].source
        prosodic = out / prosodic_sibling(extracted.records[0].source)
        same = acoustic.stat().st_mtime_ns
        for path in (wav_manifest.root / "a.wav", acoustic, prosodic):
            touch_ns(path, same)
        extract_corpus(wav_manifest, out)
        assert acoustic.stat().st_mtime_ns == same and prosodic.stat().st_mtime_ns == same

    def test_missing_source_keeps_the_outputs(self, wav_manifest, tmp_path):
        out = tmp_path / "out"
        extracted = extract_corpus(wav_manifest, out)
        acoustic = out / extracted.records[0].source
        before = acoustic.read_bytes()
        (wav_manifest.root / "a.wav").unlink()
        failures = []
        again = extract_corpus(wav_manifest, out, failures=failures)
        assert failures == [] and again.records == extracted.records
        assert acoustic.read_bytes() == before

    def test_missing_source_and_output_fails(self, wav_manifest, tmp_path):
        out = tmp_path / "out"
        extracted = extract_corpus(wav_manifest, out)
        (wav_manifest.root / "a.wav").unlink()
        (out / prosodic_sibling(extracted.records[0].source)).unlink()
        failures = []
        extract_corpus(wav_manifest, out, failures=failures)
        assert [(r.source, str(e)) for r, e in failures] == [
            ("a.wav", f"audio file not found: {wav_manifest.root / 'a.wav'}")
        ]

    @pytest.mark.parametrize("prefix", ["", "./"])
    def test_extract_over_its_own_directory_copies_nothing(self, feature_corpus, monkeypatch, prefix):
        source, extracted = feature_corpus
        manifest = replace(
            source, records=[replace(r, source=prefix + r.source) for r in source.records]
        )
        before = {p.name: p.read_bytes() for p in (source.root / "features").iterdir()}
        real = features.write_feature_file

        def write_only_another_spelling(array, path):
            if not prefix:
                raise AssertionError(f"wrote {path}")
            real(array, path)

        monkeypatch.setattr(features, "write_feature_file", write_only_another_spelling)
        again = extract_corpus(manifest, source.root, force=True)
        assert again.records == extracted.records
        assert {p.name: p.read_bytes() for p in (source.root / "features").iterdir()} == before


def feature_files(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((directory / "features").iterdir())}


class TestExtractFeatureSources:
    """A feature source is loaded, checked and written like any other source."""

    @pytest.mark.parametrize("spelling", ["c", "abspath"])
    def test_root_spelled_another_way_is_in_place(self, tmp_path, monkeypatch, spelling):
        # the manifest's root is "c"; an absolute spelling of it is the same
        # directory, so every record is its own output there too, even one whose
        # prosodic file is older than its acoustic one
        monkeypatch.chdir(tmp_path)
        generate_synthetic_corpus(
            seed=2, n_speakers=2, emotions=("neutral",), separation=2.0, out_dir="c",
            frames_range=(3, 4),
        )
        manifest = load_manifest("c/manifest.csv")
        extract_corpus(manifest, "c")
        before = feature_files(tmp_path / "c")
        written = (tmp_path / "c" / "features.csv").read_bytes()
        acoustic = tmp_path / "c" / manifest.records[7].source
        older = acoustic.stat().st_mtime_ns - 10**9
        touch_ns(prosodic_sibling(acoustic), older)
        out = os.path.abspath("c") if spelling == "abspath" else "c"
        stats, listings = recorded(monkeypatch, "stat"), recorded(monkeypatch, "listdir")
        failures = []
        extracted = extract_corpus(manifest, out, failures=failures)
        monkeypatch.undo()
        assert failures == []
        assert [p for p in stats if p.endswith((ACOUSTIC_SUFFIX, PROSODIC_SUFFIX))] == []
        assert listings == [os.path.join(out, "features")]
        assert prosodic_sibling(acoustic).stat().st_mtime_ns == older  # its own output
        assert all(a is b for a, b in zip(extracted.records, manifest.records))
        assert len(extracted.records) == 150
        assert feature_files(tmp_path / "c") == before
        assert (tmp_path / "c" / "features.csv").read_bytes() == written

    def test_extract_into_a_missing_root_is_not_in_place(self, feature_corpus, tmp_path):
        source, _ = feature_corpus
        manifest = replace(source, root=tmp_path / "gone")
        out = tmp_path / "out"
        failures = []
        extracted = extract_corpus(manifest, out, failures=failures)
        assert len(failures) == len(source.records) and extracted.records == []
        assert all(isinstance(e, FeatureFileError) for _, e in failures)

    def test_damaged_sources_fail_and_write_nothing(self, feature_corpus, tmp_path):
        source, _ = feature_corpus
        lost_record, cut_record = source.records[3], source.records[5]
        lost = prosodic_sibling(source.root / lost_record.source)
        lost.unlink()
        cut = source.root / cut_record.source
        blob = cut.read_bytes()
        cut.write_bytes(blob[:-8])
        out = tmp_path / "out"
        failures = []
        extracted = extract_corpus(source, out, failures=failures)
        assert [(r, type(e), str(e)) for r, e in failures] == [
            (lost_record, FeatureFileError, f"feature file not found: {lost}"),
            (cut_record, FeatureFileError, f"{cut}: size {len(blob) - 8} != expected {len(blob)}"),
        ]
        assert len(extracted.records) == len(source.records) - 2
        written = set(feature_files(out))
        for record in (lost_record, cut_record):
            assert not {record.key + ACOUSTIC_SUFFIX, record.key + PROSODIC_SUFFIX} & written

    def test_healthy_sources_come_out_byte_identical(self, feature_corpus, tmp_path):
        source, _ = feature_corpus
        out = tmp_path / "out"
        extract_corpus(source, out)
        assert feature_files(out) == feature_files(source.root)
        assert (out / "features.csv").read_bytes() == (source.root / "features.csv").read_bytes()
        assert (out / "features.csv").read_bytes() == (source.root / "manifest.csv").read_bytes()
