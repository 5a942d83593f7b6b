import hashlib
import struct
import wave
from pathlib import Path

import numpy as np
import pytest

from emospeaker import corpus
from emospeaker.features import FrontEnd, load_observation
from emospeaker.corpus import (
    EMOTIONS,
    AudioFormatError,
    AudioSignal,
    CorpusError,
    CorpusManifest,
    FeatureFileError,
    ManifestError,
    UtteranceRecord,
    bias_file_token,
    derive_seed,
    generate_synthetic_corpus,
    load_manifest,
    normalize_bias_tag,
    plan_cells,
    read_audio,
    read_feature_file,
    session_for_repetition,
    validate_protocol_counts,
    write_audio,
    write_feature_file,
    write_manifest,
)


def make_record(**overrides) -> UtteranceRecord:
    values = dict(
        speaker_id="spk01",
        gender="male",
        emotion="angry",
        sentence_id=2,
        bias_tag="unbiased",
        session="train",
        repetition=3,
        source="features/x.lfpc.feat",
    )
    values.update(overrides)
    return UtteranceRecord(**values)


def full_manifest(n_speakers=2, emotions=("neutral", "angry"), bias=()):
    """Complete in-memory manifest: 5 sentences x 15 reps per (emotion, bias)."""
    records = []
    for i in range(n_speakers):
        speaker = f"spk{i + 1:02d}"
        gender = ("male", "female")[i % 2]
        cells = [(e, "unbiased") for e in emotions]
        cells += [(e, f"biased:{e}") for e in bias]
        for emotion, tag in cells:
            for sentence in range(1, 6):
                for rep in range(1, 16):
                    records.append(
                        UtteranceRecord(
                            speaker_id=speaker,
                            gender=gender,
                            emotion=emotion,
                            sentence_id=sentence,
                            bias_tag=tag,
                            session=session_for_repetition(rep),
                            repetition=rep,
                            source=f"features/{speaker}_{emotion}_{sentence}_{rep}_{bias_file_token(tag)}.lfpc.feat",
                        )
                    )
    return CorpusManifest(records=records)


class TestBiasTags:
    def test_normalization(self):
        assert normalize_bias_tag("unbiased") == "unbiased"
        assert normalize_bias_tag("biased:angry") == "biased:angry"
        assert normalize_bias_tag("biased:neutral") == "unbiased"

    def test_invalid_tags(self):
        with pytest.raises(CorpusError):
            normalize_bias_tag("biased:confused")
        with pytest.raises(CorpusError):
            normalize_bias_tag("neutral")

    def test_file_token(self):
        assert bias_file_token("biased:angry") == "biased-angry"
        assert bias_file_token("unbiased") == "unbiased"

    def test_plan_combinations(self):
        manifest = full_manifest(emotions=("sad", "neutral", "angry"), bias=("angry",))
        assert plan_cells(manifest, "unbiased") == [
            ("neutral", "unbiased"),
            ("angry", "unbiased"),
            ("sad", "unbiased"),
        ]
        assert plan_cells(manifest, "biased:angry") == [
            ("angry", "biased:angry"),
            ("neutral", "unbiased"),
            ("sad", "unbiased"),
        ]
        assert plan_cells(manifest, "biased:neutral") == plan_cells(manifest, "unbiased")
        # the target of a biased plan is covered even without biased records
        assert plan_cells(manifest, "biased:fear")[0] == ("fear", "biased:fear")


class TestRecordValidation:
    def test_valid_record_passes(self):
        make_record().validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"gender": "m"},
            {"emotion": "bored"},
            {"sentence_id": 0},
            {"sentence_id": 6},
            {"repetition": 0},
            {"repetition": 16},
            {"bias_tag": "biased:neutral"},  # must be pre-normalized
            {"session": "test"},  # repetition 3 is a training repetition
        ],
    )
    def test_invalid_records(self, overrides):
        with pytest.raises(CorpusError):
            make_record(**overrides).validate()

    def test_key_is_filename_safe(self):
        record = make_record(bias_tag="biased:angry", emotion="angry", session="train")
        assert record.key == "spk01_angry_s2_r03_biased-angry"
        assert ":" not in record.key

    def test_session_boundary(self):
        assert session_for_repetition(9) == "train"
        assert session_for_repetition(10) == "test"
        with pytest.raises(CorpusError, match=r"\(1\.\.9 train, 10\.\.15 test\)"):
            make_record(repetition=10, session="train").validate()
        with pytest.raises(CorpusError, match=r"repetition 16 out of 1\.\.15"):
            make_record(repetition=16, session="test").validate()


class TestManifestIo:
    def test_round_trip(self, tmp_path):
        manifest = full_manifest()
        manifest.metadata["note"] = "hello"
        path = tmp_path / "manifest.csv"
        write_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.records == manifest.records
        assert loaded.sample_rate == manifest.sample_rate
        assert loaded.metadata == {"note": "hello"}
        assert loaded.root == tmp_path

    def test_missing_file(self, tmp_path):
        with pytest.raises(ManifestError, match="not found"):
            load_manifest(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("speaker,oops\n")
        with pytest.raises(ManifestError, match="bad header"):
            load_manifest(path)

    def test_empty_manifest_is_valid(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "speaker_id,gender,emotion,sentence_id,bias_tag,session,repetition,source\n"
        )
        assert load_manifest(path).records == []

    def test_row_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "speaker_id,gender,emotion,sentence_id,bias_tag,session,repetition,source\n"
            "spk01,male,angry,1,unbiased,train,1,a.wav\n"
            "spk01,male,bored,1,unbiased,train,2,b.wav\n"
            "spk01,male,angry,1,unbiased,test,3,c.wav\n"
        )
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        message = str(err.value)
        assert "row 3" in message and "bored" in message
        assert "row 4" in message and "session" in message

    @pytest.mark.parametrize(
        "speaker", ["", ".", "..", "../../evil", "a/b", "/abs", "spk 01", "spk\t01", "spk\u200901"]
    )
    def test_speaker_id_must_be_one_plain_file_name(self, tmp_path, speaker):
        path = tmp_path / "m.csv"
        path.write_text(
            "speaker_id,gender,emotion,sentence_id,bias_tag,session,repetition,source\n"
            "spk01,male,angry,1,unbiased,train,1,a.wav\n"
            f"{speaker},male,angry,1,unbiased,train,2,b.wav\n",
            encoding="utf-8",
        )
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert str(err.value) == (
            f"{path}: 1 bad row(s):\n  row 3: speaker id {speaker!r} is not a plain file name"
        )

    @pytest.mark.parametrize("speaker", ["a,b", 'a"b', ",", '"'])
    def test_speaker_id_must_hold_no_comma_or_quote(self, tmp_path, speaker):
        quoted = '"' + speaker.replace('"', '""') + '"'
        path = tmp_path / "m.csv"
        path.write_text(
            "speaker_id,gender,emotion,sentence_id,bias_tag,session,repetition,source\n"
            "spk01,male,angry,1,unbiased,train,1,a.wav\n"
            f"{quoted},male,angry,1,unbiased,train,2,b.wav\n",
            encoding="utf-8",
        )
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert str(err.value) == (
            f"{path}: 1 bad row(s):\n"
            f"  row 3: speaker id {speaker!r} contains a comma or a double quote"
        )

    @pytest.mark.parametrize("speaker", ["spk01", "spk-01.a", "..a", "a..", "._", "spk_\u00e9"])
    def test_plain_file_name_speaker_ids_pass(self, speaker):
        make_record(speaker_id=speaker).validate()

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        row = "spk01,male,angry,1,unbiased,train,1,a.wav\n"
        path.write_text(
            "speaker_id,gender,emotion,sentence_id,bias_tag,session,repetition,source\n"
            + row
            + row
        )
        with pytest.raises(ManifestError, match="duplicate"):
            load_manifest(path)

    def test_biased_neutral_normalized_on_load(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "speaker_id,gender,emotion,sentence_id,bias_tag,session,repetition,source\n"
            "spk01,male,neutral,1,biased:neutral,train,1,a.wav\n"
        )
        loaded = load_manifest(path)
        assert loaded.records[0].bias_tag == "unbiased"

    def test_metadata_and_sample_rate(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "# sample_rate=8000\n"
            "# origin=studio b\n"
            "speaker_id,gender,emotion,sentence_id,bias_tag,session,repetition,source\n"
        )
        loaded = load_manifest(path)
        assert loaded.sample_rate == 8000
        assert loaded.metadata == {"origin": "studio b"}

    def test_comment_without_equals_is_skipped(self, tmp_path):
        # a free-text line is neither a metadata key nor written back
        path = tmp_path / "m.csv"
        path.write_text(
            "# recorded in studio b\n"
            "# origin=studio b\n"
            "speaker_id,gender,emotion,sentence_id,bias_tag,session,repetition,source\n"
        )
        loaded = load_manifest(path)
        assert loaded.metadata == {"origin": "studio b"}
        write_manifest(loaded, tmp_path / "again.csv")
        assert "recorded" not in (tmp_path / "again.csv").read_text()

    @pytest.mark.parametrize("key, values", [("sample_rate", ("8000", "16000")), ("seed", ("1", "2"))])
    def test_repeated_key_rejected_with_both_lines(self, tmp_path, key, values):
        path = tmp_path / "m.csv"
        path.write_text(
            f"# {key}={values[0]}\n"
            "# origin=studio b\n"
            f"# {key}={values[1]}\n"
            "speaker_id,gender,emotion,sentence_id,bias_tag,session,repetition,source\n"
        )
        with pytest.raises(ManifestError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}:3: metadata key {key!r} already set on line 1"

    @pytest.mark.parametrize("value", ["abc", "-5", "0", "16000.5"])
    def test_bad_sample_rate_rejected(self, tmp_path, value):
        path = tmp_path / "m.csv"
        path.write_text(
            f"# sample_rate={value}\n"
            "speaker_id,gender,emotion,sentence_id,bias_tag,session,repetition,source\n"
        )
        with pytest.raises(ManifestError, match="sample_rate.*not a positive integer"):
            load_manifest(path)

    def test_source_path_rule(self, tmp_path):
        # relative sources join the root; an absolute one replaces it
        manifest = CorpusManifest(records=[], root=tmp_path / "corpus")
        relative = make_record(source="features/x.lfpc.feat")
        absolute = make_record(source=str(tmp_path / "elsewhere" / "y.lfpc.feat"))
        assert manifest.source_path(relative) == f"{tmp_path}/corpus/features/x.lfpc.feat"
        assert manifest.source_path(absolute) == absolute.source
        for record in (relative, absolute, make_record(source="./features/../x.wav")):
            assert manifest.resolve(record) == manifest.root / record.source
            assert isinstance(manifest.resolve(record), Path)
        assert CorpusManifest(records=[]).source_path(relative) == relative.source

    @pytest.mark.parametrize("source", ["features/x.lfpc.feat/", "features/x.lfpc.feat/.", ".", ""])
    def test_source_path_normalizes_a_trailing_separator(self, tmp_path, source):
        # Path drops a trailing "/" or "/." and reads "" as ".", so such a source keeps its Path form
        manifest = CorpusManifest(records=[], root=tmp_path)
        record = make_record(source=source)
        assert manifest.source_path(record) == str(tmp_path / source)
        assert CorpusManifest(records=[]).source_path(record) == str(Path(source))

    def test_non_utf8_manifest_names_the_byte(self, tmp_path):
        path = tmp_path / "m.csv"
        write_manifest(full_manifest(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:200] + b"\xc3(" + blob[200:])
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: not valid UTF-8 at byte 200"
        assert info.value.__cause__ is None

    def test_unreadable_manifest(self, tmp_path):
        with pytest.raises(ManifestError) as info:
            load_manifest(tmp_path)
        assert str(info.value) == f"{tmp_path}: cannot read (Is a directory)"

    def test_line_endings_as_in_text_mode(self, tmp_path):
        # \r\n, \r and \n all end a line; other Unicode breaks do not
        path = tmp_path / "m.csv"
        header = ",".join(corpus.MANIFEST_COLUMNS)
        row = "spk01,male,angry,2,unbiased,train,3,features/x\u2028y.lfpc.feat"
        path.write_bytes(f"# sample_rate=8000\r{header}\r\n{row}\n".encode())
        loaded = load_manifest(path)
        assert loaded.sample_rate == 8000
        assert [r.source for r in loaded.records] == ["features/x\u2028y.lfpc.feat"]

    def test_select_and_speakers(self):
        manifest = full_manifest()
        assert manifest.speakers == ["spk01", "spk02"]
        chosen = [
            r for r in manifest.records
            if (r.speaker_id, r.session, r.emotion) == ("spk01", "test", "angry")
        ]
        assert len(chosen) == 5 * 6
        assert all(r.repetition >= 10 for r in chosen)


class TestProtocolCounts:
    def test_complete_manifest_passes(self):
        report = validate_protocol_counts(full_manifest(), "unbiased")
        assert report.ok
        assert report.expected_train_per_speaker == 90   # 2 emotions x 5 x 9
        assert report.expected_test_per_speaker == 60
        assert report.test_total == 120
        assert "status=pass" in report.summary()

    def test_missing_test_repetition_reported(self):
        manifest = full_manifest()
        victim = manifest.records[-1]
        assert victim.session == "test"
        manifest.records.remove(victim)
        report = validate_protocol_counts(manifest, "unbiased")
        assert not report.ok
        assert report.deficits == [
            (victim.speaker_id, victim.emotion, victim.sentence_id, victim.bias_tag,
             "test", 5, 6)
        ]
        assert "5/6" in report.summary()

    def test_biased_plan_requirements(self):
        manifest = full_manifest(bias=("angry",))
        report = validate_protocol_counts(manifest, "biased:angry")
        assert report.ok
        # biased plan without biased rows must fail
        plain = full_manifest()
        report = validate_protocol_counts(plain, "biased:angry")
        assert not report.ok
        assert all(bias == "biased:angry" for _, _, _, bias, _, _, _ in report.deficits)

    def test_biased_neutral_equals_unbiased(self):
        manifest = full_manifest()
        assert validate_protocol_counts(manifest, "biased:neutral").ok


class TestAudioIo:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.integers(-32768, 32767, 2000, dtype=np.int16)
        path = tmp_path / "x.wav"
        write_audio(AudioSignal(samples=samples, sample_rate=16000), path)
        loaded = read_audio(path)
        assert loaded.sample_rate == 16000
        assert np.array_equal(loaded.samples, samples)
        assert loaded.samples.dtype == np.int16

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioFormatError, match="not found"):
            read_audio(tmp_path / "ghost.wav")

    def test_unreadable_file_rejected(self, tmp_path):
        # an OSError on open or read (here a directory) names the path
        target = tmp_path / "dir.wav"
        target.mkdir()
        with pytest.raises(AudioFormatError) as info:
            read_audio(target)
        assert str(info.value).startswith(f"{target}: cannot read (")
        assert info.value.__cause__ is None

    def test_missing_path_component_is_not_found(self, tmp_path):
        # what Path.exists() calls missing keeps the not-found message
        (tmp_path / "file").write_bytes(b"")
        for target in (tmp_path / "ghost.wav", tmp_path / "file" / "x.wav"):
            with pytest.raises(AudioFormatError) as info:
                read_audio(target)
            assert str(info.value) == f"audio file not found: {target}"

    def test_chunk_past_the_riff_end_rejected(self, tmp_path):
        # wave raises a bare RuntimeError when a chunk overruns the RIFF chunk
        path = tmp_path / "x.wav"
        write_audio(AudioSignal(samples=np.zeros(50, dtype=np.int16), sample_rate=16000), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:16] + struct.pack("<I", 2**31) + blob[20:])
        with pytest.raises(AudioFormatError) as info:
            read_audio(path)
        assert str(info.value) == f"{path}: unsupported encoding (chunk overruns the RIFF chunk)"

    def test_data_size_beyond_the_file_reads_what_is_there(self, tmp_path):
        path = tmp_path / "x.wav"
        write_audio(AudioSignal(samples=np.ones(50, dtype=np.int16), sample_rate=16000), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 2**32 - 1)  # RIFF and data sizes near 4 GiB
        blob[40:44] = struct.pack("<I", 2**32 - 2)
        path.write_bytes(bytes(blob))
        with pytest.raises(AudioFormatError) as info:
            read_audio(path)
        assert str(info.value) == f"{path}: truncated file (100 bytes for 2147483647 frames)"

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(b"\x00\x00" * 200)
        with pytest.raises(AudioFormatError, match="mono"):
            read_audio(path)

    def test_wrong_sample_width_rejected(self, tmp_path):
        path = tmp_path / "w8.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(16000)
            w.writeframes(b"\x00" * 100)
        with pytest.raises(AudioFormatError, match="16-bit"):
            read_audio(path)

    def test_float_encoding_rejected(self, tmp_path):
        # hand-build a WAVE file whose fmt chunk declares IEEE float (tag 3)
        path = tmp_path / "f32.wav"
        data = b"\x00" * 8
        fmt = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
        blob = (
            b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data
        )
        path.write_bytes(blob)
        with pytest.raises(AudioFormatError, match="unsupported encoding"):
            read_audio(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "trunc.wav"
        path.write_bytes(b"RIFF\x10\x00\x00\x00WA")
        with pytest.raises(AudioFormatError):
            read_audio(path)

    def test_empty_audio_rejected(self):
        with pytest.raises(AudioFormatError):
            AudioSignal(samples=np.array([], dtype=np.int16), sample_rate=16000)
        with pytest.raises(AudioFormatError):
            AudioSignal(samples=np.zeros((2, 10), dtype=np.int16), sample_rate=16000)


class TestFeatureFiles:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        array = rng.standard_normal((37, 16))
        path = tmp_path / "x.lfpc.feat"
        write_feature_file(array, path)
        loaded = read_feature_file(path)
        assert np.array_equal(loaded, array)
        assert loaded.dtype == np.float64

    def test_header_layout(self, tmp_path):
        path = tmp_path / "x.feat"
        write_feature_file(np.zeros((3, 4)), path)
        blob = path.read_bytes()
        magic, version, frames, coeffs = struct.unpack_from("<8sIII", blob)
        assert magic == b"EMSPFEAT"
        assert (version, frames, coeffs) == (1, 3, 4)
        assert len(blob) == 20 + 3 * 4 * 8

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.feat"
        write_feature_file(np.zeros((2, 2)), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FeatureFileError, match="magic"):
            read_feature_file(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "x.feat"
        write_feature_file(np.zeros((4, 4)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FeatureFileError, match="size"):
            read_feature_file(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "x.feat"
        write_feature_file(np.zeros((2, 2)), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(FeatureFileError, match="version"):
            read_feature_file(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "x.feat"
        array = np.zeros((2, 2))
        array[0, 0] = np.nan
        write_feature_file(array, path)
        with pytest.raises(FeatureFileError, match="non-finite"):
            read_feature_file(path)

    def test_wrong_rank_rejected(self, tmp_path):
        with pytest.raises(FeatureFileError):
            write_feature_file(np.zeros(5), tmp_path / "x.feat")

    def test_unreadable_file_rejected(self, tmp_path):
        # an OSError on open or read (here a directory) names the path
        target = tmp_path / "dir.lfpc.feat"
        target.mkdir()
        with pytest.raises(FeatureFileError) as info:
            read_feature_file(target)
        assert str(info.value).startswith(f"{target}: cannot read (")
        assert info.value.__cause__ is None

    def test_error_messages_exact(self, tmp_path):
        # every rejection names the file and the fault, word for word
        path = tmp_path / "x.feat"
        write_feature_file(np.zeros((2, 3)), path)
        good = path.read_bytes()
        bad_value = np.zeros((2, 3))
        bad_value[1, 2] = np.inf
        write_feature_file(bad_value, tmp_path / "inf.feat")
        cases = {
            "feature file not found: {}": (tmp_path / "ghost.feat", None),
            "{}: truncated header": (path, good[:19]),
            "{}: bad magic b'NOPEFEAT'": (path, b"NOPE" + good[4:]),
            "{}: unsupported version 9": (path, good[:8] + struct.pack("<I", 9) + good[12:]),
            "{}: size 60 != expected 68": (path, good[:-8]),
            "{}: non-finite values": (tmp_path / "inf.feat", None),
        }
        for message, (target, blob) in cases.items():
            if blob is not None:
                target.write_bytes(blob)
            with pytest.raises(FeatureFileError) as info:
                read_feature_file(target)
            assert str(info.value) == message.format(target)
            assert info.value.__cause__ is None


class TestFeatureFileIo:
    """The raw-descriptor reader and writer, against the format's definition."""

    @staticmethod
    def layout(array) -> bytes:
        array = np.asarray(array, dtype="<f8")
        return struct.pack("<8sIII", b"EMSPFEAT", 1, *array.shape) + array.tobytes()

    @pytest.mark.parametrize("shape", [(0, 4), (1, 1), (9, 16), (600, 16)])
    def test_read_is_a_writable_contiguous_float64_copy(self, tmp_path, shape):
        # (600, 16) is 76,820 bytes: more than one 64 KiB read
        array = np.random.default_rng(5).normal(size=shape)
        path = tmp_path / "x.feat"
        path.write_bytes(self.layout(array))
        loaded = read_feature_file(str(path))
        assert loaded.tobytes() == array.tobytes() and loaded.shape == shape
        assert loaded.dtype == np.float64 and loaded.flags.writeable and loaded.flags.c_contiguous
        assert loaded.flags.owndata

    def test_every_fault_message_exact(self, tmp_path):
        good = self.layout(np.zeros((2, 3)))
        bad = np.zeros((2, 3))
        bad[0, 1] = np.nan
        directory = tmp_path / "dir.feat"
        directory.mkdir()
        cases = [
            ("feature file not found: {}", tmp_path / "ghost.feat", None),
            ("{}: cannot read (Is a directory)", directory, None),
            ("{}: truncated header", tmp_path / "empty.feat", b""),
            ("{}: truncated header", tmp_path / "cut.feat", good[:12]),
            ("{}: size 20 != expected 68", tmp_path / "short.feat", good[:20]),
            ("{}: size 77 != expected 68", tmp_path / "long.feat", good + b"trailing!"),
            ("{}: non-finite values", tmp_path / "nan.feat", self.layout(bad)),
        ]
        for message, target, blob in cases:
            if blob is not None:
                target.write_bytes(blob)
            with pytest.raises(FeatureFileError) as info:
                read_feature_file(target)
            assert str(info.value) == message.format(target)
            assert info.value.__cause__ is None

    def test_finite_values_whose_sum_overflows_load_as_written(self, tmp_path):
        # a column of 1e308 sums past the largest float; its values are finite
        array = np.random.default_rng(7).normal(size=(6, 3))
        array[:, 1] = 1e308
        path = tmp_path / "big.feat"
        path.write_bytes(self.layout(array))
        loaded = read_feature_file(path)
        assert loaded.tobytes() == array.tobytes() and loaded.shape == array.shape

    @pytest.mark.parametrize("values", [[np.nan], [np.inf], [-np.inf], [np.inf, -np.inf]],
                             ids=["nan", "inf", "-inf", "inf-and-minus-inf"])
    def test_any_non_finite_value_is_a_fault(self, tmp_path, values):
        # RuntimeWarnings are errors here, so a check that warned would fail too
        array = np.ones((4, 3))
        array[2, : len(values)] = values
        path = tmp_path / "bad.feat"
        path.write_bytes(self.layout(array))
        with pytest.raises(FeatureFileError) as info:
            read_feature_file(path)
        assert str(info.value) == f"{path}: non-finite values"

    def test_write_is_the_format_byte_for_byte(self, tmp_path):
        array = np.random.default_rng(6).normal(size=(7, 5)).astype(np.float32)
        path = tmp_path / "x.feat"
        path.write_bytes(b"x" * 10_000)  # a longer file is truncated, not overlaid
        write_feature_file(array, str(path))
        assert path.read_bytes() == self.layout(array.astype(np.float64))
        assert np.array_equal(read_feature_file(path), array)
        reference = tmp_path / "ref"
        open(reference, "wb").close()  # the mode a plain open() gives
        assert path.stat().st_mode == reference.stat().st_mode

    def test_write_error_propagates(self, tmp_path):
        with pytest.raises(FileNotFoundError) as info:
            write_feature_file(np.zeros((1, 1)), tmp_path / "missing" / "x.feat")
        assert info.value.filename == str(tmp_path / "missing" / "x.feat")


class TestSeedDerivation:
    def test_frozen_values(self):
        # sha256-based: identical across platforms and processes
        assert derive_seed(0, "x") == 14869392827218930031
        assert derive_seed(7, "spk", "spk01") == 14141749086379035692

    def test_distinct_parts_distinct_seeds(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "ab")
        assert derive_seed(0, "a") != derive_seed(1, "a")


class TestSyntheticCorpus:
    def test_protocol_complete_and_deterministic(self, tmp_path):
        kwargs = dict(
            seed=5,
            n_speakers=2,
            emotions=("neutral", "angry"),
            separation=2.0,
            frames_range=(12, 16),
            bias_emotions=("angry",),
        )
        a = generate_synthetic_corpus(out_dir=tmp_path / "a", **kwargs)
        b = generate_synthetic_corpus(out_dir=tmp_path / "b", **kwargs)

        assert validate_protocol_counts(a, "unbiased").ok
        assert validate_protocol_counts(a, "biased:angry").ok

        text_a = (tmp_path / "a" / "manifest.csv").read_bytes()
        text_b = (tmp_path / "b" / "manifest.csv").read_bytes()
        assert text_a == text_b

        for record in a.records[:8]:
            blob_a = (a.root / record.source).read_bytes()
            blob_b = (b.root / record.source).read_bytes()
            assert blob_a == blob_b

    def test_different_seeds_differ(self, tmp_path):
        a = generate_synthetic_corpus(
            seed=1, n_speakers=2, emotions=("neutral",), separation=1.0,
            out_dir=tmp_path / "a", frames_range=(12, 14),
        )
        b = generate_synthetic_corpus(
            seed=2, n_speakers=2, emotions=("neutral",), separation=1.0,
            out_dir=tmp_path / "b", frames_range=(12, 14),
        )
        blob_a = (a.root / a.records[0].source).read_bytes()
        blob_b = (b.root / b.records[0].source).read_bytes()
        assert blob_a != blob_b

    def test_zero_separation_shares_source(self, tmp_path):
        manifest = generate_synthetic_corpus(
            seed=3, n_speakers=2, emotions=("neutral",), separation=0.0,
            out_dir=tmp_path, frames_range=(30, 30), noise_scale=0.5,
        )
        means = {}
        for speaker in manifest.speakers:
            rows = [
                read_feature_file(manifest.root / r.source).mean(axis=0)
                for r in [r for r in manifest.records if r.speaker_id == speaker][:20]
            ]
            means[speaker] = np.mean(rows, axis=0)
        gap = np.abs(means["spk01"] - means["spk02"]).max()
        assert gap < 1.0  # same underlying distribution

    def test_bias_records_have_expected_tags(self, tmp_path):
        manifest = generate_synthetic_corpus(
            seed=4, n_speakers=2, emotions=("neutral", "angry"), separation=1.0,
            out_dir=tmp_path, frames_range=(12, 14), bias_emotions=("angry", "neutral"),
        )
        tags = {r.bias_tag for r in manifest.records}
        # biased:neutral folds into unbiased; only angry gets a biased set
        assert tags == {"unbiased", "biased:angry"}
        biased = [r for r in manifest.records if r.bias_tag == "biased:angry"]
        assert len(biased) == 2 * 5 * 15
        assert all(r.emotion == "angry" for r in biased)

    def test_audio_mode(self, tmp_path):
        manifest = generate_synthetic_corpus(
            seed=6, n_speakers=2, emotions=("neutral",), separation=1.0,
            out_dir=tmp_path, frames_range=(12, 14), audio=True,
        )
        record = manifest.records[0]
        assert record.source.endswith(".wav")
        signal = read_audio(manifest.root / record.source)
        assert signal.sample_rate == 16000
        n_frames = (len(signal.samples) - 480) // 80 + 1
        assert 12 <= n_frames <= 14

    def test_audio_frames_follow_sample_rate(self, tmp_path):
        # at 8 kHz the front end takes a 240-sample window every 40 samples;
        # a WAV asked for 10 frames gives 10 LFPC frames and two 9-frame blocks
        manifest = generate_synthetic_corpus(
            seed=6, n_speakers=2, emotions=("neutral",), separation=1.0,
            out_dir=tmp_path, frames_range=(10, 10), audio=True, sample_rate=8000,
        )
        front_end = FrontEnd(f_high=4000.0, n_bands=12)
        for record in manifest.records[:3]:
            obs = load_observation(manifest, record, front_end)
            assert obs.acoustic.shape == (10, 12)
            assert len(obs.prosodic) == 2

    def test_rejects_bad_arguments(self, tmp_path):
        with pytest.raises(CorpusError):
            generate_synthetic_corpus(
                seed=0, n_speakers=1, emotions=("neutral",), separation=1.0,
                out_dir=tmp_path,
            )
        with pytest.raises(CorpusError):
            generate_synthetic_corpus(
                seed=0, n_speakers=2, emotions=("bored",), separation=1.0,
                out_dir=tmp_path,
            )
        with pytest.raises(CorpusError):
            generate_synthetic_corpus(
                seed=0, n_speakers=2, emotions=("neutral",), separation=1.0,
                out_dir=tmp_path, bias_emotions=("angry",),
            )

    def test_emotions_in_report_order(self):
        assert EMOTIONS == ("neutral", "angry", "sad", "happy", "disgust", "fear")


def tree_digest(root) -> str:
    """sha256 over (relative path, length, bytes) of every file under root, by path."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        blob = path.read_bytes()
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(len(blob).to_bytes(8, "little") + blob)
    return h.hexdigest()


GOLDEN_CORPORA = {
    "biased": dict(
        seed=21, n_speakers=2, emotions=("neutral", "angry", "sad"), separation=1.5,
        frames_range=(8, 12), bias_emotions=("angry", "neutral"), bias_boost=3.0,
    ),
    "degenerate": dict(
        seed=22, n_speakers=2, emotions=EMOTIONS, separation=0.0,
        n_coefficients=8, frames_range=(1, 3), block_size=2,
    ),
    "audio": dict(
        seed=23, n_speakers=2, emotions=("neutral", "sad"), separation=1.0,
        frames_range=(4, 8), bias_emotions=("sad",), bias_boost=2.5, audio=True,
    ),
}


class TestSyntheticDraws:
    # Digests of every file (manifest.csv included) of three corpora, taken
    # from the generator that built every per-(speaker, emotion) constant
    # for each utterance. Any change in what is drawn, from which stream or
    # in which order, changes them.
    GOLDEN = {
        "biased": "aa7a8c050caa1edfac8732595cd9b36cea7a439991b6ecbed9c4e3ad8bcba0f5",
        "degenerate": "284a375f83e74e28623a502c47e315290d6e5bd6dc84fe070859ec9ddb0335e6",
        "audio": "5d56a99d35fe7e7caf00ed55c6cab643e63848c7688d5c69c459d8c03d08946a",
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN_CORPORA))
    def test_golden_digest(self, tmp_path, name):
        generate_synthetic_corpus(out_dir=tmp_path, **GOLDEN_CORPORA[name])
        assert tree_digest(tmp_path) == self.GOLDEN[name]

    @pytest.mark.parametrize("audio", [False, True])
    def test_one_stream_per_utterance(self, tmp_path, monkeypatch, audio):
        # Feature cells draw an emotion offset, an interaction, 3 state
        # offsets and a prosodic emotion offset; audio cells draw the emotion
        # factor. Speakers draw their signatures (features) or voice (audio).
        calls = []
        derived_rng = corpus._derived_rng

        def counted(seed, *parts):
            calls.append(parts)
            return derived_rng(seed, *parts)

        monkeypatch.setattr(corpus, "_derived_rng", counted)
        manifest = generate_synthetic_corpus(
            seed=24, n_speakers=2, emotions=("neutral", "angry"), separation=1.0,
            out_dir=tmp_path, frames_range=(1, 2), bias_emotions=("angry",), audio=audio,
        )
        n_cells = 2 * (2 + 1)  # speakers x (emotions + biased sets)
        per_cell, per_speaker = (1, 1) if audio else (6, 2)
        assert len(manifest.records) == n_cells * 5 * 15
        assert sum(parts[0] == "utt" for parts in calls) == len(manifest.records)
        assert len(calls) == len(manifest.records) + per_cell * n_cells + per_speaker * 2 + 1
