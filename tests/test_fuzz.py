"""Every reader of a damaged file either succeeds or raises its documented error.

One valid file of each kind is damaged in every way of a fixed, seeded set:
at every byte offset, header bytes included, the byte is flipped, deleted,
preceded by an inserted byte, or the file is cut there; then seeded pairs of
such edits follow. Every mutant is run.
"""

import numpy as np
import pytest

from emospeaker.cli import load_population, read_performance_csv
from emospeaker.config import ConfigError, build_config
from emospeaker.corpus import (
    AudioFormatError,
    AudioSignal,
    CorpusError,
    FeatureFileError,
    ManifestError,
    load_manifest,
    read_audio,
    read_feature_file,
    write_audio,
    write_feature_file,
)
from emospeaker.hmm import ModelError, ModelFormatError
from emospeaker.sphmm import SpeakerModel, load_speaker_model, save_speaker_model
from helpers import random_model

MANIFEST = """# sample_rate=16000
# generator=synthetic
speaker_id,gender,emotion,sentence_id,bias_tag,session,repetition,source
spk01,male,neutral,1,unbiased,train,1,features/a.lfpc.feat
spk01,male,angry,2,biased:angry,test,12,features/b.lfpc.feat
spk02,female,neutral,5,unbiased,test,15,audio/c.wav
"""

CONFIG = """# a run
manifest = corpus/manifest.csv
out = run
plan = biased:angry
alpha = 0.25
acoustic_states = 3
tolerance = 1e-4
synth_audio = false
emotions = neutral,angry
"""

BASELINE = """Emotion,Males(%),Females(%),Average(%)
neutral,85.00,81.00,83.00
angry,70.50,,70.50
average,77.75,81.00,76.75
"""


def speaker(speaker_id: str, seed: int) -> SpeakerModel:
    rng = np.random.default_rng(seed)
    return SpeakerModel(speaker_id, random_model(rng, 2, 1, 2), random_model(rng, 1, 1, 1), -0.5)


def feature_file(tmp_path):
    path = tmp_path / "u.lfpc.feat"
    write_feature_file(np.random.default_rng(1).normal(size=(5, 3)), path)
    return path, lambda: read_feature_file(path)


def wav_file(tmp_path):
    path = tmp_path / "u.wav"
    samples = np.random.default_rng(2).integers(-3000, 3000, 100).astype(np.int16)
    write_audio(AudioSignal(samples=samples, sample_rate=16000), path)
    return path, lambda: read_audio(path)


def model_file(tmp_path):
    path = tmp_path / "spk01.model"
    save_speaker_model(speaker("spk01", 3), path)
    return path, lambda: load_speaker_model(path)


def population_index(tmp_path):
    for i, speaker_id in enumerate(("spk01", "spk02")):
        save_speaker_model(speaker(speaker_id, 4 + i), tmp_path / f"{speaker_id}.model")
    path = tmp_path / "population.txt"
    path.write_text("spk01\nspk02\n", encoding="utf-8")
    return path, lambda: load_population(tmp_path)


def text_file(name, text, reader):
    def make(tmp_path):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path, lambda: reader(path)

    return make


# kind -> (writer of one valid file and its reader, documented error, seeded edit pairs)
KINDS = {
    "feature": (feature_file, FeatureFileError, 3000),
    "wav": (wav_file, AudioFormatError, 4000),
    "model": (model_file, ModelFormatError, 1500),
    "population": (population_index, ModelError, 2500),
    "manifest": (text_file("manifest.csv", MANIFEST, load_manifest), ManifestError, 3500),
    "config": (text_file("run.cfg", CONFIG, build_config), ConfigError, 4000),
    "baseline": (text_file("performance.csv", BASELINE, read_performance_csv), CorpusError, 5000),
}


def mutants(blob: bytes, seed: int, pairs: int):
    """(label, bytes) for every single edit at every offset, then seeded edit pairs."""
    rng = np.random.default_rng(seed)

    def edit(data: bytes, kind: int, at: int) -> bytes:
        at = min(at, len(data))
        if kind == 0 and at < len(data):
            return data[:at] + bytes([data[at] ^ int(rng.integers(1, 256))]) + data[at + 1:]
        if kind == 1:
            return data[:at] + data[at + 1:]
        if kind == 2:
            return data[:at] + bytes([int(rng.integers(0, 256))]) + data[at:]
        return data[:at]

    for at in range(len(blob)):
        for kind, name in enumerate(("flip", "delete", "insert", "truncate")):
            yield f"{name} at {at}", edit(blob, kind, at)
    for i in range(pairs):
        data = blob
        for kind, at in rng.integers(0, (4, len(blob)), size=(2, 2)):
            data = edit(data, int(kind), int(at))
        yield f"pair {i}", data


@pytest.mark.parametrize("kind", list(KINDS))
def test_damaged_file_succeeds_or_raises_documented_error(tmp_path, kind):
    make, error, pairs = KINDS[kind]
    path, read = make(tmp_path)
    read()  # the undamaged file reads
    blob = path.read_bytes()
    unexpected = []
    for label, data in mutants(blob, seed=len(blob), pairs=pairs):
        path.write_bytes(data)
        try:
            read()
        except error:
            pass
        except Exception as exc:  # noqa: BLE001 - the finding this test exists for
            unexpected.append(f"{label}: {type(exc).__name__}: {exc}")
    assert not unexpected, f"{len(unexpected)} mutants raised undocumented errors:\n" + "\n".join(
        unexpected[:10]
    )
