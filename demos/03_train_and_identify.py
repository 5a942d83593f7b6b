"""
Closed-set speaker identification, end to end
=============================================

Generate a small synthetic corpus, enroll every speaker, then identify the
test utterances. Each speaker gets two hidden Markov models with Gaussian
mixture emissions: an ergodic acoustic model over band-energy features and
a smaller prosodic model over pitch/energy block statistics.
"""

import tempfile
from pathlib import Path

from emospeaker.corpus import generate_synthetic_corpus
from emospeaker.features import make_loader
from emospeaker.protocol import identify, run_session, session_test_records, train_population
from emospeaker.sphmm import Topology

# removed by cleanup() at the end, or when the interpreter exits on an error
scratch = tempfile.TemporaryDirectory(prefix="emospeaker_demo_")
workdir = Path(scratch.name)

manifest = generate_synthetic_corpus(
    seed=42,
    n_speakers=4,
    emotions=("neutral", "angry", "sad"),
    separation=3.0,
    out_dir=workdir,
    frames_range=(20, 30),
)
print(f"corpus: {len(manifest.records)} utterances from {len(manifest.speakers)} speakers")
print(f"        ({workdir})")

# Small models keep the demo quick; the defaults (9 states, 10 mixtures)
# are what you would use on real recordings.
topology = Topology(
    acoustic_states=2, acoustic_mixtures=2, prosodic_states=2, prosodic_mixtures=1,
)

loader = make_loader(manifest)
print("\ntraining one model pair per speaker on repetitions 1-9 ...")
models = train_population(
    manifest, loader, "unbiased", topology, seed=0, max_iterations=5
)
print(f"enrolled: {[m.speaker_id for m in models]}")

# Identify a handful of held-out utterances by hand first.
print("\nutterance                        scores (log), winner marked")
for record in session_test_records(manifest, "unbiased")[:6]:
    obs = loader(record)
    predicted, scores = identify(models, obs, alpha=0.5)
    marks = [
        f"{m.speaker_id}:{s:9.1f}" + ("*" if m.speaker_id == predicted else " ")
        for m, s in zip(models, scores)
    ]
    ok = "ok " if predicted == record.speaker_id else "MISS"
    print(f"{record.key:<32} {'  '.join(marks)}  {ok}")

# The full test session: repetitions 10-15 of every speaker and emotion.
result = run_session(models, manifest, loader, "unbiased", alpha=0.5)
print(f"\nfull session: {len(result.trials)} trials")

print("\nemotion     males(%)  females(%)  average(%)")
for emotion, male, female, avg in result.table.rows():
    m = "  --" if male is None else f"{male:5.1f}"
    f = "  --" if female is None else f"{female:5.1f}"
    print(f"{emotion:<10} {m:>8}  {f:>9}  {avg:>9.1f}")
print(f"\ngrand average: {result.table.grand_average():.2f}%")

confusion = result.confusion()
print("\nconfusion (rows true, cols predicted):")
print(confusion)

scratch.cleanup()
