"""
Biased training plans and the statistics behind a comparison
============================================================

A "biased:angry" plan swaps each speaker's angry training and test material
for recordings made under an angry-primed condition. On the synthetic
corpus that condition is simulated by strengthening the speaker-specific
component of angry utterances, so the biased plan should identify at least
as well as the unbiased one.

The second half runs the statistical toolkit on the two sessions: relative
improvement per emotion, a two-sample t check on the emotion averages, and
Cohen's kappa against ground truth.
"""

import tempfile

import numpy as np

from emospeaker.corpus import generate_synthetic_corpus
from emospeaker.features import make_loader
from emospeaker.protocol import run_session, train_population
from emospeaker.sphmm import Topology
from emospeaker.stats import (
    cohen_kappa,
    compare_performance,
    kappa_annotation,
    kappa_band,
    relative_improvement,
)

# removed by cleanup() at the end, or when the interpreter exits on an error
scratch = tempfile.TemporaryDirectory(prefix="emospeaker_bias_")
manifest = generate_synthetic_corpus(
    seed=5,
    n_speakers=4,
    emotions=("neutral", "angry", "sad"),
    separation=0.8,
    out_dir=scratch.name,
    frames_range=(16, 22),
    bias_emotions=("angry",),
    bias_boost=2.5,
)

topology = Topology(
    acoustic_states=2, acoustic_mixtures=2, prosodic_states=2, prosodic_mixtures=1,
)
loader = make_loader(manifest)

sessions = {}
for plan in ("unbiased", "biased:angry"):
    models = train_population(
        manifest, loader, plan, topology, seed=2, max_iterations=4
    )
    sessions[plan] = run_session(models, manifest, loader, plan, alpha=0.5)

print("plan            ", "  ".join(f"{e:>8}" for e in sessions["unbiased"].table.emotions),
      "   grand")
for plan, result in sessions.items():
    averages = [result.table.emotion_average(e) for e in result.table.emotions]
    print(f"{plan:<16}", "  ".join(f"{a:8.2f}" for a in averages),
          f"  {result.table.grand_average():6.2f}")

unbiased, biased = sessions["unbiased"], sessions["biased:angry"]
gain = relative_improvement(
    biased.table.emotion_average("angry"), unbiased.table.emotion_average("angry")
)
print(f"\nangry-emotion relative improvement under the biased plan: {gain:.2f}%")

# Two-sample t on the per-emotion averages. n is the trials behind each
# category average (speakers x sentences x test repetitions here).
emotions = list(unbiased.table.emotions)
n = len(biased.trials) // len(emotions)
report = compare_performance(
    emotions,
    [biased.table.emotion_average(e) for e in emotions],
    [unbiased.table.emotion_average(e) for e in emotions],
    n,
)
print(f"t statistic over {len(emotions)} emotion averages (n={n}): {report.t:.3f}")
print(f"significant at the 0.05 level (one-tailed, t > 1.645)? {report.significant}")

kappa = cohen_kappa(biased.confusion())
print(f"\nCohen's kappa of the biased session: {kappa:.4f} ({kappa_band(kappa)})")
note = kappa_annotation(kappa)
print(f"annotation: {note if note else '(none; value is outside the contested band)'}")

chance = cohen_kappa(np.full((4, 4), 25.0))
print(f"kappa of a uniformly random confusion: {chance:.4f}")

scratch.cleanup()
