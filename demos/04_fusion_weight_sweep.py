"""
What the fusion weight buys
===========================

Identification fuses two log scores per speaker:

    score(alpha) = (1 - alpha) * acoustic + alpha * prosodic

alpha = 0 is a plain acoustic classifier, alpha = 1 prosody alone. This
script sweeps alpha on one deliberately hard synthetic session. Neither
stream is clean on its own; the interesting part is that a blend of the
two beats both endpoints, which is the whole argument for fusing them.
"""

import tempfile

from emospeaker.corpus import generate_synthetic_corpus
from emospeaker.features import make_loader
from emospeaker.protocol import run_session, train_population
from emospeaker.sphmm import Topology

# removed by cleanup() at the end, or when the interpreter exits on an error
scratch = tempfile.TemporaryDirectory(prefix="emospeaker_fusion_")
manifest = generate_synthetic_corpus(
    seed=77,
    n_speakers=5,
    emotions=("neutral", "angry"),
    separation=0.55,         # deliberately hard: speakers overlap
    noise_scale=3.0,
    out_dir=scratch.name,
    frames_range=(18, 26),
)

topology = Topology(
    acoustic_states=2, acoustic_mixtures=2, prosodic_states=2, prosodic_mixtures=1,
)
loader = make_loader(manifest)
models = train_population(
    manifest, loader, "unbiased", topology, seed=1, max_iterations=4
)

sweep = {}
print("alpha  grand average (%)")
for alpha in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
    result = run_session(models, manifest, loader, "unbiased", alpha=alpha)
    sweep[alpha] = result.table.grand_average()
    bar = "#" * round(sweep[alpha] / 2)
    print(f"{alpha:5.2f}  {sweep[alpha]:6.2f}  {bar}")

best = max(sweep, key=sweep.get)
print(f"\nbest mix in this sweep: alpha = {best} ({sweep[best]:.2f}%),")
print(f"acoustic alone gives {sweep[0.0]:.2f}% and prosody alone {sweep[1.0]:.2f}%.")
print("alpha is a config key (alpha = ...), so the same trained models can")
print("be scored under any mix without retraining.")

scratch.cleanup()
