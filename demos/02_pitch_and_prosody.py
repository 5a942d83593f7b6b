"""
Pitch, energy, and the suprasegmental stream
============================================

The prosodic model never sees spectral detail. It sees short summaries of
how the voice moves: per 45 ms block, the mean pitch of voiced frames, the
pitch range, the mean log energy, and the fraction of voiced frames.
"""

import numpy as np

from emospeaker.dsp import FrontEnd
from emospeaker.prosody import (
    aggregate_blocks,
    estimate_f0,
    lag_bounds,
    pitch_energy_track,
    suprasegmental_sequence,
)

SR = 16000
front_end = FrontEnd()
lo, hi = lag_bounds(front_end, SR, frame_length=480)
print(f"pitch search range: {front_end.f0_min}-{front_end.f0_max} Hz -> lags {lo}..{hi} samples")

# The tracker on pure tones. Autocorrelation peaks at the true period.
for freq in (100, 160, 250, 320):
    t = np.arange(480) / SR
    frame = np.sin(2 * np.pi * freq * t)
    f0, voiced = estimate_f0(frame, SR, front_end)
    print(f"  {freq:3d} Hz tone -> voiced={voiced}  f0={f0:7.2f} Hz")

# Noise has no period worth reporting.
rng = np.random.default_rng(7)
f0, voiced = estimate_f0(rng.standard_normal(480), SR, front_end)
print(f"  white noise -> voiced={voiced}  f0={f0:.2f}")

# A toy utterance: 0.3 s silence, 0.4 s of 180 Hz voice, 0.3 s of 220 Hz.
pieces = [
    np.zeros(int(0.3 * SR)),
    0.4 * np.sin(2 * np.pi * 180 * np.arange(int(0.4 * SR)) / SR),
    0.4 * np.sin(2 * np.pi * 220 * np.arange(int(0.3 * SR)) / SR),
]
signal = np.concatenate(pieces)

f0_track, voiced_track, energy_track = pitch_energy_track(signal, SR)
print(f"\nutterance: {len(f0_track)} frames, {int(voiced_track.sum())} voiced")

# Blocks of 9 frames each become one 4-number summary.
blocks = aggregate_blocks(f0_track, voiced_track, energy_track, block_size=9)
print(f"blocks: {blocks.shape}  (mean f0, f0 range, mean log energy, voiced fraction)")

print("\nblock  mean_f0  f0_range  log_energy  voiced")
for i in (0, 8, 12, 16, 20):
    b = blocks[i]
    print(f"{i:>5}  {b[0]:7.1f}  {b[1]:8.2f}  {b[2]:10.2f}  {b[3]:6.2f}")

print("\nthe first rows are silence (all zeros except a floor log energy);")
print("voiced blocks report the tone's pitch and a voiced fraction of 1.")

# And the one-call version:
again = suprasegmental_sequence(signal, SR)
print(f"\nsuprasegmental_sequence matches: {np.array_equal(again, blocks)}")
