"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a share of a host whose speed swings by up to a factor
of two within a minute, in stretches of seconds to tens of seconds; wall
times of the same calls spread by 20-60% between runs. A fixed computation,
the *kernel*, is timed right before and right after every timed call. The
kernel is :func:`reference.forward_log_likelihood` on a fixed small model:
the same kind of work as the package (small numpy operations inside Python
loops), and code outside the package, so no change to the package moves it.
A call's wall time divided by the kernel's time next to it is a ratio from
which the host's swings mostly cancel; that ratio times
:data:`NOMINAL_KERNEL_S` is the call's time at a fixed machine speed.
"""

import statistics
import time
from types import SimpleNamespace

import numpy as np

import reference

# A typical median kernel time on the machine the reference figures in
# README.md were taken on (2-vCPU KVM guest, Xeon family 6 model 143, Python
# 3.11.7, numpy 2.4.6, one OpenBLAS thread); run medians there ranged from
# 0.51 to 1.0 ms.
NOMINAL_KERNEL_S = 0.85e-3

_STATES, _MIXTURES, _DIM, _FRAMES = 3, 2, 12, 12


def _fixed_model():
    rng = np.random.default_rng(20170629)  # fixed: the kernel is the same in every run
    states = [
        SimpleNamespace(
            weights=np.full(_MIXTURES, 1.0 / _MIXTURES),
            means=rng.normal(size=(_MIXTURES, _DIM)),
            variances=rng.uniform(0.5, 2.0, size=(_MIXTURES, _DIM)),
        )
        for _ in range(_STATES)
    ]
    transitions = np.triu(rng.uniform(size=(_STATES, _STATES)))
    transitions /= transitions.sum(axis=1, keepdims=True)
    pi = np.zeros(_STATES)
    pi[0] = 1.0
    model = SimpleNamespace(states=states, pi=pi, transitions=transitions)
    return model, rng.normal(size=(_FRAMES, _DIM))


_MODEL, _OBS = _fixed_model()


def kernel_s() -> float:
    """Wall time of one kernel run."""
    t0 = time.perf_counter()
    reference.forward_log_likelihood(_MODEL, _OBS)
    return time.perf_counter() - t0


def timed(call, reps: int):
    """Run ``call()``; return (its result, its wall time, the kernel time around it).

    The kernel runs ``reps`` times before the call and ``reps`` times after;
    the kernel time is the median of those runs.
    """
    kernel = [kernel_s() for _ in range(reps)]
    t0 = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - t0
    kernel += [kernel_s() for _ in range(reps)]
    return result, elapsed, statistics.median(kernel)


def scaled(sample) -> float:
    """A (time, kernel time) sample as seconds at the nominal machine speed."""
    elapsed, kernel = sample
    return elapsed / kernel * NOMINAL_KERNEL_S
