"""A fixed reference kernel that measures how fast the host runs right now.

On the 2-vCPU Firecracker VM the benchmark was tuned on, the same code
takes anywhere from 1x to 2x its fastest time, in phases that last from
seconds to minutes, and process CPU time follows wall time: the slowdown
is in the vCPU itself, so no choice of clock removes it.  The worker
therefore runs this kernel between ops (and between the cases of long
ops) and scales each measured CPU time by ``REF_S / kernel time``.  A
reported time is the time the work would take while this kernel takes
``REF_S``.

The kernel imports nothing from the program, so a change to the program
cannot move it.  It has seven parts of roughly equal time, one for each
kind of work the four workloads do: interpreted Python, numpy calls on
tiny arrays, small LAPACK eigenproblems (polynomial roots), Kronecker
products, dense complex matrix products, elementwise passes over arrays
of a few megabytes, and unmarshalling code objects (most of an import).
Slowdowns hit these kinds of work by different amounts, so the mix
tracks every workload; a kernel of the first three parts alone left the
run-to-run spread of the dynamics and cli workloads near that of raw
time.

    python3 perfbench/calib.py     # prints the kernel's median time here
"""

from __future__ import annotations

import marshal
import math
import statistics
from time import process_time

import numpy as np

# The kernel's time that scaled times refer to: about its median on the
# reference machine (README.md).
REF_S = 0.0060
REPEATS = 4  # kernel calls per sample; the sample is their mean

_rng = np.random.default_rng(20111202)
_POLYS = _rng.normal(size=(2, 21)) + 1j * _rng.normal(size=(2, 21))
_MAT = _rng.normal(size=(96, 96)) + 1j * _rng.normal(size=(96, 96))
_WIDE = np.ones((384, 256), dtype=complex)
_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_CODE = marshal.dumps(
    compile("".join(f"def f{i}(a, b=({i}, 'x{i}')):\n    return [a, b, {i} * a]\n" for i in range(150)), "k", "exec")
)


def _kernel() -> float:
    acc = 0.0
    for i in range(3500):
        acc += math.cos(i * 1e-3) * (i & 7)
    v = np.zeros(3)
    for i in range(100):
        v = np.array([v[1], v[2], 1e-3 * i])
        acc += float(np.linalg.norm(v)) + float(np.abs(v).sum())
    for p in _POLYS:
        acc += float(np.abs(np.roots(p)).sum())
    m = _X
    for k in range(6):
        m = np.kron(m, _Z if k % 2 else _X)
    acc += float(np.abs(m + m.conj().T).sum())
    for _ in range(4):
        acc += float(np.abs(_MAT @ _MAT).max())
    acc += float(np.abs(_WIDE + _WIDE * 1.0001).sum())
    for _ in range(3):
        acc += len(marshal.loads(_CODE).co_consts)
    return acc


def warm_up():
    """One untimed kernel call, so first-call work stays out of samples."""
    _kernel()


def sample(clock=process_time) -> float:
    """Mean seconds of ``REPEATS`` kernel calls, taken now on ``clock``.

    The mean, not the median: the host flips between a fast and a slow
    state within a second, and the work being scaled runs at the mean speed.
    """
    t0 = clock()
    for _ in range(REPEATS):
        _kernel()
    return (clock() - t0) / REPEATS


if __name__ == "__main__":
    warm_up()
    print(f"kernel median {1e3 * statistics.median(sample() for _ in range(300)):.3f} ms")
