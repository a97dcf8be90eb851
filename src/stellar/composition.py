"""Composition of symmetric states and the random-state ensembles.

Composing two states merges their constellations; in coefficient space
that is a plain convolution of the binomial-weighted Dicke coefficients,
which is exact (no root finding involved).  Random states compose
independent uniform-on-sphere single-qubit states; the antipodal variant
composes random antipodal pairs and therefore has barycentric measure 1
by construction.

Randomness comes from numpy's Philox counter-based generator, so a given
64-bit seed yields the same stream on every platform.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .states import QubitState, SymmetricState, _sqrt_binom, symmetrize

__all__ = ["make_rng", "random_qubit", "compose", "random_state", "random_antipodal_state"]


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic Philox generator for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(int(seed)))


def random_qubit(rng: np.random.Generator) -> QubitState:
    """Uniform point on the sphere: z ~ U[-1, 1], phi ~ U[0, 2*pi)."""
    z = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return QubitState(math.acos(z), phi)


def compose(a: SymmetricState, b: SymmetricState) -> SymmetricState:
    """Star-multiset union of two symmetric states.

    Commutative and associative up to global phase; the Husimi function of
    the result is proportional to the product of the factors' Husimi
    functions.
    """
    ea = a.d * _sqrt_binom(a.n)
    eb = b.d * _sqrt_binom(b.n)
    e = np.convolve(ea, eb)
    return SymmetricState(a.n + b.n, e / _sqrt_binom(a.n + b.n))


def random_state(n: int, rng: np.random.Generator) -> SymmetricState:
    """Composition of n independent uniform-on-sphere single-qubit states."""
    n = int(n)
    if n < 1:
        raise DomainError("n must be positive")
    _sqrt_binom(n)  # ResourceError for n >= 1030 before any draw
    return symmetrize([random_qubit(rng) for _ in range(n)])


def random_antipodal_state(n: int, rng: np.random.Generator) -> SymmetricState:
    """Composition of n/2 random antipodal star pairs; barycenter is exactly 0."""
    n = int(n)
    if n < 1 or n % 2:
        raise DomainError(f"antipodal ensemble needs an even qubit count, got {n}")
    _sqrt_binom(n)  # ResourceError for n >= 1030 before any draw
    parts: list[QubitState] = []
    for _ in range(n // 2):
        q = random_qubit(rng)
        parts.append(q)
        parts.append(QubitState(math.pi - q.theta, q.phi + math.pi))
    return symmetrize(parts)
