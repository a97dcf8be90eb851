"""State algebra in the Dicke basis.

A permutation-symmetric pure state of ``n`` qubits is stored as its ``n+1``
Dicke coefficients.  This module covers construction (Dicke states,
spin-coherent states, GHZ and Bell states, the four-qubit rectangle family
and its tetrahedron, symmetrized products of arbitrary single-qubit
states), the Dicke isometry into the full ``2**n`` amplitude space with
its embedding and inverse projection, and the permutation-symmetry check.

Conventions fixed here and relied on everywhere else:

* a single-qubit state is ``cos(theta/2)|0> + exp(i*phi) sin(theta/2)|1>``;
* qubit 0 is the most significant bit of a full-space amplitude index;
* every constructed state is normalized and the first non-negligible Dicke
  coefficient is made real positive, so equal states compare bitwise equal.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, ResourceError, SymmetryViolationError, _check_bytes, _index, _real

__all__ = [
    "QubitState",
    "SymmetricState",
    "FullState",
    "SymmetryReport",
    "dicke_state",
    "coherent_state",
    "ghz_state",
    "bell_state",
    "symmetrize",
    "rec_family_state",
    "tetrahedron_state",
    "symmetrization_constant",
    "embed_full",
    "project_sym",
    "is_permutation_symmetric",
    "overlap",
    "fidelity",
    "jm_to_nk",
    "nk_to_jm",
    "state_to_json",
    "state_from_json",
]

_PHASE_TOL = 1e-12
_TWO_PI = 2.0 * math.pi


@functools.lru_cache(maxsize=128)
def _sqrt_binom(n: int) -> np.ndarray:
    """sqrt(C(n, k)) for k = 0..n, read-only: every caller shares one array.

    Raises ResourceError when C(n, n/2) exceeds the float range (n >= 1030).
    """
    try:
        c = np.sqrt(np.array([float(math.comb(n, k)) for k in range(n + 1)]))
    except OverflowError:
        raise ResourceError(f"binomial coefficients of {n} qubits exceed the float range") from None
    c.flags.writeable = False
    return c


def _floats(a) -> list[str]:
    """Each float of ``a`` as ``%.17g`` text, -0.0 folded into 0.0: the numbers of all CSV and JSON output."""
    return ["%.17g" % x for x in (np.asarray(a, dtype=float).ravel() + 0.0).tolist()]


_CSV_ROWS = 4096  # rows formatted at a time: the cells of one chunk are all that is held besides the text


def _csv(header: str, columns: Sequence) -> str:
    """CSV under ``header`` of equal-length columns: lists of strings as given, float arrays by ``_floats``."""
    parts = [header]
    for i in range(0, len(columns[0]), _CSV_ROWS):
        cells = [c[i : i + _CSV_ROWS] if isinstance(c, list) else _floats(c[i : i + _CSV_ROWS]) for c in columns]
        parts.append("\n".join(map(",".join, zip(*cells))))
    return "\n".join(parts) + "\n"


def _complex_json(a: np.ndarray) -> str:
    """JSON of a complex vector as [[re, im], ...], or of a matrix as a list of such rows."""
    if a.ndim == 2:
        return "[" + ", ".join(map(_complex_json, a)) + "]"
    return "[" + ", ".join(f"[{re}, {im}]" for re, im in zip(_floats(a.real), _floats(a.imag))) + "]"


@dataclass(frozen=True)
class QubitState:
    """Single-qubit pure state cos(theta/2)|0> + exp(i*phi) sin(theta/2)|1>.

    theta is clamped to [0, pi], phi is reduced mod 2*pi, and phi is
    canonicalized to 0 at the poles where it is physically meaningless.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        th = _real(self.theta, "theta must be finite and lie in [0, pi]", -1e-12, math.pi + 1e-12)
        th = min(max(th, 0.0), math.pi)
        ph = _real(self.phi, "phi must be finite") % _TWO_PI
        if th == 0.0 or th == math.pi:
            ph = 0.0
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "phi", ph)

    @property
    def amplitudes(self) -> tuple[complex, complex]:
        """(a, b) with the state a|0> + b|1>; exact at the poles."""
        if self.theta == math.pi:
            return 0.0 + 0.0j, 1.0 + 0.0j
        a = math.cos(self.theta / 2.0)
        b = cmath.exp(1j * self.phi) * math.sin(self.theta / 2.0)
        return complex(a), b

    def bloch_vector(self) -> np.ndarray:
        s = math.sin(self.theta)
        return np.array([s * math.cos(self.phi), s * math.sin(self.phi), math.cos(self.theta)])


@dataclass(frozen=True)
class SymmetricState:
    """Permutation-symmetric n-qubit pure state as n+1 Dicke coefficients.

    The constructor normalizes and applies the global-phase convention
    (first non-negligible coefficient real positive); the stored array is
    frozen so instances are safe to share.
    """

    n: int
    d: np.ndarray

    def __post_init__(self):
        n = _index(self.n, "a symmetric state needs an integer count of at least one qubit", 1)
        d = np.array(self.d, dtype=np.complex128).reshape(-1)
        if d.shape[0] != n + 1:
            raise DomainError(f"expected {n + 1} Dicke coefficients, got {d.shape[0]}")
        d = _canonical(d[None])[0]
        d.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)

    @classmethod
    def _from_canonical(cls, d: np.ndarray) -> "SymmetricState":
        """A state from a read-only row that ``_canonical`` produced, not checked again."""
        state = object.__new__(cls)
        object.__setattr__(state, "n", d.shape[0] - 1)
        object.__setattr__(state, "d", d)
        return state


def _unit_rows(d: np.ndarray) -> np.ndarray:
    """Complex rows d (m, k) divided, in place, by their norms; DomainError for a non-finite or all-zero row.

    Each row is first scaled exactly, by the power of two that brings its
    largest real or imaginary part into [1, 2), so the squares in its norm
    neither overflow nor underflow at any finite scale.  Both parts are
    scaled in place, which keeps the signs of their zeros.
    """
    parts = d.view(np.float64)  # (m, 2k): each row's real and imaginary parts, interleaved
    top = np.abs(parts).max(axis=1)  # NaN or inf for a row with a non-finite part
    if np.count_nonzero(np.isfinite(top)) < top.size:
        raise DomainError("non-finite amplitude")
    if np.count_nonzero(top) < top.size:
        raise DomainError("the zero vector is not a state")
    np.ldexp(parts, 1 - np.frexp(top)[1][:, None], out=parts)
    re, im = d.real[:, None, :], d.imag[:, None, :]
    d /= np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]  # as np.linalg.norm of a row
    return d


def _canonical(d: np.ndarray) -> np.ndarray:
    """Dicke rows (m, n+1) normalized in place by ``_unit_rows``, each first non-negligible coefficient real positive.

    The one home of the global-phase convention.
    """
    d = _unit_rows(d)
    mags = np.abs(d)
    rows = np.arange(d.shape[0])
    k = (mags >= _PHASE_TOL * mags.max(axis=1, keepdims=True)).argmax(axis=1)
    pivot = d[rows, k]
    turn = np.array([cmath.exp(-1j * cmath.phase(z)) for z in pivot.tolist()])
    d *= turn[:, None]
    d[rows, k] = np.abs(pivot * turn)
    return d


@dataclass(frozen=True)
class FullState:
    """Dense n-qubit amplitude vector, qubit 0 = most significant index bit."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        n = _index(self.n, "a full state needs an integer count of at least one qubit", 1)
        amps = np.array(self.amps, dtype=np.complex128).reshape(-1)
        if amps.shape[0] != 2**n:
            raise DomainError(f"expected {2**n} amplitudes, got {amps.shape[0]}")
        self._set(n, amps)

    def _set(self, n: int, amps: np.ndarray) -> None:
        amps = _unit_rows(amps[None])[0]
        amps.flags.writeable = False
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amps", amps)

    @classmethod
    def _from_owned(cls, n: int, amps: np.ndarray) -> "FullState":
        """A state from a fresh complex128 array of 2**n amplitudes that no one else holds, normalized in place."""
        state = object.__new__(cls)
        state._set(n, amps)
        return state


class SymmetryReport(NamedTuple):
    symmetric: bool
    deficit: float


def overlap(a: SymmetricState, b: SymmetricState) -> complex:
    """<a|b> in the Dicke basis."""
    if a.n != b.n:
        raise DomainError("overlap requires equal qubit counts")
    return complex(np.vdot(a.d, b.d))


def fidelity(a: SymmetricState, b: SymmetricState) -> float:
    """|<a|b>|, the absolute overlap."""
    return abs(overlap(a, b))


def _dicke_label(n, k) -> tuple[int, int]:
    """The Dicke label (n, k) as integers, n >= 1 and 0 <= k <= n; ResourceError for an n beyond the float range."""
    n = _index(n, "a Dicke label needs an integer n of at least 1", 1)
    if n > sys.float_info.max:
        raise ResourceError("the n of a Dicke label exceeds the float range")
    return n, _index(k, f"a Dicke label needs an integer k in 0..{n}", 0, n)


def dicke_state(n: int, k: int) -> SymmetricState:
    """The Dicke state with k excitations among n qubits."""
    n, k = _dicke_label(n, k)
    _check_bytes(48 * (n + 1), f"a {n}-qubit Dicke state needs")  # tracemalloc: the peak per coefficient
    d = np.zeros(n + 1, dtype=np.complex128)
    d[k] = 1.0
    return SymmetricState(n, d)


def coherent_state(n: int, center: QubitState) -> SymmetricState:
    """Spin-coherent state: the symmetric product of n copies of ``center``."""
    n = _index(n, "a coherent state needs an integer count of at least one qubit", 1)
    a, b = center.amplitudes
    d = _sqrt_binom(n) * np.array([a ** (n - k) * b**k for k in range(n + 1)])
    return SymmetricState(n, d)


def ghz_state(n: int) -> SymmetricState:
    """(|0...0> + |1...1>) / sqrt(2) on n >= 2 qubits."""
    n = _index(n, "GHZ needs an integer count of at least 2 qubits", 2)
    _check_bytes(48 * (n + 1), f"a {n}-qubit GHZ state needs")  # as dicke_state
    d = np.zeros(n + 1, dtype=np.complex128)
    d[0] = d[n] = 1.0
    return SymmetricState(n, d)


def bell_state(name: str) -> SymmetricState:
    """The symmetric Bell states psi+, phi+ and phi-; the singlet psi- is rejected."""
    name = name.lower()
    if name == "psi+":
        return dicke_state(2, 1)
    if name == "phi+":
        return SymmetricState(2, [1.0, 0.0, 1.0])
    if name == "phi-":
        return SymmetricState(2, [1.0, 0.0, -1.0])
    if name == "psi-":
        raise DomainError("the singlet |psi-> is antisymmetric and has no symmetric representation")
    raise DomainError(f"unknown Bell state {name!r}; use psi+, phi+ or phi-")


def _pair_product_coeffs(pairs: Sequence[tuple[complex, complex]]) -> np.ndarray:
    """Coefficients e_k of prod_j (a_j + b_j t) = sum_k e_k t^k.

    This homogeneous form of the elementary symmetric polynomials stays
    finite for stars at either pole.  It keeps the per-factor operation
    order, c = a * [c, 0] + b * [0, c], so its bits are those of a loop that
    concatenates: the coefficients so far, buf[1:j+2], sit between a zero slot
    and the still-zero rest of one buffer, so both padded copies are slices of it.
    """
    buf = np.zeros(len(pairs) + 2, dtype=np.complex128)
    buf[1] = 1.0
    for j, (a, b) in enumerate(pairs):
        c = a * buf[1 : j + 3]
        c += b * buf[: j + 2]
        buf[1 : j + 3] = c
    return buf[1:]


def _state_from_pairs(pairs: Sequence[tuple[complex, complex]]) -> SymmetricState:
    """The symmetrized product of the qubits (a_j, b_j); n >= 1030 is refused before the product."""
    sqrt_binom = _sqrt_binom(len(pairs))  # before the O(n**2) product
    d = _canonical((_pair_product_coeffs(pairs) / sqrt_binom)[None])[0]
    d.flags.writeable = False
    return SymmetricState._from_canonical(d)


def symmetrize(parts: Sequence[QubitState]) -> SymmetricState:
    """Normalized symmetrization of a product of single-qubit states.

    The Dicke coefficients are d_k proportional to e_k / sqrt(C(n, k))
    where the e_k are the homogeneous elementary symmetric polynomials of
    the qubit amplitude pairs, which is the coefficient pattern the
    permutation sum produces.
    """
    if len(parts) == 0:
        raise DomainError("symmetrize needs at least one qubit state")
    return _state_from_pairs([q.amplitudes for q in parts])


def symmetrization_constant(parts: Sequence[QubitState]) -> float:
    """Squared norm K of the raw permutation sum over the qubit states.

    Every weight-k amplitude of the sum is k!(n-k)! e_k, so
    K = n! * sum_k k!(n-k)! |e_k|**2 = (n!)**2 * sum_k |e_k|**2 / C(n, k),
    a sum of positive terms.  Raises ResourceError when K exceeds the
    float range (K >= n!, and K = (n!)**2 for identical states).
    """
    n = len(parts)
    if n == 0:
        raise DomainError("need at least one qubit state")
    too_large = f"symmetrization constant of {n} states exceeds the float range"
    try:
        f = float(math.factorial(n))
    except OverflowError:
        raise ResourceError(too_large) from None
    raw = _pair_product_coeffs([q.amplitudes for q in parts]) / _sqrt_binom(n)
    k = f * (f * float(np.vdot(raw, raw).real))
    if not math.isfinite(k):
        raise ResourceError(too_large)
    return k


def rec_family_state(theta: float, phi: float) -> SymmetricState:
    """Four-qubit family with barycenter pinned at the ball center.

    The stars are an inscribed rectangle: a pair at polar angle theta with
    azimuths phi and phi+pi, and a pair at pi-theta with azimuths 0 and pi.
    theta in [0, pi/2], phi in [0, pi].
    """
    theta = min(max(_real(theta, "theta must lie in [0, pi/2]", -1e-12, math.pi / 2 + 1e-12), 0.0), math.pi / 2)
    phi = min(max(_real(phi, "phi must lie in [0, pi]", -1e-12, math.pi + 1e-12), 0.0), math.pi)
    return symmetrize(
        [
            QubitState(theta, phi),
            QubitState(theta, phi + math.pi),
            QubitState(math.pi - theta, 0.0),
            QubitState(math.pi - theta, math.pi),
        ]
    )


def tetrahedron_state() -> SymmetricState:
    """The four-qubit state whose stars are a regular tetrahedron.

    The member of the rectangle family with cos(theta) = 1/sqrt(3) and
    phi = pi/2, so its four stars are pairwise equidistant.
    """
    return rec_family_state(math.acos(1.0 / math.sqrt(3.0)), math.pi / 2.0)


def _weights(n: int) -> np.ndarray:
    """The Hamming weight of each index 0 .. 2**n - 1, one byte each (n < 256); 2 * 2**n bytes at the peak."""
    w = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        w = np.concatenate([w, w + 1])
    return w


def _dicke_isometry(n: int) -> np.ndarray:
    """The 2**n x (n+1) isometry whose column k is the Dicke state |n, k>.

    Row i holds 1/sqrt(C(n, k)) in the column k of its Hamming weight.
    """
    weight = _weights(n)
    iso = np.zeros((2**n, n + 1))
    iso[np.arange(2**n), weight] = 1.0 / _sqrt_binom(n)[weight]
    return iso


def embed_full(state: SymmetricState) -> FullState:
    """Spread each Dicke coefficient uniformly over its weight class: amplitude i is d[w] / sqrt(C(n, w)), w its weight.

    Counted as 34 * 2**n bytes: the amplitudes, which are normalized in
    place, and the magnitudes their normalization takes (tracemalloc: 33.1
    at n = 11, 32.0 at n = 18).
    Refused with ResourceError above MAX_MATRIX_BYTES before anything is
    allocated.
    """
    n = state.n
    _check_bytes(34 * 2**n, f"embedding a {n}-qubit state needs")
    return FullState._from_owned(n, (state.d * (1.0 / _sqrt_binom(n)))[_weights(n)])


def project_sym(full: FullState) -> SymmetricState:
    """Project onto the symmetric subspace; reject states whose overlap deficit exceeds 1e-8.

    Dicke coefficient k is the sum of the weight-k amplitudes over
    sqrt(C(n, k)), summed per weight by ``bincount`` on the real and the
    imaginary parts.  Counted as 24 * 2**n bytes besides the state: the
    weights, bincount's index copy of them and one part (tracemalloc: 21.2
    at n = 8, 17.0 at n = 18; below n = 8 a few KiB of fixed overhead
    lead).  Refused with ResourceError above MAX_MATRIX_BYTES before
    anything is allocated.
    """
    n = full.n
    _check_bytes(24 * 2**n, f"projecting a {n}-qubit state needs")
    w = _weights(n)
    d = (np.bincount(w, full.amps.real, n + 1) + 1j * np.bincount(w, full.amps.imag, n + 1)) / _sqrt_binom(n)
    deficit = max(0.0, 1.0 - float(np.linalg.norm(d)) ** 2)
    if deficit > 1e-8:
        raise SymmetryViolationError(
            f"project_sym: state lies outside the symmetric subspace (overlap deficit {deficit:.3e} > 1.0e-08)",
            deficit,
        )
    return SymmetricState(n, d)


def _pair_axes(n: int, i: int, j: int) -> tuple[int, int, int, int, int]:
    """Shape that splits a 2**n index so the bits of qubits i < j are axes 1 and 3."""
    return (1 << i, 2, 1 << (j - i - 1), 2, 1 << (n - 1 - j))


# The blocks that a transposition of qubits i < j swaps, indexed on the
# _pair_axes split: the bits (a, b) of qubits (i, j) go to (b, a) on each axis.
_VECTOR_PAIRS = [(np.s_[:, 0, :, 1], np.s_[:, 1, :, 0])]
_MATRIX_PAIRS = [
    (np.s_[:, a, :, b, :, :, c, :, d], np.s_[:, b, :, a, :, :, d, :, c])
    for a, b, c, d in ((0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 1, 0, 1))
]


def _swapped_views(arr: np.ndarray, n: int, i: int, j: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The pairs of strided views of ``arr`` that the transposition of qubits i < j swaps.

    A vector has one pair, bits (0, 1) <-> (1, 0) of qubits (i, j).  A matrix
    has six, in (row bits | column bits): (0, 1 | c, d) <-> (1, 0 | d, c) for
    the four column bit pairs, and (a, a | 0, 1) <-> (a, a | 1, 0) for a = 0, 1.
    Entries with equal bits on every axis stay where they are.
    """
    t = arr.reshape(_pair_axes(n, i, j) * arr.ndim)
    return [(t[x], t[y]) for x, y in (_VECTOR_PAIRS if arr.ndim == 1 else _MATRIX_PAIRS)]


def _exactly_symmetric(arr: np.ndarray, n: int) -> bool:
    """Whether every qubit permutation leaves the finite array ``arr`` exactly equal.

    ``arr`` is a 2**n vector, or a 2**n x 2**n matrix permuted on rows and
    columns together.  The transposition (0 1) and the cycle of all n qubits
    generate every permutation, and == is transitive on finite floats, so
    the two generators decide it: each transposition then moves every entry
    onto an equal one, and its deficit is exactly 0.0.
    """
    if n < 2:
        return True
    if not all(np.array_equal(x, y) for x, y in _swapped_views(arr, n, 0, 1)):
        return False
    # the cycle moves qubit 0's bit to the lowest place; for n = 2 it is (0 1)
    half = 1 << (n - 1)
    cycled = arr.reshape((half, 2) * arr.ndim).transpose([a ^ 1 for a in range(2 * arr.ndim)])
    return n == 2 or np.array_equal(arr.reshape((2, half) * arr.ndim), cycled)


def _transposition_deficit(arr: np.ndarray, n: int) -> float:
    """Largest change that a qubit transposition makes to an entry of the finite ``arr``.

    ``arr`` is a 2**n vector, or a 2**n x 2**n matrix permuted on rows and
    columns together.  An array that the generators (0 1) and the n-cycle
    leave exactly equal, the common case, gives 0.0 after two comparisons.
    Otherwise every transposition is measured: it moves only the entries
    whose two bits differ, so each one compares the strided sub-blocks it
    swaps.  Both paths give the same deficit bit for bit.
    """
    if _exactly_symmetric(arr, n):
        return 0.0
    deficit = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            for x, y in _swapped_views(arr, n, i, j):
                deficit = max(deficit, float(np.abs(x - y).max()))
    return deficit


def is_permutation_symmetric(full: FullState) -> SymmetryReport:
    """Check invariance of the amplitudes under all qubit transpositions, to 1e-10.

    The deficit is ``_transposition_deficit`` of the amplitudes: 0.0 for
    exactly symmetric amplitudes, recognised from two generators, else the
    largest change over every transposition.
    """
    deficit = _transposition_deficit(full.amps, full.n)
    return SymmetryReport(deficit <= 1e-10, deficit)


def jm_to_nk(j: float, m: float) -> tuple[int, int]:
    """Map an angular-momentum label |j, m> to the Dicke label (n, k)."""
    j, m = _real(j, "j must be a finite real number"), _real(m, "m must be a finite real number")
    n = 2.0 * j
    if not (math.isfinite(n) and math.isfinite(j - m)):  # so that k below is finite too
        raise DomainError(f"2j and j - m must be finite, got j={j}, m={m}")
    if abs(n - round(n)) > 1e-9 or n < 1:
        raise DomainError(f"j must be a positive half-integer, got {j}")
    n = round(n)
    k = n / 2.0 - m
    if abs(k - round(k)) > 1e-9 or not 0 <= round(k) <= n:
        raise DomainError(f"m={m} invalid for j={j}")
    return n, round(k)


def nk_to_jm(n: int, k: int) -> tuple[float, float]:
    """Map the Dicke label (n, k) to the angular-momentum label (j, m)."""
    n, k = _dicke_label(n, k)
    return n / 2.0, n / 2.0 - k


def state_to_json(state: SymmetricState) -> str:
    """Serialize as {"n": ..., "dicke": [[re, im], ...]}, each number written by ``_floats``."""
    return f'{{"n": {state.n}, "dicke": {_complex_json(state.d)}}}'


def state_from_json(text: str) -> SymmetricState:
    import json

    try:
        doc = json.loads(text)
        n = doc["n"]  # read as an integer by SymmetricState
        d = np.array([complex(re, im) for re, im in doc["dicke"]])
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DomainError(f"malformed state JSON: {exc}") from exc
    state = SymmetricState(n, d)
    # A row that state_to_json printed is canonical already: keep it, since
    # dividing it again by its recomputed norm (1 +- 1 ulp) moves its last bits.
    mags = np.abs(state.d)
    pivot = d[np.argmax(mags >= _PHASE_TOL * mags.max())]
    if pivot.imag == 0.0 and np.abs(d - state.d).max() <= 4.0 * np.finfo(float).eps:
        d.flags.writeable = False
        return SymmetricState._from_canonical(d)
    return state
