"""One-parameter unitary families and the induced motion of the stars.

A permutation-symmetric unitary on n qubits is block diagonal in the
Dicke-adapted basis: an (n+1) x (n+1) block V on the symmetric subspace
and a complementary block W.  ``build_transition`` constructs that basis,
``reduce_unitary`` extracts the blocks, and ``evolve`` propagates a
symmetric state entirely inside the small block, tracking star identities
from step to step by optimal assignment and refining the parameter grid
wherever a star would jump too far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericError, SymmetryViolationError
from .hamiltonians import HermitianOperator
from .measures import _e_b
from .stars import _angles, _star_vectors
from .states import SymmetricState, _dicke_isometry, _format_float

__all__ = [
    "TransitionBasis",
    "BlockDecomposition",
    "Trajectory",
    "VelocityProfile",
    "operator_symmetry_deficit",
    "build_transition",
    "exponentiate",
    "reduce_unitary",
    "evolve",
    "velocity_profile",
    "e_b_profile",
    "trajectory_to_csv",
    "velocity_to_csv",
    "block_to_json",
]

MAX_STEP_RAD = 0.2
MAX_REFINEMENT_DEPTH = 12


@dataclass(frozen=True)
class TransitionBasis:
    """Unitary whose first n+1 columns are the Dicke vectors.

    The remaining columns are the canonical contrast basis inside each
    Hamming-weight sector: for the sector's basis states x_1 < x_2 < ...
    the m-th contrast is (x_1 + ... + x_m - m*x_{m+1}) / sqrt(m(m+1)),
    sectors in increasing weight order.
    """

    n: int
    matrix: np.ndarray


@dataclass(frozen=True)
class BlockDecomposition:
    """Symmetric-subspace block V, complement block W, and the leakage norm."""

    n: int
    V: np.ndarray
    W: np.ndarray
    offblock_norm: float


@dataclass(frozen=True)
class Trajectory:
    """Star paths over a beta grid with persistent star identities.

    ``stars[t, i]`` is the unit vector of star i at ``betas[t]``; the index
    i keeps its identity across steps.  ``discontinuity[t]`` marks steps
    where grid refinement bottomed out at a star collision and identity
    could not be followed.
    """

    betas: np.ndarray
    states: tuple[SymmetricState, ...]
    stars: np.ndarray
    e_b: np.ndarray
    discontinuity: np.ndarray

    @property
    def thetas(self) -> np.ndarray:
        return _angles(self.stars)[0]

    @property
    def phis(self) -> np.ndarray:
        return _angles(self.stars)[1]


@dataclass(frozen=True)
class VelocityProfile:
    """Per-star dtheta/dbeta with flags over windows where it is untrustworthy."""

    betas: np.ndarray
    dtheta: np.ndarray
    flags: np.ndarray


# one of each pair of sub-blocks (row bit i, row bit j, column bit i, column
# bit j) that the transposition of qubits i and j swaps; the pair of
# (a, b, c, d) is (b, a, d, c), and the four blocks with a == b, c == d stay
_MOVED_BLOCKS = [k for k in np.ndindex(2, 2, 2, 2) if k < (k[1], k[0], k[3], k[2])]


def operator_symmetry_deficit(matrix: np.ndarray, n: int) -> float:
    """Largest entrywise violation of [H, P] = 0 over all transpositions P.

    Each transposition is checked on a tensor view of the matrix with the
    row and column bits of its two qubits as axes, by comparing the six
    pairs of sub-blocks it swaps as strided views.
    """
    m = np.ascontiguousarray(matrix)
    if not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")
    deficit = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            side = (1 << i, 2, 1 << (j - i - 1), 2, 1 << (n - 1 - j))
            t = m.reshape(side + side)
            worst = [
                np.abs(t[:, a, :, b, :, :, c, :, d] - t[:, b, :, a, :, :, d, :, c]).max()
                for a, b, c, d in _MOVED_BLOCKS
            ]
            deficit = max(deficit, float(np.max(worst)))
    return deficit


def _as_matrix(h: HermitianOperator | np.ndarray) -> tuple[np.ndarray, int]:
    if isinstance(h, HermitianOperator):
        return np.asarray(h.matrix), h.n
    m = np.asarray(h, dtype=np.complex128)
    dim = m.shape[0] if m.ndim == 2 else 0
    if m.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise DomainError(f"matrix shape {m.shape} is not 2^n x 2^n")
    if not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")
    return m, dim.bit_length() - 1


def build_transition(n: int) -> TransitionBasis:
    """Dicke-adapted orthonormal basis of the full n-qubit space."""
    n = int(n)
    if not 1 <= n <= 14:
        raise DomainError(f"transition basis supports 1..14 qubits, got {n}")
    iso = _dicke_isometry(n)
    t = np.zeros((2**n, 2**n), dtype=np.complex128)
    t[:, : n + 1] = iso
    col = n + 1
    for idx in (np.flatnonzero(c) for c in iso.T):
        for m in range(1, len(idx)):
            t[idx[:m], col] = 1.0
            t[idx[m], col] = -float(m)
            t[:, col] /= math.sqrt(m * (m + 1))
            col += 1
    return TransitionBasis(n, t)


def exponentiate(h: HermitianOperator | np.ndarray, beta: float) -> np.ndarray:
    """exp(-i * beta * H) through the Hermitian eigendecomposition."""
    if not math.isfinite(beta):
        raise DomainError(f"beta must be finite, got {beta}")
    m, _ = _as_matrix(h)
    deficit = float(np.abs(m - m.conj().T).max())
    if deficit > 1e-12:
        raise DomainError(f"exponentiate needs a Hermitian matrix (deficit {deficit:.3e} > 1e-12)")
    try:
        lam, q = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    u = (q * np.exp(-1j * beta * lam)) @ q.conj().T
    unit_deficit = float(np.abs(u @ u.conj().T - np.eye(m.shape[0])).max())
    if unit_deficit > 1e-10:
        raise NumericError(f"exponentiate lost unitarity (deficit {unit_deficit:.3e} > 1e-10)")
    return u


def reduce_unitary(
    u: np.ndarray, tol: float = 1e-10, basis: TransitionBasis | None = None
) -> BlockDecomposition:
    """Block-diagonalize a permutation-symmetric unitary in the Dicke basis.

    Raises SymmetryViolationError with the measured off-block norm when the
    leakage between the symmetric subspace and its complement exceeds tol.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and non-negative, got {tol}")
    u, n = _as_matrix(u)
    t = basis.matrix if basis is not None else build_transition(n).matrix
    up = t.conj().T @ u @ t
    s = n + 1
    off = math.sqrt(
        float(np.linalg.norm(up[:s, s:]) ** 2 + np.linalg.norm(up[s:, :s]) ** 2)
    )
    if off > tol:
        raise SymmetryViolationError(
            f"reduce: operator leaks out of the symmetric subspace (off-block norm {off:.3e} > {tol:.1e})",
            off,
        )
    v, w = up[:s, :s].copy(), up[s:, s:].copy()
    for name, block in (("V", v), ("W", w)):
        if block.size:
            deficit = float(np.abs(block @ block.conj().T - np.eye(block.shape[0])).max())
            if deficit > 1e-10:
                raise NumericError(f"reduce block {name} lost unitarity (deficit {deficit:.3e} > 1e-10)")
    return BlockDecomposition(n, v, w, off)


def _match(prev: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, float]:
    """Assign new stars to previous identities, minimizing total geodesic cost.

    Hungarian assignment; returns the reordered star array and the largest
    single move.
    """
    from scipy.optimize import linear_sum_assignment  # deferred: most CLI commands never match stars

    cost = np.arccos(np.clip(prev @ new.T, -1.0, 1.0))
    rows, order = linear_sum_assignment(cost)
    return new[order], float(cost[rows, order].max())


def evolve(
    h: HermitianOperator | np.ndarray,
    psi0: SymmetricState,
    betas: Sequence[float],
    max_step: float = MAX_STEP_RAD,
    max_depth: int = MAX_REFINEMENT_DEPTH,
) -> Trajectory:
    """Propagate a symmetric state along exp(-i*beta*H) and follow its stars.

    H must commute with every qubit transposition; the evolution then runs
    entirely in the (n+1)-dimensional symmetric block.  Star identities are
    matched between consecutive grid points; whenever a matched star moves
    more than ``max_step`` radians the interval is bisected, up to
    ``max_depth`` times, after which the step is kept and flagged as a
    discontinuity.
    """
    if not (math.isfinite(max_step) and max_step > 0.0):
        raise DomainError(f"max_step must be finite and positive, got {max_step}")
    m, n = _as_matrix(h)
    if n != psi0.n:
        raise DomainError(f"Hamiltonian acts on {n} qubits, state has {psi0.n}")
    deficit = operator_symmetry_deficit(m, n)
    if deficit > 1e-12:
        raise SymmetryViolationError(
            f"evolve needs a permutation-symmetric Hamiltonian (deficit {deficit:.3e} > 1e-12)",
            deficit,
        )
    grid = np.asarray(list(betas), dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise DomainError("beta grid must be a non-empty 1-d sequence")
    diffs = np.diff(grid)
    if diffs.size and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise DomainError("beta grid must be strictly monotone")

    # project H onto the Dicke block and diagonalize once
    s = _dicke_isometry(n)
    h_block = s.T @ m @ s
    try:
        lam, q = np.linalg.eigh(h_block)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    coeff0 = q.conj().T @ psi0.d

    def state_at(beta: float) -> SymmetricState:
        return SymmetricState(n, q @ (np.exp(-1j * beta * lam) * coeff0))

    out_betas = [float(grid[0])]
    out_states = [state_at(grid[0])]
    out_stars = [_star_vectors(out_states[0])]
    out_flags = [False]

    def advance(b0: float, stars0: np.ndarray, b1: float, depth: int):
        state1 = state_at(b1)
        matched, move = _match(stars0, _star_vectors(state1))
        if move <= max_step or depth >= max_depth:
            out_betas.append(b1)
            out_states.append(state1)
            out_stars.append(matched)
            out_flags.append(move > max_step)
            return
        mid = 0.5 * (b0 + b1)
        advance(b0, stars0, mid, depth + 1)
        advance(mid, out_stars[-1], b1, depth + 1)

    for b0, b1 in zip(grid[:-1], grid[1:]):
        advance(float(b0), out_stars[-1], float(b1), 0)

    stars_arr = np.array(out_stars)
    return Trajectory(
        betas=np.array(out_betas),
        states=tuple(out_states),
        stars=stars_arr,
        e_b=_e_b(stars_arr),
        discontinuity=np.array(out_flags, dtype=bool),
    )


def velocity_profile(
    traj: Trajectory, divergence_threshold: float = 10.0
) -> VelocityProfile:
    """Central-difference dtheta/dbeta of every matched star.

    A sample is flagged when the estimate exceeds ``divergence_threshold``
    in magnitude, when theta jumps more than 1 rad across an adjacent step,
    or when the trajectory itself reported a matching discontinuity there;
    inside those windows the finite difference is not a trustworthy
    derivative (star collisions and pole passages).
    """
    if not (math.isfinite(divergence_threshold) and divergence_threshold >= 0.0):
        raise DomainError(
            f"divergence_threshold must be finite and non-negative, got {divergence_threshold}"
        )
    if traj.betas.size < 3:
        raise DomainError("velocity needs at least 3 grid points")
    thetas = traj.thetas
    dtheta = np.gradient(thetas, traj.betas, axis=0)
    step_jump = np.abs(np.diff(thetas, axis=0)) > 1.0
    flags = np.abs(dtheta) > divergence_threshold
    flags[:-1] |= step_jump
    flags[1:] |= step_jump
    flags |= traj.discontinuity[:, None]
    return VelocityProfile(traj.betas, dtheta, flags)


def e_b_profile(traj: Trajectory) -> np.ndarray:
    """(beta, E_B) pairs along the trajectory, shape (len, 2)."""
    return np.column_stack([traj.betas, traj.e_b])


def trajectory_to_csv(traj: Trajectory) -> str:
    lines = ["beta,star_index,theta,phi,x,y,z,e_b"]
    thetas, phis = traj.thetas, traj.phis
    for t, beta in enumerate(traj.betas):
        for i in range(traj.stars.shape[1]):
            x, y, z = traj.stars[t, i]
            lines.append(
                ",".join(
                    [_format_float(beta), str(i)]
                    + [_format_float(v) for v in (thetas[t, i], phis[t, i], x, y, z, traj.e_b[t])]
                )
            )
    return "\n".join(lines) + "\n"


def velocity_to_csv(profile: VelocityProfile) -> str:
    lines = ["beta,star_index,dtheta_dbeta,flag"]
    for t, beta in enumerate(profile.betas):
        for i in range(profile.dtheta.shape[1]):
            lines.append(
                ",".join(
                    [
                        _format_float(beta),
                        str(i),
                        _format_float(profile.dtheta[t, i]),
                        "1" if profile.flags[t, i] else "0",
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def _complex_matrix_json(m: np.ndarray) -> str:
    rows = []
    for row in m:
        rows.append(
            "[" + ", ".join(f"[{_format_float(z.real)}, {_format_float(z.imag)}]" for z in row) + "]"
        )
    return "[" + ", ".join(rows) + "]"


def block_to_json(block: BlockDecomposition) -> str:
    return (
        f'{{"n": {block.n}, "offblock_norm": {_format_float(block.offblock_norm)}, '
        f'"V": {_complex_matrix_json(block.V)}, "W": {_complex_matrix_json(block.W)}}}'
    )
