"""One-parameter unitary families and the induced motion of the stars.

A permutation-symmetric unitary on n qubits is block diagonal in the
Dicke-adapted basis: an (n+1) x (n+1) block V on the symmetric subspace
and a complementary block W.  ``build_transition`` constructs that basis,
``reduce_unitary`` extracts the blocks, and ``evolve`` propagates a
symmetric state inside the small block in two passes: it refines the grid
where a star would jump too far, inserting each midpoint between its ends,
then numbers the stars in one walk along the frames, already in grid order.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, NumericError, SymmetryViolationError, _check_bytes, _check_phases, _eigh
from .hamiltonians import HermitianOperator, _check_hermitian
from .measures import _e_b
from .stars import _angles, _geodesic, _star_vectors_batch
from .states import SymmetricState, _canonical, _complex_json, _csv, _dicke_isometry, _floats, _transposition_deficit

__all__ = [
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


def operator_symmetry_deficit(matrix: np.ndarray, n: int) -> float:
    """Largest entrywise violation of [H, P] = 0 over all transpositions P.

    A matrix that the generators (0 1) and the n-cycle leave exactly equal,
    as ``build_matrix`` gives for every ``sym(...)`` expression, commutes
    with every permutation and returns 0.0 after two comparisons.
    Otherwise each transposition is checked on a tensor view of the matrix
    with the row and column bits of its two qubits as axes, by comparing
    the six pairs of sub-blocks it swaps as strided views.  Both paths give
    the same deficit bit for bit.  A matrix that is not finite or not
    2^n x 2^n for this n raises DomainError.
    """
    m, qubits = _as_matrix(matrix, _check_finite)
    if qubits != n:
        raise DomainError(f"a {m.shape[0]} x {m.shape[0]} matrix acts on {qubits} qubits, not {n}")
    return _transposition_deficit(np.ascontiguousarray(m), n)


def _check_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")


def _as_matrix(h: HermitianOperator | np.ndarray, check) -> tuple[np.ndarray, int]:
    """The matrix of h and its qubit count.

    A HermitianOperator passed its check when it was made; an ndarray, not
    copied, must be 2^n x 2^n and pass ``check`` (a DomainError if not).
    """
    if isinstance(h, HermitianOperator):
        return h.matrix, h.n
    m = np.asarray(h, dtype=np.complex128)
    dim = m.shape[0] if m.ndim == 2 else 0
    if m.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise DomainError(f"matrix shape {m.shape} is not 2^n x 2^n")
    check(m)
    return m, dim.bit_length() - 1


def _check_unitary(u: np.ndarray, what: str) -> None:
    """NumericError if the square matrix u is further than 1e-10 from unitary; ``what`` names it."""
    deficit = float(np.abs(u @ u.conj().T - np.eye(u.shape[0])).max(initial=0.0))
    if not deficit <= 1e-10:  # a NaN deficit fails too
        raise NumericError(f"{what} lost unitarity (deficit {deficit:.3e} > 1e-10)")


def build_transition(n: int) -> np.ndarray:
    """Dicke-adapted orthonormal basis of the full n-qubit space, as a 2**n x 2**n unitary.

    Its first n+1 columns are the Dicke vectors.  The remaining columns are
    the canonical contrast basis inside each Hamming-weight sector: for the
    sector's basis states x_1 < x_2 < ... the m-th contrast is
    (x_1 + ... + x_m - m*x_{m+1}) / sqrt(m(m+1)), sectors in increasing
    weight order.  Refused with ResourceError above MAX_MATRIX_BYTES
    (16 * 4**n bytes) before anything is allocated.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"a transition basis needs at least one qubit, got {n}")
    _check_bytes(16 * 4**n, f"a {n}-qubit transition basis needs")
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
    return t


def exponentiate(h: HermitianOperator | np.ndarray, beta: float) -> np.ndarray:
    """exp(-i * beta * H) through the Hermitian eigendecomposition.

    Its peak besides H is counted as 6 * 16 * 4**n bytes (tracemalloc: 5.9
    at n = 4, 4.0 from n = 7; below n = 4 a few KiB of fixed overhead lead)
    and refused with ResourceError above MAX_MATRIX_BYTES before the
    eigendecomposition.
    """
    m, n = _as_matrix(h, _check_hermitian)
    _check_bytes(6 * 16 * 4**n, f"exponentiating a {n}-qubit matrix needs")
    lam, q = _eigh(m)
    _check_phases(beta, lam)
    u = (q * np.exp(-1j * beta * lam)) @ q.conj().T
    _check_unitary(u, "exponentiate")
    return u


def reduce_unitary(u: np.ndarray, tol: float = 1e-10) -> BlockDecomposition:
    """Block-diagonalize a permutation-symmetric unitary in the Dicke basis.

    Raises SymmetryViolationError with the measured off-block norm when the
    leakage between the symmetric subspace and its complement exceeds tol.
    Its peak besides u is counted as 6 * 16 * 4**n bytes (tracemalloc: 5.6
    at n = 6, 4.9 at n = 10; below n = 4 a few KiB of fixed overhead lead)
    and refused with ResourceError above MAX_MATRIX_BYTES before the
    transition basis is built.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"tol must be finite and non-negative, got {tol}")
    u, n = _as_matrix(u, _check_finite)
    _check_bytes(6 * 16 * 4**n, f"reducing a {n}-qubit unitary needs")
    t = build_transition(n)
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
    _check_unitary(v, "reduce block V")
    _check_unitary(w, "reduce block W")
    return BlockDecomposition(n, v, w, off)


def _assign(cost: list[list[float]]) -> list[int]:
    """The column of each row in a minimum-cost assignment of a square matrix of finite costs.

    Shortest augmenting paths (Crouse, IEEE Trans. Aerosp. Electron. Syst.
    52(4), 1679, 2016), ported from scipy's ``linear_sum_assignment`` with
    its tie rule, so that ties resolve as there: the unvisited columns start
    in reverse order and leave by swap-remove, among the cheapest columns the
    last free one wins, else the first, and reduced costs, duals and the
    augmentation round as there.  Plain loops over lists: at the n <= 13
    that ``evolve``'s dense matrix allows, they beat numpy on scalars or rows.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    path, col4row, row4col = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        dist = [math.inf] * n  # shortest path cost to each column
        remaining = list(range(n - 1, -1, -1))
        rows, cols = [], []  # visited, each at most once
        i, sink, min_val = cur, -1, 0.0
        while sink < 0:
            rows.append(i)
            row, ui = cost[i], u[i]
            lowest, index = math.inf, -1
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < dist[j]:
                    path[j], dist[j] = i, r
                if dist[j] < lowest or (dist[j] == lowest and row4col[j] < 0):
                    lowest, index = dist[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in cols:
            v[j] -= min_val - dist[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _match(prev: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, float]:
    """Assign new stars to previous identities, minimizing total geodesic cost.

    ``_assign``'s shortest augmenting paths with scipy's tie rule; returns
    the column order, so that star i of prev continues as ``new[order[i]]``,
    and the largest single move.  A non-finite cost raises NumericError.
    """
    cost = _geodesic(prev, new)
    if not np.isfinite(cost).all():
        raise NumericError("star matching met a non-finite geodesic cost")
    order = np.array(_assign(cost.tolist()), dtype=np.intp)
    return order, float(cost[np.arange(len(order)), order].max())


def _chunk_rows(n: int) -> int:
    """Rows per chunk of a batched (rows, n, n) computation: 2**18 entries, 2 MiB as float64, 4 MiB as complex128."""
    return max(1, 2**18 // n**2)


def _frame_bytes(n: int) -> int:
    """Bytes per frame at the peak of ``evolve``: the arrays (beta, Dicke row, stars) thrice, as the old and new
    arrays of a midpoint insertion and the numbered copy of the stars, and a SymmetricState with its attribute
    dict, row view and slot in a tuple (264 bytes on CPython 3.11)."""
    return 3 * (8 + 16 * (n + 1) + 24 * n) + 264


def _check_frames(count: int, n: int) -> None:
    """ResourceError, before allocating, if count frames exceed MAX_MATRIX_BYTES."""
    _check_bytes(count * _frame_bytes(n), f"{count} frames on {n} qubits need")


def _nearest(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-star assignment of every step left[k] -> right[k], both (m, n, 3).

    Returns sigma (m, n), the column of each row's smallest geodesic cost;
    unique (m,), true where every row's smallest cost is strictly below its
    second smallest and sigma[k] is a permutation; and move (m,), the
    largest of the smallest costs.  Where unique holds, no other assignment
    reaches the sum of the row minima, so sigma[k] is the only optimal one
    and ``_match(left[k][p], right[k])`` returns ``sigma[k][p]`` for every
    numbering p.  Any assignment moves some star at least ``move[k]``.
    The costs are ``_geodesic``'s, as in ``_match``, in ``_chunk_rows`` chunks.
    """
    m, n = left.shape[:2]
    sigma = np.empty((m, n), dtype=np.intp)
    unique = np.ones(m, dtype=bool)
    move = np.empty(m)
    rows = _chunk_rows(n)
    for i in range(0, m, rows):
        part = slice(i, i + rows)
        cost = _geodesic(left[part], right[part])
        sigma[part] = cost.argmin(axis=2)
        if n > 1:
            cost.partition(1, axis=2)
            unique[part] = (cost[:, :, 0] < cost[:, :, 1]).all(axis=1)
        move[part] = cost[:, :, 0].max(axis=1)
    unique &= (np.sort(sigma, axis=1) == np.arange(n)).all(axis=1)
    return sigma, unique, move


def _numbered(stars: np.ndarray, max_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Stars of consecutive frames (m, n, 3) numbered from frame 0, and where a star moves over max_step.

    A tied step is matched by ``_match`` against the numbered stars before it.
    """
    sigma, unique, move = _nearest(stars[:-1], stars[1:])
    perm = np.empty(stars.shape[:2], dtype=np.intp)
    perm[0] = np.arange(stars.shape[1])
    for t, tied in enumerate((~unique).tolist(), start=1):
        if tied:
            perm[t], move[t - 1] = _match(stars[t - 1][perm[t - 1]], stars[t])
        else:
            perm[t] = sigma[t - 1][perm[t - 1]]
    return stars[np.arange(len(stars))[:, None], perm], np.concatenate([[False], move > max_step])


def evolve(
    h: HermitianOperator | np.ndarray,
    psi0: SymmetricState,
    betas: Sequence[float],
    max_step: float = MAX_STEP_RAD,
) -> Trajectory:
    """Propagate a symmetric state along exp(-i*beta*H) and follow its stars.

    H must commute with every qubit transposition; the evolution then runs
    entirely in the (n+1)-dimensional symmetric block.  Star identities are
    matched between consecutive frames by optimal assignment; whenever a
    matched star moves more than ``max_step`` radians the step is bisected,
    up to MAX_REFINEMENT_DEPTH times, after which it is kept and flagged as a
    discontinuity.  Frames above MAX_MATRIX_BYTES raise ResourceError.

    Two passes give the step-by-step walk's result.  The first refines a
    level at a time: one batch of frames (block products, phase fixing,
    star solve) and one cost tensor per level over the steps still open,
    whose steps that move too far are bisected; each midpoint is inserted
    between its ends, so the frames stay in grid order.  The second numbers
    the stars of all frames in one walk.  A unique nearest-star assignment
    is the only optimal one whatever the numbering, so only tied steps,
    such as the first from coinciding stars, go to ``_match``: unnumbered
    in the first pass for their move, numbered in the second.
    """
    if not (math.isfinite(max_step) and max_step > 0.0):
        raise DomainError(f"max_step must be finite and positive, got {max_step}")
    m, n = _as_matrix(h, _check_hermitian)
    if n != psi0.n:
        raise DomainError(f"Hamiltonian acts on {n} qubits, state has {psi0.n}")
    deficit = _transposition_deficit(m, n)  # m is finite: checked where it was made
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
    top = float(np.abs(grid).max())  # no midpoint lies further out
    if not math.isfinite(2.0 * top):  # a midpoint adds two neighbours
        raise DomainError(f"beta grid must be finite, within half the float range, got |beta| up to {top}")
    _check_frames(grid.size, n)

    # project H onto the Dicke block and diagonalize once
    s = _dicke_isometry(n)
    h_block = s.T @ m @ s
    lam, q = _eigh(h_block)
    _check_phases(top, lam)
    coeff0 = q.conj().T @ psi0.d

    def frames(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The canonical Dicke rows at the betas b and their stars."""
        # a stack of matrix-vector products, not (...) @ q.T: it rounds each frame as q @ v does
        d = _canonical((q @ (np.exp(-1j * b[:, None] * lam) * coeff0)[:, :, None])[:, :, 0])
        rows = _chunk_rows(n)
        return d, np.concatenate([_star_vectors_batch(d[i : i + rows]) for i in range(0, len(d), rows)])

    # pass 1: bisect, a level at a time, every step whose stars move too far; the midpoints
    # go in place, so b, d and stars stay in grid order, and steps holds each open step's first frame
    b = grid
    d, stars = frames(b)
    steps = np.arange(b.size - 1)
    for _ in range(MAX_REFINEMENT_DEPTH):
        _, unique, move = _nearest(stars[steps], stars[steps + 1])
        # a tied step's nearest move bounds its assignment's from below: only one within max_step needs the solver
        for k in np.flatnonzero(~unique & (move <= max_step)):
            move[k] = _match(stars[steps[k]], stars[steps[k] + 1])[1]
        split = steps[move > max_step]
        if not split.size:
            break
        _check_frames(b.size + split.size, n)
        mid = 0.5 * (b[split] + b[split + 1])
        mid_d, mid_stars = frames(mid)
        b, d, stars = (np.insert(x, split + 1, y, axis=0) for x, y in ((b, mid), (d, mid_d), (stars, mid_stars)))
        steps = ((split + np.arange(split.size))[:, None] + (0, 1)).ravel()  # both halves of each split step

    # pass 2: number the stars along all frames in one walk
    stars, discontinuity = _numbered(stars, max_step)
    d.flags.writeable = False
    return Trajectory(
        betas=b,
        states=tuple(SymmetricState._from_canonical(row) for row in d),
        stars=stars,
        e_b=_e_b(stars),
        discontinuity=discontinuity,
    )


def velocity_profile(
    traj: Trajectory, divergence_threshold: float = 10.0
) -> VelocityProfile:
    """Central-difference dtheta/dbeta of every matched star.

    A sample is flagged when the estimate exceeds ``divergence_threshold``
    in magnitude, when theta jumps more than 1 rad across an adjacent step,
    or when the trajectory itself reported a matching discontinuity there;
    inside those windows the finite difference is not a trustworthy
    derivative (star collisions and pole passages).  A grid whose
    adjacent steps multiply out of the normal float range, which the
    differences divide by, raises DomainError.
    """
    if not (math.isfinite(divergence_threshold) and divergence_threshold >= 0.0):
        raise DomainError(
            f"divergence_threshold must be finite and non-negative, got {divergence_threshold}"
        )
    if traj.betas.size < 3:
        raise DomainError("velocity needs at least 3 grid points")
    h = np.abs(np.diff(traj.betas))  # a monotone grid's steps share one sign
    with np.errstate(over="ignore"):
        # np.gradient divides by h1 h2, h1 (h1 + h2) and h2 (h1 + h2); the first is the least
        low, high = h[:-1] * h[1:], np.maximum(h[:-1], h[1:]) * (h[:-1] + h[1:])
    if not (low.min() >= sys.float_info.min and high.max() <= sys.float_info.max):
        raise DomainError(f"velocity needs beta steps whose products are normal floats, got {h.min():.3g} to {h.max():.3g}")
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
    """CSV of every star at every frame: beta,star_index,theta,phi,x,y,z,e_b, numbers as ``_floats`` writes them."""
    m, n = traj.stars.shape[:2]
    thetas, phis = _angles(traj.stars)
    return _csv(
        "beta,star_index,theta,phi,x,y,z,e_b",
        [np.repeat(traj.betas, n), [str(i) for i in range(n)] * m, thetas.ravel(), phis.ravel(),
         *traj.stars.reshape(-1, 3).T, np.repeat(traj.e_b, n)],
    )


def velocity_to_csv(profile: VelocityProfile) -> str:
    """CSV of every star's dtheta/dbeta at every frame, flag 1 where it is untrustworthy."""
    m, n = profile.dtheta.shape
    return _csv(
        "beta,star_index,dtheta_dbeta,flag",
        [np.repeat(profile.betas, n), [str(i) for i in range(n)] * m, profile.dtheta.ravel(),
         ["01"[f] for f in profile.flags.ravel().tolist()]],
    )


def block_to_json(block: BlockDecomposition) -> str:
    """{"n", "offblock_norm", "V", "W"} with V and W as complex matrices written by ``_complex_json``."""
    return (
        f'{{"n": {block.n}, "offblock_norm": {_floats(block.offblock_norm)[0]}, '
        f'"V": {_complex_json(block.V)}, "W": {_complex_json(block.W)}}}'
    )
