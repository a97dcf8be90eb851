"""Entanglement measures built on the star picture.

The barycentric measure is 1 - d**2 with d the distance from the
constellation's barycenter to the center of the Bloch ball.  The geometric
measure is -log2 of the state's maximal squared overlap with a symmetric
product state, i.e. -log2 of the Husimi maximum.

One Husimi evaluator serves everything.  The amplitude at (theta, phi) is
sum_k w_k T_k(theta) with T_k = cos^(n-k)(theta/2) sin^k(theta/2), built
by running products in ``_powers``, and w_k = gbar_k e^(i k phi).
d/dtheta keeps the basis, d/dtheta T_k = (k T_(k-1) - (n-k) T_(k+1)) / 2,
so it is one cached tridiagonal matrix A, and sum_k w_k (A T)_k is the
row w @ A against T; d/dphi maps w to i k w.  Value, gradient and
Hessian all contract rows with T, A T and A A T.
``e_g(state, grid)`` sweeps the theta x phi grid as one matmul
(T(thetas) * gbar) @ e^(i k phis), then runs a damped-Newton ascent from
the best grid cells; it needs the Husimi function alone, not the stars.
The ascent keeps one state per start: a column of the rows theta, phi, Q,
the two gradient parts, the three Hessian parts and the gradient norm that
one evaluation returns, all replaced by one masked select per step.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, _check_bytes
from .stars import Constellation, Star, _star_vectors
from .states import QubitState, SymmetricState, _sqrt_binom, symmetrize

__all__ = [
    "Barycenter",
    "GeometricResult",
    "barycenter",
    "e_b",
    "e_g",
    "e_g_dicke",
    "rotate_state",
    "husimi",
    "husimi_batch",
    "husimi_gradient",
]


@dataclass(frozen=True)
class Barycenter:
    """Mean of the star unit vectors; lies inside the closed unit ball."""

    x: float
    y: float
    z: float

    @property
    def d(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)


@dataclass(frozen=True)
class GeometricResult:
    """Geometric-measure value in bits, with the maximizing product direction."""

    value: float
    witness: QubitState
    overlap: float


def barycenter(c: Constellation) -> Barycenter:
    """Arithmetic mean of the star unit vectors."""
    v = c.as_array().mean(axis=0)
    return Barycenter(float(v[0]), float(v[1]), float(v[2]))


def _e_b(v: np.ndarray) -> np.ndarray:
    """1 - d**2 of the barycenter of each star set in v (..., n, 3)."""
    return np.maximum(0.0, 1.0 - np.sum(v.mean(axis=-2) ** 2, axis=-1))


def e_b(obj: SymmetricState | Constellation) -> float:
    """Barycentric measure 1 - d**2, in [0, 1]."""
    return float(_e_b(_star_vectors(obj) if isinstance(obj, SymmetricState) else obj.as_array()))


# ---------------------------------------------------------------------------
# Husimi evaluation and ascent

_GRID_STARTS = 8  # ascent starts taken from the best grid cells, one per basin
_GTOL = 1e-12  # gradient tolerance of the ascent, before the round-off floor
_MAX_ITER = 60  # damped-Newton steps per ascent


def _husimi_weights(state: SymmetricState) -> np.ndarray:
    return state.d.conj() * _sqrt_binom(state.n)


def _powers(theta, n: int) -> np.ndarray:
    """T[i, k] = cos^(n-k)(theta_i/2) * sin^k(theta_i/2), by running products."""
    u = 0.5 * np.asarray(theta, dtype=float).ravel()
    m = u.shape[0]
    base = np.stack([np.cos(u), np.sin(u)])[..., None]
    cs = np.ones((2, m, n + 1))
    np.multiply.accumulate(np.broadcast_to(base, (2, m, n)), axis=2, out=cs[..., 1:])
    return cs[0, :, ::-1] * cs[1]


@functools.lru_cache(maxsize=64)
def _d_theta(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The tridiagonal A with d/dtheta T_k = (k T_(k-1) - (n-k) T_(k+1)) / 2 = (A T)_k,
    kept as its sub- and superdiagonal A[k, k-1] = k/2, A[k-1, k] = -(n-k+1)/2."""
    k = np.arange(1.0, n + 1.0)
    sub, sup = 0.5 * k, -0.5 * (n + 1.0 - k)
    sub.flags.writeable = sup.flags.writeable = False
    return sub, sup


def _theta_derivative(t: np.ndarray) -> np.ndarray:
    """A T: d/dtheta of a power table, row by row, in the same basis."""
    sub, sup = _d_theta(t.shape[1] - 1)
    out = np.zeros_like(t)
    out[:, 1:] = t[:, :-1] * sub
    out[:, :-1] += t[:, 1:] * sup
    return out


def _husimi_eval(gbar: np.ndarray, n: int, theta, phi, order: int):
    """Husimi value, analytic gradient, analytic Hessian, batched over points.

    The amplitude is sum_k w_k T_k.  A derivative in theta replaces T by
    A T (A T, A A T for the second), one in phi multiplies w by i k; every
    term is a coefficient row against a real table in the same basis, so
    the poles need no special casing.  Returns (q, grad, hess) with the
    trailing entries None below the requested ``order``.
    """
    t = _powers(theta, n)
    k = np.arange(n + 1)
    w = gbar * np.exp(1j * np.outer(np.asarray(phi, dtype=float).ravel(), k))
    f = (w * t).sum(axis=1)
    q = f.real**2 + f.imag**2
    if order == 0:
        return q, None, None

    ik = 1j * k
    w_p = ik * w
    t_t = _theta_derivative(t)
    f_t = (w * t_t).sum(axis=1)
    f_p = (w_p * t).sum(axis=1)
    fc = f.conj()
    grad = np.stack([2.0 * (fc * f_t).real, 2.0 * (fc * f_p).real], axis=1)
    if order == 1:
        return q, grad, None

    f_tt = (w * _theta_derivative(t_t)).sum(axis=1)
    f_tp = (w_p * t_t).sum(axis=1)
    f_pp = (ik * w_p * t).sum(axis=1)
    htt = 2.0 * (np.abs(f_t) ** 2 + (fc * f_tt).real)
    htp = 2.0 * ((f_p.conj() * f_t).real + (fc * f_tp).real)
    hpp = 2.0 * (np.abs(f_p) ** 2 + (fc * f_pp).real)
    return q, grad, (htt, htp, hpp)


def _husimi_grid(gbar: np.ndarray, n: int, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Husimi values on the tensor grid thetas x phis: the amplitudes are one
    matmul, (T(thetas) * gbar) @ e^(i k phis)."""
    f = (_powers(thetas, n) * gbar) @ np.exp(1j * np.outer(np.arange(n + 1), phis))
    return f.real**2 + f.imag**2


def _top_k(q: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries of the 1-D q, largest first, ties in index order.

    Equals np.argsort(-q, kind="stable")[:k] without sorting all of q:
    np.partition finds the k-th largest value, and only the entries above
    it and the first entries equal to it are sorted.
    """
    k = min(k, q.size)
    kth = np.partition(q, q.size - k)[q.size - k]
    above = np.flatnonzero(q > kth)
    keep = np.concatenate([above, np.flatnonzero(q == kth)[: k - above.size]])
    return keep[np.argsort(-q[keep], kind="stable")]


def husimi(state: SymmetricState, point: QubitState) -> float:
    """Squared overlap with the coherent state at ``point``; lies in [0, 1]."""
    return float(min(husimi_batch(state, point.theta, point.phi)[0], 1.0))


def husimi_batch(state: SymmetricState, theta, phi) -> np.ndarray:
    """Husimi values at arrays of sphere points."""
    return _husimi_eval(_husimi_weights(state), state.n, theta, phi, 0)[0]


def husimi_gradient(state: SymmetricState, theta, phi) -> np.ndarray:
    """Analytic (d/dtheta, d/dphi) of the Husimi function, batched."""
    return _husimi_eval(_husimi_weights(state), state.n, theta, phi, 1)[1]


def _wrap_chart(th: np.ndarray, ph: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold angles back into theta in [0, pi], phi in [0, 2*pi)."""
    th = th % (2.0 * math.pi)
    over = th > math.pi
    th = np.where(over, 2.0 * math.pi - th, th)
    ph = np.where(over, ph + math.pi, ph) % (2.0 * math.pi)
    return th, ph


def _ascend(gbar, n, theta, phi, gtol):
    """Damped Newton ascent on the Husimi function, batched over starts.

    The analytic 2x2 Hessian is flipped to a positive-definite metric so
    steps point uphill, trust-capped at 1 rad.  A trial step is accepted
    when it shrinks the gradient or raises the value; otherwise the
    per-start damping halves and the step is retried from the same point,
    so ridge oscillation cannot persist.  A start converges when its
    gradient falls below ``gtol``; a start whose damping collapses sits at
    the evaluation floor (accept if the gradient is already small) or in
    an untrustworthy basin (drop it; the other starts cover it).
    """
    def evaluate(th, ph):
        q, g, hess = _husimi_eval(gbar, n, th, ph, 2)
        return np.array([th, ph, q, g[:, 0], g[:, 1], *hess, np.abs(g).max(axis=1)])

    state = evaluate(theta, phi)
    active = np.ones(len(theta), dtype=bool)
    converged = np.zeros_like(active)
    damping = np.ones(len(theta))
    # each pass first judges the current state, then steps the starts still active
    for step in range(_MAX_ITER + 1):
        th, ph, q, g_t, g_p, htt, htp, hpp, gnorm = state
        converged |= active & (gnorm <= gtol)
        exhausted = active & ~converged & (damping < 1e-6)
        converged |= exhausted & (gnorm <= 1e2 * gtol)
        active &= ~converged & ~exhausted  # an exhausted start either converged or is dropped
        if step == _MAX_ITER or not active.any():
            break

        # eigenvalues of the symmetric 2x2 Hessian, clamped so -H is SPD
        mean = 0.5 * (htt + hpp)
        rad = np.sqrt(np.maximum(0.25 * (htt - hpp) ** 2 + htp**2, 0.0))
        lam1_raw, lam2_raw = -(mean - rad), -(mean + rad)  # eigenvalues of -H
        floor = np.maximum(1e-8 * np.maximum(np.abs(lam1_raw), np.abs(lam2_raw)), 1e-12)
        lam1 = np.maximum(lam1_raw, floor)
        lam2 = np.maximum(lam2_raw, floor)
        # eigenvectors of the 2x2: rotate by angle alpha
        alpha = 0.5 * np.arctan2(2.0 * -htp, -(htt - hpp))
        ca, sa = np.cos(alpha), np.sin(alpha)
        g1 = ca * g_t + sa * g_p
        g2 = -sa * g_t + ca * g_p
        s1, s2 = g1 / lam1, g2 / lam2
        step_t = ca * s1 - sa * s2
        step_p = sa * s1 + ca * s2
        norm = np.hypot(step_t, step_p)
        cap = np.where(norm > 1.0, 1.0 / np.where(norm > 0.0, norm, 1.0), 1.0)
        scale = damping * cap

        trial = evaluate(*_wrap_chart(th + scale * step_t, ph + scale * step_p))
        _, _, trial_q, *_, trial_gnorm = trial
        accept = active & ((trial_gnorm <= gnorm) | (trial_q > q))
        state = np.where(accept, trial, state)
        damping = np.where(accept, np.minimum(2.0 * damping, 1.0), 0.5 * damping)
    return th, ph, q, converged


def e_g(state: SymmetricState, grid: tuple[int, int] = (64, 128)) -> GeometricResult:
    """Geometric measure via Husimi maximization over the sphere.

    A coarse theta x phi grid locates the candidate basins; a damped-Newton
    ascent of up to ``_MAX_ITER`` steps starts from the best ``_GRID_STARTS``
    grid cells, at most one per grid spacing.  The candidates are the
    16 * ``_GRID_STARTS`` best cells from an exact top-k selection whose
    ties keep grid order, as a stable sort of the whole grid would; the
    spacing dedupe computes each cell's cos and sin of theta once.
    Convergence means a gradient below ``_GTOL`` or below the round-off
    floor of the gradient evaluation, whichever is larger.
    The witness is the first near-best endpoint in (theta, phi) order, with
    phi reduced to one period of Q in phi (phi = 0 on a ring).
    ``grid`` must be two integers >= 2 (else DomainError), and a grid whose
    sweep needs more than MAX_MATRIX_BYTES is refused with ResourceError
    before anything is allocated.  Raises ConvergenceError carrying the
    best result if no start attaining the best value converges, or if the
    best value is below 1/(n+1), the mean of Q over the sphere, which its
    maximum cannot be: the grid then found no basin of a maximum (a 2-row
    grid holds only the poles, where Q can vanish with its gradient).
    """
    try:
        n_th, n_ph = (operator.index(size) for size in grid)
    except (TypeError, ValueError):
        raise DomainError(f"husimi grid must be two integers, got {grid!r}") from None
    if n_th < 2 or n_ph < 2:
        raise DomainError("husimi grid must be at least 2x2")
    gbar = _husimi_weights(state)
    n = state.n
    # amplitudes, values and their partitioned copy per point; theta and phi tables
    _check_bytes(32 * n_th * n_ph + 16 * (n + 1) * (n_th + n_ph), f"a {n_th}x{n_ph} Husimi grid needs")
    eps = float(np.finfo(float).eps)
    # sum_k |gbar_k| T_k(theta) <= |d| = 1 by Cauchy-Schwarz, so the gradient's round-off is O(n^2 eps)
    gtol = max(_GTOL, 4.0 * eps * n * n)

    thetas = np.linspace(0.0, math.pi, n_th)
    phis = np.linspace(0.0, 2.0 * math.pi, n_ph, endpoint=False)
    qgrid = _husimi_grid(gbar, n, thetas, phis).ravel()
    th_grid, ph_grid = thetas.tolist(), phis.tolist()

    # spatial dedupe at the grid spacing keeps one start per candidate basin;
    # a start is (theta, phi, cos theta, sin theta)
    spacing = min(math.pi / (n_th - 1), 2.0 * math.pi / n_ph)
    starts: list[tuple[float, float, float, float]] = []
    # best first; ties keep (theta, phi) order, which is the raveled order
    for i in _top_k(qgrid, 16 * _GRID_STARTS).tolist():
        th, ph = th_grid[i // n_ph], ph_grid[i % n_ph]
        c, s = math.cos(th), math.sin(th)
        for _, p0, c0, s0 in starts:
            if math.acos(min(1.0, max(-1.0, c0 * c + s0 * s * math.cos(p0 - ph)))) < spacing:
                break
        else:
            starts.append((th, ph, c, s))
            if len(starts) == _GRID_STARTS:
                break

    th0, ph0, _, _ = np.array(starts).T
    th, ph, q, ok = _ascend(gbar, n, th0, ph0, gtol)

    best = float(q.max())
    # Q has period 2*pi/g in phi, g the gcd of the gaps between nonzero indices
    g = math.gcd(*np.diff(np.flatnonzero(gbar)).tolist())
    ph = ph % (2.0 * math.pi / g) if g else np.zeros_like(ph)
    # QubitState canonicalizes the chart, so the witness is the first
    # near-best point in (theta, phi) order
    candidates = sorted(
        ((QubitState(th[i], ph[i]), bool(ok[i])) for i in range(len(starts)) if q[i] >= best - 1e-11),
        key=lambda c: (c[0].theta, c[0].phi),
    )
    overlap_val = min(max(best, 1e-300), 1.0)
    result = GeometricResult(
        value=-math.log2(overlap_val) + 0.0,  # +0.0 folds -0.0 into 0.0
        witness=candidates[0][0],
        overlap=overlap_val,
    )
    if best < 1.0 / (n + 1):
        raise ConvergenceError(
            f"Husimi ascent ended at {best:.3e}, below the mean 1/(n+1) = {1.0 / (n + 1):.3e} of Q:"
            f" the {n_th}x{n_ph} grid found no maximum",
            result,
        )
    if not any(c[1] for c in candidates):
        raise ConvergenceError(
            f"Husimi ascent did not reach gradient tolerance {gtol:.1e}", result
        )
    return result


def e_g_dicke(n: int, k: int) -> GeometricResult:
    """Closed-form geometric measure of a Dicke state, with its witness.

    The maximizing product direction has sin(theta/2)**2 = k/n; the edge
    cases k in {0, n} are the product states with value 0.
    """
    n, k = int(n), int(k)
    if not 0 <= k <= n or n < 1:
        raise DomainError(f"invalid Dicke label ({n}, {k})")
    theta = 2.0 * math.asin(math.sqrt(k / n))
    if k == 0 or k == n:
        return GeometricResult(0.0, QubitState(theta, 0.0), 1.0)
    value = (
        k * (math.log2(n) - math.log2(k))
        + (n - k) * (math.log2(n) - math.log2(n - k))
        - math.log2(math.comb(n, k))
    )
    return GeometricResult(value, QubitState(theta, 0.0), 2.0 ** (-value))


def rotate_state(state: SymmetricState, axis: Star, angle: float) -> SymmetricState:
    """Rigid rotation of the whole constellation about ``axis`` by ``angle``.

    Applies the spin rotation exp(-i*angle*(axis . J)) in the Dicke basis,
    which equals the single-qubit rotation on every tensor factor, up to
    global phase.  (axis . J) is tridiagonal there, with
    <k|J_z|k> = n/2 - k and <k-1|J_+|k> = sqrt(k(n-k+1)).
    """
    n = state.n
    ux, uy, uz = axis.as_array()
    k = np.arange(n + 1)
    gen = np.diag(uz * (0.5 * n - k)).astype(np.complex128)
    upper = 0.5 * complex(ux, -uy) * np.sqrt(k[1:] * (n - k[1:] + 1.0))
    gen[k[:-1], k[1:]] = upper
    gen[k[1:], k[:-1]] = upper.conj()
    lam, vec = np.linalg.eigh(gen)
    return SymmetricState(n, vec @ (np.exp(-1j * float(angle) * lam) * (vec.conj().T @ state.d)))
