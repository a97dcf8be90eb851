"""Entanglement measures built on the star picture.

The barycentric measure is 1 - d**2 with d the distance from the
constellation's barycenter to the center of the Bloch ball.  The geometric
measure is -log2 of the state's maximal squared overlap with a symmetric
product state, i.e. -log2 of the Husimi maximum; the maximizer runs a
coarse sphere grid followed by a damped-Newton ascent from the best grid
cells and from every star position.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .stars import Constellation, Star, _angles, _star_vectors
from .states import QubitState, SymmetricState, _sqrt_binom, symmetrize

__all__ = [
    "Barycenter",
    "GeometricResult",
    "barycenter",
    "e_b",
    "e_g",
    "e_g_dicke",
    "rec_family_state",
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

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class GeometricResult:
    """Geometric-measure value in bits, with the maximizing product direction."""

    value: float
    witness: QubitState
    overlap: float


def barycenter(c: Constellation) -> Barycenter:
    """Arithmetic mean of the star unit vectors."""
    v = c.as_array().mean(axis=0)
    b = Barycenter(float(v[0]), float(v[1]), float(v[2]))
    if b.d > 1.0 + 1e-12:
        raise DomainError(f"barycenter radius {b.d} exceeds 1")
    return b


def _e_b(v: np.ndarray) -> np.ndarray:
    """1 - d**2 of the barycenter of each star set in v (..., n, 3)."""
    return np.maximum(0.0, 1.0 - np.sum(v.mean(axis=-2) ** 2, axis=-1))


def e_b(obj: SymmetricState | Constellation) -> float:
    """Barycentric measure 1 - d**2, in [0, 1]."""
    return float(_e_b(_star_vectors(obj) if isinstance(obj, SymmetricState) else obj.as_array()))


# ---------------------------------------------------------------------------
# Husimi evaluation and ascent


def _husimi_weights(state: SymmetricState) -> np.ndarray:
    return state.d.conj() * _sqrt_binom(state.n)


class _HusimiPlan:
    """Per-n index tables for the fused Husimi value/gradient/Hessian."""

    def __init__(self, n: int):
        k = np.arange(n + 1)
        kf = k.astype(float)
        self.n = n
        self.k = k
        self.ik = 1j * kf
        self.mk2 = -(kf**2)
        # exponent columns into the cos/sin power tables (size n+3)
        self.c0, self.s0 = n - k, k
        self.cp1, self.sm1 = n - k + 1, np.maximum(k - 1, 0)
        self.cm1, self.sp1 = np.maximum(n - k - 1, 0), k + 1
        self.cp2, self.sm2 = n - k + 2, np.maximum(k - 2, 0)
        self.cm2, self.sp2 = np.maximum(n - k - 2, 0), k + 2
        # derivative coefficients; zeros cancel the clamped exponents above
        self.a1 = kf
        self.a2 = n - kf
        self.b1 = kf * (kf - 1.0)
        self.b2 = kf * (n - kf + 1.0) + (n - kf) * (kf + 1.0)
        self.b3 = (n - kf) * (n - kf - 1.0)
        self.phase_cache: dict[int, np.ndarray] = {}

    def phase_matrix(self, n_ph: int) -> np.ndarray:
        """exp(i*k*phi) on the canonical phi grid, cached per grid size."""
        e = self.phase_cache.get(n_ph)
        if e is None:
            phis = np.linspace(0.0, 2.0 * math.pi, n_ph, endpoint=False)
            e = self.phase_cache[n_ph] = np.exp(1j * np.outer(self.k, phis))
        return e


_PLANS: dict[int, _HusimiPlan] = {}


def _plan(n: int) -> _HusimiPlan:
    plan = _PLANS.get(n)
    if plan is None:
        plan = _PLANS[n] = _HusimiPlan(n)
    return plan


def _husimi_eval(gbar: np.ndarray, n: int, theta, phi, order: int):
    """Husimi value, analytic gradient, analytic Hessian, batched over points.

    The amplitude is f = sum_k gbar_k cos^(n-k)(theta/2) sin^k(theta/2)
    e^(i k phi); every derivative keeps only non-negative powers so the
    poles need no special casing.  Returns (q, grad, hess) with the
    trailing entries None below the requested ``order``.
    """
    p = _plan(n)
    th = np.asarray(theta, dtype=float).ravel()
    ph = np.asarray(phi, dtype=float).ravel()
    m = th.shape[0]
    u = 0.5 * th
    c, s = np.cos(u), np.sin(u)
    cp = np.empty((m, n + 3))
    sp = np.empty((m, n + 3))
    cp[:, 0] = 1.0
    sp[:, 0] = 1.0
    np.multiply.accumulate(np.broadcast_to(c[:, None], (m, n + 2)), axis=1, out=cp[:, 1:])
    np.multiply.accumulate(np.broadcast_to(s[:, None], (m, n + 2)), axis=1, out=sp[:, 1:])

    w = gbar * np.exp(1j * np.outer(ph, p.k))  # (m, n+1)
    t0 = cp[:, p.c0] * sp[:, p.s0]
    f = (w * t0).sum(axis=1)
    q = f.real**2 + f.imag**2
    if order == 0:
        return q, None, None

    fc = f.conj()
    a = p.a1 * (cp[:, p.cp1] * sp[:, p.sm1]) - p.a2 * (cp[:, p.cm1] * sp[:, p.sp1])
    f_t = 0.5 * (w * a).sum(axis=1)
    f_p = (w * p.ik * t0).sum(axis=1)
    grad = np.stack([2.0 * (fc * f_t).real, 2.0 * (fc * f_p).real], axis=1)
    if order == 1:
        return q, grad, None

    a_prime = (
        p.b1 * (cp[:, p.cp2] * sp[:, p.sm2])
        - p.b2 * t0
        + p.b3 * (cp[:, p.cm2] * sp[:, p.sp2])
    )
    f_tt = 0.25 * (w * a_prime).sum(axis=1)
    f_tp = 0.5 * (w * p.ik * a).sum(axis=1)
    f_pp = (w * p.mk2 * t0).sum(axis=1)
    htt = 2.0 * (np.abs(f_t) ** 2 + (fc * f_tt).real)
    htp = 2.0 * ((f_p.conj() * f_t).real + (fc * f_tp).real)
    hpp = 2.0 * (np.abs(f_p) ** 2 + (fc * f_pp).real)
    return q, grad, (htt, htp, hpp)


def husimi(state: SymmetricState, point: QubitState) -> float:
    """Squared overlap with the coherent state at ``point``; lies in [0, 1]."""
    q, _, _ = _husimi_eval(_husimi_weights(state), state.n, point.theta, point.phi, 0)
    return float(min(q[0], 1.0))


def husimi_batch(state: SymmetricState, theta, phi) -> np.ndarray:
    """Husimi values at arrays of sphere points."""
    gbar = _husimi_weights(state)
    q, _, _ = _husimi_eval(gbar, state.n, np.atleast_1d(theta), np.atleast_1d(phi), 0)
    return q


def husimi_gradient(state: SymmetricState, theta, phi) -> np.ndarray:
    """Analytic (d/dtheta, d/dphi) of the Husimi function, batched."""
    gbar = _husimi_weights(state)
    _, g, _ = _husimi_eval(gbar, state.n, np.atleast_1d(theta), np.atleast_1d(phi), 1)
    return g


def _wrap_chart(th: np.ndarray, ph: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold angles back into theta in [0, pi], phi in [0, 2*pi)."""
    th = th % (2.0 * math.pi)
    over = th > math.pi
    th = np.where(over, 2.0 * math.pi - th, th)
    ph = np.where(over, ph + math.pi, ph) % (2.0 * math.pi)
    return th, ph


def _ascend(gbar, n, theta, phi, max_iter, gtol):
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
    th = np.array(theta, dtype=float)
    ph = np.array(phi, dtype=float)
    m = th.shape[0]

    q, g, hess = _husimi_eval(gbar, n, th, ph, 2)
    htt, htp, hpp = hess
    gnorm = np.abs(g).max(axis=1)
    converged = gnorm <= gtol
    dead = np.zeros(m, dtype=bool)
    damping = np.ones(m)
    for _ in range(max_iter):
        active = ~converged & ~dead
        if not active.any():
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
        g1 = ca * g[:, 0] + sa * g[:, 1]
        g2 = -sa * g[:, 0] + ca * g[:, 1]
        s1, s2 = g1 / lam1, g2 / lam2
        step_t = ca * s1 - sa * s2
        step_p = sa * s1 + ca * s2
        norm = np.hypot(step_t, step_p)
        cap = np.where(norm > 1.0, 1.0 / np.where(norm > 0.0, norm, 1.0), 1.0)
        scale = damping * cap

        trial_th, trial_ph = _wrap_chart(th + scale * step_t, ph + scale * step_p)
        q2, g2v, hess2 = _husimi_eval(gbar, n, trial_th, trial_ph, 2)
        gnorm2 = np.abs(g2v).max(axis=1)
        accept = active & ((gnorm2 <= gnorm) | (q2 > q))

        th = np.where(accept, trial_th, th)
        ph = np.where(accept, trial_ph, ph)
        q = np.where(accept, q2, q)
        g = np.where(accept[:, None], g2v, g)
        htt = np.where(accept, hess2[0], htt)
        htp = np.where(accept, hess2[1], htp)
        hpp = np.where(accept, hess2[2], hpp)
        gnorm = np.where(accept, gnorm2, gnorm)
        damping = np.where(accept, np.minimum(2.0 * damping, 1.0), 0.5 * damping)

        converged |= active & (gnorm <= gtol)
        exhausted = active & ~converged & (damping < 1e-6)
        converged |= exhausted & (gnorm <= 1e2 * gtol)
        dead |= exhausted & (gnorm > 1e2 * gtol)
    return th, ph, q, converged


def e_g(
    state: SymmetricState,
    grid: tuple[int, int] = (64, 128),
    max_iter: int = 60,
    gtol: float = 1e-12,
    n_grid_starts: int = 8,
) -> GeometricResult:
    """Geometric measure via Husimi maximization over the sphere.

    A coarse theta x phi grid locates the candidate basins; a damped-Newton
    ascent starts from the best grid cells and from every star position.
    Convergence means a gradient below ``gtol`` or below the round-off
    floor of the gradient evaluation, whichever is larger.  Raises
    ConvergenceError carrying the best result if no start attaining the
    best value converges.
    """
    gbar = _husimi_weights(state)
    n = state.n
    eps = float(np.finfo(float).eps)
    gtol = max(gtol, 4.0 * eps * n * float(np.abs(gbar).sum()))

    n_th, n_ph = grid
    if n_th < 2 or n_ph < 2:
        raise DomainError("husimi grid must be at least 2x2")
    thetas = np.linspace(0.0, math.pi, n_th)
    phis = np.linspace(0.0, 2.0 * math.pi, n_ph, endpoint=False)
    # the grid is a tensor product, so the sweep is one small matmul
    p = _plan(n)
    u = 0.5 * thetas[:, None]
    t_theta = np.cos(u) ** p.c0 * np.sin(u) ** p.s0
    f_grid = (t_theta * gbar) @ p.phase_matrix(n_ph)
    qgrid = (f_grid.real**2 + f_grid.imag**2).ravel()
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()

    order = np.lexsort((pp, tt, -qgrid))[: 16 * n_grid_starts]
    starts: list[tuple[float, float]] = []

    def _push(th, ph, radius):
        for t0, p0 in starts:
            cosd = math.cos(t0) * math.cos(th) + math.sin(t0) * math.sin(th) * math.cos(p0 - ph)
            if math.acos(min(1.0, max(-1.0, cosd))) < radius:
                return
        starts.append((float(th), float(ph)))

    # spatial dedupe at the grid spacing keeps one start per candidate basin
    spacing = min(math.pi / (n_th - 1), 2.0 * math.pi / n_ph)
    for i in order:
        if len(starts) >= n_grid_starts:
            break
        _push(tt[i], pp[i], spacing)
    for th_star, ph_star in zip(*_angles(_star_vectors(state))):
        _push(th_star, ph_star, 1e-6)

    th0 = np.array([s[0] for s in starts])
    ph0 = np.array([s[1] for s in starts])
    th, ph, q, ok = _ascend(gbar, n, th0, ph0, max_iter, gtol)

    best = float(q.max())
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


def rec_family_state(theta: float, phi: float) -> SymmetricState:
    """Four-qubit family with barycenter pinned at the ball center.

    The stars are an inscribed rectangle: a pair at polar angle theta with
    azimuths phi and phi+pi, and a pair at pi-theta with azimuths 0 and pi.
    theta in [0, pi/2], phi in [0, pi].
    """
    if not -1e-12 <= theta <= math.pi / 2 + 1e-12:
        raise DomainError(f"theta must lie in [0, pi/2], got {theta}")
    if not -1e-12 <= phi <= math.pi + 1e-12:
        raise DomainError(f"phi must lie in [0, pi], got {phi}")
    theta = min(max(theta, 0.0), math.pi / 2)
    phi = min(max(phi, 0.0), math.pi)
    state = symmetrize(
        [
            QubitState(theta, phi),
            QubitState(theta, phi + math.pi),
            QubitState(math.pi - theta, 0.0),
            QubitState(math.pi - theta, math.pi),
        ]
    )
    # only the k = 0, 2, 4 Dicke components should survive
    stray = max(abs(state.d[1]), abs(state.d[3]))
    if stray > 1e-12:
        warnings.warn(
            f"rectangle-family state has unexpected odd-weight amplitude {stray:.3e}",
            stacklevel=2,
        )
    return state


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
