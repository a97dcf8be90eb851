"""The two-way Majorana map between symmetric states and star constellations.

A symmetric n-qubit state with Dicke coefficients d_k is encoded by the
polynomial

    A(w) = sum_k (-1)^k sqrt(C(n, k)) d_k w^(n-k),

whose roots, pulled back to the sphere through the stereographic chart
theta = 2*atan|w|, phi = arg w, are the n stars.  Vanishing leading
coefficients are roots at infinity, i.e. stars at the south pole; the
convention is fixed so that the constellation of a product state
|q>^(x n) is n copies of q's own Bloch vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .states import SymmetricState, _format_float, _sqrt_binom, _state_from_pairs

__all__ = [
    "Star",
    "Constellation",
    "MajoranaPolynomial",
    "majorana_polynomial",
    "plane_to_sphere",
    "sphere_to_plane",
    "state_to_stars",
    "stars_to_state",
    "geodesic_distance",
    "constellation_to_json",
    "constellation_from_json",
    "constellation_to_csv",
]

# Coefficients below this relative size count as exact zeros, i.e. roots
# pinned to a pole.  The induced state perturbation is ~1e-13, far inside
# every round-trip tolerance.
_STRIP_TOL = 1e-13


def _on_sphere(v: np.ndarray) -> np.ndarray:
    """Star vectors (..., 3), unchanged; DomainError unless finite and of length 1 to 1e-6."""
    r = np.sqrt(np.einsum("...i,...i", v, v))
    if not (np.abs(r - 1.0) <= 1e-6).all():  # false for NaN and inf as well
        raise DomainError(f"star coordinates must be finite and on the unit sphere, |v| = {r}")
    return v


def _angles(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of star vectors (..., 3); phi is 0 on the z axis."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    phi = np.where((x == 0.0) & (y == 0.0), 0.0, np.arctan2(y, x) % (2.0 * math.pi))
    return np.arccos(np.clip(z, -1.0, 1.0)), phi


def _pairs(v: np.ndarray) -> np.ndarray:
    """Amplitudes (a, b) of the qubit a|0> + b|1> at each star; exact at the south pole."""
    theta, phi = _angles(v)
    pairs = np.stack([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], axis=-1)
    pairs[theta == math.pi] = (0.0, 1.0)
    return pairs


@dataclass(frozen=True)
class Star:
    """A point on the unit sphere; (theta, phi) are derived views."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        v = _on_sphere(np.array([self.x, self.y, self.z], dtype=float))
        for name, value in zip("xyz", (v / math.sqrt(v @ v)).tolist()):
            object.__setattr__(self, name, value)

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "Star":
        st = math.sin(theta)
        return cls(st * math.cos(phi), st * math.sin(phi), math.cos(theta))

    @property
    def theta(self) -> float:
        return float(_angles(self.as_array())[0])

    @property
    def phi(self) -> float:
        return float(_angles(self.as_array())[1])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def antipode(self) -> "Star":
        return Star(-self.x, -self.y, -self.z)


@dataclass(frozen=True)
class Constellation:
    """Multiset of n stars; the stored order carries no meaning."""

    n: int
    stars: tuple[Star, ...]

    def __post_init__(self):
        n = int(self.n)
        stars = tuple(self.stars)
        if n < 1:
            raise DomainError("a constellation needs at least one star")
        if len(stars) != n:
            raise DomainError(f"expected {n} stars, got {len(stars)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "stars", stars)

    def as_array(self) -> np.ndarray:
        return np.array([s.as_array() for s in self.stars])


def geodesic_distance(a: Star, b: Star) -> float:
    """Great-circle distance between two stars, in radians."""
    u, v = a.as_array(), b.as_array()
    return float(math.atan2(np.linalg.norm(np.cross(u, v)), float(u @ v)))


@dataclass(frozen=True)
class MajoranaPolynomial:
    """The star-encoding polynomial of a state.

    ``coefficients[k] = sqrt(C(n, k)) * d_k`` for k = 0..n; the encoded
    polynomial is A(w) = sum_k (-1)^k coefficients[k] w^(n-k), of effective
    degree ``degree``.  The ``infinite_roots = n - degree`` missing roots
    are the stars pinned at the south pole.
    """

    n: int
    coefficients: np.ndarray
    degree: int

    @property
    def infinite_roots(self) -> int:
        return self.n - self.degree


def majorana_polynomial(state: SymmetricState) -> MajoranaPolynomial:
    """Coefficients and effective degree of the state's star polynomial."""
    n = state.n
    coeffs = _sqrt_binom(n) * state.d
    mags = np.abs(coeffs)
    first = int(np.argmax(mags >= _STRIP_TOL * mags.max()))
    coeffs.flags.writeable = False
    return MajoranaPolynomial(n, coeffs, n - first)


def _chart(w) -> np.ndarray:
    """Inverse stereographic chart of points w as unit vectors (..., 3); see plane_to_sphere."""
    theta = 2.0 * np.arctan(np.abs(w))
    phi = np.arctan2(w.imag, w.real)
    s = np.sin(theta)
    # not renormalized: Star normalizes once, so a star rebuilt from its JSON angles is the same vector
    return _on_sphere(np.stack([s * np.cos(phi), s * np.sin(phi), np.cos(theta)], axis=-1))


def plane_to_sphere(w: complex) -> Star:
    """Inverse stereographic chart: w=0 is the north pole, |w|=1 the equator."""
    return Star(*_chart(complex(w)))


def sphere_to_plane(s: Star) -> complex | None:
    """Stereographic chart; the exact south pole maps to None (infinity).

    The two equivalent formulas are picked per hemisphere so neither pole
    suffers catastrophic cancellation or float overflow.
    """
    if s.z <= 0.0:
        denom = complex(s.x, -s.y)
        if denom == 0.0:
            return None
        return (1.0 - s.z) / denom
    return complex(s.x, s.y) / (1.0 + s.z)


def _aberth_refine(p: np.ndarray, roots: np.ndarray, max_iter: int = 30) -> np.ndarray:
    """Simultaneous Newton (Aberth-Ehrlich) polish of all roots of p.

    Stops when every residual is at the round-off floor of polynomial
    evaluation; roots whose update would not be finite are left at their
    companion-matrix estimate.
    """
    deg = len(p) - 1
    dp = p[:-1] * np.arange(deg, 0, -1)
    eps = np.finfo(float).eps
    roots = roots.astype(np.complex128, copy=True)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            val = np.polyval(p, roots)
            bound = np.polyval(np.abs(p), np.abs(roots))
            done = np.abs(val) <= 64.0 * eps * bound + 1e-300
            if done.all():
                break
            dval = np.polyval(dp, roots)
            newton = np.where(dval != 0.0, val / np.where(dval != 0.0, dval, 1.0), 0.0)
            diff = roots[:, None] - roots[None, :]
            np.fill_diagonal(diff, np.inf)
            repulsion = (1.0 / diff).sum(axis=1)
            denom = 1.0 - newton * repulsion
            step = np.where(np.abs(denom) > 1e-30, newton / np.where(denom != 0.0, denom, 1.0), newton)
            ok = ~done & np.isfinite(step)
            if not ok.any():
                break
            roots = np.where(ok, roots - step, roots)
    return roots


def _polynomial_roots(c: np.ndarray) -> np.ndarray:
    """All roots of a polynomial (coefficients highest-degree first).

    Both end coefficients must be non-negligible.  Companion-matrix
    eigenvalues seed an Aberth-Ehrlich refinement; when the constant term
    dominates the leading one the work is done on the reversed polynomial
    so large roots are handled as small roots of the reverse.
    """
    if len(c) == 2:
        return np.array([-c[1] / c[0]])
    reverse = abs(c[-1]) > abs(c[0])
    work = c[::-1].copy() if reverse else c.copy()
    work /= np.abs(work).max()
    roots = np.roots(work)
    roots = _aberth_refine(work, roots)
    if reverse:
        roots = np.where(np.abs(roots) < 1e-300, 1e-300, roots)
        roots = 1.0 / roots
    return roots


def _refine_multiple_root(coeffs: np.ndarray, w0: complex | None, m: int) -> np.ndarray:
    """Newton-polish an m-fold root: it is a simple root of the (m-1)-th
    derivative, so the cluster centroid converges to machine precision.

    ``coeffs`` is the full polynomial, highest degree first; roots beyond
    the unit circle (or at infinity, w0 None) are handled on the reversed
    polynomial so the pole chart stays regular.
    """
    if w0 is None:
        work, x, inverted = coeffs[::-1], 0.0 + 0.0j, True
    elif abs(w0) > 1.0:
        work, x, inverted = coeffs[::-1], 1.0 / w0, True
    else:
        work, x, inverted = coeffs, complex(w0), False
    q = work
    for _ in range(m - 1):
        q = np.polyder(q)
    dq = np.polyder(q)
    for _ in range(60):
        dqv = np.polyval(dq, x)
        if dqv == 0.0:
            break
        step = np.polyval(q, x) / dqv
        x -= step
        if abs(step) <= 1e-16 * (1.0 + abs(x)):
            break
    if inverted:
        if abs(x) < 1e-300:
            return np.array([0.0, 0.0, -1.0])
        x = 1.0 / x
    return _chart(x)


def _collapse_degenerate_clusters(state: SymmetricState, v: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Pin clusters of stars that represent one multiple root.

    An m-fold root scatters companion-matrix eigenvalues on a ring of
    radius ~eps**(1/m); whenever m stars sit within that resolution limit
    of each other they are replaced by m copies of the derivative-refined
    root.  Every replacement is verified by reconstruction fidelity
    against the input state and reverted if it measurably changes it.
    """
    n = len(v)
    if n < 2:
        return v
    eps = float(np.finfo(float).eps)
    dist = np.arccos(np.clip(v @ v.T, -1.0, 1.0))
    np.fill_diagonal(dist, np.inf)
    frozen = np.zeros(n, dtype=bool)  # members of an accepted collapse
    tried: set[bytes] = set()
    stages = [n] + list(range(min(n - 1, 12), 1, -1))
    for m in stages:
        tau = 12.0 * eps ** (1.0 / m)
        if float(dist.min()) > tau:
            continue
        # a qualifying cluster has diameter <= tau, i.e. it is a clique in
        # the tau-graph, so some member sees all the others as neighbors
        within = dist <= tau
        counts = within.sum(axis=1)
        need = max(m, 2) - 1
        if counts.max() < need:
            continue
        for i in np.nonzero(counts >= need)[0]:
            comp = np.sort(np.append(np.nonzero(within[i])[0], i))
            if comp.tobytes() in tried or frozen[comp].any():
                continue
            tried.add(comp.tobytes())
            sub = dist[np.ix_(comp, comp)]
            diameter = float(sub[np.isfinite(sub)].max())
            if diameter == 0.0 or diameter > tau:
                continue  # coincident already, or not a tight ring
            centroid = v[comp].mean(axis=0)
            norm = float(np.linalg.norm(centroid))
            if norm < 1e-6:
                continue
            trial = v.copy()
            trial[comp] = _refine_multiple_root(coeffs, sphere_to_plane(Star(*(centroid / norm))), len(comp))
            if abs(np.vdot(_state_from_pairs(_pairs(trial)).d, state.d)) >= 1.0 - 1e-12:
                v = trial
                frozen[comp] = True
                dist = np.arccos(np.clip(v @ v.T, -1.0, 1.0))
                np.fill_diagonal(dist, np.inf)
    return v


def _star_vectors(state: SymmetricState) -> np.ndarray:
    """The n star unit vectors of a state, (n, 3), sorted by (theta, phi).

    Includes pole multiplicities; raises DomainError when a root finds no
    place on the sphere.
    """
    n = state.n
    coeffs = (-1.0) ** np.arange(n + 1) * _sqrt_binom(n) * state.d  # index k multiplies w^(n-k)
    mags = np.abs(coeffs)
    scale = float(mags.max())  # > 0: a SymmetricState is normalized
    nonzero = np.nonzero(mags >= _STRIP_TOL * scale)[0]
    first, last = int(nonzero[0]), int(nonzero[-1])
    v = np.repeat([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]], [first, n - last], axis=0)
    if last > first:
        roots = _chart(_polynomial_roots(coeffs[first : last + 1] / scale))
        v = _collapse_degenerate_clusters(state, np.concatenate([v, roots]), coeffs / scale)
    return v[np.lexsort(_angles(v)[::-1])]  # by theta, then phi


def state_to_stars(state: SymmetricState) -> Constellation:
    """Majorana constellation of a symmetric state.

    Returns exactly n stars including pole multiplicities, sorted by
    (theta, phi) so equal states give identical output.
    """
    return Constellation(state.n, tuple(Star(*row) for row in _star_vectors(state).tolist()))


def stars_to_state(c: Constellation) -> SymmetricState:
    """Vieta reconstruction: the unique state whose constellation is c."""
    return _state_from_pairs(_pairs(c.as_array()))


def constellation_to_json(c: Constellation) -> str:
    entries = ", ".join(
        f'{{"theta": {_format_float(s.theta)}, "phi": {_format_float(s.phi)}}}' for s in c.stars
    )
    return f'{{"n": {c.n}, "stars": [{entries}]}}'


def constellation_from_json(text: str) -> Constellation:
    import json

    try:
        doc = json.loads(text)
        n = int(doc["n"])
        stars = tuple(Star.from_angles(float(e["theta"]), float(e["phi"])) for e in doc["stars"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed constellation JSON: {exc}") from exc
    return Constellation(n, stars)


def constellation_to_csv(c: Constellation) -> str:
    lines = ["star_index,theta,phi,x,y,z"]
    for i, s in enumerate(c.stars):
        lines.append(
            ",".join(
                [str(i)]
                + [_format_float(v) for v in (s.theta, s.phi, s.x, s.y, s.z)]
            )
        )
    return "\n".join(lines) + "\n"
