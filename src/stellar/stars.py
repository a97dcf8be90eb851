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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .states import SymmetricState, _csv, _floats, _sqrt_binom, _state_from_pairs

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

# An end coefficient at most this times its inner neighbour counts as an
# exact zero, i.e. a root pinned to a pole.  The induced state perturbation
# is ~1e-13, far inside every round-trip tolerance.
_STRIP_TOL = 1e-13
_EPS = float(np.finfo(float).eps)


def _on_sphere(v: np.ndarray) -> np.ndarray:
    """Star vectors (..., 3), unchanged; DomainError unless finite and of length 1 to 1e-6."""
    r = np.sqrt(np.einsum("...i,...i", v, v))
    if not (np.abs(r - 1.0) <= 1e-6).all():  # false for NaN and inf as well
        raise DomainError(f"star coordinates must be finite and on the unit sphere, |v| = {r}")
    return v


def _angles(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of star vectors (..., 3); phi lies in [0, 2*pi) and is 0 on the z axis."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    # + 0.0 turns -0.0 into 0.0, so arctan2 gives 0 on the z axis whatever the signs
    # of the zeros; the remainder rounds to 2*pi for a tiny negative y, folded to 0
    phi = np.arctan2(y + 0.0, x + 0.0) % (2.0 * math.pi)
    return np.arccos(np.minimum(np.maximum(z, -1.0), 1.0)), np.where(phi == 2.0 * math.pi, 0.0, phi)


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
    def _from_unit_rows(cls, v: np.ndarray) -> tuple["Star", ...]:
        """Stars of the vectors v (k, 3) the star core gave, not checked again.

        Each row is normalized as the constructor normalizes it: the stacked
        1 x 3 products are the constructor's ``v @ v``, bit for bit.
        """
        out = []
        for x, y, z in (v / np.sqrt(v[:, None, :] @ v[:, :, None])[:, 0]).tolist():
            star = object.__new__(cls)
            object.__setattr__(star, "x", x)
            object.__setattr__(star, "y", y)
            object.__setattr__(star, "z", z)
            out.append(star)
        return tuple(out)

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


def _geodesic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great-circle distances between the unit vectors a (..., k, 3) and b (..., l, 3), shape (..., k, l)."""
    return np.arccos(np.clip(a @ b.swapaxes(-1, -2), -1.0, 1.0))


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


def _pole_strip(mags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, last) non-negligible coefficient of each nonzero row of |coefficients| (m, n+1).

    From each end, a coefficient is stripped while it is at most ``_STRIP_TOL``
    times its inner neighbour: those of k stars near a pole fall like r**k, so
    only the ratio tells a star on the pole from one near it.  The ``first``
    leading ones are stars at the south pole, the ``n - last`` trailing ones at the north.
    """
    lead = np.logical_and.accumulate(mags[:, :-1] <= _STRIP_TOL * mags[:, 1:], axis=1).sum(axis=1)
    trail = np.logical_and.accumulate(mags[:, :0:-1] <= _STRIP_TOL * mags[:, -2::-1], axis=1).sum(axis=1)
    return lead, mags.shape[1] - 1 - trail


def majorana_polynomial(state: SymmetricState) -> MajoranaPolynomial:
    """Coefficients and effective degree of the state's star polynomial."""
    n = state.n
    coeffs = _sqrt_binom(n) * state.d
    first = int(_pole_strip(np.abs(coeffs)[None])[0][0])
    coeffs.flags.writeable = False
    return MajoranaPolynomial(n, coeffs, n - first)


@functools.lru_cache(maxsize=128)
def _signed_sqrt_binom(n: int) -> np.ndarray:
    """(-1)**k sqrt(C(n, k)) for k = 0..n, read-only: the weight of Dicke coefficient k in the star polynomial."""
    w = (-1.0) ** np.arange(n + 1) * _sqrt_binom(n)
    w.flags.writeable = False
    return w


def _chart(w) -> np.ndarray:
    """Inverse stereographic chart of points w as unit vectors (..., 3); see plane_to_sphere.

    Raises DomainError for a point with a NaN part, the only kind the
    sphere has no place for: theta and phi are bounded, so every other
    point lands on the unit sphere, and phi is NaN whenever theta is.
    """
    theta = 2.0 * np.arctan(np.abs(w))
    phi = np.arctan2(w.imag, w.real)
    if np.isnan(phi).any():
        raise DomainError(f"a root has no place on the sphere: {w}")
    s = np.sin(theta)
    # not renormalized: Star normalizes once, so a star rebuilt from its JSON angles is the same vector
    v = np.empty(theta.shape + (3,))
    v[..., 0], v[..., 1], v[..., 2] = s * np.cos(phi), s * np.sin(phi), np.cos(theta)
    return v


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


def _tiles(p: np.ndarray, r: int) -> np.ndarray:
    """Coefficient rows p (m, k) as k tiles (m, r): tile j repeats row i's coefficient j."""
    return p.T[:, :, None].repeat(r, axis=2)


def _horner(tiles: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row i's polynomial (coefficients in ``_tiles`` form) at the points x[i], in np.polyval's order.

    Tiles of x's own shape make every step a same-shape operation.
    """
    y = np.zeros(x.shape, x.dtype)
    for c in tiles:
        y = y * x + c
    return y


def _aberth_refine(p: np.ndarray, roots: np.ndarray, max_iter: int = 30) -> np.ndarray:
    """Simultaneous Newton (Aberth-Ehrlich) polish of all roots of each row of p.

    A root stops moving when its residual is at the round-off floor of
    polynomial evaluation; roots whose update would not be finite are left
    at their companion-matrix estimate.  A row with no root left to move
    is a fixed point of the step, so every row takes the steps it would
    take alone.
    """
    m, deg = roots.shape
    pt, at, dpt = _tiles(p, deg), _tiles(np.abs(p), deg), None  # dpt once a step is taken
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            val = _horner(pt, roots)
            done = np.abs(val) <= 64.0 * _EPS * _horner(at, np.abs(roots)) + 1e-300
            if done.all():
                break
            if dpt is None:
                dpt = _tiles(p[:, :-1] * np.arange(deg, 0, -1), deg)
            dval = _horner(dpt, roots)
            newton = np.where(dval != 0.0, val / np.where(dval != 0.0, dval, 1.0), 0.0)
            diff = roots[:, :, None] - roots[:, None, :]
            diff.reshape(m, -1)[:, :: deg + 1] = np.inf
            repulsion = (1.0 / diff).sum(axis=2)
            denom = 1.0 - newton * repulsion
            step = np.where(np.abs(denom) > 1e-30, newton / np.where(denom != 0.0, denom, 1.0), newton)
            ok = ~done & np.isfinite(step)
            if not ok.any():
                break
            roots = np.where(ok, roots - step, roots)
    return roots


def _polynomial_roots(c: np.ndarray) -> np.ndarray:
    """All roots of each row of c (m, deg+1), coefficients highest degree first.

    Both end coefficients must be non-negligible.  Stacked companion-matrix
    eigenvalues seed an Aberth-Ehrlich refinement; a row whose constant
    term dominates its leading one is worked on reversed, so large roots
    are handled as small roots of the reverse.
    """
    m, deg = c.shape[0], c.shape[1] - 1
    if deg == 1:
        return -c[:, 1:] / c[:, :1]
    reverse = np.abs(c[:, -1]) > np.abs(c[:, 0])
    work = np.where(reverse[:, None], c[:, ::-1], c)
    work /= np.abs(work).max(axis=1, keepdims=True)
    companion = np.zeros((m, deg, deg), dtype=np.complex128)
    companion[:, 0] = -work[:, 1:] / work[:, :1]
    companion.reshape(m, -1)[:, deg :: deg + 1] = 1.0  # the subdiagonal
    roots = _aberth_refine(work, np.linalg.eigvals(companion))
    if reverse.any():
        flipped = roots[reverse]
        roots[reverse] = 1.0 / np.where(np.abs(flipped) < 1e-300, 1e-300, flipped)
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


def _collapse_degenerate_clusters(d: np.ndarray, v: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Pin clusters of stars that represent one multiple root.

    An m-fold root scatters companion-matrix eigenvalues on a ring of
    radius ~eps**(1/m); whenever m stars sit within that resolution limit
    of each other they are replaced by m copies of the derivative-refined
    root.  Every replacement is verified by reconstruction fidelity
    against the Dicke row d and reverted if it measurably changes it.
    """
    n = len(v)
    if n < 2:
        return v
    dist = _geodesic(v, v)
    np.fill_diagonal(dist, np.inf)
    frozen = np.zeros(n, dtype=bool)  # members of an accepted collapse
    tried: set[bytes] = set()
    # reach[k]: the smallest radius within which some star has k + 1 others
    reach = np.sort(dist, axis=1).min(axis=0)
    stages = [n] + list(range(min(n - 1, 12), 1, -1))
    for m in stages:
        tau = 12.0 * _EPS ** (1.0 / m)
        # a qualifying cluster has diameter <= tau, i.e. it is a clique in
        # the tau-graph, so some member sees all the others as neighbors
        need = max(m, 2) - 1
        if reach[need - 1] > tau:
            continue
        within = dist <= tau
        counts = within.sum(axis=1)
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
            if abs(np.vdot(_state_from_pairs(_pairs(trial)).d, d)) >= 1.0 - 1e-12:
                v = trial
                frozen[comp] = True
                dist = _geodesic(v, v)
                np.fill_diagonal(dist, np.inf)
                reach = np.sort(dist, axis=1).min(axis=0)
    return v


def _star_vectors_batch(d: np.ndarray) -> np.ndarray:
    """The stars of normalized Dicke rows d (m, n+1) as unit vectors (m, n, 3).

    Each row's stars are sorted by (theta, phi) and include its pole
    multiplicities, exactly as that row alone would give them: rows of one
    effective degree share one stacked root solve, and only rows whose
    closest pair is within twice the widest collapse threshold go to the
    cluster collapse.  Raises DomainError when a root finds no place on the
    sphere.
    """
    m, n = d.shape[0], d.shape[1] - 1
    coeffs = _signed_sqrt_binom(n) * d  # index k multiplies w^(n-k)
    mags = np.abs(coeffs)
    scale = mags.max(axis=1, keepdims=True)  # > 0 for normalized rows
    first, last = _pole_strip(mags)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(zip(first.tolist(), last.tolist())):
        groups.setdefault(key, []).append(i)
    # per row: `first` south poles, then `n - last` north poles (w = 0), then the roots
    w = np.zeros((m, n), dtype=np.complex128)
    for (f, l), members in groups.items():
        if l > f:
            rows = slice(None) if len(groups) == 1 else members
            w[rows, n - l + f :] = _polynomial_roots(coeffs[rows, f : l + 1] / scale[rows])
    rows = (last > first).nonzero()[0]
    v = _chart(w) if rows.size else np.zeros((m, n, 3)) + (0.0, 0.0, 1.0)
    if first.any():
        v[np.arange(n) < first[:, None]] = (0.0, 0.0, -1.0)
    tau = 12.0 * _EPS ** (1.0 / n)  # of the widest collapse stage, m = n
    if rows.size and 2.0 * tau < math.pi:
        # keep the rows whose closest pair lies within 2 tau; twice, so that
        # no rounding of the Gram matrix can drop a row a stage would act on
        near = v if rows.size == m else v[rows]
        gram = near @ near.swapaxes(1, 2)
        gram.reshape(rows.size, n * n)[:, :: n + 1] = -1.0
        rows = rows[gram.max(axis=(1, 2)) >= math.cos(2.0 * tau)]
    for i in rows.tolist():
        v[i] = _collapse_degenerate_clusters(d[i], v[i], coeffs[i] / scale[i])
    order = np.lexsort(_angles(v)[::-1], axis=-1)  # by theta, then phi
    return v[np.arange(m)[:, None], order]


def _star_vectors(state: SymmetricState) -> np.ndarray:
    """The n star unit vectors of a state, (n, 3), sorted by (theta, phi); see _star_vectors_batch."""
    return _star_vectors_batch(state.d[None])[0]


def state_to_stars(state: SymmetricState) -> Constellation:
    """Majorana constellation of a symmetric state.

    Returns exactly n stars including pole multiplicities, sorted by
    (theta, phi) so equal states give identical output.
    """
    return Constellation(state.n, Star._from_unit_rows(_star_vectors(state)))


def stars_to_state(c: Constellation) -> SymmetricState:
    """Vieta reconstruction: the unique state whose constellation is c."""
    return _state_from_pairs(_pairs(c.as_array()))


def constellation_to_json(c: Constellation) -> str:
    """{"n": ..., "stars": [{"theta": ..., "phi": ...}, ...]}, numbers as ``_floats`` writes them."""
    thetas, phis = _angles(c.as_array())
    entries = ", ".join(f'{{"theta": {t}, "phi": {p}}}' for t, p in zip(_floats(thetas), _floats(phis)))
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
    """CSV of the stars in stored order: star_index,theta,phi,x,y,z, numbers as ``_floats`` writes them."""
    v = c.as_array()
    return _csv("star_index,theta,phi,x,y,z", [[str(i) for i in range(c.n)], *_angles(v), *v.T])
