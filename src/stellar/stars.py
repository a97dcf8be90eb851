"""The two-way Majorana map between symmetric states and star constellations.

A symmetric n-qubit state with Dicke coefficients d_k is encoded by the
polynomial

    A(w) = sum_k (-1)^k sqrt(C(n, k)) d_k w^(n-k),

whose roots, pulled back to the sphere through the stereographic chart
theta = 2*atan|w|, phi = arg w, are the n stars.  Vanishing leading
coefficients are roots at infinity, i.e. stars at the south pole; the
convention is fixed so that the constellation of a product state
|q>^(x n) is n copies of q's own Bloch vector.

A multiple star (n of them for a coherent state) comes out of the root
solve as a ring of simple roots.  Each root carries the radius of its
Weierstrass inclusion disc, and an exact pole star radius 0.  Stars whose
discs overlap or lie within 12 sqrt(eps), but not two pole stars, form
one cluster, collapsed into one multiple star when the state confirms it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, _index
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
# two roots this close are near whatever their discs: a double root of a rounded row splits by ~sqrt(eps)
_NEAR = 12.0 * math.sqrt(_EPS)


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


def _pairs(v: np.ndarray) -> list[list[complex]]:
    """Amplitudes [a, b] of the qubit a|0> + b|1> at each star of v (n, 3); exact at the south pole."""
    theta, phi = _angles(v)
    half = theta / 2.0
    pairs = np.empty((len(v), 2), dtype=np.complex128)
    pairs[:, 0], pairs[:, 1] = np.cos(half), np.exp(1j * phi) * np.sin(half)
    pairs[theta == math.pi] = (0.0, 1.0)
    return pairs.tolist()


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
            fields = star.__dict__  # written directly: the frozen __setattr__ refuses them
            fields["x"], fields["y"], fields["z"] = x, y, z
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
        n = _index(self.n, "a constellation needs an integer count of at least one star", 1)
        stars = tuple(self.stars)
        if len(stars) != n:
            raise DomainError(f"expected {n} stars, got {len(stars)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "stars", stars)

    def as_array(self) -> np.ndarray:
        return np.array([(s.x, s.y, s.z) for s in self.stars])


def _geodesic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Great-circle distances between the unit vectors a (..., k, 3) and b (..., l, 3), shape (..., k, l)."""
    return np.arccos((a @ b.swapaxes(-1, -2)).clip(-1.0, 1.0))


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
    m, k = mags.shape
    tol = _STRIP_TOL * mags
    # strippable[0] from the front, [1] from the back; the False left in the last column ends every run
    strippable = np.zeros((2, m, k), dtype=bool)
    np.less_equal(mags[:, :-1], tol[:, 1:], out=strippable[0, :, :-1])
    np.less_equal(mags[:, :0:-1], tol[:, -2::-1], out=strippable[1, :, :-1])
    lead, trail = strippable.argmin(axis=2)
    return lead, k - 1 - trail


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
    if np.count_nonzero(np.isnan(phi)):
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
    """Row i's polynomial (coefficients in ``_tiles`` form) at the points x[i], by Horner's rule as numpy's polyval.

    Tiles of x's own shape make every step a same-shape operation, done in place.
    """
    y = np.zeros(x.shape, x.dtype)
    for c in tiles:
        y *= x
        y += c
    return y


def _aberth_refine(p: np.ndarray, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneous Newton (Aberth-Ehrlich) polish of r roots of each degree-deg row of p, up to 30 steps.

    The roots repel only each other, so one root (r = 1) takes Newton
    steps.  A root stops moving when its residual is at the round-off
    floor of polynomial evaluation, and one whose update would not be
    finite is left where it is.  A row with no root left to move
    is a fixed point of the step, so every row takes the steps it would
    take alone.  Also returns the residual bounds at the returned roots,
    |A(x)| + 4 deg eps sum_k |a_k| |x|^(deg-k), from the last evaluation.
    Runs under the caller's ``np.errstate(all="ignore")``.
    """
    (m, r), deg = roots.shape, p.shape[1] - 1
    pt, at, dpt = _tiles(p, r), _tiles(np.abs(p), r), None  # dpt once a step is taken
    for steps in range(31):
        val, size = _horner(pt, roots), _horner(at, np.abs(roots))
        residual = np.abs(val)
        done = residual <= 64.0 * _EPS * size + 1e-300
        if steps == 30 or np.count_nonzero(done) == done.size:
            break
        if dpt is None:
            dpt = _tiles(p[:, :-1] * np.arange(deg, 0, -1), r)
        dval = _horner(dpt, roots)
        newton = np.where(dval != 0.0, val / np.where(dval != 0.0, dval, 1.0), 0.0)
        diff = roots[:, :, None] - roots[:, None, :]
        diff.reshape(m, -1)[:, :: r + 1] = np.inf
        repulsion = (1.0 / diff).sum(axis=2)
        denom = 1.0 - newton * repulsion
        step = np.where(np.abs(denom) > 1e-30, newton / np.where(denom != 0.0, denom, 1.0), newton)
        ok = ~done & np.isfinite(step)
        if not ok.any():
            break
        roots = np.where(ok, roots - step, roots)
    return roots, residual + 4.0 * deg * _EPS * size


def _polynomial_roots(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All roots of each row of c (m, deg+1), coefficients highest degree first, and their disc radii.

    Both end coefficients must be non-negligible.  Stacked companion-matrix
    eigenvalues seed an Aberth-Ehrlich refinement; a row whose constant
    term dominates its leading one is worked on reversed, so large roots
    are handled as small roots of the reverse.  A root's radius, capped at
    pi, is the angle 2 deg W / (1 + |x|^2) of its inclusion disc in that
    chart, from its Weierstrass correction W = bound / |a_0 prod_{j != i} (x - x_j)|
    (Bini & Robol 2014); degree 1 gives 0.
    """
    m, deg = c.shape[0], c.shape[1] - 1
    if deg == 1:
        return -c[:, 1:] / c[:, :1], np.zeros((m, 1))
    ends = np.abs(c[:, ::deg])  # the first and the last coefficient
    reverse = ends[:, 1] > ends[:, 0]
    work = np.where(reverse[:, None], c[:, ::-1], c)
    work /= np.abs(work).max(axis=1, keepdims=True)
    companion = np.zeros((m, deg, deg), dtype=np.complex128)
    companion[:, 0] = -work[:, 1:] / work[:, :1]
    companion.reshape(m, -1)[:, deg :: deg + 1] = 1.0  # the subdiagonal
    with np.errstate(all="ignore"):
        roots, bound = _aberth_refine(work, np.linalg.eigvals(companion))
        gaps = np.abs(roots[:, :, None] - roots[:, None, :])
        gaps.reshape(m, -1)[:, :: deg + 1] = 1.0
        # the product as a sum of logs; a coincident pair gives inf, NaN gives pi
        log_w = np.log(deg * bound / np.abs(work[:, :1])) - np.log(gaps).sum(axis=2)
        radii = np.fmin(2.0 * np.exp(log_w) / (1.0 + np.abs(roots) ** 2), math.pi)
        if np.count_nonzero(reverse):
            roots = np.where(reverse[:, None], 1.0 / np.where(np.abs(roots) < 1e-300, 1e-300, roots), roots)
    return roots, radii


def _refine_multiple_root(coeffs: np.ndarray, u: np.ndarray, m: int) -> np.ndarray:
    """The m-fold root of ``coeffs`` (highest degree first) next to the unit vector u, as a unit vector (3,).

    The root is a simple root of the (m-1)-th derivative, which
    ``_aberth_refine`` polishes with Newton steps from u's chart point.
    Each derivative is scaled by the power of two that brings its largest
    coefficient below 1: exact, so no step changes, and the chain cannot
    overflow.  Below the equator the reversed polynomial is used, whose
    roots 1/w are the chart points (x - iy) / (1 - z) of the mirror images
    (x, -y, -z): the pole chart stays regular, and mirroring back is exact.
    """
    x, y, z = u.tolist()
    south = z < 0.0
    q = coeffs[::-1] if south else coeffs
    for _ in range(m - 1):
        q = np.polyder(q)
        q = q * 2.0 ** -math.frexp(float(np.abs(q).max()))[1]
    with np.errstate(all="ignore"):
        root = _aberth_refine(q[None], np.array([[complex(x, -y if south else y) / (1.0 + abs(z))]]))[0]
    v = _chart(root[0, 0])
    return v * (1.0, -1.0, -1.0) if south else v


def _clusters(near: np.ndarray) -> list[np.ndarray]:
    """The connected components of two or more stars of a symmetric pair mask (n, n), as sorted indices."""
    label, old = np.arange(len(near)), None
    while old is None or (label != old).any():  # each star takes the smallest label of its near stars
        old, label = label, np.minimum(label, np.where(near, label, len(near)).min(axis=1))
    return [c for c in (np.flatnonzero(label == i) for i in np.unique(label)) if c.size > 1]


def _resolve_clusters(d: np.ndarray, v: np.ndarray, coeffs: np.ndarray, g: np.ndarray, radii: np.ndarray, near: np.ndarray) -> np.ndarray:
    """Collapse each cluster of a row's stars v (n, 3) into one multiple star.

    A cluster is a connected component of the ``near`` pairs of stars, at
    distances g with disc radii ``radii``.  Its stars become copies of the
    multiple root refined from their centroid, kept if they still give the
    Dicke row d to fidelity 1 - 1e-12.  A cluster that fails is split once:
    each component of its pairs that lie within both discs and no further
    apart than its largest nearest-neighbour distance is tried alone.
    Raises NumericError when the stars then miss d.
    """
    todo = [(comp, True) for comp in _clusters(near)]
    for members, whole in todo:  # a failed whole cluster appends its parts
        centroid = v[members].mean(axis=0)
        if (norm := float(np.linalg.norm(centroid))) >= 1e-6:
            trial = v.copy()
            trial[members] = _refine_multiple_root(coeffs, centroid / norm, members.size)
            if abs(np.vdot(_state_from_pairs(_pairs(trial)).d, d)) >= 1.0 - 1e-12:
                v = trial
                continue
        if whole:
            sub = g[np.ix_(members, members)]
            mutual = sub <= np.maximum(np.minimum.outer(radii[members], radii[members]), _NEAR)
            todo += [(members[p], False) for p in _clusters(mutual & (sub <= sub.min(axis=1).max())) if p.size < members.size]
    if (fid := abs(np.vdot(_state_from_pairs(_pairs(v)).d, d))) < 1.0 - 1e-12:
        raise NumericError(f"the stars of a clustered row give the state to fidelity {fid!r} only")
    return v


def _star_vectors_batch(d: np.ndarray) -> np.ndarray:
    """The stars of normalized Dicke rows d (m, n+1) as unit vectors (m, n, 3).

    Each row's stars are sorted by (theta, phi) and include its pole
    multiplicities, exactly as that row alone would give them: rows of one
    effective degree share one stacked root solve, and a one-row call is
    this core at m = 1, with no path of its own.  One rule tests every row:
    two stars are near when their inclusion discs overlap or they lie within
    _NEAR; a pole star is exact, with radius 0, and two pole stars are never
    near.  Near pairs go to ``_resolve_clusters`` row by row.  Raises
    DomainError when a root finds no place on the sphere, and NumericError
    when a cluster is left that misses the row.
    """
    m, n = d.shape[0], d.shape[1] - 1
    coeffs = _signed_sqrt_binom(n) * d  # index k multiplies w^(n-k)
    mags = np.abs(coeffs)
    scale = mags.max(axis=1, keepdims=True)  # > 0 for normalized rows
    first, last = _pole_strip(mags)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(zip(first.tolist(), last.tolist())):
        groups.setdefault(key, []).append(i)
    # per row: `first` south poles, then `n - last` north poles (w = 0), then the roots;
    # a pole star is exact, so its radius is 0
    w = np.zeros((m, n), dtype=np.complex128)
    radii = np.zeros((m, n))
    for (f, l), members in groups.items():
        if l > f:
            rows = slice(None) if len(groups) == 1 else members
            w[rows, n - l + f :], radii[rows, n - l + f :] = _polynomial_roots(coeffs[rows, f : l + 1] / scale[rows])
    v = _chart(w)
    if np.count_nonzero(first):
        v[np.arange(n) < first[:, None]] = (0.0, 0.0, -1.0)
    g = _geodesic(v, v)
    g.reshape(m, n * n)[:, :: n + 1] = np.inf
    # two pole stars coincide or are antipodes already, so only their pairs are left out
    pole = np.arange(n) < (n - last + first)[:, None]
    near = (g <= np.maximum(radii[:, :, None] + radii[:, None, :], _NEAR)) & ~(pole[:, :, None] & pole[:, None, :])
    for i in near.any(axis=(1, 2)).nonzero()[0].tolist():
        v[i] = _resolve_clusters(d[i], v[i], coeffs[i] / scale[i], g[i], radii[i], near[i])
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
        n = doc["n"]  # read as an integer by Constellation
        stars = tuple(Star.from_angles(float(e["theta"]), float(e["phi"])) for e in doc["stars"])
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise DomainError(f"malformed constellation JSON: {exc}") from exc
    return Constellation(n, stars)


def constellation_to_csv(c: Constellation) -> str:
    """CSV of the stars in stored order: star_index,theta,phi,x,y,z, numbers as ``_floats`` writes them."""
    v = c.as_array()
    return _csv("star_index,theta,phi,x,y,z", [[str(i) for i in range(c.n)], *_angles(v), *v.T])
