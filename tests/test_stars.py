import math

import numpy as np
import pytest
from conftest import haar_state, match_constellations, uniform_qubit, uniform_star
from hypothesis import given, settings
from hypothesis import strategies as hs

import stellar as st
from stellar import stars
from stellar.errors import DomainError, NumericError
from stellar.stars import _star_vectors, _star_vectors_batch
from stellar.states import _sqrt_binom

RNG = np.random.default_rng(99)


class TestStereographic:
    def test_origin_is_north_pole(self):
        s = st.plane_to_sphere(0j)
        assert s.z == pytest.approx(1.0, abs=1e-15)

    def test_unit_circle_is_equator(self):
        s = st.plane_to_sphere(np.exp(0.3j))
        assert abs(s.z) < 1e-15

    def test_south_pole_maps_to_infinity_marker(self):
        assert st.sphere_to_plane(st.Star(0.0, 0.0, -1.0)) is None

    @given(hs.floats(-8, 8), hs.floats(-8, 8))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, re, im):
        w = complex(re, im)
        back = st.sphere_to_plane(st.plane_to_sphere(w))
        assert back is not None
        assert abs(back - w) <= 1e-14 * max(1.0, abs(w) ** 2)

    def test_near_south_pole_stays_finite(self):
        s = st.Star.from_angles(math.pi - 1e-9, 1.0)
        w = st.sphere_to_plane(s)
        assert w is not None and np.isfinite(abs(w))


class TestStar:
    def test_from_angles_consistency(self):
        q = uniform_qubit(RNG)
        s = st.Star.from_angles(q.theta, q.phi)
        assert s.theta == pytest.approx(q.theta, abs=1e-12)
        assert s.phi == pytest.approx(q.phi, abs=1e-12)

    def test_not_on_sphere_rejected(self):
        with pytest.raises(DomainError):
            st.Star(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("n,count,match", [(0, 0, "at least one"), (-1, 0, "at least one"), (3, 2, "expected 3")])
    def test_constellation_size_is_domain_error(self, n, count, match):
        with pytest.raises(DomainError, match=match) as err:
            st.Constellation(n, [st.Star(0.0, 0.0, 1.0)] * count)
        assert type(err.value) is DomainError

    def test_antipode(self):
        s = uniform_star(RNG)
        assert st.geodesic_distance(s, s.antipode()) == pytest.approx(math.pi, abs=1e-12)


class TestStateToStars:
    @given(hs.integers(1, 24), hs.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stars_are_the_constructor_stars(self, n, seed):
        # the stars are built row-wise from the core's vectors, bit for bit as Star(x, y, z) builds each
        rng = np.random.default_rng(seed)
        states = [haar_state(n, rng), st.dicke_state(n, int(rng.integers(0, n + 1)))]
        if n > 2:
            states.append(_cluster_state(2, n, 1.0, 0.3, "poles"))
        for state in states:
            got = np.array([(s.x, s.y, s.z) for s in st.state_to_stars(state).stars])
            want = np.array([(s.x, s.y, s.z) for s in (st.Star(*row) for row in _star_vectors(state).tolist())])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (5, 0), (5, 5), (7, 3)])
    def test_dicke_pole_pattern(self, n, k):
        c = st.state_to_stars(st.dicke_state(n, k))
        zs = sorted(s.z for s in c.stars)
        assert zs[:k] == [-1.0] * k
        assert zs[k:] == [1.0] * (n - k)

    def test_ghz3_equator_triangle(self):
        c = st.state_to_stars(st.ghz_state(3))
        for s in c.stars:
            assert abs(s.z) < 1e-12
        phis = sorted(s.phi for s in c.stars)
        gaps = np.diff(phis + [phis[0] + 2 * math.pi])
        assert np.allclose(gaps, 2 * math.pi / 3, atol=1e-9)

    def test_coherent_coincident(self):
        q = uniform_qubit(RNG)
        c = st.state_to_stars(st.coherent_state(6, q))
        anchor = st.Star.from_angles(q.theta, q.phi)
        for s in c.stars:
            assert st.geodesic_distance(s, anchor) < 1e-6

    def test_star_count_always_n(self):
        for _ in range(30):
            n = int(RNG.integers(1, 25))
            assert len(st.state_to_stars(haar_state(n, RNG)).stars) == n


def _haar_from_seed(n: int, seed: int) -> st.SymmetricState:
    return haar_state(n, np.random.default_rng(seed))


def _cluster_state(m: int, n: int, th0: float, ph0: float, others: str) -> st.SymmetricState:
    """An m-fold star at (th0, ph0) among pole stars or among its antipodes."""
    if others == "poles":
        rest = [st.QubitState(t) for t in np.repeat([0.0, math.pi], (n - m) // 2 + 1)[: n - m]]
    else:
        rest = [st.QubitState(math.pi - th0, ph0 + math.pi)] * (n - m)
    return st.compose(st.coherent_state(m, st.QubitState(th0, ph0)), st.symmetrize(rest))


# The serial star core as it was before the batch core, kept as a reference:
# one state at a time through np.roots and np.polyval.


def _serial_aberth(p, roots, max_iter=30):
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


def _serial_roots(c):
    """Roots of c and their disc radii, the radii from np.polyval residuals at the polished roots."""
    deg = len(c) - 1
    if deg == 1:
        return np.array([-c[1] / c[0]]), np.zeros(1)
    reverse = abs(c[-1]) > abs(c[0])
    work = c[::-1].copy() if reverse else c.copy()
    work /= np.abs(work).max()
    roots = _serial_aberth(work, np.roots(work))
    bound = np.abs(np.polyval(work, roots)) + 4.0 * deg * np.finfo(float).eps * np.polyval(np.abs(work), np.abs(roots))
    gaps = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(gaps, 1.0)
    with np.errstate(all="ignore"):
        weierstrass = bound / (abs(work[0]) * gaps.prod(axis=1))
        radii = np.fmin(2.0 * deg * weierstrass / (1.0 + np.abs(roots) ** 2), math.pi)
    if reverse:
        roots = np.where(np.abs(roots) < 1e-300, 1e-300, roots)
        roots = 1.0 / roots
    return roots, radii


def _serial_star_vectors(state):
    n = state.n
    coeffs = (-1.0) ** np.arange(n + 1) * _sqrt_binom(n) * state.d
    mags = np.abs(coeffs)
    scale = float(mags.max())
    first, last = (int(i[0]) for i in stars._pole_strip(mags[None]))
    v = np.repeat([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0]], [first, n - last], axis=0)
    pole = np.arange(n) < len(v)
    radii = np.zeros(n)  # a pole star is exact
    if last > first:
        roots, radii[len(v) :] = _serial_roots(coeffs[first : last + 1] / scale)
        v = np.concatenate([v, stars._chart(roots)])
    g = np.arccos(np.clip(v @ v.T, -1.0, 1.0))
    np.fill_diagonal(g, np.inf)
    near = g <= np.maximum(radii[:, None] + radii[None, :], 12.0 * math.sqrt(np.finfo(float).eps))
    near &= ~np.outer(pole, pole)  # two pole stars are never near
    if near.any():
        v = stars._resolve_clusters(state.d, v, coeffs / scale, g, radii, near)
    return v[np.lexsort(stars._angles(v)[::-1])]


class TestStarVectors:
    """The array core agrees row for row with the public constellation."""

    @staticmethod
    def _assert_same(state):
        v = _star_vectors(state)
        assert v.shape == (state.n, 3)
        assert np.abs(v - st.state_to_stars(state).as_array()).max() <= 1e-15

    @given(hs.integers(1, 24), hs.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_haar(self, n, seed):
        self._assert_same(_haar_from_seed(n, seed))

    @given(hs.lists(hs.booleans(), min_size=1, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_bitstrings_sit_on_the_poles(self, bits):
        state = st.symmetrize([st.QubitState(math.pi if b else 0.0) for b in bits])
        self._assert_same(state)
        z = _star_vectors(state)[:, 2]
        assert sorted(z) == [-1.0] * sum(bits) + [1.0] * (len(bits) - sum(bits))

    @pytest.mark.parametrize("n", [2, 5, 10, 20, 40])
    def test_coherent(self, n):
        q = uniform_qubit(np.random.default_rng(n))
        state = st.coherent_state(n, q)
        self._assert_same(state)
        anchor = st.Star.from_angles(q.theta, q.phi).as_array()
        assert np.abs(_star_vectors(state) - anchor).max() <= 1e-6

    @pytest.mark.parametrize("shape", [(3, 8, 1.0, "poles"), (4, 12, 2.0, "poles"), (5, 10, 0.7, "antipode")])
    @pytest.mark.parametrize("ph0", [0.3, 2.9, 5.1])
    def test_clusters(self, shape, ph0):
        m, n, th0, others = shape
        state = _cluster_state(m, n, th0, ph0, others)
        self._assert_same(state)
        anchor = st.Star.from_angles(th0, ph0).as_array()
        near = np.linalg.norm(_star_vectors(state) - anchor, axis=1) <= 1e-6
        assert near.sum() == m

    def test_sorted_by_theta_then_phi(self):
        v = _star_vectors(_haar_from_seed(9, 3))
        theta, phi = stars._angles(v)
        assert np.all(np.diff(theta) >= 0.0)
        assert np.all((np.diff(theta) > 0.0) | (np.diff(phi) >= 0.0))


class TestAngles:
    """phi from stars._angles lies in [0, 2*pi) for every finite vector."""

    @staticmethod
    def _assert_in_range(v):
        theta, phi = stars._angles(np.asarray(v, dtype=float))
        assert np.all((0.0 <= theta) & (theta <= math.pi))
        assert np.all((0.0 <= phi) & (phi < 2.0 * math.pi))
        return phi

    def test_rounding_level_y(self):
        v = [[1.0, -1e-17, 0.0], [1.0, 1e-17, 0.0], [1.0, -0.0, 0.0], [0.6, -1e-300, -0.8], [1e-300, -1e-300, 1.0]]
        phi = self._assert_in_range(v)
        assert list(phi[:4]) == [0.0, 1e-17, 0.0, 0.0]
        assert phi[4] == 1.75 * math.pi

    def test_poles_with_signed_zeros(self):
        v = [[x, y, z] for x in (0.0, -0.0) for y in (0.0, -0.0) for z in (1.0, -1.0)]
        assert list(self._assert_in_range(v)) == [0.0] * 8

    def test_tetrahedron_stars(self):
        self._assert_in_range(_star_vectors(st.tetrahedron_state()))
        self._assert_in_range(st.state_to_stars(st.tetrahedron_state()).as_array())

    @given(hs.lists(hs.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300), min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_finite_vectors(self, v):
        self._assert_in_range([v])


class TestStarVectorsBatch:
    """The batch core agrees row by row with the serial reference above."""

    @staticmethod
    def _assert_rows(states):
        out = _star_vectors_batch(np.array([s.d for s in states]))
        assert out.shape == (len(states), states[0].n, 3)
        for s, row in zip(states, out):
            assert np.abs(row - _serial_star_vectors(s)).max() <= 1e-15

    @given(hs.integers(1, 24), hs.lists(hs.integers(0, 2**32 - 1), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_haar(self, n, seeds):
        self._assert_rows([_haar_from_seed(n, seed) for seed in seeds])

    @given(hs.integers(1, 16), hs.lists(hs.integers(0, 2**16 - 1), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_bitstrings(self, n, masks):
        self._assert_rows(
            [st.symmetrize([st.QubitState(math.pi if mask >> q & 1 else 0.0) for q in range(n)]) for mask in masks]
        )

    @pytest.mark.parametrize("n", [2, 5, 10, 20, 40])
    def test_coherent(self, n):
        rng = np.random.default_rng(n)
        beside_a_pole = [st.QubitState(t, 0.3) for t in (1e-14, 1e-12, math.pi - 1e-12)]
        self._assert_rows([st.coherent_state(n, q) for q in [uniform_qubit(rng) for _ in range(4)] + beside_a_pole])

    @pytest.mark.parametrize("shape", [(3, 8, 1.0, "poles"), (4, 12, 2.0, "poles"), (5, 10, 0.7, "antipode")])
    def test_clusters(self, shape):
        m, n, th0, others = shape
        self._assert_rows([_cluster_state(m, n, th0, ph0, others) for ph0 in (0.3, 2.9, 5.1)])

    def test_mixed_pole_counts(self):
        # every (first, last) strip of a degree-7 row, with Haar rows between them
        rng = np.random.default_rng(17)
        states = []
        for first in range(8):
            for last in range(first, 8):
                d = np.zeros(8, dtype=complex)
                d[first : last + 1] = rng.normal(size=last + 1 - first) + 1j * rng.normal(size=last + 1 - first)
                states += [st.SymmetricState(7, d), haar_state(7, rng)]
        self._assert_rows(states)
        firsts = {int(np.sum(_serial_star_vectors(s)[:, 2] == -1.0)) for s in states}
        assert firsts == set(range(8))


class TestOneRowIsTheBatchCore:
    """A one-row call is the batch core at m = 1: its bytes are its row's in any batch."""

    @staticmethod
    def _mixed(n, seed):
        rng = np.random.default_rng(seed)
        rows = [haar_state(n, rng) for _ in range(3)]
        rows += [st.symmetrize([st.QubitState(math.pi * int(b)) for b in rng.integers(0, 2, n)]) for _ in range(2)]
        rows += [st.coherent_state(n, uniform_qubit(rng))]
        rows += [st.compose(st.coherent_state(n - 2, uniform_qubit(rng)), st.symmetrize([uniform_qubit(rng)] * 2))]
        rows += [st.symmetrize([st.QubitState(0.0)] + [uniform_qubit(rng) for _ in range(n - 2)] + [st.QubitState(math.pi)])]
        return [rows[i] for i in rng.permutation(len(rows))]

    @pytest.mark.parametrize("n", [3, 4, 8, 12, 16, 24])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_of_a_mixed_batch(self, n, seed):
        rows = self._mixed(n, seed)
        batch = _star_vectors_batch(np.array([s.d for s in rows]))
        for s, v in zip(rows, batch):
            assert _star_vectors(s).tobytes() == v.tobytes()
            want = np.array([(q.x, q.y, q.z) for q in st.Star._from_unit_rows(v)])
            assert st.state_to_stars(s).as_array().tobytes() == want.tobytes()

    @given(hs.lists(hs.tuples(hs.floats(0.0, math.pi), hs.floats(-1.0, 7.0)), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_as_array_is_the_stacked_star_arrays(self, angles):
        c = st.Constellation(len(angles), tuple(st.Star.from_angles(t, p) for t, p in angles))
        signed = st.Constellation(2, (st.Star(-0.0, 0.0, 1.0), st.Star(0.0, -0.0, -1.0)))
        for k in (c, signed):
            want = np.array([q.as_array() for q in k.stars])
            got = k.as_array()
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _star_of(q: st.QubitState) -> st.Star:
    return st.Star.from_angles(q.theta, q.phi)


# directions in both hemispheres, on the equator, and 1e-3, 1e-6 and 1e-13 rad from a pole; at n = 80 the row
# of a direction 1e-6 rad from a pole ends in (5e-7)**80, below the float range: it holds the pole itself
_FAR = [(0.3, 0.4), (2.0, 2.5), (math.pi / 2, 4.0), (1e-3, 0.7), (math.pi - 1e-3, 3.3)]
_NEAR = [(1e-6, 5.9), (math.pi - 1e-6, 1.3), (1e-13, 0.3)]
COHERENT_DIRECTIONS = [(n, *d) for n in (2, 3, 8, 20, 40, 80) for d in _FAR + (_NEAR if n <= 40 else [])]


class TestClusters:
    """Multiple stars found from overlapping inclusion discs, and rows that cannot be resolved."""

    def test_two_coherent_blocks(self):
        # a 5-fold and a 3-fold star at uniformly drawn places
        off = []
        for seed in range(400):
            rng = np.random.default_rng(seed)
            q1, q2 = uniform_qubit(rng), uniform_qubit(rng)
            state = st.compose(st.coherent_state(5, q1), st.coherent_state(3, q2))
            want = st.Constellation(8, (_star_of(q1),) * 5 + (_star_of(q2),) * 3)
            if match_constellations(want, st.state_to_stars(state)) > 1e-6:
                off.append(seed)
        assert off == []

    @staticmethod
    def _multiple_among_uniform(m: int, seed: int) -> st.Constellation:
        rng = np.random.default_rng(10_000 + seed)
        base = uniform_star(rng)
        return st.Constellation(m + 12, (base,) * m + tuple(uniform_star(rng) for _ in range(12)))

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_multiple_star_among_uniform_stars(self, m):
        off = []
        for seed in range(400):
            if (m, seed) == (5, 301):
                continue  # test_multiple_star_beside_a_close_star
            c = self._multiple_among_uniform(m, seed)
            if match_constellations(c, st.state_to_stars(st.stars_to_state(c))) > 1e-6:
                off.append(seed)
        assert off == []

    @pytest.mark.xfail(
        strict=True,
        reason="a simple star 7e-3 rad from the 5-fold star: the exact roots of the stored row "
        "are themselves 3.0e-3 rad from the drawn stars, and the stars come back 3.3e-3 off",
    )
    def test_multiple_star_beside_a_close_star(self):
        c = self._multiple_among_uniform(5, 301)
        assert match_constellations(c, st.state_to_stars(st.stars_to_state(c))) <= 1e-6

    @pytest.mark.parametrize("n, theta, phi", COHERENT_DIRECTIONS)
    def test_coherent_to_the_last_bits(self, n, theta, phi):
        q = st.QubitState(theta, phi)
        u = q.bloch_vector()
        v = _star_vectors(st.coherent_state(n, q))
        # the angle by atan2: arccos cannot resolve one below about 1e-8
        assert np.arctan2(np.linalg.norm(np.cross(v, u), axis=1), v @ u).max() <= 1e-14

    def test_coherent_beside_a_pole(self):
        # the pole strip pins some copies of a star this close to a pole onto the pole; the cluster rule must
        # join them to the copies left as roots again
        rng = np.random.default_rng(0)
        split, worst = [], 0.0
        for n in range(2, 14):
            for pole in (0.0, math.pi):
                for t in np.logspace(-16, -10, 61):
                    q = st.QubitState(abs(pole - t), rng.uniform(0.0, 2 * math.pi))
                    v = _star_vectors(st.coherent_state(n, q))
                    if not (v == v[0]).all():
                        split.append((n, q))
                    worst = max(worst, float(np.abs(v - q.bloch_vector()).max()))
        assert split == [] and worst <= 2e-13

    def test_pole_stars_alone_are_never_resolved(self, monkeypatch):
        # a Dicke row, and exact stars on both poles among roots, have near pairs only between pole stars
        calls = []
        monkeypatch.setattr(stars, "_resolve_clusters", lambda *args: calls.append(args))
        rng = np.random.default_rng(5)
        mixed = [st.QubitState(0.0)] * 2 + [st.QubitState(math.pi)] * 3 + [uniform_qubit(rng) for _ in range(3)]
        rows = [st.dicke_state(8, 3), st.symmetrize(mixed)]
        v = _star_vectors_batch(np.array([s.d for s in rows]))
        assert calls == []
        assert v[0].tolist() == [[0.0, 0.0, 1.0]] * 5 + [[0.0, 0.0, -1.0]] * 3
        assert (v[1, :2] == (0.0, 0.0, 1.0)).all() and (v[1, -3:] == (0.0, 0.0, -1.0)).all()

    def test_multiple_root_at_the_south_pole(self):
        # w + 2 and three roots at infinity: the reversed row has its triple root at 0, where the polish starts
        v = stars._refine_multiple_root(np.array([0, 0, 0, 1, 2], complex), np.array([0.0, 0.0, -1.0]), 3)
        assert v.tolist() == [0.0, 0.0, -1.0]

    @pytest.mark.parametrize("n", [200, 400, 1000])
    def test_coherent_at_large_n(self, n):
        q = uniform_qubit(np.random.default_rng(n))
        assert np.abs(_star_vectors(st.coherent_state(n, q)) - _star_of(q).as_array()).max() <= 1e-13

    @pytest.mark.parametrize("n", [200, 300])
    def test_uniform_stars_at_large_n(self, n):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            state = st.stars_to_state(st.Constellation(n, tuple(uniform_star(rng) for _ in range(n))))
            assert st.fidelity(state, st.stars_to_state(st.state_to_stars(state))) >= 1.0 - 1e-15

    def test_uniform_stars_at_400_return_or_raise(self):
        # draw 0 leaves a cluster that would miss the state by 1 - F = 1.1e-2: it raises instead
        for seed in range(3):
            rng = np.random.default_rng(seed)
            state = st.stars_to_state(st.Constellation(400, tuple(uniform_star(rng) for _ in range(400))))
            try:
                back = st.stars_to_state(st.state_to_stars(state))
            except NumericError:
                continue
            assert st.fidelity(state, back) >= 1.0 - 1e-15

    @pytest.mark.parametrize("m,k", [(40, 40), (60, 30), (80, 20)])
    def test_unresolved_cluster_raises(self, m, k):
        rng = np.random.default_rng(m + k)
        q = uniform_qubit(rng)
        with pytest.raises(NumericError):
            st.state_to_stars(st.symmetrize([q] * m + [uniform_qubit(rng) for _ in range(k)]))


class TestNonFiniteRoots:
    """A root the chart cannot place raises DomainError on every path that needs roots."""

    @pytest.fixture
    def nan_roots(self, monkeypatch):
        monkeypatch.setattr(
            stars,
            "_polynomial_roots",
            lambda c: (np.full((c.shape[0], c.shape[1] - 1), complex(np.nan, 0.0)), np.zeros((c.shape[0], c.shape[1] - 1))),
        )

    def test_state_to_stars(self, nan_roots):
        with pytest.raises(DomainError):
            st.state_to_stars(_haar_from_seed(4, 7))

    def test_e_b(self, nan_roots):
        with pytest.raises(DomainError):
            st.e_b(_haar_from_seed(4, 7))

    def test_e_g(self, request, monkeypatch):
        # E_G reads the Husimi function alone: no roots, so no DomainError
        state = _haar_from_seed(4, 7)
        want = st.e_g(state, grid=(8, 16))
        request.getfixturevalue("nan_roots")
        calls = []
        core = stars._star_vectors_batch
        monkeypatch.setattr(stars, "_star_vectors_batch", lambda d: calls.append(d) or core(d))
        assert st.e_g(state, grid=(8, 16)) == want
        assert calls == []
        with pytest.raises(DomainError):
            st.e_b(state)
        assert len(calls) == 1

    def test_evolve(self, nan_roots):
        h = st.build_matrix(st.parse("sym(Z Z I)"))
        with pytest.raises(DomainError):
            st.evolve(h, _haar_from_seed(3, 7), [0.0, 0.1])

    @pytest.mark.parametrize("w", [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.inf, np.nan), complex(np.nan, np.inf)])
    def test_chart_refuses_a_nan_part(self, w):
        with pytest.raises(DomainError):
            stars._chart(np.array([[0.5 + 0.5j, w]]))
        with pytest.raises(DomainError):
            st.plane_to_sphere(w)

    @pytest.mark.parametrize("w", [0j, complex(np.inf, 0.0), complex(-np.inf, np.inf), complex(1e300, -1e300), 1e-300j])
    def test_chart_places_every_other_point(self, w):
        v = stars._chart(np.array([w]))
        assert np.abs(np.linalg.norm(v, axis=-1) - 1.0).max() <= 1e-15

    def test_one_nan_row_fails_the_batch(self, monkeypatch):
        rows = np.array([_haar_from_seed(4, seed).d for seed in range(5)])
        assert _star_vectors_batch(rows).shape == (5, 4, 3)
        solve = stars._polynomial_roots

        def last_row_nan(c):
            roots, radii = solve(c)
            roots[-1, 0] = complex(np.nan, 0.0)
            return roots, radii

        monkeypatch.setattr(stars, "_polynomial_roots", last_row_nan)
        with pytest.raises(DomainError):
            _star_vectors_batch(rows)


class TestStarsToState:
    def test_all_north_is_ground(self):
        c = st.Constellation(4, tuple([st.Star(0, 0, 1)] * 4))
        assert st.fidelity(st.stars_to_state(c), st.dicke_state(4, 0)) == pytest.approx(1.0)

    def test_north_south_is_bell(self):
        c = st.Constellation(2, (st.Star(0, 0, 1), st.Star(0, 0, -1)))
        assert np.allclose(st.stars_to_state(c).d, [0, 1, 0], atol=1e-15)

    def test_round_trip_states(self):
        for _ in range(60):
            n = int(RNG.integers(2, 51))
            s = haar_state(n, RNG)
            back = st.stars_to_state(st.state_to_stars(s))
            assert st.fidelity(s, back) >= 1 - 1e-9

    def test_round_trip_constellations(self):
        for _ in range(30):
            n = int(RNG.integers(2, 31))
            c = st.Constellation(n, tuple(uniform_star(RNG) for _ in range(n)))
            back = st.state_to_stars(st.stars_to_state(c))
            assert match_constellations(c, back) <= 1e-7

    def test_round_trip_with_triple_star(self):
        base = uniform_star(RNG)
        others = [uniform_star(RNG) for _ in range(3)]
        c = st.Constellation(6, tuple([base] * 3 + others))
        back = st.state_to_stars(st.stars_to_state(c))
        assert match_constellations(c, back) <= 1e-5


class TestPoleStrip:
    """Only a coefficient negligible against its inner neighbour is a star on a pole."""

    @given(hs.sampled_from([12, 16, 24, 32]), hs.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_stars_near_the_poles(self, n, seed):
        # every star within 0.3 rad of a pole: the coefficients fall like r**k towards the ends
        rng = np.random.default_rng(seed)
        offset = rng.uniform(0.0, 0.3, n)
        thetas = np.where(rng.random(n) < 0.5, offset, math.pi - offset)
        c = st.Constellation(n, tuple(map(st.Star.from_angles, thetas, rng.uniform(0.0, 2.0 * math.pi, n))))
        assert match_constellations(st.state_to_stars(st.stars_to_state(c)), c) <= 1e-6

    def test_uniform_stars_at_56(self):
        rng = np.random.default_rng(56)
        for _ in range(40):
            c = st.Constellation(56, tuple(uniform_star(rng) for _ in range(56)))
            assert match_constellations(st.state_to_stars(st.stars_to_state(c)), c) <= 1e-6

    @pytest.mark.parametrize("n", [3, 8, 20])
    @pytest.mark.parametrize("tiny", [1e-30, 1e-100, 1e-200, 1e-300, 1e-310, 5e-324])
    def test_tiny_end_coefficients(self, n, tiny):
        rng = np.random.default_rng(n)
        for _ in range(5):
            d = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            d[[0, -1]] = tiny
            s = st.SymmetricState(n, d)
            assert st.fidelity(s, st.stars_to_state(st.state_to_stars(s))) >= 1.0 - 1e-12

    def test_prefixes(self):
        mags = np.array([[0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 1e-20, 1.0, 1e-5, 0.0], [1e-20, 0.0, 1.0, 0.0, 0.0]])
        first, last = stars._pole_strip(mags)
        assert first.tolist() == [2, 2, 0] and last.tolist() == [2, 3, 2]


class TestRotationEquivariance:
    def _qubit_rotation(self, axis, angle):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        u = axis.as_array()
        return (
            math.cos(angle / 2) * np.eye(2)
            - 1j * math.sin(angle / 2) * (u[0] * sx + u[1] * sy + u[2] * sz)
        )

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_star_rotation_equals_spin_rotation(self, n):
        s = haar_state(n, RNG)
        axis = uniform_star(RNG)
        angle = RNG.uniform(0, 2 * math.pi)
        via_stars = st.rotate_state(s, axis, angle)

        u1 = self._qubit_rotation(axis, angle)
        un = u1
        for _ in range(n - 1):
            un = np.kron(un, u1)
        full = st.FullState(n, un @ st.embed_full(s).amps)
        via_spin = st.project_sym(full)
        assert st.fidelity(via_stars, via_spin) >= 1 - 1e-8


class TestMajoranaPolynomial:
    def test_dicke_degree_deficiency(self):
        p = st.majorana_polynomial(st.dicke_state(5, 2))
        assert p.degree == 3 and p.infinite_roots == 2
        expected = np.zeros(6)
        expected[2] = math.sqrt(math.comb(5, 2))
        assert np.allclose(p.coefficients, expected.astype(complex))

    def test_full_degree_for_generic_state(self):
        p = st.majorana_polynomial(haar_state(6, RNG))
        assert p.degree == 6 and p.infinite_roots == 0

    def test_roots_match_stars(self):
        s = haar_state(4, RNG)
        p = st.majorana_polynomial(s)
        signs = (-1.0) ** np.arange(5)
        roots = np.roots(signs * p.coefficients)
        from_poly = st.Constellation(4, tuple(st.plane_to_sphere(w) for w in roots))
        assert match_constellations(from_poly, st.state_to_stars(s)) <= 1e-6


class TestSerialization:
    def test_json_round_trip(self):
        c = st.state_to_stars(haar_state(5, RNG))
        back = st.constellation_from_json(st.constellation_to_json(c))
        assert match_constellations(c, back) <= 1e-15

    @pytest.mark.parametrize("text", [
        "{", "", "[1, 2", '{"n": 1, "stars": [{"theta": 0.1}]}',
        '{"n": 1e400, "stars": [{"theta": 0.1, "phi": 0}]}',
        '{"n": 1.9, "stars": [{"theta": 0.1, "phi": 0}]}',
        '{"n": false, "stars": []}',
        pytest.param('{"n": 1, "stars": [{"theta": 1%s, "phi": 0}]}' % ("0" * 400), id="theta-beyond-float"),
        pytest.param("[" * 100000 + "]" * 100000, id="nested-100000"),
    ])
    def test_malformed_json_is_domain_error(self, text):
        with pytest.raises(DomainError):
            st.constellation_from_json(text)

    def test_csv_columns(self):
        c = st.state_to_stars(st.dicke_state(2, 1))
        lines = st.constellation_to_csv(c).strip().split("\n")
        assert lines[0] == "star_index,theta,phi,x,y,z"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0" and len(first) == 6
