import math

import numpy as np
import pytest
from conftest import haar_state, match_constellations, uniform_qubit, uniform_star
from hypothesis import given, settings
from hypothesis import strategies as hs

import stellar as st
from stellar import stars
from stellar.errors import DomainError
from stellar.stars import _star_vectors

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

    def test_antipode(self):
        s = uniform_star(RNG)
        assert st.geodesic_distance(s, s.antipode()) == pytest.approx(math.pi, abs=1e-12)


class TestStateToStars:
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


class TestNonFiniteRoots:
    """A root the chart cannot place raises DomainError on every path."""

    @pytest.fixture
    def nan_roots(self, monkeypatch):
        monkeypatch.setattr(stars, "_polynomial_roots", lambda c: np.full(len(c) - 1, complex(np.nan, 0.0)))

    def test_state_to_stars(self, nan_roots):
        with pytest.raises(DomainError):
            st.state_to_stars(_haar_from_seed(4, 7))

    def test_e_b(self, nan_roots):
        with pytest.raises(DomainError):
            st.e_b(_haar_from_seed(4, 7))

    def test_e_g(self, nan_roots):
        with pytest.raises(DomainError):
            st.e_g(_haar_from_seed(4, 7), grid=(8, 16))

    def test_evolve(self, nan_roots):
        h = st.build_matrix(st.parse("sym(Z Z I)"))
        with pytest.raises(DomainError):
            st.evolve(h, _haar_from_seed(3, 7), [0.0, 0.1])


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

    @pytest.mark.parametrize("text", ["{", "", "[1, 2", '{"n": 1, "stars": [{"theta": 0.1}]}'])
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
