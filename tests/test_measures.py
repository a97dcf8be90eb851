import math

import numpy as np
import pytest
from conftest import haar_state, uniform_qubit, uniform_star

import stellar as st
from stellar.errors import DomainError
from stellar.measures import husimi_batch, husimi_gradient

RNG = np.random.default_rng(4711)

TETRA_THETA = math.acos(1 / math.sqrt(3))


class TestBarycenter:
    def test_antipodal_pair(self):
        s = uniform_star(RNG)
        c = st.Constellation(2, (s, s.antipode()))
        assert st.barycenter(c).d < 1e-15

    def test_coincident(self):
        s = uniform_star(RNG)
        c = st.Constellation(5, tuple([s] * 5))
        assert st.barycenter(c).d == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,k", [(10, 3), (6, 3), (9, 2), (20, 20)])
    def test_dicke_radius(self, n, k):
        c = st.state_to_stars(st.dicke_state(n, k))
        assert st.barycenter(c).d == pytest.approx(abs(n - 2 * k) / n, abs=1e-12)

    def test_dicke_10_3_value(self):
        assert st.barycenter(st.state_to_stars(st.dicke_state(10, 3))).d == pytest.approx(0.4)


class TestBarycentricMeasure:
    def test_two_qubit_family(self):
        for theta in np.linspace(0, math.pi, 25):
            s = st.symmetrize([st.QubitState(0, 0), st.QubitState(theta, 0)])
            assert st.e_b(s) == pytest.approx(1 - math.cos(theta / 2) ** 2, abs=1e-12)

    def test_three_qubit_family(self):
        for theta in np.linspace(0, math.pi, 25):
            s = st.symmetrize(
                [st.QubitState(0, 0), st.QubitState(theta, math.pi), st.QubitState(theta, 0)]
            )
            assert st.e_b(s) == pytest.approx(1 - ((2 * math.cos(theta) + 1) / 3) ** 2, abs=1e-12)

    def test_product_state_zero(self):
        q = uniform_qubit(RNG)
        assert st.e_b(st.coherent_state(7, q)) == pytest.approx(0.0, abs=1e-12)

    def test_range_and_coincidence(self):
        for _ in range(30):
            s = haar_state(int(RNG.integers(2, 12)), RNG)
            value = st.e_b(s)
            assert 0.0 <= value <= 1.0

    def test_zero_iff_coincident(self):
        q = uniform_qubit(RNG)
        c = st.state_to_stars(st.coherent_state(5, q))
        arr = c.as_array()
        spread = max(
            st.geodesic_distance(a, b) for a in c.stars for b in c.stars
        )
        assert spread <= 1e-6 and st.e_b(c) <= 1e-12
        assert arr.shape == (5, 3)

    def test_antipodal_map_invariance(self):
        for _ in range(10):
            c = st.state_to_stars(haar_state(6, RNG))
            flipped = st.Constellation(6, tuple(s.antipode() for s in c.stars))
            assert st.e_b(flipped) == pytest.approx(st.e_b(c), abs=1e-14)


class TestGeometricMeasure:
    def test_ghz3(self):
        r = st.e_g(st.ghz_state(3))
        assert r.value == pytest.approx(1.0, abs=1e-8)

    def test_w4_value(self):
        assert st.e_g(st.dicke_state(4, 2)).value == pytest.approx(math.log2(8 / 3), abs=1e-8)

    def test_tetrahedron(self):
        s = st.rec_family_state(TETRA_THETA, math.pi / 2)
        assert st.e_g(s).value == pytest.approx(math.log2(3), abs=1e-8)

    def test_tetrahedron_state_is_the_family_member(self):
        s = st.tetrahedron_state()
        assert s.d.tobytes() == st.rec_family_state(TETRA_THETA, math.pi / 2).d.tobytes()
        v = st.state_to_stars(s).as_array()
        gram = v @ v.T
        assert np.abs(gram[~np.eye(4, dtype=bool)] + 1.0 / 3.0).max() <= 1e-12  # a regular tetrahedron

    def test_rec_family_has_one_home(self):
        from stellar import measures, states

        assert measures.rec_family_state is states.rec_family_state is st.rec_family_state

    def test_ghz4(self):
        assert st.e_g(st.ghz_state(4)).value == pytest.approx(1.0, abs=1e-8)

    def test_coherent_zero_with_witness(self):
        q = uniform_qubit(RNG)
        r = st.e_g(st.coherent_state(5, q))
        assert r.value == pytest.approx(0.0, abs=1e-9)
        w = st.Star.from_angles(r.witness.theta, r.witness.phi)
        assert st.geodesic_distance(w, st.Star.from_angles(q.theta, q.phi)) < 1e-5

    def test_nonnegative_and_zero_iff_coherent(self):
        for _ in range(15):
            s = haar_state(int(RNG.integers(2, 8)), RNG)
            r = st.e_g(s)
            assert r.value >= 0.0
            if r.value < 1e-9:
                coh = st.coherent_state(s.n, r.witness)
                assert st.fidelity(s, coh) >= 1 - 1e-9

    def test_value_overlap_consistency(self):
        r = st.e_g(haar_state(5, RNG))
        assert r.value == pytest.approx(-math.log2(r.overlap), abs=1e-12)

    def test_iteration_cap_error_carries_best(self):
        s = st.SymmetricState(5, np.arange(1, 7) * (1 + 0.5j))
        with pytest.raises(st.ConvergenceError) as err:
            st.e_g(s, max_iter=0)
        assert err.value.converged is False
        assert 0.0 <= err.value.best.value
        # the cap only degrades polish, not the basin choice
        assert abs(err.value.best.value - st.e_g(s).value) < 1e-3


class TestDickeClosedForm:
    @pytest.mark.parametrize("n,k", [(4, 2), (10, 3), (11, 5), (7, 1)])
    def test_matches_optimizer(self, n, k):
        assert st.e_g_dicke(n, k).value == pytest.approx(
            st.e_g(st.dicke_state(n, k)).value, abs=1e-8
        )

    def test_edges_zero(self):
        assert st.e_g_dicke(6, 0).value == 0.0
        assert st.e_g_dicke(6, 6).value == 0.0

    def test_witness_angle(self):
        r = st.e_g_dicke(10, 3)
        assert r.witness.theta == pytest.approx(2 * math.asin(math.sqrt(0.3)), abs=1e-12)

    def test_known_value(self):
        assert st.e_g_dicke(4, 2).value == pytest.approx(math.log2(8 / 3), abs=1e-15)


class TestHusimiZeros:
    def test_zeros_sit_antipodal_to_stars(self):
        # the documented convention, checked numerically rather than assumed
        for _ in range(10):
            n = int(RNG.integers(2, 9))
            s = haar_state(n, RNG)
            for star in st.state_to_stars(s).stars:
                anti = star.antipode()
                assert st.husimi(s, st.QubitState(anti.theta, anti.phi)) <= 1e-12
                assert st.husimi(s, st.QubitState(star.theta, star.phi)) > 1e-12


class TestHusimiGradient:
    def test_against_central_differences(self):
        # relative error <= 1e-6 at random interior points
        h = 1e-6
        for _ in range(100):
            n = int(RNG.integers(1, 13))
            s = haar_state(n, RNG)
            th = RNG.uniform(0.1, math.pi - 0.1)
            ph = RNG.uniform(0, 2 * math.pi)
            g = husimi_gradient(s, [th], [ph])[0]
            fd_t = (husimi_batch(s, [th + h], [ph])[0] - husimi_batch(s, [th - h], [ph])[0]) / (2 * h)
            fd_p = (husimi_batch(s, [th], [ph + h])[0] - husimi_batch(s, [th], [ph - h])[0]) / (2 * h)
            scale = max(1e-8, abs(fd_t), abs(fd_p))
            assert abs(g[0] - fd_t) <= 1e-6 * scale + 1e-9
            assert abs(g[1] - fd_p) <= 1e-6 * scale + 1e-9


class TestRectangleFamily:
    def test_origin_is_balanced_dicke(self):
        s = st.rec_family_state(0.0, 0.0)
        assert st.fidelity(s, st.dicke_state(4, 2)) >= 1 - 1e-12

    def test_ghz_corner(self):
        s = st.rec_family_state(math.pi / 2, math.pi / 2)
        target = st.SymmetricState(4, [1, 0, 0, 0, -1])
        assert st.fidelity(s, target) >= 1 - 1e-12

    def test_barycenter_pinned_everywhere(self):
        for theta in np.linspace(0, math.pi / 2, 9):
            for phi in np.linspace(0, math.pi, 9):
                assert st.e_b(st.rec_family_state(theta, phi)) >= 1 - 1e-10

    def test_component_pattern(self):
        s = st.rec_family_state(0.8, 2.0)
        assert abs(s.d[1]) < 1e-12 and abs(s.d[3]) < 1e-12

    def test_printed_component_ratio(self):
        # middle amplitude over corner amplitude, from the closed form:
        # d2/d0 = [4i cos(t) sin(p) - 2(cos^2 t + 1) cos(p)] / (sqrt(6) e^{-ip} sin^2 t)
        theta, phi = 0.9, 1.7
        s = st.rec_family_state(theta, phi)
        bracket = 4j * math.cos(theta) * math.sin(phi) - 2 * (math.cos(theta) ** 2 + 1) * math.cos(phi)
        expected = bracket / (math.sqrt(6) * np.exp(-1j * phi) * math.sin(theta) ** 2)
        assert s.d[2] / s.d[0] == pytest.approx(expected, abs=1e-12)

    def test_parameter_range(self):
        with pytest.raises(DomainError):
            st.rec_family_state(2.0, 0.0)
        with pytest.raises(DomainError):
            st.rec_family_state(0.5, 4.0)


class TestRotateState:
    def test_identity(self):
        s = haar_state(5, RNG)
        r = st.rotate_state(s, st.Star(0, 0, 1), 0.0)
        assert st.fidelity(s, r) >= 1 - 1e-12

    def test_eb_invariance(self):
        s = haar_state(6, RNG)
        base = st.e_b(s)
        for _ in range(25):
            axis = uniform_star(RNG)
            angle = RNG.uniform(0, 2 * math.pi)
            assert st.e_b(st.rotate_state(s, axis, angle)) == pytest.approx(base, abs=1e-12)

    @staticmethod
    def _rotate_qubit(q, axis, angle):
        # Rodrigues rotation of the Bloch vector
        u, v = axis.as_array(), q.bloch_vector()
        r = v * math.cos(angle) + np.cross(u, v) * math.sin(angle) + u * (u @ v) * (1 - math.cos(angle))
        return st.QubitState(math.acos(min(1.0, max(-1.0, r[2]))), math.atan2(r[1], r[0]))

    @pytest.mark.parametrize("n", [90, 200])
    @pytest.mark.parametrize("kind", ["uniform", "coherent"])
    def test_equals_symmetrized_rotated_qubits(self, n, kind):
        rng = np.random.default_rng(n)
        if kind == "uniform":
            qs = [uniform_qubit(rng) for _ in range(n)]
        else:
            qs = [uniform_qubit(rng)] * n
        axis, angle = uniform_star(rng), float(rng.uniform(0, 2 * math.pi))
        rotated = st.rotate_state(st.symmetrize(qs), axis, angle)
        expected = st.symmetrize([self._rotate_qubit(q, axis, angle) for q in qs])
        assert st.fidelity(rotated, expected) >= 1 - 1e-12

    def test_rotated_ghz4_keeps_eg(self):
        base = st.e_g(st.ghz_state(4)).value
        rotated = st.rotate_state(st.ghz_state(4), st.Star(0, 1, 0), math.pi / 2)
        assert st.e_g(rotated).value == pytest.approx(base, abs=1e-8)

    def test_rotated_ghz4_matches_rec_parameters(self):
        # the same state appears in the rectangle family at theta=pi/4, phi=0
        rec = st.rec_family_state(math.pi / 4, 0.0)
        assert st.e_g(rec).value == pytest.approx(1.0, abs=1e-8)


class TestPairFamilyOrdering:
    def test_eb_dominates_eg_on_grid(self):
        thetas = np.linspace(0, math.pi, 41)
        for theta in thetas:
            s = st.symmetrize([st.QubitState(0, 0), st.QubitState(theta, 0)])
            eb, eg = st.e_b(s), st.e_g(s).value
            assert eb >= eg - 1e-7
