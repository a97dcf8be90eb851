import itertools
import math

import numpy as np
import pytest
from conftest import haar_state, uniform_qubit
from hypothesis import given, settings
from hypothesis import strategies as hs

import stellar as st
from stellar.errors import DomainError, ResourceError, SymmetryViolationError

RNG = np.random.default_rng(20240811)


class TestQubitState:
    def test_pole_phase_canonicalized(self):
        assert st.QubitState(0.0, 1.3).phi == 0.0
        assert st.QubitState(math.pi, 2.2).phi == 0.0

    def test_phi_wrapped(self):
        q = st.QubitState(1.0, 2.0 * math.pi + 0.5)
        assert abs(q.phi - 0.5) < 1e-12

    def test_theta_out_of_range(self):
        with pytest.raises(DomainError):
            st.QubitState(-0.5, 0.0)
        with pytest.raises(DomainError):
            st.QubitState(4.0, 0.0)

    def test_amplitudes_exact_at_poles(self):
        assert st.QubitState(0.0, 0.0).amplitudes == (1.0 + 0.0j, 0.0 + 0.0j)
        assert st.QubitState(math.pi, 0.0).amplitudes == (0.0 + 0.0j, 1.0 + 0.0j)


class TestDicke:
    def test_unit_vector(self):
        s = st.dicke_state(5, 2)
        expected = np.zeros(6)
        expected[2] = 1.0
        assert np.array_equal(s.d, expected.astype(complex))

    def test_bell_embedding(self):
        amps = st.embed_full(st.dicke_state(2, 1)).amps
        assert np.allclose(amps, [0.0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0.0], atol=1e-15)

    def test_k0_is_all_zeros_state(self):
        amps = st.embed_full(st.dicke_state(3, 0)).amps
        expected = np.zeros(8)
        expected[0] = 1.0
        assert np.array_equal(amps, expected.astype(complex))

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            st.dicke_state(4, 5)
        with pytest.raises(DomainError):
            st.dicke_state(4, -1)


class TestSymmetrize:
    def test_up_down_gives_bell(self):
        s = st.symmetrize([st.QubitState(0, 0), st.QubitState(math.pi, 0)])
        assert np.allclose(s.d, [0, 1, 0], atol=1e-15)

    def test_two_up(self):
        s = st.symmetrize([st.QubitState(0, 0), st.QubitState(0, 0)])
        assert np.allclose(s.d, [1, 0, 0], atol=1e-15)

    def test_constants(self):
        up, down = st.QubitState(0, 0), st.QubitState(math.pi, 0)
        assert st.symmetrization_constant([up, down]) == pytest.approx(2.0, rel=1e-12)
        assert st.symmetrization_constant([up, up]) == pytest.approx(4.0, rel=1e-12)

    def test_rectangle_corners_give_ghz4_class(self):
        # the four-qubit rectangle at theta=pi/2, phi=pi/2 lands on
        # (|0000> - |1111>)/sqrt(2), a GHZ state up to a local z rotation
        th, ph = math.pi / 2, math.pi / 2
        parts = [
            st.QubitState(th, ph),
            st.QubitState(th, ph + math.pi),
            st.QubitState(math.pi - th, 0.0),
            st.QubitState(math.pi - th, math.pi),
        ]
        s = st.symmetrize(parts)
        target = st.SymmetricState(4, [1, 0, 0, 0, -1])
        assert st.fidelity(s, target) > 1 - 1e-12

    def test_matches_coherent_for_copies(self):
        for _ in range(20):
            n = int(RNG.integers(1, 9))
            q = uniform_qubit(RNG)
            assert st.fidelity(st.symmetrize([q] * n), st.coherent_state(n, q)) >= 1 - 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            st.symmetrize([])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8])
    def test_constant_equals_explicit_norm(self, n):
        # oracle: accumulate the permutation sum in the full 2**n space
        qs = [uniform_qubit(RNG) for _ in range(n)]
        amps = np.array([q.amplitudes for q in qs])
        bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        vec = np.zeros(2**n, dtype=complex)
        for perm in itertools.permutations(range(n)):
            sel = amps[list(perm), :]
            vec += np.prod(sel[np.arange(n), bits], axis=1)
        k = st.symmetrization_constant(qs)
        assert abs(k - np.linalg.norm(vec) ** 2) <= 1e-10 * k

    def test_constant_identical_states(self):
        n = 30
        k = st.symmetrization_constant([st.QubitState(1.1, 0.4)] * n)
        assert k == pytest.approx(float(math.factorial(n)) ** 2, rel=1e-12)

    def test_constant_half_up_half_down(self):
        n = 30
        qs = [st.QubitState(0, 0)] * (n // 2) + [st.QubitState(math.pi, 0)] * (n // 2)
        expected = math.factorial(n) * math.factorial(n // 2) ** 2
        assert st.symmetrization_constant(qs) == pytest.approx(float(expected), rel=1e-12)

    def test_constant_overflow_is_resource_error(self):
        with pytest.raises(ResourceError):
            st.symmetrization_constant([st.QubitState(0, 0)] * 120)


class TestCoherent:
    def test_north_pole(self):
        s = st.coherent_state(6, st.QubitState(0, 0))
        expected = np.zeros(7)
        expected[0] = 1.0
        assert np.array_equal(s.d, expected.astype(complex))

    def test_single_qubit_identity(self):
        q = st.QubitState(1.2, 0.7)
        s = st.coherent_state(1, q)
        a, b = q.amplitudes
        assert abs(s.d[0] - a) < 1e-15 and abs(s.d[1] - b) < 1e-15

    @given(hs.integers(1, 20), hs.floats(0, math.pi), hs.floats(0, 6.28))
    @settings(max_examples=30, deadline=None)
    def test_unit_norm(self, n, theta, phi):
        s = st.coherent_state(n, st.QubitState(theta, phi))
        assert abs(np.linalg.norm(s.d) - 1.0) < 1e-12


class TestHusimi:
    def test_self_overlap(self):
        q = uniform_qubit(RNG)
        s = st.coherent_state(5, q)
        assert st.husimi(s, q) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,k", [(2, 1), (5, 2), (7, 7)])
    def test_dicke_closed_form(self, n, k):
        for _ in range(10):
            q = uniform_qubit(RNG)
            expected = (
                math.comb(n, k)
                * math.cos(q.theta / 2) ** (2 * (n - k))
                * math.sin(q.theta / 2) ** (2 * k)
            )
            assert st.husimi(st.dicke_state(n, k), q) == pytest.approx(expected, abs=1e-12)

    def test_bell_at_equator(self):
        assert st.husimi(st.dicke_state(2, 1), st.QubitState(math.pi / 2, 0.4)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_global_phase_invariance(self):
        n = 4
        d = RNG.normal(size=n + 1) + 1j * RNG.normal(size=n + 1)
        a = st.SymmetricState(n, d)
        b = st.SymmetricState(n, np.exp(1j * 1.234) * d)
        q = uniform_qubit(RNG)
        assert st.husimi(a, q) == pytest.approx(st.husimi(b, q), abs=1e-14)

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_normalization_quadrature(self, n):
        # Gauss-Legendre in cos(theta) x uniform phi integrates the Husimi
        # function exactly at this degree
        s = haar_state(n, RNG)
        nodes, weights = np.polynomial.legendre.leggauss(n + 2)
        phis = np.linspace(0, 2 * math.pi, n + 2, endpoint=False)
        total = 0.0
        for x, w in zip(nodes, weights):
            th = math.acos(x)
            q = st.measures.husimi_batch(s, np.full(len(phis), th), phis)
            total += w * q.mean() * 2 * math.pi
        total *= (n + 1) / (4 * math.pi)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestEmbedProject:
    def test_round_trip(self):
        for n in (1, 2, 5, 8):
            s = haar_state(n, RNG)
            back = st.project_sym(st.embed_full(s))
            assert st.fidelity(s, back) >= 1 - 1e-12

    def test_singlet_rejected(self):
        full = st.FullState(2, [0, 1 / math.sqrt(2), -1 / math.sqrt(2), 0])
        with pytest.raises(SymmetryViolationError) as err:
            st.project_sym(full)
        assert err.value.deficit > 0.5

    def test_symmetry_check(self):
        bell = st.embed_full(st.dicke_state(2, 1))
        assert st.is_permutation_symmetric(bell).symmetric
        singlet = st.FullState(2, [0, 1, -1, 0])
        report = st.is_permutation_symmetric(singlet)
        assert not report.symmetric and report.deficit > 1.0

    def test_embedded_states_are_symmetric(self):
        for n in (2, 4, 6):
            s = haar_state(n, RNG)
            assert st.is_permutation_symmetric(st.embed_full(s)).symmetric


class TestLabels:
    def test_jm_to_nk(self):
        assert st.jm_to_nk(1.5, 0.5) == (3, 1)
        assert st.jm_to_nk(1.0, -1.0) == (2, 2)

    def test_nk_to_jm(self):
        assert st.nk_to_jm(3, 1) == (1.5, 0.5)

    def test_round_trip(self):
        for n in range(1, 9):
            for k in range(n + 1):
                assert st.jm_to_nk(*st.nk_to_jm(n, k)) == (n, k)

    def test_invalid(self):
        with pytest.raises(DomainError):
            st.jm_to_nk(1.2, 0.2)
        with pytest.raises(DomainError):
            st.jm_to_nk(1.0, 2.0)


class TestStateJson:
    def test_round_trip_exact(self):
        s = haar_state(7, RNG)
        back = st.state_from_json(st.state_to_json(s))
        assert np.array_equal(s.d, back.d)

    def test_seventeen_digits(self):
        s = st.SymmetricState(1, [1.0, 1.0])
        text = st.state_to_json(s)
        assert "0.70710678118654746" in text

    def test_malformed(self):
        with pytest.raises(DomainError):
            st.state_from_json('{"n": 2}')

    @pytest.mark.parametrize("text", ["{", "", "[1, 2", '{"n": 1, "dicke": [[1, 0], [0'])
    def test_undecodable_is_domain_error(self, text):
        with pytest.raises(DomainError):
            st.state_from_json(text)


class TestConstructorInvariants:
    def test_zero_state_rejected(self):
        with pytest.raises(DomainError):
            st.SymmetricState(2, [0, 0, 0])

    def test_normalized_and_phase_canonical(self):
        s = st.SymmetricState(2, np.array([2j, 1.0, 0.5]) * np.exp(0.7j))
        assert abs(np.linalg.norm(s.d) - 1.0) < 1e-12
        assert s.d[0].imag == 0.0 and s.d[0].real > 0

    def test_ghz_helper_norm(self):
        for n in (2, 5, 9):
            assert abs(np.linalg.norm(st.ghz_state(n).d) - 1.0) < 1e-12
