import math

import numpy as np
import pytest
from conftest import haar_state, uniform_qubit

import stellar as st
from stellar.errors import DomainError, ResourceError

RNG = np.random.default_rng(1234)


class TestCompose:
    def test_one_and_zero_is_bell(self):
        out = st.compose(st.dicke_state(1, 1), st.dicke_state(1, 0))
        assert np.allclose(out.d, [0, 1, 0], atol=1e-15)

    def test_plus_minus_is_phi_minus(self):
        plus = st.SymmetricState(1, [1, 1])
        minus = st.SymmetricState(1, [1, -1])
        target = st.SymmetricState(2, [1, 0, -1])
        assert st.fidelity(st.compose(plus, minus), target) >= 1 - 1e-12

    def test_bell_pair_composition_is_ghz_class(self):
        psi_plus = st.dicke_state(2, 1)
        phi_minus = st.SymmetricState(2, [1, 0, -1])
        out = st.compose(psi_plus, phi_minus)
        assert st.e_b(out) == pytest.approx(1.0, abs=1e-12)
        assert st.e_g(out).value == pytest.approx(1.0, abs=1e-8)

    def test_commutative_up_to_phase(self):
        a, b = haar_state(3, RNG), haar_state(4, RNG)
        assert st.fidelity(st.compose(a, b), st.compose(b, a)) >= 1 - 1e-12

    def test_associative_up_to_phase(self):
        a, b, c = (haar_state(2, RNG) for _ in range(3))
        left = st.compose(st.compose(a, b), c)
        right = st.compose(a, st.compose(b, c))
        assert st.fidelity(left, right) >= 1 - 1e-12

    def test_coherent_merge(self):
        q = uniform_qubit(RNG)
        out = st.compose(st.coherent_state(3, q), st.coherent_state(4, q))
        assert st.fidelity(out, st.coherent_state(7, q)) >= 1 - 1e-10

    def test_stars_are_union(self):
        a, b = haar_state(2, RNG), haar_state(3, RNG)
        stars = st.state_to_stars(st.compose(a, b))
        assert len(stars.stars) == 5


class TestHusimiProductLaw:
    def test_log_ratio_constant(self):
        a, b = haar_state(3, RNG), haar_state(4, RNG)
        ab = st.compose(a, b)
        ratios = []
        count = 0
        while count < 200:
            q = uniform_qubit(RNG)
            qa = st.husimi(a, q)
            qb = st.husimi(b, q)
            qab = st.husimi(ab, q)
            if min(qa, qb, qab) < 1e-8:  # too close to a zero for a stable ratio
                continue
            ratios.append(math.log(qab) - math.log(qa) - math.log(qb))
            count += 1
        ratios = np.array(ratios)
        assert np.abs(ratios - ratios.mean()).max() <= 1e-8 * max(1.0, abs(ratios.mean()))


class TestRandomStates:
    def test_seed_determinism(self):
        a = st.random_state(4, st.make_rng(42))
        b = st.random_state(4, st.make_rng(42))
        assert np.array_equal(a.d, b.d)
        assert st.state_to_json(a) == st.state_to_json(b)

    def test_single_qubit_coherent(self):
        s = st.random_state(1, st.make_rng(7))
        assert st.e_b(s) == pytest.approx(0.0, abs=1e-12)

    def test_mean_barycentric_measure(self):
        n, draws = 10, 800
        rng = st.make_rng(2718)
        values = np.array([st.e_b(st.random_state(n, rng)) for _ in range(draws)])
        se = values.std(ddof=1) / math.sqrt(draws)
        assert abs(values.mean() - (1 - 1 / n)) <= 4 * se

    def test_invalid_count(self):
        with pytest.raises(DomainError):
            st.random_state(0, st.make_rng(1))

    @pytest.mark.parametrize("n,seed", [(800, 0), (800, 1), (800, 2), (1029, 3)])
    def test_many_qubits(self, n, seed):
        # the Dicke row of so many generic qubits is below 1e-154 before it is normalized
        s = st.random_state(n, st.make_rng(seed))
        assert abs(np.linalg.norm(s.d) - 1.0) <= 1e-12

    @pytest.mark.parametrize("sampler", [st.random_state, st.random_antipodal_state])
    def test_size_refused_before_drawing(self, sampler):
        rng = st.make_rng(5)
        with pytest.raises(ResourceError):
            sampler(20000, rng)
        assert rng.random() == st.make_rng(5).random()  # nothing was drawn


class TestAntipodalEnsemble:
    def test_maximal_barycentric_measure(self):
        for seed in range(40):
            s = st.random_antipodal_state(6, st.make_rng(seed))
            assert st.e_b(s) >= 1 - 1e-12

    def test_two_qubit_case_is_bell_class(self):
        s = st.random_antipodal_state(2, st.make_rng(5))
        c = st.state_to_stars(s)
        assert st.geodesic_distance(c.stars[0], c.stars[1]) == pytest.approx(math.pi, abs=1e-9)

    def test_odd_rejected(self):
        with pytest.raises(DomainError):
            st.random_antipodal_state(3, st.make_rng(1))

    def test_composition_of_maximal_pairs_stays_maximal(self):
        for seed in range(20):
            rng = st.make_rng(seed)
            a = st.random_antipodal_state(4, rng)
            b = st.random_antipodal_state(2, rng)
            assert st.e_b(st.compose(a, b)) >= 1 - 1e-10
