import math

import numpy as np
import pytest
from conftest import haar_state

import stellar as st
from stellar.errors import DomainError, NumericError, SymmetryViolationError
from stellar.hamiltonians import parse

RNG = np.random.default_rng(31415)

SQ2, SQ3, SQ6 = math.sqrt(2), math.sqrt(3), math.sqrt(6)

# the two-qubit generator whose flow takes |00> through
# cos(b)|00> + sin(b)/sqrt(2) (|01>+|10>)
PAIR_FLOW = "1/sqrt(2)*H(2,3) + 1/sqrt(2)*H(0,2)"
# half the XY exchange: |00> -> cos(b)|00> - sin(b)|11>
XY_HALF = "-0.5*X x Y + -0.5*Y x X"


def printed_transition_3():
    return np.array(
        [
            [1, 0, 0, 0, 0, 0, 0, 0],
            [0, 1 / SQ3, 0, 0, 1 / SQ2, 1 / SQ6, 0, 0],
            [0, 1 / SQ3, 0, 0, -1 / SQ2, 1 / SQ6, 0, 0],
            [0, 0, 1 / SQ3, 0, 0, 0, 1 / SQ2, 1 / SQ6],
            [0, 1 / SQ3, 0, 0, 0, -2 / SQ6, 0, 0],
            [0, 0, 1 / SQ3, 0, 0, 0, -1 / SQ2, 1 / SQ6],
            [0, 0, 1 / SQ3, 0, 0, 0, 0, -2 / SQ6],
            [0, 0, 0, 1, 0, 0, 0, 0],
        ]
    )


def printed_blocks(beta):
    c4, s4 = math.cos(4 * beta), math.sin(4 * beta)
    cb, sb = math.cos(beta), math.sin(beta)
    v = np.array(
        [
            [(1 + 3 * c4) / 4, -0.5j * SQ3 * s4, 2 * SQ3 * (cb * sb) ** 2, 0],
            [-0.5j * SQ3 * s4, c4, 0.5j * s4, 0],
            [2 * SQ3 * (cb * sb) ** 2, 0.5j * s4, (3 + c4) / 4, 0],
            [0, 0, 0, 1],
        ]
    )
    w = np.array(
        [
            [cb, 0, -0.5j * sb, 0.5j * SQ3 * sb],
            [0, cb, 0.5j * SQ3 * sb, 0.5j * sb],
            [-0.5j * sb, 0.5j * SQ3 * sb, cb, 0],
            [0.5j * SQ3 * sb, 0.5j * sb, 0, cb],
        ]
    )
    return v, w


def random_invariant_hamiltonian(rng, n):
    # few non-identity factors keep the distinct-arrangement count small
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        size = int(rng.integers(1, min(n, 3) + 1))
        factors = " ".join(rng.choice(["I", "X", "Y", "Z", "P0", "P1"], size=size))
        pad = " ".join(["I"] * (n - size))
        body = f"sym({factors} {pad})" if pad else f"sym({factors})"
        terms.append(f"{rng.uniform(-2, 2):.6f}*{body}")
    return st.build_matrix(parse(" + ".join(terms)))


class TestTransitionBasis:
    def test_two_qubits(self):
        t = st.build_transition(2).matrix
        expected = np.array(
            [
                [1, 0, 0, 0],
                [0, 1 / SQ2, 0, 1 / SQ2],
                [0, 1 / SQ2, 0, -1 / SQ2],
                [0, 0, 1, 0],
            ]
        )
        assert np.abs(t - expected).max() <= 1e-15

    def test_three_qubits_match_printed(self):
        t = st.build_transition(3).matrix
        assert np.abs(t - printed_transition_3()).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_unitarity(self, n):
        t = st.build_transition(n).matrix
        assert np.abs(t.conj().T @ t - np.eye(2**n)).max() <= 1e-12

    def test_dicke_columns(self):
        n = 4
        t = st.build_transition(n).matrix
        for k in range(n + 1):
            col = st.embed_full(st.dicke_state(n, k)).amps
            assert np.abs(t[:, k] - col).max() <= 1e-15

    def test_range(self):
        with pytest.raises(DomainError):
            st.build_transition(0)
        with pytest.raises(DomainError):
            st.build_transition(15)


class TestExponentiate:
    def test_identity_at_zero(self):
        h = st.build_matrix(parse("sym(X Z)"))
        assert np.abs(st.exponentiate(h, 0.0) - np.eye(4)).max() <= 1e-15

    def test_group_property(self):
        h = st.build_matrix(parse("sym(X Z P0)"))
        a, b = 0.37, 0.81
        left = st.exponentiate(h, a) @ st.exponentiate(h, b)
        assert np.abs(left - st.exponentiate(h, a + b)).max() <= 1e-10

    @pytest.mark.parametrize("beta", [0.3, 0.7, 1.1])
    def test_pair_flow_matrix(self, beta):
        h = st.build_matrix(parse(PAIR_FLOW))
        u = st.exponentiate(h, beta)
        cb, sb = math.cos(beta), math.sin(beta)
        expected = np.array(
            [
                [cb, -sb / SQ2, -sb / SQ2, 0],
                [sb / SQ2, (1 + cb) / 2, (-1 + cb) / 2, 0],
                [sb / SQ2, (-1 + cb) / 2, (1 + cb) / 2, 0],
                [0, 0, 0, 1],
            ]
        )
        assert np.abs(u - expected).max() <= 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            st.exponentiate(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestReduce:
    def test_identity(self):
        block = st.reduce_unitary(np.eye(8))
        assert np.abs(block.V - np.eye(4)).max() <= 1e-15
        assert np.abs(block.W - np.eye(4)).max() <= 1e-15
        assert block.offblock_norm <= 1e-15

    @pytest.mark.parametrize("beta", [0.3, 0.7, 1.1])
    def test_printed_blocks(self, beta):
        h = st.build_matrix(parse("sym(X Z P0)"))
        block = st.reduce_unitary(st.exponentiate(h, beta), tol=1e-10)
        v_expected, w_expected = printed_blocks(beta)
        assert np.abs(block.V - v_expected).max() <= 1e-10
        assert np.abs(block.W - w_expected).max() <= 1e-10

    def test_non_symmetric_rejected(self):
        # X on the first qubit only does not preserve the symmetric sector
        h = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        u = st.exponentiate(h, 0.9)
        with pytest.raises(SymmetryViolationError) as err:
            st.reduce_unitary(u, tol=1e-10)
        assert err.value.deficit > 1e-3

    def test_random_invariant_families(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            n = int(rng.integers(2, 6))
            h = random_invariant_hamiltonian(rng, n)
            basis = st.build_transition(n)
            for beta in rng.uniform(-3, 3, size=3):
                block = st.reduce_unitary(st.exponentiate(h, beta), tol=1e-10, basis=basis)
                assert block.offblock_norm <= 1e-10

    def test_group_property_in_block(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4):
            h = random_invariant_hamiltonian(rng, n)
            basis = st.build_transition(n)
            for a, b in ((0.4, 1.3), (-0.7, 2.1)):
                va = st.reduce_unitary(st.exponentiate(h, a), basis=basis).V
                vb = st.reduce_unitary(st.exponentiate(h, b), basis=basis).V
                vab = st.reduce_unitary(st.exponentiate(h, a + b), basis=basis).V
                assert np.abs(va @ vb - vab).max() <= 1e-9


class TestEvolve:
    def test_block_evolution_matches_full_space(self):
        rng = np.random.default_rng(12)
        for n in (2, 4, 8):
            h = random_invariant_hamiltonian(rng, n)
            psi0 = haar_state(n, rng)
            betas = np.linspace(0, 2.0, 9)
            traj = st.evolve(h, psi0, betas)
            amps0 = st.embed_full(psi0).amps
            for beta, state in zip(traj.betas, traj.states):
                u = st.exponentiate(h, beta)
                full = st.project_sym(st.FullState(n, u @ amps0))
                assert st.fidelity(state, full) >= 1 - 1e-10

    def test_pair_flow_pins_north_star(self):
        h = st.build_matrix(parse(PAIR_FLOW))
        traj = st.evolve(h, st.dicke_state(2, 0), np.linspace(0, math.pi, 101))
        assert traj.thetas.min(axis=1).max() <= 1e-10

    def test_pair_flow_states(self):
        h = st.build_matrix(parse(PAIR_FLOW))
        traj = st.evolve(h, st.dicke_state(2, 0), np.linspace(0, math.pi, 101))
        for beta, state in zip(traj.betas, traj.states):
            target = st.SymmetricState(2, [math.cos(beta), math.sin(beta), 0])
            assert st.fidelity(state, target) >= 1 - 1e-10

    def test_xy_half_angles(self):
        h = st.build_matrix(parse(XY_HALF))
        traj = st.evolve(h, st.dicke_state(2, 0), np.linspace(0, math.pi / 2, 151))
        th, ph = traj.thetas, traj.phis
        assert np.abs(th[:, 0] - th[:, 1]).max() <= 1e-8
        interior = (th[:, 0] > 0.05) & (th[:, 0] < math.pi - 0.05)
        dphi = np.remainder(ph[interior, 0] - ph[interior, 1], 2 * math.pi)
        assert np.abs(dphi - math.pi).max() <= 1e-8

    def test_non_symmetric_hamiltonian_rejected(self):
        h = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        with pytest.raises(SymmetryViolationError):
            st.evolve(h, st.dicke_state(2, 0), [0.0, 0.1])

    def test_grid_must_be_monotone(self):
        h = st.build_matrix(parse(XY_HALF))
        with pytest.raises(DomainError):
            st.evolve(h, st.dicke_state(2, 0), [0.0, 0.5, 0.2])

    def test_reversed_grid_same_paths(self):
        # walking the same grid from the other end reproduces states and
        # star paths (no flagged discontinuities in this family window)
        h = st.build_matrix(parse(XY_HALF))
        fwd = st.evolve(h, st.dicke_state(2, 0), np.linspace(0.1, 1.2, 41))
        bwd = st.evolve(h, st.dicke_state(2, 0), np.linspace(1.2, 0.1, 41))
        assert not fwd.discontinuity.any() and not bwd.discontinuity.any()
        assert np.allclose(fwd.betas, bwd.betas[::-1], atol=1e-15)
        for t, (beta, state) in enumerate(zip(bwd.betas, bwd.states)):
            i = fwd.betas.size - 1 - t
            assert st.fidelity(state, fwd.states[i]) >= 1 - 1e-10
            # identity-matched paths agree as multisets frame by frame
            # (1e-7 headroom: arccos cannot resolve angles below ~1e-8)
            d = np.arccos(np.clip(fwd.stars[i] @ bwd.stars[t].T, -1, 1))
            assert d.min(axis=1).max() <= 1e-7

    def test_adaptive_refinement_inserts_points(self):
        h = st.build_matrix(parse(XY_HALF))
        coarse = np.linspace(0, 1.4, 4)  # steps of ~0.47 force star moves > 0.2
        traj = st.evolve(h, st.dicke_state(2, 0), coarse)
        assert traj.betas.size > 4
        moves = []
        for t in range(1, traj.betas.size):
            d = np.arccos(np.clip((traj.stars[t] * traj.stars[t - 1]).sum(axis=1), -1, 1))
            moves.append(d.max())
        assert max(moves) <= 0.2 + 1e-9

    def test_refinement_exhaustion_sets_discontinuity_flag(self):
        h = st.build_matrix(parse(XY_HALF))
        traj = st.evolve(h, st.dicke_state(2, 0), np.linspace(0, 1.4, 4), max_depth=0)
        assert traj.discontinuity.any()
        assert traj.betas.size == 4  # no midpoints were allowed


class TestMatch:
    def test_reaches_brute_force_optimum(self):
        import itertools

        from stellar.dynamics import _match

        rng = np.random.default_rng(2718)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            prev = st.state_to_stars(haar_state(n, rng)).as_array()
            new = st.state_to_stars(haar_state(n, rng)).as_array()
            cost = np.arccos(np.clip(prev @ new.T, -1.0, 1.0))
            best = min(sum(cost[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
            matched, move = _match(prev, new)
            got = np.arccos(np.clip(np.sum(prev * matched, axis=1), -1.0, 1.0))
            assert abs(got.sum() - best) <= 1e-12
            assert move == pytest.approx(got.max(), abs=1e-15)


class TestArgumentValidation:
    @pytest.mark.parametrize("max_step", [math.nan, math.inf, 0.0, -1.0])
    def test_evolve_max_step(self, max_step):
        h = st.build_matrix(parse(XY_HALF))
        with pytest.raises(DomainError):
            st.evolve(h, st.dicke_state(2, 0), [0.0, 1.0], max_step=max_step)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
    def test_velocity_divergence_threshold(self, threshold):
        traj = st.evolve(st.build_matrix(parse(XY_HALF)), st.dicke_state(2, 0), np.linspace(0, 1, 5))
        with pytest.raises(DomainError):
            st.velocity_profile(traj, divergence_threshold=threshold)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-10])
    def test_reduce_tol(self, tol):
        with pytest.raises(DomainError):
            st.reduce_unitary(np.eye(4), tol=tol)

    def test_exponentiate_beta(self):
        with pytest.raises(DomainError):
            st.exponentiate(np.eye(4), math.nan)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
    def test_non_finite_matrix(self, bad):
        m = np.array(st.build_matrix(parse(XY_HALF)).matrix)
        m[0, 3] = bad
        with pytest.raises(DomainError):
            st.evolve(m, st.dicke_state(2, 0), [0.0, 1.0])
        with pytest.raises(DomainError):
            st.exponentiate(m, 0.5)
        with pytest.raises(DomainError):
            st.reduce_unitary(m)

    def test_evolve_eigh_failure_is_numeric_error(self, monkeypatch):
        h = st.build_matrix(parse(XY_HALF))

        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericError):
            st.evolve(h, st.dicke_state(2, 0), [0.0, 1.0])

    def test_reduce_shape(self):
        for m in (np.eye(3), np.ones(4), np.eye(1), np.zeros((2, 4))):
            with pytest.raises(DomainError):
                st.reduce_unitary(m)


class TestVelocity:
    def test_pair_flow_closed_form(self):
        h = st.build_matrix(parse(PAIR_FLOW))
        betas = np.linspace(0.002, math.pi / 2, 1201)
        traj = st.evolve(h, st.dicke_state(2, 0), betas)
        prof = st.velocity_profile(traj)
        moving = int(np.argmax(traj.thetas.sum(axis=0)))
        window = (prof.betas > 0.05) & (prof.betas < math.pi / 2 - 0.05)
        closed = 2 * SQ2 / (1 + np.sin(prof.betas) ** 2)
        err = np.abs(prof.dtheta[window, moving] - closed[window])
        assert err.max() <= 1e-4

    def test_xy_half_closed_form_and_flags(self):
        h = st.build_matrix(parse(XY_HALF))
        betas = np.linspace(0.0, math.pi / 2, 1501)
        traj = st.evolve(h, st.dicke_state(2, 0), betas)
        prof = st.velocity_profile(traj)
        th = traj.thetas[:, 0]
        window = (prof.betas > 0.1) & (prof.betas < math.pi / 2 - 0.1)
        closed = (3 + np.cos(2 * th)) / (2 * np.sin(np.clip(th, 1e-9, None)))
        assert np.abs(prof.dtheta[window, 0] - closed[window]).max() <= 1e-4
        # divergence windows hug the poles
        assert prof.flags[:5, 0].all() and prof.flags[-5:, 0].all()
        assert not prof.flags[window, 0].any()

    def test_constant_trajectory_zero(self):
        h = st.build_matrix(parse("sym(Z Z)"))
        traj = st.evolve(h, st.dicke_state(2, 0), np.linspace(0, 1, 21))
        prof = st.velocity_profile(traj)
        assert np.abs(prof.dtheta).max() <= 1e-12

    def test_needs_three_points(self):
        h = st.build_matrix(parse(XY_HALF))
        traj = st.evolve(h, st.dicke_state(2, 0), [0.0, 0.01])
        with pytest.raises(DomainError):
            st.velocity_profile(traj)


class TestProfilesAndSerialization:
    def test_eb_profile_values(self):
        h = st.build_matrix(parse(XY_HALF))
        traj = st.evolve(h, st.dicke_state(2, 0), np.linspace(0, math.pi / 2, 101))
        prof = st.e_b_profile(traj)
        th = traj.thetas[:, 0]
        assert np.abs(prof[:, 1] - np.sin(th) ** 2).max() <= 1e-12
        i = int(np.argmin(np.abs(prof[:, 0] - math.pi / 4)))
        assert prof[i, 1] == pytest.approx(1.0, abs=1e-10)

    def test_anticorrelation(self):
        h = st.build_matrix(parse(XY_HALF))
        traj = st.evolve(h, st.dicke_state(2, 0), np.linspace(0, math.pi / 2, 1001))
        prof = st.velocity_profile(traj)
        window = (traj.betas > 0.05) & (traj.betas < math.pi / 2 - 0.05)
        r = np.corrcoef(traj.e_b[window], np.abs(prof.dtheta[window, 0]))[0, 1]
        assert r <= -0.9

    def test_trajectory_csv(self):
        h = st.build_matrix(parse(XY_HALF))
        traj = st.evolve(h, st.dicke_state(2, 0), np.linspace(0, 0.5, 5))
        text = st.dynamics.trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "beta,star_index,theta,phi,x,y,z,e_b"
        assert len(lines) == 1 + 2 * traj.betas.size

    def test_velocity_csv(self):
        h = st.build_matrix(parse(XY_HALF))
        traj = st.evolve(h, st.dicke_state(2, 0), np.linspace(0, 0.5, 9))
        text = st.dynamics.velocity_to_csv(st.velocity_profile(traj))
        lines = text.strip().split("\n")
        assert lines[0] == "beta,star_index,dtheta_dbeta,flag"
        assert set(line.split(",")[3] for line in lines[1:]) <= {"0", "1"}

    def test_block_json(self):
        h = st.build_matrix(parse("sym(X Z P0)"))
        block = st.reduce_unitary(st.exponentiate(h, 0.4))
        text = st.dynamics.block_to_json(block)
        import json

        doc = json.loads(text)
        assert doc["n"] == 3
        assert len(doc["V"]) == 4 and len(doc["W"]) == 4
        assert doc["offblock_norm"] <= 1e-10

    @pytest.mark.parametrize("x", [0.0, -0.0])
    def test_phis_zero_on_the_axis(self, x):
        traj = st.Trajectory(
            betas=np.array([0.0]),
            states=(st.dicke_state(2, 1),),
            stars=np.array([[[x, 0.0, 1.0], [x, -0.0, -1.0]]]),
            e_b=np.array([1.0]),
            discontinuity=np.array([False]),
        )
        assert traj.phis.tolist() == [[0.0, 0.0]]
        assert traj.thetas.tolist() == [[0.0, math.pi]]

    def test_phase_drift_invariance(self):
        # a global phase on the generator shifts nothing observable
        h = st.build_matrix(parse(XY_HALF))
        base = st.evolve(h, st.dicke_state(2, 0), np.linspace(0, 1, 11))
        shifted = st.build_matrix(parse(XY_HALF + " + 0.7*sym(I I)"))
        drift = st.evolve(shifted, st.dicke_state(2, 0), np.linspace(0, 1, 11))
        assert np.abs(base.e_b - drift.e_b).max() <= 1e-12
        for a, b in zip(base.states, drift.states):
            assert st.fidelity(a, b) >= 1 - 1e-12


class TestSymmetryDeficitNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_rejected(self, bad):
        m = np.zeros((8, 8), dtype=complex)
        m[0, 5] = bad
        with pytest.raises(DomainError):
            st.operator_symmetry_deficit(m, 3)

    @pytest.mark.parametrize("index", [(0, 0), (3, 3), (7, 0)])
    def test_rejected_in_unmoved_blocks(self, index):
        m = np.eye(8, dtype=complex)
        m[index] = np.nan
        with pytest.raises(DomainError):
            st.operator_symmetry_deficit(m, 3)
