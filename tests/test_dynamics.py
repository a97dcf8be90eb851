import itertools
import math

import numpy as np
import pytest
from conftest import haar_state

from hypothesis import given, settings
from hypothesis import strategies as hs

import stellar as st
from stellar import dynamics, errors
from stellar.dynamics import _assign, _match, _nearest
from stellar.errors import DomainError, NumericError, ResourceError, SymmetryViolationError
from stellar.hamiltonians import MAX_MATRIX_BYTES, parse
from stellar.measures import _e_b
from stellar.stars import _star_vectors_batch
from stellar.states import _canonical, _dicke_isometry

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
        t = st.build_transition(2)
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
        t = st.build_transition(3)
        assert np.abs(t - printed_transition_3()).max() <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_unitarity(self, n):
        t = st.build_transition(n)
        assert np.abs(t.conj().T @ t - np.eye(2**n)).max() <= 1e-12

    def test_dicke_columns(self):
        n = 4
        t = st.build_transition(n)
        for k in range(n + 1):
            col = st.embed_full(st.dicke_state(n, k)).amps
            assert np.abs(t[:, k] - col).max() <= 1e-15

    def test_range(self):
        with pytest.raises(DomainError):
            st.build_transition(0)
        with pytest.raises(ResourceError):
            st.build_transition(15)

    def test_byte_limit_refuses_before_allocating(self):
        import tracemalloc

        assert 16 * 4**13 <= MAX_MATRIX_BYTES < 16 * 4**14
        with pytest.raises(DomainError):
            st.build_transition(-3)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="bytes"):
                st.build_transition(14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**16


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

    def test_overflowing_phase_refused(self):
        with pytest.raises(DomainError, match="must be finite"):
            st.exponentiate(st.build_matrix(parse("sym(X Z)")), 1e308)

    def test_nan_matrix_is_not_unitary(self):
        with pytest.raises(NumericError, match="lost unitarity"):
            dynamics._check_unitary(np.full((2, 2), np.nan), "a NaN matrix")

    def test_anti_hermitian_ndarray_rejected_by_evolve_and_exponentiate(self):
        # permutation symmetric, so only the Hermiticity check can refuse it
        m = 1j * st.build_matrix(parse("sym(X I)")).matrix
        with pytest.raises(DomainError, match="not Hermitian"):
            st.evolve(m, st.dicke_state(2, 0), [0.0, 1.0])
        with pytest.raises(DomainError, match="not Hermitian"):
            st.exponentiate(m, 0.5)

    def test_hermiticity_checked_once(self, monkeypatch):
        h = st.build_matrix(parse("sym(X Z)"))
        checked = []
        monkeypatch.setattr(dynamics, "_check_hermitian", checked.append)
        st.exponentiate(h, 0.5)
        st.evolve(h, st.dicke_state(2, 0), [0.0, 0.5])
        assert checked == []  # the operator was checked when it was made
        m = np.array(h.matrix)
        st.exponentiate(m, 0.5)
        st.evolve(m, st.dicke_state(2, 0), [0.0, 0.5])
        assert len(checked) == 2 and all(c is m for c in checked)  # the caller's array, not a copy


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
            for beta in rng.uniform(-3, 3, size=3):
                block = st.reduce_unitary(st.exponentiate(h, beta), tol=1e-10)
                assert block.offblock_norm <= 1e-10

    def test_group_property_in_block(self):
        rng = np.random.default_rng(8)
        for n in (2, 3, 4):
            h = random_invariant_hamiltonian(rng, n)
            for a, b in ((0.4, 1.3), (-0.7, 2.1)):
                va = st.reduce_unitary(st.exponentiate(h, a)).V
                vb = st.reduce_unitary(st.exponentiate(h, b)).V
                vab = st.reduce_unitary(st.exponentiate(h, a + b)).V
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

    def test_overflowing_phase_refused(self):
        # the eigenvalues of the block are 0 and +-8, and 8e307 * 8 overflows
        with pytest.raises(DomainError, match="must be finite"):
            st.evolve(st.build_matrix(parse("4*sym(X Z)")), st.dicke_state(2, 0), [0.0, 8e307])

    def test_grid_whose_midpoints_overflow_refused(self):
        # the phases are finite, but a midpoint's sum 0.9e308 + 1.7e308 is not
        with pytest.raises(DomainError, match="half the float range"):
            st.evolve(st.build_matrix(parse("1e-307*sym(X Z)")), st.dicke_state(2, 0), [0.9e308, 1.7e308])

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

    def test_refinement_exhaustion_sets_discontinuity_flag(self, monkeypatch):
        h = st.build_matrix(parse(XY_HALF))
        monkeypatch.setattr(dynamics, "MAX_REFINEMENT_DEPTH", 0)
        traj = st.evolve(h, st.dicke_state(2, 0), np.linspace(0, 1.4, 4))
        assert traj.discontinuity.any()
        assert traj.betas.size == 4  # no midpoints were allowed


class TestBatchedFrames:
    """evolve computes its grid frames in one batch; each frame is what a single call gives."""

    def test_states_are_canonical(self):
        h = random_invariant_hamiltonian(np.random.default_rng(31), 4)
        traj = st.evolve(h, haar_state(4, np.random.default_rng(32)), np.linspace(0.0, 2.0, 41))
        for state in traj.states:
            assert np.abs(state.d - st.SymmetricState(4, state.d).d).max() <= 1e-15
            assert abs(np.linalg.norm(state.d) - 1.0) <= 1e-15
            mags = np.abs(state.d)
            pivot = state.d[np.argmax(mags >= 1e-12 * mags.max())]
            assert pivot.imag == 0.0 and pivot.real > 0.0
            assert not state.d.flags.writeable

    def test_deep_bisection_frames_match_single_calls(self):
        h = st.build_matrix(parse(XY_HALF))
        psi0 = st.dicke_state(2, 0)
        grid = np.linspace(0.0, 1.4, 4)
        traj = st.evolve(h, psi0, grid, max_step=0.01)
        assert traj.betas.size > 40 * grid.size
        assert set(grid.tolist()) <= set(traj.betas.tolist())
        for beta, state, stars in zip(traj.betas, traj.states, traj.stars):
            single = st.evolve(h, psi0, [beta])
            assert np.abs(state.d - single.states[0].d).max() <= 1e-15
            cost = np.arccos(np.clip(stars @ single.stars[0].T, -1.0, 1.0))
            assert cost.min(axis=1).max() <= 1e-7  # the same multiset, up to arccos resolution
            assert np.abs(np.sort(stars, axis=0) - np.sort(single.stars[0], axis=0)).max() <= 1e-12


class TestMatch:
    def test_reaches_brute_force_optimum(self):
        import itertools

        rng = np.random.default_rng(2718)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            prev = st.state_to_stars(haar_state(n, rng)).as_array()
            new = st.state_to_stars(haar_state(n, rng)).as_array()
            cost = np.arccos(np.clip(prev @ new.T, -1.0, 1.0))
            best = min(sum(cost[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n)))
            order, move = _match(prev, new)
            matched = new[order]
            got = np.arccos(np.clip(np.sum(prev * matched, axis=1), -1.0, 1.0))
            assert abs(got.sum() - best) <= 1e-12
            assert move == pytest.approx(got.max(), abs=1e-15)


def reference_evolve(h, psi0, betas, max_step=dynamics.MAX_STEP_RAD, max_depth=dynamics.MAX_REFINEMENT_DEPTH):
    """The step-by-step evolve: each step matched by Hungarian assignment against the
    numbered stars of the last frame, each midpoint of a bisection computed on its own.

    The reference that evolve's two passes, refinement a level at a time and one
    numbering walk, must equal bit for bit; inputs are assumed valid.
    """
    from scipy.optimize import linear_sum_assignment

    m, n = dynamics._as_matrix(h, dynamics._check_hermitian)
    grid = np.asarray(list(betas), dtype=float)
    s = _dicke_isometry(n)
    lam, q = np.linalg.eigh(s.T @ m @ s)
    coeff0 = q.conj().T @ psi0.d

    def frames(b):
        d = _canonical((q @ (np.exp(-1j * b[:, None] * lam) * coeff0)[:, :, None])[:, :, 0])
        d.flags.writeable = False
        return d, _star_vectors_batch(d)

    def match(prev, new):
        cost = np.arccos(np.clip(prev @ new.T, -1.0, 1.0))
        rows, order = linear_sum_assignment(cost)
        return new[order], float(cost[rows, order].max())

    grid_d, grid_stars = frames(grid)
    out_betas, out_d, out_stars, out_flags = [float(grid[0])], [grid_d[0]], [grid_stars[0]], [False]

    def advance(b0, stars0, b1, d1, stars1, depth):
        matched, move = match(stars0, stars1)
        if move <= max_step or depth >= max_depth:
            out_betas.append(b1)
            out_d.append(d1)
            out_stars.append(matched)
            out_flags.append(move > max_step)
            return
        mid = 0.5 * (b0 + b1)
        mid_d, mid_stars = frames(np.array([mid]))
        advance(b0, stars0, mid, mid_d[0], mid_stars[0], depth + 1)
        advance(mid, out_stars[-1], b1, d1, stars1, depth + 1)

    for t in range(1, grid.size):
        advance(float(grid[t - 1]), out_stars[-1], float(grid[t]), grid_d[t], grid_stars[t], 0)
    stars = np.array(out_stars)
    return st.Trajectory(
        betas=np.array(out_betas),
        states=tuple(st.SymmetricState._from_canonical(d) for d in out_d),
        stars=stars,
        e_b=_e_b(stars),
        discontinuity=np.array(out_flags, dtype=bool),
    )


def assert_same_trajectory(got, want):
    assert np.array_equal(got.betas, want.betas)
    assert np.array_equal(got.stars, want.stars)
    assert np.array_equal(got.discontinuity, want.discontinuity)
    assert np.array_equal(got.e_b, want.e_b)
    assert len(got.states) == len(want.states)
    for a, b in zip(got.states, want.states):
        assert a.n == b.n and np.array_equal(a.d, b.d)
        assert not a.d.flags.writeable


def sym(n, *factors):
    """sym(factors I ...) on n qubits."""
    return f"sym({' '.join(factors)}{' I' * (n - len(factors))})"


def lipkin(n, alpha):
    """The benchmark's Lipkin model sym(Z Z I..) + 0.5 sym(X I..) turned by alpha about z."""
    terms = [sym(n, "Z", "Z")]
    for coeff, pauli in ((math.cos(alpha), "X"), (math.sin(alpha), "Y")):
        c = 0.5 * coeff
        terms.append(f"{'-' if c < 0 else '+'} {abs(c)!r}*{sym(n, pauli)}")
    return " ".join(terms)


def starts(n, rng):
    """Dicke states of every k, GHZ, a coherent state and a Haar state on n qubits."""
    out = {f"dicke{k}": st.dicke_state(n, k) for k in range(n + 1)}
    if n > 1:
        out["ghz"] = st.ghz_state(n)
    out["coherent"] = st.coherent_state(n, st.QubitState(0.7, 1.3))
    out["haar"] = haar_state(n, rng)
    return out


class TestLevelwiseMatching:
    """evolve settles steps a refinement level at a time; the trajectory is the step-by-step one, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_starts_and_grid_directions(self, n):
        rng = np.random.default_rng(400 + n)
        generators = [f"{sym(n, 'Z', 'Z')} + 0.7*{sym(n, 'X')}", sym(n, "X", "Z"), sym(n, "X", "X")] if n > 1 else ["Z + 0.7*X"]
        for src in generators:
            h = st.build_matrix(parse(src))
            for psi0 in starts(n, rng).values():
                for grid in (np.linspace(0.0, 0.6, 7), np.linspace(0.6, 0.0, 7), [0.4]):
                    assert_same_trajectory(st.evolve(h, psi0, grid), reference_evolve(h, psi0, grid))

    @pytest.mark.parametrize("kwargs", [{"max_step": 0.01}, {"max_depth": 0}, {"max_depth": 2}])
    def test_refinement_settings(self, monkeypatch, kwargs):
        # max_step is evolve's argument; max_depth is the module constant MAX_REFINEMENT_DEPTH
        if "max_depth" in kwargs:
            monkeypatch.setattr(dynamics, "MAX_REFINEMENT_DEPTH", kwargs["max_depth"])
        rng = np.random.default_rng(410)
        cases = [(XY_HALF, st.dicke_state(2, 0)), (XY_HALF, st.dicke_state(2, 1)), (PAIR_FLOW, st.dicke_state(2, 0))]
        cases += [(f"{sym(3, 'Z', 'Z')} + 0.7*{sym(3, 'X')}", psi0) for psi0 in starts(3, rng).values()]
        for src, psi0 in cases:
            h = st.build_matrix(parse(src))
            for grid in (np.linspace(0.0, 1.4, 4), np.linspace(1.4, 0.1, 4)):
                traj = st.evolve(h, psi0, grid, max_step=kwargs.get("max_step", dynamics.MAX_STEP_RAD))
                assert_same_trajectory(traj, reference_evolve(h, psi0, grid, **kwargs))

    @pytest.mark.parametrize("max_depth", [1, 2, 4, 12])
    def test_tie_below_a_bisected_step(self, calls, monkeypatch, max_depth):
        # the stars of the XY/2 flow meet at the south pole at pi/2: the grid
        # step is bisected, and a tied step across the meeting follows at depth >= 1
        monkeypatch.setattr(dynamics, "MAX_REFINEMENT_DEPTH", max_depth)
        h = st.build_matrix(parse(XY_HALF))
        for grid in ([math.pi / 2 - 0.8, math.pi / 2 + 0.05], [math.pi / 2 + 0.05, math.pi / 2 - 0.8]):
            calls["match"] = 0
            traj = st.evolve(h, st.dicke_state(2, 0), grid)
            assert calls["match"] >= 1 and calls["core"] >= 2
            assert_same_trajectory(traj, reference_evolve(h, st.dicke_state(2, 0), grid, max_depth=max_depth))

    @pytest.mark.parametrize("n", [8, 10])
    def test_benchmark_lipkin(self, n):
        rng = np.random.default_rng(420 + n)
        for alpha in rng.uniform(0.0, 2.0 * math.pi, 2):
            h = st.build_matrix(parse(lipkin(n, alpha)))
            psi0 = st.coherent_state(n, st.QubitState(1.1, 0.4 + alpha))
            grid = np.linspace(0.0, 1.5, 61)
            assert_same_trajectory(st.evolve(h, psi0, grid), reference_evolve(h, psi0, grid))

    def test_benchmark_two_qubit_flows(self):
        for src, grid in ((XY_HALF, np.linspace(0.0, math.pi / 2, 1501)), (PAIR_FLOW, np.linspace(0.002, math.pi / 2, 2001))):
            h = st.build_matrix(parse(src))
            psi0 = st.dicke_state(2, 0)
            assert_same_trajectory(st.evolve(h, psi0, grid), reference_evolve(h, psi0, grid))


class TestAdjacentFloatGrids:
    """Grids of two adjacent floats with max_step=1e-300: every midpoint rounds onto an endpoint,
    so frames share betas, and the trajectory is still the step-by-step one, bit for bit."""

    @pytest.mark.parametrize("pair", [[b, float(np.nextafter(b, math.inf))] for b in (-0.0, 0.1, 0.4, 1.0)] + [[-5e-324, 0.0]])
    def test_both_directions(self, monkeypatch, pair):
        rng = np.random.default_rng(450)
        field = f"{sym(3, 'Z', 'Z')} + 0.7*{sym(3, 'X')}"
        cases = [(XY_HALF, st.dicke_state(2, 0)), (field, st.ghz_state(3)), (field, haar_state(3, rng))]
        cases.append((lipkin(6, 0.3), st.coherent_state(6, st.QubitState(1.1, 0.7))))
        for src, psi0 in cases:
            h = st.build_matrix(parse(src))
            for grid, max_depth in itertools.product((pair, pair[::-1]), (4, 9)):
                monkeypatch.setattr(dynamics, "MAX_REFINEMENT_DEPTH", max_depth)
                traj = st.evolve(h, psi0, grid, max_step=1e-300)
                want = reference_evolve(h, psi0, grid, max_step=1e-300, max_depth=max_depth)
                assert set(traj.betas.tolist()) == set(grid)
                assert_same_trajectory(traj, want)
                assert np.array_equal(np.signbit(traj.betas), np.signbit(want.betas))  # -0.0 == 0.0 above


def unit_rows(rng, shape):
    v = rng.normal(size=(*shape, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@hs.composite
def star_steps(draw):
    """Stars of two frames: random, moved by a drawn amount, with drawn coincidences."""
    n = draw(hs.integers(1, 7))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    left = unit_rows(rng, (n,))
    for i, j in draw(hs.lists(hs.tuples(hs.integers(0, n - 1), hs.integers(0, n - 1)), max_size=2)):
        left[i] = left[j]  # coincident stars
    scale = draw(hs.sampled_from([0.0, 1e-15, 1e-9, 1e-3, 0.1, 0.5, 2.0]))
    right = left[rng.permutation(n)] + scale * rng.normal(size=(n, 3))
    right /= np.linalg.norm(right, axis=1, keepdims=True)
    return left, right, rng.permutation(n)


class TestNearest:
    @given(star_steps())
    @settings(max_examples=400, deadline=None)
    def test_unique_nearest_is_the_assignment(self, step):
        from scipy.optimize import linear_sum_assignment

        left, right, p = step
        sigma, unique, move = _nearest(left[None], right[None])
        if not unique[0]:
            return
        cost = np.arccos(np.clip(left @ right.T, -1.0, 1.0))
        assert np.array_equal(linear_sum_assignment(cost)[1], sigma[0])
        assert np.array_equal(linear_sum_assignment(cost[p])[1], sigma[0][p])
        order, matched_move = _match(left[p], right)
        assert np.array_equal(order, sigma[0][p])
        assert matched_move == move[0]

    def test_conditions(self):
        rng = np.random.default_rng(430)
        left = unit_rows(rng, (5, 4))
        right = left[:, ::-1] + 1e-3 * unit_rows(rng, (5, 4))
        sigma, unique, move = _nearest(left, right)
        assert unique.all() and (sigma == np.arange(4)[::-1]).all()
        cost = np.arccos(np.clip(left @ right.swapaxes(1, 2), -1.0, 1.0))
        assert np.array_equal(move, cost[:, np.arange(4), sigma[0]].max(axis=1))
        tied = left.copy()
        tied[0, 1] = tied[0, 0]  # two stars of the first frame coincide
        right[1, 2] = right[1, 3]  # two rows of the second step share a nearest star
        assert _nearest(tied, right)[1].tolist() == [False, False, True, True, True]
        single = unit_rows(rng, (3, 1))
        sigma, unique, move = _nearest(single, single[::-1])
        assert unique.all() and not sigma.any()
        assert _nearest(np.zeros((0, 3, 3)), np.zeros((0, 3, 3)))[0].shape == (0, 3)


AXES = np.vstack([np.eye(3), -np.eye(3)])  # stars whose geodesic costs are exactly 0, pi/2 and pi


@hs.composite
def tied_costs(draw):
    """Square costs from {0, 0.5, 1} on n = 1..13, with drawn repeated rows and columns, or constant."""
    n = draw(hs.integers(1, 13))
    cost = np.array(draw(hs.lists(hs.sampled_from([0.0, 0.5, 1.0]), min_size=n * n, max_size=n * n))).reshape(n, n)
    copies = hs.lists(hs.tuples(hs.integers(0, n - 1), hs.integers(0, n - 1)), max_size=n)
    for i, j in draw(copies):
        cost[i] = cost[j]
    for i, j in draw(copies):
        cost[:, i] = cost[:, j]
    if draw(hs.integers(0, 4)) == 0:
        cost[:] = cost[0, 0]
    return cost


@hs.composite
def axis_steps(draw):
    """Stars of two frames on n = 1..13 drawn from the six axis points, so most rows and columns repeat."""
    n = draw(hs.integers(1, 13))
    points = hs.lists(hs.integers(0, 5), min_size=n, max_size=n)
    return AXES[draw(points)], AXES[draw(points)]


@hs.composite
def coherent_steps(draw):
    """The first step from a coherent start on n = 1..13, its n stars coinciding, in either direction."""
    n = draw(hs.integers(1, 13))
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    start = st.coherent_state(n, st.QubitState(draw(hs.floats(0.0, math.pi)), draw(hs.floats(0.0, 2 * math.pi)))).d
    scale = draw(hs.sampled_from([1e-9, 1e-3, 0.1]))
    moved = _canonical((start + scale * (rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)))[None])[0]
    left, right = _star_vectors_batch(np.stack([start, moved]))
    return (left, right) if draw(hs.booleans()) else (right, left)


def assert_scipy_match(prev, new):
    """_match returns linear_sum_assignment's column order and the move it implies."""
    from scipy.optimize import linear_sum_assignment

    cost = np.arccos(np.clip(prev @ new.T, -1.0, 1.0))
    rows, want = linear_sum_assignment(cost)
    order, move = _match(prev, new)
    assert order.tolist() == want.tolist()
    assert move == cost[rows, want].max()


class TestTieRule:
    """The assignment solver resolves ties exactly as scipy's linear_sum_assignment does."""

    @given(tied_costs())
    @settings(max_examples=400, deadline=None)
    def test_tied_costs(self, cost):
        from scipy.optimize import linear_sum_assignment

        assert _assign(cost.tolist()) == linear_sum_assignment(cost)[1].tolist()

    @given(axis_steps())
    @settings(max_examples=200, deadline=None)
    def test_axis_stars(self, step):
        assert_scipy_match(*step)

    @given(coherent_steps())
    @settings(max_examples=200, deadline=None)
    def test_coherent_start(self, step):
        left, right = step
        assert not _nearest(left[None], right[None])[1][0] or len(left) == 1
        assert_scipy_match(left, right)

    @pytest.mark.parametrize("flip", [False, True])
    def test_coherent_start_beside_the_pole(self, flip):
        # a draw of test_coherent_start: its 2-fold start star lies 1e-13 rad from the north pole, where the
        # pole strip pins one copy onto the pole; both copies must come back as one star
        rng = np.random.default_rng(0)
        q = st.QubitState(1e-13, 0.0)
        start = st.coherent_state(2, q).d
        moved = _canonical((start + 1e-3 * (rng.normal(size=3) + 1j * rng.normal(size=3)))[None])[0]
        left, right = _star_vectors_batch(np.stack([start, moved]))
        assert (left == left[0]).all() and np.abs(left[0] - q.bloch_vector()).max() <= 1e-28
        if flip:
            left, right = right, left
        assert not _nearest(left[None], right[None])[1][0]
        assert_scipy_match(left, right)

    def test_nan_star_raises(self):
        prev = AXES[:3].copy()
        prev[1] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            _match(prev, AXES[3:])


@pytest.fixture
def calls(monkeypatch):
    """Counts of _match and star-core calls inside evolve."""
    count = {"match": 0, "core": 0}

    def counted(name, fn):
        def wrapper(*args):
            count[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(dynamics, "_match", counted("match", dynamics._match))
    monkeypatch.setattr(dynamics, "_star_vectors_batch", counted("core", dynamics._star_vectors_batch))
    return count


def refinement_levels(traj, grid):
    """Bisection depth of the finest step of a trajectory on a uniform grid."""
    return round(math.log2(abs(grid[1] - grid[0]) / np.abs(np.diff(traj.betas)).min()))


def tied_steps(traj):
    """Steps of a trajectory whose nearest-star assignment is not unique."""
    return int((~_nearest(traj.stars[:-1], traj.stars[1:])[1]).sum())


class TestCallCounts:
    """evolve calls the star core once per refinement level, and the assignment solver only on ties:
    at most once when a level needs a tied step's move, once when the numbering pass matches it."""

    def test_pair_flow_never_matches(self, calls):
        grid = np.linspace(0.002, math.pi / 2, 2001)
        traj = st.evolve(st.build_matrix(parse(PAIR_FLOW)), st.dicke_state(2, 0), grid)
        assert calls["match"] == 0
        assert calls["core"] == 1 + refinement_levels(traj, grid)

    @pytest.mark.parametrize("max_step", [0.2, 0.01])
    def test_star_core_once_per_level(self, calls, max_step):
        grid = np.linspace(0.1, 1.4, 4)
        traj = st.evolve(st.build_matrix(parse(XY_HALF)), st.dicke_state(2, 0), grid, max_step=max_step)
        levels = refinement_levels(traj, grid)
        assert levels >= (5 if max_step < 0.1 else 2)
        assert calls["match"] == 0
        assert calls["core"] == 1 + levels

    def test_xy_flow_matches_only_ties(self, calls):
        grid = np.linspace(0.0, math.pi / 2, 1501)
        traj = st.evolve(st.build_matrix(parse(XY_HALF)), st.dicke_state(2, 0), grid)
        assert traj.betas.size == grid.size  # no step was bisected
        assert calls["match"] == 2 * tied_steps(traj) >= 2

    @pytest.mark.parametrize("n", [8, 10])
    def test_lipkin_coherent_start_once_per_level(self, calls, n):
        # the first step from the coherent start is tied: its midpoints are still computed a level at a time
        alpha = float(np.random.default_rng(440 + n).uniform(0.0, 2.0 * math.pi))
        grid = np.linspace(0.0, 1.5, 61)
        psi0 = st.coherent_state(n, st.QubitState(1.1, 0.4 + alpha))
        traj = st.evolve(st.build_matrix(parse(lipkin(n, alpha))), psi0, grid)
        assert tied_steps(traj) >= 1 and refinement_levels(traj, grid) >= 1
        assert calls["core"] == 1 + refinement_levels(traj, grid)


class TestLongGridMemory:
    # tracemalloc peak of the step-by-step evolve on this input (numpy 2.4); building
    # the step costs in one (steps, n, n) tensor instead of in chunks peaks near 29.3e6
    STEP_BY_STEP_PEAK = 23_600_721

    def test_peak(self):
        import tracemalloc

        n = 8
        h = st.build_matrix(parse(f"{sym(n, 'Z', 'Z')} + 0.7*{sym(n, 'X')}"))
        psi0 = haar_state(n, np.random.default_rng(5))
        st.evolve(h, psi0, np.linspace(0.0, 2.0, 5))
        tracemalloc.start()
        try:
            traj = st.evolve(h, psi0, np.linspace(0.0, 2.0, 20001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.betas.size == 20001
        assert peak <= self.STEP_BY_STEP_PEAK


class TestFrameCount:
    def test_peak_within_counted_bytes(self):
        """The frame limit counts at least the bytes per frame that a long run peaks at."""
        import tracemalloc

        h = st.build_matrix(parse(XY_HALF))
        st.evolve(h, st.dicke_state(2, 0), np.linspace(0.0, 1.5, 200))  # warm the caches
        frames = 100_000
        tracemalloc.start()
        try:
            traj = st.evolve(h, st.dicke_state(2, 0), np.linspace(0.0, 1.5, frames))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.betas.size == frames
        assert peak / frames <= dynamics._frame_bytes(2)


class TestArgumentValidation:
    @pytest.mark.parametrize("max_step", [math.nan, math.inf, 0.0, -1.0])
    def test_evolve_max_step(self, max_step):
        h = st.build_matrix(parse(XY_HALF))
        with pytest.raises(DomainError):
            st.evolve(h, st.dicke_state(2, 0), [0.0, 1.0], max_step=max_step)

    def test_frame_limit(self, monkeypatch):
        h = st.build_matrix(parse(XY_HALF))
        frame = 3 * (8 + 16 * 3 + 24 * 2) + 264  # a beta, a Dicke row and two stars, thrice, and a SymmetricState
        monkeypatch.setattr(errors, "MAX_MATRIX_BYTES", 100 * frame)
        assert st.evolve(h, st.dicke_state(2, 0), np.linspace(0.0, 0.1, 100)).betas.size == 100
        with pytest.raises(ResourceError, match="bytes"):
            st.evolve(h, st.dicke_state(2, 0), np.linspace(0.0, 0.1, 101))
        with pytest.raises(ResourceError, match="bytes"):  # the grid fits, its refinement does not
            st.evolve(h, st.dicke_state(2, 0), np.linspace(0.0, 1.4, 10), max_step=1e-3)

    @pytest.mark.parametrize(
        "n,betas,match", [(3, [0.0, 1.0], "acts on 2 qubits"), (2, [], "non-empty")], ids=["qubit-count", "empty-grid"]
    )
    def test_evolve_qubit_count_and_grid(self, n, betas, match):
        h = st.build_matrix(parse(XY_HALF))
        with pytest.raises(DomainError, match=match) as err:
            st.evolve(h, st.dicke_state(n, 0), betas)
        assert type(err.value) is DomainError

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

    def test_exponentiate_eigh_failure_is_numeric_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericError, match="eigendecomposition failed"):
            st.exponentiate(st.build_matrix(parse(XY_HALF)), 0.5)

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

    @pytest.mark.parametrize("stop", [1e307, 1e-300, -1e-300])
    def test_step_products_out_of_range_refused(self, stop):
        # np.gradient's step products overflow (every difference then reads 0) or underflow (NaN and inf)
        traj = st.evolve(st.build_matrix(parse("sym(X Z)")), st.dicke_state(2, 0), np.linspace(0.0, stop, 30))
        with pytest.raises(DomainError, match="normal floats"):
            st.velocity_profile(traj)

    @pytest.mark.parametrize("stop", [29e-150, 29e150, -1.0])
    def test_step_products_in_range_are_np_gradient(self, stop):
        # steps of 1e-150 and 1e150: products of 1e-300 and 2e300 are normal floats
        traj = st.evolve(st.build_matrix(parse("sym(X Z)")), st.dicke_state(2, 0), np.linspace(0.0, stop, 30))
        prof = st.velocity_profile(traj)
        assert prof.dtheta.tobytes() == np.gradient(traj.thetas, traj.betas, axis=0).tobytes()


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


class TestSymmetryDeficitShape:
    @pytest.mark.parametrize("n", [1, 3])
    def test_wrong_qubit_count(self, n):
        with pytest.raises(DomainError, match="acts on 2 qubits"):
            st.operator_symmetry_deficit(np.diag([1.0, 2.0, 3.0, 4.0]), n)

    def test_right_qubit_count(self):
        assert st.operator_symmetry_deficit(np.diag([1.0, 2.0, 3.0, 4.0]), 2) == 1.0

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (6, 6), (1, 1)])
    def test_not_2n_square(self, shape):
        with pytest.raises(DomainError, match="not 2\\^n x 2\\^n"):
            st.operator_symmetry_deficit(np.zeros(shape), 2)


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
