import inspect
import math
import tracemalloc

import numpy as np
import pytest
from conftest import haar_state, uniform_qubit, uniform_star
from hypothesis import given, settings
from hypothesis import strategies as hs

import stellar as st
from stellar import measures
from stellar.cli import main as cli_main
from stellar.errors import ConvergenceError, DomainError, ResourceError
from stellar.measures import (
    _ascend,
    _husimi_eval,
    _husimi_grid,
    _husimi_weights,
    _top_k,
    husimi_batch,
    husimi_gradient,
)

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

    @pytest.mark.parametrize("kind", ["random", "clustered", "coincident"])
    def test_radius_past_one_by_rounding_only(self, kind):
        # the mean of n unit vectors sums with relative error (n - 1) * eps / 2 at most, and the
        # normalization, the division and the norm add a few roundings: far below 1e-12 for any n here
        eps, rng = np.finfo(float).eps, np.random.default_rng(58)
        for n in (1, 2, 3, 5, 8, 13, 24, 40, 58, 200, 1000):
            for _ in range(40 if n <= 58 else 2):
                centre = rng.normal(size=3)
                if kind == "random":
                    vectors = rng.normal(size=(n, 3))
                elif kind == "clustered":
                    vectors = centre + rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-16, -6, size=(n, 1))
                else:
                    vectors = np.repeat(centre[None], n, axis=0)
                vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
                c = st.Constellation(n, tuple(st.Star(*v) for v in vectors.tolist()))
                assert st.barycenter(c).d <= 1.0 + (n / 2 + 4) * eps


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

        assert st.rec_family_state is states.rec_family_state
        assert not hasattr(measures, "rec_family_state")

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

    def test_iteration_cap_error_carries_best(self, monkeypatch):
        s = st.SymmetricState(5, np.arange(1, 7) * (1 + 0.5j))
        with monkeypatch.context() as patch:
            patch.setattr(measures, "_MAX_ITER", 0)
            with pytest.raises(st.ConvergenceError) as err:
                st.e_g(s)
        assert err.value.converged is False
        assert 0.0 <= err.value.best.value
        # the cap only degrades polish, not the basin choice
        assert abs(err.value.best.value - st.e_g(s).value) < 1e-3

    @pytest.mark.parametrize(
        "state, grid",
        [
            (st.dicke_state(3, 1), (2, 2)),  # a 2-row grid holds only the poles, where Q and its gradient vanish
            (st.symmetrize([st.QubitState(0.0), st.QubitState(math.pi), st.QubitState(math.pi / 2, 0.0),
                            st.QubitState(math.pi / 2, math.pi)]), (3, 2)),  # every grid point is a star
        ],
    )
    def test_maximum_below_the_mean_raises(self, state, grid):
        # Q averages 1/(n+1) over the sphere, so a best value below that is no maximum
        with pytest.raises(st.ConvergenceError, match="below the mean") as err:
            st.e_g(state, grid=grid)
        assert err.value.best.overlap < 1.0 / (state.n + 1) <= st.e_g(state).overlap


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

    @pytest.mark.parametrize("n,k", [(0, 0), (3, 4), (3, -1)])
    def test_invalid_label_is_domain_error(self, n, k):
        with pytest.raises(DomainError, match="label") as err:
            st.e_g_dicke(n, k)
        assert type(err.value) is DomainError

    @pytest.mark.parametrize("n", [80, 100, 150, 300])
    def test_optimizer_at_large_n(self, n):
        # the convergence floor depends on n alone, so the ascent polishes
        # every grid start however large the Dicke weights get
        err = [abs(st.e_g(st.dicke_state(n, k)).value - st.e_g_dicke(n, k).value) for k in range(n + 1)]
        assert max(err) <= 1e-12


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

    def test_odd_weight_amplitudes_vanish_to_rounding(self):
        # grid edges included: theta in [0, pi/2], phi in [0, pi]
        grid = [(th, ph) for th in np.linspace(0, math.pi / 2, 61) for ph in np.linspace(0, math.pi, 61)]
        for s in [*(st.rec_family_state(th, ph) for th, ph in grid), st.tetrahedron_state()]:
            assert max(abs(s.d[1]), abs(s.d[3])) <= 1e-15

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


def reference_husimi_eval(gbar, n, theta, phi):
    """The index-table form of the Husimi evaluator, kept as a reference:
    cos and sin power tables of n+3 columns, clamped exponents whose zero
    coefficients cancel them, and explicit derivative formulas."""
    k = np.arange(n + 1)
    kf = k.astype(float)
    c0, s0 = n - k, k
    cp1, sm1 = n - k + 1, np.maximum(k - 1, 0)
    cm1, sp1 = np.maximum(n - k - 1, 0), k + 1
    cp2, sm2 = n - k + 2, np.maximum(k - 2, 0)
    cm2, sp2 = np.maximum(n - k - 2, 0), k + 2
    b1 = kf * (kf - 1.0)
    b2 = kf * (n - kf + 1.0) + (n - kf) * (kf + 1.0)
    b3 = (n - kf) * (n - kf - 1.0)

    th = np.asarray(theta, dtype=float).ravel()
    ph = np.asarray(phi, dtype=float).ravel()
    m = th.shape[0]
    c, s = np.cos(0.5 * th), np.sin(0.5 * th)
    cp = np.empty((m, n + 3))
    sp = np.empty((m, n + 3))
    cp[:, 0] = 1.0
    sp[:, 0] = 1.0
    np.multiply.accumulate(np.broadcast_to(c[:, None], (m, n + 2)), axis=1, out=cp[:, 1:])
    np.multiply.accumulate(np.broadcast_to(s[:, None], (m, n + 2)), axis=1, out=sp[:, 1:])

    w = gbar * np.exp(1j * np.outer(ph, k))
    t0 = cp[:, c0] * sp[:, s0]
    f = (w * t0).sum(axis=1)
    q = f.real**2 + f.imag**2
    fc = f.conj()
    a = kf * (cp[:, cp1] * sp[:, sm1]) - (n - kf) * (cp[:, cm1] * sp[:, sp1])
    f_t = 0.5 * (w * a).sum(axis=1)
    f_p = (w * 1j * kf * t0).sum(axis=1)
    grad = np.stack([2.0 * (fc * f_t).real, 2.0 * (fc * f_p).real], axis=1)
    a_prime = b1 * (cp[:, cp2] * sp[:, sm2]) - b2 * t0 + b3 * (cp[:, cm2] * sp[:, sp2])
    f_tt = 0.25 * (w * a_prime).sum(axis=1)
    f_tp = 0.5 * (w * 1j * kf * a).sum(axis=1)
    f_pp = (w * -(kf**2) * t0).sum(axis=1)
    htt = 2.0 * (np.abs(f_t) ** 2 + (fc * f_tt).real)
    htp = 2.0 * ((f_p.conj() * f_t).real + (fc * f_tp).real)
    hpp = 2.0 * (np.abs(f_p) ** 2 + (fc * f_pp).real)
    return q, grad, (htt, htp, hpp)


class TestSingleHusimiEvaluator:
    """One power table T and a tridiagonal d/dtheta serve the value, the
    derivatives and the E_G grid sweep."""

    @given(
        hs.integers(1, 40),
        hs.integers(0, 2**32 - 1),
        hs.lists(
            hs.tuples(hs.floats(0.0, math.pi), hs.floats(0.0, 2.0 * math.pi, exclude_max=True)),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_index_table_evaluator(self, n, seed, points):
        gbar = _husimi_weights(haar_state(n, np.random.default_rng(seed)))
        points = points + [(0.0, points[0][1]), (math.pi, points[0][1])]
        th, ph = (np.array(v) for v in zip(*points))
        q, grad, hess = _husimi_eval(gbar, n, th, ph, 2)
        q_ref, grad_ref, hess_ref = reference_husimi_eval(gbar, n, th, ph)
        assert np.array_equal(q, q_ref)
        assert np.abs(grad - grad_ref).max() <= 1e-12
        assert max(np.abs(h - h_ref).max() for h, h_ref in zip(hess, hess_ref)) <= 1e-12
        q1, grad1, none = _husimi_eval(gbar, n, th, ph, 1)
        assert np.array_equal(q1, q) and np.array_equal(grad1, grad) and none is None

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 25, 40])
    def test_grid_sweep_equals_pointwise_values(self, n):
        s = haar_state(n, RNG)
        thetas = np.linspace(0.0, math.pi, 17)
        phis = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
        grid = _husimi_grid(_husimi_weights(s), n, thetas, phis)
        tt, pp = np.meshgrid(thetas, phis, indexing="ij")
        pointwise = husimi_batch(s, tt.ravel(), pp.ravel()).reshape(grid.shape)
        assert np.abs(grid - pointwise).max() <= 4 * np.finfo(float).eps

    def test_e_g_options(self):
        # the settings no program caller passes are module constants; each one left is set by the CLI
        signatures = {
            st.evolve: ["h", "psi0", "betas", "max_step"],
            st.e_g: ["state", "grid"],
            st.reduce_unitary: ["u", "tol"],
            st.project_sym: ["full"],
            st.is_permutation_symmetric: ["full"],
        }
        for func, params in signatures.items():
            assert list(inspect.signature(func).parameters) == params
        t = st.build_transition(3)
        assert type(t) is np.ndarray and t.shape == (8, 8)

    @pytest.mark.parametrize("n,k", [(6, 1), (6, 2), (6, 3), (6, 4), (6, 5), (10, 3)])
    def test_witness_attains_overlap_on_dicke_rings(self, n, k):
        # the Husimi maximum of a Dicke state is a ring, so which phi the
        # witness takes follows round-off; every point of the ring attains
        # the printed overlap
        state = st.dicke_state(n, k)
        r = st.e_g(state)
        assert abs(st.husimi(state, r.witness) - r.overlap) <= 1e-12
        ring = husimi_batch(state, np.full(64, r.witness.theta), np.linspace(0.0, 2.0 * math.pi, 64))
        assert np.abs(ring - r.overlap).max() <= 1e-12
        assert r.witness.phi == 0.0

    @pytest.mark.parametrize("n,k1,k2", [(4, 0, 4), (12, 0, 12), (7, 1, 6), (7, 5, 7), (8, 2, 7), (8, 3, 6)])
    def test_witness_in_first_period(self, n, k1, k2):
        # with nonzero Dicke coefficients at k1 and k2 alone (GHZ: 0 and n),
        # Q(theta, phi) has period 2 pi / (k2 - k1) in phi
        d = np.zeros(n + 1, dtype=complex)
        d[[k1, k2]] = 1.0
        state = st.ghz_state(n) if k2 - k1 == n else st.SymmetricState(n, d)
        r = st.e_g(state)
        assert r.witness.phi < 2.0 * math.pi / (k2 - k1)
        assert abs(st.husimi(state, r.witness) - r.overlap) <= 1e-12


def reference_ascend(gbar, n, theta, phi, gtol):
    """The ascent as it was written with one array per part of a start's state,
    each replaced by its own np.where: ``_ascend`` must match it bit for bit."""
    th = np.array(theta, dtype=float)
    ph = np.array(phi, dtype=float)
    m = th.shape[0]

    q, g, hess = _husimi_eval(gbar, n, th, ph, 2)
    htt, htp, hpp = hess
    gnorm = np.abs(g).max(axis=1)
    converged = gnorm <= gtol
    dead = np.zeros(m, dtype=bool)
    damping = np.ones(m)
    for _ in range(measures._MAX_ITER):
        active = ~converged & ~dead
        if not active.any():
            break

        # eigenvalues of the symmetric 2x2 Hessian, clamped so -H is SPD
        mean = 0.5 * (htt + hpp)
        rad = np.sqrt(np.maximum(0.25 * (htt - hpp) ** 2 + htp**2, 0.0))
        lam1_raw, lam2_raw = -(mean - rad), -(mean + rad)  # eigenvalues of -H
        floor = np.maximum(1e-8 * np.maximum(np.abs(lam1_raw), np.abs(lam2_raw)), 1e-12)
        lam1 = np.maximum(lam1_raw, floor)
        lam2 = np.maximum(lam2_raw, floor)
        # eigenvectors of the 2x2: rotate by angle alpha
        alpha = 0.5 * np.arctan2(2.0 * -htp, -(htt - hpp))
        ca, sa = np.cos(alpha), np.sin(alpha)
        g1 = ca * g[:, 0] + sa * g[:, 1]
        g2 = -sa * g[:, 0] + ca * g[:, 1]
        s1, s2 = g1 / lam1, g2 / lam2
        step_t = ca * s1 - sa * s2
        step_p = sa * s1 + ca * s2
        norm = np.hypot(step_t, step_p)
        cap = np.where(norm > 1.0, 1.0 / np.where(norm > 0.0, norm, 1.0), 1.0)
        scale = damping * cap

        trial_th, trial_ph = measures._wrap_chart(th + scale * step_t, ph + scale * step_p)
        q2, g2v, hess2 = _husimi_eval(gbar, n, trial_th, trial_ph, 2)
        gnorm2 = np.abs(g2v).max(axis=1)
        accept = active & ((gnorm2 <= gnorm) | (q2 > q))

        th = np.where(accept, trial_th, th)
        ph = np.where(accept, trial_ph, ph)
        q = np.where(accept, q2, q)
        g = np.where(accept[:, None], g2v, g)
        htt = np.where(accept, hess2[0], htt)
        htp = np.where(accept, hess2[1], htp)
        hpp = np.where(accept, hess2[2], hpp)
        gnorm = np.where(accept, gnorm2, gnorm)
        damping = np.where(accept, np.minimum(2.0 * damping, 1.0), 0.5 * damping)

        converged |= active & (gnorm <= gtol)
        exhausted = active & ~converged & (damping < 1e-6)
        converged |= exhausted & (gnorm <= 1e2 * gtol)
        dead |= exhausted & (gnorm > 1e2 * gtol)
    return th, ph, q, converged


def reference_starts(state, grid):
    """``e_g``'s ascent starts, picked by a stable argsort of the whole grid and a
    dedupe that recomputes the trig values of both points for every
    candidate-start pair; returns gbar, gtol and the starts' theta and phi."""
    n_th, n_ph = grid
    gbar = _husimi_weights(state)
    n = state.n
    gtol = max(measures._GTOL, 4.0 * np.finfo(float).eps * n * n)
    thetas = np.linspace(0.0, math.pi, n_th)
    phis = np.linspace(0.0, 2.0 * math.pi, n_ph, endpoint=False)
    qgrid = _husimi_grid(gbar, n, thetas, phis).ravel()
    order = np.argsort(-qgrid, kind="stable")[: 16 * measures._GRID_STARTS]
    spacing = min(math.pi / (n_th - 1), 2.0 * math.pi / n_ph)
    starts = []
    for i in order:
        if len(starts) >= measures._GRID_STARTS:
            break
        th, ph = thetas[i // n_ph], phis[i % n_ph]
        for t0, p0 in starts:
            cosd = math.cos(t0) * math.cos(th) + math.sin(t0) * math.sin(th) * math.cos(p0 - ph)
            if math.acos(min(1.0, max(-1.0, cosd))) < spacing:
                break
        else:
            starts.append((float(th), float(ph)))
    return gbar, gtol, np.array([s[0] for s in starts]), np.array([s[1] for s in starts])


def reference_e_g(state, grid):
    """``e_g`` from the reference starts and the reference ascent: the top-k
    selection must match them bit for bit."""
    gbar, gtol, th0, ph0 = reference_starts(state, grid)
    n = state.n
    th, ph, q, ok = reference_ascend(gbar, n, th0, ph0, gtol)
    best = float(q.max())
    g = math.gcd(*np.diff(np.flatnonzero(gbar)).tolist())
    ph = ph % (2.0 * math.pi / g) if g else np.zeros_like(ph)
    candidates = sorted(
        ((st.QubitState(th[i], ph[i]), bool(ok[i])) for i in range(len(th0)) if q[i] >= best - 1e-11),
        key=lambda c: (c[0].theta, c[0].phi),
    )
    overlap_val = min(max(best, 1e-300), 1.0)
    result = st.GeometricResult(-math.log2(overlap_val) + 0.0, candidates[0][0], overlap_val)
    raises = best < 1.0 / (n + 1) or not any(c[1] for c in candidates)
    return result, raises


def _e_g_outcome(state, grid):
    try:
        return st.e_g(state, grid=grid), False
    except ConvergenceError as err:
        return err.best, True


def _bits(result):
    return [x.hex() for x in (result.value, result.overlap, result.witness.theta, result.witness.phi)]


def _e_g_states():
    rng = np.random.default_rng(2024)
    out = [st.dicke_state(n, k) for n in range(1, 13) for k in range(n + 1)]
    out += [st.ghz_state(n) for n in range(2, 13)] + [st.ghz_state(40)]
    out += [st.coherent_state(n, uniform_qubit(rng)) for n in (1, 3, 8, 20)]
    out += [st.coherent_state(5, st.QubitState(0.0, 0.0)), st.coherent_state(6, st.QubitState(math.pi, 0.0))]
    # an m-fold star among k others
    out += [st.symmetrize([uniform_qubit(rng)] * m + [uniform_qubit(rng) for _ in range(k)])
            for m, k in ((2, 2), (3, 5), (4, 8), (5, 1))]
    out += [haar_state(n, rng) for n in (1, 2, 3, 4, 5, 7, 10, 16, 25, 40) for _ in range(3)]
    return out


class TestGridStarts:
    """The ascent starts come from an exact top-k selection of the grid."""

    @given(
        hs.lists(hs.floats(allow_nan=False), min_size=3, max_size=3, unique=True),
        hs.lists(hs.integers(0, 2), min_size=1, max_size=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_top_k_equals_stable_argsort(self, values, picks):
        q = np.array(values)[picks]
        for k in range(1, q.size + 3):
            assert np.array_equal(_top_k(q, k), np.argsort(-q, kind="stable")[:k])

    @pytest.mark.parametrize("grid", [(64, 128), (9, 12), (33, 33)])
    def test_e_g_bitwise_equals_full_sort_reference(self, grid):
        for state in _e_g_states():
            got, got_raises = _e_g_outcome(state, grid)
            want, want_raises = reference_e_g(state, grid)
            assert (_bits(got), got_raises) == (_bits(want), want_raises), (state.n, state.d)


def _same_bits(got, want):
    return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestAscentReference:
    """``_ascend`` returns the reference ascent's theta, phi, Q and converged bits."""

    @pytest.mark.parametrize("grid", [(64, 128), (9, 12), (33, 33)])
    def test_on_e_g_starts(self, grid):
        for state in _e_g_states():
            gbar, gtol, th0, ph0 = reference_starts(state, grid)
            got = _ascend(gbar, state.n, th0, ph0, gtol)
            assert _same_bits(got, reference_ascend(gbar, state.n, th0, ph0, gtol)), (state.n, state.d)

    @given(
        hs.integers(1, 40),
        hs.integers(0, 2**32 - 1),
        hs.lists(
            hs.tuples(hs.floats(0.0, math.pi), hs.floats(0.0, 2.0 * math.pi, exclude_max=True)),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_on_random_starts_with_both_poles(self, n, seed, points):
        gbar = _husimi_weights(haar_state(n, np.random.default_rng(seed)))
        points = points + [(0.0, points[0][1]), (math.pi, points[0][1])]
        th0, ph0 = (np.array(v) for v in zip(*points))
        gtol = max(measures._GTOL, 4.0 * np.finfo(float).eps * n * n)
        assert _same_bits(_ascend(gbar, n, th0, ph0, gtol), reference_ascend(gbar, n, th0, ph0, gtol))

    @pytest.mark.parametrize("gtol", [0.0, 1e-19, 1e-18])
    def test_damping_collapse_on_dicke_rings(self, gtol):
        # below the round-off floor the damping of some starts collapses: at
        # gtol 0 they are dropped, at 1e-19 and 1e-18 some converge at the floor
        rng = np.random.default_rng(11)
        for n in range(2, 16):
            for k in range(1, n):
                gbar = _husimi_weights(st.dicke_state(n, k))
                th0 = np.concatenate([rng.uniform(0.0, math.pi, 6), [0.0, math.pi]])
                ph0 = rng.uniform(0.0, 2.0 * math.pi, 8)
                got = _ascend(gbar, n, th0, ph0, gtol)
                assert _same_bits(got, reference_ascend(gbar, n, th0, ph0, gtol)), (n, k)


class TestHusimiWrappers:
    @given(hs.integers(1, 40), hs.integers(0, 2**32 - 1), hs.floats(0.0, math.pi), hs.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_husimi_is_clamped_batch_value(self, n, seed, theta, phi):
        s = haar_state(n, np.random.default_rng(seed))
        p = st.QubitState(theta, phi)
        want = min(husimi_batch(s, p.theta, p.phi)[0], 1.0)
        assert st.husimi(s, p).hex() == float(want).hex()

    @pytest.mark.parametrize(
        "theta,phi,size",
        [
            (0.7, 1.1, 1),
            ([0.7], [1.1], 1),
            ([0.1, 0.7, 2.0], [1.1, 0.3, 5.0], 3),
            (np.full((2, 3), 0.7), np.linspace(0.0, 6.0, 6).reshape(2, 3), 6),
            (0.7, np.array([0.3, 1.1]), 2),
        ],
    )
    def test_shapes(self, theta, phi, size):
        s = haar_state(5, np.random.default_rng(7))
        assert husimi_batch(s, theta, phi).shape == (size,)
        assert husimi_gradient(s, theta, phi).shape == (size, 2)


class TestLargeN:
    @pytest.mark.parametrize("n,seed", [(200, 1), (400, 2)])
    def test_haar_attains_grid_maximum(self, n, seed):
        state = haar_state(n, np.random.default_rng(seed))
        r = st.e_g(state)
        assert abs(st.husimi(state, r.witness) - r.overlap) <= 1e-12
        thetas = np.linspace(0.0, math.pi, 257)
        phis = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)
        assert r.overlap >= _husimi_grid(_husimi_weights(state), n, thetas, phis).max() - 1e-12

    def test_ghz400(self):
        assert abs(st.e_g(st.ghz_state(400)).value - 1.0) <= 1e-12


class TestHusimiGridLimits:
    @pytest.mark.parametrize("grid", [(64.5, 128), (64, 128, 3), (64,), None, "64x128", (1, 128), (64, 1)])
    def test_malformed_grid_is_domain_error(self, grid):
        with pytest.raises(DomainError):
            st.e_g(st.dicke_state(4, 1), grid=grid)

    def test_numpy_integer_grid(self):
        want = st.e_g(st.dicke_state(4, 1))
        assert st.e_g(st.dicke_state(4, 1), grid=(np.int64(64), np.int32(128))) == want

    def test_oversized_grid_refused_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match="bytes"):
                st.e_g(st.dicke_state(4, 1), grid=(10**6, 10**6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_oversized_grid_exits_3(self, capsys):
        tracemalloc.start()
        try:
            code = cli_main(["measure", "--dicke", "4", "1", "--eg", "--husimi-grid", "1000000x1000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 3 and out == "" and err.startswith("error:")
        assert peak < 2**24
