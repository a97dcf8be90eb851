import itertools
import json
import math

import numpy as np
import pytest
from conftest import generator_maps, haar_state, orbit_constant, transposition_index_maps, uniform_qubit
from hypothesis import given, settings
from hypothesis import strategies as hs

import stellar as st
from stellar import states
from stellar.errors import DomainError, ResourceError, SymmetryViolationError
from stellar.states import _exactly_symmetric, _sqrt_binom

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
    def test_many_copies_are_coherent(self):
        q = st.QubitState(1.1, 0.4)
        assert np.abs(st.symmetrize([q] * 800).d - st.coherent_state(800, q).d).max() <= 1e-12

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


def _per_factor_pair_product(pairs):
    """The Vieta product as it stood before it worked in one buffer, kept verbatim as the bitwise reference."""
    c = np.array([1.0 + 0.0j])
    for a, b in pairs:
        c = a * np.concatenate([c, [0.0]]) + b * np.concatenate([[0.0], c])
    return c


# one factor of a product: a star at either pole, the previous factor again, a qubit, or any complex pair
_PART = hs.floats(-4.0, 4.0, allow_subnormal=True) | hs.sampled_from([0.0, -0.0])
_FACTOR = (
    hs.sampled_from(["north", "south", "repeat"])
    | hs.tuples(hs.floats(0.0, math.pi), hs.floats(0.0, 2.0 * math.pi))
    | hs.tuples(_PART, _PART, _PART, _PART)
)


def _pairs_from(factors):
    pairs = []
    for f in factors:
        if f == "repeat":
            pairs.append(pairs[-1] if pairs else (1.0 + 0.0j, 0.0j))
        elif isinstance(f, str):
            pairs.append(st.QubitState(0.0 if f == "north" else math.pi).amplitudes)
        elif len(f) == 2:
            pairs.append(st.QubitState(*f).amplitudes)
        else:
            pairs.append((complex(f[0], f[1]), complex(f[2], f[3])))
    return pairs


class TestPairProduct:
    """The one-buffer Vieta product keeps the per-factor operations, so every byte of the old product."""

    @given(hs.lists(_FACTOR, min_size=1, max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_per_factor(self, factors):
        pairs = _pairs_from(factors)
        got, want = states._pair_product_coeffs(pairs), _per_factor_pair_product(pairs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 33, 64])
    def test_poles_and_repeats(self, n):
        rng = np.random.default_rng(n)
        q = uniform_qubit(rng).amplitudes
        for pairs in ([q] * n, [(1.0 + 0.0j, 0.0j)] * n, [(0.0j, 1.0 + 0.0j)] * n,
                      [(0.0j, 1.0 + 0.0j), q, (1.0 + 0.0j, 0.0j)] * n):
            assert states._pair_product_coeffs(pairs).tobytes() == _per_factor_pair_product(pairs).tobytes()

    @given(hs.lists(hs.tuples(hs.floats(0.0, math.pi), hs.floats(0.0, 2.0 * math.pi)), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_state_as_the_constructor_gives_it(self, angles):
        # symmetrize hands the fresh row to _canonical and skips the constructor: the same bits
        parts = [st.QubitState(t, p) for t, p in angles]
        raw = _per_factor_pair_product([q.amplitudes for q in parts]) / _sqrt_binom(len(parts))
        got = st.symmetrize(parts)
        assert got.d.tobytes() == st.SymmetricState(len(parts), raw).d.tobytes()
        assert got.n == len(parts) and not got.d.flags.writeable


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

    @given(hs.integers(1, 8), hs.integers(0, 2**32 - 1), hs.booleans())
    @settings(max_examples=60, deadline=None)
    def test_deficit_matches_gathered_transpositions(self, n, seed, symmetric):
        rng = np.random.default_rng(seed)
        if symmetric:
            full = st.embed_full(haar_state(n, rng))
        else:
            full = st.FullState(n, rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
        want = 0.0
        for perm in transposition_index_maps(n):
            want = max(want, float(np.abs(full.amps[perm] - full.amps).max()))
        assert st.is_permutation_symmetric(full) == (want <= 1e-10, want)


def _gathered_report(full):
    """The gathered reference for is_permutation_symmetric."""
    want = 0.0
    for perm in transposition_index_maps(full.n):
        want = max(want, float(np.abs(full.amps[perm] - full.amps).max()))
    return (want <= 1e-10, want)


class TestExactSymmetryShortcut:
    """The two-generator test of is_permutation_symmetric gives the reference report bit for bit."""

    @given(hs.integers(2, 7), hs.integers(0, 2**32 - 1), hs.sampled_from(["swap", "cycle", "both"]))
    @settings(max_examples=60, deadline=None)
    def test_orbit_constant_states(self, n, seed, group):
        swap, cycle = generator_maps(n)
        maps = {"swap": [swap], "cycle": [cycle], "both": [swap, cycle]}[group]
        full = st.FullState(n, orbit_constant(n, maps, np.random.default_rng(seed)))
        report = st.is_permutation_symmetric(full)
        assert report == _gathered_report(full)
        # for n <= 3 the orbits of the cycle are the Hamming-weight classes
        if group == "both" or n == 2 or (group == "cycle" and n == 3):
            assert report == (True, 0.0)
        else:
            assert report.deficit > 1e-6

    def test_one_and_two_qubits(self):
        rng = np.random.default_rng(5)
        full = st.FullState(1, rng.normal(size=2) + 1j * rng.normal(size=2))
        assert st.is_permutation_symmetric(full) == (True, 0.0) == _gathered_report(full)
        assert _exactly_symmetric(full.amps, 1)
        full = st.FullState(2, [0.5, 0.25, -0.25j, 0.1])
        report = st.is_permutation_symmetric(full)
        assert report == _gathered_report(full) and not report.symmetric
        full = st.FullState(2, [0.5, 0.25j, 0.25j, 0.1])
        assert st.is_permutation_symmetric(full) == (True, 0.0) == _gathered_report(full)

    def test_signed_zeros_are_equal(self):
        # weight 1 at indices 1, 2, 4 and weight 2 at 3, 5, 6
        w1 = [complex(0.0, 0.0), complex(-0.0, -0.0), complex(-0.0, 0.0)]
        w2 = [complex(0.0, 0.2), complex(-0.0, 0.2), complex(0.0, 0.2)]
        full = st.FullState(3, [0.5, w1[0], w1[1], w2[0], w1[2], w2[1], w2[2], 0.1])
        assert np.signbit(full.amps[2].real) and not np.signbit(full.amps[1].real)
        report = st.is_permutation_symmetric(full)
        assert report == (True, 0.0) == _gathered_report(full)
        assert math.copysign(1.0, report.deficit) == 1.0

    def test_amplitudes_every_permutation_fixes_are_free(self):
        amps = st.embed_full(haar_state(5, np.random.default_rng(51))).amps.copy()
        amps[0] += 0.3
        amps[-1] -= 0.2j
        full = st.FullState(5, amps)
        assert st.is_permutation_symmetric(full) == (True, 0.0) == _gathered_report(full)

    def test_symmetric_state_takes_constant_calls(self, pair_axes_calls):
        full = st.embed_full(haar_state(8, np.random.default_rng(81)))
        assert st.is_permutation_symmetric(full) == (True, 0.0)
        assert pair_axes_calls[0] == 1

    def test_perturbed_state_takes_the_full_loop(self, pair_axes_calls):
        amps = st.embed_full(haar_state(8, np.random.default_rng(81))).amps.copy()
        amps[3] += 1e-13
        full = st.FullState(8, amps)
        report = st.is_permutation_symmetric(full)
        assert pair_axes_calls[0] == 1 + 8 * 7 // 2
        assert report == _gathered_report(full) and report.deficit > 0.0


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

    @pytest.mark.parametrize(
        "j,m", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_non_finite_is_domain_error(self, j, m):
        with pytest.raises(DomainError):
            st.jm_to_nk(j, m)


class TestBinomialRange:
    def test_last_representable_n_is_unchanged(self):
        for n in (1, 2, 40, 1000, 1029):
            want = np.sqrt(np.array([float(math.comb(n, k)) for k in range(n + 1)]))
            assert np.array_equal(_sqrt_binom(n), want)

    @pytest.mark.parametrize("n", [1030, 1100])
    def test_beyond_float_range_is_resource_error(self, n):
        with pytest.raises(ResourceError, match="float range"):
            _sqrt_binom(n)
        with pytest.raises(ResourceError):
            st.state_to_stars(st.dicke_state(n, 3))


class TestStateJson:
    def test_round_trip_exact(self):
        s = haar_state(7, RNG)
        back = st.state_from_json(st.state_to_json(s))
        assert np.array_equal(s.d, back.d)

    def test_round_trip_bitwise_over_haar_states(self):
        rng = np.random.default_rng(1729)
        for n in (7,) * 2000 + (1, 2, 3, 12, 40) * 40:
            s = haar_state(n, rng)
            back = st.state_from_json(st.state_to_json(s))
            assert back.n == n and np.array_equal(s.d, back.d)
            assert not back.d.flags.writeable

    @pytest.mark.parametrize(
        "dicke",
        [
            [[0.0, 2.0], [1.0, 0.0], [0.0, 0.0]],  # neither normalized nor phase-fixed
            [[0.6, 1e-17], [0.8, 0.0], [0.0, 0.0]],  # pivot off the real axis by a rounding error
            [[0.6, 0.0], [0.8000000001, 0.0], [0.0, 0.0]],  # norm off by 1e-10
            [[0.0, 0.0], [-0.6, 0.0], [0.0, 0.8]],  # negative pivot after a zero
        ],
    )
    def test_other_rows_are_canonicalized(self, dicke):
        back = st.state_from_json(json.dumps({"n": 2, "dicke": dicke}))
        want = st.SymmetricState(2, [complex(re, im) for re, im in dicke])
        assert np.array_equal(back.d, want.d)
        pivot = back.d[np.flatnonzero(back.d)[0]]
        assert pivot.imag == 0.0 and pivot.real > 0.0
        assert not back.d.flags.writeable

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

    def test_bell_states(self):
        assert np.array_equal(st.bell_state("psi+").d, st.dicke_state(2, 1).d)
        r = 1.0 / math.sqrt(2.0)
        assert np.abs(st.bell_state("phi+").d - [r, 0.0, r]).max() <= 1e-16

    @pytest.mark.parametrize(
        "call,error,match",
        [
            pytest.param(lambda: st.QubitState(math.nan, 0.0), DomainError, "finite", id="qubit-nan-theta"),
            pytest.param(lambda: st.QubitState(1.0, -math.inf), DomainError, "finite", id="qubit-inf-phi"),
            pytest.param(lambda: st.SymmetricState(2, [1.0, 0.0]), DomainError, "expected 3", id="dicke-count"),
            pytest.param(lambda: st.FullState(0, [1.0]), DomainError, "at least one", id="full-no-qubit"),
            pytest.param(lambda: st.FullState(2, [1.0, 0.0]), DomainError, "expected 4", id="full-count"),
            pytest.param(
                lambda: st.overlap(st.dicke_state(2, 0), st.dicke_state(3, 0)), DomainError, "equal", id="overlap-n"
            ),
            pytest.param(lambda: st.symmetrization_constant([]), DomainError, "at least one", id="constant-empty"),
            pytest.param(
                lambda: st.symmetrization_constant([st.QubitState(0.0, 0.0)] * 171),
                ResourceError,
                "float range",
                id="constant-171",
            ),
            pytest.param(lambda: st.nk_to_jm(0, 0), DomainError, "label", id="nk-no-qubit"),
            pytest.param(lambda: st.nk_to_jm(3, 4), DomainError, "label", id="nk-k-above-n"),
            pytest.param(lambda: st.nk_to_jm(3, -1), DomainError, "label", id="nk-negative-k"),
            pytest.param(lambda: st.bell_state("psi-"), DomainError, "antisymmetric", id="bell-singlet"),
        ],
    )
    def test_invalid_arguments_raise_typed_errors(self, call, error, match):
        with pytest.raises(error, match=match) as err:
            call()
        assert type(err.value) is error


class TestAnyFiniteScale:
    """A finite row normalizes at any scale; only an all-zero row is refused."""

    ROW = np.array([complex(-0.0, 1.0), complex(3.0, -0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])

    @pytest.mark.parametrize("exponent", [664, -664, -565, -1070, 1020])
    def test_power_of_two_scale_gives_the_same_bits(self, exponent):
        # scaling by 2**exponent is exact, so the normalized rows must agree bit for bit, signed zeros included
        scaled = np.empty_like(self.ROW)
        scaled.real, scaled.imag = np.ldexp(self.ROW.real, exponent), np.ldexp(self.ROW.imag, exponent)
        for make, attr in ((st.SymmetricState, "d"), (st.FullState, "amps")):
            n = 3 if make is st.SymmetricState else 2
            want, got = getattr(make(n, self.ROW), attr), getattr(make(n, scaled), attr)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.signbit(st.FullState(2, scaled).amps.real[3])

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-200])
    def test_decimal_scales(self, scale):
        want = np.array([1.0, 3.0]) / math.sqrt(10.0)
        assert np.abs(st.SymmetricState(1, [scale, 3.0 * scale]).d - want).max() <= 1e-15
        assert np.abs(st.FullState(1, [scale, 3.0 * scale]).amps - want).max() <= 1e-15

    def test_smallest_subnormal_is_a_state(self):
        assert st.SymmetricState(2, [0.0, 5e-324, 0.0]).d.tolist() == [0.0, 1.0, 0.0]
        assert st.FullState(1, [0.0, -5e-324]).amps.tolist() == [0.0, -1.0]

    @pytest.mark.parametrize("bad", [[0.0, 0.0], [math.inf, 1.0], [math.nan, 0.0]])
    def test_zero_and_non_finite_rows_rejected(self, bad):
        with pytest.raises(DomainError):
            st.SymmetricState(1, bad)
        with pytest.raises(DomainError):
            st.FullState(1, bad)
