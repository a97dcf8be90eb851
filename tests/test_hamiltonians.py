import itertools
import math

import numpy as np
import pytest
from conftest import generator_maps, orbit_constant, transposition_index_maps
from hypothesis import given, settings
from hypothesis import strategies as hs

import stellar as st
from stellar.dynamics import operator_symmetry_deficit
from stellar.states import _exactly_symmetric
from stellar.errors import DomainError, ExpressionError, ExpressionSemanticError, ExpressionSyntaxError, ResourceError
from stellar.hamiltonians import (
    FACTORS,
    MAX_MATRIX_BYTES,
    HermitianOperator,
    PairTerm,
    SymTerm,
    TensorTerm,
    _arrangements,
    parse,
    pretty,
)

X, Y, Z, I2 = FACTORS["X"], FACTORS["Y"], FACTORS["Z"], FACTORS["I"]

# grammar tokens, whitespace with newlines and tabs, and characters the grammar has no place for
_SOURCE_PIECES = ["sym(", "H(", "sqrt(", "(", ")", ",", "+", "-", "*", "/", "x", "X", "Y", "Z", "I", "P0", "Q",
                  "0", "3", "4", "0.5", "1e999", "2e-400", " ", "\n", "\t", "\r\n", "@", "#", "é"]


class TestParse:
    def test_pair_shorthand(self):
        expr = parse("H(2,3)")
        assert expr.terms == (PairTerm(1.0, 2, 3),)
        h = st.build_matrix(expr).matrix
        assert np.allclose(h, 0.5 * (np.kron(Y, Z) + np.kron(Z, Y)))

    def test_pair_combination(self):
        expr = parse("1/sqrt(2)*H(2,3) + 1/sqrt(2)*H(0,3)")
        assert expr.terms == (
            PairTerm(1 / math.sqrt(2), 2, 3),
            PairTerm(1 / math.sqrt(2), 0, 3),
        )

    def test_sym_body(self):
        expr = parse("sym(X Z P0)")
        assert expr.terms == (SymTerm(1.0, ("X", "Z", "P0")),)

    def test_plain_tensor_with_signs(self):
        expr = parse("-1*X x Y + -1*Y x X")
        assert expr.terms == (TensorTerm(-1.0, ("X", "Y")), TensorTerm(-1.0, ("Y", "X")))

    def test_coefficient_forms(self):
        assert parse("0.5*Z").terms[0].coeff == 0.5
        assert parse("1/2*Z").terms[0].coeff == 0.5
        assert parse("sqrt(2)*Z").terms[0].coeff == pytest.approx(math.sqrt(2))
        assert parse("1/sqrt(2)*Z").terms[0].coeff == pytest.approx(1 / math.sqrt(2))

    def test_minus_separator(self):
        expr = parse("Z x Z - X x X")
        assert expr.terms[1].coeff == -1.0

    @pytest.mark.parametrize(
        "src,message,line,column,token",
        [
            pytest.param("X x Q", "unknown factor", 1, 5, "Q", id="unknown-factor"),
            pytest.param("0.5*X x X\n\t+ Y @ Y", "unrecognized character", 2, 6, "@", id="character-on-line-2"),
            pytest.param("H(1.5,2)", "pair indices must be integers", 1, 3, "1.5", id="pair-index"),
            pytest.param("X x X +\n\tH(1.5,2)", "pair indices must be integers", 2, 4, "1.5", id="pair-index-on-line-2"),
            pytest.param("X Y", "expected 'sym'", 1, 3, "Y", id="no-separator"),
            pytest.param("X x X\n\t) Y", "expected '+' or '-'", 2, 2, ")", id="wrong-separator"),
            pytest.param("X x X +\n0.5*", "expected 'name'", 2, 5, "", id="end-of-input"),
        ],
    )
    def test_unknown_factor_reports_location(self, src, message, line, column, token):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse(src)
        assert str(err.value).startswith(message + " (")
        assert (err.value.line, err.value.column, err.value.token) == (line, column, token)

    def test_truncated_input(self):
        with pytest.raises(ExpressionSyntaxError):
            parse("X x")

    def test_arity_mismatch(self):
        with pytest.raises(ExpressionSemanticError):
            parse("X x X + Z")

    def test_pair_mixed_with_higher_arity(self):
        with pytest.raises(ExpressionSemanticError):
            parse("H(0,3) + X x X x X")

    def test_pair_index_range(self):
        with pytest.raises(ExpressionSemanticError):
            parse("H(0,4)")

    @pytest.mark.parametrize(
        "src,token",
        [
            ("1/0*X x X", "0"),
            ("2/sqrt(0)*sym(X Z)", "0"),
            ("1/1e-400*Z", "1e-400"),
            ("1e999*X x X", "1e999"),
            ("sqrt(1e999)*Z", "1e999"),
            ("Z + 1/sqrt(1e999)*Z", "1e999"),
            ("1e300/1e-300*Z", "1e-300"),
            ("Z +\n\t1/sqrt(0)*Z", "0"),
            ("X x X\n\t+ 1e999*Y x Y", "1e999"),
            ("X x X\n+ Y x Y\n+ \tZ", "Z"),  # the wrong arity, on line 3
        ],
    )
    def test_bad_coefficient_reports_location(self, src, token):
        with pytest.raises(ExpressionSemanticError) as err:
            parse(src)
        assert err.value.token == token
        assert src.split("\n")[err.value.line - 1][err.value.column - 1 :].startswith(token)

    @given(hs.lists(hs.sampled_from(_SOURCE_PIECES), max_size=16).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_error_token_starts_at_its_position(self, src):
        try:
            parse(src)
        except ExpressionError as err:
            lines = src.split("\n")
            assert 1 <= err.line <= len(lines) and 1 <= err.column <= len(lines[err.line - 1]) + 1
            offset = sum(len(text) + 1 for text in lines[: err.line - 1]) + err.column - 1
            if str(err).startswith("pair indices must lie"):  # the token names both indices, the position the first
                assert src[offset].isdigit()
            else:
                assert src.startswith(err.token, offset)
            assert err.token != "" or offset == len(src)  # only the end of the input has an empty token

    def test_whitespace_insensitive(self):
        a = st.build_matrix(parse("1/sqrt(2)*H(2,3)+1/sqrt(2)*H(0,3)")).matrix
        b = st.build_matrix(parse(" 1 / sqrt( 2 ) * H( 2 , 3 )  +  1/sqrt(2) * H(0,3) ")).matrix
        assert np.array_equal(a, b)


class TestBuildMatrix:
    def test_xy_plus_yx(self):
        h = st.build_matrix(parse("-1*X x Y + -1*Y x X")).matrix
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        out = h @ ket00
        assert np.allclose(out, [0, 0, 0, -2j])

    def test_pair_diagonal(self):
        h = st.build_matrix(parse("H(0,3)")).matrix
        assert np.allclose(h, 0.5 * (np.kron(I2, Z) + np.kron(Z, I2)))
        assert np.allclose(h, np.diag([1.0, 0.0, 0.0, -1.0]))

    def test_sym_distinct_arrangements(self):
        h = st.build_matrix(parse("sym(X Z P0)")).matrix
        mats = {"X": X, "Z": Z, "P0": FACTORS["P0"]}
        expected = np.zeros((8, 8), dtype=complex)
        import itertools

        for arr in set(itertools.permutations(("X", "Z", "P0"))):
            expected += np.kron(np.kron(mats[arr[0]], mats[arr[1]]), mats[arr[2]])
        assert np.allclose(h, expected)

    def test_sym_repeated_factors_counted_once(self):
        h = st.build_matrix(parse("sym(X X Z)")).matrix
        expected = (
            np.kron(np.kron(X, X), Z) + np.kron(np.kron(X, Z), X) + np.kron(np.kron(Z, X), X)
        )
        assert np.allclose(h, expected)

    def test_hermitian_and_symmetric(self):
        for src in ("H(1,2)", "sym(X Z P0)", "0.3*sym(Y P1) - 2*sym(Z Z)"):
            op = st.build_matrix(parse(src))
            assert np.abs(op.matrix - op.matrix.conj().T).max() <= 1e-12
            assert operator_symmetry_deficit(op.matrix, op.n) <= 1e-12

    def test_size_limit(self):
        src = " x ".join(["I"] * 15)
        with pytest.raises(ResourceError):
            st.build_matrix(parse(src))

    def test_size_limit_in_bytes(self):
        # 16 * 4^14 bytes is 4 GiB, past the 1 GiB limit; raised before allocating
        assert 16 * 4**13 <= MAX_MATRIX_BYTES < 16 * 4**14
        with pytest.raises(ResourceError, match=str(16 * 4**14)):
            st.build_matrix(parse("sym(Z Z" + " I" * 12 + ")"))

    @pytest.mark.parametrize("n,shape", [(2, (2, 2)), (1, (4, 4)), (2, (4, 2)), (1, (2,))])
    def test_shape_mismatch_is_domain_error(self, n, shape):
        with pytest.raises(DomainError, match="shape") as err:
            HermitianOperator(n, np.zeros(shape))
        assert type(err.value) is DomainError

    def test_non_finite_matrix_rejected(self):
        for bad in (np.inf, np.nan, complex(0, np.inf)):
            m = np.eye(4, dtype=complex)
            m[1, 1] = bad
            with pytest.raises(DomainError):
                HermitianOperator(2, m)

    def test_hermiticity_deficit_over_panels(self):
        # n = 9 checks four row panels; the deficit is that of the whole matrix
        rng = np.random.default_rng(5)
        a = rng.normal(size=(512, 512)) + 1j * rng.normal(size=(512, 512))
        m = a + a.conj().T
        m[500, 3] += 3e-12
        want = float(np.abs(m - m.conj().T).max())
        with pytest.raises(DomainError, match=f"{want:.3e}"):
            HermitianOperator(9, m)
        m[500, 3] = np.nan  # in the last panel: it wins over the deficit seen in the first
        m[0, 1] += 1.0
        with pytest.raises(DomainError, match="non-finite"):
            HermitianOperator(9, m)

    def test_input_copied_and_built_matrix_adopted(self):
        m = np.eye(4, dtype=complex)
        op = HermitianOperator(2, m)
        m[0, 0] = 7.0
        assert op.matrix[0, 0] == 1.0 and not op.matrix.flags.writeable
        built = st.build_matrix(parse("sym(X Z)"))
        assert not built.matrix.flags.writeable and built.matrix.flags.owndata
        assert HermitianOperator(2, built.matrix).matrix is built.matrix

    def test_build_matrix_peak_memory(self):
        import tracemalloc

        expr = parse("sym(Z Z" + " I" * 8 + ") + 0.5*sym(X" + " I" * 9 + ")")
        tracemalloc.start()
        try:
            h = st.build_matrix(expr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.matrix.nbytes == 16 * 4**10
        assert peak <= h.matrix.nbytes + 4 * 2**20  # the matrix plus panel-sized temporaries

    def test_projector_factors(self):
        h = st.build_matrix(parse("P0 x P1 + P1 x P0")).matrix
        assert np.allclose(h, np.diag([0.0, 1.0, 1.0, 0.0]))


_FACTOR_NAMES = sorted(FACTORS)


def _terms():
    coeff = hs.floats(
        min_value=-8, max_value=8, allow_nan=False, allow_infinity=False
    ).filter(lambda c: abs(c) > 1e-6)
    factors = hs.lists(hs.sampled_from(_FACTOR_NAMES), min_size=2, max_size=4)
    tensor = hs.builds(lambda c, f: TensorTerm(c, tuple(f)), coeff, factors)
    sym = hs.builds(lambda c, f: SymTerm(c, tuple(f)), coeff, factors)
    return hs.one_of(tensor, sym)


class TestPrettyPrint:
    @given(hs.lists(_terms(), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, terms):
        arity = terms[0].arity
        terms = tuple(
            t if t.arity == arity else type(t)(t.coeff, t.factors[:arity] + ("I",) * (arity - len(t.factors[:arity])))
            for t in terms
        )
        expr = st.HamiltonianExpr(terms)
        assert parse(pretty(expr)) == expr

    def test_pair_round_trip(self):
        expr = st.HamiltonianExpr((PairTerm(-0.25, 1, 3), PairTerm(2.0, 0, 2)))
        assert parse(pretty(expr)) == expr

    # one expression per production of the module docstring's grammar, with the terms it parses to
    @pytest.mark.parametrize(
        "src,terms",
        [
            ("X x Y", (TensorTerm(1.0, ("X", "Y")),)),  # term
            ("+X x Y", (TensorTerm(1.0, ("X", "Y")),)),  # [sign] term
            ("-X x Y", (TensorTerm(-1.0, ("X", "Y")),)),
            ("Z x Z + X x X", (TensorTerm(1.0, ("Z", "Z")), TensorTerm(1.0, ("X", "X")))),  # sign term
            ("Z x Z - X x X", (TensorTerm(1.0, ("Z", "Z")), TensorTerm(-1.0, ("X", "X")))),
            ("Z x Z + -0.5*X x X", (TensorTerm(1.0, ("Z", "Z")), TensorTerm(-0.5, ("X", "X")))),  # sign sign term
            ("Z x Z - -X x X", (TensorTerm(1.0, ("Z", "Z")), TensorTerm(1.0, ("X", "X")))),
            ("Z x Z - +X x X", (TensorTerm(1.0, ("Z", "Z")), TensorTerm(-1.0, ("X", "X")))),
            ("sym(X Z P0)", (SymTerm(1.0, ("X", "Z", "P0")),)),  # body: sym
            ("I x X x Y x Z x P0 x P1", (TensorTerm(1.0, ("I", "X", "Y", "Z", "P0", "P1")),)),  # body: tensor
            ("H(2,3)", (PairTerm(1.0, 2, 3),)),  # body: pair
            ("3*Z", (TensorTerm(3.0, ("Z",)),)),  # decimal: digits
            ("2.*Z", (TensorTerm(2.0, ("Z",)),)),  # decimal: digits '.'
            ("0.25*Z", (TensorTerm(0.25, ("Z",)),)),  # decimal: digits '.' digits
            ("1e-05*Z", (TensorTerm(1e-05, ("Z",)),)),  # decimal: exponent with its sign, as pretty writes it
            ("2.5E+3*Z", (TensorTerm(2500.0, ("Z",)),)),
            ("1e2*Z", (TensorTerm(100.0, ("Z",)),)),
            ("sqrt(2)*Z", (TensorTerm(math.sqrt(2.0), ("Z",)),)),  # coeff: operand 'sqrt(' decimal ')'
            ("1/4*Z", (TensorTerm(0.25, ("Z",)),)),  # coeff: decimal '/' decimal
            ("2/sqrt(3)*Z", (TensorTerm(2.0 / math.sqrt(3.0), ("Z",)),)),  # coeff: decimal '/' 'sqrt(' decimal ')'
        ],
    )
    def test_grammar_productions_round_trip(self, src, terms):
        expr = parse(src)
        assert expr.terms == terms
        assert parse(pretty(expr)) == expr

    def test_pretty_writes_exponents(self):
        assert pretty(parse("0.00001*Z")) == "1e-05*Z"


def _kron_chain(factors):
    out = FACTORS[factors[0]]
    for name in factors[1:]:
        out = np.kron(out, FACTORS[name])
    return out


def _reference_build(expr):
    """The original builder: every permutation, then one kron chain per arrangement."""
    dim = 2**expr.arity
    total = np.zeros((dim, dim), dtype=np.complex128)
    for term in expr.terms:
        if isinstance(term, PairTerm):
            si, sj = "IXYZ"[term.i], "IXYZ"[term.j]
            block = 0.5 * (_kron_chain((si, sj)) + _kron_chain((sj, si)))
        elif isinstance(term, SymTerm):
            block = np.zeros((dim, dim), dtype=np.complex128)
            for arr in sorted(set(itertools.permutations(term.factors))):
                block += _kron_chain(arr)
        else:
            block = _kron_chain(term.factors)
        total += term.coeff * block
    return total


def _reference_deficit(matrix, n):
    """The original symmetry check: a gathered copy per transposition."""
    deficit = 0.0
    for perm in transposition_index_maps(n):
        deficit = max(deficit, float(np.abs(matrix[np.ix_(perm, perm)] - matrix).max()))
    return deficit


def _lipkin(n, alpha):
    """The benchmark's Lipkin model: sym(Z Z I..) + 0.5 sym(X I..) turned by alpha about z."""
    terms = [f"sym(Z Z{' I' * (n - 2)})"]
    for coeff, pauli in ((math.cos(alpha), "X"), (math.sin(alpha), "Y")):
        c = 0.5 * coeff
        terms.append(f"{'-' if c < 0 else '+'} {abs(c)!r}*sym({pauli}{' I' * (n - 1)})")
    return " ".join(terms)


@hs.composite
def _expressions(draw):
    n = draw(hs.integers(1, 6))
    coeff = hs.floats(min_value=-8, max_value=8, allow_nan=False, allow_infinity=False)
    factors = hs.lists(hs.sampled_from(_FACTOR_NAMES), min_size=n, max_size=n).map(tuple)
    kinds = [hs.builds(TensorTerm, coeff, factors), hs.builds(SymTerm, coeff, factors)]
    if n == 2:
        kinds.append(hs.builds(PairTerm, coeff, hs.integers(0, 3), hs.integers(0, 3)))
    return st.HamiltonianExpr(tuple(draw(hs.lists(hs.one_of(kinds), min_size=1, max_size=4))))


class TestAgainstReference:
    @given(_expressions())
    @settings(max_examples=200, deadline=None)
    def test_build_bitwise(self, expr):
        assert st.build_matrix(expr).matrix.tobytes() == _reference_build(expr).tobytes()

    @given(hs.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=10, deadline=None)
    def test_lipkin_bitwise(self, alpha):
        expr = parse(_lipkin(8, alpha))
        assert st.build_matrix(expr).matrix.tobytes() == _reference_build(expr).tobytes()

    def test_two_body_bitwise(self):
        expr = parse("sym(X Z" + " I" * 6 + ")")
        assert st.build_matrix(expr).matrix.tobytes() == _reference_build(expr).tobytes()

    def test_arrangements_distinct_and_sorted(self):
        factors = ("Z", "Z") + ("I",) * 8
        got = list(_arrangements(factors))
        assert len(got) == 45
        assert got == sorted(set(itertools.permutations(factors)))
        for factors in (("X",), ("Y", "P1", "X", "P1"), ("Z", "I", "Y", "X", "P0")):
            assert list(_arrangements(factors)) == sorted(set(itertools.permutations(factors)))

    @given(_expressions())
    @settings(max_examples=100, deadline=None)
    def test_deficit_exact_on_built(self, expr):
        m = st.build_matrix(expr).matrix
        assert operator_symmetry_deficit(m, expr.arity) == _reference_deficit(m, expr.arity)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_deficit_exact_on_dense(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            assert operator_symmetry_deficit(m, n) == _reference_deficit(m, n)
            assert operator_symmetry_deficit(m.T, n) == _reference_deficit(m.T, n)

    def test_deficit_exact_on_perturbed_symmetric(self):
        m = st.build_matrix(parse(_lipkin(6, 0.4))).matrix.copy()
        assert operator_symmetry_deficit(m, 6) == 0.0
        m[5, 40] += 1e-13
        deficit = operator_symmetry_deficit(m, 6)
        assert deficit == _reference_deficit(m, 6)
        assert 0.0 < deficit <= 2e-13


# symmetric in exact arithmetic, but the diagonal sums of its six terms round
# differently on the entries a permutation exchanges
_ROUNDED = (
    "0.1*Z x Z x I + 0.1*Z x I x Z + 0.1*I x Z x Z + 0.3*Z x I x I + 0.3*I x Z x I + 0.3*I x I x Z"
)


def _one_ulp(z, imag):
    """z with its real or imaginary part moved up by one ulp."""
    if imag:
        return complex(z.real, np.nextafter(z.imag, np.inf))
    return complex(np.nextafter(z.real, np.inf), z.imag)


class TestExactSymmetryShortcut:
    """The two-generator test of operator_symmetry_deficit gives the reference deficit bit for bit."""

    @pytest.mark.parametrize(
        "text", [_lipkin(3, 0.4), _lipkin(4, 1.9), "sym(X Y Z)", "sym(X Y P1 Z)", "sym(Z Z I I) - 0.7*sym(Y P0 I I)"]
    )
    def test_one_ulp_on_any_entry(self, text):
        m0 = st.build_matrix(parse(text)).matrix
        n = m0.shape[0].bit_length() - 1
        assert _exactly_symmetric(m0, n)
        assert operator_symmetry_deficit(m0, n) == 0.0
        for r, c in np.ndindex(m0.shape):
            for imag in (False, True):
                m = m0.copy()
                m[r, c] = _one_ulp(m[r, c], imag)
                assert operator_symmetry_deficit(m, n) == _reference_deficit(m, n)

    def test_entries_every_permutation_fixes_are_free(self):
        n = 4
        m = st.build_matrix(parse(_lipkin(n, 0.4))).matrix.copy()
        for r in (0, 2**n - 1):
            for c in (0, 2**n - 1):
                m[r, c] += 1.0 + 2.0j
        assert operator_symmetry_deficit(m, n) == 0.0 == _reference_deficit(m, n)

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_generator_is_not_enough(self, n):
        swap, cycle = generator_maps(n)
        rng = np.random.default_rng(n)
        for maps in ([swap], [cycle]):
            m = orbit_constant(n, maps, rng, matrix=True)
            deficit = operator_symmetry_deficit(m, n)
            assert deficit == _reference_deficit(m, n)
            assert deficit > 0.01
        m = orbit_constant(n, [swap, cycle], rng, matrix=True)
        assert operator_symmetry_deficit(m, n) == 0.0 == _reference_deficit(m, n)

    def test_one_and_two_qubits(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert operator_symmetry_deficit(m, 1) == 0.0 == _reference_deficit(m, 1)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        deficit = operator_symmetry_deficit(m, 2)
        assert deficit == _reference_deficit(m, 2) and deficit > 0.01
        m = orbit_constant(2, generator_maps(2), rng, matrix=True)
        assert operator_symmetry_deficit(m, 2) == 0.0 == _reference_deficit(m, 2)

    def test_signed_zeros_are_equal(self):
        m = st.build_matrix(parse(_lipkin(3, 0.4))).matrix.copy()
        assert m[1, 6] == 0.0 and m[2, 5] == 0.0  # entries (0 1) exchanges
        m[1, 6] = complex(-0.0, -0.0)
        assert np.signbit(m[1, 6].real) and np.signbit(m[1, 6].imag)
        deficit = operator_symmetry_deficit(m, 3)
        assert deficit == 0.0 == _reference_deficit(m, 3)
        assert math.copysign(1.0, deficit) == 1.0

    def test_rounded_sum_takes_the_full_loop(self):
        h = st.build_matrix(parse(_ROUNDED))
        assert not _exactly_symmetric(h.matrix, 3)
        deficit = operator_symmetry_deficit(h.matrix, 3)
        assert deficit == _reference_deficit(h.matrix, 3)
        assert 0.0 < deficit <= 1e-15
        assert st.evolve(h, st.dicke_state(3, 0), [0.0, 0.5]).stars.shape == (2, 3, 3)

    def test_symmetric_operator_takes_constant_calls(self, pair_axes_calls):
        m = st.build_matrix(parse(_lipkin(8, 0.4))).matrix
        assert operator_symmetry_deficit(m, 8) == 0.0
        assert pair_axes_calls[0] == 1

    def test_perturbed_operator_takes_the_full_loop(self, pair_axes_calls):
        m = st.build_matrix(parse(_lipkin(8, 0.4))).matrix.copy()
        m[5, 40] = _one_ulp(m[5, 40], False)
        deficit = operator_symmetry_deficit(m, 8)
        assert pair_axes_calls[0] == 1 + 8 * 7 // 2
        assert deficit == _reference_deficit(m, 8)
