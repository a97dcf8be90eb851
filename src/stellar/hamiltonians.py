"""Parser and matrix builder for permutation-invariant Pauli-tensor Hamiltonians.

Expression grammar (whitespace insensitive)::

    expr    := [sign] term (sign [sign] term)*
    sign    := '+' | '-'
    term    := [coeff '*'] body
    body    := 'sym(' factor+ ')'
             | factor ('x' factor)*
             | 'H(' digit ',' digit ')'
    coeff   := operand | decimal '/' operand
    operand := decimal | 'sqrt(' decimal ')'
    decimal := digit+ ['.' digit*] [('e' | 'E') [sign] digit+]
    factor  := 'I' | 'X' | 'Y' | 'Z' | 'P0' | 'P1'

``sym(...)`` expands to the sum over all distinct arrangements of its
factor list (each arrangement once); ``H(i, j)`` is the symmetrized
two-qubit pair (s_i x s_j + s_j x s_i)/2 over I, X, Y, Z with indices
0..3.  All bodies in one expression must act on the same number of
qubits.  This grammar is also the wire format of the CLI
``--hamiltonian`` flag.

A rejected expression raises an ``ExpressionError`` carrying the 1-based
line and column of the offending token and its text.  Each newline starts
a new line; the end of the input has a position too (token ``''``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MAX_MATRIX_BYTES, DomainError, ExpressionError, ExpressionSemanticError, ExpressionSyntaxError, _check_bytes

__all__ = [
    "TensorTerm",
    "SymTerm",
    "PairTerm",
    "HamiltonianExpr",
    "HermitianOperator",
    "parse",
    "pretty",
    "build_matrix",
    "FACTORS",
    "MAX_MATRIX_BYTES",
]

FACTORS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
    "P0": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128),
    "P1": np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128),
}

_PAULI = ("I", "X", "Y", "Z")


@dataclass(frozen=True)
class TensorTerm:
    coeff: float
    factors: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class SymTerm:
    coeff: float
    factors: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class PairTerm:
    coeff: float
    i: int
    j: int

    @property
    def arity(self) -> int:
        return 2


Term = TensorTerm | SymTerm | PairTerm


@dataclass(frozen=True)
class HamiltonianExpr:
    terms: tuple[Term, ...]

    @property
    def arity(self) -> int:
        return self.terms[0].arity


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<sym>[-+*/(),])|(?P<bad>.)",
    re.DOTALL,
)


class _Token(NamedTuple):
    kind: str  # number | name | sym | end
    text: str
    offset: int  # into the source


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = []
        for m in _TOKEN_RE.finditer(src):
            if m.lastgroup == "bad":
                raise self.error(ExpressionSyntaxError, "unrecognized character", _Token("bad", m[0], m.start()))
            if m.lastgroup != "ws":
                self.tokens.append(_Token(m.lastgroup, m[0], m.start()))
        self.tokens.append(_Token("end", "", len(src)))
        self.pos = 0

    def error(self, cls: type[ExpressionError], message: str, tok: _Token, text: str | None = None) -> ExpressionError:
        """A cls error at tok's 1-based line and column, the only place an offset becomes a position."""
        line = self.src.count("\n", 0, tok.offset) + 1
        column = tok.offset - self.src.rfind("\n", 0, tok.offset)
        return cls(message, line, column, tok.text if text is None else text)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is ``text``; no two kinds share a text."""
        if self.tokens[self.pos].text != text:
            return False
        self.pos += 1
        return True

    def expect(self, text: str) -> None:
        if not self.accept(text):
            raise self.error(ExpressionSyntaxError, f"expected {text!r}", self.peek())

    def take(self, kind: str, what: str) -> _Token:
        """Consume the next token if it is of ``kind``; else the error names ``what`` may come here."""
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(ExpressionSyntaxError, f"expected {what}", tok)
        self.pos += 1
        return tok

    def number(self) -> tuple[float, _Token]:
        tok = self.take("number", "a number")
        value = float(tok.text)
        if not math.isfinite(value):
            raise self.error(ExpressionSemanticError, "coefficient is not finite", tok)
        return value, tok

    # operand := decimal | 'sqrt(' decimal ')'; returns the value and its number token
    def operand(self) -> tuple[float, _Token]:
        if not self.accept("sqrt"):
            return self.number()
        self.expect("(")
        value, num = self.number()
        self.expect(")")
        return math.sqrt(value), num

    # coeff := operand | decimal '/' operand
    def coefficient(self) -> float:
        if self.peek().kind == "name":
            return self.operand()[0]
        value, _ = self.number()
        if self.accept("/"):
            divisor, tok = self.operand()
            if divisor == 0.0:
                raise self.error(ExpressionSemanticError, "division by zero", tok)
            value /= divisor
            if not math.isfinite(value):
                raise self.error(ExpressionSemanticError, "coefficient is not finite", tok)
        return value

    def factor(self, what: str = "a factor") -> str:
        tok = self.take("name", what)
        if tok.text not in FACTORS:
            raise self.error(ExpressionSyntaxError, "unknown factor", tok)
        return tok.text

    def body(self, coeff: float) -> Term:
        if self.accept("sym"):
            self.expect("(")
            factors = [self.factor()]
            while self.peek().kind == "name":
                factors.append(self.factor())
            self.expect(")")
            return SymTerm(coeff, tuple(factors))
        if self.accept("H"):
            self.expect("(")
            i_tok = self.take("number", "a number")
            self.expect(",")
            j_tok = self.take("number", "a number")
            self.expect(")")
            try:
                i, j = int(i_tok.text), int(j_tok.text)
            except ValueError:
                raise self.error(ExpressionSyntaxError, "pair indices must be integers", i_tok) from None
            if not (0 <= i <= 3 and 0 <= j <= 3):
                raise self.error(ExpressionSemanticError, "pair indices must lie in 0..3", i_tok, f"{i},{j}")
            return PairTerm(coeff, i, j)
        factors = [self.factor("a factor, 'sym(' or 'H('")]
        while self.accept("x"):
            factors.append(self.factor())
        return TensorTerm(coeff, tuple(factors))

    def term(self, sign: float) -> Term:
        tok = self.peek()
        # a leading number or sqrt means an explicit coefficient follows
        if tok.kind == "number" or tok.text == "sqrt":
            sign *= self.coefficient()
            self.expect("*")
        return self.body(sign)

    # [sign]: -1.0 for a '-' it consumes, else 1.0
    def sign(self) -> float:
        if self.accept("-"):
            return -1.0
        self.accept("+")
        return 1.0

    def expression(self) -> HamiltonianExpr:
        sign = self.sign()
        terms = [(self.peek(), self.term(sign))]
        while self.peek().kind != "end":
            if self.peek().text not in ("+", "-"):
                raise self.error(ExpressionSyntaxError, "expected '+' or '-'", self.peek())
            sign = self.sign() * self.sign()  # the separator, then the term's own sign if any
            terms.append((self.peek(), self.term(sign)))
        arity = terms[0][1].arity
        for start, t in terms[1:]:
            if t.arity != arity:
                message = f"term acts on {t.arity} qubits but the expression acts on {arity}"
                raise self.error(ExpressionSemanticError, message, start)
        return HamiltonianExpr(tuple(t for _, t in terms))


def parse(src: str) -> HamiltonianExpr:
    """Parse a Hamiltonian expression; see the module docstring for the grammar."""
    return _Parser(src).expression()


def _fmt_coeff(c: float) -> str:
    return repr(float(abs(c)))


def _body_text(term: Term) -> str:
    if isinstance(term, SymTerm):
        return f"sym({' '.join(term.factors)})"
    if isinstance(term, PairTerm):
        return f"H({term.i},{term.j})"
    return " x ".join(term.factors)


def pretty(expr: HamiltonianExpr) -> str:
    """Render an expression so that parse(pretty(e)) == e."""
    parts = []
    for idx, term in enumerate(expr.terms):
        sign = "-" if term.coeff < 0 else "+"
        body = _body_text(term)
        text = body if abs(term.coeff) == 1.0 else f"{_fmt_coeff(term.coeff)}*{body}"
        if idx == 0:
            parts.append(text if sign == "+" else f"-{text}")
        else:
            parts.append(f" {sign} {text}")
    return "".join(parts)


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix on n qubits, qubit 0 = most significant bit.

    The stored matrix is a read-only copy, except that an array which owns
    its data and is already read-only is kept as it is.
    """

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.shape != (2**self.n, 2**self.n):
            raise DomainError(f"matrix shape {m.shape} does not match {self.n} qubits")
        if m.flags.writeable or not m.flags.owndata:
            m = m.copy()
        _check_hermitian(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def _check_hermitian(m: np.ndarray) -> None:
    """DomainError unless the square matrix m is finite and Hermitian to 1e-12; m is not copied.

    Row panels are compared with the matching column panels: the temporaries
    stay near 1 MiB, and the max over all entries is the same.
    """
    dim = m.shape[0]
    panel = max(1, 2**16 // dim)
    deficit = 0.0
    for r in range(0, dim, panel):
        rows = m[r : r + panel]
        if not np.isfinite(rows).all():
            raise DomainError("matrix has non-finite entries")
        deficit = max(deficit, float(np.abs(rows - m[:, r : r + panel].conj().T).max()))
    if deficit > 1e-12:
        raise DomainError(f"matrix is not Hermitian (deficit {deficit:.3e})")


def _arrangements(factors: tuple[str, ...]):
    """Distinct arrangements of a factor list in lexicographic order.

    Each distinct factor leads in sorted order, followed by the
    arrangements of the rest (copies of a single factor have one), so n!
    orderings are never enumerated.
    """
    distinct = sorted(set(factors))
    if len(distinct) < 2:
        yield factors
        return
    for first in distinct:
        i = factors.index(first)
        for rest in _arrangements(factors[:i] + factors[i + 1 :]):
            yield (first, *rest)


# row bit b of a factor has its one possible nonzero entry in column b ^ flip
_FLIPS = {name: int(name in ("X", "Y")) for name in FACTORS}
_ENTRIES = {name: FACTORS[name][[0, 1], [f, 1 - f]] for name, f in _FLIPS.items()}


def _monomial_sums(strings, bits: list[np.ndarray]) -> dict[int, np.ndarray]:
    """Sum of factor strings as monomial matrices, grouped by column flip mask.

    A string's matrix has one entry per row r, in column r ^ mask, where
    mask holds the bits of its X/Y factors.  The entry is the product of
    the per-qubit factor entries, taken as vectors over the 2^n rows.  All
    factor entries are 0, +-1 or +-i, so every sum is an exact Gaussian
    integer.
    """
    n = len(bits)
    sums: dict[int, np.ndarray] = {}
    for factors in strings:
        mask = 0
        values = np.ones(bits[0].size, dtype=np.complex128)
        for q, name in enumerate(factors):
            mask |= _FLIPS[name] << (n - 1 - q)
            if name not in ("I", "X"):  # their entries are all 1
                values *= _ENTRIES[name][bits[q]]
        if mask in sums:
            sums[mask] += values
        else:
            sums[mask] = values
    return sums


def build_matrix(expr: HamiltonianExpr) -> HermitianOperator:
    """Dense matrix of an expression, limited to MAX_MATRIX_BYTES per matrix.

    Each term's strings are summed exactly and scaled by the coefficient
    once, so the result does not depend on how the strings are grouped.
    """
    n = expr.arity
    _check_bytes(16 * 4**n, f"a dense {n}-qubit matrix needs")
    rows = np.arange(2**n)
    bits = [(rows >> (n - 1 - q)) & 1 for q in range(n)]
    total = np.zeros((2**n, 2**n), dtype=np.complex128)
    for term in expr.terms:
        if isinstance(term, PairTerm):
            si, sj = _PAULI[term.i], _PAULI[term.j]
            strings, weight = ((si, sj), (sj, si)), 0.5
        elif isinstance(term, SymTerm):
            strings, weight = _arrangements(term.factors), 1.0
        else:
            strings, weight = (term.factors,), 1.0
        for mask, values in _monomial_sums(strings, bits).items():
            total[rows, rows ^ mask] += term.coeff * (weight * values)
    total.flags.writeable = False  # handed over to the operator without a copy
    return HermitianOperator(n, total)
