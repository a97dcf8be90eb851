"""Exception types, the one byte budget, the readers of a caller's integers and reals, and the unitary maps' guards."""

import math
import operator

import numpy as np

# the most bytes one dense array or one output may take: a complex 2^n x 2^n matrix up to n = 13
MAX_MATRIX_BYTES = 2**30


class StellarError(Exception):
    """Base class for every error raised by this package."""


class DomainError(StellarError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ResourceError(StellarError):
    """The request exceeds a hard size limit (dense matrices, permanents)."""


def _check_bytes(need: int, what: str) -> None:
    """ResourceError, before anything is allocated, if ``need`` bytes exceed MAX_MATRIX_BYTES; ``what`` ends in a verb."""
    if need > MAX_MATRIX_BYTES:
        raise ResourceError(f"{what} {need} bytes, above the limit of {MAX_MATRIX_BYTES} bytes")


def _index(x, rule: str, lo: float = -math.inf, hi: float = math.inf) -> int:
    """A caller's integer in lo..hi as an int, read by ``operator.index`` so that numpy integers pass; anything else,
    a bool, a float or a string among them, is a DomainError: ``rule``, which states what is asked, and the value."""
    try:
        if type(x) is not bool and lo <= (i := operator.index(x)) <= hi:
            return i
    except TypeError:
        pass
    raise DomainError(f"{rule}, got {x!r}")


def _real(x, rule: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """A caller's real number, finite and in lo..hi, as a float; anything else, a string among them, as ``_index``."""
    try:
        if math.isfinite(x) and lo <= (f := float(x)) <= hi:
            return f
    except (TypeError, OverflowError):
        pass
    raise DomainError(f"{rule}, got {x!r}")


class NumericError(StellarError):
    """A numerical routine failed to meet its accuracy contract."""


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the Hermitian matrix m; NumericError if the eigensolver fails."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def _check_phases(beta: float, lam: np.ndarray) -> None:
    """DomainError unless every phase beta * lam of the eigenvalues lam is finite, so beta too."""
    if not math.isfinite(abs(float(beta)) * float(np.abs(lam).max())):  # Python floats: inf without a warning
        raise DomainError(f"the phases beta * lambda must be finite, got beta = {beta}")


class SymmetryViolationError(StellarError):
    """Input lies measurably outside the permutation-symmetric sector.

    ``deficit`` carries the measured violation (norm deficit or off-block
    norm, depending on the operation that raised).
    """

    def __init__(self, message: str, deficit: float):
        super().__init__(message)
        self.deficit = float(deficit)


class ConvergenceError(NumericError):
    """An optimizer hit its iteration cap.

    ``best`` carries the best result found so far; ``converged`` is False.
    """

    def __init__(self, message: str, best):
        super().__init__(message)
        self.best = best
        self.converged = False


class ExpressionError(StellarError):
    """A Hamiltonian expression was rejected."""

    def __init__(self, message: str, line: int = 1, column: int = 1, token: str = ""):
        self.line = int(line)
        self.column = int(column)
        self.token = token
        super().__init__(f"{message} (line {self.line}, column {self.column}, token {token!r})")


class ExpressionSyntaxError(ExpressionError):
    """Lexical or syntactic defect in a Hamiltonian expression."""


class ExpressionSemanticError(ExpressionError):
    """Structurally valid expression with inconsistent meaning (e.g. mixed arity)."""
