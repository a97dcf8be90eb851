"""Exception types shared across the package, the one byte budget, and the guards of the unitary maps."""

import math

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
