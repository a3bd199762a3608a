"""Exception types shared across the package.

Every error carries a stable ``code`` string so the CLI can emit
machine-readable JSON without mapping tables.
"""

from __future__ import annotations

__all__ = [
    "QsectorsError",
    "ShapeMismatch",
    "InvalidAmplitude",
    "UndeclaredTailClass",
    "NotQuasiConvergent",
    "PreconditionViolated",
    "ZeroNormFactor",
    "InconclusiveSector",
    "NonHermitianGenerator",
    "NonFactorizableGenerator",
    "IndexOutOfRange",
    "DimensionBudgetExceeded",
    "NonIntegralFraction",
    "UsageError",
    "IoError",
]


class QsectorsError(Exception):
    """Base class; ``code`` is the stable machine-readable identifier."""

    code = "error"

    def __init__(self, message: str, **context: object) -> None:
        super().__init__(message)
        self.message = message
        self.context = dict(context)


class ShapeMismatch(QsectorsError, ValueError):
    code = "shape-mismatch"


class InvalidAmplitude(QsectorsError, ValueError):
    code = "invalid-amplitude"


class UndeclaredTailClass(QsectorsError, ValueError):
    code = "undeclared-tail-class"


class NotQuasiConvergent(QsectorsError, ArithmeticError):
    code = "not-quasi-convergent"


class PreconditionViolated(QsectorsError, ValueError):
    code = "precondition-violated"


class ZeroNormFactor(QsectorsError, ArithmeticError):
    code = "zero-norm-factor"


class InconclusiveSector(QsectorsError, ArithmeticError):
    code = "inconclusive-sector"


class NonHermitianGenerator(QsectorsError, ValueError):
    code = "non-hermitian-generator"


class NonFactorizableGenerator(QsectorsError, ValueError):
    # evolve only factorizes single-term generators; sums of factored
    # terms would need a global matrix exponential, which is never built
    code = "non-factorizable-generator"


class IndexOutOfRange(QsectorsError, IndexError):
    code = "index-out-of-range"


class DimensionBudgetExceeded(QsectorsError, ValueError):
    code = "dimension-budget-exceeded"


class NonIntegralFraction(QsectorsError, ValueError):
    code = "non-integral-fraction"


class UsageError(QsectorsError, ValueError):
    code = "usage-error"


class IoError(QsectorsError, OSError):
    code = "io-error"
