"""Exception hierarchy shared by all ardlkit modules.

Every failure mode a caller is expected to handle has its own class so
that batch drivers can map errors onto exit codes without string
matching. Data-shaped problems derive from DataError, numerical and
degeneracy problems from NumericalError, configuration problems from
ConfigError.
"""


class ArdlkitError(Exception):
    """Base class for all ardlkit errors."""


class ConfigError(ArdlkitError):
    """Invalid or inconsistent configuration."""


class DataError(ArdlkitError):
    """Problems with input data (parsing, alignment, policy violations)."""


class NumericalError(ArdlkitError):
    """Degenerate or ill-posed numerical situations."""


# --- dataio ---------------------------------------------------------------

class ParseError(DataError):
    """A cell could not be parsed; carries 1-based row and column name."""

    def __init__(self, row, column, message=""):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: {message}" if message
                         else f"row {row}, column {column!r}")


class NonMonotoneIndex(DataError):
    """Date index is not strictly increasing (or has gaps)."""


class MissingValuePolicyViolation(DataError):
    """Missing value encountered under policy=reject."""


class NonPositiveValue(DataError):
    """Log transform applied to a series with a value <= 0."""

    def __init__(self, position, value=None):
        self.position = position
        self.value = value
        super().__init__(f"non-positive value at position {position}"
                         + (f" ({value!r})" if value is not None else ""))


class SeriesTooShort(DataError):
    """Series has too few observations for the requested operation."""


class SampleTooShort(DataError):
    """Effective regression sample is too small."""


# --- linreg ---------------------------------------------------------------

class DimensionMismatch(NumericalError):
    """Vector/matrix dimensions are inconsistent."""


class RankDeficient(NumericalError):
    """Design matrix is numerically rank deficient; names the columns."""

    def __init__(self, columns, message=""):
        self.columns = tuple(columns)
        detail = message or "collinear columns"
        super().__init__(f"{detail}: {', '.join(self.columns)}")


class UnknownCoefficient(NumericalError):
    """Restriction names a coefficient the model does not contain."""


class DegenerateRestriction(NumericalError):
    """Restricted model cannot be estimated."""


class PerfectFitDegenerate(NumericalError):
    """Unrestricted RSS is zero; an F ratio would be undefined."""


class BandwidthTooLarge(NumericalError):
    """Newey-West bandwidth >= series length."""


class AllZeroResiduals(NumericalError):
    """Durbin-Watson undefined when every residual is zero."""


class ZeroVariance(NumericalError):
    """Moment-based statistic undefined for a constant sample."""


class ConstantFitted(NumericalError):
    """RESET powers of a constant fitted-value vector are collinear."""


class RankDeficientPrefix(NumericalError):
    """The first k observations of a recursive fit do not identify its k
    coefficients: their pivoted-QR triangle fails the rank check of ols
    (a diagonal below RANK_RTOL of the largest); names the columns."""


class DegenerateAdjustment(NumericalError):
    """No levels feedback (lambda_1 ~ 0); long-run solution undefined."""


class InvalidParameters(ConfigError):
    """Parameters outside a generator's or test's admissible region."""


class I2VariablePresent(ArdlkitError):
    """A pipeline variable is integrated of order two or higher."""
