"""Exception hierarchy for the measurement-simulation library."""


class MeasurementModelError(Exception):
    """Base class for all library errors."""


class ValidationError(MeasurementModelError):
    """Malformed input: wrong shape, bad label, out-of-domain parameter."""


class NumericContractError(MeasurementModelError):
    """A numeric invariant (completeness, positivity, ...) was violated."""


class NotHermitianError(NumericContractError):
    pass


class NotPositiveError(NumericContractError):
    pass


class NotDensityMatrixError(NumericContractError):
    pass


class CompletenessError(NumericContractError):
    pass


class UnknownLabelError(ValidationError):
    pass


class LabelOutOfRangeError(ValidationError):
    pass


class DimensionMismatchError(ValidationError):
    pass


class ZeroProbabilityOutcomeError(MeasurementModelError):
    pass


class InvalidWeightsError(ValidationError):
    """Likelihood weights were empty, negative, or all zero."""


class NonInvertibleOperatorError(NumericContractError):
    pass
