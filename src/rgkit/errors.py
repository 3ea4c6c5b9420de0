"""Exception hierarchy shared by all rgkit modules.

Every error raised by the library derives from :class:`RgkError` so callers
(and the CLI) can map failures to exit codes in one place.
"""


class RgkError(Exception):
    """Base class for all rgkit errors."""


class DegenerateQuaternion(RgkError):
    """Quaternion norm too small to normalize (<= 1e-12)."""


class NonPositiveScale(RgkError):
    """A Gaussian scale component is zero or negative."""


class SingularMatrix(RgkError):
    """Matrix inversion requested with |det| <= 1e-12."""


class SingularCovariance(RgkError):
    """A covariance matrix failed the SPD / invertibility requirement."""


class InvalidSpec(RgkError):
    """Scene or run specification with out-of-range parameters."""


class FormatError(RgkError):
    """Malformed input file: bad header, inconsistent columns, bad magic."""


class ShapeMismatch(RgkError):
    """Array dimensions incompatible with the layer or operation contract."""


class AllocationLimit(RgkError):
    """A dense intermediate would exceed the configured memory cap."""


class EmptyBatch(RgkError):
    """Batch loss requested over zero pairs."""


class LengthMismatch(RgkError):
    """Paired prediction / ground-truth lists differ in length."""
