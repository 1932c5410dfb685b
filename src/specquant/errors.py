"""Exception types for tensor-file and artifact handling.

Bad call arguments raise plain ``ValueError``; the classes below cover
problems found in files on disk, raised by `tensor_io` at load, and layers
it refuses to save because load would reject them.
"""


class SpecQuantError(Exception):
    """Base class for artifact and tensor-file errors."""


class FormatError(SpecQuantError):
    """Container is malformed: an NPY header numpy's reader refuses (a bad
    magic string included), a manifest that is not a JSON object of the
    format's version, or a missing or wrongly typed manifest field."""


class ShapeError(SpecQuantError):
    """Structure does not match its declaration: ndim, dtype, or size."""


class DataError(SpecQuantError):
    """Values are invalid: NaN/Inf, out-of-range codes, non-positive scales."""
