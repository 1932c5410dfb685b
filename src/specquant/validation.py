"""Input coercion and exact rescaling shared by the numeric modules.

Matrices are 2-D row-major float64 arrays; vectors are 1-D float64 arrays.
Everything is validated to be finite on the way in so the math never has to
re-check. `norm` squares in power-of-two units, an exact rescaling that
keeps the sum inside the float64 range for any finite input; only a norm
that is itself past the range comes out inf.
"""

import numpy as np


def as_matrix(a, name="matrix"):
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got {arr.ndim}-D")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return np.ascontiguousarray(arr)


def as_vector(a, name="vector"):
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got {arr.ndim}-D")
    if arr.size == 0:
        raise ValueError(f"{name} must have at least 1 element")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def pow2_units(a, axis=None):
    """(a / 2^e, e) with e the frexp exponent of max|a| along `axis`; exact."""
    exp = np.frexp(np.abs(a).max(axis=axis, keepdims=True, initial=0.0))[1]
    return np.ldexp(a, -exp), exp


def norm(a, axis=None):
    """2-norm along `axis` (Frobenius for None), squared in power-of-two units
    so it neither overflows nor underflows; a norm past the float64 range is
    inf, without a warning, for the caller to refuse by name."""
    scaled, exp = pow2_units(a, axis)
    with np.errstate(over="ignore"):
        return np.ldexp(np.linalg.norm(scaled, axis=axis), np.squeeze(exp, axis=axis))
