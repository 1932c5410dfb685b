"""Input coercion and exact rescaling shared by the numeric modules.

Matrices are 2-D row-major float64 arrays; vectors are 1-D float64 arrays.
Scalar options become Python floats or ints through `scalar`, the one rule
of what counts as a number, an integer or a size. Everything is validated
to be finite on the way in so the math never has to re-check. `norm`
squares in power-of-two units, an exact rescaling that keeps the sum inside
the float64 range for any finite input; only a norm that is itself past the
range comes out inf.
"""

import math
import numbers

import numpy as np


def scalar(v, name, lo=-math.inf, hi=math.inf, *, integer=False, open_lo=False):
    """`v` as a Python float, or with `integer` an int: a real number (a
    numpy scalar too, but not a bool or a string), finite as a float64, in
    [lo, hi] ((lo, hi] with `open_lo`) and, with `integer`, integral, such
    as 7 or 7.0. Anything else raises ValueError naming `name`, what it must
    be and `v`."""
    x = None
    if isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_)):
        try:
            f = float(v)
        except OverflowError:  # an int past the float64 range
            f = math.inf
        if math.isfinite(f) and (not integer or f.is_integer()):
            x = int(v) if integer else f
    if x is None or not (lo < x <= hi or (x == lo and not open_lo)):
        raise ValueError(f"{name} must {_requirement(lo, hi, integer, open_lo)}, got {v!r}")
    return x


def _requirement(lo, hi, integer, open_lo):
    """What `scalar` requires, as the end of "<name> must ..."."""
    if integer and (lo, hi) == (0, math.inf):
        return "be a non-negative integer"
    if (lo, hi) == (-math.inf, math.inf):
        return "be an integer" if integer else "be finite"
    left = "(" if open_lo or lo == -math.inf else "["
    right = ")" if hi == math.inf else "]"
    return f"{'be an integer in' if integer else 'lie in'} {left}{lo}, {hi}{right}"


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
