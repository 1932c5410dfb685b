"""Input coercion and exact rescaling shared by the numeric modules.

Each argument is taken once, where it enters, by one rule of its kind.
Scalar options become Python floats or ints through `scalar`, the one rule
of what counts as a number, an integer or a size; signal lengths n and
channel counts c_in and c_out are sizes too. Arrays of real numbers
(weights, activations, scores, smoothing factors, quantizer steps, packed
spectra) go through `array`: an integer or float dtype, never bool,
complex, text or objects, of the expected ndim, converted once to
C-contiguous float64; half-spectra may also be complex, and stay complex128.
`as_matrix` and `as_vector` are that rule with a finiteness check, so the
math never has to re-check. Integer arrays (retained counts, plan counts,
residual codes) go through `integers`: an integer ndarray is taken as it
is, and anything else element by element by `scalar` into int64, so 8.0 is
an integer, and a bool or a value past int64 is not. A list is read by
numpy first, so a bool among numbers in a list is taken as 0 or 1 by
`array`, while a bool array is refused.
`norm` squares in power-of-two units, an exact rescaling that keeps the sum
inside the float64 range for any finite input; only a norm that is itself
past the range comes out inf.
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


def array(a, name, ndim, *, complex_ok=False, finite=False):
    """`a` as a C-contiguous float64 array with `ndim` dimensions: numbers
    of an integer or float dtype, or with `complex_ok` also complex ones,
    which become complex128; with `finite`, none is NaN or inf. A bool,
    complex (without `complex_ok`), text or object array, or another ndim,
    raises ValueError naming `name`."""
    arr = np.asarray(a)
    if arr.dtype.kind not in ("iufc" if complex_ok else "iuf"):
        what = "real or complex" if complex_ok else "real"
        raise ValueError(f"{name} must hold {what} numbers, got dtype {arr.dtype}")
    _check_ndim(arr, name, ndim)
    arr = np.ascontiguousarray(arr, dtype=complex if arr.dtype.kind == "c" else np.float64)
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def integers(a, name, lo=-math.inf, hi=math.inf, *, ndim=None, dtype=None):
    """`a` as an integer array with every element in [lo, hi] and, if given,
    `ndim` dimensions. An integer ndarray is taken as it is, with no copy
    and no widening; anything else is taken element by element, as
    objects, by `scalar` and held as int64, so 8.0 is the integer 8, and a
    bool (also inside a list) or a value past int64 raises. With `dtype`
    the result is a C-contiguous array of it, which the range must fit.
    Anything else raises ValueError naming `name`."""
    if not (isinstance(a, np.ndarray) and a.dtype.kind in "iu"):
        # As objects, so that a bool in a list is not cast to an integer first.
        items = np.asarray(a, dtype=object)
        values = [scalar(v, name, lo, hi, integer=True) for v in items.flat]
        past = [v for v in values if not -(2**63) <= v < 2**63]
        if past:
            raise ValueError(f"{name} must be an integer within int64, got {past[0]!r}")
        a = np.array(values, dtype=np.int64).reshape(items.shape)
    elif a.size:  # the extremes are the elements that can be out of range
        for v in (a.min(), a.max()):
            scalar(v.item(), name, lo, hi, integer=True)
    _check_ndim(a, name, ndim)
    return a if dtype is None else np.ascontiguousarray(a, dtype=dtype)


def _check_ndim(arr, name, ndim):
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got {arr.ndim}-D")


def as_matrix(a, name="matrix"):
    """`array` of a finite 2-D matrix."""
    return array(a, name, 2, finite=True)


def as_vector(a, name="vector"):
    """`array` of a finite, non-empty 1-D vector."""
    arr = array(a, name, 1, finite=True)
    if arr.size == 0:
        raise ValueError(f"{name} must have at least 1 element")
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
