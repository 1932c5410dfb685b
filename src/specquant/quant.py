"""Uniform asymmetric integer quantization.

A b-bit slice is coded as round(clamp(x / delta + z, 0, 2^b - 1)) with
delta = (max - min) / (2^b - 1) and z = -min / delta. Rounding is
half-away-from-zero. A constant slice (max == min) uses delta = 1,
z = -min so the constant is represented exactly; so does a slice whose span
is too small for delta to be a positive float64. A slice with an end at the
float64 limit is coded over a range narrowed by 2^-40, so that every code
dequantizes to a finite value.

Granularity picks the slicing axis: per_token quantizes each row (activation
matrices carry one token per row), per_channel each column (weight matrices
carry one output channel per column), per_tensor the whole matrix.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .validation import as_matrix, as_vector

GRANULARITIES = ("per_tensor", "per_token", "per_channel")

# Diagonal damping for the error-compensated scheme, as a fraction of the
# mean Gram diagonal.
COMPENSATION_DAMPING = 0.01


@dataclass
class QuantParams:
    bits: int
    delta: float
    zero_point: float


@dataclass
class QuantizedTensor:
    """Integer codes plus the per-slice scale/offset needed to invert them.

    `rtn_fallback` is set when error compensation was requested but the
    calibration Gram was unusable and plain round-to-nearest was used instead.
    """

    codes: np.ndarray
    bits: int
    granularity: str
    deltas: np.ndarray
    zero_points: np.ndarray
    rows: int
    cols: int
    rtn_fallback: bool = field(default=False)

    def __post_init__(self):
        self.codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        self.deltas = np.asarray(self.deltas, dtype=np.float64)
        self.zero_points = np.asarray(self.zero_points, dtype=np.float64)
        if self.granularity not in GRANULARITIES:
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.codes.shape != (self.rows, self.cols):
            raise ValueError("codes shape does not match rows/cols")


def _check_bits(bits):
    bits = int(bits)
    if not 2 <= bits <= 8:
        raise ValueError(f"bits must lie in [2, 8], got {bits}")
    return bits


def compute_params(values, bits):
    """Scale and zero point for one slice."""
    values = as_vector(values, "slice")
    bits = _check_bits(bits)
    deltas, zps = _slice_params(values[None, :], bits, "per_token")
    return QuantParams(bits, float(deltas[0]), float(zps[0]))


def _slice_params(x, bits, granularity):
    """Vectorized per-slice (deltas, zero_points) for a matrix."""
    if granularity == "per_tensor":
        if x.size == 0:
            raise ValueError("cannot quantize an empty matrix per_tensor")
        lo = np.array([x.min()])
        hi = np.array([x.max()])
    elif granularity == "per_token":
        if x.shape[1] == 0 and x.shape[0] > 0:
            raise ValueError("per_token slices must be non-empty")
        lo = x.min(axis=1) if x.size else np.zeros(x.shape[0])
        hi = x.max(axis=1) if x.size else np.zeros(x.shape[0])
    elif granularity == "per_channel":
        lo = x.min(axis=0) if x.size else np.zeros(x.shape[1])
        hi = x.max(axis=0) if x.size else np.zeros(x.shape[1])
    else:
        raise ValueError(f"unknown granularity {granularity!r}")
    qmax = 2**bits - 1
    deltas, zps = _range_params(lo, hi, qmax)
    # With an end within a few ulps of the float64 limit, (code - z) * delta
    # can round past it at code 0 or qmax; narrowing such a range by 2^-40
    # keeps both end codes finite at an error far below delta / 2.
    with np.errstate(over="ignore"):
        over = ~(np.isfinite(zps * deltas) & np.isfinite((qmax - zps) * deltas))
    if over.any():
        shrink = np.where(over, 1.0 - 2.0**-40, 1.0)
        deltas, zps = _range_params(lo * shrink, hi * shrink, qmax)
    return deltas, zps


def _range_params(lo, hi, qmax):
    """(deltas, zero_points) of slices spanning [lo, hi]."""
    with np.errstate(over="ignore"):
        deltas = (hi - lo) / qmax
    # A span beyond the float64 range is split before dividing; a step that
    # underflows to 0 (a subnormal span) is treated like a constant slice.
    deltas = np.where(np.isinf(deltas), hi / qmax - lo / qmax, deltas)
    flat = ~(deltas > 0)
    deltas = np.where(flat, 1.0, deltas)
    zps = np.where(flat, -lo, -lo / deltas)
    return deltas, zps


def _broadcast(deltas, zps, granularity):
    """Per-slice scales and zero points shaped to broadcast against the matrix."""
    if granularity == "per_token":
        return deltas[:, None], zps[:, None]
    if granularity == "per_channel":
        return deltas[None, :], zps[None, :]
    return deltas[0], zps[0]


def _encode(x, deltas, zps, bits, granularity):
    d, z = _broadcast(deltas, zps, granularity)
    v = np.clip(x / d + z, 0.0, float(2**bits - 1))
    # Values are non-negative after the clamp, so floor(v + 0.5) is
    # half-away-from-zero rounding.
    return np.floor(v + 0.5).astype(np.uint8)


def quantize(x, bits, granularity):
    """Quantize a matrix slice-wise at the given granularity."""
    x = as_matrix(x, "x")
    bits = _check_bits(bits)
    deltas, zps = _slice_params(x, bits, granularity)
    codes = _encode(x, deltas, zps, bits, granularity)
    return QuantizedTensor(
        codes=codes,
        bits=bits,
        granularity=granularity,
        deltas=deltas,
        zero_points=zps,
        rows=x.shape[0],
        cols=x.shape[1],
    )


def dequantize(q):
    """Invert quantization: (code - z) * delta per slice."""
    d, z = _broadcast(q.deltas, q.zero_points, q.granularity)
    return (q.codes.astype(np.float64) - z) * d


def quantize_residual_compensated(r, bits, x_calib):
    """Error-compensated quantization of a weight-like matrix.

    Entries are quantized in ascending input-index order (rows of r, all
    output channels at once). After each index is fixed, its rounding error
    is propagated to the not-yet-quantized indices of the same channel by
    the least-squares update against the damped calibration Gram
    H = X^T X + damp * I, with damp = 1% of the mean Gram diagonal. That
    update needs row i of the inverse of H restricted to the indices not yet
    quantized; it equals U[i, i] * U[i, i:] for the upper Cholesky factor U
    of H^-1 (U^T U = H^-1, GPTQ), so H^-1 is factored once instead of being
    downdated after every index.

    The update and the selection run in power-of-two units: X is scaled so
    max|X| lies in [0.5, 1), and each channel's r and delta so that delta
    lies in [0.5, 1). Power-of-two scalings are exact, so the codes do not
    depend on the scale of either input, the objective cannot overflow and
    the Gram of a nonzero X cannot underflow to zero.

    Per-channel scales come from the original matrix, as in plain
    round-to-nearest. Greedy compensation can occasionally lose to RTN by a
    sliver, and channels are independent in the weighted objective, so each
    channel keeps whichever of the two code vectors scores lower on
    ||X (r - dequant)||; the result is never worse than RTN. An empty matrix,
    an all-zero or token-free X, or a Gram that Cholesky rejects triggers a
    fallback to plain RTN, flagged on the result.
    """
    r = as_matrix(r, "r")
    bits = _check_bits(bits)
    x = as_matrix(x_calib, "x_calib")
    c_in, c_out = r.shape
    if x.shape[1] != c_in:
        raise ValueError(
            f"calibration activations have {x.shape[1]} channels, expected {c_in}"
        )
    # The RTN candidate, returned as it is by every fallback below.
    q = quantize(r, bits, "per_channel")
    q.rtn_fallback = True
    if c_in == 0 or c_out == 0:
        return q

    # From here on x, r and the deltas are in power-of-two units.
    x = np.ldexp(x, -np.frexp(np.abs(x).max(initial=0.0))[1])
    unit_deltas, exps = np.frexp(q.deltas)
    r = np.ldexp(r, -exps)
    gram = x.T @ x
    damp = COMPENSATION_DAMPING * float(np.mean(np.diag(gram)))
    if damp <= 0.0:
        return q
    gram[np.diag_indices_from(gram)] += damp
    try:
        u = np.linalg.cholesky(np.linalg.inv(gram)).T
    except np.linalg.LinAlgError:
        return q

    zps = q.zero_points
    work = r.copy()
    codes = np.empty((c_in, c_out), dtype=np.uint8)
    for i in range(c_in):
        codes[i] = _encode(work[i : i + 1], unit_deltas, zps, bits, "per_channel")
        err = (work[i] - (codes[i] - zps) * unit_deltas) / u[i, i]
        work[i + 1 :] -= np.outer(u[i, i + 1 :], err)

    def loss(c):
        deq = dequantize(replace(q, codes=c, deltas=unit_deltas))
        return ((x @ (r - deq)) ** 2).sum(axis=0)

    won = loss(codes) <= loss(q.codes)
    q.codes[:, won] = codes[:, won]
    q.rtn_fallback = False
    return q
