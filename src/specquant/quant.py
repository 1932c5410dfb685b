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
carry one output channel per column). A whole matrix quantized as one slice
is a 1-row matrix quantized per_token.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .validation import as_matrix

GRANULARITIES = ("per_token", "per_channel")

# Diagonal damping for the error-compensated scheme, as a fraction of the
# mean Gram diagonal.
COMPENSATION_DAMPING = 0.01

# Rows per batch of the compensated quantizer's left-looking loop.
BLOCK = 128


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


def _slice_params(x, bits, granularity):
    """Vectorized per-slice (deltas, zero_points) for a matrix."""
    if granularity == "per_token":
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
    return deltas[None, :], zps[None, :]


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
    H = X^T X + damp * I, with damp = 1% of the mean Gram diagonal (GPTQ).
    With the upper factor V of H = V V^T, taken as the lower Cholesky factor
    of H in reversed index order and flipped back, that update leaves row i
    at r_i + (sum_{i' < i} V[i', i] * d_i') / V[i, i], where d_i' = r_i' -
    dequant_i' for the rows already quantized. So H is factored once and
    never inverted, and the rows run left-looking in batches of BLOCK: one
    GEMM brings in every earlier batch, and rank-one updates touch only the
    rows of the current batch.

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
        v = np.linalg.cholesky(gram[::-1, ::-1])[::-1, ::-1]
    except np.linalg.LinAlgError:
        return q

    zps = q.zero_points
    d = np.empty((c_in, c_out))
    codes = np.empty((c_in, c_out), dtype=np.uint8)
    for b in range(0, c_in, BLOCK):
        e = min(b + BLOCK, c_in)
        acc = v[:b, b:e].T @ d[:b]
        for i in range(b, e):
            work = r[i : i + 1] + acc[i - b] / v[i, i]
            codes[i] = _encode(work, unit_deltas, zps, bits, "per_channel")
            d[i] = r[i] - (codes[i] - zps) * unit_deltas
            acc[i - b + 1 :] += np.outer(v[i, i + 1 : e], d[i])

    # d is r - dequant of the compensated codes; score RTN the same way.
    rtn_d = r - dequantize(replace(q, deltas=unit_deltas))
    won = ((x @ d) ** 2).sum(axis=0) <= ((x @ rtn_d) ** 2).sum(axis=0)
    q.codes[:, won] = codes[:, won]
    q.rtn_fallback = False
    return q
