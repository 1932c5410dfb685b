"""Uniform asymmetric integer quantization.

A b-bit slice is coded as round(clamp(x / delta + z, 0, 2^b - 1)) with
delta = (max - min) / (2^b - 1) and z = -min / delta. Rounding is
half-away-from-zero. A constant slice (max == min) uses delta = 1,
z = -min so the constant is represented exactly; so does a slice whose span
is too small for delta to be a positive float64. A slice with an end at the
float64 limit is coded over a range narrowed by 2^-40, so that every code
dequantizes to a finite value.

A weight matrix carries one output channel per column and is quantized per
channel: `quantize` codes each column as one slice into a QuantizedTensor.
Activations carry one token per row and are quantized per token, each row
one slice, only inside `matmul`; a caller that wants those codes quantizes
x.T and reads the result transposed.

`matmul` is the one quantized product: finite float activations, quantized
per token inside it, times a QuantizedTensor, as one GEMM on the integer
codes, exact in float32 while its partial sums stay below 2^24 and in
float64 otherwise, with the zero points folded out of the product afterwards
(Jacob et al., arXiv 1712.05877, eq. 7). The fold is per row and per column,
so the activations never exist as codes or as a QuantizedTensor: they are
rounded to their codes in one float64 buffer and cast once to the GEMM
dtype. The weight operand keeps its codes in the GEMM dtype and its fold
constants after the first product.

`quantize_residual_compensated` is the error-compensated (GPTQ) residual
quantizer. It factors its damped calibration Gram H = V V^T (V upper
triangular) in place, in blocks of BLOCK, so it holds one c_in x c_in
float64 buffer, plus one power-of-two scaled T x c_in copy of the
calibration tokens at a time. Each panel of the factor is multiplied by the
inverse of the BLOCK-sized triangular block below it, whose condition number
the damping bounds by sqrt(100 c_in + 1). Rows run in two-level lazy
batches: BLOCK rows per GEMM over every earlier batch, SUB_BLOCK rows per
GEMM over the earlier rows of the batch, and rank-one updates only inside a
sub-batch.
"""

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .validation import array, as_matrix, integers, pow2_units, scalar

# Diagonal damping for the error-compensated scheme, as a fraction of the
# mean Gram diagonal.
COMPENSATION_DAMPING = 0.01

# Rows per batch of the compensated quantizer's left-looking loop, and the
# block size of the in-place factor of its Gram: the diagonal blocks it
# factors and inverts, the panels it multiplies by those inverses and the
# row chunks of its update.
BLOCK = 128

# Rows per sub-batch of a BLOCK batch: one GEMM brings a sub-batch the
# earlier rows of its batch, and rank-one updates stay inside it. Timed on
# the benchmark's 1024 x 256 residuals with 512 tokens (one BLAS thread,
# 2-vCPU Xeon VM, numpy 2.4; medians of 30 interleaved runs over three
# seeds), the row loop took 16.8, 17.5 and 19.1 ms at 8, 16 and 32 rows,
# against 34.7 ms with rank-one updates over the whole batch, and the whole
# quantizer 82.8, 82.6 and 84.7 ms. 8 and 16 tie within the spread; 16
# runs half as many sub-batch GEMMs.
SUB_BLOCK = 16


@dataclass(eq=False)
class QuantizedTensor:
    """Integer codes of a matrix quantized per channel, with one step
    (`deltas`) and one zero point per column to invert them; `rows` and
    `cols` are the shape of the codes.

    The codes are a 2-D integer array with every code in [0, 255]
    (`validation.integers`), held as uint8: a C-contiguous uint8 array is
    kept as it is, without a copy. The steps and zero points are 1-D real
    arrays (`validation.array`). Their finiteness, their sizes and the codes'
    bit range are not checked here but by `tensor_io`, which names them.

    `rtn_fallback` is set when error compensation was requested but the
    calibration Gram was unusable and plain round-to-nearest was used instead.
    """

    codes: np.ndarray
    bits: int
    deltas: np.ndarray
    zero_points: np.ndarray
    rtn_fallback: bool = field(default=False)
    _gemm: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.codes = integers(self.codes, "codes", 0, 255, ndim=2, dtype=np.uint8)
        self.deltas = array(self.deltas, "deltas", 1)
        self.zero_points = array(self.zero_points, "zero_points", 1)

    @property
    def rows(self):
        return self.codes.shape[0]

    @property
    def cols(self):
        return self.codes.shape[1]

    def _gemm_operand(self, dtype):
        """(codes as `dtype`, `_ColumnFold`), the right operand of the code
        GEMM, computed once per dtype; the codes must not change afterwards."""
        if dtype not in self._gemm:
            codes = self.codes.astype(dtype)
            # A GEMV of integers is exact in the dtype `_gemm_dtype` picked.
            sums = (np.ones(self.rows, dtype) @ codes).astype(np.float64)
            ib, fb = _split(self.zero_points)
            sb = sums - self.rows * ib
            self._gemm[dtype] = codes, _ColumnFold(
                np.vstack((ib, sb)), fb, sb - self.rows * fb, *np.frexp(self.deltas)
            )
        return self._gemm[dtype]


class _ColumnFold(NamedTuple):
    """The per-column constants `matmul` folds with, of a right operand with
    codes Cb, zero points zb = ib + fb (`_split`) and steps db over K rows:
    ib_sb stacks ib over colsum(Cb - ib), tb is colsum(Cb - zb) taken as
    colsum(Cb - ib) - K fb, and (mant, exp) = frexp(db)."""

    ib_sb: np.ndarray
    fb: np.ndarray
    tb: np.ndarray
    mant: np.ndarray
    exp: np.ndarray


def _slice_params(lo, hi, bits):
    """Vectorized per-slice (deltas, zero_points) of slices spanning [lo, hi]."""
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


def _round(x, d, z, bits, out=None):
    """The codes floor(clip(x / d + z, 0, qmax) + 0.5) as float64, step by
    step in one buffer: `out` if given (it may be x itself), else a new one.
    Values are non-negative after the clamp, so floor(v + 0.5) is
    half-away-from-zero rounding."""
    v = np.divide(x, d, out=out)
    v += z
    np.clip(v, 0.0, float(2**bits - 1), out=v)
    v += 0.5
    np.floor(v, out=v)
    return v


def quantize(x, bits, granularity="per_channel"):
    """Quantize each column of a matrix as one slice (per channel).
    `granularity` accepts only "per_channel"."""
    if granularity != "per_channel":
        raise ValueError(f"unknown granularity {granularity!r}: quantize is per_channel only")
    x = as_matrix(x, "x")
    bits = scalar(bits, "bits", 2, 8, integer=True)
    # An empty column has the range [0, 0].
    lo, hi = (x.min(axis=0), x.max(axis=0)) if x.size else (np.zeros(x.shape[1]),) * 2
    deltas, zps = _slice_params(lo, hi, bits)
    codes = _round(x, deltas, zps, bits).astype(np.uint8)
    return QuantizedTensor(codes=codes, bits=bits, deltas=deltas, zero_points=zps)


def dequantize(q):
    """Invert quantization: (code - z) * delta per column."""
    out = q.codes.astype(np.float64)
    out -= q.zero_points
    out *= q.deltas
    return out


def _gemm_dtype(bits_a, bits_b, k):
    """The dtype in which a k-term product of bits_a- by bits_b-bit codes is
    exact: float32 while (2^bits_a - 1)(2^bits_b - 1) k < 2^24, so that every
    partial sum, in any order, is an integer float32 holds; float64 beyond."""
    if (2**bits_a - 1) * (2**bits_b - 1) * k < 2**24:
        return np.float32
    return np.float64


def _split(z):
    """Zero points as (nearest integer, fraction in [-1/2, 1/2]), both exact."""
    i = np.round(z)
    return i, z - i


def matmul(x, bits, b, *, out=None, ranges=None):
    """dequantize(quantize(x.T, bits)).T @ dequantize(b), up to rounding,
    of finite activations `x`, a 2-D real array as `validation.array`
    takes it, quantized per token (each row one slice), and a
    QuantizedTensor `b`, from their integer codes; x never becomes codes or
    a QuantizedTensor.

    x's codes are rounded in one float64 buffer (`out` if given, which may
    be x itself, then overwritten) and cast once to `_gemm_dtype`, where
    P = Ca @ Cb, one GEMM, is an exact integer whatever the dtype or BLAS
    threading. `ranges`, x's per-token (min, max), spares a caller that has
    them the pass taken here; a non-finite x is refused by name from them.

    The zero points are folded out of P afterwards (Jacob et al., arXiv
    1712.05877, eq. 7). With each zero point split as z = i + f (`_split`),
    A = Ca - ia and B = Cb - ib, over the K = b.rows terms,

        sum_k (Ca - za)(Cb - zb) = I - F,
        I = P - rowsum(Ca) ib - ia colsum(B)
        F = rowsum(A) fb + fa colsum(Cb - zb)

    scaled by da per row and db per column. I is an integer, exact in
    float64 while its terms stay below 2^53, as they do for zero points
    within the code range. Every product rounded in F is at most a few times
    sum_k |Ca - za||Cb - zb|, so the result is within a few ulps of that sum
    times da db. Folding the whole zero points instead, as P - rowsum(Ca) zb
    - za (colsum(Cb) - K zb), rounds terms of the size of the codes, which
    cancel to far less when codes sit on a zero point that is not an integer.
    """
    bits = scalar(bits, "bits", 2, 8, integer=True)
    x = array(x, "x", 2)
    k = b.rows
    if x.shape[1] != k:
        raise ValueError(f"inner sizes differ: {x.shape[1]} and {k}")
    if ranges is None:
        if x.shape[0] and not k:
            raise ValueError("per_token slices must be non-empty")
        ranges = (x.min(axis=1), x.max(axis=1)) if x.size else (np.zeros(x.shape[0]),) * 2
    lo, hi = ranges
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("x contains non-finite values")
    da, za = _slice_params(lo, hi, bits)
    v = _round(x, da[:, None], za[:, None], bits, out=out)
    # Row sums of integers below 2^53 are exact in any order.
    ra = v.sum(axis=1)
    cb, col = b._gemm_operand(_gemm_dtype(bits, b.bits, k))
    ia, fa = _split(za)
    y = (v.astype(cb.dtype, copy=False) @ cb).astype(np.float64, copy=False)
    # I first, exactly (a GEMM of integers), then F, elementwise so that its
    # rounding does not depend on the BLAS kernel.
    y -= np.column_stack((ra, ia)) @ col.ib_sb
    f = (ra - k * ia)[:, None] * col.fb
    f += fa[:, None] * col.tb
    y -= f
    # Scaled by both steps' frexp mantissas, then once by their summed
    # exponents: the same bits as da * db wherever no partial product
    # leaves the float64 range, and finite wherever the result fits.
    ma, ea = np.frexp(da)
    y *= ma[:, None]
    y *= col.mant
    return np.ldexp(y, ea[:, None] + col.exp, out=y)


def _factor_upper(h):
    """Overwrite the upper triangle of the symmetric positive definite `h`
    with the upper triangular V of h = V V^T, in place; raise LinAlgError
    if h is not positive definite. Only h's upper triangle is read, and
    its lower triangle is left holding whatever the steps wrote there.

    V is the lower Cholesky factor of h in reversed index order, flipped
    back, taken block by block from the bottom-right in blocks of BLOCK.
    With h = [[A, B], [B^T, C]] and C the last block, V = [[V11, V12],
    [0, V22]] has C = V22 V22^T (a BLOCK-sized `np.linalg.cholesky`),
    B = V12 V22^T, so the panel V12 = B inv(V22)^T (one BLOCK-sized
    inverse and one GEMM), and V11 is the factor of A - V12 V12^T, whose
    upper triangle is updated one BLOCK of rows at a time. No temporary
    holds more than BLOCK rows or columns of h. A block that is not
    positive definite raises in its Cholesky, before its inverse is taken.

    The explicit inverse is safe for the Grams the quantizer passes. Their
    damping of 1% of the mean diagonal bounds cond(h) by 100 c_in + 1, and
    each diagonal block factors a principal submatrix of a Schur complement
    of h, whose eigenvalues lie within h's, so cond(V22) <= sqrt(100 c_in
    + 1), about 320 at c_in = 1024. The panel's forward error is then of
    the order of cond(V22) times the rounding unit whether it is taken by a
    solve or by the inverse; numpy has no triangular solve, and
    `np.linalg.solve` spends most of its time on an LU and a unit-lower
    solve that change nothing on a triangular V22.
    """
    n = h.shape[0]
    for e in range(n, 0, -BLOCK):
        s = max(e - BLOCK, 0)
        h[s:e, s:e] = np.linalg.cholesky(h[s:e, s:e][::-1, ::-1])[::-1, ::-1]
        if s:
            h[:s, s:e] = h[:s, s:e] @ np.linalg.inv(h[s:e, s:e]).T
        for ce in range(s, 0, -BLOCK):
            cs = max(ce - BLOCK, 0)
            h[cs:ce, cs:s] -= h[cs:ce, s:e] @ h[cs:s, s:e].T


def quantize_residual_compensated(r, bits, x_calib):
    """Error-compensated quantization of a weight-like matrix.

    Entries are quantized in ascending input-index order (rows of r, all
    output channels at once). After each index is fixed, its rounding error
    is propagated to the not-yet-quantized indices of the same channel by
    the least-squares update against the damped calibration Gram
    H = X^T X + damp * I, with damp = 1% of the mean Gram diagonal (GPTQ).
    With the upper factor V of H = V V^T, the lower Cholesky factor of H in
    reversed index order flipped back, that update leaves row i at
    r_i + (sum_{i' < i} V[i', i] * d_i') / V[i, i], where d_i' = r_i' -
    dequant_i' for the rows already quantized. So H is factored once, in
    its own buffer (`_factor_upper`), and never inverted, and the rows run
    left-looking in two-level lazy batches. One GEMM brings each batch of
    BLOCK rows every earlier batch, one GEMM brings each sub-batch of
    SUB_BLOCK rows the earlier rows of its batch, and rank-one updates touch
    only the rows of the current sub-batch. Each row is rounded and its d
    taken in place in d's own row.

    Memory: one c_in x c_in float64 buffer (the Gram, then V) and at most
    one power-of-two scaled T x c_in copy of X at a time, besides arrays of
    c_in x c_out and of BLOCK rows or columns. The scaled X is taken for the
    Gram and dropped; V is dropped before X is scaled again for the scoring
    below.

    The update and the selection run in power-of-two units: X is scaled so
    max|X| lies in [0.5, 1), and each channel's r and delta so that delta
    lies in [0.5, 1). Power-of-two scalings are exact, so the codes do not
    depend on the scale of either input, the objective cannot overflow and
    the Gram of a nonzero X cannot underflow to zero.

    Per-channel scales come from the original matrix, as in plain
    round-to-nearest. Greedy compensation can occasionally lose to RTN by a
    sliver, and channels are independent in the weighted objective, so each
    channel keeps whichever of the two code vectors scores lower on
    ||X (r - dequant)||; the result is never worse than RTN. An empty matrix
    comes back as its RTN codes, unflagged, as nothing was there to
    compensate; an all-zero or token-free X, or a Gram that Cholesky
    rejects, triggers a fallback to plain RTN, flagged on the result.
    """
    r = as_matrix(r, "r")
    bits = scalar(bits, "bits", 2, 8, integer=True)
    x = as_matrix(x_calib, "x_calib")
    c_in, c_out = r.shape
    if x.shape[1] != c_in:
        raise ValueError(
            f"calibration activations have {x.shape[1]} channels, expected {c_in}"
        )
    # The RTN candidate: an empty matrix has nothing to compensate, and
    # every fallback below returns it flagged.
    q = quantize(r, bits)
    if c_in == 0 or c_out == 0:
        return q
    q.rtn_fallback = True

    # From here on x, r and the deltas are in power-of-two units.
    xs = pow2_units(x)[0]
    h = xs.T @ xs
    del xs
    damp = COMPENSATION_DAMPING * float(np.mean(np.diag(h)))
    if damp <= 0.0:
        return q
    h[np.diag_indices_from(h)] += damp
    try:
        _factor_upper(h)
    except np.linalg.LinAlgError:
        return q

    unit_deltas, exps = np.frexp(q.deltas)
    r = np.ldexp(r, -exps)
    zps = q.zero_points
    d = np.empty((c_in, c_out))
    codes = np.empty((c_in, c_out), dtype=np.uint8)
    outer = np.empty((min(SUB_BLOCK, c_in), c_out))
    for b in range(0, c_in, BLOCK):
        e = min(b + BLOCK, c_in)
        acc = h[:b, b:e].T @ d[:b]
        for sb in range(b, e, SUB_BLOCK):
            se = min(sb + SUB_BLOCK, e)
            acc[sb - b : se - b] += h[b:sb, sb:se].T @ d[b:sb]
            for i in range(sb, se):
                di = np.divide(acc[i - b], h[i, i], out=d[i])
                di += r[i]
                codes[i] = _round(di, unit_deltas, zps, bits, out=di)
                di -= zps
                di *= unit_deltas
                np.subtract(r[i], di, out=di)
                n = se - i - 1
                acc[i - b + 1 : se - b] += np.multiply(h[i, i + 1 : se, None], di, out=outer[:n])
    del h

    # d is r - dequant of the compensated codes; score RTN the same way.
    xs = pow2_units(x)[0]
    rtn_d = r - dequantize(replace(q, deltas=unit_deltas))
    won = ((xs @ d) ** 2).sum(axis=0) <= ((xs @ rtn_d) ** 2).sum(axis=0)
    q.codes[:, won] = codes[:, won]
    q.rtn_fallback = False
    return q
