"""Independent reference computations the tests check the library against.

These deliberately avoid the library's own code paths: the DFT oracle sums
the transform definition in 50-digit arithmetic, the SVD oracle is a
one-sided Jacobi iteration, and the quantizer oracle enumerates every code
assignment. The compensated-codes reference shares only the uniform
quantizer's scales with the library and runs the update the long way.
"""

import itertools

import mpmath
import numpy as np

from specquant.quant import COMPENSATION_DAMPING, quantize


def dft_extended_precision(x, dps=50):
    """Term-by-term DFT summation in extended precision; full N bins."""
    with mpmath.workdps(dps):
        n = len(x)
        out = []
        for k in range(n):
            acc = mpmath.mpc(0)
            for i, v in enumerate(x):
                theta = mpmath.mpf(-2) * mpmath.pi * k * i / n
                acc += mpmath.mpf(float(v)) * (mpmath.cos(theta) + 1j * mpmath.sin(theta))
            out.append(complex(acc))
    return np.array(out)


def jacobi_singular_values(a, sweeps=60, tol=1e-14):
    """Singular values via one-sided Jacobi rotations, descending order."""
    b = np.array(a, dtype=np.float64, copy=True)
    _, cols = b.shape
    for _ in range(sweeps):
        off = 0.0
        for p in range(cols - 1):
            for q in range(p + 1, cols):
                apq = float(b[:, p] @ b[:, q])
                app = float(b[:, p] @ b[:, p])
                aqq = float(b[:, q] @ b[:, q])
                off = max(off, abs(apq))
                if abs(apq) <= tol * np.sqrt(app * aqq) or apq == 0.0:
                    continue
                tau = (aqq - app) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = c * t
                bp = c * b[:, p] - s * b[:, q]
                bq = s * b[:, p] + c * b[:, q]
                b[:, p], b[:, q] = bp, bq
        if off < tol:
            break
    sv = np.sqrt((b * b).sum(axis=0))
    return np.sort(sv)[::-1]


def best_weighted_code_error(r, deltas, zero_points, bits, x):
    """Exhaustive minimum of ||x @ (r - dequant(codes))||_F over all codes.

    Feasible only for tiny matrices; used as the ground-truth optimum for
    the error-compensated quantizer.
    """
    qmax = 2**bits - 1
    rows, cols = r.shape
    best = np.inf
    levels = range(qmax + 1)
    for flat in itertools.product(levels, repeat=rows * cols):
        codes = np.array(flat, dtype=np.float64).reshape(rows, cols)
        deq = (codes - zero_points[None, :]) * deltas[None, :]
        err = np.linalg.norm(x @ (r - deq))
        if err < best:
            best = err
    return best


def compensated_codes_downdate(r, bits, x):
    """Codes of the error-compensated quantizer, computed the long way.

    Keeps the inverse Gram of the not-yet-quantized indices by a rank-one
    downdate after every index, in absolute units, with the same damping,
    per-channel scales and per-channel "never worse than RTN" selection as
    `quantize_residual_compensated`. O(c_in^3). Returns the RTN codes when
    the Gram or a pivot is unusable in absolute units, so it is a reference
    for the Cholesky-row form at ordinary scales only.
    """
    r = np.asarray(r, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    c_in, c_out = r.shape
    rtn = quantize(r, bits, "per_channel")
    if c_in == 0 or c_out == 0:
        return rtn.codes
    gram = x.T @ x
    damp = COMPENSATION_DAMPING * float(np.mean(np.diag(gram)))
    if not np.isfinite(damp) or damp <= 0.0:
        return rtn.codes
    gram[np.diag_indices_from(gram)] += damp
    try:
        hinv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        return rtn.codes
    if not np.isfinite(hinv).all():
        return rtn.codes

    deltas, zps = rtn.deltas, rtn.zero_points
    work = r.copy()
    codes = np.empty((c_in, c_out), dtype=np.uint8)
    qmax = float(2**bits - 1)
    for i in range(c_in):
        d = hinv[i, i]
        if not np.isfinite(d) or d <= 0.0:
            return rtn.codes
        row = work[i, :]
        c = np.floor(np.clip(row / deltas + zps, 0.0, qmax) + 0.5)
        codes[i, :] = c
        err = row - (c - zps) * deltas
        if i + 1 < c_in:
            work[i + 1 :, :] -= np.outer(hinv[i + 1 :, i], err) / d
        hinv -= np.outer(hinv[:, i], hinv[i, :]) / d

    rtn_codes = rtn.codes
    err_comp = x @ (r - (codes.astype(np.float64) - zps[None, :]) * deltas[None, :])
    err_rtn = x @ (r - (rtn_codes.astype(np.float64) - zps[None, :]) * deltas[None, :])
    worse = (err_comp**2).sum(axis=0) > (err_rtn**2).sum(axis=0)
    codes[:, worse] = rtn_codes[:, worse]
    return codes
