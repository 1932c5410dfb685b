"""Independent reference computations the tests check the library against.

These deliberately avoid the library's own code paths: the DFT oracle sums
the transform definition in 50-digit arithmetic, the reconstruction oracle
is the direct cosine sum of one channel's bins, the truncation oracle converts
every bin of the half-spectra before it masks them, the SVD oracle is a
one-sided Jacobi iteration, and the quantizer oracle enumerates every code
assignment. The compensated-codes reference shares only the uniform
quantizer's scales with the library and runs the update the long way. The
allocator reference hands out leftover bins with the round-robin loops, and
the budget-comparison reference rebuilds both approximations and measures
their errors directly, from the library's transforms. The Parseval check
compares the two energies of the library's full-length transform.
"""

import itertools

import mpmath
import numpy as np

from specquant import spectral
from specquant.budget import allocate, bin_budget, importance
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


def reconstruct(bins, n):
    """Time-domain signal of one channel's (k, 2) truncated spectrum, as the
    direct cosine sum x[t] = (1/n) sum_m w_m A_m cos(2 pi m t / n + phi_m),
    with w_m = 1 for DC and (even n) Nyquist and 2 for every other bin: the
    unique real signal consistent with conjugate symmetry."""
    bins = np.asarray(bins, dtype=np.float64)
    k = bins.shape[0]
    weights = np.full(k, 2.0)
    weights[0] = 1.0
    if n % 2 == 0 and k == n // 2 + 1:
        weights[-1] = 1.0
    theta = (2.0 * np.pi / n) * np.outer(np.arange(k), np.arange(n))
    theta += bins[:, 1:]
    return (weights * bins[:, 0] / n) @ np.cos(theta)


def truncate_columns_full(half_spec, k, n):
    """Packed (amplitude, phase) rows of the k[j] lowest bins of column j of
    the (half, c) half-spectra, by the full-array formula: every bin is
    converted, DC and (even n) Nyquist are pinned real by bin index, and only
    then is the mask applied."""
    hs = np.asarray(half_spec, dtype=complex)
    ks = np.broadcast_to(np.asarray(k, dtype=np.int64), hs.shape[1:])
    pairs = np.stack([np.abs(hs), np.angle(hs)], axis=-1)
    phases = pairs[..., 1]
    phases[phases <= -np.pi] = np.pi
    for m in spectral._real_bin_indices(n):
        re = hs[m].real
        pairs[m, :, 0] = np.abs(re)
        pairs[m, :, 1] = np.where(re >= 0.0, 0.0, np.pi)
    kept = np.arange(hs.shape[0]) < ks[:, None]
    return pairs.transpose(1, 0, 2)[kept]


def parseval_check(x):
    """(time energy, frequency energy): sum(x^2) against (1/N) sum |X[k]|^2
    over the library's full N-bin transform of the real vector x."""
    x = np.asarray(x, dtype=np.float64)
    full = spectral._dft_columns(x.astype(complex)[:, None])[:, 0]
    return float(np.sum(x * x)), float(np.sum(np.abs(full) ** 2) / x.size)


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
    for the batched loop over the factor of H at ordinary scales only.
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


def allocate_round_robin(scores, alpha, total_budget, c_in):
    """(rho, k) of the softmax allocator, with the leftover bins handed out
    one at a time by round-robin loops over the channels: in descending score
    order while bins are short, in the mirrored order while the
    keep-at-least-DC floor overshoots."""
    s = np.asarray(scores, dtype=np.float64)
    c_out = s.size
    cap = spectral.half_spectrum_length(c_in)
    z = float(alpha) * s
    z = z - z.max()
    e = np.exp(z)
    rho = e / e.sum()
    k = np.floor(rho * total_budget).astype(np.int64)
    np.clip(k, 1, cap, out=k)
    target = min(total_budget, cap * c_out)
    give_order = np.lexsort((np.arange(c_out), -s))
    short = target - int(k.sum())
    while short > 0:
        moved = False
        for j in give_order:
            if k[j] < cap:
                k[j] += 1
                short -= 1
                moved = True
                if short == 0:
                    break
        if not moved:
            break
    while short < 0:
        moved = False
        for j in give_order[::-1]:
            if k[j] > 1:
                k[j] -= 1
                short += 1
                moved = True
                if short == 0:
                    break
        if not moved:
            break
    return rho, k


def compare_budgets_rebuilt(w, ratios, metric="spectral-entropy", alpha=1.0):
    """(k_svd, err_spectral, err_svd) per ratio, measured on rebuilt matrices:
    W' from the truncated, stored spectra and the rank-k_svd product of the
    SVD factors, each subtracted from `w` and normed."""
    c_in, c_out = w.shape
    spec = spectral.fft_columns(w)
    scores = importance(w, metric, spectrum=spec)
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    rows = []
    for ratio in ratios:
        plan = allocate(scores, alpha, bin_budget(c_in, c_out, ratio=ratio), c_in)
        w_low = spectral.reconstruct_columns(
            spectral.truncate_columns(spec, plan.k, c_in), plan.k, c_in
        )
        k_svd = 2 * int(plan.k.sum()) // (c_in + c_out + 1)
        w_svd = (u[:, :k_svd] * s[:k_svd]) @ vt[:k_svd]
        rows.append((k_svd, float(np.linalg.norm(w - w_low)), float(np.linalg.norm(w - w_svd))))
    return rows
