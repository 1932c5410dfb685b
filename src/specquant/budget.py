"""Channel importance metrics and softmax frequency-budget allocation."""

from dataclasses import dataclass

import numpy as np

from . import spectral
from .validation import as_matrix, norm, pow2_units

METRICS = ("abs-mean", "abs-max", "l2-norm", "spectral-entropy")
DEFAULT_METRIC = "spectral-entropy"


@dataclass
class BudgetPlan:
    """Per-channel retained-bin counts and the softmax weights behind them."""

    rho: np.ndarray
    k: np.ndarray
    alpha: float
    total_budget: int

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=np.float64)
        self.k = np.asarray(self.k, dtype=np.int64)
        if self.rho.size != self.k.size:
            raise ValueError("rho and k must have equal length")


def spectral_entropy(spectrum):
    """Shannon entropy (base 2) of each column's spectral energy split.

    `spectrum` is a (half, c) array of column half-spectra; a zero column
    scores 0. Each column is squared in units of the power of two at its
    largest bin, an exact rescaling that keeps the power from overflowing
    or underflowing.
    """
    # Row j of the transposed power is contiguous, so its sum is the same
    # pairwise sum a single channel's spectrum would get.
    amp = np.ascontiguousarray(np.abs(spectrum.T))
    p = pow2_units(amp, axis=1)[0] ** 2
    total = p.sum(axis=1, keepdims=True)
    p = p / np.where(total == 0.0, 1.0, total)
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=1)


def importance(w_smoothed, metric=DEFAULT_METRIC, *, spectrum=None):
    """Score the output channels of a (smoothed) weight matrix; returns one
    float64 score per column.

    `spectrum` is the caller's `spectral.fft_columns(w_smoothed)`, if it has
    one; `spectral-entropy` then reuses it instead of transforming again.
    """
    w = as_matrix(w_smoothed, "w_smoothed")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    if metric == "abs-mean":
        scores = np.abs(w).mean(axis=0)
    elif metric == "abs-max":
        scores = np.abs(w).max(axis=0)
    elif metric == "l2-norm":
        scores = norm(w, axis=0)
    else:
        if spectrum is None:
            spectrum = spectral.fft_columns(w)
        scores = spectral_entropy(spectrum)
    return np.asarray(scores, dtype=np.float64)


def _deal(count, order, room):
    """Units per entry when `count` units are dealt one per entry per pass in
    `order` to entries with `room` left, stopping once none has room. An
    entry with room r gets one in each of the first r passes."""
    r = room[order]
    ranked = np.sort(r)
    passes = np.arange(ranked[-1] + 1)
    below = np.searchsorted(ranked, passes)
    dealt = np.concatenate(([0], np.cumsum(ranked)))[below] + passes * (r.size - below)
    full = np.searchsorted(dealt, count, side="right") - 1
    left = r > full
    out = np.empty_like(r)
    out[order] = np.minimum(r, full) + (left & (np.cumsum(left) <= count - dealt[full]))
    return out


def allocate(scores, alpha, total_budget, c_in):
    """Turn importance scores into per-channel retained-bin counts.

    rho = softmax(alpha * score); provisional k_j = floor(rho_j * budget),
    clamped to [1, c_in // 2 + 1]. Whatever the flooring and clamping leave
    over is dealt out one bin per channel per pass in descending score order
    (ties broken by ascending index) until the budget or the caps are
    exhausted. If the keep-at-least-DC floor overshoots the budget, bins are
    taken back the same way in the mirrored order, down to one per channel.
    Equal scores split the budget evenly within the caps: budget // c_out
    bins each, one more for the first budget % c_out channels, as `groups` uses.
    An alpha * score past the float64 range, which would make the softmax
    NaN, raises ValueError.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise ValueError("scores must be 1-D")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    total_budget = int(total_budget)
    c_out = s.size
    if total_budget < c_out:
        raise ValueError(
            f"total_budget {total_budget} cannot cover the DC bin of {c_out} channels"
        )
    if c_out == 0:
        return BudgetPlan(
            rho=np.zeros(0), k=np.zeros(0, dtype=np.int64), alpha=float(alpha), total_budget=0
        )
    cap = spectral.half_spectrum_length(c_in)
    with np.errstate(over="ignore"):
        z = float(alpha) * s
    if not np.isfinite(z).all():
        raise ValueError(f"alpha={alpha} times the importance scores is past the float64 range")
    z = z - z.max()
    e = np.exp(z)
    rho = e / e.sum()
    k = np.floor(rho * total_budget).astype(np.int64)
    np.clip(k, 1, cap, out=k)
    short = min(total_budget, cap * c_out) - int(k.sum())
    order = np.lexsort((np.arange(c_out), -s))
    k += _deal(max(short, 0), order, cap - k)
    k -= _deal(max(-short, 0), order[::-1], k - 1)
    return BudgetPlan(rho=rho, k=k, alpha=float(alpha), total_budget=total_budget)
