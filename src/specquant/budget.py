"""Channel importance metrics, bin budgets and softmax budget allocation."""

import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .validation import array, as_matrix, integers, norm, pow2_units, scalar

METRICS = ("abs-mean", "abs-max", "l2-norm", "spectral-entropy")
DEFAULT_METRIC = "spectral-entropy"


@dataclass(eq=False)
class BudgetPlan:
    """Per-channel retained-bin counts and the softmax weights behind them,
    with the metric and ratio (None for a groups budget) they were made by.

    `rho` is a 1-D real array (`validation.array`) and `k` a 1-D integer
    array (`validation.integers`) of equal length. Neither is checked for
    range or finiteness here: a loaded plan's are checked, with their named
    errors, by `tensor_io`.
    """

    rho: np.ndarray
    k: np.ndarray
    alpha: float
    total_budget: int
    metric: str | None = None
    ratio: float | None = None

    def __post_init__(self):
        self.rho = array(self.rho, "rho", 1)
        self.k = integers(self.k, "k", ndim=1)
        if self.rho.size != self.k.size:
            raise ValueError("rho and k must have equal length")


def spectral_entropy(spectrum):
    """Shannon entropy (base 2) of each column's spectral energy split.

    `spectrum` is a (half, c) array of column half-spectra, real or complex
    as `validation.array` takes it; a zero column scores 0. Each column is
    squared in units of the power of two at its largest bin, an exact
    rescaling that keeps the power from overflowing or underflowing.
    """
    # Row j of the transposed power is contiguous, so its sum is the same
    # pairwise sum a single channel's spectrum would get.
    amp = np.ascontiguousarray(np.abs(array(spectrum, "spectrum", 2, complex_ok=True).T))
    p = pow2_units(amp, axis=1)[0] ** 2
    total = p.sum(axis=1, keepdims=True)
    p = p / np.where(total == 0.0, 1.0, total)
    return -(p * np.log2(np.where(p > 0.0, p, 1.0))).sum(axis=1)


def _check_metric(metric):
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")


def importance(w_smoothed, metric=DEFAULT_METRIC, *, spectrum=None):
    """Score the output channels of a (smoothed) weight matrix; returns one
    float64 score per column.

    `spectrum` is the caller's `spectral.fft_columns(w_smoothed)`, if it has
    one; `spectral-entropy` then reuses it instead of transforming again.
    """
    w = as_matrix(w_smoothed, "w_smoothed")
    _check_metric(metric)
    if metric == "abs-mean":
        return np.abs(w).mean(axis=0)
    if metric == "abs-max":
        return np.abs(w).max(axis=0)
    if metric == "l2-norm":
        return norm(w, axis=0)
    return spectral_entropy(spectral.fft_columns(w) if spectrum is None else spectrum)


def bin_budget(c_in, c_out, *, ratio=None, groups=None):
    """Global retained-bin budget of a c_in x c_out layer.

    c_in and c_out are non-negative integers, and exactly one of `ratio`
    and `groups` must be set, each as `validation.scalar` takes it. A
    ratio in (0, 1] gives floor(ratio * c_out * (c_in // 2 + 1)) bins,
    floored in float64 whatever numpy scalar the ratio came as, which must
    cover one bin per channel; an integer `groups` in [1, c_in // 2 + 1]
    gives groups * c_out.
    """
    if (ratio is None) == (groups is None):
        raise ValueError("exactly one of ratio and groups must be set")
    half = spectral.half_spectrum_length(scalar(c_in, "c_in", 0, integer=True))
    c_out = scalar(c_out, "c_out", 0, integer=True)
    if groups is not None:
        return scalar(groups, "groups", 1, half, integer=True) * c_out
    total = math.floor(scalar(ratio, "ratio", 0, 1, open_lo=True) * c_out * half)
    if total < c_out:
        raise ValueError(f"budget {total} below one retained bin per channel (c_out={c_out})")
    return total


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
    `scores` is a finite 1-D real array, as `validation.array` takes it;
    `alpha` (finite), `total_budget` (an integer) and `c_in` (a
    non-negative integer) are taken by `validation.scalar`; an alpha *
    score past the float64 range, which would make the softmax NaN, raises
    ValueError.
    """
    s = array(scores, "scores", 1, finite=True)
    alpha = scalar(alpha, "alpha")
    total_budget = scalar(total_budget, "total_budget", integer=True)
    cap = spectral.half_spectrum_length(scalar(c_in, "c_in", 0, integer=True))
    c_out = s.size
    if total_budget < c_out:
        raise ValueError(
            f"total_budget {total_budget} cannot cover the DC bin of {c_out} channels"
        )
    if c_out == 0:
        return BudgetPlan(
            rho=np.zeros(0), k=np.zeros(0, dtype=np.int64), alpha=alpha, total_budget=0
        )
    with np.errstate(over="ignore"):
        z = alpha * s
    if not np.isfinite(z).all():
        raise ValueError(f"alpha={alpha} times the importance scores is past the float64 range")
    # Scores spread past the float64 range give -inf here, whose exp is the
    # correct limit 0.
    with np.errstate(over="ignore"):
        z = z - z.max()
    e = np.exp(z)
    rho = e / e.sum()
    k = np.floor(rho * total_budget).astype(np.int64)
    np.clip(k, 1, cap, out=k)
    short = min(total_budget, cap * c_out) - int(k.sum())
    order = np.lexsort((np.arange(c_out), -s))
    k += _deal(max(short, 0), order, cap - k)
    k -= _deal(max(-short, 0), order[::-1], k - 1)
    return BudgetPlan(rho=rho, k=k, alpha=alpha, total_budget=total_budget)
