"""End-to-end compression of one linear layer.

The layer Y = X W (activations X: tokens x c_in, weights W: c_in x c_out) is
compressed in two stages:

1. Smoothing: X is divided and W multiplied by per-input-channel factors
   lambda so the product is unchanged while activation outliers migrate into
   the weights.
2. Spectral split: each output channel of the smoothed weights is truncated
   to its budgeted count of low-frequency bins; the high-precision
   reconstruction W' plus a low-bit quantized residual R = W_hat - W'
   replaces the dense weights.

The approximate forward keeps the W' branch in full precision and runs only
the residual branch through integer quantization. A budget-matched truncated
SVD of the same matrix acts as the baseline for error comparisons.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import quant, spectral
from .budget import DEFAULT_METRIC, BudgetPlan, allocate, importance
from .errors import DataError, ShapeError
from .validation import as_matrix

DEFAULT_SMOOTH_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_RESIDUAL_BITS = 4
# Fixed per-channel bin count used when a caller asks for "groups" mode
# instead of a global ratio.
DEFAULT_GROUPS = 16


@dataclass
class SmoothingFactors:
    """Per-input-channel scale lambda and the strength it was derived with."""

    lam: np.ndarray
    migration_strength: float

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=np.float64)


@dataclass
class CompressedLayer:
    """On-disk unit: smoothing factors, packed spectra, quantized residual.

    `spectra` is the (sum(plan.k), 2) float64 array of (amplitude, phase)
    rows, channel after channel, split by `plan.k`: exactly the bytes of
    `spectra.bin`.
    """

    smoothing: SmoothingFactors
    spectra: np.ndarray
    residual: quant.QuantizedTensor
    plan: BudgetPlan
    c_in: int
    c_out: int
    _w_low: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _r_deq: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def low_freq_matrix(self):
        """Dense W' materialized from the stored spectra (computed once)."""
        if self._w_low is None:
            self._w_low = spectral.reconstruct_columns(self.spectra, self.plan.k, self.c_in)
        return self._w_low

    def residual_matrix(self):
        """Dense dequant(R) from the stored codes (computed once)."""
        if self._r_deq is None:
            self._r_deq = quant.dequantize(self.residual)
        return self._r_deq

    def validate(self):
        """Raise ShapeError or DataError for any state the artifact format
        cannot hold; save runs it before writing and load after reading."""
        k = self.plan.k
        # A zero-length channel has no bins, so no k is valid for c_in = 0.
        half = spectral.half_spectrum_length(self.c_in) if self.c_in else 0
        if k.size != self.c_out:
            raise ShapeError("budget plan length does not match c_out")
        if ((k < 1) | (k > half)).any():
            raise ShapeError(f"plan k outside [1, {half}] for c_in={self.c_in}")
        shape = getattr(self.spectra, "shape", None)
        if shape != (int(k.sum()), 2):
            raise ShapeError(f"spectra are {shape}, expected a ({k.sum()}, 2) array for the plan")
        if not np.isfinite(self.spectra).all():
            raise DataError("spectra contain non-finite values")
        amps, phases = self.spectra.T
        if (amps < 0).any():
            raise DataError("spectrum amplitudes must be non-negative")
        if ((phases <= -np.pi) | (phases > np.pi)).any():
            raise DataError("spectrum phases must lie in (-pi, pi]")
        starts = np.cumsum(k) - k
        for m in spectral._real_bin_indices(self.c_in):
            if not np.isin(phases[(starts + m)[k > m]], (0.0, np.pi)).all():
                raise DataError(f"bin {m} is real-valued; its phase must be 0 or pi")
        r = self.residual
        if (r.rows, r.cols) != (self.c_in, self.c_out):
            raise ShapeError(
                f"residual is {r.rows}x{r.cols}, expected {self.c_in}x{self.c_out}"
            )
        if r.granularity != "per_channel":
            raise ShapeError("layer residual must be per_channel quantized")
        if r.deltas.size != self.c_out or r.zero_points.size != self.c_out:
            raise ShapeError("residual quantizer params do not match c_out")
        if not (np.isfinite(r.deltas).all() and (r.deltas > 0).all()):
            raise DataError("residual deltas must be positive and finite")
        if not np.isfinite(r.zero_points).all():
            raise DataError("residual zero points must be finite")
        if not 2 <= r.bits <= 8:
            raise DataError(f"residual bits {r.bits} outside [2, 8]")
        if r.codes.size and int(r.codes.max()) > 2**r.bits - 1:
            raise DataError(f"residual codes exceed {r.bits}-bit range")
        if self.smoothing.lam.size != self.c_in:
            raise ShapeError("smoothing factors length does not match c_in")
        lam = self.smoothing.lam
        if lam.size and (not np.isfinite(lam).all() or (lam <= 0).any()):
            raise DataError("smoothing factors must be positive and finite")


def compute_smoothing(x_calib, w, s):
    """Per-channel factors lambda_j = max|X[:,j]|^s / max|W[j,:]|^(1-s).

    A channel whose activation or weight range is zero keeps lambda_j = 1 so
    it passes through untouched.
    """
    x = as_matrix(x_calib, "x_calib")
    w = as_matrix(w, "w")
    if x.shape[1] != w.shape[0]:
        raise ValueError(
            f"activations have {x.shape[1]} channels, weights expect {w.shape[0]}"
        )
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"migration strength must lie in [0, 1], got {s}")
    c_in = w.shape[0]
    act = np.abs(x).max(axis=0) if x.shape[0] else np.zeros(c_in)
    wgt = np.abs(w).max(axis=1) if w.shape[1] else np.zeros(c_in)
    lam = np.ones(c_in)
    ok = (act > 0) & (wgt > 0)
    lam[ok] = act[ok] ** s / wgt[ok] ** (1.0 - s)
    return SmoothingFactors(lam=lam, migration_strength=float(s))


def apply_smoothing(x, w, factors):
    """x_hat = x / lambda (columns), w_hat = lambda * w (rows).

    The product is preserved exactly in exact arithmetic: x_hat w_hat = x w.
    """
    x = as_matrix(x, "x")
    w = as_matrix(w, "w")
    lam = factors.lam
    if x.shape[1] != lam.size or w.shape[0] != lam.size:
        raise ValueError("smoothing factor length does not match layer shapes")
    return x / lam[None, :], lam[:, None] * w


def select_migration_strength(
    x_calib,
    w,
    grid,
    ratio=None,
    *,
    groups=None,
    metric=DEFAULT_METRIC,
    alpha=1.0,
    residual_bits=DEFAULT_RESIDUAL_BITS,
    residual_quant="rtn",
):
    """Compress at the strength in `grid` minimizing the post-compression
    output MSE and return that layer; its strength is
    `layer.smoothing.migration_strength`.

    Runs the full compression path per candidate and scores
    ||X W - X_hat (W' + dequant(R))||_F^2 on the calibration set. Ties go to
    the smaller strength.
    """
    if grid is None or len(grid) == 0:
        raise ValueError("migration strength grid must be non-empty")
    x = as_matrix(x_calib, "x_calib")
    w = as_matrix(w, "w")
    reference = x @ w
    best = None
    for s in sorted(float(v) for v in grid):
        layer = compress_layer(
            x,
            w,
            ratio=ratio,
            groups=groups,
            metric=metric,
            alpha=alpha,
            residual_bits=residual_bits,
            smooth=s,
            residual_quant=residual_quant,
        )
        x_hat = x / layer.smoothing.lam[None, :]
        approx = x_hat @ (layer.low_freq_matrix() + layer.residual_matrix())
        loss = float(((reference - approx) ** 2).sum())
        if best is None or loss < best_loss:
            best, best_loss = layer, loss
    return best


def compress_layer(
    x_calib,
    w,
    *,
    ratio=None,
    groups=None,
    metric=DEFAULT_METRIC,
    alpha=1.0,
    residual_bits=DEFAULT_RESIDUAL_BITS,
    smooth="auto",
    residual_quant="rtn",
    smooth_grid=DEFAULT_SMOOTH_GRID,
):
    """Compress one layer: smooth, truncate per channel, quantize the residual.

    Exactly one of `ratio` and `groups` must be given. With `ratio`, the
    global bin budget is floor(ratio * c_out * (c_in // 2 + 1)) and the
    importance metric distributes it; ratio 1.0 therefore retains every
    channel's full half-spectrum and the decomposition is exact. With
    `groups`, every channel keeps exactly that many bins and allocation is
    bypassed.
    """
    w = as_matrix(w, "w")
    x = as_matrix(x_calib, "x_calib")
    if x.shape[1] != w.shape[0]:
        raise ValueError(
            f"calibration activations have {x.shape[1]} channels, expected {w.shape[0]}"
        )
    if (ratio is None) == (groups is None):
        raise ValueError("exactly one of ratio and groups must be set")
    if residual_quant not in ("rtn", "compensated"):
        raise ValueError(f"unknown residual quantizer {residual_quant!r}")
    c_in, c_out = w.shape
    half = spectral.half_spectrum_length(c_in)
    if ratio is not None and not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    if groups is not None and not 1 <= int(groups) <= half:
        raise ValueError(f"groups must lie in [1, {half}], got {groups}")

    if smooth == "auto":
        return select_migration_strength(
            x,
            w,
            smooth_grid,
            ratio,
            groups=groups,
            metric=metric,
            alpha=alpha,
            residual_bits=residual_bits,
            residual_quant=residual_quant,
        )
    factors = compute_smoothing(x, w, float(smooth))
    x_hat, w_hat = apply_smoothing(x, w, factors)

    spec = spectral.fft_columns(w_hat)
    if groups is not None:
        k = np.full(c_out, int(groups), dtype=np.int64)
        total = int(k.sum())
        rho = k / total if total else k.astype(np.float64)
        plan = BudgetPlan(rho=rho, k=k, alpha=float(alpha), total_budget=total)
    else:
        total = math.floor(ratio * c_out * half)
        if total < c_out:
            raise ValueError(
                f"budget {total} below one retained bin per channel (c_out={c_out})"
            )
        scores = importance(w_hat, x, metric, spectrum=spec)
        plan = allocate(scores, alpha, total, c_in)

    spectra = spectral.truncate_columns(spec, plan.k, c_in)
    del spec  # the complex spectrum need not stay alive through quantization
    # W' is rebuilt from the stored (amplitude, phase) values, so the layer
    # cached here and one loaded from its artifact hold the same bits.
    w_low = spectral.reconstruct_columns(spectra, plan.k, c_in)
    residual = w_hat - w_low
    if residual_quant == "compensated":
        q = quant.quantize_residual_compensated(residual, residual_bits, x_hat)
    else:
        q = quant.quantize(residual, residual_bits, "per_channel")
    layer = CompressedLayer(
        smoothing=factors, spectra=spectra, residual=q, plan=plan, c_in=c_in, c_out=c_out
    )
    layer._w_low = w_low
    return layer


def forward_approx(x, layer, activation_bits):
    """Two-branch approximate forward pass.

    Returns x_hat W' + dequant(quant(x_hat)) dequant(R) with x_hat = x / lambda.
    The W' branch runs in full precision (standing in for a 16-bit kernel).
    Activation bits above 8 leave the residual-branch activations unquantized,
    since the integer quantizer is defined for 2..8 bits.
    """
    x = as_matrix(x, "x")
    if x.shape[1] != layer.c_in:
        raise ValueError(f"x has {x.shape[1]} columns, layer expects {layer.c_in}")
    activation_bits = int(activation_bits)
    if not 2 <= activation_bits <= 16:
        raise ValueError(f"activation_bits must lie in [2, 16], got {activation_bits}")
    x_hat = x / layer.smoothing.lam[None, :]
    if activation_bits <= 8:
        x_resid = quant.dequantize(quant.quantize(x_hat, activation_bits, "per_token"))
    else:
        x_resid = x_hat
    return x_hat @ layer.low_freq_matrix() + x_resid @ layer.residual_matrix()


def svd_baseline(w_hat, budget):
    """Best rank-k approximation fitting a parameter budget.

    One singular triplet costs c_in + c_out + 1 reals, so
    k = floor(budget / (c_in + c_out + 1)). Returns (low-rank matrix,
    residual, k).
    """
    w = as_matrix(w_hat, "w_hat")
    c_in, c_out = w.shape
    per_rank = c_in + c_out + 1
    budget = int(budget)
    if budget < per_rank:
        raise ValueError(f"budget {budget} below one singular triplet ({per_rank})")
    k = budget // per_rank
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    w_low = (u[:, :k] * s[:k]) @ vt[:k]
    return w_low, w - w_low, k


@dataclass
class BudgetComparison:
    """Spectral truncation vs truncated SVD at matched parameter counts."""

    ratio: float
    budget_bins: int
    b_spectral: int
    b_svd: int
    k_svd: int
    budget_slack: int
    err_spectral: float
    err_svd: float
    k_per_channel: np.ndarray
    channel_tail_energy: np.ndarray


def compare_budgets(w_hat, x_calib=None, ratio=0.2, *, metric=DEFAULT_METRIC, alpha=1.0):
    """Decompose `w_hat` both ways under one storage budget and report errors.

    The spectral side spends 2 reals per retained bin (B_spectral = 2 sum k_j);
    the SVD side gets the same budget rounded down to whole singular triplets,
    so |B_spectral - B_svd| < c_in + c_out + 1 (the slack is reported).
    Smoothing, if wanted, happens upstream; the comparison is decomposition
    only.
    """
    w = as_matrix(w_hat, "w_hat")
    c_in, c_out = w.shape
    half = spectral.half_spectrum_length(c_in)
    budget_bins = math.floor(ratio * c_out * half)
    if budget_bins < c_out:
        raise ValueError(f"ratio {ratio} leaves less than one bin per channel")
    spec = spectral.fft_columns(w)
    scores = importance(w, x_calib, metric, spectrum=spec)
    plan = allocate(scores, alpha, budget_bins, c_in)
    w_low = spectral.reconstruct_columns(
        spectral.truncate_columns(spec, plan.k, c_in), plan.k, c_in
    )
    err_spectral = float(np.linalg.norm(w - w_low))
    tails = spectral.band_energies(spec, plan.k, c_in)[2]
    b_spectral = 2 * int(plan.k.sum())
    w_svd, svd_resid, k_svd = svd_baseline(w, b_spectral)
    b_svd = k_svd * (c_in + c_out + 1)
    return BudgetComparison(
        ratio=float(ratio),
        budget_bins=budget_bins,
        b_spectral=b_spectral,
        b_svd=b_svd,
        k_svd=k_svd,
        budget_slack=b_spectral - b_svd,
        err_spectral=err_spectral,
        err_svd=float(np.linalg.norm(svd_resid)),
        k_per_channel=plan.k.copy(),
        channel_tail_energy=tails,
    )


def layer_channel_stats(w, layer):
    """Per-channel energy/error stats of a compressed layer's truncation.

    Recomputes the smoothed weights from the stored factors and splits their
    spectra at the plan's k; the achieved error is measured against the
    layer's W', the matrix the forward pass uses.
    """
    w = as_matrix(w, "w")
    if w.shape != (layer.c_in, layer.c_out):
        raise ValueError(
            f"weights are {w.shape}, layer expects {(layer.c_in, layer.c_out)}"
        )
    w_hat = layer.smoothing.lam[:, None] * w
    total, retained, tail = spectral.band_energies(
        spectral.fft_columns(w_hat), layer.plan.k, layer.c_in
    )
    achieved = np.linalg.norm(w_hat - layer.low_freq_matrix(), axis=0)
    return [
        spectral.ChannelStats(
            total_energy=float(total[j]),
            retained_energy=float(retained[j]),
            tail_energy=float(tail[j]),
            error_bound=float(np.sqrt(tail[j])),
            achieved_error=float(achieved[j]),
        )
        for j in range(layer.c_out)
    ]
