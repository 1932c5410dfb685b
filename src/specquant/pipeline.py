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
from .validation import as_matrix, norm

DEFAULT_SMOOTH_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
DEFAULT_RESIDUAL_BITS = 4


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
    `spectra.bin`. `energy` is the (3, c_out) array of each channel's total,
    retained and tail energy from the spectrum `compress_layer` truncated;
    it is None on a loaded layer, since the artifact keeps no dropped bins.
    """

    smoothing: SmoothingFactors
    spectra: np.ndarray
    residual: quant.QuantizedTensor
    plan: BudgetPlan
    c_in: int
    c_out: int
    energy: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
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
        for name, value in (
            ("plan rho", self.plan.rho),
            ("plan alpha", self.plan.alpha),
            ("migration strength", self.smoothing.migration_strength),
        ):
            if not np.isfinite(value).all():
                raise DataError(f"{name} must be finite")
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
    ||X W - X_hat (W' + dequant(R))||_F^2 on the calibration set, in units of
    the power of two at max|X W| so the loss neither overflows nor underflows
    (an exact rescaling, so the ranking is unchanged). Ties go to the smaller
    strength.
    """
    if grid is None or len(grid) == 0:
        raise ValueError("migration strength grid must be non-empty")
    x = as_matrix(x_calib, "x_calib")
    w = as_matrix(w, "w")
    reference = x @ w
    exp = int(np.frexp(np.abs(reference).max(initial=0.0))[1])
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
        loss = float((np.ldexp(reference - approx, -exp) ** 2).sum())
        if best is None or loss < best_loss:
            best, best_loss = layer, loss
    return best


def _bin_budget(ratio, c_in, c_out):
    """Global retained-bin budget floor(ratio * c_out * (c_in // 2 + 1)) for a
    ratio in (0, 1], checked to cover one bin per channel."""
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must lie in (0, 1], got {ratio}")
    total = math.floor(ratio * c_out * spectral.half_spectrum_length(c_in))
    if total < c_out:
        raise ValueError(
            f"budget {total} below one retained bin per channel (c_out={c_out})"
        )
    return total


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
):
    """Compress one layer: smooth, truncate per channel, quantize the residual.

    Exactly one of `ratio` and `groups` must be given. With `ratio`, the
    global bin budget is floor(ratio * c_out * (c_in // 2 + 1)) and the
    importance metric distributes it; ratio 1.0 therefore retains every
    channel's full half-spectrum and the decomposition is exact. With
    `groups`, the budget is groups * c_out bins split evenly by the same
    allocator (all scores equal), so every channel keeps exactly that many.
    smooth="auto" searches DEFAULT_SMOOTH_GRID (`select_migration_strength`
    takes any grid).
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
    if groups is not None and not 1 <= int(groups) <= half:
        raise ValueError(f"groups must lie in [1, {half}], got {groups}")
    budget = _bin_budget(ratio, c_in, c_out) if groups is None else int(groups) * c_out

    if smooth == "auto":
        return select_migration_strength(
            x,
            w,
            DEFAULT_SMOOTH_GRID,
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
    scores = np.zeros(c_out) if groups is not None else importance(w_hat, metric, spectrum=spec)
    plan = allocate(scores, alpha, budget, c_in)

    spectra = spectral.truncate_columns(spec, plan.k, c_in)
    # Energies are report diagnostics: past the float64 range they read inf
    # rather than failing the compression.
    with np.errstate(over="ignore"):
        energy = np.stack(spectral.band_energies(spec, plan.k, c_in))
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
    layer.energy = energy
    layer._w_low = w_low
    return layer


def forward_approx(x, layer, activation_bits):
    """Two-branch approximate forward pass.

    Returns x_hat W' + dequant(quant(x_hat)) dequant(R) with x_hat = x / lambda,
    the residual-branch activations quantized per token at `activation_bits`
    (2..8, checked by the quantizer). The W' branch runs in full precision
    (standing in for a 16-bit kernel); `activation_bits=None` leaves the
    residual-branch activations unquantized too.
    """
    x = as_matrix(x, "x")
    if x.shape[1] != layer.c_in:
        raise ValueError(f"x has {x.shape[1]} columns, layer expects {layer.c_in}")
    x_hat = x / layer.smoothing.lam[None, :]
    x_resid = x_hat
    if activation_bits is not None:
        x_resid = quant.dequantize(quant.quantize(x_hat, activation_bits, "per_token"))
    return x_hat @ layer.low_freq_matrix() + x_resid @ layer.residual_matrix()


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


def compare_budgets(w_hat, ratios, *, metric=DEFAULT_METRIC, alpha=1.0):
    """Decompose `w_hat` both ways at each ratio's storage budget and report
    the errors, one BudgetComparison per ratio.

    The spectral side spends 2 reals per retained bin (B_spectral = 2 sum k_j);
    the SVD side gets the same budget rounded down to whole singular triplets
    of c_in + c_out + 1 reals, so 0 <= B_spectral - B_svd < c_in + c_out + 1
    (the slack is reported). Neither approximation is rebuilt: by Parseval
    the spectral error is the root of the summed tail energies, and by
    Eckart-Young-Mirsky the rank-k SVD error is the norm of the trailing
    singular values. The transform, the importance scores and the singular
    values are computed once for the whole sweep. Smoothing, if wanted,
    happens upstream; the comparison is decomposition only.
    """
    w = as_matrix(w_hat, "w_hat")
    c_in, c_out = w.shape
    budgets = [_bin_budget(ratio, c_in, c_out) for ratio in ratios]
    spec = spectral.fft_columns(w)
    scores = importance(w, metric, spectrum=spec)
    s = np.linalg.svd(w, compute_uv=False)
    per_rank = c_in + c_out + 1
    rows = []
    for ratio, budget_bins in zip(ratios, budgets):
        plan = allocate(scores, alpha, budget_bins, c_in)
        tail = spectral.band_energies(spec, plan.k, c_in)[2]
        b_spectral = 2 * int(plan.k.sum())
        if b_spectral < per_rank:
            raise ValueError(
                f"ratio {ratio}: budget {b_spectral} below one singular triplet ({per_rank})"
            )
        k_svd = b_spectral // per_rank
        b_svd = k_svd * per_rank
        rows.append(
            BudgetComparison(
                ratio=float(ratio),
                budget_bins=budget_bins,
                b_spectral=b_spectral,
                b_svd=b_svd,
                k_svd=k_svd,
                budget_slack=b_spectral - b_svd,
                err_spectral=float(np.sqrt(tail.sum())),
                err_svd=float(norm(s[k_svd:])),
                k_per_channel=plan.k,
                channel_tail_energy=tail,
            )
        )
    return rows
