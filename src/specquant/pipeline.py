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

`select_migration_strength` is the one compress path: its signature
declares every compress option with its only default, and `compress_layer`
forwards them. `SmoothingFactors.x_hat` and `w_hat` are the one place
lambda is applied, wherever x_hat or W_hat is formed. `forward_approx` is
the only code that applies a compressed layer's W' and residual to
activations (`eval-matmul`'s smooth-only baseline forms x_hat too, but
multiplies it by its own quantized weights); both of its modes form x_hat
once and refuse a non-finite one by name. Served, it runs the W' branch as
one float32 GEMM in power-of-two units, on unquantized activations, and only
the residual branch through integer quantization, as `quant.matmul`, the
one quantized product: x_hat is rounded to its per-token codes in its own
buffer and multiplied by the residual codes in one GEMM on the integers.
It serves TILE rows at a time, so a long batch holds only one tile's
temporaries. Unquantized, it is the single float64 GEMM x_hat (W' +
dequant(R)), `_unquantized`, which the strength search scores each
candidate with on the W' it has just rebuilt. No layer holds a float64 W':
the search's own dies with the search, and the layer rebuilds it from its
spectra on demand. A budget-matched truncated SVD of the same matrix acts
as the baseline for error comparisons.

This module only composes the stages: `budget.bin_budget` owns the bin
budget, and `tensor_io` the rules of what an artifact can hold. A layer's
sizes are those of its arrays: c_in is the count of smoothing factors and
c_out the length of the plan.
"""

from dataclasses import dataclass, field

import numpy as np

from . import quant, spectral
from .budget import DEFAULT_METRIC, BudgetPlan, _check_metric, allocate, bin_budget, importance
from .validation import array, as_matrix, norm, pow2_units, scalar

DEFAULT_SMOOTH_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# Rows per tile of the served forward and of `eval-matmul`: the served batch
# size, at which a (TILE, c_in) float64 tile (786 KB at c_in = 768) stays in
# L2, so a long batch never holds a full-size copy of its activations.
TILE = 128
DEFAULT_RESIDUAL_BITS = 4
RESIDUAL_QUANTIZERS = ("rtn", "compensated")


@dataclass(eq=False)
class SmoothingFactors:
    """Per-input-channel scale lambda and the strength it was derived with.
    `lam` is a 1-D real array (`validation.array`); its positivity and
    finiteness are checked where factors are made and by `tensor_io`.
    `x_hat` and `w_hat` are the one place lambda is applied; they take
    arrays whose channel counts their callers have checked."""

    lam: np.ndarray
    migration_strength: float

    def __post_init__(self):
        self.lam = array(self.lam, "lam", 1)

    def x_hat(self, x):
        """x / lambda, column by column: the smoothed activations."""
        return x / self.lam[None, :]

    def w_hat(self, w):
        """lambda * w, row by row: the smoothed weights."""
        return self.lam[:, None] * w


@dataclass(eq=False)
class CompressedLayer:
    """On-disk unit: smoothing factors, packed spectra, quantized residual.

    `spectra` is the (sum(plan.k), 2) float64 array of (amplitude, phase)
    rows, channel after channel, split by `plan.k`: exactly the bytes of
    `spectra.bin`. It is taken as `validation.array` takes a 2-D real
    array; its shape and values are `tensor_io`'s checks. `energy` is the
    (3, c_out) array of each channel's total, retained and tail energy from
    the spectrum the layer was truncated from, in units of
    2^energy_unit_log2 (`spectral.band_energies` picks the unit).
    `forward_error` is ||X W - forward_approx(X, layer, None)||_F, the
    score the strength search gave the layer on its calibration set X.
    `achieved_error` is ||W_hat_j - W'_j|| per channel j, with W_hat =
    lambda W, `truncation_error` ||W_hat - W'||_F and
    `reconstruction_error` ||W_hat - W' - dequant(R)||_F. The search sets
    these, `forward_error` on every candidate and the rest on its winner
    only; a loaded layer, which keeps neither the dropped bins, W nor X,
    has them None (and `energy_unit_log2` 0).

    A layer holds no float64 W', whatever made it: `low_freq_matrix`
    rebuilds it from the stored spectra on each call, to the same bits, and
    keeps none of them, and the first served forward keeps W' only as its
    float32 operand. The residual stays in its codes. `tensor_io` refuses
    to save or load a layer its format cannot hold. `name` is the
    artifact's `layer_name`.
    """

    smoothing: SmoothingFactors
    spectra: np.ndarray
    residual: quant.QuantizedTensor
    plan: BudgetPlan
    name: str = "layer"
    energy: np.ndarray | None = field(default=None, init=False, repr=False)
    energy_unit_log2: int = field(default=0, init=False, repr=False)
    forward_error: float | None = field(default=None, init=False, repr=False)
    achieved_error: np.ndarray | None = field(default=None, init=False, repr=False)
    truncation_error: float | None = field(default=None, init=False, repr=False)
    reconstruction_error: float | None = field(default=None, init=False, repr=False)
    _w_low_f32: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.spectra = array(self.spectra, "spectra", 2)

    @property
    def c_in(self):
        return self.smoothing.lam.size

    @property
    def c_out(self):
        return self.plan.k.size

    def low_freq_matrix(self):
        """Dense float64 W', rebuilt from the stored spectra on each call and
        not kept: the bits the strength search scored the layer with."""
        return spectral.reconstruct_columns(self.spectra, self.plan.k, self.c_in)

    def _served_low_freq(self):
        """(W' / 2^e as float32, e), e the (1, c_out) frexp exponents of each
        column's max|W'|: the operand of the served W' branch, computed once
        from one rebuilt W', which is then freed."""
        if self._w_low_f32 is None:
            scaled, exp = pow2_units(self.low_freq_matrix(), axis=0)
            self._w_low_f32 = scaled.astype(np.float32), exp
        return self._w_low_f32


def compute_smoothing(x_calib, w, s):
    """Per-channel factors lambda_j = max|X[:,j]|^s / max|W[j,:]|^(1-s).

    A channel whose activation range is zero (a dead channel) but whose
    weight range is not gets lambda_j = m / max|W[j,:]|, m the median of
    lambda max|W| over the live channels (both ranges nonzero), so its
    smoothed weight row spans what a live one does; a zero weight row with
    live activations gets the mirror rule, lambda_j = max|X[:,j]| / m', m'
    the median of max|X| / lambda over the live channels. With no live
    channel X W = 0, and both rules take m = m' = 1, unit ranges. A channel
    zero on both sides keeps lambda_j = 1. The strength is checked before
    the inputs, and a lambda_j that is not positive and finite raises
    ValueError.
    """
    (s,) = _check_strengths([s])
    return _smoothing_factors(*_channel_ranges(*_check_pair(x_calib, w)), s)


def _check_pair(x_calib, w):
    """The (x, w) pair as finite matrices whose channel counts agree."""
    w = as_matrix(w, "w")
    x = as_matrix(x_calib, "x_calib")
    if x.shape[1] != w.shape[0]:
        raise ValueError(
            f"calibration activations have {x.shape[1]} channels, expected {w.shape[0]}"
        )
    return x, w


def _channel_ranges(x, w):
    """max|X[:,j]| and max|W[j,:]| per input channel j (0 for an empty side)."""
    return np.abs(x).max(axis=0, initial=0.0), np.abs(w).max(axis=1, initial=0.0)


def _smoothing_factors(act, wgt, s):
    """`compute_smoothing` from the channel ranges it takes of x and w."""
    lam = np.ones(act.size)
    ok = (act > 0) & (wgt > 0)
    # A factor past the float64 range is refused below, by channel.
    with np.errstate(all="ignore"):
        lam[ok] = act[ok] ** s / wgt[ok] ** (1.0 - s)
        dead = (act == 0) & (wgt > 0)
        lam[dead] = (_lower_median(lam[ok] * wgt[ok]) if ok.any() else 1.0) / wgt[dead]
        dead = (wgt == 0) & (act > 0)
        lam[dead] = act[dead] / (_lower_median(act[ok] / lam[ok]) if ok.any() else 1.0)
    bad = np.flatnonzero(~(np.isfinite(lam) & (lam > 0)))
    if bad.size:
        j = bad[0]
        raise ValueError(
            f"smoothing factor of channel {j} at migration strength {s} is {lam[j]}, "
            "not positive and finite"
        )
    return SmoothingFactors(lam=lam, migration_strength=float(s))


def _lower_median(v):
    """The lower median of a non-empty vector: an element of it, so unlike
    the mean of the middle two it cannot overflow."""
    mid = (v.size - 1) // 2
    return np.partition(v, mid)[mid]


def apply_smoothing(x, w, factors):
    """x_hat = x / lambda (columns), w_hat = lambda * w (rows).

    The product is preserved exactly in exact arithmetic: x_hat w_hat = x w.
    """
    x = as_matrix(x, "x")
    w = as_matrix(w, "w")
    if x.shape[1] != factors.lam.size or w.shape[0] != factors.lam.size:
        raise ValueError("smoothing factor length does not match layer shapes")
    return factors.x_hat(x), factors.w_hat(w)


def _check_strengths(grid):
    """The distinct strengths of `grid` in ascending order, each a number
    in [0, 1]; checked before anything is compressed."""
    grid = () if grid is None else grid
    strengths = {scalar(v, "smoothing migration strength", 0, 1) for v in grid}
    if not strengths:
        raise ValueError("migration strength grid must be non-empty")
    return sorted(strengths)


def select_migration_strength(
    x_calib,
    w,
    grid,
    *,
    ratio=None,
    groups=None,
    metric=DEFAULT_METRIC,
    alpha=1.0,
    residual_bits=DEFAULT_RESIDUAL_BITS,
    residual_quant="rtn",
):
    """Compress at the strength in `grid` minimizing the post-compression
    output error and return that layer; its strength is
    `layer.smoothing.migration_strength`. The keyword options, with their
    only defaults, are those `compress_layer` documents.

    The grid (non-empty, every value a number in [0, 1] as
    `validation.scalar` takes it; duplicates count once), the inputs, the
    options, the reference X W (ValueError past the float64 range) and
    every candidate's lambda are checked before any transform, and taken
    once for the search, with the bin budget and the channel ranges. Each
    candidate then runs only the work that depends on its strength
    (`compress_at`): the transform, the plan, the truncation, the W'
    rebuild and the residual quantization.
    It is scored, once `compress_at` has freed its residual buffer, as
    `layer.forward_error`, ||X W - X_hat (W' + dequant(R))||_F on the
    calibration set with the W' `compress_at` rebuilt: the product and the
    bits of `forward_approx(X, layer, None)`, which `validation.norm` takes
    in power-of-two units of the error itself, so the score stays finite
    wherever the norm is. Ties go to the smaller strength. Only the
    winner's spectrum and W' outlive the loop: the winner gets its report
    energies and errors (`achieved_error`, `truncation_error`,
    `reconstruction_error`, from W_hat - W' formed in W''s buffer), and no
    W' stays on the layer. Its plan records `metric` and `float(ratio)`.
    """
    strengths = _check_strengths(grid)
    x, w = _check_pair(x_calib, w)
    c_in, c_out = w.shape
    budget = bin_budget(c_in, c_out, ratio=ratio, groups=groups)
    _check_metric(metric)
    alpha = scalar(alpha, "alpha")
    residual_bits = scalar(residual_bits, "residual_bits", 2, 8, integer=True)
    if residual_quant not in RESIDUAL_QUANTIZERS:
        raise ValueError(f"unknown residual quantizer {residual_quant!r}")
    reference = _product(x, w)
    act, wgt = _channel_ranges(x, w)
    # Every candidate's lambda is checked before the first transform.
    candidates = [_smoothing_factors(act, wgt, s) for s in strengths]

    def compress_at(factors):
        w_hat = factors.w_hat(w)
        spec = spectral.fft_columns(w_hat)
        scores = np.zeros(c_out) if groups is not None else importance(w_hat, metric, spectrum=spec)
        plan = allocate(scores, alpha, budget, c_in)
        plan.metric, plan.ratio = metric, None if ratio is None else float(ratio)
        spectra = spectral.truncate_columns(spec, plan.k, c_in)
        # W' is rebuilt from the stored (amplitude, phase) values, so the W'
        # scored here and the one a loaded layer rebuilds have the same bits.
        w_low = spectral.reconstruct_columns(spectra, plan.k, c_in)
        residual = np.subtract(w_hat, w_low, out=w_hat)  # w_hat is not read again
        if residual_quant == "compensated":
            q = quant.quantize_residual_compensated(residual, residual_bits, factors.x_hat(x))
        else:
            q = quant.quantize(residual, residual_bits)
        return CompressedLayer(factors, spectra, q, plan), spec, w_low

    best = None
    for factors in candidates:
        # Scored once compress_at has returned, so its residual buffer is freed.
        layer, spec, w_low = compress_at(factors)
        layer.forward_error = float(norm(reference - _unquantized(x, layer, w_low)))
        if best is None or layer.forward_error < best[0].forward_error:
            best = layer, spec, w_low
        del layer, spec, w_low  # a losing candidate is freed before the next one runs
    layer, spec, w_low = best
    layer.energy, layer.energy_unit_log2 = spectral.band_energies(spec, layer.plan.k, c_in)
    # W_hat - W' in W''s buffer.
    trunc = np.subtract(layer.smoothing.w_hat(w), w_low, out=w_low)
    layer.achieved_error, layer.truncation_error = norm(trunc, axis=0), float(norm(trunc))
    layer.reconstruction_error = float(norm(trunc - quant.dequantize(layer.residual)))
    return layer


def _product(x, w):
    """x @ w, the reference output; ValueError past the float64 range."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused, named, below
        y = x @ w
    if not np.isfinite(y).all():
        raise ValueError("x @ w is past the float64 range")
    return y


def compress_layer(x_calib, w, *, smooth="auto", **options):
    """Compress one layer: smooth, truncate per channel, quantize the residual.

    The keyword options, checked before any transform (a misspelled one
    raises TypeError); each scalar is taken once by `validation.scalar`, so
    a numpy scalar counts as its Python value, an integral float such as
    4.0 as an integer, and a bool or a string as neither:

    - `ratio` or `groups`: exactly one sets the bin budget
      (`budget.bin_budget`). The importance metric distributes a ratio's
      budget, so ratio 1.0 retains every full half-spectrum and the
      decomposition is exact; a groups budget is split evenly (all scores
      equal), so every channel keeps exactly `groups` bins.
    - `metric` (one of `budget.METRICS`, default spectral-entropy) and
      `alpha` (finite softmax temperature, default 1.0): the allocation.
    - `residual_bits` (an integer in 2..8, default 4) and `residual_quant`
      (one of RESIDUAL_QUANTIZERS, default rtn): the residual quantizer.
    - `smooth`: a migration strength in [0, 1], or "auto" (the default),
      for DEFAULT_SMOOTH_GRID. A strength is a number; text such as "0.5"
      is refused by name (the CLI converts `--smooth` itself). Either way
      this is one `select_migration_strength` call, a fixed strength being
      the one-point grid, so every layer comes back with its
      `forward_error`. A fixed strength is checked before the inputs.
    """
    grid = DEFAULT_SMOOTH_GRID if smooth == "auto" else [smooth]
    return select_migration_strength(x_calib, w, grid, **options)


def forward_approx(x, layer, activation_bits):
    """The approximate forward pass; the one place a layer's W' and residual
    meet activations.

    With x_hat = x / lambda, `activation_bits` (2..8, checked before any
    GEMM) returns x_hat W' + dequant(quant(x_hat)) dequant(R), the served
    forward. The residual branch is `quant.matmul(x_hat, bits,
    layer.residual)`: x_hat's per-token codes are rounded in x_hat's own
    buffer and multiplied by the residual codes in one exact GEMM, equal to
    the dequantized product up to rounding; `layer.residual` builds its code
    operand once from its stored codes. The W' branch is one float32 GEMM in
    power-of-two units (standing in for a 16-bit kernel): each row of x_hat
    and each column of W' is divided by 2^e, e the frexp exponent of its
    max|.|, and cast to float32; the product goes back to float64 and is
    scaled by 2^(e_row + e_col). So it rounds only at float32 level relative
    to |x_hat| |W'|, at any float64 scale, and scaling x by a power of two
    scales the output by it exactly. A batch of more than TILE rows is
    served tile by tile into one output, with the bits of its tiles served
    one at a time. Both modes share one prologue: the bits check, x_hat, and
    one min/max pass over x_hat per token that refuses a non-finite x_hat
    and gives the row exponents and the ranges `quant.matmul` quantizes
    with, so the product takes no second pass.

    `activation_bits=None` is the unquantized forward, the single float64
    GEMM x_hat (W' + dequant(R)) that `select_migration_strength` scores
    (`_unquantized`); it rebuilds W' from the layer's spectra, after x_hat
    is checked, and keeps none of it. Either way a loaded and an in-memory
    layer give the same bits. Past the
    float64 range either mode's output is non-finite, with no warning, as
    `validation.norm`'s is; the caller refuses it by name.
    """
    x = as_matrix(x, "x")
    if x.shape[1] != layer.c_in:
        raise ValueError(f"x has {x.shape[1]} columns, layer expects {layer.c_in}")
    if activation_bits is None:
        return _unquantized(x, layer)
    bits = scalar(activation_bits, "activation_bits", 2, 8, integer=True)
    y = np.empty((x.shape[0], layer.c_out))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(0, x.shape[0], TILE):
            _served(x[t : t + TILE], layer, bits, y[t : t + TILE])
    return y


def _unquantized(x, layer, w_low=None):
    """x_hat (W' + dequant(R)), the unquantized forward: one float64 GEMM.
    W' is `w_low`, else the layer's, rebuilt once x_hat is checked."""
    with np.errstate(over="ignore", invalid="ignore"):
        x_hat, _, _ = _smoothed(x, layer)
        # W' + dequant(R), summed in place in dequant(R)'s buffer (the same bits).
        w_full = quant.dequantize(layer.residual)
        w_full += layer.low_freq_matrix() if w_low is None else w_low
        return x_hat @ w_full


def _smoothed(x, layer):
    """(x_hat, lo, hi): x / lambda and its per-token ranges, the prologue of
    both forward modes; a non-finite x_hat is refused by name."""
    x_hat = layer.smoothing.x_hat(x)
    lo, hi = x_hat.min(axis=1), x_hat.max(axis=1)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("x / lambda contains non-finite values")
    return x_hat, lo, hi


def _served(x, layer, bits, y):
    """The served forward of at most TILE rows of x, written into y."""
    x_hat, lo, hi = _smoothed(x, layer)
    w32, col_exp = layer._served_low_freq()
    row_exp = np.frexp(np.maximum(-lo, hi))[1][:, None]
    # Scaled straight into the float32 operand, with no float64 copy of x_hat.
    x32 = np.ldexp(x_hat, -row_exp, out=np.empty(x_hat.shape, np.float32))
    y[...] = x32 @ w32
    del x32  # freed before the quantizer allocates
    np.ldexp(y, row_exp + col_exp, out=y)
    # x_hat is not read again, so the quantizer rounds in its buffer.
    y += quant.matmul(x_hat, bits, layer.residual, out=x_hat, ranges=(lo, hi))


@dataclass(eq=False)
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


def compare_budgets(w_hat, ratios, *, metric=DEFAULT_METRIC, alpha=1.0):
    """Decompose `w_hat` both ways at each ratio's storage budget and report
    the errors, one BudgetComparison per ratio.

    The spectral side spends 2 reals per retained bin (B_spectral = 2 sum k_j);
    the SVD side gets the same budget rounded down to whole singular triplets
    of c_in + c_out + 1 reals, so 0 <= B_spectral - B_svd < c_in + c_out + 1
    (the slack is reported); a budget below one triplet is refused before
    the transform, like a `ratios` that is not a non-empty 1-D sequence, a
    bad ratio (each is taken by `bin_budget`'s rule), metric or alpha.
    Neither approximation is rebuilt: by Parseval the spectral error is the
    `spectral.energy_norm` of the summed tail energies, and by
    Eckart-Young-Mirsky the rank-k SVD error is the norm of the trailing
    singular values. The transform, the importance scores and the singular
    values are computed once for the whole sweep. Smoothing, if wanted, happens upstream; the
    comparison is decomposition only.
    """
    w = as_matrix(w_hat, "w_hat")
    c_in, c_out = w.shape
    # As objects, so each ratio reaches `bin_budget` as it was given.
    items = np.asarray(ratios, dtype=object)
    if items.ndim != 1:
        raise ValueError(f"ratios must be a 1-D sequence of ratios, got {ratios!r}")
    ratios = list(items)
    if not ratios:
        raise ValueError("ratios must be non-empty")
    budgets = [bin_budget(c_in, c_out, ratio=ratio) for ratio in ratios]
    _check_metric(metric)
    alpha = scalar(alpha, "alpha")
    per_rank = c_in + c_out + 1
    for ratio, budget_bins in zip(ratios, budgets):
        # `allocate` spends exactly a ratio's budget, so B_spectral is known here.
        if 2 * budget_bins < per_rank:
            raise ValueError(
                f"ratio {ratio}: budget {2 * budget_bins} below one singular triplet ({per_rank})"
            )
    spec = spectral.fft_columns(w)
    scores = importance(w, metric, spectrum=spec)
    s = np.linalg.svd(w, compute_uv=False)
    rows = []
    for ratio, budget_bins in zip(ratios, budgets):
        plan = allocate(scores, alpha, budget_bins, c_in)
        (_, _, tail), unit = spectral.band_energies(spec, plan.k, c_in)
        # inf past the float64 range, refused by the report.
        err_spectral = float(spectral.energy_norm(tail.sum(), unit))
        b_spectral = 2 * budget_bins
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
                err_spectral=err_spectral,
                err_svd=float(norm(s[k_svd:])),
                k_per_channel=plan.k,
            )
        )
    return rows
