"""specquant: two-stage linear-layer compression.

Activation outliers are migrated into the weights by per-channel smoothing;
each output channel of the smoothed weights is then truncated to a budgeted
band of low-frequency bins kept at high precision, and the remainder is
quantized at low bit-width.
"""

__version__ = "0.1.0"

from .budget import METRICS, BudgetPlan, allocate, importance
from .errors import DataError, FormatError, ShapeError, SpecQuantError
from .pipeline import (
    BudgetComparison,
    CompressedLayer,
    SmoothingFactors,
    apply_smoothing,
    compare_budgets,
    compress_layer,
    compute_smoothing,
    forward_approx,
    select_migration_strength,
)
from .quant import (
    QuantizedTensor,
    dequantize,
    quantize,
    quantize_residual_compensated,
)
from .spectral import (
    dft_naive,
    fft,
    half_spectrum_length,
)
from .tensor_io import (
    load_compressed_layer,
    load_matrix,
    save_compressed_layer,
    save_matrix,
)

__all__ = [
    "__version__",
    "METRICS",
    "BudgetPlan",
    "allocate",
    "importance",
    "DataError",
    "FormatError",
    "ShapeError",
    "SpecQuantError",
    "BudgetComparison",
    "CompressedLayer",
    "SmoothingFactors",
    "apply_smoothing",
    "compare_budgets",
    "compress_layer",
    "compute_smoothing",
    "forward_approx",
    "select_migration_strength",
    "QuantizedTensor",
    "dequantize",
    "quantize",
    "quantize_residual_compensated",
    "dft_naive",
    "fft",
    "half_spectrum_length",
    "load_compressed_layer",
    "load_matrix",
    "save_compressed_layer",
    "save_matrix",
]
