"""Bit-exact, language-neutral I/O for matrices and compressed-layer artifacts.

Matrices travel as NPY v1.0/2.0 files (C or Fortran order accepted, always
normalized to row-major float64 in memory); a file whose header numpy's
reader refuses, a bad magic string included, is a FormatError. A compressed
layer is a directory holding `manifest.json` plus three raw little-endian
blobs:

- ``lambda.bin``    c_in float64 smoothing factors
- ``spectra.bin``   per channel, in order: retained (amplitude, phase)
                    float64 pairs, 2 * k_j values; the per-channel counts
                    come from the manifest's budget plan. These are exactly
                    the bytes of the in-memory `CompressedLayer.spectra`
                    array, so save is one `tobytes` and load one `frombuffer`
- ``residual.bin``  integer codes, row-major; two codes per byte (low
                    nibble first) when residual_bits <= 4, one byte per
                    code otherwise

Everything else (plan, quantizer scales, migration strength, and the
`budget_meta` record of metric, temperature and compression ratio) lives in
the manifest, which JSON round-trips float64 exactly via shortest-repr; it is
strict JSON, written by `json_text` as the CLI's reports are, so save
refuses a non-finite value instead of writing NaN. Save writes each scalar
as the JSON type load reads it as: the residual bits and the total budget
as integers, the strength, alpha and ratio as floats, so a numpy scalar or
an integral float saves as the number it holds.
`budget_meta` is the plan's own record (its `metric`, `alpha` as the
temperature, and `ratio`), and load fills it back into the plan, as it
fills `layer_name` into the layer's `name`. Every field save writes is
required (a missing one is a FormatError naming its dotted path), and load
ignores fields it does not know. So for any artifact a that load accepts,
save(load(a)) writes a's blobs byte for byte and a manifest holding a's
value in every field (the same bytes too, for a manifest save wrote).

Save and load make the same layer checks (`_check_layer`), so save never
writes an artifact load would reject. A layer's c_in is its count of
smoothing factors and its c_out the length of its plan. ShapeError: plan
counts k in [1, c_in // 2 + 1]; (sum(k), 2) spectra; a c_in x c_out
residual with c_out deltas and zero points.
DataError: non-finite plan rho or alpha, migration strength or spectra; a
negative amplitude, a phase outside (-pi, pi], or a real-valued bin (DC, and
Nyquist for an even c_in) whose phase is not 0 or pi; a delta that is not
positive and finite, a non-finite zero point; residual bits outside [2, 8]
or not an integer, or a code above them; a smoothing factor that is not
positive and finite; a layer name that is not a string; a recorded metric outside
`budget.METRICS`, a recorded compression ratio whose `budget.bin_budget` is
not the plan's total budget, or plan counts k that do not sum to it.
Load alone also refuses, with DataError, a `budget_meta.temperature` other
than the plan's alpha and a nonzero pad nibble after an odd count of 4-bit
codes.

Load raises only SpecQuantError subclasses for a malformed artifact (OSError
if a file cannot be read): FormatError for a manifest that is not a JSON
object of format `specquant/1`, for a residual granularity other than
`per_channel` (a QuantizedTensor is per channel, and save writes that), and
for a missing (named by its dotted path, such as `budget_meta.metric`) or
wrongly typed manifest field (a float field takes an integer only if
float64 holds it exactly, and no field takes a bool for a number),
ShapeError for sizes that disagree, DataError for invalid values.
"""

import json
import os

import numpy as np

from . import spectral
from .budget import METRICS, BudgetPlan, bin_budget
from .errors import DataError, FormatError, ShapeError
from .pipeline import CompressedLayer, SmoothingFactors
from .quant import QuantizedTensor
from .validation import as_matrix, integers, scalar

FORMAT_VERSION = "specquant/1"
MANIFEST_FILE = "manifest.json"
LAMBDA_FILE = "lambda.bin"
SPECTRA_FILE = "spectra.bin"
RESIDUAL_FILE = "residual.bin"


def load_matrix(path):
    """Read a 2-D float NPY file as a row-major float64 matrix.

    Raises FormatError for a malformed container (numpy's header check
    names a bad magic string), ShapeError for wrong ndim/dtype, DataError
    (naming the index) for non-finite values.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            arr = np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise FormatError(f"{path}: malformed NPY header ({exc})") from exc
    if arr.ndim != 2:
        raise ShapeError(f"{path}: expected a 2-D array, got {arr.ndim}-D")
    if arr.dtype not in (np.float32, np.float64):
        raise ShapeError(f"{path}: expected float32/float64 data, got {arr.dtype}")
    data = np.ascontiguousarray(arr, dtype=np.float64)
    if not np.isfinite(data).all():
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise DataError(f"{path}: non-finite value at index ({i}, {j})")
    return data


def save_matrix(matrix, path):
    """Write a matrix as NPY v1.0 (row-major float64)."""
    m = as_matrix(matrix, "matrix")
    with open(os.fspath(path), "wb") as fh:
        np.lib.format.write_array(fh, m)


def pack_codes(codes, bits):
    """Pack integer codes row-major; nibble-packed for bits <= 4. `bits` is
    an integer in [2, 8] as `validation.scalar` takes it, and every code an
    integer in [0, 2^bits - 1] as `validation.integers` takes it, so no code
    is wrapped or spills into its neighbour's nibble."""
    bits = scalar(bits, "bits", 2, 8, integer=True)
    flat = integers(codes, "codes", 0, 2**bits - 1, dtype=np.uint8).ravel()
    if bits <= 4:
        if flat.size % 2:
            flat = np.append(flat, np.uint8(0))
        return (flat[0::2] | (flat[1::2] << 4)).tobytes()
    return flat.tobytes()


def _packed_size(count, bits):
    return (count + 1) // 2 if bits <= 4 else count


def unpack_codes(data, bits, rows, cols):
    """The (rows, cols) uint8 codes `pack_codes` packed into `data`.

    The blob must hold the packed size of rows * cols codes at `bits`
    (ShapeError) and, after an odd count of 4-bit codes, a zero pad nibble
    (DataError). The arguments are not checked otherwise: load unpacks
    before `_check_layer` refuses a bad bit width as DataError.
    """
    raw = np.frombuffer(data, dtype=np.uint8)
    size = _packed_size(rows * cols, bits)
    if raw.size != size:
        raise ShapeError(f"residual blob holds {raw.size} bytes, expected {size}")
    if bits > 4:
        return raw.reshape(rows, cols).copy()
    if rows * cols % 2 and raw[-1] >> 4:
        raise DataError("residual blob's pad nibble after the last code must be 0")
    return np.stack((raw & 0x0F, raw >> 4), axis=1).ravel()[: rows * cols].reshape(rows, cols)


def stored_bytes(layer):
    """Bytes the artifact spends on the layer's numbers.

    The three blobs, plus 8 bytes for each per-channel number the manifest
    holds: the quantizer's delta and zero point and the plan's rho (float64)
    and k (counted as int64).
    """
    r = layer.residual
    blobs = 8 * layer.c_in + 16 * int(layer.plan.k.sum()) + _packed_size(r.codes.size, r.bits)
    return blobs + 8 * 4 * layer.c_out


def _check_layer(layer):
    """Raise the error of the first rule above that `layer` breaks."""
    k = layer.plan.k
    # A zero-length channel has no bins, so no k is valid for c_in = 0.
    half = spectral.half_spectrum_length(layer.c_in) if layer.c_in else 0
    if ((k < 1) | (k > half)).any():
        raise ShapeError(f"plan k outside [1, {half}] for c_in={layer.c_in}")
    if layer.spectra.shape != (int(k.sum()), 2):
        raise ShapeError(f"spectra are {layer.spectra.shape}, expected ({k.sum()}, 2) for the plan")
    for name, value in (
        ("plan rho", layer.plan.rho),
        ("plan alpha", layer.plan.alpha),
        ("migration strength", layer.smoothing.migration_strength),
    ):
        if not np.isfinite(value).all():
            raise DataError(f"{name} must be finite")
    if not np.isfinite(layer.spectra).all():
        raise DataError("spectra contain non-finite values")
    amps, phases = layer.spectra.T
    if (amps < 0).any():
        raise DataError("spectrum amplitudes must be non-negative")
    if ((phases <= -np.pi) | (phases > np.pi)).any():
        raise DataError("spectrum phases must lie in (-pi, pi]")
    for m, rows in spectral._real_rows(k, layer.c_in):
        if not np.isin(phases[rows], (0.0, np.pi)).all():
            raise DataError(f"bin {m} is real-valued; its phase must be 0 or pi")
    r = layer.residual
    if (r.rows, r.cols) != (layer.c_in, layer.c_out):
        raise ShapeError(f"residual is {r.rows}x{r.cols}, expected {layer.c_in}x{layer.c_out}")
    if r.deltas.size != layer.c_out or r.zero_points.size != layer.c_out:
        raise ShapeError("residual quantizer params do not match c_out")
    if not (np.isfinite(r.deltas).all() and (r.deltas > 0).all()):
        raise DataError("residual deltas must be positive and finite")
    if not np.isfinite(r.zero_points).all():
        raise DataError("residual zero points must be finite")
    if not 2 <= r.bits <= 8:
        raise DataError(f"residual bits {r.bits} outside [2, 8]")
    if r.bits != int(r.bits):
        raise DataError(f"residual bits {r.bits} is not an integer")
    if r.codes.size and int(r.codes.max()) > 2**r.bits - 1:
        raise DataError(f"residual codes exceed {r.bits}-bit range")
    lam = layer.smoothing.lam
    if lam.size and (not np.isfinite(lam).all() or (lam <= 0).any()):
        raise DataError("smoothing factors must be positive and finite")
    if not isinstance(layer.name, str):
        raise DataError(f"layer name {layer.name!r} is not a string")
    plan = layer.plan
    if plan.metric not in (None, *METRICS):
        raise DataError(f"budget metric {plan.metric!r} is not one of {METRICS}")
    if plan.ratio is not None:
        try:
            budget = bin_budget(layer.c_in, layer.c_out, ratio=plan.ratio)
        except ValueError as exc:
            raise DataError(f"compression ratio {plan.ratio}: {exc}") from None
        if budget != plan.total_budget:
            raise DataError(
                f"compression ratio {plan.ratio} gives a {budget}-bin budget, "
                f"the plan's is {plan.total_budget}"
            )
    if int(k.sum()) != plan.total_budget:
        raise DataError(f"plan keeps {k.sum()} bins, its total budget is {plan.total_budget}")


def json_text(payload, document):
    """`payload` as strict JSON text (indent 2, sorted keys, a final
    newline): the one writer of the manifest and of every report. A value
    past the float64 range, which strict JSON cannot hold, raises DataError
    naming `document`."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DataError(f"{document} value past the float64 range: {exc}") from None


def save_compressed_layer(layer, out_dir):
    """Write manifest + blobs; returns the manifest dict.

    A subsequent `load_compressed_layer` reproduces the layer bit-exactly,
    name and budget record included, so saving it again writes the same
    bytes. A layer that load would reject raises the same error, and a
    non-finite manifest value raises DataError, before any file or directory
    is written.
    """
    _check_layer(layer)
    r = layer.residual
    manifest = {
        "format_version": FORMAT_VERSION,
        "layer_name": layer.name,
        "c_in": layer.c_in,
        "c_out": layer.c_out,
        "smoothing_factors": LAMBDA_FILE,
        "spectra": SPECTRA_FILE,
        "residual": RESIDUAL_FILE,
        "budget_meta": {
            "metric": layer.plan.metric,
            "temperature": float(layer.plan.alpha),
            "compression_ratio": None if layer.plan.ratio is None else float(layer.plan.ratio),
        },
        "residual_bits": int(r.bits),
        "migration_strength": float(layer.smoothing.migration_strength),
        "plan": {
            "rho": [float(v) for v in layer.plan.rho],
            "k": [int(v) for v in layer.plan.k],
            "alpha": float(layer.plan.alpha),
            "total_budget": int(layer.plan.total_budget),
        },
        "residual_params": {
            "granularity": "per_channel",
            "delta": [float(v) for v in r.deltas],
            "zero_point": [float(v) for v in r.zero_points],
            "rtn_fallback": bool(r.rtn_fallback),
        },
    }
    text = json_text(manifest, "manifest")
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, LAMBDA_FILE), "wb") as fh:
        fh.write(layer.smoothing.lam.astype("<f8").tobytes())
    with open(os.path.join(out_dir, SPECTRA_FILE), "wb") as fh:
        fh.write(layer.spectra.astype("<f8").tobytes())
    with open(os.path.join(out_dir, RESIDUAL_FILE), "wb") as fh:
        fh.write(pack_codes(r.codes, r.bits))
    with open(os.path.join(out_dir, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        fh.write(text)
    return manifest


def _typed(value, kind, name):
    """`value` if it has JSON type `kind`, else FormatError; `float` takes
    any number a float64 holds, an integer only if it holds it exactly, and
    a bool is never a number."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, allowed) and not (kind in (int, float) and isinstance(value, bool)):
        if kind is not float or isinstance(value, float):
            return value
        try:
            if float(value) == value:
                return float(value)
        except OverflowError:
            pass
    raise FormatError(f"manifest field {name} must be {kind.__name__}, got {value!r}")


def _field(obj, path, kind, null=False):
    """The `_typed` value of manifest field `path` (dotted, such as
    "plan.k") in `obj`, the object that holds it, or None for a null where
    `null` allows it; FormatError naming `path` if it is missing."""
    key = path.rpartition(".")[2]
    if key not in obj:
        raise FormatError(f"manifest is missing {path}")
    return None if null and obj[key] is None else _typed(obj[key], kind, path)


def _array(obj, path, dtype):
    """A manifest list of numbers as a 1-D array of `dtype`, each element
    typed by `_typed`: int64 takes only integers, and only those it holds."""
    kind = int if dtype is np.int64 else float
    values = _field(obj, path, list)
    if not all(type(v) is kind for v in values):  # what save writes needs no typing
        values = [_typed(v, kind, path) for v in values]
    try:
        return np.array(values, dtype=dtype)
    except OverflowError:
        raise FormatError(f"manifest field {path} holds an integer past int64") from None


def _read_blob(artifact_dir, manifest, key, expected):
    name = _field(manifest, key, str)
    if name != expected:
        raise FormatError(f"manifest names {key} blob {name!r}, expected {expected!r}")
    with open(os.path.join(os.fspath(artifact_dir), expected), "rb") as fh:
        return fh.read()


def load_compressed_layer(artifact_dir):
    """Rebuild a CompressedLayer from an artifact directory, validating the
    manifest's declared types and shapes against the blobs."""
    path = os.path.join(os.fspath(artifact_dir), MANIFEST_FILE)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise FormatError(f"{path}: manifest is not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    version = _field(manifest, "format_version", str)
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: format_version {version!r} is not {FORMAT_VERSION!r}")
    c_in = _field(manifest, "c_in", int)
    c_out = _field(manifest, "c_out", int)
    if c_in < 0 or c_out < 0:
        raise ShapeError(f"invalid dimensions c_in={c_in}, c_out={c_out}")
    plan_spec = _field(manifest, "plan", dict)
    ks = _array(plan_spec, "plan.k", np.int64)
    rho = _array(plan_spec, "plan.rho", np.float64)
    if ks.size != c_out or rho.size != c_out:
        raise ShapeError(f"plan length {ks.size} does not match c_out={c_out}")
    meta = _field(manifest, "budget_meta", dict)
    bits = _field(manifest, "residual_bits", int)
    rp = _field(manifest, "residual_params", dict)
    if _field(rp, "residual_params.granularity", str) != "per_channel":
        raise FormatError(f"unsupported residual granularity {rp['granularity']!r}")

    lam_raw = _read_blob(artifact_dir, manifest, "smoothing_factors", LAMBDA_FILE)
    if len(lam_raw) != 8 * c_in:
        raise ShapeError(
            f"lambda blob holds {len(lam_raw)} bytes, expected {8 * c_in} for c_in={c_in}"
        )
    spectra_raw = _read_blob(artifact_dir, manifest, "spectra", SPECTRA_FILE)
    expected = 16 * int(ks.sum())
    if len(spectra_raw) != expected:
        raise ShapeError(f"spectra blob holds {len(spectra_raw)} bytes, expected {expected}")
    residual_raw = _read_blob(artifact_dir, manifest, "residual", RESIDUAL_FILE)
    residual = QuantizedTensor(
        codes=unpack_codes(residual_raw, bits, c_in, c_out),
        bits=bits,
        deltas=_array(rp, "residual_params.delta", np.float64),
        zero_points=_array(rp, "residual_params.zero_point", np.float64),
        rtn_fallback=_field(rp, "residual_params.rtn_fallback", bool),
    )
    layer = CompressedLayer(
        smoothing=SmoothingFactors(
            lam=np.frombuffer(lam_raw, dtype="<f8").astype(np.float64),
            migration_strength=_field(manifest, "migration_strength", float),
        ),
        spectra=np.frombuffer(spectra_raw, dtype="<f8").astype(np.float64).reshape(-1, 2),
        residual=residual,
        name=_field(manifest, "layer_name", str),
        plan=BudgetPlan(
            rho=rho,
            k=ks,
            alpha=_field(plan_spec, "plan.alpha", float),
            total_budget=_field(plan_spec, "plan.total_budget", int),
            metric=_field(meta, "budget_meta.metric", str, null=True),
            ratio=_field(meta, "budget_meta.compression_ratio", float, null=True),
        ),
    )
    _check_layer(layer)
    # Save writes the plan's alpha as the temperature.
    alpha = layer.plan.alpha
    temperature = _field(meta, "budget_meta.temperature", float)
    if temperature != alpha:
        raise DataError(f"budget_meta.temperature {temperature} is not plan.alpha {alpha}")
    return layer
