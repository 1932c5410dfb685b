"""Bit-exact, language-neutral I/O for matrices and compressed-layer artifacts.

Matrices travel as NPY v1.0/2.0 files (C or Fortran order accepted, always
normalized to row-major float64 in memory). A compressed layer is a
directory holding `manifest.json` plus three raw little-endian blobs:

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
strict JSON, so save refuses a non-finite value instead of writing NaN. The
temperature is the plan's alpha, so the two never disagree.

Save and load make the same layer checks (`_check_layer`), so save never
writes an artifact load would reject. ShapeError: a plan of c_out counts k
in [1, c_in // 2 + 1]; (sum(k), 2) spectra; a c_in x c_out per_channel
residual with c_out deltas and zero points; c_in smoothing factors.
DataError: non-finite plan rho or alpha, migration strength or spectra; a
negative amplitude, a phase outside (-pi, pi], or a real-valued bin (DC, and
Nyquist for an even c_in) whose phase is not 0 or pi; a delta that is not
positive and finite, a non-finite zero point; residual bits outside [2, 8]
or a code above them; a smoothing factor that is not positive and finite;
a compression ratio, if one is recorded, whose `budget.bin_budget` is not
the plan's total budget.

Load raises only SpecQuantError subclasses for a malformed artifact (OSError
if a file cannot be read): FormatError for a missing or wrongly typed
manifest field, ShapeError for sizes that disagree, DataError for invalid
values.
"""

import json
import os

import numpy as np

from . import spectral
from .budget import BudgetPlan, bin_budget
from .errors import DataError, FormatError, ShapeError
from .pipeline import CompressedLayer, SmoothingFactors
from .quant import QuantizedTensor
from .validation import as_matrix

FORMAT_VERSION = "specquant/1"
MANIFEST_FILE = "manifest.json"
LAMBDA_FILE = "lambda.bin"
SPECTRA_FILE = "spectra.bin"
RESIDUAL_FILE = "residual.bin"

_NPY_MAGIC = b"\x93NUMPY"


def load_matrix(path):
    """Read a 2-D float NPY file as a row-major float64 matrix.

    Raises FormatError for a malformed container, ShapeError for wrong
    ndim/dtype, DataError (naming the index) for non-finite values.
    """
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            if fh.read(len(_NPY_MAGIC)) != _NPY_MAGIC:
                raise FormatError(f"{path}: not an NPY file (bad magic)")
            fh.seek(0)
            arr = np.lib.format.read_array(fh, allow_pickle=False)
    except FormatError:
        raise
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
    """Pack integer codes row-major; nibble-packed for bits <= 4."""
    flat = np.ascontiguousarray(codes, dtype=np.uint8).ravel()
    if bits <= 4:
        if flat.size % 2:
            flat = np.append(flat, np.uint8(0))
        return (flat[0::2] | (flat[1::2] << 4)).tobytes()
    return flat.tobytes()


def _packed_size(count, bits):
    return (count + 1) // 2 if bits <= 4 else count


def unpack_codes(data, bits, rows, cols):
    count = rows * cols
    if bits <= 4:
        raw = np.frombuffer(data, dtype=np.uint8)
        if raw.size != _packed_size(count, bits):
            raise ShapeError(
                f"residual blob holds {raw.size} bytes, expected {_packed_size(count, bits)}"
            )
        flat = np.empty(raw.size * 2, dtype=np.uint8)
        flat[0::2] = raw & 0x0F
        flat[1::2] = raw >> 4
        flat = flat[:count]
    else:
        flat = np.frombuffer(data, dtype=np.uint8).copy()
        if flat.size != count:
            raise ShapeError(f"residual blob holds {flat.size} codes, expected {count}")
    return flat.reshape(rows, cols)


def stored_bytes(layer):
    """Bytes the artifact spends on the layer's numbers.

    The three blobs, plus 8 bytes for each per-channel number the manifest
    holds: the quantizer's delta and zero point and the plan's rho (float64)
    and k (counted as int64).
    """
    r = layer.residual
    blobs = 8 * layer.c_in + 16 * int(layer.plan.k.sum()) + _packed_size(r.codes.size, r.bits)
    return blobs + 8 * 4 * layer.c_out


def _check_layer(layer, ratio):
    """Raise the error of the first rule above that `layer`, recorded with
    compression ratio `ratio` (None: none recorded), breaks."""
    k = layer.plan.k
    # A zero-length channel has no bins, so no k is valid for c_in = 0.
    half = spectral.half_spectrum_length(layer.c_in) if layer.c_in else 0
    if k.size != layer.c_out:
        raise ShapeError("budget plan length does not match c_out")
    if ((k < 1) | (k > half)).any():
        raise ShapeError(f"plan k outside [1, {half}] for c_in={layer.c_in}")
    shape = getattr(layer.spectra, "shape", None)
    if shape != (int(k.sum()), 2):
        raise ShapeError(f"spectra are {shape}, expected a ({k.sum()}, 2) array for the plan")
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
    if r.granularity != "per_channel":
        raise ShapeError("layer residual must be per_channel quantized")
    if r.deltas.size != layer.c_out or r.zero_points.size != layer.c_out:
        raise ShapeError("residual quantizer params do not match c_out")
    if not (np.isfinite(r.deltas).all() and (r.deltas > 0).all()):
        raise DataError("residual deltas must be positive and finite")
    if not np.isfinite(r.zero_points).all():
        raise DataError("residual zero points must be finite")
    if not 2 <= r.bits <= 8:
        raise DataError(f"residual bits {r.bits} outside [2, 8]")
    if r.codes.size and int(r.codes.max()) > 2**r.bits - 1:
        raise DataError(f"residual codes exceed {r.bits}-bit range")
    lam = layer.smoothing.lam
    if lam.size != layer.c_in:
        raise ShapeError("smoothing factors length does not match c_in")
    if lam.size and (not np.isfinite(lam).all() or (lam <= 0).any()):
        raise DataError("smoothing factors must be positive and finite")
    if ratio is not None:
        try:
            budget = bin_budget(layer.c_in, layer.c_out, ratio=ratio)
        except ValueError as exc:
            raise DataError(f"manifest compression ratio {ratio}: {exc}") from None
        if budget != layer.plan.total_budget:
            raise DataError(
                f"manifest compression ratio {ratio} gives a {budget}-bin budget, "
                f"the plan's is {layer.plan.total_budget}"
            )


def save_compressed_layer(layer, out_dir, *, layer_name="layer", metric=None, ratio=None):
    """Write manifest + blobs; returns the manifest dict.

    `metric` and `ratio` are recorded in the manifest's `budget_meta` next to
    the plan's alpha as the temperature. A subsequent `load_compressed_layer`
    reproduces the layer bit-exactly. A layer that load would reject raises
    the same error, and a non-finite manifest value raises DataError, before
    any file or directory is written.
    """
    _check_layer(layer, ratio)
    r = layer.residual
    manifest = {
        "format_version": FORMAT_VERSION,
        "layer_name": layer_name,
        "c_in": layer.c_in,
        "c_out": layer.c_out,
        "smoothing_factors": LAMBDA_FILE,
        "spectra": SPECTRA_FILE,
        "residual": RESIDUAL_FILE,
        "budget_meta": {
            "metric": metric,
            "temperature": layer.plan.alpha,
            "compression_ratio": ratio,
        },
        "residual_bits": r.bits,
        "migration_strength": layer.smoothing.migration_strength,
        "plan": {
            "rho": [float(v) for v in layer.plan.rho],
            "k": [int(v) for v in layer.plan.k],
            "alpha": layer.plan.alpha,
            "total_budget": layer.plan.total_budget,
        },
        "residual_params": {
            "granularity": r.granularity,
            "delta": [float(v) for v in r.deltas],
            "zero_point": [float(v) for v in r.zero_points],
            "rtn_fallback": bool(r.rtn_fallback),
        },
    }
    try:
        text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DataError(f"manifest holds a non-finite value ({exc})") from None
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


def load_manifest(artifact_dir):
    path = os.path.join(os.fspath(artifact_dir), MANIFEST_FILE)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise FormatError(f"{path}: manifest is not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest must be a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"{path}: format_version {version!r} is not {FORMAT_VERSION!r}"
        )
    required = (
        "layer_name", "c_in", "c_out", "smoothing_factors", "spectra",
        "residual", "budget_meta", "residual_bits", "plan", "residual_params",
        "migration_strength",
    )
    missing = [key for key in required if key not in manifest]
    if missing:
        raise FormatError(f"{path}: manifest is missing keys {missing}")
    return manifest


def _typed(value, kind, name):
    """`value` if it has JSON type `kind`, else FormatError; `float` takes
    any number a float64 holds, and a bool is never a number."""
    allowed = (int, float) if kind is float else kind
    if isinstance(value, allowed) and not (kind in (int, float) and isinstance(value, bool)):
        try:
            return float(value) if kind is float else value
        except OverflowError:
            pass
    raise FormatError(f"manifest field {name} must be {kind.__name__}, got {value!r}")


def _field(obj, key, kind, name=None):
    name = name or key
    if key not in obj:
        raise FormatError(f"manifest is missing {name}")
    return _typed(obj[key], kind, name)


def _array(obj, key, dtype, name):
    """A manifest list of numbers as a 1-D array of `dtype`; int64 takes
    only integers."""
    values = _field(obj, key, list, name)
    try:
        arr = np.asarray(values) if values else np.zeros(0, dtype)
    except ValueError:  # ragged nested lists
        arr = None
    kinds = "i" if dtype is np.int64 else "iuf"
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in kinds:
        raise FormatError(f"manifest field {name} must be a list of {dtype.__name__}")
    return arr.astype(dtype)


def _read_blob(artifact_dir, manifest, key, expected):
    if manifest[key] != expected:
        raise FormatError(f"manifest names {key} blob {manifest[key]!r}, expected {expected!r}")
    with open(os.path.join(os.fspath(artifact_dir), expected), "rb") as fh:
        return fh.read()


def load_compressed_layer(artifact_dir):
    """Rebuild a CompressedLayer from an artifact directory, validating the
    manifest's declared types and shapes against the blobs."""
    manifest = load_manifest(artifact_dir)
    c_in = _field(manifest, "c_in", int)
    c_out = _field(manifest, "c_out", int)
    if c_in < 0 or c_out < 0:
        raise ShapeError(f"invalid dimensions c_in={c_in}, c_out={c_out}")
    plan_spec = _field(manifest, "plan", dict)
    ks = _array(plan_spec, "k", np.int64, "plan.k")
    rho = _array(plan_spec, "rho", np.float64, "plan.rho")
    if ks.size != c_out or rho.size != c_out:
        raise ShapeError(f"plan length {ks.size} does not match c_out={c_out}")
    ratio = _field(manifest, "budget_meta", dict).get("compression_ratio")
    if ratio is not None:
        ratio = _typed(ratio, float, "budget_meta.compression_ratio")
    bits = _field(manifest, "residual_bits", int)
    rp = _field(manifest, "residual_params", dict)
    if _field(rp, "granularity", str, "residual_params.granularity") != "per_channel":
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
        granularity="per_channel",
        deltas=_array(rp, "delta", np.float64, "residual_params.delta"),
        zero_points=_array(rp, "zero_point", np.float64, "residual_params.zero_point"),
        rows=c_in,
        cols=c_out,
        rtn_fallback=_typed(rp.get("rtn_fallback", False), bool, "residual_params.rtn_fallback"),
    )
    layer = CompressedLayer(
        smoothing=SmoothingFactors(
            lam=np.frombuffer(lam_raw, dtype="<f8").astype(np.float64),
            migration_strength=_field(manifest, "migration_strength", float),
        ),
        spectra=np.frombuffer(spectra_raw, dtype="<f8").astype(np.float64).reshape(-1, 2),
        residual=residual,
        plan=BudgetPlan(
            rho=rho,
            k=ks,
            alpha=_field(plan_spec, "alpha", float, "plan.alpha"),
            total_budget=_field(plan_spec, "total_budget", int, "plan.total_budget"),
        ),
        c_in=c_in,
        c_out=c_out,
    )
    _check_layer(layer, ratio)
    return layer
