"""NPY ingestion, artifact round-trips, packing, and storage accounting."""

import json
import os
import re
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specquant as sq
from specquant import synth, tensor_io
from specquant.errors import DataError, FormatError, ShapeError, SpecQuantError
from specquant.spectral import half_spectrum_length


def _write_npy(path, arr, version=None):
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, arr, version=version)


class TestLoadMatrix:
    def test_identity(self, tmp_path):
        p = tmp_path / "id.npy"
        _write_npy(p, np.eye(2))
        m = tensor_io.load_matrix(p)
        assert m.shape == (2, 2)
        np.testing.assert_array_equal(m.ravel(), [1.0, 0.0, 0.0, 1.0])

    def test_fortran_order_normalized_to_row_major(self, tmp_path):
        p = tmp_path / "f.npy"
        arr = np.asfortranarray(np.array([[1.0, 2.0], [3.0, 4.0]]))
        _write_npy(p, arr)
        # Reference writer records fortran_order: True.
        with open(p, "rb") as fh:
            fh.seek(8)
            header = fh.read(80)
        assert b"'fortran_order': True" in header
        m = tensor_io.load_matrix(p)
        assert m.flags.c_contiguous
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(m.ravel(), [1.0, 2.0, 3.0, 4.0])

    def test_npy_v2_header_accepted(self, tmp_path):
        p = tmp_path / "v2.npy"
        _write_npy(p, np.ones((3, 2)), version=(2, 0))
        np.testing.assert_array_equal(tensor_io.load_matrix(p), np.ones((3, 2)))

    def test_float32_widened_exactly(self, tmp_path):
        p = tmp_path / "f32.npy"
        vals = np.array([[0.1, 2.5], [-7.25, 1e-30]], dtype=np.float32)
        _write_npy(p, vals)
        m = tensor_io.load_matrix(p)
        assert m.dtype == np.float64
        np.testing.assert_array_equal(m, vals.astype(np.float64))

    def test_nan_reported_with_index(self, tmp_path):
        p = tmp_path / "nan.npy"
        arr = np.ones((3, 3))
        arr[1, 2] = np.nan
        _write_npy(p, arr)
        with pytest.raises(DataError, match=r"\(1, 2\)"):
            tensor_io.load_matrix(p)

    def test_bad_magic_is_format_error(self, tmp_path):
        p = tmp_path / "junk.npy"
        p.write_bytes(b"this is not an npy file at all")
        with pytest.raises(FormatError):
            tensor_io.load_matrix(p)

    def test_file_shorter_than_the_magic_is_format_error(self, tmp_path):
        p = tmp_path / "short.npy"
        p.write_bytes(b"\x93NU")
        with pytest.raises(FormatError, match="magic"):
            tensor_io.load_matrix(p)

    def test_truncated_header_is_format_error(self, tmp_path):
        p = tmp_path / "trunc.npy"
        good = tmp_path / "good.npy"
        _write_npy(good, np.ones((2, 2)))
        p.write_bytes(good.read_bytes()[:9])
        with pytest.raises(FormatError):
            tensor_io.load_matrix(p)

    def test_non_2d_rejected(self, tmp_path):
        p = tmp_path / "vec.npy"
        _write_npy(p, np.ones(4))
        with pytest.raises(ShapeError):
            tensor_io.load_matrix(p)

    def test_integer_dtype_rejected(self, tmp_path):
        p = tmp_path / "int.npy"
        _write_npy(p, np.ones((2, 2), dtype=np.int64))
        with pytest.raises(ShapeError):
            tensor_io.load_matrix(p)

    def test_save_load_round_trip(self, tmp_path):
        p = tmp_path / "m.npy"
        m = np.random.default_rng(0).normal(size=(5, 7))
        tensor_io.save_matrix(m, p)
        np.testing.assert_array_equal(tensor_io.load_matrix(p), m)


class TestCodePacking:
    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_nibble_packing_round_trip(self, bits):
        rng = np.random.default_rng(bits)
        codes = rng.integers(0, 2**bits, size=(5, 3)).astype(np.uint8)
        blob = tensor_io.pack_codes(codes, bits)
        assert len(blob) == (codes.size + 1) // 2
        np.testing.assert_array_equal(tensor_io.unpack_codes(blob, bits, 5, 3), codes)

    @pytest.mark.parametrize("bits", [5, 8])
    def test_byte_packing_round_trip(self, bits):
        rng = np.random.default_rng(bits)
        codes = rng.integers(0, 2**bits, size=(4, 6)).astype(np.uint8)
        blob = tensor_io.pack_codes(codes, bits)
        assert len(blob) == codes.size
        np.testing.assert_array_equal(tensor_io.unpack_codes(blob, bits, 4, 6), codes)

    @pytest.mark.parametrize("bits", [4, 8])
    def test_wrong_blob_size_rejected(self, bits):
        with pytest.raises(ShapeError, match="residual blob holds"):
            tensor_io.unpack_codes(b"\x00\x00", bits, 4, 4)

    @pytest.mark.parametrize(
        "codes, bits, message",
        [
            (np.array([[259, 1]]), 8, r"codes must be an integer in \[0, 255\], got 259"),
            (np.array([[17, 1]]), 4, r"codes must be an integer in \[0, 15\], got 17"),
            ([[1.5, 1]], 4, r"codes must be an integer in \[0, 15\], got 1.5"),
            (np.ones((1, 2), dtype=np.uint8), 1, r"bits must be an integer in \[2, 8\], got 1"),
            (np.ones((1, 2), dtype=np.uint8), 4.5, r"bits must be an integer in \[2, 8\], got 4.5"),
        ],
        ids=["code-past-8-bits", "code-past-4-bits", "code-fraction", "bits-1", "bits-fraction"],
    )
    def test_code_outside_its_width_is_named(self, codes, bits, message):
        """A code outside [0, 2^bits - 1] is refused by name: a cast to uint8
        would write 259 as 3, and 17 at 4 bits as 1 with its high bit in the
        next code's nibble."""
        with pytest.raises(ValueError, match=message):
            tensor_io.pack_codes(codes, bits)


def _example_layer(seed=0, c_in=16, c_out=6, ratio=0.4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(24, c_in))
    w = rng.normal(size=(c_in, c_out))
    return w, x, sq.compress_layer(x, w, ratio=ratio, smooth=0.5)


class TestArtifactRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        _, _, layer = _example_layer()
        tensor_io.save_compressed_layer(layer, tmp_path)
        back = tensor_io.load_compressed_layer(tmp_path)
        assert back.c_in == layer.c_in and back.c_out == layer.c_out
        assert (back.smoothing.lam == layer.smoothing.lam).all()
        assert back.smoothing.migration_strength == layer.smoothing.migration_strength
        assert (back.plan.rho == layer.plan.rho).all()
        np.testing.assert_array_equal(back.plan.k, layer.plan.k)
        assert back.plan.alpha == layer.plan.alpha
        assert back.plan.total_budget == layer.plan.total_budget
        assert back.spectra.dtype == np.float64 and back.spectra.flags.c_contiguous
        np.testing.assert_array_equal(back.spectra, layer.spectra)
        np.testing.assert_array_equal(back.residual.codes, layer.residual.codes)
        assert (back.residual.deltas == layer.residual.deltas).all()
        assert (back.residual.zero_points == layer.residual.zero_points).all()

    def test_save_is_reproducible_bytes(self, tmp_path):
        _, _, layer = _example_layer()
        d1, d2 = tmp_path / "a", tmp_path / "b"
        tensor_io.save_compressed_layer(layer, d1)
        tensor_io.save_compressed_layer(layer, d2)
        for name in (
            tensor_io.MANIFEST_FILE,
            tensor_io.LAMBDA_FILE,
            tensor_io.SPECTRA_FILE,
            tensor_io.RESIDUAL_FILE,
        ):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_empty_layer_round_trips(self, tmp_path):
        from specquant.budget import BudgetPlan
        from specquant.pipeline import CompressedLayer, SmoothingFactors
        from specquant.quant import quantize

        layer = CompressedLayer(
            smoothing=SmoothingFactors(lam=np.ones(4), migration_strength=0.5),
            spectra=np.zeros((0, 2)),
            residual=quantize(np.zeros((4, 0)), 4),
            plan=BudgetPlan(
                rho=np.zeros(0), k=np.zeros(0, dtype=np.int64), alpha=1.0, total_budget=0
            ),
        )
        tensor_io.save_compressed_layer(layer, tmp_path)
        assert (tmp_path / tensor_io.SPECTRA_FILE).stat().st_size == 0
        back = tensor_io.load_compressed_layer(tmp_path)
        assert back.c_out == 0 and back.spectra.shape == (0, 2)

    def test_spectra_are_taken_by_the_array_rule(self, tmp_path):
        """A list of spectra is its array, which serves and saves; text is
        refused by name where the layer is made."""
        from specquant.pipeline import CompressedLayer

        _, x, layer = _example_layer()
        fields = dict(smoothing=layer.smoothing, residual=layer.residual, plan=layer.plan)
        listed = CompressedLayer(spectra=layer.spectra.tolist(), **fields)
        assert listed.spectra.tobytes() == layer.spectra.tobytes()
        assert np.array_equal(sq.forward_approx(x, listed, 4), sq.forward_approx(x, layer, 4))
        tensor_io.save_compressed_layer(listed, tmp_path)
        saved = (tmp_path / tensor_io.SPECTRA_FILE).read_bytes()
        assert saved == layer.spectra.astype("<f8").tobytes()
        with pytest.raises(ValueError, match="spectra must hold real numbers, got dtype <U4"):
            CompressedLayer(spectra="junk", **fields)

    def test_inconsistent_layer_rejected_at_save(self, tmp_path):
        _, _, layer = _example_layer()
        layer.spectra = layer.spectra[:-1]
        with pytest.raises(ShapeError):
            tensor_io.save_compressed_layer(layer, tmp_path)

    def test_loaded_layer_rebuilds_the_same_w_low(self, tmp_path):
        # c_in=100 runs direct length-25 leaves; c_out spans a partial block.
        _, x, layer = _example_layer(c_in=100, c_out=2 * sq.spectral.BLOCK + 1)
        tensor_io.save_compressed_layer(layer, tmp_path)
        back = tensor_io.load_compressed_layer(tmp_path)
        assert np.array_equal(back.low_freq_matrix(), layer.low_freq_matrix())
        assert np.array_equal(sq.forward_approx(x, back, 4), sq.forward_approx(x, layer, 4))

    def test_loaded_layer_serves_the_same_unquantized_forward(self, tmp_path):
        """The unquantized forward, which the auto search scores, is the same
        single GEMM on a loaded layer as on the layer compress returned."""
        _, x, layer = _example_layer(c_in=100, c_out=2 * sq.spectral.BLOCK + 1)
        tensor_io.save_compressed_layer(layer, tmp_path)
        back = tensor_io.load_compressed_layer(tmp_path)
        assert np.array_equal(sq.forward_approx(x, back, None), sq.forward_approx(x, layer, None))

    @pytest.mark.parametrize(
        "owner, attr, index, value",
        [
            ("residual", "deltas", 0, 0.0),
            ("residual", "deltas", 1, np.inf),
            ("residual", "zero_points", 0, np.nan),
            ("residual", "codes", (0, 0), 16),
            ("smoothing", "lam", 2, np.nan),
            ("plan", "rho", 1, np.nan),
        ],
    )
    def test_save_rejects_what_load_would_before_writing(self, tmp_path, owner, attr, index, value):
        _, _, layer = _example_layer()
        getattr(getattr(layer, owner), attr)[index] = value
        out = tmp_path / "art"
        with pytest.raises(DataError):
            tensor_io.save_compressed_layer(layer, out)
        assert not out.exists()

    @pytest.mark.parametrize(
        "owner, attr, match",
        [
            ("plan", "alpha", "plan alpha"),
            ("smoothing", "migration_strength", "migration strength"),
        ],
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_scalar_rejected_at_save(self, tmp_path, owner, attr, match, value):
        _, _, layer = _example_layer()
        setattr(getattr(layer, owner), attr, value)
        out = tmp_path / "art"
        with pytest.raises(DataError, match=match):
            tensor_io.save_compressed_layer(layer, out)
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_non_finite_budget_meta_writes_nothing(self, tmp_path, value):
        """The manifest is strict JSON: no bare NaN or Infinity token."""
        _, _, layer = _example_layer()
        layer.plan.ratio = value
        out = tmp_path / "art"
        with pytest.raises(DataError, match="compression ratio"):
            tensor_io.save_compressed_layer(layer, out)
        assert not out.exists()

    def test_one_strict_json_writer(self, tmp_path):
        """The manifest is the `json_text` of the dict save returns, byte for
        byte: indent 2, sorted keys, a final newline. A value past the
        float64 range is refused by the name of its document."""
        _, _, layer = _example_layer()
        manifest = tensor_io.save_compressed_layer(layer, tmp_path)
        text = (tmp_path / tensor_io.MANIFEST_FILE).read_text()
        assert text == tensor_io.json_text(manifest, "manifest")
        assert tensor_io.json_text({"b": 1, "a": [0.5]}, "x") == '{\n  "a": [\n    0.5\n  ],\n  "b": 1\n}\n'
        for value in (np.nan, np.inf, -np.inf, np.float64(np.inf)):
            with pytest.raises(DataError, match=r"^report value past the float64 range: "):
                tensor_io.json_text({"a": [1.0, value]}, "report")

    def test_budget_meta_temperature_is_the_plan_alpha(self, tmp_path):
        w, x, _ = _example_layer()
        layer = sq.compress_layer(x, w, ratio=0.4, smooth=0.5, metric="l2-norm", alpha=2.0)
        manifest = tensor_io.save_compressed_layer(layer, tmp_path)
        assert manifest["budget_meta"] == {
            "metric": "l2-norm", "temperature": 2.0, "compression_ratio": 0.4,
        }
        on_disk = json.loads((tmp_path / tensor_io.MANIFEST_FILE).read_text())
        assert on_disk["budget_meta"] == manifest["budget_meta"]

    @pytest.mark.parametrize(
        "options",
        [
            {"ratio": 0.4},
            {"ratio": 1, "metric": "abs-max"},
            {"groups": 3, "metric": "l2-norm"},
            {"ratio": 0.3, "residual_quant": "compensated"},
            {"groups": 2, "residual_quant": "compensated", "residual_bits": 6},
        ],
        ids=["rtn-ratio", "rtn-int-ratio", "rtn-groups", "compensated-ratio", "compensated-groups"],
    )
    def test_saving_a_loaded_layer_writes_the_same_bytes(self, tmp_path, options):
        """The manifest's budget_meta comes from the plan, and load fills the
        plan back, so save(load(a)) is a byte for byte; an int ratio is
        recorded as the float it is re-saved as."""
        w, x, _ = _example_layer()
        layer = sq.compress_layer(x, w, smooth=0.5, **options)
        tensor_io.save_compressed_layer(layer, tmp_path / "a")
        tensor_io.save_compressed_layer(tensor_io.load_compressed_layer(tmp_path / "a"), tmp_path / "b")
        files = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert len(files) == 4
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        meta = json.loads((tmp_path / "a" / tensor_io.MANIFEST_FILE).read_text())["budget_meta"]
        assert meta["metric"] == options.get("metric", "spectral-entropy")
        ratio = options.get("ratio")
        assert meta["compression_ratio"] == ratio
        assert type(meta["compression_ratio"]) is (type(None) if ratio is None else float)

    @pytest.mark.parametrize(
        "owner, attr, value",
        [
            ("residual", "bits", 4.0),
            ("residual", "bits", np.int64(4)),
            ("plan", "total_budget", np.int64(21)),
            ("plan", "alpha", np.float32(0.7)),
            ("plan", "ratio", np.float32(0.4)),
            ("smoothing", "migration_strength", np.float32(0.3)),
        ],
        ids=["bits-float", "bits-int64", "budget-int64", "alpha-float32", "ratio-float32",
             "strength-float32"],
    )
    def test_numpy_scalars_and_integral_floats_save_what_load_reads(self, tmp_path, owner, attr, value):
        """Save writes each scalar as the JSON number load reads, so the
        artifact loads with that value and saves again to the same bytes."""
        _, _, layer = _example_layer()
        setattr(getattr(layer, owner), attr, value)
        tensor_io.save_compressed_layer(layer, tmp_path / "a")
        back = tensor_io.load_compressed_layer(tmp_path / "a")
        assert getattr(getattr(back, owner), attr) == value
        tensor_io.save_compressed_layer(back, tmp_path / "b")
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_fractional_residual_bits_write_nothing(self, tmp_path):
        _, _, layer = _example_layer()
        layer.residual.bits = 4.5
        out = tmp_path / "art"
        with pytest.raises(DataError, match="residual bits 4.5 is not an integer"):
            tensor_io.save_compressed_layer(layer, out)
        assert not out.exists()

    def test_zero_delta_in_manifest_is_data_error(self, tmp_path):
        _, _, layer = _example_layer()
        tensor_io.save_compressed_layer(layer, tmp_path)
        mpath = tmp_path / tensor_io.MANIFEST_FILE
        manifest = json.loads(mpath.read_text())
        manifest["residual_params"]["delta"][0] = 0.0
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(DataError):
            tensor_io.load_compressed_layer(tmp_path)

    def test_tampered_c_in_is_shape_error(self, tmp_path):
        _, _, layer = _example_layer()
        tensor_io.save_compressed_layer(layer, tmp_path)
        mpath = tmp_path / tensor_io.MANIFEST_FILE
        manifest = json.loads(mpath.read_text())
        manifest["c_in"] += 1
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(ShapeError):
            tensor_io.load_compressed_layer(tmp_path)

    def test_truncated_spectra_blob_is_shape_error(self, tmp_path):
        _, _, layer = _example_layer()
        tensor_io.save_compressed_layer(layer, tmp_path)
        spath = tmp_path / tensor_io.SPECTRA_FILE
        spath.write_bytes(spath.read_bytes()[:-8])
        with pytest.raises(ShapeError):
            tensor_io.load_compressed_layer(tmp_path)

    def test_wrong_version_is_format_error(self, tmp_path):
        _, _, layer = _example_layer()
        tensor_io.save_compressed_layer(layer, tmp_path)
        mpath = tmp_path / tensor_io.MANIFEST_FILE
        manifest = json.loads(mpath.read_text())
        manifest["format_version"] = "specquant/2"
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(FormatError):
            tensor_io.load_compressed_layer(tmp_path)

    def test_unwritable_path_is_os_error(self):
        _, _, layer = _example_layer()
        with pytest.raises(OSError):
            tensor_io.save_compressed_layer(layer, "/proc/definitely/not/writable")


def _tampered(tmp_path, edit):
    """Save the example layer, apply `edit` to its manifest dict, return the dir."""
    _, _, layer = _example_layer()
    tensor_io.save_compressed_layer(layer, tmp_path)
    mpath = tmp_path / tensor_io.MANIFEST_FILE
    manifest = json.loads(mpath.read_text())
    edit(manifest)
    mpath.write_text(json.dumps(manifest))
    return tmp_path


def _set(path, value):
    def edit(manifest):
        *parents, key = path
        obj = manifest
        for p in parents:
            obj = obj[p]
        obj[key] = value
    return edit


def _set_first_k(first):
    """Set plan.k[0] to `first` and let k[1] absorb the difference, so the
    plan keeps its total and the spectra blob still matches it."""
    def edit(manifest):
        k = manifest["plan"]["k"]
        k[1] += k[0] - first
        k[0] = first
    return edit


class TestLoadHardening:
    @pytest.mark.parametrize(
        "edit, error",
        [
            (_set(["plan"], []), FormatError),
            (_set(["c_in"], None), FormatError),
            (_set(["c_in"], "abc"), FormatError),
            (_set(["c_in"], True), FormatError),
            (_set(["c_in"], -1), ShapeError),
            (_set(["c_out"], 6.0), FormatError),
            (_set(["residual_bits"], 1), DataError),
            (_set(["migration_strength"], 10**400), FormatError),
            (_set(["plan", "k"], [1, 2, "3", 1, 1, 1]), FormatError),
            (_set(["plan", "k"], [[1], [2]]), FormatError),
            (_set(["plan", "k"], [2**63, 1, 1, 1, 1, 1]), FormatError),
            (_set(["plan", "rho"], [0.5, [0.5]]), FormatError),
            (_set(["plan", "k"], [0, 1, 1, 1, 1, 1]), ShapeError),
            (_set(["plan", "k"], [1, 1, 1]), ShapeError),
            (_set_first_k(-1), ShapeError),
            (_set_first_k(0), ShapeError),
            (_set(["residual_params"], "per_channel"), FormatError),
            (_set(["residual_params", "rtn_fallback"], 1), FormatError),
            (_set(["spectra"], "../spectra.bin"), FormatError),
            (_set(["residual"], ["residual.bin"]), FormatError),
            (lambda m: m["plan"].pop("k"), FormatError),
            (lambda m: m["residual_params"].pop("delta"), FormatError),
            (_set(["plan", "rho", 2], float("nan")), DataError),
            (_set(["plan", "rho", 2], float("inf")), DataError),
            (_set(["residual_params", "delta", 1], float("nan")), DataError),
            (_set(["residual_params", "delta", 1], float("inf")), DataError),
            (_set(["residual_params", "zero_point", 1], float("nan")), DataError),
            (_set(["residual_params", "zero_point", 1], float("inf")), DataError),
            (_set(["plan", "alpha"], float("nan")), DataError),
            (_set(["migration_strength"], float("nan")), DataError),
            (_set(["migration_strength"], float("inf")), DataError),
            (_set(["budget_meta", "metric"], 3), FormatError),
            (_set(["budget_meta", "compression_ratio"], "0.4"), FormatError),
        ],
        ids=[
            "plan-list", "c_in-null", "c_in-str", "c_in-bool", "c_in-negative", "c_out-float",
            "bits-1", "strength-huge", "k-str", "k-nested", "k-past-int64", "rho-ragged", "k-zero",
            "k-short", "k-negative-same-total", "k-zero-same-total", "params-str",
            "fallback-int", "spectra-parent-dir", "residual-list", "k-missing", "delta-missing",
            "rho-nan", "rho-inf", "delta-nan", "delta-inf", "zero-point-nan", "zero-point-inf",
            "alpha-nan", "strength-nan",
            "strength-inf", "metric-int", "ratio-str",
        ],
    )
    def test_bad_manifest_field_is_named_error(self, tmp_path, edit, error):
        with pytest.raises(error):
            tensor_io.load_compressed_layer(_tampered(tmp_path, edit))

    def test_integer_in_a_float_field_loads_as_its_float(self, tmp_path):
        """JSON 1 in a float field is the float 1.0; the loaded layer saves
        the same values back."""
        art = _tampered(tmp_path / "a", _set(["migration_strength"], 1))
        layer = tensor_io.load_compressed_layer(art)
        strength = layer.smoothing.migration_strength
        assert strength == 1.0 and type(strength) is float
        tensor_io.save_compressed_layer(layer, tmp_path / "b")
        for name in sorted(p.name for p in art.iterdir()):
            a, b = (tmp_path / d / name for d in ("a", "b"))
            if name == tensor_io.MANIFEST_FILE:
                assert json.loads(a.read_text()) == json.loads(b.read_text())
            else:
                assert a.read_bytes() == b.read_bytes()

    def test_renamed_blob_is_format_error(self, tmp_path):
        art = _tampered(tmp_path, _set(["spectra"], "other.bin"))
        os.rename(art / tensor_io.SPECTRA_FILE, art / "other.bin")
        with pytest.raises(FormatError):
            tensor_io.load_compressed_layer(art)

    def test_undecodable_manifest_is_format_error(self, tmp_path):
        _, _, layer = _example_layer()
        tensor_io.save_compressed_layer(layer, tmp_path)
        (tmp_path / tensor_io.MANIFEST_FILE).write_bytes(b'{"format_version": "\xff\xfe')
        with pytest.raises(FormatError):
            tensor_io.load_compressed_layer(tmp_path)


def _manifest(edit):
    """Artifact edit: apply `edit` to the manifest dict."""
    def apply(art):
        mpath = art / tensor_io.MANIFEST_FILE
        manifest = json.loads(mpath.read_text())
        edit(manifest)
        mpath.write_text(json.dumps(manifest))
    return apply


def _blob(name, edit):
    """Artifact edit: apply `edit` to blob `name` read as a writable array
    (float64, or the raw bytes of residual.bin); a returned array replaces it."""
    def apply(art):
        path = art / name
        arr = np.frombuffer(path.read_bytes(), np.uint8 if "residual" in name else "<f8").copy()
        out = edit(arr)
        path.write_bytes((arr if out is None else out).tobytes())
    return apply


def _k_past_half(art):
    """Give channel 0 the 10 bins c_in = 16 cannot hold, blob grown to match."""
    k0 = json.loads((art / tensor_io.MANIFEST_FILE).read_text())["plan"]["k"][0]
    _manifest(_set(["plan", "k", 0], 10))(art)
    _blob(tensor_io.SPECTRA_FILE, lambda a: np.concatenate([a[:2]] * (10 - k0) + [a]))(art)


def _drop_plan_row(layer):
    p = layer.plan
    layer.plan = sq.BudgetPlan(p.rho[:-1], p.k[:-1], p.alpha, p.total_budget)


def _set_attr(get, attr, value):
    return lambda layer: setattr(get(layer), attr, value)


def _set_item(get, index, value):
    return lambda layer: get(layer).__setitem__(index, value)


# One row per layer check tensor_io makes: the error class, the message of
# the rule, a change that breaks the rule in memory (save must raise and write
# nothing) and a tampered artifact that breaks it on disk (load must raise
# the same error). The example layer is 16 x 6, compressed at ratio 0.4,
# which its plan records (a 21-bin budget; 0.9 gives 48); row 0 of its
# spectra is the DC bin of channel 0. A layer's c_in is its count of smoothing factors and its c_out
# its plan length, so in memory a wrong count of either breaks the spectra or
# the residual shape rule. Where load reads a blob size or a manifest field
# before a layer exists, it raises there, with the (class, message) in
# _LOAD_FIRST: a blob size or plan length that disagrees with the manifest
# is a ShapeError, and a granularity other than per_channel is a format
# field the manifest cannot hold. A QuantizedTensor has no granularity
# field; in memory a per-token residual is one delta and zero point per
# row, which breaks the per-column params rule.
_LOAD_FIRST = {
    "spectra-rows": (ShapeError, "spectra blob holds"),
    "residual-shape": (ShapeError, "residual blob holds"),
    "lambda-length": (ShapeError, "lambda blob holds"),
    "plan-length": (ShapeError, "plan length"),
    "granularity": (FormatError, "unsupported residual granularity"),
    "ratio-bool": (FormatError, "budget_meta.compression_ratio must be float"),
    "layer-name": (FormatError, "layer_name must be str"),
}
_RULES = {
    "plan-length": (
        ShapeError, "spectra are", _drop_plan_row,
        _manifest(lambda m: [m["plan"][f].pop() for f in ("k", "rho")]),
    ),
    "k-past-half": (
        ShapeError, "plan k outside", _set_item(lambda l: l.plan.k, 0, 10), _k_past_half,
    ),
    "spectra-rows": (
        ShapeError, "spectra are", _set_attr(lambda l: l, "spectra", np.zeros((1, 2))),
        _blob(tensor_io.SPECTRA_FILE, lambda a: a[:-2]),
    ),
    "rho-nan": (
        DataError, "plan rho", _set_item(lambda l: l.plan.rho, 1, np.nan),
        _manifest(_set(["plan", "rho", 1], float("nan"))),
    ),
    "alpha-inf": (
        DataError, "plan alpha", _set_attr(lambda l: l.plan, "alpha", np.inf),
        _manifest(_set(["plan", "alpha"], float("inf"))),
    ),
    "strength-nan": (
        DataError, "migration strength",
        _set_attr(lambda l: l.smoothing, "migration_strength", np.nan),
        _manifest(_set(["migration_strength"], float("nan"))),
    ),
    "spectra-nan": (
        DataError, "spectra contain", _set_item(lambda l: l.spectra, (2, 0), np.nan),
        _blob(tensor_io.SPECTRA_FILE, lambda a: a.__setitem__(4, np.nan)),
    ),
    "amplitude-negative": (
        DataError, "amplitudes", _set_item(lambda l: l.spectra, (2, 0), -1.0),
        _blob(tensor_io.SPECTRA_FILE, lambda a: a.__setitem__(4, -1.0)),
    ),
    "phase-past-pi": (
        DataError, "phases must lie", _set_item(lambda l: l.spectra, (2, 1), 3.5),
        _blob(tensor_io.SPECTRA_FILE, lambda a: a.__setitem__(5, 3.5)),
    ),
    "dc-phase": (
        DataError, "bin 0 is real-valued", _set_item(lambda l: l.spectra, (0, 1), 0.5),
        _blob(tensor_io.SPECTRA_FILE, lambda a: a.__setitem__(1, 0.5)),
    ),
    "residual-shape": (
        ShapeError, "residual is",
        _set_attr(lambda l: l, "residual", sq.quantize(np.zeros((15, 6)), 4)),
        _blob(tensor_io.RESIDUAL_FILE, lambda a: a[:-3]),
    ),
    "granularity": (
        ShapeError, "quantizer params do not match c_out",
        lambda l: (setattr(l.residual, "deltas", np.ones(16)),
                   setattr(l.residual, "zero_points", np.zeros(16))),
        _manifest(_set(["residual_params", "granularity"], "per_token")),
    ),
    "delta-short": (
        ShapeError, "quantizer params",
        _set_attr(lambda l: l.residual, "deltas", np.ones(5)),
        _manifest(lambda m: m["residual_params"]["delta"].pop()),
    ),
    "zero-point-short": (
        ShapeError, "quantizer params",
        _set_attr(lambda l: l.residual, "zero_points", np.ones(5)),
        _manifest(lambda m: m["residual_params"]["zero_point"].pop()),
    ),
    "delta-zero": (
        DataError, "deltas", _set_item(lambda l: l.residual.deltas, 0, 0.0),
        _manifest(_set(["residual_params", "delta", 0], 0.0)),
    ),
    "zero-point-nan": (
        DataError, "zero points", _set_item(lambda l: l.residual.zero_points, 2, np.nan),
        _manifest(_set(["residual_params", "zero_point", 2], float("nan"))),
    ),
    "bits-1": (
        DataError, "outside", _set_attr(lambda l: l.residual, "bits", 1),
        _manifest(_set(["residual_bits"], 1)),
    ),
    "codes-past-bits": (
        DataError, "codes exceed", _set_item(lambda l: l.residual.codes, (0, 0), 16),
        # 4-bit codes reread at 2 bits: the packing is the same, the range not.
        _manifest(_set(["residual_bits"], 2)),
    ),
    "lambda-length": (
        ShapeError, "residual is 16x6, expected 15x6",
        _set_attr(lambda l: l.smoothing, "lam", np.ones(15)),
        _blob(tensor_io.LAMBDA_FILE, lambda a: a[:-1]),
    ),
    "lambda-non-positive": (
        DataError, "smoothing factors must be positive",
        _set_item(lambda l: l.smoothing.lam, 3, -1.0),
        _blob(tensor_io.LAMBDA_FILE, lambda a: a.__setitem__(3, 0.0)),
    ),
    "ratio-not-the-plan": (
        DataError, "-bin budget, the plan's is",
        _set_attr(lambda l: l.plan, "total_budget", 48),
        _manifest(_set(["budget_meta", "compression_ratio"], 0.9)),
    ),
    "metric-unknown": (
        DataError, "budget metric 'entropy' is not one of",
        _set_attr(lambda l: l.plan, "metric", "entropy"),
        _manifest(_set(["budget_meta", "metric"], "entropy")),
    ),
    "ratio-bool": (
        DataError, "compression ratio True: ratio must lie in",
        _set_attr(lambda l: l.plan, "ratio", True),
        _manifest(_set(["budget_meta", "compression_ratio"], True)),
    ),
    "plan-not-its-budget": (
        DataError, "plan keeps 21 bins, its total budget is 3",
        lambda l: (setattr(l.plan, "ratio", None), setattr(l.plan, "total_budget", 3)),
        _manifest(lambda m: (m["budget_meta"].update(compression_ratio=None),
                             m["plan"].update(total_budget=3))),
    ),
    "layer-name": (
        DataError, "layer name 7 is not a string",
        _set_attr(lambda l: l, "name", 7),
        _manifest(_set(["layer_name"], 7)),
    ),
}


class TestLayerRules:
    @pytest.mark.parametrize("rule", sorted(_RULES))
    def test_rule_rejected_at_save_writes_nothing(self, tmp_path, rule):
        error, match, mutate, _ = _RULES[rule]
        _, _, layer = _example_layer()
        mutate(layer)
        out = tmp_path / "art"
        with pytest.raises(error, match=match):
            tensor_io.save_compressed_layer(layer, out)
        assert not out.exists()

    @pytest.mark.parametrize("rule", sorted(_RULES))
    def test_rule_rejected_at_load(self, tmp_path, rule):
        error, match, _, tamper = _RULES[rule]
        error, match = _LOAD_FIRST.get(rule, (error, match))
        _, _, layer = _example_layer()
        tensor_io.save_compressed_layer(layer, tmp_path)
        tamper(tmp_path)
        with pytest.raises(error, match=match):
            tensor_io.load_compressed_layer(tmp_path)


@lru_cache(maxsize=None)
def _artifact_files():
    """A 9 x 3 layer's artifact: 27 4-bit codes, so residual.bin ends in a
    pad nibble."""
    _, _, layer = _example_layer(c_in=9, c_out=3)
    layer.name = "mlp.0"
    with tempfile.TemporaryDirectory() as d:
        tensor_io.save_compressed_layer(layer, d)
        return {p.name: p.read_bytes() for p in Path(d).iterdir()}


def _key_paths(obj, prefix=""):
    """The dotted path of every key in the nested JSON objects of `obj`."""
    for key, value in obj.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + key + ".")


@pytest.mark.parametrize(
    "path", sorted(_key_paths(json.loads(_artifact_files()[tensor_io.MANIFEST_FILE])))
)
def test_missing_manifest_key_is_named(tmp_path, path):
    """Every field save writes, nested ones included, is required: load
    names a missing one by its dotted path instead of filling it in."""
    *parents, key = path.split(".")

    def drop(manifest):
        for parent in parents:
            manifest = manifest[parent]
        del manifest[key]

    with pytest.raises(FormatError, match=rf"\b{re.escape(path)}\b"):
        tensor_io.load_compressed_layer(_tampered(tmp_path, drop))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(2**70), 2**70)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=6,
)


def _manifest_paths(obj, prefix=()):
    yield prefix
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _manifest_paths(value, prefix + (key,))


@st.composite
def _fuzzed_artifact(draw):
    """The example artifact after 1 to 3 random edits: a manifest value
    replaced, retyped or deleted, or a file truncated, overwritten or grown."""
    files = dict(_artifact_files())
    manifest = json.loads(files[tensor_io.MANIFEST_FILE])
    raw_edits = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            path = draw(st.sampled_from(list(_manifest_paths(manifest))))
            if not path:
                manifest = draw(_json_values)
                continue
            parent = manifest
            for key in path[:-1]:
                parent = parent[key]
            if draw(st.booleans()):
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(_json_values)
        else:
            raw_edits.append(draw(st.tuples(
                st.sampled_from(sorted(files)), st.sampled_from(["cut", "poke", "grow"]),
                st.integers(0, 4096), st.binary(min_size=1, max_size=16),
            )))
    files[tensor_io.MANIFEST_FILE] = json.dumps(manifest).encode()
    for name, how, at, data in raw_edits:
        blob = files[name]
        at = at % (len(blob) + 1)
        files[name] = {
            "cut": blob[:at],
            "poke": blob[:at] + data + blob[at + len(data):],
            "grow": blob + data,
        }[how]
    return files


def _leaves(obj):
    """{path: value} for every value of a JSON value that is neither an
    object nor an array, paths as `_manifest_paths` gives them."""
    leaves = {}
    for path in _manifest_paths(obj):
        value = obj
        for key in path:
            value = value[key]
        if not isinstance(value, (dict, list)):
            leaves[path] = value
    return leaves


def _edited(edit):
    """The example artifact's files after `edit(manifest, files)`."""
    files = dict(_artifact_files())
    manifest = json.loads(files[tensor_io.MANIFEST_FILE])
    edit(manifest, files)
    files[tensor_io.MANIFEST_FILE] = json.dumps(manifest).encode()
    return files


def _set_pad_nibble(files):
    codes = files[tensor_io.RESIDUAL_FILE]
    files[tensor_io.RESIDUAL_FILE] = codes[:-1] + bytes([codes[-1] | 0x10])


@settings(max_examples=300, deadline=None)
@given(_fuzzed_artifact())
# Each of these once loaded and re-saved to other bytes: the layer name,
# a temperature that is not the plan's alpha, a nonzero pad nibble, and an
# integer float64 does not hold.
@example(_edited(lambda m, f: None))
@example(_edited(lambda m, f: m["budget_meta"].update(temperature=7.0)))
@example(_edited(lambda m, f: _set_pad_nibble(f)))
@example(_edited(lambda m, f: m.update(migration_strength=2**70 + 1)))
def test_fuzzed_artifact_raises_only_named_errors(files):
    """What loads is a valid layer, and it saves back to the same bytes: the
    same three blobs, and the same value on every manifest leaf that save
    writes, each of which the input holds, as load fills in none (a bool is
    not the number 1)."""
    with tempfile.TemporaryDirectory() as d:
        for name, data in files.items():
            Path(d, name).write_bytes(data)
        try:
            layer = tensor_io.load_compressed_layer(d)
        except SpecQuantError:
            return
        written = tensor_io.save_compressed_layer(layer, Path(d, "again"))
        for name in (tensor_io.LAMBDA_FILE, tensor_io.SPECTRA_FILE, tensor_io.RESIDUAL_FILE):
            assert Path(d, "again", name).read_bytes() == files[name], name
    given = _leaves(json.loads(files[tensor_io.MANIFEST_FILE]))
    for path, leaf in _leaves(written).items():
        assert path in given, path
        assert (type(given[path]) is bool, given[path]) == (type(leaf) is bool, leaf), path


class TestStorageAccounting:
    def test_spectrum_payload_is_exactly_2k_reals(self, tmp_path):
        """spectra.bin holds 2k float64 per channel, 16 * sum(k) bytes: one
        third smaller than a 3-parameter (amp, phase, freq) encoding."""
        rng = np.random.default_rng(7)
        for n, k in [(16, 1), (16, 5), (16, 9), (17, 8), (64, 16)]:
            x = rng.normal(size=(8, n))
            layer = sq.compress_layer(x, rng.normal(size=(n, 3)), groups=k, smooth=0.5)
            tensor_io.save_compressed_layer(layer, tmp_path / f"{n}-{k}")
            payload = (tmp_path / f"{n}-{k}" / tensor_io.SPECTRA_FILE).read_bytes()
            assert len(payload) == 16 * int(layer.plan.k.sum()) == 3 * 2 * k * 8
            assert len(payload) == (2 / 3) * (3 * 3 * k * 8)
            assert payload == layer.spectra.tobytes()

    def test_half_spectrum_storage_vs_full(self):
        # Full complex spectrum would be 2n reals; the retained half is
        # n + 2 reals for even n, half plus the DC/Nyquist pair.
        for n in (8, 16, 64, 128):
            half_reals = 2 * half_spectrum_length(n)
            assert half_reals == n + 2
            assert half_reals * 8 <= (2 * n * 8) // 2 + 16

    def test_branch_overhead_per_channel(self, tmp_path):
        # Spectra bytes per channel over the channel's own float64 cost is
        # exactly 2k / c_in.
        w, x, layer = _example_layer(c_in=32, c_out=4)
        tensor_io.save_compressed_layer(layer, tmp_path)
        blob = np.frombuffer((tmp_path / tensor_io.SPECTRA_FILE).read_bytes(), "<f8")
        chunks = np.split(blob, 2 * np.cumsum(layer.plan.k)[:-1])
        for k, chunk in zip(layer.plan.k, chunks):
            assert chunk.nbytes / (32 * 8) == 2 * int(k) / 32

    @pytest.mark.parametrize("c_in, ratio", [(16, 0.4), (15, 0.4), (100, 0.4), (16, 1.0), (100, 1.0)])
    def test_spectra_bin_matches_per_channel_fft(self, tmp_path, c_in, ratio):
        """Format oracle: channel j's slice of spectra.bin is (|X|, angle X)
        of its first k_j bins, with DC and (even c_in) Nyquist pinned real;
        ratio 1.0 keeps every bin, Nyquist included."""
        w, x, layer = _example_layer(c_in=c_in, c_out=2 * sq.spectral.BLOCK + 3, ratio=ratio)
        tensor_io.save_compressed_layer(layer, tmp_path)
        blob = np.frombuffer((tmp_path / tensor_io.SPECTRA_FILE).read_bytes(), "<f8")
        w_hat = layer.smoothing.lam[:, None] * w
        offset = 0
        for j, k in enumerate(layer.plan.k):
            spec = sq.fft(w_hat[:, j])[:k]
            expected = np.stack([np.abs(spec), np.angle(spec)], axis=1)
            expected[expected[:, 1] == -np.pi, 1] = np.pi
            for m in (0, c_in // 2) if c_in % 2 == 0 else (0,):
                if m < k:
                    expected[m] = abs(spec[m].real), 0.0 if spec[m].real >= 0 else np.pi
            assert np.array_equal(blob[offset : offset + 2 * k], expected.ravel())
            offset += 2 * k
        assert offset == blob.size
