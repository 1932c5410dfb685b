"""End-to-end command runs: reports, artifacts, determinism, exit codes."""

import csv
import json
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import specquant as sq
from specquant import pipeline, quant, spectral, synth, tensor_io
from specquant.cli import main
from specquant.validation import norm, pow2_units


def _npy(path, arr):
    tensor_io.save_matrix(arr, path)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def decay_instance(tmp_path):
    w = synth.smooth_decay_layer(64, 48, decay=1.5, seed=3)
    x = synth.outlier_activations(32, 64, magnitude=100.0, seed=4)
    return _npy(tmp_path / "w.npy", w), _npy(tmp_path / "x.npy", x)


def test_compress_ratio_one_reports_exactness(tmp_path, decay_instance):
    wpath, xpath = decay_instance
    out = tmp_path / "art"
    rc = main([
        "compress", "--weights", wpath, "--calib", xpath,
        "--ratio", "1.0", "--smooth", "0.5", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["reconstruction_error_frobenius"] <= 1e-9
    assert report["summary"]["forward_error_highprec"] <= 1e-6
    assert report["summary"]["achieved_bin_ratio"] == 1.0
    layer = tensor_io.load_compressed_layer(out)
    assert layer.c_in == 64 and layer.c_out == 48


def test_bits_per_parameter_counts_every_stored_byte(tmp_path, decay_instance):
    wpath, xpath = decay_instance
    out = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.25",
        "--smooth", "0.5", "--residual-bits", "3", "--out", str(out),
    ]) == 0
    report = json.loads((out / "report.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    blobs = sum(
        (out / name).stat().st_size for name in ("lambda.bin", "spectra.bin", "residual.bin")
    )
    # Every per-channel number in the manifest is counted as 8 bytes.
    per_channel = manifest["residual_params"]["delta"] + manifest["residual_params"]["zero_point"]
    per_channel += manifest["plan"]["rho"] + manifest["plan"]["k"]
    counted = blobs + 8 * len(per_channel)
    bits = report["summary"]["bits_per_parameter"]
    assert bits == pytest.approx(8 * counted / (64 * 48), rel=1e-12)


def test_compress_groups_mode_reports_fixed_k(tmp_path, decay_instance):
    wpath, xpath = decay_instance
    out = tmp_path / "art"
    rc = main([
        "compress", "--weights", wpath, "--calib", xpath,
        "--groups", "16", "--smooth", "0.5", "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out / "report.csv")
    assert len(rows) == 48
    assert all(int(r["k"]) == 16 for r in rows)


def test_compress_deterministic_artifacts(tmp_path, decay_instance):
    wpath, xpath = decay_instance
    args = [
        "compress", "--weights", wpath, "--calib", xpath,
        "--ratio", "0.25", "--smooth", "auto",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("manifest.json", "lambda.bin", "spectra.bin", "residual.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # Re-running with the fully identical config reproduces every byte.
    first = {p.name: p.read_bytes() for p in out1.iterdir()}
    assert main(args + ["--out", str(out1)]) == 0
    assert {p.name: p.read_bytes() for p in out1.iterdir()} == first


def test_auto_writes_the_bytes_of_its_picked_strength(tmp_path, decay_instance):
    """`--smooth auto` writes what `--smooth <picked>` writes: the search
    returns its winner as compressed, report energies included."""
    wpath, xpath = decay_instance
    args = ["compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.25"]
    auto, fixed = tmp_path / "auto", tmp_path / "fixed"
    assert main(args + ["--smooth", "auto", "--out", str(auto)]) == 0
    picked = json.loads((auto / "report.json").read_text())["summary"]["migration_strength"]
    assert main(args + ["--smooth", repr(picked), "--out", str(fixed)]) == 0
    for name in ("lambda.bin", "spectra.bin", "residual.bin", "manifest.json", "report.csv"):
        assert (auto / name).read_bytes() == (fixed / name).read_bytes(), name
    # report.json also records the command line, which differs.
    reports = [json.loads((d / "report.json").read_text()) for d in (auto, fixed)]
    configs = [r.pop("config") for r in reports]
    assert reports[0] == reports[1]
    assert {k for k in configs[0] if configs[0][k] != configs[1][k]} == {"out", "smooth"}


def test_compare_svd_rows(tmp_path, decay_instance):
    wpath, _ = decay_instance
    out = tmp_path / "cmp"
    rc = main([
        "compare-svd", "--weights", wpath, "--ratios", "0.1,0.2,0.3",
        "--out", str(out),
    ])
    assert rc == 0
    rows = _read_csv(out / "compare_svd.csv")
    assert [float(r["ratio"]) for r in rows] == [0.1, 0.2, 0.3]
    for r in rows:
        assert float(r["err_spectral"]) < float(r["err_svd"])
        assert 0 <= int(r["budget_slack"]) < 64 + 48 + 1


def test_compare_svd_rank_one_layer(tmp_path):
    rng = np.random.default_rng(5)
    w = np.outer(rng.normal(size=64), rng.normal(size=32))
    wpath = _npy(tmp_path / "w1.npy", w)
    out = tmp_path / "cmp"
    assert main(["compare-svd", "--weights", wpath, "--ratios", "0.2", "--out", str(out)]) == 0
    row = _read_csv(out / "compare_svd.csv")[0]
    assert float(row["err_svd"]) <= 1e-9


def test_compare_svd_zero_layer(tmp_path):
    wpath = _npy(tmp_path / "w0.npy", np.zeros((32, 16)))
    out = tmp_path / "cmp"
    assert main(["compare-svd", "--weights", wpath, "--ratios", "0.3", "--out", str(out)]) == 0
    row = _read_csv(out / "compare_svd.csv")[0]
    assert float(row["err_spectral"]) == 0.0
    assert float(row["err_svd"]) <= 1e-12


def test_eval_matmul_ordering_on_outliers(tmp_path, decay_instance):
    wpath, xpath = decay_instance
    art = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath,
        "--groups", "12", "--smooth", "0.5", "--out", str(art),
    ]) == 0
    out = tmp_path / "eval"
    rc = main([
        "eval-matmul", "--weights", wpath, "--calib", xpath,
        "--artifact", str(art), "--act-bits", "4", "--out", str(out),
    ])
    assert rc == 0
    rows = {r["method"]: float(r["frobenius_error"]) for r in _read_csv(out / "eval_matmul.csv")}
    assert rows["fp-reference"] == 0.0
    assert rows["specquant"] < rows["smooth-only-W4A4"] < rows["naive-W4A4"]


@pytest.mark.parametrize("rows", [0, 8])
def test_eval_matmul_zero_activations(tmp_path, decay_instance, rows):
    wpath, xpath = decay_instance
    art = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath,
        "--ratio", "0.3", "--smooth", "0.5", "--out", str(art),
    ]) == 0
    zpath = _npy(tmp_path / "z.npy", np.zeros((rows, 64)))
    out = tmp_path / "eval0"
    assert main([
        "eval-matmul", "--weights", wpath, "--calib", zpath,
        "--artifact", str(art), "--act-bits", "4", "--out", str(out),
    ]) == 0
    for row in _read_csv(out / "eval_matmul.csv"):
        assert float(row["frobenius_error"]) == 0.0


@pytest.mark.parametrize("rows", [1, 127, 128, 129, 300])
def test_eval_matmul_tiles_equal_the_untiled_errors(tmp_path, decay_instance, rows):
    """eval-matmul walks the tokens TILE rows at a time; each reported error
    is within 1e-12 relative of the norm of the whole product less x @ w."""
    wpath, xpath = decay_instance
    art = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath,
        "--ratio", "0.3", "--smooth", "0.5", "--out", str(art),
    ]) == 0
    x = synth.outlier_activations(rows, 64, magnitude=100.0, seed=rows)
    out = tmp_path / "eval"
    assert main([
        "eval-matmul", "--weights", wpath, "--calib", _npy(tmp_path / "h.npy", x),
        "--artifact", str(art), "--act-bits", "4", "--out", str(out),
    ]) == 0
    w = tensor_io.load_matrix(wpath)
    layer = tensor_io.load_compressed_layer(art)
    bits = layer.residual.bits

    def both_quantized(acts, weights):
        return quant.matmul(acts, 4, quant.quantize(weights, bits))

    reference = x @ w
    untiled = {
        f"naive-W{bits}A4": both_quantized(x, w),
        f"smooth-only-W{bits}A4": both_quantized(*pipeline.apply_smoothing(x, w, layer.smoothing)),
        "specquant": pipeline.forward_approx(x, layer, 4),
    }
    rows_out = json.loads((out / "eval_matmul.json").read_text())["rows"]
    got = {r["method"]: r["frobenius_error"] for r in rows_out}
    assert got.pop("fp-reference") == 0.0
    assert got.keys() == untiled.keys()
    for method, y in untiled.items():
        expected = np.linalg.norm(y - reference)
        assert abs(got[method] - expected) <= 1e-12 * expected, method


def test_eval_matmul_holds_one_tile_of_its_tokens(tmp_path):
    """Past the 8.4 MB of 16384 x 64 float64 tokens it reads, eval-matmul
    allocates at most half as much again at any time (tracemalloc counts
    numpy's buffers): the products run one tile at a time."""
    w = synth.smooth_decay_layer(64, 64, decay=1.5, seed=1)
    x = synth.outlier_activations(16384, 64, magnitude=100.0, seed=2)
    wpath, xpath = _npy(tmp_path / "w.npy", w), _npy(tmp_path / "x.npy", x)
    calib = _npy(tmp_path / "c.npy", x[:256])
    art = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", calib, "--ratio", "0.25",
        "--smooth", "0.5", "--out", str(art),
    ]) == 0
    del x
    tracemalloc.start()
    try:
        rc = main([
            "eval-matmul", "--weights", wpath, "--calib", xpath,
            "--artifact", str(art), "--out", str(tmp_path / "eval"),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 1.5 * 16384 * 64 * 8


def test_analyze_reports_lowband_fraction(tmp_path, decay_instance):
    wpath, _ = decay_instance
    out = tmp_path / "an"
    assert main(["analyze", "--weights", wpath, "--out", str(out)]) == 0
    rows = _read_csv(out / "analyze.csv")
    assert len(rows) == 48
    summary = json.loads((out / "analyze.json").read_text())["summary"]
    assert 0.0 < summary["mean_lowband_fraction"] <= 1.0
    # Decay channels concentrate energy at the bottom of the band.
    assert summary["mean_lowband_fraction"] > 0.8


def test_analyze_bad_band_writes_nothing(tmp_path, decay_instance, capsys):
    wpath, _ = decay_instance
    out = tmp_path / "an"
    assert main(["analyze", "--weights", wpath, "--band", "1.5", "--out", str(out)]) == 1
    assert "specquant: error: band must lie in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", [-1070, -600, 0, 600, 1018])
def test_analyze_and_compare_svd_report_at_any_weight_scale(tmp_path, k):
    """Weights w 2^k, from subnormal to near the float64 limit: `analyze` and
    `compare-svd` exit 0 with finite strict-JSON reports, and warn nowhere
    (tier-1 runs with warnings as errors). analyze's total_energy column is
    `band_energies` of the same spectrum in the reported unit, and
    err_spectral scales by exactly 2^k wherever w 2^k holds w exactly."""
    w = synth.smooth_decay_layer(64, 16, seed=1)
    wk = np.ldexp(w, k)
    reports = {}
    for name, weights in (("w", w), ("wk", wk)):
        wpath = _npy(tmp_path / f"{name}.npy", weights)
        for command, stem in (("analyze", "analyze"), ("compare-svd", "compare_svd")):
            out = tmp_path / f"{name}-{stem}"
            assert main([command, "--weights", wpath, "--out", str(out)]) == 0
            reports[name, stem] = _strict_json(out / f"{stem}.json"), _read_csv(out / f"{stem}.csv")
    (totals, _, _), unit = spectral.band_energies(spectral.fft_columns(wk), 1, 64)
    summary, rows = reports["wk", "analyze"][0]["summary"], reports["wk", "analyze"][1]
    assert summary["energy_unit_log2"] == unit
    assert [float(r["total_energy"]) for r in rows] == totals.tolist()
    for name in ("w", "wk"):
        for row in reports[name, "compare_svd"][0]["rows"]:
            assert np.isfinite([row["err_spectral"], row["err_svd"]]).all()
    scaled = [row["err_spectral"] for row in reports["wk", "compare_svd"][0]["rows"]]
    plain = [row["err_spectral"] for row in reports["w", "compare_svd"][0]["rows"]]
    if np.array_equal(np.ldexp(wk, -k), w):
        assert scaled == np.ldexp(plain, k).tolist()


def test_synth_writes_loadable_npy(tmp_path):
    out = tmp_path / "w.npy"
    assert main([
        "synth", "--kind", "smooth-decay", "--rows", "16", "--cols", "4",
        "--decay", "2.0", "--seed", "1", "--out", str(out),
    ]) == 0
    m = tensor_io.load_matrix(out)
    assert m.shape == (16, 4)


def test_synth_outliers_deterministic_by_seed(tmp_path):
    a, b = tmp_path / "a.npy", tmp_path / "b.npy"
    for path in (a, b):
        assert main([
            "synth", "--kind", "outlier-activations", "--rows", "8",
            "--cols", "16", "--seed", "9", "--out", str(path),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_missing_input_exits_nonzero(tmp_path, capsys):
    rc = main([
        "compress", "--weights", str(tmp_path / "nope.npy"),
        "--calib", str(tmp_path / "nope.npy"),
        "--ratio", "0.5", "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "specquant: error:" in err
    assert ".py:" in err  # file/line context


def test_bad_smooth_value_exits_nonzero(tmp_path, decay_instance, capsys):
    wpath, xpath = decay_instance
    rc = main([
        "compress", "--weights", wpath, "--calib", xpath,
        "--ratio", "0.5", "--smooth", "lots", "--out", str(tmp_path / "o"),
    ])
    assert rc == 1
    assert "smooth" in capsys.readouterr().err


@pytest.mark.parametrize(
    "smooth, shown",
    [("1.5", "1.5"), ("nan", "nan"), ("lots", "'lots'")],
    ids=["1.5", "nan", "lots"],
)
def test_bad_smooth_value_exits_before_any_transform(
    tmp_path, decay_instance, counted, capsys, smooth, shown
):
    wpath, xpath = decay_instance
    out = tmp_path / "o"
    rc = main([
        "compress", "--weights", wpath, "--calib", xpath,
        "--ratio", "0.5", "--smooth", smooth, "--residual-quant", "compensated",
        "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"smoothing migration strength must lie in [0, 1], got {shown} [validation.py:" in err
    assert counted["fft_columns"] == 0
    assert not out.exists()


@pytest.mark.parametrize("act_bits", ["1", "9"])
def test_eval_matmul_checks_act_bits_before_loading(
    tmp_path, decay_instance, monkeypatch, capsys, act_bits
):
    wpath, xpath = decay_instance
    art = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath,
        "--groups", "4", "--smooth", "0.5", "--out", str(art),
    ]) == 0
    loads = []
    for name in ("load_matrix", "load_compressed_layer"):
        monkeypatch.setattr(tensor_io, name, lambda *a, _name=name, **k: loads.append(_name))
    monkeypatch.setattr(spectral, "fft_columns", lambda *a, **k: loads.append("fft_columns"))
    capsys.readouterr()
    out = tmp_path / "eval"
    rc = main([
        "eval-matmul", "--weights", wpath, "--calib", xpath,
        "--artifact", str(art), "--act-bits", act_bits, "--out", str(out),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"specquant: error: act_bits must be an integer in [2, 8], got {act_bits}" in err
    assert loads == []
    assert not out.exists()


@pytest.mark.parametrize("ratios", ["1.5", "0", "0.2,-0.1"])
def test_compare_svd_ratio_outside_unit_interval_exits_nonzero(
    tmp_path, decay_instance, capsys, ratios
):
    wpath, _ = decay_instance
    out = tmp_path / "cmp"
    assert main(["compare-svd", "--weights", wpath, "--ratios", ratios, "--out", str(out)]) == 1
    assert "specquant: error: ratio must lie in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ratios", ["0.1,,0.3", "0.2,", "", "0.2,x"])
def test_compare_svd_empty_or_non_number_ratio_exits_nonzero(
    tmp_path, decay_instance, capsys, ratios
):
    """An empty item of --ratios is refused like a non-number, not skipped."""
    wpath, _ = decay_instance
    out = tmp_path / "cmp"
    assert main(["compare-svd", "--weights", wpath, "--ratios", ratios, "--out", str(out)]) == 1
    assert "specquant: error: could not convert string to float" in capsys.readouterr().err
    assert not out.exists()


def _synth(tmp_path, name, kind, rows, cols, seed):
    path = str(tmp_path / name)
    assert main([
        "synth", "--kind", kind, "--rows", str(rows), "--cols", str(cols),
        "--seed", str(seed), "--out", path,
    ]) == 0
    return path


def test_overflowing_alpha_exits_nonzero_and_writes_nothing(tmp_path, capsys):
    """alpha * score past the float64 range is a named error, not a NaN
    softmax: no warning, no misleading report error, no artifact."""
    wpath = _synth(tmp_path, "w.npy", "gaussian", 64, 8, 1)
    xpath = _synth(tmp_path, "x.npy", "gaussian", 32, 64, 3)
    capsys.readouterr()
    out = tmp_path / "art"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([
            "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.5",
            "--smooth", "0.5", "--alpha", "1e308", "--out", str(out),
        ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "specquant: error: alpha=1e+308" in err
    assert "nan" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "weights, calib, message",
    [
        ((16, 1), (32, 16), "weights are 16x1, the artifact is 16x8"),
        ((16, 8), (32, 12), "activations have 12 columns, the artifact expects c_in=16"),
    ],
    ids=["weights", "activations"],
)
def test_eval_matmul_rejects_shapes_other_than_the_artifact(
    tmp_path, capsys, monkeypatch, weights, calib, message
):
    """(32, 8) - (32, 1) would broadcast into a meaningless error table; the
    shapes are refused before any quantization or product."""
    wpath = _synth(tmp_path, "w.npy", "smooth-decay", 16, 8, 1)
    xpath = _synth(tmp_path, "x.npy", "gaussian", 32, 16, 3)
    art = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.5",
        "--smooth", "0.5", "--out", str(art),
    ]) == 0
    w_eval = _synth(tmp_path, "w_eval.npy", "smooth-decay", *weights, 1)
    x_eval = _synth(tmp_path, "x_eval.npy", "gaussian", *calib, 3)
    products = []
    for owner, name in ((quant, "quantize"), (quant, "matmul"),
                        (pipeline, "forward_approx"), (pipeline, "_product")):
        monkeypatch.setattr(owner, name, lambda *a, _name=name, **k: products.append(_name))
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main([
        "eval-matmul", "--weights", w_eval, "--calib", x_eval,
        "--artifact", str(art), "--act-bits", "4", "--out", str(out),
    ]) == 1
    assert f"specquant: error: {message}" in capsys.readouterr().err
    assert products == []
    assert not out.exists()


def test_synth_zero_rows_exits_nonzero(tmp_path, capsys):
    rc = main([
        "synth", "--kind", "smooth-decay", "--rows", "0", "--cols", "4",
        "--out", str(tmp_path / "w.npy"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "specquant: error: c_in must be an integer in [1, inf), got 0 [validation.py:" in err


@pytest.mark.parametrize(
    "kind, rows, cols, extra, message",
    [
        ("outlier-activations", "8", "16", ["--num-outliers", "20"],
         "num_outliers must be at most c_in = 16, got 20 [synth.py:"),
        ("outlier-activations", "8", "16", ["--num-outliers", "-1"],
         "num_outliers must be a non-negative integer, got -1 [validation.py:"),
        ("outlier-activations", "-3", "16", [],
         "rows must be a non-negative integer, got -3 [validation.py:"),
        ("gaussian", "-3", "4", [], "rows must be a non-negative integer, got -3 [validation.py:"),
        ("gaussian", "4", "-3", [], "cols must be a non-negative integer, got -3 [validation.py:"),
        ("smooth-decay", "-3", "4", [],
         "c_in must be an integer in [1, inf), got -3 [validation.py:"),
        ("smooth-decay", "4", "-3", [],
         "c_out must be a non-negative integer, got -3 [validation.py:"),
    ],
)
def test_synth_bad_sizes_are_named(tmp_path, capsys, kind, rows, cols, extra, message):
    """A size numpy would reject, or an IndexError would meet, is refused
    first, by the name of its argument, and writes no file."""
    out = tmp_path / "m.npy"
    rc = main(["synth", "--kind", kind, "--rows", rows, "--cols", cols, *extra, "--out", str(out)])
    assert rc == 1
    assert f"specquant: error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: synth.smooth_decay_layer(True, 2), r"c_in must be an integer in \[1, inf\)"),
        (lambda: synth.smooth_decay_layer(4, False), "c_out must be a non-negative integer"),
        (lambda: synth.outlier_activations(4, 3, num_outliers=True),
         "num_outliers must be a non-negative integer, got True"),
        (lambda: synth.outlier_activations(True, 3), "rows must be a non-negative integer"),
        (lambda: synth.gaussian_matrix(2, np.bool_(True)), "cols must be a non-negative integer"),
    ],
    ids=["c_in", "c_out", "num_outliers", "rows", "cols-numpy-bool"],
)
def test_synth_bool_sizes_are_named(call, message):
    """A bool is not a size: refused by the argument's name, as a negative
    size is, where numpy would take it for 0 or 1 or fail on it unnamed."""
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: synth.outlier_activations(4, 3, magnitude=np.nan), "magnitude must be finite"),
        (lambda: synth.outlier_activations(4, 3, magnitude=np.inf), "magnitude must be finite"),
        (lambda: synth.outlier_activations(4, 3, magnitude=True), "magnitude must be finite"),
        (lambda: synth.gaussian_matrix(4, 3, scale=np.nan), r"scale must lie in \[0, inf\)"),
        (lambda: synth.gaussian_matrix(4, 3, scale=-1), r"scale must lie in \[0, inf\)"),
        (lambda: synth.smooth_decay_layer(8, 2, decay="2"), "decay must be finite"),
        (lambda: synth.gaussian_matrix(2, 2, seed=True), "seed must be a non-negative integer"),
        (lambda: synth.outlier_activations(4, 3, seed=1.5),
         "seed must be a non-negative integer, got 1.5"),
        (lambda: synth.smooth_decay_layer(8, 2, seed="a"), "seed must be a non-negative integer"),
        (lambda: synth.gaussian_matrix(2, 2, seed=-1), "seed must be a non-negative integer"),
    ],
    ids=["magnitude-nan", "magnitude-inf", "magnitude-bool", "scale-nan", "scale-negative",
         "decay-str", "seed-bool", "seed-fraction", "seed-str", "seed-negative"],
)
def test_synth_bad_scalars_are_named(call, message):
    """A scale that would give a non-finite matrix, or a scale or seed that
    numpy refuses unnamed or takes for another (True for seed 1), is refused
    by the argument's name."""
    with pytest.raises(ValueError, match=message):
        call()


def test_synth_integral_float_sizes_are_sizes():
    """8.0 is the size 8, as it is for `groups` and `residual_bits`, and
    3.0 or np.int64(3) the seed 3."""
    for make, sizes in (
        (synth.smooth_decay_layer, (8, 2)),
        (synth.outlier_activations, (4, 3)),
        (synth.gaussian_matrix, (4, 3)),
    ):
        expected = make(*sizes)
        assert make(*(float(n) for n in sizes)).tobytes() == expected.tobytes()
    x = synth.outlier_activations(4, 3, num_outliers=2.0)
    assert x.tobytes() == synth.outlier_activations(4, 3, num_outliers=2).tobytes()
    # A seed is an integer by the same rule.
    for make, sizes in (
        (synth.smooth_decay_layer, (8, 2)),
        (synth.outlier_activations, (4, 3)),
        (synth.gaussian_matrix, (4, 3)),
    ):
        expected = make(*sizes, seed=3).tobytes()
        assert make(*sizes, seed=3.0).tobytes() == expected
        assert make(*sizes, seed=np.int64(3)).tobytes() == expected


@pytest.mark.parametrize(
    "decay, message",
    [("-2000", "decay=-2000.0 gives"), ("nan", "decay must be finite, got nan")],
    ids=["-2000", "nan"],
)
def test_synth_non_finite_decay_exits_nonzero(tmp_path, capsys, decay, message):
    """Named error and exit 1, no RuntimeWarning (pytest runs with warnings
    as errors) and no file."""
    out = tmp_path / "w.npy"
    rc = main([
        "synth", "--kind", "smooth-decay", "--rows", "8", "--cols", "3",
        "--decay", decay, "--out", str(out),
    ])
    assert rc == 1
    assert f"specquant: error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_steep_decay_writes_a_finite_matrix(tmp_path):
    out = tmp_path / "w.npy"
    rc = main([
        "synth", "--kind", "smooth-decay", "--rows", "8", "--cols", "3",
        "--decay", "2000", "--out", str(out),
    ])
    assert rc == 0
    assert np.isfinite(tensor_io.load_matrix(out)).all()


@pytest.fixture
def counted(monkeypatch):
    """Calls of the column transforms and of np.linalg.svd, inv and cholesky,
    counted by name; an SVD that computes singular vectors counts as
    "svd_uv"."""
    calls = dict.fromkeys(
        ("fft_columns", "truncate_columns", "reconstruct_columns", "svd", "svd_uv",
         "inv", "cholesky"),
        0,
    )

    def count(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            key = "svd_uv" if name == "svd" and kwargs.get("compute_uv", True) else name
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("fft_columns", "truncate_columns", "reconstruct_columns"):
        count(spectral, name)
    for name in ("svd", "inv", "cholesky"):
        count(np.linalg, name)
    return calls


@pytest.mark.parametrize("smooth, transforms", [("0.5", 1), ("auto", 9)])
def test_compress_transforms_once_per_candidate(
    tmp_path, decay_instance, counted, smooth, transforms
):
    wpath, xpath = decay_instance
    assert main([
        "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.25",
        "--smooth", smooth, "--out", str(tmp_path / "art"),
    ]) == 0
    assert counted == {
        "fft_columns": transforms,
        "truncate_columns": transforms,
        "reconstruct_columns": transforms,
        "svd": 0,
        "svd_uv": 0,
        "inv": 0,
        "cholesky": 0,
    }


@pytest.mark.parametrize("smooth, candidates", [("0.5", 1), ("auto", 9)])
def test_report_forward_error_is_the_search_score(
    tmp_path, decay_instance, monkeypatch, smooth, candidates
):
    """The report's forward error is the score the strength search gave the
    saved layer: one unquantized product per candidate, on the W' the search
    had just built, and no forward, W' rebuild or dequantization of the
    command's own. It is, bit for bit, the unquantized forward error of the
    layer loaded from the artifact."""
    wpath, xpath = decay_instance
    saved, products = [], []
    calls = dict.fromkeys(("forward_approx", "low_freq_matrix", "dequantize"), 0)
    save, product = tensor_io.save_compressed_layer, pipeline._unquantized

    def saving(layer, *args, **kwargs):
        saved.append(layer)
        return save(layer, *args, **kwargs)

    def scoring(x, layer, w_low=None):
        products.append(w_low is not None)
        return product(x, layer, w_low)

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    monkeypatch.setattr(tensor_io, "save_compressed_layer", saving)
    monkeypatch.setattr(pipeline, "_unquantized", scoring)
    count(pipeline, "forward_approx")
    count(pipeline.CompressedLayer, "low_freq_matrix")
    count(quant, "dequantize")
    out = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.25",
        "--smooth", smooth, "--out", str(out),
    ]) == 0
    assert products == [True] * candidates
    # One dequantization per score, and one for the reconstruction error.
    assert calls == {"forward_approx": 0, "low_freq_matrix": 0, "dequantize": candidates + 1}
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["forward_error_highprec"] == saved[0].forward_error
    monkeypatch.undo()
    x, w = tensor_io.load_matrix(xpath), tensor_io.load_matrix(wpath)
    loaded = tensor_io.load_compressed_layer(out)
    unquantized = pipeline.forward_approx(x, loaded, None)
    assert report["summary"]["forward_error_highprec"] == float(norm(x @ w - unquantized))


@pytest.mark.parametrize("smooth, candidates", [("0.5", 1), ("auto", 9)])
def test_compensated_compress_factors_once_without_inverse(
    tmp_path, decay_instance, counted, smooth, candidates
):
    """The compensated quantizer factors each candidate's damped Gram once
    and never forms its inverse."""
    wpath, xpath = decay_instance
    assert main([
        "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.25",
        "--smooth", smooth, "--residual-quant", "compensated",
        "--out", str(tmp_path / "art"),
    ]) == 0
    assert counted["inv"] == 0
    assert counted["cholesky"] == candidates


def test_compare_svd_sweep_transforms_once(tmp_path, decay_instance, counted):
    wpath, _ = decay_instance
    assert main([
        "compare-svd", "--weights", wpath, "--ratios", "0.1,0.2,0.3",
        "--out", str(tmp_path / "cmp"),
    ]) == 0
    # Errors come from tail energies and singular values: nothing is rebuilt.
    assert counted == {
        "fft_columns": 1,
        "truncate_columns": 0,
        "reconstruct_columns": 0,
        "svd": 1,
        "svd_uv": 0,
        "inv": 0,
        "cholesky": 0,
    }
    assert len(_read_csv(tmp_path / "cmp" / "compare_svd.csv")) == 3


@pytest.mark.parametrize("smooth", ["0.5", "auto"])
def test_report_energies_match_a_fresh_transform(tmp_path, decay_instance, smooth):
    """The report's energy columns are bit for bit those of a second transform
    of the smoothed weights the artifact describes."""
    wpath, xpath = decay_instance
    out = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.25",
        "--smooth", smooth, "--out", str(out),
    ]) == 0
    w = tensor_io.load_matrix(wpath)
    layer = tensor_io.load_compressed_layer(out)
    w_hat = layer.smoothing.lam[:, None] * w
    (total, retained, tail), unit = spectral.band_energies(
        spectral.fft_columns(w_hat), layer.plan.k, layer.c_in
    )
    assert unit == 0
    report = json.loads((out / "report.json").read_text())
    assert report["summary"]["energy_unit_log2"] == 0
    rows = report["channels"]
    assert [r["total_energy"] for r in rows] == total.tolist()
    assert [r["retained_energy"] for r in rows] == retained.tolist()
    assert [r["tail_energy"] for r in rows] == tail.tolist()
    assert [r["error_bound"] for r in rows] == np.sqrt(tail).tolist()


def _strict_json(path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_report_norms_survive_large_scale(tmp_path):
    """Norms whose squares pass the float64 range are still reported, as
    finite numbers in strict JSON, without an overflow warning."""
    w = synth.smooth_decay_layer(16, 8, decay=2.0, seed=0) * 1e200
    x = synth.outlier_activations(32, 16, seed=1)
    wpath, xpath = _npy(tmp_path / "w.npy", w), _npy(tmp_path / "x.npy", x)
    out = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.5",
        "--smooth", "0.5", "--out", str(out),
    ]) == 0
    summary = _strict_json(out / "report.json")["summary"]
    layer = tensor_io.load_compressed_layer(out)
    y = x @ w - sq.forward_approx(x, layer, activation_bits=None)
    scale = np.abs(y).max()
    expected = scale * np.linalg.norm(y / scale)
    assert summary["forward_error_highprec"] == pytest.approx(expected, rel=1e-12)
    assert 1e190 < summary["forward_error_highprec"] < 1e300


def test_report_energies_past_the_float64_range_take_a_power_of_two_unit(tmp_path):
    """Channel energies whose squares pass the float64 range are reported in
    units of 2^energy_unit_log2; the error columns stay absolute."""
    w = synth.smooth_decay_layer(16, 8, decay=2.0, seed=0) * 1e200
    x = synth.outlier_activations(32, 16, seed=1)
    wpath, xpath = _npy(tmp_path / "w.npy", w), _npy(tmp_path / "x.npy", x)
    out = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.5",
        "--smooth", "1.0", "--out", str(out),
    ]) == 0
    report = _strict_json(out / "report.json")
    unit = report["summary"]["energy_unit_log2"]
    assert unit > 0 and unit % 2 == 0
    layer = tensor_io.load_compressed_layer(out)
    w_hat = layer.smoothing.lam[:, None] * w
    spec = spectral.fft_columns(w_hat)
    amp, exp = pow2_units(np.abs(spec))
    assert unit == 2 * exp.item() == spectral.band_energies(spec, layer.plan.k, layer.c_in)[1]
    (total, retained, tail), _ = spectral.band_energies(amp, layer.plan.k, layer.c_in)
    rows = report["channels"]
    assert [r["total_energy"] for r in rows] == total.tolist()
    assert [r["retained_energy"] for r in rows] == retained.tolist()
    assert [r["tail_energy"] for r in rows] == tail.tolist()
    assert [r["error_bound"] for r in rows] == np.ldexp(np.sqrt(tail), unit // 2).tolist()
    for r in rows:
        assert r["achieved_error"] <= r["error_bound"] * (1 + 1e-9)
        assert 1e190 < r["error_bound"] < 1e300


@pytest.mark.parametrize(
    "argv",
    [
        ["compress", "--weights", "w", "--calib", "x", "--ratio", "0.5", "--out", "o"],
        ["analyze", "--weights", "w", "--out", "o"],
        ["compare-svd", "--weights", "w", "--out", "o"],
        ["eval-matmul", "--weights", "w", "--calib", "x", "--artifact", "a", "--out", "o"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_is_taken_only_by_synth(argv, capsys):
    """Only `synth` draws random numbers, so only it takes --seed."""
    with pytest.raises(SystemExit):
        main(argv + ["--seed", "1"])
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_unrepresentable_report_writes_nothing(tmp_path, capsys):
    """Weights near the float64 limit put X W past the float64 range: the
    command fails with a named error before any transform, and writes no
    file."""
    w = synth.smooth_decay_layer(16, 8, decay=2.0, seed=0)
    w = w / np.abs(w).max() * 1e308
    x = synth.outlier_activations(32, 16, seed=1)
    wpath, xpath = _npy(tmp_path / "w.npy", w), _npy(tmp_path / "x.npy", x)
    out = tmp_path / "art"
    rc = main([
        "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.5",
        "--smooth", "0.5", "--out", str(out),
    ])
    assert rc == 1
    assert "specquant: error: x @ w is past the float64 range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compress", "compare-svd"])
def test_report_value_past_the_float64_range_writes_nothing(tmp_path, capsys, command):
    """Unit activations at strength 1 leave lambda = 1. With 4 x 64 weights
    of +-4e307, X W and every spectrum bin stay within 4 * 4e307, inside the
    float64 range, and the layer compresses; but its truncation error, of
    the order of 4e307 sqrt(128), is past it, and so is compare-svd's
    spectral error. The report refuses that by name before any file is
    written, with no overflow warning on the way (warnings are errors)."""
    w = np.random.default_rng(0).choice([-1.0, 1.0], size=(4, 64)) * 4e307
    wpath, xpath = _npy(tmp_path / "w.npy", w), _npy(tmp_path / "x.npy", np.ones((8, 4)))
    options = {
        "compress": ["--calib", xpath, "--ratio", "0.5", "--smooth", "1.0"],
        "compare-svd": ["--ratios", "0.5"],
    }
    out = tmp_path / "art"
    rc = main([command, "--weights", wpath, *options[command], "--out", str(out)])
    assert rc == 1
    assert "specquant: error: report value past the float64 range" in capsys.readouterr().err
    assert not out.exists()


def test_eval_matmul_product_past_the_float64_range_writes_nothing(tmp_path, capsys):
    """A layer of weights near 1e200 compresses on activations near 1e2;
    the same activations times 1e200 put X W past the float64 range, which
    eval-matmul refuses by the search's name, without an overflow warning."""
    w = synth.smooth_decay_layer(16, 8, decay=1.5, seed=1) * 1e200
    x = synth.outlier_activations(64, 16, seed=2)
    wpath, xpath = _npy(tmp_path / "w.npy", w), _npy(tmp_path / "x.npy", x)
    art = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.5",
        "--smooth", "0.5", "--out", str(art),
    ]) == 0
    big = _npy(tmp_path / "x_big.npy", x * 1e200)
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main([
        "eval-matmul", "--weights", wpath, "--calib", big, "--artifact", str(art), "--out", str(out),
    ]) == 1
    assert "specquant: error: x @ w is past the float64 range" in capsys.readouterr().err
    assert not out.exists()


def test_eval_matmul_activations_past_the_float64_range_after_smoothing_write_nothing(
    tmp_path, capsys
):
    """lambda near 1e-300 takes activations of 1e10 past the float64 range,
    where x @ w overflows too: eval-matmul serves each tile before anything
    else, so it refuses by the forward's name."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 16)) * 1e-300
    w = rng.normal(size=(16, 4)) * 1e300
    wpath, xpath = _npy(tmp_path / "w.npy", w), _npy(tmp_path / "x.npy", x)
    art = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.5",
        "--smooth", "0.5", "--out", str(art),
    ]) == 0
    assert tensor_io.load_compressed_layer(art).smoothing.lam.max() < 1e-290
    big = _npy(tmp_path / "x_big.npy", np.full((2, 16), 1e10))
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main([
        "eval-matmul", "--weights", wpath, "--calib", big, "--artifact", str(art), "--out", str(out),
    ]) == 1
    assert "specquant: error: x / lambda contains non-finite values" in capsys.readouterr().err
    assert not out.exists()
