"""End-to-end command runs: reports, artifacts, determinism, exit codes."""

import csv
import json
import os
import warnings

import numpy as np
import pytest

import specquant as sq
from specquant import spectral, synth, tensor_io
from specquant.cli import main


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
        "--ratio", "0.25", "--smooth", "auto", "--seed", "7",
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


def test_eval_matmul_zero_activations(tmp_path, decay_instance):
    wpath, xpath = decay_instance
    art = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath,
        "--ratio", "0.3", "--smooth", "0.5", "--out", str(art),
    ]) == 0
    zpath = _npy(tmp_path / "z.npy", np.zeros((8, 64)))
    out = tmp_path / "eval0"
    assert main([
        "eval-matmul", "--weights", wpath, "--calib", zpath,
        "--artifact", str(art), "--act-bits", "4", "--out", str(out),
    ]) == 0
    for row in _read_csv(out / "eval_matmul.csv"):
        assert float(row["frobenius_error"]) == 0.0


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


@pytest.mark.parametrize("ratios", ["1.5", "0", "0.2,-0.1"])
def test_compare_svd_ratio_outside_unit_interval_exits_nonzero(
    tmp_path, decay_instance, capsys, ratios
):
    wpath, _ = decay_instance
    out = tmp_path / "cmp"
    assert main(["compare-svd", "--weights", wpath, "--ratios", ratios, "--out", str(out)]) == 1
    assert "specquant: error: ratio must lie in (0, 1]" in capsys.readouterr().err
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
    tmp_path, capsys, weights, calib, message
):
    """(32, 8) - (32, 1) would broadcast into a meaningless error table."""
    wpath = _synth(tmp_path, "w.npy", "smooth-decay", 16, 8, 1)
    xpath = _synth(tmp_path, "x.npy", "gaussian", 32, 16, 3)
    art = tmp_path / "art"
    assert main([
        "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.5",
        "--smooth", "0.5", "--out", str(art),
    ]) == 0
    w_eval = _synth(tmp_path, "w_eval.npy", "smooth-decay", *weights, 1)
    x_eval = _synth(tmp_path, "x_eval.npy", "gaussian", *calib, 3)
    capsys.readouterr()
    out = tmp_path / "eval"
    assert main([
        "eval-matmul", "--weights", w_eval, "--calib", x_eval,
        "--artifact", str(art), "--act-bits", "4", "--out", str(out),
    ]) == 1
    assert f"specquant: error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_synth_zero_rows_exits_nonzero(tmp_path, capsys):
    rc = main([
        "synth", "--kind", "smooth-decay", "--rows", "0", "--cols", "4",
        "--out", str(tmp_path / "w.npy"),
    ])
    assert rc == 1
    assert "specquant: error: signal length must be at least 1" in capsys.readouterr().err


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
    total, retained, tail = spectral.band_energies(
        spectral.fft_columns(w_hat), layer.plan.k, layer.c_in
    )
    rows = json.loads((out / "report.json").read_text())["channels"]
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


def test_unrepresentable_report_writes_nothing(tmp_path, capsys):
    """A forward error past the float64 range fails the command with a named
    error before any file is written."""
    w = synth.smooth_decay_layer(16, 8, decay=2.0, seed=0)
    w = w / np.abs(w).max() * 1e308
    x = synth.outlier_activations(32, 16, seed=1)
    wpath, xpath = _npy(tmp_path / "w.npy", w), _npy(tmp_path / "x.npy", x)
    out = tmp_path / "art"
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main([
            "compress", "--weights", wpath, "--calib", xpath, "--ratio", "0.5",
            "--smooth", "0.5", "--out", str(out),
        ])
    assert rc == 1
    assert "specquant: error: report value past the float64 range" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_unrepresentable_energy_writes_nothing(tmp_path, capsys):
    """Channel energies past the float64 range fail `analyze` with a named
    error before any report is written; the low-band fractions alone would
    be finite."""
    w = synth.smooth_decay_layer(16, 8, decay=1.5, seed=3) * 1e200
    wpath = _npy(tmp_path / "w.npy", w)
    out = tmp_path / "reports"
    with np.errstate(over="ignore"):
        rc = main(["analyze", "--weights", wpath, "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "specquant: error: report value past the float64 range: total_energy is inf" in err
    assert list(out.iterdir()) == []
