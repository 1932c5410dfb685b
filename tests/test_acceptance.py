"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on a green run; on failure pytest replays the captured output.
"""

import os
import time

import numpy as np
import pytest

import specquant as sq
from specquant import quant, synth, tensor_io
from specquant.cli import main
from specquant.spectral import band_energies, half_spectrum_length, truncate_columns

# Retained bins per channel in the groups-mode criteria.
GROUPS = 16


def _verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_fft_oracle_equivalence():
    """1000 random vectors, lengths 1..256: fft vs dft_naive, 1e-10, <10 s."""
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 257))
        x = rng.normal(size=n)
        full = sq.dft_naive(x)
        half = sq.fft(x)
        scale = max(float(np.abs(full).max()), 1e-300)
        worst = max(worst, float(np.abs(half - full[: n // 2 + 1]).max()) / scale)
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"fft vs dft_naive worst relative error {worst:.2e} (<=1e-10), "
        f"runtime {elapsed:.2f}s (<10s) over 1000 vectors",
    )


def test_criterion_2_parseval():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 257))
        t, f = sq.parseval_check(rng.normal(size=n))
        worst = max(worst, abs(t - f) / max(t, 1e-300))
    _verdict(2, worst <= 1e-9, f"time/frequency energy worst relative gap {worst:.2e} (<=1e-9)")


def test_criterion_3_error_bound_exhaustive():
    rng = np.random.default_rng(1003)
    violations = 0
    checked = 0
    for n in range(1, 33):
        signals = [rng.normal(size=n), rng.uniform(-2, 2, n), np.ones(n)]
        for x in signals:
            hs = sq.fft(x)[:, None]
            for k in range(1, half_spectrum_length(n) + 1):
                bound = float(np.sqrt(band_energies(hs, k, n)[2][0]))
                achieved = float(
                    np.linalg.norm(x - sq.reconstruct(truncate_columns(hs, k, n), n))
                )
                checked += 1
                if achieved > bound + 1e-9:
                    violations += 1
    _verdict(
        3,
        violations == 0,
        f"achieved error <= bound + 1e-9 in {checked} (n, k) cases, {violations} violations",
    )


def test_criterion_4_round_trip_and_smoothing_identity():
    rng = np.random.default_rng(1004)
    worst_rt = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 257))
        x = rng.normal(size=n)
        sp = truncate_columns(sq.fft(x)[:, None], half_spectrum_length(n), n)
        worst_rt = max(worst_rt, float(np.abs(sq.reconstruct(sp, n) - x).max()))
    worst_sm = 0.0
    for _ in range(100):
        t, c_in, c_out = rng.integers(2, 20), rng.integers(2, 24), rng.integers(2, 24)
        x = rng.normal(size=(t, c_in))
        w = rng.normal(size=(c_in, c_out))
        f = sq.compute_smoothing(x, w, float(rng.uniform(0, 1)))
        xh, wh = sq.apply_smoothing(x, w, f)
        ref = x @ w
        worst_sm = max(
            worst_sm, float(np.linalg.norm(xh @ wh - ref) / np.linalg.norm(ref))
        )
    _verdict(
        4,
        worst_rt <= 1e-9 and worst_sm <= 1e-11,
        f"round-trip worst abs error {worst_rt:.2e} (<=1e-9); "
        f"smoothing identity worst relative error {worst_sm:.2e} (<=1e-11)",
    )


def test_criterion_5_quantizer_contract():
    rng = np.random.default_rng(1005)
    worst_ratio = 0.0
    codes_ok = True
    for _ in range(1000):
        bits = int(rng.choice([2, 4, 8]))
        n = int(rng.integers(1, 65))
        vec = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        q = quant.quantize(vec[None, :], bits, "per_token")
        back = quant.dequantize(q)
        delta = float(q.deltas[0])
        worst_ratio = max(worst_ratio, float(np.abs(back - vec).max()) / (delta / 2))
        codes_ok = codes_ok and int(q.codes.max()) <= 2**bits - 1
    _verdict(
        5,
        worst_ratio <= 1.0 + 1e-9 and codes_ok,
        f"round-trip error at most {worst_ratio:.6f} of delta/2 across 1000 slices; "
        f"codes in range: {codes_ok}",
    )


def test_criterion_6_storage_accounting(tmp_path):
    rng = np.random.default_rng(1006)
    ok = True
    for c_in, groups in [(16, 3), (64, 16), (128, 65), (33, 5)]:
        x = rng.normal(size=(8, c_in))
        layer = sq.compress_layer(x, rng.normal(size=(c_in, 4)), groups=groups, smooth=0.5)
        out = tmp_path / f"{c_in}x{groups}"
        sq.save_compressed_layer(layer, out)
        payload = (out / tensor_io.SPECTRA_FILE).stat().st_size
        k = int(layer.plan.k.sum())
        ok = ok and payload == 2 * k * 8  # exactly 2k reals per channel
        ok = ok and 3 * payload == 2 * (3 * k * 8)  # one third below (A, phi, f)
    for n in (8, 64, 256):
        ok = ok and 2 * half_spectrum_length(n) == n + 2  # half of 2n, plus DC/Nyquist
    _verdict(
        6,
        ok,
        "spectra.bin is exactly 2k float64 per channel (2/3 of a 3-parameter "
        "encoding); half-spectrum stores n + 2 of the full spectrum's 2n reals",
    )


def test_criterion_7_budget_matched_svd_ordering():
    """20 seeds x ratios {10,20,30}% on 256x256 decay-2 layers, <60 s."""
    t0 = time.perf_counter()
    wins = 0
    runs = 0
    bound_violations = 0
    r = 2.0
    for seed in range(20):
        w = synth.smooth_decay_layer(256, 256, decay=r, seed=seed)
        spectra = [sq.fft(w[:, j]) for j in range(256)]
        c = np.array([abs(hs[1]) for hs in spectra])
        for rec in sq.compare_budgets(w, (0.1, 0.2, 0.3)):
            runs += 1
            if rec.err_spectral < rec.err_svd:
                wins += 1
            for j in range(256):
                k = int(rec.k_per_channel[j])
                if k < 2:
                    continue
                tail = float((np.abs(spectra[j][k:]) ** 2).sum())
                limit = c[j] ** 2 / ((2 * r - 1) * (k - 1) ** (2 * r - 1))
                if tail > limit * (1 + 1e-9):
                    bound_violations += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        wins == runs and bound_violations == 0 and elapsed < 60.0,
        f"spectral < SVD in {wins}/{runs} runs; decay-bound violations "
        f"{bound_violations}; runtime {elapsed:.1f}s (<60s)",
    )


def test_criterion_8_ablation_ordering():
    """Outlier instances: naive > smooth-only > specquant in >=18/20 seeds,
    median specquant error < 50% of naive."""
    ordered = 0
    ratios = []
    for seed in range(20):
        w = synth.smooth_decay_layer(128, 128, decay=1.0, seed=seed)
        x = synth.outlier_activations(64, 128, magnitude=100.0, seed=1000 + seed)
        ref = x @ w
        layer = sq.compress_layer(x, w, groups=GROUPS, smooth=0.5, residual_bits=4)
        naive = np.linalg.norm(
            quant.dequantize(quant.quantize(x, 4, "per_token"))
            @ quant.dequantize(quant.quantize(w, 4, "per_channel"))
            - ref
        )
        xh, wh = sq.apply_smoothing(x, w, layer.smoothing)
        smooth_only = np.linalg.norm(
            quant.dequantize(quant.quantize(xh, 4, "per_token"))
            @ quant.dequantize(quant.quantize(wh, 4, "per_channel"))
            - ref
        )
        ours = np.linalg.norm(sq.forward_approx(x, layer, 4) - ref)
        if naive > smooth_only > ours:
            ordered += 1
        ratios.append(ours / naive)
    median_ratio = float(np.median(ratios))
    _verdict(
        8,
        ordered >= 18 and median_ratio < 0.5,
        f"ordering naive > smooth-only > specquant in {ordered}/20 seeds (>=18); "
        f"median specquant/naive error {median_ratio:.3f} (<0.5)",
    )


def test_criterion_9_budget_allocator():
    rng = np.random.default_rng(1009)
    sums_ok = True
    for _ in range(200):
        scores = rng.normal(size=int(rng.integers(1, 24))) * 10
        plan = sq.allocate(scores, float(rng.uniform(-3, 3)), 300, 64)
        sums_ok = sums_ok and abs(float(plan.rho.sum()) - 1.0) <= 1e-12
    shift_ok = True
    for _ in range(100):
        scores = rng.integers(0, 4096, size=int(rng.integers(1, 16))) / 1024.0
        shift = float(rng.integers(-500, 500))
        a = sq.allocate(scores, 1.0, 8 * scores.size, 64)
        b = sq.allocate(scores + shift, 1.0, 8 * scores.size, 64)
        shift_ok = shift_ok and (a.rho == b.rho).all() and (a.k == b.k).all()
    plan = sq.allocate(np.array([1.0, 2.0, 3.0]), 1.0, 30, 64)
    example_ok = list(plan.k) == [2, 8, 20]
    _verdict(
        9,
        sums_ok and shift_ok and example_ok,
        f"softmax sums within 1e-12: {sums_ok}; exact shift invariance: {shift_ok}; "
        f"worked allocation [2, 8, 20] reproduced: {example_ok}",
    )


def test_criterion_10_deterministic_artifacts(tmp_path):
    w = synth.smooth_decay_layer(64, 64, decay=1.2, seed=5)
    x = synth.outlier_activations(32, 64, magnitude=50.0, seed=6)
    wpath, xpath = str(tmp_path / "w.npy"), str(tmp_path / "x.npy")
    tensor_io.save_matrix(w, wpath)
    tensor_io.save_matrix(x, xpath)
    args = [
        "compress", "--weights", wpath, "--calib", xpath,
        "--ratio", "0.25", "--smooth", "auto", "--seed", "11",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    artifact = ("manifest.json", "lambda.bin", "spectra.bin", "residual.bin")
    same = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in artifact)
    # Identical config (same --out) reproduces every output byte, report included.
    before = {p.name: p.read_bytes() for p in out1.iterdir()}
    assert main(args + ["--out", str(out1)]) == 0
    same_all = {p.name: p.read_bytes() for p in out1.iterdir()} == before
    _verdict(
        10,
        same and same_all,
        f"artifact files byte-identical across runs: {same}; "
        f"identical config reproduces all outputs: {same_all}",
    )


@pytest.mark.skipif(
    "SPECQUANT_WEIGHTS_NPY" not in os.environ,
    reason="optional, data-dependent: set SPECQUANT_WEIGHTS_NPY to a real weight dump",
)
def test_criterion_11_real_weight_lowband_report():
    w = tensor_io.load_matrix(os.environ["SPECQUANT_WEIGHTS_NPY"])
    fractions = sq.spectral.lowband_fraction(sq.spectral.fft_columns(w), w.shape[0], 0.2)
    mean = float(np.mean(fractions))
    # Reference point, not a gate: comparable dumps report ~0.923.
    _verdict(
        11,
        True,
        f"mean low-band (top 20% bins) energy fraction {mean:.4f} over "
        f"{w.shape[1]} channels (reference point, not a gate)",
    )
