"""Smoothing, layer compression, the two-branch forward, and baselines."""

import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import specquant as sq
from specquant import pipeline, quant, spectral, synth
from specquant.pipeline import (
    DEFAULT_SMOOTH_GRID,
    apply_smoothing,
    compare_budgets,
    compress_layer,
    compute_smoothing,
    forward_approx,
    select_migration_strength,
)
from specquant.validation import norm, pow2_units

from oracles import compare_budgets_rebuilt, jacobi_singular_values


def test_public_names_resolve():
    assert len(set(sq.__all__)) == len(sq.__all__)
    for name in sq.__all__:
        assert getattr(sq, name) is not None, name


class TestSmoothing:
    def test_strength_zero_is_inverse_weight_range(self):
        x = np.random.default_rng(0).normal(size=(10, 4))
        w = np.random.default_rng(1).normal(size=(4, 3))
        f = compute_smoothing(x, w, 0.0)
        np.testing.assert_allclose(f.lam, 1.0 / np.abs(w).max(axis=1), rtol=1e-15)

    def test_strength_one_is_activation_range(self):
        x = np.random.default_rng(2).normal(size=(10, 4))
        w = np.random.default_rng(3).normal(size=(4, 3))
        f = compute_smoothing(x, w, 1.0)
        np.testing.assert_allclose(f.lam, np.abs(x).max(axis=0), rtol=1e-15)

    def test_dead_channel_takes_the_median_live_range(self):
        """A zero activation channel gets the median smoothed weight range of
        the live channels, a zero weight row the median smoothed activation
        range; a channel zero on both sides keeps 1, and every live channel
        the bits of its formula."""
        x = np.random.default_rng(4).normal(size=(10, 6))
        w = np.random.default_rng(5).normal(size=(6, 3))
        x[:, 2] = 0.0
        w[4] = 0.0
        x[:, 5] = 0.0
        w[5] = 0.0
        s = 0.5
        lam = compute_smoothing(x, w, s).lam
        act, wgt = np.abs(x).max(axis=0), np.abs(w).max(axis=1)
        live = [0, 1, 3]
        assert lam[live].tobytes() == (act[live] ** s / wgt[live] ** (1.0 - s)).tobytes()
        assert lam[2] == np.median(lam[live] * wgt[live]) / wgt[2]
        assert lam[4] == act[4] / np.median(act[live] / lam[live])
        assert lam[5] == 1.0

    def test_dead_channel_keeps_the_forward_finite(self, tmp_path):
        """Live factors near 4e-246 bring weights at 1e296 down to the
        activations' scale; a dead channel's weight row, left at lambda = 1,
        made the forward overflow. Saved and loaded, the layer's forward is
        now finite and close at both precisions, and warns of nothing."""
        rng = np.random.default_rng(0)
        w = rng.normal(size=(16, 4)) * 1e296
        x = rng.normal(size=(8, 16)) * 1e-195
        x[:, 3] = 0.0
        sq.save_compressed_layer(compress_layer(x, w, ratio=1.0, smooth=0.5), tmp_path)
        layer = sq.load_compressed_layer(tmp_path)
        ref = x @ w
        for bits in (4, None):
            y = forward_approx(x, layer, bits)
            assert np.isfinite(y).all()
            assert norm(y - ref) <= 1e-6 * norm(ref)

    def test_unit_factors_change_nothing(self):
        x = np.random.default_rng(6).normal(size=(5, 4))
        w = np.random.default_rng(7).normal(size=(4, 2))
        f = compute_smoothing(np.ones((2, 4)), np.sign(w), 1.0)
        np.testing.assert_allclose(f.lam, 1.0)
        xh, wh = apply_smoothing(x, w, f)
        np.testing.assert_array_equal(xh, x)
        np.testing.assert_array_equal(wh, w)

    def test_product_preserved(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = rng.normal(size=(12, 9))
            w = rng.normal(size=(9, 7))
            f = compute_smoothing(x, w, rng.uniform(0, 1))
            xh, wh = apply_smoothing(x, w, f)
            ref = x @ w
            assert np.linalg.norm(xh @ wh - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_outlier_column_range_shrinks(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(20, 8))
        x[:, 3] *= 100.0
        w = rng.normal(size=(8, 8))
        f = compute_smoothing(x, w, 0.5)
        xh, _ = apply_smoothing(x, w, f)
        assert np.abs(xh).max() < np.abs(x).max()

    def test_smoothing_length_must_match_both_sides(self):
        f = compute_smoothing(np.ones((3, 4)), np.ones((4, 2)), 0.5)
        for x, w in ((np.ones((3, 5)), np.ones((4, 2))), (np.ones((3, 4)), np.ones((5, 2)))):
            with pytest.raises(ValueError, match="smoothing factor length does not match"):
                apply_smoothing(x, w, f)

    def test_factors_are_the_one_place_lambda_is_applied(self, monkeypatch):
        """x_hat = x / lambda by column and W_hat = lambda W by row, and every
        smoothed operand is one of them: `apply_smoothing`, the search's
        W_hat and compensated x_hat, the winner's W_hat - W' and the x_hat
        of every forward tile."""
        x = synth.outlier_activations(300, 32, magnitude=100.0, seed=5)
        w = synth.smooth_decay_layer(32, 6, decay=1.5, seed=6)
        f = compute_smoothing(x, w, 0.5)
        x_hat, w_hat = apply_smoothing(x, w, f)
        assert x_hat.tobytes() == (x / f.lam[None, :]).tobytes()
        assert w_hat.tobytes() == (f.lam[:, None] * w).tobytes()
        calls = _count(monkeypatch, (pipeline.SmoothingFactors, "x_hat"),
                       (pipeline.SmoothingFactors, "w_hat"))
        apply_smoothing(x, w, f)
        assert calls == {"x_hat": 1, "w_hat": 1}
        # The candidate's W_hat, its compensated quantizer's x_hat and its
        # scored x_hat; the winner's W_hat once more.
        layer = compress_layer(x, w, ratio=0.5, smooth=0.5, residual_quant="compensated")
        assert calls == {"x_hat": 3, "w_hat": 3}
        forward_approx(x, layer, 4)  # three tiles
        forward_approx(x, layer, None)
        assert calls == {"x_hat": 7, "w_hat": 3}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_smoothing(np.ones((3, 4)), np.ones((5, 2)), 0.5)
        with pytest.raises(ValueError):
            compute_smoothing(np.ones((3, 4)), np.ones((4, 2)), 1.5)
        # The strength is checked first, as a fixed-strength compress does.
        with pytest.raises(ValueError, match="smoothing migration strength"):
            compute_smoothing(np.ones((3, 4)), np.ones((5, 2)), None)

    def test_lambda_past_the_float64_range_is_named(self, monkeypatch):
        """1 / 3.5e-319 overflows: the factor is refused by channel and
        strength before any transform, and every finite factor keeps the
        bits of its formula."""
        w = np.ones((3, 8))
        w[2] = 3.5e-319
        x = np.random.default_rng(0).normal(size=(8, 3))
        calls = _count(monkeypatch, (spectral, "fft_columns"))
        message = r"smoothing factor of channel 2 at migration strength 0\.0 is inf"
        with pytest.raises(ValueError, match=message):
            compress_layer(x, w, ratio=1.0, smooth=0.0)
        with pytest.raises(ValueError, match=message):
            compute_smoothing(x, w, 0.0)
        assert calls == {"fft_columns": 0}
        act, wgt = np.abs(x).max(axis=0), np.abs(w).max(axis=1)
        for s in (0.5, 1.0):
            lam = compute_smoothing(x, w, s).lam
            assert lam.tobytes() == (act**s / wgt ** (1.0 - s)).tobytes()


class TestMigrationStrength:
    def test_singleton_grid(self):
        x = np.random.default_rng(0).normal(size=(8, 6))
        w = np.random.default_rng(1).normal(size=(6, 4))
        layer = select_migration_strength(x, w, [0.3], ratio=0.5)
        assert layer.smoothing.migration_strength == 0.3

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            select_migration_strength(np.ones((2, 2)), np.ones((2, 2)), [], ratio=0.5)

    def test_brute_force_over_grid_is_the_definition(self, tmp_path):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(24, 16))
        x[:, 5] *= 100.0
        w = synth.smooth_decay_layer(16, 12, decay=1.0, seed=11)
        grid = (0.1, 0.3, 0.5, 0.7, 0.9)
        chosen = select_migration_strength(x, w, grid, ratio=0.3)
        picked = chosen.smoothing.migration_strength
        losses = {}
        ref = x @ w
        for s in grid:
            layer = compress_layer(x, w, ratio=0.3, smooth=s)
            xh = x / layer.smoothing.lam[None, :]
            approx = xh @ (layer.low_freq_matrix() + quant.dequantize(layer.residual))
            losses[s] = float(((ref - approx) ** 2).sum())
        best = min(grid, key=lambda s: (losses[s], s))
        assert picked == best
        assert picked > 0.0
        # The winner is returned as compressed, not recompressed: it saves
        # to the same bytes as a fixed-strength run at the picked value.
        sq.save_compressed_layer(chosen, tmp_path / "auto")
        sq.save_compressed_layer(compress_layer(x, w, ratio=0.3, smooth=picked), tmp_path / "fixed")
        names = sorted(p.name for p in (tmp_path / "auto").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "fixed").iterdir())
        for name in names:
            auto, fixed = tmp_path / "auto" / name, tmp_path / "fixed" / name
            assert auto.read_bytes() == fixed.read_bytes(), name

    @pytest.mark.parametrize("scale", ["x1e200", "x1e-200", "w1e200", "w1e-200"])
    @pytest.mark.parametrize("metric", ["spectral-entropy", "l2-norm"])
    def test_search_survives_extreme_scales(self, metric, scale):
        """The auto search at a scale far from 1 raises no RuntimeWarning and
        picks the strength a brute-force search scored relative to max|XW|
        picks. Spectral entropy is scale-invariant, so that is also the
        unscaled pick; l2-norm scores, and so its budgets, grow with the
        weights, so its pick may move with the scale."""
        factor = 1e200 if scale.endswith("e200") else 1e-200
        grid = DEFAULT_SMOOTH_GRID
        for seed in range(12):
            x = synth.outlier_activations(32, 16, magnitude=100.0, num_outliers=2, seed=seed)
            w = synth.smooth_decay_layer(16, 8, decay=1.5, seed=100 + seed)
            xs, ws = (x * factor, w) if scale[0] == "x" else (x, w * factor)
            picked = compress_layer(xs, ws, ratio=0.5, metric=metric).smoothing.migration_strength
            ref = xs @ ws
            top = np.abs(ref).max()
            losses = {}
            for s in grid:
                layer = compress_layer(xs, ws, ratio=0.5, metric=metric, smooth=s)
                xh = xs / layer.smoothing.lam[None, :]
                approx = xh @ (layer.low_freq_matrix() + quant.dequantize(layer.residual))
                losses[s] = float((((ref - approx) / top) ** 2).sum())
            assert picked == min(grid, key=lambda s: (losses[s], s)), seed
            if metric == "spectral-entropy":
                unscaled = compress_layer(x, w, ratio=0.5, metric=metric)
                assert picked == unscaled.smoothing.migration_strength, seed

    def test_search_survives_a_loss_past_the_float64_range(self):
        """Channels 0 and 1 carry equal activations against negated weights,
        small integers times 2^500, active on the first 8 tokens only: each
        product is exact, so the pair cancels exactly in X W, which the rest,
        at weights near 2^-300, makes tiny. The compressed layer does not
        cancel, so every candidate's error, relative to max|XW|, is past
        2^512 and its square past the float64 range. The search scores the
        error's norm instead, warns of nothing, and picks the strength with
        the smallest one."""
        rng = np.random.default_rng(0)
        x = np.zeros((16, 8))
        w = rng.normal(size=(8, 4)) * 2.0**-300
        x[:8, 0] = x[:8, 1] = np.ldexp(rng.integers(1, 8, size=8).astype(float), 500)
        w[0] = np.ldexp(rng.integers(1, 8, size=4).astype(float), 500)
        w[1] = -w[0]
        x[8:, 2:] = rng.normal(size=(8, 6))
        picked = compress_layer(x, w, ratio=0.25)
        errors = {
            s: compress_layer(x, w, ratio=0.25, smooth=s).forward_error
            for s in DEFAULT_SMOOTH_GRID
        }
        top = np.abs(x @ w).max()
        assert all(np.log2(e) - np.log2(top) > 512 for e in errors.values())
        strength = picked.smoothing.migration_strength
        assert strength == min(DEFAULT_SMOOTH_GRID, key=lambda s: (errors[s], s))
        assert picked.forward_error == errors[strength]

    @pytest.mark.parametrize("entry", ["fixed", "auto", "search"])
    def test_forward_error_is_the_calibration_forward_error(self, tmp_path, entry):
        """Every compress returns the score its search gave it, bit for bit;
        a loaded layer has none."""
        x = synth.outlier_activations(32, 16, seed=1)
        w = synth.smooth_decay_layer(16, 8, decay=1.5, seed=0)
        layer = _compress_via(entry, x, w, ratio=0.5)
        assert type(layer.forward_error) is float
        assert layer.forward_error == float(norm(x @ w - forward_approx(x, layer, None)))
        sq.save_compressed_layer(layer, tmp_path / "art")
        assert sq.load_compressed_layer(tmp_path / "art").forward_error is None

    def test_tie_breaks_to_smallest(self):
        # Zero weights make every strength equivalent (loss identically 0).
        x = np.ones((4, 4))
        w = np.zeros((4, 2))
        layer = select_migration_strength(x, w, [0.9, 0.5, 0.2], ratio=0.5)
        assert layer.smoothing.migration_strength == 0.2

    @pytest.mark.parametrize(
        "grid", [[0.2, 1.5], [0.5, float("nan")], [-0.1, 0.5], [0.3, float("inf")]]
    )
    def test_bad_grid_rejected_before_any_compress(self, monkeypatch, grid):
        x = synth.outlier_activations(8, 16, seed=1)
        w = synth.smooth_decay_layer(16, 4, decay=1.5, seed=0)
        calls = _count(monkeypatch, (spectral, "fft_columns"))
        with pytest.raises(ValueError, match="migration strength"):
            select_migration_strength(x, w, grid, ratio=0.5)
        assert calls == {"fft_columns": 0}

    @pytest.mark.parametrize("entry", ["fixed", "auto", "search"])
    @pytest.mark.parametrize(
        "options, message",
        [
            (dict(ratio=0.5, residual_bits=1), "residual_bits must be an integer in"),
            (dict(ratio=0.5, residual_bits=9), "residual_bits must be an integer in"),
            (dict(ratio=0.5, metric="bogus"), "unknown metric"),
            (dict(groups=2, metric="bogus"), "unknown metric"),
            (dict(ratio=0.5, alpha=float("nan")), "alpha must be finite"),
            (dict(ratio=0.5, alpha=float("inf")), "alpha must be finite"),
            (dict(groups=2, alpha=float("nan")), "alpha must be finite"),
            (dict(ratio=0.5, alpha=10**400), "alpha must be finite"),
            (dict(ratio=0.5, residual_quant="gptq"), "unknown residual quantizer"),
            (dict(ratio=1.5), "ratio must lie in"),
            (dict(ratio=0.5, groups=2), "exactly one of ratio and groups"),
            (dict(ratio=0.5, residual_bits=4.9), "residual_bits must be an integer"),
            (dict(ratio=0.5, residual_bits="4"), "residual_bits must be an integer in"),
            (dict(ratio=0.5, residual_bits=None), "residual_bits must be an integer in"),
            (dict(ratio=0.5, alpha="1"), "alpha must be finite"),
            (dict(groups=2, alpha="1"), "alpha must be finite"),
            (dict(ratio="0.5"), "ratio must lie in"),
            (dict(groups="2"), "groups must be an integer"),
            (dict(ratio=True), "ratio must lie in"),
            (dict(groups=True), "groups must be an integer"),
            (dict(ratio=0.5, alpha=True), "alpha must be finite"),
            (dict(groups=2, alpha=np.bool_(True)), "alpha must be finite"),
        ],
        ids=[
            "bits-1", "bits-9", "metric", "metric-groups", "alpha-nan", "alpha-inf",
            "alpha-nan-groups", "alpha-past-float64", "quantizer", "ratio", "ratio-and-groups",
            "bits-4.9",
            "bits-str", "bits-none", "alpha-str", "alpha-str-groups", "ratio-str", "groups-str",
            "ratio-bool", "groups-bool", "alpha-bool", "alpha-numpy-bool",
        ],
    )
    def test_bad_option_rejected_before_any_compress(self, monkeypatch, entry, options, message):
        """Every compress option is checked before the first transform,
        whichever entry point takes it."""
        x = synth.outlier_activations(8, 16, seed=1)
        w = synth.smooth_decay_layer(16, 4, decay=1.5, seed=0)
        calls = _count(monkeypatch, (spectral, "fft_columns"))
        with pytest.raises(ValueError, match=message):
            _compress_via(entry, x, w, **options)
        assert calls == {"fft_columns": 0}

    @pytest.mark.parametrize("entry", ["fixed", "search"])
    @pytest.mark.parametrize("strength", [1.5, "lots", None, True, False, np.bool_(True), "0.5"])
    def test_bad_strength_rejected_before_any_compress(self, monkeypatch, entry, strength):
        """A fixed strength is checked like a grid, before the inputs."""
        calls = _count(monkeypatch, (spectral, "fft_columns"))
        with pytest.raises(ValueError, match=r"smoothing migration strength must lie in \[0, 1\]"):
            if entry == "fixed":
                compress_layer(np.ones((2, 3)), np.ones((4, 2)), ratio=0.5, smooth=strength)
            else:
                select_migration_strength(np.ones((2, 3)), np.ones((4, 2)), [strength], ratio=0.5)
        assert calls == {"fft_columns": 0}

    @pytest.mark.parametrize("entry", ["fixed", "auto", "search"])
    def test_misspelled_option_is_a_type_error(self, monkeypatch, entry):
        x = synth.outlier_activations(8, 16, seed=1)
        w = synth.smooth_decay_layer(16, 4, decay=1.5, seed=0)
        calls = _count(monkeypatch, (spectral, "fft_columns"))
        with pytest.raises(TypeError, match="ration"):
            _compress_via(entry, x, w, ration=0.5)
        assert calls == {"fft_columns": 0}

    def test_duplicate_strengths_compress_once(self, monkeypatch):
        x = synth.outlier_activations(8, 16, seed=1)
        w = synth.smooth_decay_layer(16, 4, decay=1.5, seed=0)
        calls = _count(monkeypatch, (spectral, "fft_columns"))
        layer = select_migration_strength(x, w, [0.5, 0.2, 0.5, 0.2], ratio=0.5)
        assert calls == {"fft_columns": 2}
        assert layer.smoothing.migration_strength in (0.2, 0.5)

    @pytest.mark.parametrize("smooth, candidates", [(0.5, 1), ("auto", len(DEFAULT_SMOOTH_GRID))])
    def test_search_repeats_only_per_strength_work(self, monkeypatch, smooth, candidates):
        """Each candidate transforms, truncates and rebuilds W' once; the
        report energies are taken once, for the returned layer. A fixed
        strength is a one-point search, and the search makes no
        `compress_layer` call of its own."""
        x = synth.outlier_activations(32, 16, seed=1)
        w = synth.smooth_decay_layer(16, 8, decay=1.5, seed=0)
        calls = _count(
            monkeypatch,
            (spectral, "fft_columns"),
            (spectral, "truncate_columns"),
            (spectral, "reconstruct_columns"),
            (spectral, "band_energies"),
            (pipeline, "compress_layer"),
            (pipeline, "select_migration_strength"),
        )
        pipeline.compress_layer(x, w, ratio=0.5, smooth=smooth)
        assert calls == {
            "fft_columns": candidates,
            "truncate_columns": candidates,
            "reconstruct_columns": candidates,
            "band_energies": 1,
            "compress_layer": 1,
            "select_migration_strength": 1,
        }

    @pytest.mark.parametrize(
        "scale, grid, units",
        [(1.0, DEFAULT_SMOOTH_GRID, (0,)), (1e200, (0.8, 0.9), (1072, 1206))],
    )
    def test_winner_energies_equal_a_fixed_strength_compress(self, scale, grid, units):
        """The energies the search returns, overflow unit included, are bit
        for bit those `compress_layer` gives at the picked strength, and
        those `spectral.band_energies` takes of the winner's smoothed weights
        (in units of the power of two at max|spectrum| past the float64
        range)."""
        x = synth.outlier_activations(32, 16, seed=1)
        w = synth.smooth_decay_layer(16, 8, decay=2.0, seed=0) * scale
        auto = select_migration_strength(x, w, grid, ratio=0.5)
        fixed = compress_layer(x, w, ratio=0.5, smooth=auto.smoothing.migration_strength)
        assert auto.energy_unit_log2 in units
        assert auto.energy_unit_log2 == fixed.energy_unit_log2
        assert auto.energy.shape == (3, 8)
        assert auto.energy.tobytes() == fixed.energy.tobytes()
        spec = spectral.fft_columns(auto.smoothing.lam[:, None] * w)
        unit = 0
        if scale != 1.0:
            spec, exp = pow2_units(np.abs(spec))
            unit = 2 * int(exp.item())
        reference, _ = spectral.band_energies(spec, auto.plan.k, 16)
        assert auto.energy_unit_log2 == unit
        assert auto.energy.tobytes() == reference.tobytes()


def _compress_via(entry, x, w, **options):
    """Compress at a fixed strength, with smooth="auto", or by a direct
    strength search."""
    if entry == "fixed":
        return compress_layer(x, w, smooth=0.5, **options)
    if entry == "auto":
        return compress_layer(x, w, **options)
    return select_migration_strength(x, w, [0.2, 0.5], **options)


def _count(monkeypatch, *functions):
    """Calls of each (module, name) function, counted by name as the test runs."""
    calls = {name: 0 for _, name in functions}
    for owner, name in functions:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestCompressLayer:
    def test_ratio_one_is_exact(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(20, 16))
        w = rng.normal(size=(16, 8))
        layer = compress_layer(x, w, ratio=1.0, smooth=0.5)
        w_hat = layer.smoothing.lam[:, None] * w
        assert np.abs(layer.low_freq_matrix() - w_hat).max() <= 1e-9
        assert np.abs(quant.dequantize(layer.residual)).max() <= 1e-9

    def test_zero_weights(self):
        layer = compress_layer(np.ones((4, 8)), np.zeros((8, 3)), ratio=0.5, smooth=0.5)
        np.testing.assert_array_equal(layer.spectra[:, 0], 0.0)
        np.testing.assert_array_equal(quant.dequantize(layer.residual), np.zeros((8, 3)))

    @pytest.mark.parametrize("budget", [{"ratio": 0.5}, {"groups": 2}])
    @pytest.mark.parametrize("residual_quant", ["rtn", "compensated"])
    @pytest.mark.parametrize("smooth", [0.5, "auto"])
    def test_zero_output_channels(self, monkeypatch, tmp_path, budget, residual_quant, smooth):
        """A (6, 0) layer compresses to an empty plan, spectra and residual,
        with zero errors, saves, loads and gives (tokens, 0) outputs in both
        forward modes; the allocation and the compensated quantizer take
        their empty-shape returns."""
        x = np.random.default_rng(14).normal(size=(5, 6))
        calls = _count(
            monkeypatch, (pipeline, "allocate"), (quant, "quantize_residual_compensated")
        )
        layer = compress_layer(
            x, np.zeros((6, 0)), smooth=smooth, residual_quant=residual_quant, **budget
        )
        candidates = 1 if smooth == 0.5 else len(DEFAULT_SMOOTH_GRID)
        assert calls == {
            "allocate": candidates,
            "quantize_residual_compensated": candidates * (residual_quant == "compensated"),
        }
        assert layer.plan.k.shape == (0,) and layer.spectra.shape == (0, 2)
        assert layer.residual.codes.shape == (6, 0) and layer.energy.shape == (3, 0)
        assert layer.forward_error == layer.truncation_error == layer.reconstruction_error == 0.0
        assert layer.achieved_error.shape == (0,)
        # Nothing was there to compensate, so nothing fell back.
        assert layer.residual.rtn_fallback is False
        sq.save_compressed_layer(layer, tmp_path)
        back = sq.load_compressed_layer(tmp_path)
        assert back.residual.rtn_fallback == layer.residual.rtn_fallback
        for lay in (layer, back):
            for bits in (None, 4):
                assert forward_approx(x, lay, bits).shape == (5, 0)

    def test_non_finite_or_wrong_ndim_input_is_named(self):
        x, w = np.ones((4, 8)), np.ones((8, 3))
        for bad_x, bad_w, message in (
            (np.where(np.eye(4, 8), np.nan, x), w, "x_calib contains non-finite values"),
            (x, np.where(np.eye(8, 3), np.inf, w), "w contains non-finite values"),
            (x[0], w, "x_calib must be 2-D"),
            (x, w[:, 0], "w must be 2-D"),
            # Neither text, bools, complex numbers nor objects are weights.
            (x, w.astype(str), "w must hold real numbers, got dtype <U"),
            (x, w > 0, "w must hold real numbers, got dtype bool"),
            (x, w + 1j, "w must hold real numbers, got dtype complex128"),
            (np.full((4, 8), None), w, "x_calib must hold real numbers, got dtype object"),
        ):
            with pytest.raises(ValueError, match=message):
                compress_layer(bad_x, bad_w, ratio=0.5, smooth=0.5)
        layer = compress_layer(x, w, ratio=0.5, smooth=0.5)
        for bits in (None, 4):
            with pytest.raises(ValueError, match="x must be 2-D"):
                forward_approx(x[0], layer, bits)
            with pytest.raises(ValueError, match="x contains non-finite values"):
                forward_approx(np.full((2, 8), np.nan), layer, bits)

    def test_groups_mode_fixed_k(self):
        x = np.random.default_rng(13).normal(size=(10, 32))
        w = np.random.default_rng(14).normal(size=(32, 5))
        layer = compress_layer(x, w, groups=7, smooth=0.5)
        np.testing.assert_array_equal(layer.plan.k, np.full(5, 7))

    @pytest.mark.parametrize(
        "c_in, c_out, groups", [(1, 3, 1), (7, 5, 2), (7, 49, 4), (768, 6, 9), (768, 3, 385)]
    )
    def test_groups_plan_is_the_even_split(self, c_in, c_out, groups):
        """`groups` spends groups * c_out bins through `allocate`; the plan is
        bit for bit k = groups, rho = k / sum(k), at the caller's alpha."""
        rng = np.random.default_rng(c_in + c_out)
        x, w = rng.normal(size=(4, c_in)), rng.normal(size=(c_in, c_out))
        layer = compress_layer(x, w, groups=groups, smooth=0.5, alpha=-2.5)
        k = np.full(c_out, groups, dtype=np.int64)
        np.testing.assert_array_equal(layer.plan.k, k)
        np.testing.assert_array_equal(layer.plan.rho, k / k.sum())
        assert layer.plan.total_budget == groups * c_out
        assert layer.plan.alpha == -2.5

    def test_even_split_over_shapes(self):
        """All-equal scores at a budget of g * c_out bins give k = g and
        rho = g / (g * c_out) bit for bit, for every c_out below 400."""
        for c_in in (1, 2, 7, 16, 100, 768, 1024):
            half = sq.half_spectrum_length(c_in)
            for groups in sorted({1, max(half // 3, 1), half}):
                for c_out in range(1, 400):
                    plan = sq.allocate(np.zeros(c_out), 1.0, groups * c_out, c_in)
                    k = np.full(c_out, groups, dtype=np.int64)
                    np.testing.assert_array_equal(plan.k, k)
                    np.testing.assert_array_equal(plan.rho, k / k.sum())

    def test_decomposition_identity_before_quantization(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(12, 16))
        w = rng.normal(size=(16, 6))
        layer = compress_layer(x, w, ratio=0.4, smooth=0.5)
        w_hat = layer.smoothing.lam[:, None] * w
        resid = w_hat - layer.low_freq_matrix()
        back = quant.dequantize(layer.residual)
        halfstep = layer.residual.deltas[None, :] / 2
        assert (np.abs(resid - back) <= halfstep * (1 + 1e-9) + 1e-300).all()

    def test_channel_tails_obey_bound_end_to_end(self):
        x = np.ones((4, 64))
        w = synth.smooth_decay_layer(64, 10, decay=2.0, seed=16)
        layer = compress_layer(x, w, ratio=0.3, smooth=0.0)
        w_hat = layer.smoothing.lam[:, None] * w
        achieved = np.linalg.norm(w_hat - layer.low_freq_matrix(), axis=0)
        total, retained, tail = layer.energy
        for j in range(10):
            assert achieved[j] <= np.sqrt(tail[j]) + 1e-9
            assert retained[j] + tail[j] == pytest.approx(total[j], rel=1e-9, abs=1e-300)

    def test_energy_is_not_stored(self, tmp_path):
        x = np.ones((4, 16))
        w = synth.smooth_decay_layer(16, 3, decay=2.0, seed=19)
        layer = compress_layer(x, w, ratio=0.5, smooth=0.5)
        assert layer.energy.shape == (3, 3)
        sq.save_compressed_layer(layer, tmp_path / "art")
        assert sq.load_compressed_layer(tmp_path / "art").energy is None

    def test_smooth_channels_meet_decay_bound(self):
        """Channels built with |X[m]| = C/m^2 keep their truncation tails
        under C^2 / ((2r-1)(k-1)^(2r-1))."""
        r = 2.0
        w = synth.smooth_decay_layer(64, 8, decay=r, seed=17)
        x = np.ones((4, 64))
        layer = compress_layer(x, w, ratio=0.25, smooth=0.0)
        for j in range(8):
            k = int(layer.plan.k[j])
            if k < 2:
                continue
            hs = sq.fft(w[:, j])
            c = np.abs(hs[1])
            tail_single = float((np.abs(hs[k:]) ** 2).sum())
            assert tail_single <= c**2 / ((2 * r - 1) * (k - 1) ** (2 * r - 1)) + 1e-12

    def test_budget_must_cover_channels(self):
        x = np.ones((2, 8))
        w = np.ones((8, 6))
        with pytest.raises(ValueError):
            compress_layer(x, w, ratio=0.01, smooth=0.5)

    def test_ratio_and_groups_mutually_exclusive(self):
        x, w = np.ones((2, 4)), np.ones((4, 2))
        with pytest.raises(ValueError):
            compress_layer(x, w, ratio=0.5, groups=2, smooth=0.5)
        with pytest.raises(ValueError):
            compress_layer(x, w, smooth=0.5)

    def test_numpy_float32_ratio_budget_is_floored_in_float64(self, tmp_path):
        """A float32 ratio is taken as its float64 value once: the plan keeps
        the floor(0.17499999701976776 * 8 * 65) = 90 bins a float64 floor
        gives, not the 91 of a float32 product, and save, which checks the
        recorded ratio against the plan, takes it."""
        rng = np.random.default_rng(40)
        x, w = rng.normal(size=(32, 128)), rng.normal(size=(128, 8))
        layer = compress_layer(x, w, ratio=np.float32(0.175), smooth=0.5)
        assert layer.plan.total_budget == int(layer.plan.k.sum()) == 90
        assert layer.plan.ratio == float(np.float32(0.175))
        sq.save_compressed_layer(layer, tmp_path)
        assert sq.load_compressed_layer(tmp_path).plan.total_budget == 90

    def test_fractional_groups_rejected(self):
        """groups=2.7 is a named error, not a silent 2 bins per channel."""
        x, w = np.ones((2, 8)), np.ones((8, 2))
        with pytest.raises(ValueError, match="groups must be an integer"):
            compress_layer(x, w, groups=2.7, smooth=0.5)

    def test_overflowing_alpha_is_named_error(self):
        """The softmax of alpha * score must not turn NaN into the plan."""
        w = synth.gaussian_matrix(64, 8, seed=1)
        x = synth.gaussian_matrix(32, 64, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="alpha=1e\\+308"):
                compress_layer(x, w, ratio=0.5, smooth=0.5, alpha=1e308)

    def test_compensated_residual_option(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(30, 16))
        w = rng.normal(size=(16, 6))
        layer = compress_layer(
            x, w, ratio=0.3, smooth=0.5, residual_quant="compensated"
        )
        assert not layer.residual.rtn_fallback


@st.composite
def _contract_cases(draw):
    """(x, w, compress options, forward input) over the finite-input grid:
    c_in from 1 to 106, c_out from 0 to 4, power-of-two scales 2^-1070 to
    2^1020, zeroed activation columns and weight rows, both quantizers,
    fixed and auto strengths. The forward input is the calibration set. At c_in = 106 the
    half-length transform is one 53-point Bluestein leaf."""
    c_in = draw(st.sampled_from([1, 2, 3, 5, 16, 53, 106]))
    c_out = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = np.ldexp(rng.normal(size=(draw(st.integers(1, 8)), c_in)), draw(st.integers(-1070, 1020)))
    w = np.ldexp(rng.normal(size=(c_in, c_out)), draw(st.integers(-1070, 1020)))
    x[:, draw(st.lists(st.booleans(), min_size=c_in, max_size=c_in))] = 0.0
    w[draw(st.lists(st.booleans(), min_size=c_in, max_size=c_in))] = 0.0
    options = dict(
        ratio=draw(st.sampled_from([0.5, 1.0])),
        smooth=draw(st.sampled_from(["auto", 0.0, 0.5, 1.0])),
        residual_bits=draw(st.integers(2, 8)),
        residual_quant=draw(st.sampled_from(pipeline.RESIDUAL_QUANTIZERS)),
    )
    return x, w, options, x


def _dead_channel_case():
    """A zero activation channel among live factors near 4e-246."""
    rng = np.random.default_rng(0)
    w = rng.normal(size=(16, 4)) * 1e296
    x = rng.normal(size=(8, 16)) * 1e-195
    x[:, 3] = 0.0
    return x, w, dict(ratio=1.0, smooth=0.5), x


def _overflowing_x_hat_case():
    """lambda near 1e-300 takes a forward input of 1e10 past the float64 range."""
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 16)) * 1e-300
    w = rng.normal(size=(16, 4)) * 1e300
    return x, w, dict(ratio=0.5, smooth=0.5), np.full((2, 16), 1e10)


def _overflowing_product_case():
    """X W past the float64 range, every input finite."""
    x = np.full((2, 4), 1e200)
    return x, np.full((4, 2), 1e200), dict(ratio=1.0, smooth=0.5), x


class TestForwardApprox:
    @settings(max_examples=60, deadline=None)
    @given(_contract_cases())
    @example(_dead_channel_case())
    @example(_overflowing_x_hat_case())
    @example(_overflowing_product_case())
    def test_finite_in_finite_out_or_named(self, case):
        """Finite inputs either compress to a layer whose stored arrays are
        finite and that save and load accept, or raise ValueError; the loaded
        layer's forward equals the in-memory one bit for bit, or both refuse
        the input with the same ValueError.

        Within a margin of the float64 range this is strict: where
        16 c_in^2 max(|x| @ |w|) is finite, compress warns of nothing and
        raises only before any transform, its layer's forward error is
        finite, and the forward is finite and warns of nothing. The margin
        bounds the forward of any compressed layer: smoothing puts every
        cross term max|x_hat_i| max|w_hat_j| at or below
        max_j max|X_j| max|W_j| <= max(|x| @ |w|), the transform spreads a
        column over at most c_in rows, and W' + dequant(R) and the
        quantized x_hat stay within a few times their sources. Past it, a
        layer can be finite while its output is not."""
        x, w, options, x_fwd = case
        c_in = w.shape[0]

        def in_margin(a):
            with np.errstate(over="ignore", invalid="ignore"):
                return np.isfinite(16 * c_in**2 * (np.abs(a) @ np.abs(w))).all()

        strict = in_margin(x)
        with warnings.catch_warnings(), mock.patch.object(
            spectral, "fft_columns", wraps=spectral.fft_columns
        ) as fft:
            if not strict:
                warnings.simplefilter("ignore")
            try:
                layer = compress_layer(x, w, **options)
            except ValueError:
                assert fft.call_count == 0 or not strict
                return
        arrays = [
            layer.smoothing.lam, layer.spectra, layer.plan.rho, layer.residual.deltas,
            layer.residual.zero_points, layer.energy, layer.low_freq_matrix(),
        ]
        assert all(np.isfinite(a).all() for a in arrays)
        assert np.isfinite(layer.forward_error) or not strict
        with tempfile.TemporaryDirectory() as d:
            sq.save_compressed_layer(layer, d)
            back = sq.load_compressed_layer(d)
        bounded = in_margin(x_fwd)
        for bits in (None, 4):
            outs = []
            for lay in (layer, back):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        outs.append(forward_approx(x_fwd, lay, bits).tobytes())
                    except ValueError as exc:
                        outs.append(str(exc))
                if bounded:
                    assert not caught, (bits, [str(c.message) for c in caught])
            assert outs[0] == outs[1], bits
            if bounded:
                assert isinstance(outs[0], bytes), outs[0]
                assert np.isfinite(np.frombuffer(outs[0])).all(), bits

    def test_full_ratio_high_precision_is_near_exact(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(20, 16))
        w = rng.normal(size=(16, 8))
        layer = compress_layer(x, w, ratio=1.0, smooth=0.5)
        out = forward_approx(x, layer, activation_bits=None)
        ref = x @ w
        assert np.linalg.norm(out - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_unquantized_activations_keep_the_dense_residual_branch(self):
        """Unquantized, the forward is one float64 GEMM against W' + dequant(R)."""
        rng = np.random.default_rng(23)
        x = rng.normal(size=(12, 16)) * rng.uniform(0.1, 10, size=16)
        layer = compress_layer(x, rng.normal(size=(16, 5)), ratio=0.4, smooth=0.5)
        x_hat = x / layer.smoothing.lam
        dense = x_hat @ (layer.low_freq_matrix() + quant.dequantize(layer.residual))
        np.testing.assert_array_equal(forward_approx(x, layer, None), dense)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_quantized_residual_branch_is_the_dequantized_product(self, bits):
        """The code GEMM moves the forward only at rounding level: less the
        W' branch computed as documented, the forward is the dequantized
        residual-branch product."""
        x, layer = self._residual_fixture(bits)
        x_hat = x / layer.smoothing.lam
        x_deq = quant.dequantize(quant.quantize(x_hat.T, bits)).T
        r_deq = quant.dequantize(layer.residual)
        w_low = layer.low_freq_matrix()
        code_branch = forward_approx(x, layer, bits) - _float32_w_low_branch(x_hat, w_low)
        scale = np.abs(x_hat) @ np.abs(w_low) + np.abs(x_deq) @ np.abs(r_deq)
        assert (np.abs(code_branch - x_deq @ r_deq) <= 1e-12 * scale).all()

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_w_low_branch_rounds_at_float32_level(self, bits):
        """Against the float64 x_hat W', the served W' branch is off by at
        most gamma_(c_in + 2) |x_hat| |W'| in float32's unit roundoff
        u = 2^-24: each operand entry rounds once to float32 and each dot
        product of c_in terms accumulates in float32; the power-of-two
        scalings are exact. The float64 terms get the 1e-12 bound above."""
        x, layer = self._residual_fixture(bits)
        x_hat = x / layer.smoothing.lam
        x_deq = quant.dequantize(quant.quantize(x_hat.T, bits)).T
        r_deq = quant.dequantize(layer.residual)
        w_low = layer.low_freq_matrix()
        dense = x_hat @ w_low + x_deq @ r_deq
        n_u = (layer.c_in + 2) * 2.0**-24
        w_low_scale = np.abs(x_hat) @ np.abs(w_low)
        f64_scale = w_low_scale + np.abs(x_deq) @ np.abs(r_deq)
        bound = n_u / (1 - n_u) * w_low_scale + 1e-12 * f64_scale
        err = np.abs(forward_approx(x, layer, bits) - dense)
        assert (err <= bound).all()
        assert err.max() > 1e-12 * w_low_scale.max()  # the branch is float32, not float64

    @staticmethod
    def _residual_fixture(bits):
        rng = np.random.default_rng(24 + bits)
        x = rng.normal(size=(12, 32)) * rng.uniform(0.1, 10, size=32)
        return x, compress_layer(x, rng.normal(size=(32, 6)), ratio=0.3, smooth=0.5)

    @staticmethod
    def _decay_fixture():
        """32 outlier activation rows and a 16x8 smooth-decay layer."""
        x = synth.outlier_activations(32, 16, seed=1)
        return x, synth.smooth_decay_layer(16, 8, decay=2.0, seed=0)

    @pytest.mark.parametrize("a", [600, -600])
    def test_power_of_two_scale_passes_through_exactly(self, a):
        """The served forward is scale-equivariant by powers of two, bit for
        bit: the float32 branch runs in power-of-two units and the per-token
        quantizer's codes do not depend on the scale."""
        x, w = self._decay_fixture()
        layer = compress_layer(x, w, ratio=0.5, smooth=0.5)
        y = forward_approx(x, layer, 4)
        assert forward_approx(np.ldexp(x, a), layer, 4).tobytes() == np.ldexp(y, a).tobytes()

    @pytest.mark.parametrize("scale", ["w1e200", "x1e200", "x1e-200"])
    def test_served_forward_at_extreme_scales(self, scale):
        """Far from 1 the served forward stays finite, warns of nothing and
        keeps the unscaled layer's relative error; a bare float32 cast of
        x_hat and W' overflows at 1e200 and flushes x_hat to zero at
        1e-200."""
        x, w = self._decay_fixture()

        def rel_err(x, w):
            layer = compress_layer(x, w, ratio=0.5, smooth=0.5)
            ref = x @ w
            return float(norm(forward_approx(x, layer, 4) - ref) / norm(ref))

        factor = 1e200 if scale.endswith("e200") else 1e-200
        xs, ws = (x * factor, w) if scale[0] == "x" else (x, w * factor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            err = rel_err(xs, ws)
        assert np.isfinite(err)
        assert err == pytest.approx(rel_err(x, w), rel=1e-6)
        assert err == pytest.approx(0.0117, abs=5e-5)

    def test_served_forward_near_the_float64_limit_is_finite(self):
        """X W = 3.54e306 fits. The residual branch scales its code product
        by both quantizers' steps at once, so the served forward is finite
        and within 2% of X W; scaling by the activation steps first
        overflowed to inf."""
        x = np.array([[0.126, -0.132, 0.640]])
        w = np.array([[1.18e306], [-6.02e306], [4.06e306]])
        layer = compress_layer(x, w, ratio=0.5, smooth=0.0, residual_bits=7)
        y = forward_approx(x, layer, 4)
        assert np.isfinite(y).all()
        assert y[0, 0] == pytest.approx((x @ w)[0, 0], rel=0.02)

    def test_served_loaded_layer_holds_w_low_once_in_float32(self, tmp_path):
        """A layer that served only quantized forwards holds W' once, as its
        float32 operand, loaded or as compress returned it. After serving,
        W' and the unquantized forward are rebuilt with their pre-serve bits,
        the ones compress scored the layer with, and neither is kept."""
        x, w = self._decay_fixture()
        layer = compress_layer(x, w, ratio=0.5, smooth=0.5)
        scored = layer.low_freq_matrix().tobytes()
        unquantized = forward_approx(x, layer, None)
        assert layer.forward_error == float(norm(x @ w - unquantized))
        sq.save_compressed_layer(layer, tmp_path)
        back = sq.load_compressed_layer(tmp_path)
        y = forward_approx(x, back, 4)
        w32, exp = back._w_low_f32
        assert w32.dtype == np.float32 and w32.shape == (16, 8) and exp.shape == (1, 8)
        assert y.tobytes() == forward_approx(x, layer, 4).tobytes()
        for served in (layer, back):
            assert _dense_float64(served) == []
            assert served.low_freq_matrix().tobytes() == scored
            assert forward_approx(x, served, None).tobytes() == unquantized.tobytes()
            assert _dense_float64(served) == []

    @pytest.mark.parametrize("budget", [{"ratio": 0.4}, {"groups": 3}])
    @pytest.mark.parametrize("residual_quant", ["rtn", "compensated"])
    @pytest.mark.parametrize("smooth", [0.5, "auto"])
    def test_no_layer_holds_a_float64_w_low(self, budget, residual_quant, smooth):
        """Right after compress returns, after the unquantized forward and
        after a serve, no array reachable from the layer is a float64
        (c_in, c_out) matrix: the search's W' dies with the search."""
        x, w = self._decay_fixture()
        layer = compress_layer(x, w, smooth=smooth, residual_quant=residual_quant, **budget)
        assert _dense_float64(layer) == []
        forward_approx(x, layer, None)
        assert _dense_float64(layer) == []
        forward_approx(x, layer, 4)
        assert layer._w_low_f32 is not None and _dense_float64(layer) == []

    @pytest.mark.parametrize("bits", [4, None])
    def test_output_past_the_float64_range_is_non_finite_without_a_warning(self, bits):
        """Where x_hat is finite but the product is not, either mode returns
        a non-finite output and warns of nothing; the served one holds NaN,
        where its two branches overflow with opposite signs."""
        x = synth.outlier_activations(64, 16, seed=2)
        w = synth.smooth_decay_layer(16, 8, decay=1.5, seed=1) * 1e200
        layer = compress_layer(x, w, ratio=0.5, smooth=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = forward_approx(x * 1e200, layer, bits)
        assert not np.isfinite(y).all()
        assert np.isnan(y).any() == (bits == 4)

    def test_beats_naive_w4a4_on_outlier_instance(self):
        w = synth.smooth_decay_layer(64, 64, decay=1.0, seed=21)
        x = synth.outlier_activations(32, 64, magnitude=100.0, seed=22)
        ref = x @ w
        layer = compress_layer(x, w, groups=8, smooth=0.5)
        ours = np.linalg.norm(forward_approx(x, layer, 4) - ref)
        naive = np.linalg.norm(
            quant.dequantize(quant.quantize(x.T, 4)).T
            @ quant.dequantize(quant.quantize(w, 4))
            - ref
        )
        assert ours < naive

    def test_zero_input(self):
        layer = compress_layer(np.ones((4, 8)), np.ones((8, 3)), ratio=0.5, smooth=0.5)
        np.testing.assert_array_equal(
            forward_approx(np.zeros((5, 8)), layer, 4), np.zeros((5, 3))
        )

    def test_shape_and_bits_validation(self):
        layer = compress_layer(np.ones((2, 4)), np.ones((4, 2)), ratio=1.0, smooth=0.5)
        with pytest.raises(ValueError):
            forward_approx(np.ones((2, 5)), layer, 4)
        for bits in (1, 9, 17):
            with pytest.raises(ValueError, match="activation_bits must be an integer in"):
                forward_approx(np.ones((2, 4)), layer, bits)

    def test_activations_past_the_float64_range_after_smoothing_are_named(self):
        """lambda near 1e-300 takes x = 1e10 past the float64 range: the
        served and the unquantized forward refuse it by name, without a
        warning."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(8, 16)) * 1e-300
        layer = compress_layer(x, rng.normal(size=(16, 4)) * 1e300, ratio=0.5, smooth=0.5)
        assert layer.smoothing.lam.max() < 1e-290
        for bits in (4, None):
            with pytest.raises(ValueError, match=r"x / lambda contains non-finite values"):
                forward_approx(np.full((2, 16), 1e10), layer, bits)

    @pytest.mark.parametrize("bits", [1, 9, 4.5, "4"])
    def test_bits_checked_before_any_gemm(self, monkeypatch, tmp_path, bits):
        x, w = self._decay_fixture()
        sq.save_compressed_layer(compress_layer(x, w, ratio=0.5, smooth=0.5), tmp_path)
        back = sq.load_compressed_layer(tmp_path)
        layer_cls = pipeline.CompressedLayer
        calls = _count(monkeypatch, (layer_cls, "low_freq_matrix"), (quant, "matmul"))
        with pytest.raises(ValueError, match="activation_bits must"):
            forward_approx(x, back, bits)
        assert calls == {"low_freq_matrix": 0, "matmul": 0}
        assert back._w_low_f32 is None and _dense_float64(back) == []

    def test_long_batch_is_served_tile_by_tile(self, monkeypatch):
        """389 rows, three full tiles and a partial one, give the bits of
        their TILE-row tiles served one at a time, each in one
        residual-branch `quant.matmul`."""
        assert pipeline.TILE == 128
        x = synth.outlier_activations(389, 64, magnitude=100.0, seed=5)
        layer = compress_layer(
            x[:96], synth.smooth_decay_layer(64, 24, decay=1.5, seed=6), ratio=0.3, smooth=0.5
        )
        tiles = [forward_approx(x[t : t + 128], layer, 4) for t in range(0, 389, 128)]
        calls = _count(monkeypatch, (quant, "matmul"))
        assert forward_approx(x, layer, 4).tobytes() == np.vstack(tiles).tobytes()
        assert calls == {"matmul": 4}


def _dense_float64(layer):
    """Every float64 (c_in, c_out) array reachable from `layer`, through its
    attributes, containers and array bases."""
    found, seen, todo = [], set(), [layer]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.dtype == np.float64 and obj.shape == (layer.c_in, layer.c_out):
                found.append(obj)
            todo.append(obj.base)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif hasattr(obj, "__dict__"):
            todo.extend(vars(obj).values())
    return found


def _float32_w_low_branch(x_hat, w_low):
    """x_hat W' as `forward_approx` documents its served W' branch: rows of
    x_hat and columns of W' in power-of-two units, one float32 GEMM, the
    product scaled back in float64."""
    row = np.frexp(np.abs(x_hat).max(axis=1, keepdims=True))[1]
    col = np.frexp(np.abs(w_low).max(axis=0, keepdims=True))[1]
    product = np.ldexp(x_hat, -row).astype(np.float32) @ np.ldexp(w_low, -col).astype(np.float32)
    return np.ldexp(product.astype(np.float64), row + col)


def test_records_compare_by_identity():
    """Each record equals itself only: two records with the same fields
    compare unequal, and comparing them raises nothing."""
    x, w = TestForwardApprox._decay_fixture()
    a, b = (compress_layer(x, w, ratio=0.5, smooth=0.5) for _ in range(2))
    (ca,), (cb,) = (compare_budgets(w, [0.5]) for _ in range(2))
    pairs = [(a, b), (a.smoothing, b.smoothing), (a.plan, b.plan), (a.residual, b.residual), (ca, cb)]
    for one, other in pairs:
        assert (one == other) is False and (one != other) is True
        assert one == one


class TestSvdBaseline:
    """The budget-matched truncated SVD side of `compare_budgets`."""

    def test_full_budget_is_exact(self):
        w = np.random.default_rng(24).normal(size=(4, 1))
        (rec,) = compare_budgets(w, [1.0])
        assert rec.k_svd == 1
        assert rec.err_svd <= 1e-9

    def test_rank_one_input(self):
        rng = np.random.default_rng(25)
        w = np.outer(rng.normal(size=8), rng.normal(size=6))
        one, full = compare_budgets(w, [0.3, 1.0])
        assert one.k_svd == 1
        assert one.err_svd <= 1e-9
        assert full.err_svd <= 1e-9

    def test_tail_matches_jacobi_oracle(self):
        w = np.random.default_rng(26).normal(size=(8, 8))
        (rec,) = compare_budgets(w, [0.7])
        assert rec.k_svd == 3
        sv = jacobi_singular_values(w)
        assert rec.err_svd**2 == pytest.approx(float((sv[3:] ** 2).sum()), rel=1e-9)

    def test_budget_too_small_rejected(self, monkeypatch):
        # 2 * 6 spectral reals buy no triplet of 64 + 2 + 1, which is known
        # from the budget alone, before the transform and the SVD.
        calls = _count(monkeypatch, (spectral, "fft_columns"), (np.linalg, "svd"))
        with pytest.raises(ValueError, match="ratio 0.1: budget 12 below one singular triplet"):
            compare_budgets(np.ones((64, 2)), [1.0, 0.1])
        assert calls == {"fft_columns": 0, "svd": 0}


class TestCompareBudgets:
    def test_decay_layer_spectral_wins(self):
        w = synth.smooth_decay_layer(64, 32, decay=2.0, seed=27)
        (rec,) = compare_budgets(w, [0.2])
        assert rec.err_spectral < rec.err_svd
        assert 0 <= rec.budget_slack < 64 + 32 + 1
        assert rec.b_spectral == 2 * int(rec.k_per_channel.sum())
        assert rec.b_svd == rec.k_svd * (64 + 32 + 1)

    def test_rank_one_nonsmooth_rows_svd_wins(self):
        rng = np.random.default_rng(28)
        w = np.outer(rng.normal(size=64), rng.normal(size=32))
        (rec,) = compare_budgets(w, [0.2])
        assert rec.err_svd <= 1e-9
        assert rec.err_spectral > rec.err_svd

    def test_zero_matrix_both_zero(self):
        (rec,) = compare_budgets(np.zeros((32, 16)), [0.3])
        assert rec.err_spectral == 0.0
        assert rec.err_svd <= 1e-12

    def test_tail_decomposition_matches_total(self):
        """The summed tail energies are the squared error of the W' rebuilt
        from the stored bins."""
        w = synth.smooth_decay_layer(32, 16, decay=1.5, seed=29)
        (rec,) = compare_budgets(w, [0.25])
        ((_, err_rebuilt, _),) = compare_budgets_rebuilt(w, [0.25])
        assert err_rebuilt**2 == pytest.approx(rec.err_spectral**2, rel=1e-9)

    @pytest.mark.parametrize(
        "c_in, c_out, seed", [(64, 32, 40), (48, 12, 41), (33, 7, 42), (24, 40, 43)]
    )
    def test_rows_match_rebuilt_matrices(self, c_in, c_out, seed):
        """Errors read off the tail energies and the trailing singular values
        equal the norms of the rebuilt approximations' errors."""
        rng = np.random.default_rng(seed)
        w = synth.smooth_decay_layer(c_in, c_out, decay=1.5, seed=seed)
        w += 0.1 * rng.normal(size=w.shape)
        ratios = [0.3, 0.5, 0.8, 1.0]
        rows = compare_budgets(w, ratios)
        tol = 1e-12 * np.linalg.norm(w)
        for rec, (k_svd, err_spectral, err_svd) in zip(rows, compare_budgets_rebuilt(w, ratios)):
            assert rec.k_svd == k_svd
            assert abs(rec.err_spectral - err_spectral) <= tol
            assert abs(rec.err_svd - err_svd) <= tol
        assert rows[-1].err_spectral == 0.0

    def test_sweep_rows_equal_single_ratio_calls(self):
        w = synth.smooth_decay_layer(48, 12, decay=1.5, seed=30)
        sweep = compare_budgets(w, [0.2, 0.3, 0.5])
        for rec in sweep:
            (alone,) = compare_budgets(w, [rec.ratio])
            for name in ("budget_bins", "b_spectral", "b_svd", "k_svd", "err_spectral", "err_svd"):
                assert getattr(rec, name) == getattr(alone, name)
            np.testing.assert_array_equal(rec.k_per_channel, alone.k_per_channel)

    def test_budget_rule_shared_with_compress(self):
        w = synth.smooth_decay_layer(64, 8, decay=1.5, seed=31)
        x = np.ones((4, 64))
        for ratio in (0.0, -0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="ratio must lie in"):
                compare_budgets(w, [0.2, ratio])
            with pytest.raises(ValueError, match="ratio must lie in"):
                compress_layer(x, w, ratio=ratio, smooth=0.5)
        (rec,) = compare_budgets(w, [1.0])
        layer = compress_layer(x, w, ratio=1.0, smooth=0.5)
        assert rec.budget_bins == layer.plan.total_budget == 8 * 33
        with pytest.raises(ValueError, match="one retained bin per channel"):
            compare_budgets(w, [0.01])

    def test_ratios_must_be_a_sequence(self, monkeypatch):
        """`ratios` is a 1-D sequence, refused by name before the transform
        otherwise (a float, a 0-d array, a generator, a 2-D list, text),
        where `len` raised a bare TypeError; each element keeps
        `bin_budget`'s rule, so a bool is no ratio."""
        w = synth.smooth_decay_layer(16, 4, decay=1.5, seed=0)
        calls = _count(monkeypatch, (spectral, "fft_columns"), (np.linalg, "svd"))
        for ratios in (0.5, np.array(0.5), (r for r in [0.2, 0.5]), [[0.2, 0.5]], "0.5"):
            with pytest.raises(ValueError, match="ratios must be a 1-D sequence of ratios, got "):
                compare_budgets(w, ratios)
        with pytest.raises(ValueError, match="ratio must lie in"):
            compare_budgets(w, [0.2, True])
        assert calls == {"fft_columns": 0, "svd": 0}
        (one,) = compare_budgets(w, np.array([0.5]))
        assert one.ratio == 0.5 and type(one.ratio) is float
        for name in ("budget_bins", "err_spectral", "err_svd"):
            assert getattr(one, name) == getattr(compare_budgets(w, [0.5])[0], name)

    def test_empty_sweep_rejected_before_transform_and_svd(self, monkeypatch):
        w = synth.smooth_decay_layer(16, 4, decay=1.5, seed=0)
        calls = _count(monkeypatch, (spectral, "fft_columns"), (np.linalg, "svd"))
        with pytest.raises(ValueError, match="ratios must be non-empty"):
            compare_budgets(w, [])
        assert calls == {"fft_columns": 0, "svd": 0}

    @pytest.mark.parametrize(
        "options, message",
        [
            (dict(metric="bogus"), "unknown metric"),
            (dict(alpha=float("nan")), "alpha must be finite"),
            (dict(alpha=float("inf")), "alpha must be finite"),
        ],
        ids=["metric", "alpha-nan", "alpha-inf"],
    )
    def test_bad_option_rejected_before_transform_and_svd(self, monkeypatch, options, message):
        w = synth.smooth_decay_layer(16, 4, decay=1.5, seed=0)
        calls = _count(monkeypatch, (spectral, "fft_columns"), (np.linalg, "svd"))
        with pytest.raises(ValueError, match=message):
            compare_budgets(w, [0.5], **options)
        assert calls == {"fft_columns": 0, "svd": 0}
