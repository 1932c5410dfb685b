"""Smoothing, layer compression, the two-branch forward, and baselines."""

import warnings

import numpy as np
import pytest

import specquant as sq
from specquant import quant, synth
from specquant.pipeline import (
    DEFAULT_SMOOTH_GRID,
    apply_smoothing,
    compare_budgets,
    compress_layer,
    compute_smoothing,
    forward_approx,
    select_migration_strength,
)

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

    def test_zero_activation_channel_untouched(self):
        x = np.random.default_rng(4).normal(size=(10, 4))
        x[:, 2] = 0.0
        w = np.random.default_rng(5).normal(size=(4, 3))
        f = compute_smoothing(x, w, 0.5)
        assert f.lam[2] == 1.0
        assert (f.lam > 0).all() and np.isfinite(f.lam).all()

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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_smoothing(np.ones((3, 4)), np.ones((5, 2)), 0.5)
        with pytest.raises(ValueError):
            compute_smoothing(np.ones((3, 4)), np.ones((4, 2)), 1.5)


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

    def test_tie_breaks_to_smallest(self):
        # Zero weights make every strength equivalent (loss identically 0).
        x = np.ones((4, 4))
        w = np.zeros((4, 2))
        layer = select_migration_strength(x, w, [0.9, 0.5, 0.2], ratio=0.5)
        assert layer.smoothing.migration_strength == 0.2


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


class TestForwardApprox:
    def test_full_ratio_high_precision_is_near_exact(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(20, 16))
        w = rng.normal(size=(16, 8))
        layer = compress_layer(x, w, ratio=1.0, smooth=0.5)
        out = forward_approx(x, layer, activation_bits=None)
        ref = x @ w
        assert np.linalg.norm(out - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_beats_naive_w4a4_on_outlier_instance(self):
        w = synth.smooth_decay_layer(64, 64, decay=1.0, seed=21)
        x = synth.outlier_activations(32, 64, magnitude=100.0, seed=22)
        ref = x @ w
        layer = compress_layer(x, w, groups=8, smooth=0.5)
        ours = np.linalg.norm(forward_approx(x, layer, 4) - ref)
        naive = np.linalg.norm(
            quant.dequantize(quant.quantize(x, 4, "per_token"))
            @ quant.dequantize(quant.quantize(w, 4, "per_channel"))
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
            with pytest.raises(ValueError, match="bits must lie in"):
                forward_approx(np.ones((2, 4)), layer, bits)


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

    def test_budget_too_small_rejected(self):
        # 2 * 6 spectral reals buy no triplet of 64 + 2 + 1.
        with pytest.raises(ValueError, match="singular triplet"):
            compare_budgets(np.ones((64, 2)), [0.1])


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
        assert err_rebuilt**2 == pytest.approx(float(rec.channel_tail_energy.sum()), rel=1e-9)

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
            np.testing.assert_array_equal(rec.channel_tail_energy, alone.channel_tail_energy)

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
