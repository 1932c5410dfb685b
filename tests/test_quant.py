"""Uniform quantizer and error-compensated residual quantizer contracts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specquant import quant, synth
from specquant.pipeline import apply_smoothing, compress_layer
from specquant.quant import (
    QuantizedTensor,
    dequantize,
    matmul,
    quantize,
    quantize_residual_compensated,
)

from oracles import best_weighted_code_error, compensated_codes_downdate


def _weighted_error(q, r, x):
    """Per-channel ||X (r - dequant(q))|| with X and each channel rescaled by
    powers of two (exact), so that no input scale overflows the objective."""
    diff = np.ldexp(r - dequantize(q), -np.frexp(q.deltas)[1])
    x = np.ldexp(x, -np.frexp(np.abs(x).max())[1])
    return np.linalg.norm(x @ diff, axis=0)


def _slice_params(values, bits):
    """(delta, zero point) `quantize` picks for one slice of values."""
    q = quantize(np.array([values], dtype=np.float64), bits, "per_token")
    return q.deltas[0], q.zero_points[0]


class TestComputeParams:
    def test_symmetric_slice(self):
        delta, zp = _slice_params([-1.0, 0.0, 1.0], 2)
        assert delta == pytest.approx(2.0 / 3.0)
        assert zp == pytest.approx(1.5)

    def test_constant_slice_degenerate_convention(self):
        delta, zp = _slice_params([5.0, 5.0, 5.0], 3)
        assert delta == 1.0
        assert zp == -5.0

    def test_range_equal_to_code_range(self):
        delta, zp = _slice_params([0.0, 15.0], 4)
        assert delta == pytest.approx(1.0)
        assert zp == pytest.approx(0.0)

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError):
            _slice_params([], 4)

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            _slice_params([0.0, 1.0], 1)
        with pytest.raises(ValueError):
            _slice_params([0.0, 1.0], 9)


class TestQuantizeDequantize:
    def test_worked_example_half_away_rounding(self):
        # x/delta + z = [0, 1.5, 3]; 1.5 rounds away from zero to 2.
        q = quantize(np.array([[-1.0, 0.0, 1.0]]), 2, "per_token")
        np.testing.assert_array_equal(q.codes, [[0, 2, 3]])

    def test_dequantize_worked_example(self):
        q = QuantizedTensor(
            codes=np.array([[0, 2, 3]], dtype=np.uint8),
            bits=2,
            granularity="per_token",
            deltas=np.array([2.0 / 3.0]),
            zero_points=np.array([1.5]),
            rows=1,
            cols=3,
        )
        np.testing.assert_allclose(dequantize(q), [[-1.0, 1.0 / 3.0, 1.0]], rtol=1e-15)

    def test_zeros_stay_exactly_zero(self):
        q = quantize(np.zeros((3, 4)), 4, "per_token")
        assert (q.codes == q.codes[0, 0]).all()
        np.testing.assert_array_equal(dequantize(q), np.zeros((3, 4)))

    def test_constant_matrix_restored_exactly(self):
        x = np.full((2, 3), 5.0)
        np.testing.assert_array_equal(dequantize(quantize(x, 4, "per_channel")), x)

    @pytest.mark.parametrize("granularity", ["per_token", "per_channel"])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_round_trip_within_half_step(self, bits, granularity):
        rng = np.random.default_rng(bits)
        for _ in range(25):
            x = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-3, 4)
            q = quantize(x, bits, granularity)
            back = dequantize(q)
            if granularity == "per_token":
                d = q.deltas[:, None]
            else:
                d = q.deltas[None, :]
            assert (np.abs(back - x) <= d / 2 * (1 + 1e-9) + 1e-300).all()
            assert q.codes.max() <= 2**bits - 1

    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, width=64),
            min_size=1,
            max_size=24,
        ),
        st.sampled_from([2, 3, 4, 5, 6, 7, 8]),
    )
    @settings(max_examples=200, deadline=None)
    @example([0.0, 5e-324], 4)  # span underflows: delta would be 0
    @example([-1.7e308, 1.7e308], 4)  # span overflows: delta would be inf
    # Ends at the float64 limit: (code - z) * delta must not round past it.
    @example([-1.7976931348623157e308, 1.7976931348623157e308], 2)
    @example([0.0, 1.7976931348623157e308], 8)
    @example([-1.7976931348623157e308, 0.0], 2)
    def test_round_trip_property(self, values, bits):
        x = np.array([values])
        q = quantize(x, bits, "per_token")
        back = dequantize(q)
        tol = q.deltas[0] / 2 * (1 + 1e-9) + 1e-300
        assert (np.abs(back - x) <= tol).all()
        assert q.codes.max() <= 2**bits - 1

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12),
        st.sampled_from([2, 3, 4, 5, 6, 7, 8]),
        st.sampled_from(["per_token", "per_channel"]),
    )
    @settings(max_examples=200, deadline=None)
    @example([-1.7976931348623157e308, 1.7976931348623157e308], 2, "per_token")
    @example([0.0, 1.7976931348623157e308], 8, "per_channel")
    @example([-1.7976931348623157e308, 0.0, 5e-324], 4, "per_channel")
    def test_codes_are_the_literal_rounding(self, values, bits, granularity):
        """The in-place encoder computes floor(clip(x / d + z, 0, qmax) + 0.5)."""
        x = np.array([values, values[::-1]])
        q = quantize(x, bits, granularity)
        axis = 1 if granularity == "per_token" else 0
        d = np.expand_dims(q.deltas, axis)
        z = np.expand_dims(q.zero_points, axis)
        literal = np.floor(np.clip(x / d + z, 0, 2**bits - 1) + 0.5)
        np.testing.assert_array_equal(q.codes, literal)

    def test_ends_at_float64_limit_dequantize_finite(self):
        big = np.finfo(np.float64).max
        for values in ([-big, big], [0.0, big], [-big, 0.0], [-big, big / 2], [1e308, big]):
            x = np.array([values])
            for bits in range(2, 9):
                q = quantize(x, bits, "per_token")
                ends = dequantize(QuantizedTensor(
                    np.array([[0, 2**bits - 1]]), bits, "per_token", q.deltas, q.zero_points, 1, 2
                ))
                assert np.isfinite(ends).all(), (values, bits)
                assert (np.abs(dequantize(q) - x) <= q.deltas[0] / 2).all()

    def test_codes_idempotent_under_requantization(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.normal(size=(6, 4)) * 50 + rng.normal() * 100
            q1 = quantize(x, 4, "per_channel")
            q2 = quantize(dequantize(q1), 4, "per_channel")
            np.testing.assert_array_equal(q1.codes, q2.codes)

    def test_outliers_still_land_in_range(self):
        x = np.array([[1e12, -1e12, 0.0, 1e-12]])
        for bits in (2, 8):
            q = quantize(x, bits, "per_token")
            assert q.codes.min() >= 0 and q.codes.max() <= 2**bits - 1

    def test_partition_axes(self):
        # Tokens are rows, channels are columns.
        x = np.array([[0.0, 100.0], [1.0, 2.0]])
        per_token = quantize(x, 4, "per_token")
        assert per_token.deltas.size == 2
        assert per_token.deltas[0] == pytest.approx(100.0 / 15.0)
        assert per_token.deltas[1] == pytest.approx(1.0 / 15.0)
        per_channel = quantize(x, 4, "per_channel")
        assert per_channel.deltas.size == 2
        assert per_channel.deltas[0] == pytest.approx(1.0 / 15.0)
        assert per_channel.deltas[1] == pytest.approx(98.0 / 15.0)

    def test_unknown_granularity_rejected(self):
        for granularity in ("per_tensor", "per_row"):
            with pytest.raises(ValueError, match="unknown granularity"):
                quantize(np.ones((2, 3)), 4, granularity)

    def test_empty_per_channel_allowed(self):
        q = quantize(np.zeros((4, 0)), 4, "per_channel")
        assert q.codes.shape == (4, 0)
        assert q.deltas.size == 0


def _codes(codes, bits, granularity):
    """A tensor of the given codes, unit steps and zero offsets."""
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.shape[0] if granularity == "per_token" else codes.shape[1]
    return QuantizedTensor(codes, bits, granularity, np.ones(n), np.zeros(n), *codes.shape)


@st.composite
def _operand(draw, rows, cols, granularity):
    """A quantized matrix: entries from a few decades, zeros among them, each
    slice shifted by an offset that can make it one-sided."""
    n = rows if granularity == "per_token" else cols
    values = draw(st.lists(
        st.just(0.0) | st.floats(-1e3, 1e3), min_size=rows * cols, max_size=rows * cols
    ))
    offsets = draw(st.lists(
        st.sampled_from([0.0, 1e3, -1e3, 1e6, -1e6]), min_size=n, max_size=n
    ))
    x = np.array(values).reshape(rows, cols)
    x += np.expand_dims(offsets, 1 if granularity == "per_token" else 0)
    return quantize(x, draw(st.integers(2, 8)), granularity)


@st.composite
def _operands(draw):
    t, k, n = draw(st.integers(0, 5)), draw(st.integers(1, 12)), draw(st.integers(1, 5))
    return draw(_operand(t, k, "per_token")), draw(_operand(k, n, "per_channel"))


def _assert_near_dequantized_product(a, b):
    """matmul within 1e-12 * |deq a| @ |deq b| of dequantize(a) @ dequantize(b),
    plus a floor for the subnormal range. There a product rounds to the
    absolute spacing 2^-1074, not relative to its size, and a sum is exact.
    Counting one spacing per such product:
    - the reference: dequantize's (code - z) * d for each entry of a and of b,
      carried into the GEMM by the other operand, and each GEMM product:
      sum_k |deq a_ik| + sum_k |deq b_kj| + K;
    - matmul: three products in the fold F, in code units, so scaled by
      da db; then out * da, scaled by db; then out * db: 3 da db + db + 1.
    """
    deq_a, deq_b = dequantize(a), dequantize(b)
    ref = deq_a @ deq_b
    scale = np.abs(deq_a) @ np.abs(deq_b)
    da, db = a.deltas[:, None], b.deltas[None, :]
    spacings = (np.abs(deq_a).sum(axis=1)[:, None] + np.abs(deq_b).sum(axis=0) + a.cols
                + 3 * da * db + db + 1)
    got = matmul(a, b)
    assert got.shape == ref.shape
    assert (np.abs(got - ref) <= 1e-12 * scale + 2.0**-1074 * spacings).all()


class TestCodeMatmul:
    @pytest.mark.parametrize("bits_a, bits_b", [(4, 4), (8, 4), (8, 8), (2, 8)])
    def test_float32_and_float64_products_equal_the_int64_one(self, bits_a, bits_b, monkeypatch):
        """The code GEMM is an exact integer in either dtype, so the result
        does not depend on which one runs."""
        rng = np.random.default_rng(bits_a + 10 * bits_b)
        a = quantize(rng.normal(size=(64, 200)) + 0.3, bits_a, "per_token")
        b = quantize(rng.normal(size=(200, 48)) - 0.2, bits_b, "per_channel")
        exact = a.codes.astype(np.int64) @ b.codes.astype(np.int64)
        for dtype in (np.float32, np.float64):
            p = a._gemm_operand(dtype)[0] @ b._gemm_operand(dtype)[0]
            assert p.dtype == dtype
            np.testing.assert_array_equal(p, exact)
        default = matmul(a, b)
        monkeypatch.setattr(quant, "_gemm_dtype", lambda *args: np.float64)
        np.testing.assert_array_equal(matmul(a, b), default)

    @pytest.mark.parametrize("bits, k, dtype", [
        (4, 74565, np.float32), (4, 74566, np.float64), (8, 258, np.float32), (8, 259, np.float64),
    ])
    def test_dtype_at_the_float32_bound(self, bits, k, dtype):
        """float32 while (2^ba - 1)(2^bb - 1) K < 2^24; all-max codes stay exact."""
        qmax = 2**bits - 1
        assert quant._gemm_dtype(bits, bits, k) is dtype
        out = matmul(
            _codes(np.full((1, k), qmax), bits, "per_token"),
            _codes(np.full((k, 1), qmax), bits, "per_channel"),
        )
        assert out[0, 0] == qmax * qmax * k

    def test_codes_on_a_non_integer_zero_point_do_not_cancel(self):
        """Row 0 of a sits on its zero point 5 except where b sits on its
        zero point 10 + 2e-15: every term of the product is tiny, and
        folding whole zero points would round terms of size K qmax^2."""
        a = quantize(np.array([[0.0] * 20 + [-1.0, 2.0]]), 4, "per_token")
        b = quantize(np.array([[-0.2, 0.1, *np.linspace(-0.2, 0.1, 18), 0.0, 0.0]]).T, 4, "per_channel")
        assert a.zero_points[0] == 5.0 and 0 < abs(b.zero_points[0] - 10.0) < 1e-12
        _assert_near_dequantized_product(a, b)

    @given(_operands())
    @settings(max_examples=300, deadline=None)
    @example((quantize(np.zeros((3, 4)), 4, "per_token"), quantize(np.zeros((4, 2)), 4, "per_channel")))
    @example((quantize(np.zeros((0, 5)), 4, "per_token"), quantize(np.ones((5, 3)), 8, "per_channel")))
    @example((quantize(np.ones((2, 1)), 2, "per_token"), quantize(-np.ones((1, 3)), 8, "per_channel")))
    # b's column 0 has the subnormal zero point 1.06e-312: the reference
    # itself rounds at 2^-1074 there, below 1e-12 * scale.
    @example((
        quantize(np.array([[1e-3, 0, 0, 1e-3], [0, 1e-3, 3, 1e-3]]), 2, "per_token"),
        quantize(np.array([[-2.226e-311, 1], [63, 2], [0, 3], [5, 0.5]]), 2, "per_channel"),
    ))
    def test_matches_the_dequantized_product(self, operands):
        _assert_near_dequantized_product(*operands)

    def test_operands_are_checked(self):
        a = quantize(np.ones((2, 3)), 4, "per_token")
        with pytest.raises(ValueError, match="per_token left"):
            matmul(a, quantize(np.ones((3, 2)), 4, "per_token"))
        with pytest.raises(ValueError, match="inner sizes differ"):
            matmul(a, quantize(np.ones((4, 2)), 4, "per_channel"))


SCALE_EXPONENTS = [(1000, 0), (-1000, 0), (0, 500), (0, -500), (1000, -500), (-1000, 500)]


def _assert_codes_scale_free(shape, r_exp, x_exp):
    """Compensated codes of r * 2^r_exp against x * 2^x_exp equal those of r
    against x, over 30 seeded draws, and nothing falls back."""
    for seed in range(30):
        r = np.random.default_rng(seed).normal(size=shape)
        x = np.random.default_rng(seed + 500).normal(size=(20, shape[0]))
        base = quantize_residual_compensated(r, 4, x)
        scaled = quantize_residual_compensated(np.ldexp(r, r_exp), 4, np.ldexp(x, x_exp))
        assert not scaled.rtn_fallback
        np.testing.assert_array_equal(scaled.codes, base.codes)


class TestCompensatedResidual:
    def test_single_entry_column_matches_plain(self):
        r = np.array([[0.37]])
        x = np.array([[1.0], [2.0]])
        qc = quantize_residual_compensated(r, 4, x)
        qr = quantize(r, 4, "per_channel")
        np.testing.assert_array_equal(qc.codes, qr.codes)
        assert not qc.rtn_fallback

    def test_single_input_dim_has_nothing_to_compensate(self):
        r = np.array([[0.3, -0.7, 1.2]])
        x = np.random.default_rng(0).normal(size=(8, 1))
        qc = quantize_residual_compensated(r, 4, x)
        qr = quantize(r, 4, "per_channel")
        np.testing.assert_array_equal(qc.codes, qr.codes)

    def test_identity_gram_grid_not_worse_than_rtn(self):
        """With an identity Gram there is no correlation to exploit, so the
        compensated result must tie plain RTN; the exhaustive oracle confirms
        RTN is already optimal there."""
        x = np.eye(2)
        grid = np.linspace(-1.0, 1.0, 5)
        for a in grid:
            for b in grid:
                r = np.array([[a, b], [b - 0.3, a + 0.1]])
                qc = quantize_residual_compensated(r, 2, x)
                qr = quantize(r, 2, "per_channel")
                ec = np.linalg.norm(x @ (r - dequantize(qc)))
                er = np.linalg.norm(x @ (r - dequantize(qr)))
                assert ec <= er + 1e-12
                best = best_weighted_code_error(
                    r, qr.deltas, qr.zero_points, 2, x
                )
                assert best <= ec + 1e-12

    @pytest.mark.parametrize(
        "r_scale, x_scale",
        [(1.0, 1.0), (1e300, 1.0), (1e-300, 1.0), (1.0, 1e-150), (1.0, 2.0**500),
         (1e300, 1e-150), (1e-300, 1e150)],
        ids=["unscaled", "r1e300", "r1e-300", "x1e-150", "x2^500",
             "r1e300-x1e-150", "r1e-300-x1e150"],
    )
    def test_never_worse_than_rtn_weighted(self, r_scale, x_scale):
        for seed in range(30):
            r = np.random.default_rng(seed).normal(size=(8, 5)) * r_scale
            x = np.random.default_rng(seed + 500).normal(size=(20, 8)) * x_scale
            qc = quantize_residual_compensated(r, 4, x)
            qr = quantize(r, 4, "per_channel")
            assert not qc.rtn_fallback
            np.testing.assert_array_equal(qc.deltas, qr.deltas)
            ec = _weighted_error(qc, r, x)
            er = _weighted_error(qr, r, x)
            assert (ec <= er + 1e-12).all()

    @pytest.mark.parametrize("r_exp, x_exp", SCALE_EXPONENTS)
    def test_codes_independent_of_input_scales(self, r_exp, x_exp):
        """r * 2^e and x * 2^e leave the weighted objective's minimizer
        unchanged, so the codes must not move and nothing may fall back."""
        _assert_codes_scale_free((8, 5), r_exp, x_exp)

    @pytest.mark.parametrize("r_exp, x_exp", SCALE_EXPONENTS)
    def test_codes_independent_of_input_scales_across_batches(self, r_exp, x_exp):
        """The same at 300 x 24, whose rows span three batches."""
        _assert_codes_scale_free((300, 24), r_exp, x_exp)

    def test_codes_match_downdate_reference(self):
        """The batched loop over the factor of H gives the same codes as
        downdating H^-1 after every index, on small fixtures and on a
        compressed layer's residual (where compensation changes codes)."""
        for seed in range(30):
            r = np.random.default_rng(seed).normal(size=(8, 5))
            x = np.random.default_rng(seed + 500).normal(size=(20, 8))
            q = quantize_residual_compensated(r, 4, x)
            np.testing.assert_array_equal(q.codes, compensated_codes_downdate(r, 4, x))
        rng = np.random.default_rng(7)
        x = rng.normal(size=(96, 64))
        x[:, [3, 40]] *= 50.0
        w = synth.smooth_decay_layer(64, 16, decay=1.0, seed=8)
        layer = compress_layer(x, w, ratio=0.3, smooth=0.5, residual_quant="compensated")
        x_hat, w_hat = apply_smoothing(x, w, layer.smoothing)
        r = w_hat - layer.low_freq_matrix()
        assert (layer.residual.codes != quantize(r, 4, "per_channel").codes).any()
        np.testing.assert_array_equal(layer.residual.codes, compensated_codes_downdate(r, 4, x_hat))

    @pytest.mark.parametrize("c_in", [1, 127, 128, 129, 300])
    def test_codes_match_downdate_reference_across_batches(self, c_in):
        """Partial, exact and multiple batches of BLOCK rows, with few tokens
        so that compensation moves codes across batch boundaries."""
        rng = np.random.default_rng(c_in)
        r = rng.normal(size=(c_in, 6))
        x = rng.normal(size=(3, c_in))
        q = quantize_residual_compensated(r, 4, x)
        assert not q.rtn_fallback
        np.testing.assert_array_equal(q.codes, compensated_codes_downdate(r, 4, x))
        if c_in > quant.BLOCK:
            assert (q.codes[quant.BLOCK :] != quantize(r, 4, "per_channel").codes[quant.BLOCK :]).any()

    def test_codes_match_downdate_reference_small_batches(self, monkeypatch):
        """With BLOCK = 3 the 8-row fixtures run as batches of 3, 3 and 2."""
        monkeypatch.setattr(quant, "BLOCK", 3)
        for seed in range(30):
            r = np.random.default_rng(seed).normal(size=(8, 5))
            x = np.random.default_rng(seed + 500).normal(size=(20, 8))
            q = quantize_residual_compensated(r, 4, x)
            np.testing.assert_array_equal(q.codes, compensated_codes_downdate(r, 4, x))

    def test_compensation_actually_helps_somewhere(self):
        wins = 0
        for seed in range(30):
            r = np.random.default_rng(seed).normal(size=(8, 5))
            x = np.random.default_rng(seed + 500).normal(size=(20, 8))
            qc = quantize_residual_compensated(r, 3, x)
            qr = quantize(r, 3, "per_channel")
            ec = np.linalg.norm(x @ (r - dequantize(qc)))
            er = np.linalg.norm(x @ (r - dequantize(qr)))
            if ec < er - 1e-12:
                wins += 1
        assert wins > 0

    def test_zero_matrix(self):
        r = np.zeros((4, 3))
        x = np.random.default_rng(1).normal(size=(10, 4))
        q = quantize_residual_compensated(r, 4, x)
        np.testing.assert_array_equal(dequantize(q), r)

    def test_singular_gram_falls_back_with_flag(self):
        q = quantize_residual_compensated(np.ones((3, 2)), 4, np.zeros((6, 3)))
        assert q.rtn_fallback
        qr = quantize(np.ones((3, 2)), 4, "per_channel")
        np.testing.assert_array_equal(q.codes, qr.codes)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            quantize_residual_compensated(np.ones((3, 2)), 4, np.ones((6, 4)))
