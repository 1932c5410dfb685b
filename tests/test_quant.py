"""Uniform quantizer and error-compensated residual quantizer contracts."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specquant import quant, synth
from specquant.pipeline import apply_smoothing, compress_layer, forward_approx
from specquant.quant import (
    COMPENSATION_DAMPING,
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
    q = quantize(np.array([values], dtype=np.float64).T, bits)
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
        """Only a token (a row of activations) can be an empty slice that
        must be coded; an empty column has no entries to code."""
        with pytest.raises(ValueError, match="per_token slices must be non-empty"):
            matmul(np.zeros((1, 0)), 4, quantize(np.zeros((0, 2)), 4))

    def test_bits_out_of_range(self):
        with pytest.raises(ValueError):
            _slice_params([0.0, 1.0], 1)
        with pytest.raises(ValueError):
            _slice_params([0.0, 1.0], 9)


class TestQuantizeDequantize:
    def test_worked_example_half_away_rounding(self):
        # x/delta + z = [0, 1.5, 3]; 1.5 rounds away from zero to 2.
        q = quantize(np.array([[-1.0, 0.0, 1.0]]).T, 2)
        np.testing.assert_array_equal(q.codes.T, [[0, 2, 3]])

    def test_dequantize_worked_example(self):
        q = QuantizedTensor(
            codes=np.array([[0, 2, 3]], dtype=np.uint8).T,
            bits=2,
            deltas=np.array([2.0 / 3.0]),
            zero_points=np.array([1.5]),
        )
        np.testing.assert_allclose(dequantize(q).T, [[-1.0, 1.0 / 3.0, 1.0]], rtol=1e-15)

    def test_sizes_are_the_shape_of_the_codes(self):
        q = _codes(np.zeros((2, 5)), 4)
        assert (q.rows, q.cols) == (2, 5)
        with pytest.raises(ValueError, match="codes must be 2-D, got 1-D"):
            QuantizedTensor(np.zeros(3), 4, np.ones(1), np.zeros(1))
        # A cast to uint8 would keep 259 as 3, -1 as 255 and 1.7 as 1.
        for codes in (np.array([[259]]), [[-1]], [[1.7]]):
            with pytest.raises(ValueError, match=r"codes must be an integer in \[0, 255\], got"):
                QuantizedTensor(codes, 4, [1.0], [0.0])

    def test_zeros_stay_exactly_zero(self):
        q = quantize(np.zeros((4, 3)), 4)
        assert (q.codes == q.codes[0, 0]).all()
        np.testing.assert_array_equal(dequantize(q), np.zeros((4, 3)))

    def test_constant_matrix_restored_exactly(self):
        x = np.full((2, 3), 5.0)
        np.testing.assert_array_equal(dequantize(quantize(x, 4)), x)

    @pytest.mark.parametrize("granularity", ["per_token", "per_channel"])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_round_trip_within_half_step(self, bits, granularity):
        """Per token is per channel on the transpose."""
        rng = np.random.default_rng(bits)
        for _ in range(25):
            x = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-3, 4)
            if granularity == "per_token":
                x = x.T
            q = quantize(x, bits)
            back = dequantize(q)
            assert (np.abs(back - x) <= q.deltas / 2 * (1 + 1e-9) + 1e-300).all()
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
        x = np.array([values]).T
        q = quantize(x, bits)
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
        """The in-place encoder computes floor(clip(x / d + z, 0, qmax) + 0.5);
        per token is per channel on the transpose."""
        x = np.array([values, values[::-1]])
        if granularity == "per_token":
            x = x.T
        q = quantize(x, bits)
        literal = np.floor(np.clip(x / q.deltas + q.zero_points, 0, 2**bits - 1) + 0.5)
        np.testing.assert_array_equal(q.codes, literal)

    def test_ends_at_float64_limit_dequantize_finite(self):
        big = np.finfo(np.float64).max
        for values in ([-big, big], [0.0, big], [-big, 0.0], [-big, big / 2], [1e308, big]):
            x = np.array([values]).T
            for bits in range(2, 9):
                q = quantize(x, bits)
                ends = dequantize(QuantizedTensor(
                    np.array([[0], [2**bits - 1]]), bits, q.deltas, q.zero_points
                ))
                assert np.isfinite(ends).all(), (values, bits)
                assert (np.abs(dequantize(q) - x) <= q.deltas[0] / 2).all()

    def test_codes_idempotent_under_requantization(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            x = rng.normal(size=(6, 4)) * 50 + rng.normal() * 100
            q1 = quantize(x, 4)
            q2 = quantize(dequantize(q1), 4)
            np.testing.assert_array_equal(q1.codes, q2.codes)

    def test_outliers_still_land_in_range(self):
        x = np.array([[1e12, -1e12, 0.0, 1e-12]]).T
        for bits in (2, 8):
            q = quantize(x, bits)
            assert q.codes.min() >= 0 and q.codes.max() <= 2**bits - 1

    def test_partition_axes(self):
        # Tokens are rows, channels are columns: per token is per channel
        # on the transpose.
        x = np.array([[0.0, 100.0], [1.0, 2.0]])
        per_token = quantize(x.T, 4)
        assert per_token.deltas.size == 2
        assert per_token.deltas[0] == pytest.approx(100.0 / 15.0)
        assert per_token.deltas[1] == pytest.approx(1.0 / 15.0)
        per_channel = quantize(x, 4)
        assert per_channel.deltas.size == 2
        assert per_channel.deltas[0] == pytest.approx(1.0 / 15.0)
        assert per_channel.deltas[1] == pytest.approx(98.0 / 15.0)

    def test_unknown_granularity_rejected(self):
        """quantize is per channel only: "per_channel" is the one granularity
        it accepts, and per token is quantize(x.T, bits)."""
        x = np.array([[0.0, 100.0], [1.0, 2.0], [3.0, -4.0]])
        for granularity in ("per_tensor", "per_row", "per_token"):
            with pytest.raises(ValueError, match=f"unknown granularity '{granularity}'"):
                quantize(x, 4, granularity)
        assert quantize(x, 4, "per_channel").codes.tobytes() == quantize(x, 4).codes.tobytes()

    def test_empty_per_channel_allowed(self):
        q = quantize(np.zeros((4, 0)), 4)
        assert q.codes.shape == (4, 0)
        assert q.deltas.size == 0


def _codes(codes, bits):
    """A tensor of the given codes, unit steps and zero offsets."""
    codes = np.asarray(codes, dtype=np.uint8)
    return QuantizedTensor(codes, bits, np.ones(codes.shape[1]), np.zeros(codes.shape[1]))


@st.composite
def _values(draw, rows, cols):
    """A float matrix: entries from a few decades, zeros among them, each
    column shifted by an offset that can make it one-sided."""
    values = draw(st.lists(
        st.just(0.0) | st.floats(-1e3, 1e3), min_size=rows * cols, max_size=rows * cols
    ))
    offsets = draw(st.lists(
        st.sampled_from([0.0, 1e3, -1e3, 1e6, -1e6]), min_size=cols, max_size=cols
    ))
    return np.array(values).reshape(rows, cols) + offsets


@st.composite
def _operands(draw):
    """(x, bits, b): float activations, each token shifted by its own
    offset, their bits and a quantized b."""
    t, k, n = draw(st.integers(0, 5)), draw(st.integers(1, 12)), draw(st.integers(1, 5))
    x = draw(_values(k, t)).T.copy()
    b = quantize(draw(_values(k, n)), draw(st.integers(2, 8)))
    return x, draw(st.integers(2, 8)), b


def _assert_near_dequantized_product(x, bits, b):
    """matmul(x, bits, b) within 1e-12 * |deq a| @ |deq b| of
    dequantize(a).T @ dequantize(b), a = quantize(x.T, bits) (x per token),
    plus a floor for the subnormal range. There a product rounds to the
    absolute spacing 2^-1074, not relative to its size, and a sum is exact.
    Counting one spacing per such product:
    - the reference: dequantize's (code - z) * d for each entry of a and of b,
      carried into the GEMM by the other operand, and each GEMM product:
      sum_k |deq a_ik| + sum_k |deq b_kj| + K;
    - matmul: three products in the fold F, in code units, so scaled by
      da db; then out * da, scaled by db; then out * db: 3 da db + db + 1.
    """
    a = quantize(x.T, bits)
    deq_a, deq_b = dequantize(a).T.copy(), dequantize(b)
    ref = deq_a @ deq_b
    scale = np.abs(deq_a) @ np.abs(deq_b)
    da, db = a.deltas[:, None], b.deltas[None, :]
    spacings = (np.abs(deq_a).sum(axis=1)[:, None] + np.abs(deq_b).sum(axis=0) + a.rows
                + 3 * da * db + db + 1)
    got = matmul(x, bits, b)
    assert got.shape == ref.shape
    assert (np.abs(got - ref) <= 1e-12 * scale + 2.0**-1074 * spacings).all()


def _assert_fused(x, bits, b, monkeypatch):
    """matmul(x, bits, b) makes no codes or tensor for x, reads x without
    overwriting it, and gives the same bits rounding in x's own buffer
    (`out`) and from given ranges; b keeps one code operand; the result is
    near the dequantized product."""
    kept = x.copy()
    with monkeypatch.context() as m:
        for name in ("quantize", "QuantizedTensor"):
            m.setattr(quant, name, None)  # matmul must not call them
        got = matmul(x, bits, b)
        np.testing.assert_array_equal(x, kept)
        buffer = x.copy()
        in_place = matmul(buffer, bits, b, out=buffer)
        ranged = matmul(x, bits, b, ranges=(x.min(axis=1), x.max(axis=1)))
    assert got.dtype == np.float64 and got.shape == (x.shape[0], b.cols)
    assert in_place.tobytes() == got.tobytes() == ranged.tobytes()
    assert list(b._gemm) == [quant._gemm_dtype(bits, b.bits, x.shape[1])]
    _assert_near_dequantized_product(x, bits, b)


def _served_like(rows, cols, seed):
    """Rows of a few decades, one-sided rows, a flat row and a zero row."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols)) * rng.uniform(0.01, 100, size=cols)
    x[: rows // 3] += 50.0
    if rows > 2:
        x[1] = 2.5
        x[2] = 0.0
    return x


class TestMatmul:
    """`matmul(x, bits, b)`: float activations, quantized per token inside
    it, times a quantized b, from the integer codes."""

    @pytest.mark.parametrize("bits_a, bits_b", [(4, 4), (8, 4), (8, 8), (2, 8)])
    def test_float32_and_float64_products_equal_the_int64_one(self, bits_a, bits_b, monkeypatch):
        """The code GEMM is an exact integer in either dtype, so the result
        does not depend on which one runs."""
        rng = np.random.default_rng(bits_a + 10 * bits_b)
        x = rng.normal(size=(64, 200)) + 0.3
        codes_a = quantize(x.T, bits_a).codes.T
        b = quantize(rng.normal(size=(200, 48)) - 0.2, bits_b)
        exact = codes_a.astype(np.int64) @ b.codes.astype(np.int64)
        for dtype in (np.float32, np.float64):
            p = codes_a.astype(dtype) @ b._gemm_operand(dtype)[0]
            assert p.dtype == dtype
            np.testing.assert_array_equal(p, exact)
        default = matmul(x, bits_a, b)
        monkeypatch.setattr(quant, "_gemm_dtype", lambda *args: np.float64)
        np.testing.assert_array_equal(matmul(x, bits_a, b), default)

    @pytest.mark.parametrize("bits, k, dtype", [
        (4, 74565, np.float32), (4, 74566, np.float64),
        (8, 258, np.float32), (8, 259, np.float64), (8, 260, np.float64),
    ])
    def test_dtype_at_the_float32_bound(self, bits, k, dtype):
        """float32 while (2^ba - 1)(2^bb - 1) K < 2^24; max codes stay exact.
        A row's minimum takes code 0, so the row [0, qmax, ..., qmax] (unit
        step, zero point 0) has the most max codes a row can have; at 8 bits
        and K = 260 their sum, 259 * 255^2, is an odd integer past 2^24."""
        qmax = 2**bits - 1
        assert quant._gemm_dtype(bits, bits, k) is dtype
        x = np.full((1, k), float(qmax))
        x[0, 0] = 0.0
        out = matmul(x, bits, _codes(np.full((k, 1), qmax), bits))
        assert out[0, 0] == qmax * qmax * (k - 1)

    def test_codes_on_a_non_integer_zero_point_do_not_cancel(self):
        """Row 0 of x sits on its zero point 5 except where b sits on its
        zero point 10 + 2e-15: every term of the product is tiny, and
        folding whole zero points would round terms of size K qmax^2."""
        x = np.array([[0.0] * 20 + [-1.0, 2.0]])
        b = quantize(np.array([[-0.2, 0.1, *np.linspace(-0.2, 0.1, 18), 0.0, 0.0]]).T, 4)
        assert quantize(x.T, 4).zero_points[0] == 5.0
        assert 0 < abs(b.zero_points[0] - 10.0) < 1e-12
        _assert_near_dequantized_product(x, 4, b)

    @given(_operands())
    @settings(max_examples=300, deadline=None)
    @example((np.zeros((3, 4)), 4, quantize(np.zeros((4, 2)), 4)))
    @example((np.zeros((0, 5)), 4, quantize(np.ones((5, 3)), 8)))
    @example((np.ones((2, 1)), 2, quantize(-np.ones((1, 3)), 8)))
    # b's column 0 has the subnormal zero point 1.06e-312: the reference
    # itself rounds at 2^-1074 there, below 1e-12 * scale.
    @example((
        np.array([[1e-3, 0, 0, 1e-3], [0, 1e-3, 3, 1e-3]]), 2,
        quantize(np.array([[-2.226e-311, 1], [63, 2], [0, 3], [5, 0.5]]), 2),
    ))
    def test_matches_the_dequantized_product(self, operands):
        _assert_near_dequantized_product(*operands)

    @pytest.mark.parametrize("rows", [0, 1, 129])
    @pytest.mark.parametrize("bits", range(2, 9))
    def test_activation_codes_are_those_of_quantize(self, bits, rows):
        """Against identity codes of unit step and zero point 0, the product
        is (Ca - za) da of the activations' codes, with the one rounding of
        dequantize's (code - z) * d: so the codes, steps and zero points are
        those of quantize(x.T, bits), transposed, bit for bit."""
        x = _served_like(rows, 40, 10 * bits + rows)
        got = matmul(x, bits, _codes(np.eye(40), 4))
        assert got.tobytes() == dequantize(quantize(x.T, bits)).T.tobytes()

    @pytest.mark.parametrize("rows", [0, 1, 127, 128, 129, 389])
    @pytest.mark.parametrize("bits", range(2, 9))
    def test_fused_in_one_buffer(self, bits, rows, monkeypatch):
        rng = np.random.default_rng(bits + 10 * rows)
        b = quantize(rng.normal(size=(40, 24)) - 0.1, 4)
        _assert_fused(_served_like(rows, 40, 10 * bits + rows), bits, b, monkeypatch)

    @pytest.mark.parametrize("rows", [0, 1, 129])
    def test_float64_gemm_dtype(self, rows, monkeypatch):
        """8-bit codes on both sides with c_in = 300 >= 259 run the code
        GEMM in float64."""
        rng = np.random.default_rng(rows)
        assert quant._gemm_dtype(8, 8, 300) is np.float64
        x = rng.normal(size=(rows, 300)) + 0.2
        b = quantize(rng.normal(size=(300, 16)), 8)
        _assert_fused(x, 8, b, monkeypatch)

    def test_operands_are_checked(self):
        x = np.ones((2, 3))
        b = quantize(np.ones((3, 2)), 4)
        with pytest.raises(ValueError, match="inner sizes differ: 3 and 4"):
            matmul(x, 4, quantize(np.ones((4, 2)), 4))
        with pytest.raises(ValueError, match="x must be 2-D"):
            matmul(np.ones(3), 4, b)
        # Text is not parsed into numbers, neither as x nor by the quantizer.
        with pytest.raises(ValueError, match="x must hold real numbers, got dtype <U1"):
            matmul([["1", "2", "3"]], 4, b)
        with pytest.raises(ValueError, match="x must hold real numbers, got dtype <U1"):
            quantize([["1", "2"]], 4)
        for bits in (9, 4.5, "4"):
            with pytest.raises(ValueError, match=r"bits must be an integer in \[2, 8\]"):
                matmul(x, bits, b)
        for bad in (np.nan, np.inf, -np.inf):
            y = x.copy()
            y[1, 2] = bad
            with pytest.raises(ValueError, match="x contains non-finite values"):
                matmul(y, 4, b)
            with pytest.raises(ValueError, match="x contains non-finite values"):
                matmul(y, 4, b, ranges=(y.min(axis=1), y.max(axis=1)))


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
        qr = quantize(r, 4)
        np.testing.assert_array_equal(qc.codes, qr.codes)
        assert not qc.rtn_fallback

    def test_single_input_dim_has_nothing_to_compensate(self):
        r = np.array([[0.3, -0.7, 1.2]])
        x = np.random.default_rng(0).normal(size=(8, 1))
        qc = quantize_residual_compensated(r, 4, x)
        qr = quantize(r, 4)
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
                qr = quantize(r, 2)
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
            qr = quantize(r, 4)
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
        assert (layer.residual.codes != quantize(r, 4).codes).any()
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
            assert (q.codes[quant.BLOCK :] != quantize(r, 4).codes[quant.BLOCK :]).any()

    @pytest.mark.parametrize("c_in", [1, 7, 8, 9, 20, 300])
    def test_codes_match_downdate_reference_across_sub_batches(self, c_in, monkeypatch):
        """With BLOCK = 8 and SUB_BLOCK = 3, batches of 8 rows run as
        sub-batches of 3, 3 and 2; with 3 tokens compensation carries across
        sub-batch and batch boundaries, and moves codes past the first
        sub-batch."""
        monkeypatch.setattr(quant, "BLOCK", 8)
        monkeypatch.setattr(quant, "SUB_BLOCK", 3)
        rng = np.random.default_rng(c_in)
        r = rng.normal(size=(c_in, 6))
        x = rng.normal(size=(3, c_in))
        q = quantize_residual_compensated(r, 4, x)
        assert not q.rtn_fallback
        np.testing.assert_array_equal(q.codes, compensated_codes_downdate(r, 4, x))
        if c_in > 3:
            assert (q.codes[3:] != quantize(r, 4).codes[3:]).any()

    def test_codes_match_downdate_reference_small_batches(self, monkeypatch):
        """With BLOCK = 3 and SUB_BLOCK = 2 the 8-row fixtures run as batches
        of 3, 3 and 2, each as sub-batches of 2 and 1 or of 2."""
        monkeypatch.setattr(quant, "BLOCK", 3)
        monkeypatch.setattr(quant, "SUB_BLOCK", 2)
        for seed in range(30):
            r = np.random.default_rng(seed).normal(size=(8, 5))
            x = np.random.default_rng(seed + 500).normal(size=(20, 8))
            q = quantize_residual_compensated(r, 4, x)
            np.testing.assert_array_equal(q.codes, compensated_codes_downdate(r, 4, x))

    @pytest.mark.parametrize(
        "block, token_div, outliers, scale",
        [(None, 2, [0], 100.0), (3, 2, [0], 100.0), (None, 8, [0, -1], 1e4), (3, 8, [0, -1], 1e4)],
        ids=["BLOCK", "BLOCK=3", "BLOCK-outliers-x1e4", "BLOCK=3-outliers-x1e4"],
    )
    @pytest.mark.parametrize("c_in", [1, 2, 3, 127, 128, 129, 300])
    def test_factor_in_place_matches_reversed_cholesky(
        self, c_in, block, token_div, outliers, scale, monkeypatch
    ):
        """The upper triangle of the in-place factor is the reversed-order
        Cholesky factor, from the damped Gram of fewer tokens than channels
        with outlier channels; the lower triangle is never read. With two
        outliers x1e4 and c_in // 8 + 1 tokens, the damping dominates every
        other channel's diagonal, so cond(H) comes within a factor of two of
        the bound 100 c_in + 1 that the factor's block inverses rely on."""
        if block:
            monkeypatch.setattr(quant, "BLOCK", block)
        rng = np.random.default_rng(c_in)
        x = rng.normal(size=(c_in // token_div + 1, c_in))
        x[:, outliers] *= scale
        h = x.T @ x
        h[np.diag_indices_from(h)] += COMPENSATION_DAMPING * np.mean(np.diag(h))
        v = np.linalg.cholesky(h[::-1, ::-1])[::-1, ::-1]
        h[np.tril_indices(c_in, -1)] = np.nan
        quant._factor_upper(h)
        upper = np.triu_indices(c_in)
        assert np.abs(h[upper] - v[upper]).max() <= 1e-13 * np.abs(v).max()

    @pytest.mark.parametrize("block", [None, 3], ids=["BLOCK", "BLOCK=3"])
    @pytest.mark.parametrize("c_in", [8, 300])
    def test_indefinite_gram_raises_in_the_factor_and_falls_back(self, c_in, block, monkeypatch):
        """H = I coupled between the first and last index has every trailing
        block definite and a Schur complement of -3 at index 0, so with more
        than one block the error comes from the last block, after the panel
        and update steps; a sign flip on the quantizer's own Gram makes it
        fall back to RTN."""
        if block:
            monkeypatch.setattr(quant, "BLOCK", block)
        h = np.eye(c_in)
        h[0, -1] = h[-1, 0] = 2.0
        with pytest.raises(np.linalg.LinAlgError):
            quant._factor_upper(h)

        factor, raised = quant._factor_upper, []

        def indefinite(gram):
            gram[0, 0] = -gram[0, 0]
            try:
                factor(gram)
            except np.linalg.LinAlgError:
                raised.append(True)
                raise

        monkeypatch.setattr(quant, "_factor_upper", indefinite)
        rng = np.random.default_rng(c_in)
        r = rng.normal(size=(c_in, 5))
        q = quantize_residual_compensated(r, 4, rng.normal(size=(20, c_in)))
        assert raised and q.rtn_fallback
        np.testing.assert_array_equal(q.codes, quantize(r, 4).codes)

    def test_peak_memory_is_one_gram_buffer(self):
        """One c_in x c_in float64 buffer, one scaled T x c_in copy of X and
        a few c_in x c_out arrays: the traced peak stays within their sum."""
        c_in, c_out, tokens = 512, 64, 256
        rng = np.random.default_rng(0)
        r = rng.normal(size=(c_in, c_out))
        x = rng.normal(size=(tokens, c_in))
        tracemalloc.start()
        try:
            q = quantize_residual_compensated(r, 4, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not q.rtn_fallback
        assert peak <= 8 * c_in**2 + 8 * tokens * c_in + 32 * c_in * c_out

    def test_wins_held_out_on_correlated_activations(self):
        """On rank-8-plus-noise activations with 4 outlier channels, the
        compensated residual beats RTN on held-out tokens, served at A4 and
        unquantized, on every seed."""
        c_in, rank, tokens = 128, 8, 256
        for seed in range(10):
            rng = np.random.default_rng(seed)
            basis = rng.normal(size=(rank, c_in))
            x = rng.normal(size=(2 * tokens, rank)) @ basis / np.sqrt(rank)
            x += 0.3 * rng.normal(size=(2 * tokens, c_in))
            x[:, rng.choice(c_in, 4, replace=False)] *= 100.0
            w = synth.smooth_decay_layer(c_in, 32, decay=1.5, seed=seed)
            calib, held = x[:tokens], x[tokens:]
            y = held @ w
            errors = {}
            for residual_quant in ("rtn", "compensated"):
                layer = compress_layer(
                    calib, w, ratio=0.25, smooth=0.5, residual_quant=residual_quant
                )
                errors[residual_quant] = [
                    np.linalg.norm(forward_approx(held, layer, bits) - y) for bits in (4, None)
                ]
            assert all(c < r for c, r in zip(errors["compensated"], errors["rtn"])), seed

    def test_compensation_actually_helps_somewhere(self):
        wins = 0
        for seed in range(30):
            r = np.random.default_rng(seed).normal(size=(8, 5))
            x = np.random.default_rng(seed + 500).normal(size=(20, 8))
            qc = quantize_residual_compensated(r, 3, x)
            qr = quantize(r, 3)
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
        qr = quantize(np.ones((3, 2)), 4)
        np.testing.assert_array_equal(q.codes, qr.codes)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            quantize_residual_compensated(np.ones((3, 2)), 4, np.ones((6, 4)))
