"""Importance metrics, bin budgets and softmax budget allocation."""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specquant.budget import METRICS, BudgetPlan, allocate, bin_budget, importance
from specquant.spectral import half_spectrum_length

from oracles import allocate_round_robin


def test_constant_channel_has_zero_entropy():
    w = np.full((8, 3), 2.0)
    scores = importance(w, metric="spectral-entropy")
    np.testing.assert_allclose(scores, 0.0, atol=1e-12)


def test_zero_channel_entropy_is_zero_by_convention():
    w = np.zeros((8, 2))
    scores = importance(w, metric="spectral-entropy")
    assert scores.dtype == np.float64
    np.testing.assert_array_equal(scores, [0.0, 0.0])


def test_magnitude_metrics_worked_example():
    w = np.array([[3.0], [-3.0]])
    assert importance(w, metric="abs-mean")[0] == pytest.approx(3.0)
    assert importance(w, metric="abs-max")[0] == pytest.approx(3.0)
    assert importance(w, metric="l2-norm")[0] == pytest.approx(np.sqrt(18.0))


def test_identical_channels_score_identically():
    rng = np.random.default_rng(0)
    col = rng.normal(size=16)
    w = np.column_stack([col, col, col])
    for metric in METRICS:
        scores = importance(w, metric)
        assert np.ptp(scores) <= 1e-12 * max(abs(scores[0]), 1.0)


def test_entropy_bounded_by_log2_cin():
    rng = np.random.default_rng(1)
    for c_in in (2, 8, 17, 64):
        w = rng.normal(size=(c_in, 5))
        scores = importance(w, metric="spectral-entropy")
        assert (scores >= 0).all()
        assert (scores <= np.log2(c_in) + 1e-12).all()


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        importance(np.ones((2, 2)), metric="magnitude")


# c_in = 14 has 8 half-spectrum bins; at c_out = 4 the one-bin floor is
# ratio 1/8 exactly, and the float just below it gives floor(3.99..) = 3 bins.
_FLOOR = 0.125


@pytest.mark.parametrize(
    "kwargs, expected",
    [
        ({"ratio": 1.0}, 32),
        ({"ratio": _FLOOR}, 4),
        ({"ratio": 0.0}, "ratio must lie in"),
        ({"ratio": np.nextafter(_FLOOR, 0.0)}, "below one retained bin"),
        ({"ratio": float("nan")}, "ratio must lie in"),
        ({"ratio": True}, "ratio must lie in"),
        ({"groups": 1}, 4),
        ({"groups": 8}, 32),
        ({"groups": 0}, "groups must be an integer"),
        ({"groups": 9}, "groups must be an integer"),
        ({"groups": 2.7}, "groups must be an integer"),
        ({"groups": True}, "groups must be an integer"),
        ({"ratio": 0.5, "groups": 2}, "exactly one"),
        ({}, "exactly one"),
    ],
    ids=[
        "ratio-1", "ratio-floor", "ratio-0", "ratio-below-floor", "ratio-nan", "ratio-bool",
        "groups-1", "groups-half", "groups-0", "groups-half+1", "groups-2.7", "groups-bool",
        "both", "neither",
    ],
)
def test_bin_budget_table(kwargs, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            bin_budget(14, 4, **kwargs)
    else:
        assert bin_budget(14, 4, **kwargs) == expected


class TestAllocate:
    def test_worked_example_against_extended_precision(self):
        """Allocation [2, 8, 20] for scores [1,2,3], alpha=1, budget 30.

        Floors and leftovers recomputed in 50-digit softmax arithmetic.
        """
        with mpmath.workdps(50):
            exps = [mpmath.e**v for v in (1, 2, 3)]
            total = sum(exps)
            floors = [int(mpmath.floor(30 * v / total)) for v in exps]
        assert floors == [2, 7, 19]
        leftover = 30 - sum(floors)
        expected = list(floors)
        for j in (2, 1, 0)[:leftover]:
            expected[j] += 1
        plan = allocate(np.array([1.0, 2.0, 3.0]), 1.0, 30, 64)
        np.testing.assert_array_equal(plan.k, expected)
        np.testing.assert_array_equal(plan.k, [2, 8, 20])
        np.testing.assert_allclose(
            plan.rho, [0.09003057, 0.24472847, 0.66524096], atol=5e-9
        )

    def test_equal_scores_uniform_rho(self):
        plan = allocate(np.full(4, 1.7), 3.0, 40, 32)
        np.testing.assert_allclose(plan.rho, 0.25, rtol=1e-15)
        np.testing.assert_array_equal(plan.k, [10, 10, 10, 10])

    def test_alpha_zero_ignores_scores(self):
        plan = allocate(np.array([0.0, 5.0, -2.0, 100.0]), 0.0, 16, 32)
        np.testing.assert_allclose(plan.rho, 0.25, rtol=1e-15)
        np.testing.assert_array_equal(plan.k, [4, 4, 4, 4])

    def test_rho_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            scores = rng.normal(size=rng.integers(1, 20)) * 10
            plan = allocate(scores, rng.uniform(-2, 2), 200, 64)
            assert abs(plan.rho.sum() - 1.0) <= 1e-12

    def test_softmax_monotone_in_scores(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scores = rng.normal(size=8)
            plan = allocate(scores, 1.0, 100, 64)
            order = np.argsort(scores)
            assert (np.diff(plan.rho[order]) >= -1e-18).all()

    @given(
        st.lists(st.integers(0, 2000), min_size=1, max_size=12),
        st.integers(-1000, 1000),
        st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_shift_invariance_exact(self, raw, shift, alpha):
        """Adding a constant to all scores changes nothing, bit for bit.

        Scores are dyadic (multiples of 2^-10) and the shift is an integer,
        so every float operation involved is exact.
        """
        scores = np.array(raw, dtype=np.float64) / 1024.0
        budget = 4 * len(raw)
        a = allocate(scores, alpha, budget, 64)
        b = allocate(scores + float(shift), alpha, budget, 64)
        assert (a.rho == b.rho).all()
        np.testing.assert_array_equal(a.k, b.k)

    def test_total_matches_min_of_budget_and_caps(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            c_out = int(rng.integers(1, 10))
            c_in = int(rng.integers(2, 40))
            cap = half_spectrum_length(c_in)
            budget = int(rng.integers(c_out, 4 * c_out * cap))
            plan = allocate(rng.normal(size=c_out) * 5, 1.0, budget, c_in)
            assert plan.k.sum() == min(budget, cap * c_out)
            assert (plan.k >= 1).all() and (plan.k <= cap).all()

    def test_skewed_scores_at_minimum_budget(self):
        # The keep-DC floor may overshoot; bins come back from the
        # low-score channels first, never below one.
        plan = allocate(np.array([10.0, 0.0, 0.0]), 1.0, 3, 64)
        np.testing.assert_array_equal(plan.k, [1, 1, 1])

    def test_budget_below_channel_count_rejected(self):
        with pytest.raises(ValueError):
            allocate(np.ones(5), 1.0, 4, 16)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: allocate(np.ones((2, 3)), 1.0, 6, 8), "scores must be 1-D"),
            (lambda: allocate(["1", "2"], 1.0, 4, 8), "scores must hold real numbers"),
            (lambda: allocate([np.nan, 1.0], 1.0, 4, 8), "scores contains non-finite values"),
            (lambda: BudgetPlan(rho=np.ones(3), k=np.ones(2), alpha=1.0, total_budget=2),
             "rho and k must have equal length"),
            (lambda: BudgetPlan([1.0], [2.7], 1.0, 2), "k must be an integer, got 2.7"),
            # Named, not left to numpy's bare OverflowError.
            (lambda: BudgetPlan([1.0], [2**70], 1.0, 2),
             f"k must be an integer within int64, got {2**70}"),
            # Channel counts are non-negative integers: a fraction is not
            # floored, and a negative count or a bool is not a layer width.
            (lambda: allocate([1.0, 2.0], 1.0, 4, 16.5),
             "c_in must be a non-negative integer, got 16.5"),
            (lambda: allocate([1.0, 2.0], 1.0, 4, -3), "c_in must be a non-negative integer, got -3"),
            (lambda: allocate([1.0, 2.0], 1.0, 4, True),
             "c_in must be a non-negative integer, got True"),
            (lambda: bin_budget(16.5, 2, ratio=0.5), "c_in must be a non-negative integer, got 16.5"),
            (lambda: bin_budget(16, True, ratio=0.5),
             "c_out must be a non-negative integer, got True"),
        ],
        ids=["allocate-2d-scores", "allocate-text-scores", "allocate-nan-score",
             "plan-lengths-differ", "plan-fractional-k", "plan-k-past-int64",
             "allocate-c_in-fraction", "allocate-c_in-negative", "allocate-c_in-bool",
             "bin_budget-c_in-fraction", "bin_budget-c_out-bool"],
    )
    def test_malformed_plan_input_is_named(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.parametrize("budget", [7.9, True, "7"], ids=["fraction", "bool", "string"])
    def test_non_integer_budget_is_named(self, budget):
        """A budget is an integer, as `groups` is: a fraction is not
        truncated, and a bool or a string is not taken for a number."""
        with pytest.raises(ValueError, match=f"total_budget must be an integer, got {budget!r}"):
            allocate(np.ones(3), 1.0, budget, 8)

    def test_integral_float_budget_is_its_integer(self):
        plan = allocate(np.ones(3), 1.0, 7.0, 8)
        assert plan.total_budget == 7 and type(plan.total_budget) is int
        np.testing.assert_array_equal(plan.k, [3, 2, 2])

    @pytest.mark.parametrize("alpha", [1e308, -1e308])
    def test_overflowing_alpha_is_named_error_without_warning(self, alpha):
        """alpha * score past the float64 range would make the softmax NaN."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="alpha"):
                allocate(np.array([0.5, 2.0, 3.0]), alpha, 12, 16)

    def test_scores_spread_past_the_range_allocate_without_warning(self):
        """A score gap past the float64 range gives the low channel rho 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = allocate(np.array([-1e308, 1e308]), 1.0, 4, 16)
        np.testing.assert_array_equal(plan.rho, [0.0, 1.0])
        np.testing.assert_array_equal(plan.k, [1, 3])

    def test_deterministic_tie_break_by_index(self):
        plan = allocate(np.array([1.0, 1.0, 1.0]), 1.0, 11, 64)
        # Remainder 2 goes to the lowest indices.
        np.testing.assert_array_equal(plan.k, [4, 4, 3])

    def test_identical_calls_identical_plans(self):
        scores = np.random.default_rng(5).normal(size=9)
        a = allocate(scores, 0.7, 77, 48)
        b = allocate(scores, 0.7, 77, 48)
        assert (a.rho == b.rho).all()
        np.testing.assert_array_equal(a.k, b.k)


def _assert_matches_round_robin(scores, alpha, budget, c_in):
    plan = allocate(scores, alpha, budget, c_in)
    rho, k = allocate_round_robin(scores, alpha, budget, c_in)
    np.testing.assert_array_equal(plan.rho, rho)
    np.testing.assert_array_equal(plan.k, k)


class TestAllocateMatchesRoundRobin:
    """The loop-free dealing equals the round-robin loops bit for bit."""

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=30),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -7.0, 40.0]),
        st.integers(1, 70),
        st.integers(0, 10**4),
    )
    @settings(max_examples=300, deadline=None)
    def test_tied_scores(self, raw, alpha, c_in, extra):
        # Few distinct score values, so ties are common; the budget runs from
        # one bin per channel to past every cap.
        c_out = len(raw)
        budget = c_out + extra % (2 * half_spectrum_length(c_in) * c_out)
        _assert_matches_round_robin(np.array(raw, dtype=np.float64), alpha, budget, c_in)

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
        st.floats(-20.0, 20.0),
        st.integers(1, 70),
        st.integers(0, 10**4),
    )
    @settings(max_examples=300, deadline=None)
    def test_real_scores(self, raw, alpha, c_in, extra):
        c_out = len(raw)
        budget = c_out + extra % (2 * half_spectrum_length(c_in) * c_out)
        _assert_matches_round_robin(np.array(raw), alpha, budget, c_in)

    @pytest.mark.parametrize(
        "scores, alpha, budget, c_in",
        [
            # Floor-to-1 overshoot: the top channel floors to nearly the whole
            # budget and the rest are raised to DC, so bins are taken back.
            ([10.0, 0.0, 0.0], 1.0, 3, 64),
            ([50.0, 0.0, 0.0, 0.0, 0.0], 1.0, 9, 64),
            ([0.0, 0.0, 50.0, 50.0, 1.0], 3.0, 12, 64),
            # Negative alpha favours the low scores, and overshoots the same way.
            ([10.0, 0.0, 0.0, -30.0], -2.0, 5, 16),
            # Cap-saturated: the favourite is clipped to c_in // 2 + 1 and its
            # surplus is dealt to the others, some of which saturate too.
            ([9.0, 8.0, 0.0, 0.0], 5.0, 30, 14),
            ([9.0, 9.0, 9.0, 0.0], 5.0, 26, 14),
            # A budget past every cap fills every channel.
            ([1.0, 2.0, 3.0], 1.0, 10**6, 7),
            # alpha 0 and ties: an even split, remainder to the lowest indices.
            ([5.0, -1.0, 3.0, 3.0, 0.0, 2.0, 7.0], 0.0, 23, 64),
            ([1.0, 1.0, 1.0], 1.0, 11, 64),
            # c_in 1 has a single bin per channel.
            ([3.0, -3.0], 4.0, 2, 1),
        ],
    )
    def test_table(self, scores, alpha, budget, c_in):
        _assert_matches_round_robin(np.array(scores), alpha, budget, c_in)
