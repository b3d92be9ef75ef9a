"""Tests for the exact discrete oracles."""

import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cluster_tails.clusters import HawkesParams, batch_functionals
from cluster_tails.errors import LatticeMismatch, ModelError, SupercriticalModel
from cluster_tails.heavytail import Constant, JointMarkModel, Regime
from cluster_tails.oracle import (
    DiscreteJointModel,
    _choose,
    _lattice_step,
    exact_renewal_max_distribution,
    exact_renewal_max_tail,
    exact_renewal_sum_distribution,
    exact_renewal_sum_tail,
    hawkes_sum_tail,
    sample_renewal_functionals,
)
from cluster_tails.rng import RngStream
from reference import truncated_hawkes_sum_tail

# X uniform{1,2}, K = X, offspring uniform{1,2}
HAND_MODEL = DiscreteJointModel(
    kind="renewal",
    support=((1.0, 1, 0.5), (2.0, 2, 0.5)),
    offspring_support=((1.0, 0.5), (2.0, 0.5)),
)
# the bench's oracle-compare-hawkes model
BENCH_HAWKES = DiscreteJointModel(kind="hawkes", support=((1.0, 0.4, 0.5), (2.0, 0.7, 0.5)))
UNIT_XS = (1.0, 2.0, 5.0, 10.0)


@lru_cache(maxsize=1)
def unit_mark_size_tails() -> tuple[float, ...]:
    """P(S > x) at ``UNIT_XS`` over 200,000 simulated clusters of mark 1 and constant kappa 0.6: S is then D."""
    sim = JointMarkModel(Regime.HAWKES_LIGHT_INTENSITY, Constant(1.0), Constant(1.0), target_mean_kappa=0.6)
    sizes = batch_functionals(sim, HawkesParams(), 200_000, RngStream(3, 0)).sizes
    return tuple(float((sizes > x).mean()) for x in UNIT_XS)


class TestRenewalMaxOracle:
    def test_hand_enumeration(self):
        assert exact_renewal_max_tail(HAND_MODEL, 1.0) == pytest.approx(0.75)

    def test_below_support(self):
        assert exact_renewal_max_tail(HAND_MODEL, 0.5) == 1.0

    def test_above_support(self):
        assert exact_renewal_max_tail(HAND_MODEL, 2.0) == 0.0

    def test_k_zero_reduces_to_mark_tail(self):
        model = DiscreteJointModel(
            kind="renewal",
            support=((1.0, 0, 0.25), (2.0, 0, 0.75)),
            offspring_support=((1.0, 1.0),),
        )
        assert exact_renewal_max_tail(model, 1.0) == pytest.approx(0.75)
        assert exact_renewal_sum_tail(model, 1.0) == pytest.approx(0.75)

    def test_distribution_sums_to_one(self):
        values, pmf = exact_renewal_max_distribution(HAND_MODEL)
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(pmf >= -1e-15)
        assert list(values) == [1.0, 2.0]


class TestRenewalSumOracle:
    def test_hand_enumeration(self):
        assert exact_renewal_sum_tail(HAND_MODEL, 4.0) == pytest.approx(0.375)

    def test_below_support(self):
        assert exact_renewal_sum_tail(HAND_MODEL, 0.5) == 1.0

    def test_full_distribution(self):
        values, pmf = exact_renewal_sum_distribution(HAND_MODEL)
        table = {v: p for v, p in zip(values, pmf) if p > 0}
        assert table == {
            2.0: pytest.approx(0.25),
            3.0: pytest.approx(0.25),
            4.0: pytest.approx(0.125),
            5.0: pytest.approx(0.25),
            6.0: pytest.approx(0.125),
        }

    def test_non_integer_lattice(self):
        model = DiscreteJointModel(
            kind="renewal",
            support=((0.5, 1, 1.0),),
            offspring_support=((0.5, 0.5), (1.0, 0.5)),
        )
        # D = 0.5 + {0.5 or 1.0}
        assert exact_renewal_sum_tail(model, 1.0) == pytest.approx(0.5)
        assert exact_renewal_sum_tail(model, 0.9) == pytest.approx(1.0)

    def test_lattice_mismatch(self):
        model = DiscreteJointModel(
            kind="renewal",
            support=((1.0, 1, 1.0),),
            offspring_support=((math.sqrt(2.0), 0.5), (1.0, 0.5)),
        )
        with pytest.raises(LatticeMismatch):
            exact_renewal_sum_tail(model, 1.0)

    def test_lattice_cells_are_capped_before_anything_is_allocated(self):
        # 40 marks of step 1e-4 up to 1.0001 put D on 410,041 cells: refused, where
        # the quadratic convolution used to run for minutes
        wide = DiscreteJointModel(
            kind="renewal", support=((1.0, 40, 1.0),), offspring_support=((1.0, 0.5), (1.0001, 0.5))
        )
        with pytest.raises(ModelError, match="410041 lattice cells") as exc:
            exact_renewal_sum_distribution(wide)
        assert exc.value.field == "support"
        # 15 of them put D on 16,016 cells, inside the cap of 2**14
        at_cap = DiscreteJointModel(
            kind="renewal", support=((1.0, 15, 1.0),), offspring_support=((1.0, 0.5), (1.001, 0.5))
        )
        values, pmf = exact_renewal_sum_distribution(at_cap)
        assert pmf.size == 16_016 and pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert values[np.flatnonzero(pmf)[[0, -1]]] == pytest.approx([16.0, 16.015])

    # 2,000 rows, counts 1 .. 2,000: one convolution power per count
    MANY_COUNTS = DiscreteJointModel(
        kind="renewal",
        support=tuple((1.0, k, 1 / 2000) for k in range(1, 2001)),
        offspring_support=((1.0, 0.5), (2.0, 0.5)),
    )

    def test_one_power_held_at_a_time(self):
        # a power held per count took 32.6 MB for this support, and about 1 GB near the cell cap
        tracemalloc.start()
        try:
            _, pmf = exact_renewal_sum_distribution(self.MANY_COUNTS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_row_order_does_not_change_the_law(self):
        rows = list(self.MANY_COUNTS.support)
        np.random.default_rng(5).shuffle(rows)
        shuffled = DiscreteJointModel(
            kind="renewal", support=tuple(rows), offspring_support=self.MANY_COUNTS.offspring_support
        )
        values, pmf = exact_renewal_sum_distribution(self.MANY_COUNTS)
        values_s, pmf_s = exact_renewal_sum_distribution(shuffled)
        assert np.array_equal(values, values_s)
        assert np.max(np.abs(pmf - pmf_s)) <= 1e-15

    @pytest.mark.parametrize("unit", [1e-10, 1e-13])
    def test_lattice_step_relative_to_the_largest_value(self, unit):
        # the hand model with every mark in units of 1e-10 or 1e-13
        scaled = DiscreteJointModel(
            kind="renewal",
            support=((unit, 1, 0.5), (2 * unit, 2, 0.5)),
            offspring_support=((unit, 0.5), (2 * unit, 0.5)),
        )
        assert exact_renewal_sum_tail(scaled, 4 * unit) == 0.375
        with pytest.raises(LatticeMismatch):
            _lattice_step([1.0, math.sqrt(2.0)])

    def test_monte_carlo_agreement(self):
        h, d = sample_renewal_functionals(HAND_MODEL, 200_000, RngStream(1, 0))
        values, pmf = exact_renewal_sum_distribution(HAND_MODEL)
        exact_cdf = np.cumsum(pmf)
        emp_cdf = np.searchsorted(np.sort(d), values, side="right") / len(d)
        assert np.max(np.abs(emp_cdf - exact_cdf)) < 0.005
        mvalues, mpmf = exact_renewal_max_distribution(HAND_MODEL)
        emp_max = np.searchsorted(np.sort(h), mvalues, side="right") / len(h)
        assert np.max(np.abs(emp_max - np.cumsum(mpmf))) < 0.005

    def test_sampler_deterministic(self):
        a = sample_renewal_functionals(HAND_MODEL, 1000, RngStream(2, 0))
        b = sample_renewal_functionals(HAND_MODEL, 1000, RngStream(2, 0))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestChoose:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("points", [9, 300])
    def test_same_draws_as_generator_choice(self, seed, points):
        # the dense compares, and the search past _DENSE_POINTS, invert the
        # uniforms that choice draws, against its cdf
        rs = np.random.default_rng(seed)
        p = rs.random(int(rs.integers(1, points)))
        p[rs.random(p.size) < 0.3] = 0.0
        p[0] += p.sum() == 0
        p /= p.sum()
        size = int(rs.integers(0, 5_000))
        a, b = (np.random.Generator(np.random.PCG64DXSM(seed)) for _ in range(2))
        expected = a.choice(p.size, size=size, p=p)
        got = _choose(b, p, size)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert a.random() == b.random()  # and the stream is left where choice leaves it


class TestHawkesBracket:
    """The reference bracket by dynamic programming over a truncated tree (``tests/reference.py``)."""

    def test_kappa_zero_degenerate(self):
        model = DiscreteJointModel(kind="hawkes", support=((1.0, 0.0, 0.5), (3.0, 0.0, 0.5)))
        assert truncated_hawkes_sum_tail(model, 2.0, 4, 3) == (0.5, 0.5)

    def test_poisson_zero_count_example(self):
        # X = 1, kappa = 0.5: P(D > 1) = P(at least one child) = 1 - e^{-1/2}
        model = DiscreteJointModel(kind="hawkes", support=((1.0, 0.5, 1.0),))
        lo, hi = truncated_hawkes_sum_tail(model, 1.0, 8, 6)
        truth = 1.0 - math.exp(-0.5)
        assert lo <= truth <= hi
        assert hi - lo < 1e-6

    def test_depth_zero_bounds(self):
        # resolved mass is exactly the no-children event
        model = DiscreteJointModel(kind="hawkes", support=((1.0, 0.5, 1.0),))
        # x below the immigrant mark: every path already exceeds
        assert truncated_hawkes_sum_tail(model, 0.5, 4, 0) == (1.0, 1.0)
        # x above it: only cut paths may exceed
        lo, hi = truncated_hawkes_sum_tail(model, 1.5, 4, 0)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - math.exp(-0.5))

    def test_bracket_monotone_in_truncation(self):
        widths_by_depth = []
        for depth in (1, 2, 3, 5, 8):
            lo, hi = truncated_hawkes_sum_tail(BENCH_HAWKES, 5.0, 6, depth)
            widths_by_depth.append(hi - lo)
        assert all(a >= b - 1e-15 for a, b in zip(widths_by_depth, widths_by_depth[1:]))

        widths_by_children = []
        for children in (1, 2, 4, 8):
            lo, hi = truncated_hawkes_sum_tail(BENCH_HAWKES, 5.0, children, 4)
            widths_by_children.append(hi - lo)
        assert all(
            a >= b - 1e-15 for a, b in zip(widths_by_children, widths_by_children[1:])
        )

    def test_child_counts_priced_once_a_bracket(self, monkeypatch):
        # the Poisson terms of a row's child count do not depend on the depth
        calls, pmf = [], reference._poisson_pmf

        def counted(k, mu):
            calls.append(k)
            return pmf(k, mu)

        want = truncated_hawkes_sum_tail(BENCH_HAWKES, 5.0, 6, 8)
        monkeypatch.setattr(reference, "_poisson_pmf", counted)
        assert truncated_hawkes_sum_tail(BENCH_HAWKES, 5.0, 6, 8) == want
        assert calls == list(range(6 + 1))

    def test_negative_x_rejected(self):
        # D >= 0, so P(D > -1) = 1; the lattice would miss the mass at a zero mark
        model = DiscreteJointModel(kind="hawkes", support=((0.0, 0.5, 0.5), (1.0, 0.5, 0.5)))
        with pytest.raises(ModelError) as excinfo:
            truncated_hawkes_sum_tail(model, -1.0, 4, 3)
        assert excinfo.value.field == "x"

    def test_oversized_bracket_rejected_before_allocating(self):
        # 10^6 lattice cells are past the transform's 2^14, its points' 2^16 over four
        model = DiscreteJointModel(kind="hawkes", support=((1.0, 0.5, 1.0),))
        tracemalloc.start()
        try:
            with pytest.raises(ModelError) as excinfo:
                hawkes_sum_tail(model, [2.0, 1e6])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert excinfo.value.field == "x"
        assert peak < 1 << 20

    def test_benchmark_sized_bracket_accepted(self):
        # x <= 16 with 8 children to depth 10
        lo, hi = truncated_hawkes_sum_tail(BENCH_HAWKES, 16.0, 8, 10)
        assert 0.0 <= lo <= hi <= 1.0

    def test_bracket_vs_monte_carlo(self):
        # constant mark 1, constant kappa 0.6
        model = DiscreteJointModel(kind="hawkes", support=((1.0, 0.6, 1.0),))
        for x, emp in zip(UNIT_XS, unit_mark_size_tails()):
            lo, hi = truncated_hawkes_sum_tail(model, x, 12, 24)
            assert lo - 0.004 <= emp <= hi + 0.004


class TestHawkesSumTail:
    """The transform: its value inside the reference bracket, and its own [lower, upper]."""

    MODELS = [
        DiscreteJointModel(kind="hawkes", support=((1.0, 0.0, 0.5), (3.0, 0.0, 0.5))),
        DiscreteJointModel(kind="hawkes", support=((1.0, 0.5, 1.0),)),
        DiscreteJointModel(kind="hawkes", support=((0.0, 0.5, 0.5), (1.0, 0.5, 0.5))),
        BENCH_HAWKES,
    ]

    @staticmethod
    def assert_inside(model, xs, max_children, max_depth):
        # the value may lie past a bracket that is tight to the last bits by the
        # printed bound, and by the bracket's own rounding, 1e-14 at most here
        for x, (value, lower, upper) in zip(xs, hawkes_sum_tail(model, xs)):
            lo, hi = truncated_hawkes_sum_tail(model, x, max_children, max_depth)
            assert 0.0 <= lower <= value <= upper <= 1.0
            assert lo - (value - lower) - 1e-14 <= value <= hi + (upper - value) + 1e-14, (x, lo, value, hi)

    @pytest.mark.parametrize("model", MODELS, ids=["kappa-zero", "one-row", "zero-mark", "bench"])
    def test_inside_the_reference_bracket(self, model):
        self.assert_inside(model, [0.0, 0.5, 1.0, 2.0, 3.5, 5.0, 9.0], 8, 10)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(0, 6), st.floats(0.0, 3.0, allow_subnormal=False), st.floats(0.05, 1.0)),
            min_size=1,
            max_size=4,
        ),
        mean=st.floats(0.0, 0.8),
        step=st.sampled_from([1.0, 0.5, 0.25]),
        x=st.integers(0, 20),
    )
    def test_inside_the_bracket_for_random_supports(self, rows, mean, step, x):
        total = sum(p for _, _, p in rows)
        weight = sum(kappa * p for _, kappa, p in rows) / total
        # kappa / weight first: mean / weight overflows where the kappas are tiny
        support = tuple(
            (c * step, mean * (kappa / weight) if weight > 0 else 0.0, p / total) for c, kappa, p in rows
        )
        model = DiscreteJointModel(kind="hawkes", support=support)
        self.assert_inside(model, [x * step / 2, x * step], 6, 6)

    def test_bench_model_equals_a_tight_bracket(self):
        xs = [2.0, 4.0, 8.0, 12.0, 16.0]
        for x, (value, lower, upper) in zip(xs, hawkes_sum_tail(BENCH_HAWKES, xs)):
            lo, hi = truncated_hawkes_sum_tail(BENCH_HAWKES, x, 20, 40)
            assert hi - lo < 1e-13
            assert lo - 1e-12 <= value <= hi + 1e-12
            assert upper - lower <= 1e-11

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs a long double wider than a double")
    @pytest.mark.parametrize("support", [((1.0, 0.99, 1.0),), ((1.0, 0.3, 0.5), (3.0, 1.5, 0.5))])
    def test_bound_covers_extended_precision(self, support):
        # up to the largest lattice, 2^14 cells; E[kappa] = 0.99, or a row with kappa = 1.5
        model = DiscreteJointModel(kind="hawkes", support=support)
        xs = [1.0, 100.0, 5_000.0, 16_383.0]
        for (value, lower, upper), want in zip(hawkes_sum_tail(model, xs), reference.hawkes_sum_tail_extended(model, xs)):
            assert abs(value - want) <= max(upper - value, value - lower), (value, want)

    def test_unit_marks_vs_monte_carlo(self):
        model = DiscreteJointModel(kind="hawkes", support=((1.0, 0.6, 1.0),))
        for (value, _, _), emp in zip(hawkes_sum_tail(model, UNIT_XS), unit_mark_size_tails()):
            assert value - 0.004 <= emp <= value + 0.004

    def test_below_the_least_mark_reads_one(self):
        # D is at least the immigrant's mark, 1 or 2
        assert hawkes_sum_tail(BENCH_HAWKES, [-1.0, 0.0, 0.99, 1.0])[:3] == [(1.0, 1.0, 1.0)] * 3

    def test_tails_and_uppers_never_rise(self):
        rows = hawkes_sum_tail(BENCH_HAWKES, list(np.arange(0.0, 3000.0, 0.5)))
        for column in zip(*rows):
            assert all(b <= a for a, b in zip(column, column[1:]))
        assert rows[-1][0] == 0.0

    def test_same_law_in_any_unit(self):
        scaled = DiscreteJointModel(kind="hawkes", support=((1e-10, 0.4, 0.5), (2e-10, 0.7, 0.5)))
        xs = [2.0, 4.0, 8.0, 12.0, 16.0]
        got = hawkes_sum_tail(scaled, [x * 1e-10 for x in xs])
        want = hawkes_sum_tail(BENCH_HAWKES, xs)
        assert np.allclose(got, want, rtol=0.0, atol=1e-14)

    def test_supercritical_support_refused(self):
        with pytest.raises(SupercriticalModel) as excinfo:
            DiscreteJointModel(kind="hawkes", support=((1.0, 0.8, 0.5), (2.0, 1.2, 0.5)))
        assert excinfo.value.field == "support"

    def test_renewal_model_refused(self):
        with pytest.raises(ModelError) as excinfo:
            hawkes_sum_tail(HAND_MODEL, [1.0])
        assert excinfo.value.field == "kind"


class TestAdjudication:
    def test_tail_equivalent_constant_sign(self):
        """The sum-tail constant matches E[K]+1+c*E[X]**alpha, not the -alpha variant."""
        alpha, n = 1.5, 120
        j = np.arange(1, n + 1)
        w = j ** -(alpha + 1.0)
        w = w / w.sum()
        mean_x = float((j * w).sum())
        support = tuple(
            (float(a), float(b), float(w[i] * w[i2]))
            for i, a in enumerate(j)
            for i2, b in enumerate(j)
        )
        model = DiscreteJointModel(
            kind="renewal",
            support=support,
            offspring_support=tuple((float(a), float(w[i])) for i, a in enumerate(j)),
        )
        values, pmf = exact_renewal_sum_distribution(model)
        v_plus = mean_x + 1.0 + mean_x**alpha  # c = 1: equal tails
        v_minus = mean_x + 1.0 + mean_x**-alpha
        for x in (20.0, 30.0, 40.0):
            ratio = pmf[values > x].sum() / w[j > x].sum()
            assert abs(ratio - v_plus) < abs(ratio - v_minus)
            assert ratio > 0.6 * v_plus


class TestValidationAndIO:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ModelError):
            DiscreteJointModel(
                kind="renewal",
                support=((1.0, 1, 0.6), (2.0, 1, 0.6)),
                offspring_support=((1.0, 1.0),),
            )

    def test_renewal_needs_integer_counts(self):
        with pytest.raises(ModelError):
            DiscreteJointModel(
                kind="renewal",
                support=((1.0, 1.5, 1.0),),
                offspring_support=((1.0, 1.0),),
            )
