"""Tests for the exact discrete oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from cluster_tails.errors import LatticeMismatch, ModelError
from cluster_tails.oracle import (
    DiscreteJointModel,
    exact_renewal_max_distribution,
    exact_renewal_max_tail,
    exact_renewal_sum_distribution,
    exact_renewal_sum_tail,
    sample_renewal_functionals,
    truncated_hawkes_sum_tail,
)
from cluster_tails.rng import RngStream

# X uniform{1,2}, K = X, offspring uniform{1,2}
HAND_MODEL = DiscreteJointModel(
    kind="renewal",
    support=((1.0, 1, 0.5), (2.0, 2, 0.5)),
    offspring_support=((1.0, 0.5), (2.0, 0.5)),
)


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


class TestHawkesBracket:
    def test_kappa_zero_degenerate(self):
        model = DiscreteJointModel(
            kind="hawkes",
            support=((1.0, 0.0, 0.5), (3.0, 0.0, 0.5)),
            max_children=4,
            max_depth=3,
        )
        assert truncated_hawkes_sum_tail(model, 2.0) == (0.5, 0.5)

    def test_poisson_zero_count_example(self):
        # X = 1, kappa = 0.5: P(D > 1) = P(at least one child) = 1 - e^{-1/2}
        model = DiscreteJointModel(
            kind="hawkes", support=((1.0, 0.5, 1.0),), max_children=8, max_depth=6
        )
        lo, hi = truncated_hawkes_sum_tail(model, 1.0)
        truth = 1.0 - math.exp(-0.5)
        assert lo <= truth <= hi
        assert hi - lo < 1e-6

    def test_depth_zero_bounds(self):
        # resolved mass is exactly the no-children event
        model = DiscreteJointModel(
            kind="hawkes", support=((1.0, 0.5, 1.0),), max_children=4, max_depth=0
        )
        # x below the immigrant mark: every path already exceeds
        assert truncated_hawkes_sum_tail(model, 0.5) == (1.0, 1.0)
        # x above it: only cut paths may exceed
        lo, hi = truncated_hawkes_sum_tail(model, 1.5)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 - math.exp(-0.5))

    def test_bracket_monotone_in_truncation(self):
        widths_by_depth = []
        for depth in (1, 2, 3, 5, 8):
            model = DiscreteJointModel(
                kind="hawkes",
                support=((1.0, 0.4, 0.5), (2.0, 0.7, 0.5)),
                max_children=6,
                max_depth=depth,
            )
            lo, hi = truncated_hawkes_sum_tail(model, 5.0)
            widths_by_depth.append(hi - lo)
        assert all(a >= b - 1e-15 for a, b in zip(widths_by_depth, widths_by_depth[1:]))

        widths_by_children = []
        for children in (1, 2, 4, 8):
            model = DiscreteJointModel(
                kind="hawkes",
                support=((1.0, 0.4, 0.5), (2.0, 0.7, 0.5)),
                max_children=children,
                max_depth=4,
            )
            lo, hi = truncated_hawkes_sum_tail(model, 5.0)
            widths_by_children.append(hi - lo)
        assert all(
            a >= b - 1e-15 for a, b in zip(widths_by_children, widths_by_children[1:])
        )

    def test_negative_x_rejected(self):
        # D >= 0, so P(D > -1) = 1; the lattice would miss the mass at a zero mark
        model = DiscreteJointModel(
            kind="hawkes", support=((0.0, 0.5, 0.5), (1.0, 0.5, 0.5)), max_children=4, max_depth=3
        )
        with pytest.raises(ModelError) as excinfo:
            truncated_hawkes_sum_tail(model, -1.0)
        assert excinfo.value.field == "x"

    def test_oversized_bracket_rejected_before_allocating(self):
        # 10^6 lattice cells: about 10^13 units of convolution work
        model = DiscreteJointModel(
            kind="hawkes", support=((1.0, 0.5, 1.0),), max_children=4, max_depth=3
        )
        tracemalloc.start()
        try:
            with pytest.raises(ModelError) as excinfo:
                truncated_hawkes_sum_tail(model, 1e6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert excinfo.value.field == "x"
        assert peak < 1 << 20

    def test_benchmark_sized_bracket_accepted(self):
        # x <= 16 with 8 children to depth 10 is far inside the work budget
        model = DiscreteJointModel(
            kind="hawkes",
            support=((1.0, 0.4, 0.5), (2.0, 0.7, 0.5)),
            max_children=8,
            max_depth=10,
        )
        lo, hi = truncated_hawkes_sum_tail(model, 16.0)
        assert 0.0 <= lo <= hi <= 1.0

    def test_bracket_vs_monte_carlo(self):
        from cluster_tails.clusters import HawkesParams, batch_functionals
        from cluster_tails.heavytail import Constant, JointMarkModel, Regime

        # constant mark 1, constant kappa 0.6
        model = DiscreteJointModel(
            kind="hawkes", support=((1.0, 0.6, 1.0),), max_children=12, max_depth=24
        )
        sim = JointMarkModel(
            Regime.HAWKES_LIGHT_INTENSITY,
            Constant(1.0),
            Constant(1.0),
            target_mean_kappa=0.6,
        )
        sizes = batch_functionals(
            sim, HawkesParams(), 200_000, RngStream(3, 0)
        ).sizes
        for x in (1.0, 2.0, 5.0, 10.0):
            lo, hi = truncated_hawkes_sum_tail(model, x)
            emp = (sizes > x).mean()  # D = total size since all marks are 1
            assert lo - 0.004 <= emp <= hi + 0.004


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

    def test_csv_round_trip(self, tmp_path):
        joint = tmp_path / "joint.csv"
        offspring = tmp_path / "offspring.csv"
        joint.write_text("x_value,k_value_or_kappa,probability\n1.0,1,0.5\n2.0,2,0.5\n")
        offspring.write_text("mark,probability\n1.0,0.5\n2.0,0.5\n")
        model = DiscreteJointModel.from_csv(joint, offspring)
        assert model == HAND_MODEL
        assert exact_renewal_max_tail(model, 1.0) == pytest.approx(0.75)
