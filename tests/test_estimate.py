"""Tests for empirical-tail machinery."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cluster_tails.errors import (
    ConfigError,
    DegenerateTail,
    InsufficientExceedances,
    UnstableEstimate,
)
from cluster_tails.estimate import (
    QuantileGrid,
    TailSample,
    hill_estimator,
    laplace_derivative_table,
    ratio_curve,
    table_slope,
    wilson_interval,
)
from cluster_tails.heavytail import JointMarkModel, ParetoLaw, Regime
from cluster_tails.rng import RngStream

LAW = ParetoLaw(1.0, 1.5)


def pareto_values(seed: int, n: int) -> np.ndarray:
    return LAW.sample(RngStream(seed, 0).generator, n)


class TestEmpiricalSurvival:
    """Exceedance counts and their Wilson bands, as the cluster-tails experiment reports them."""

    SAMPLE = TailSample.from_values([1.0, 2.0, 3.0, 4.0])

    def test_simple_count(self):
        assert self.SAMPLE.exceedances(2.5) == 2

    def test_below_min(self):
        assert self.SAMPLE.exceedances(0.5) == self.SAMPLE.n

    def test_above_max_wilson_positive(self):
        count = self.SAMPLE.exceedances(10.0)
        lo, hi = wilson_interval(count, self.SAMPLE.n)
        assert count == 0 and lo == 0.0 and hi > 0.0

    @given(st.lists(st.floats(0, 1e6), min_size=1, max_size=200), st.floats(0, 1e6))
    def test_exact_order_statistic_count(self, values, x):
        sample = TailSample.from_values(values)
        count = sample.exceedances(x)
        assert count == sum(1 for v in values if v > x)
        lo, hi = wilson_interval(count, sample.n)
        assert lo <= count / sample.n <= hi

    def test_wilson_contains_estimate(self):
        for count, n in [(0, 10), (5, 10), (10, 10), (37, 1000)]:
            lo, hi = wilson_interval(count, n)
            assert lo <= count / n <= hi


class TestRatioCurve:
    def test_insufficient_exceedances(self):
        sample = TailSample.from_values(range(1, 101))
        with pytest.raises(InsufficientExceedances):
            ratio_curve(
                sample,
                JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 0.0),
                "max",
                QuantileGrid(levels=(0.5, 0.999), min_exceedances=50),
            )

    def test_exceedances_nonincreasing_and_csv(self):
        curve = ratio_curve(
            TailSample.from_values(pareto_values(2, 100_000)),
            JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 0.0),
            "max",
            QuantileGrid(levels=(0.9, 0.99, 0.999)),
        )
        assert np.all(np.diff(curve.exceedances) <= 0)
        text = curve.to_csv()
        assert text.splitlines()[0] == "# denominator=renewal-max joint=closed"
        assert text.splitlines()[1].startswith("x,exceedances")


class TestHill:
    def test_hand_example(self):
        sample = TailSample.from_values([math.e, math.e**2, math.e**3, math.e**4])
        est = hill_estimator(sample, 3)
        assert est.alpha_hat == pytest.approx(0.5)
        assert est.se == pytest.approx(0.5 / math.sqrt(3))

    def test_pareto_recovery(self):
        est = hill_estimator(TailSample.from_values(pareto_values(3, 1_000_000)), 1000)
        assert est.alpha_hat == pytest.approx(1.5, abs=0.15)

    @given(scale=st.floats(0.001, 1000))
    def test_scale_invariance_exact(self, scale):
        base = [1.0, 3.0, 9.0, 27.0, 81.0, 243.0]
        a = hill_estimator(TailSample.from_values(base), 4).alpha_hat
        b = hill_estimator(
            TailSample.from_values([v * scale for v in base]), 4
        ).alpha_hat
        assert a == pytest.approx(b, rel=1e-9)

    def test_degenerate_tail(self):
        sample = TailSample.from_values([1.0, 5.0, 5.0, 5.0, 5.0])
        with pytest.raises(DegenerateTail):
            hill_estimator(sample, 3)

    def test_k_bounds(self):
        sample = TailSample.from_values([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            hill_estimator(sample, 1)
        with pytest.raises(ValueError):
            hill_estimator(sample, 3)


class TestLaplaceDerivative:
    """Exact values of one-point tables: the derivative at one s and its standard error."""

    def test_order_two_at_zero(self):
        (val,), (se,) = laplace_derivative_table(TailSample.from_values([1.0, 1.0, 1.0]), [0.0], 2)
        assert (val, se) == (1.0, 0.0)

    def test_single_point(self):
        # one value, twice, so that its standard error is defined (and 0)
        sample = TailSample.from_values([2.0, 2.0])
        (val,), (se,) = laplace_derivative_table(sample, [math.log(2)], 1)
        assert val == pytest.approx(-0.5) and se == 0.0

    def test_large_s_vanishes(self):
        sample = TailSample.from_values(pareto_values(4, 1000))
        (val,), (se,) = laplace_derivative_table(sample, [1e6], 3)
        assert abs(val) < 1e-12 and se < 1e-12

    def test_zeroth_order_is_one_at_zero(self):
        sample = TailSample.from_values(pareto_values(5, 1000))
        (val,), (se,) = laplace_derivative_table(sample, [0.0], 0)
        assert (val, se) == (1.0, 0.0)


class TestTauberianSlope:
    """``table_slope`` of the ceil(alpha)-th derivative's table: the tauberian experiment's fit."""

    S_GRID = np.geomspace(1e-3, 1e-1, 9)

    def test_pareto_slope(self):
        sample = TailSample.from_values(pareto_values(6, 10_000_000))
        slope = table_slope(self.S_GRID, *laplace_derivative_table(sample, self.S_GRID, 2))
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_matches_exact_transform(self):
        # for Pareto(1, 3/2): E[X^2 e^{-sX}] = 1.5 s^{-1/2} Gamma(1/2, s)
        from scipy import special

        vals, _ = laplace_derivative_table(
            TailSample.from_values(pareto_values(7, 2_000_000)), self.S_GRID, 2
        )
        exact = (
            1.5
            * self.S_GRID ** -0.5
            * special.gamma(0.5)
            * special.gammaincc(0.5, self.S_GRID)
        )
        assert np.all(np.abs(vals / exact - 1.0) < 0.05)

    def test_light_tail_flat(self):
        gen = RngStream(8, 0).generator
        sample = TailSample.from_values(gen.exponential(1.0, 10_000_000))
        slope = table_slope(self.S_GRID, *laplace_derivative_table(sample, self.S_GRID, 2))
        assert abs(slope) < 0.1

    def test_integer_alpha_rejected(self):
        # the ceil(alpha)-th derivative of an integer alpha has no power-law
        # blow-up to fit, so the experiment rejects alpha = 2 before it draws
        from cluster_tails.cli import ExperimentConfig

        model = {
            "regime": "IndependentLightCount",
            "mark": {"law": "pareto", "scale": 1.0, "alpha": 2.0},
            "count": {"poisson_mean": 1.0},
        }
        with pytest.raises(ConfigError) as excinfo:
            ExperimentConfig.from_dict({"experiment": "tauberian", "seed": 1, "model": model})
        assert excinfo.value.field == "model.mark.alpha"

    def test_unstable_estimate(self):
        sample = TailSample.from_values([1.0] * 99 + [1e6])
        s_grid = [1e-6, 1e-5]
        with pytest.raises(UnstableEstimate):
            table_slope(s_grid, *laplace_derivative_table(sample, s_grid, 2))
