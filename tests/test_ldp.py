"""Tests for the large-deviation sweep harness.

The strongest check uses the degenerate no-offspring model, where the
window max has the exact law P(max > x) = 1 - exp(-nu T sf(x)): every grid
point of the sweep is compared against that closed form.
"""

import numpy as np
import pytest

from cluster_tails.clusters import HawkesParams, RenewalParams
from cluster_tails.errors import ModelError
from cluster_tails.heavytail import (
    BoundedUniform,
    Exponential,
    JointMarkModel,
    ParetoLaw,
    Regime,
    model_constants,
    pareto_survival,
)
from cluster_tails.ldp import (
    SweepConfig,
    ldp_max_sweep,
    ldp_sum_sweep,
    leftover_scaling,
    leftover_to_csv,
    sweep_summary,
    sweep_to_csv,
)
from cluster_tails.process import WindowConfig
from cluster_tails.rng import RngStream

LAW = ParetoLaw(1.0, 1.5)
RP = RenewalParams(waiting_law=Exponential(1.0))


def sweep_config(count_mean=2.0, horizons=(10.0, 30.0), replications=50_000, **kw):
    model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, count_mean)
    window = WindowConfig(
        model=model, cluster_params=RP, nu=1.0, horizon=horizons[-1]
    )
    return SweepConfig(
        window=window,
        horizons=horizons,
        replications=replications,
        x_levels=kw.pop("x_levels", 6),
        pilot_windows=kw.pop("pilot_windows", 20_000),
        **kw,
    )


class TestMaxSweep:
    def test_degenerate_model_matches_exact_law(self):
        # K = 0: window max over Poisson(nu T) i.i.d. Pareto marks
        config = sweep_config(count_mean=0.0, horizons=(50.0,), replications=200_000)
        rows = ldp_max_sweep(config, RngStream(31, 0))
        for row in rows:
            mu = 50.0 * float(pareto_survival(LAW, row.x))
            exact = 1.0 - np.exp(-mu)
            # compare the raw empirical tail to the exact law within ~4 sigma
            se = np.sqrt(exact * (1 - exact) / config.replications)
            assert abs(row.empirical - exact) < 4 * se + 1e-9
            assert row.denominator == pytest.approx(mu)

    def test_grid_starts_at_gamma_nu_t(self):
        config = sweep_config(horizons=(10.0, 30.0), gamma=0.7)
        rows = ldp_max_sweep(config, RngStream(32, 0))
        for horizon in (10.0, 30.0):
            xs = [r.x for r in rows if r.horizon == horizon]
            assert min(xs) == pytest.approx(0.7 * horizon)
            assert xs == sorted(xs)

    def test_denominator_consistency(self):
        config = sweep_config()
        rows = ldp_max_sweep(config, RngStream(33, 0))
        consts = model_constants(config.window.model)
        for row in rows:
            expected = (
                consts.max_constant_renewal
                * row.horizon
                * float(pareto_survival(LAW, row.x))
            )
            assert row.denominator == pytest.approx(expected, rel=1e-12)

    def test_certified_exceedance_flags(self):
        config = sweep_config(replications=50_000)
        rows = ldp_max_sweep(config, RngStream(34, 0))
        for row in rows:
            assert row.certified == (row.exceedances >= config.min_exceedances)
            if row.certified:
                assert row.ci_low <= row.ratio <= row.ci_high

    def test_deterministic_across_workers(self):
        config = sweep_config(replications=20_000)
        a = ldp_max_sweep(config, RngStream(35, 0))
        b = ldp_max_sweep(config, RngStream(35, 0), workers=2)
        assert a == b

    def test_hawkes_denominator(self):
        model = JointMarkModel(
            Regime.HAWKES_LIGHT_INTENSITY,
            LAW,
            BoundedUniform(0.0, 1.0),
            target_mean_kappa=0.5,
        )
        window = WindowConfig(
            model=model, cluster_params=HawkesParams(), nu=1.0, horizon=20.0
        )
        config = SweepConfig(
            window=window, horizons=(20.0,), replications=20_000, x_levels=4
        )
        rows = ldp_max_sweep(config, RngStream(36, 0))
        for row in rows:
            assert row.denominator == pytest.approx(
                2.0 * 20.0 * float(pareto_survival(LAW, row.x))
            )


class TestSumSweep:
    def test_rows_and_summary_structure(self):
        config = sweep_config(horizons=(10.0, 30.0), replications=30_000)
        rows = ldp_sum_sweep(config, RngStream(41, 0))
        summary = sweep_summary(rows)
        assert summary["horizon_paths"].startswith("shared")
        assert [h["horizon"] for h in summary["horizons"]] == [10.0, 30.0]
        for entry in summary["horizons"]:
            assert entry["certified_points"] >= 1
            assert entry["certified_x_min"] == pytest.approx(0.5 * entry["horizon"])
            assert np.isfinite(entry["sup_abs_dev"])

    def test_deterministic(self):
        config = sweep_config(horizons=(10.0,), replications=20_000)
        a = ldp_sum_sweep(config, RngStream(42, 0))
        b = ldp_sum_sweep(config, RngStream(42, 0), workers=2)
        assert a == b

    def test_sup_dev_decreases_with_horizon(self):
        # finite-T bias at the sweep threshold shrinks as T grows
        config = sweep_config(horizons=(5.0, 50.0), replications=100_000)
        rows = ldp_sum_sweep(config, RngStream(43, 0))
        sups = {r.horizon: r.sup_abs_dev for r in rows}
        assert sups[50.0] < sups[5.0]


class TestLeftoverScaling:
    def test_degenerate_model_all_zero(self):
        config = sweep_config(count_mean=0.0, horizons=(5.0, 10.0), replications=10_000)
        rows = leftover_scaling(config, RngStream(51, 0))
        for row in rows:
            assert row.j_over_t == 0.0
            assert row.eps_over_sqrt_t == 0.0

    def test_columns_decreasing(self):
        config = sweep_config(horizons=(10.0, 50.0, 100.0), replications=30_000)
        rows = leftover_scaling(config, RngStream(52, 0))
        j = [r.j_over_t for r in rows]
        eps = [r.eps_over_sqrt_t for r in rows]
        assert j[0] > j[1] > j[2]
        assert eps[0] > eps[1] > eps[2]

    def test_csv_output(self, tmp_path):
        config = sweep_config(horizons=(5.0,), replications=10_000)
        rows = leftover_scaling(config, RngStream(53, 0))
        text = leftover_to_csv(rows, tmp_path / "leftover.csv")
        assert text.startswith("horizon,")
        assert (tmp_path / "leftover.csv").read_text() == text


class TestSweepValidation:
    def test_horizons_ascending_required(self):
        with pytest.raises(ModelError):
            sweep_config(horizons=(30.0, 10.0))

    def test_min_replications(self):
        with pytest.raises(ModelError):
            sweep_config(replications=100)

    def test_csv_format(self, tmp_path):
        config = sweep_config(horizons=(10.0,), replications=20_000)
        rows = ldp_max_sweep(config, RngStream(54, 0))
        text = sweep_to_csv(rows, tmp_path / "sweep.csv")
        header = text.splitlines()[0]
        assert header == (
            "horizon,x,exceedances,empirical,denominator,ratio,ci_low,ci_high,sup_abs_dev"
        )
        assert len(text.splitlines()) == len(rows) + 1
