"""Tests for the large-deviation sweep harness.

The strongest check uses the degenerate no-offspring model, where the
window max has the exact law P(max > x) = 1 - exp(-nu T sf(x)): every grid
point of the sweep is compared against that closed form.
"""

import hashlib
import json

import numpy as np
import pytest

from cluster_tails.clusters import HawkesParams, RenewalParams
from cluster_tails.cli import run
from cluster_tails.errors import ModelError
from cluster_tails.estimate import _Z95, wilson_interval
from cluster_tails.heavytail import (
    BoundedUniform,
    Exponential,
    JointMarkModel,
    ParetoLaw,
    Regime,
    model_constants,
)
from cluster_tails.ldp import (
    SweepConfig,
    ldp_max_sweep,
    ldp_sum_sweep,
    leftover_estimator,
    leftover_scaling,
    leftover_to_csv,
    sweep_summary,
    sweep_to_csv,
)
from cluster_tails.process import WindowConfig
from cluster_tails.rng import RngStream
from reference import hawkes_leftover_mean

LAW = ParetoLaw(1.0, 1.5)
RP = RenewalParams(waiting_law=Exponential(1.0))


def sweep_config(count_mean=2.0, horizons=(10.0, 30.0), replications=50_000, **kw):
    model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, count_mean)
    window = WindowConfig(model=model, cluster_params=RP, nu=1.0)
    return SweepConfig(
        window=window,
        horizons=horizons,
        replications=replications,
        x_levels=kw.pop("x_levels", 6),
        **kw,
    )


class TestMaxSweep:
    def test_degenerate_model_matches_exact_law(self):
        # K = 0: window max over Poisson(nu T) i.i.d. Pareto marks
        config = sweep_config(count_mean=0.0, horizons=(50.0,), replications=200_000)
        rows = ldp_max_sweep(config, RngStream(31, 0))
        for row in rows:
            mu = 50.0 * float(LAW.survival(row.x))
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
                consts.mean_cluster_size
                * row.horizon
                * float(LAW.survival(row.x))
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
        window = WindowConfig(model=model, cluster_params=HawkesParams(), nu=1.0)
        config = SweepConfig(
            window=window, horizons=(20.0,), replications=20_000, x_levels=4
        )
        rows = ldp_max_sweep(config, RngStream(36, 0))
        for row in rows:
            assert row.denominator == pytest.approx(
                2.0 * 20.0 * float(LAW.survival(row.x))
            )


def model_sweep(model, params, horizons=(10.0, 30.0), replications=20_000):
    window = WindowConfig(model=model, cluster_params=params, nu=1.0)
    return SweepConfig(window=window, horizons=horizons, replications=replications, x_levels=6)


LIGHT_COUNT = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 2.0)
HAWKES_LIGHT = JointMarkModel(
    Regime.HAWKES_LIGHT_INTENSITY, LAW, BoundedUniform(0.0, 1.0), target_mean_kappa=0.5
)
COMONOTONE = {
    "ComonotoneCount": (JointMarkModel(Regime.COMONOTONE_COUNT, LAW), RP),
    "HawkesComonotoneIntensity": (
        JointMarkModel(Regime.HAWKES_COMONOTONE_INTENSITY, LAW, target_mean_kappa=0.5),
        HawkesParams(),
    ),
}


class TestConditionalMaxSweep:
    """With independent marks the max sweep averages 1 - F(x)**N_T over the windows."""

    @pytest.mark.parametrize(
        "model, params",
        [(LIGHT_COUNT, RP), (HAWKES_LIGHT, HawkesParams())],
        ids=["renewal", "hawkes-light"],
    )
    def test_agrees_with_crude_count_on_the_same_paths(self, model, params):
        config = model_sweep(model, params)
        rows = ldp_max_sweep(config, RngStream(37, 0))
        n = config.replications
        assert len(rows) == 12
        for row in rows:
            crude = row.exceedances / n
            lo, hi = wilson_interval(row.exceedances, n)
            assert abs(row.empirical - crude) <= 4 * (hi - lo) / (2 * _Z95), row
            assert row.empirical != crude

    def test_degenerate_model_within_conditional_se_of_exact_law(self):
        # K = 0: N_T is Poisson(nu T), so E[1 - F(x)**N_T] = 1 - exp(-nu T sf(x)) exactly
        config = sweep_config(count_mean=0.0, horizons=(50.0,), replications=50_000)
        rows = ldp_max_sweep(config, RngStream(38, 0))
        for row in rows:
            exact = -np.expm1(-50.0 * float(LAW.survival(row.x)))
            se = (row.ci_high - row.ci_low) * row.denominator / (2 * _Z95)
            assert 0.0 < se < 0.01
            assert abs(row.empirical - exact) <= 4 * se, row

    # sha256 of sweep_to_csv of the rows: the comonotone regimes keep the crude estimator
    CRUDE_ROWS = {
        "ComonotoneCount": "06205c6efc01a0b293b3c1f909a8fb5ea48054aeca0e3ef1ec7e04183312892d",
        "HawkesComonotoneIntensity": (
            "4c0c2bcbc14261244c95db1c3e2791953b33432f77a9ac5d4c94769f7b0d2528"
        ),
    }

    @pytest.mark.parametrize("name", sorted(COMONOTONE))
    def test_comonotone_regimes_keep_the_crude_rows(self, name):
        model, params = COMONOTONE[name]
        assert not model.independent_marks
        config = model_sweep(model, params)
        rows = ldp_max_sweep(config, RngStream(39, 0))
        for row in rows:
            assert row.empirical == row.exceedances / config.replications
        digest = hashlib.sha256(sweep_to_csv(rows).encode()).hexdigest()
        assert digest == self.CRUDE_ROWS[name]

    @pytest.mark.parametrize(
        "model, params",
        [
            (LIGHT_COUNT, RP),
            (HAWKES_LIGHT, HawkesParams()),
            *COMONOTONE.values(),
        ],
        ids=["renewal", "hawkes-light", *sorted(COMONOTONE)],
    )
    def test_band_contains_ratio_on_every_row(self, model, params):
        rows = ldp_max_sweep(model_sweep(model, params, replications=10_000), RngStream(40, 0))
        for row in rows:
            assert 0.0 <= row.ci_low <= row.ratio <= row.ci_high, row

    @pytest.mark.parametrize(
        "model, route",
        [
            ({"regime": "IndependentLightCount", "count": {"poisson_mean": 2.0}}, "conditional"),
            ({"regime": "ComonotoneCount"}, "crude"),
        ],
    )
    def test_summary_names_the_route(self, tmp_path, model, route):
        config = tmp_path / "ldp-max.json"
        mark = {"law": "pareto", "scale": 1.0, "alpha": 1.5}
        config.write_text(json.dumps({
            "experiment": "ldp-max", "seed": 3, "model": {**model, "mark": mark},
            "output_dir": str(tmp_path),
            "ldp": {"horizons": [5.0], "replications": 10_000, "x_levels": 3},
        }))
        _, json_path, _ = run(config)
        summary = json.loads(json_path.read_text())
        assert summary["estimator"].startswith(route)


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

    @pytest.mark.parametrize("mean_kappa", [0.3, 0.7])
    def test_hawkes_rows_match_campbell(self, mean_kappa):
        # Hawkes rows average E[J_T | path to T] and E[eps_T | path to T]
        horizons = (5.0, 20.0, 100.0)
        model = JointMarkModel(
            Regime.HAWKES_LIGHT_INTENSITY, LAW, BoundedUniform(0.0, 1.0),
            target_mean_kappa=mean_kappa,
        )
        window = WindowConfig(model, HawkesParams(), 1.0)
        config = SweepConfig(window=window, horizons=horizons, replications=20_000)
        rows = leftover_scaling(config, RngStream(55, 0))
        for row in rows:
            t = row.horizon
            exact = hawkes_leftover_mean(1.0, mean_kappa, 1.0, t)
            assert abs(row.j_over_t - exact / t) <= 3 * row.j_over_t_se, row
            eps = LAW.mean() * exact / t**0.5
            assert abs(row.eps_over_sqrt_t - eps) <= 3 * row.eps_over_sqrt_t_se, row
            # conditional: eps is E[X] times J window by window
            assert row.eps_over_sqrt_t_se == pytest.approx(
                LAW.mean() * row.j_over_t_se * t**0.5, rel=1e-9
            )

    def test_estimator_names_the_route(self):
        hawkes = JointMarkModel(
            Regime.HAWKES_LIGHT_INTENSITY, LAW, BoundedUniform(0.0, 1.0), target_mean_kappa=0.5
        )
        assert leftover_estimator(hawkes).startswith("conditional Monte Carlo")
        renewal = sweep_config().window.model
        assert leftover_estimator(renewal).startswith("crude Monte Carlo")

    def test_csv_output(self):
        config = sweep_config(horizons=(5.0,), replications=10_000)
        rows = leftover_scaling(config, RngStream(53, 0))
        text = leftover_to_csv(rows)
        assert text.startswith("horizon,")
        assert len(text.splitlines()) == len(rows) + 1


class TestSweepValidation:
    def test_horizons_ascending_required(self):
        with pytest.raises(ModelError):
            sweep_config(horizons=(30.0, 10.0))

    def test_repeated_horizon_rejected(self):
        with pytest.raises(ModelError) as exc_info:
            sweep_config(horizons=(10.0, 10.0))
        assert exc_info.value.field == "horizons"

    def test_min_replications(self):
        with pytest.raises(ModelError):
            sweep_config(replications=100)

    def test_csv_format(self):
        config = sweep_config(horizons=(10.0,), replications=20_000)
        rows = ldp_max_sweep(config, RngStream(54, 0))
        text = sweep_to_csv(rows)
        header = text.splitlines()[0]
        assert header == (
            "horizon,x,exceedances,empirical,denominator,ratio,ci_low,ci_high,sup_abs_dev"
        )
        assert len(text.splitlines()) == len(rows) + 1
