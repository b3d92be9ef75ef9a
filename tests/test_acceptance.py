"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with ``pytest -s`` to see
them on success).  Tolerances are pinned here and never relaxed; a failing
criterion fails loudly with the measured numbers in the assertion message.
"""

import json
import math
import time

import numpy as np
import pytest

from cluster_tails.clusters import HawkesParams, RenewalParams, batch_functionals
from cluster_tails.estimate import (
    QuantileGrid,
    TailSample,
    hill_estimator,
    laplace_derivative_table,
    ratio_curve,
    table_slope,
)
from cluster_tails.heavytail import (
    BoundedUniform,
    Exponential,
    JointMarkModel,
    OracleSpec,
    ParetoLaw,
    Regime,
    count_survival,
    model_constants,
)
from cluster_tails.ldp import (
    SweepConfig,
    ldp_max_sweep,
    ldp_sum_sweep,
    leftover_scaling,
)
from cluster_tails.oracle import (
    DiscreteJointModel,
    exact_renewal_max_distribution,
    exact_renewal_max_tail,
    exact_renewal_sum_distribution,
    exact_renewal_sum_tail,
    sample_renewal_functionals,
)
from cluster_tails.process import WindowConfig, sweep_windows
from cluster_tails.rng import RngStream

MARK = ParetoLaw(1.0, 1.5)
RP = RenewalParams(waiting_law=Exponential(1.0))
HP = HawkesParams()
GRID = QuantileGrid()  # empirical quantiles 0.99 .. 0.9999

LIGHT_COUNT = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, MARK, 2.0)
HEAVY_COUNT = JointMarkModel(
    Regime.INDEPENDENT_HEAVY_COUNT, Exponential(1.0), ParetoLaw(1.0, 1.5)
)
TAIL_EQUIVALENT = JointMarkModel(
    Regime.INDEPENDENT_TAIL_EQUIVALENT, MARK, ParetoLaw(1.0, 1.5)
)
HAWKES_LIGHT = JointMarkModel(
    Regime.HAWKES_LIGHT_INTENSITY, MARK, BoundedUniform(0.0, 1.0), target_mean_kappa=0.5
)
HAWKES_COMONOTONE = JointMarkModel(
    Regime.HAWKES_COMONOTONE_INTENSITY, MARK, target_mean_kappa=0.5
)

N_CLUSTERS = 10_000_000


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {label}: {detail}")


def _quantile_ratio(sample, denominator_fn, levels=GRID.levels):
    """Empirical survival over a custom denominator on the quantile grid."""
    ts = TailSample.from_values(sample)
    xs = np.quantile(ts.values, list(levels))
    emp = np.array([ts.exceedances(float(x)) / ts.n for x in xs])
    return xs, emp / denominator_fn(xs)


class TestCriterion1RenewalMax:
    def test_renewal_max_ratio(self):
        started = time.time()
        fs = batch_functionals(LIGHT_COUNT, RP, N_CLUSTERS, RngStream(404, 0))
        curve = ratio_curve(TailSample.from_values(fs.h), LIGHT_COUNT, "max", GRID)
        elapsed = time.time() - started
        ok = bool(np.all((curve.ratio >= 0.90) & (curve.ratio <= 1.10))) and elapsed <= 300
        _report(
            "1",
            ok,
            f"renewal max ratios {np.round(curve.ratio, 4).tolist()} "
            f"in [0.90, 1.10]; {elapsed:.0f}s <= 300s",
        )
        assert np.all(curve.ratio >= 0.90) and np.all(curve.ratio <= 1.10), curve.ratio
        assert elapsed <= 300


class TestCriterion2RenewalSum:
    def test_2a_light_count(self):
        fs = batch_functionals(LIGHT_COUNT, RP, N_CLUSTERS, RngStream(404, 0))
        xs, ratios = _quantile_ratio(
            fs.d, lambda x: 3.0 * np.asarray(MARK.survival(x))
        )
        ok = bool(np.all((ratios >= 0.85) & (ratios <= 1.15)))
        _report("2a", ok, f"light-count sum ratios {np.round(ratios, 4).tolist()} in [0.85, 1.15]")
        assert ok, (
            f"ratio to (1+E[K])*P(X>x) is {np.round(ratios, 4).tolist()} on the "
            f"0.99..0.9999 quantile grid {np.round(xs, 1).tolist()}; the finite-x "
            f"second-order terms of the sum tail are ~alpha*E[X]*E[K]/x (~25% at "
            f"the 99% quantile), so the stated 15% band cannot hold there"
        )

    def test_2b_heavy_count(self):
        fs = batch_functionals(HEAVY_COUNT, RP, N_CLUSTERS, RngStream(401, 0))
        # (E[X])^alpha * P(K > x) with E[X] = 1
        xs, ratios = _quantile_ratio(
            fs.d, lambda x: np.array([count_survival(HEAVY_COUNT, float(v)) for v in x])
        )
        ok = bool(np.all((ratios >= 0.80) & (ratios <= 1.20)))
        _report("2b", ok, f"heavy-count sum ratios {np.round(ratios, 4).tolist()} in [0.80, 1.20]")
        assert ok, ratios

    def test_2c_tail_equivalent(self, tmp_path):
        fs = batch_functionals(TAIL_EQUIVALENT, RP, N_CLUSTERS, RngStream(403, 0))
        spec = OracleSpec(size=10_000_000, seed=0)
        curve = ratio_curve(
            TailSample.from_values(fs.d),
            TAIL_EQUIVALENT,
            "sum",
            GRID,
            oracle=spec,
        )
        ok = bool(np.all((curve.ratio >= 0.80) & (curve.ratio <= 1.20)))

        # adjudicate the tail-equivalent constant: the limit of
        # P(D > x) / P(X > x) matches E[K] + 1 + c * E[X]**alpha (c = 1 here),
        # not the variant with a negative exponent
        consts = model_constants(TAIL_EQUIVALENT)
        _, extracted = _quantile_ratio(
            fs.d, lambda x: np.asarray(MARK.survival(x))
        )
        v_plus = consts.mean_count + 1.0 + consts.mean_mark**1.5
        v_minus = consts.mean_count + 1.0 + consts.mean_mark**-1.5
        adjudicated = bool(
            np.all(np.abs(extracted - v_plus) < np.abs(extracted - v_minus))
        )
        _report(
            "2c",
            ok and adjudicated,
            f"tail-equivalent ratios {np.round(curve.ratio, 4).tolist()} in [0.80, 1.20]; "
            f"extracted constant {np.round(extracted, 2).tolist()} adjudicates "
            f"{v_plus:.3f} (positive exponent) over {v_minus:.3f}",
        )
        assert ok, curve.ratio
        assert adjudicated, (extracted, v_plus, v_minus)


class TestCriterion3HawkesMax:
    def test_hawkes_max_ratio(self):
        fs = batch_functionals(HAWKES_LIGHT, HP, N_CLUSTERS, RngStream(405, 0))
        curve = ratio_curve(TailSample.from_values(fs.h), HAWKES_LIGHT, "max", GRID)
        ok = bool(np.all((curve.ratio >= 0.90) & (curve.ratio <= 1.10)))
        _report("3", ok, f"hawkes max ratios {np.round(curve.ratio, 4).tolist()} in [0.90, 1.10]")
        assert ok, curve.ratio


class TestCriterion4HawkesSum:
    def test_hawkes_sum_ratio(self):
        fs = batch_functionals(HAWKES_COMONOTONE, HP, N_CLUSTERS, RngStream(402, 0))
        # kappa = X/6 and shift 6 make the denominator 2 * P(2X > x)
        curve = ratio_curve(
            TailSample.from_values(fs.d), HAWKES_COMONOTONE, "sum", GRID
        )
        explicit = 2.0 * np.asarray(MARK.survival(curve.grid / 2.0))
        assert np.allclose(curve.denominator, explicit)
        ok = bool(np.all((curve.ratio >= 0.80) & (curve.ratio <= 1.20)))
        _report("4", ok, f"hawkes sum ratios {np.round(curve.ratio, 4).tolist()} in [0.80, 1.20]")
        assert ok, curve.ratio


class TestCriterion5MeanClusterSize:
    def test_mean_total_points(self):
        rels = {}
        for kappa in (0.3, 0.5, 0.8):
            model = JointMarkModel(
                Regime.HAWKES_LIGHT_INTENSITY,
                MARK,
                BoundedUniform(0.0, 1.0),
                target_mean_kappa=kappa,
            )
            sizes = batch_functionals(model, HP, 1_000_000, RngStream(505, 0)).sizes
            rels[kappa] = abs(sizes.mean() * (1.0 - kappa) - 1.0)
        ok = all(r < 0.02 for r in rels.values())
        _report("5", ok, f"mean cluster size rel errors {rels} all < 2%")
        assert ok, rels


class TestCriterion6OracleEquivalence:
    def test_exact_values_and_monte_carlo(self):
        model = DiscreteJointModel(
            kind="renewal",
            support=((1.0, 1, 0.5), (2.0, 2, 0.5)),
            offspring_support=((1.0, 0.5), (2.0, 0.5)),
        )
        assert exact_renewal_max_tail(model, 1.0) == pytest.approx(0.75)
        assert exact_renewal_sum_tail(model, 4.0) == pytest.approx(0.375)
        h, d = sample_renewal_functionals(model, 1_000_000, RngStream(506, 0))
        ks = {}
        for name, values, (xs, pmf) in (
            ("max", h, exact_renewal_max_distribution(model)),
            ("sum", d, exact_renewal_sum_distribution(model)),
        ):
            emp = np.searchsorted(np.sort(values), xs, side="right") / len(values)
            ks[name] = float(np.max(np.abs(emp - np.cumsum(pmf))))
        ok = all(v < 0.002 for v in ks.values())
        _report("6", ok, f"exact 0.75 / 0.375 reproduced; KS {ks} < 0.002")
        assert ok, ks


class TestCriterion7TauberianSlope:
    S_GRID = np.geomspace(1e-3, 1e-1, 9)

    def _slope(self, sample):
        # alpha = 1.5: the second derivative blows up like s**-0.5 as s -> 0
        return table_slope(self.S_GRID, *laplace_derivative_table(sample, self.S_GRID, 2))

    def test_pareto_marks_slope(self):
        values = MARK.sample(RngStream(22, 0).generator, N_CLUSTERS)
        slope = self._slope(TailSample.from_values(values))
        ok = abs(slope + 0.5) < 0.15
        _report("7", ok, f"Pareto marks transform slope {slope:.4f} within 0.15 of -0.5")
        assert ok, slope

    def test_renewal_sum_slope(self):
        fs = batch_functionals(LIGHT_COUNT, RP, N_CLUSTERS, RngStream(301, 0))
        slope = self._slope(TailSample.from_values(fs.d))
        ok = abs(slope + 0.5) < 0.15
        _report("7", ok, f"renewal sum transform slope {slope:.4f} within 0.15 of -0.5")
        assert ok, slope


class TestCriterion8HillTransfer:
    def test_hill_on_functionals(self):
        # the four ratio-test models (criteria 1, 2c, 3, 4)
        cases = {
            "light_count": (LIGHT_COUNT, RP),
            "tail_equivalent": (TAIL_EQUIVALENT, RP),
            "hawkes_light": (HAWKES_LIGHT, HP),
            "hawkes_comonotone": (HAWKES_COMONOTONE, HP),
        }
        estimates = {}
        for name, (model, params) in cases.items():
            fs = batch_functionals(model, params, 1_000_000, RngStream(801, 0))
            for functional, values in (("H", fs.h), ("D", fs.d)):
                est = hill_estimator(TailSample.from_values(values), 1000)
                estimates[f"{name}.{functional}"] = round(est.alpha_hat, 3)
        ok = all(abs(v - 1.5) < 0.2 for v in estimates.values())
        _report("8", ok, f"Hill estimates {estimates} within 0.2 of 1.5")
        assert ok, estimates


class TestCriterion9MeanEventCount:
    def test_formulas_at_t100(self):
        renewal = WindowConfig(model=LIGHT_COUNT, cluster_params=RP, nu=1.0)
        hawkes = WindowConfig(model=HAWKES_LIGHT, cluster_params=HP, nu=1.0)
        counts = ("n_events",)
        mean_r = sweep_windows(renewal, (100.0,), 100_000, RngStream(302, 0), fields=counts)["n_events"].mean()
        mean_h = sweep_windows(hawkes, (100.0,), 100_000, RngStream(303, 0), fields=counts)["n_events"].mean()
        rel_r = abs(mean_r / 300.0 - 1.0)
        rel_h = abs(mean_h / 200.0 - 1.0)
        ok = rel_r < 0.05 and rel_h < 0.05
        _report(
            "9",
            ok,
            f"mean N_T renewal {mean_r:.1f} vs 300 ({rel_r:.1%}), "
            f"hawkes {mean_h:.1f} vs 200 ({rel_h:.1%}), both < 5%",
        )
        assert ok, (mean_r, mean_h)


def _sup_by_horizon(rows):
    out = {}
    for row in rows:
        out[row.horizon] = row.sup_abs_dev
    return out


def _sup_se_by_horizon(rows):
    """Wilson-band standard error of the ratio at each horizon's sup row."""
    out = {}
    for row in rows:
        current = out.get(row.horizon)
        if current is None or (
            row.certified and abs(row.ratio - 1.0) >= current[0]
        ):
            if row.certified:
                out[row.horizon] = (abs(row.ratio - 1.0), (row.ci_high - row.ci_low) / 3.92)
    return {h: v[1] for h, v in out.items()}


def _monotone_with_one_inversion(sups, ses):
    horizons = sorted(sups)
    inversions = []
    for a, b in zip(horizons, horizons[1:]):
        if sups[b] > sups[a]:
            inversions.append((a, b, sups[b] - sups[a]))
    if len(inversions) > 1:
        return False
    for a, b, gap in inversions:
        if gap > 2.0 * math.hypot(ses.get(a, 0.0), ses.get(b, 0.0)):
            return False
    return True


class TestCriterion10LdpSweeps:
    HORIZONS = (10.0, 50.0, 100.0)

    def _config(self):
        window = WindowConfig(model=LIGHT_COUNT, cluster_params=RP, nu=1.0)
        return SweepConfig(
            window=window,
            horizons=self.HORIZONS,
            gamma=0.5,
            replications=1_000_000,
            x_levels=12,
        )

    def test_max_sweep(self):
        started = time.time()
        rows = ldp_max_sweep(self._config(), RngStream(601, 0))
        elapsed = time.time() - started
        sups = _sup_by_horizon(rows)
        ses = _sup_se_by_horizon(rows)
        monotone = _monotone_with_one_inversion(sups, ses)
        capped = sups[100.0] < 0.3
        ok = monotone and capped and elapsed <= 1800
        _report(
            "10/max",
            ok,
            f"sup|ratio-1| by horizon {({k: round(v, 4) for k, v in sups.items()})}, "
            f"monotone={monotone}, cap(T=100)<0.3={capped}, {elapsed:.0f}s",
        )
        assert monotone, sups
        assert elapsed <= 1800
        assert capped, (
            f"sup|ratio-1| at T=100 is {sups[100.0]:.3f} >= 0.3: at gamma*nu*T=50 "
            f"the normalizer E[N_T]*P(X>x) is ~0.85 (not a small probability), and "
            f"the exact window-max law gives (1-exp(-mu))/mu ~ 0.67 there, a 0.33 "
            f"deviation that no replication count removes at T=100"
        )

    def test_sum_sweep(self):
        started = time.time()
        rows = ldp_sum_sweep(self._config(), RngStream(603, 0))
        elapsed = time.time() - started
        sups = _sup_by_horizon(rows)
        ses = _sup_se_by_horizon(rows)
        monotone = _monotone_with_one_inversion(sups, ses)
        capped = sups[100.0] < 0.3
        ok = monotone and capped and elapsed <= 1800
        _report(
            "10/sum",
            ok,
            f"sup|ratio-1| by horizon {({k: round(v, 4) for k, v in sups.items()})}, "
            f"monotone={monotone}, cap(T=100)<0.3={capped}, {elapsed:.0f}s",
        )
        assert monotone, sups
        assert elapsed <= 1800
        assert capped, (
            f"sup|ratio-1| at T=100 is {sups[100.0]:.3f} >= 0.3: the sweep threshold "
            f"gamma*nu*T=50 is only ~1.1 stable-fluctuation scales of S_T at T=100 "
            f"(a_T ~ (3*nu*T)^(2/3) ~ 45), where the centered-sum tail is far below "
            f"its single-jump normalizer; the uniform limit holds only for much "
            f"larger T at this gamma"
        )


class TestCriterion11LeftoverScaling:
    def test_strictly_decreasing_both_models(self):
        results = {}
        for label, model, params in (
            ("renewal", LIGHT_COUNT, RP),
            ("hawkes", HAWKES_LIGHT, HP),
        ):
            window = WindowConfig(model=model, cluster_params=params, nu=1.0)
            config = SweepConfig(
                window=window,
                horizons=(10.0, 50.0, 100.0, 500.0),
                replications=100_000,
            )
            rows = leftover_scaling(config, RngStream(507, 0))
            j = [r.j_over_t for r in rows]
            eps = [r.eps_over_sqrt_t for r in rows]
            results[label] = (j, eps)
        ok = all(
            all(a > b for a, b in zip(col, col[1:]))
            for j, eps in results.values()
            for col in (j, eps)
        )
        # the vanishing rate: the T=500 leftover density is under 5% of its
        # T=10 value for both models
        rate_ok = all(j[-1] < 0.05 * j[0] for j, _ in results.values())
        _report(
            "11",
            ok and rate_ok,
            "E[J_T]/T and E[eps_T]/sqrt(T) strictly decreasing over T in "
            f"{{10, 50, 100, 500}} for both models: "
            f"{ {k: ([round(x, 4) for x in j], [round(x, 4) for x in e]) for k, (j, e) in results.items()} }",
        )
        assert ok, results
        assert rate_ok, results


class TestCriterion12Determinism:
    def _configs(self, tmp_path):
        model = {
            "regime": "IndependentLightCount",
            "mark": {"law": "pareto", "scale": 1.0, "alpha": 1.5},
            "count": {"poisson_mean": 2.0},
        }
        discrete = {
            "kind": "renewal",
            "support": [[1.0, 1, 0.5], [2.0, 2, 0.5]],
            "offspring": [[1.0, 0.5], [2.0, 0.5]],
        }
        return {
            "cluster-tails": {"model": model, "clusters": 50_000},
            "tail-ratio": {
                "model": model,
                "clusters": 50_000,
                "functional": "max",
                "grid": {"levels": [0.9, 0.99]},
            },
            "hill": {"model": model, "clusters": 50_000},
            "tauberian": {"model": model, "clusters": 100_000, "tauberian": {"points": 4}},
            "oracle-compare": {"discrete": discrete, "clusters": 50_000},
            "ldp-max": {
                "model": model,
                "ldp": {"horizons": [5.0, 10.0], "replications": 10_000, "x_levels": 4,
                        "pilot_windows": 5_000},
            },
            "ldp-sum": {
                "model": model,
                "ldp": {"horizons": [5.0, 10.0], "replications": 10_000, "x_levels": 4,
                        "pilot_windows": 5_000},
            },
            "leftover": {"model": model, "leftover": {"horizons": [5.0, 10.0], "windows": 10_000}},
        }

    def test_byte_identical_reruns_all_experiments(self, tmp_path):
        from cluster_tails.cli import run

        identical = {}
        for experiment, payload in self._configs(tmp_path).items():
            payload = dict(payload, experiment=experiment, seed=99)
            config = tmp_path / f"{experiment}.json"
            config.write_text(json.dumps(payload))
            out1 = run(config, workers=1, output_dir=str(tmp_path / "a" / experiment))
            out2 = run(config, workers=1, output_dir=str(tmp_path / "b" / experiment))
            out3 = run(config, workers=2, output_dir=str(tmp_path / "c" / experiment))
            identical[experiment] = (
                out1[0].read_bytes() == out2[0].read_bytes() == out3[0].read_bytes()
                and out1[1].read_bytes() == out2[1].read_bytes() == out3[1].read_bytes()
            )
        ok = all(identical.values())
        _report("12", ok, f"byte-identical CSV/JSON reruns across worker counts: {identical}")
        assert ok, identical
