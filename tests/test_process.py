"""Tests for window simulation.

The vectorized batch simulator is checked against an independent
object-level reference built directly from the single-cluster samplers,
both for the pathwise decomposition identities and distributionally.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import stats

from cluster_tails import process
from cluster_tails.clusters import (
    HawkesParams,
    RenewalParams,
    functional_max,
    functional_sum,
    sample_hawkes_cluster,
    sample_renewal_cluster,
)
from cluster_tails.errors import ClusterOverflow, ModelError
from cluster_tails.heavytail import (
    BoundedUniform,
    Constant,
    Exponential,
    JointMarkModel,
    ParetoLaw,
    Regime,
    sample_joint,
)
from cluster_tails.process import (
    WINDOW_FIELDS,
    WindowConfig,
    WindowStats,
    batch_windows,
    estimate_mean_sum,
    estimate_mean_sums,
    simulate_window,
    sweep_windows,
)
from cluster_tails.rng import RngStream

LAW = ParetoLaw(1.0, 1.5)
RP = RenewalParams(waiting_law=Exponential(1.0))


def renewal_config(nu=1.0, horizon=10.0, count_mean=2.0):
    model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, count_mean)
    return WindowConfig(model=model, cluster_params=RP, nu=nu, horizon=horizon)


def hawkes_config(nu=1.0, horizon=10.0, kappa=0.5):
    model = JointMarkModel(
        Regime.HAWKES_LIGHT_INTENSITY, LAW, BoundedUniform(0.0, 1.0), target_mean_kappa=kappa
    )
    return WindowConfig(
        model=model, cluster_params=HawkesParams(), nu=nu, horizon=horizon
    )


def reference_window(config: WindowConfig, rng: RngStream):
    """Object-level window simulation: clusters first, then classification.

    Returns the WindowStats fields plus the per-cluster functionals, so the
    decomposition identities can be checked pathwise.
    """
    gen = rng.generator
    t_max = config.horizon
    c_t = int(gen.poisson(config.nu * t_max))
    stats = dict(
        n_events=0, j_leftover=0, sum_in=0.0, max_in=0.0, leftover=0.0, n_clusters=c_t
    )
    cluster_sums, cluster_maxes = [], []
    for _ in range(c_t):
        tau = gen.uniform(0.0, t_max)
        if config.model.is_hawkes:
            cluster = sample_hawkes_cluster(config.model, config.cluster_params, rng)
        else:
            cluster = sample_renewal_cluster(config.model, config.cluster_params, rng)
        cluster_sums.append(functional_sum(cluster))
        cluster_maxes.append(functional_max(cluster))
        stats["n_events"] += 1
        stats["sum_in"] += cluster.immigrant_mark
        stats["max_in"] = max(stats["max_in"], cluster.immigrant_mark)
        for event in cluster.events:
            if tau + event.time_offset <= t_max:
                stats["n_events"] += 1
                stats["sum_in"] += event.mark
                stats["max_in"] = max(stats["max_in"], event.mark)
            else:
                stats["j_leftover"] += 1
                stats["leftover"] += event.mark
    return stats, cluster_sums, cluster_maxes


class TestDecompositionIdentities:
    @pytest.mark.parametrize("factory", [renewal_config, hawkes_config])
    def test_pathwise_sum_and_sandwich(self, factory):
        config = factory(nu=2.0, horizon=5.0)
        rng = RngStream(17, 0)
        for _ in range(300):
            stats, sums, maxes = reference_window(config, rng)
            total = stats["sum_in"] + stats["leftover"]
            assert total == pytest.approx(sum(sums), rel=1e-9)
            if maxes:
                assert stats["max_in"] <= max(maxes) + 1e-12
            assert stats["n_events"] + stats["j_leftover"] >= stats["n_clusters"]

    @pytest.mark.parametrize("factory", [renewal_config, hawkes_config])
    def test_vectorized_matches_reference_distribution(self, factory):
        config = factory(nu=1.0, horizon=5.0)
        n = 20_000
        batch = batch_windows(config, n, RngStream(23, 0))
        ref = [reference_window(config, RngStream(29, i))[0] for i in range(n)]
        ref_sum = np.array([r["sum_in"] for r in ref])
        # KS on the in-window sums between the two implementations
        a, b = np.sort(batch.sum_in_window), np.sort(ref_sum)
        grid = np.concatenate([a, b])
        ks = np.max(
            np.abs(
                np.searchsorted(a, grid, side="right") / n
                - np.searchsorted(b, grid, side="right") / n
            )
        )
        assert ks < 0.02  # two-sample 99.9% bound is ~0.0136 at n=2e4 each
        assert batch.n_events.mean() == pytest.approx(
            np.mean([r["n_events"] for r in ref]), rel=0.02
        )
        assert batch.j_leftover.mean() == pytest.approx(
            np.mean([r["j_leftover"] for r in ref]), rel=0.05
        )
        # the window max is heavy-tailed: compare medians, not means
        assert np.median(batch.max_in_window) == pytest.approx(
            np.median([r["max_in"] for r in ref]), rel=0.05
        )


class TestWindowBatches:
    def test_k_zero_no_leftover(self):
        config = renewal_config(nu=2.0, horizon=10.0, count_mean=0.0)
        batch = batch_windows(config, 100_000, RngStream(1, 0))
        assert np.all(batch.j_leftover == 0)
        assert np.all(batch.leftover_sum == 0.0)
        assert batch.n_events.mean() == pytest.approx(20.0, rel=0.02)
        assert np.array_equal(batch.n_events, batch.n_clusters)

    def test_mean_event_count_renewal(self):
        # approaches (1+E[K]) nu T from below; within 5% at T=50
        batch = batch_windows(renewal_config(horizon=50.0), 30_000, RngStream(2, 0))
        mean = batch.n_events.mean()
        assert mean < 150.0
        assert mean == pytest.approx(150.0, rel=0.05)

    def test_mean_event_count_hawkes(self):
        batch = batch_windows(hawkes_config(horizon=100.0), 30_000, RngStream(3, 0))
        assert batch.n_events.mean() == pytest.approx(200.0, rel=0.05)

    def test_cluster_count_mean(self):
        batch = batch_windows(renewal_config(nu=2.0, horizon=5.0), 1_000_000, RngStream(4, 0))
        assert batch.n_clusters.mean() == pytest.approx(10.0, rel=0.01)

    def test_empty_window_all_zero(self):
        config = renewal_config(nu=1e-6, horizon=1.0)
        batch = batch_windows(config, 500, RngStream(5, 0))
        empty = batch.n_clusters == 0
        assert empty.mean() > 0.99
        for field in ("n_events", "j_leftover", "sum_in_window", "max_in_window", "leftover_sum"):
            assert np.all(getattr(batch, field)[empty] == 0)

    def test_deterministic_and_worker_independent(self):
        config = hawkes_config(horizon=20.0)
        a = batch_windows(config, 30_000, RngStream(6, 0))
        b = batch_windows(config, 30_000, RngStream(6, 0), workers=2)
        for field in ("n_events", "j_leftover", "sum_in_window", "max_in_window", "leftover_sum", "n_clusters"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_single_window_stats_types(self):
        stats = simulate_window(renewal_config(), RngStream(7, 0))
        assert isinstance(stats, WindowStats)
        assert stats.n_events >= stats.n_clusters
        assert stats.sum_in_window >= stats.max_in_window >= 0.0

    def test_leftover_scaling_decreases(self):
        means = []
        for i, horizon in enumerate((10.0, 50.0, 100.0)):
            batch = batch_windows(renewal_config(horizon=horizon), 30_000, RngStream(8, i))
            means.append(batch.j_leftover.mean() / horizon)
        assert means[0] > means[1] > means[2]

    def test_overflow_propagates(self):
        config = WindowConfig(
            model=JointMarkModel(
                Regime.HAWKES_LIGHT_INTENSITY, LAW, Constant(1.0), target_mean_kappa=0.9
            ),
            cluster_params=HawkesParams(max_cluster_events=25),
            nu=1.0,
            horizon=50.0,
        )
        with pytest.raises(ClusterOverflow):
            batch_windows(config, 5_000, RngStream(9, 0))

    def test_single_brood_overflow_raises_before_drawing_it(self, monkeypatch):
        # kappa = X/6 with Pareto(1.5) marks: among 2,000 windows of ~10
        # immigrants some node has far more than 40 children on its own
        model = JointMarkModel(
            Regime.HAWKES_COMONOTONE_INTENSITY, LAW, target_mean_kappa=0.5
        )
        limit = 40
        config = WindowConfig(
            model=model,
            cluster_params=HawkesParams(max_cluster_events=limit),
            nu=1.0,
            horizon=10.0,
        )
        n = 2_000
        # replay the first generation of the batch's only chunk
        replay = RngStream(14, 0).child(0)
        gen = replay.generator
        c_t = gen.poisson(10.0, n)
        win_of_cluster = np.repeat(np.arange(n), c_t)
        gen.uniform(0.0, 10.0, win_of_cluster.size)
        _, kappa = sample_joint(model, replay, win_of_cluster.size)
        brood = gen.poisson(kappa)
        assert brood.max() > limit
        drawn = []

        def recording(model, rng, size=None):
            drawn.append(size)
            return sample_joint(model, rng, size)

        monkeypatch.setattr(process, "sample_joint", recording)
        with pytest.raises(ClusterOverflow) as exc_info:
            batch_windows(config, n, RngStream(14, 0))
        assert exc_info.value.replication == win_of_cluster[brood.argmax()]
        assert drawn == [win_of_cluster.size]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


class TestSingleHorizonPinned:
    """Single-horizon outputs are pinned byte for byte: every stored result depends on them."""

    BATCH = {
        "renewal": "625e183ff72484a9e0b1d9426015be49427374897353e321fbba1e03a3eee83a",
        "hawkes": "6c2c4eebac5e80241ba1dbcd00697c27c0f8a805b82b9a93d6d88b96631422d1",
    }
    WINDOW = {
        "renewal": "a2c37115d5e3d07f08f7929f377b38c6c84ae08d6e045fec867c2b9f7303d313",
        "hawkes": "8c284646182fb69d49656a599108cbbd54f7a2ee8ca01f7266f429c14c342177",
    }
    FACTORIES = {"renewal": renewal_config, "hawkes": hawkes_config}

    @pytest.mark.parametrize("kind", ["renewal", "hawkes"])
    def test_batch_windows(self, kind):
        batch = batch_windows(self.FACTORIES[kind](horizon=50.0), 20_000, RngStream(71, 0))
        assert _digest(getattr(batch, f) for f in WINDOW_FIELDS) == self.BATCH[kind]

    @pytest.mark.parametrize("kind", ["renewal", "hawkes"])
    def test_simulate_window(self, kind):
        config = self.FACTORIES[kind](horizon=10.0)
        h = hashlib.sha256()
        for i in range(50):
            stats_i = simulate_window(config, RngStream(72, i))
            h.update(repr(dataclasses.astuple(stats_i)).encode())
        assert h.hexdigest() == self.WINDOW[kind]


class TestSweepWindows:
    HORIZONS = (5.0, 20.0, 60.0)

    @pytest.mark.parametrize("factory", [renewal_config, hawkes_config])
    def test_in_window_statistics_grow_with_horizon(self, factory):
        out = sweep_windows(factory(), self.HORIZONS, 20_000, RngStream(61, 0))
        for field in ("n_events", "sum_in_window", "max_in_window", "n_clusters"):
            assert np.all(np.diff(out[field], axis=0) >= 0), field
        # every point of a cluster born by T is in the window or left over
        started = out["n_events"] + out["j_leftover"]
        assert np.all(np.diff(started, axis=0) >= 0)
        assert np.all(started >= out["n_clusters"])

    @pytest.mark.parametrize("factory", [renewal_config, hawkes_config])
    def test_each_horizon_matches_standalone_batch(self, factory):
        n = 20_000
        out = sweep_windows(factory(), self.HORIZONS, n, RngStream(62, 0))
        for i, horizon in enumerate(self.HORIZONS):
            alone = batch_windows(factory(horizon=horizon), n, RngStream(63, i))
            a, b = out["n_events"][i], alone.n_events
            se = np.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
            assert abs(a.mean() - b.mean()) < 3 * se, horizon
            ks = stats.ks_2samp(out["max_in_window"][i], alone.max_in_window)
            assert ks.pvalue > 0.001, horizon

    def test_workers_and_field_subsets_do_not_change_draws(self):
        # several chunks at T=60, so workers=2 really splits the work
        config = hawkes_config()
        full = sweep_windows(config, self.HORIZONS, 40_000, RngStream(64, 0))
        pooled = sweep_windows(
            config, self.HORIZONS, 40_000, RngStream(64, 0), workers=2,
            fields=("j_leftover", "leftover_sum"),
        )
        assert set(pooled) == {"j_leftover", "leftover_sum"}
        for field, rows in pooled.items():
            assert np.array_equal(rows, full[field])
        assert full["n_events"].shape == (len(self.HORIZONS), 40_000)

    def test_last_horizon_is_a_plain_batch(self):
        config = renewal_config(horizon=20.0)
        out = sweep_windows(config, (20.0,), 5_000, RngStream(65, 0))
        batch = batch_windows(config, 5_000, RngStream(65, 0))
        for field in WINDOW_FIELDS:
            assert np.array_equal(out[field][0], getattr(batch, field))

    def test_rejects_bad_horizons_and_fields(self):
        config = renewal_config()
        for horizons in ((), (10.0, 5.0), (0.0, 5.0)):
            with pytest.raises(ModelError):
                sweep_windows(config, horizons, 100, RngStream(66, 0))
        with pytest.raises(ValueError):
            sweep_windows(config, (5.0,), 100, RngStream(66, 0), fields=("nope",))


class TestEstimateMeanSum:
    def test_constant_marks_no_offspring(self):
        model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, Constant(1.0), 0.0)
        config = WindowConfig(model=model, cluster_params=RP, nu=1.0, horizon=10.0)
        est = estimate_mean_sum(config, 10_000, RngStream(10, 0))
        assert abs(est.value - 10.0) < 3 * est.se

    def test_bigger_pilot_smaller_se(self):
        config = renewal_config(horizon=10.0)
        small = estimate_mean_sum(config, 5_000, RngStream(11, 0))
        large = estimate_mean_sum(config, 20_000, RngStream(11, 1))
        assert large.se < small.se

    def test_boundary_deficit_range(self):
        # E[S_T] sits below nu*T*E[X]*(1+E[K]) = 180 by the leftover mass,
        # but not by more than 10%
        config = renewal_config(nu=1.0, horizon=20.0)
        est = estimate_mean_sum(config, 50_000, RngStream(13, 0))
        assert 162.0 <= est.value <= 180.0

    def test_minimum_pilot_enforced(self):
        with pytest.raises(ValueError):
            estimate_mean_sum(renewal_config(), 100, RngStream(12, 0))

    def test_nested_pilots_match_single_horizon(self):
        config = renewal_config(horizon=20.0)
        nested = estimate_mean_sums(config, (5.0, 20.0), 5_000, RngStream(15, 0))
        alone = estimate_mean_sum(config, 5_000, RngStream(15, 1))
        assert abs(nested[1].value - alone.value) < 3 * np.hypot(nested[1].se, alone.se)
        assert nested[0].value < nested[1].value
