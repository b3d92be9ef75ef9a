"""Tests for window simulation.

The vectorized window sweep is checked against an independent
object-level reference built directly from the single-cluster samplers of
``tests/reference.py``, both for the pathwise decomposition identities and
distributionally.
"""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from cluster_tails import process
from cluster_tails.clusters import HawkesParams, RenewalParams
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
from cluster_tails.ldp import SweepConfig
from cluster_tails.process import WINDOW_FIELDS, WindowConfig, sweep_windows
from cluster_tails.rng import RngStream
from reference import (
    functional_max,
    functional_sum,
    sample_hawkes_cluster,
    sample_renewal_cluster,
)

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


def windows(config: WindowConfig, n: int, rng: RngStream, workers: int = 1, fields=WINDOW_FIELDS):
    """n windows of length ``config.horizon``: one row of a one-horizon sweep per statistic."""
    out = sweep_windows(config, (config.horizon,), n, rng, workers, fields)
    return {field: rows[0] for field, rows in out.items()}


def mean_and_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def reference_window(config: WindowConfig, rng: RngStream):
    """Object-level window simulation: clusters first, then classification.

    Returns the window statistics plus the per-cluster functionals, so the
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
        batch = windows(config, n, RngStream(23, 0))
        ref = [reference_window(config, RngStream(29, i))[0] for i in range(n)]
        ref_sum = np.array([r["sum_in"] for r in ref])
        # KS on the in-window sums between the two implementations
        a, b = np.sort(batch["sum_in_window"]), np.sort(ref_sum)
        grid = np.concatenate([a, b])
        ks = np.max(
            np.abs(
                np.searchsorted(a, grid, side="right") / n
                - np.searchsorted(b, grid, side="right") / n
            )
        )
        assert ks < 0.02  # two-sample 99.9% bound is ~0.0136 at n=2e4 each
        assert batch["n_events"].mean() == pytest.approx(
            np.mean([r["n_events"] for r in ref]), rel=0.02
        )
        assert batch["j_leftover"].mean() == pytest.approx(
            np.mean([r["j_leftover"] for r in ref]), rel=0.05
        )
        # the window max is heavy-tailed: compare medians, not means
        assert np.median(batch["max_in_window"]) == pytest.approx(
            np.median([r["max_in"] for r in ref]), rel=0.05
        )


class TestWindowBatches:
    def test_k_zero_no_leftover(self):
        config = renewal_config(nu=2.0, horizon=10.0, count_mean=0.0)
        batch = windows(config, 100_000, RngStream(1, 0))
        assert np.all(batch["j_leftover"] == 0)
        assert np.all(batch["leftover_sum"] == 0.0)
        assert batch["n_events"].mean() == pytest.approx(20.0, rel=0.02)
        assert np.array_equal(batch["n_events"], batch["n_clusters"])

    def test_mean_event_count_renewal(self):
        # approaches (1+E[K]) nu T from below; within 5% at T=50
        batch = windows(renewal_config(horizon=50.0), 30_000, RngStream(2, 0))
        mean = batch["n_events"].mean()
        assert mean < 150.0
        assert mean == pytest.approx(150.0, rel=0.05)

    def test_mean_event_count_hawkes(self):
        batch = windows(hawkes_config(horizon=100.0), 30_000, RngStream(3, 0))
        assert batch["n_events"].mean() == pytest.approx(200.0, rel=0.05)

    def test_cluster_count_mean(self):
        batch = windows(renewal_config(nu=2.0, horizon=5.0), 1_000_000, RngStream(4, 0))
        assert batch["n_clusters"].mean() == pytest.approx(10.0, rel=0.01)

    def test_empty_window_all_zero(self):
        config = renewal_config(nu=1e-6, horizon=1.0)
        batch = windows(config, 500, RngStream(5, 0))
        empty = batch["n_clusters"] == 0
        assert empty.mean() > 0.99
        for field in ("n_events", "j_leftover", "sum_in_window", "max_in_window", "leftover_sum"):
            assert np.all(batch[field][empty] == 0)

    def test_deterministic_and_worker_independent(self):
        config = hawkes_config(horizon=20.0)
        a = windows(config, 30_000, RngStream(6, 0))
        b = windows(config, 30_000, RngStream(6, 0), workers=2)
        for field in ("n_events", "j_leftover", "sum_in_window", "max_in_window", "leftover_sum", "n_clusters"):
            assert np.array_equal(a[field], b[field])

    def test_leftover_scaling_decreases(self):
        means = []
        for i, horizon in enumerate((10.0, 50.0, 100.0)):
            batch = windows(renewal_config(horizon=horizon), 30_000, RngStream(8, i))
            means.append(batch["j_leftover"].mean() / horizon)
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
            windows(config, 5_000, RngStream(9, 0))

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
            windows(config, n, RngStream(14, 0))
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
    FACTORIES = {"renewal": renewal_config, "hawkes": hawkes_config}

    @pytest.mark.parametrize("kind", ["renewal", "hawkes"])
    def test_batch_windows(self, kind):
        batch = windows(self.FACTORIES[kind](horizon=50.0), 20_000, RngStream(71, 0))
        assert _digest(batch[f] for f in WINDOW_FIELDS) == self.BATCH[kind]


class TestRenewalEventTimes:
    """The renewal kernel's offspring times and windows against a per-cluster loop."""

    T = 5.0

    @pytest.mark.parametrize(
        "nu, zeroed",
        [
            (1.0, lambda m: [0, m // 2, m - 1]),  # k = 0 at the start, middle and end
            (1.0, lambda m: slice(None)),  # no offspring in the chunk
            (0.2, lambda m: []),  # many windows without clusters
            (1e-9, lambda m: []),  # no clusters in the chunk
        ],
        ids=["zero-k-start-middle-end", "no-offspring", "empty-windows", "no-clusters"],
    )
    def test_matches_per_cluster_cumsum(self, monkeypatch, nu, zeroed):
        config = renewal_config(nu=nu, horizon=self.T, count_mean=0.8)
        n = 300
        real_joint = process.sample_joint

        def joint_with_zeros(model, rng, size=None):
            x, k = real_joint(model, rng, size)
            k = np.asarray(k, dtype=np.int64)
            k[zeroed(len(k))] = 0
            return x, k

        seen = []
        real_slot = process._HorizonTally.slot
        real_offspring = process._HorizonTally.offspring

        def slot(self, times):
            seen.append(times.copy())
            return real_slot(self, times)

        def offspring(self, win, *args):
            seen.append(win.copy())
            return real_offspring(self, win, *args)

        monkeypatch.setattr(process, "sample_joint", joint_with_zeros)
        monkeypatch.setattr(process._HorizonTally, "slot", slot)
        monkeypatch.setattr(process._HorizonTally, "offspring", offspring)
        process._renewal_windows(config, np.array([self.T]), n, RngStream(23, 4), WINDOW_FIELDS)
        _, times, win = seen

        # replay the kernel's draws and place each cluster's offspring by a loop
        rng = RngStream(23, 4)
        gen = rng.generator
        c_t = gen.poisson(nu * self.T, n)
        tau = gen.uniform(0.0, self.T, c_t.sum())
        k = joint_with_zeros(config.model, rng, c_t.sum())[1]
        waits = config.cluster_params.waiting_law.sample(gen, k.sum())
        want_times, want_win = [], []
        cluster = pos = 0
        for w, count in enumerate(c_t):
            for _ in range(count):
                want_times.extend(tau[cluster] + np.cumsum(waits[pos : pos + k[cluster]]))
                want_win.extend([w] * k[cluster])
                pos += k[cluster]
                cluster += 1

        if nu == 0.2:
            assert (c_t == 0).sum() > 10
        np.testing.assert_allclose(times, want_times, rtol=0, atol=1e-6)
        assert np.array_equal(win, np.array(want_win, dtype=np.int64))


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
            alone = windows(factory(horizon=horizon), n, RngStream(63, i))
            a, b = out["n_events"][i], alone["n_events"]
            se = np.sqrt(a.var(ddof=1) / n + b.var(ddof=1) / n)
            assert abs(a.mean() - b.mean()) < 3 * se, horizon
            ks = stats.ks_2samp(out["max_in_window"][i], alone["max_in_window"])
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

    def test_overflow_reports_global_replication(self):
        # kappa = X/6 with Pareto(1.5) marks at T=50: chunks hold 2**14 windows,
        # and the largest window is past chunk 0 and the only one over the limit
        model = JointMarkModel(
            Regime.HAWKES_COMONOTONE_INTENSITY, LAW, target_mean_kappa=0.5
        )
        n, fields = 40_000, ("n_events", "j_leftover")

        def config(limit):
            return WindowConfig(model, HawkesParams(max_cluster_events=limit), 1.0, 50.0)

        out = sweep_windows(config(10**7), (50.0,), n, RngStream(3, 0), fields=fields)
        started = out["n_events"][0] + out["j_leftover"][0]
        limit = int(np.sort(started)[-2])
        assert started.max() > limit and started.argmax() >= 2 << 14
        for workers in (1, 2):
            with pytest.raises(ClusterOverflow) as exc_info:
                sweep_windows(config(limit), (50.0,), n, RngStream(3, 0), workers, fields)
            assert exc_info.value.replication == started.argmax()

    def test_last_horizon_is_a_plain_batch(self):
        # same draws: the chunks depend only on the longest horizon; only the
        # in-window sum is added up in another order
        config = renewal_config(horizon=20.0)
        out = sweep_windows(config, (5.0, 20.0), 5_000, RngStream(65, 0))
        batch = windows(config, 5_000, RngStream(65, 0))
        for field in WINDOW_FIELDS:
            if field == "sum_in_window":
                np.testing.assert_allclose(out[field][-1], batch[field], rtol=1e-12)
            else:
                assert np.array_equal(out[field][-1], batch[field]), field

    def test_rejects_bad_horizons_and_fields(self):
        config = renewal_config()
        for horizons in ((), (10.0, 5.0), (0.0, 5.0)):
            with pytest.raises(ModelError):
                sweep_windows(config, horizons, 100, RngStream(66, 0))
        with pytest.raises(ValueError):
            sweep_windows(config, (5.0,), 100, RngStream(66, 0), fields=("nope",))


class TestEstimateMeanSum:
    """Window sum means and their SEs, as the ldp-sum pilot computes them."""

    SUM = ("sum_in_window",)

    def test_constant_marks_no_offspring(self):
        model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, Constant(1.0), 0.0)
        config = WindowConfig(model=model, cluster_params=RP, nu=1.0, horizon=10.0)
        mean, se = mean_and_se(windows(config, 10_000, RngStream(10, 0), fields=self.SUM)["sum_in_window"])
        assert abs(mean - 10.0) < 3 * se

    def test_bigger_pilot_smaller_se(self):
        config = renewal_config(horizon=10.0)
        small = mean_and_se(windows(config, 5_000, RngStream(11, 0), fields=self.SUM)["sum_in_window"])
        large = mean_and_se(windows(config, 20_000, RngStream(11, 1), fields=self.SUM)["sum_in_window"])
        assert large[1] < small[1]

    def test_boundary_deficit_range(self):
        # E[S_T] sits below nu*T*E[X]*(1+E[K]) = 180 by the leftover mass,
        # but not by more than 10%
        config = renewal_config(nu=1.0, horizon=20.0)
        mean, _ = mean_and_se(windows(config, 50_000, RngStream(13, 0), fields=self.SUM)["sum_in_window"])
        assert 162.0 <= mean <= 180.0

    def test_minimum_pilot_enforced(self):
        config = renewal_config()
        with pytest.raises(ModelError) as exc_info:
            SweepConfig(window=config, horizons=(10.0,), pilot_windows=999)
        assert exc_info.value.field == "pilot_windows"
        assert SweepConfig(window=config, horizons=(10.0,), pilot_windows=1_000).pilot_windows == 1_000

    def test_nested_pilots_match_single_horizon(self):
        config = renewal_config(horizon=20.0)
        nested = sweep_windows(config, (5.0, 20.0), 5_000, RngStream(15, 0), fields=self.SUM)
        short, long = (mean_and_se(s) for s in nested["sum_in_window"])
        alone = mean_and_se(windows(config, 5_000, RngStream(15, 1), fields=self.SUM)["sum_in_window"])
        assert abs(long[0] - alone[0]) < 3 * np.hypot(long[1], alone[1])
        assert short[0] < long[0]
