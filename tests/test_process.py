"""Tests for window simulation.

The vectorized window sweep is checked against an independent
object-level reference built directly from the single-cluster samplers of
``tests/reference.py``, both for the pathwise decomposition identities and
distributionally.
"""

import hashlib
import math
import tracemalloc
from fractions import Fraction

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
from cluster_tails.process import WINDOW_FIELDS, WindowConfig, sweep_windows
from cluster_tails.rng import RngStream
from reference import (
    functional_max,
    functional_sum,
    hawkes_leftover_mean,
    irwin_hall_shortfall,
    sample_hawkes_cluster,
    sample_renewal_cluster,
)

LAW = ParetoLaw(1.0, 1.5)
RP = RenewalParams(waiting_law=Exponential(1.0))


def renewal_config(nu=1.0, count_mean=2.0):
    model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, count_mean)
    return WindowConfig(model=model, cluster_params=RP, nu=nu)


def hawkes_config(nu=1.0, kappa=0.5):
    model = JointMarkModel(
        Regime.HAWKES_LIGHT_INTENSITY, LAW, BoundedUniform(0.0, 1.0), target_mean_kappa=kappa
    )
    return WindowConfig(model=model, cluster_params=HawkesParams(), nu=nu)


def windows(
    config: WindowConfig, horizon: float, n: int, rng: RngStream, workers=1, fields=WINDOW_FIELDS
):
    """n windows of length ``horizon``: one row of a one-horizon sweep per statistic."""
    out = sweep_windows(config, (horizon,), n, rng, workers, fields)
    return {field: rows[0] for field, rows in out.items()}


def mean_and_se(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values)))


def reference_window(config: WindowConfig, horizon: float, rng: RngStream):
    """Object-level window simulation: clusters first, then classification.

    Returns the window statistics plus the per-cluster functionals, so the
    decomposition identities can be checked pathwise.
    """
    gen = rng.generator
    t_max = horizon
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
        config = factory(nu=2.0)
        rng = RngStream(17, 0)
        for _ in range(300):
            stats, sums, maxes = reference_window(config, 5.0, rng)
            total = stats["sum_in"] + stats["leftover"]
            assert total == pytest.approx(sum(sums), rel=1e-9)
            if maxes:
                assert stats["max_in"] <= max(maxes) + 1e-12
            assert stats["n_events"] + stats["j_leftover"] >= stats["n_clusters"]

    @pytest.mark.parametrize("factory", [renewal_config, hawkes_config])
    def test_vectorized_matches_reference_distribution(self, factory):
        config = factory(nu=1.0)
        n = 20_000
        batch = windows(config, 5.0, n, RngStream(23, 0))
        ref = [reference_window(config, 5.0, RngStream(29, i))[0] for i in range(n)]
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
        config = renewal_config(nu=2.0, count_mean=0.0)
        batch = windows(config, 10.0, 100_000, RngStream(1, 0))
        assert np.all(batch["j_leftover"] == 0)
        assert np.all(batch["leftover_sum"] == 0.0)
        assert batch["n_events"].mean() == pytest.approx(20.0, rel=0.02)
        assert np.array_equal(batch["n_events"], batch["n_clusters"])

    def test_mean_event_count_renewal(self):
        # approaches (1+E[K]) nu T from below; within 5% at T=50
        batch = windows(renewal_config(), 50.0, 30_000, RngStream(2, 0))
        mean = batch["n_events"].mean()
        assert mean < 150.0
        assert mean == pytest.approx(150.0, rel=0.05)

    def test_mean_event_count_hawkes(self):
        batch = windows(hawkes_config(), 100.0, 30_000, RngStream(3, 0))
        assert batch["n_events"].mean() == pytest.approx(200.0, rel=0.05)

    def test_cluster_count_mean(self):
        batch = windows(renewal_config(nu=2.0), 5.0, 1_000_000, RngStream(4, 0))
        assert batch["n_clusters"].mean() == pytest.approx(10.0, rel=0.01)

    def test_empty_window_all_zero(self):
        config = renewal_config(nu=1e-6)
        batch = windows(config, 1.0, 500, RngStream(5, 0))
        empty = batch["n_clusters"] == 0
        assert empty.mean() > 0.99
        for field in ("n_events", "j_leftover", "sum_in_window", "max_in_window", "leftover_sum"):
            assert np.all(batch[field][empty] == 0)

    def test_deterministic_and_worker_independent(self):
        config = hawkes_config()
        a = windows(config, 20.0, 30_000, RngStream(6, 0))
        b = windows(config, 20.0, 30_000, RngStream(6, 0), workers=2)
        for field in ("n_events", "j_leftover", "sum_in_window", "max_in_window", "leftover_sum", "n_clusters"):
            assert np.array_equal(a[field], b[field])

    def test_leftover_scaling_decreases(self):
        means = []
        for i, horizon in enumerate((10.0, 50.0, 100.0)):
            batch = windows(renewal_config(), horizon, 30_000, RngStream(8, i))
            means.append(batch["j_leftover"].mean() / horizon)
        assert means[0] > means[1] > means[2]

    def test_overflow_propagates(self):
        config = WindowConfig(
            model=JointMarkModel(
                Regime.HAWKES_LIGHT_INTENSITY, LAW, Constant(1.0), target_mean_kappa=0.9
            ),
            cluster_params=HawkesParams(max_cluster_events=25),
            nu=1.0,
        )
        with pytest.raises(ClusterOverflow):
            windows(config, 50.0, 5_000, RngStream(9, 0))

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
            windows(config, 10.0, n, RngStream(14, 0))
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
        "renewal": "96852d71046bbe5b4dc37a7c94d7614f3f7d76353cd16fb2ee5f4d5b5bd2f308",
        "hawkes": "651794b2735c5e77026ce59fef6de6e737fb5c47c915dbc5b5b40bfd4f7fd252",
    }
    FACTORIES = {"renewal": renewal_config, "hawkes": hawkes_config}

    @pytest.mark.parametrize("kind", ["renewal", "hawkes"])
    def test_batch_windows(self, kind):
        batch = windows(self.FACTORIES[kind](), 50.0, 20_000, RngStream(71, 0))
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
        config = renewal_config(nu=nu, count_mean=0.8)
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


class TestChunkMemory:
    """One chunk's peak working set per simulated point, in the bench models.

    The points are the immigrants and offspring of the chunk's paths: the
    in-window events and the leftover ones at the last horizon.
    """

    @pytest.mark.parametrize(
        "kernel, config, n, horizons, bound",
        [
            (process._renewal_windows, renewal_config(), 4096, (10.0, 50.0, 100.0), 32),
            (process._hawkes_windows, hawkes_config(), 2048, (10.0, 50.0, 100.0, 500.0), 19),
        ],
        ids=["renewal", "hawkes"],
    )
    def test_peak_bytes_per_point(self, kernel, config, n, horizons, bound):
        tracemalloc.start()
        try:
            out = kernel(config, np.array(horizons), n, RngStream(5, 0).child(0), WINDOW_FIELDS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        points = int(out["n_events"][-1].sum() + out["j_leftover"][-1].sum())
        assert points > 10**6
        assert peak / points <= bound

    def test_leftover_intensity_only(self):
        # what a Hawkes leftover sweep keeps; the intensity terms and their
        # keys are made a block at a time, never for the whole chunk
        config, horizons = hawkes_config(), np.array((10.0, 50.0, 100.0, 500.0))
        counts = process._hawkes_windows(
            config, horizons, 2048, RngStream(5, 0).child(0), ("n_events", "j_leftover")
        )
        points = int(counts["n_events"][-1].sum() + counts["j_leftover"][-1].sum())
        tracemalloc.start()
        try:
            process._hawkes_windows(
                config, horizons, 2048, RngStream(5, 0).child(0), ("leftover_intensity",)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert points > 10**6
        assert peak / points <= 19


class TestLeftoverIntensity:
    """Lambda_T, the decayed intensity of a Hawkes window's points by T.

    E[J_T | path to T] = Lambda_T / (1 - E[kappa]), so the conditional and
    the crude leftover counts estimate the same mean, E[J_T] from Campbell's
    formula.
    """

    HORIZONS = (5.0, 20.0, 100.0)
    FIELDS = ("j_leftover", "leftover_sum", "leftover_intensity")
    N = 40_000
    # the comonotone marks are Pareto(3), so kappa = X/3 and the marks have
    # finite variance: the standard errors of both of its routes are real ones
    MODELS = {
        "light": (hawkes_config().model, HawkesParams()),
        "comonotone": (
            JointMarkModel(
                Regime.HAWKES_COMONOTONE_INTENSITY, ParetoLaw(1.0, 3.0), target_mean_kappa=0.5
            ),
            HawkesParams(decay_rate=2.0),
        ),
    }

    @classmethod
    def sweep(cls, name, fields=FIELDS, workers=1, seed=81):
        model, params = cls.MODELS[name]
        config = WindowConfig(model, params, 1.0)
        return sweep_windows(config, cls.HORIZONS, cls.N, RngStream(seed, 0), workers, fields)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_both_routes_match_campbell(self, name):
        model, params = self.MODELS[name]
        m, mean_mark = model.target_mean_kappa, model.mark_law.mean()
        out = self.sweep(name)
        for i, horizon in enumerate(self.HORIZONS):
            exact = hawkes_leftover_mean(1.0, m, params.decay_rate, horizon)
            conditional = out["leftover_intensity"][i] / (1.0 - m)
            routes = {
                "crude J": (out["j_leftover"][i], exact),
                "conditional J": (conditional, exact),
                "conditional eps": (conditional * mean_mark, mean_mark * exact),
            }
            if model.mark_law.alpha > 2:  # else the crude eps has no finite variance
                routes["crude eps"] = (out["leftover_sum"][i], mean_mark * exact)
            for route, (values, want) in routes.items():
                mean, se = mean_and_se(values.astype(float))
                assert abs(mean - want) <= 3 * se, (horizon, route, mean, want, se)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_conditional_beats_crude_on_the_same_paths(self, name):
        m = self.MODELS[name][0].target_mean_kappa
        out = self.sweep(name, seed=82)
        for i, horizon in enumerate(self.HORIZONS):
            crude = mean_and_se(out["j_leftover"][i].astype(float))
            conditional = mean_and_se(out["leftover_intensity"][i] / (1.0 - m))
            assert abs(conditional[0] - crude[0]) <= 4 * crude[1], horizon
            assert conditional[1] < 0.5 * crude[1], horizon

    def test_zero_mean_kappa_has_no_intensity(self):
        config = hawkes_config(kappa=0.0)
        out = sweep_windows(
            config, self.HORIZONS, 5_000, RngStream(83, 0), fields=("leftover_intensity",)
        )
        assert np.all(out["leftover_intensity"] == 0.0)

    def test_workers_and_field_subsets_do_not_change_it(self):
        # several chunks at T=100, so workers=2 really splits the work
        alone = self.sweep("light", ("leftover_intensity",), seed=84)
        pooled = self.sweep("light", ("leftover_intensity",), workers=2, seed=84)
        full = self.sweep("light", (*WINDOW_FIELDS, "leftover_intensity"), seed=84)
        assert np.array_equal(alone["leftover_intensity"], pooled["leftover_intensity"])
        assert np.array_equal(alone["leftover_intensity"], full["leftover_intensity"])
        assert np.all(alone["leftover_intensity"] >= 0.0)

    def test_renewal_kernel_rejects_it(self):
        with pytest.raises(ModelError, match="Hawkes") as exc_info:
            sweep_windows(
                renewal_config(), (5.0,), 100, RngStream(85, 0), fields=("leftover_intensity",)
            )
        assert exc_info.value.field == "fields"


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
            alone = windows(factory(), horizon, n, RngStream(63, i))
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
        # kappa = X/6 with Pareto(1.5) marks at T=50: chunks hold 2**14 windows.
        # The limit is the second largest window's size, so the largest window
        # alone can overflow; the first seed that puts it past chunk 0 is used
        model = JointMarkModel(
            Regime.HAWKES_COMONOTONE_INTENSITY, LAW, target_mean_kappa=0.5
        )
        n, fields = 40_000, ("n_events", "j_leftover")

        def config(limit):
            return WindowConfig(model, HawkesParams(max_cluster_events=limit), 1.0)

        for seed in range(3, 23):
            out = sweep_windows(config(10**7), (50.0,), n, RngStream(seed, 0), fields=fields)
            started = out["n_events"][0] + out["j_leftover"][0]
            limit = int(np.sort(started)[-2])
            if started.max() > limit and started.argmax() >= 1 << 14:
                break
        else:
            pytest.fail("no seed puts the largest window past chunk 0")
        for workers in (1, 2):
            with pytest.raises(ClusterOverflow) as exc_info:
                sweep_windows(config(limit), (50.0,), n, RngStream(seed, 0), workers, fields)
            assert exc_info.value.replication == started.argmax()

    def test_last_horizon_is_a_plain_batch(self):
        # same draws: the chunks depend only on the longest horizon; only the
        # in-window sum is added up in another order
        config = renewal_config()
        out = sweep_windows(config, (5.0, 20.0), 5_000, RngStream(65, 0))
        batch = windows(config, 20.0, 5_000, RngStream(65, 0))
        for field in WINDOW_FIELDS:
            if field == "sum_in_window":
                np.testing.assert_allclose(out[field][-1], batch[field], rtol=1e-12)
            else:
                assert np.array_equal(out[field][-1], batch[field]), field

    def test_rejects_bad_horizons_and_fields(self):
        config = renewal_config()
        for horizons in ((), (10.0, 5.0), (0.0, 5.0), (5.0, 5.0)):
            with pytest.raises(ModelError):
                sweep_windows(config, horizons, 100, RngStream(66, 0))
        with pytest.raises(ValueError):
            sweep_windows(config, (5.0,), 100, RngStream(66, 0), fields=("nope",))


class TestEstimateMeanSum:
    """Simulated window sum means and their SEs."""

    SUM = ("sum_in_window",)

    def test_constant_marks_no_offspring(self):
        model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, Constant(1.0), 0.0)
        config = WindowConfig(model=model, cluster_params=RP, nu=1.0)
        mean, se = mean_and_se(windows(config, 10.0, 10_000, RngStream(10, 0), fields=self.SUM)["sum_in_window"])
        assert abs(mean - 10.0) < 3 * se

    def test_bigger_pilot_smaller_se(self):
        config = renewal_config()
        small = mean_and_se(windows(config, 10.0, 5_000, RngStream(11, 0), fields=self.SUM)["sum_in_window"])
        large = mean_and_se(windows(config, 10.0, 20_000, RngStream(11, 1), fields=self.SUM)["sum_in_window"])
        assert large[1] < small[1]

    def test_boundary_deficit_range(self):
        # E[S_T] = E[X] E[N_T] sits below nu*T*E[X]*(1+E[K]) = 60 by the leftover mass
        model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, Constant(1.0), 2.0)
        config = WindowConfig(model=model, cluster_params=RP, nu=1.0)
        mean, se = mean_and_se(windows(config, 20.0, 50_000, RngStream(13, 0), fields=self.SUM)["sum_in_window"])
        exact = 1.0 * process.mean_events(config, (20.0,))[0]
        assert exact < 60.0
        assert abs(mean - exact) < 3 * se

    def test_nested_pilots_match_single_horizon(self):
        config = renewal_config()
        nested = sweep_windows(config, (5.0, 20.0), 5_000, RngStream(15, 0), fields=self.SUM)
        short, long = (mean_and_se(s) for s in nested["sum_in_window"])
        alone = mean_and_se(windows(config, 20.0, 5_000, RngStream(15, 1), fields=self.SUM)["sum_in_window"])
        assert abs(long[0] - alone[0]) < 3 * np.hypot(long[1], alone[1])
        assert short[0] < long[0]


class TestMeanEvents:
    """The closed-form E[N_T] against exact values, exact references and simulation."""

    HORIZONS = (10.0, 50.0, 100.0)

    def test_pinned_renewal(self):
        # Poisson(2) counts, Exp(1) waits; quadrature of nu * int_0^T E[1 + #{r <= K: S_r <= u}] du
        got = process.mean_events(renewal_config(), self.HORIZONS)
        np.testing.assert_allclose(got, [26.00932511906326, 146.0, 296.0], rtol=1e-9)

    def test_pinned_hawkes(self):
        # E[kappa] = 0.5, beta = nu = 1
        got = process.mean_events(hawkes_config(), self.HORIZONS)
        np.testing.assert_allclose(got, [18.01347589399817, 98.0, 198.0], rtol=1e-9)
        # E[N_T] + E[J_T] = nu T E[cluster size], with E[J_T] by generations
        left = [hawkes_leftover_mean(1.0, 0.5, 1.0, t) for t in self.HORIZONS]
        np.testing.assert_allclose(got + left, 2.0 * np.array(self.HORIZONS), rtol=1e-12)

    @pytest.mark.parametrize("waiting", [Exponential(1.0), Constant(0.5), BoundedUniform(0.0, 1.0)])
    def test_no_offspring_is_nu_t(self, waiting):
        model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 0.0)
        config = WindowConfig(model, RenewalParams(waiting), nu=1.3)
        horizons = (0.3, 10.0, 100.7)
        assert list(process.mean_events(config, horizons)) == [1.3 * t for t in horizons]
        hawkes = hawkes_config(nu=1.3, kappa=0.0)
        assert list(process.mean_events(hawkes, horizons)) == [1.3 * t for t in horizons]

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.0, 2.5), (0.3, 1.0), (0.25, 1.5)])
    def test_uniform_shortfall_exact(self, lo, hi):
        law = BoundedUniform(lo, hi)
        r = np.arange(1, 41)
        for t in (0.4, 3.7, 12.0, 25.3):
            got = law.shortfall(t, r)
            width = Fraction(hi) - Fraction(lo)
            exact = [
                float(width * irwin_hall_shortfall((Fraction(t) - k * Fraction(lo)) / width, k))
                if t > k * lo else 0.0
                for k in r.tolist()
            ]
            np.testing.assert_allclose(got, exact, rtol=1e-12, atol=1e-12)

    def test_constant_shortfall_brute_force(self):
        law = Constant(0.7)
        r = np.arange(1, 30)
        for t in (0.5, 3.5, 14.0):
            expected = [max(t - sum([0.7] * k), 0.0) for k in r.tolist()]
            np.testing.assert_allclose(law.shortfall(t, r), expected, rtol=0, atol=1e-12)

    def test_exponential_shortfall_monte_carlo(self):
        gen = np.random.default_rng(5)
        sums = gen.exponential(0.5, (400_000, 6)).cumsum(axis=1)
        gaps = np.maximum(2.0 - sums, 0.0)
        got = Exponential(2.0).shortfall(2.0, np.arange(1, 7))
        assert np.all(np.abs(gaps.mean(axis=0) - got) < 3 * gaps.std(axis=0) / np.sqrt(len(gaps)))

    # each case draws from its own stream: cases on one stream share their
    # immigrants, so one excursion of the immigrant counts would fail them all
    @pytest.mark.parametrize(
        "stream, waiting",
        enumerate([Exponential(1.0), Constant(0.7), BoundedUniform(0.0, 1.0), BoundedUniform(0.25, 1.5)]),
    )
    def test_renewal_matches_simulation(self, stream, waiting):
        model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 2.0)
        config = WindowConfig(model, RenewalParams(waiting), nu=1.0)
        self._check_simulated(config, RngStream(73, stream))

    @pytest.mark.parametrize("stream, decay", enumerate([1.0, 0.3]))
    def test_hawkes_matches_simulation(self, stream, decay):
        config = hawkes_config()
        config = WindowConfig(config.model, HawkesParams(decay_rate=decay), 1.0)
        self._check_simulated(config, RngStream(74, stream))

    @staticmethod
    def _check_simulated(config, rng):
        horizons = (5.0, 20.0, 100.0)
        counts = sweep_windows(config, horizons, 20_000, rng, fields=("n_events",))["n_events"]
        exact = process.mean_events(config, horizons)
        for row, mean in zip(counts, exact):
            sim, se = mean_and_se(row)
            assert abs(sim - mean) < 3 * se, (sim, mean, se)
