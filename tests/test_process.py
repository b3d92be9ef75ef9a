"""Tests for window simulation.

The vectorized window sweep is checked against an independent
object-level reference built directly from the single-cluster samplers of
``tests/reference.py``, both for the pathwise decomposition identities and
distributionally.
"""

import hashlib
import math
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cluster_tails import clusters, oracle, process
from cluster_tails.clusters import HawkesParams, RenewalParams, batch_functionals, chunked_fill
from cluster_tails.errors import ClusterOverflow, ModelError
from cluster_tails.heavytail import (
    BoundedUniform,
    Constant,
    Exponential,
    JointMarkModel,
    ParetoLaw,
    Regime,
    model_constants,
    sample_joint,
)
from cluster_tails.ldp import SweepConfig, ldp_max_sweep, leftover_scaling
from cluster_tails.process import WINDOW_FIELDS, WindowConfig, sweep_windows
from cluster_tails.rng import RngStream
import reference
from reference import (
    functional_max,
    functional_sum,
    hawkes_leftover_mean,
    immigrant_intensity,
    irwin_hall_shortfall,
    renewal_window_count_variance,
    sample_hawkes_cluster,
    sample_renewal_cluster,
    sample_variance_z,
    slot_window_counts,
)

LAW = ParetoLaw(1.0, 1.5)
RP = RenewalParams(waiting_law=Exponential(1.0))


def renewal_config(nu=1.0, count_mean=2.0, waiting=None):
    """Poisson(count_mean) counts and Pareto marks; exponential waits unless ``waiting`` is given."""
    model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, count_mean)
    params = RP if waiting is None else RenewalParams(waiting_law=waiting)
    return WindowConfig(model=model, cluster_params=params, nu=nu)


# waits with the exponential's mean, for the path route: the slot-count route needs exponential ones
UNIFORM_WAITS = BoundedUniform(0.5, 1.5)


def comonotone_config(nu=1.0):
    return WindowConfig(JointMarkModel(Regime.COMONOTONE_COUNT, LAW), RP, nu)


def hawkes_comonotone_config(nu=1.0, kappa=0.5):
    model = JointMarkModel(Regime.HAWKES_COMONOTONE_INTENSITY, LAW, target_mean_kappa=kappa)
    return WindowConfig(model, HawkesParams(), nu)


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
        marks = replay.branch(process._MARKS).generator  # kappa derives from the marks
        _, kappa = sample_joint(model, marks, gen, win_of_cluster.size)
        brood = gen.poisson(kappa)
        assert brood.max() > limit
        drawn = []

        def recording(model, marks, counts, size=None):
            drawn.append(size)
            return sample_joint(model, marks, counts, size)

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
        "renewal": "52e825d55e593da964422c903ee1c8c92df091cd05fe82e10aa4b43dee16e844",
        "renewal-uniform-waits": "93d55a420f6972f0c46943e8d7367b39446f50e4f3050dbec219f71f450c019b",
        "hawkes": "9715b7d4aa45d2d157ea1ad32ad10d1773e9768806fdf146d3e201bda63eee9c",
    }
    FACTORIES = {
        "renewal": renewal_config,
        "renewal-uniform-waits": partial(renewal_config, waiting=UNIFORM_WAITS),
        "hawkes": hawkes_config,
    }

    @pytest.mark.parametrize("kind", sorted(BATCH))
    def test_batch_windows(self, kind):
        batch = windows(self.FACTORIES[kind](), 50.0, 20_000, RngStream(71, 0))
        assert _digest(batch[f] for f in WINDOW_FIELDS) == self.BATCH[kind]


class TestRenewalEventTimes:
    """The renewal path route's offspring times and windows against a per-cluster loop.

    The waits are uniform, as in every sweep that takes the path route.
    """

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
        config = renewal_config(nu=nu, count_mean=0.8, waiting=UNIFORM_WAITS)
        n = 300
        real_joint = process.sample_joint

        def joint_with_zeros(model, marks, counts, size=None):
            x, k = real_joint(model, marks, counts, size)
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
        process._renewal_path_windows(
            config, np.array([self.T]), n, RngStream(23, 4).child(0), WINDOW_FIELDS
        )
        _, times, win = seen

        # replay the kernel's draws and place each cluster's offspring by a loop
        rng = RngStream(23, 4).child(0)
        gen = rng.generator
        c_t = gen.poisson(nu * self.T, n)
        tau = gen.uniform(0.0, self.T, c_t.sum())
        k = joint_with_zeros(config.model, None, gen, c_t.sum())[1]  # K reads no mark
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


ROUTES = {"slot-counts": process._renewal_slot_windows, "paths": process._renewal_path_windows}


class TestSlotCountRoute:
    """Exponential-wait renewal windows by slot counts agree in law with the path route.

    Both routes run on one model, each called directly through the chunk
    engine, and each is held to the closed forms within 4 SE.  The marks
    are exponential, so the mark sums have finite variance.
    """

    HORIZONS = (5.0, 20.0, 40.0)
    N = 40_000
    EXP = Exponential(1.0)
    MODEL = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, EXP, 2.0)
    CONFIG = WindowConfig(MODEL, RP, 1.0)

    @classmethod
    def sweep(cls, route: str, config=CONFIG, seed=0):
        kernel = partial(ROUTES[route], config, np.array(cls.HORIZONS), fields=WINDOW_FIELDS)
        return chunked_fill(kernel, cls.N, 4096, RngStream(170 + seed, 0))

    @pytest.fixture(scope="class")
    def outs(self):
        return {route: self.sweep(route, seed=len(route)) for route in sorted(ROUTES)}

    def test_event_counts_have_the_closed_form_moments(self, outs):
        means, variances = process.event_moments(self.CONFIG, self.HORIZONS)
        for i, horizon in enumerate(self.HORIZONS):
            reference = renewal_window_count_variance(self.MODEL, 1.0, 1.0, horizon)
            assert variances[i] == pytest.approx(reference, rel=1e-9)
            for route, out in outs.items():
                counts = out["n_events"][i].astype(float)
                mean, se = mean_and_se(counts)
                assert abs(mean - means[i]) < 4 * se, (route, horizon)
                assert abs(sample_variance_z(counts, variances[i])) < 4, (route, horizon)

    def test_leftover_and_sums_have_the_closed_form_means(self, outs):
        # E[J_T] = nu T E[cluster size] - E[N_T]; the marks are independent of
        # the counts, of mean 1, so E[leftover_sum] = E[J_T] and E[sum_in_window] = E[N_T]
        means = process.mean_events(self.CONFIG, self.HORIZONS)
        for route, out in outs.items():
            for i, horizon in enumerate(self.HORIZONS):
                leftover = horizon * 3.0 - means[i]
                for field, want in (
                    ("j_leftover", leftover),
                    ("leftover_sum", leftover),
                    ("sum_in_window", means[i]),
                ):
                    mean, se = mean_and_se(out[field][i])
                    assert abs(mean - want) < 4 * se, (route, field, horizon)
            assert np.array_equal(out["n_clusters"][-1] > 0, out["n_events"][-1] > 0)

    def test_routes_agree_on_the_covariance(self, outs):
        # Cov(N_T1, N_Tk): the horizons of one path share their early clusters
        covariances = []
        for out in outs.values():
            counts = out["n_events"].astype(float)
            products = (counts[0] - counts[0].mean()) * (counts[-1] - counts[-1].mean())
            covariances.append(mean_and_se(products))
        (a, se_a), (b, se_b) = covariances
        assert a > 0 and b > 0
        assert abs(a - b) < 4 * math.hypot(se_a, se_b)

    # the regimes whose clusters the slot route thins cell by cell: (model, nu, horizons)
    THINNED = {
        "poisson-2": (MODEL, 1.0, HORIZONS),
        "pareto-1.5": (JointMarkModel(Regime.INDEPENDENT_HEAVY_COUNT, EXP, LAW), 1.0, HORIZONS),
        "pareto-2.5": (
            JointMarkModel(Regime.INDEPENDENT_HEAVY_COUNT, EXP, ParetoLaw(1.0, 2.5)),
            1.0,
            HORIZONS,
        ),
        "tail-equivalent": (
            JointMarkModel(Regime.INDEPENDENT_TAIL_EQUIVALENT, LAW, LAW),
            1.0,
            HORIZONS,
        ),
        "no-offspring": (JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, EXP, 0.0), 1.0, HORIZONS),
        # nearly every cluster spills, and runs over many slots
        "short-slots": (
            JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, EXP, 5.0),
            10.0,
            tuple(np.linspace(0.1, 10.0, 100)),
        ),
        # rate L = 1,500: the table of P(Y < j) is cut at 1,024 terms
        "cut-table": (JointMarkModel(Regime.INDEPENDENT_HEAVY_COUNT, EXP, LAW), 0.05, (1500.0,)),
    }

    @pytest.mark.parametrize("name", sorted(THINNED))
    def test_thinned_cells_have_the_laws_of_per_cluster_draws(self, name):
        """Per horizon: the closed-form E[N_T] and Var N_T, E[J_T] and E[clusters] = nu T;
        and a two-sample chi-square of N_T and J_T against windows drawn cluster by cluster.
        """
        model, nu, horizons = self.THINNED[name]
        config = WindowConfig(model, RP, nu)
        kernel = partial(process._renewal_slot_windows, config, np.array(horizons), fields=WINDOW_FIELDS)
        out = chunked_fill(kernel, self.N, 4096, RngStream(180, len(name)))
        gen = np.random.Generator(np.random.PCG64DXSM(190 + len(name)))
        drawn, drawn_leftover = slot_window_counts(model, 1.0, nu, horizons, self.N, gen)
        means, variances = process.event_moments(config, horizons)
        consts = model_constants(model)
        k = len(horizons)
        for i in sorted({*range(0, k, 11), k - 1}):  # ten of the hundred short slots
            t, counts, leftover = horizons[i], out["n_events"][i], out["j_leftover"][i]
            mean, se = mean_and_se(counts.astype(float))
            assert abs(mean - means[i]) < 4 * se, (t, mean, means[i])
            assert abs(sample_variance_z(counts.astype(float), variances[i])) < 4, t
            # E[J_T] = nu T E[cluster size] - E[N_T]; a sample mean of the leftover
            # has a normal SE only where Var K is finite, not for ceil(Pareto(1.5))
            if math.isfinite(consts.cluster_size_variance):
                mean, se = mean_and_se(leftover.astype(float))
                assert abs(mean - (nu * t * consts.mean_cluster_size - means[i])) <= 4 * se, t
            mean = out["n_clusters"][i].mean()
            assert abs(mean - nu * t) < 4 * math.sqrt(nu * t / self.N), t
            assert two_sample_chi2(counts, drawn[i]) > 1e-3, t
            assert two_sample_chi2(leftover, drawn_leftover[i]) > 1e-3, t

    def test_comonotone_routes_agree(self):
        # K = ceil(X), X ~ Pareto(3): the immigrants' marks come with their counts
        model = JointMarkModel(Regime.COMONOTONE_COUNT, ParetoLaw(1.0, 3.0))
        config = WindowConfig(model, RP, 1.0)
        outs = [self.sweep(route, config, seed=10 + len(route)) for route in sorted(ROUTES)]
        means = process.mean_events(config, self.HORIZONS)
        for out in outs:
            for i in range(len(self.HORIZONS)):
                mean, se = mean_and_se(out["n_events"][i])
                assert abs(mean - means[i]) < 4 * se
        for field in ("max_in_window", "sum_in_window", "leftover_sum"):
            assert stats.ks_2samp(outs[0][field][-1], outs[1][field][-1]).pvalue > 1e-3, field


def two_sample_chi2(a: np.ndarray, b: np.ndarray, cells: int = 20) -> float:
    """The p-value of a chi-square test that two integer samples share a law.

    The cells are cut at the pooled sample's quantiles.
    """
    edges = np.unique(np.quantile(np.concatenate((a, b)), np.linspace(0.0, 1.0, cells + 1)[1:-1]))
    table = np.array(
        [np.bincount(np.searchsorted(edges, x, "right"), minlength=edges.size + 1) for x in (a, b)]
    )
    return stats.chi2_contingency(table[:, table.sum(axis=0) > 0]).pvalue


class TestChunkMemory:
    """One chunk's peak working set, in the bench models.

    The path routes are bounded per simulated point: the immigrants and
    offspring of the chunk's paths, the in-window events and the leftover
    ones at the last horizon.  The slot-count route holds no array per
    point, so it is bounded per window.
    """

    @pytest.mark.parametrize(
        "kernel, config, n, horizons, bound",
        [
            (
                process._renewal_path_windows,
                renewal_config(waiting=UNIFORM_WAITS),
                4096,
                (10.0, 50.0, 100.0),
                32,
            ),
            (process._hawkes_windows, hawkes_config(), 2048, (10.0, 50.0, 100.0, 500.0), 19),
        ],
        ids=["renewal-path-route", "hawkes"],
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

    def test_slot_route_peak_per_window(self):
        # the same 4,096 windows, every statistic kept, at T_max = 100 and
        # 1,000: ten times the points, the same peak within 10%, under 720 B
        # a window (cells, stayer draws, the spilling clusters, their runs
        # and one block of marks); the tables are built before tracing
        peaks, points = [], []
        for horizons in ((10.0, 50.0, 100.0), (100.0, 500.0, 1000.0)):
            run = partial(process._renewal_slot_windows, renewal_config(), np.array(horizons), 4096)
            run(RngStream(5, 0).child(0), WINDOW_FIELDS)
            tracemalloc.start()
            try:
                out = run(RngStream(5, 0).child(0), WINDOW_FIELDS)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            points.append(int(out["n_events"][-1].sum() + out["j_leftover"][-1].sum()))
        assert points[0] > 10**6 and points[1] > 9 * points[0]
        assert max(peaks) <= 1.1 * min(peaks)
        assert max(peaks) / 4096 <= 720

    def test_leftover_intensity_only(self):
        # what a Hawkes leftover sweep keeps: read off the (slot, window) cell
        # counts alone, so its chunk holds no per-point array, only about
        # 33 B per cell (the counts, the result and their temporaries)
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
        assert peak / points <= 1
        assert peak / (2048 * len(horizons)) <= 40


class TestBatchMemory:
    """The peak working set of ``batch_functionals`` per cluster, in the criterion-2a model.

    Each kept functional takes 8 bytes a cluster, and one chunk of 2**16
    clusters is alive at a time, at 56 to 64 bytes per chunk cluster here,
    which at n = 2**21 adds about 2 bytes a cluster.  The chunks' results
    are copied into place as they arrive, not held until the end.
    """

    @pytest.mark.parametrize(
        "fields, bound", [(("h", "d", "sizes"), 36), (("h",), 18), (("d",), 18)]
    )
    def test_peak_bytes_per_cluster(self, fields, bound):
        n = 1 << 21
        model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 2.0)
        tracemalloc.start()
        try:
            sample = batch_functionals(model, RP, n, RngStream(5, 0), fields=fields)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sample) == n
        assert peak / n <= bound


class _Picked(Exception):
    """Raised by a stand-in chunk engine with the kernel and chunk size it was given."""


def picked_chunk(monkeypatch, module, engine: str, call) -> tuple:
    """The kernel and chunk size that ``call`` gives ``module``'s chunk ``engine``; none runs."""

    def spy(kernel, n, chunk, *args, **kwargs):
        raise _Picked(kernel, chunk)

    monkeypatch.setattr(module, engine, spy)
    with pytest.raises(_Picked) as excinfo:
        call()
    return excinfo.value.args


def chunk_peak(kernel, chunk: int) -> int:
    """The tracemalloc peak of one chunk of ``chunk`` tasks."""
    tracemalloc.start()
    try:
        kernel(chunk, RngStream(5, 0).child(0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkBudget:
    """The chunk each budgeted kernel is given fits in ``clusters._CHUNK_BYTES``.

    The stand-in engine records the chunk size the caller picks, and one
    chunk of that size then runs under tracemalloc.  Every field subset is
    given the same chunk, so it reads the same draws.
    """

    @pytest.mark.parametrize(
        "bytes_per_task", [1.0, 33.0, 64.0, 64.5, 6000.0, 1e5, 1 << 23, 1e300, np.inf]
    )
    def test_rule_picks_the_largest_power_of_two_that_fits(self, bytes_per_task):
        chunk = clusters._chunk_size(bytes_per_task, 1, 1 << 30)
        assert chunk & (chunk - 1) == 0
        assert chunk == 1 or chunk * bytes_per_task <= clusters._CHUNK_BYTES
        assert 2 * chunk * bytes_per_task > clusters._CHUNK_BYTES

    def test_rule_is_clamped(self):
        assert clusters._chunk_size(1e9, 64, 1 << 16) == 64
        assert clusters._chunk_size(1.0, 64, 1 << 16) == 1 << 16

    @pytest.mark.parametrize(
        "config, horizons",
        [
            (renewal_config(), (10.0, 50.0, 100.0)),
            (comonotone_config(), (10.0, 50.0, 100.0)),
            # nearly every offspring point is past a horizon its immigrant is not past
            (renewal_config(count_mean=20.0), (1.0,)),
            (renewal_config(count_mean=20.0), tuple(np.linspace(10.0, 100.0, 30))),
            # immigrants only, two cells a window
            (renewal_config(count_mean=0.0), (1.0,)),
            # the slot-count route at its most runs a point: a hundred slots
            # far shorter than a wait, so nearly every offspring is a run of its own
            (renewal_config(nu=10.0, count_mean=5.0), tuple(np.linspace(0.1, 10.0, 100))),
            # the path route, which uniform waits take
            (renewal_config(waiting=UNIFORM_WAITS), (10.0, 50.0, 100.0)),
        ],
        ids=[
            "ldp",
            "comonotone",
            "leftover-heavy",
            "thirty-horizons",
            "immigrants-only",
            "short-slots",
            "path-route",
        ],
    )
    def test_renewal_windows(self, monkeypatch, config, horizons):
        picks = {
            fields: picked_chunk(
                monkeypatch,
                process,
                "chunked_fill",
                lambda: sweep_windows(config, horizons, 1 << 20, RngStream(5, 0), fields=fields),
            )
            for fields in (("n_events", "max_in_window"), WINDOW_FIELDS)
        }
        assert len({chunk for _, chunk in picks.values()}) == 1
        for kernel, chunk in picks.values():
            assert chunk_peak(kernel, chunk) <= clusters._CHUNK_BYTES

    def test_ldp_renewal_chunk(self, monkeypatch):
        # the criterion-10 sweep: 4,096 windows of about 300 points, priced per
        # cell and per spilling cluster, not per point
        _, chunk = picked_chunk(
            monkeypatch,
            process,
            "chunked_fill",
            lambda: sweep_windows(renewal_config(), (10.0, 50.0, 100.0), 30_000, RngStream(5, 0)),
        )
        assert chunk == 4096

    @pytest.mark.parametrize("fields", [("leftover_intensity",), ("n_events", "j_leftover")])
    def test_hawkes_windows_keep_their_chunks(self, monkeypatch, fields):
        # 2**21 expected points a chunk at the leftover-hawkes config: 1,000 a window
        _, chunk = picked_chunk(
            monkeypatch,
            process,
            "chunked_fill",
            lambda: sweep_windows(
                hawkes_config(), (10.0, 50.0, 100.0, 500.0), 20_000, RngStream(5, 0), fields=fields
            ),
        )
        assert chunk == 2048

    @pytest.mark.parametrize(
        "model, params",
        [
            (JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 2.0), RP),
            (JointMarkModel(Regime.INDEPENDENT_HEAVY_COUNT, Exponential(1.0), LAW), RP),
            (JointMarkModel(Regime.INDEPENDENT_TAIL_EQUIVALENT, LAW, LAW), RP),
            (JointMarkModel(Regime.COMONOTONE_COUNT, LAW), RP),
            (hawkes_config().model, HawkesParams()),
            (hawkes_config(kappa=0.9).model, HawkesParams()),
            (hawkes_config(kappa=0.97).model, HawkesParams()),
            (hawkes_comonotone_config().model, HawkesParams(max_cluster_events=10**7)),
            (hawkes_comonotone_config(kappa=0.9).model, HawkesParams(max_cluster_events=10**7)),
        ],
        ids=[
            "poisson-count",
            "pareto-count",
            "tail-equivalent",
            "comonotone-count",
            "hawkes",
            "hawkes-0.9",
            "hawkes-grown-0.97",
            "hawkes-comonotone",
            "hawkes-comonotone-0.9",
        ],
    )
    def test_cluster_batches(self, monkeypatch, model, params):
        picks = [
            picked_chunk(
                monkeypatch,
                clusters,
                "chunked_fill",
                lambda: batch_functionals(model, params, 1 << 22, RngStream(5, 0), fields=fields),
            )
            for fields in (("h",), clusters.FUNCTIONALS)
        ]
        assert picks[0][1] == picks[1][1]
        kernel, chunk = picks[1]
        assert chunk_peak(kernel, chunk) <= clusters._CHUNK_BYTES

    @pytest.mark.parametrize(
        "model",
        [
            JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 2.0),
            JointMarkModel(Regime.INDEPENDENT_TAIL_EQUIVALENT, LAW, LAW),
            hawkes_comonotone_config().model,
        ],
        ids=["poisson-count", "pareto-count", "hawkes-comonotone"],
    )
    def test_mc_oracle(self, monkeypatch, model):
        spec = reference.OracleSpec(size=1 << 22, seed=5)
        xs = np.geomspace(10.0, 1e3, 5)
        kernel, chunk = picked_chunk(
            monkeypatch,
            reference,
            "chunked_map",
            lambda: reference.joint_tail_mc(model, 1.5, xs, spec),
        )
        assert chunk_peak(kernel, chunk) <= clusters._CHUNK_BYTES

    @pytest.mark.parametrize(
        "support",
        [((1.0, 1, 0.5), (2.0, 2, 0.5)), ((1.0, 0, 0.5), (2.0, 10, 0.5))],
        ids=["bench", "ten-offspring"],
    )
    def test_discrete_sampler(self, monkeypatch, support):
        model = oracle.DiscreteJointModel("renewal", support, ((1.0, 0.5), (2.0, 0.5)))
        kernel, chunk = picked_chunk(
            monkeypatch,
            oracle,
            "chunked_fill",
            lambda: oracle.sample_renewal_functionals(model, 1 << 22, RngStream(5, 0)),
        )
        assert chunk_peak(kernel, chunk) <= clusters._CHUNK_BYTES


class TestLeftoverIntensity:
    """E[Lambda_T | immigrants], Lambda_T the decayed intensity of a Hawkes window's points by T.

    E[J_T | path to T] = Lambda_T / (1 - E[kappa]), and conditioning further
    on the immigrants keeps the mean, so the conditional and the crude
    leftover counts estimate the same mean, E[J_T] from Campbell's formula.
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

    @pytest.mark.parametrize("mean_kappa", [0.0, 0.5])
    @pytest.mark.parametrize("decay", [1.0, 2.0])
    @pytest.mark.parametrize("horizon", [5.0, 20.0, 100.0, 500.0])
    def test_closed_form_mean_is_campbell(self, horizon, decay, mean_kappa):
        # E[sum_i kappa_i exp(-beta (1 - m) (T - t_i))] over a Poisson(nu)
        # immigration on [0, T], divided by (1 - m)
        m, fade = mean_kappa, decay * (1.0 - mean_kappa)
        closed = m * -math.expm1(-fade * horizon) / fade / (1.0 - m)
        want = hawkes_leftover_mean(1.0, m, decay, horizon)
        assert closed == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_is_the_immigrants_decayed_kappa(self, name):
        # replay the only chunk's cell counts, a Poisson count per (slot,
        # window): each window's value is the mean of
        # sum_i kappa_i exp(-fade (T - t_i)) over its immigrants by T given
        # them, E[kappa] sum_{r <= s} C_r g_r exp(-fade (T_s - T_r)), with
        # fade = beta (1 - m) and g_r = (1 - exp(-fade dT_r)) / (fade dT_r)
        model, params = self.MODELS[name]
        n, horizons = 500, np.array(self.HORIZONS)
        out = sweep_windows(
            WindowConfig(model, params, 1.0), self.HORIZONS, n, RngStream(86, 0),
            fields=("leftover_intensity",),
        )
        width = np.diff(horizons, prepend=0.0)
        cells = RngStream(86, 0).child(0).generator.poisson(width[:, None], (len(horizons), n))
        m = model.target_mean_kappa
        fade = params.decay_rate * (1.0 - m)
        g = -np.expm1(-fade * width) / (fade * width)
        for s, horizon in enumerate(horizons):
            weights = m * g[: s + 1] * np.exp(-fade * (horizon - horizons[: s + 1]))
            want = weights @ cells[: s + 1]
            np.testing.assert_allclose(out["leftover_intensity"][s], want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_closed_form_is_the_mean_over_times_and_kappa(self, name):
        # fixed cell counts, the immigrants' times and kappa redrawn R times:
        # the mean of the per-immigrant sum is the kernel's closed form
        model, params = self.MODELS[name]
        horizons, reps = np.array(self.HORIZONS), 20_000
        cells = np.array([[0, 1, 3, 0], [2, 0, 5, 0], [1, 4, 0, 0]])
        k, n = cells.shape
        tally = process._HorizonTally(horizons, n, ("leftover_intensity",), model, params.decay_rate)
        tally.cell_counts(cells)
        closed = tally.result(RngStream(87, 0))["leftover_intensity"]
        # each redraw is another n windows of the same cells
        many = np.tile(cells, (1, reps))
        rng = RngStream(87, 0).child(1)
        times = process._cell_times(rng.generator, horizons, many)
        kappa = sample_joint(model, rng.branch(process._MARKS).generator, rng.generator, times.size)[1]
        fade = params.decay_rate * (1.0 - model.target_mean_kappa)
        sums = immigrant_intensity(many, times, kappa, horizons, fade).reshape(k, reps, n)
        mean, se = sums.mean(axis=1), sums.std(axis=1, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - closed) <= 4 * se), (mean - closed) / se
        assert np.all(closed[:, -1] == 0.0) and np.all(closed[:, 1] > 0.0)

    def test_cell_fields_start_no_pool(self, monkeypatch):
        # each chunk is one Poisson draw of the cell counts, so a pool would
        # cost more than it saves; T=100 gives several chunks
        fields = ("leftover_intensity", "n_clusters")
        alone = self.sweep("light", fields, seed=88)

        def no_pool(*args, **kwargs):
            raise AssertionError("pool started")

        monkeypatch.setattr(clusters, "ProcessPoolExecutor", no_pool)
        pooled = self.sweep("light", fields, workers=2, seed=88)
        for field in fields:
            assert np.array_equal(alone[field], pooled[field]), field
        with pytest.raises(AssertionError, match="pool started"):
            self.sweep("light", (*fields, "n_events"), workers=2, seed=88)

    @pytest.mark.parametrize(
        "fields", [("leftover_intensity",), ("leftover_intensity", "n_clusters"), ("n_clusters",)]
    )
    def test_immigrant_fields_grow_no_clusters(self, monkeypatch, fields):
        def no_growth(*args):
            raise AssertionError("_grown_sizes called")

        monkeypatch.setattr(process, "_grown_sizes", no_growth)
        out = self.sweep("light", fields, seed=87)
        assert set(out) == set(fields)
        with pytest.raises(AssertionError, match="_grown_sizes called"):
            self.sweep("light", (*fields, "n_events"), seed=87)


class TestHawkesCells:
    """Hawkes immigrants drawn per (slot, window) cell and stored slot-major.

    A Poisson process restricted to disjoint intervals has independent
    Poisson counts there, each with uniform points: window w has
    Poisson(nu (T_s - T_{s-1})) immigrants in slot s, uniform on (T_{s-1}, T_s].
    """

    HORIZONS = np.array([4.0, 10.0, 25.0, 60.0])

    @pytest.mark.parametrize("make", [hawkes_config, hawkes_comonotone_config], ids=["light", "comonotone"])
    def test_chunk_with_no_immigrant_is_all_zero(self, make):
        # at nu = 1e-12 the 64 windows draw no immigrant: the cascade has
        # no cluster to grow, and every statistic is 0 at every horizon
        fields = (*WINDOW_FIELDS, "leftover_intensity")
        out = process._hawkes_windows(make(nu=1e-12), self.HORIZONS, 64, RngStream(1, 0).child(0), fields)
        assert set(out) == set(fields)
        for field, values in out.items():
            assert values.shape == (len(self.HORIZONS), 64) and not values.any(), field

    def test_slot_counts_have_mean_nu_times_the_slot_length(self):
        nu, n = 1.3, 20_000
        gen = np.random.default_rng(131)
        cells = process._cell_counts(gen, nu, self.HORIZONS, n)
        times = process._cell_times(gen, self.HORIZONS, cells)
        assert cells.shape == (len(self.HORIZONS), n) and times.size == cells.sum()
        mean = nu * np.diff(self.HORIZONS, prepend=0.0)
        z = (cells.mean(axis=1) - mean) / np.sqrt(mean / n)
        assert np.all(np.abs(z) <= 4), z

    def test_slot_times_are_uniform_on_the_slot(self):
        gen = np.random.default_rng(132)
        cells = process._cell_counts(gen, 1.0, self.HORIZONS, 5_000)
        times = process._cell_times(gen, self.HORIZONS, cells)
        ends = np.cumsum(cells.sum(axis=1))
        starts = np.concatenate(([0.0], self.HORIZONS[:-1]))
        for lo, hi, t0, t1 in zip(ends - cells.sum(axis=1), ends, starts, self.HORIZONS):
            block = times[lo:hi]
            assert np.all((block > t0) & (block <= t1)), (t0, t1)
            observed = np.histogram(block, bins=20, range=(t0, t1))[0]
            assert stats.chisquare(observed).pvalue > 1e-3, (t0, t1)

    def test_one_horizon_draws_are_the_window_major_ones(self):
        # one slot: the cells are the windows, drawn as gen.poisson(nu T, n)
        # and gen.uniform(0, T, m) were before the draw went cell by cell
        horizons, drawn = np.array([50.0]), np.random.default_rng(133)
        cells = process._cell_counts(drawn, 0.7, horizons, 3_000)
        times = process._cell_times(drawn, horizons, cells)
        gen = np.random.default_rng(133)
        counts = gen.poisson(0.7 * 50.0, 3_000)
        assert np.array_equal(cells[0], counts)
        assert np.array_equal(times, gen.uniform(0.0, 50.0, counts.sum()))

    # sha256 of each statistic of a one-horizon sweep, recorded before the
    # immigrants were drawn cell by cell; they must not move
    ONE_HORIZON = {
        "light": {
            "n_events": "95c3628bb81c81e00c85ee184b6cb8222fb11eefdde723580c654fe6bd6cf8d8",
            "j_leftover": "a6bae9532b014fe4131b60d614fa5309694433b1d07ee7748892886e7f27ce8f",
            "sum_in_window": "2cf04421e58370e819c93de3b73233f5b432619be4f1c201ea4b3eb8484d6cf7",
            "max_in_window": "2dd20e03b3213a242e25d30cdcc525edae7154d7e6b2bf28c24faf5dab9b6b52",
            "leftover_sum": "7fb95bf3db15c81359a3f1137fa445f49a2047af366006a2bb3537c00b86963f",
            "n_clusters": "565c79207614bf53cc38145a179396b8a33a1f6af156d54d2cc302961e26d7fb",
        },
        "comonotone": {
            "n_events": "4d9c1701b149944f98b248119174804f9cad6cb94e685c15d685a51014fc5fc6",
            "j_leftover": "5e4a48e80c1c2401c937aefaf467f9f4763d67d798a0443c55677b20e3b7667c",
            "sum_in_window": "61f353a46f0295a502ce1161a81941fc9ab34891c180d4c4a473b2b6cf545f8a",
            "max_in_window": "27c050e7d56fce382b1a7ac1b3c4413c2c7850c1507ee6fdee6521a1df72310b",
            "leftover_sum": "8cf716740ac89d38e5e29d4343dbf1fe99ba652ceae0fbcaa01eed7cd82bacba",
            "n_clusters": "565c79207614bf53cc38145a179396b8a33a1f6af156d54d2cc302961e26d7fb",
        },
    }

    @pytest.mark.parametrize("name", sorted(ONE_HORIZON))
    def test_one_horizon_sweep_unchanged_array_for_array(self, name):
        factory = {"light": hawkes_config, "comonotone": hawkes_comonotone_config}[name]
        fields = (*WINDOW_FIELDS, "leftover_intensity")
        out = sweep_windows(factory(nu=0.8), (30.0,), 6_000, RngStream(134, 0), fields=fields)
        got = {f: hashlib.sha256(out[f][0].tobytes()).hexdigest() for f in WINDOW_FIELDS}
        assert got == self.ONE_HORIZON[name]

    # quarter-unit horizons: a gap narrower than a time's rounding could put
    # an immigrant on the horizon before its slot (see _cell_times)
    @settings(max_examples=25, deadline=None)
    @given(
        ticks=st.lists(st.integers(1, 240), min_size=1, max_size=5, unique=True),
        nu=st.floats(0.05, 3.0),
    )
    def test_kernel_reads_its_counts_and_intensity_off_the_cells(self, ticks, nu):
        horizons = np.array(sorted(ticks)) / 4.0
        n, chunk, rng = 40, 16, RngStream(135, 0)
        kernel = partial(process._hawkes_windows, hawkes_config(nu=nu), horizons)

        def fill(fields, workers=1):
            return chunked_fill(partial(kernel, fields=fields), n, chunk, rng, workers)

        full = fill((*WINDOW_FIELDS, "leftover_intensity"))
        # n_clusters counts each window's immigrants by T_i: replay every chunk's
        for i, lo in enumerate(range(0, n, chunk)):
            count = min(chunk, n - lo)
            gen = rng.child(i).generator
            cells = process._cell_counts(gen, nu, horizons, count)
            times = process._cell_times(gen, horizons, cells)
            win = np.repeat(np.tile(np.arange(count), len(horizons)), cells.ravel())
            for row, h in zip(full["n_clusters"][:, lo : lo + count], horizons):
                assert np.array_equal(row, np.bincount(win[times <= h], minlength=count)), h
        assert np.all(full["n_events"] >= full["n_clusters"])
        # a window with no cluster by T_i has no point by then, in it or left over
        empty = full["n_clusters"] == 0
        assert not full["n_events"][empty].any() and not full["j_leftover"][empty].any()
        alone = fill(("leftover_intensity",))["leftover_intensity"]
        pooled = fill(("leftover_intensity",), workers=2)["leftover_intensity"]
        assert np.array_equal(alone, full["leftover_intensity"])
        assert np.array_equal(alone, pooled)


@st.composite
def window_configs(draw, regimes=tuple(Regime)):
    """A window config of one of ``regimes``, with random mark and count tails, E[kappa] and nu."""
    regime = draw(st.sampled_from(regimes))
    mark = ParetoLaw(1.0, draw(st.floats(1.5, 3.0)))
    kappa = draw(st.floats(0.0, 0.7))
    count = {
        Regime.INDEPENDENT_LIGHT_COUNT: draw(st.floats(0.0, 4.0)),
        Regime.INDEPENDENT_HEAVY_COUNT: ParetoLaw(1.0, draw(st.floats(1.2, 3.0))),
        Regime.INDEPENDENT_TAIL_EQUIVALENT: ParetoLaw(1.0, draw(st.floats(1.2, 3.0))),
        Regime.HAWKES_LIGHT_INTENSITY: BoundedUniform(0.0, 1.0),
    }.get(regime)
    model = JointMarkModel(regime, mark, count, kappa if regime.value.startswith("Hawkes") else None)
    params = HawkesParams() if model.is_hawkes else RP
    return WindowConfig(model, params, draw(st.floats(0.05, 3.0)))


class TestKernelInvariants:
    """What every window of every regime satisfies, pathwise, at every horizon."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        config=window_configs(),
        ticks=st.lists(st.integers(1, 160), min_size=1, max_size=4, unique=True),
    )
    def test_counts_and_in_window_statistics(self, config, ticks):
        horizons = np.array(sorted(ticks)) / 4.0
        out = sweep_windows(config, horizons, 30, RngStream(136, 0))
        assert np.all(out["n_events"] >= out["n_clusters"])
        for field in ("n_events", "sum_in_window", "max_in_window"):
            assert np.all(np.diff(out[field], axis=0) >= 0), field


def _outcome(run):
    """What ``run()`` returns, as a dict of arrays, or the replication of its ClusterOverflow."""
    try:
        out = run()
    except ClusterOverflow as exc:
        return ("overflow", exc.replication)
    if not isinstance(out, dict):
        kept = (field for field in clusters.FUNCTIONALS if getattr(out, field) is not None)
        out = {field: getattr(out, field) for field in kept}
    return {field: values.tobytes() for field, values in out.items()}


class TestWorkerInvariance:
    """Window sweeps and cluster batches are bit-identical at one and at two workers."""

    @pytest.mark.parametrize("regime", list(Regime), ids=[r.value for r in Regime])
    @settings(derandomize=True, max_examples=5, deadline=None)
    @given(
        data=st.data(),
        ticks=st.lists(st.integers(1, 120), min_size=1, max_size=3, unique=True),
        cluster_fields=st.sets(st.sampled_from(clusters.FUNCTIONALS), min_size=1),
    )
    def test_one_and_two_workers_agree(self, regime, data, ticks, cluster_fields):
        config = data.draw(window_configs(regimes=(regime,)))
        fields = WINDOW_FIELDS + (("leftover_intensity",) if config.model.is_hawkes else ())
        window_fields = data.draw(st.sets(st.sampled_from(fields), min_size=1))
        horizons = np.array(sorted(ticks)) / 4.0
        pools = []

        def counted_pool(*args, **kwargs):
            pools.append(kwargs["max_workers"])
            return ProcessPoolExecutor(*args, **kwargs)

        # chunks of 16 windows and of 64 clusters: at least three of each, for two workers to split
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(process, "_chunk_size", lambda *args: 16)
            patch.setattr(clusters, "_chunk_size", lambda *args: 64)
            patch.setattr(clusters, "ProcessPoolExecutor", counted_pool)
            for run in (
                partial(sweep_windows, config, horizons, 50, RngStream(137, 0), fields=tuple(window_fields)),
                partial(
                    batch_functionals, config.model, config.cluster_params, 200, RngStream(138, 0),
                    fields=tuple(cluster_fields),
                ),
            ):
                assert _outcome(partial(run, workers=1)) == _outcome(partial(run, workers=2))
        # the batch always starts a pool, the sweep unless it only counts Hawkes cells
        assert pools in ([2], [2, 2])


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
        # several chunks at T=60, so workers=2 really splits the work; the
        # max reads the counts alone in the first two models, the marks in the last
        for factory in (hawkes_config, renewal_config, comonotone_config):
            config = factory()
            full = sweep_windows(config, self.HORIZONS, 40_000, RngStream(64, 0))
            for subset in (("j_leftover", "leftover_sum"), ("n_events", "max_in_window")):
                pooled = sweep_windows(
                    config, self.HORIZONS, 40_000, RngStream(64, 0), workers=2, fields=subset
                )
                assert set(pooled) == set(subset)
                for field, rows in pooled.items():
                    assert np.array_equal(rows, full[field]), (factory.__name__, field)
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
        # the path route, whose draws do not depend on the horizons below the
        # longest, and the two sweeps get the same chunks here; only the
        # in-window sum is added up in another order
        config = renewal_config(waiting=UNIFORM_WAITS)
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


class TestMarkFreeSweeps:
    """A sweep draws marks only where a kept statistic reads them or the counts derive from them.

    Every model here has Pareto marks and no other Pareto law, so a Pareto
    draw is a mark draw.
    """

    HORIZONS = (10.0, 50.0)

    @pytest.fixture
    def no_marks(self, monkeypatch):
        def sample(self, gen, size=None):
            raise AssertionError("mark drawn")

        monkeypatch.setattr(ParetoLaw, "sample", sample)

    @staticmethod
    def sweep(config, fields, n=2_000):
        return sweep_windows(config, TestMarkFreeSweeps.HORIZONS, n, RngStream(91, 0), fields=fields)

    @pytest.mark.parametrize("factory", [renewal_config, hawkes_config])
    def test_ldp_max_draws_no_mark(self, no_marks, factory):
        sweep = SweepConfig(factory(), self.HORIZONS, replications=10_000, x_levels=4)
        rows = ldp_max_sweep(sweep, RngStream(92, 0))
        assert len(rows) == 8 and all(0.0 < r.empirical < 1.0 for r in rows)
        out = self.sweep(factory(), ("n_events", "max_in_window"))
        assert np.all(out["max_in_window"][out["n_events"] > 0] >= LAW.scale)
        with pytest.raises(AssertionError, match="mark drawn"):
            self.sweep(factory(), ("n_events", "max_in_window", "sum_in_window"))

    def test_hawkes_leftover_draws_no_mark(self, no_marks):
        sweep = SweepConfig(hawkes_config(), self.HORIZONS, replications=10_000)
        rows = leftover_scaling(sweep, RngStream(93, 0))
        assert all(r.j_over_t > 0.0 for r in rows)
        with pytest.raises(AssertionError, match="mark drawn"):
            self.sweep(hawkes_config(), ("leftover_intensity", "leftover_sum"))

    @pytest.mark.parametrize("factory", [comonotone_config, hawkes_comonotone_config])
    def test_comonotone_regimes_always_draw_marks(self, no_marks, factory):
        fields = [("n_events",), ("n_events", "max_in_window")]
        if not factory().model.is_hawkes:  # a Hawkes n_clusters grows nothing: see below
            fields.append(("n_clusters",))
        for kept in fields:
            with pytest.raises(AssertionError, match="mark drawn"):
                self.sweep(factory(), kept)

    @pytest.mark.parametrize("factory", [hawkes_config, hawkes_comonotone_config])
    def test_hawkes_cell_fields_draw_no_time_kappa_or_mark(self, no_marks, monkeypatch, factory):
        # the cell counts alone give them, in either regime
        def drawn(*args):
            raise AssertionError("times or kappa drawn")

        monkeypatch.setattr(process, "_cell_times", drawn)
        monkeypatch.setattr(process, "sample_joint", drawn)
        for fields in (("n_clusters",), ("leftover_intensity",), ("leftover_intensity", "n_clusters")):
            out = self.sweep(factory(), fields)
            assert set(out) == set(fields) and out[fields[0]].shape == (len(self.HORIZONS), 2_000)

    @pytest.mark.parametrize("factory", [renewal_config, hawkes_config])
    def test_crude_max_agrees_with_the_conditional_estimate(self, factory):
        # the max drawn from the counts has P(M_T > x | N_T) = 1 - F(x)**N_T,
        # so the crude and the conditional estimate differ by noise alone
        # the x are where both horizons' tails are neither near 0 nor near 1,
        # so a sample SE is a fair yardstick
        config, n = factory(), 5_000
        xs = np.array([10.0, 25.0, 100.0, 400.0])
        survival = LAW.survival(xs)
        diffs = []
        for seed in range(20):
            out = sweep_windows(
                config, self.HORIZONS, n, RngStream(100 + seed, 0),
                fields=("n_events", "max_in_window"),
            )
            for counts, maxima in zip(out["n_events"], out["max_in_window"]):
                crude = maxima[:, None] > xs
                conditional = -np.expm1(counts[:, None] * np.log1p(-survival))
                diffs.append(crude - conditional)
        # per horizon and x, the mean difference over all 20 seeds' windows
        pooled = np.stack(diffs).reshape(20, len(self.HORIZONS), n, len(xs))
        mean = pooled.mean(axis=(0, 2))
        se = pooled.std(axis=(0, 2), ddof=1) / math.sqrt(20 * n)
        assert np.all(np.abs(mean) <= 4 * se), mean / se


class TestEstimateMeanSum:
    """Simulated window sum means and their SEs."""

    SUM = ("sum_in_window",)

    def test_constant_marks_no_offspring(self):
        model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, Constant(1.0), 0.0)
        config = WindowConfig(model=model, cluster_params=RP, nu=1.0)
        mean, se = mean_and_se(windows(config, 10.0, 10_000, RngStream(10, 0), fields=self.SUM)["sum_in_window"])
        assert abs(mean - 10.0) < 3 * se

    def test_bigger_pilot_smaller_se(self):
        # exponential marks: a sum of Pareto(1.5) marks has no variance, and
        # its sample SE is set by its largest mark, whatever the sample size
        model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, Exponential(1.0), 2.0)
        config = WindowConfig(model=model, cluster_params=RP, nu=1.0)
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
    """The closed-form E[N_T] and Var N_T against exact values, exact references and simulation."""

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

    @pytest.mark.parametrize(
        "model",
        [
            JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 2.0),
            JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 900.0),
            JointMarkModel(Regime.INDEPENDENT_HEAVY_COUNT, Exponential(1.0), ParetoLaw(1.0, 1.5)),
            JointMarkModel(Regime.COMONOTONE_COUNT, LAW),
        ],
        ids=["poisson-2", "poisson-900", "heavy", "comonotone"],
    )
    def test_one_count_survival_per_call(self, monkeypatch, model):
        # each horizon reads a prefix of one call over the longest r-range,
        # bit-equal to a call over its own range
        for n in (64, 128, 256, 1024):
            whole = process.count_survival(model, np.arange(4096))
            assert whole[:n].tobytes() == process.count_survival(model, np.arange(n)).tobytes(), n
        config = WindowConfig(model, RenewalParams(Exponential(0.5)), nu=1.0)
        horizons = (2.0, 30.0, 400.0)
        alone = np.concatenate([process.mean_events(config, (t,)) for t in horizons])
        real, sizes = process.count_survival, []

        def counted(model, x):
            sizes.append(np.size(x))
            return real(model, x)

        monkeypatch.setattr(process, "count_survival", counted)
        got = process.mean_events(config, horizons)
        assert len(sizes) == 1 and sizes[0] > 64
        assert got.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("waiting", [Exponential(1.0), Constant(0.5), BoundedUniform(0.0, 1.0)])
    def test_no_offspring_is_nu_t(self, waiting):
        model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 0.0)
        config = WindowConfig(model, RenewalParams(waiting), nu=1.3)
        horizons = (0.3, 10.0, 100.7)
        assert list(process.mean_events(config, horizons)) == [1.3 * t for t in horizons]
        hawkes = hawkes_config(nu=1.3, kappa=0.0)
        assert list(process.mean_events(hawkes, horizons)) == [1.3 * t for t in horizons]

    # at T = 100 the r-sum would take 10^11 terms or more; the last mean wait underflows to 0
    @pytest.mark.parametrize(
        "waiting", [Constant(1e-9), Exponential(1e9), BoundedUniform(0.0, 1e-4), BoundedUniform(0.0, 5e-324)]
    )
    def test_short_waits_refused_by_the_work_budget(self, waiting):
        model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 2.0)
        with pytest.raises(ModelError, match="budget") as err:
            process.mean_events(WindowConfig(model, RenewalParams(waiting), nu=1.0), self.HORIZONS)
        assert err.value.field == "waiting"

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

    @pytest.mark.parametrize("rate", [1.0, 0.01, 3.7, 50.0])
    def test_exponential_shortfall_asked_once(self, rate):
        # each prefix of the one vector is bit-equal to a call for its own
        # length, up to the first that ends in 0, where the doubling stops
        for t in (0.3, 10.0, 100.0):
            n = 64
            for got in process._shortfalls(Exponential(rate), t):
                expected = Exponential(rate).shortfall(t, np.arange(1, n + 1))
                assert got.tobytes() == expected.tobytes(), (t, n)
                if got[-1] == 0:
                    break
                n *= 2

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
        means, variances = process.event_moments(config, horizons)
        for row, mean, variance in zip(counts, means, variances):
            sim, se = mean_and_se(row)
            assert abs(sim - mean) < 3 * se, (sim, mean, se)
            z = sample_variance_z(row.astype(float), variance)
            assert abs(z) < 3.5, (row.var(ddof=1), variance, z)

    def test_pinned_renewal_variance(self):
        # criterion 10's model, against the incomplete-gamma route of tests/reference.py
        got = process.event_moments(renewal_config(), self.HORIZONS)[1]
        np.testing.assert_allclose(got, [84.7721615, 1574 / 3, 3224 / 3], rtol=1e-9)
        exact = [renewal_window_count_variance(renewal_config().model, 1.0, 1.0, t) for t in self.HORIZONS]
        np.testing.assert_allclose(got, exact, rtol=1e-12)
        # past the waits' transient Var N_T grows at nu E[(1 + K)**2] = 11
        far = process.event_moments(renewal_config(nu=0.5), (1000.0, 2000.0))[1]
        assert (far[1] - far[0]) / 1000.0 == pytest.approx(0.5 * 11.0, rel=1e-12)

    @pytest.mark.parametrize("decay", [1.0, 0.3, 7.0])
    def test_hawkes_variance_solves_its_ode(self, decay):
        # m2 = 2 m1 - 1 + E[kappa**2] A**2 + m B, B' = beta (2 m1 - 1 + E[kappa**2] A**2) - c B,
        # integrated numerically with Var N_T = nu int_0^T m2
        from scipy.integrate import solve_ivp

        m, k2, nu = 0.5, 1.0 / 12.0 + 0.25, 1.3  # kappa = U(0, 1)
        c = decay * (1.0 - m)

        def rhs(u, y):
            a = -math.expm1(-c * u) / (1.0 - m)
            forcing = 2.0 * (1.0 - m * math.exp(-c * u)) / (1.0 - m) - 1.0 + k2 * a * a
            return [decay * forcing - c * y[0], forcing + m * y[0]]

        horizons = (0.5, 10.0, 50.0)
        sol = solve_ivp(rhs, (0.0, 50.0), [0.0, 0.0], t_eval=horizons, rtol=1e-12, atol=1e-12)
        config = WindowConfig(hawkes_config().model, HawkesParams(decay_rate=decay), nu)
        got = process.event_moments(config, horizons)[1]
        np.testing.assert_allclose(got, nu * sol.y[1], rtol=1e-8)

    def test_pinned_hawkes_variance(self):
        # kappa = U(0, 1), beta = nu = 1; the slope tends to E[S**2] = (1 - m**2 + E[kappa**2]) / (1 - m)**3
        got = process.event_moments(hawkes_config(), (10.0, 50.0, 1000.0, 2000.0))[1]
        np.testing.assert_allclose(got[:2], [62.4806402, 1226 / 3], rtol=1e-9)
        assert (got[3] - got[2]) / 1000.0 == pytest.approx((1.0 - 0.25 + 1.0 / 3.0) / 0.125, rel=1e-12)

    def test_comonotone_kappa_has_no_variance(self):
        # no count control reads it, so it is inf, with no warning; E[N_T] is finite
        for kappa in (0.5, 0.0):
            model = JointMarkModel(Regime.HAWKES_COMONOTONE_INTENSITY, LAW, target_mean_kappa=kappa)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                means, variances = process.event_moments(WindowConfig(model, HawkesParams(), 1.3), (10.0,))
            assert np.isfinite(means[0]) and variances[0] == np.inf

    @pytest.mark.parametrize("waiting", [Exponential(1.0), Constant(0.5), BoundedUniform(0.0, 1.0)])
    def test_no_offspring_variance_is_nu_t(self, waiting):
        # every cluster is its immigrant: N_T is Poisson(nu T)
        model = JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 0.0)
        horizons = (0.3, 10.0, 100.7)
        config = WindowConfig(model, RenewalParams(waiting), nu=1.3)
        assert list(process.event_moments(config, horizons)[1]) == [1.3 * t for t in horizons]
        hawkes = hawkes_config(nu=1.3, kappa=0.0)
        assert list(process.event_moments(hawkes, horizons)[1]) == [1.3 * t for t in horizons]
