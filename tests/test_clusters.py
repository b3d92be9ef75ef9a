"""Tests for the reference cluster samplers and the batch functionals."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from cluster_tails import clusters
from cluster_tails.clusters import HawkesParams, RenewalParams, batch_functionals
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
from cluster_tails.rng import RngStream
from reference import (
    Cluster,
    OffspringEvent,
    functional_max,
    functional_sum,
    sample_hawkes_cluster,
    sample_renewal_cluster,
)

LAW = ParetoLaw(1.0, 1.5)
RP = RenewalParams(waiting_law=Exponential(1.0))
HP = HawkesParams()


def light_count(mean=2.0):
    return JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, mean)


def hawkes_constant(kappa):
    return JointMarkModel(
        Regime.HAWKES_LIGHT_INTENSITY, LAW, Constant(1.0), target_mean_kappa=kappa
    )


def hawkes_uniform(kappa=0.5):
    return JointMarkModel(
        Regime.HAWKES_LIGHT_INTENSITY, LAW, BoundedUniform(0.0, 1.0), target_mean_kappa=kappa
    )


class TestRenewalCluster:
    def test_zero_count_empty(self):
        c = sample_renewal_cluster(light_count(0.0), RP, RngStream(1, 0))
        assert c.events == ()
        assert c.size == 1

    def test_mean_event_count(self):
        rng = RngStream(2, 0)
        counts = [
            len(sample_renewal_cluster(light_count(), RP, rng).events)
            for _ in range(100_000)
        ]
        assert np.mean(counts) == pytest.approx(2.0, rel=0.01)

    def test_comonotone_count_matches_mark(self):
        model = JointMarkModel(Regime.COMONOTONE_COUNT, LAW)
        rng = RngStream(3, 0)
        for _ in range(200):
            c = sample_renewal_cluster(model, RP, rng)
            assert len(c.events) == math.ceil(c.immigrant_mark)

    def test_offsets_nondecreasing_generation_one(self):
        rng = RngStream(4, 0)
        for _ in range(100):
            c = sample_renewal_cluster(light_count(5.0), RP, rng)
            offsets = [e.time_offset for e in c.events]
            assert all(a < b for a, b in zip(offsets, offsets[1:]))
            assert all(e.generation == 1 for e in c.events)
            assert all(e.parent is None for e in c.events)

    def test_hawkes_model_rejected(self):
        with pytest.raises(ModelError):
            sample_renewal_cluster(hawkes_uniform(), RP, RngStream(5, 0))


class TestHawkesCluster:
    def test_kappa_zero_single_point(self):
        c = sample_hawkes_cluster(hawkes_constant(0.0), HP, RngStream(1, 0))
        assert c.events == ()
        assert c.size == 1

    def test_forest_structure(self):
        rng = RngStream(6, 0)
        for _ in range(200):
            c = sample_hawkes_cluster(hawkes_uniform(0.7), HP, rng)
            for i, e in enumerate(c.events):
                if e.parent is None:
                    assert e.generation == 1
                else:
                    assert e.parent < i
                    parent = c.events[e.parent]
                    assert e.generation == parent.generation + 1
                    assert e.time_offset >= parent.time_offset
                assert e.time_offset >= 0

    def test_mean_total_points(self):
        sizes = batch_functionals(
            hawkes_uniform(0.5), HP, 1_000_000, RngStream(7, 0)
        ).sizes
        assert sizes.mean() == pytest.approx(2.0, rel=0.02)

    def test_generation_one_poisson(self):
        # constant kappa = 0.7: first-generation count is Poisson(0.7)
        rng = RngStream(8, 0)
        counts = [
            sum(1 for e in sample_hawkes_cluster(hawkes_constant(0.7), HP, rng).events
                if e.generation == 1)
            for _ in range(100_000)
        ]
        assert np.mean(counts) == pytest.approx(0.7, rel=0.02)

    def test_borel_total_size(self):
        # constant kappa: total progeny is Borel distributed
        kappa = 0.5
        sizes = batch_functionals(
            hawkes_constant(kappa), HP, 1_000_000, RngStream(9, 0)
        ).sizes
        n = len(sizes)
        for size_value, prob in [
            (1, math.exp(-kappa)),
            (2, kappa * math.exp(-2 * kappa)),
        ]:
            freq = (sizes == size_value).mean()
            se = math.sqrt(prob * (1 - prob) / n)
            assert abs(freq - prob) < 3 * se

    def test_overflow_guard(self):
        params = HawkesParams(max_cluster_events=20)
        model = hawkes_constant(0.95)
        with pytest.raises(ClusterOverflow):
            # near-critical: some cluster exceeds 20 events quickly
            rng = RngStream(10, 0)
            for _ in range(2000):
                sample_hawkes_cluster(model, params, rng)

    def test_renewal_model_rejected(self):
        with pytest.raises(ModelError):
            sample_hawkes_cluster(light_count(), HP, RngStream(11, 0))


class TestFunctionals:
    def test_max_empty(self):
        assert functional_max(Cluster(5.0, (), "renewal")) == 5.0

    def test_max_immigrant_dominates(self):
        c = Cluster(
            3.0,
            (OffspringEvent(0.5, 1.0, 1), OffspringEvent(1.0, 2.0, 1)),
            "renewal",
        )
        assert functional_max(c) == 3.0

    def test_max_nested(self):
        c = Cluster(
            1.0,
            (
                OffspringEvent(0.1, 4.0, 1),
                OffspringEvent(0.2, 2.0, 2, parent=0),
                OffspringEvent(0.3, 7.0, 2, parent=0),
            ),
            "hawkes",
        )
        assert functional_max(c) == 7.0

    def test_sum_empty(self):
        assert functional_sum(Cluster(5.0, (), "renewal")) == 5.0

    def test_sum_basic(self):
        c = Cluster(
            1.0,
            (OffspringEvent(0.5, 1.0, 1), OffspringEvent(1.0, 2.0, 1)),
            "renewal",
        )
        assert functional_sum(c) == 4.0

    @given(
        immigrant=st.floats(0, 100),
        marks=st.lists(st.floats(0, 100), max_size=8),
    )
    def test_sum_dominates_max(self, immigrant, marks):
        events = tuple(
            OffspringEvent(float(i), m, 1) for i, m in enumerate(marks)
        )
        c = Cluster(immigrant, events, "renewal")
        assert functional_sum(c) >= functional_max(c) >= immigrant


class TestBatchFunctionals:
    def test_single_degenerate(self):
        fs = batch_functionals(hawkes_constant(0.0), HP, 1, RngStream(1, 0))
        assert len(fs) == 1
        assert fs.h[0] == fs.d[0] and fs.sizes[0] == 1

    def test_deterministic_and_worker_independent(self):
        a = batch_functionals(light_count(), RP, 50_000, RngStream(2, 0))
        b = batch_functionals(light_count(), RP, 50_000, RngStream(2, 0))
        c = batch_functionals(light_count(), RP, 50_000, RngStream(2, 0), workers=2)
        assert np.array_equal(a.h, b.h) and np.array_equal(a.d, b.d)
        assert np.array_equal(a.h, c.h) and np.array_equal(a.sizes, c.sizes)

    def test_wald_identity_mean_sum(self):
        fs = batch_functionals(light_count(), RP, 2_000_000, RngStream(3, 0))
        assert fs.d.mean() == pytest.approx(9.0, rel=0.02)

    def test_max_le_sum_always(self):
        fs = batch_functionals(hawkes_uniform(0.5), HP, 200_000, RngStream(4, 0))
        assert np.all(fs.h <= fs.d + 1e-12)
        assert np.all(fs.sizes >= 1)

    def test_count_distribution_chisquare(self):
        fs = batch_functionals(light_count(), RP, 1_000_000, RngStream(5, 0))
        counts = fs.sizes - 1
        kmax = 12
        observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
        probs = stats.poisson.pmf(np.arange(kmax), 2.0)
        probs = np.append(probs, 1.0 - probs.sum())
        chi2 = ((observed - len(counts) * probs) ** 2 / (len(counts) * probs)).sum()
        p = stats.chi2.sf(chi2, kmax)
        assert p > 0.001

    def test_hawkes_mean_sizes(self):
        for kappa in (0.3, 0.5, 0.8):
            sizes = batch_functionals(
                hawkes_uniform(kappa), HP, 1_000_000, RngStream(6, 0)
            ).sizes
            assert sizes.mean() == pytest.approx(1.0 / (1.0 - kappa), rel=0.02)

    def test_waiting_law_immaterial_for_functionals(self):
        fast = RenewalParams(waiting_law=Exponential(10.0))
        slow = RenewalParams(waiting_law=BoundedUniform(0.5, 1.5))
        a = batch_functionals(light_count(), fast, 1_000_000, RngStream(7, 0))
        b = batch_functionals(light_count(), slow, 1_000_000, RngStream(8, 0))
        sa, sb = np.sort(a.h), np.sort(b.h)
        grid = np.concatenate([sa, sb])
        ks = np.max(
            np.abs(
                np.searchsorted(sa, grid, side="right") / len(sa)
                - np.searchsorted(sb, grid, side="right") / len(sb)
            )
        )
        assert ks < 0.003

    def test_overflow_reports_replication(self):
        # chunks hold 2**18 clusters here; the limit is the second largest
        # size, so the largest cluster alone can overflow.  The first seed
        # whose largest cluster lies past chunk 0 is used (about one in two)
        model = JointMarkModel(
            Regime.HAWKES_COMONOTONE_INTENSITY, LAW, target_mean_kappa=0.5
        )
        n = 600_000
        for seed in range(1, 21):
            sizes = batch_functionals(
                model, HawkesParams(max_cluster_events=10**7), n, RngStream(seed, 0)
            ).sizes
            limit = int(np.sort(sizes)[-2])
            if sizes.max() > limit and sizes.argmax() >= 1 << 18:
                break
        else:
            pytest.fail("no seed puts the largest cluster past chunk 0")
        for workers in (1, 2):
            with pytest.raises(ClusterOverflow) as exc_info:
                batch_functionals(
                    model, HawkesParams(max_cluster_events=limit), n, RngStream(seed, 0), workers
                )
            assert exc_info.value.replication == sizes.argmax()

    def test_single_brood_overflow_raises_before_drawing_it(self, monkeypatch):
        # kappa = X/6 with Pareto(1.5) marks: among 20,000 clusters some
        # immigrant has far more than 50 children on its own
        model = JointMarkModel(
            Regime.HAWKES_COMONOTONE_INTENSITY, LAW, target_mean_kappa=0.5
        )
        limit, n = 50, 20_000
        # replay the first generation of the batch's only chunk
        replay = RngStream(16, 0).child(0)
        gen = replay.generator
        _, kappa = sample_joint(model, gen, gen, n)
        brood = gen.poisson(kappa)
        assert brood.max() > limit
        drawn = []

        def recording(model, marks, counts, size=None):
            drawn.append(size)
            return sample_joint(model, marks, counts, size)

        monkeypatch.setattr(clusters, "sample_joint", recording)
        with pytest.raises(ClusterOverflow) as exc_info:
            batch_functionals(model, HawkesParams(max_cluster_events=limit), n, RngStream(16, 0))
        assert exc_info.value.replication == brood.argmax()
        assert drawn == [n]

    @pytest.mark.parametrize(
        "model, digest",
        [
            (hawkes_uniform(), "042821cbf8e5fc60dad15ef2b5f5d47abac52afed5030e3c7d84609ed798fba7"),
            (
                JointMarkModel(Regime.HAWKES_COMONOTONE_INTENSITY, LAW, target_mean_kappa=0.5),
                "76e5280a45f7eaab543ab5ae19a2b7a1f02cb472789b687464221bd6999e8ac0",
            ),
        ],
        ids=["light-uniform", "comonotone"],  # the digest stays out of the test's name
    )
    def test_hawkes_outputs_pinned(self, model, digest):
        # byte-for-byte pin over two chunks: every stored Hawkes result depends on it
        sample = batch_functionals(
            model, HawkesParams(max_cluster_events=10**7), 300_000, RngStream(81, 0)
        )
        h = hashlib.sha256()
        for a in (sample.h, sample.d, sample.sizes):
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("workers, asked", [(2, 2), (5000, 10)])
    def test_pool_asks_for_no_more_workers_than_chunks(self, monkeypatch, workers, asked):
        # a process pool starts every worker it is asked for at once, so an
        # inline stand-in records the request and no process is started
        requests = []

        class InlinePool:
            def __init__(self, max_workers, initializer=None):
                requests.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(clusters, "ProcessPoolExecutor", InlinePool)
        kernel = lambda count, rng: (count, rng.spawn_key)
        parts = clusters.chunked_map(kernel, 95, 10, RngStream(3, 0), workers)
        assert requests == [asked]
        assert parts == clusters.chunked_map(kernel, 95, 10, RngStream(3, 0))
        assert parts[-1] == (5, (0, 9))

    def test_allocator_helper_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(clusters.ctypes, "CDLL", lambda name: object())
        clusters._keep_freed_memory.cache_clear()
        try:
            assert clusters._keep_freed_memory() is None
        finally:
            clusters._keep_freed_memory.cache_clear()

    def test_params_family_checked(self):
        with pytest.raises(ModelError):
            batch_functionals(light_count(), HP, 10, RngStream(1, 0))
        with pytest.raises(ModelError):
            batch_functionals(hawkes_uniform(), RP, 10, RngStream(1, 0))
