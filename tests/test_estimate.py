"""Tests for empirical-tail machinery."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import poisson

from cluster_tails.errors import (
    ConfigError,
    DegenerateTail,
    InsufficientExceedances,
    UnstableEstimate,
)
from cluster_tails import estimate
from cluster_tails.clusters import HawkesParams, RenewalParams, batch_functionals
from cluster_tails.estimate import (
    _Z95,
    CountTally,
    QuantileGrid,
    TailFold,
    TailSample,
    _distinct_counts,
    cluster_max_tail,
    conditional_max_tail,
    hill_estimator,
    laplace_derivative_table,
    ratio_curve,
    size_control,
    table_slope,
    tail_table,
    wilson_interval,
)
from cluster_tails.heavytail import (
    BoundedUniform,
    Exponential,
    JointMarkModel,
    ParetoLaw,
    Regime,
    model_constants,
)
from cluster_tails.rng import RngStream
from reference import (
    hawkes_cluster_max_tail,
    hawkes_cluster_size_pmf,
    plain_conditional_max_tail,
    renewal_cluster_max_tail,
)
from reference import laplace_derivative_table as reference_laplace_table

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


class TestQuantile:
    """Quantiles read off the sorted sample equal np.quantile's, bit for bit and type for type."""

    LEVELS = [0.0, 1 / 3, 0.5, 0.9, 0.99, 0.995, 0.999, 0.9995, 0.9999, 1.0]

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 12_345])
    def test_equals_numpy(self, n):
        for values in (pareto_values(n, n), np.round(pareto_values(n, n)), np.append(pareto_values(n, n - 1), np.inf)):
            sample = TailSample.from_values(values)
            with np.errstate(invalid="ignore"):  # inf - inf between two infinite order statistics
                assert np.array_equal(sample.quantile(self.LEVELS), np.quantile(sample.values, self.LEVELS), equal_nan=True)
                for level in self.LEVELS:
                    got, want = sample.quantile(level), np.quantile(sample.values, level)
                    assert type(got) is type(want)
                    assert got == want or (np.isnan(got) and np.isnan(want))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50), st.floats(0.0, 1.0))
    def test_equals_numpy_on_any_sample(self, values, level):
        sample = TailSample.from_values(values)
        assert sample.quantile(level) == np.quantile(sample.values, level)


@st.composite
def chunked(draw, elements, max_size=300):
    """A nonempty sample and a random chunking of it: the sample, its chunks."""
    values = draw(st.lists(elements, min_size=1, max_size=max_size))
    cuts = draw(st.sets(st.integers(1, max(1, len(values) - 1)), max_size=12)) if len(values) > 1 else set()
    return values, np.split(np.array(values), sorted(cuts))


# floats with many ties, and no -0.0, which sorts in any order among 0.0s
FOLD_VALUES = st.one_of(st.integers(0, 5).map(float), st.floats(-1e6, 1e6).map(lambda x: x + 0.0))
# counts whose chunks are tallied by bincount (largest below the length) and by np.unique
FOLD_COUNTS = st.one_of(st.integers(0, 3), st.integers(0, 10_000))


def folded(chunks, m: int) -> TailSample:
    fold = TailFold(m)
    for chunk in chunks:
        fold.add(chunk)
    return fold.sample()


class TestFolds:
    """Chunks folded into a sample's top m and a count tally read what the whole sample gives, bit for bit."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), sample=chunked(FOLD_VALUES))
    def test_top_m_is_the_sorted_tail(self, data, sample):
        values, chunks = sample
        m = data.draw(st.integers(1, len(values) + 3), label="m")  # m >= n keeps them all
        top = folded(chunks, m)
        assert top.n == len(values)
        assert top.values.tobytes() == np.sort(np.array(values))[-m:].tobytes()

    @pytest.mark.parametrize("m", [1, 2, 9, 10, 15])
    def test_top_m_with_ties_at_the_cut(self, m):
        # ten values, the largest tied, in chunks of 3, 1 and 6: m = 1, a cut inside
        # the ties, every value (m = n) and more than there are (m > n)
        values = np.array([4.0, 7.0, 7.0, 1.0, 7.0, 0.0, 3.0, 7.0, 2.0, 5.0])
        top = folded(np.split(values, [3, 4]), m)
        assert (top.n, top.values.tobytes()) == (10, np.sort(values)[-m:].tobytes())

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(sample=chunked(FOLD_COUNTS))
    def test_tally_is_the_whole_tally(self, sample):
        counts, chunks = sample
        fold = CountTally()
        for chunk in chunks:
            fold.add(chunk)
        for got, want in zip(fold.tally, _distinct_counts(np.array(counts))):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_tally_merges_both_branches(self):
        # a bincount chunk, a np.unique chunk, and their concatenation by np.unique
        chunks = [np.array([0, 1, 1, 2, 2, 2, 3, 3]), np.array([100, 2])]
        fold = CountTally()
        for chunk in chunks:
            fold.add(chunk)
        assert [a.tolist() for a in fold.tally] == [[0, 1, 2, 3, 100], [1, 2, 4, 2, 1]]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data(), sample=chunked(FOLD_VALUES))
    def test_below_the_kept_part_raises(self, data, sample):
        values, chunks = sample
        n = len(values)
        m = data.draw(st.integers(1, n), label="m")
        levels = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5), label="levels")
        top, whole = folded(chunks, m), TailSample.from_values(values)
        if math.floor((n - 1) * min(levels)) >= n - m:
            xs = top.quantile(levels)
            assert np.asarray(xs).tobytes() == np.asarray(whole.quantile(levels)).tobytes()
            assert np.array_equal(top.exceedances(xs), whole.exceedances(xs))
        else:
            with pytest.raises(ValueError, match="below"):
                top.quantile(levels)
        if m < n:
            with pytest.raises(ValueError, match="below"):
                top.exceedances(np.nextafter(top.values[0], -np.inf))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data(), sample=chunked(st.floats(1.0, 1e6), max_size=400))
    def test_hill_on_the_top_k_plus_one(self, data, sample):
        values, chunks = sample
        if len(values) < 3:
            return
        k = data.draw(st.integers(2, len(values) - 1), label="k")
        whole = TailSample.from_values(values)
        try:
            want = hill_estimator(whole, k)
        except DegenerateTail:
            with pytest.raises(DegenerateTail):
                hill_estimator(folded(chunks, k + 1), k)
            return
        assert hill_estimator(folded(chunks, k + 1), k) == want
        with pytest.raises(ValueError, match="top k"):
            hill_estimator(folded(chunks, k), k)

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(cuts=st.sets(st.integers(1, 19_999), max_size=8))
    def test_ratio_curve_on_the_grid_top(self, cuts):
        model, params, _ = CLUSTER_MAX_MODELS["light-count"]
        grid = QuantileGrid(levels=(0.9, 0.99, 0.995))
        sample = batch_functionals(model, params, 20_000, RngStream(46, 0), fields=("h", "sizes"))
        top, sizes = TailFold(grid.kept(20_000)), CountTally()
        for h, size in zip(np.split(sample.h, sorted(cuts)), np.split(sample.sizes, sorted(cuts))):
            top.add(h)
            sizes.add(size)
        whole = TailSample.from_values(sample.h)
        for tally in (None, _distinct_counts(sample.sizes)):
            want = ratio_curve(whole, model, "max", grid, size_tally=tally)
            got = ratio_curve(top.sample(), model, "max", grid, size_tally=tally and sizes.tally)
            for field in ("grid", "empirical", "denominator", "ratio", "ci_low", "ci_high", "exceedances"):
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
            assert got.provenance == want.provenance


class TestTailTable:
    """The one routine behind every printed tail estimate, its band and its certificate."""

    SAMPLE = TailSample.from_values(pareto_values(1, 2_000))
    XS = np.array([0.5, 1.5, 3.0, 10.0, 100.0, 1e6])
    P = np.array([0.5, 0.2, 0.01, 0.001, 1e-5, 0.0])
    SE = np.array([0.1, 0.15, 0.02, 0.0, 1e-4, 0.0])

    def test_counts_are_the_exceedances(self):
        counts = tail_table(self.SAMPLE, self.XS, 50).exceedances
        assert counts.tolist() == [self.SAMPLE.exceedances(float(x)) for x in self.XS]

    def test_fraction_with_its_wilson_band(self):
        t = tail_table(self.SAMPLE, self.XS, 50)
        counts, tail, low, high = t.exceedances, t.empirical, t.ci_low, t.ci_high
        n = self.SAMPLE.n
        assert tail.tolist() == [int(c) / n for c in counts]
        assert list(zip(low, high)) == [wilson_interval(int(c), n) for c in counts]

    def test_estimate_with_its_clipped_normal_band(self):
        p, se = self.P, self.SE
        t = tail_table(self.SAMPLE, self.XS, 50, (p, se))
        counts, tail, low, high = t.exceedances, t.empirical, t.ci_low, t.ci_high
        assert counts.tolist() == [self.SAMPLE.exceedances(float(x)) for x in self.XS]
        assert tail is p
        assert np.array_equal(low, np.clip(p - 1.959963984540054 * se, 0.0, 1.0))
        assert np.array_equal(high, np.clip(p + 1.959963984540054 * se, 0.0, 1.0))
        assert low[4] == 0.0 and high[3] == low[3] == p[3]

    def test_without_a_denominator_the_ratio_and_band_are_the_tails_bits(self):
        n = self.SAMPLE.n
        counts = self.SAMPLE.exceedances(self.XS)
        wilson = np.array([wilson_interval(int(c), n) for c in counts]).T
        clipped = np.clip(self.P - _Z95 * self.SE, 0.0, 1.0), np.clip(self.P + _Z95 * self.SE, 0.0, 1.0)
        for estimate, band in ((None, wilson), ((self.P, self.SE), clipped)):
            t = tail_table(self.SAMPLE, self.XS, 50, estimate)
            assert t.denominator.tolist() == [1.0] * self.XS.size
            assert t.ratio.tobytes() == t.empirical.tobytes()
            assert t.ci_low.tobytes() == band[0].tobytes()
            assert t.ci_high.tobytes() == band[1].tobytes()

    def test_a_denominator_divides_the_tail_and_its_band(self):
        denom = np.array([0.9, 0.5, 0.3, 0.1, 0.01, 1e-9])
        plain = tail_table(self.SAMPLE, self.XS, 50)
        t = tail_table(self.SAMPLE, self.XS, 50, denominator=denom)
        assert np.array_equal(t.ratio, plain.empirical / denom)
        assert np.array_equal(t.ci_low, plain.ci_low / denom)
        assert np.array_equal(t.ci_high, plain.ci_high / denom)

    def test_sup_covers_the_certified_points_only(self):
        counts = self.SAMPLE.exceedances(self.XS)
        # the uncertified points' ratios are far off 1, so a sup over them would show
        denom = np.array([0.9, 0.5, 0.3, 0.1, 1e-12, 1e-12])
        for least in (1, 50, int(counts[1]), int(counts[0])):
            t = tail_table(self.SAMPLE, self.XS, least, denominator=denom)
            assert t.certified.tolist() == [int(c) >= least for c in counts]
            want = max(abs(r - 1.0) for r, ok in zip(t.ratio, t.certified) if ok)
            assert t.sup_abs_dev == want
        # no point certified: no sup
        assert math.isnan(tail_table(self.SAMPLE, self.XS, self.SAMPLE.n + 1, denominator=denom).sup_abs_dev)


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

    def test_exceedances_nonincreasing_and_provenance(self):
        curve = ratio_curve(
            TailSample.from_values(pareto_values(2, 100_000)),
            JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 0.0),
            "max",
            QuantileGrid(levels=(0.9, 0.99, 0.999)),
        )
        assert np.all(np.diff(curve.exceedances) <= 0)
        assert curve.provenance == "denominator=renewal-max joint=closed"


# the independent-mark regimes of the conditional cluster-max test, each with its exact law
CLUSTER_MAX_MODELS = {
    "light-count": (
        JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, LAW, 2.0),
        RenewalParams(Exponential(1.0)),
        renewal_cluster_max_tail,
    ),
    "heavy-count": (
        JointMarkModel(Regime.INDEPENDENT_HEAVY_COUNT, Exponential(1.0), ParetoLaw(1.0, 1.5)),
        RenewalParams(Exponential(1.0)),
        renewal_cluster_max_tail,
    ),
    "hawkes-light": (
        JointMarkModel(
            Regime.HAWKES_LIGHT_INTENSITY, LAW, BoundedUniform(0.0, 1.0), target_mean_kappa=0.5
        ),
        HawkesParams(),
        hawkes_cluster_max_tail,
    ),
}


class TestConditionalMaxTail:
    def test_groups_by_count_exactly(self):
        # the tally by bincount and by unique give the same terms as a plain mean
        counts = np.array([0, 3, 1, 3, 2, 0, 7, 3])
        survival = np.array([1.0, 0.5, 0.01, 0.0])
        mean, se = conditional_max_tail(_distinct_counts(counts), survival)
        terms = np.where(counts > 0, 1.0 - (1.0 - survival[:, None]) ** counts, 0.0)
        assert np.allclose(mean, terms.mean(axis=1), rtol=1e-14, atol=0)
        se_direct = terms.std(axis=1, ddof=1) / math.sqrt(counts.size)
        assert np.allclose(se, se_direct, rtol=1e-12, atol=0)
        # one count above the array's length: the tally falls back on np.unique
        wide = np.append(counts, 100)
        assert np.allclose(
            conditional_max_tail(_distinct_counts(wide), survival)[0],
            np.where(wide > 0, 1.0 - (1.0 - survival[:, None]) ** wide, 0.0).mean(axis=1),
            rtol=1e-14,
            atol=0,
        )

    @pytest.mark.parametrize("name", sorted(CLUSTER_MAX_MODELS))
    def test_agrees_with_the_exact_law_and_the_crude_band(self, name):
        model, params, exact_law = CLUSTER_MAX_MODELS[name]
        n, grid = 600_000, QuantileGrid()
        sample = batch_functionals(model, params, n, RngStream(44, 0), fields=("h", "sizes"))
        h = TailSample.from_values(sample.h)
        xs = h.quantile(list(grid.levels))
        survival = np.asarray(model.mark_law.survival(xs))
        tail, se = conditional_max_tail(_distinct_counts(sample.sizes), survival)
        counts = h.exceedances(xs)
        assert counts[-1] >= grid.min_exceedances  # every point is certified
        for x, p, s, count in zip(xs, tail, se, counts):
            exact = exact_law(model, float(x))
            assert abs(p - exact) <= 4 * s, (x, p, s, exact)
            # the crude band at z = 4, so that fifteen checks do not fail by chance
            low, high = wilson_interval(int(count), n, z=4.0)
            assert low <= p <= high, (x, p, low, high)
        crude_rel_var = (1.0 - counts[-1] / n) / counts[-1]
        assert (se[-1] / tail[-1]) ** 2 * 100 <= crude_rel_var

    @pytest.mark.parametrize("name", sorted(CLUSTER_MAX_MODELS))
    def test_cluster_max_helper_is_the_conditional_estimate_of_ratio_curve(self, name):
        # the one conditional cluster max: the sizes' conditional estimate with
        # size_control's moments, bit for bit the tail and band of ratio_curve
        model, params, _ = CLUSTER_MAX_MODELS[name]
        grid = QuantileGrid(levels=(0.9, 0.99))
        sample = batch_functionals(model, params, 50_000, RngStream(48, 0), fields=("h", "sizes"))
        h, sizes = TailSample.from_values(sample.h), _distinct_counts(sample.sizes)
        xs = h.quantile(list(grid.levels))
        survival = np.asarray(model.mark_law.survival(xs))
        want, want_se = conditional_max_tail(sizes, survival, *size_control(model))
        tail, se = cluster_max_tail(model, sizes, xs)
        assert tail.tobytes() == want.tobytes() and se.tobytes() == want_se.tobytes()
        curve = ratio_curve(h, model, "max", grid, size_tally=sizes)
        assert curve.empirical.tobytes() == want.tobytes()
        low, high = np.clip(want - _Z95 * want_se, 0.0, 1.0), np.clip(want + _Z95 * want_se, 0.0, 1.0)
        assert curve.ci_low.tobytes() == (low / curve.denominator).tobytes()
        assert curve.ci_high.tobytes() == (high / curve.denominator).tobytes()

    def test_ratio_curve_reads_the_sizes(self):
        model, params, _ = CLUSTER_MAX_MODELS["light-count"]
        sample = batch_functionals(model, params, 100_000, RngStream(45, 0), fields=("h", "sizes"))
        grid = QuantileGrid(levels=(0.9, 0.99))
        h = TailSample.from_values(sample.h)
        crude = ratio_curve(h, model, "max", grid)
        sizes = _distinct_counts(sample.sizes)
        curve = ratio_curve(h, model, "max", grid, size_tally=sizes)
        # the exact mean size 1 + E[K] = 3 and variance Var K = 2 of a Poisson(2) count are its controls
        tail, _ = conditional_max_tail(sizes, np.asarray(LAW.survival(curve.grid)), 3.0, 2.0)
        assert np.array_equal(curve.grid, crude.grid)
        assert np.array_equal(curve.exceedances, crude.exceedances)
        assert np.array_equal(curve.empirical, tail)
        assert curve.provenance == crude.provenance + " estimator=conditional"
        with pytest.raises(ValueError, match="independent"):
            ratio_curve(h, model, "sum", grid, size_tally=sizes)
        comonotone = JointMarkModel(Regime.COMONOTONE_COUNT, LAW)
        with pytest.raises(ValueError, match="independent"):
            ratio_curve(h, comonotone, "max", grid, size_tally=sizes)
        with pytest.raises(ValueError, match="sizes"):
            ratio_curve(h, model, "max", grid, size_tally=_distinct_counts(sample.sizes[1:]))


class TestCountControl:
    """The count minus its exact mean as control variate of the conditional max."""

    @settings(deadline=None)
    @given(
        counts=st.lists(st.integers(0, 300), min_size=2, max_size=60),
        survival=st.lists(
            st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)), min_size=1, max_size=8
        ),
    )
    def test_without_a_mean_the_estimate_is_unchanged(self, counts, survival):
        counts, survival = np.array(counts), np.array(survival)
        mean, se = conditional_max_tail(_distinct_counts(counts), survival)
        plain_mean, plain_se = plain_conditional_max_tail(counts, survival)
        assert np.array_equal(mean, plain_mean) and np.array_equal(se, plain_se)

    def test_terms_are_the_tangent_corrected_ones(self):
        counts = np.array([0, 3, 1, 3, 2, 0, 7, 3])
        survival = np.array([0.5, 0.01, 1e-6])
        mu = 2.5
        log_f = np.log1p(-survival)[:, None]
        terms = -np.expm1(counts * log_f) + log_f * np.exp(mu * log_f) * (counts - mu)
        mean, se = conditional_max_tail(_distinct_counts(counts), survival, mu)
        assert np.allclose(mean, terms.mean(axis=1), rtol=1e-12, atol=0)
        assert np.allclose(se, terms.std(axis=1, ddof=1) / math.sqrt(counts.size), rtol=1e-9, atol=0)

    def test_terms_with_the_quadratic_control(self):
        counts = np.array([0, 3, 1, 3, 2, 0, 7, 3])
        survival = np.array([0.5, 0.01, 1e-6])
        mu, var = 2.5, 4.0
        a = -np.log1p(-survival)[:, None]
        f_mu = np.exp(-mu * a)
        terms = -np.expm1(-counts * a) - a * f_mu * (counts - mu)
        terms += 0.5 * a**2 * f_mu * ((counts - mu) ** 2 - var)
        mean, se = conditional_max_tail(_distinct_counts(counts), survival, mu, var)
        assert np.allclose(mean, terms.mean(axis=1), rtol=1e-12, atol=0)
        assert np.allclose(se, terms.std(axis=1, ddof=1) / math.sqrt(counts.size), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("control", [(), (1.5,), (1.5, 2.0)], ids=["plain", "linear", "quadratic"])
    def test_edges_emit_no_warning(self, control):
        # F(x) = 0 (sf 1), F(x) = 1 (sf 0) and replications with no mark
        counts = np.array([0, 0, 4, 1, 0, 2])
        survival = np.array([1.0, 0.0, 0.3])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mean, se = conditional_max_tail(_distinct_counts(counts), survival, *control)
            no_marks = _distinct_counts(np.zeros(5, dtype=np.int64))
            zeros, zeros_se = conditional_max_tail(no_marks, survival, *control)
        # every beta = 0 where F(x) = 0: the fraction with a mark; where F(x) = 1 nothing exceeds x
        assert mean[0] == 0.5 and mean[1] == 0.0 and se[1] == 0.0
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(se))
        # N = 0 everywhere: each replication is 0 - beta1 (0 - mu) + beta2 (mu**2 - var), a constant
        a = -math.log1p(-0.3)
        beta1 = a * 0.7**1.5
        want = {(): 0.0, (1.5,): beta1 * 1.5, (1.5, 2.0): beta1 * 1.5 + 0.5 * a * beta1 * (1.5**2 - 2.0)}
        assert zeros[2] == pytest.approx(want[control], rel=1e-14, abs=0) and zeros_se[2] == 0.0
        assert np.array_equal(zeros[:2], [0.0, 0.0])

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(
        counts=st.lists(st.integers(0, 3000), min_size=2, max_size=400),
        survival=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
        control=st.sampled_from([(), (7.0,), (7.0, 30.0)]),
    )
    def test_a_point_is_reduced_on_its_own(self, counts, survival, control):
        # a point's estimate and SE have the same bits alone as inside a grid of up to twelve
        counts, survival = np.array(counts), np.array(survival)
        grid = conditional_max_tail(_distinct_counts(counts), survival, *control)
        for i in range(survival.size):
            alone = conditional_max_tail(_distinct_counts(counts), survival[i : i + 1], *control)
            assert grid[0][i].tobytes() == alone[0][0].tobytes()
            assert grid[1][i].tobytes() == alone[1][0].tobytes()

    def test_fewer_than_two_replications_raise(self):
        # one replication has no standard error: refused, not nan after a RuntimeWarning
        for counts in (np.array([3]), np.array([], dtype=np.int64)):
            with pytest.raises(ValueError, match="two replications"):
                conditional_max_tail(_distinct_counts(counts), np.array([0.5]))

    def test_size_control_follows_the_order(self):
        for name, (model, _, _) in CLUSTER_MAX_MODELS.items():
            constants = model_constants(model)
            want = (constants.mean_cluster_size, constants.cluster_size_variance)
            assert size_control(model) == (() if name == "heavy-count" else want), name
        square_integrable = JointMarkModel(Regime.INDEPENDENT_HEAVY_COUNT, LAW, ParetoLaw(1.0, 2.5))
        assert size_control(square_integrable) == (model_constants(square_integrable).mean_cluster_size,)
        assert size_control(JointMarkModel(Regime.COMONOTONE_COUNT, ParetoLaw(1.0, 5.0))) == ()

    @pytest.mark.parametrize("name", ["light-count", "hawkes-light"])
    def test_the_controls_have_mean_zero_under_the_exact_size_law(self, name):
        # the estimate is unbiased where both controls have mean 0, that is where
        # size_control gives the size law's exact mean and variance: here against
        # the law's pmf, 1 + Poisson(2) or the Hawkes total progeny by Dwass's formula
        model, _, exact_law = CLUSTER_MAX_MODELS[name]
        k = np.arange(600)
        pmf = poisson.pmf(k - 1, 2.0) if name == "light-count" else hawkes_cluster_size_pmf(model, k.size)
        mu, var = size_control(model)
        assert pmf @ k == pytest.approx(mu, rel=1e-13, abs=0)
        assert pmf @ (k - mu) ** 2 == pytest.approx(var, rel=1e-12, abs=0)
        # and the pmf is the law the reference's max tail is read from; the Hawkes
        # fixed point forms 1 - F E[...] and so loses about 1e-16 / P(H > x) of itself
        for x in (30.0, 300.0, 3000.0):
            g = -np.expm1(k * math.log1p(-float(LAW.survival(x))))
            assert pmf @ g == pytest.approx(exact_law(model, x), rel=1e-10, abs=0)

    # criterion 1's model and criterion 3's, on the criteria's quantile grid
    @pytest.mark.parametrize("name", ["light-count", "hawkes-light"])
    def test_within_its_band_of_the_exact_law(self, name):
        model, params, exact_law = CLUSTER_MAX_MODELS[name]
        n, grid = 600_000, QuantileGrid()
        sample = batch_functionals(model, params, n, RngStream(47, 0), fields=("h", "sizes"))
        xs = TailSample.from_values(sample.h).quantile(list(grid.levels))
        survival = np.asarray(model.mark_law.survival(xs))
        tail, se = conditional_max_tail(_distinct_counts(sample.sizes), survival, *size_control(model))
        sizes = _distinct_counts(sample.sizes)
        _, linear_se = conditional_max_tail(sizes, survival, size_control(model)[0])
        _, plain_se = conditional_max_tail(sizes, survival)
        for x, p, s in zip(xs, tail, se):
            exact = exact_law(model, float(x))
            assert abs(p - exact) <= _Z95 * s, (x, p, s, exact)
        # at least a thousandfold variance cut on every point of the grid, a
        # hundredfold of it by the quadratic term
        assert np.all((se / plain_se) ** 2 <= 1e-3), se / plain_se
        assert np.all((se / linear_se) ** 2 <= 1e-2), se / linear_se


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


    S_GRID = [0.0, *np.geomspace(1e-3, 10.0, 7).tolist(), 3]

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_one_block_equals_the_expression_bit_for_bit(self, order):
        # the buffers reused over the grid do the same IEEE operations on the
        # same operands as the one-expression reference
        sample = TailSample.from_values(pareto_values(7, estimate._LAPLACE_BLOCK))
        got = laplace_derivative_table(sample, self.S_GRID, order)
        expected = reference_laplace_table(sample.values, self.S_GRID, order)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_blocks_match_the_whole_array_formula(self, order):
        # four whole blocks and a short one, merged by Chan, Golub & LeVeque
        sample = TailSample.from_values(pareto_values(7, 4 * estimate._LAPLACE_BLOCK + 3))
        got = laplace_derivative_table(sample, self.S_GRID, order)
        expected = reference_laplace_table(sample.values, self.S_GRID, order)
        for a, b in zip(got, expected):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)

    def test_peak_is_two_blocks(self):
        # two 512 KiB buffers, not two copies of the sample's 16 MiB
        sample = TailSample.from_values(pareto_values(8, 1 << 21))
        tracemalloc.start()
        try:
            laplace_derivative_table(sample, np.geomspace(1e-3, 0.1, 9), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << 20


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

    @pytest.mark.parametrize("vals, ses", [([1.0, math.nan], [0.1, 0.1]), ([1.0, 0.5], [math.nan, 0.1])])
    def test_non_finite_table_rejected(self, vals, ses):
        # a NaN relative error is not above 25%, so it used to pass the check
        with pytest.raises(UnstableEstimate):
            table_slope([1e-3, 1e-2], np.array(vals), np.array(ses))

    def test_unstable_estimate(self):
        sample = TailSample.from_values([1.0] * 99 + [1e6])
        s_grid = [1e-6, 1e-5]
        with pytest.raises(UnstableEstimate):
            table_slope(s_grid, *laplace_derivative_table(sample, s_grid, 2))
