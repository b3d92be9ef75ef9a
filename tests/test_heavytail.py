"""Tests for mark laws, joint models, constants, and tail denominators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cluster_tails import clusters, heavytail
from cluster_tails.clusters import RenewalParams, batch_functionals
from cluster_tails.errors import InfiniteMean, ModelError, SupercriticalModel
from cluster_tails.heavytail import (
    BoundedUniform,
    Exponential,
    JointMarkModel,
    OracleSpec,
    ParetoLaw,
    Regime,
    _poisson_counts,
    _poisson_pmf,
    _poisson_sf,
    _poisson_table,
    count_survival,
    denominator_label,
    joint_tail_exact,
    joint_tail_mc,
    model_constants,
    sample_joint,
    theoretical_denominator,
)
from cluster_tails.rng import RngStream

LAW = ParetoLaw(1.0, 1.5)


def light_count(mean=2.0, mark=LAW):
    return JointMarkModel(Regime.INDEPENDENT_LIGHT_COUNT, mark, mean)


def heavy_count():
    return JointMarkModel(
        Regime.INDEPENDENT_HEAVY_COUNT, Exponential(1.0), ParetoLaw(1.0, 1.5)
    )


def tail_equivalent():
    return JointMarkModel(
        Regime.INDEPENDENT_TAIL_EQUIVALENT, LAW, ParetoLaw(1.0, 1.5)
    )


def comonotone():
    return JointMarkModel(Regime.COMONOTONE_COUNT, LAW)


def hawkes_light(kappa=0.5, base=BoundedUniform(0.0, 1.0)):
    return JointMarkModel(
        Regime.HAWKES_LIGHT_INTENSITY, LAW, base, target_mean_kappa=kappa
    )


def hawkes_comonotone(kappa=0.5):
    return JointMarkModel(
        Regime.HAWKES_COMONOTONE_INTENSITY, LAW, target_mean_kappa=kappa
    )


ALL_MODELS = {
    "light_count": light_count(),
    "heavy_count": heavy_count(),
    "tail_equivalent": tail_equivalent(),
    "comonotone": comonotone(),
    "hawkes_light": hawkes_light(),
    "hawkes_comonotone": hawkes_comonotone(),
}


class TestParetoSurvival:
    def test_closed_form(self):
        assert LAW.survival(2.0) == pytest.approx(2.0 ** -1.5)

    def test_boundary(self):
        assert LAW.survival(1.0) == 1.0

    def test_below_scale(self):
        assert LAW.survival(0.5) == 1.0

    @given(
        scale=st.floats(0.1, 10),
        alpha=st.floats(0.2, 5),
        x1=st.floats(0.01, 1000),
        x2=st.floats(0.01, 1000),
    )
    def test_nonincreasing(self, scale, alpha, x1, x2):
        law = ParetoLaw(scale, alpha)
        lo, hi = min(x1, x2), max(x1, x2)
        assert law.survival(lo) >= law.survival(hi)
        assert 0.0 <= law.survival(hi) <= 1.0
        assert law.survival(scale) == 1.0


class TestSamplePareto:
    def test_support_and_median(self):
        s = LAW.sample(RngStream(42, 0).generator, 1_000_000)
        assert s.min() >= LAW.scale
        assert np.median(s) == pytest.approx(2 ** (2 / 3), rel=0.01)

    def test_hill_crosscheck(self):
        from cluster_tails.estimate import TailSample, hill_estimator

        s = LAW.sample(RngStream(7, 0).generator, 1_000_000)
        est = hill_estimator(TailSample.from_values(s), 1000)
        assert est.alpha_hat == pytest.approx(1.5, abs=0.15)

    def test_reproducible(self):
        a = LAW.sample(RngStream(5, 3).generator, 1000)
        b = LAW.sample(RngStream(5, 3).generator, 1000)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
    @pytest.mark.parametrize("size", [1000, (40, 25), 0])
    def test_array_draws_are_the_inverse_cdf(self, size, alpha):
        law = ParetoLaw(2.0, alpha)
        u = np.random.default_rng(3).random(size)
        got = law.sample(np.random.default_rng(3), size)
        assert np.array_equal(got, 2.0 * (1 - u) ** (-1 / alpha))
        assert got.shape == np.shape(u)

    def test_scalar_draw_is_a_float(self):
        u = np.random.default_rng(3).random()
        got = LAW.sample(np.random.default_rng(3))
        assert type(got) is float
        assert got == LAW.scale * (1 - u) ** (-1 / LAW.alpha)


class TestSampleJoint:
    def test_comonotone_construction(self):
        x, k = sample_joint(comonotone(), RngStream(1, 0), 100_000)
        assert np.array_equal(k, np.ceil(x).astype(np.int64))
        assert np.all(k >= x)

    def test_independent_corr(self):
        x, k = sample_joint(light_count(), RngStream(2, 0), 1_000_000)
        assert abs(np.corrcoef(x, k)[0, 1]) < 0.005

    def test_hawkes_comonotone_mean_kappa(self):
        # kappa = X * 0.5 / 3 = X / 6
        x, kappa = sample_joint(hawkes_comonotone(0.5), RngStream(1, 0), 1_000_000)
        assert np.allclose(kappa, x / 6.0)
        assert kappa.mean() == pytest.approx(0.5, rel=0.01)

    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_mark_marginal_ks(self, name):
        model = ALL_MODELS[name]
        x, _ = sample_joint(model, RngStream(11, 0), 1_000_000)
        s = np.sort(x)
        n = len(s)
        cdf = 1.0 - np.asarray(model.mark_law.survival(s))
        ks = max(
            float(np.max(cdf - np.arange(n) / n)),
            float(np.max((np.arange(1, n + 1) / n) - cdf)),
        )
        assert ks < 0.003

    def test_scalar_draws(self):
        x, k = sample_joint(light_count(), RngStream(4, 0))
        assert isinstance(x, float) and isinstance(k, int)


class TestModelConstants:
    def test_light_count_example(self):
        c = model_constants(light_count())
        assert c.mean_mark == pytest.approx(3.0)
        assert c.mean_count == pytest.approx(2.0)
        assert c.mean_cluster_size == pytest.approx(3.0)
        assert c.sum_shift_hawkes is None

    def test_hawkes_max_constant(self):
        c = model_constants(hawkes_light(0.45))
        assert c.mean_cluster_size == pytest.approx(1 / 0.55)

    def test_hawkes_sum_shift(self):
        c = model_constants(hawkes_comonotone(0.5))
        assert c.sum_shift_hawkes == pytest.approx(6.0)

    def test_identity_exact(self):
        for kappa in (0.3, 0.5, 0.8, 0.95):
            c = model_constants(hawkes_light(kappa))
            assert c.mean_cluster_size * (1.0 - c.mean_count) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_supercritical_rejected(self):
        with pytest.raises(SupercriticalModel):
            model_constants(hawkes_light(1.2))

    def test_infinite_mean_rejected(self):
        with pytest.raises(InfiniteMean):
            model_constants(light_count(mark=ParetoLaw(1.0, 0.9)))

    def test_ceil_pareto_count_mean(self):
        # E[ceil Z] = 1 + zeta(3/2) for Z ~ Pareto(1, 1.5)
        from scipy.special import zeta

        c = model_constants(heavy_count())
        assert c.mean_count == pytest.approx(2.0 + (zeta(1.5, 2.0)), rel=1e-12)


class TestTheoreticalDenominator:
    def test_renewal_max_example(self):
        v = theoretical_denominator(light_count(), "max", 10.0)
        assert v == pytest.approx(3 * 10 ** -1.5)

    def test_hawkes_max_example(self):
        v = theoretical_denominator(hawkes_light(0.5), "max", 10.0)
        assert v == pytest.approx(2 * 10 ** -1.5)

    def test_hawkes_sum_comonotone_example(self):
        # kappa = X/6, shift c = 6, so X + c*kappa = 2X
        v = theoretical_denominator(hawkes_comonotone(0.5), "sum", 10.0)
        assert v == pytest.approx(2 * 5 ** -1.5)

    def test_max_ratio_constant_in_x(self):
        xs = np.geomspace(2, 500, 7)
        for model, constant in [
            (light_count(), 3.0),
            (tail_equivalent(), 1.0 + model_constants(tail_equivalent()).mean_count),
            (comonotone(), 1.0 + model_constants(comonotone()).mean_count),
        ]:
            ratio = theoretical_denominator(model, "max", xs) / model.mark_law.survival(xs)
            assert np.allclose(ratio, constant)

    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_nonincreasing_in_x(self, name):
        model = ALL_MODELS[name]
        xs = np.geomspace(0.5, 2000, 40)
        for functional in ("max", "sum"):
            vals = np.asarray(theoretical_denominator(model, functional, xs))
            assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("functional", ["mean", "renewal-max", "hawkes-sum"])
    def test_unknown_functional_rejected(self, functional):
        with pytest.raises(ModelError) as excinfo:
            theoretical_denominator(light_count(), functional, 5.0)
        assert excinfo.value.field == "functional"

    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_label_names_the_family(self, name):
        model = ALL_MODELS[name]
        family = "hawkes" if model.is_hawkes else "renewal"
        assert denominator_label(model, "max") == f"{family}-max"
        assert denominator_label(model, "sum") == f"{family}-sum"


class TestJointTailExact:
    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_against_monte_carlo(self, name):
        model = ALL_MODELS[name]
        consts = model_constants(model)
        c = (
            consts.sum_shift_hawkes
            if model.is_hawkes
            else consts.mean_mark
        )
        x, count = sample_joint(model, RngStream(99, 1), 1_000_000)
        total = x + c * np.asarray(count, dtype=float)
        xs = np.quantile(total, [0.5, 0.9, 0.99, 0.999])
        exact = np.asarray(joint_tail_exact(model, c, xs))
        emp = np.array([(total > xi).mean() for xi in xs])
        se = np.sqrt(emp * (1 - emp) / len(total))
        assert np.all(np.abs(emp - exact) < 5 * se + 1e-4)

    def test_count_survival_heavy(self):
        m = heavy_count()
        # ceil(Z) > x iff Z > floor(x)
        assert count_survival(m, 10.0) == pytest.approx(10 ** -1.5)
        assert count_survival(m, 10.7) == pytest.approx(10 ** -1.5)
        assert count_survival(m, 1.0) == 1.0


class TestPoissonTerms:
    """The scipy.special Poisson terms equal scipy.stats.poisson bit for bit."""

    KS = np.arange(-3, 401)
    XS = np.concatenate([KS, KS + 0.5, KS - 0.25])

    @pytest.mark.parametrize("mu", [0.0, 1e-3, 0.5, 2.0, 30.0, 200.0])
    def test_arrays(self, mu):
        assert np.array_equal(_poisson_pmf(self.KS, mu), stats.poisson.pmf(self.KS, mu))
        assert np.array_equal(_poisson_sf(self.XS, mu), stats.poisson.sf(self.XS, mu))

    @pytest.mark.parametrize("mu", [0.0, 1e-3, 0.5, 2.0, 30.0, 200.0])
    def test_scalars(self, mu):
        for k in self.KS.tolist():
            assert _poisson_pmf(k, mu) == stats.poisson.pmf(k, mu)
        for x in self.XS.tolist():
            assert _poisson_sf(x, mu) == stats.poisson.sf(x, mu)
        assert np.ndim(_poisson_pmf(3, mu)) == np.ndim(_poisson_sf(2.5, mu)) == 0


class _FixedUniforms:
    """A generator stand-in whose ``random`` returns given uniforms, in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.used = 0

    def random(self, size, out):
        out[:] = self.u[self.used : self.used + size]
        self.used += size
        return out


class TestPoissonCounts:
    """The inversion sampler of the IndependentLightCount counts."""

    @pytest.mark.parametrize("mu", [0.3, 2.0, 50.0])
    def test_equals_searchsorted_on_the_same_uniforms(self, mu):
        cdf, guide = _poisson_table(mu)
        n = 1 << 20
        k = _poisson_counts(np.random.Generator(np.random.PCG64DXSM(3)), mu, n)
        u = np.random.Generator(np.random.PCG64DXSM(3)).random(n)
        assert np.array_equal(k, np.searchsorted(cdf, u, side="right"))
        # the cdf's jumps, their neighbours and the guide cells' edges
        edges = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.arange(1 << 12) / (1 << 12)])
        edges = np.concatenate([[0.0, np.nextafter(1.0, 0.0)], edges[edges < 1.0]])
        edges = np.tile(edges, 20)  # over several blocks, the last one short
        k = _poisson_counts(_FixedUniforms(edges), mu, edges.size)
        assert np.array_equal(k, np.searchsorted(cdf, edges, side="right"))
        assert cdf[-1] == 1.0 and len(cdf) <= 1 << 10 and len(guide) == 1 << 12

    @pytest.mark.parametrize("mu", [0.3, 2.0, 50.0])
    def test_chi_square_against_pmf(self, mu):
        n = 1 << 20
        k = _poisson_counts(np.random.Generator(np.random.PCG64DXSM(8)), mu, n)
        expected = n * _poisson_pmf(np.arange(k.max() + 1), mu)
        # cells with at least 5 expected draws; the rest are lumped into the two ends
        keep = np.flatnonzero(expected >= 5)
        lo, hi = keep[0], keep[-1]
        observed = np.bincount(k, minlength=expected.size).astype(float)
        obs = np.concatenate(
            [[observed[: lo + 1].sum()], observed[lo + 1 : hi], [observed[hi:].sum()]]
        )
        exp = np.concatenate(
            [[expected[: lo + 1].sum()], expected[lo + 1 : hi], [n - expected[:hi].sum()]]
        )
        assert stats.chisquare(obs, exp).pvalue > 1e-3

    def test_mean_zero_gives_zeros(self):
        gen = np.random.Generator(np.random.PCG64DXSM(1))
        assert not _poisson_counts(gen, 0.0, 10_000).any()
        assert _poisson_counts(gen, 0.0) == 0

    @pytest.mark.parametrize("mu", [0.0, 2.0, 5000.0])
    def test_scalar_is_an_int(self, mu):
        k = _poisson_counts(np.random.Generator(np.random.PCG64DXSM(1)), mu)
        assert isinstance(k, int)

    def test_long_table_falls_back_to_numpy(self):
        assert _poisson_table(5000.0) is None
        k = _poisson_counts(np.random.Generator(np.random.PCG64DXSM(4)), 5000.0, 1000)
        want = np.random.Generator(np.random.PCG64DXSM(4)).poisson(5000.0, 1000)
        assert np.array_equal(k, want)


class TestOracleCache:
    def test_cache_round_trip(self):
        model = tail_equivalent()
        spec = OracleSpec(size=200_000, seed=9)
        xs = np.array([5.0, 20.0, 80.0])
        probs = joint_tail_mc(model, 3.0, xs, spec)
        assert np.array_equal(probs, joint_tail_mc(model, 3.0, xs, spec))
        exact = np.asarray(joint_tail_exact(model, 3.0, xs))
        assert np.all(np.abs(probs - exact) < 6 * np.sqrt(exact / spec.size) + 1e-4)

    def test_shares_no_draws_with_the_experiment(self, monkeypatch):
        # at equal seeds (0 is the default oracle seed) the oracle's chunk 0
        # and a batch run's chunk 0 draw from different streams
        model, seen = tail_equivalent(), []

        def recording(model, rng, size=None):
            pair = sample_joint(model, rng, size)
            seen.append(np.array(pair.x))
            return pair

        monkeypatch.setattr(heavytail, "sample_joint", recording)
        monkeypatch.setattr(clusters, "sample_joint", recording)
        joint_tail_mc(model, 3.0, 5.0, OracleSpec(size=4096, seed=0))
        batch_functionals(model, RenewalParams(Exponential(1.0)), 4096, RngStream(0, 0))
        oracle_x, experiment_x = seen
        assert oracle_x.size == experiment_x.size == 4096
        assert np.intersect1d(oracle_x, experiment_x).size == 0


class TestRngStream:
    def test_bit_identical(self):
        a = RngStream(123, 5).generator.random(64)
        b = RngStream(123, 5).generator.random(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 5).generator.random(64)
        b = RngStream(123, 6).generator.random(64)
        assert not np.array_equal(a, b)

    def test_child_layout(self):
        base = RngStream(9, 3)
        c0 = base.child(0)
        c1 = base.child(1)
        assert (base.spawn_key, c0.spawn_key, c1.spawn_key) == ((3,), (3, 0), (3, 1))
        with pytest.raises(ValueError):
            c0.child(0)  # no double nesting

    def test_children_do_not_alias_roots(self):
        # root 0 is the one every experiment runs on
        root = RngStream(9, 0)
        draws = [s.generator.random(64) for s in (root, root.child(0), root.child(5), RngStream(9, 5))]
        for i, a in enumerate(draws):
            for b in draws[i + 1 :]:
                assert not np.array_equal(a, b)

    def test_children_of_root_zero_have_no_children(self):
        with pytest.raises(ValueError):
            RngStream(9, 0).child(0).child(0)

    def test_ids_fit_one_key_word(self):
        # a larger id would be split into two words, the key of a child
        with pytest.raises(ValueError):
            RngStream(9, 2**32)
        with pytest.raises(ValueError):
            RngStream(9, 0).child(2**32)

    @settings(max_examples=20)
    @given(seed=st.integers(0, 2**64 - 1), sid=st.integers(0, 2**32 - 1))
    def test_any_seed_valid(self, seed, sid):
        s = RngStream(seed, sid)
        assert s.generator.random() >= 0.0
