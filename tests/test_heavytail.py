"""Tests for mark laws, joint models, constants, and tail denominators."""

import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from cluster_tails import clusters, heavytail
from cluster_tails.clusters import HawkesParams, RenewalParams, batch_functionals
from cluster_tails.errors import InfiniteMean, ModelError, SupercriticalModel
from cluster_tails.heavytail import (
    BoundedUniform,
    Constant,
    Exponential,
    JointMarkModel,
    ParetoLaw,
    Regime,
    _hurwitz_zeta,
    _mixed_poisson_short,
    _mixed_poisson_table,
    _poisson_counts,
    _poisson_pmf,
    _poisson_sf,
    _poisson_table,
    count_survival,
    denominator_label,
    joint_tail_exact,
    model_constants,
    sample_joint,
    theoretical_denominator,
)
from cluster_tails.rng import RngStream
import reference
from reference import (
    OracleSpec,
    comonotone_count_joint_tail,
    independent_count_joint_tail,
    joint_tail_mc,
    sample_variance_z,
)

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


class TestSampleUniform:
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.25, 1.5), (3.7, 1000.0)])
    @pytest.mark.parametrize("size", [100_000, (40, 25), 0, None])
    def test_draws_are_numpys_uniform(self, lo, hi, size):
        # the in-place lo + (hi - lo) * U is numpy's own, bit for bit
        got = BoundedUniform(lo, hi).sample(np.random.default_rng(4), size)
        want = np.random.default_rng(4).uniform(lo, hi, size)
        assert type(got) is type(want)
        assert np.array_equal(got, want) and np.shape(got) == np.shape(want)


MARK_LAWS = {
    "pareto": LAW,
    "exponential": Exponential(2.0),
    "constant": Constant(1.5),
    "uniform": BoundedUniform(0.5, 2.0),
}


def generator(seed):
    return np.random.Generator(np.random.PCG64DXSM(seed))


class _ZeroUniforms:
    """A generator stand-in whose ``random`` returns zeros: the log(0) path of the max samplers."""

    def random(self, shape):
        return np.zeros(shape)


class TestMaxSampler:
    """The max-of-c samplers of the mark laws against the max of c direct draws."""

    N = 500

    @pytest.mark.parametrize("c", [1, 7, 10**4])
    @pytest.mark.parametrize("name", sorted(MARK_LAWS))
    def test_matches_max_of_direct_draws(self, name, c):
        law = MARK_LAWS[name]
        got = law.sample_max(generator(1), np.full(self.N, c))
        gen = generator(2)
        direct = np.array([law.sample(gen, c).max() for _ in range(self.N)])
        if isinstance(law, Constant):
            assert np.all(got == law.value) and np.all(direct == law.value)
        else:
            assert stats.ks_2samp(got, direct).pvalue > 1e-3

    @pytest.mark.parametrize("name", sorted(MARK_LAWS))
    def test_zero_count_gives_zero_and_huge_counts_stay_finite(self, name):
        law = MARK_LAWS[name]
        counts = np.array([0, 1, 0, 2**62, 10**18, 0])
        got = law.sample_max(generator(3), counts)
        assert np.all(got[counts == 0] == 0.0)
        assert np.all(np.isfinite(got))
        assert np.all(got[counts > 0] >= law.support_min)

    @pytest.mark.parametrize("name", sorted(MARK_LAWS))
    def test_zero_uniforms_and_zero_counts_warn_nothing(self, name):
        law = MARK_LAWS[name]
        counts = np.array([[0, 0, 3], [0, 5, 9]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = law.sample_running_max(_ZeroUniforms(), counts)
            law.sample_running_max(generator(4), counts)
        assert np.all(got[counts == 0] == 0.0)
        assert np.all(np.isfinite(got))

    def test_one_draw_is_the_inverse_cdf(self):
        # c = 1: the survival -expm1(log U) is 1 - U up to rounding
        u = generator(5).random(1000)
        got = LAW.sample_max(generator(5), np.ones(1000, dtype=np.int64))
        np.testing.assert_allclose(got, LAW.scale * (1 - u) ** (-1 / LAW.alpha), rtol=1e-9)

    @pytest.mark.parametrize("name", ["pareto", "exponential", "uniform"])
    def test_running_max_is_the_max_of_nested_draws(self, name):
        # columns of 3 then 10 draws: row 0 is the max of the first 3, row 1 of all 10
        law, n = MARK_LAWS[name], 20_000
        counts = np.repeat([[3], [10]], n, axis=1)
        got = law.sample_running_max(generator(6), counts)
        assert np.array_equal(got[-1], law.sample_max(generator(6), counts[-1]))
        assert np.all(got[0] <= got[1])
        gen = generator(7)
        direct = np.maximum.accumulate(law.sample(gen, (n, 10)), axis=1)[:, [2, 9]].T
        for row, want in zip(got, direct):
            assert stats.ks_2samp(row, want).pvalue > 1e-3
        # the first 3 hold the max of all 10 with probability 3/10
        tied = (got[0] == got[1]).mean()
        assert abs(tied - 0.3) <= 4 * np.sqrt(0.3 * 0.7 / n)
        want_tied = (direct[0] == direct[1]).mean()
        assert abs(tied - want_tied) <= 4 * np.sqrt(2 * 0.3 * 0.7 / n)


def one_generator(seed, stream_id):
    """The marks and the counts generator of sample_joint, both one stream's generator."""
    gen = RngStream(seed, stream_id).generator
    return gen, gen


class TestSampleJoint:
    def test_comonotone_construction(self):
        x, k = sample_joint(comonotone(), *one_generator(1, 0), 100_000)
        assert np.array_equal(k, np.ceil(x).astype(np.int64))
        assert np.all(k >= x)

    def test_independent_corr(self):
        x, k = sample_joint(light_count(), *one_generator(2, 0), 1_000_000)
        assert abs(np.corrcoef(x, k)[0, 1]) < 0.005

    def test_hawkes_comonotone_mean_kappa(self):
        # kappa = X * 0.5 / 3 = X / 6
        x, kappa = sample_joint(hawkes_comonotone(0.5), *one_generator(1, 0), 1_000_000)
        assert np.allclose(kappa, x / 6.0)
        assert kappa.mean() == pytest.approx(0.5, rel=0.01)

    @pytest.mark.parametrize("name", sorted(ALL_MODELS))
    def test_mark_marginal_ks(self, name):
        model = ALL_MODELS[name]
        x, _ = sample_joint(model, *one_generator(11, 0), 1_000_000)
        s = np.sort(x)
        n = len(s)
        cdf = 1.0 - np.asarray(model.mark_law.survival(s))
        ks = max(
            float(np.max(cdf - np.arange(n) / n)),
            float(np.max((np.arange(1, n + 1) / n) - cdf)),
        )
        assert ks < 0.003

    @pytest.mark.parametrize("model", [light_count(), heavy_count(), hawkes_light()])
    def test_counts_alone_draw_no_mark(self, model):
        x, count = sample_joint(model, None, generator(8), 1000)
        assert x is None
        pair = sample_joint(model, generator(9), generator(8), 1000)
        assert np.array_equal(count, pair.count)

    @pytest.mark.parametrize("model", [comonotone(), hawkes_comonotone()])
    def test_comonotone_counts_need_the_marks(self, model):
        with pytest.raises(ModelError, match="marks") as exc_info:
            sample_joint(model, None, generator(8), 1000)
        assert exc_info.value.field == "marks"

    def test_scalar_draws(self):
        x, k = sample_joint(light_count(), *one_generator(4, 0))
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

    @pytest.mark.parametrize(
        "regime, count, field",
        [
            (Regime.INDEPENDENT_HEAVY_COUNT, ParetoLaw(1e200, 40.0), "count_param"),
            (Regime.INDEPENDENT_TAIL_EQUIVALENT, ParetoLaw(1e200, 40.0), "count_param"),
            (Regime.COMONOTONE_COUNT, None, "mark_law"),
        ],
    )
    def test_ceil_pareto_overflow_rejected(self, regime, count, field):
        # E[ceil(Z)**2] is about 1e400, past a float
        mark = ParetoLaw(1e200, 40.0) if count is None else LAW
        with pytest.raises(ModelError, match="overflows") as excinfo:
            JointMarkModel(regime, mark, count)
        assert excinfo.value.field == field

    @pytest.mark.parametrize(
        "scale, alpha", [(6.0, 400.0), (1e10, 40.0), (20.0, 200.0), (2.5, 30.0)]
    )
    def test_ceil_pareto_moments_where_scale_to_the_alpha_overflows(self, scale, alpha):
        # scale**alpha is past a float in the first two, not in the others.
        # E[K] = k0 + sum_{j >= k0} (scale / j)**alpha and E[K**2] = k0**2 +
        # sum_{j >= k0} (2j + 1) (scale / j)**alpha, k0 = floor(scale) + 1: the
        # first 10**6 terms directly, the rest by the integral from the
        # midpoint of the last term's cell on, whose error is below 1e-12 here
        k0 = np.floor(scale) + 1.0
        j = k0 + np.arange(10**6)
        terms = (scale / j) ** alpha
        edge = j[-1] + 0.5
        tail = edge * (scale / edge) ** alpha / (alpha - 1.0)
        mean = k0 + terms.sum() + tail
        square = k0 * k0 + (2.0 * j + 1.0) @ terms + tail * (2.0 * edge * (alpha - 1.0) / (alpha - 2.0) + 1.0)
        for regime in (Regime.INDEPENDENT_HEAVY_COUNT, Regime.INDEPENDENT_TAIL_EQUIVALENT):
            c = model_constants(JointMarkModel(regime, LAW, ParetoLaw(scale, alpha)))
            assert c.mean_count == pytest.approx(mean, rel=1e-12)
            assert c.mean_count**2 + c.cluster_size_variance == pytest.approx(square, rel=1e-12)
        c = model_constants(JointMarkModel(Regime.COMONOTONE_COUNT, ParetoLaw(scale, alpha)))
        assert c.mean_count == pytest.approx(mean, rel=1e-12)


class TestCountControl:
    """How many Taylor terms of the max's tail in the count are control variates: 0, 1 or 2."""

    def test_shipped_regimes(self):
        want = {"light_count": 2, "hawkes_light": 2, "heavy_count": 0}
        want |= {"tail_equivalent": 0, "comonotone": 0, "hawkes_comonotone": 0}
        assert {name: model.count_control_order for name, model in ALL_MODELS.items()} == want

    # the linear term needs E[N**2] < inf (alpha > 2), the quadratic one E[N**4] < inf (alpha > 4)
    @pytest.mark.parametrize(
        "alpha, order", [(1.5, 0), (2.0, 0), (2.01, 1), (3.5, 1), (4.0, 1), (4.01, 2), (5.0, 2)]
    )
    @pytest.mark.parametrize("regime", [Regime.INDEPENDENT_HEAVY_COUNT, Regime.INDEPENDENT_TAIL_EQUIVALENT])
    def test_ceil_pareto_count_order_follows_its_moments(self, regime, alpha, order):
        assert JointMarkModel(regime, LAW, ParetoLaw(1.0, alpha)).count_control_order == order

    def test_comonotone_count_never(self):
        # ceil(X) has a finite fourth moment here, but the marks are not independent of it
        assert JointMarkModel(Regime.COMONOTONE_COUNT, ParetoLaw(1.0, 5.0)).count_control_order == 0


class TestClusterSizeVariance:
    """``ModelConstants.cluster_size_variance``: Var K, or (m + Var kappa) / (1 - m)**3 for Hawkes."""

    def test_poisson_count(self):
        assert model_constants(light_count(2.0)).cluster_size_variance == 2.0
        assert model_constants(light_count(0.0)).cluster_size_variance == 0.0

    # scale 2.5 starts the zeta sums at k0 = 3; alpha = 3 has E[K**2] but no E[K**4]
    @pytest.mark.parametrize("scale, alpha", [(1.0, 5.0), (2.5, 5.0), (1.0, 3.0)])
    def test_ceil_pareto_count_by_its_survival(self, scale, alpha):
        # E[K] = sum_k P(K >= k), E[K**2] = sum_k (2k - 1) P(K >= k), P(K >= k) = P(Z > k - 1),
        # to k = n and then by the integrals of scale**alpha x**-alpha and of 2x times it
        z, n = ParetoLaw(scale, alpha), 2_000_000
        k = np.arange(1, n + 1, dtype=float)
        at_least = np.asarray(z.survival(k - 1.0))
        mean = at_least.sum() + scale**alpha * n ** (1.0 - alpha) / (alpha - 1.0)
        square = (2.0 * k - 1.0) @ at_least + 2.0 * scale**alpha * n ** (2.0 - alpha) / (alpha - 2.0)
        for regime in (Regime.INDEPENDENT_HEAVY_COUNT, Regime.INDEPENDENT_TAIL_EQUIVALENT):
            got = model_constants(JointMarkModel(regime, LAW, z)).cluster_size_variance
            assert got == pytest.approx(square - mean**2, rel=1e-9)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_infinite_without_a_second_moment(self, alpha):
        model = JointMarkModel(Regime.INDEPENDENT_HEAVY_COUNT, LAW, ParetoLaw(1.0, alpha))
        assert model_constants(model).cluster_size_variance == np.inf

    def test_comonotone_regimes_read_no_variance(self):
        # their count control order is 0: inf, whatever the marks' moments
        for model in (JointMarkModel(Regime.COMONOTONE_COUNT, ParetoLaw(1.0, 5.0)), hawkes_comonotone(0.0)):
            assert model_constants(model).cluster_size_variance == np.inf

    def test_hawkes_light_intensity(self):
        # kappa = U(0, 1): m = 1/2, Var kappa = 1/12
        assert model_constants(hawkes_light()).cluster_size_variance == pytest.approx(14.0 / 3.0, rel=1e-14)
        # exponential kappa: Var kappa = m**2; constant kappa: 0
        for base, var_kappa in ((Exponential(2.0), 0.09), (Constant(4.0), 0.0)):
            c = model_constants(hawkes_light(0.3, base))
            assert c.cluster_size_variance == pytest.approx((0.3 + var_kappa) / 0.7**3, rel=1e-14)
            # E[S**2] = (1 - m**2 + E[kappa**2]) / (1 - m)**3
            square = c.cluster_size_variance + c.mean_cluster_size**2
            assert square == pytest.approx((1.0 - 0.09 + var_kappa + 0.09) / 0.7**3, rel=1e-14)

    # the three regimes with a quadratic count control, a ceil(Pareto(5)) count among them
    @pytest.mark.parametrize(
        "model",
        [
            light_count(2.0),
            JointMarkModel(Regime.INDEPENDENT_HEAVY_COUNT, LAW, ParetoLaw(1.0, 5.0)),
            hawkes_light(),
        ],
        ids=["poisson", "ceil-pareto-5", "hawkes-light"],
    )
    def test_matches_simulated_sizes(self, model):
        params = HawkesParams() if model.is_hawkes else RenewalParams(Exponential(1.0))
        sizes = batch_functionals(model, params, 400_000, RngStream(91, 0), fields=("sizes",)).sizes
        variance = model_constants(model).cluster_size_variance
        assert abs(sample_variance_z(sizes.astype(float), variance)) < 4


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


# the sum-denominator branches beyond ALL_MODELS: each kappa law of the light
# intensity regime, and the survival integral of each light mark law
JOINT_TAIL_MODELS = {
    **ALL_MODELS,
    "hawkes_constant_kappa": hawkes_light(base=Constant(1.0)),
    "hawkes_exponential_kappa": hawkes_light(base=Exponential(1.0)),
    **{
        f"hawkes_{name}_marks": JointMarkModel(
            Regime.HAWKES_LIGHT_INTENSITY, mark, BoundedUniform(0.0, 1.0), target_mean_kappa=0.5
        )
        for name, mark in (
            ("exponential", Exponential(2.0)),
            ("constant", Constant(1.5)),
            ("uniform", BoundedUniform(0.5, 2.0)),
        )
    },
}

# the renewal models, each with its reference route one x at a time
REFERENCE_ROUTES = {
    "light_count": (light_count(), independent_count_joint_tail),
    "light_count_exponential_marks": (light_count(mark=Exponential(1.0)), independent_count_joint_tail),
    "heavy_count": (heavy_count(), independent_count_joint_tail),
    "tail_equivalent": (tail_equivalent(), independent_count_joint_tail),
    "comonotone": (comonotone(), comonotone_count_joint_tail),
}


class TestJointTailExact:
    @pytest.mark.parametrize("name", sorted(JOINT_TAIL_MODELS))
    def test_against_monte_carlo(self, name):
        model = JOINT_TAIL_MODELS[name]
        consts = model_constants(model)
        c = (
            consts.sum_shift_hawkes
            if model.is_hawkes
            else consts.mean_mark
        )
        x, count = sample_joint(model, *one_generator(99, 1), 1_000_000)
        total = x + c * np.asarray(count, dtype=float)
        xs = np.quantile(total, [0.5, 0.9, 0.99, 0.999])
        exact = np.asarray(joint_tail_exact(model, c, xs))
        emp = np.array([(total > xi).mean() for xi in xs])
        se = np.sqrt(emp * (1 - emp) / len(total))
        assert np.all(np.abs(emp - exact) < 5 * se + 1e-4)

    @pytest.mark.parametrize("c", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("name", sorted(REFERENCE_ROUTES))
    def test_whole_grid_matches_the_route_per_x(self, name, c):
        model, route = REFERENCE_ROUTES[name]
        edge = model.mark_law.support_min
        kinks = np.arange(1, 25) * (1.0 + c)  # where K = ceil(X) steps in the comonotone sum
        xs = np.concatenate(
            [[-1.0, 0.5 * edge, edge], kinks, kinks - 1e-9, kinks + 1e-9, np.geomspace(1.5, 1e4, 15)]
        )
        want = np.array([route(model, c, x) for x in xs])
        got = joint_tail_exact(model, c, xs)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
        assert joint_tail_exact(model, c, float(xs[-1])) == got[-1]

    def test_one_count_pmf_per_grid(self, monkeypatch):
        calls = []

        def counted(k, mu):
            calls.append(np.size(k))
            return _poisson_pmf(k, mu)

        monkeypatch.setattr(heavytail, "_poisson_pmf", counted)
        joint_tail_exact(light_count(), 3.0, np.geomspace(10.0, 1000.0, 12))
        # one table of counts for the series, one run of terms for the tails P(K >= k0)
        assert len(calls) <= 2, calls

    def test_shift_must_be_positive(self):
        for c in (0.0, -1.0, float("nan")):
            with pytest.raises(ModelError):
                joint_tail_exact(light_count(), c, 5.0)

    def test_count_survival_heavy(self):
        m = heavy_count()
        # ceil(Z) > x iff Z > floor(x)
        assert count_survival(m, 10.0) == pytest.approx(10 ** -1.5)
        assert count_survival(m, 10.7) == pytest.approx(10 ** -1.5)
        assert count_survival(m, 1.0) == 1.0


class TestExponentialIntensityJointTail:
    """The exponential-kappa Hawkes joint tail against adaptive quadrature over kappa.

    P(X + c kappa > x) = e^{-rate u_m} + the integral over [0, u_m] of
    rate e^{-rate u} P(X > x - c u), u_m = (x - m) / c past which every
    mark clears x.  quad is given the u where x - c u crosses the law's
    edges, and 2^k times kappa's mean, where the weight changes scale.
    """

    # each law with its scale, where the x grid starts
    LAWS = [
        (ParetoLaw(1.0, 1.5), 1.0),
        (Exponential(1.0), 1.0),
        (Constant(1.0), 1.0),
        (BoundedUniform(0.5, 2.0), 0.5),
    ]

    @staticmethod
    def reference(law, rate, c, x):
        m = law.support_min
        if x <= m:
            return 1.0
        u_m = (x - m) / c
        edges = [(x - e) / c for e in (getattr(law, "hi", None),) if e is not None and m < e < x]
        # with the edges alone, or 1 and 10 times kappa's mean, quad misses up to 5e-5 of a Pareto tail
        scales = [2.0**k / rate for k in range(64) if 2.0**k / rate < u_m]
        val, _ = integrate.quad(
            lambda u: rate * np.exp(-rate * u) * float(law.survival(x - c * u)),
            0.0,
            u_m,
            points=edges + scales,
            epsabs=0,
            epsrel=1e-12,
            limit=500,
        )
        return val + np.exp(-rate * u_m)

    def test_gauss_legendre_rule_is_numpys(self):
        want_nodes, want_weights = np.polynomial.legendre.leggauss(16)
        nodes, weights = heavytail._gauss_legendre(16)
        np.testing.assert_allclose(nodes, (want_nodes + 1.0) / 2.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights, want_weights / 2.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kappa", [1e-12, 0.05, 0.5, 0.95])
    @pytest.mark.parametrize("law, scale", LAWS, ids=[repr(law) for law, _ in LAWS])
    def test_against_quadrature(self, law, scale, kappa):
        model = JointMarkModel(Regime.HAWKES_LIGHT_INTENSITY, law, Exponential(1.0), target_mean_kappa=kappa)
        c = model_constants(model).sum_shift_hawkes
        xs = np.geomspace(scale, 1e4, 25)
        want = [self.reference(law, 1.0 / kappa, c, x) for x in xs]
        # below the smallest normal float a result keeps no relative digits
        np.testing.assert_allclose(joint_tail_exact(model, c, xs), want, rtol=1e-10, atol=np.finfo(float).tiny)


class TestSurvivalIntegral:
    LAWS = [
        ParetoLaw(1.0, 1.5),
        ParetoLaw(2.0, 1.0),
        Exponential(2.0),
        Constant(1.5),
        BoundedUniform(0.5, 2.0),
    ]

    @pytest.mark.parametrize("law", LAWS, ids=repr)
    @pytest.mark.parametrize("a, b", [(-1.0, 3.0), (0.5, 1.5), (1.2, 40.0), (-3.0, -1.0), (-1.0, 0.25)])
    def test_against_quadrature_of_the_survival(self, law, a, b):
        # the support edges are where the survival has a kink or a jump
        edges = [e for e in (law.support_min, getattr(law, "hi", None)) if e is not None and a < e < b]
        want, _ = integrate.quad(law.survival, a, b, points=edges or None, limit=200, epsabs=1e-13, epsrel=1e-12)
        assert law.survival_integral(a, b) == pytest.approx(want, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("law", LAWS, ids=repr)
    @pytest.mark.parametrize("a, b", [(3.0, 2.0), (1.0, 1.0), (-1.0, -2.0)])
    def test_empty_interval_is_zero(self, law, a, b):
        assert law.survival_integral(a, b) == 0.0


class TestPoissonTerms:
    """The numpy Poisson terms agree with scipy's, which serve as the independent reference.

    The terms are computed from ``math.lgamma`` and numpy, not by scipy, so
    they cannot equal scipy's bit for bit.  The pmf's exponent
    k log mu - log k! - mu rounds to within a few ulps of its largest part
    (about 2e-13 at k = 400, mu = 200), which exp turns into a relative
    error; 1e-12 bounds that on this grid.  The k < 0, x < 0 and mu = 0
    cases are exact.
    """

    KS = np.arange(-3, 401)
    XS = np.concatenate([KS, KS + 0.5, KS - 0.25])
    MEANS = [0.0, 1e-3, 0.5, 2.0, 30.0, 200.0]

    @staticmethod
    def assert_agrees(got, want, rtol=1e-12):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        big = want > 1e-300
        np.testing.assert_allclose(got[big], want[big], rtol=rtol, atol=0)
        assert np.all(got[~big] <= 1e-290)

    @pytest.mark.parametrize("mu", MEANS)
    def test_arrays(self, mu):
        self.assert_agrees(_poisson_pmf(self.KS, mu), stats.poisson.pmf(self.KS, mu))
        self.assert_agrees(_poisson_sf(self.XS, mu), stats.poisson.sf(self.XS, mu))

    @pytest.mark.parametrize("mu", MEANS)
    def test_scalars(self, mu):
        self.assert_agrees([_poisson_pmf(k, mu) for k in self.KS.tolist()], stats.poisson.pmf(self.KS, mu))
        self.assert_agrees([_poisson_sf(x, mu) for x in self.XS.tolist()], stats.poisson.sf(self.XS, mu))
        assert np.ndim(_poisson_pmf(3, mu)) == np.ndim(_poisson_sf(2.5, mu)) == 0

    @pytest.mark.parametrize("mu", MEANS)
    def test_exact_cases(self, mu):
        negative = self.XS[self.XS < 0]
        assert np.all(_poisson_pmf(self.KS[self.KS < 0], mu) == 0.0)
        assert np.all(_poisson_sf(negative, mu) == 1.0)
        assert _poisson_pmf(0, 0.0) == 1.0
        assert np.all(_poisson_pmf(self.KS[self.KS > 0], 0.0) == 0.0)
        assert np.all(_poisson_sf(self.XS[self.XS >= 0], 0.0) == 0.0)

    # the exponent's rounding grows with k log mu, so the mean of 5000, whose
    # tail runs to k = 8000, gets a wider bound
    @pytest.mark.parametrize(
        "mu, rtol",
        [(0.0, 1e-12), (1e-3, 1e-12), (0.5, 1e-12), (2.0, 1e-12), (30.0, 1e-12), (200.0, 1e-11), (5000.0, 1e-10)],
    )
    def test_survival_far_into_the_tail(self, mu, rtol):
        # from below the mean to x >> mu, where the survival underflows
        xs = np.concatenate([self.XS[self.XS >= 0], mu + np.arange(0.0, 40 * np.sqrt(mu) + 600, 1.5)])
        self.assert_agrees(_poisson_sf(xs, mu), special.pdtrc(np.floor(xs), mu), rtol)

    def test_survival_of_an_array_of_means(self):
        # the reference Hawkes bracket asks for P(K > max_children) of a row of kappas
        kappas = np.array([0.0, 1e-3, 0.3, 0.9, 2.5, 7.0])
        for mc in (0, 1, 5, 20, 60):
            self.assert_agrees(_poisson_sf(mc, kappas), special.pdtrc(mc, kappas))
            self.assert_agrees(_poisson_pmf(mc, kappas), stats.poisson.pmf(mc, kappas))
        xs = np.arange(-1.0, 40.0, 0.5)[:, None]
        want = np.where(xs < 0, 1.0, special.pdtrc(np.maximum(np.floor(xs), 0), kappas))
        self.assert_agrees(_poisson_sf(xs, kappas), want)

    def test_mean_of_a_million_in_bounded_time(self):
        mu = 1e6
        model = light_count(mu)
        xs = np.arange(0.0, 2e6, 997.0)
        start = time.perf_counter()
        assert _poisson_table.__wrapped__(mu) is None  # drawn by numpy
        got = count_survival(model, xs)
        # about 80,000 pmf terms between the span's ends, never the 10^6 below them
        assert time.perf_counter() - start < 2.0
        assert np.all(np.diff(got) <= 0) and got[0] == 1.0 and got[-1] == 0.0
        near = np.abs(xs - mu) < 2000  # within 2 sd, where pdtrc is accurate
        np.testing.assert_allclose(got[near], special.pdtrc(xs[near], mu), rtol=1e-8)


class TestShortfallAndZeta:
    """The Erlang shortfall and the Hurwitz zeta against their scipy formulas."""

    @pytest.mark.parametrize("t", [1.0, 10.0, 100.0, 500.0])
    @pytest.mark.parametrize("rate", [1.0, 2.0])
    def test_exponential_shortfall_against_gamma_cdf(self, t, rate):
        r = np.arange(1, 257)
        got = Exponential(rate).shortfall(t, r)
        # t P(r, rate t) - (r / rate) P(r + 1, rate t) with P the Gamma cdf: the
        # two terms cancel, so the reference's own error scales with their sum
        first = t * special.gammainc(r, rate * t)
        second = r / rate * special.gammainc(r + 1, rate * t)
        normal = first > 1e-300  # below, gammainc is subnormal and has lost its digits
        assert np.all(np.abs(got - (first - second))[normal] <= 1e-12 * (first + second)[normal])
        assert np.all(got >= 0) and np.all(got[~normal] <= 1e-300)

    @pytest.mark.parametrize("s", [1.01, 1.1, 1.5, 2.0, 3.0, 7.5])
    @pytest.mark.parametrize("q", [1, 2, 5, 100, 1000])
    def test_hurwitz_zeta(self, s, q):
        assert _hurwitz_zeta(s, q) == pytest.approx(special.zeta(s, q), rel=2e-15)


class _FixedUniforms:
    """A generator stand-in whose ``random`` returns given uniforms, in order."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)
        self.used = 0

    def random(self, size, out):
        out[:] = self.u[self.used : self.used + size]
        self.used += size
        return out


class TestInvert:
    """The guide-table inverter that every table sampler of the package uses."""

    @settings(max_examples=200, deadline=None)
    @given(
        weights=st.lists(st.integers(0, 9), min_size=1, max_size=80).filter(any),
        cells=st.integers(0, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_searchsorted(self, weights, cells, seed):
        # zero weights repeat a cdf value, and fewer cells than values put
        # several jumps of the cdf in one cell
        w = np.array(weights, dtype=float)
        cdf = np.cumsum(w) / w.sum()
        guide = heavytail._guide(cdf, 1 << cells)
        u = np.concatenate(
            (
                np.random.default_rng(seed).random(500),
                cdf,
                np.nextafter(cdf, 0.0),
                np.arange(1 << cells) / (1 << cells),
                [0.0, np.nextafter(1.0, 0.0)],
            )
        )
        u = u[u < cdf[-1]]
        expected = np.searchsorted(cdf, u, side="right")
        assert np.array_equal(heavytail._invert(cdf, guide, u), expected)
        out = np.full(u.size, -1, dtype=np.intp)
        assert heavytail._invert(cdf, guide, u, out=out) is out
        assert np.array_equal(out, expected)


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


class TestMixedPoisson:
    """Y ~ Poisson(mu U), U uniform: a renewal cluster's offspring in its own slot, K aside."""

    @pytest.mark.parametrize("mu", [1e-3, 0.5, 4.0, 40.0, 300.0])
    def test_table_sums_to_one_with_mean_half_mu(self, mu):
        below = _mixed_poisson_table(mu)  # P(Y < j), j = 0, 1, ...
        pmf = np.diff(below)
        assert below[0] == 0.0 and below[-1] == 1.0 and np.all(pmf >= 0)
        assert pmf.sum() == 1.0
        assert np.arange(pmf.size) @ pmf == pytest.approx(mu / 2, rel=1e-12)
        # P(Y = j) = P(Pois(mu) > j) / mu
        want = special.pdtrc(np.arange(pmf.size), mu) / mu
        np.testing.assert_allclose(pmf, want, rtol=1e-9, atol=4e-16)

    def test_cut_table(self):
        # P(Y < j) reaches 1.0 within 1,024 terms up to mu of about 798.7, and
        # P(Y = 0) = 1 at mu = 0
        assert _mixed_poisson_table(700.0)[-1] == 1.0
        for mu in (800.0, 1000.0, 5000.0, 1e8):
            below = _mixed_poisson_table(mu)
            assert below.size == 1025 and below[-1] < 1.0
            want = np.cumsum(special.pdtrc(np.arange(1024), mu)) / mu
            np.testing.assert_allclose(below[1:], want, rtol=1e-12)
        assert np.array_equal(_mixed_poisson_table(0.0), [0.0, 1.0])

    @pytest.mark.parametrize("mu", [0.5, 40.0, 2000.0])
    def test_short_is_the_inversion_below_k(self, mu):
        # the same uniforms, inverted in full: Y < k exactly where the draw says
        # so, where k is within the table; past a cut table Y is a fresh draw
        below, n = _mixed_poisson_table(mu), 1 << 16
        k = np.random.Generator(np.random.PCG64DXSM(5)).integers(0, 3 * int(mu) + 3, n)
        k[:4] = (0, below.size - 1, below.size, 10**9)  # none, the table's end, past it
        short, y = _mixed_poisson_short(np.random.Generator(np.random.PCG64DXSM(6)), mu, k)
        u = np.random.Generator(np.random.PCG64DXSM(6)).random(n)
        full = np.searchsorted(below, u, side="right") - 1
        near = (k < below.size) | (below[-1] == 1.0)
        assert np.array_equal(short[near[short]], np.flatnonzero(near & (full < k)))
        assert np.array_equal(y[near[short]], full[short[near[short]]])
        assert np.all(y < k[short]) and np.unique(short).size == short.size

    @pytest.mark.parametrize("mu", [3.0, 2000.0], ids=["table", "numpy"])
    def test_mean_and_variance(self, mu):
        # E[Y] = mu / 2 and Var Y = mu / 2 + mu**2 / 12, by the laws of total mean and variance
        n = 200_000
        short, y = _mixed_poisson_short(np.random.Generator(np.random.PCG64DXSM(7)), mu, np.full(n, 10**9))
        assert short.size == n
        assert abs(y.mean() - mu / 2) < 4 * y.std() / np.sqrt(n)
        assert abs(sample_variance_z(y.astype(float), mu / 2 + mu * mu / 12)) < 4


class TestReferenceOracle:
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

        def recording(model, marks, counts, size=None):
            pair = sample_joint(model, marks, counts, size)
            seen.append(np.array(pair.x))
            return pair

        monkeypatch.setattr(reference, "sample_joint", recording)
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

    def test_branch_layout(self):
        child = RngStream(9, 3).child(4)
        branches = [child.branch(1), child.branch(2)]
        assert [b.spawn_key for b in branches] == [(3, 4, 1), (3, 4, 2)]
        draws = [s.generator.random(64) for s in (child, *branches, RngStream(9, 3).child(1))]
        for i, a in enumerate(draws):
            for b in draws[i + 1 :]:
                assert not np.array_equal(a, b)
        assert np.array_equal(draws[1], child.branch(1).generator.random(64))
        with pytest.raises(ValueError):
            RngStream(9, 3).branch(1)  # the key (3, 1) is chunk 1's
        with pytest.raises(ValueError):
            branches[0].branch(1)
        with pytest.raises(ValueError):
            child.branch(2**32)

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
