"""Mark laws, joint mark models, and analytic tail formulas.

The joint models pair a mark variable X with either an offspring count K
(renewal family) or a branching intensity kappa (Hawkes family).  The
catalog spans the three tail-comparison regimes for (X, K) -- count tail
lighter, heavier, or equivalent to the mark tail -- plus fully dependent
counts, and light/heavy intensity variants for the Hawkes family.

Heavy tails are exact Pareto (constant slowly varying factor), which makes
every asymptotic denominator computable in closed form.  A Monte Carlo
oracle, recomputed on every call from its own seed, is an independent route
to the joint-tail terms of the sum denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import NamedTuple, Union

import numpy as np

from .errors import InfiniteMean, ModelError, SupercriticalModel
from .rng import RngStream

__all__ = [
    "ParetoLaw",
    "Exponential",
    "Constant",
    "BoundedUniform",
    "LightLaw",
    "MarkLaw",
    "Regime",
    "JointMarkModel",
    "ModelConstants",
    "MarkPair",
    "OracleSpec",
    "sample_joint",
    "model_constants",
    "theoretical_denominator",
    "denominator_label",
    "count_survival",
    "joint_tail_exact",
    "joint_tail_mc",
]


# ---------------------------------------------------------------------------
# Marginal laws


class _MaxSampler:
    """Maxima of i.i.d. draws from a mark law, one uniform per maximum.

    The max of c i.i.d. draws has cdf F**c, so it is F^{-1}(U**(1/c)) for one
    uniform U (Devroye 1986, *Non-Uniform Random Variate Generation*, ch.
    V).  Its survival p = 1 - U**(1/c) = -expm1(log(U) / c) keeps its digits
    when c is huge, and the law's ``isf`` maps it back: for any int64 count
    p is in (0, 1], and it is 1 at U = 0.  A count of 0 gives 0.
    """

    def sample_max(self, gen: np.random.Generator, counts) -> np.ndarray:
        """The max of ``counts[j]`` i.i.d. draws for each j, from the next ``counts.size`` uniforms."""
        return self.sample_running_max(gen, np.asarray(counts)[None])[0]

    def sample_running_max(self, gen: np.random.Generator, counts) -> np.ndarray:
        """Row i, column j: the max of the first ``counts[i, j]`` of column j's i.i.d. draws.

        ``counts`` is (k, n) and nondecreasing down each column.  The last
        row is the max of ``counts[-1]`` draws from the next n uniforms, as
        :meth:`sample_max` draws it, so it does not depend on the other
        rows; each earlier row then takes one more uniform per column.  Of
        c' draws with max m, the first c hold m with probability c / c';
        else they are c draws conditioned below m, whose max has
        P(M <= y) = (F(y) / F(m))**c.  One uniform W inverts that mixture:
        with a = 1 - c / c', the max stays m where W >= a, and otherwise has
        survival p' + q (1 - p'), p' the survival of m and q that of the
        max of c draws at the uniform W / a.
        """
        c = np.asarray(counts, dtype=float)
        u = gen.random(c.shape)[::-1]  # the last row takes the first uniforms
        p = np.empty_like(c)
        with np.errstate(divide="ignore"):  # log(0) = -inf, and x / 0 = -inf where c = 0
            p[-1] = -np.expm1(np.log(u[-1]) / c[-1])
            for i in range(len(c) - 2, -1, -1):
                a = np.divide(c[i + 1] - c[i], c[i + 1], out=np.zeros(c.shape[1]), where=c[i + 1] > 0)
                p[i] = p[i + 1]
                fresh = np.flatnonzero(u[i] < a)
                q = -np.expm1(np.log(u[i, fresh] / a[fresh]) / c[i, fresh])
                p[i, fresh] += q * (1.0 - p[i, fresh])
        out = self.isf(p)
        out[c == 0] = 0.0
        return out


@dataclass(frozen=True)
class ParetoLaw(_MaxSampler):
    """Exact power-law tail: P(X > x) = (scale/x)**alpha for x > scale."""

    scale: float
    alpha: float

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ModelError("scale must be positive", "scale")
        if self.alpha <= 0:
            raise ModelError("alpha must be positive", "alpha")

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x <= self.scale, 1.0, (self.scale / np.maximum(x, self.scale)) ** self.alpha)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        if self.alpha <= 1:
            raise InfiniteMean(f"Pareto mean requires alpha > 1, got {self.alpha}")
        return self.alpha * self.scale / (self.alpha - 1.0)

    def sample(self, gen: np.random.Generator, size=None):
        # inverse CDF: (1 - U)**(-1/alpha) with 1 - U in (0, 1]
        u = gen.random(size)
        if size is None:
            return self.scale * (1.0 - u) ** (-1.0 / self.alpha)
        # the same operations in place: the draws are bit-identical, with no
        # temporaries the size of the sample
        np.subtract(1.0, u, out=u)
        u **= -1.0 / self.alpha
        u *= self.scale
        return u

    def isf(self, p: np.ndarray) -> np.ndarray:
        """The x with P(X > x) = p, for p in (0, 1]."""
        return self.scale * p ** (-1.0 / self.alpha)

    # lower edge of the region where survival == 1
    @property
    def support_min(self) -> float:
        return self.scale

    def survival_integral(self, a: float, b: float) -> float:
        """Integral of the survival function over [a, b]."""
        if b <= a:
            return 0.0
        s, al = self.scale, self.alpha
        flat = max(0.0, min(b, s) - a)
        lo, hi = max(a, s), b
        if hi <= lo:
            return flat
        if al == 1.0:
            tail = s * (math.log(hi) - math.log(lo))
        else:
            tail = s**al * (lo ** (1.0 - al) - hi ** (1.0 - al)) / (al - 1.0)
        return flat + tail


@dataclass(frozen=True)
class Exponential(_MaxSampler):
    rate: float

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ModelError("rate must be positive", "rate")

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x <= 0, 1.0, np.exp(-self.rate * np.maximum(x, 0.0)))
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return self.rate**-2

    def sample(self, gen: np.random.Generator, size=None):
        return gen.exponential(1.0 / self.rate, size)

    def isf(self, p: np.ndarray) -> np.ndarray:
        """The x with P(X > x) = p, for p in (0, 1]."""
        return -np.log(p) / self.rate

    @property
    def support_min(self) -> float:
        return 0.0

    def survival_integral(self, a: float, b: float) -> float:
        if b <= a:
            return 0.0
        flat = max(0.0, min(b, 0.0) - a)
        lo, hi = max(a, 0.0), b
        if hi <= lo:
            return flat
        return flat + (math.exp(-self.rate * lo) - math.exp(-self.rate * hi)) / self.rate

    def shortfall(self, t: float, r: np.ndarray) -> np.ndarray:
        """E[(t - S_r)^+] for each count in ``r``, S_r the sum of r independent draws.

        With N_s the count of a rate-``rate`` Poisson process by time s,
        S_r <= s iff N_s >= r, and the integral of P(N_s = j) over [0, t] is
        P(N_t > j) / rate.  So E[(t - S_r)^+] = (1/rate) sum_{i >= r} P(N_t > i),
        N_t ~ Poisson(rate t): one reverse cumulative sum of positive terms,
        with no cancellation.
        """
        r = np.asarray(r)
        mu = self.rate * t
        first = int(r.min())
        i = np.arange(first, max(int(r.max()), _poisson_span(mu)[1]) + 1)
        tail = np.cumsum(_poisson_sf(i, mu)[::-1])[::-1]
        return tail[r - first] / self.rate


@dataclass(frozen=True)
class Constant(_MaxSampler):
    value: float

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ModelError("value must be positive", "value")

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x < self.value, 1.0, 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return self.value

    def variance(self) -> float:
        return 0.0

    def sample(self, gen: np.random.Generator, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def isf(self, p: np.ndarray) -> np.ndarray:
        """The value, for every p in (0, 1]: it is the law's only point."""
        return np.full(np.shape(p), self.value)

    @property
    def support_min(self) -> float:
        return self.value

    def survival_integral(self, a: float, b: float) -> float:
        if b <= a:
            return 0.0
        return max(0.0, min(b, self.value) - a)

    def shortfall(self, t: float, r: np.ndarray) -> np.ndarray:
        """E[(t - S_r)^+] = (t - r c)^+ for each count in ``r``: S_r = r c exactly."""
        return np.maximum(t - r * self.value, 0.0)


@dataclass(frozen=True)
class BoundedUniform(_MaxSampler):
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0 <= self.lo < self.hi:
            raise ModelError("need 0 <= lo < hi", "lo")

    def survival(self, x):
        x = np.asarray(x, dtype=float)
        out = np.clip((self.hi - x) / (self.hi - self.lo), 0.0, 1.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def variance(self) -> float:
        return (self.hi - self.lo) ** 2 / 12.0

    def sample(self, gen: np.random.Generator, size=None):
        if size is None:
            return gen.uniform(self.lo, self.hi)
        # numpy's lo + (hi - lo) * U, in place: bit-identical draws, no second array
        u = gen.random(size)
        u *= self.hi - self.lo
        u += self.lo
        return u

    def isf(self, p: np.ndarray) -> np.ndarray:
        """The x with P(X > x) = p, for p in (0, 1]."""
        return self.hi - p * (self.hi - self.lo)

    @property
    def support_min(self) -> float:
        return self.lo

    def survival_integral(self, a: float, b: float) -> float:
        if b <= a:
            return 0.0
        flat = max(0.0, min(b, self.lo) - a)
        lo, hi = max(a, self.lo), min(b, self.hi)
        if hi <= lo:
            return flat
        width = self.hi - self.lo
        # integral of (hi - t)/width over [lo, hi_]
        return flat + ((self.hi - lo) ** 2 - (self.hi - hi) ** 2) / (2.0 * width)

    def shortfall(self, t: float, r: np.ndarray) -> np.ndarray:
        """E[(t - S_r)^+] for each count in ``r``, S_r the sum of r independent draws.

        S_r = r lo + w U_r with w = hi - lo and U_r Irwin-Hall, so this is
        w E[(y - U_r)^+] at y = (t - r lo) / w (see :func:`_irwin_hall_shortfall`).
        """
        width = self.hi - self.lo
        r = np.asarray(r)
        return width * _irwin_hall_shortfall((t - r * self.lo) / width, r)


def _irwin_hall_shortfall(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """E[(y_i - U_{r_i})^+] for each i, U_r the sum of r >= 1 independent U(0, 1).

    E[(y - U_r)^+] is the integral of F_r over [0, y], which is
    sum_{j=0}^{floor y} F_{r+1}(y - j), F_n the cdf of U_n.  The cdfs come
    from the B-spline recursion F_n(z) = (z F_{n-1}(z) + (n - z) F_{n-1}(z - 1)) / n,
    from F_0(z) = 1{z >= 0}, on the lattice z = frac(y) + 0, 1, 2, ...; where
    z < n both weights are nonnegative, so no term cancels (the closed
    alternating Irwin-Hall sum loses every digit as r grows), and F_n = 1
    from z = n on.  All counts whose y share a fractional part share one
    lattice, and one pass of n = 1, 2, ... serves them all.
    """
    out = np.zeros(len(y))
    live = np.flatnonzero(y > 0)
    if live.size == 0:
        return out
    frac, lattice = np.unique(y[live] % 1.0, return_inverse=True)
    width = int(y[live].max()) + 1
    z = frac[:, None] + np.arange(width)
    f = np.ones_like(z)
    done_at = r[live] + 1
    for n in range(1, int(done_at.max()) + 1):
        cols = min(n, width)  # F_n = 1 from z = n on
        below = np.zeros((len(frac), cols))
        below[:, 1:] = f[:, : cols - 1]
        f[:, :cols] = (z[:, :cols] * f[:, :cols] + (n - z[:, :cols]) * below) / n
        hit = np.flatnonzero(done_at == n)
        if hit.size:
            cut = np.floor(y[live[hit]]).astype(np.int64)
            out[live[hit]] = np.cumsum(f[lattice[hit]], axis=1)[np.arange(hit.size), cut]
    return out


LightLaw = Union[Exponential, Constant, BoundedUniform]
MarkLaw = Union[ParetoLaw, LightLaw]


# ---------------------------------------------------------------------------
# Joint mark models


class Regime(str, Enum):
    INDEPENDENT_LIGHT_COUNT = "IndependentLightCount"
    INDEPENDENT_HEAVY_COUNT = "IndependentHeavyCount"
    INDEPENDENT_TAIL_EQUIVALENT = "IndependentTailEquivalent"
    COMONOTONE_COUNT = "ComonotoneCount"
    HAWKES_LIGHT_INTENSITY = "HawkesLightIntensity"
    HAWKES_COMONOTONE_INTENSITY = "HawkesComonotoneIntensity"


_RENEWAL_REGIMES = {
    Regime.INDEPENDENT_LIGHT_COUNT,
    Regime.INDEPENDENT_HEAVY_COUNT,
    Regime.INDEPENDENT_TAIL_EQUIVALENT,
    Regime.COMONOTONE_COUNT,
}
_HAWKES_REGIMES = {
    Regime.HAWKES_LIGHT_INTENSITY,
    Regime.HAWKES_COMONOTONE_INTENSITY,
}
# the regimes whose marks are i.i.d. and independent of the counts (K or kappa)
_INDEPENDENT_MARK_REGIMES = {
    Regime.INDEPENDENT_LIGHT_COUNT,
    Regime.INDEPENDENT_HEAVY_COUNT,
    Regime.INDEPENDENT_TAIL_EQUIVALENT,
    Regime.HAWKES_LIGHT_INTENSITY,
}


class MarkPair(NamedTuple):
    """One joint draw: the mark X (None if not drawn) and its count K (renewal) or kappa (Hawkes)."""

    x: np.ndarray | float
    count: np.ndarray | float


@dataclass(frozen=True)
class JointMarkModel:
    """The joint law of (X, K) or (X, kappa) for one regime.

    ``count_param`` is regime-specific:

    * IndependentLightCount -- Poisson mean (float) of K;
    * IndependentHeavyCount / IndependentTailEquivalent -- ParetoLaw of Z
      with K = ceil(Z);
    * ComonotoneCount -- unused (K = ceil(X));
    * HawkesLightIntensity -- a LightLaw rescaled so E[kappa] equals
      ``target_mean_kappa``;
    * HawkesComonotoneIntensity -- unused (kappa = X * target_mean_kappa / E[X]).
    """

    regime: Regime
    mark_law: MarkLaw
    count_param: float | ParetoLaw | LightLaw | None = None
    target_mean_kappa: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "regime", Regime(self.regime))
        r = self.regime
        if r is Regime.INDEPENDENT_LIGHT_COUNT:
            if not isinstance(self.count_param, (int, float)) or self.count_param < 0:
                raise ModelError("Poisson mean must be a nonnegative number", "count_param")
        elif r in (Regime.INDEPENDENT_HEAVY_COUNT, Regime.INDEPENDENT_TAIL_EQUIVALENT):
            if not isinstance(self.count_param, ParetoLaw):
                raise ModelError("count_param must be the ParetoLaw of Z", "count_param")
            _check_ceil_pareto(self.count_param, "count_param")
        elif r is Regime.HAWKES_LIGHT_INTENSITY:
            if not isinstance(self.count_param, (Exponential, Constant, BoundedUniform)):
                raise ModelError("count_param must be a light law", "count_param")
        if r in _HAWKES_REGIMES:
            if self.target_mean_kappa is None or self.target_mean_kappa < 0:
                raise ModelError(
                    "Hawkes regimes need target_mean_kappa >= 0", "target_mean_kappa"
                )
        if r is Regime.COMONOTONE_COUNT:
            if not isinstance(self.mark_law, ParetoLaw):
                raise ModelError("comonotone counts need a Pareto mark law", "mark_law")
            _check_ceil_pareto(self.mark_law, "mark_law")

    @property
    def is_hawkes(self) -> bool:
        return self.regime in _HAWKES_REGIMES

    @property
    def is_renewal(self) -> bool:
        return self.regime in _RENEWAL_REGIMES

    @property
    def independent_marks(self) -> bool:
        """Whether the marks are i.i.d. and independent of the counts (K or kappa).

        Then the marks of a window are i.i.d. given its event count N_T, so
        a window statistic's law follows from the law of N_T alone; for the
        max, P(M_T <= x | N_T) = F(x)**N_T.
        """
        return self.regime in _INDEPENDENT_MARK_REGIMES

    @property
    def count_control_order(self) -> int:
        """How many Taylor terms of the max's tail in a count are its control variates: 0, 1 or 2.

        Given N marks, i.i.d. and independent of N, the max exceeds x with
        probability g(N) = 1 - F(x)**N.  The first two Taylor terms of g
        about E[N] are multiples of N - E[N] and (N - E[N])**2 - Var N, both
        of mean 0, so each is a control variate where its variance is
        finite: where N has a finite second, resp. fourth, moment.  A
        cluster's size, and a window's event count N_T with it, has every
        moment in IndependentLightCount and HawkesLightIntensity, and the
        moments below alpha for a K = ceil(Z) count with Z ~ Pareto(alpha).
        So the order is 2 there and for such a count with alpha > 4, 1 for
        2 < alpha <= 4, and 0 for alpha <= 2 and the comonotone regimes,
        whose marks are not independent of the counts.
        """
        if not self.independent_marks:
            return 0
        if not isinstance(self.count_param, ParetoLaw):
            return 2
        return int(self.count_param.alpha > 2) + int(self.count_param.alpha > 4)

    def kappa_of_mark_factor(self) -> float:
        """Scaling r with kappa = r * X for the comonotone intensity regime."""
        assert self.regime is Regime.HAWKES_COMONOTONE_INTENSITY
        return self.target_mean_kappa / self.mark_law.mean()

    def intensity_scale_factor(self) -> float:
        """Scaling applied to the base light law for the light intensity regime."""
        assert self.regime is Regime.HAWKES_LIGHT_INTENSITY
        base_mean = self.count_param.mean()
        if base_mean <= 0:
            raise ModelError("base intensity law must have positive mean", "count_param")
        return self.target_mean_kappa / base_mean


def sample_joint(
    model: JointMarkModel,
    marks: np.random.Generator | None,
    counts: np.random.Generator,
    size=None,
) -> MarkPair:
    """Draw (X, K) or (X, kappa) from the regime's joint law.

    X comes from ``marks`` and K or kappa from ``counts``; passing one
    generator as both draws X first, then the count variable, so identical
    streams reproduce identical pairs bit for bit.  Where the marks are
    independent of the counts, ``marks`` may be None: no mark is drawn and
    ``x`` is None.  The comonotone regimes derive the count from X and need
    ``marks``.
    """
    r = model.regime
    if marks is None:
        if not model.independent_marks:
            raise ModelError(f"{r.value} derives its counts from the marks", "marks")
        x = None
    else:
        x = model.mark_law.sample(marks, size)
    if r is Regime.INDEPENDENT_LIGHT_COUNT:
        return MarkPair(x, _poisson_counts(counts, model.count_param, size))
    if r in (Regime.INDEPENDENT_HEAVY_COUNT, Regime.INDEPENDENT_TAIL_EQUIVALENT):
        z = model.count_param.sample(counts, size)
        k = np.ceil(z).astype(np.int64) if size is not None else int(math.ceil(z))
        return MarkPair(x, k)
    if r is Regime.COMONOTONE_COUNT:
        k = np.ceil(x).astype(np.int64) if size is not None else int(math.ceil(x))
        return MarkPair(x, k)
    if r is Regime.HAWKES_LIGHT_INTENSITY:
        kappa = model.count_param.sample(counts, size)
        if size is None:
            return MarkPair(x, kappa * model.intensity_scale_factor())
        # in place for arrays: the same products, with no second array
        kappa = np.asarray(kappa, dtype=float)
        kappa *= model.intensity_scale_factor()
        return MarkPair(x, kappa)
    if r is Regime.HAWKES_COMONOTONE_INTENSITY:
        return MarkPair(x, x * model.kappa_of_mark_factor())
    raise ModelError(f"unknown regime {r}")  # pragma: no cover


def _check_ceil_pareto(z: ParetoLaw, field: str) -> None:
    """Raise ModelError on ``field`` where scale**alpha, a factor of ceil(Z)'s moments, overflows."""
    try:
        math.pow(z.scale, z.alpha)
    except OverflowError:
        raise ModelError(
            f"scale**alpha = {z.scale:g}**{z.alpha:g} overflows a float, and the count's "
            "moments are formed from it",
            field,
        ) from None


def _ceil_pareto_mean(z: ParetoLaw) -> float:
    """E[ceil(Z)] for Pareto Z, via the Hurwitz zeta tail sum."""
    if z.alpha <= 1:
        raise InfiniteMean("count mean requires alpha > 1 on the count law")
    k0 = math.floor(z.scale) + 1
    return k0 + z.scale**z.alpha * _hurwitz_zeta(z.alpha, k0)


def _ceil_pareto_square(z: ParetoLaw) -> float:
    """E[ceil(Z)**2] for Pareto Z, inf for alpha <= 2.

    It is sum_{k >= 1} (2k - 1) P(ceil Z >= k), and P(ceil Z >= k) is 1 up
    to k0 = floor(scale) + 1 and (scale / (k - 1))**alpha past it, so the
    sum is k0**2 + scale**alpha (2 zeta(alpha - 1, k0) + zeta(alpha, k0)).
    """
    if z.alpha <= 2:
        return math.inf
    k0 = math.floor(z.scale) + 1
    zetas = 2.0 * _hurwitz_zeta(z.alpha - 1.0, k0) + _hurwitz_zeta(z.alpha, k0)
    return k0 * k0 + z.scale**z.alpha * zetas


# B_2, B_4, ..., B_14
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)


def _hurwitz_zeta(s: float, q: float) -> float:
    """The Hurwitz zeta sum_{k >= 0} (q + k)**-s for s > 1 and q > 0, by Euler-Maclaurin.

    The first 16 terms are summed directly.  The rest, from a = q + 16 on,
    is a**(1 - s) / (s - 1) + a**-s / 2 plus the corrections
    B_2j / (2j)! * s (s + 1) ... (s + 2j - 2) * a**(1 - s - 2j) for j = 1 .. 7.
    With q >= 1, so a >= 17, the first one left out is below 1e-19 of the
    sum for every s > 1.
    """
    a = q + 16.0
    total = math.fsum((q + k) ** -s for k in range(16)) + a ** (1.0 - s) / (s - 1.0) + 0.5 * a**-s
    rising, factorial, power = s, 2.0, a ** (-s - 1.0)
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b / factorial * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        factorial *= (2 * j + 1) * (2 * j + 2)
        power /= a * a
    return total


def mean_count(model: JointMarkModel) -> float:
    """E[K] for renewal regimes, E[kappa] for Hawkes regimes."""
    r = model.regime
    if r is Regime.INDEPENDENT_LIGHT_COUNT:
        return float(model.count_param)
    if r in (Regime.INDEPENDENT_HEAVY_COUNT, Regime.INDEPENDENT_TAIL_EQUIVALENT):
        return _ceil_pareto_mean(model.count_param)
    if r is Regime.COMONOTONE_COUNT:
        return _ceil_pareto_mean(model.mark_law)
    return float(model.target_mean_kappa)


def count_variance(model: JointMarkModel) -> float:
    """Var K for the independent-mark renewal regimes, Var kappa for HawkesLightIntensity.

    Only a count control reads it, so the comonotone regimes, whose
    ``count_control_order`` is 0, get inf and nothing is computed for them;
    inf also where the variance is infinite.
    """
    r = model.regime
    if r is Regime.INDEPENDENT_LIGHT_COUNT:
        return float(model.count_param)
    if r is Regime.HAWKES_LIGHT_INTENSITY:
        return model.count_param.variance() * model.intensity_scale_factor() ** 2
    if not model.independent_marks:
        return math.inf
    return _ceil_pareto_square(model.count_param) - _ceil_pareto_mean(model.count_param) ** 2


@dataclass(frozen=True)
class ModelConstants:
    """Exact analytic constants entering the tail asymptotics.

    Family-inapplicable entries are None (renewal models have no Hawkes
    constants and vice versa).  ``mean_cluster_size`` is the expected
    number of points of one cluster, 1 + E[K] or 1 / (1 - E[kappa]), which
    is also the constant of either family's max-tail asymptotics.
    ``cluster_size_variance`` is their variance, the count controls' second
    moment: Var K, or (m + Var kappa) / (1 - m)**3 with m = E[kappa], since a
    Hawkes point has a mixed-Poisson number of children, of mean m and
    variance m + Var kappa (Harris 1963, total progeny of a branching
    process).  It is inf where it is infinite and in the comonotone
    regimes, which no count control reads (see :func:`count_variance`).
    """

    mean_mark: float
    mean_count: float
    sum_shift_hawkes: float | None
    mean_cluster_size: float
    cluster_size_variance: float


def model_constants(model: JointMarkModel) -> ModelConstants:
    """Exact constants for the regime; rejects supercritical / infinite-mean setups."""
    if isinstance(model.mark_law, ParetoLaw) and model.mark_law.alpha <= 1:
        raise InfiniteMean(
            f"mark law alpha={model.mark_law.alpha} has no finite mean", "mark_law.alpha"
        )
    mx = model.mark_law.mean()
    mc = mean_count(model)
    if model.is_hawkes:
        if mc >= 1:
            raise SupercriticalModel(
                f"E[kappa]={mc:g} >= 1 gives infinite clusters", "target_mean_kappa"
            )
        return ModelConstants(
            mean_mark=mx,
            mean_count=mc,
            sum_shift_hawkes=mx / (1.0 - mc),
            mean_cluster_size=1.0 / (1.0 - mc),
            cluster_size_variance=(mc + count_variance(model)) / (1.0 - mc) ** 3,
        )
    return ModelConstants(
        mean_mark=mx,
        mean_count=mc,
        sum_shift_hawkes=None,
        mean_cluster_size=1.0 + mc,
        cluster_size_variance=count_variance(model),
    )


def _poisson_pmf(k, mu):
    """Poisson pmf exp(k log mu - log k! - mu) at integer k (0 for k < 0), for scalar or array mu."""
    k = np.asarray(k)
    kk = np.maximum(k, 0)
    log_factorial = np.fromiter(map(math.lgamma, (kk + 1.0).ravel().tolist()), float, kk.size).reshape(kk.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # mu = 0: log 0 = -inf, and 0 * -inf at k = 0
        k_log_mu = np.where(kk == 0, 0.0, kk * np.log(mu))
    p = np.clip(np.exp(k_log_mu - log_factorial - mu), 0, 1)
    return np.where(k >= 0, p, 0.0)[()]


# Bennett's inequality puts P(K <= mu - t) and P(K >= mu + t) below exp(-L)
# with t = sqrt(2 L mu) and t = L/3 + sqrt(L**2/9 + 2 L mu); at L = 800 both
# lie far below the least positive double
_POISSON_EDGE = 800.0


def _poisson_span(mu: float) -> tuple[int, int]:
    """(lo, hi): P(K < lo) and P(K >= hi) are both below exp(-800) for K ~ Poisson(mu)."""
    lo = max(0, math.floor(mu - math.sqrt(2.0 * _POISSON_EDGE * mu)))
    hi = math.ceil(mu + _POISSON_EDGE / 3 + math.sqrt(_POISSON_EDGE**2 / 9 + 2.0 * _POISSON_EDGE * mu))
    return lo, hi


def _poisson_sf(x, mu):
    """Poisson P(K > x) for scalar or array mu, from pmf terms summed smallest first.

    Below lo of :func:`_poisson_span` the survival is 1 and from hi on 0,
    both to far better than double precision.  Between them it is summed
    from the nearer far tail: from the mode up as sum_{k > x} pmf(k), so a
    deep tail keeps its relative accuracy, and below the mode as
    1 - sum_{k <= x} pmf(k), so a survival near 1 does not take on the
    rounding of all the terms' total.  So at most the O(sqrt(mu)) terms
    between lo and hi are summed, whatever x and mu are.
    """
    n, mus = np.broadcast_arrays(np.floor(np.asarray(x, dtype=float)), np.asarray(mu, dtype=float))
    out = np.where(n < 0, 1.0, np.nan)  # a nan, infinite or negative mean gives nan
    valid = (n >= 0) & np.isfinite(mus) & (mus >= 0)
    for m in set(mus[valid].tolist()):  # not np.unique, which imports numpy.ma
        at = np.flatnonzero(valid & (mus == m))
        lo, hi = _poisson_span(float(m))
        k = n.flat[at]
        out.flat[at] = np.where(k < lo, 1.0, 0.0)
        below = at[(k >= lo) & (k < math.floor(m))]
        if below.size:
            kb = n.flat[below].astype(np.int64)
            head = np.cumsum(_poisson_pmf(np.arange(lo, kb.max() + 1), m))
            out.flat[below] = 1.0 - head[kb - lo]
        above = at[(k >= math.floor(m)) & (k < hi)]
        if above.size:
            ka = n.flat[above].astype(np.int64)
            tail = np.cumsum(_poisson_pmf(np.arange(ka.min() + 1, hi + 1), m)[::-1])[::-1]
            out.flat[above] = tail[ka - ka.min()]
    return out[()]


# Poisson counts by inversion: a mean whose cdf reaches 1.0 (in floats)
# within _POISSON_TABLE_CAP terms is drawn from its table, a larger one by
# numpy.  The uniforms are drawn and inverted a block at a time.
_POISSON_TABLE_CAP = 1 << 10
_POISSON_GUIDE_CELLS = 1 << 12
_POISSON_BLOCK = 1 << 16


@lru_cache(maxsize=64)
def _poisson_table(mu: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The Poisson(mu) cdf up to its first 1.0, and its guide table; None if that is long.

    ``guide[j]`` is the first count whose cdf exceeds ``j / cells``: where
    the inverse of a uniform in cell j starts.
    """
    cdf = 1.0 - _poisson_sf(np.arange(_POISSON_TABLE_CAP), mu)
    full = np.flatnonzero(cdf == 1.0)
    if full.size == 0:
        return None
    cdf = cdf[: full[0] + 1]
    cells = np.arange(_POISSON_GUIDE_CELLS) / _POISSON_GUIDE_CELLS
    guide = np.searchsorted(cdf, cells, side="right")
    for a in (cdf, guide):
        a.setflags(write=False)  # every caller shares the cached arrays
    return cdf, guide


def _poisson_counts(gen: np.random.Generator, mu: float, size=None):
    """Poisson(mu) counts, each by inversion of one uniform where mu has a table.

    A count is ``np.searchsorted(cdf, u, side="right")`` of its uniform u,
    found by a guide table (Chen & Asau 1974; Devroye 1986, ch. III): the
    guide gives where u's cell starts, one compare steps past a cdf jump
    inside the cell, and the rare u whose cell holds more jumps are
    searched.  The uniforms are the generator's next ``size`` doubles, drawn
    a block at a time, so no temporary the size of the sample is made.
    """
    table = _poisson_table(float(mu))
    if table is None:
        return gen.poisson(mu, size)
    cdf, guide = table
    if size is None:
        return int(np.searchsorted(cdf, gen.random(), side="right"))
    k = np.empty(size, dtype=np.intp)
    flat = k.reshape(-1)
    buf = np.empty(min(flat.size, _POISSON_BLOCK))
    for lo in range(0, flat.size, _POISSON_BLOCK):
        part = flat[lo : lo + _POISSON_BLOCK]
        u = gen.random(part.size, out=buf[: part.size])
        np.multiply(u, _POISSON_GUIDE_CELLS, out=part, casting="unsafe")  # u's cell
        # index j is read before part[j] is written, and "clip" leaves ``out`` unbuffered
        np.take(guide, part, out=part, mode="clip")
        part += np.take(cdf, part) <= u
        rest = np.flatnonzero(np.take(cdf, part) <= u)
        part[rest] = np.searchsorted(cdf, u[rest], side="right")
    return k


def count_survival(model: JointMarkModel, x):
    """P(K > x) for integer-count regimes (K = ceil of something or Poisson)."""
    r = model.regime
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if r is Regime.INDEPENDENT_LIGHT_COUNT:
        out = _poisson_sf(xs, model.count_param)
    elif r in (Regime.INDEPENDENT_HEAVY_COUNT, Regime.INDEPENDENT_TAIL_EQUIVALENT):
        # ceil(Z) > x  iff  Z > floor(x)
        out = np.asarray(model.count_param.survival(np.floor(xs)))
    elif r is Regime.COMONOTONE_COUNT:
        out = np.asarray(model.mark_law.survival(np.floor(xs)))
    else:
        raise ModelError("count_survival applies to renewal regimes only")
    return out if np.ndim(x) else float(out[0])


# ---------------------------------------------------------------------------
# Exact joint-tail terms P(X + c*count > x)


def _count_pmf(model: JointMarkModel, kmax: int) -> np.ndarray:
    """P(K = k) for k = 0 .. kmax - 1: Poisson terms, or the survival steps of K = ceil(Z)."""
    ks = np.arange(kmax)
    if model.regime is Regime.INDEPENDENT_LIGHT_COUNT:
        return _poisson_pmf(ks, model.count_param)
    # P(ceil Z = k) = P(Z > k - 1) - P(Z > k)
    sf = np.asarray(model.count_param.survival(np.arange(-1.0, kmax)))
    return sf[:-1] - sf[1:]


def _sum_tail_hawkes(model: JointMarkModel, c: float, x: float) -> float:
    """P(X + c*kappa > x) for the Hawkes regimes."""
    law = model.mark_law
    if model.regime is Regime.HAWKES_COMONOTONE_INTENSITY:
        r = model.kappa_of_mark_factor()
        return float(law.survival(x / (1.0 + c * r)))
    # light intensity: kappa = s*U with U ~ base law, independent of X
    s = model.intensity_scale_factor()
    if s == 0.0:
        return float(law.survival(x))
    base = model.count_param
    if isinstance(base, Constant):
        return float(law.survival(x - c * s * base.value))
    if isinstance(base, BoundedUniform):
        lo, hi = s * base.lo, s * base.hi
        # E[survival(x - c*kappa)] = (1/(c(hi-lo))) * int_{x-c*hi}^{x-c*lo} sf(t) dt
        return law.survival_integral(x - c * hi, x - c * lo) / (c * (hi - lo))
    if isinstance(base, Exponential):
        # kappa ~ Exponential(rate/s); integrate sf_X against its density
        rate = base.rate / s
        from scipy.integrate import quad

        val, _ = quad(
            lambda u: rate * math.exp(-rate * u) * float(law.survival(x - c * u)),
            0.0,
            np.inf,
            limit=200,
        )
        return min(1.0, val)
    raise ModelError("unsupported intensity base law")  # pragma: no cover


def joint_tail_exact(model: JointMarkModel, c: float, x) -> np.ndarray | float:
    """P(X + c*count > x) evaluated exactly, for c > 0, over the whole grid x at once.

    * Independent counts: condition on K.  From k0, the first count with
      x - c k0 at or below the mark support, every mark qualifies, so the
      term is sum_{k < k0} P(K = k) P(X > x - c k) + P(K >= k0); one pmf up
      to the grid's largest k0 serves every x.
    * ComonotoneCount: X + c ceil(X) increases with X, so the event is
      {X > t}.  With k = ceil(x / (1 + c)), X <= k - 1 falls short of x and
      X > k exceeds it, and on (k - 1, k] the sum is X + c k: so
      t = max(k - 1, x - c k).
    * Hawkes: one x at a time, by :func:`_sum_tail_hawkes`.
    """
    if not c > 0:
        raise ModelError(f"the shift c must be positive, got {c}", "c")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    law = model.mark_law
    if model.is_hawkes:
        out = np.array([_sum_tail_hawkes(model, c, xi) for xi in xs])
    elif model.regime is Regime.COMONOTONE_COUNT:
        k = np.ceil(xs / (1.0 + c))
        out = np.asarray(law.survival(np.maximum(k - 1.0, xs - c * k)))
    else:
        k0 = np.maximum(np.ceil((xs - law.support_min) / c), 0.0).astype(np.int64)
        pmf = _count_pmf(model, int(k0.max(initial=0)))
        out = np.asarray(count_survival(model, k0 - 1.0))  # P(K >= k0)
        for i, k in enumerate(k0):
            out[i] += pmf[:k] @ law.survival(xs[i] - c * np.arange(k))
    return out if np.ndim(x) else float(out[0])


# ---------------------------------------------------------------------------
# Monte Carlo oracle for the joint-tail terms


@dataclass(frozen=True)
class OracleSpec:
    """How to draw the MC-oracle joint tails: sample size and seed."""

    size: int = 10_000_000
    seed: int = 0


# an oracle chunk's tracemalloc peak per draw: X, the count and their sum.
# Measured at 24.0 to 24.3 B, and 32.0 B where the count is ceil(Pareto)
_ORACLE_DRAW_BYTES = 33


def _oracle_counts(model: JointMarkModel, c: float, xs: np.ndarray, m: int, rng: RngStream):
    """How many of m joint draws have X + c*count > x, for each x of ``xs``."""
    gen = rng.generator
    pair = sample_joint(model, gen, gen, m)
    # the same sums as x + c * float(count), built and sorted in one array
    total = np.multiply(pair.count, c, dtype=float)
    total += pair.x
    del pair
    total.sort()
    return m - np.searchsorted(total, xs, side="right")


def joint_tail_mc(model: JointMarkModel, c: float, x, spec: OracleSpec) -> np.ndarray:
    """P(X + c*count > x) by high-precision MC: ``spec.size`` draws from ``spec.seed``.

    The draws depend only on the model and the spec, so a rerun reproduces
    the probabilities bit for bit.
    """
    from .clusters import _chunk_size, chunked_map  # clusters imports this module

    xs = np.atleast_1d(np.asarray(x, dtype=float))
    kernel = partial(_oracle_counts, model, c, xs)
    chunk = _chunk_size(_ORACLE_DRAW_BYTES, 1 << 12, 1 << 20)
    # root 1: an experiment runs on root 0, so at equal seeds the two share no draws
    parts = chunked_map(kernel, spec.size, chunk, RngStream(spec.seed, 1))
    return sum(parts, np.zeros(len(xs), dtype=np.int64)) / float(spec.size)


# ---------------------------------------------------------------------------
# The asymptotic denominators


def denominator_label(model: JointMarkModel, functional: str) -> str:
    """The family and functional of a denominator, e.g. 'renewal-max' or 'hawkes-sum'."""
    return f"{'hawkes' if model.is_hawkes else 'renewal'}-{functional}"


def theoretical_denominator(
    model: JointMarkModel,
    functional: str,
    x,
    *,
    oracle: OracleSpec | None = None,
):
    """The asymptotic tail approximation of the cluster ``functional`` ('max' or 'sum') at x.

    The model's family picks the formula:

    * renewal max:  (1 + E[K]) * P(X > x)
    * renewal sum:  P(X + E[X] K > x) + E[K] P(X > x)
    * hawkes max:   P(X > x) / (1 - E[kappa])
    * hawkes sum:   P(X + (E[X]/(1-E[kappa])) kappa > x) / (1 - E[kappa])

    The joint-tail term of the sums is the exact series/integral, or, when
    ``oracle`` is given, the MC oracle drawn as it says.
    """
    if functional not in ("max", "sum"):
        raise ModelError(f"must be 'max' or 'sum', got {functional!r}", "functional")
    consts = model_constants(model)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0):
        raise ModelError("denominator requires x > 0", "x")

    if functional == "max":
        out = consts.mean_cluster_size * np.asarray(model.mark_law.survival(xs))
    else:
        c = consts.sum_shift_hawkes if model.is_hawkes else consts.mean_mark
        jt = joint_tail_mc(model, c, xs, oracle) if oracle else joint_tail_exact(model, c, xs)
        if model.is_hawkes:
            out = consts.mean_cluster_size * jt
        else:
            out = jt + consts.mean_count * np.asarray(model.mark_law.survival(xs))
    return out if np.ndim(x) else float(out[0])
