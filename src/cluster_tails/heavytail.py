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
from scipy import special

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


@dataclass(frozen=True)
class ParetoLaw:
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
class Exponential:
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

    def sample(self, gen: np.random.Generator, size=None):
        return gen.exponential(1.0 / self.rate, size)

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

        S_r is Gamma(r, rate), so this is t P(r, rate t) - (r/rate) P(r + 1, rate t)
        with P the regularized lower incomplete gamma function.
        """
        x = self.rate * t
        gap = t * special.gammainc(r, x) - r / self.rate * special.gammainc(r + 1, x)
        return np.maximum(gap, 0.0)  # where both terms are tiny they may round below 0


@dataclass(frozen=True)
class Constant:
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

    def sample(self, gen: np.random.Generator, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

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
class BoundedUniform:
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

    def sample(self, gen: np.random.Generator, size=None):
        return gen.uniform(self.lo, self.hi, size)

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
    """One joint draw: the mark X and its count K (renewal) or kappa (Hawkes)."""

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
        elif r is Regime.HAWKES_LIGHT_INTENSITY:
            if not isinstance(self.count_param, (Exponential, Constant, BoundedUniform)):
                raise ModelError("count_param must be a light law", "count_param")
        if r in _HAWKES_REGIMES:
            if self.target_mean_kappa is None or self.target_mean_kappa < 0:
                raise ModelError(
                    "Hawkes regimes need target_mean_kappa >= 0", "target_mean_kappa"
                )
        if r is Regime.COMONOTONE_COUNT and not isinstance(self.mark_law, ParetoLaw):
            raise ModelError("comonotone counts need a Pareto mark law", "mark_law")

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


def sample_joint(model: JointMarkModel, rng: RngStream, size=None) -> MarkPair:
    """Draw (X, K) or (X, kappa) from the regime's joint law.

    Draw order per regime is fixed (mark first, then count variable) so that
    identical streams reproduce identical pairs bit for bit.
    """
    gen = rng.generator
    r = model.regime
    x = model.mark_law.sample(gen, size)
    if r is Regime.INDEPENDENT_LIGHT_COUNT:
        return MarkPair(x, _poisson_counts(gen, model.count_param, size))
    if r in (Regime.INDEPENDENT_HEAVY_COUNT, Regime.INDEPENDENT_TAIL_EQUIVALENT):
        z = model.count_param.sample(gen, size)
        k = np.ceil(z).astype(np.int64) if size is not None else int(math.ceil(z))
        return MarkPair(x, k)
    if r is Regime.COMONOTONE_COUNT:
        k = np.ceil(x).astype(np.int64) if size is not None else int(math.ceil(x))
        return MarkPair(x, k)
    if r is Regime.HAWKES_LIGHT_INTENSITY:
        kappa = model.count_param.sample(gen, size)
        if size is None:
            return MarkPair(x, kappa * model.intensity_scale_factor())
        # in place for arrays: the same products, with no second array
        kappa = np.asarray(kappa, dtype=float)
        kappa *= model.intensity_scale_factor()
        return MarkPair(x, kappa)
    if r is Regime.HAWKES_COMONOTONE_INTENSITY:
        return MarkPair(x, x * model.kappa_of_mark_factor())
    raise ModelError(f"unknown regime {r}")  # pragma: no cover


def _ceil_pareto_mean(z: ParetoLaw) -> float:
    """E[ceil(Z)] for Pareto Z, via the Hurwitz zeta tail sum."""
    if z.alpha <= 1:
        raise InfiniteMean("count mean requires alpha > 1 on the count law")
    k0 = math.floor(z.scale) + 1
    return k0 + z.scale**z.alpha * special.zeta(z.alpha, k0)


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


@dataclass(frozen=True)
class ModelConstants:
    """Exact analytic constants entering the tail asymptotics.

    Family-inapplicable entries are None (renewal models have no Hawkes
    constants and vice versa).  ``mean_cluster_size`` is the expected
    number of points of one cluster, 1 + E[K] or 1 / (1 - E[kappa]), which
    is also the constant of either family's max-tail asymptotics.
    """

    mean_mark: float
    mean_count: float
    sum_shift_hawkes: float | None
    mean_cluster_size: float


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
        )
    return ModelConstants(
        mean_mark=mx,
        mean_count=mc,
        sum_shift_hawkes=None,
        mean_cluster_size=1.0 + mc,
    )


def _poisson_pmf(k, mu):
    """Poisson pmf at integer k, by the formula of scipy.stats.poisson (bit for bit)."""
    k = np.asarray(k)
    kk = np.maximum(k, 0)
    p = np.clip(np.exp(special.xlogy(kk, mu) - special.gammaln(kk + 1) - mu), 0, 1)
    return np.where(k >= 0, p, 0.0)[()]


def _poisson_sf(x, mu):
    """Poisson P(K > x), by the formula of scipy.stats.poisson (bit for bit)."""
    x = np.asarray(x)
    return np.where(x < 0, 1.0, np.clip(special.pdtrc(np.floor(x), mu), 0, 1))[()]


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


def _count_pmf_and_sf(model: JointMarkModel, kmax: int):
    """pmf on 0..kmax-1 and P(K >= kmax) for integer-count regimes."""
    r = model.regime
    ks = np.arange(kmax)
    if r is Regime.INDEPENDENT_LIGHT_COUNT:
        pmf = _poisson_pmf(ks, model.count_param)
        tail = float(_poisson_sf(kmax - 1, model.count_param))
        return pmf, tail
    if r in (Regime.INDEPENDENT_HEAVY_COUNT, Regime.INDEPENDENT_TAIL_EQUIVALENT):
        z = model.count_param
        # P(ceil Z = k) = P(Z > k-1) - P(Z > k); P(K >= kmax) = P(Z > kmax-1)
        sf_prev = np.asarray(z.survival(ks - 1.0))
        sf_k = np.asarray(z.survival(ks.astype(float)))
        pmf = sf_prev - sf_k
        tail = float(z.survival(float(kmax - 1)))
        return pmf, tail
    raise ModelError("independent-count series applies to independent regimes only")


def _sum_tail_independent_count(model: JointMarkModel, c: float, x: float) -> float:
    """P(X + c*K > x) for K independent of X, by conditioning on K."""
    lo = model.mark_law.support_min
    if x <= lo:
        return 1.0
    if c <= 0:
        return float(model.mark_law.survival(x))
    # smallest k with x - c*k <= lo: whole mark support qualifies from there on
    k0 = max(0, math.ceil((x - lo) / c))
    if k0 == 0:
        return 1.0
    pmf, tail = _count_pmf_and_sf(model, k0)
    ks = np.arange(k0)
    vals = np.asarray(model.mark_law.survival(x - c * ks))
    return float(np.dot(pmf, vals) + tail)


def _sum_tail_comonotone_count(model: JointMarkModel, c: float, x: float) -> float:
    """P(X + c*ceil(X) > x) for Pareto X, by slicing on K = ceil(X)."""
    law = model.mark_law
    lo = law.support_min
    if x <= lo:
        return 1.0
    total = 0.0
    k = math.floor(lo) + 1
    while True:
        slice_lo = max(lo, float(k - 1))
        if x - c * k <= slice_lo:
            # the whole remaining tail {X > slice_lo} qualifies
            total += float(law.survival(slice_lo))
            break
        threshold = x - c * k
        if threshold < k:
            total += float(law.survival(threshold)) - float(law.survival(float(k)))
        k += 1
    return min(1.0, total)


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
    """P(X + c*count > x) evaluated exactly (series / slicing / integral)."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    r = model.regime
    if r in (
        Regime.INDEPENDENT_LIGHT_COUNT,
        Regime.INDEPENDENT_HEAVY_COUNT,
        Regime.INDEPENDENT_TAIL_EQUIVALENT,
    ):
        out = np.array([_sum_tail_independent_count(model, c, xi) for xi in xs])
    elif r is Regime.COMONOTONE_COUNT:
        out = np.array([_sum_tail_comonotone_count(model, c, xi) for xi in xs])
    else:
        out = np.array([_sum_tail_hawkes(model, c, xi) for xi in xs])
    return out if np.ndim(x) else float(out[0])


# ---------------------------------------------------------------------------
# Monte Carlo oracle for the joint-tail terms


@dataclass(frozen=True)
class OracleSpec:
    """How to draw the MC-oracle joint tails: sample size and seed."""

    size: int = 10_000_000
    seed: int = 0


_ORACLE_CHUNK = 1 << 20


def _oracle_counts(model: JointMarkModel, c: float, xs: np.ndarray, m: int, rng: RngStream):
    """How many of m joint draws have X + c*count > x, for each x of ``xs``."""
    pair = sample_joint(model, rng, m)
    total = np.sort(pair.x + c * np.asarray(pair.count, dtype=float))
    return m - np.searchsorted(total, xs, side="right")


def _oracle_compute(model: JointMarkModel, c: float, xs: np.ndarray, spec: OracleSpec) -> np.ndarray:
    from .clusters import chunked_map  # clusters imports this module

    kernel = partial(_oracle_counts, model, c, xs)
    # root 1: an experiment runs on root 0, so at equal seeds the two share no draws
    parts = chunked_map(kernel, spec.size, _ORACLE_CHUNK, RngStream(spec.seed, 1))
    return sum(parts, np.zeros(len(xs), dtype=np.int64)) / float(spec.size)


def joint_tail_mc(model: JointMarkModel, c: float, x, spec: OracleSpec) -> np.ndarray:
    """P(X + c*count > x) by high-precision MC: ``spec.size`` draws from ``spec.seed``.

    The draws depend only on the model and the spec, so a rerun reproduces
    the probabilities bit for bit.
    """
    return _oracle_compute(model, c, np.atleast_1d(np.asarray(x, dtype=float)), spec)


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
    joint: str = "closed",
    oracle: OracleSpec | None = None,
):
    """The asymptotic tail approximation of the cluster ``functional`` ('max' or 'sum') at x.

    The model's family picks the formula:

    * renewal max:  (1 + E[K]) * P(X > x)
    * renewal sum:  P(X + E[X] K > x) + E[K] P(X > x)
    * hawkes max:   P(X > x) / (1 - E[kappa])
    * hawkes sum:   P(X + (E[X]/(1-E[kappa])) kappa > x) / (1 - E[kappa])

    ``joint`` selects how the joint-tail term of the sums is computed:
    ``"closed"`` (exact series/integral) or ``"mc"`` (the MC oracle drawn as
    ``oracle`` says; None means the default :class:`OracleSpec`).
    """
    if functional not in ("max", "sum"):
        raise ModelError(f"must be 'max' or 'sum', got {functional!r}", "functional")
    consts = model_constants(model)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0):
        raise ModelError("denominator requires x > 0", "x")

    if functional == "max":
        out = consts.mean_cluster_size * np.asarray(model.mark_law.survival(xs))
    elif model.is_hawkes:
        jt = _joint_term(model, consts.sum_shift_hawkes, xs, joint, oracle)
        out = consts.mean_cluster_size * jt
    else:
        jt = _joint_term(model, consts.mean_mark, xs, joint, oracle)
        out = jt + consts.mean_count * np.asarray(model.mark_law.survival(xs))
    return out if np.ndim(x) else float(out[0])


def _joint_term(model, c, xs, joint, oracle):
    if joint == "closed":
        return np.asarray(joint_tail_exact(model, c, xs))
    if joint == "mc":
        return joint_tail_mc(model, c, xs, oracle or OracleSpec())
    raise ModelError(f"joint must be 'closed' or 'mc', got {joint!r}")
