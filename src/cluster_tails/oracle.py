"""Exact brute-force tail distributions on small discrete instances.

These oracles are the ground truth the simulators are checked against: the
renewal max tail by direct enumeration, the renewal sum tail by exact
lattice convolution, and the Hawkes sum tail by inverting its pgf on the
lattice, with a printed bound on its aliasing and rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .clusters import _chunk_size, _renewal_functionals, chunked_fill, chunked_map
from .errors import LatticeMismatch, ModelError, SupercriticalModel
from .heavytail import _SIZE_LAW_POINTS, _dft
from .rng import RngStream

__all__ = [
    "DiscreteJointModel",
    "exact_renewal_max_tail",
    "exact_renewal_sum_tail",
    "exact_renewal_sum_distribution",
    "exact_renewal_max_distribution",
    "hawkes_sum_tail",
    "renewal_functional_chunks",
    "sample_renewal_functionals",
]

_PROB_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteJointModel:
    """Finite joint law of (X, K) or (X, kappa) with a finite offspring law.

    ``support`` rows are (x_value, k_or_kappa, probability).  For the
    renewal kind the second entry is a nonnegative integer count and
    ``offspring_support`` gives the i.i.d. offspring mark law.  For the
    hawkes kind the second entry is a branching intensity; every node
    (immigrant or offspring) redraws its (mark, kappa) pair from
    ``support``, whose mean intensity must be below 1.
    """

    kind: str
    support: tuple[tuple[float, float, float], ...]
    offspring_support: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("renewal", "hawkes"):
            raise ModelError("kind must be 'renewal' or 'hawkes'", "kind")
        if not self.support:
            raise ModelError("empty joint support", "support")
        total = sum(p for _, _, p in self.support)
        if abs(total - 1.0) > _PROB_TOL:
            raise ModelError(f"joint probabilities sum to {total!r}, not 1", "support")
        if any(x < 0 or k < 0 or p < 0 for x, k, p in self.support):
            raise ModelError("support entries must be nonnegative", "support")
        if self.kind == "renewal":
            if not self.offspring_support:
                raise ModelError("renewal kind needs an offspring law", "offspring_support")
            ot = sum(p for _, p in self.offspring_support)
            if abs(ot - 1.0) > _PROB_TOL:
                raise ModelError(
                    f"offspring probabilities sum to {ot!r}, not 1", "offspring_support"
                )
            if any(k != int(k) for _, k, _ in self.support):
                raise ModelError("renewal counts must be integers", "support")
        else:
            m = sum(p * kappa for _, kappa, p in self.support)
            if not m < 1.0:
                raise SupercriticalModel(
                    f"mean intensity {m!r} is not below 1: the cascade is not subcritical", "support"
                )


def _float_gcd(a: float, b: float, tol: float) -> float:
    while b > tol:
        a, b = b, a % b
    return a


def _lattice_step(values) -> float:
    """Common grid step of the given nonnegative values, to 1e-9 of the largest."""
    vals = sorted({float(v) for v in values if v > 0})
    if not vals:
        return 1.0
    tol = 1e-9 * vals[-1]
    g = vals[0]
    for v in vals[1:]:
        g = _float_gcd(max(g, v), min(g, v), tol)
    if g <= tol:
        raise LatticeMismatch("values share no common grid step")
    for v in vals:
        ratio = v / g
        if abs(ratio - round(ratio)) > 1e-6:
            raise LatticeMismatch(f"value {v!r} is not a multiple of step {g!r}")
    return g


def exact_renewal_max_tail(model: DiscreteJointModel, x: float) -> float:
    """P(H > x) by direct enumeration over the joint support."""
    if model.kind != "renewal":
        raise ModelError("max oracle needs a renewal-kind model", "kind")
    p_off_le = sum(p for mark, p in model.offspring_support if mark <= x)
    below = sum(
        p * p_off_le ** int(k) for x0, k, p in model.support if x0 <= x
    )
    return 1.0 - below


def exact_renewal_max_distribution(
    model: DiscreteJointModel,
) -> tuple[np.ndarray, np.ndarray]:
    """All attainable H values with their exact probabilities."""
    values = sorted(
        {x0 for x0, _, _ in model.support}
        | {m for m, _ in model.offspring_support}
    )
    cdf = np.array([1.0 - exact_renewal_max_tail(model, v) for v in values])
    pmf = np.diff(np.concatenate(([0.0], cdf)))
    return np.asarray(values, dtype=float), pmf


# the most lattice cells that an exact law of D takes, either kind: the
# hawkes kind's transform reach.  A renewal law of 16,016 cells convolves in
# about 13 ms, and the convolution is quadratic in the cells
_LATTICE_CELLS = _SIZE_LAW_POINTS // 4


def _renewal_lattice(model: DiscreteJointModel) -> tuple[float, int, int]:
    """(step, mark cells, cells): the lattice step of D, an offspring mark's cells and D's.

    Raises :class:`LatticeMismatch` when the marks share no step, and
    :class:`ModelError` on field ``support`` when D would pass
    ``_LATTICE_CELLS`` cells, before anything is allocated.
    """
    xs = [x0 for x0, _, _ in model.support]
    marks = [m for m, _ in model.offspring_support]
    step = _lattice_step(xs + marks)
    mark_cells = round(max(marks) / step) + 1
    cells = round(max(xs) / step) + int(max(k for _, k, _ in model.support)) * (mark_cells - 1) + 1
    if cells > _LATTICE_CELLS:
        raise ModelError(
            f"D spans {cells} lattice cells of step {step:g}: the exact law takes at most {_LATTICE_CELLS}",
            "support",
        )
    return step, mark_cells, cells


def _sum_distribution(model: DiscreteJointModel) -> tuple[float, np.ndarray]:
    """(step, pmf) of D on the common lattice, by exact convolution."""
    step, off_len, out_len = _renewal_lattice(model)
    q = np.zeros(off_len)
    for m, p in model.offspring_support:
        q[int(round(m / step))] += p

    counts = {int(k) for _, k, _ in model.support}
    acc = np.zeros(out_len)
    conv = np.array([1.0])  # zero-fold convolution: point mass at 0
    powers = {0: conv}
    # only the counts of the support keep their power: K powers would hold K**2 cells
    for k in range(1, max(counts) + 1):
        conv = np.convolve(conv, q)
        if k in counts:
            powers[k] = conv
    for x0, k, p in model.support:
        shift = int(round(x0 / step))
        vec = powers[int(k)]
        acc[shift : shift + len(vec)] += p * vec
    return step, acc


def exact_renewal_sum_distribution(
    model: DiscreteJointModel,
) -> tuple[np.ndarray, np.ndarray]:
    """All attainable D values (lattice) with their exact probabilities."""
    if model.kind != "renewal":
        raise ModelError("sum oracle needs a renewal-kind model", "kind")
    step, pmf = _sum_distribution(model)
    return step * np.arange(len(pmf)), pmf


def exact_renewal_sum_tail(model: DiscreteJointModel, x: float) -> float:
    """P(D > x) by exact k-fold lattice convolution."""
    values, pmf = exact_renewal_sum_distribution(model)
    return float(pmf[values > x + 1e-9 * values[-1]].sum())


# ---------------------------------------------------------------------------
# The Hawkes cluster sum by its transform


def _hawkes_lattice(model: DiscreteJointModel, x: float) -> tuple[float, int, int]:
    """(step, cells, n): the lattice step of D, its cells 0 .. cells - 1 up to ``x``, and the transform's points.

    n is the least power of two of at least 4 * cells.  Raises
    :class:`ModelError` on field ``x``, before anything is allocated, when
    the cells would pass ``_LATTICE_CELLS``, so n ``_SIZE_LAW_POINTS``.
    """
    if model.kind != "hawkes":
        raise ModelError("hawkes oracle needs a hawkes-kind model", "kind")
    step = _lattice_step([x0 for x0, _, _ in model.support])
    last = max(x, 0.0) / step + 1e-9  # the last cell is its floor
    if not last < _LATTICE_CELLS:
        raise ModelError(
            f"x={x:g} is {last:.0f} lattice steps of {step:g}: the transform takes at most "
            f"{_LATTICE_CELLS} cells",
            "x",
        )
    cells = math.floor(last) + 1
    return step, cells, 1 << (4 * cells - 1).bit_length()


def hawkes_sum_tail(model: DiscreteJointModel, x_grid) -> list[tuple[float, float, float]]:
    """(P(D > x), lower, upper) for each x of ``x_grid``, D the sum of the marks of a discrete Hawkes cluster.

    Each node draws a row (x_i, kappa_i, p_i) of ``support`` and has
    Poisson(kappa_i) children, each the root of a copy of the cluster.  So
    u = G - 1, with G(z) = E[z**(D / step)] and c_i = x_i / step, solves
    u = sum_i p_i (exp(c_i log z + kappa_i u) - 1) (Harris 1963).  For
    |z| <= 1 the right side maps the unit disc about -1 into itself with
    slope at most m = sum_i p_i kappa_i < 1, so the root there is unique.
    Newton's method finds it from the childless u = E[z**c] - 1 at the
    points z_j = theta exp(2 pi i j / n) of the upper half circle, with
    theta**n = exp(-30), and stops once each step is down to rounding.
    Summed as expm1, u keeps its relative accuracy near z = 1.

    The tails' transform (1 - G) / (1 - z) = sum_k P(D > k step) z**k is
    inverted by one :func:`~cluster_tails.heavytail._dft`: cell k reads
    P(D > k step) plus its aliases sum_r P(D > (k + r n) step) theta**(r n),
    at most theta**n / (1 - theta**n) (Abate & Whitt 1992).  Rounding is
    bounded by each point's last Newton step or its stopping tolerance,
    whichever is larger, and 8 log2(n) eps of the largest transform value
    for the transform itself, both scaled by theta**-k at the last cell.
    One bound serves the grid, so ``upper`` never rises with x, and the
    tails are kept from rising with x too.  An x below the least mark reads
    exactly (1.0, 1.0, 1.0), since D is at least the immigrant's mark.
    """
    step, cells, n = _hawkes_lattice(model, max(x_grid))
    rows = [(round(x0 / step), kappa, p) for x0, kappa, p in model.support]
    m = sum(p * kappa for _, kappa, p in rows)
    mean_c = sum(p * c for c, _, p in rows)
    eps = np.finfo(float).eps
    half = n // 2
    log_z = -30.0 / n + 2j * np.pi * (np.arange(half + 1) / n)
    u = sum(p * np.expm1(c * log_z) for c, _, p in rows)
    for _ in range(50):
        f, slope = u.copy(), np.ones_like(u)
        for c, kappa, p in rows:
            w = np.expm1(c * log_z + kappa * u)
            f -= p * w
            slope -= p * kappa * (w + 1.0)
        newton = f / slope
        u -= newton
        tol = 16 * eps * ((1.0 + m) * np.abs(u) + mean_c * np.abs(log_z)) / (1.0 - m)
        if np.all(np.abs(newton) <= tol):
            break
    z_less_1 = np.expm1(log_z)
    values = np.empty(n, dtype=complex)
    values[: half + 1] = u / z_less_1
    values[half + 1 :] = np.conj(values[half - 1 : 0 : -1])
    rounding = (np.maximum(np.abs(newton), tol) / np.abs(z_less_1)).max()
    rounding += 8 * math.log2(n) * eps * np.abs(values).max()
    growth = np.exp(30.0 / n * np.arange(cells))  # theta**-k
    tail = _dft(values)[:cells].real / n * growth
    error = 1.0 / math.expm1(30.0) + float(growth[-1] * rounding)
    least = min(c for c, _, _ in rows)
    tail[:least] = 1.0
    tail = np.minimum.accumulate(np.clip(tail, 0.0, 1.0))
    out = []
    for x in x_grid:
        k = math.floor(x / step + 1e-9)
        if k < least:
            out.append((1.0, 1.0, 1.0))
        else:
            v = float(tail[k])
            out.append((v, max(v - error, 0.0), min(v + error, 1.0)))
    return out


# ---------------------------------------------------------------------------
# Monte Carlo on the same discrete instances (for oracle-vs-simulation checks)


# a discrete renewal chunk's tracemalloc peak: the row draw, X, K, H and D
# per cluster, the mark draw, segment index and mark per offspring.
# Measured at 64.0 B per cluster at E[K] = 1.5 and 119.7 at E[K] = 5
_SAMPLE_CLUSTER_BYTES, _SAMPLE_OFFSPRING_BYTES = 41, 16


# the most support points that _choose inverts by dense compares; past it a
# binary search costs less (about 25 against 35 ns a draw at 32 points, 50
# against 44 at 64, 219 against 61 at 256)
_DENSE_POINTS = 32


def _choose(gen: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """``gen.choice(p.size, size, p=p)``, the same draws: each the number of cdf values at or below one uniform.

    The cdf is numpy's: the cumulative sum of p divided by its last value,
    so it ends at 1.0, and ``choice`` searches it as here.  Up to
    ``_DENSE_POINTS`` points one dense compare per point costs less than
    the search (about 5 against 14 ns a draw at 4 points).
    """
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    u = gen.random(size)
    if cdf.size > _DENSE_POINTS:
        return cdf.searchsorted(u, side="right")
    k = np.zeros(size, dtype=np.int64)
    for c in cdf[:-1]:
        k += c <= u
    return k


def _discrete_renewal_chunk(model: DiscreteJointModel, n: int, rng: RngStream) -> dict:
    gen = rng.generator
    xs = np.array([x0 for x0, _, _ in model.support])
    ks = np.array([int(k) for _, k, _ in model.support], dtype=np.int64)
    ps = np.array([p for _, _, p in model.support])
    marks = np.array([m for m, _ in model.offspring_support])
    mps = np.array([p for _, p in model.offspring_support])

    rows = _choose(gen, ps, n)
    x = xs[rows]
    k = ks[rows]
    total = int(k.sum())
    off = marks[_choose(gen, mps, total)]
    return _renewal_functionals(x, k, off, ("h", "d"))


def _renewal_sampler(model: DiscreteJointModel, n: int) -> tuple[partial, int]:
    """The discrete renewal sampler's chunk kernel and chunk size, its arguments checked first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if model.kind != "renewal":
        raise ModelError("renewal sampler needs a renewal-kind model", "kind")
    per_cluster = _SAMPLE_CLUSTER_BYTES + _SAMPLE_OFFSPRING_BYTES * sum(
        k * p for _, k, p in model.support
    )
    return partial(_discrete_renewal_chunk, model), _chunk_size(per_cluster, 1 << 12, 1 << 18)


def renewal_functional_chunks(model: DiscreteJointModel, n: int, rng: RngStream, workers: int = 1):
    """n i.i.d. (H, D) pairs of a discrete renewal cluster law, chunk by chunk.

    Each chunk is a dict of its "h" and "d" arrays, yielded in chunk order;
    chunk i draws from ``rng.child(i)``, so the chunks are the same for any
    worker count.
    """
    kernel, chunk = _renewal_sampler(model, n)
    return chunked_map(kernel, n, chunk, rng, workers)


def sample_renewal_functionals(
    model: DiscreteJointModel, n: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`renewal_functional_chunks`' chunks joined into the arrays (H, D) of n."""
    kernel, chunk = _renewal_sampler(model, n)
    out = chunked_fill(kernel, n, chunk, rng)
    return out["h"], out["d"]
