"""Exact brute-force tail distributions on small discrete instances.

These oracles are the ground truth the simulators are checked against: the
renewal max tail by direct enumeration, the renewal sum tail by exact
lattice convolution, and the Hawkes sum tail by a rigorous bracket over a
truncated branching tree (the Poisson offspring law is unbounded, so
exactness is only achievable as an interval).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clusters import _renewal_functionals
from .errors import LatticeMismatch, ModelError
from .heavytail import _poisson_pmf, _poisson_sf
from .rng import RngStream

__all__ = [
    "DiscreteJointModel",
    "exact_renewal_max_tail",
    "exact_renewal_sum_tail",
    "exact_renewal_sum_distribution",
    "exact_renewal_max_distribution",
    "truncated_hawkes_sum_tail",
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
    ``support``, and ``max_children``/``max_depth`` bound the explored tree.
    """

    kind: str
    support: tuple[tuple[float, float, float], ...]
    offspring_support: tuple[tuple[float, float], ...] = ()
    max_children: int = 0
    max_depth: int = 0

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
            if self.max_children < 0 or self.max_depth < 0:
                raise ModelError("truncation parameters must be >= 0", "max_children")

    @classmethod
    def from_csv(
        cls,
        joint_path: str | Path,
        offspring_path: str | Path | None = None,
        *,
        kind: str = "renewal",
        max_children: int = 0,
        max_depth: int = 0,
    ) -> "DiscreteJointModel":
        """Load from plain CSVs: (x_value, k_value_or_kappa, probability) and
        optionally (mark, probability)."""
        support = []
        with open(joint_path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].startswith("#") or row[0] == "x_value":
                    continue
                support.append((float(row[0]), float(row[1]), float(row[2])))
        offspring = []
        if offspring_path is not None:
            with open(offspring_path, newline="") as fh:
                for row in csv.reader(fh):
                    if not row or row[0].startswith("#") or row[0] == "mark":
                        continue
                    offspring.append((float(row[0]), float(row[1])))
        return cls(
            kind=kind,
            support=tuple(support),
            offspring_support=tuple(offspring),
            max_children=max_children,
            max_depth=max_depth,
        )


def _float_gcd(a: float, b: float, tol: float = 1e-9) -> float:
    while b > tol:
        a, b = b, a % b
    return a


def _lattice_step(values) -> float:
    """Common grid step of the given nonnegative values."""
    vals = sorted({float(v) for v in values if v > 0})
    if not vals:
        return 1.0
    g = vals[0]
    for v in vals[1:]:
        g = _float_gcd(max(g, v), min(g, v))
    if g <= 1e-9:
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


def _sum_distribution(model: DiscreteJointModel) -> tuple[float, np.ndarray]:
    """(step, pmf) of D on the common lattice, by exact convolution."""
    marks = [m for m, _ in model.offspring_support]
    xs = [x0 for x0, _, _ in model.support]
    step = _lattice_step(xs + marks)
    off_len = int(round(max(marks) / step)) + 1 if marks else 1
    q = np.zeros(off_len)
    for m, p in model.offspring_support:
        q[int(round(m / step))] += p

    kmax = int(max(k for _, k, _ in model.support))
    xmax_idx = int(round(max(xs) / step)) if xs else 0
    out_len = xmax_idx + kmax * (off_len - 1) + 1
    acc = np.zeros(out_len)
    conv = np.array([1.0])  # zero-fold convolution: point mass at 0
    powers = {0: conv}
    for k in range(1, kmax + 1):
        conv = np.convolve(conv, q)
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
    return float(pmf[values > x + 1e-12].sum())


# ---------------------------------------------------------------------------
# Truncated Hawkes bracket


def _bshift(u: np.ndarray, shift: int, cap: int) -> np.ndarray:
    out = np.zeros(cap + 1)
    if shift >= cap:
        out[cap] = u.sum()
        return out
    out[shift:cap] = u[: cap - shift]
    out[cap] = u[cap] + u[cap - shift : cap].sum()
    return out


def _bconv(u: np.ndarray, v: np.ndarray, cap: int) -> np.ndarray:
    """Convolution on the lattice with an absorbing 'exceeds x' bucket."""
    w = np.convolve(u[:cap], v[:cap])
    out = np.zeros(cap + 1)
    out[:cap] = w[:cap]
    out[cap] = u[cap] * v.sum() + u[:cap].sum() * v[cap] + w[cap:].sum()
    return out


# A bracket's work, in units of about 1 ns: max_depth levels, each of
# max_children + 1 child convolutions and one lattice shift per support row,
# each step charged size**2 with size = max(cells, support rows, 256).  A
# convolution costs cells**2, mixing it into every row rows * cells, and 256**2
# covers numpy's fixed cost per call.  On a 2-core x86 box (Python 3.11, numpy
# 2.4) the slowest accepted shape, 202 cells with 1,000 children and one support
# row at depth 121, takes 8-10 s; 16,002 cells with 4 children at depth 3 take 2.6 s.
_BRACKET_WORK = 8 * 10**9
_MIN_CELLS = 256


def _bracket_lattice(model: DiscreteJointModel, x: float) -> tuple[float, int]:
    """The lattice step of the Hawkes bracket at ``x``, and its cap.

    Cells 0..cap-1 hold the partial sums v <= x, cell cap the rest.  Raises
    :class:`ModelError` on field ``x``, before anything is allocated, when
    the bracket would do more than ``_BRACKET_WORK``.
    """
    if model.kind != "hawkes":
        raise ModelError("hawkes oracle needs a hawkes-kind model", "kind")
    if not x >= 0:  # D >= 0, and the lattice below would count v = 0 as v <= x
        raise ModelError("x must be >= 0", "x")
    step = _lattice_step([x0 for x0, _, _ in model.support])
    cap = max(1, int(math.floor(x / step + 1e-9)) + 1)  # indices 0..cap-1 hold v <= x
    rows = len(model.support)
    steps = model.max_depth * (model.max_children + 1 + rows)
    if steps * max(cap + 1, rows, _MIN_CELLS) ** 2 > _BRACKET_WORK:
        raise ModelError(
            f"the bracket at x={x:g} needs {cap + 1} lattice cells, {model.max_children} "
            f"children and depth {model.max_depth}: more work than {_BRACKET_WORK:.0e}",
            "x",
        )
    return step, cap


def truncated_hawkes_sum_tail(model: DiscreteJointModel, x: float) -> tuple[float, float]:
    """Bracket [lower, upper] for P(D > x) of the discrete Hawkes cascade.

    Dynamic programming over depth, tracking jointly the partial sum on the
    lattice and whether any truncation happened (a node drawing more than
    ``max_children`` children, or any child request at maximal depth).
    The lower bound gives truncated mass no further contribution; the upper
    bound counts it as exceedance.  Enlarging the truncation never widens
    the bracket.  A bracket too large to compute in seconds raises
    :class:`ModelError` (see ``_BRACKET_WORK``).
    """
    step, cap = _bracket_lattice(model, x)
    rows = [(int(round(x0 / step)), kappa, p) for x0, kappa, p in model.support]
    kappas = np.array([kappa for _, kappa, _ in rows])
    mc = model.max_children

    # depth-budget 0: resolved iff the node asks for no children at all
    resolved = np.zeros(cap + 1)
    cut = np.zeros(cap + 1)
    for idx, kappa, p in rows:
        p0 = math.exp(-kappa)
        tgt = min(idx, cap)
        resolved[tgt] += p * p0
        cut[tgt] += p * (1.0 - p0)

    for _ in range(model.max_depth):
        total_child = resolved + cut
        # each row's mix of l-fold child convolutions, l = 0..mc, accumulated
        # in order as the powers are built, so only one power is held
        res_pow = np.zeros(cap + 1)
        res_pow[0] = 1.0
        tot_pow = res_pow
        res_mix = np.zeros((len(rows), cap + 1))
        tot_mix = np.zeros((len(rows), cap + 1))
        for l in range(mc + 1):
            if l:
                res_pow = _bconv(res_pow, resolved, cap)
                tot_pow = _bconv(tot_pow, total_child, cap)
            pl = _poisson_pmf(l, kappas)[:, None]  # P(l children) for each row
            res_mix += pl * res_pow
            tot_mix += pl * tot_pow
        cut_mix = tot_mix - res_mix
        cut_mix[cut_mix < 0] = 0.0
        cut_mix[:, 0] += _poisson_sf(mc, kappas)  # children dropped entirely: partial sum += 0
        resolved = np.zeros(cap + 1)
        cut = np.zeros(cap + 1)
        for (idx, _, p), res_row, cut_row in zip(rows, res_mix, cut_mix):
            resolved += p * _bshift(res_row, idx, cap)
            cut += p * _bshift(cut_row, idx, cap)

    lower = float(resolved[cap] + cut[cap])
    upper = float(resolved[cap] + cut.sum())
    return lower, upper


# ---------------------------------------------------------------------------
# Monte Carlo on the same discrete instances (for oracle-vs-simulation checks)


def sample_renewal_functionals(
    model: DiscreteJointModel, n: int, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """n i.i.d. (H, D) pairs simulated from a discrete renewal cluster law."""
    if model.kind != "renewal":
        raise ModelError("renewal sampler needs a renewal-kind model", "kind")
    gen = rng.generator
    xs = np.array([x0 for x0, _, _ in model.support])
    ks = np.array([int(k) for _, k, _ in model.support], dtype=np.int64)
    ps = np.array([p for _, _, p in model.support])
    marks = np.array([m for m, _ in model.offspring_support])
    mps = np.array([p for _, p in model.offspring_support])

    rows = gen.choice(len(xs), size=n, p=ps)
    x = xs[rows]
    k = ks[rows]
    total = int(k.sum())
    off = marks[gen.choice(len(marks), size=total, p=mps)]
    return _renewal_functionals(x, k, off)
