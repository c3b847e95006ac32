"""Exact convolution of two-point delay measures and a Chernoff threshold.

Each step k contributes the measure (1/2) delta_0 + (1/2) delta_{-a_k} with
0 <= a_k <= 1; the convolution is the law of Z = -sum_k a_k X_k for
independent fair 0/1 variables X_k.  The near-zero tail nu([-L, 0]) obeys

    nu([-L, 0]) <= e^{beta L} prod_k (1 - (1 - e^{-beta a_k})/2)
                <= e^{beta L} exp(-(beta/2) e^{-beta} sum_k a_k)

for every beta > 0, so a total delay sum above the threshold returned by
``chernoff_threshold`` pins the tail under the requested epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "ConvolutionCapacityError",
    "DiscreteDistribution",
    "exact_convolution",
    "tail_mass",
    "chernoff_bound",
    "chernoff_threshold",
    "chernoff_threshold_details",
    "ChernoffThreshold",
    "ENUMERATION_LIMIT",
]

ENUMERATION_LIMIT = 25
_MERGE_TOL = 1e-12
_GRID_DENOMINATOR_CAP = 10_000
_GRID_POINT_CAP = 5_000_000
# The beta grid of chernoff_threshold_details: step, step + step, ..., max.
_BETA_STEP = 1e-3
_BETA_MAX = 5.0


class ConvolutionCapacityError(ValueError):
    """Too many factors for exact enumeration and no common rational grid."""


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite probability measure with non-positive support points.

    support is strictly increasing, probabilities are positive, and the
    total mass is 1 to within 1e-12.
    """

    support: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.support, dtype=float)
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "support", s)
        object.__setattr__(self, "probabilities", p)
        if s.ndim != 1 or s.shape != p.shape or s.size == 0:
            raise ValueError("support and probabilities must be matching 1-D arrays")
        if np.any(np.diff(s) <= 0.0):
            raise ValueError("support points must be strictly increasing")
        if np.any(s > 0.0):
            raise ValueError("support points must be <= 0")
        if np.any(p <= 0.0):
            raise ValueError("atom probabilities must be positive")
        if abs(float(np.sum(p)) - 1.0) > 1e-12:
            raise ValueError("atom probabilities must sum to 1 within 1e-12")

    @property
    def atom_count(self) -> int:
        return self.support.size


def _merge_atoms(support: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (support, probabilities): each run of atoms whose neighbour
    gaps are all <= _MERGE_TOL becomes one atom at its lowest point."""
    order = np.argsort(support)
    s = support[order]
    starts = np.flatnonzero(np.concatenate(([True], np.diff(s) > _MERGE_TOL)))
    s = s[starts]
    s += 0.0  # normalizes -0.0 support points
    return s, np.add.reduceat(probs[order], starts)


def _common_grid(a: np.ndarray):
    """Least common rational step of the delays, or None."""
    denoms = []
    for x in a:
        if x == 0.0:
            continue
        frac = Fraction(x).limit_denominator(_GRID_DENOMINATOR_CAP)
        if abs(float(frac) - x) > _MERGE_TOL:
            return None
        denoms.append(frac.denominator)
    lcm = math.lcm(*denoms)  # 1 when every delay is zero; any grid works
    if lcm > _GRID_DENOMINATOR_CAP:
        return None
    step = 1.0 / lcm
    if float(np.sum(a)) / step > _GRID_POINT_CAP:
        return None
    return step


def exact_convolution(a: Sequence[float]) -> DiscreteDistribution:
    """Exact law of Z = -sum_k a_k X_k, X_k independent fair 0/1 coins.

    Delays on a common rational grid are convolved by dynamic programming
    over that grid (any length); otherwise plain atom enumeration handles up
    to ENUMERATION_LIMIT factors (merging after each factor).  Sorted atoms
    merge by neighbour gap: a run in which each atom lies within 1e-12 of
    the one before becomes one atom at the run's lowest point, whatever the
    run's total span.  Grid atoms never merge, since the grid step is at
    least 1/_GRID_DENOMINATOR_CAP, so the grid path reads its atoms off the
    DP buffer in reverse tick order without sorting.  The law on the grid is
    a palindrome bit for bit at every step, so the DP holds only its lower
    half and mirrors the upper half out once, at the end.

    Each grid step halves the sum (p + q) where the textbook step adds the
    halves 0.5 p + 0.5 q; halving is exact above the subnormal range, so
    the two agree bit for bit until masses go subnormal (from about 1070
    delays on), where this form rounds once and the textbook form twice.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise ValueError("delays must form a 1-D sequence")
    if np.any((a < 0.0) | (a > 1.0)):
        raise ValueError("delays must lie in [0, 1]")

    step = _common_grid(a)
    if step is not None:
        ticks = np.rint(a / step).astype(np.int64)
        total = int(np.sum(ticks))
        pmf = np.zeros(total // 2 + 1)
        pmf[0] = 1.0
        spare = np.zeros_like(pmf)
        top = 0
        for k in ticks:
            if k == 0:
                continue
            # new[t] = (old[t] + old[t - k]) * 0.5, old being 0 off [0, top].
            # Both laws are palindromes bit for bit: new[top + k - t] adds
            # the same two values, and addition commutes.  So the buffers
            # hold only [0, top // 2], and the step forms new on
            # [0, (top + k) // 2], where old[t - k] stays in the held half.
            # old[t] above it is its mirror old[top - t], copied up first;
            # past top it is 0, since a step writes neither buffer above
            # (top + k) // 2.  Below k only old[t] is halved.  Writing into
            # a second buffer spares numpy the copy of an overlapping add.
            half, mid = top // 2, (top + k) // 2
            mirror = min(top, mid)
            pmf[half + 1 : mirror + 1] = pmf[top - mirror : top - half][::-1]
            edge = min(k, mid + 1)
            np.multiply(pmf[:edge], 0.5, out=spare[:edge])
            if k <= mid:
                np.add(pmf[k : mid + 1], pmf[: mid + 1 - k], out=spare[k : mid + 1])
                spare[k : mid + 1] *= 0.5
            pmf, spare = spare, pmf
            top += k
        del spare
        pmf = np.concatenate((pmf, pmf[: total - pmf.size + 1][::-1]))
        ticks = np.flatnonzero(pmf > 0.0)[::-1]
        probs = pmf[ticks]
        del pmf
        support = -step * ticks
        del ticks
        support += 0.0  # -step * 0 is -0.0
    elif a.size > ENUMERATION_LIMIT:
        raise ConvolutionCapacityError(
            f"{a.size} factors exceed the enumeration limit of "
            f"{ENUMERATION_LIMIT} and the delays share no rational grid"
        )
    else:
        support, probs = np.array([0.0]), np.array([1.0])
        for delay in a:
            support, probs = _merge_atoms(np.concatenate([support, support - delay]),
                                          np.concatenate([0.5 * probs, 0.5 * probs]))
    return DiscreteDistribution(support, probs)


def tail_mass(dist: DiscreteDistribution, L: float) -> float:
    """Mass of the closed interval [-L, 0]; atoms exactly at -L count."""
    if L <= 0.0:
        raise ValueError("tail length L must be positive")
    mask = dist.support >= -L - _MERGE_TOL
    return float(np.sum(dist.probabilities[mask]))


def chernoff_bound(a: Sequence[float], L: float, beta: float) -> float:
    """Exponential-moment bound e^{beta L} prod_k (1 - (1 - e^{-beta a_k})/2).

    Dominates tail_mass(exact_convolution(a), L) for every beta > 0.  Formed
    in log space; a bound past the float range is math.inf.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    a = np.asarray(a, dtype=float)
    log_factors = np.log1p(0.5 * np.expm1(-beta * a))
    try:  # as Python floats, beta * L past the float range is inf, unwarned
        return math.exp(float(beta) * L + float(np.sum(log_factors)))
    except OverflowError:
        return math.inf


class ChernoffThreshold(NamedTuple):
    threshold: float
    beta: float


def chernoff_threshold_details(L: float, eps: float) -> ChernoffThreshold:
    """Threshold A(L, eps) with the beta that certified it, the best on a
    grid of step 1e-3 up to 5.

    Uses the simplified bound e^{beta L} exp(-(beta/2) e^{-beta} sum a_k),
    valid for delays a_k <= 1: the bound drops below eps once
    sum a_k >= (log(1/eps) + beta L) * 2 e^{beta} / beta.  From L near
    1e306 those products overflow to inf at the large betas, and past the
    float range at every beta, so the threshold is then inf.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if L <= 0.0:
        raise ValueError("L must be positive")
    betas = np.arange(_BETA_STEP, _BETA_MAX + 0.5 * _BETA_STEP, _BETA_STEP)
    with np.errstate(over="ignore"):
        need = (math.log(1.0 / eps) + betas * L) * 2.0 * np.exp(betas) / betas
    best = int(np.argmin(need))
    return ChernoffThreshold(threshold=float(need[best]), beta=float(betas[best]))


def chernoff_threshold(L: float, eps: float) -> float:
    """A = A(L, eps): sum a_k >= A forces tail_mass(..., L) <= eps."""
    return chernoff_threshold_details(L, eps).threshold
