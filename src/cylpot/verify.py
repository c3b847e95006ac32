"""Inequality and limit-law sweeps over a Green evaluator.

Each suite is a pure function of (evaluator, samples, seed) producing a
VerificationReport.  Exactness suites (monotonicity, symmetry identity,
normalization, reflection) measure violations in log units, which for small
violations coincide with relative ones, against the 1e-12 default tolerance.
Asymptotic suites fit rates whose expected values come from the spectrum,
never from constants baked into the code.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .base import ParameterError, chain_bead_centers
from .cylinder import CylinderPoint, GreenEvaluator, fit_exponent
from .spectral import SpectralData

__all__ = [
    "UnknownSuiteError",
    "RateFit",
    "VerificationReport",
    "sample_axial_tuples",
    "check_green_monotonicity",
    "check_symmetry_identity",
    "check_normalization",
    "check_boundary_harnack",
    "check_iu_ratio",
    "check_small_time_ratio",
    "check_ratio_limit",
    "check_reflection",
    "symmetry_halves",
    "select_suites",
    "run_suite",
    "SUITE_NAMES",
]

EXACT_TOL = 1e-12
RATE_TOL = 0.10
# Tolerance of each suite that does not hold run_suite's ``tolerance`` (the
# exactness sweeps monotonicity, symmetry and reflection do): the Harnack
# constant's largest relative drift under grid doubling, the fitted rate's
# relative error, and 0 for normalization and the informational suites.
# The suites and run_suite's error reports both read it here.
_FIXED_TOL = {
    "normalization": 0.0,
    "harnack": 0.05,
    "iu_ratio": RATE_TOL,
    "small_time": 0.0,
    "ratio_limit": 0.0,
}
# Fixed suite settings: the eigen-sum noise floor below which small-time
# ratios are not held to ordering, the sweeps' axial range, the least axial
# distance of the reflection suite's domination profiles below their pole,
# and the normalization suite's axial pole offsets.
_DECREASE_FLOOR = 1e-9
_AXIAL_RANGE = (-6.0, 6.0)
_DOMINATION_GAP = 2.0
_NORMALIZATION_POLE_U = (-12.0, -3.0, 1.5, 8.0, 25.0)

# Node sampling stays inside the central band of the index range: the couple
# of cells hugging the eliminated boundary carry ground-state values of order
# h, where log-space comparisons lose the last two digits of the 1e-12 budget.
_NODE_BAND = 0.02


class UnknownSuiteError(ValueError):
    """Requested verification suite name does not exist."""


@dataclass
class RateFit:
    value: float
    expected: float
    rel_deviation: float
    window: Tuple[float, float]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "expected": self.expected,
            "rel_deviation": self.rel_deviation,
            "window": list(self.window),
        }


@dataclass
class VerificationReport:
    """Outcome of one suite.  passed follows from status and max_violation;
    an exactness sweep that resolved no sample, or a rate fit with fewer
    than three samples in its window, is ``insufficient``."""

    suite: str
    sample_count: int
    max_violation: float
    tolerance: float
    status: str = "ok"  # ok | skipped | insufficient | error
    empirical_constant: Optional[float] = None
    rate: Optional[RateFit] = None
    seed: Optional[int] = None
    config: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    samples: Optional[dict] = None  # resolved per-sample columns by name
    note: str = ""

    @property
    def passed(self) -> bool:
        if self.status == "skipped":
            return True
        return bool(self.status == "ok" and self.max_violation <= self.tolerance)

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "status": self.status,
            "passed": self.passed,
            "sample_count": int(self.sample_count),
            "max_violation": float(self.max_violation),
            "tolerance": float(self.tolerance),
            "seed": self.seed,
            "config": self.config,
        }
        if self.empirical_constant is not None:
            out["empirical_constant"] = self.empirical_constant
        if self.rate is not None:
            out["rate"] = self.rate.to_dict()
        if self.extras:
            out["extras"] = {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.extras.items()
            }
        if self.note:
            out["note"] = self.note
        return out


def _node_band(n: int) -> Tuple[int, int]:
    lo = int(math.floor(n * _NODE_BAND))
    hi = max(lo + 1, n - lo)
    return lo, hi


_SOBOL_BITS = 30

# The first six rows of scipy's Sobol direction-number file (Joe and Kuo):
# primitive polynomials and initial direction numbers.  No sweep draws more
# than six dimensions.
_SOBOL_POLY = (1, 3, 7, 11, 13, 19)
_SOBOL_VINIT = ((), (1,), (1, 3), (1, 3, 1), (1, 1, 1), (1, 1, 3, 3))


@functools.lru_cache(maxsize=None)
def _sobol_directions(dims: int) -> np.ndarray:
    """(dims, 30) unscrambled Sobol direction numbers, from the embedded
    rows by the primitive-polynomial recursion (Bratley and Fox, ACM TOMS
    14, 1988).  ValueError above six dimensions."""
    if dims > len(_SOBOL_POLY):
        raise ValueError(f"at most {len(_SOBOL_POLY)} Sobol dimensions, got {dims}")
    bits = _SOBOL_BITS
    v = [[1] * bits]
    for p, init in zip(_SOBOL_POLY[1:dims], _SOBOL_VINIT[1:dims]):
        m = p.bit_length() - 1
        row = list(init)
        for j in range(m, bits):
            new = row[j - m]
            for k in range(m):
                if p >> (m - 1 - k) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row.append(new)
        v.append(row)
    v = np.asarray(v, dtype=np.int64) << np.arange(bits - 1, -1, -1)
    v.flags.writeable = False  # shared by every caller through the cache
    return v


def _random_bits(seed: int, count: int) -> np.ndarray:
    """`count` fair bits from the standard library's Mersenne twister seeded
    with `seed`: ``random.Random(seed).getrandbits(count)``, least
    significant bit first.  ValueError on a negative seed."""
    seed = operator.index(seed)  # random.seed rejects numpy integers
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    word = random.Random(seed).getrandbits(count).to_bytes((count + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(word, dtype=np.uint8), count=count, bitorder="little")


def _sobol(dims: int, count: int, seed: int) -> np.ndarray:
    """First `count` points of a scrambled Sobol sequence: the construction
    of ``qmc.Sobol(d=dims, scramble=True)``, with its scramble bits drawn by
    _random_bits.

    The scrambling is a random digital shift, then a random lower
    unit-triangular (LMS) matrix per dimension applied to the direction
    numbers over GF(2) (Matousek 1998), the shift's bits drawn first.
    Point k is the shift XORed with the direction numbers of the lowest zero
    bit of 0, ..., k-1 (Gray-code order), so the first `count` points do not
    depend on the later ones.
    """
    bits = _SOBOL_BITS
    if count > 1 << bits:
        raise ValueError(f"at most 2**{bits} Sobol points can be drawn, got {count}")
    draws = _random_bits(seed, dims * bits * (bits + 1))
    shift = draws[: dims * bits].reshape(dims, bits) @ (1 << np.arange(bits))
    lsm = np.tril(draws[dims * bits :].reshape(dims, bits, bits))
    lsm[:, np.arange(bits), np.arange(bits)] = 1
    msb = np.arange(bits - 1, -1, -1)  # weight exponent of bit column i
    digits = _sobol_directions(dims)[:, :, None] >> msb & 1  # (dims, j, i)
    # Row p of the LMS matrix against direction j: parity of their common bits.
    sv = ((lsm @ digits.transpose(0, 2, 1) & 1) << msb[:, None]).sum(axis=1)
    k = np.arange(1, count)
    lowest_zero = np.frexp(k & -k)[1] - 1  # of k - 1: the lowest set bit of k
    steps = np.concatenate([shift[None, :], sv.T[lowest_zero]])
    return (np.bitwise_xor.accumulate(steps, axis=0) * 2.0**-bits)[:count]


def sample_axial_tuples(
    n_nodes: int,
    count: int,
    seed: int,
    axial_dims: int,
    node_dims: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Quasi-random (Sobol) tuples: axial coordinates in _AXIAL_RANGE, node indices."""
    raw = _sobol(axial_dims + node_dims, count, seed)
    lo, hi = _AXIAL_RANGE
    axial = lo + (hi - lo) * raw[:, :axial_dims]
    band_lo, band_hi = _node_band(n_nodes)
    nodes = band_lo + (raw[:, axial_dims:] * (band_hi - band_lo)).astype(int)
    nodes = np.clip(nodes, band_lo, band_hi - 1)
    return axial, nodes


def _screen_sides(ev: GreenEvaluator, pairs):
    """ev.screen_many of the (samples, r) ``pairs``, except that a sample
    whose deepest side (largest |pu - qu|, the first on ties) is certainly
    lost leaves its other sides unsummed: they hold nan with bound 0,
    certainly lost as well, which skips the sample either way.  The deepest
    sides go in one call, and the other sides of the remaining samples in a
    second.  When every sample's sides share their separation and nodes,
    they are one mode sum, so all sides go in one call, where
    GreenEvaluator._mode_sums sums each sample once."""
    pu, pnode, qu, qnode = pairs = np.broadcast_arrays(*pairs)
    depth = np.abs(pu - qu)
    if all((a == a[:, :1]).all() for a in (depth, pnode, qnode)):
        return ev.screen_many(*pairs)
    logs, bound = np.full(pu.shape, np.nan), np.zeros(pu.shape)
    deep = np.zeros(pu.shape, dtype=bool)
    deep[np.arange(pu.shape[0]), np.argmax(depth, axis=1)] = True
    logs[deep], bound[deep] = ev.screen_many(*(a[deep] for a in pairs))
    lost = np.isnan(logs[deep]) & np.isfinite(bound[deep])
    rest = ~deep & ~lost[:, None]
    logs[rest], bound[rest] = ev.screen_many(*(a[rest] for a in pairs))
    return logs, bound


def _sweep(suite: str, ev: GreenEvaluator, pairs, metric, slack: float,
           table: dict, **report) -> VerificationReport:
    """Screen -> re-measure -> classify, shared by the exactness sweeps.

    ``pairs`` holds (pu, pnode, qu, qnode) arrays of shape (samples, r): the
    r Green values one sample compares.  ``metric(logs, k)`` maps the (len(k),
    r) log values of samples k to their measured values; it must move by at
    most 1 per unit change of any one log value.  The float64 screen
    (_screen_sides) settles a sample it measured exactly (all bounds 0:
    float64 eigendata) or whose certified bound cannot change the outcome
    (certainly lost, or certainly healthy with value + bound <= slack);
    every other sample is measured once in 80-bit arithmetic (the
    eigendata precision of refined chains), and skipped if a mode sum is
    lost there.  A sweep that resolves no sample measured nothing and is
    ``insufficient``.  ``table`` maps names to per-sample columns; their
    resolved rows and the measured values, as ``"violation"``, become the
    report's ``samples``.
    """
    logs, bound = _screen_sides(ev, pairs)
    count = logs.shape[0]
    values = metric(logs, np.arange(count)).astype(ev.sqrt_mu.dtype)
    skipped = (np.isnan(logs) & np.isfinite(bound)).any(axis=1)
    # Only certified samples that are not skipped can settle on their value.
    # Their values are finite, and the rest stay out of the arithmetic: nan
    # costs 80-bit floats (the values on refined chains) a slow path.
    live = ~skipped & np.isfinite(bound).all(axis=1)
    err = bound[live].sum(axis=1) + 4.0 * np.finfo(float).eps * (
        np.abs(logs[live]).sum(axis=1) + np.abs(values[live])
    )
    settled = skipped.copy()
    settled[live] = (bound[live] == 0.0).all(axis=1) | (values[live] + err <= slack)
    k = np.flatnonzero(~settled)
    lg = ev.log_green_many(*(a[k] for a in pairs), allow_stable=False)
    gone = np.isnan(lg).any(axis=1)
    skipped[k[gone]] = True
    values[k[~gone]] = metric(lg[~gone], k[~gone])
    resolved = ~skipped
    extras = {
        "skipped_unresolvable": int(np.count_nonzero(skipped)),
        "resolved_fraction": float(np.count_nonzero(resolved) / count),
        "screened": int(np.count_nonzero(settled)),
        "escalated": int(count - np.count_nonzero(settled)),
    }
    samples = {name: col[resolved] for name, col in table.items()}
    samples["violation"] = values[resolved]
    return VerificationReport(
        suite=suite,
        sample_count=int(np.count_nonzero(resolved)),
        max_violation=np.max(values[resolved]) if resolved.any() else -math.inf,
        status="ok" if resolved.any() else "insufficient",
        samples=samples,
        extras=extras,
        **report,
    )


def check_green_monotonicity(
    ev: GreenEvaluator,
    samples: Optional[Sequence[Tuple[float, float, float, int, int]]] = None,
    count: int = 10_000,
    seed: int = 0,
    tolerance: float = EXACT_TOL,
) -> VerificationReport:
    """Axial shift inequalities of G under e^{+-b rho/2} factors.

    For rho > 0: G(u,x;v,y) <= e^{b rho/2} G(u+rho,x;v,y) when v >= u + rho/2,
    with the reverse inequality when v <= u + rho/2.  Violations are signed
    log differences; <= 0 means the inequality holds.
    """
    if samples is None:
        axial, nodes = sample_axial_tuples(ev.spec.n, count, seed, 3, 2)
        u, v = axial[:, 0], axial[:, 1]
        rho = 0.05 + 4.0 * (axial[:, 2] + 6.0) / 12.0  # shifts in (0, 4.05]
        i, j = nodes[:, 0], nodes[:, 1]
    else:
        rows = np.asarray([tuple(r) for r in samples], dtype=float)
        if rows.size == 0:
            raise ValueError("monotonicity check requires a nonempty sample set")
        u, v, rho = rows[:, 0], rows[:, 1], rows[:, 2]
        i, j = rows[:, 3].astype(int), rows[:, 4].astype(int)
    b = ev.spec.b

    def violation(lg, k):
        bound = 0.5 * b * rho[k] + lg[:, 1]
        mid = u[k] + 0.5 * rho[k]
        return np.maximum(
            np.where(v[k] >= mid, lg[:, 0] - bound, -np.inf),
            np.where(v[k] <= mid, bound - lg[:, 0], -np.inf),
        )

    pairs = (np.stack([u, u + rho], 1), np.stack([i, i], 1),
             np.stack([v, v], 1), np.stack([j, j], 1))
    table = {"u": u, "v": v, "rho": rho, "i": i, "j": j}
    return _sweep(
        "monotonicity", ev, pairs, violation, -1e-8, table,
        tolerance=tolerance, seed=seed, config={"count": len(u)},
    )


def check_symmetry_identity(
    ev: GreenEvaluator,
    count: int = 10_000,
    seed: int = 0,
    tolerance: float = EXACT_TOL,
) -> VerificationReport:
    """Reflection/translation identity
    G(v0-u, x; v0-v, y) = e^{b(u-v)} G(v1+u, x; v1+v, y).

    Structural: both sides have bitwise-equal |u - v| (dyadic Sobol points)
    and the same nodes, so every route sums them to the same number.  The
    screen settles every sample it can classify (slack inf); the gap is the
    rounding of the drift terms.
    """
    axial, nodes = sample_axial_tuples(ev.spec.n, count, seed, 4, 2)
    u, v, v0, v1 = axial.T
    i, j = nodes[:, 0], nodes[:, 1]
    b = ev.spec.b

    def gap(lg, k):
        return np.abs(lg[:, 0] - (b * (u[k] - v[k]) + lg[:, 1]))

    pairs = (np.stack([v0 - u, v1 + u], 1), np.stack([i, i], 1),
             np.stack([v0 - v, v1 + v], 1), np.stack([j, j], 1))
    table = {"u": u, "v": v, "v0": v0, "v1": v1, "i": i, "j": j}
    rep = _sweep(
        "symmetry", ev, pairs, gap, math.inf, table,
        tolerance=tolerance, seed=seed, config={"count": count},
    )
    rep.extras["structural"] = True
    return rep


def check_normalization(ev: GreenEvaluator) -> VerificationReport:
    """K_pole(reference) == 1 exactly, for a spread of poles: the axial
    offsets _NORMALIZATION_POLE_U at nodes 0, n // 3 and n - 1.

    Each kernel's denominator G(reference; pole) is the one-pair value that
    martin_kernel stores; the numerators come from one log_green_many batch
    over all poles.  Eigenmode values are elementwise, so the two routes
    agree bit for bit, and the report is marked structural.  The violation
    is |log K_pole(reference)|, taken in the evaluator's working precision,
    so one ulp of difference shows on 80-bit eigendata as well."""
    n = ev.spec.n
    poles = [
        CylinderPoint(du, node)
        for du in _NORMALIZATION_POLE_U
        for node in {0, n // 3, n - 1}
        if (du, node) != ev.reference
    ]
    ref = ev.reference
    pole_u, pole_node = (np.array(col) for col in zip(*poles))
    numerators = ev.log_green_many(ref.u, ref.node, pole_u, pole_node)
    worst = -math.inf
    for pole, log_numerator in zip(poles, numerators):
        k = ev.martin_kernel(pole)
        worst = max(worst, abs(float(log_numerator - k.log_reference)))
    return VerificationReport(
        suite="normalization",
        sample_count=len(poles),
        max_violation=worst,
        tolerance=_FIXED_TOL["normalization"],
        config={"poles": len(poles)},
        extras={"structural": True},
    )


def _harnack_levels(ev: GreenEvaluator, grid_max: int, densify: int = 1) -> np.ndarray:
    """Axial levels for the multiplicativity sweep.

    Dense unit spacing up to grid_max, then a geometric tail out to twice
    the saturation scale log(1e4)/(sqrt(mu_2) - sqrt(mu_1)): the constant is
    approached in the corners where the gaps blow up, which on small-gap
    bases (chains) sits far beyond any dense grid a sweep could afford.
    """
    levels = list(np.arange(grid_max + 1, dtype=float))
    sm = np.sqrt(np.asarray(ev.spec.mu, dtype=float))
    if sm.size >= 2:
        delta2 = float(sm[1] - sm[0])
        target = min(2.0 * math.log(1e4) / max(delta2, 1e-8), 1e6)
        ratio = 2.0 ** (1.0 / densify)
        g = float(grid_max)
        while g < target:
            g *= ratio
            levels.append(round(g))
    return np.asarray(sorted(set(levels)), dtype=float)


def _harnack_constants(ev: GreenEvaluator, grids) -> List[Tuple[float, int]]:
    """Smallest C for the chain inequalities, and the triple count, on the
    level grid of each (grid_max, densify) of ``grids``.  The grids share
    one log_green_many batch over the union of their level pairs."""
    x0 = ev.reference.node
    grids = [_harnack_levels(ev, grid_max, densify) for grid_max, densify in grids]
    levels = np.asarray(sorted(set().union(*grids)), dtype=float)
    # Level pairs a < c at least one unit apart.  The transpose G(c; a) has
    # the same mode sum, and its drift factors cancel in every triple.
    apart = levels[None, :] >= levels[:, None] + 1.0
    lo, hi = np.nonzero(apart)
    logs = ev.log_green_many(levels[lo], x0, levels[hi], x0)
    table = np.full((levels.size, levels.size), np.nan, dtype=logs.dtype)
    table[lo, hi] = logs
    constants = []
    for grid in grids:
        idx = np.searchsorted(levels, grid)
        near, grid_table = apart[np.ix_(idx, idx)], table[np.ix_(idx, idx)]
        # Triples u < v < w whose two steps are at least one unit, so that
        # all three log values exist: log G(u;w) - log G(u;v) - log G(v;w).
        u, v, w = np.nonzero(near[:, :, None] & near[None, :, :])
        ratio = grid_table[u, w] - grid_table[u, v] - grid_table[v, w]
        worst = float(np.max(np.abs(ratio), initial=0.0))
        constants.append((math.exp(worst), int(u.size)))
    return constants


def check_boundary_harnack(ev: GreenEvaluator, grid_max: int = 10) -> VerificationReport:
    """Multiplicativity of G along the axis over gap->1 triples.

    Finds the smallest C with C^-1 G(u;v)G(v;w) <= G(u;w) <= C G(u;v)G(v;w)
    over u < v < w drawn from a dense {0..grid_max} block plus a geometric
    tail reaching the corner regime (the transposed kernel gives the same
    C); the grid is then doubled (denser block, denser tail) and
    max_violation, the relative drift of C, is held to _FIXED_TOL["harnack"].
    """
    (c_base, n_base), (c_double, n_double) = _harnack_constants(
        ev, ((grid_max, 1), (2 * grid_max, 2)))
    drift = abs(c_double / c_base - 1.0)
    return VerificationReport(
        suite="harnack",
        sample_count=n_base + n_double,
        max_violation=drift,
        tolerance=_FIXED_TOL["harnack"],
        empirical_constant=c_double,
        config={"grid_max": grid_max},
        extras={"constant_base_grid": c_base, "constant_doubled_grid": c_double},
    )


def check_iu_ratio(
    spec: SpectralData,
    probe_node: int,
    t_grid: Optional[np.ndarray] = None,
    fit_window: Optional[Tuple[float, float]] = None,
) -> VerificationReport:
    """Sharpness constant C(t) of the ground-state heat-kernel factorization.

    C(t) = max_y max(r, 1/r) with r = pi_t(x1, y) / (e^{-lam1 t} phi0(x1)
    phi0(y)); C decreases to 1 and log(C(t)-1) decays at the spectral gap
    rate.  The fitted rate is compared against -(lam2 - lam1) within
    RATE_TOL relative.  Default grid
    and window live on the gap timescale tau = 3/(lam2 - lam1), which is 1
    on the length-pi arc.  A window that keeps fewer than three times after
    the contamination cutoff fits nothing: the report is ``insufficient``,
    and its note gives the window and lam3 - lam2.
    """
    spec.require_all_modes("check_iu_ratio")
    if spec.n < 2:
        raise ValueError("sharpness rate needs at least two modes")
    tau = 3.0 / float(spec.eigenvalues[1] - spec.eigenvalues[0])
    if t_grid is None:
        t_grid = tau * np.concatenate(
            [np.arange(1.0, 9.0, 0.5), np.arange(9.0, 51.0, 1.0)]
        )
    if fit_window is None:
        fit_window = (2.0 * tau, 8.0 * tau)
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0.0) or np.any(np.diff(t_grid) <= 0.0):
        raise ValueError("t grid must be positive and increasing")
    lam = spec.eigenvalues
    phi = spec.eigenvectors
    phi0 = spec.ground_state
    gaps = lam[1:] - lam[0]
    coeff = phi[probe_node, 1:] / phi0[probe_node]
    # A weight that is exactly 0 at the first (smallest) time stays 0 at
    # every later one, so the product keeps only the modes up to the last
    # live one.  The dropped terms are exact zeros: the in-order 80-bit sum
    # is unchanged, while BLAS may sum a float64 product in another order.
    live = np.flatnonzero(coeff * np.exp(-gaps * t_grid[0]))
    k = live[-1] + 1 if live.size else 0
    coeff, gaps = coeff[:k], gaps[:k]
    cvals = np.empty_like(t_grid)
    for idx, t in enumerate(t_grid):
        corr = (phi[:, 1 : k + 1] @ (coeff * np.exp(-gaps * t))) / phi0
        r = 1.0 + corr
        if np.any(r <= 0.0):
            cvals[idx] = math.inf
        else:
            cvals[idx] = max(np.max(r), np.max(1.0 / r))
    lo, hi = fit_window
    gap = float(lam[2] - lam[1]) if spec.n >= 3 else math.nan
    if spec.n >= 3:
        # Push the window start past the point where the third mode's
        # predicted contamination of the two-mode model drops below 1%.
        lo = max(lo, math.log(100.0) / gap)
    mask = (t_grid >= lo) & (t_grid <= hi) & np.isfinite(cvals) & (cvals > 1.0)
    report = VerificationReport(
        suite="iu_ratio",
        sample_count=len(t_grid),
        max_violation=math.inf,
        tolerance=_FIXED_TOL["iu_ratio"],
        config={"probe_node": probe_node},
        extras={
            "t_grid": t_grid,
            "c_values": cvals,
            "tail_gap": float(cvals[-1] - 1.0),
            "tail_t": float(t_grid[-1]),
        },
    )
    if np.count_nonzero(mask) < 3:
        report.status = "insufficient"
        report.note = (
            f"fit window [{lo:.6g}, {hi:.6g}] holds {np.count_nonzero(mask)} of the "
            f"{len(t_grid)} times, fewer than 3 (lam3 - lam2 = {gap:.3g})"
        )
        return report
    fitted = fit_exponent(list(zip(t_grid[mask], cvals[mask] - 1.0)))
    expected = -(lam[1] - lam[0])
    report.max_violation = abs(fitted.alpha_hat - expected) / abs(expected)
    report.rate = RateFit(fitted.alpha_hat, expected, report.max_violation, (lo, hi))
    return report


def check_small_time_ratio(
    spec: SpectralData,
    lam: float,
    t0: float,
    x: int,
    y_sequence: Sequence[int],
) -> VerificationReport:
    """Share of the resolvent mass gathered before t0, per probe node.

    ratio(y) = int_0^t0 e^{-lam s} pi_s(x, y) ds / int_0^inf (same), computed
    mode-exactly with weights (1 - e^{-(lam_k+lam) t0})/(lam_k+lam) against
    1/(lam_k+lam).  Reports the sequence and whether it decreases along
    y_sequence.  A ratio below _DECREASE_FLOOR in magnitude is the rounding
    of the cancelling eigen-sum: it is reported as 0, counted in
    ``below_floor`` and not held to ordering.  Informational suite:
    max_violation is always 0.  ParameterError unless lam + lam_1 > 0.
    """
    if t0 <= 0.0:
        raise ValueError("t0 must be positive")
    spec.require_all_modes("check_small_time_ratio")
    rates = spec.eigenvalues + lam
    if np.any(rates <= 0.0):
        raise ParameterError(
            f"need lambda + lambda_1 > 0 with lambda_1 = {spec.lambda1!r}: lambda must "
            f"exceed {-spec.lambda1!r}, got {lam!r}"
        )
    phi = spec.eigenvectors
    w_num = -np.expm1(-rates * t0) / rates
    w_den = 1.0 / rates
    ratios = np.empty(len(y_sequence))
    for idx, y in enumerate(y_sequence):
        pair = phi[x] * phi[int(y)]
        ratios[idx] = np.dot(pair, w_num) / np.dot(pair, w_den)
    below = np.abs(ratios) < _DECREASE_FLOOR
    ratios[below] = 0.0
    sig = np.maximum(ratios, _DECREASE_FLOOR)
    decreasing = bool(np.all(np.diff(sig) <= 1e-12 + 1e-6 * sig[:-1]))
    return VerificationReport(
        suite="small_time",
        sample_count=len(y_sequence),
        max_violation=0.0,
        tolerance=_FIXED_TOL["small_time"],
        config={"lam": lam, "t0": t0, "x": x},
        extras={
            "ratios": ratios,
            "below_floor": int(np.count_nonzero(below)),
            "is_decreasing": decreasing,
            "min_ratio": float(np.min(ratios)),
            "final_ratio": float(ratios[-1]),
        },
    )


def check_ratio_limit(
    ev: GreenEvaluator,
    rho: float,
    rho_prime: float,
    x: int,
    y_sequence: Sequence[int],
) -> VerificationReport:
    """Drifted time-integral ratio against its end limit e^{-b(rho-rho')/2}.

    The integrals int t^{-1/2} e^{-(rho+bt)^2/(4t)} pi_t(x,y) dt are
    2 sqrt(pi) G((rho, y); (0, x)), so the rho/rho' ratio is
    exp(log G(rho, y; 0, x) - log G(rho', y; 0, x)), measured by the
    evaluator (resolvent quadrature where a mode sum lost its digits; it
    raises NumericalLossError when a Green value has no positive value on
    any route); the report tracks its deviation from the limit along
    y_sequence.  Informational: max_violation is 0.  ParameterError when
    the limit is not a positive normal float, past |b|(rho - rho')/2 of
    about 708.
    """
    b = ev.spec.b
    log_limit = -0.5 * b * (rho - rho_prime)
    normal = np.finfo(float)
    if not math.log(normal.tiny) <= log_limit <= math.log(normal.max):
        raise ParameterError(f"the limit e^(-b(rho - rho')/2) at b = {b!r} and rho - rho' = "
                             f"{rho - rho_prime!r} is not a positive normal float")
    logs = ev.log_green_many([rho, rho_prime], np.asarray(y_sequence, dtype=int)[:, None], 0.0, x)
    ratios = np.exp((logs[:, 0] - logs[:, 1]).astype(float))
    limit = math.exp(log_limit)
    devs = np.abs(ratios / limit - 1.0)
    # Informational suite: whether the final deviation is small enough is a
    # property of the base (chains converge, arcs need not), so thresholds
    # are applied by the caller.
    return VerificationReport(
        suite="ratio_limit",
        sample_count=len(y_sequence),
        max_violation=0.0,
        tolerance=_FIXED_TOL["ratio_limit"],
        config={"b": b, "rho": rho, "rho_prime": rho_prime, "x": x},
        extras={
            "ratios": ratios,
            "deviations": devs,
            "limit": limit,
            "final_deviation": float(devs[-1]),
        },
    )


def symmetry_halves(ev: GreenEvaluator) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, fixed) node sets of the declared involution."""
    sigma = ev.base.symmetry
    if sigma is None:
        raise ValueError("base declares no symmetry")
    idx = np.arange(ev.spec.n)
    return idx[idx < sigma], idx[idx > sigma], idx[idx == sigma]


def check_reflection(
    ev: GreenEvaluator,
    count: int = 10_000,
    seed: int = 0,
    tolerance: float = EXACT_TOL,
) -> VerificationReport:
    """Reflection inequality G_{(v,y)}(w,z) <= G_{(v,y)}(w,sigma(z)).

    y ranges over the left half, z over the right half (z is then on the far
    side of the interface from y; its mirror sigma(z) is nearer).  Also
    reports the empirical constant of the one-sided domination
    G_{(v,y)}(u,x) <= C G_{(v,y)}(u, x0) for u <= v - _DOMINATION_GAP;
    a profile value with no positive value on any route raises
    NumericalLossError.  Skipped when the base declares no symmetry, and
    ``insufficient`` when the node band holds no left-half node.
    """
    if ev.base.symmetry is None:
        return VerificationReport(
            suite="reflection",
            sample_count=0,
            max_violation=0.0,
            tolerance=tolerance,
            status="skipped",
            note="base declares no symmetry; reflection suite skipped",
        )
    sigma = ev.base.symmetry
    left, right, fixed = symmetry_halves(ev)
    band_lo, band_hi = _node_band(ev.spec.n)
    left = left[(left >= band_lo) & (left < band_hi)]
    right = right[(right >= band_lo) & (right < band_hi)]
    config = {"count": count, "domination_gap": _DOMINATION_GAP}
    if left.size == 0:  # e.g. a 1-node arc, whose only node is fixed
        return VerificationReport(
            suite="reflection", sample_count=0, max_violation=-math.inf,
            tolerance=tolerance, status="insufficient", seed=seed, config=config,
            note=f"node band [{band_lo}, {band_hi}) holds no node of the left half",
        )
    raw = _sobol(4, count, seed)
    w_ax = -5.0 + 10.0 * raw[:, 0]
    v_ax = -5.0 + 10.0 * raw[:, 1]
    y_nodes = left[(raw[:, 2] * len(left)).astype(int).clip(0, len(left) - 1)]
    z_pool = np.concatenate([right, fixed])
    z_nodes = z_pool[(raw[:, 3] * len(z_pool)).astype(int).clip(0, len(z_pool) - 1)]

    raw2 = _sobol(3, 200, seed + 1)
    v2 = -2.0 + 6.0 * raw2[:, 0]
    u2 = v2 - _DOMINATION_GAP - 4.0 * raw2[:, 1]
    y2 = left[(raw2[:, 2] * len(left)).astype(int).clip(0, len(left) - 1)]
    band = np.arange(band_lo, band_hi)
    profiles = ev.log_green_many(u2[:, None], band[None, :], v2[:, None], y2[:, None])
    x0 = ev.reference.node - band_lo
    dom = float(np.max(profiles.max(axis=1) - profiles[:, x0]))

    def gap(lg, k):
        return lg[:, 0] - lg[:, 1]

    pairs = (np.stack([w_ax, w_ax], 1), np.stack([z_nodes, sigma[z_nodes]], 1),
             np.stack([v_ax, v_ax], 1), np.stack([y_nodes, y_nodes], 1))
    table = {"w": w_ax, "z": z_nodes, "v": v_ax, "y": y_nodes}
    return _sweep(
        "reflection", ev, pairs, gap, -1e-8, table,
        tolerance=tolerance, seed=seed, empirical_constant=math.exp(dom), config=config,
    )


# run_suite's suites by name.  The lambdas look the check functions up in
# this module when a suite runs, so a replaced module global is the one run.
_SUITES = {
    "monotonicity": lambda ev, sweep, y_seq: check_green_monotonicity(ev, **sweep),
    "symmetry": lambda ev, sweep, y_seq: check_symmetry_identity(ev, **sweep),
    "normalization": lambda ev, sweep, y_seq: check_normalization(ev),
    "harnack": lambda ev, sweep, y_seq: check_boundary_harnack(ev),
    "iu_ratio": lambda ev, sweep, y_seq: check_iu_ratio(ev.spec, _iu_probe_node(ev)),
    "small_time": lambda ev, sweep, y_seq: check_small_time_ratio(
        ev.spec, lam=0.0, t0=1.0, x=ev.reference.node, y_sequence=y_seq
    ),
    "ratio_limit": lambda ev, sweep, y_seq: check_ratio_limit(
        ev, rho=1.0, rho_prime=0.0, x=ev.reference.node, y_sequence=y_seq
    ),
    "reflection": lambda ev, sweep, y_seq: check_reflection(ev, **sweep),
}
SUITE_NAMES = tuple(_SUITES)


def select_suites(
    suites: Sequence[str],
    seed: int = 0,
    count: int = 10_000,
    tolerance: float = EXACT_TOL,
) -> list:
    """The suite names run_suite runs for ``suites`` ("all" is every suite),
    after checking its options: UnknownSuiteError for an unknown name, and
    ParameterError for a ``count`` below 1 or above the 2**30 Sobol points
    a sweep can draw, a negative ``seed`` or a ``tolerance`` that is
    negative or not finite.  It needs no evaluator, so callers can check
    their options before decomposing a base."""
    if not 1 <= count <= 1 << _SOBOL_BITS:
        raise ParameterError(f"sample count must lie in [1, 2**{_SOBOL_BITS}], got {count}")
    if seed < 0:
        raise ParameterError(f"sample seed must be non-negative, got {seed}")
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ParameterError(f"tolerance must be finite and non-negative, got {tolerance}")
    names: list = []
    for name in suites:
        if name == "all":
            names.extend(SUITE_NAMES)
        elif name in SUITE_NAMES:
            names.append(name)
        else:
            raise UnknownSuiteError(f"unknown verification suite {name!r}")
    return names


def run_suite(
    ev: GreenEvaluator,
    suites: Sequence[str] = ("all",),
    seed: int = 0,
    count: int = 10_000,
    tolerance: float = EXACT_TOL,
) -> Dict[str, VerificationReport]:
    """Run the selected suites; one suite's failure does not abort the rest.

    ``count`` and ``tolerance`` go to the three exactness sweeps
    (monotonicity, symmetry, reflection).  The names and options are
    checked by select_suites first.
    """
    names = select_suites(suites, seed, count, tolerance)
    sweep = {"count": count, "seed": seed, "tolerance": tolerance}
    if ev.base.kind == "chain":
        y_seq = chain_bead_centers(ev.base)
    else:
        y_seq = np.arange(*_node_band(ev.spec.n))

    reports: Dict[str, VerificationReport] = {}
    for name in names:
        try:
            rep = _SUITES[name](ev, sweep, y_seq)
        except Exception as exc:  # noqa: BLE001 - suite isolation is the contract
            rep = VerificationReport(
                suite=name,
                sample_count=0,
                max_violation=math.inf,
                tolerance=_FIXED_TOL.get(name, tolerance),
                status="error",
                note=f"{type(exc).__name__}: {exc}",
            )
        rep.seed = seed
        reports[name] = rep
    return reports


def _iu_probe_node(ev: GreenEvaluator) -> int:
    """A probe node off the symmetry axis so no odd mode is blind to it."""
    n = ev.spec.n
    return max(0, min(n - 1, n // 3))
