"""Green's function and Martin kernels on the cylinder R x base.

With mu_k = lam_k + b**2/4 the cylinder Green's function of the operator
d^2/du^2 + b d/du + (base generator) has the exact eigenmode form

    G(u, i; v, j) = exp(-b(u-v)/2) * sum_k phi_k(i) phi_k(j)
                    * exp(-|u-v| sqrt(mu_k)) / (2 sqrt(mu_k)),

obtained by integrating the drifted axial Gaussian density against the base
heat kernel over all times.  The axial coordinate stays a real number; only
the base is discrete.  Everything here evaluates in log space where needed,
so poles can sit tens of units away without overflow.
"""

from __future__ import annotations

import ctypes
import math
import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .base import BaseOperator, ParameterError
from .spectral import (_DPTSV, SpectralData, _doubles, _gershgorin, _int, _lapack,
                       _run_pair, mass_scaled_bands)

__all__ = [
    "CylinderPoint",
    "NumericalLossError",
    "QuadratureToleranceError",
    "gaussian_density",
    "GreenEvaluator",
    "StableAxialEvaluator",
    "SeparatedSolution",
    "MartinKernel",
    "ModeSolution",
    "truncated_dirichlet_solve",
    "positivity_scan",
    "ExponentFit",
    "fit_exponent",
]

# Witness threshold of the positivity scanner, relative to the local
# sum-of-magnitudes scale of the evaluated combination, and its axial step.
_NEGATIVITY_TOL = 1e-12
_SCAN_STEP = 0.05

# Below this signed-sum/magnitude-sum ratio the eigenmode route has lost too
# many digits to cancellation and evaluation switches to resolvent
# quadrature (tridiagonal bases only).
_HEALTH_SWITCH = 1e-8

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# Mode terms per chunk array of the batched Green sums.
_CHUNK_TERMS = 1 << 15


class CylinderPoint(NamedTuple):
    """A point (u, x) of the cylinder: real axial coordinate, base node index."""

    u: float
    node: int


class NumericalLossError(ArithmeticError):
    """A Green value has no positive value on the routes allowed."""


class QuadratureToleranceError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, estimate: float, abserr: float):
        super().__init__(message)
        self.estimate = estimate
        self.abserr = abserr


def gaussian_density(t: float, w: float, b: float) -> float:
    """Axial transition density (4 pi t)^(-1/2) exp(-(w + b t)^2 / (4 t)).

    This is the time-t kernel of d^2/du^2 + b d/du evaluated at displacement
    w; it integrates to 1 over w for every t and b.  Underflow to 0 is fine.
    """
    if t <= 0.0:
        raise ValueError("gaussian_density requires t > 0")
    z = w + b * t
    return math.exp(-z * z / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def _prefix_products(ratios: np.ndarray):
    """Prefix products P_y = prod_{j<y} ratios[j] down the first axis of a
    positive (n-1, ...) array, as (mantissa, exponent) arrays of shape
    (n, ...) with P = mantissa * 2**exponent; one rounding per factor, as in
    a running product, but no underflow.  Each factor moves the exponent by
    at most 1074, so int32, frexp's own type, holds it for n below 2e6."""
    man = np.empty((ratios.shape[0] + 1,) + ratios.shape[1:])
    exp = np.empty(man.shape, dtype=np.int32)
    man[0], exp[0] = 0.5, 1
    for j in range(ratios.shape[0]):
        man[j + 1], step = np.frexp(man[j] * ratios[j])
        exp[j + 1] = exp[j] + step
    return man, exp


# Positive nodes and their weights of the 12-point Gauss-Legendre rule: the
# float64 values of numpy's leggauss(12), whose nodes are exactly odd and
# weights exactly even.  Written out, the default rule imports no
# numpy.polynomial.
_GAUSS12_NODES = (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                  0.7699026741943047, 0.9041172563704748, 0.9815606342467192)
_GAUSS12_WEIGHTS = (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
                    0.16007832854334642, 0.10693932599531907, 0.04717533638651141)


def _unique(a: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array of finite values, by sort and mask: plain
    np.unique imports numpy.ma to test for a masked array."""
    a = np.sort(a)
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _gauss_panel_rule(edges: Sequence[float], order: int = 12):
    """Composite Gauss-Legendre nodes/weights over the given panel edges."""
    if order == 12:
        x, w = np.array(_GAUSS12_NODES), np.array(_GAUSS12_WEIGHTS)
        x, w = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    else:
        x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _sech_trapezoid_rule(lo: float, hi: float, step: float, pad: float):
    """Nodes w = e^tau and weights step * w of the trapezoid rule in tau over
    [ln(lo)/2 - pad, ln(hi)/2 + pad], for int_0^inf f(w) dw when f is a sum
    of 1/(w^2 + mu) terms with lo <= mu <= hi."""
    tau = np.arange(0.5 * math.log(lo) - pad, 0.5 * math.log(hi) + pad + 0.5 * step, step)
    w = np.exp(tau)
    return w, step * w


class StableAxialEvaluator:
    """Deep-separation axial kernel values through resolvent quadrature.

    Evaluates V(s; x, y) = sum_k phi_k(x) phi_k(y) exp(-s sqrt(mu_k)) /
    (2 sqrt(mu_k)) without touching the eigendata, via

        V(s) = (1/pi) * int_0^inf cos(s w) [(A + b^2/4 + w^2)^{-1}]_{xy} dw

    in the mass-symmetrized frame.  Each resolvent T_w = A + b^2/4 + w^2 is
    a positive-definite, diagonally dominant tridiagonal matrix with
    negative off-diagonals (an M-matrix): the base must be a connected
    path.  Its entries are positive and computed without cancellation; the
    only cancellation left is the mild cosine damping.  Two rules serve
    two regimes.

    ``values`` takes Gauss-Legendre panels up to w = 40, which resolve
    cos(s w): meaningful exactly in the deep regime (resolvent columns
    concentrated at small w), which is when the eigenmode route degrades.
    One twisted factorization per panel node gives its forward and
    backward pivots d+ and d-; then [T_w^{-1}]_{xx} = 1/gamma_x and every
    other entry of column x is 1/gamma_x times a product of the positive
    ratios -e/d+ (towards node 0) or -e/d- (towards node n-1), so columns
    decay multiplicatively through the base.  The factorization costs
    O(n W) time and memory for the W = 216 panel nodes, is built on the
    first evaluation, and then yields any entry of any column in O(W).

    ``zero_separation_values`` serves s = 0, where nothing oscillates: with
    w = e^tau each mode's integrand becomes (1/(2 sqrt(mu))) sech(tau -
    ln(mu)/2), and the trapezoid rule in tau (Trefethen & Weideman 2014,
    "The exponentially convergent trapezoidal rule") of step h errs by about
    2 e^{-pi^2/h} relative to the sum of the mode magnitudes.  Its range
    runs from ln(mu_1)/2 - P to ln(||A + b^2/4||)/2 + P (a Gershgorin
    bound), which costs about e^{-P} more; h = 0.25 and P = 40 take about
    350 nodes on a 3000-node cap.  It solves T_w z = e_x for the one column
    x it is asked for instead of tabulating every column: LAPACK's dptsv
    factors T_w = L D L^T, and since L's off-diagonal is negative, both
    substitutions against e_x add only positive terms; the subtractions
    stay in the pivots, as in the twisted factorization.
    """

    # Panels follow the resolvent's w-decay: fine where transit-suppressed
    # columns still move, coarse in the dead tail.
    _EDGES = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0,
              4.0, 5.0, 6.0, 8.0, 10.0, 14.0, 20.0, 28.0, 40.0)
    # Step and padding of the s = 0 trapezoid rule in tau = ln w.
    _TAU_STEP = 0.25
    _TAU_PAD = 40.0

    def __init__(self, base: BaseOperator, *, mu1: float):
        """``mu1``, the smallest mu_k, sets the low end of the s = 0 rule."""
        if not base.is_tridiagonal or base.n < 2:
            raise ValueError("stable axial evaluation needs a tridiagonal base")
        self._scale, self._diag, self._off = mass_scaled_bands(base)
        self._shift = 0.25 * base.b * base.b
        if np.any(self._off == 0.0):
            raise ValueError("stable axial evaluation needs a connected path")
        self._w, self._qw = _gauss_panel_rule(self._EDGES)
        self._zero_rule = _sech_trapezoid_rule(
            mu1, _gershgorin(self._diag, self._off)[1] + self._shift,
            self._TAU_STEP, self._TAU_PAD,
        )
        self._factors = None

    def _factorize(self):
        """Twisted factorization of T_w at every node w of the panel rule.

        Returns (man, exp, inv_gamma).  With the positive ratios
        f_j = -e_j / d+_j and l_j = -e_j / d-_{j+1}, an entry of column x is
        [T_w^{-1}]_{yx} = inv_gamma[x] * prod_{j=y}^{x-1} f_j for y < x and
        inv_gamma[x] * prod_{j=x}^{y-1} l_j for y > x.  The prefix products
        F_y = prod_{j<y} f_j and L_y = prod_{j<y} l_j are sides 0 and 1 of
        the (n, 2, W) mantissas ``man`` and exponents ``exp``, which cannot
        underflow, so any entry is one quotient of two of them.
        """
        if self._factors is None:
            t = self._diag[:, None] + (self._shift + self._w * self._w)[None, :]
            e = self._off[:, None]
            e2 = e * e
            n = t.shape[0]
            fwd = np.empty_like(t)
            bwd = np.empty_like(t)
            fwd[0] = t[0]
            for i in range(1, n):
                fwd[i] = t[i] - e2[i - 1] / fwd[i - 1]
            bwd[n - 1] = t[n - 1]
            for i in range(n - 2, -1, -1):
                bwd[i] = t[i] - e2[i] / bwd[i + 1]
            gamma = fwd.copy()
            gamma[:-1] -= e2 / bwd[1:]
            ratios = np.empty((n - 1, 2, t.shape[1]))
            np.divide(-e, fwd[:-1], out=ratios[:, 0])
            np.divide(-e, bwd[1:], out=ratios[:, 1])
            del t, fwd, bwd  # freed before the (n, 2, W) prefix tables are built
            self._factors = (*_prefix_products(ratios), 1.0 / gamma)
        return self._factors

    def resolvent(self, y, x) -> np.ndarray:
        """[T_w^{-1}]_{yx} of each pair of the 1-D node arrays ``y`` and ``x``
        (the column) at every node w of the panel rule, shape (pairs, W)."""
        man, exp, inv_gamma = self._factorize()
        y, x = np.atleast_1d(y), np.asarray(x)
        # Towards node 0 (y < x) the entry is F_x / F_y, otherwise L_y / L_x.
        side, hi, lo = (y >= x).astype(int), np.maximum(y, x), np.minimum(y, x)
        return np.ldexp(man[hi, side] / man[lo, side], exp[hi, side] - exp[lo, side]) * inv_gamma[x]

    def values(self, s, y, x) -> np.ndarray:
        """V(s; y, x) of each pair of the 1-D arrays s >= 0, y and x (scalars
        broadcast) on the panel rule: (1/pi) sum_w qw cos(s w) [T_w^{-1}]_{yx}.
        Each distinct (y, x) forms its resolvent row once, in blocks of
        step = _CHUNK_TERMS // W rows; the pairs of a block gather their
        rows step at a time, with one cosine row per distinct separation.
        Each pair sums its own row in order, so its value does not depend
        on its batch."""
        s, y, x = np.broadcast_arrays(np.atleast_1d(np.asarray(s, dtype=float)), y, x)
        vals = np.empty(y.shape)
        step = max(1, _CHUNK_TERMS // self._w.size)
        n = self._diag.size
        key = y * n + x
        keys = _unique(key)
        row_of = np.searchsorted(keys, key)
        order = np.argsort(row_of, kind="stable")
        bounds = np.searchsorted(row_of[order], np.arange(0, keys.size + step, step))
        for first, a, b in zip(range(0, keys.size, step), bounds[:-1], bounds[1:]):
            rows = self.resolvent(*np.divmod(keys[first : first + step], n))
            for lo in range(a, b, step):
                idx = order[lo : min(lo + step, b)]
                terms = rows[row_of[idx] - first]
                sep, cos_row = np.unique(s[idx], return_inverse=True)
                terms *= np.cos(sep[:, None] * self._w)[cos_row]
                terms *= self._qw
                vals[idx] = np.cumsum(terms, axis=1)[:, -1]
        return vals / math.pi * self._scale[y] * self._scale[x]

    def zero_separation_values(self, y, x) -> np.ndarray:
        """V(0; y, x) of each node of the 1-D array y against the one
        column x on the s = 0 rule: (1/pi) sum_w qw [T_w^{-1}]_{yx}.

        Each rule node takes one dptsv solve T_w z = e_x, and the requested
        rows of z add to the sum in node order, so a row's value does not
        depend on the other rows requested.  The first half of the rule's
        nodes is summed as it is solved.  So is the second half when
        _run_pair runs it after the first; when it starts beside the first,
        its O(W len(y)) rows wait to be added after.
        """
        y, x = np.atleast_1d(y), operator.index(x)
        cut = self._zero_rule[0].size // 2
        acc, summed = np.zeros(y.shape), []

        def add(rows):
            for row in rows:
                np.add(acc, row, out=acc)

        def first_half():
            add(self._zero_rule_rows(y, x, slice(None, cut)))
            summed.append(True)

        def second_half():
            rows = self._zero_rule_rows(y, x, slice(cut, None))
            if not summed:
                return list(rows)
            add(rows)
            return []

        add(_run_pair(first_half, second_half, self._diag.size)[1])
        return acc / math.pi * self._scale[y] * self._scale[x]

    def _zero_rule_rows(self, y, x: int, part: slice):
        """Yield qw z[y] of each node (w, qw) of the s = 0 rule in ``part``,
        in order, z solving T_w z = e_x.  dptsv overwrites T_w's bands and
        e_x, so each node refills the same buffers, whose pointers are made
        once: d, and e and z from one template (off, e_x) in one copy."""
        n = self._diag.size
        template = np.zeros(2 * n - 1)
        template[: n - 1] = self._off
        template[n - 1:][x] = 1.0
        d, ez = np.empty(n), np.empty_like(template)
        e, z = ez[: n - 1], ez[n - 1:]
        info = ctypes.c_int(0)
        solve = _lapack(*_DPTSV)
        args = (_int(n), _int(1), _doubles(d), _doubles(e), _doubles(z), _int(n),
                ctypes.byref(info))
        for w, qw in zip(self._zero_rule[0][part], self._zero_rule[1][part]):
            np.add(self._diag, self._shift + w * w, out=d)
            ez[:] = template
            solve(*args)
            if info.value:
                raise NumericalLossError(
                    f"dptsv failed on T_w at w = {w!r} with info={info.value}")
            yield z[y] * qw


@dataclass(frozen=True)
class SeparatedSolution:
    """Separated solution exp(alpha*u) * profile(x), normalized at a point."""

    alpha: float
    profile: np.ndarray

    def __call__(self, p: CylinderPoint) -> float:
        return math.exp(self.alpha * p.u) * self.profile[p.node]

    def log_value(self, p: CylinderPoint) -> float:
        return self.alpha * p.u + math.log(self.profile[p.node])


class _Modes(NamedTuple):
    """Eigendata of one working precision for the Green mode sums."""

    phi: np.ndarray
    two_sqrt_mu: np.ndarray
    delta: np.ndarray  # sqrt(mu_k) - sqrt(mu_1)
    sqrt_mu1: float


def _sum_in_order(terms: np.ndarray) -> np.ndarray:
    """Column sums of a C-ordered (K, m) array that add its rows in order,
    as a 1-D loop or dot does.  A reduction over the outer axis goes row by
    row; a single column is a contiguous vector, which numpy would sum
    pairwise, so it takes a running sum instead."""
    if terms.shape[1] == 1:
        return np.cumsum(terms[:, 0])[-1:]
    return np.add.reduce(terms, axis=0)


def _sum_distinct_pairs(modes: _Modes, s, i, j, keep):
    """GreenEvaluator._mode_sums of every pair, without the search for
    repeated neighbours.  Pairs keeping the same number of modes K are summed
    together in chunks of at most _CHUNK_TERMS terms, each a C-ordered
    (K, pairs) block that _sum_in_order adds row by row, mode by mode.  The
    weights phi_k(i) phi_k(j) / (2 sqrt(mu_k)) are gathered from phi.T, a
    C-contiguous (modes, n) view for the eigendata decompose returns.

    When the separations repeat (at most half as many distinct ones as
    pairs) and their decay rows fit one chunk, each distinct row is formed
    once and gathered per pair.  Likewise, when the weight rows of the
    distinct node pairs (i, j), formed at the largest K, take at most half
    the terms of the per-pair weights, each distinct pair's row is formed
    once, for a block of _CHUNK_TERMS // width distinct pairs at a time,
    and the pairs of that block gather it.  Either way the values are those
    formed per pair."""
    tail = np.zeros(s.size)
    mag = np.zeros(s.size)
    seps = _unique(s)
    width = int(keep.max(initial=0))
    table = None
    if 2 * seps.size <= s.size and seps.size * width <= _CHUNK_TERMS:
        table = np.exp(-seps * modes.delta[:width, None])
        col = np.searchsorted(seps, s)
    phi_t = modes.phi.T
    nodes = phi_t.shape[1]
    block = rows = None
    group_of = keep
    pair_terms = int(keep.sum())
    if 0 < 2 * width <= pair_terms:  # else even one distinct row is too many
        pair_key = i * nodes + j
        pair_keys = _unique(pair_key)
        if 2 * pair_keys.size * width <= pair_terms:
            per = max(1, _CHUNK_TERMS // width)
            block, rows = np.divmod(np.searchsorted(pair_keys, pair_key), per)
            # Each block's groups of equal K are neighbours in this order.
            group_of = block * (width + 1) + keep
    order = np.argsort(group_of, kind="stable")
    weights_of = None
    for group in np.split(order, np.flatnonzero(np.diff(group_of[order])) + 1):
        if not group.size:
            continue
        K = int(keep[group[0]])
        if rows is not None and weights_of != block[group[0]]:
            weights_of = block[group[0]]
            pi, pj = np.divmod(pair_keys[weights_of * per : (weights_of + 1) * per], nodes)
            # The operations of the per-pair weights below, so the same bits.
            weights = np.take(phi_t[:width], pi, axis=1)
            weights *= np.take(phi_t[:width], pj, axis=1)
            weights /= modes.two_sqrt_mu[:width, None]
        step = max(1, _CHUNK_TERMS // K)
        for lo in range(0, group.size, step):
            idx = group[lo : lo + step]
            if rows is None:
                terms = np.take(phi_t[:K], i[idx], axis=1)
                terms *= np.take(phi_t[:K], j[idx], axis=1)
                terms /= modes.two_sqrt_mu[:K, None]
            else:
                terms = np.take(weights[:K], rows[idx], axis=1)
            if table is None:
                decays = np.multiply(-s[idx], modes.delta[:K, None])
                np.exp(decays, out=decays)
            else:
                decays = np.take(table[:K], col[idx], axis=1)
            terms *= decays
            tail[idx] = _sum_in_order(terms)
            mag[idx] = _sum_in_order(np.abs(terms, out=terms))
    return tail, mag


def _raise_if_lost(logs, pairs, routes: str) -> None:
    """Raise NumericalLossError naming the first lost (nan) pair of the
    broadcast ``pairs`` (pu, pnode, qu, qnode), whose flat values are ``logs``."""
    lost = np.flatnonzero(np.isnan(logs))
    if lost.size:
        pu, pnode, qu, qnode = (a.ravel()[lost[0]] for a in np.broadcast_arrays(*pairs))
        raise NumericalLossError(f"no positive value for G(({float(pu)}, {int(pnode)}); "
                                 f"({float(qu)}, {int(qnode)})) on {routes}")


class GreenEvaluator:
    """Evaluator of G, Martin kernels and the canonical solutions.

    The reference point (0, reference node of the base) normalizes every
    Martin kernel.  The eigendata may hold a leading block of the modes
    (``decompose`` with ``modes`` or ``reach``): a pair whose certified
    mode count (see _mode_counts) fits in the formed modes takes the mode
    sum, and any other pair raises ValueError; nothing is truncated
    silently.  ``run_record`` counts the cells that
    martin_deviation_from_f_plus serves by the s = 0 resolvent rule and
    keeps the largest certified truncation bound it found.
    """

    def __init__(self, spec: SpectralData, base: BaseOperator,
                 reference: Optional[CylinderPoint] = None):
        if reference is None:
            reference = CylinderPoint(0.0, base.reference_node)
        self.spec = spec
        self.base = base
        self.reference = CylinderPoint(float(reference[0]), int(reference[1]))
        if not 0 <= self.reference.node < spec.n:
            raise ValueError("reference node out of range")
        if np.any(spec.mu <= 0.0):
            raise ValueError("all shifted rates mu_k must be positive")
        sm = np.sqrt(spec.mu)
        self.sqrt_mu = sm
        self._stable = None
        if base.is_tridiagonal and base.n >= 2:
            self._stable = StableAxialEvaluator(base, mu1=float(spec.mu[0]))
        self.run_record = {"zero_separation": 0, "truncation_bound": 0.0}
        # The mode table at the eigendata's precision, and its float64
        # screen: the same table on float64 bases, a copy on refined chains.
        self._modes = self._screen_modes = _Modes(spec.eigenvectors, 2.0 * sm, sm - sm[0], sm[0])
        if spec.eigenvectors.dtype != np.float64:
            self._screen_modes = _Modes._make(a.astype(float) for a in self._modes)
        # Truncation data of the batched mode sums (see _mode_counts): the
        # quarter-octave ladder of mode counts, and g_i = -log(phi_1(i) sqrt(m_i)).
        n = spec.n
        ladder = np.minimum(n, np.ceil(2.0 ** (np.arange(4 * n.bit_length() + 1) / 4.0)))
        self._ladder = _unique(ladder).astype(int)
        phi1 = np.asarray(spec.ground_state, dtype=float)
        self._ground_depth = -np.log(phi1 * np.sqrt(spec.mass))

    def _pairs(self, pu, pnode, qu, qnode):
        """Flat (w, s, i, j, keep) of broadcast pair arrays, and their shape;
        ValueError for a node out of range, a non-finite axial coordinate or
        a pair that needs more than the formed modes."""
        pu, pnode, qu, qnode = np.broadcast_arrays(
            np.asarray(pu, dtype=float), np.asarray(pnode),
            np.asarray(qu, dtype=float), np.asarray(qnode),
        )
        i = pnode.astype(int).ravel()
        j = qnode.astype(int).ravel()
        n = self.spec.n
        if i.size and not (0 <= min(i.min(), j.min()) and max(i.max(), j.max()) < n):
            raise ValueError(f"node index out of range with n={n}")
        if not (np.isfinite(pu).all() and np.isfinite(qu).all()):
            raise ValueError("axial coordinates must be finite")
        w = (pu - qu).ravel()
        s = np.abs(w)
        keep = self._mode_counts(s, i, j)
        if not keep.all():
            k = np.flatnonzero(keep == 0)[0]
            raise ValueError(
                f"G(({float(pu.ravel()[k])}, {i[k]}); ({float(qu.ravel()[k])}, {j[k]})) "
                f"needs more than the {self.spec.modes} formed modes"
            )
        return pu.shape, w, s, i, j, keep

    def _mode_counts(self, s, i, j) -> np.ndarray:
        """Number of leading modes each pair keeps.

        Mass-orthonormal modes satisfy sum_k phi_k(i)^2 = 1/m_i, so by
        Cauchy-Schwarz the modes k >= K add at most
        e^{-s delta_K} / (2 sqrt(mu_1) sqrt(m_i m_j)) to the mode sum.  That
        is below eps * _HEALTH_SWITCH * w_1, w_1 = phi_1(i) phi_1(j) /
        (2 sqrt(mu_1)) the first mode weight, once s delta_K exceeds
        log(1.01 / (eps * _HEALTH_SWITCH)) + g_i + g_j with
        g_i = -log(phi_1(i) sqrt(m_i)) >= 0 (1% slack for rounding): the
        dropped part then stays under one ulp of any tail that passes the
        health switch.  K is rounded up to a quarter-octave ladder, clamped
        to the formed modes; a pair whose K exceeds them gets 0.  The count
        depends on the pair alone, so a pair's eigenmode value does not
        depend on the batch it arrives in.
        """
        g = self._ground_depth
        with np.errstate(divide="ignore", over="ignore"):  # s = 0 or subnormal
            reach = (math.log(1.01 / (_EPS * _HEALTH_SWITCH)) + g[i] + g[j]) / s
        keep = np.searchsorted(self._screen_modes.delta, reach, side="right")
        formed = self.spec.modes
        rounded = np.minimum(self._ladder[np.searchsorted(self._ladder, keep)], formed)
        return np.where(keep <= formed, rounded, 0)

    @staticmethod
    def _mode_sums(modes: _Modes, s, i, j, keep):
        """Signed and absolute sums of the kept mode terms
        w_k e^{-s delta_k}, w_k = phi_k(i) phi_k(j) / (2 sqrt(mu_k)), of each
        pair, rounded to float64 (see _sum_distinct_pairs).

        A pair whose (s, i, j, keep) equals the previous pair's in the flat
        batch takes that pair's sums, found by one neighbour comparison (the
        symmetry sweep places its two bitwise-equal sides next to each
        other); only the others are summed."""
        repeat = np.zeros(s.size, dtype=bool)
        repeat[1:] = (s[1:] == s[:-1]) & (i[1:] == i[:-1]) & (j[1:] == j[:-1]) & (
            keep[1:] == keep[:-1]
        )
        first = np.flatnonzero(~repeat)
        tail, mag = _sum_distinct_pairs(modes, s[first], i[first], j[first], keep[first])
        owner = np.cumsum(~repeat) - 1
        return tail[owner], mag[owner]

    def _log_values(self, modes: _Modes, w, s, tail, mag):
        """log G: the factored mode-1 decay times the tail; nan for pairs
        whose signed sum fell to _HEALTH_SWITCH of its magnitude (lost)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = -0.5 * self.spec.b * w - s * modes.sqrt_mu1 + np.log(tail)
        logs[~(tail > _HEALTH_SWITCH * mag)] = np.nan
        return logs

    def _screen(self, w, s, i, j, keep):
        """Float64 pass: (log values, bound); lost pairs hold nan.

        ``bound`` certifies |log value - log value at eigendata precision|:
        0 on float64 eigendata, where this pass is that value, and inf where
        the health conclusion could flip at eigendata precision.  On 80-bit
        eigendata the float64 sums differ from the 80-bit ones (same modes,
        same order) by at most (K + 6 + s delta_K) eps * magnitude: K - 1
        summation roundings, a few per term for the weight, exp and product,
        and s delta eps for the rounded exp argument.
        """
        modes = self._screen_modes
        tail, mag = self._mode_sums(modes, s, i, j, keep)
        logs = self._log_values(modes, w, s, tail, mag)
        if modes is self._modes:
            return logs, np.zeros(s.size)
        lost = np.isnan(logs)
        err = (keep + 6 + s * modes.delta[keep - 1]) * _EPS * mag
        sure = (tail - err > _HEALTH_SWITCH * (mag + err)) | lost & (
            tail + err <= _HEALTH_SWITCH * (mag - err)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            rounding = 2.0 * _EPS * (
                np.abs(0.5 * self.spec.b * w) + s * modes.sqrt_mu1 + np.abs(np.log(tail))
            )
            bound = np.where(lost, 0.0, err / (tail - err) + rounding)
        return logs, np.where(sure, bound, np.inf)

    def screen_many(self, pu, pnode, qu, qnode):
        """Float64 preview of log_green_many's mode sums.

        Returns (log_values, bound) in the broadcast shape of the inputs,
        lost pairs nan: ``bound`` certifies the distance of each log value
        from the eigendata-precision value (0 when the eigendata is float64,
        so the preview is that value), and is inf where the preview cannot
        certify whether the pair passes the health switch; lost pairs with a
        finite bound are certainly lost at eigendata precision.
        """
        shape, w, s, i, j, keep = self._pairs(pu, pnode, qu, qnode)
        logs, bound = self._screen(w, s, i, j, keep)
        return logs.reshape(shape), bound.reshape(shape)

    def log_green_many(self, pu, pnode, qu, qnode, allow_stable: bool = True):
        """log G((pu, pnode); (qu, qnode)) for broadcast arrays of pairs.

        Returns the log values in the broadcast shape: the mode sum at the
        eigendata's precision, and where the signed sum has lost its digits
        and ``allow_stable`` is set, resolvent quadrature (tridiagonal
        bases).  A lost pair holds nan with ``allow_stable=False``; with
        ``allow_stable=True`` a pair with no positive value on any route
        raises NumericalLossError.  Trailing modes below one ulp of the sum
        are dropped (see _mode_counts); a pair's eigenmode value does not
        depend on its batch.  On 80-bit eigendata the float64 screen runs
        first, and pairs it certifies as lost skip the 80-bit sums.  A pair
        beyond the formed modes raises ValueError (see the class docstring).
        """
        shape, w, s, i, j, keep = self._pairs(pu, pnode, qu, qnode)
        logs, bound = self._screen(w, s, i, j, keep)
        modes = self._modes
        if modes is not self._screen_modes:
            todo = ~(np.isnan(logs) & np.isfinite(bound))
            logs = np.full(s.size, np.nan, dtype=self.sqrt_mu.dtype)
            tail, mag = self._mode_sums(modes, s[todo], i[todo], j[todo], keep[todo])
            logs[todo] = self._log_values(modes, w[todo], s[todo], tail, mag)
        if allow_stable:
            if self._stable is not None:
                self._resolvent_logs(logs, w, s, i, j)
            _raise_if_lost(logs, (pu, pnode, qu, qnode), "any route")
        return logs.reshape(shape)

    def _resolvent_logs(self, logs, w, s, i, j) -> None:
        """Fill lost (nan) pairs in place from one StableAxialEvaluator.values
        call, with the pole node j as the resolvent column; a pair whose
        quadrature value is not positive stays nan."""
        idx = np.flatnonzero(np.isnan(logs))
        if idx.size:
            vals = self._stable.values(s[idx], i[idx], j[idx])
            ok = vals > 0.0
            logs[idx[ok]] = -0.5 * self.spec.b * w[idx[ok]] + np.log(vals[ok])

    def log_green(
        self,
        p: CylinderPoint,
        q: CylinderPoint,
        extended: bool = False,
        allow_stable: bool = True,
    ) -> float:
        """log G(p; q), computed against the factored mode-1 decay.

        When the signed sum has lost its digits and ``allow_stable`` is set,
        the value is recomputed by resolvent quadrature (tridiagonal bases);
        with ``allow_stable=False`` such evaluations raise NumericalLossError
        instead.  One-pair form of log_green_many.  ``extended`` is ignored;
        it stays only because perfbench/tracer.py's wrapper passes it.
        """
        pair = (p[0], p[1], q[0], q[1])
        logs = self.log_green_many(*pair, allow_stable=allow_stable)
        _raise_if_lost(logs, pair, "the eigenmode route")
        return logs[()]

    def green(self, p: CylinderPoint, q: CylinderPoint) -> float:
        """G(p; q) in closed eigenmode form (finite on the diagonal too)."""
        return math.exp(self.log_green(p, q))

    def green_by_quadrature(
        self, p: CylinderPoint, q: CylinderPoint, rel_tol: float = 1e-9
    ) -> float:
        """Independent evaluation of G by adaptive time quadrature.

        Integrates gaussian_density(t, u-v, b) * pi_t(i, j) over t in
        (0, inf), split at the saddle time |u - v| / (2 sqrt(mu_1)).
        """
        import scipy.integrate  # deferred: only this cross-check needs it

        self.spec.require_all_modes("green_by_quadrature")
        w = p.u - q.u
        if w == 0.0 and p.node == q.node:
            raise ValueError("quadrature route requires p != q")
        i, j = p.node, q.node
        lam = self.spec.eigenvalues
        phi = self.spec.eigenvectors
        c = phi[i] * phi[j]
        b = self.spec.b

        def integrand(t: float) -> float:
            return gaussian_density(t, w, b) * float(np.dot(c, np.exp(-lam * t)))

        t_split = max(abs(w) / (2.0 * self.sqrt_mu[0]), 1e-2)
        # quad cannot be asked for less than ~50 eps; the requested rel_tol
        # is still enforced on the achieved error estimate below.
        quad_eps = max(rel_tol / 4.0, 1e-13)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            tail, tail_err = scipy.integrate.quad(
                integrand, t_split, np.inf, epsabs=0.0, epsrel=quad_eps, limit=400
            )
            # Substitution t = tau^2 removes the 1/sqrt(t) factor at 0.
            head, head_err = scipy.integrate.quad(
                lambda tau: 2.0 * tau * integrand(tau * tau),
                0.0,
                math.sqrt(t_split),
                epsabs=max(abs(tail) * quad_eps, 1e-300),
                epsrel=quad_eps,
                limit=400,
            )
        total = head + tail
        abserr = head_err + tail_err
        if abserr > rel_tol * abs(total):
            raise QuadratureToleranceError(
                f"requested relative tolerance {rel_tol:.1e} not met: "
                f"estimate {total:.12e} with absolute error {abserr:.3e}",
                estimate=total,
                abserr=abserr,
            )
        return total

    def martin_kernel(self, pole: CylinderPoint) -> "MartinKernel":
        """Martin kernel K_pole = G(., .; pole) / G(reference; pole)."""
        pole = CylinderPoint(float(pole[0]), int(pole[1]))
        if pole == self.reference:
            raise ValueError("Martin kernel is undefined at its own normalization point")
        log_ref = self.log_green(self.reference, pole)
        return MartinKernel(evaluator=self, pole=pole, log_reference=log_ref)

    def f_plus(self) -> SeparatedSolution:
        """The canonical positive solution exp(alpha_max u) phi_0(x), 1 at the reference."""
        return self._separated(self.spec.alpha_max)

    def f_minus(self) -> SeparatedSolution:
        """The mirror solution exp(alpha_min u) phi_0(x), 1 at the reference."""
        return self._separated(self.spec.alpha_min)

    def _separated(self, alpha: float) -> SeparatedSolution:
        phi0, (u0, x0) = self.spec.ground_state, self.reference
        return SeparatedSolution(alpha=alpha, profile=phi0 / phi0[x0] * math.exp(-alpha * u0))

    def martin_deviation_from_f_plus(
        self, pole: CylinderPoint, u_grid: np.ndarray, nodes: np.ndarray
    ) -> np.ndarray:
        """K_pole - F_plus on a probe grid, with the shared mode-1 part
        cancelled algebraically so the difference keeps full relative
        precision however deep the pole sits.

        Requires pole.u >= max(u_grid) and pole.u >= the reference's u.
        Returns an array of shape (len(nodes), len(u_grid)).  The sums run
        over the formed modes.  When they are a leading block (F of n), the
        cells at the pole's own level take the s = 0 rule, and every cell is
        certified: mass-orthonormal modes satisfy sum_k phi_k(i)^2 = 1/m_i,
        so by Cauchy-Schwarz the dropped modes add at most
        e^{-s delta_F} / (2 sqrt(mu_F) sqrt(m_i m_pole)) to a mode sum at
        separation s (delta_F, mu_F of the first dropped mode).  Where the resulting bound on a cell exceeds eps times the
        table's largest magnitude, ValueError; run_record keeps the largest
        ratio of the two.  A table whose largest magnitude is not a positive
        normal float (it underflows at deep poles) is a ParameterError on
        full and partial eigendata alike.
        """
        u_grid = np.asarray(u_grid, dtype=float)
        nodes = np.asarray(nodes, dtype=int)
        v, jp = float(pole[0]), int(pole[1])
        u0, i0 = self.reference
        if np.any(u_grid > v) or u0 > v:
            raise ValueError("probe grid and reference must stay on the near side of the pole")
        formed = self.spec.modes
        sm = self.sqrt_mu[:formed]
        delta = sm - sm[0]
        phi = self.spec.eigenvectors
        c_pole = phi[jp] / (2.0 * sm)            # (n_modes,)
        C = phi[nodes] * c_pole[None, :]          # (n_nodes, n_modes)
        C0 = phi[i0] * c_pole                     # (n_modes,)
        m1 = C[:, 0]
        m1_ref = C0[0]
        decay_ref = np.exp(-(v - u0) * delta)     # (n_modes,)
        D0 = float(np.dot(C0, decay_ref))
        # Decay factors exp(-(v - u) delta_k); the mode-1 row is all ones and
        # cancels out of N below, which is the whole point of this routine.
        E = np.exp(-delta[:, None] * (v - u_grid)[None, :])
        const = float(np.dot(C0[1:], decay_ref[1:]))
        N = (C[:, 1:] * m1_ref) @ E[1:, :] - np.outer(m1 * const, np.ones_like(u_grid))
        partial = formed < self.spec.n
        zero = partial & (u_grid == v)
        if zero.any():
            if self._stable is None:
                raise ValueError("zero separation on partial eigendata needs a path base")
            # sum_{k>=2} C_k at s = 0 is the whole sum V(0) less mode 1.
            v0 = self._stable.zero_separation_values(nodes, jp)
            N[:, zero] = ((v0 - m1) * m1_ref - m1 * const)[:, None]
            self.run_record["zero_separation"] += nodes.size * int(np.count_nonzero(zero))
        # Overflow, underflow and 0 * inf at deep poles are caught by the
        # check on sup below, as a ParameterError instead of warnings.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            growth = np.exp(self.spec.alpha_max * (u_grid - u0))[None, :]
            dev = growth * N / (D0 * m1_ref)
        sup = float(np.max(np.abs(dev)))
        if not _TINY <= sup < math.inf:
            raise ParameterError(
                f"the deviation table of the pole ({v}, {jp}) has sup {sup!r}, not a "
                "positive normal float: K - F_plus is lost to double precision there"
            )
        if not partial:
            return dev
        # The dropped part of a mode sum at separation sep over nodes i and
        # jp; none in the zero-separation cells, which the s = 0 rule serves
        # whole, and ref_tail in the reference sums const and D0.
        mass = self.spec.mass
        cut = float(self.sqrt_mu[formed])

        def dropped(sep, m_i):
            return np.exp(-sep * (cut - sm[0])) / (2.0 * cut * np.sqrt(m_i * mass[jp]))

        ref_tail = dropped(v - u0, mass[i0])
        near = np.where(zero, 0.0, m1_ref * dropped(v - u_grid[None, :], mass[nodes][:, None]))
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = (growth * (near + np.abs(m1)[:, None] * ref_tail) / m1_ref
                     + np.abs(dev) * ref_tail) / max(D0 - ref_tail, 0.0)
        ratio = float(np.max(bound)) / sup
        if not ratio <= _EPS:
            raise ValueError(
                f"the {formed} formed modes do not certify K - F_plus for the pole "
                f"({v}, {jp}): dropped-mode bound {ratio:.3e} of the table's sup"
            )
        self.run_record["truncation_bound"] = max(self.run_record["truncation_bound"], ratio)
        return dev


@dataclass(frozen=True)
class MartinKernel:
    """Green's function with a fixed pole, normalized at the reference point."""

    evaluator: GreenEvaluator
    pole: CylinderPoint
    log_reference: float

    def __call__(self, p: CylinderPoint) -> float:
        return math.exp(self.log_value(p))

    def log_value(self, p: CylinderPoint) -> float:
        return self.evaluator.log_green(p, self.pole) - self.log_reference


@dataclass(frozen=True)
class ModeSolution:
    """Axially separated solution sum_k (A_k e^{a_k^+ u} + B_k e^{a_k^- u}) phi_k.

    Coefficients are stored against the cap-anchored scaled basis
    {exp(a_k^+ (u - T)), exp(a_k^- (u + T))} so that construction and
    evaluation never overflow; the unscaled A_k, B_k are derived views (they
    may underflow to 0 for very stiff modes, which is harmless for display).
    """

    spec: SpectralData
    a_scaled: np.ndarray
    b_scaled: np.ndarray
    anchor: float

    def __post_init__(self):
        self.spec.require_all_modes("ModeSolution")

    @property
    def coeff_plus(self) -> np.ndarray:
        """Unscaled coefficients A_k of exp(alpha_k^+ u)."""
        with np.errstate(under="ignore"):
            return self.a_scaled * np.exp(-self.spec.alpha_plus() * self.anchor)

    @property
    def coeff_minus(self) -> np.ndarray:
        """Unscaled coefficients B_k of exp(alpha_k^- u)."""
        with np.errstate(under="ignore"):
            return self.b_scaled * np.exp(self.spec.alpha_minus() * self.anchor)

    @classmethod
    def from_coefficients(
        cls, spec: SpectralData, coeff_plus: Sequence[float], coeff_minus: Sequence[float]
    ) -> "ModeSolution":
        """Build from unscaled coefficients (anchor T = 0)."""
        a = np.zeros(spec.n)
        b = np.zeros(spec.n)
        a[: len(coeff_plus)] = coeff_plus
        b[: len(coeff_minus)] = coeff_minus
        return cls(spec=spec, a_scaled=a, b_scaled=b, anchor=0.0)

    def _scaled_parts(self, u: np.ndarray):
        """Common log factor M(u) plus O(1) mode coefficients at each u."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        ap = self.spec.alpha_plus()
        am = self.spec.alpha_minus()
        with np.errstate(divide="ignore"):
            log_a = np.log(np.abs(self.a_scaled))
            log_b = np.log(np.abs(self.b_scaled))
        ga = log_a[:, None] + np.outer(ap, u - self.anchor)
        gb = log_b[:, None] + np.outer(am, u + self.anchor)
        M = np.maximum(ga.max(axis=0), gb.max(axis=0))
        M = np.where(np.isfinite(M), M, 0.0)
        with np.errstate(under="ignore"):
            ca = np.sign(self.a_scaled)[:, None] * np.exp(ga - M[None, :])
            cb = np.sign(self.b_scaled)[:, None] * np.exp(gb - M[None, :])
        return M, ca + cb, np.abs(ca) + np.abs(cb)

    def evaluate(self, u) -> np.ndarray:
        """Values on all base nodes; shape (n_nodes,) or (n_nodes, len(u))."""
        scalar = np.isscalar(u)
        M, coef, _ = self._scaled_parts(u)
        with np.errstate(over="ignore", under="ignore"):
            vals = (self.spec.eigenvectors @ coef) * np.exp(M)[None, :]
        return vals[:, 0] if scalar else vals

    def evaluate_scaled(self, u):
        """(log factor, values/scale factor, local magnitude scale) per u."""
        M, coef, mag = self._scaled_parts(u)
        phi = self.spec.eigenvectors
        return M, phi @ coef, np.abs(phi) @ mag


def truncated_dirichlet_solve(
    ev: GreenEvaluator, T: float, g_minus: np.ndarray, g_plus: np.ndarray
) -> ModeSolution:
    """Solve the cylinder Dirichlet problem on [-T, T] with cap data g_-, g_+.

    Each mode's 2x2 system matches the mass projections of the cap data in
    the scaled basis; the determinant 1 - exp(-4 T sqrt(mu_k)) is positive
    whenever lam_k > -b**2/4, which lam_k > 0 guarantees.
    """
    if T <= 0.0:
        raise ValueError("half-length T must be positive")
    spec = ev.spec
    g_minus = np.asarray(g_minus, dtype=float)
    g_plus = np.asarray(g_plus, dtype=float)
    if g_minus.shape != (spec.n,) or g_plus.shape != (spec.n,):
        raise ValueError("cap data must be node vectors")
    c_minus = spec.eigenvectors.T @ (spec.mass * g_minus)
    c_plus = spec.eigenvectors.T @ (spec.mass * g_plus)
    with np.errstate(under="ignore"):
        q_plus = np.exp(-2.0 * T * spec.alpha_plus())
        q_minus = np.exp(2.0 * T * spec.alpha_minus())
    det = 1.0 - q_plus * q_minus
    if np.any(det <= 0.0):
        raise ArithmeticError("degenerate mode system: coincident axial rates")
    a_scaled = (c_plus - q_minus * c_minus) / det
    b_scaled = (c_minus - q_plus * c_plus) / det
    return ModeSolution(spec=spec, a_scaled=a_scaled, b_scaled=b_scaled, anchor=T)


def positivity_scan(sol: ModeSolution, u_range: Tuple[float, float]) -> Optional[CylinderPoint]:
    """Scan for a point where the solution dips below -1e-12 * local scale,
    on a grid of step _SCAN_STEP over ``u_range``.

    Returns the first witness in increasing-u order, or None.  A None result
    falsifies nothing; the scanner is a falsifier, not a decision procedure.
    """
    lo, hi = u_range
    if not hi >= lo:
        raise ValueError("invalid scan range")
    count = int(math.floor((hi - lo) / _SCAN_STEP + 1e-9)) + 1
    grid = lo + _SCAN_STEP * np.arange(count)
    for start in range(0, count, 256):
        chunk = grid[start : start + 256]
        _, vals, scale = sol.evaluate_scaled(chunk)
        bad = vals < -_NEGATIVITY_TOL * scale
        if np.any(bad):
            nodes, cols = np.nonzero(bad)
            order = np.lexsort((nodes, cols))
            node, col = nodes[order[0]], cols[order[0]]
            return CylinderPoint(float(chunk[col]), int(node))
    return None


class ExponentFit(NamedTuple):
    alpha_hat: float
    max_residual: float


def fit_exponent(values: Sequence[Tuple[float, float]]) -> ExponentFit:
    """Least-squares axial growth rate of log K(u) along increasing u."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[1] != 2 or vals.shape[0] < 3:
        raise ValueError("need at least 3 (u, value) samples")
    u = vals[:, 0]
    y = vals[:, 1]
    if np.any(np.diff(u) <= 0.0):
        raise ValueError("u samples must be strictly increasing")
    if np.any(y <= 0.0):
        raise ValueError("exponent fit requires positive values")
    logy = np.log(y)
    design = np.column_stack([u, np.ones_like(u)])
    coef, *_ = np.linalg.lstsq(design, logy, rcond=None)
    resid = logy - design @ coef
    return ExponentFit(alpha_hat=float(coef[0]), max_residual=float(np.max(np.abs(resid))))
