"""Generalized eigendecomposition, heat kernel, and the exponent ladder.

For a base operator (K, M) the eigenpairs solve K phi = lam M phi with
mass-orthonormal eigenvectors.  The Dirichlet heat kernel density is the
eigenexpansion pi_t(i, j) = sum_k exp(-lam_k t) phi_k(i) phi_k(j), and the
admissible axial growth rates of separated positive solutions on the cylinder
are the roots of alpha**2 + b*alpha = lam_1:

    alpha_min < alpha_zero = -b/2 < alpha_max,
    alpha_max = (-b + sqrt(b**2 + 4*lam_1)) / 2.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy  # the package alone: scipy/linalg/__init__.py stays unrun

from .base import BaseOperator, ScaleError

__all__ = [
    "SpectralError",
    "EigensolverError",
    "DegenerateGroundStateError",
    "NotPositiveDefiniteError",
    "SpectralData",
    "decompose",
    "mass_scaled_bands",
    "heat_kernel",
    "heat_kernel_matrix",
]

# Relative spectral gap below which lam_1 is treated as degenerate.
_PERRON_GAP_TOL = 1e-12

# Largest accepted eigenpair residual, relative to |lam|.
_RESIDUAL_TOL = 1e-6

# Eigenvector columns per block of the residual check and the sign flips.
_RESIDUAL_BLOCK = 256

# Fewest base nodes on which _run_pair gives its two callables a thread
# each.  On d = 4 caps (2 vCPUs, numpy 2.4.6, scipy 1.17.1; in process,
# median of 21 calls), one thread against two: the s = 0 rule's 66 rows
# took 7.6 against 9.9 ms at n = 800 (the helper's numpy steps wait on the
# GIL), 10.4-11.9 against 10.6-11.3 at 1000 and 12.4-13.2 against 9.7-10.5
# at 1250.  A 12-mode decompose and a 51-value bisection gain from n = 328
# on (4.3 against 3.7 ms, 1.5 against 1.2 ms), while perfbench's whole
# chain-deep job (n = 328; median of 8 alternating runs in process) took
# 0.388 against 0.385 s, within its noise.
_PAIR_NODES = 1000

# LAPACK routines called through the pointers that scipy.linalg.cython_lapack
# exports, the only way cylpot reaches LAPACK on path bases: (name, kinds of
# the arguments in LAPACK order, return type), a kind being c for an option
# string, i an integer and d a double, each by pointer.
#   dstemr: jobz, range, n, d, e, vl, vu, il, iu, m, w, z, ldz, nzc, isuppz,
#           tryrac, work, lwork, iwork, liwork, info
#   dlarrb: n, d, lld, ifirst, ilast, rtol1, rtol2, offset, w, wgap, werr,
#           work, iwork, pivmin, spdiam, twist, info
#   dlaneg: n, d, lld, sigma, pivmin, r
#   dpttrf: n, d, e, info
#   dpteqr: compz, n, d, e, z, ldz, work, info
#   dptsv:  n, nrhs, d, e, b, ldb, info
_DSTEMR = ("dstemr", "cciddddiiiddiiiidiiii", "void")
_DLARRB = ("dlarrb", "iddiiddiddddiddii", "void")
_DLANEG = ("dlaneg", "iddddi", "int")
_DPTTRF = ("dpttrf", "iddi", "void")
_DPTEQR = ("dpteqr", "cidddidi", "void")
_DPTSV = ("dptsv", "iidddii", "void")
_CTYPES = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int),
           "d": ctypes.POINTER(ctypes.c_double)}
_RESTYPES = {"void": None, "int": ctypes.c_int}
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


class SpectralError(RuntimeError):
    """Base class for eigendecomposition failures."""


class EigensolverError(SpectralError):
    """The eigensolver produced eigenpairs with unacceptable residuals."""


class DegenerateGroundStateError(SpectralError):
    """lam_1 is not simple, violating Perron simplicity of the ground state."""


class NotPositiveDefiniteError(SpectralError):
    """The quadratic form is not positive definite (lam_1 <= 0)."""


@dataclass(frozen=True)
class SpectralData:
    """Generalized eigensystem of a base operator: the eigenvalues known,
    and a leading block of modes.

    known_eigenvalues holds the lowest eigenvalues, ascending: all n of them
    after a full or a ``modes`` solve, and those of modes 1..K+1 after a
    ``reach`` solve that formed K < n modes on a plain path base (mode K+1
    is the first dropped one, whose rate bounds the truncation).
    eigenvectors[:, k] is the k-th mode for the first ``modes`` of them,
    paired with eigenvalues = known_eigenvalues[:modes] (the same array
    when every mode was formed), and sum_i mass[i] * phi_k[i] * phi_l[i] =
    delta_kl.  The ground state eigenvectors[:, 0] is entrywise positive.
    eig_residual is the worst relative residual of the formed eigenpairs
    (see ``decompose``).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    mass: np.ndarray
    b: float
    eig_residual: float
    known_eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return self.mass.shape[0]

    @property
    def modes(self) -> int:
        """Number of formed eigenvectors."""
        return self.eigenvectors.shape[1]

    def require_all_modes(self, consumer: str) -> None:
        """Raise ValueError unless every mode was formed: ``consumer`` sums
        over all of them, and a leading block would truncate it silently."""
        if self.modes < self.n:
            raise ValueError(
                f"{consumer} sums over all {self.n} modes, but only {self.modes} "
                "were formed; decompose with modes=None"
            )

    @property
    def lambda1(self) -> float:
        return float(self.known_eigenvalues[0])

    @property
    def ground_state(self) -> np.ndarray:
        return self.eigenvectors[:, 0]

    @property
    def mu(self) -> np.ndarray:
        """Shifted rates mu_k = lam_k + b**2/4 of the known eigenvalues (all
        positive here)."""
        return self.known_eigenvalues + 0.25 * self.b * self.b

    @property
    def alpha_max(self) -> float:
        return 0.5 * (-self.b + math.sqrt(self.b * self.b + 4.0 * self.lambda1))

    @property
    def alpha_min(self) -> float:
        return 0.5 * (-self.b - math.sqrt(self.b * self.b + 4.0 * self.lambda1))

    @property
    def alpha_zero(self) -> float:
        return -0.5 * self.b

    def alpha_plus(self) -> np.ndarray:
        """Per-mode growing axial rate -b/2 + sqrt(mu_k)."""
        return -0.5 * self.b + np.sqrt(self.mu)

    def alpha_minus(self) -> np.ndarray:
        """Per-mode decaying axial rate -b/2 - sqrt(mu_k)."""
        return -0.5 * self.b - np.sqrt(self.mu)


def mass_scaled_bands(base: BaseOperator):
    """Scale vector s = M^(-1/2) and the bands (diag, off) of the symmetric
    similarity A = M^(-1/2) K M^(-1/2) of a tridiagonal base.

    Forms the bands from the diagonal and the edge list, with the operation
    order of the dense product (K * s[None, :]) * s[:, None], so they are
    bit-identical to the diagonals of that matrix.

    Raises ScaleError, before any LAPACK call, when an entry's square
    overflows: norms, pivot bounds and shifts of the solvers square them.
    """
    s = 1.0 / np.sqrt(base.mass)
    band = np.zeros(base.n - 1)
    path = base.edges[:, 1] - base.edges[:, 0] == 1
    band[base.edges[path, 0]] = -base.conductance[path]
    with np.errstate(over="ignore"):
        diag, off = (base.diagonal * s) * s, (band * s[1:]) * s[:-1]
    top = float(max(np.max(np.abs(diag)), np.max(np.abs(off), initial=0.0)))
    if not math.isfinite(top * top):
        raise ScaleError(
            f"the mass-scaled operator of the {base.kind} base with n = {base.n} has "
            f"entries up to {top:.3e}, whose squares overflow float64: its mass "
            "weights are too small for its conductances"
        )
    return s, diag, off


def _tridiagonal_matvec(diag, off, x: np.ndarray) -> np.ndarray:
    """T @ x for the symmetric tridiagonal T = (diag, off) and an (n, k)
    block x; the result takes the wider dtype of the operands."""
    out = diag[:, None] * x
    out[:-1] += off[:, None] * x[1:]
    out[1:] += off[:, None] * x[:-1]
    return out


def _solve_shifted_tridiagonal(
    diag: np.ndarray, off: np.ndarray, shifts: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve (T - shifts[k]*I) z_k = rhs[:, k] for every column k at once,
    for symmetric tridiagonal T, in the dtype of the inputs.

    One sweep of Gaussian elimination with partial pivoting runs down the
    rows for all columns together (each shift sits next to an eigenvalue,
    so every system is deliberately near-singular); each pivot choice is
    made per column, so column k gets exactly the arithmetic of a solve of
    its own system.

    Each row is one (4, K) block: its coefficients in three consecutive
    columns and its right-hand side, so a pivot step swaps and updates whole
    blocks.
    """
    n = diag.shape[0]
    dt = diag.dtype
    # rows[i]: row i as given, in the columns (i-1, i, i+1), which line up
    # with the eliminated row i-1; elimination overwrites it with row i of U
    # in the columns (i, i+1, i+2).
    rows = np.zeros((n, 4, shifts.shape[0]), dtype=dt)
    rows[1:, 0] = off[:, None]
    rows[:, 1] = diag[:, None] - shifts[None, :]
    rows[:-1, 2] = off[:, None]
    rows[:, 3] = rhs
    tiny = np.finfo(dt).tiny * 1e8

    def pivot(v):
        return np.where(v != 0, v, tiny)

    cur = np.zeros_like(rows[0])  # row i, eliminated, in the columns (i, i+1, i+2)
    cur[[0, 1, 3]] = rows[0, 1:]
    for i in range(n - 1):
        swap = abs(off[i]) > abs(cur[0])
        top = np.where(swap, rows[i + 1], cur)
        low = np.where(swap, cur, rows[i + 1])
        rows[i] = top
        cur = np.zeros_like(cur)
        cur[[0, 1, 3]] = low[1:] - low[0] / pivot(top[0]) * top[1:]
    rows[n - 1] = cur
    b, c, c2, x = rows.transpose(1, 0, 2)
    b = pivot(b)
    z = np.empty_like(x)
    z[n - 1] = x[n - 1] / b[n - 1]
    if n > 1:
        z[n - 2] = (x[n - 2] - c[n - 2] * z[n - 1]) / b[n - 2]
    for i in range(n - 3, -1, -1):
        z[i] = (x[i] - c[i] * z[i + 1] - c2[i] * z[i + 2]) / b[i]
    return z


def _column_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[:, k] @ v[:, k] for every column, one 1-D dot product each (the
    per-column summation order is what keeps refined modes reproducible)."""
    return np.array([u[:, k] @ v[:, k] for k in range(u.shape[1])], dtype=u.dtype)


def _refine_low_band(diag, off, vals, psi, cutoff: float):
    """Rayleigh-quotient refinement of eigenpairs with lam <= cutoff in
    80-bit arithmetic.

    Deep-separation Green evaluations cancel down to ~exp(-30) of the term
    magnitudes, which double-precision eigenvectors cannot support; two
    inverse-iteration steps per low mode push the eigenpair noise below the
    longdouble working precision.  High modes never matter there (their
    axial decay rates are huge), so they stay as solved.  All low modes
    iterate together; a mode whose iterate stops being finite keeps its
    last good eigenpair.
    """
    ld = np.longdouble
    dL = diag.astype(ld)
    eL = off.astype(ld)
    vals_out = vals.astype(ld)
    psi_out = psi.astype(ld)
    low = int(np.searchsorted(vals, cutoff, side="right"))  # vals ascend
    V = psi_out[:, :low]
    V = V / np.sqrt(_column_dots(V, V))
    lam = _column_dots(V, _tridiagonal_matvec(dL, eL, V))
    live = np.ones(low, dtype=bool)
    for _ in range(2):
        Z = _solve_shifted_tridiagonal(dL, eL, lam, V)
        top = np.max(np.abs(Z), axis=0)
        live &= np.isfinite(top) & (top != 0.0)
        Z = Z[:, live] / top[live]  # guard the norm against overflow at tiny residuals
        V[:, live] = Z / np.sqrt(_column_dots(Z, Z))
        lam[live] = _column_dots(V[:, live], _tridiagonal_matvec(dL, eL, V[:, live]))
    # Defensive: a Rayleigh iteration that wandered to a different
    # eigenvalue is discarded.
    keep = np.abs(lam.astype(float) - vals[:low]) <= 1e-6 * (1.0 + np.abs(vals[:low]))
    flip = _column_dots(V, psi_out[:, :low]) < 0
    V[:, flip] = -V[:, flip]
    vals_out[:low][keep] = lam[keep]
    psi_out[:, :low][:, keep] = V[:, keep]
    return vals_out, psi_out


def _check_signature(name: str, signature: str, kinds: str, restype: str) -> None:
    """Raise EigensolverError unless ``signature``, the C declaration that
    scipy.linalg.cython_lapack exports for LAPACK's ``name``, returns
    ``restype`` and takes arguments of ``kinds``: char * for an option,
    int * for an integer, a double pointer for a real.  A scipy built with
    other integer widths fails here instead of crashing in the call."""
    head = f"{restype} ("
    args = signature[len(head):-1].split(", ") if signature.startswith(head) else []
    found = "".join(
        "c" if a == "char *" else "i" if a == "int *"
        else "d" if a == "double *" or a.endswith("_d *") else "?"
        for a in args
    )
    if found != kinds:
        raise EigensolverError(
            f"scipy {scipy.__version__} exports {name} as {signature!r}, not the "
            f"{len(kinds)} arguments with int * integers that cylpot passes"
        )


def _load_cython_lapack():
    """scipy.linalg.cython_lapack, without running scipy/linalg/__init__.py.

    Importing scipy.linalg costs more than half of cylpot's start-up (its
    array-API layer loads numpy.f2py, numpy.testing and numpy.ma), and
    cylpot needs only the LAPACK pointers this extension exports.  The
    module already imported is used as it is; otherwise the extension file
    is loaded under its own name, so a later scipy.linalg import finds it
    in sys.modules and never initialises it a second time.

    Loading the extension starts scipy's own OpenBLAS, whose worker threads
    would only serve cylpot's tridiagonal calls while they spin beside
    numpy's pool.  It starts with one thread: OPENBLAS_NUM_THREADS is 1 for
    the dlopen in module_from_spec, then restored (numpy's library, loaded
    already, keeps its threads).
    """
    name = "scipy.linalg.cython_lapack"
    if name in sys.modules:
        return sys.modules[name]
    folder = os.path.join(scipy.__path__[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "cython_lapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            threads = os.environ.get("OPENBLAS_NUM_THREADS")
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
            try:
                module = importlib.util.module_from_spec(spec)
            finally:
                if threads is None:
                    del os.environ["OPENBLAS_NUM_THREADS"]
                else:
                    os.environ["OPENBLAS_NUM_THREADS"] = threads
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no cython_lapack extension for this interpreter in {folder}")


cython_lapack = _load_cython_lapack()


@functools.lru_cache(maxsize=None)
def _lapack(name: str, kinds: str, restype: str):
    """LAPACK's ``name`` as a ctypes function, from the pointer that
    scipy.linalg.cython_lapack exports, after checking its signature."""
    capsule = cython_lapack.__pyx_capi__[name]
    cname = _capsule_name(capsule)
    _check_signature(name, cname.decode(), kinds, restype)
    prototype = ctypes.CFUNCTYPE(_RESTYPES[restype], *(_CTYPES[k] for k in kinds))
    return prototype(_capsule_pointer(capsule, cname))


def _int(v: int):
    return ctypes.byref(ctypes.c_int(v))


def _real(v: float):
    return ctypes.byref(ctypes.c_double(v))


def _doubles(a: np.ndarray):
    return a.ctypes.data_as(_CTYPES["d"])


def _ints(a: np.ndarray):
    return a.ctypes.data_as(_CTYPES["i"])


def _cpus() -> list:
    """The CPUs this process may run on, in order; [] where the platform
    cannot tell.  A parallel section reads this once, gates on its length
    and runs worker k on cpus[k], the caller being worker 0."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _place(cpus) -> None:
    """Run the calling thread (a forked child's only one) on ``cpus``.  A
    guest may keep a new thread or process on its creator's CPU, so
    parallel work overlaps only once placed; no result depends on where it
    runs, so a host that refuses, or a CPU outside the mask, leaves the
    thread where it was."""
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, cpus)


def _run_pair(first, second, nodes: int):
    """(first(), second()) of two independent callables, for a base of
    ``nodes`` nodes.

    With at least _PAIR_NODES nodes and two CPUs in the mask (``_cpus``,
    read once), ``first`` runs on a helper thread placed on cpus[1] while
    ``second`` runs in this thread, placed on cpus[0] (``_place``); ctypes
    releases the GIL for each LAPACK call, so the two overlap.  Otherwise,
    or when no thread can start, they run one after the other, here.
    Either way first's exception wins, as if run in order; the helper is
    joined and this thread's mask restored to all of cpus before this
    returns or raises.  The helper must call no public function of cylpot:
    a tracer that wraps those keeps one stack.
    """
    cpus = _cpus() if nodes >= _PAIR_NODES else []
    if len(cpus) < 2:
        return first(), second()
    done, failed = [], []

    def helper():
        try:
            _place(cpus[1:2])
            done.append(first())
        except BaseException as exc:  # noqa: BLE001 - raised in the caller
            failed.append(exc)

    thread = threading.Thread(target=helper, name="cylpot-pair")
    try:
        thread.start()
    except RuntimeError:
        return first(), second()
    try:
        _place(cpus[:1])
        own = second()
    finally:
        _place(cpus)
        thread.join()
        if failed:
            raise failed[0]
    return done[0], own


def _stemr_vectors(diag: np.ndarray, off: np.ndarray, count: int):
    """The ``count`` lowest eigenvalues, ascending, of the symmetric
    tridiagonal (diag, off) and their eigenvectors as an (n, count)
    Fortran-order array, from LAPACK's MRRR driver dstemr.

    scipy's wrapper allocates an n x n output whatever range it is asked
    for; called directly, dstemr fills only the requested columns (range
    'A' for count = n, 'I' with il = 1, iu = count otherwise) with its
    documented minimum workspace of 18n doubles and 10n integers.  The
    columns are those of eigh_tridiagonal(..., lapack_driver='stemr').
    The eigenvalues are accurate to about eps * ||T|| only; decompose
    pairs the columns with more accurate ones.
    """
    n = diag.size
    if off.shape != (n - 1,) or not 1 <= count <= n:
        raise ValueError(f"need n - 1 = {n - 1} couplings and 1 <= count <= {n}, "
                         f"got {off.shape} and {count}")
    d = np.array(diag, dtype=float)  # dstemr overwrites d and e
    e = np.zeros(n)                  # e[n-1] is dstemr's workspace
    e[:-1] = off
    z = np.empty((n, count), order="F")
    w = np.empty(n)
    isuppz = np.empty(2 * count, dtype=np.intc)
    work = np.empty(18 * n)
    iwork = np.empty(10 * n, dtype=np.intc)
    m, info = ctypes.c_int(0), ctypes.c_int(0)
    _lapack(*_DSTEMR)(
        b"V", b"A" if count == n else b"I", _int(n), _doubles(d), _doubles(e),
        _real(0.0), _real(0.0), _int(1), _int(count),           # vl, vu, il, iu
        ctypes.byref(m), _doubles(w), _doubles(z), _int(n), _int(count),  # m, w, z, ldz, nzc
        _ints(isuppz), _int(1),                                 # isuppz, tryrac (as scipy)
        _doubles(work), _int(work.size), _ints(iwork), _int(iwork.size),
        ctypes.byref(info),
    )
    if info.value != 0 or m.value != count:
        raise EigensolverError(
            f"dstemr failed with info={info.value}, forming {m.value} of {count} eigenvectors"
        )
    return w[:count], z


def _band_copies(diag: np.ndarray, off: np.ndarray):
    """Fresh contiguous float64 copies of the bands of a symmetric
    tridiagonal, checked for shape before their pointers reach LAPACK:
    dpttrf and dpteqr overwrite them, and the caller's bands stay intact."""
    d = np.array(diag, dtype=float)
    e = np.array(off, dtype=float)
    if d.ndim != 1 or e.shape != (max(d.size - 1, 0),):
        raise ValueError(f"need n - 1 couplings for n = {d.size} diagonal entries, "
                         f"got {e.shape}")
    return d, e


def _not_positive_definite(order: int) -> NotPositiveDefiniteError:
    return NotPositiveDefiniteError(
        f"the leading minor of order {order} is not positive: the base's form "
        "is not positive definite, violating the standing non-polarity assumption"
    )


def _gershgorin(diag: np.ndarray, off: np.ndarray):
    """The Gershgorin interval (lo, hi), which holds every eigenvalue of the
    symmetric tridiagonal (diag, off): the extreme row ends diag -/+ |off|."""
    off = np.abs(off)
    low, top = diag.copy(), diag.copy()
    low[:-1] -= off
    low[1:] -= off
    top[:-1] += off
    top[1:] += off
    return float(low.min()), float(top.max())


class _Factor(NamedTuple):
    """L D L^T of a positive-definite tridiagonal T = (diag, off), in the
    form that dlarrb and dlaneg take, with the scalars they need."""

    d: np.ndarray       # the pivots D
    lld: np.ndarray     # L_i^2 D_i
    pivmin: float       # smallest pivot magnitude a Sturm count allows
    lo: float           # T's Gershgorin interval [lo, hi]
    hi: float


def _ldl_factor(diag: np.ndarray, off: np.ndarray) -> _Factor:
    """Factor the tridiagonal (diag, off) with LAPACK's dpttrf, the first
    step of dpteqr; a non-positive pivot is a NotPositiveDefiniteError."""
    d, ell = _band_copies(diag, off)
    info = ctypes.c_int(0)
    _lapack(*_DPTTRF)(_int(d.size), _doubles(d), _doubles(ell), ctypes.byref(info))
    if info.value > 0:
        raise _not_positive_definite(info.value)
    if info.value != 0:
        raise EigensolverError(f"dpttrf failed with info={info.value}")
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(off * off)))  # as dlarre
    return _Factor(d, ell * ell * d[:-1], pivmin, *_gershgorin(diag, off))


def _count_below(factor: _Factor, sigma: float) -> int:
    """Number of eigenvalues of the factored matrix below ``sigma``: the
    negative pivots of L D L^T - sigma I, from LAPACK's dlaneg."""
    n = factor.d.size
    return _lapack(*_DLANEG)(_int(n), _doubles(factor.d), _doubles(factor.lld),
                             _real(sigma), _real(factor.pivmin), _int(n))


def _bisect(factor: _Factor, known, estimates, unknown: int) -> np.ndarray:
    """``known``, then the next len(estimates) + ``unknown`` eigenvalues of
    the factored matrix, ascending, by LAPACK's dlarrb: bisection on L D L^T,
    which keeps relative accuracy in the low band, to brackets of half-width
    eps times their end, within an ulp or two.  ``estimates`` (dstemr's,
    within about 0.2 eps * ||T||) start at half-width 0.25 eps * ||T||, the
    others from the Gershgorin interval, at least eps * ||T|| wide.  dlarrb
    widens a missed bracket in doubling steps, so it would never return for
    an index above n, nor from a bracket of width 0 (a one-point interval).

    Each bracket bisects on its own, so the brackets are cut into two
    halves, which _run_pair may bisect on two threads."""
    eps, lo, hi, n = np.finfo(float).eps, factor.lo, factor.hi, factor.d.size
    first, guessed = len(known), len(estimates)
    count = first + guessed + unknown
    if count > n:
        raise ValueError(f"need at most n = {n} eigenvalues, got {count}")
    tnorm = max(abs(lo), abs(hi))
    w = np.concatenate([known, estimates, np.full(unknown, 0.5 * (lo + hi))], dtype=float)
    werr = np.concatenate([np.zeros(first), np.full(guessed, 0.25 * eps * tnorm),
                           np.full(unknown, max(0.5 * (hi - lo), eps * tnorm))])
    cut = (first + count) // 2
    if cut > first:
        _run_pair(functools.partial(_dlarrb, factor, w, werr, first, cut),
                  functools.partial(_dlarrb, factor, w, werr, cut, count), n)
    else:
        _dlarrb(factor, w, werr, first, count)
    return w


def _dlarrb(factor: _Factor, w: np.ndarray, werr: np.ndarray, first: int, last: int) -> None:
    """Bisect the brackets w[i] -/+ werr[i] of eigenvalues first..last - 1
    (from 0) of the factored matrix in place, with LAPACK's dlarrb; see
    ``_bisect``.  Only those entries of w and werr are read or written, so
    calls on disjoint ranges may run at once."""
    eps, lo, hi, n = np.finfo(float).eps, factor.lo, factor.hi, factor.d.size
    wgap = np.zeros(last - first)  # read only through rtol1 = 0
    work = np.empty(2 * last)      # dlarrb indexes work by eigenvalue, not offset
    iwork = np.empty(2 * last, dtype=np.intc)
    info = ctypes.c_int(0)
    _lapack(*_DLARRB)(
        _int(n), _doubles(factor.d), _doubles(factor.lld), _int(first + 1), _int(last),
        _real(0.0), _real(eps), _int(first),                   # rtol1, rtol2, offset
        _doubles(w[first:]), _doubles(wgap), _doubles(werr[first:]), _doubles(work),
        _ints(iwork), _real(factor.pivmin), _real(hi - lo), _int(n), ctypes.byref(info),
    )
    if info.value != 0:
        raise EigensolverError(f"dlarrb failed with info={info.value}")


def _reach_band(diag, off, c: float, reach: float, modes: int):
    """The K modes with sqrt(mu_k) - sqrt(mu_1) <= ``reach`` (mu = lam + c),
    at least ``modes`` of them, of the positive-definite tridiagonal
    (diag, off): the eigenvalues of modes 1..K+1 (mode K+1 is the first
    dropped one) and the (n, K) eigenvectors; None when K would be n.

    Only the low band is solved, in O(nK), by bisection on the dpttrf
    factor to dqds-grade relative accuracy: lam_1, lam_2 and lam_(K+1) from
    the Gershgorin interval, the others from the values of dstemr, which
    forms the K vectors; K comes from one Sturm count.
    """
    n = diag.size
    factor = _ldl_factor(diag, off)
    vals = _bisect(factor, [], [], 2)
    _check_ground_eigenvalue(vals)
    # Count up to slightly past the threshold (sqrt(mu_1) + reach)^2 - c,
    # so that every mode the rule below keeps is formed; a mode in the
    # margin is formed, then dropped.
    sigma = (math.sqrt(vals[0] + c) + reach) ** 2 * (1.0 + 2.0 ** -40) - c
    count = max(modes, _count_below(factor, sigma) if math.isfinite(sigma) else n)
    if count >= n:
        return None
    w, psi = _stemr_vectors(diag, off, count)
    if count > 1:  # values of modes 1..count+1, the first two bisected already
        vals = _bisect(factor, vals, w[2:], 1)
    sm = np.sqrt(vals + c)
    # At most count by the margin above; the min only guards rounding.
    formed = min(count, max(modes, int(np.searchsorted(sm - sm[0], reach, side="right"))))
    return vals[: formed + 1], psi[:, :formed]


def _path_eigenvalues(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Every eigenvalue, ascending, of the symmetric tridiagonal (diag, off),
    which must be positive definite.

    LAPACK's ?pteqr factors it as L D L^T and runs dqds on the bidiagonal
    factor (Fernando & Parlett 1994), which keeps high relative accuracy in
    the low band, where values-only MRRR and QR lose digits.
    """
    if diag.size == 1:  # LAPACK's dpteqr returns at n = 1 without checking the sign
        vals, info = diag.copy(), 0 if diag[0] > 0.0 else 1
    else:
        vals, e = _band_copies(diag, off)
        z = np.zeros(1)  # not referenced for compz = 'N'
        work = np.empty(4 * vals.size)
        status = ctypes.c_int(0)
        _lapack(*_DPTEQR)(b"N", _int(vals.size), _doubles(vals), _doubles(e),
                          _doubles(z), _int(1), _doubles(work), ctypes.byref(status))
        info = status.value
    if 0 < info <= diag.size:
        raise _not_positive_definite(info)
    if info != 0:
        raise EigensolverError(f"dpteqr failed with info={info}")
    return vals[::-1]  # dpteqr sorts descending


def _check_ground_eigenvalue(vals: np.ndarray) -> None:
    """lam_1 > 0 and simple, read off the lowest eigenvalues, ascending."""
    if vals[0] <= 0.0:
        raise NotPositiveDefiniteError(
            f"smallest generalized eigenvalue {vals[0]:.6e} is not positive; "
            "the base violates the standing non-polarity assumption"
        )
    if len(vals) > 1 and vals[1] - vals[0] <= _PERRON_GAP_TOL * max(1.0, vals[0]):
        raise DegenerateGroundStateError(
            f"spectral gap {vals[1] - vals[0]:.3e} below tolerance: the ground "
            "eigenvalue must be simple (Perron simplicity violated)"
        )


def decompose(
    base: BaseOperator,
    refine_low_band: bool = True,
    refine_cutoff: float = 50.0,
    modes: Optional[int] = None,
    reach: Optional[float] = None,
) -> SpectralData:
    """Solve the generalized eigensystem of (stiffness, diag(mass)): every
    eigenvalue, and the eigenvectors of the ``modes`` lowest (all of them
    when None).  ``reach`` forms every mode with
    sqrt(mu_k) - sqrt(mu_1) <= reach instead, counted on the eigenvalues;
    given both, the larger count is formed.

    Uses the symmetric similarity A = M^(-1/2) K M^(-1/2), which stays
    tridiagonal for the path-structured builders.  There every eigenvalue
    comes from one positive-definite dqds solve (``_path_eigenvalues``),
    and the eigenvectors from LAPACK's MRRR driver (``_stemr_vectors``):
    all of them, or only the ``modes`` lowest, in an n x ``modes`` array
    beside O(n) workspace; its own eigenvalues are not used, since dqds is
    more accurate in the low band.  A ``reach`` solve there that forms
    K < n modes (``_reach_band``) lists only the eigenvalues of modes
    1..K+1, in O(nK) instead of dqds's O(n^2): lam_1 and lam_2 by
    bisection, K by a Sturm count, and every value refined by bisection on
    the L D L^T factor that dqds works on, to the same relative accuracy
    (see SpectralData.known_eigenvalues).  From _PAIR_NODES nodes on, a
    solve without ``reach`` runs dqds beside dstemr on two threads
    (``_run_pair``), and a ``reach`` solve bisects two halves of its
    brackets so; the bits stay those of one thread.  Other bases take a
    dense solve, which forms every mode, so there ``modes`` and ``reach``
    are lower bounds.

    On chain bases, whose deep-separation Green sums need the extra
    digits, ``refine_low_band`` (on by default; other bases ignore it)
    reruns the eigenpairs below ``refine_cutoff`` through 80-bit
    Rayleigh-quotient iteration.  A refined solve also forms every mode, so
    the eigenvalues it reports do not depend on ``modes``.

    The residual of each formed eigenpair is measured in the solver's
    frame, ||A psi - lam psi||_2 = ||K phi - lam M phi||_{M^-1}, relative to
    |lam| (psi has unit norm), against the reported eigenvalue; the worst
    one is kept as ``eig_residual``.

    Raises
    ------
    EigensolverError
        if any eigenpair residual exceeds 1e-6 relative to |lam|
        (the worst relative residual is reported).
    DegenerateGroundStateError
        if lam_2 - lam_1 <= 1e-12 * max(1, lam_1).
    NotPositiveDefiniteError
        if lam_1 <= 0, i.e. the complement of the base is effectively polar.
    ValueError
        if ``modes`` is below 1 or ``reach`` is negative or nan.
    """
    if modes is not None and modes < 1:
        raise ValueError(f"need at least one mode, got {modes}")
    if reach is not None and not reach >= 0.0:
        raise ValueError(f"reach must be non-negative, got {reach}")
    m = base.mass
    tridiagonal = base.is_tridiagonal
    refine = refine_low_band and tridiagonal and base.kind == "chain"
    if tridiagonal:
        s, diag, off = mass_scaled_bands(base)
        band = None
        if reach is not None and not refine and (modes or 1) < base.n:
            band = _reach_band(diag, off, 0.25 * base.b * base.b, reach, modes or 1)
        if band is not None:
            vals, psi = band
        else:
            def eigenvalues():
                vals = _path_eigenvalues(diag, off)
                _check_ground_eigenvalue(vals)
                return vals

            if reach is not None:  # the mode count waits for the eigenvalues
                vals = eigenvalues()
                sm = np.sqrt(vals + 0.25 * base.b * base.b)
                modes = max(modes or 1, int(np.searchsorted(sm - sm[0], reach, side="right")))
            # stemr returns its eigenvalues ascending, so its columns pair with
            # the dqds list by index (the residual check would catch a mismatch).
            full = modes is None or modes >= base.n or refine
            vectors = functools.partial(_stemr_vectors, diag, off, base.n if full else modes)
            if reach is None:
                vals, (_, psi) = _run_pair(eigenvalues, vectors, base.n)
            else:
                psi = vectors()[1]
            if refine:
                vals, psi = _refine_low_band(diag, off, vals, psi, refine_cutoff)
                s = s.astype(np.longdouble)

        def apply(x):
            return _tridiagonal_matvec(diag, off, x)
    else:
        s = 1.0 / np.sqrt(m)
        # eigh reads a single triangle, so exact symmetry of the scaled
        # matrix is not load-bearing.
        A = base.stiffness  # a fresh array, scaled in place
        A *= s[None, :]
        A *= s[:, None]
        from scipy.linalg import eigh  # deferred: path bases never load scipy.linalg

        vals, psi = eigh(A)  # ascending
        apply = A.__matmul__
        del A  # the residual check holds the last reference
        _check_ground_eigenvalue(vals)
    formed = psi.shape[1]
    lam = vals if formed == vals.size else vals[:formed]  # paired with psi
    blocks = [slice(k, k + _RESIDUAL_BLOCK) for k in range(0, formed, _RESIDUAL_BLOCK)]
    worst = []
    for blk in blocks:
        resid = apply(psi[:, blk])
        resid -= psi[:, blk] * lam[blk]
        worst.append(np.max(
            np.linalg.norm(resid, axis=0) / np.maximum(np.abs(lam[blk]), 1e-300)
        ))
    worst = np.max(worst)
    del apply
    if not np.isfinite(worst) or worst > _RESIDUAL_TOL:
        raise EigensolverError(
            f"eigensolver residuals too large: worst relative residual {worst:.3e}"
        )

    phi = psi  # scaled in place
    phi *= s[:, None]
    del psi

    # Deterministic sign convention: largest-magnitude entry positive.
    for blk in blocks:
        cols = phi[:, blk]
        idx = np.argmax(np.abs(cols), axis=0)
        signs = np.sign(cols[idx, np.arange(cols.shape[1])])
        signs[signs == 0] = 1.0
        cols *= signs[None, :]

    if np.min(phi[:, 0]) <= 0.0:
        # Perron theory forbids this for connected bases; fail loudly.
        raise EigensolverError("ground state is not entrywise positive")

    return SpectralData(
        eigenvalues=lam, eigenvectors=phi, mass=m.copy(), b=base.b,
        eig_residual=float(worst), known_eigenvalues=vals,
    )


def heat_kernel(spec: SpectralData, t: float, i: int, j: int) -> float:
    """Dirichlet heat kernel density pi_t(i, j) against the mass weights."""
    if t <= 0.0:
        raise ValueError("heat kernel requires t > 0")
    spec.require_all_modes("heat_kernel")
    w = np.exp(-spec.eigenvalues * t)
    return float(np.dot(spec.eigenvectors[i] * spec.eigenvectors[j], w))


def heat_kernel_matrix(spec: SpectralData, t: float) -> np.ndarray:
    """All-pairs heat kernel pi_t as an (n, n) matrix."""
    if t <= 0.0:
        raise ValueError("heat kernel requires t > 0")
    spec.require_all_modes("heat_kernel_matrix")
    w = np.exp(-spec.eigenvalues * t)
    return (spec.eigenvectors * w[None, :]) @ spec.eigenvectors.T

