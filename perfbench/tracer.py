"""Span tracing of cylpot's modules, installed from outside the package.

``tracing(tracer)`` replaces the public functions of cylpot's six modules
(base, spectral, cylinder, verify, convolution, cli) with wrappers that
record one span per call: name, start, end and the enclosing span.  The
wrappers are installed where the callers look the functions up (the ``cli``
and ``verify`` module globals, and the ``GreenEvaluator`` /
``StableAxialEvaluator`` classes), so nothing inside ``src/cylpot`` changes.
Spans stay in memory and are written out by ``Tracer.dump`` at exit.

A span's self time is its duration minus the durations of its direct
children; ``layer_metrics`` turns the spans and counters into the benchmark's
per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np

import cylpot.cli as cli
import cylpot.verify as verify
from cylpot.cylinder import GreenEvaluator, NumericalLossError, StableAxialEvaluator

SWEEPS = (
    "verify.check_green_monotonicity",
    "verify.check_symmetry_identity",
    "verify.check_reflection",
)
VERIFY_OTHER = (
    "verify.run_suite",
    "verify.check_normalization",
    "verify.check_iu_ratio",
    "verify.check_small_time_ratio",
    "verify.check_ratio_limit",
)
COMMANDS = ("spectrum", "green", "converge", "verify", "chain-demo", "chernoff")
LOG_GREEN = "cylinder.log_green"
LOG_GREEN_EXTENDED = "cylinder.log_green_extended"
RESOLVENT = "cylinder.StableAxialEvaluator.values"
_REFINE_CUTOFF = inspect.signature(cli.decompose).parameters["refine_cutoff"].default


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        # One [name, parent index, start ns, end ns] list per span.
        self.spans = []
        self.counters = Counter()
        self.eig_residual = 0.0
        # (base, in-span decompose ns) of every decompose that refined.
        self.refined = []
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def by_name(self) -> dict:
        """name -> [calls, total ns, self ns]."""
        child_ns = [0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (name, _, start, end), kids in zip(self.spans, child_ns):
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - kids
        return out

    def dump(self, path: Path) -> None:
        """Write every span as a tab-separated row: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for idx, (name, parent, start, end) in enumerate(self.spans):
                fh.write(f"{idx}\t{parent}\t{name}\t{start}\t{end}\n")


def eig_residual(base, spec) -> float:
    """Worst relative eigenpair residual, recomputed from the public arrays
    with the scaling ``decompose`` uses; banded product on path bases."""
    K = base.stiffness
    phi = spec.eigenvectors
    if base.is_tridiagonal:
        off = np.diag(K, 1)[:, None]
        kphi = np.diag(K)[:, None] * phi
        kphi[:-1] += off * phi[1:]
        kphi[1:] += off * phi[:-1]
    else:
        kphi = K @ phi
    resid = kphi - (base.mass[:, None] * phi) * spec.eigenvalues[None, :]
    scale = np.abs(spec.eigenvalues) * np.linalg.norm(phi, axis=0) + np.linalg.norm(K, ord=np.inf)
    return float(np.max(np.linalg.norm(resid, axis=0) / np.maximum(scale, 1e-300)))


def _spanned(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(tracer, span, args, result)`` then
    records the call's counters outside the span."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, idx, args, result)
        return result
    return wrapper


def _after_decompose(tracer: Tracer, idx: int, args, spec) -> None:
    base = args[0]
    # Longdouble eigenvectors are the mark of the 80-bit refinement.
    if spec.eigenvectors.dtype == np.longdouble:
        start, end = tracer.spans[idx][2:]
        tracer.refined.append((base, end - start))
        tracer.counters["spectral.refined_modes"] += int(
            np.count_nonzero(spec.eigenvalues <= _REFINE_CUTOFF)
        )
    tracer.eig_residual = max(tracer.eig_residual, eig_residual(base, spec))


def _after_write(tracer: Tracer, idx: int, args, _) -> None:
    tracer.counters["cli.bytes_written"] += os.path.getsize(args[0])


def _after_sweep(tracer: Tracer, idx: int, args, rep) -> None:
    tracer.counters["verify.skipped"] += int(rep.extras.get("skipped_unresolvable", 0))


def _after_exact(tracer: Tracer, idx: int, args, dist) -> None:
    tracer.counters["convolution.atoms"] += dist.atom_count


def _wrap_log_green(tracer: Tracer, fn):
    # The span name follows the requested precision, and every
    # NumericalLossError raised through the call is counted.
    @functools.wraps(fn)
    def log_green(self, p, q, extended=False, allow_stable=True):
        idx = tracer.open(LOG_GREEN_EXTENDED if extended else LOG_GREEN)
        try:
            return fn(self, p, q, extended=extended, allow_stable=allow_stable)
        except NumericalLossError:
            tracer.counters["cylinder.loss_raised"] += 1
            raise
        finally:
            tracer.close(idx)
    return log_green


# Functions the cli module calls, by the span name (module.function) they get
# and the hook that records their counters.
_CLI_FUNCS = {
    "load_base": ("base.load_base", None),
    "decompose": ("spectral.decompose", _after_decompose),
    "write_csv": ("cli.write_csv", _after_write),
    "write_summary": ("cli.write_summary", _after_write),
    "exact_convolution": ("convolution.exact_convolution", _after_exact),
    "chernoff_bound": ("convolution.chernoff_bound", None),
    "run_suite": ("verify.run_suite", None),
    "check_small_time_ratio": ("verify.check_small_time_ratio", None),
    "check_ratio_limit": ("verify.check_ratio_limit", None),
}
# Suites run_suite looks up in the verify module.
_VERIFY_FUNCS = (
    "check_green_monotonicity",
    "check_symmetry_identity",
    "check_normalization",
    "check_boundary_harnack",
    "check_iu_ratio",
    "check_small_time_ratio",
    "check_ratio_limit",
    "check_reflection",
)


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    saved = []

    def patch(owner, attr, wrapped):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    for attr, (name, after) in _CLI_FUNCS.items():
        patch(cli, attr, _spanned(tracer, name, getattr(cli, attr), after))
    for attr in _VERIFY_FUNCS:
        name = f"verify.{attr}"
        after = _after_sweep if name in SWEEPS else None
        patch(verify, attr, _spanned(tracer, name, getattr(verify, attr), after))
    patch(GreenEvaluator, "__init__",
          _spanned(tracer, "cylinder.GreenEvaluator.__init__", GreenEvaluator.__init__))
    patch(GreenEvaluator, "log_green", _wrap_log_green(tracer, GreenEvaluator.log_green))
    patch(GreenEvaluator, "martin_deviation_from_f_plus",
          _spanned(tracer, "cylinder.martin_deviation_from_f_plus",
                   GreenEvaluator.martin_deviation_from_f_plus))
    patch(StableAxialEvaluator, "values",
          _spanned(tracer, RESOLVENT, StableAxialEvaluator.values))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def refine_seconds(tracer: Tracer) -> float:
    """Cost of the 80-bit refinement: each refined decompose's in-span time
    minus the same base decomposed with ``refine_low_band=False``.  Call it
    after the job, with tracing uninstalled."""
    total = 0
    for base, span_ns in tracer.refined:
        start = time.perf_counter_ns()
        cli.decompose(base, refine_low_band=False)
        total += span_ns - (time.perf_counter_ns() - start)
    return total / 1e9


def _retry_frac(tracer: Tracer) -> float:
    """80-bit re-measures / double-precision measures inside the sweeps."""
    counts = Counter()
    for name, parent, _, _ in tracer.spans:
        if parent >= 0 and tracer.spans[parent][0] in SWEEPS:
            counts[name] += 1
    return counts[LOG_GREEN_EXTENDED] / counts[LOG_GREEN] if counts[LOG_GREEN] else 0.0


def layer_metrics(tracer: Tracer, refine_s: float) -> dict:
    """Per-layer metrics of one traced repetition (times are self times,
    except the ``cmd.*`` wall times of whole commands)."""
    rows = tracer.by_name()

    def self_s(*names):
        return sum(rows.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def calls(name):
        return rows.get(name, (0, 0, 0))[0]

    out = {f"cmd.{c}_s": 0.0 for c in COMMANDS}
    for name, (_, total, _) in rows.items():
        if name.startswith("cmd."):
            out[f"{name}_s"] = total / 1e9
    c = tracer.counters
    out.update({
        "base.load_s": self_s("base.load_base"),
        "spectral.decompose_s": self_s("spectral.decompose"),
        "spectral.refine_s": refine_s,
        "spectral.refined_modes": c["spectral.refined_modes"],
        "spectral.eig_residual": tracer.eig_residual,
        "cylinder.evaluator_init_s": self_s("cylinder.GreenEvaluator.__init__"),
        "cylinder.log_green_calls": calls(LOG_GREEN),
        "cylinder.log_green_self_s": self_s(LOG_GREEN),
        "cylinder.extended_calls": calls(LOG_GREEN_EXTENDED),
        "cylinder.extended_s": self_s(LOG_GREEN_EXTENDED),
        "cylinder.resolvent_calls": calls(RESOLVENT),
        "cylinder.resolvent_s": self_s(RESOLVENT),
        "cylinder.loss_raised": c["cylinder.loss_raised"],
        "cylinder.martin_dev_s": self_s("cylinder.martin_deviation_from_f_plus"),
        "verify.monotonicity_s": self_s("verify.check_green_monotonicity"),
        "verify.symmetry_s": self_s("verify.check_symmetry_identity"),
        "verify.harnack_s": self_s("verify.check_boundary_harnack"),
        "verify.other_s": self_s(*VERIFY_OTHER),
        "verify.skipped": c["verify.skipped"],
        "verify.retry_frac": _retry_frac(tracer),
        "convolution.exact_s": self_s("convolution.exact_convolution"),
        "convolution.bound_s": self_s("convolution.chernoff_bound"),
        "convolution.atoms": c["convolution.atoms"],
        "cli.write_s": self_s("cli.write_csv", "cli.write_summary"),
        "cli.bytes_written": c["cli.bytes_written"],
    })
    return out
