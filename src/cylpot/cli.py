"""Command-line front end.

Subcommands: spectrum, green, converge, verify, chain-demo, chernoff.
Every run writes plain CSV data files plus a JSON summary into --out; CSV
bodies are byte-identical across runs with the same config, and the same
seed for verify, the one command that draws samples (timestamps live only
in the JSON metadata).  Exit status is 0 iff every selected check passed
its tolerance.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import csv
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__, spectral
from .base import (
    DEFAULT_NECK_RATIO,
    BaseSpecError,
    ParameterError,
    SchemaError,
    chain_bead_centers,
    default_chain_spec,
    build_chain,
    load_base,
)
from .convolution import (
    chernoff_bound,
    chernoff_threshold_details,
    exact_convolution,
    tail_mass,
)
from .csvtext import encode_rows
from .cylinder import CylinderPoint, GreenEvaluator, NumericalLossError, fit_exponent
from .spectral import SpectralError, decompose
from .verify import check_ratio_limit, check_small_time_ratio, run_suite, select_suites

_ALPHA_FIT_WINDOW = (2.0, 6.0)
_ALPHA_FIT_POINTS = 9
# Most poles a converge grid may hold; each pole is one deviation table.
_MAX_POLES = 10_000
_EPS = float(np.finfo(float).eps)


# Rows formatted and written per block of write_csv.  A block's cell slots,
# their masks and the formatter's uint64 arrays are its transient memory:
# for two float columns a traced peak of 1.2 MB at 3072 rows, 1.6 MB at
# 4096 and 2.4 MB at 6144, where 4096-row blocks format about 4% faster
# than 3072-row ones and 6144-row ones 7% faster still.
_WRITE_BLOCK = 4096
# Fewest rows write_csv gives one process.  With 40 MB resident, two
# processes write a table of two float columns 10-20% slower than one at
# 8192 rows, about as fast at 16384 and 6-20% faster at 32768.
_ROWS_PER_WORKER = 16_384
# Most bytes of a failed worker's reason that its error message quotes.
_REASON_BYTES = 512


def _write_range(fh, columns, start: int, stop: int) -> None:
    """Write rows [start, stop) as CSV lines, _WRITE_BLOCK rows at a time."""
    for lo in range(start, stop, _WRITE_BLOCK):
        hi = min(lo + _WRITE_BLOCK, stop)
        fh.write(encode_rows([col[lo:hi] for col in columns]))


def _fork_range(columns, start: int, stop: int):
    """(pid, temp file) of a forked child that writes rows [start, stop)
    into the temp file; None when fork fails.

    The child runs only numpy formatting and file writes (no BLAS, no
    locks) and leaves through os._exit: status 0 once every row is written,
    else status 1 with the temp file holding only the one-line reason (the
    exception's type and message) and nothing printed.
    """
    tmp = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except OSError:
        tmp.close()
        return None
    if pid == 0:
        code = 1
        try:
            _write_range(tmp, columns, start, stop)
            tmp.flush()
            code = 0
        except BaseException as exc:  # noqa: BLE001 - the parent reports it
            with contextlib.suppress(BaseException):
                message = " ".join(str(exc).split())
                tmp.seek(0)
                tmp.truncate()
                tmp.write((type(exc).__name__ + (f": {message}" if message else ""))
                          .encode(errors="replace"))
                tmp.flush()
        finally:
            os._exit(code)
    return pid, tmp


def _write_parts(fh, columns, cuts) -> None:
    """Write the row ranges between consecutive ``cuts``: range k > 0 in a
    forked child, range 0 (and any range whose fork failed) in this
    process, appended in order.  Every child is reaped before this returns
    or raises."""
    workers, live = [], set()
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            workers.append(_fork_range(columns, lo, hi))
            if workers[-1] is not None:
                live.add(workers[-1][0])
        _write_range(fh, columns, cuts[0], cuts[1])
        for worker, lo, hi in zip(workers, cuts[1:-1], cuts[2:]):
            if worker is None:
                _write_range(fh, columns, lo, hi)
                continue
            pid, tmp = worker
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            live.discard(pid)
            tmp.seek(0)
            if code != 0:
                reason = tmp.read(_REASON_BYTES).decode(errors="replace") if code == 1 else ""
                raise OSError(f"CSV worker for rows {lo}..{hi} of {fh.name} exited with "
                              f"status {code}" + (f": {reason}" if reason else ""))
            shutil.copyfileobj(tmp, fh)
    finally:
        for pid in live:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for worker in workers:
            if worker is not None:
                worker[1].close()


def write_csv(path: Path, header, columns) -> None:
    """Write a CSV table given column by column, with csv.writer's bytes.

    There are at least two columns, each holding one value per row; the
    lines are formatted and written _WRITE_BLOCK rows at a time.  Where the
    platform can fork, a table of at least 2 * _ROWS_PER_WORKER rows is cut
    into min(usable CPUs, rows // _ROWS_PER_WORKER) contiguous ranges, each
    formatted by its own process (forked children write into temporary
    files that are appended in order), so the bytes do not depend on the
    split.  A worker that fails raises OSError; a write that fails leaves
    no file at ``path``.
    """
    columns = [np.asarray(col) for col in columns]
    rows = len(columns[0]) if columns else 0
    if len(columns) < 2 or any(col.shape != (rows,) for col in columns):
        raise ValueError("CSV needs two or more 1-D columns of equal length")
    parts = min(spectral._usable_cpus(), rows // _ROWS_PER_WORKER) if hasattr(os, "fork") else 1
    fh = open(path, "wb")
    try:
        with fh:
            fh.write(encode_rows([np.array([str(h)], dtype=object) for h in header]))
            if parts < 2:
                _write_range(fh, columns, 0, rows)
            else:
                _write_parts(fh, columns, [rows * k // parts for k in range(parts + 1)])
    except BaseException:
        # A table cut short would read as a complete one.
        Path(path).unlink(missing_ok=True)
        raise


def write_summary(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["metadata"] = dict(payload.get("metadata", {}))
    payload["metadata"]["tool"] = f"cylpot {__version__}"
    payload["metadata"]["generated_unix"] = int(time.time())
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_strict_json(payload), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _strict_json(obj):
    """Plain JSON values of a payload; non-finite floats become null, which
    keeps the summary valid JSON (NaN and Infinity are not)."""
    if isinstance(obj, dict):
        return {key: _strict_json(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return _strict_json(np.asarray(obj, dtype=float).tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _base_metadata(base, spec) -> dict:
    return {
        "kind": base.kind,
        "n": base.n,
        "d": base.d,
        "b": base.b,
        "reference_node": base.reference_node,
        "lambda1": spec.lambda1,
        "alpha_min": spec.alpha_min,
        "alpha_zero": spec.alpha_zero,
        "alpha_max": spec.alpha_max,
        "mass_total": float(np.sum(base.mass)),
        "eig_residual": spec.eig_residual,
        "eigenvector_modes": spec.modes,
    }


def cmd_spectrum(args) -> int:
    if args.modes is not None and args.modes < 0:
        raise ParameterError(f"mode count must be non-negative, got {args.modes}")
    base = load_base(args.base)
    spec = decompose(base, modes=args.modes or None)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    n = spec.n
    write_csv(
        out / "spectrum.csv", ("k", "lambda", "mu"),
        (np.arange(1, n + 1), spec.known_eigenvalues, spec.mu),
    )
    n_modes = min(args.modes, n) if args.modes else n
    write_csv(
        out / "eigenvectors.csv", ("node", "k", "value"),
        (np.tile(np.arange(n), n_modes), np.repeat(np.arange(1, n_modes + 1), n),
         spec.eigenvectors[:, :n_modes].T.ravel()),
    )
    write_summary(
        out / "spectrum.json",
        {"command": "spectrum", "base": _base_metadata(base, spec)},
    )
    return 0


def _read_points(path) -> tuple:
    """(u, node) columns of a points CSV; empty rows are skipped, and so is
    the first non-empty row when its first field is "u" (the header).
    SchemaError for any other row that is not two fields of a number and an
    integer (a blank u included), ParameterError for a non-finite u."""
    us, nodes = [], []
    first = True
    with open(path, "r", encoding="utf-8") as fh:
        for line, row in enumerate(csv.reader(fh), 1):
            if not "".join(row).strip():
                continue
            if first:
                first = False
                if row[0].strip().lower() == "u":
                    continue
            if len(row) != 2:
                raise SchemaError(f"points row {line} has {len(row)} fields, not 2 (u, node)")
            try:
                u, node = float(row[0]), int(row[1])
            except ValueError as exc:
                raise SchemaError(f"points row {line} is not (u, node): {exc}") from None
            if not math.isfinite(u):
                raise ParameterError(f"points row {line}: u must be finite, got {u}")
            us.append(u)
            nodes.append(node)
    return us, nodes


def cmd_green(args) -> int:
    if not math.isfinite(args.pole_u):
        raise ParameterError(f"pole u must be finite, got {args.pole_u}")
    us, nodes = _read_points(args.points)
    base = load_base(args.base)
    if not 0 <= args.pole_node < base.n:
        raise ParameterError(f"pole node {args.pole_node} is out of range for {base.n} nodes")
    bad = [node for node in nodes if not 0 <= node < base.n]
    if bad:
        raise ParameterError(f"points node {bad[0]} is out of range for {base.n} nodes")
    spec = decompose(base)
    pole = CylinderPoint(args.pole_u, args.pole_node)
    # Unnamed, the evaluator and its resolvent tables are freed before the
    # CSV is formatted.
    logs = GreenEvaluator(spec=spec, base=base).log_green_many(us, nodes, pole.u, pole.node)
    count = len(us)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "green.csv",
        ("u", "node", "v", "nodePole", "value", "logValue"),
        (us, nodes, np.full(count, pole.u), np.full(count, pole.node), np.exp(logs), logs),
    )
    write_summary(
        out / "green.json",
        {
            "command": "green",
            "pole": {"u": pole.u, "node": pole.node},
            "points": count,
            "base": _base_metadata(base, spec),
        },
    )
    return 0


def cmd_converge(args) -> int:
    if not (math.isfinite(args.v_step) and args.v_step > 0.0):
        raise ParameterError(f"pole step must be positive and finite, got {args.v_step}")
    if not math.isfinite(args.v_max):
        raise ParameterError(f"last pole must be finite, got {args.v_max}")
    if not (math.isfinite(args.tol_rate) and args.tol_rate >= 0.0):
        raise ParameterError(f"rate tolerance must be finite and non-negative, got {args.tol_rate}")
    # Counted before np.arange, which would try to allocate any count.
    if (args.v_max + 1e-9 - 2.0) / args.v_step > _MAX_POLES:
        raise ParameterError(f"the pole grid from 2.0 to v-max {args.v_max} in steps of "
                             f"{args.v_step} has more than {_MAX_POLES} poles")
    poles_v = np.arange(2.0, args.v_max + 1e-9, args.v_step)
    if poles_v.size < 3:
        raise ParameterError(f"the rate fit needs at least 3 poles from 2.0 to v-max "
                             f"{args.v_max}, got {poles_v.size}")
    u_grid = np.arange(-2.0, 2.0 + 1e-9, 0.5)
    base = load_base(args.base)
    if base.n < 3:
        raise ParameterError(f"the rate fit needs mu_2 and mu_3, so a base of at least "
                             f"3 nodes, got {base.n}")
    nodes = np.arange(0, base.n, max(1, base.n // 64))
    sep = poles_v[:, None] - u_grid[None, :]
    spec = decompose(base, reach=_converge_reach(base, nodes, float(sep[sep > 0.0].min())))
    ev = GreenEvaluator(spec=spec, base=base)
    sups = []
    for v in poles_v:
        pole = CylinderPoint(float(v), ev.reference.node)
        dev = ev.martin_deviation_from_f_plus(pole, u_grid, nodes)
        sups.append(float(np.max(np.abs(dev))))
    sups = np.asarray(sups)
    sm = np.sqrt(np.asarray(spec.mu, dtype=float))
    expected = -(sm[1] - sm[0])
    # Fit where the next-order mode's predicted contamination is below 1%,
    # or over every pole when fewer than three lie there.
    v_fit_min = float(u_grid.max()) + math.log(100.0) / (sm[2] - sm[1])
    mask = poles_v >= v_fit_min
    if np.count_nonzero(mask) < 3:
        mask[:] = True
        v_fit_min = float(poles_v[0])
    fit = fit_exponent(list(zip(poles_v[mask], sups[mask])))
    rel_dev = abs(fit.alpha_hat - expected) / abs(expected)
    decreasing = bool(np.all(np.diff(sups) < 0.0))
    passed = decreasing and rel_dev <= args.tol_rate
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "converge.csv", ("v", "sup_deviation"), (poles_v, sups))
    write_summary(
        out / "converge.json",
        {
            "command": "converge",
            "base": _base_metadata(base, spec),
            "fitted_rate": fit.alpha_hat,
            "expected_rate": expected,
            "rel_deviation": rel_dev,
            "fit_window": [v_fit_min, float(poles_v.max())],
            "strictly_decreasing": decreasing,
            "passed": passed,
            "zero_separation_cells": ev.run_record["zero_separation"],
            "truncation_bound": ev.run_record["truncation_bound"],
        },
    )
    return 0 if passed else 1


def _converge_reach(base, nodes, s_min: float) -> float:
    """sqrt(mu_k) - sqrt(mu_1) up to which converge forms modes.

    martin_deviation_from_f_plus bounds the dropped modes of a cell at
    separation s by e^{-s delta} / (2 sqrt(mu) sqrt(m_i m_pole)) against
    eps times the table's sup.  Before the solve neither mu nor the sup is
    known, so this takes both factors as 1 at the grid's smallest positive
    separation ``s_min``; the deviation then re-checks every cell and
    raises ValueError where the formed modes fall short.
    """
    m = base.mass
    floor = float(np.min(m[nodes])) * float(m[base.reference_node])
    if not 0.0 < floor < math.inf:
        raise ParameterError(
            f"converge bounds its modes by the mass products m_i m_ref of the "
            f"{base.kind} base with n = {base.n}, which leave float64 ({floor!r})"
        )
    return (math.log(1.0 / _EPS) - 0.5 * math.log(floor)) / s_min


def cmd_verify(args) -> int:
    # Names and options are checked before the base is decomposed.
    suites = [s.strip() for s in args.suite.split(",") if s.strip()] or ["all"]
    select_suites(suites, seed=args.seed, count=args.count, tolerance=args.tol_exact)
    base = load_base(args.base)
    spec = decompose(base)
    ev = GreenEvaluator(spec=spec, base=base)
    out = Path(args.out)
    reports = run_suite(ev, suites, seed=args.seed, count=args.count, tolerance=args.tol_exact)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "command": "verify",
        "seed": args.seed,
        "base": _base_metadata(base, spec),
        "suites": {name: rep.to_dict() for name, rep in reports.items()},
    }
    write_summary(out / "verify.json", payload)
    if args.per_sample:
        for name, rep in reports.items():
            if rep.samples is not None and rep.sample_count:
                write_csv(out / f"samples_{name}.csv", tuple(rep.samples),
                          tuple(rep.samples.values()))
    reps = list(reports.values())
    write_csv(
        out / "verify.csv",
        ("suite", "status", "passed", "samples", "max_violation", "tolerance"),
        (list(reports), [r.status for r in reps], [r.passed for r in reps],
         [r.sample_count for r in reps], [r.max_violation for r in reps],
         [r.tolerance for r in reps]),
    )
    for name, rep in reports.items():
        line = "PASS" if rep.passed else "FAIL"
        print(f"[{line}] {name}: max violation {rep.max_violation:.3e} vs {rep.tolerance:.3e}")
    return 0 if all(rep.passed for rep in reports.values()) else 1


def cmd_chain_demo(args) -> int:
    if not (math.isfinite(args.t0) and args.t0 > 0.0):
        raise ParameterError(f"t0 must be positive and finite, got {args.t0}")
    if not math.isfinite(args.lam):
        raise ParameterError(f"lambda must be finite, got {args.lam}")
    chain = default_chain_spec(
        bead_count=args.beads,
        bead_nodes=args.bead_nodes,
        neck_ratio=args.neck_ratio,
    )
    base = build_chain(chain, d=4)
    spec = decompose(base)
    ev = GreenEvaluator(spec=spec, base=base)
    centers = chain_bead_centers(base)

    small = check_small_time_ratio(
        spec, lam=args.lam, t0=args.t0, x=base.reference_node, y_sequence=centers
    )
    ratio = check_ratio_limit(
        ev, rho=1.0, rho_prime=0.0, x=base.reference_node, y_sequence=centers
    )
    u_fit = np.linspace(*_ALPHA_FIT_WINDOW, _ALPHA_FIT_POINTS)
    # Martin kernels K_pole(u, x0) = G((u, x0); pole) / G(reference; pole)
    # with poles (0, center), the reference value in column 0.
    ref = ev.reference
    logs = ev.log_green_many(
        np.concatenate(([ref.u], u_fit))[None, :], ref.node, 0.0, centers[:, None]
    )
    alpha_hats = np.asarray([
        fit_exponent(list(zip(u_fit, np.exp(row[1:] - row[0])))).alpha_hat for row in logs
    ])

    ratios = small.extras["ratios"]
    devs = ratio.extras["deviations"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "chain_demo.csv",
        ("bead", "node", "small_time_ratio", "ratio_limit_deviation", "alpha_hat"),
        (np.arange(1, len(centers) + 1), centers, ratios, devs, alpha_hats),
    )
    alpha_target = spec.alpha_zero
    checks = {
        "deep_small_time_ratio": float(ratios[-1]),
        "deep_small_time_ok": bool(ratios[-1] < 0.05),
        "deep_ratio_limit_deviation": float(devs[-1]),
        "deep_ratio_limit_ok": bool(devs[-1] <= 0.10),
        "deep_alpha_hat": float(alpha_hats[-1]),
        "alpha_target": float(alpha_target),
        "deep_alpha_ok": bool(abs(alpha_hats[-1] - alpha_target) <= 0.10),
    }
    write_summary(
        out / "chain_demo.json",
        {
            "command": "chain-demo",
            "chain": {
                "beads": chain.bead_count,
                "bead_nodes": chain.bead_nodes,
                "neck_ratio": chain.neck_ratio,
                "anchor_nodes": chain.anchor_nodes,
                "radius_sq_sum": chain.radius_sq_sum,
            },
            "base": _base_metadata(base, spec),
            "checks": checks,
        },
    )
    ok = checks["deep_small_time_ok"] and checks["deep_ratio_limit_ok"] and checks["deep_alpha_ok"]
    for key in ("deep_small_time_ratio", "deep_ratio_limit_deviation", "deep_alpha_hat"):
        print(f"{key}: {checks[key]:.6g}")
    return 0 if ok else 1


def _read_atoms(path) -> list:
    """Delays of an atoms file, one per line; blank lines are skipped.
    SchemaError for a line that is not a number, ParameterError for a
    delay outside [0, 1]."""
    delays = []
    with open(path, "r", encoding="utf-8") as fh:
        for line, text in enumerate(fh, 1):
            if not text.strip():
                continue
            try:
                delay = float(text)
            except ValueError as exc:
                raise SchemaError(f"atoms line {line} is not a number: {exc}") from None
            if not 0.0 <= delay <= 1.0:
                raise ParameterError(f"atoms line {line}: delay must lie in [0, 1], got {delay}")
            delays.append(delay)
    return delays


def cmd_chernoff(args) -> int:
    if not (math.isfinite(args.tail_len) and args.tail_len > 0.0):
        raise ParameterError(f"L must be positive and finite, got {args.tail_len}")
    if not 0.0 < args.eps < 1.0:
        raise ParameterError(f"eps must lie in (0, 1), got {args.eps}")
    delays = np.array(_read_atoms(args.atoms) if args.atoms else [1.0] * 20)
    dist = exact_convolution(delays)
    exact = tail_mass(dist, args.tail_len)
    betas = np.arange(0.05, 5.0001, 0.05)
    bounds = [chernoff_bound(delays, args.tail_len, b) for b in betas]
    best = int(np.argmin(bounds))
    thr = chernoff_threshold_details(args.tail_len, args.eps)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "distribution.csv", ("support", "mass"), (dist.support, dist.probabilities))
    sound = bool(bounds[best] >= exact - 1e-12)
    write_summary(
        out / "chernoff.json",
        {
            "command": "chernoff",
            "delays": len(delays),
            "delay_sum": float(np.sum(delays)),
            "tail_len": args.tail_len,
            "exact_tail": exact,
            "best_bound": bounds[best],
            "best_bound_beta": float(betas[best]),
            "bound_dominates_exact": sound,
            "threshold": {
                "eps": args.eps,
                "value": thr.threshold,
                "beta": thr.beta,
            },
        },
    )
    print(f"exact tail mass on [-{args.tail_len}, 0]: {exact!r}")
    print(f"best sampled bound: {bounds[best]!r} at beta={betas[best]:.2f}")
    print(f"threshold A(L={args.tail_len}, eps={args.eps}): {thr.threshold:.6g}")
    return 0 if sound else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylpot",
        description="Green's function / Martin kernel laboratory on product cylinders",
    )
    parser.add_argument("--version", action="version", version=f"cylpot {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("spectrum", help="eigendecomposition, exponent ladder, CSV export")
    common(p)
    p.add_argument("--base", required=True, help="base-spec JSON path")
    p.add_argument("--modes", type=int, default=12, help="eigenvector modes to form and export (0 = all)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("green", help="batch Green's function evaluation at a fixed pole")
    common(p)
    p.add_argument("--base", required=True)
    p.add_argument("--points", required=True, help="CSV of (u, node) evaluation points")
    p.add_argument("--pole-u", type=float, required=True)
    p.add_argument("--pole-node", type=int, required=True)
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("converge", help="Martin kernel convergence toward the canonical solution")
    common(p)
    p.add_argument("--base", required=True)
    p.add_argument("--v-max", type=float, default=40.0)
    p.add_argument("--v-step", type=float, default=2.0)
    p.add_argument("--tol-rate", type=float, default=0.10)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("verify", help="inequality/limit verification suites")
    common(p)
    p.add_argument("--base", required=True)
    p.add_argument("--seed", type=int, default=1234, help="sample seed, recorded in outputs")
    p.add_argument("--suite", default="all", help="comma-separated suite names")
    p.add_argument("--count", type=int, default=10_000, help="samples per sweep suite")
    p.add_argument("--tol-exact", type=float, default=1e-12,
                   help="tolerance of the exactness suites")
    p.add_argument("--per-sample", action="store_true",
                   help="also write per-sample CSV tables")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("chain-demo", help="bead-chain contrast experiments")
    common(p)
    p.add_argument("--beads", type=int, default=40)
    p.add_argument("--bead-nodes", type=int, default=8)
    p.add_argument("--neck-ratio", type=float, default=DEFAULT_NECK_RATIO)
    p.add_argument("--t0", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.set_defaults(func=cmd_chain_demo)

    p = sub.add_parser("chernoff", help="exact two-point convolutions and tail bounds")
    common(p)
    p.add_argument("--atoms", default=None, help="CSV of delays, one per line")
    p.add_argument("--L", dest="tail_len", type=float, default=2.0)
    p.add_argument("--eps", type=float, default=0.01)
    p.set_defaults(func=cmd_chernoff)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BaseSpecError, SpectralError, NumericalLossError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
