"""Output-correctness checks and failure accounting for benchmark runs.

Every check reads what a cylpot command wrote into a repetition's output
directory and raises ``CheckFailed`` when the output is wrong.  The checks
recompute what they can independently of the command that produced it:
Green values by adaptive quadrature, the Chernoff exact tail by an exact
integer-count convolution, the hemisphere ground eigenvalue from its closed
form.  Arguments of each command are read back with cylpot's own parser.
"""

from __future__ import annotations

import csv
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from cylpot.base import load_base
from cylpot.cli import build_parser
from cylpot.cylinder import CylinderPoint, GreenEvaluator, NumericalLossError
from cylpot.spectral import decompose

EXACT_TOL = 1e-12
EXACTNESS_SUITES = ("monotonicity", "symmetry", "normalization", "reflection")
SWEEP_SUITES = ("monotonicity", "symmetry", "reflection")
GREEN_QUADRATURE_ROWS = 12
GREEN_REL_TOL = 1e-8
TAIL_REL_TOL = 1e-12


class CheckFailed(AssertionError):
    """A command's output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_verify(args, out: Path, seed: int, deep: bool) -> None:
    doc = _json(out / "verify.json")
    suites = doc["suites"]
    for name, rep in suites.items():
        _require(rep["passed"], f"verify: suite {name} did not pass ({rep['status']})")
    symmetric = load_base(args.base).symmetry is not None if deep else None
    for name in EXACTNESS_SUITES:
        rep = suites[name]
        if name == "reflection" and rep["status"] == "skipped":
            _require(symmetric is not True, "verify: reflection skipped on a symmetric base")
            continue
        _require(rep["status"] == "ok", f"verify: {name} status {rep['status']}")
        _require(rep["max_violation"] <= EXACT_TOL,
                 f"verify: {name} violation {rep['max_violation']:.3e} > {EXACT_TOL:.0e}")
        if name in SWEEP_SUITES:
            _require(rep["sample_count"] > 0, f"verify: {name} measured no sample")


def check_chain_demo(args, out: Path, seed: int, deep: bool) -> None:
    checks = _json(out / "chain_demo.json")["checks"]
    for key in ("deep_small_time_ok", "deep_ratio_limit_ok", "deep_alpha_ok"):
        _require(checks[key] is True, f"chain-demo: {key} is false")


def check_green(args, out: Path, seed: int, deep: bool) -> None:
    with open(args.points, encoding="utf-8", newline="") as fh:
        points = [(float(u), int(n)) for u, n in list(csv.reader(fh))[1:]]
    rows = _csv_rows(out / "green.csv")
    _require(len(rows) == len(points), f"green: {len(rows)} rows for {len(points)} points")
    for row, (u, node) in zip(rows, points):
        _require(float(row[0]) == u and int(row[1]) == node, f"green: row {row[:2]} out of order")
        value, log_value = float(row[4]), float(row[5])
        _require(math.isfinite(log_value) and math.isfinite(value) and value >= 0.0,
                 f"green: non-finite value at {row[:2]}")
    if not deep:
        return
    base = load_base(args.base)
    ev = GreenEvaluator(spec=decompose(base), base=base)
    pole = CylinderPoint(args.pole_u, args.pole_node)
    healthy = []
    for idx, (u, node) in enumerate(points):
        try:
            ev.log_green(CylinderPoint(u, node), pole, allow_stable=False)
        except NumericalLossError:
            continue
        healthy.append(idx)
    _require(bool(healthy), "green: no row on the eigenmode route to cross-check")
    picks = random.Random(f"green-check:{seed}").sample(
        healthy, min(GREEN_QUADRATURE_ROWS, len(healthy)))
    for idx in picks:
        value = float(rows[idx][4])
        ref = ev.green_by_quadrature(CylinderPoint(*points[idx]), pole)
        _require(abs(value - ref) <= GREEN_REL_TOL * abs(ref),
                 f"green: row {points[idx]} = {value!r}, quadrature {ref!r}")


def exact_tail(delays, L: float) -> float:
    """nu([-L, 0]) of the convolution of (delta_0 + delta_{-a_k})/2, from
    exact subset counts on the delays' common rational grid."""
    fracs = [Fraction(d) for d in delays]
    den = math.lcm(*(f.denominator for f in fracs))
    top = math.floor(Fraction(L) * den)
    counts = [1] + [0] * top
    for f in fracs:
        k = int(f * den)
        for t in range(top, k - 1, -1):
            counts[t] += counts[t - k]
    return float(Fraction(sum(counts), 2 ** len(fracs)))


def check_chernoff(args, out: Path, seed: int, deep: bool) -> None:
    doc = _json(out / "chernoff.json")
    with open(args.atoms, encoding="utf-8") as fh:
        delays = [line.strip() for line in fh if line.strip()]
    _require(doc["delays"] == len(delays), "chernoff: delay count differs from the input")
    _require(doc["bound_dominates_exact"] is True, "chernoff: bound below the exact tail")
    if not deep:
        return
    ref = exact_tail(delays, args.tail_len)
    _require(abs(doc["exact_tail"] - ref) <= TAIL_REL_TOL * ref,
             f"chernoff: exact tail {doc['exact_tail']!r}, independent {ref!r}")
    _require(doc["best_bound"] >= ref, "chernoff: best bound below the independent tail")
    masses = [float(r[1]) for r in _csv_rows(out / "distribution.csv")]
    _require(abs(math.fsum(masses) - 1.0) <= 1e-9, "chernoff: distribution mass is not 1")


def check_spectrum(args, out: Path, seed: int, deep: bool) -> None:
    meta = _json(out / "spectrum.json")["base"]
    rows = _csv_rows(out / "spectrum.csv")
    lams = [float(r[1]) for r in rows]
    _require(len(rows) == meta["n"], f"spectrum: {len(rows)} rows for n={meta['n']}")
    _require(all(a < b for a, b in zip(lams, lams[1:])), "spectrum: eigenvalues not ascending")
    _require(lams[0] == meta["lambda1"], "spectrum: CSV and summary disagree on lambda1")
    doc = _json(Path(args.base))
    if doc.get("type") == "cap" and doc["theta0"] == math.pi / 2:
        # Hemisphere of S^{d-1}: the first Dirichlet eigenfunction is cos(theta).
        _require(abs(lams[0] - (doc["d"] - 1)) <= 1e-4,
                 f"spectrum: hemisphere lambda1 {lams[0]!r} != {doc['d'] - 1}")


def check_converge(args, out: Path, seed: int, deep: bool) -> None:
    doc = _json(out / "converge.json")
    _require(doc["passed"] is True and doc["strictly_decreasing"] is True,
             "converge: Martin kernels do not converge at the spectral rate")


CHECKS = {
    "verify": check_verify,
    "chain-demo": check_chain_demo,
    "green": check_green,
    "chernoff": check_chernoff,
    "spectrum": check_spectrum,
    "converge": check_converge,
}


def check_rep(commands, records, out: Path, seed: int, deep: bool) -> None:
    """Check one repetition: every command exited 0 and wrote correct output.
    ``deep`` adds the costlier independent recomputations."""
    for argv, rec in zip(commands, records):
        _require(rec["exit"] == 0, f"{argv[0]}: exit status {rec['exit']}")
        CHECKS[argv[0]](build_parser().parse_args(argv), out, seed, deep)


def check_identical_csv(rep_dirs) -> None:
    """CSV bodies must be byte-identical across repetitions."""
    first = rep_dirs[0]
    names = sorted(p.name for p in first.glob("*.csv"))
    for other in rep_dirs[1:]:
        _require(sorted(p.name for p in other.glob("*.csv")) == names,
                 f"{other.name}: different CSV files than {first.name}")
        for name in names:
            _require((first / name).read_bytes() == (other / name).read_bytes(),
                     f"{name}: differs between {first.name} and {other.name}")


def accounting(commands, records, out: Path) -> tuple:
    """(attempted, failed) operations of one repetition.

    Attempted: each command, each sample budget of a sweep suite that ran
    (a suite skipped for lack of symmetry runs nothing), one per other suite,
    each Green point.  Failed: nonzero exits, unresolvable sweep samples,
    and the whole budget of a suite that ended in ``status=error``.
    """
    attempted = failed = 0
    for argv, rec in zip(commands, records):
        attempted += 1
        failed += rec["exit"] != 0
        args = build_parser().parse_args(argv)
        if argv[0] == "verify" and (out / "verify.json").exists():
            for name, rep in _json(out / "verify.json")["suites"].items():
                if rep["status"] == "skipped":
                    continue
                budget = args.count if name in SWEEP_SUITES else 1
                attempted += budget
                if rep["status"] == "error":
                    failed += budget
                else:
                    failed += rep.get("extras", {}).get("skipped_unresolvable", 0)
        elif argv[0] == "green":
            with open(args.points, encoding="utf-8") as fh:
                points = sum(1 for line in fh) - 1
            attempted += points
            failed += points if rec["exit"] != 0 else 0
    return attempted, failed
