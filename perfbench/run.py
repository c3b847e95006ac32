"""Benchmark of cylpot CLI jobs: end-to-end job metrics and traced per-layer times.

    python3 perfbench/run.py --workload chain-deep --seed 1 --seconds 58 --trace 0

Run it from the root of a cylpot source checkout; it imports cylpot from
``src/`` and needs no build.  Workloads are defined in workloads.py.

Process model: one repetition of a workload is one fresh interpreter
(worker.py), because every CLI user pays the import and the decomposition on
every call; inside it the workload's commands run in sequence through
``cylpot.cli.main(argv)``.  One worker runs at a time, with the BLAS thread
count set to the CPUs this process may use.  A run spawns repetitions
until the next one would end after ``--seconds`` (at least one, or one
untraced and one traced with ``--trace 1``).

``--trace 0`` prints the end-to-end metrics (medians over the run):

- ``setup_s``: spawn until ``import cylpot.cli`` returns, over all
  repetitions;
- ``job_rel``: ``job_s`` (spawn until the last command returns) divided by
  the mean time of the reference run just before and just after the
  repetition.  The reference is a fresh interpreter that imports the
  third-party modules cylpot uses and nothing of cylpot, so no change to
  cylpot moves it; it runs before the first repetition and after each one.
  On a shared host the speed of interpreter-bound code can drift by a
  quarter and more in phases of minutes, which spreads the median of raw
  ``job_s`` over runs nearly as far as the largest bound a metric may have;
  the reference sees the same drift, so the ratio keeps most of it out.  Raw
  ``job_s`` is printed and recorded as well;
- ``peak_rss_mb``: ``ru_maxrss`` of the worker;
- ``resolved_frac``: 1 - ``unresolved_frac``, where ``unresolved_frac`` is
  failed / attempted operations as counted by ``checks.accounting`` (sweep
  samples skipped as unresolvable count as failed).  The report also prints
  ``unresolved_frac``, both counts and each command's wall time
  (``cmd.<name>_s``).

``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of tracer.py (low medians over traced repetitions), a
self-time table per span, and ``trace.overhead_s``: traced minus untraced
``job_s``.

Every repetition's outputs are checked (checks.py); the last line of
standard output is one JSON object with ``correct``, ``attempted`` and
``failed`` (commands run, commands that failed) and ``metrics``.  Outputs go
to ``.perfbench_out/`` in the checkout: ``work/<workload>/`` is rebuilt by
every run, ``results/`` keeps one JSON record per run with the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

import workloads

HERE = Path(__file__).resolve().parent
OUT = Path(".perfbench_out")
# A repetition starts only while the run is inside --seconds, so with
# run_seconds <= 60 even a hung worker leaves the run under 180 s.
WORKER_TIMEOUT_S = 100
REFERENCE = "import numpy, scipy.linalg, scipy.integrate, scipy.stats"


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def worker_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["PERFBENCH_SRC"] = str(src)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(plan: Path, rep_dir: Path, env: dict, *flags: str) -> dict:
    """Run one worker to completion; its result with spawn-relative times."""
    rep_dir.mkdir(parents=True)
    with open(rep_dir / "worker.log", "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan), str(rep_dir), *flags],
            stdout=log, stderr=subprocess.STDOUT, env=env,
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s; see {log.name}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    wall = time.monotonic() - spawned
    if code != 0:
        raise BenchError(f"worker exited with {code}; see {rep_dir / 'worker.log'}")
    res = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
    res["dir"] = rep_dir
    res["wall_s"] = wall
    res["setup_s"] = res["setup_end"] - spawned
    res["job_s"] = res["commands"][-1]["end"] - spawned
    return res


def reference_s(env: dict) -> float:
    """Wall time of a fresh interpreter running the reference imports."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", REFERENCE], env=env, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchError(f"reference run exited with {proc.returncode}: {proc.stderr[-500:]}")
    return time.monotonic() - spawned


def measure(plan: Path, work: Path, env: dict, seconds: int, trace: bool):
    """Repetitions within the time budget, each between two reference runs."""
    start = time.monotonic()
    reps = []
    before = reference_s(env)
    while True:
        traced = trace and len(reps) % 2 == 1
        flags = ("--trace",) if traced else ()
        rep = spawn(plan, work / f"rep{len(reps)}", env, *flags)
        after = reference_s(env)
        rep["traced"] = traced
        rep["ref_s"] = (before + after) / 2
        rep["job_rel"] = rep["job_s"] / rep["ref_s"]
        rep["wall_s"] += after
        reps.append(rep)
        before = after
        longest = max(r["wall_s"] for r in reps)
        if len(reps) >= (2 if trace else 1) and time.monotonic() - start + longest > seconds:
            return reps


def environment(root: Path, rep: dict) -> dict:
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "cylpot").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": rep["versions"]["numpy"],
        "scipy": rep["versions"]["scipy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": rep["blas_threads"],
        "machine": platform.machine(),
    }


def _spread(values) -> str:
    return (f"median {median(values):.4f}  min {min(values):.4f}  "
            f"max {max(values):.4f}  n={len(values)}")


def print_span_table(reps) -> None:
    """Median calls, total and self seconds per span name over traced reps."""
    rows = {}
    for name in {n for r in reps for n in r["span_table"]}:
        cells = [r["span_table"].get(name, [0, 0, 0]) for r in reps]
        rows[name] = [median(c[i] for c in cells) for i in range(3)]
    print(f"{'span':48s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
    for name, (calls, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:48s} {calls:8.0f} {total / 1e9:10.4f} {own / 1e9:10.4f}")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_frac", "_rel")):
        return "ratio"
    return "rel" if name.endswith("residual") else "count"


def _metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}


def end_to_end(reps, unresolved: float) -> dict:
    """End-to-end metrics of the untraced repetitions."""
    plain = [r for r in reps if not r["traced"]]
    return _metrics({
        "job_rel": median([r["job_rel"] for r in plain]),
        "setup_s": median([r["setup_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "resolved_frac": 1.0 - unresolved,
    })


def per_layer(reps) -> dict:
    """Per-layer metrics: low medians over traced repetitions (so counts stay
    whole), plus the tracing overhead (traced minus untraced median job_s)."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    values = {name: median_low(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = (median([r["job_s"] for r in traced])
                                  - median([r["job_s"] for r in plain]))
    return _metrics(values)


def print_report(reps, unresolved: float, attempted: int, failed: int) -> None:
    """Every end-to-end quantity, with its spread over the untraced reps."""
    plain = [r for r in reps if not r["traced"]]
    print(f"{'setup_s':18s} [s]     {_spread([r['setup_s'] for r in reps])}")
    print(f"{'job_s':18s} [s]     {_spread([r['job_s'] for r in plain])}")
    print(f"{'ref_s':18s} [s]     {_spread([r['ref_s'] for r in plain])}")
    print(f"{'job_rel':18s} [ratio] {_spread([r['job_rel'] for r in plain])}")
    for k, rec in enumerate(plain[0]["commands"]):
        name = f"cmd.{rec['command']}_s"
        times = [r["commands"][k]["end"] - r["commands"][k]["start"] for r in plain]
        print(f"{name:18s} [s]     {_spread(times)}")
    print(f"{'peak_rss_mb':18s} [MB]    {_spread([r['peak_rss_mb'] for r in plain])}")
    print(f"{'unresolved_frac':18s} [ratio] {unresolved!r}  "
          f"({failed} failed of {attempted} attempted operations)")


def run(args) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "cylpot" / "cli.py").is_file():
        raise BenchError(f"no cylpot sources under {src}; run from a cylpot checkout")
    work = OUT / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    commands = workloads.make_plan(args.workload, args.seed, work / "inputs")
    plan = work / "plan.json"
    plan.write_text(json.dumps(commands), encoding="utf-8")

    reps = measure(plan, work, worker_env(src), args.seconds, bool(args.trace))

    # Checks import cylpot here, after the last worker has been spawned.
    sys.path.insert(0, str(src))
    import checks

    problems = []
    for k, rep in enumerate(reps):
        try:
            checks.check_rep(commands, rep["commands"], rep["dir"], args.seed, deep=k == 0)
        except checks.CheckFailed as exc:
            problems.append(f"{rep['dir'].name}: {exc}")
    try:
        checks.check_identical_csv([r["dir"] for r in reps])
    except checks.CheckFailed as exc:
        problems.append(str(exc))
    counts = {checks.accounting(commands, r["commands"], r["dir"]) for r in reps}
    if len(counts) != 1:
        problems.append(f"operation counts differ between repetitions: {sorted(counts)}")
    op_attempted, op_failed = max(counts, key=lambda c: c[1])
    attempted = sum(len(r["commands"]) for r in reps)
    failed = sum(rec["exit"] != 0 for r in reps for rec in r["commands"])

    unresolved = op_failed / op_attempted
    env = environment(root, reps[0])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print_report(reps, unresolved, op_attempted, op_failed)
    if args.trace:
        print_span_table([r for r in reps if r["traced"]])
        metrics = per_layer(reps)
    else:
        metrics = end_to_end(reps, unresolved)
    for name, metric in metrics.items():
        print(f"{name:30s} [{metric['unit']}] {metric['value']!r}")
    for problem in problems:
        print(f"CHECK FAILED {problem}")

    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, problems=problems,
                  unresolved={"attempted": op_attempted, "failed": op_failed,
                              "frac": unresolved},
                  reps=[{k: v for k, v in r.items() if k not in ("dir", "span_table")}
                        for r in reps])
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, default=str) + "\n",
                                encoding="utf-8")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
