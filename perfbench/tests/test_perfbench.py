"""Tests of the benchmark's own code (not of cylpot).

    python3 -m pytest -q perfbench/tests

They run small cylpot commands, never a full workload.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
REPO = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(REPO / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cylpot import cli  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert all(NAME.match(n) for n in names)
    for key in ("end_to_end", "per_layer"):
        metric_names = [m["name"] for m in SPEC[key]]
        assert len(metric_names) == len(set(metric_names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # Every driver run, with the checks after the measurement, fits the budget.
    assert (4 + 22 * len(SPEC["workloads"])) * (SPEC["run_seconds"] + 8) < 3420


def _rep(traced: bool, job: float) -> dict:
    layers = tracer.layer_metrics(tracer.Tracer(), 0.0)
    return {"traced": traced, "job_s": job, "job_rel": job / 2, "setup_s": 1.0,
            "peak_rss_mb": 100.0, "layers": layers}


def _spec_units(key: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[key]}


def test_end_to_end_metric_names_and_units_match_benchmark_json():
    metrics = run.end_to_end([_rep(False, 5.0), _rep(False, 6.0)], 0.25)
    assert {n: m["unit"] for n, m in metrics.items()} == _spec_units("end_to_end")
    assert metrics["job_rel"]["value"] == 2.75
    assert metrics["resolved_frac"]["value"] == 0.75


def test_per_layer_metric_names_and_units_match_benchmark_json():
    metrics = run.per_layer([_rep(False, 5.0), _rep(True, 5.5)])
    assert {n: m["unit"] for n, m in metrics.items()} == _spec_units("per_layer")
    assert metrics["trace.overhead_s"]["value"] == 0.5


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer()
    t.spans = [["outer", -1, 0, 100], ["inner", 0, 10, 40], ["leaf", 1, 15, 25],
               ["inner", 0, 50, 60]]
    rows = t.by_name()
    assert rows["outer"] == [1, 100, 60]
    assert rows["inner"] == [2, 40, 30]
    assert rows["leaf"] == [1, 10, 10]


def _arc(tmp_path: Path, n: int = 41) -> str:
    path = tmp_path / "arc.json"
    path.write_text(json.dumps({"type": "arc", "L": math.pi, "n": n}), encoding="utf-8")
    return str(path)


def test_tracing_records_layers_and_restores_the_modules(tmp_path):
    originals = (cli.load_base, cli.decompose, cli.GreenEvaluator.log_green)
    t = tracer.Tracer()
    with tracer.tracing(t):
        with t.span("cmd.verify"):
            code = cli.main(["verify", "--base", _arc(tmp_path), "--count", "64",
                             "--out", str(tmp_path / "out")])
    assert code == 0
    assert (cli.load_base, cli.decompose, cli.GreenEvaluator.log_green) == originals
    layers = tracer.layer_metrics(t, 0.0)
    assert layers["cylinder.log_green_calls"] > 0
    assert layers["verify.monotonicity_s"] > 0.0
    assert layers["spectral.eig_residual"] < 1e-10
    assert layers["cli.bytes_written"] > 0
    assert layers["cmd.verify_s"] >= layers["spectral.decompose_s"]
    rows = t.by_name()
    assert all(0 <= own <= total for _, total, own in rows.values())


def test_make_plan_is_determined_by_the_seed(tmp_path):
    def inputs(seed, where):
        cmds = workloads.make_plan("chain-deep", seed, where)
        return cmds, {p.name: p.read_bytes() for p in where.iterdir()}

    first, files = inputs(3, tmp_path / "a")
    again, files_again = inputs(3, tmp_path / "b")
    _, other = inputs(4, tmp_path / "c")
    assert files == files_again
    assert (json.dumps(first).replace(str(tmp_path / "a"), "")
            == json.dumps(again).replace(str(tmp_path / "b"), ""))
    assert files["points.csv"] != other["points.csv"]
    assert files["points.csv"].count(b"\n") == 1 + workloads.GREEN_LEVELS * workloads.CHAIN_NODES


def test_exact_tail_matches_the_binomial_count():
    assert checks.exact_tail(["1.0"] * 20, 2.0) == 211 / 2**20
    assert checks.exact_tail(["0.5", "0.25"], 0.5) == 0.75


def _command(tmp_path: Path, argv) -> tuple:
    out = tmp_path / "out"
    code = cli.main([*argv, "--out", str(out)])
    return argv, [{"command": argv[0], "exit": code}], out


def _corrupt_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _rejects(argv, records, out) -> bool:
    try:
        checks.check_rep([argv], records, out, seed=1, deep=True)
    except checks.CheckFailed:
        return True
    return False


def test_checks_reject_a_corrupted_verify_summary(tmp_path):
    argv, recs, out = _command(tmp_path, ["verify", "--base", _arc(tmp_path), "--count", "64"])
    assert not _rejects(argv, recs, out)
    _corrupt_json(out / "verify.json",
                  lambda d: d["suites"]["symmetry"].update(max_violation=1e-9))
    assert _rejects(argv, recs, out)


def test_checks_reject_a_skipped_reflection_on_a_symmetric_base(tmp_path):
    argv, recs, out = _command(tmp_path, ["verify", "--base", _arc(tmp_path), "--count", "64"])
    _corrupt_json(out / "verify.json",
                  lambda d: d["suites"]["reflection"].update(status="skipped"))
    assert _rejects(argv, recs, out)


def test_checks_reject_a_wrong_green_value(tmp_path):
    points = tmp_path / "pts.csv"
    points.write_text("u,node\n" + "".join(f"{u},{i}\n" for u in (-1.5, 2.0) for i in range(0, 41, 4)),
                      encoding="utf-8")
    argv, recs, out = _command(tmp_path, ["green", "--base", _arc(tmp_path), "--points",
                                          str(points), "--pole-u", "0.5", "--pole-node", "20"])
    assert not _rejects(argv, recs, out)
    text = (out / "green.csv").read_text(encoding="utf-8").splitlines()
    rows = [r.split(",") for r in text[1:]]
    for r in rows:
        r[4] = repr(float(r[4]) * (1.0 + 1e-6))
    (out / "green.csv").write_text("\n".join([text[0]] + [",".join(r) for r in rows]) + "\n",
                                   encoding="utf-8")
    assert _rejects(argv, recs, out)


def test_checks_reject_a_wrong_chernoff_tail(tmp_path):
    delays = tmp_path / "delays.csv"
    delays.write_text("".join(f"{k / 1000!r}\n" for k in range(40, 1000, 37)), encoding="utf-8")
    argv, recs, out = _command(tmp_path, ["chernoff", "--atoms", str(delays), "--L", "2.0"])
    assert not _rejects(argv, recs, out)
    _corrupt_json(out / "chernoff.json", lambda d: d.update(exact_tail=d["exact_tail"] * (1 + 1e-9)))
    assert _rejects(argv, recs, out)


def test_checks_reject_a_nonzero_exit_and_a_failed_chain_check(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "chain_demo.json").write_text(json.dumps({"checks": {
        "deep_small_time_ok": True, "deep_ratio_limit_ok": False, "deep_alpha_ok": True}}))
    argv = ["chain-demo"]
    assert _rejects(argv, [{"command": "chain-demo", "exit": 0}], out)
    assert _rejects(argv, [{"command": "chain-demo", "exit": 1}], out)


def test_checks_reject_csv_that_differs_between_repetitions(tmp_path):
    for name in ("rep0", "rep1"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "x.csv").write_text("a,b\n1,2\n", encoding="utf-8")
    checks.check_identical_csv([tmp_path / "rep0", tmp_path / "rep1"])
    (tmp_path / "rep1" / "x.csv").write_text("a,b\n1,3\n", encoding="utf-8")
    with pytest.raises(checks.CheckFailed):
        checks.check_identical_csv([tmp_path / "rep0", tmp_path / "rep1"])


def test_accounting_counts_unresolvable_samples_as_failed(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    suites = {
        "monotonicity": {"status": "ok", "config": {"count": 100},
                         "extras": {"skipped_unresolvable": 40}},
        "reflection": {"status": "skipped", "config": {}},
        "harnack": {"status": "error", "config": {}},
        "normalization": {"status": "ok", "config": {"poles": 15}},
    }
    (out / "verify.json").write_text(json.dumps({"suites": suites}), encoding="utf-8")
    argv = ["verify", "--base", "b.json", "--count", "100", "--out", "{out}"]
    attempted, failed = checks.accounting([argv], [{"exit": 1}], out)
    assert (attempted, failed) == (1 + 100 + 1 + 1, 1 + 40 + 1)


def test_run_fails_without_cylpot_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chain-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
