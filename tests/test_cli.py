import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cylpot
from cylpot.base import DEFAULT_NECK_RATIO
from cylpot.cli import build_parser, main


@pytest.fixture()
def arc_doc(tmp_path):
    path = tmp_path / "arc.json"
    path.write_text(json.dumps({"type": "arc", "L": math.pi, "n": 400}))
    return path


def test_spectrum_command(arc_doc, tmp_path):
    out = tmp_path / "spec"
    assert main(["spectrum", "--base", str(arc_doc), "--out", str(out)]) == 0
    meta = json.loads((out / "spectrum.json").read_text())
    assert abs(meta["base"]["alpha_max"] - 1.0) <= 1e-3
    assert meta["base"]["reference_node"] == 199
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "k,lambda,mu"
    assert len(lines) == 401
    vec_lines = (out / "eigenvectors.csv").read_text().splitlines()
    assert len(vec_lines) == 1 + 12 * 400  # first 12 modes by default


def test_spectrum_fine_arc_metadata_oracle(tmp_path):
    doc = tmp_path / "arc2000.json"
    doc.write_text(json.dumps({"type": "arc", "L": math.pi, "n": 2000}))
    out = tmp_path / "spec2000"
    assert main(["spectrum", "--base", str(doc), "--out", str(out)]) == 0
    meta = json.loads((out / "spectrum.json").read_text())
    assert abs(meta["base"]["alpha_max"] - 1.0) <= 1e-5


def test_spectrum_rejects_invalid_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "arc", "L": -1.0, "n": 4}))
    out = tmp_path / "never"
    assert main(["spectrum", "--base", str(bad), "--out", str(out)]) == 2
    assert not out.exists()  # no partial outputs


def test_green_command(arc_doc, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("u,node\n0.0,100\n1.5,250\n")
    out = tmp_path / "green"
    code = main(
        ["green", "--base", str(arc_doc), "--points", str(pts),
         "--pole-u", "6.0", "--pole-node", "200", "--out", str(out)]
    )
    assert code == 0
    rows = (out / "green.csv").read_text().splitlines()
    assert rows[0] == "u,node,v,nodePole,value,logValue"
    assert len(rows) == 3
    value = float(rows[1].split(",")[4])
    assert value > 0.0


def test_green_loss_exits_2_without_traceback(chain_shortcut, tmp_path, capsys):
    doc = tmp_path / "graph.json"
    doc.write_text(json.dumps(chain_shortcut[1]))
    pts = tmp_path / "pts.csv"
    pts.write_text("u,node\n0.0,103\n3.0,103\n")
    code = main(
        ["green", "--base", str(doc), "--points", str(pts),
         "--pole-u", "0.0", "--pole-node", "0", "--out", str(tmp_path / "green")]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: NumericalLossError: ")


def test_converge_command(arc_doc, tmp_path):
    out = tmp_path / "conv"
    code = main(
        ["converge", "--base", str(arc_doc), "--out", str(out), "--v-max", "30"]
    )
    assert code == 0
    meta = json.loads((out / "converge.json").read_text())
    assert meta["strictly_decreasing"] is True
    assert meta["rel_deviation"] <= 0.10
    assert abs(meta["expected_rate"] + 1.0) <= 1e-3


def test_converge_rejects_empty_pole_grid(arc_doc, tmp_path):
    code = main(
        ["converge", "--base", str(arc_doc), "--out", str(tmp_path / "c"),
         "--v-max", "1.0"]
    )
    assert code == 2


def test_verify_per_sample_tables(arc_doc, tmp_path):
    out = tmp_path / "ps"
    code = main(
        ["verify", "--base", str(arc_doc), "--suite", "symmetry",
         "--count", "200", "--per-sample", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "samples_symmetry.csv").read_text().splitlines()
    assert lines[0] == "u,v,v0,v1,i,j,violation"
    assert len(lines) == 201


def test_verify_command_and_determinism(arc_doc, tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    args = ["verify", "--base", str(arc_doc), "--suite",
            "monotonicity,symmetry,normalization", "--count", "600", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()
    report = json.loads((out1 / "verify.json").read_text())
    assert all(s["passed"] for s in report["suites"].values())
    assert report["seed"] == 5



def test_verify_all_skipped_writes_strict_json(arc_doc, tmp_path, monkeypatch):
    # A health switch at 1 declares every mode sum lost: the sweeps resolve
    # nothing, fail as insufficient, and their -inf maxima are written null.
    monkeypatch.setattr("cylpot.cylinder._HEALTH_SWITCH", 1.0)
    out = tmp_path / "v"
    code = main(["verify", "--base", str(arc_doc), "--suite", "monotonicity,symmetry",
                 "--count", "64", "--out", str(out)])
    assert code == 1

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    report = json.loads((out / "verify.json").read_text(encoding="utf-8"), parse_constant=reject)
    for rep in report["suites"].values():
        assert rep["status"] == "insufficient" and rep["passed"] is False
        assert rep["max_violation"] is None
        assert rep["extras"]["resolved_fraction"] == 0.0

def test_verify_unknown_suite(arc_doc, tmp_path):
    code = main(
        ["verify", "--base", str(arc_doc), "--suite", "nope",
         "--out", str(tmp_path / "x")]
    )
    assert code == 2


def test_chain_demo_command(tmp_path):
    out = tmp_path / "chain"
    assert main(["chain-demo", "--out", str(out)]) == 0
    meta = json.loads((out / "chain_demo.json").read_text())
    checks = meta["checks"]
    assert checks["deep_small_time_ok"] and checks["deep_ratio_limit_ok"]
    assert checks["deep_alpha_ok"]
    assert abs(checks["deep_alpha_hat"] - checks["alpha_target"]) <= 0.10
    rows = (out / "chain_demo.csv").read_text().splitlines()
    assert len(rows) == 1 + meta["chain"]["beads"]


def test_chernoff_command_default_atoms(tmp_path):
    out = tmp_path / "ch"
    assert main(["chernoff", "--out", str(out), "--L", "2", "--eps", "0.01"]) == 0
    meta = json.loads((out / "chernoff.json").read_text())
    assert meta["exact_tail"] == 211 / 2**20
    assert meta["best_bound"] >= meta["exact_tail"]
    rows = (out / "distribution.csv").read_text().splitlines()
    assert len(rows) == 22  # header + 21 atoms


def test_chernoff_command_atoms_file(tmp_path):
    atoms = tmp_path / "a.csv"
    atoms.write_text("\n".join(["0.5"] * 10) + "\n")
    out = tmp_path / "ch2"
    assert main(["chernoff", "--atoms", str(atoms), "--out", str(out)]) == 0
    meta = json.loads((out / "chernoff.json").read_text())
    assert meta["delays"] == 10 and meta["delay_sum"] == 5.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("beadNodes", 2.5),
        ("anchorNodes", "8"),
        ("neckRatio", "0.1"),
        ("radius", None),
        ("radii", [0.3, "0.3", 0.3]),
    ],
)
def test_chain_field_types_rejected(field, value, tmp_path, capsys):
    doc = {"type": "chain", "d": 4, "J": 3, field: value}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code = main(["spectrum", "--base", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert "SchemaError" in err and field in err
    assert "Traceback" not in err


def test_chain_demo_neck_ratio_default():
    args = build_parser().parse_args(["chain-demo"])
    assert args.neck_ratio == DEFAULT_NECK_RATIO


def test_cli_import_defers_slow_scipy_modules():
    code = (
        "import sys, cylpot.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules))"
    )
    env = dict(os.environ)
    src = str(Path(cylpot.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
