import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cylpot
from cylpot.base import DEFAULT_NECK_RATIO
from cylpot.cli import build_parser, main, write_csv


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


def test_spectrum_rejects_negative_modes(arc_doc, tmp_path, capsys):
    out = tmp_path / "spec"
    code = main(["spectrum", "--base", str(arc_doc), "--modes", "-3", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ParameterError: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_spectrum_eigenvalues_do_not_depend_on_modes(tmp_path):
    doc = tmp_path / "cap.json"
    doc.write_text(json.dumps({"type": "cap", "d": 4, "theta0": 1.2, "n": 300}))
    outs = {}
    for modes in ("12", "0"):
        outs[modes] = tmp_path / f"m{modes}"
        argv = ["spectrum", "--base", str(doc), "--modes", modes, "--out", str(outs[modes])]
        assert main(argv) == 0
    assert (outs["12"] / "spectrum.csv").read_bytes() == (outs["0"] / "spectrum.csv").read_bytes()
    lead, full = (np.loadtxt(outs[m] / "eigenvectors.csv", delimiter=",", skiprows=1)
                  for m in ("12", "0"))
    assert lead.shape == (12 * 300, 3) and full.shape == (300 * 300, 3)
    assert np.array_equal(lead[:, :2], full[: 12 * 300, :2])
    assert np.max(np.abs(lead[:, 2] - full[: 12 * 300, 2])) <= 1e-9
    metas = [json.loads((outs[m] / "spectrum.json").read_text())["base"] for m in ("12", "0")]
    assert metas[0]["lambda1"] == metas[1]["lambda1"]


@pytest.mark.parametrize("flags", [["--v-step", "0"], ["--v-step", "nan"], ["--v-step", "-2"],
                                   ["--v-max", "1.0"], ["--v-max", "inf"], ["--v-max", "3"]])
def test_converge_rejects_bad_pole_grid_before_loading(flags, tmp_path, capsys):
    # The base file does not exist: the grid is checked before it is read.
    out = tmp_path / "c"
    code = main(["converge", "--base", str(tmp_path / "missing.json"), "--out", str(out)] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ParameterError: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_summaries_record_eig_residual(arc_doc, tmp_path):
    # spectrum forms its 12 exported modes, the others every mode; the
    # residual covers the modes formed, and the summary counts them.
    base = cylpot.load_base(arc_doc)
    full = cylpot.decompose(base).eig_residual
    lead = cylpot.decompose(base, modes=12).eig_residual
    assert 0.0 < lead <= 1e-6 and 0.0 < full <= 1e-6
    pts = tmp_path / "pts.csv"
    pts.write_text("u,node\n0.0,100\n")
    runs = {
        "spectrum.json": (["spectrum"], lead, 12),
        "green.json": (["green", "--points", str(pts), "--pole-u", "1.0", "--pole-node", "200"],
                       full, 400),
        "verify.json": (["verify", "--suite", "monotonicity", "--count", "8"], full, 400),
    }
    for name, (argv, want, modes) in runs.items():
        out = tmp_path / name
        main(argv + ["--base", str(arc_doc), "--out", str(out)])
        meta = json.loads((out / name).read_text())["base"]
        assert meta["eig_residual"] == want
        assert meta["eigenvector_modes"] == modes


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


def test_converge_fits_every_pole_when_few_pass_the_cutoff(arc_doc, tmp_path):
    # On this arc the contamination cutoff sits near v = 6.6, past the last
    # pole: every pole is fitted, and the window says so.
    out = tmp_path / "conv"
    main(["converge", "--base", str(arc_doc), "--out", str(out), "--v-max", "6"])
    meta = json.loads((out / "converge.json").read_text())
    assert meta["fit_window"] == [2.0, 6.0]
    rows = np.loadtxt(out / "converge.csv", delimiter=",", skiprows=1)
    assert rows[:, 0].tolist() == [2.0, 4.0, 6.0]


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
    # The CSV header names the columns; the summary does not repeat them.
    extras = json.loads((out / "verify.json").read_text())["suites"]["symmetry"]["extras"]
    assert "sample_columns" not in extras


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

@pytest.mark.parametrize(
    "flags", [["--count", "-5"], ["--count", "0"], ["--seed", "-1"]]
)
def test_verify_rejects_bad_count_and_seed(flags, arc_doc, tmp_path, capsys):
    out = tmp_path / "v"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["verify", "--base", str(arc_doc), "--suite", "all",
                     "--out", str(out)] + flags)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ParameterError: ")
    assert "Traceback" not in err
    assert not out.exists()


def _forbid_load_base(monkeypatch):
    def load_base(path):
        raise AssertionError("the base was loaded")
    monkeypatch.setattr("cylpot.cli.load_base", load_base)


def test_verify_unknown_suite(arc_doc, tmp_path, capsys, monkeypatch):
    _forbid_load_base(monkeypatch)  # suite names are checked before the base is read
    out = tmp_path / "x"
    code = main(["verify", "--base", str(arc_doc), "--suite", "nosuch", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: UnknownSuiteError: ") and "'nosuch'" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, points, error", [
    (["green", "--pole-u", "0", "--pole-node", "0"], "u,node\n1.0\n", "SchemaError"),
    (["green", "--pole-u", "0", "--pole-node", "0"], "u,node\n1.0,x\n", "SchemaError"),
    (["green", "--pole-u", "0", "--pole-node", "0"], "u,node\nnan,3\n", "ParameterError"),
    (["green", "--pole-u", "0", "--pole-node", "0"], "u,node\n-inf,3\n", "ParameterError"),
    (["green", "--pole-u", "nan", "--pole-node", "0"], "u,node\n1.0,3\n", "ParameterError"),
    (["converge", "--tol-rate", "-1"], None, "ParameterError"),
    (["converge", "--tol-rate", "nan"], None, "ParameterError"),
    (["verify", "--tol-exact", "nan"], None, "ParameterError"),
    (["verify", "--tol-exact=-1e-12"], None, "ParameterError"),
], ids=["one-field", "bad-node", "nan-u", "inf-u", "nan-pole-u", "negative-tol-rate",
        "nan-tol-rate", "nan-tol-exact", "negative-tol-exact"])
def test_malformed_input_exits_2_before_loading(argv, points, error, arc_doc, tmp_path,
                                                capsys, monkeypatch):
    _forbid_load_base(monkeypatch)
    out = tmp_path / "o"
    argv = argv + ["--base", str(arc_doc), "--out", str(out)]
    if points is not None:
        pts = tmp_path / "pts.csv"
        pts.write_text(points)
        argv += ["--points", str(pts)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {error}: ") and "Traceback" not in err
    assert not out.exists()


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


def _run_python(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports this cylpot."""
    env = dict(os.environ)
    src = str(Path(cylpot.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return out.stdout.strip()


def test_cli_import_defers_slow_scipy_modules():
    code = (
        "import sys, cylpot.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.stats') if m in sys.modules))"
    )
    assert _run_python(code) == "[]"


def test_verify_run_does_not_import_scipy_stats(arc_doc, tmp_path):
    # The sweeps draw scipy's Sobol points without loading scipy.stats.
    code = (
        "import sys, cylpot.cli; "
        f"code = cylpot.cli.main(['verify', '--base', {str(arc_doc)!r}, '--suite', 'all', "
        f"'--count', '256', '--out', {str(tmp_path / 'v')!r}]); "
        "print(code, 'scipy.stats' in sys.modules)"
    )
    assert _run_python(code).splitlines()[-1] == "0 False"


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_rows(path, header, rows) -> None:
    """The row-by-row writer the columnar one replaced: the bytes it must keep."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def _assert_same_bytes(tmp_path, header, columns):
    write_csv(tmp_path / "cols.csv", header, columns)
    _write_rows(tmp_path / "rows.csv", header, list(zip(*columns)))
    assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_columnar_csv_matches_row_writer(tmp_path):
    ld = np.longdouble
    columns = (
        [True, np.bool_(False), np.True_],
        [3, np.int64(-7), 2**62],
        [1.0 / 3.0, np.float64(-0.0), np.float64(5e-324)],
        np.array([math.inf, -math.inf, math.nan]),
        np.array([ld(1) / ld(3), ld(2) ** 70 + 1, -ld(1) / ld(7)]),
        np.array([0.1, 2.5, -3e38], dtype=np.float32),
        ["plain", "a,b", 'say "hi"'],
        ["x", "", "line\nbreak"],
    )
    header = ("flag", "n", "x", "edge", "wide", "single", "text", 'odd,"name"')
    _assert_same_bytes(tmp_path, header, columns)


def test_columnar_csv_header_only(tmp_path):
    _assert_same_bytes(tmp_path, ("a", "b"), (np.zeros(0), np.zeros(0, dtype=int)))


def test_columnar_csv_spans_write_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr("cylpot.cli._WRITE_BLOCK", 7)
    rng = np.random.default_rng(0)
    count = 7 * 5 + 3
    columns = (np.arange(count), rng.standard_normal(count) * 1e5, rng.random(count) < 0.5)
    _assert_same_bytes(tmp_path, ("i", "x", "b"), columns)


def test_columnar_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a", "b"), ([1, 2], [1.0]))
    with pytest.raises(ValueError):
        write_csv(tmp_path / "one.csv", ("only",), (["", "x"],))
