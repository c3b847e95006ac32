import csv
import errno
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import cylpot
from cylpot.base import DEFAULT_NECK_RATIO
from cylpot.cli import build_parser, main, write_csv
from test_base import MALFORMED_DOCUMENTS, mutated_document
from test_spectral import _started_threads


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
                                   ["--v-max", "1.0"], ["--v-max", "inf"], ["--v-max", "3"],
                                   ["--v-step", "1e-12"], ["--v-max", "1e300"]])
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


def test_green_loss_leaves_no_out_directory(cyclic_graph, tmp_path, capsys):
    # G((0, 25); (0, 0)) is lost on the cyclic graph, which has no route
    # below the health switch: --out is made only once the values exist.
    doc = tmp_path / "cycle.json"
    doc.write_text(json.dumps(cyclic_graph))
    pts = tmp_path / "pts.csv"
    pts.write_text("u,node\n0.0,25\n")
    out = tmp_path / "green"
    code = main(["green", "--base", str(doc), "--points", str(pts),
                 "--pole-u", "0.0", "--pole-node", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: NumericalLossError: ") and err.count("\n") == 1
    assert not out.exists()


def test_converge_writes_nothing_when_its_rate_fit_fails(arc_doc, tmp_path, capsys,
                                                        monkeypatch):
    def failed_fit(values):
        raise ValueError("exponent fit requires positive values")

    monkeypatch.setattr("cylpot.cli.fit_exponent", failed_fit)
    out = tmp_path / "conv"
    assert main(["converge", "--base", str(arc_doc), "--out", str(out), "--v-max", "30"]) == 2
    assert capsys.readouterr().err.startswith("error: ValueError: ")
    assert not out.exists()


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


def test_commands_write_the_same_bytes_with_paired_solves(arc_doc, tmp_path, monkeypatch):
    # spectrum and converge run their solves on two threads when every base
    # passes the node gate and two CPUs are usable, and one after the other
    # on one CPU: the same CSV bytes, and after each command the same thread
    # count (no helper outlives it).
    threads = threading.active_count()
    base = ["--base", str(arc_doc)]
    tables = {}
    for force in ("on", "off"):
        with monkeypatch.context() as patch:
            if force == "on":
                patch.setattr("cylpot.spectral._PAIR_NODES", 0)
                patch.setattr("cylpot.spectral._usable_cpus", lambda: 2)
            else:
                patch.setattr("cylpot.spectral._usable_cpus", lambda: 1)
            for argv in (["spectrum", *base], ["converge", *base, "--v-max", "30"],
                         ["chernoff"]):
                out = tmp_path / force / argv[0]
                started = _started_threads(patch)
                assert main(argv + ["--out", str(out)]) == 0
                paired = force == "on" and argv[0] != "chernoff"
                assert ("cylpot-pair" in started) == paired, started
                assert threading.active_count() == threads
                tables[force, argv[0]] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    for command in ("spectrum", "converge", "chernoff"):
        assert tables["on", command] == tables["off", command]


def test_commands_succeed_where_cpu_placement_is_denied(arc_doc, tmp_path, monkeypatch):
    # A host may refuse sched_setaffinity.  With the paired solves and the
    # split CSV writer forced on, each command still exits 0 with the bytes
    # of a one-CPU run, and never asks where to run.
    calls = []

    def denied(*args):
        calls.append(args)
        raise PermissionError(errno.EPERM, os.strerror(errno.EPERM))

    base = ["--base", str(arc_doc)]
    tables = {}
    for force in ("on", "off"):
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_setaffinity", denied, raising=False)
            if force == "on":
                patch.setattr("cylpot.spectral._PAIR_NODES", 0)
                patch.setattr("cylpot.cli._ROWS_PER_WORKER", 7)
                patch.setattr("cylpot.spectral._usable_cpus", lambda: 3)
            else:
                patch.setattr("cylpot.spectral._usable_cpus", lambda: 1)
            started, pids = _started_threads(patch), _count_forks(patch)
            for argv in (["spectrum", *base], ["converge", *base, "--v-max", "30"],
                         ["chernoff"]):
                out = tmp_path / force / argv[0]
                assert main(argv + ["--out", str(out)]) == 0
                tables[force, argv[0]] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        assert ("cylpot-pair" in started) == bool(pids) == (force == "on")
    assert calls == []
    for command in ("spectrum", "converge", "chernoff"):
        assert tables["on", command] == tables["off", command]


def test_converge_rejects_empty_pole_grid(arc_doc, tmp_path):
    code = main(
        ["converge", "--base", str(arc_doc), "--out", str(tmp_path / "c"),
         "--v-max", "1.0"]
    )
    assert code == 2


def test_converge_with_a_lost_deviation_table_prints_only_the_error(tmp_path, capsys):
    # On a 5-node arc of length 0.001 the growth factor overflows and the
    # reference sum underflows: a ParameterError, with no floating-point
    # warning on stderr before it.
    path = tmp_path / "arc.json"
    path.write_text(json.dumps({"type": "arc", "L": 0.001, "n": 5}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["converge", "--base", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ParameterError: ") and err.count("\n") == 1


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


def _forbid_decompose(monkeypatch):
    def decompose(base, **kwargs):
        raise AssertionError("the base was decomposed")
    monkeypatch.setattr("cylpot.cli.decompose", decompose)


# Malformed options and input files: argv ("{file}" stands for a file holding
# the case's text), the text, the error named on stderr, and whether the
# check may read the base (node indices are checked against it) rather than
# running before load_base.  Every case runs before any decompose.
_MALFORMED = [
    (["green", "--pole-u", "0", "--pole-node", "0", "--points", "{file}"], "u,node\n1.0\n",
     "SchemaError", False),
    (["green", "--pole-u", "0", "--pole-node", "0", "--points", "{file}"], "u,node\n1.0,x\n",
     "SchemaError", False),
    (["green", "--pole-u", "0", "--pole-node", "0", "--points", "{file}"], "u,node\nnan,3\n",
     "ParameterError", False),
    (["green", "--pole-u", "0", "--pole-node", "0", "--points", "{file}"], "u,node\n-inf,3\n",
     "ParameterError", False),
    (["green", "--pole-u", "nan", "--pole-node", "0", "--points", "{file}"], "u,node\n1.0,3\n",
     "ParameterError", False),
    (["green", "--pole-u", "0", "--pole-node", "0", "--points", "{file}"],
     "u,node\n0.5,3\n,4\nu,5\n1.0,6\n", "SchemaError", False),
    (["green", "--pole-u", "0", "--pole-node", "0", "--points", "{file}"],
     "u,node\n0.5,3\nu,5\n1.0,6\n", "SchemaError", False),
    (["green", "--pole-u", "0", "--pole-node", "0", "--points", "{file}"], "0.5,3\nu,node\n",
     "SchemaError", False),
    (["converge", "--tol-rate", "-1"], None, "ParameterError", False),
    (["converge", "--tol-rate", "nan"], None, "ParameterError", False),
    (["verify", "--tol-exact", "nan"], None, "ParameterError", False),
    (["verify", "--tol-exact=-1e-12"], None, "ParameterError", False),
    (["green", "--pole-u", "0", "--pole-node", "999", "--points", "{file}"], "u,node\n1.0,3\n",
     "ParameterError", True),
    (["green", "--pole-u", "0", "--pole-node", "-1", "--points", "{file}"], "u,node\n1.0,3\n",
     "ParameterError", True),
    (["green", "--pole-u", "0", "--pole-node", "0", "--points", "{file}"],
     "u,node\n1.0,3\n2.0,400\n", "ParameterError", True),
    (["verify", "--count", "1073741825"], None, "ParameterError", False),
    (["chain-demo", "--t0", "nan"], None, "ParameterError", False),
    (["chain-demo", "--t0", "0"], None, "ParameterError", False),
    (["chain-demo", "--t0", "inf"], None, "ParameterError", False),
    (["chain-demo", "--lambda", "nan"], None, "ParameterError", False),
    (["chain-demo", "--bead-nodes", "1"], None, "ParameterError", False),
    (["chernoff", "--L", "nan"], None, "ParameterError", False),
    (["chernoff", "--L", "-1"], None, "ParameterError", False),
    (["chernoff", "--eps", "nan"], None, "ParameterError", False),
    (["chernoff", "--eps", "1"], None, "ParameterError", False),
    (["chernoff", "--atoms", "{file}"], "0.5\nabc\n", "SchemaError", False),
    (["chernoff", "--atoms", "{file}"], "0.5\nnan\n", "ParameterError", False),
    (["chernoff", "--atoms", "{file}"], "0.5\n1.5\n", "ParameterError", False),
]
_MALFORMED_IDS = [
    "one-field", "bad-node", "nan-u", "inf-u", "nan-pole-u", "blank-u", "second-header",
    "header-after-a-point", "negative-tol-rate",
    "nan-tol-rate", "nan-tol-exact", "negative-tol-exact", "pole-node-past-n",
    "negative-pole-node", "points-node-past-n", "count-past-sobol", "nan-t0", "zero-t0",
    "inf-t0", "nan-lambda", "one-bead-node", "nan-L", "negative-L", "nan-eps", "eps-1",
    "atoms-not-a-number", "nan-atom", "atom-past-1",
]


@pytest.mark.parametrize("argv, text, error, loads", _MALFORMED, ids=_MALFORMED_IDS)
def test_malformed_input_exits_2_before_loading(argv, text, error, loads, arc_doc, tmp_path,
                                                capsys, monkeypatch):
    if not loads:
        _forbid_load_base(monkeypatch)
    _forbid_decompose(monkeypatch)
    out = tmp_path / "o"
    if text is not None:
        (tmp_path / "input.csv").write_text(text)
    argv = [str(tmp_path / "input.csv") if a == "{file}" else a for a in argv]
    if argv[0] not in ("chain-demo", "chernoff"):
        argv += ["--base", str(arc_doc)]
    code = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {error}: ") and err.count("\n") == 1
    assert not out.exists()


def test_points_file_has_a_header_only_as_its_first_non_empty_row(tmp_path):
    # Empty rows are skipped anywhere; after the first non-empty row every
    # row is a point, so a blank or "u" first field there names its row.
    from cylpot.cli import _read_points

    pts = tmp_path / "pts.csv"
    pts.write_text("\n , \nu,node\n0.5,3\n\n1.0,6\n")
    assert _read_points(pts) == ([0.5, 1.0], [3, 6])
    pts.write_text("0.5,3\n1.0,6\n")
    assert _read_points(pts) == ([0.5, 1.0], [3, 6])
    for text in ("u,node\n0.5,3\n,4\nu,5\n1.0,6\n", "u,node\n0.5,3\nu,5\n1.0,6\n"):
        pts.write_text(text)
        with pytest.raises(cylpot.SchemaError, match="^points row 3 "):
            _read_points(pts)


@pytest.mark.parametrize("doc", [
    {"type": "arc", "L": 2.0, "n": 1},
    {"type": "arc", "L": 2.0, "n": 2},
    {"type": "graph", "d": 3, "edges": [[0, 1, 1.0]], "mass": [1.0, 2.0],
     "dirichlet_leak": [0.5, 0.5]},
], ids=["arc-1", "arc-2", "graph-2"])
def test_converge_on_fewer_than_3_nodes_exits_2_before_decompose(doc, tmp_path, capsys,
                                                                  monkeypatch):
    # The rate fit reads mu_2 and mu_3.
    _forbid_decompose(monkeypatch)
    path = tmp_path / "base.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    code = main(["converge", "--base", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ParameterError: ") and "Traceback" not in err
    assert not out.exists()


def test_converge_names_the_base_whose_mass_products_underflow(tmp_path, capsys, monkeypatch):
    # The masses of this thin high-dimensional cap are about 1e-192: their
    # products underflow to 0, so converge cannot bound its modes.
    _forbid_decompose(monkeypatch)
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"type": "cap", "d": 9, "theta0": 3.7e-24, "n": 7}))
    out = tmp_path / "o"
    code = main(["converge", "--base", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ParameterError: converge bounds its modes by the mass "
                          "products m_i m_ref of the cap base with n = 7")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize("command", ["spectrum", "converge", "green"])
def test_base_too_small_for_float64_is_a_scale_error(command, tmp_path, capfd):
    # On an arc of length 1e-100 the mass-scaled operator reaches 2e202:
    # rejected before LAPACK, which would print to stdout, and before numpy
    # warns of an overflow.
    path = tmp_path / "arc.json"
    path.write_text(json.dumps({"type": "arc", "d": 2, "L": 1e-100, "n": 9}))
    pts = tmp_path / "pts.csv"
    pts.write_text("u,node\n1.0,3\n")
    argv = [command, "--base", str(path), "--out", str(tmp_path / "o")]
    if command == "green":
        argv += ["--points", str(pts), "--pole-u", "0.0", "--pole-node", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capfd.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ScaleError: the mass-scaled operator of the arc base "
                          "with n = 9 has entries up to 2.000e+202")
    assert err.count("\n") == 1 and not (tmp_path / "o").exists()


def test_green_at_subnormal_separation_writes_the_zero_separation_value(tmp_path):
    # s = 1.4e-318 overflows the truncation reach to inf, which keeps every
    # mode: the value of s = 0, without a floating-point warning.
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"type": "cap", "d": 12, "theta0": 1.0, "n": 20}))
    pts = tmp_path / "pts.csv"
    pts.write_text("u,node\n0.0,3\n1.4e-318,3\n-1.4e-318,3\n")
    out = tmp_path / "g"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["green", "--base", str(path), "--points", str(pts), "--pole-u", "0.0",
                     "--pole-node", "3", "--out", str(out)]) == 0
    rows = (out / "green.csv").read_text().splitlines()[1:]
    assert [r.split(",", 1)[1] for r in rows] == [rows[0].split(",", 1)[1]] * 3


@pytest.mark.parametrize("mutation, err", MALFORMED_DOCUMENTS)
def test_malformed_base_document_exits_2_before_decompose(mutation, err, tmp_path, capsys,
                                                          monkeypatch):
    _forbid_decompose(monkeypatch)
    doc = tmp_path / "base.json"
    doc.write_text(json.dumps(mutated_document(mutation)))
    out = tmp_path / "o"
    code = main(["spectrum", "--base", str(doc), "--out", str(out)])
    err_text = capsys.readouterr().err
    assert code == 2
    assert err_text.startswith(f"error: {err.__name__}: ") and "Traceback" not in err_text
    assert not out.exists()


_SEEDLESS = {
    "spectrum": ["--base", "{base}"],
    "green": ["--base", "{base}", "--points", "{points}", "--pole-u", "1.0", "--pole-node", "200"],
    "converge": ["--base", "{base}", "--v-max", "6"],
    "chain-demo": ["--beads", "4"],
    "chernoff": [],
}


def _seedless_argv(command, arc_doc, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("u,node\n0.0,100\n")
    fill = {"{base}": str(arc_doc), "{points}": str(pts)}
    return [command] + [fill.get(a, a) for a in _SEEDLESS[command]]


@pytest.mark.parametrize("command", sorted(_SEEDLESS))
def test_seed_is_a_usage_error_where_nothing_is_drawn(command, arc_doc, tmp_path, capsys):
    argv = _seedless_argv(command, arc_doc, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "5", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_summaries_without_samples_record_no_seed(arc_doc, tmp_path):
    for command in sorted(_SEEDLESS):
        out = tmp_path / command
        main(_seedless_argv(command, arc_doc, tmp_path) + ["--out", str(out)])
        (summary,) = out.glob("*.json")
        doc = json.loads(summary.read_text())
        assert doc["command"] == command and "seed" not in doc


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


def test_chernoff_long_tail_bound_saturates_without_traceback(tmp_path, capsys):
    # beta L passes the float range of e^{beta L} on the beta scan; those
    # bounds are inf and the scan keeps its minimum.
    out = tmp_path / "ch"
    code = main(["chernoff", "--out", str(out), "--L", "200"])
    err = capsys.readouterr().err
    assert code in (0, 1) and "Traceback" not in err
    meta = json.loads((out / "chernoff.json").read_text())
    assert meta["exact_tail"] == 1.0 and meta["best_bound"] >= 1.0


@pytest.mark.parametrize("tail_len, threshold", [("1e306", 2.0020010003334168e306),
                                                  ("1e308", None)])
def test_chernoff_near_the_float_range_is_quiet(tail_len, threshold, tmp_path):
    # The beta grid's products overflow at the large betas, and from
    # L = 1e308 at every one: the threshold keeps its finite value (the
    # least product) or is inf, written as null, with no warning.
    out = tmp_path / "ch"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["chernoff", "--out", str(out), "--L", tail_len])
    assert code == 0
    meta = json.loads((out / "chernoff.json").read_text())
    assert meta["threshold"]["value"] == threshold


def test_chain_demo_lambda_below_minus_lambda1_is_a_parameter_error(tmp_path, capsys):
    out = tmp_path / "cd"
    assert main(["chain-demo", "--lambda", "-100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParameterError: ") and "lambda_1 = " in err
    assert "Traceback" not in err and not out.exists()


def test_chernoff_command_atoms_file(tmp_path):
    atoms = tmp_path / "a.csv"
    atoms.write_text("\n".join(["0.5"] * 10) + "\n")
    out = tmp_path / "ch2"
    assert main(["chernoff", "--atoms", str(atoms), "--out", str(out)]) == 0
    meta = json.loads((out / "chernoff.json").read_text())
    assert meta["delays"] == 10 and meta["delay_sum"] == 5.0


def test_chernoff_distribution_bytes_are_pinned(tmp_path):
    # cap-large's recipe: 400 delays on the 1/1000 grid give 195,981 rows,
    # which write_csv splits over processes on two or more CPUs.  The digest
    # is that of the repr-based writer the encoder replaced; the grid DP is
    # IEEE arithmetic alone, so it holds on every platform.
    rng = random.Random(20261020)
    atoms = tmp_path / "atoms.txt"
    atoms.write_text("".join(f"{rng.randint(1, 1000) / 1000!r}\n" for _ in range(400)))
    assert main(["chernoff", "--atoms", str(atoms), "--out", str(tmp_path / "ch")]) == 0
    data = (tmp_path / "ch" / "distribution.csv").read_bytes()
    assert len(data.splitlines()) == 195_982
    assert (hashlib.sha256(data).hexdigest()
            == "cf748fd7b11116c14d53b767b1fa94b4f39def70d71a0e7204116d7ee3b17e23")


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


def _run_python(code: str, *args: str, env=None) -> str:
    """Stdout of ``code`` run with ``args`` in a fresh interpreter that
    imports this cylpot, in ``env`` (default: this process's environment)."""
    env = dict(os.environ if env is None else env)
    src = str(Path(cylpot.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    return out.stdout.strip()


def test_cli_import_defers_slow_scipy_modules():
    # scipy.linalg's import loads numpy.f2py, numpy.testing and numpy.ma;
    # the scipy package itself stays, since callers read its version.  The
    # CSV formatter's tables wait for the first CSV as well.
    slow = ("scipy.integrate", "scipy.stats", "scipy.linalg", "numpy.f2py")
    code = (
        "import sys, cylpot.cli; "
        f"print(sorted(m for m in {slow!r} if m in sys.modules), 'scipy' in sys.modules, "
        "cylpot.csvtext._tables.cache_info().currsize)"
    )
    assert _run_python(code) == "[] True 0"


def test_verify_run_does_not_import_scipy_stats(arc_doc, tmp_path):
    # The sweeps draw scrambled Sobol points without loading scipy.stats.
    code = (
        "import sys, cylpot.cli; "
        f"code = cylpot.cli.main(['verify', '--base', {str(arc_doc)!r}, '--suite', 'all', "
        f"'--count', '256', '--out', {str(tmp_path / 'v')!r}]); "
        "print(code, 'scipy.stats' in sys.modules)"
    )
    assert _run_python(code).splitlines()[-1] == "0 False"


def test_path_base_commands_do_not_import_scipy_linalg(tmp_path):
    # Every LAPACK call on a path base goes through the cython_lapack
    # pointers: converge's reach solve and s = 0 column on a cap, and the
    # full and refined solves of chain-demo and green on a chain.  Neither
    # do they load numpy.ma (np.unique's masked-array test) or
    # numpy.polynomial (the default panel rule is written out), nor does
    # verify load numpy.random (the Sobol scramble bits come from the
    # standard library's random, which cylpot.cli loads already).  No
    # command here imports a module that importing cylpot.cli did not.
    cap = tmp_path / "cap.json"
    cap.write_text(json.dumps({"type": "cap", "d": 4, "theta0": 2 * math.pi / 5, "n": 301}))
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({"type": "chain", "d": 4, "J": 12, "beadNodes": 8,
                                 "neckRatio": 0.004, "anchorNodes": 8}))
    pts = tmp_path / "points.csv"
    pts.write_text("u,node\n1.0,3\n-2.5,40\n6.0,90\n")
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("0.5\n0.25\n0.125\n1.0\n")
    runs = [
        ["spectrum", "--base", str(cap), "--out", str(tmp_path / "s")],
        ["converge", "--base", str(cap), "--out", str(tmp_path / "c")],
        ["chain-demo", "--out", str(tmp_path / "d")],
        ["green", "--base", str(chain), "--points", str(pts), "--pole-u", "0.0",
         "--pole-node", "0", "--out", str(tmp_path / "g")],
        ["verify", "--base", str(chain), "--suite", "all", "--count", "256",
         "--out", str(tmp_path / "vc")],
        ["verify", "--base", str(cap), "--suite", "all", "--count", "256",
         "--out", str(tmp_path / "vk")],
        ["chernoff", "--atoms", str(atoms), "--L", "2.0", "--eps", "0.01",
         "--out", str(tmp_path / "k")],
    ]
    code = (
        "import sys, cylpot.cli\n"
        "added = []\n"
        f"for argv in {runs!r}:\n"
        "    before = set(sys.modules)\n"
        "    added.append((cylpot.cli.main(argv), sorted(set(sys.modules) - before)))\n"
        "print(added, [m for m in ('scipy.linalg', 'numpy.ma', 'numpy.polynomial', "
        "'numpy.random') if m in sys.modules])"
    )
    assert _run_python(code).splitlines()[-1] == f"{[(0, [])] * len(runs)} []"
    record = json.loads((tmp_path / "c" / "converge.json").read_text())
    assert record["zero_separation_cells"] > 0  # the dptsv column ran


@pytest.mark.parametrize("scipy_import", ["import scipy.linalg",
                                          "from scipy.linalg import cython_lapack"])
@pytest.mark.parametrize("cylpot_first", [True, False])
def test_cython_lapack_is_one_module_in_either_import_order(cylpot_first, scipy_import):
    # cylpot loads the extension file itself only when scipy.linalg has not
    # loaded it; either way both use one module object, initialised once,
    # and path and dense solves pass afterwards.
    imports = ["import cylpot", scipy_import]
    code = "; ".join((imports if cylpot_first else imports[::-1]) + [
        "import math, sys, scipy.linalg",
        "from cylpot import spectral",
        "from scipy.linalg import cython_lapack",
        "one = sys.modules['scipy.linalg.cython_lapack'] is spectral.cython_lapack is cython_lapack",
        "cap = cylpot.build_cap(4, 2 * math.pi / 5, 301)",
        "full, reach = cylpot.decompose(cap), cylpot.decompose(cap, reach=10.0)",
        "ring = cylpot.build_graph(edges=[[0, 1, 1.0], [1, 2, 1.0], [0, 2, 1.0]], "
        "mass=[1.0, 1.0, 1.0], dirichlet_leak=[1.0, 0.0, 0.0], d=2, b=0.0)",
        "dense = cylpot.decompose(ring)",
        "print(one, full.modes, 1 < reach.modes < full.modes, dense.modes, "
        "scipy.linalg.lapack.dpttrf([2.0, 2.0], [-1.0])[2])",
    ])
    assert _run_python(code).splitlines()[-1] == "True 301 True 3 0"


# Run in a fresh interpreter: the OpenBLAS thread counts of numpy's library
# and of scipy's (which cython_lapack links) after numpy, after the optional
# scipy import and after cylpot, read as perfbench's worker does, and
# whether os.environ came through the cylpot import unchanged.
_BLAS_THREADS = """
import ctypes, json, os, sys

def threads():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name, symbol in (("numpy", "scipy_openblas_get_num_threads64_"),
                             ("scipy", "scipy_openblas_get_num_threads")):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[name] = fn()
    return out

import numpy
counts = [threads()]
if sys.argv[1] == "1":
    import scipy.linalg
counts.append(threads())
environ = dict(os.environ)
import cylpot
counts.append(threads())
print(json.dumps([counts, dict(os.environ) == environ]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
@pytest.mark.parametrize("scipy_first", [False, True], ids=["cylpot-first", "scipy-first"])
@pytest.mark.parametrize("threads", [None, "2"], ids=["unset", "2"])
def test_cylpot_starts_scipy_openblas_with_one_thread(threads, scipy_first):
    # cylpot's tridiagonal LAPACK calls need no pool of their own: loading
    # cython_lapack starts scipy's OpenBLAS with one thread and restores
    # OPENBLAS_NUM_THREADS; numpy's library and a scipy library that
    # scipy.linalg started first keep their threads.
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = _run_python(_BLAS_THREADS, "1" if scipy_first else "0", env=env)
    (numpy_only, before, after), environ_kept = json.loads(out.splitlines()[-1])
    if set(after) != {"numpy", "scipy"}:
        pytest.skip(f"no scipy_openblas thread symbols in both libraries: {after}")
    assert environ_kept
    assert after["numpy"] == numpy_only["numpy"]
    if scipy_first:
        assert after["scipy"] == before["scipy"] == numpy_only["numpy"]
    else:
        assert "scipy" not in before and after["scipy"] == 1


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


def _mixed_columns(repeat: int = 1):
    """Header and columns of every cell kind write_csv formats, each column
    repeated ``repeat`` times (3 * repeat rows): the integer extremes, the
    float thresholds of repr's fixed and exponent layouts, and non-ASCII
    text among them."""
    ld = np.longdouble
    columns = (
        [True, np.bool_(False), np.True_],
        [3, np.int64(-7), 2**62],
        np.array([-(2**63), 2**63 - 1, -1], dtype=np.int64),
        np.array([2**63, 2**64 - 1, 7], dtype=np.uint64),
        [1.0 / 3.0, np.float64(-0.0), np.float64(5e-324)],
        np.array([math.inf, -math.inf, math.nan]),
        np.array([1e-5, 1e-4, 1e15]),
        np.array([1e16, 2.0**53 - 1, 2.0**53 + 2]),
        np.array([ld(1) / ld(3), ld(2) ** 70 + 1, -ld(1) / ld(7)]),
        np.array([0.1, 2.5, -3e38], dtype=np.float32),
        ["plain", "a,b", 'say "hi"'],
        ["Größe µ", "", "line\nbreak"],
    )
    header = ("flag", "n", "extreme", "big", "x", "edge", "low", "high", "wide", "single", "text",
              'odd,"name"')
    return header, tuple(
        np.tile(col, repeat) if isinstance(col, np.ndarray) else col * repeat for col in columns
    )


def test_columnar_csv_matches_row_writer(tmp_path):
    _assert_same_bytes(tmp_path, *_mixed_columns())


def test_columnar_csv_header_only(tmp_path):
    _assert_same_bytes(tmp_path, ("a", "b"), (np.zeros(0), np.zeros(0, dtype=int)))


def test_columnar_csv_spans_write_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr("cylpot.cli._WRITE_BLOCK", 7)
    rng = np.random.default_rng(0)
    count = 7 * 5 + 3
    columns = (np.arange(count), rng.standard_normal(count) * 1e5, rng.random(count) < 0.5)
    _assert_same_bytes(tmp_path, ("i", "x", "b"), columns)


def _split_csv(monkeypatch, workers: int = 3) -> list:
    """Give write_csv a process per 7 rows and ``workers`` usable CPUs, so
    the split runs on any machine; the pids that os.fork returns in this
    process, as a list that fills as it forks."""
    monkeypatch.setattr("cylpot.cli._ROWS_PER_WORKER", 7)
    monkeypatch.setattr("cylpot.spectral._usable_cpus", lambda: workers)
    return _count_forks(monkeypatch)


def _count_forks(monkeypatch) -> list:
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _fail_in_children(monkeypatch) -> None:
    """Make write_csv's formatting raise in every forked child."""
    parent, encode_rows = os.getpid(), cylpot.cli.encode_rows

    def encode(columns):
        if os.getpid() != parent:
            raise MemoryError("formatting failed in a worker")
        return encode_rows(columns)

    monkeypatch.setattr("cylpot.cli.encode_rows", encode)


def test_parallel_csv_matches_row_writer(tmp_path, monkeypatch):
    # 39 rows in three parts of 13, written in blocks of 5: no part boundary
    # falls on a block boundary.
    pids = _split_csv(monkeypatch)
    monkeypatch.setattr("cylpot.cli._WRITE_BLOCK", 5)
    _assert_same_bytes(tmp_path, *_mixed_columns(13))
    assert len(pids) == 2 and 0 not in pids


def test_csv_below_two_workers_never_forks(tmp_path, monkeypatch):
    _split_csv(monkeypatch)

    def no_fork():
        raise AssertionError("write_csv forked for a table under two workers' rows")

    monkeypatch.setattr(os, "fork", no_fork)
    _assert_same_bytes(tmp_path, ("i", "x"), (np.arange(13), np.arange(13) / 7.0))


def test_csv_transient_memory_is_one_block(tmp_path):
    # A table's cells are formatted a block at a time, so the traced peak
    # does not grow with the table.  Measured on two float columns of 200k
    # rows: 1.6 MB with 4096-row blocks, 2.4 MB with 6144-row ones; the
    # whole table's slots and masks take 45 MB.
    import tracemalloc

    rows = 200_000
    columns = (-np.arange(rows) * 1e-3, np.random.default_rng(5).random(rows))
    write_csv(tmp_path / "warm.csv", ("x", "p"), (columns[0][:9], columns[1][:9]))
    tracemalloc.start()
    try:
        write_csv(tmp_path / "t.csv", ("x", "p"), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len((tmp_path / "t.csv").read_bytes().splitlines()) == rows + 1
    assert peak <= 2_000_000, peak


def test_csv_threshold_is_two_workers_of_rows(tmp_path, monkeypatch):
    pids = _split_csv(monkeypatch)
    _assert_same_bytes(tmp_path, ("i", "x"), (np.arange(14), np.arange(14) / 7.0))
    assert len(pids) == 1


def test_parallel_csv_formats_in_process_when_fork_fails(tmp_path, monkeypatch):
    _split_csv(monkeypatch)
    calls = []

    def failing_fork():
        calls.append(1)
        raise OSError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    _assert_same_bytes(tmp_path, *_mixed_columns(13))
    assert len(calls) == 2


def test_failed_csv_worker_raises_and_leaves_no_file(tmp_path, monkeypatch):
    pids = _split_csv(monkeypatch)
    _fail_in_children(monkeypatch)
    with pytest.raises(OSError, match=r"CSV worker for rows 13\.\.26 .* exited with status 1: "
                                      r"MemoryError: formatting failed in a worker$"):
        write_csv(tmp_path / "t.csv", *_mixed_columns(13))
    assert len(pids) == 2 and not (tmp_path / "t.csv").exists()


def test_chernoff_exits_2_when_a_csv_worker_fails(tmp_path, monkeypatch, capfd):
    # The default 20 unit delays give 21 atoms: three parts of 7 rows.  The
    # children print nothing (capfd sees their file descriptors too); the
    # one error line names what failed in them.
    pids = _split_csv(monkeypatch)
    _fail_in_children(monkeypatch)
    assert main(["chernoff", "--out", str(tmp_path / "ch")]) == 2
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: OSError: CSV worker for rows 7..14")
    assert lines[0].endswith("exited with status 1: MemoryError: formatting failed in a worker")
    assert len(pids) == 2 and not (tmp_path / "ch" / "distribution.csv").exists()


def test_csv_without_an_affinity_call_is_written_by_one_process(tmp_path, monkeypatch):
    # Where the platform lacks os.sched_getaffinity, one CPU is assumed: a
    # table past the split threshold forks nothing and keeps its bytes.
    monkeypatch.setattr("cylpot.cli._ROWS_PER_WORKER", 7)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    pids = _count_forks(monkeypatch)
    assert cylpot.spectral._usable_cpus() == 1
    _assert_same_bytes(tmp_path, *_mixed_columns(13))
    assert pids == []


def test_columnar_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ("a", "b"), ([1, 2], [1.0]))
    with pytest.raises(ValueError):
        write_csv(tmp_path / "one.csv", ("only",), (["", "x"],))


@pytest.fixture()
def cap_doc(tmp_path):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({"type": "cap", "d": 4, "theta0": 2 * math.pi / 5, "n": 301}))
    return path


@pytest.mark.parametrize("doc", ["arc_doc", "cap_doc"])
def test_partial_converge_matches_full(doc, request, tmp_path, monkeypatch):
    # converge forms a certified leading block of modes and serves its
    # zero-separation cells by the s = 0 rule; against every mode formed,
    # its rows move by rounding only.
    base = request.getfixturevalue(doc)
    assert main(["converge", "--base", str(base), "--out", str(tmp_path / "part")]) == 0
    decompose = cylpot.cli.decompose
    monkeypatch.setattr("cylpot.cli.decompose", lambda b, reach: decompose(b))
    assert main(["converge", "--base", str(base), "--out", str(tmp_path / "full")]) == 0
    part = np.loadtxt(tmp_path / "part" / "converge.csv", delimiter=",", skiprows=1)
    full = np.loadtxt(tmp_path / "full" / "converge.csv", delimiter=",", skiprows=1)
    assert np.array_equal(part[:, 0], full[:, 0])
    assert np.max(np.abs(part[:, 1] / full[:, 1] - 1.0)) <= 1e-9
    meta = json.loads((tmp_path / "part" / "converge.json").read_text())
    full_meta = json.loads((tmp_path / "full" / "converge.json").read_text())
    n = meta["base"]["n"]
    assert meta["base"]["eigenvector_modes"] < n == full_meta["base"]["eigenvector_modes"]
    # One zero-separation cell per probe node (pole v = 2 at u = 2).
    assert meta["zero_separation_cells"] == len(range(0, n, max(1, n // 64)))
    assert 0.0 < meta["truncation_bound"] <= np.finfo(float).eps
    assert full_meta["zero_separation_cells"] == 0 and full_meta["truncation_bound"] == 0.0
    assert meta["passed"] is full_meta["passed"] is True


def test_converge_forms_its_modes_by_index(cap_doc, tmp_path, monkeypatch):
    # Every eigenvector solve of converge on a path base forms a leading
    # block of K < n modes: a full solve fails the test.
    from cylpot import spectral

    solve = spectral._stemr_vectors
    counts = []

    def selected_only(diag, off, count):
        assert count < diag.size, "converge formed every mode"
        counts.append(count)
        return solve(diag, off, count)

    monkeypatch.setattr(spectral, "_stemr_vectors", selected_only)
    assert main(["converge", "--base", str(cap_doc), "--out", str(tmp_path / "c")]) == 0
    assert counts


def test_converge_exits_2_when_its_modes_do_not_certify(cap_doc, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("cylpot.cli._converge_reach", lambda base, nodes, s_min: 10.0)
    out = tmp_path / "c"
    assert main(["converge", "--base", str(cap_doc), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: ") and "do not certify" in err
    assert "Traceback" not in err and not out.exists()


def test_converge_never_lists_every_eigenvalue_but_spectrum_does(cap_doc, tmp_path, monkeypatch):
    # converge on a cap solves the low band alone; spectrum still writes
    # all n eigenvalues of the dqds list, bit for bit.
    from cylpot import spectral

    dqds = spectral._path_eigenvalues

    def forbidden(diag, off):
        raise AssertionError("converge listed every eigenvalue")

    monkeypatch.setattr(spectral, "_path_eigenvalues", forbidden)
    assert main(["converge", "--base", str(cap_doc), "--out", str(tmp_path / "c")]) == 0
    calls = []

    def counted(diag, off):
        calls.append(diag.size)
        return dqds(diag, off)

    monkeypatch.setattr(spectral, "_path_eigenvalues", counted)
    assert main(["spectrum", "--base", str(cap_doc), "--out", str(tmp_path / "s")]) == 0
    assert calls == [301]
    _, diag, off = spectral.mass_scaled_bands(cylpot.load_base(str(cap_doc)))
    rows = np.loadtxt(tmp_path / "s" / "spectrum.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 1], dqds(diag, off))


@pytest.mark.parametrize("eigendata", ["partial", "full"])
def test_converge_names_the_first_pole_whose_deviation_underflows(eigendata, cap_doc, tmp_path,
                                                                 capsys, monkeypatch):
    # Past v = 284 the deviation table of this cap falls below the normal
    # floats (6.98e-310 at v = 286): on partial eigendata its certificate
    # would divide by it, on full eigendata the rate fit would take logs.
    if eigendata == "full":
        decompose = cylpot.cli.decompose
        monkeypatch.setattr("cylpot.cli.decompose", lambda b, reach: decompose(b))
    grid = ["--base", str(cap_doc), "--v-step", "2", "--v-max"]
    assert main(["converge", *grid, "284", "--out", str(tmp_path / "ok")]) == 0
    out = tmp_path / "c"
    assert main(["converge", *grid, "400", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ParameterError: the deviation table of the pole (286.0, 150) ")
    assert "not a positive normal float" in err and "Traceback" not in err
    assert not (out / "converge.csv").exists()
