"""Workloads of the cylpot benchmark and their seeded inputs.

A workload is a short sequence of cylpot CLI commands, run in one fresh
interpreter the way a user runs a job.  ``make_plan`` writes the workload's
input files (base-spec JSON, points CSV, delay list) into a directory and
returns the commands with ``{out}`` standing for the repetition's output
directory.  Inputs depend only on the workload name and the seed, through
the standard library's Mersenne twister seeded with a string, so the same
seed gives byte-identical inputs on every machine.

Why these two (BENCHMARK.json gives the short form):

- ``chain-deep`` loads the per-pair double-precision eigenmode sum in
  ``GreenEvaluator.log_green`` (about 36k calls), which batched Green
  evaluation must speed up.  It is also the only base on which 80-bit
  low-band refinement, the extended retry, the resolvent route and the
  ``NumericalLossError`` skip all run.  Its fixed-pole Green batch over
  every node builds one cold resolvent column per deep node.
- ``cap-large`` bypasses Green sweeps: its time goes to the dense build and
  decomposition (run twice), CSV export and the exact-convolution DP, which
  banded operators must speed up and batched Green must leave unchanged.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

CHAIN_DOC = {
    "type": "chain", "d": 4, "J": 40, "beadNodes": 8, "neckRatio": 0.004,
    "anchorNodes": 8, "radiiRule": "uniform",
}
CHAIN_NODES = 8 + 40 * 8
CAP_DOC = {"type": "cap", "d": 4, "theta0": math.pi / 2, "n": 3000, "b": 2}

SWEEP_COUNT = 10_000
GREEN_LEVELS = 13
DELAY_COUNT = 400
DELAY_GRID = 1000


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _chain_deep(rng: random.Random, inputs: Path) -> list:
    base = _write_json(inputs / "chain.json", CHAIN_DOC)
    # A jittered unit grid over [-6, 6] rather than free random levels: about
    # 3000 of the 4264 points take the resolvent route whatever the seed, so
    # the cold-column cost of the fixed-pole batch stays comparable.
    levels = [-6.0 + k + rng.uniform(-0.3, 0.3) for k in range(GREEN_LEVELS)]
    points = inputs / "points.csv"
    with open(points, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("u,node\n")
        for u in levels:
            for node in range(CHAIN_NODES):
                fh.write(f"{u!r},{node}\n")
    return [
        ["chain-demo", "--out", "{out}"],
        ["verify", "--base", base, "--suite", "all", "--count", str(SWEEP_COUNT),
         "--seed", str(rng.randrange(2**31)), "--out", "{out}"],
        ["green", "--base", base, "--points", str(points), "--pole-u", "0.0",
         "--pole-node", "0", "--out", "{out}"],
    ]


def _cap_large(rng: random.Random, inputs: Path) -> list:
    base = _write_json(inputs / "cap.json", CAP_DOC)
    delays = inputs / "delays.csv"
    with open(delays, "w", encoding="utf-8", newline="\n") as fh:
        for _ in range(DELAY_COUNT):
            fh.write(f"{rng.randint(1, DELAY_GRID) / DELAY_GRID!r}\n")
    return [
        ["spectrum", "--base", base, "--out", "{out}"],
        ["converge", "--base", base, "--out", "{out}"],
        ["chernoff", "--atoms", str(delays), "--L", "2.0", "--eps", "0.01",
         "--out", "{out}"],
    ]


WORKLOADS = {
    "chain-deep": _chain_deep,
    "cap-large": _cap_large,
}


def make_plan(workload: str, seed: int, inputs: Path) -> list:
    """Write the seeded inputs of ``workload`` into ``inputs``; return its
    commands as argv lists for ``cylpot.cli.main``."""
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), inputs)
