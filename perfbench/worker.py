"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py PLAN_JSON REP_DIR [--trace]

Imports ``cylpot.cli`` first (the parent times the spawn until that import
returns), then runs the plan's commands in sequence through
``cylpot.cli.main(argv)``, with ``{out}`` replaced by REP_DIR.  Writes
``result.json`` into REP_DIR: monotonic timestamps (the parent's clock is the
same system-wide monotonic clock), each command's exit code, peak RSS and the
BLAS thread counts.  With ``--trace`` the cylpot modules are wrapped in
spans (see trace.py); the spans go to ``spans.tsv`` and the per-layer
metrics into the result.
"""

import sys
import time

import cylpot.cli as cli  # the import is what set-up time measures

SETUP_END = time.monotonic()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library mapped into this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def run_commands(commands, rep_dir: Path, tracer=None) -> list:
    """Run each command through cli.main; one record per command."""
    records = []
    with open(rep_dir / "stdout.txt", "w", encoding="utf-8") as log:
        for argv in commands:
            argv = [rep_dir.as_posix() if a == "{out}" else a for a in argv]
            start = time.monotonic()
            span = tracer.span(f"cmd.{argv[0]}") if tracer else contextlib.nullcontext()
            try:
                with span, contextlib.redirect_stdout(log):
                    code = cli.main(argv)
            except Exception:  # noqa: BLE001 - a crash is recorded as a failed command
                traceback.print_exc()
                code = -1
            records.append({"command": argv[0], "start": start,
                            "end": time.monotonic(), "exit": code})
    return records


def main(argv) -> int:
    plan_path, rep_dir = Path(argv[0]), Path(argv[1])
    src = os.environ.get("PERFBENCH_SRC")
    if src and not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"cylpot imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_end": SETUP_END}
    commands = json.loads(plan_path.read_text(encoding="utf-8"))
    if "--trace" in argv:
        import tracer as cyltrace

        tracer = cyltrace.Tracer()
        with cyltrace.tracing(tracer):
            result["commands"] = run_commands(commands, rep_dir, tracer)
        result["layers"] = cyltrace.layer_metrics(tracer, cyltrace.refine_seconds(tracer))
        result["span_table"] = tracer.by_name()
        tracer.dump(rep_dir / "spans.tsv")
    else:
        result["commands"] = run_commands(commands, rep_dir)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas_threads"] = blas_threads()
    result["versions"] = {m: sys.modules[m].__version__ for m in ("numpy", "scipy")}
    (rep_dir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
