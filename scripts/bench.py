"""Write a BENCH_<n>.json file: every benchmark workload, untraced and traced.

    python3 scripts/bench.py --out BENCH_7.json [--seed 1] [--seconds 10]

Run from the repository root.  Each workload (solve, evaluate, sweep) runs
once with tracing off for `--seconds`, which gives the end-to-end metrics,
and once with tracing on for exactly one round, which gives the per-layer
metrics.  One round does a fixed set of requests for a seed, so the traced
counts (such as `boundaries.linf.scan_ranges`) repeat exactly and compare
across commits, however fast the solver is.  Every run gets a fresh
interpreter, as `perfbench/run.py` does, so its peak RSS and import cost are
its own.  The file holds, per run, the `env` object that `perfbench/run.py`
prints and the run's result object: correct/attempted/failed, the metrics,
the workload's own named metrics, notes and failure messages.  The `env`
object also says whether the measured `src/` differs from `git_commit`
(`src_dirty`, null without git).  The script exits 1 after writing the file
when any run reads `correct: false`, and lists the labels that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve", "evaluate", "sweep")


def src_dirty(root: Path) -> bool | None:
    """Whether src/ differs from HEAD, by `git diff --quiet`; None without git."""
    if not (root / ".git").exists():  # outside a repo git diff compares paths instead
        return None
    try:
        diff = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=root,
                              capture_output=True, check=False)
    except OSError:
        return None
    return {0: False, 1: True}.get(diff.returncode)


def run_one(workload: str, trace: bool, seed: int, seconds: float) -> dict:
    """One benchmark run in this interpreter: {"env": ..., "result": ...}."""
    # the same setting and import path as perfbench/run.py
    os.environ["NEARFIELD_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy

    import nearfield
    from perfbench import run as bench_run
    from perfbench import workloads

    env = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "NEARFIELD_THREADS": os.environ["NEARFIELD_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": bench_run.git_commit(ROOT),
        "src_dirty": src_dirty(ROOT),
        "source_sha256": bench_run.source_digest(Path(nearfield.__file__).resolve().parent),
    }
    with tempfile.TemporaryDirectory(prefix="bench-spans-") as spans:
        result = workloads.measure(workload, workloads.FULL, ROOT, Path(spans), seed, seconds,
                                   trace)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    result["named"] = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in result["named"].items()}
    return {"env": env, "result": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="BENCH_<n>.json to write")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--one", nargs=2, metavar=("WORKLOAD", "TRACE"),
                        help="run one workload here and print its record as JSON")
    args = parser.parse_args(argv)
    if args.one:
        workload, trace = args.one
        print(json.dumps(run_one(workload, trace == "1", args.seed, args.seconds)))
        return 0
    if args.out is None:
        parser.error("--out is required")

    runs, failed = [], []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            seconds = args.seconds if trace == "0" else 0.0
            child = subprocess.run(
                [sys.executable, __file__, "--one", workload, trace,
                 "--seed", str(args.seed), "--seconds", str(seconds)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            if child.returncode != 0:
                print(f"bench: {workload} --trace {trace} exited {child.returncode}:\n"
                      f"{child.stderr}", file=sys.stderr)
                return 1
            record = json.loads(child.stdout.splitlines()[-1])
            result = record["result"]
            print(f"{workload} trace={trace}: failed {result['failed']} of "
                  f"{result['attempted']}", file=sys.stderr)
            runs.append(record)
            if not result["correct"]:
                failed.append(f"{workload} trace={trace}: {', '.join(result['failures'])}")
    args.out.write_text(json.dumps({"schema": 1, "runs": runs}, indent=1) + "\n",
                        encoding="utf-8")
    for line in failed:
        print(f"bench: incorrect: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
