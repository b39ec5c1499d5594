"""Run one nearfield benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {solve,evaluate,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ./src.  Human-
readable lines come first; the last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones, and the
spans go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXIT_NO_PACKAGE = 2
EXIT_TRACE_COVERAGE = 3


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(package_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def report_lines(result: dict, trace: bool) -> list[str]:
    """Readable lines, then the result object as the last line."""
    lines = [f"note {note} {value}" for note, value in result["notes"].items()]
    if not trace:
        lines += [f"workload-metric {name} {value:.6g} {unit}"
                  for name, (value, unit) in result["named"].items()]
    lines += [f"metric {name} {value:.6g} {unit}"
              for name, (value, unit) in result["metrics"].items()]
    lines.append(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("solve", "evaluate", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the sweep pool gets one worker per usable core, never more
    os.environ["NEARFIELD_THREADS"] = str(len(os.sched_getaffinity(0)))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import nearfield
        import numpy
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    package_dir = Path(nearfield.__file__).resolve().parent
    if package_dir != ROOT / "src" / "nearfield":
        print(f"perfbench: imported nearfield from {package_dir}, not from this checkout",
              file=sys.stderr)
        return EXIT_NO_PACKAGE

    from perfbench import workloads

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "NEARFIELD_THREADS": os.environ["NEARFIELD_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(package_dir),
    }
    print("env " + json.dumps(env), flush=True)
    try:
        result = workloads.measure(args.workload, workloads.FULL, ROOT, BENCH_DIR / "out",
                                   args.seed, args.seconds, bool(args.trace))
    except workloads.TraceCoverageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return EXIT_TRACE_COVERAGE
    for label, message in result["failures"].items():
        print(f"perfbench: FAILED {label}: {message}", file=sys.stderr)
    print("\n".join(report_lines(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
