"""Record the program's outputs over a fixed set of inputs, and compare two records.

    python3 scripts/identity.py record OUT.json [--tree PATH] [--threads 1,2] [--quick]
    python3 scripts/identity.py compare A.json B.json

`record` runs the fixed set once per thread count, each time in a fresh
interpreter that imports nearfield from PATH/src (default: this checkout)
with NEARFIELD_THREADS set to that count.  It writes every radius and value
as `repr`, every cell of every CSV file the CLI writes, and the SHA-256 of
every output file and of every command's stdout and stderr.  It exits 1
after writing OUT.json when an entry differs between thread counts, and
lists those entries on stderr; it exits 2 when a run fails.  `compare` lists every entry that moved from
A to B, old -> new with its relative change, prints the count, and exits 1
when anything moved.  A parent tree to record comes from `git archive`.

The fixed set:

- boundary_set at 1, 10, 28, 60, 140 and 300 GHz x N = 2, 4, 5, 10, 16, 44,
  48, 64 x tolerance scales 0.1, 1 and 10 of the defaults (144 solves);
- l2_certification_bound at those six carriers x N = 4 and 64, and three
  epf_distance values;
- `reproduce fig3-se`, and `fig2-linf` and `fig2-l2` at
  `--points-per-decade 150 --coarse-angles 181 --curve-points 50`;
- `curve` CSVs for linf, l2 and se at 28 GHz, N = 4, 16 and 64, and at
  N = 128 with 24 points, whose kernel rows are split over angle tiles;
- `se --json` at a fixed angle and at the worst-case angle, and at the
  worst-case angle at N = 128;
- `boundaries --json` at 300 GHz / 64 elements;
- settings from a `--config` file written into the run directory first:
  `boundaries --json` with every key set away from its default, the same
  with every settings flag given over the file, and `curve` and `se --json`
  with that file;
- refusals: an unknown key, a fractional `pilot_len`, dB values that
  overflow or underflow (by flag and by key), malformed JSON, an array whose
  phase 2*k*D overflows and a range below the smallest one;
- one element: `boundaries --json` at 1 and 28 GHz, `curve` linf and se at
  1 GHz, and `se --json` at the worst-case angle;
- inputs at the edges of the float range: SE arithmetic that over- or
  underflows (`curve` at 1e-100 m and at a 3000 dB data SNR, `se` at a
  1e-154 GHz carrier), an l2 bound beyond the largest range, at two
  spacings, a `--delta-2` below the l2 kernel's rounding floor, and an
  infinite or NaN `--theta-deg`;
- SE budgets: `boundaries --json` at 28 GHz, N = 4 and 64, at `--delta-se`
  5 and 0.05, and the same at `--data-snr-db 0 --pilot-len 1`.

Each CLI call prints every warning it raises, once per source line, so a
warning lands in the stderr entry of each call that raises it.

`--quick` keeps two solves at 28 GHz, one bound of each kind, one curve, one
call of each of `se` and `boundaries` at reduced search densities, one call
with a file and one refusal.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CARRIERS_GHZ = (1, 10, 28, 60, 140, 300)
ELEMENTS = (2, 4, 5, 10, 16, 44, 48, 64)
TOLERANCE_SCALES = (0.1, 1, 10)
FAST = ["--points-per-decade", "150", "--coarse-angles", "181"]
CONFIG = "settings.json"
# every --config key away from its default
ALL_KEYS = {
    "array": {"spacing_m": 0.006, "light_speed": 2.99792458e8},
    "tolerances": {"delta_inf": 2e-3, "delta_2": 2e-3, "delta_se": 0.25},
    "budget": {"pilot_snr_db": 30, "data_snr_db": 50, "pilot_len": 32},
    "angle_policy": {"coarse_grid_points": 181},
    "envelope_policy": {"r_min": 0.1, "points_per_decade": 150},
}
# every settings flag, each away from the default and from ALL_KEYS
ALL_FLAGS = ["--spacing-m", "0.005", "--delta-inf", "5e-4", "--delta-2", "5e-4",
             "--delta-se", "0.4", "--pilot-snr-db", "35", "--data-snr-db", "55",
             "--pilot-len", "48", "--coarse-angles", "241", "--points-per-decade", "120"]
BOUNDARIES_28 = ["boundaries", "--freq-ghz", "28", "--elements", "4", "--config", CONFIG]


def _solves(quick: bool):
    if quick:
        return [(28, n, 1) for n in (4, 16)]
    return [(f, n, s) for f in CARRIERS_GHZ for n in ELEMENTS for s in TOLERANCE_SCALES]


def _cli_calls(quick: bool):
    """(label, argv, config) of every CLI call; config is the JSON document or
    text written to CONFIG first, or None.  Paths are relative to the run
    directory."""
    se_file = ("se-file", ["se", "--freq-ghz", "28", "--elements", "4", "--range-m", "0.2",
                           "--json", "--config", CONFIG], ALL_KEYS)
    unknown_key = ("refuse-unknown-key", BOUNDARIES_28, {"tolerances": {"delta_unknown": 1.0}})
    if quick:
        return [
            ("curve-se-28GHz-N4", ["curve", "--metric", "se", "--freq-ghz", "28", "--elements",
                                   "4", "--r-start", "0.05", "--r-stop", "50", "--r-points",
                                   "20", "--coarse-angles", "181", "--out", "curve.csv"], None),
            ("se-28GHz-N4-30deg", ["se", "--freq-ghz", "28", "--elements", "4", "--range-m",
                                   "0.2", "--theta-deg", "30", "--json"], None),
            ("boundaries-28GHz-N4", ["boundaries", "--freq-ghz", "28", "--elements", "4",
                                     "--json", *FAST], None),
            se_file,
            unknown_key,
        ]
    calls = [("reproduce-fig3-se", ["reproduce", "fig3-se", "--out-dir", "out"], None)]
    calls += [
        (f"reproduce-{name}", ["reproduce", name, "--out-dir", "out", *FAST,
                               "--curve-points", "50"], None)
        for name in ("fig2-linf", "fig2-l2")
    ]
    calls += [
        (f"curve-{metric}-28GHz-N{n}",
         ["curve", "--metric", metric, "--freq-ghz", "28", "--elements", str(n),
          "--r-start", "0.05", "--r-stop", "500", "--r-points", "200", "--out", "curve.csv"],
         None)
        for metric in ("linf", "l2", "se") for n in (4, 16, 64)
    ]
    calls += [
        (f"curve-{metric}-28GHz-N128",
         ["curve", "--metric", metric, "--freq-ghz", "28", "--elements", "128",
          "--r-start", "0.05", "--r-stop", "500", "--r-points", "24", "--out", "curve.csv"],
         None)
        for metric in ("linf", "l2", "se")
    ]
    huge = ["--freq-ghz", "1e160", "--elements", "4", "--spacing-m", "1e150"]
    curve_file = ["curve", "--metric", "se", "--freq-ghz", "28", "--elements", "4", "--r-start",
                  "0.05", "--r-stop", "50", "--r-points", "20", "--out", "curve.csv"]
    return calls + [
        ("se-28GHz-N16-30deg", ["se", "--freq-ghz", "28", "--elements", "16", "--range-m",
                                "0.5", "--theta-deg", "30", "--json"], None),
        ("se-28GHz-N16-worst", ["se", "--freq-ghz", "28", "--elements", "16", "--range-m",
                                "0.5", "--json"], None),
        ("se-28GHz-N128-worst", ["se", "--freq-ghz", "28", "--elements", "128", "--range-m",
                                 "0.5", "--json"], None),
        ("boundaries-300GHz-N64", ["boundaries", "--freq-ghz", "300", "--elements", "64",
                                   "--json"], None),
        ("curve-kD-overflow", ["curve", "--metric", "linf", *huge, "--r-start", "1",
                               "--r-stop", "2", "--r-points", "3", "--out", "curve.csv"], None),
        ("se-kD-overflow", ["se", *huge, "--range-m", "1"], None),
        ("boundaries-kD-overflow", ["boundaries", *huge], None),
        ("se-below-min-range", ["se", "--freq-ghz", "28", "--elements", "4",
                                "--range-m", "1e-170"], None),
        ("boundaries-file", [*BOUNDARIES_28, "--json"], ALL_KEYS),
        ("boundaries-flags-over-file", [*BOUNDARIES_28, "--json", *ALL_FLAGS], ALL_KEYS),
        ("curve-file", [*curve_file, "--config", CONFIG], ALL_KEYS),
        se_file,
        unknown_key,
        ("refuse-fractional-pilot-len", BOUNDARIES_28, {"budget": {"pilot_len": 63.5}}),
        ("refuse-overflowing-db-flag", [*BOUNDARIES_28, "--pilot-snr-db", "4000"], ALL_KEYS),
        ("refuse-overflowing-db-key", BOUNDARIES_28, {"budget": {"pilot_snr_db": 4000}}),
        # a flag over the key does not save a key that overflows
        ("refuse-overflowing-db-key-under-flag", [*BOUNDARIES_28, "--pilot-snr-db", "30"],
         {"budget": {"pilot_snr_db": 4000}}),
        ("refuse-underflowing-db-flag", [*BOUNDARIES_28, "--data-snr-db", "-4000"], ALL_KEYS),
        ("refuse-underflowing-db-key", BOUNDARIES_28, {"budget": {"data_snr_db": -4000}}),
        ("refuse-malformed-json", BOUNDARIES_28, "{not json"),
        *_single_element_calls(),
        *_edge_calls(),
        *_se_budget_calls(),
    ]


def _single_element_calls():
    one = ["--elements", "1"]
    calls = [(f"boundaries-{f}GHz-N1", ["boundaries", "--freq-ghz", f, *one, "--json"], None)
             for f in ("1", "28")]
    calls += [(f"curve-{metric}-1GHz-N1",
               ["curve", "--metric", metric, "--freq-ghz", "1", *one, "--r-start", "1.5",
                "--r-stop", "150", "--r-points", "200", "--out", "curve.csv"], None)
              for metric in ("linf", "se")]
    return calls + [("se-1GHz-N1-worst", ["se", "--freq-ghz", "1", *one, "--range-m", "31.8",
                                          "--json"], None)]


def _edge_calls():
    curve_se = ["curve", "--metric", "se", "--r-points", "2"]
    l2_tiny = ["boundaries", "--freq-ghz", "1", "--elements", "16", "--delta-2", "1e-160"]
    se_28 = ["se", "--freq-ghz", "28", "--elements", "4", "--range-m", "1"]
    return [
        ("curve-se-tiny-ranges", [*curve_se, "--freq-ghz", "28", "--elements", "4",
                                  "--r-start", "1e-100", "--r-stop", "1e-99"], None),
        ("curve-se-overflowing-snr", [*curve_se, "--freq-ghz", "1e-9", "--elements", "3",
                                      "--r-start", "0.5", "--r-stop", "1",
                                      "--data-snr-db", "3000"], None),
        ("se-overflowing-gain", ["se", "--freq-ghz", "1e-154", "--elements", "2",
                                 "--range-m", "1e-3"], None),
        ("boundaries-l2-bound-beyond-largest-range", [*l2_tiny, "--spacing-m", "0.5"], None),
        ("boundaries-l2-square-overflows", l2_tiny, None),
        ("boundaries-l2-below-rounding-floor", [*l2_tiny[:-1], "6e-152", "--spacing-m", "0.5"],
         None),
        ("se-theta-inf", [*se_28, "--theta-deg", "inf"], None),
        ("se-theta-nan", [*se_28, "--theta-deg", "nan"], None),
    ]


def _se_budget_calls():
    """`boundaries --json` at 28 GHz, N = 4 and 64, at a loose and a tight
    delta_se, each also at 0 dB data SNR with one pilot symbol."""
    weak = ["--data-snr-db", "0", "--pilot-len", "1"]
    return [(f"boundaries-28GHz-N{n}-se{delta}{'-weak' if budget else ''}",
             ["boundaries", "--freq-ghz", "28", "--elements", str(n), "--delta-se", delta,
              *budget, "--json"], None)
            for budget in ([], weak) for n in (4, 64) for delta in ("5", "0.05")]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _guard(entries: dict, key: str, fn) -> None:
    """entries[key...] from fn(); an exception is recorded as the entry's value."""
    try:
        values = fn()
    except (ArithmeticError, RuntimeError, ValueError) as exc:  # refusals are outputs too
        entries[key] = f"error: {type(exc).__name__}: {exc}"
        return
    if isinstance(values, dict):
        entries.update({f"{key}/{name}": value for name, value in values.items()})
    else:
        entries[key] = values


def _json_leaves(doc, prefix: str = "") -> dict:
    """Each leaf of a JSON document as its repr, keyed by its path."""
    if not isinstance(doc, dict):
        return {prefix: repr(doc)}
    return {key: leaf for name, sub in doc.items()
            for key, leaf in _json_leaves(sub, f"{prefix}/{name}").items()}


def _file_entries(path: Path) -> dict:
    data = path.read_bytes()
    entries = {"sha256": _sha256(data)}
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        for i, row in enumerate(rows[1:], start=1):
            entries.update({f"row{i}/{col}": cell for col, cell in zip(rows[0], row)})
    return entries


def entries(tree: Path, quick: bool) -> dict:
    """Every entry of the fixed set, computed here with nearfield from tree/src."""
    sys.path.insert(0, str(tree / "src"))
    import nearfield
    from nearfield import cli

    source = Path(nearfield.__file__).resolve()
    if not source.is_relative_to(tree):
        raise RuntimeError(f"nearfield was imported from {source}, not from {tree}")
    out: dict[str, str] = {}
    for f, n, scale in _solves(quick):
        cfg = nearfield.ArrayConfig(carrier_freq=f * 1e9, n_elements=n)
        tol = nearfield.Tolerances(1e-3 * scale, 1e-3 * scale, 0.5 * scale)
        _guard(out, f"solve/{f}GHz-N{n}/x{scale}", lambda: {
            k: repr(v) for k, v in dataclasses.asdict(nearfield.boundary_set(cfg, tol)).items()
        })
    for f, n in [(28, 4)] if quick else [(f, n) for f in CARRIERS_GHZ for n in (4, 64)]:
        cfg = nearfield.ArrayConfig(carrier_freq=f * 1e9, n_elements=n)
        _guard(out, f"l2_certification_bound/{f}GHz-N{n}",
               lambda: repr(nearfield.l2_certification_bound(cfg, 1e-3)))
    for f, n in [(28, 4)] if quick else [(10, 5), (28, 16), (300, 64)]:
        cfg = nearfield.ArrayConfig(carrier_freq=f * 1e9, n_elements=n)
        _guard(out, f"epf_distance/{f}GHz-N{n}", lambda: repr(nearfield.epf_distance(cfg, 1e-3)))
    for label, argv, config in _cli_calls(quick):
        with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
            if config is not None:
                text = config if isinstance(config, str) else json.dumps(config)
                (Path(tmp) / CONFIG).write_text(text, encoding="utf-8")
            stdout, stderr = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                        warnings.catch_warnings():
                    warnings.simplefilter("default")
                    code = cli.main(argv)
            finally:
                os.chdir(cwd)
            out[f"cli/{label}/exit"] = repr(code)
            out[f"cli/{label}/stdout"] = _sha256(stdout.getvalue().encode("utf-8"))
            out[f"cli/{label}/stderr"] = _sha256(stderr.getvalue().encode("utf-8"))
            if "--json" in argv and code == 0:
                for name, value in _json_leaves(json.loads(stdout.getvalue())).items():
                    out[f"cli/{label}/json{name}"] = value
            for path in sorted(Path(tmp).rglob("*")):
                if path.is_file() and path.name != CONFIG:
                    rel = path.relative_to(tmp).as_posix()
                    for name, value in _file_entries(path).items():
                        out[f"cli/{label}/{rel}/{name}"] = value
    return out


def record(out_path: Path, tree: Path, threads: list[int], quick: bool) -> int:
    runs = {}
    for count in threads:
        argv = [sys.executable, __file__, "entries", "--tree", str(tree)] + ["--quick"] * quick
        env = {**os.environ, "NEARFIELD_THREADS": str(count)}
        child = subprocess.run(argv, capture_output=True, text=True, env=env, check=False)
        if child.returncode != 0:
            print(f"identity: threads={count} exited {child.returncode}:\n{child.stderr}",
                  file=sys.stderr)
            return 2
        runs[str(count)] = json.loads(child.stdout)
    doc = {"schema": 1, "tree": str(tree), "quick": quick, "runs": runs}
    out_path.write_text(json.dumps(doc, indent=0) + "\n", encoding="utf-8")
    first = next(iter(runs.values()))
    disagree = [f"{key}: threads={count} reads {run.get(key)} against {first[key]}"
                for count, run in runs.items() for key in first if run.get(key) != first[key]]
    for line in disagree:
        print(f"identity: thread counts disagree: {line}", file=sys.stderr)
    print(f"identity: {len(first)} entries x {len(runs)} thread counts written to {out_path}",
          file=sys.stderr)
    return 1 if disagree else 0


def _relative(old: str | None, new: str | None) -> str:
    try:
        a, b = float(old), float(new)
    except (TypeError, ValueError):
        return ""
    if a == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return ""
    return f" (rel {(b - a) / abs(a):+.3g})"


def compare(a_path: Path, b_path: Path) -> int:
    a_runs = json.loads(a_path.read_text(encoding="utf-8"))["runs"]
    b_runs = json.loads(b_path.read_text(encoding="utf-8"))["runs"]
    moved, total = 0, 0
    for count in dict.fromkeys([*a_runs, *b_runs]):
        a, b = a_runs.get(count, {}), b_runs.get(count, {})
        for key in dict.fromkeys([*a, *b]):
            total += 1
            old, new = a.get(key), b.get(key)
            if old != new:
                moved += 1
                print(f"threads={count} {key}: {old} -> {new}{_relative(old, new)}")
    print(f"{moved} moved of {total} entries")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="run the fixed set and write its entries")
    p.add_argument("out", type=Path)
    p.add_argument("--tree", type=Path, default=ROOT, help="checkout whose src/ to run")
    p.add_argument("--threads", default="1,2", help="comma-separated NEARFIELD_THREADS values")
    p.add_argument("--quick", action="store_true", help="a few entries of each kind")
    p = sub.add_parser("compare", help="list the entries that moved from A to B")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    p = sub.add_parser("entries", help="print one run's entries as JSON (record's child)")
    p.add_argument("--tree", type=Path, default=ROOT)
    p.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "record":
        threads = [int(t) for t in args.threads.split(",")]
        return record(args.out, args.tree.resolve(), threads, args.quick)
    if args.command == "compare":
        return compare(args.a, args.b)
    print(json.dumps(entries(args.tree.resolve(), args.quick)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
