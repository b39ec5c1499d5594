"""The three workloads: closed loops with one caller, generated from the seed.

Every workload runs rounds of requests until ``seconds`` have passed (at
least one round), checks the outputs outside the timed region, and reports
the same end-to-end metrics: each round holds heavy requests and light ones
(see README.md for what they are per workload).  A traced run replays the
measured requests under the tracer and checks that they give identical
outputs.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

import nearfield
import nearfield.cli

from perfbench import checks
from perfbench.pace import Pace
from perfbench.tracing import (
    CLOSED_FORMS,
    LAYER_UNITS,
    Tracer,
    layer_metrics,
    write_spans,
)

CARRIERS_GHZ = (1.0, 10.0, 28.0, 60.0, 140.0, 300.0)
TOL_SCALES = (0.1, 1.0, 10.0)
CURVE_METRICS = ("linf", "l2", "se")
POINT_KINDS = ("linf", "l2", "se", "se_at")


@dataclass(frozen=True)
class Plan:
    """Sizes of one benchmark run; FULL is the benchmark, tests use smaller ones."""

    flagship: tuple[float, int]  # (GHz, elements)
    pinned: dict | None  # exact flagship radii, or None to skip the pin
    small_elements: int
    curve_elements: tuple[int, ...]
    curve_points: int
    point_repeats: int  # point queries per kind, array size and carrier in one round
    rows_checked: int  # oracle-checked rows per curve
    sweep_argv: tuple[str, ...]
    preview_argv: tuple[str, ...]
    previews: int  # preview sweeps per round
    sweep_reference: Path | None  # reference bundle, or None to skip
    setup_repeats: int


FULL = Plan(
    flagship=(300.0, 64),
    pinned={"opt_linf": 55.82867055805448, "opt_l2": 1410.60128533603},
    small_elements=4,
    curve_elements=(4, 16, 64),
    curve_points=400,
    point_repeats=16,
    rows_checked=4,
    sweep_argv=("reproduce", "fig3-se"),
    preview_argv=("reproduce", "fig3-se", "--points-per-decade", "50", "--curve-points", "20"),
    previews=6,
    sweep_reference=Path(__file__).resolve().parent / "reference" / "fig3-se",
    setup_repeats=9,
)


@dataclass
class Tally:
    """Operations attempted, and the first failure message of each failed one."""

    attempted: int = 0
    failures: dict = field(default_factory=dict)
    pace: Pace | None = None  # its probe time inside an operation is not the operation's
    probes: dict = field(default_factory=dict)  # request class -> probe times inside it

    def attempt(self, label: str, fn, *args):
        """Run one timed operation; returns (value or None, seconds)."""
        self.attempted += 1
        if self.pace:
            probed, first = self.pace.spent, len(self.pace.samples)
        start = time.perf_counter()
        try:
            value = fn(*args)
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failures.setdefault(label, f"{type(exc).__name__}: {exc}")
            value = None
        seconds = time.perf_counter() - start
        if self.pace:
            seconds -= self.pace.spent - probed
            kind = re.match(r"[a-z]*", label).group()
            self.probes.setdefault(kind, []).extend(self.pace.samples[first:])
        return value, seconds

    def scale(self, kind: str) -> float:
        """Host pace while requests of one class ran (see pace.py)."""
        return self.pace.scale(self.probes.get(kind))

    def check(self, label: str, errors: list[str]) -> None:
        if errors:
            self.failures.setdefault(label, "; ".join(errors[:3]))


@dataclass
class Run:
    plan: Plan
    root: Path
    work_dir: Path
    seed: int
    seconds: float
    trace: bool
    rng: np.random.Generator = field(init=False)
    pace: Pace = field(default_factory=Pace)
    tally: Tally = field(init=False)
    oracles: object = field(init=False)
    notes: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.rng = np.random.default_rng(self.seed)
        self.tally = Tally(pace=self.pace)
        self.oracles = checks.load_oracles(self.root)


@dataclass
class Report:
    heavy: str  # request class of the heavy and light requests: "curve", ...
    light: str
    heavy_s: float
    light_s: list[float]
    named: dict  # the workload's own metrics (flagship_s, ...): name -> (value, unit)
    layers: dict | None = None


def _replay(run: Run, tracer: Tracer, fn) -> tuple[object, float]:
    """Run fn under the tracer; returns (value, seconds).  Failures are
    merged into the run's tally under the same labels."""
    replay = Tally()
    start = time.perf_counter()
    with tracer:
        value = fn(replay)
    seconds = time.perf_counter() - start
    for label, message in replay.failures.items():
        run.tally.check(label, [f"traced replay: {message}"])
    return value, seconds


def _tolerances(scale: float):
    defaults = nearfield.Tolerances()
    scaled = {f.name: scale * getattr(defaults, f.name) for f in fields(defaults)}
    return nearfield.Tolerances(**scaled)


def _cli(argv: list[str]) -> int:
    """One in-process CLI request; its report lines are not part of ours."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = nearfield.cli.main(argv)
    if code != 0 or err.getvalue():
        command = " ".join(argv[:2])
        raise RuntimeError(f"nearfield {command} exited {code}: {err.getvalue().strip()}")
    return code


# --- solve -----------------------------------------------------------------


def _boundary_set(cfg, tol):
    # looked up on each call, so that a traced pass goes through the wrapper
    return nearfield.boundary_set(cfg, tol)


def _small_pair(run: Run):
    """Two small-array problems of near-equal total cost.

    The seed picks a carrier and a tolerance scale; the partner takes the
    mirrored carrier and the reciprocal scale, so every pair scans about the
    same number of ranges (within 3%) whatever the seed.
    """
    i = int(run.rng.integers(len(CARRIERS_GHZ)))
    j = int(run.rng.integers(len(TOL_SCALES)))
    n = run.plan.small_elements
    return [
        (nearfield.ArrayConfig(CARRIERS_GHZ[i] * 1e9, n), _tolerances(TOL_SCALES[j])),
        (nearfield.ArrayConfig(CARRIERS_GHZ[-1 - i] * 1e9, n), _tolerances(TOL_SCALES[-1 - j])),
    ]


def _check_solve(run: Run, label: str, cfg, tol, bounds) -> None:
    if bounds is None:
        return
    policy = nearfield.EnvelopeSearchPolicy()
    errors = checks.closed_form_errors(cfg, tol, bounds)
    errors += checks.crossing_errors(
        cfg, tol, nearfield.DEFAULT_BUDGET, bounds,
        nearfield.resolve_r_min(cfg, policy), policy.bisection_tol,
    )
    run.tally.check(label, errors)


def solve(run: Run) -> Report:
    plan = run.plan
    flag_cfg = nearfield.ArrayConfig(plan.flagship[0] * 1e9, plan.flagship[1])
    flag_tol = nearfield.Tolerances()
    tracer = Tracer()
    start = time.perf_counter()
    # a traced run solves the flagship traced only and holds it to the pins
    if run.trace:
        with tracer:
            flagship, flagship_s = run.tally.attempt("flagship", _boundary_set, flag_cfg, flag_tol)
    rounds = []  # per round: [(label, cfg, tol, bounds, seconds)]
    with run.pace.running():
        if not run.trace:
            flagship, flagship_s = run.tally.attempt("flagship", _boundary_set, flag_cfg, flag_tol)
        while True:
            labels = [f"small{len(rounds)}.{k}" for k in range(2)]
            rounds.append([
                (label, cfg, tol, *run.tally.attempt(label, _boundary_set, cfg, tol))
                for label, (cfg, tol) in zip(labels, _small_pair(run))
            ])
            if time.perf_counter() - start >= run.seconds:
                break
    solved = [item for rnd in rounds for item in rnd]
    layers = None
    if run.trace:
        again, replay_s = _replay(run, tracer, lambda replay: [
            replay.attempt(label, _boundary_set, cfg, tol)[0] for label, cfg, tol, _, _ in solved
        ])
        for (label, _, _, bounds, _), twin in zip(solved, again):
            if twin != bounds:
                run.tally.check(label, [f"traced radii {twin} != untraced {bounds}"])
        first = min(s.id for s in tracer.spans
                    if s.site == "bench" and s.name == "boundaries.boundary_set")
        layers = layer_metrics(tracer.spans, flagship=first)
        layers["trace.overhead_frac"] = replay_s / sum(item[4] for item in solved) - 1.0
        run.spans = tracer.spans
    _check_solve(run, "flagship", flag_cfg, flag_tol, flagship)
    if flagship is not None and plan.pinned:
        run.tally.check("flagship", [
            f"{name} = {getattr(flagship, name)!r}, pinned {want!r}"
            for name, want in plan.pinned.items() if getattr(flagship, name) != want
        ])
    for label, cfg, tol, bounds, _ in solved:
        _check_solve(run, label, cfg, tol, bounds)
    return Report(
        heavy="flagship",
        light="small",
        heavy_s=flagship_s,
        light_s=[item[4] for item in solved],
        named={
            "flagship_s": (flagship_s, "s"),
            "small_solve_s": (statistics.median(sum(i[4] for i in rnd) for rnd in rounds), "s"),
        },
        layers=layers,
    )


# --- evaluate --------------------------------------------------------------


def _curve_span(cfg) -> tuple[float, float]:
    """[r_min, 10 * max(rayleigh, sspf)] at the default budget and policy."""
    lo = nearfield.resolve_r_min(cfg, nearfield.EnvelopeSearchPolicy())
    sspf = nearfield.sspf_distance(cfg, nearfield.Tolerances().delta_inf)
    return lo, 10.0 * max(nearfield.rayleigh_distance(cfg), sspf)


def _evaluate_round(run: Run, index: int) -> list[tuple]:
    """One round: a curve per (metric, array size) and point_repeats point
    queries per (kind, array size, carrier), shuffled together.

    A request's cost depends on its carrier and range: curves by up to 20%,
    and a few worst-case SE queries at N=64 take twice the median, enough to
    set the round's p99.  So the mix is fixed and only the points within it
    are drawn.  The seed sets an offset by which each array size steps
    through the curve carriers, so that any two rounds in a row give it all
    six.  A cell's point queries take one log-uniform range from each of
    point_repeats equal slices of the curve interval.
    """
    plan = run.plan
    requests = [
        (f"curve{index}.{metric}.{n}", "curve", metric,
         nearfield.ArrayConfig(CARRIERS_GHZ[(run.seed + 3 * index + i + j) % 6] * 1e9, n),
         None, None)
        for i, metric in enumerate(CURVE_METRICS)
        for j, n in enumerate(plan.curve_elements)
    ]
    slices = plan.point_repeats
    for kind in POINT_KINDS:
        for n in plan.curve_elements:
            for ghz in CARRIERS_GHZ:
                cfg = nearfield.ArrayConfig(ghz * 1e9, n)
                lo, hi = map(math.log, _curve_span(cfg))
                where = (np.arange(slices) + run.rng.random(slices)) / slices
                for k, u in enumerate(where):
                    r = float(math.exp(lo + u * (hi - lo)))
                    theta = float(run.rng.uniform(0.0, math.pi))
                    label = f"point{index}.{kind}.{n}.{ghz:g}.{k}"
                    requests.append((label, "point", kind, cfg, r, theta))
    return [requests[i] for i in run.rng.permutation(len(requests))]


def _curve_argv(run: Run, metric: str, cfg, out: Path) -> list[str]:
    lo, hi = _curve_span(cfg)
    return [
        "curve", "--metric", metric, "--freq-ghz", repr(cfg.carrier_freq / 1e9),
        "--elements", str(cfg.n_elements), "--r-start", repr(lo), "--r-stop", repr(hi),
        "--r-points", str(run.plan.curve_points), "--out", str(out),
    ]


def _point(kind: str, cfg, r: float, theta: float):
    if kind == "linf":
        return nearfield.e_linf_worst(cfg, r)
    if kind == "l2":
        return nearfield.e_l2_worst(cfg, r)
    if kind == "se":
        return nearfield.se_loss_worst(cfg, r, nearfield.DEFAULT_BUDGET)
    return nearfield.se_loss(cfg, nearfield.PolarPosition(theta, r), nearfield.DEFAULT_BUDGET)


def _evaluate_pass(run: Run, requests, out_dir: Path, tally: Tally):
    """Returns [(request, output, seconds)]; a curve's output is its CSV bytes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    done = []
    for req in requests:
        label, shape, kind, cfg, r, theta = req
        if shape == "curve":
            path = out_dir / f"{label}.csv"
            _, secs = tally.attempt(label, _cli, _curve_argv(run, kind, cfg, path))
            output = path.read_bytes() if path.exists() else None
        else:
            output, secs = tally.attempt(label, _point, kind, cfg, r, theta)
        done.append((req, output, secs))
    return done


def _sample(run: Run, cfg, records: list[dict]):
    return checks.sample_rows(cfg, checks.curve_rows(records), run.plan.rows_checked, run.rng)


def _check_evaluate(run: Run, done) -> None:
    oracles, budget = run.oracles, nearfield.DEFAULT_BUDGET
    for (label, shape, kind, cfg, r, theta), output, _ in done:
        if output is None:
            continue
        if shape == "curve":
            records = checks.read_curve_text(output.decode("utf-8"))
            if len(records) != run.plan.curve_points:
                run.tally.check(label, [f"{len(records)} rows, expected {run.plan.curve_points}"])
                continue
            rows = _sample(run, cfg, records)
            run.tally.check(label, checks.row_errors(oracles, cfg, kind, budget, rows))
        elif kind == "se_at":
            if checks.well_conditioned(cfg, r):
                want = oracles.se_loss_at(cfg, r, theta, budget)
                if not checks.close(output.delta_se, want):
                    run.tally.check(label, [f"se_loss {output.delta_se!r} != oracle {want!r}"])
        elif checks.well_conditioned(cfg, r):
            # every query re-evaluated at its angle, one in ten against the grid
            grid = bool(run.rng.random() < 0.1)
            row = (output.range_m, output.value, output.theta_star)
            run.tally.check(label, checks.row_errors(oracles, cfg, kind, budget, [row], grid))


def _trace_requests(run: Run, done, run_pass) -> dict:
    """Replay the measured requests traced; their outputs must not change."""
    tracer = Tracer()
    again, _ = _replay(run, tracer, lambda replay: run_pass(
        run, [d[0] for d in done], run.work_dir / "traced", replay))
    for (req, output, _), (_, twin, _) in zip(done, again):
        if twin != output:
            run.tally.check(req[0], ["traced output differs from the untraced one"])
    layers = layer_metrics(tracer.spans)
    layers["trace.overhead_frac"] = sum(a[2] for a in again) / sum(d[2] for d in done) - 1.0
    run.spans = tracer.spans
    return layers


def evaluate(run: Run) -> Report:
    rounds, done = [], []
    start = time.perf_counter()
    with run.pace.running():
        while True:
            requests = _evaluate_round(run, len(rounds))
            rounds.append(_evaluate_pass(run, requests, run.work_dir / "untraced", run.tally))
            if time.perf_counter() - start >= run.seconds:
                break
    done = [item for rnd in rounds for item in rnd]
    layers = None
    if run.trace:
        layers = _trace_requests(run, done, _evaluate_pass)
    _check_evaluate(run, done)
    curve_walls = [[d[2] for d in rnd if d[0][1] == "curve"] for rnd in rounds]
    points = [d[2] for d in done if d[0][1] == "point"]
    curve_points = run.plan.curve_points * sum(len(w) for w in curve_walls)
    _, p99 = tail_percentile(points)
    return Report(
        heavy="curve",
        light="point",
        heavy_s=sum(map(sum, curve_walls)) / len(curve_walls),
        light_s=points,
        named={
            "curve_points_per_s": (curve_points / sum(map(sum, curve_walls)), "1/s"),
            "point_p50_ms": (1e3 * statistics.median(points), "ms"),
            "point_p99_ms": (1e3 * p99, "ms"),
        },
        layers=layers,
    )


# --- sweep -----------------------------------------------------------------


def _sweep_round(run: Run, index: int) -> list[tuple]:
    plan = run.plan
    return [(f"sweep{index}", "sweep", plan.sweep_argv)] + [
        (f"preview{index}.{k}", "preview", plan.preview_argv) for k in range(plan.previews)
    ]


def _sweep_pass(run: Run, requests, out_dir: Path, tally: Tally):
    """Returns [(request, {file name: bytes}, seconds)]."""
    done = []
    for req in requests:
        label, _, argv = req
        target = out_dir / label
        _, secs = tally.attempt(label, _cli, [*argv, "--out-dir", str(target)])
        bundle = target / argv[1]
        files = None
        if bundle.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(bundle.iterdir())}
        done.append((req, files, secs))
    return done


def _check_sweep(run: Run, done) -> None:
    reference = run.plan.sweep_reference
    for (label, shape, _), files, _ in done:
        if files is None:
            continue
        errors = []
        if shape == "sweep" and reference is not None:
            errors += checks.bundle_errors(files, reference)
        for name, data in files.items():
            if not name.startswith("curve_"):
                continue
            records = checks.read_curve_text(data.decode("utf-8"))
            if not records:
                errors.append(f"{name} is empty")
                continue
            cfg = nearfield.ArrayConfig(float(records[0]["freq_hz"]), int(records[0]["n_elements"]))
            rows = _sample(run, cfg, records)
            errors += checks.row_errors(
                run.oracles, cfg, records[0]["metric"], nearfield.DEFAULT_BUDGET, rows
            )
        run.tally.check(label, errors)


def sweep(run: Run) -> Report:
    rounds = []
    start = time.perf_counter()
    with run.pace.running():
        while True:
            requests = _sweep_round(run, len(rounds))
            rounds.append(_sweep_pass(run, requests, run.work_dir / "untraced", run.tally))
            if time.perf_counter() - start >= run.seconds:
                break
    done = [item for rnd in rounds for item in rnd]
    layers = None
    if run.trace:
        layers = _trace_requests(run, done, _sweep_pass)
    _check_sweep(run, done)
    sweep_s = [d[2] for d in done if d[0][1] == "sweep"]
    return Report(
        heavy="sweep",
        light="preview",
        heavy_s=statistics.median(sweep_s),
        light_s=[d[2] for d in done if d[0][1] == "preview"],
        named={"sweep_s": (statistics.median(sweep_s), "s")},
        layers=layers,
    )


WORKLOADS = {"solve": solve, "evaluate": evaluate, "sweep": sweep}

# workload -> (call site, callee) spans a traced run must record at least once
REQUIRED_SPANS = {
    "solve": [
        ("bench", "boundaries.boundary_set"),
        ("boundaries", "metrics.e_linf_worst_batch"),
        ("boundaries", "metrics.e_l2_worst_batch"),
        ("boundaries", "link.se_loss_worst_batch"),
        ("boundaries", "metrics.e_linf_worst"),
        ("boundaries", "metrics.e_l2_worst"),
        ("boundaries", "link.se_loss_worst"),
        ("boundaries", "boundaries.optimal_radius"),
        *[("boundaries", f"boundaries.{name}") for name in CLOSED_FORMS],
    ],
    "evaluate": [
        ("bench", "cli.main"),
        ("bench", "metrics.e_linf_worst"),
        ("bench", "metrics.e_l2_worst"),
        ("bench", "link.se_loss_worst"),
        ("bench", "link.se_loss"),
        ("sweep", "metrics.e_linf_worst_batch"),
        ("sweep", "metrics.e_l2_worst_batch"),
        ("sweep", "link.se_loss_worst_batch"),
        ("cli", "sweep.curve_csv_lines"),
        ("cli", "sweep.write_lines"),
        ("link", "arrays.element_distances"),
    ],
    "sweep": [
        ("bench", "cli.main"),
        ("cli", "sweep.run_sweep"),
        ("sweep", "boundaries.boundary_set"),
        ("sweep", "link.se_loss_worst_batch"),
        ("boundaries", "link.se_loss_worst_batch"),
        ("cli", "sweep.curve_csv_lines"),
        ("cli", "sweep.boundary_csv_lines"),
        ("cli", "sweep.write_lines"),
    ],
}


class TraceCoverageError(RuntimeError):
    """A layer boundary the workload must cross recorded no calls."""


END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "heavy_s": "s",
    "light_p50_ms": "ms",
    "light_p99_ms": "ms",
}


def tail_percentile(samples) -> tuple[int, float]:
    """The highest whole percentile, at most 99, with at least ten samples
    above it; the median when there are too few samples for any."""
    n = len(samples)
    pct = max(50, min(99, math.floor(100.0 * (1.0 - 10.0 / n))))
    return pct, float(np.percentile(samples, pct))


def setup_seconds(root: Path, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing nearfield and
    nearfield.cli; one untimed start first, which may compile bytecode."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    command = [sys.executable, "-c", "import nearfield, nearfield.cli"]
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=root, check=True, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(name: str, plan: Plan, root: Path, out_dir: Path, seed: int,
            seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object plus the workload's own metrics."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"{name}-") as tmp:
        run = Run(plan, root, Path(tmp), seed, seconds, trace)
        report = WORKLOADS[name](run)
    if trace:
        recorded = {(s.site, s.name) for s in run.spans}
        missing = [f"{site} -> {callee}" for site, callee in REQUIRED_SPANS[name]
                   if (site, callee) not in recorded]
        if missing:
            raise TraceCoverageError(f"{name}: no calls recorded across {', '.join(missing)}")
        write_spans(run.spans, out_dir / f"trace-{name}-seed{seed}.jsonl")
        metrics = {key: (report.layers[key], unit) for key, unit in LAYER_UNITS.items()}
    else:
        failed = len(run.tally.failures)
        pct, p99 = tail_percentile(report.light_s)
        p50 = statistics.median(report.light_s)
        heavy_scale = run.tally.scale(report.heavy)
        light_scale = run.tally.scale(report.light)
        run.notes["light_samples"] = len(report.light_s)
        run.notes["light_tail_percentile"] = pct
        run.notes["pace_samples"] = len(run.pace.samples)
        run.notes["pace_heavy_scale"] = heavy_scale
        run.notes["pace_light_scale"] = light_scale
        run.notes["raw_heavy_s"] = report.heavy_s
        run.notes["raw_light_p50_ms"] = 1e3 * p50
        run.notes["raw_light_p99_ms"] = 1e3 * p99
        values = {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_seconds(root, plan.setup_repeats),
            "ok_frac": (run.tally.attempted - failed) / run.tally.attempted,
            "heavy_s": heavy_scale * report.heavy_s,
            "light_p50_ms": light_scale * 1e3 * p50,
            "light_p99_ms": light_scale * 1e3 * p99,
        }
        metrics = {key: (values[key], unit) for key, unit in END_TO_END_UNITS.items()}
        report.named["failed_frac"] = (failed / run.tally.attempted, "ratio")
        report.named["setup_s"] = metrics["setup_s"]
        report.named["peak_rss_mb"] = metrics["peak_rss_mb"]
    return {
        "correct": not run.tally.failures,
        "attempted": run.tally.attempted,
        "failed": len(run.tally.failures),
        "metrics": metrics,
        "named": report.named,
        "notes": run.notes,
        "failures": run.tally.failures,
    }
