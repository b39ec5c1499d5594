"""Smoke test of the benchmark at a small size (about a minute on two cores).

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import nearfield  # noqa: E402
import nearfield.sweep  # noqa: E402

from perfbench import checks, run, workloads  # noqa: E402

SMOKE = replace(
    workloads.FULL,
    flagship=(10.0, 4),
    pinned=None,
    curve_elements=(4,),
    curve_points=16,
    point_repeats=3,
    rows_checked=2,
    sweep_argv=workloads.FULL.preview_argv,
    previews=1,
    sweep_reference=None,
    setup_repeats=1,
)
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _measure(tmp_path, name, trace, plan=SMOKE):
    return workloads.measure(name, plan, ROOT, tmp_path, seed=7, seconds=0.0, trace=trace)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_prints_with_its_unit(tmp_path, name, trace):
    result = _measure(tmp_path, name, trace)
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    lines = run.report_lines(result, trace)
    for metric in declared:
        assert f"metric {metric['name']} " in "\n".join(lines)
    printed = json.loads(lines[-1])["metrics"]
    assert list(printed) == [m["name"] for m in declared]
    for metric in declared:
        assert printed[metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert (tmp_path / f"trace-{name}-seed7.jsonl").stat().st_size > 0


@pytest.fixture(scope="module")
def small_solution():
    cfg = nearfield.ArrayConfig(10e9, 4)
    tol = workloads._tolerances(10.0)
    return cfg, tol, nearfield.boundary_set(cfg, tol)


@pytest.mark.parametrize("radius", ["opt_linf", "opt_l2", "opt_se"])
@pytest.mark.parametrize("factor", [1.0 - 1e-6, 1.0 + 1e-6])
def test_perturbed_radius_counts_a_failure(tmp_path, small_solution, radius, factor):
    cfg, tol, bounds = small_solution
    bench = workloads.Run(SMOKE, ROOT, tmp_path, seed=7, seconds=0.0, trace=False)
    workloads._check_solve(bench, "as-solved", cfg, tol, bounds)
    moved = replace(bounds, **{radius: getattr(bounds, radius) * factor})
    workloads._check_solve(bench, "perturbed", cfg, tol, moved)
    assert list(bench.tally.failures) == ["perturbed"]


def test_perturbed_spf_fails_the_cubic_check(small_solution):
    cfg, tol, bounds = small_solution
    assert checks.closed_form_errors(cfg, tol, replace(bounds, spf=bounds.spf * (1 + 1e-6)))


def test_perturbed_curve_value_counts_a_failure(tmp_path, monkeypatch):
    original = nearfield.sweep.e_l2_worst_batch

    def skewed(cfg, r_values, policy=None):
        values, thetas = original(cfg, r_values, policy)
        return values * (1.0 + 1e-5), thetas

    monkeypatch.setattr(nearfield.sweep, "e_l2_worst_batch", skewed)
    plan = replace(SMOKE, rows_checked=16)
    result = _measure(tmp_path, "evaluate", False, plan)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert all(label.startswith("curve") and ".l2." in label for label in result["failures"])
    ok = [m for m in json.loads(run.report_lines(result, False)[-1])["metrics"].items()
          if m[0] == "ok_frac"]
    assert ok[0][1]["value"] < 1.0


def test_missing_layer_fails_loudly(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.REQUIRED_SPANS, "sweep",
                        [*workloads.REQUIRED_SPANS["sweep"], ("bench", "boundaries.nowhere")])
    with pytest.raises(workloads.TraceCoverageError, match="boundaries.nowhere"):
        _measure(tmp_path, "sweep", True)


def test_point_mix_is_fixed_by_design(tmp_path):
    bench = workloads.Run(SMOKE, ROOT, tmp_path, seed=7, seconds=0.0, trace=False)
    points = [req for req in workloads._evaluate_round(bench, 0) if req[1] == "point"]
    cells = {(kind, cfg.n_elements, cfg.carrier_freq) for _, _, kind, cfg, _, _ in points}
    assert len(points) == SMOKE.point_repeats * len(cells)
    assert len(cells) == len(workloads.POINT_KINDS) * len(workloads.CARRIERS_GHZ)


def test_probe_time_is_taken_out_of_an_operation():
    tally = workloads.Tally(pace=workloads.Pace())

    def probed():
        tally.pace._probe()
        return 1

    value, seconds = tally.attempt("point0.x", probed)
    assert value == 1 and 0.0 <= seconds < tally.pace.spent
    assert tally.probes["point"] == tally.pace.samples
    assert tally.scale("point") > 0.0
