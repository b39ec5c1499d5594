import numpy as np
import pytest

import nearfield.sweep as sweep_mod
from nearfield import AngleSearchPolicy, ArrayConfig, DegenerateGeometryError, EnvelopeSearchPolicy
from nearfield.sweep import (
    BOUNDARY_HEADER,
    CURVE_HEADER,
    RangeGrid,
    SweepSpec,
    boundary_csv_lines,
    config_id,
    curve_csv_lines,
    preset,
    run_sweep,
    worker_count,
)

FAST_ANGLES = AngleSearchPolicy(coarse_grid_points=181)
FAST_ENVELOPE = EnvelopeSearchPolicy(points_per_decade=150)


def fast_spec(configs, metrics, r_grid=None):
    return SweepSpec(
        configs=tuple(configs),
        metrics=tuple(metrics),
        r_grid=r_grid,
        auto_grid_points=25,
        angle_policy=FAST_ANGLES,
        envelope_policy=FAST_ENVELOPE,
    )


def test_range_grid_validation():
    with pytest.raises(ValueError):
        RangeGrid(start=0.0, stop=1.0, points=5)
    with pytest.raises(ValueError):
        RangeGrid(start=2.0, stop=1.0, points=5)
    with pytest.raises(ValueError):
        RangeGrid(start=1.0, stop=2.0, points=0)
    # a single point still needs a stop at or above its start
    for stop in (-5.0, 0.0, 2.0):
        with pytest.raises(ValueError, match="stop"):
            RangeGrid(start=3.0, stop=stop, points=1)
    single = RangeGrid(start=3.0, stop=3.0, points=1)
    np.testing.assert_array_equal(single.values(), [3.0])
    grid = RangeGrid(start=1.0, stop=100.0, points=3).values()
    np.testing.assert_allclose(grid, [1.0, 10.0, 100.0], rtol=1e-12)


def test_spec_validation(cfg1_2):
    with pytest.raises(ValueError):
        SweepSpec(configs=())
    with pytest.raises(ValueError):
        SweepSpec(configs=(cfg1_2,), metrics=("bogus",))
    SweepSpec(configs=(cfg1_2,), metrics=())  # boundary sets only


def test_worker_count(monkeypatch):
    monkeypatch.delenv("NEARFIELD_THREADS", raising=False)
    assert worker_count() >= 1
    monkeypatch.setenv("NEARFIELD_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.setenv("NEARFIELD_THREADS", "3")
    assert worker_count() == 3
    # auto mode counts the cores this process may run on, not all of them
    monkeypatch.setattr(sweep_mod.os, "sched_getaffinity", lambda pid: {0, 2}, raising=False)
    monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 8)
    monkeypatch.setenv("NEARFIELD_THREADS", "0")
    assert worker_count() == 2
    monkeypatch.delenv("NEARFIELD_THREADS")
    assert worker_count() == 2
    monkeypatch.delattr(sweep_mod.os, "sched_getaffinity")
    assert worker_count() == 8
    monkeypatch.setenv("NEARFIELD_THREADS", "junk")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("NEARFIELD_THREADS", "-1")
    with pytest.raises(ValueError):
        worker_count()


def test_empty_metrics_yields_boundaries_only(cfg1_2):
    result = run_sweep(fast_spec([cfg1_2], []))
    assert result.curves == ()
    assert len(result.boundaries) == 1
    assert result.boundaries[0].config_id == config_id(cfg1_2)
    assert not result.errors


def test_single_point_grid_one_record_per_curve(cfg1_2, cfg10_5):
    spec = fast_spec([cfg1_2, cfg10_5], ["linf", "l2"], RangeGrid(2.0, 2.0, 1))
    result = run_sweep(spec)
    assert len(result.curves) == 4  # one point per (config, metric)
    for record in result.curves:
        assert record.range_m == 2.0


def test_curves_sorted_and_increasing(cfg1_2):
    spec = fast_spec([cfg1_2], ["linf", "se"], RangeGrid(0.5, 50.0, 9))
    result = run_sweep(spec)
    assert len(result.curves) == 18
    linf = [c for c in result.curves if c.metric == "linf"]
    ranges = [c.range_m for c in linf]
    assert ranges == sorted(ranges) and len(set(ranges)) == len(ranges)
    assert {c.metric for c in result.curves} == {"linf", "se"}


def test_curve_never_again_against_own_samples(cfg10_5):
    spec = fast_spec([cfg10_5], ["linf"])
    result = run_sweep(spec)
    bounds = result.boundaries[0].bounds
    tol = spec.tolerances.delta_inf
    beyond = [c for c in result.curves if c.range_m > bounds.opt_linf]
    assert beyond, "auto grid must extend past the optimal radius"
    assert all(c.value < tol for c in beyond)


def test_determinism_same_spec_and_thread_count(cfg1_2, cfg10_5, monkeypatch):
    spec = fast_spec([cfg1_2, cfg10_5], ["linf"], RangeGrid(0.5, 30.0, 7))
    monkeypatch.setenv("NEARFIELD_THREADS", "1")
    first = run_sweep(spec)
    monkeypatch.setenv("NEARFIELD_THREADS", "4")
    second = run_sweep(spec)
    assert curve_csv_lines(first.curves) == curve_csv_lines(second.curves)
    assert boundary_csv_lines(first.boundaries) == boundary_csv_lines(second.boundaries)


def test_csv_format(cfg1_2):
    spec = fast_spec([cfg1_2], ["linf"], RangeGrid(1.0, 2.0, 2))
    result = run_sweep(spec)
    lines = curve_csv_lines(result.curves)
    assert lines[0] == CURVE_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "1GHz-N2"
    assert fields[1] == "1000000000"
    assert fields[2] == "2"
    assert fields[3] == "linf"
    assert float(fields[4]) == 1.0
    blines = boundary_csv_lines(result.boundaries)
    assert blines[0] == BOUNDARY_HEADER
    assert blines[1].split(",")[-1] in ("true", "false")
    # 17 significant digits survive the round trip
    assert float(f"{np.pi:.17g}") == np.pi


def test_gap_markers_on_per_point_failures(cfg1_2, monkeypatch):
    real = sweep_mod.e_linf_worst_batch
    calls = []

    def flaky_batch(cfg, rs, policy=None):
        calls.append(len(rs))
        # the whole grid fails, then so does the re-run of its second range
        if len(rs) > 1 or len(calls) == 3:
            raise DegenerateGeometryError("forced point failure")
        return real(cfg, rs, policy)

    monkeypatch.setattr(sweep_mod, "e_linf_worst_batch", flaky_batch)
    spec = fast_spec([cfg1_2], ["linf"], RangeGrid(1.0, 3.0, 3))
    grid = spec.r_grid.values()
    rows, errors = sweep_mod.curve_records(cfg1_2, "linf", grid, spec)
    assert calls == [3, 1, 1, 1]
    assert len(errors) == 1 and "forced point failure" in errors[0]
    assert f"r={float(grid[1])!r}" in errors[0]
    assert np.isnan(rows[1].value) and np.isnan(rows[1].theta_star_rad)
    assert [row.range_m for row in rows] == list(grid)
    # the surviving ranges carry the bits of a whole-grid evaluation
    values, thetas = real(cfg1_2, grid, FAST_ANGLES)
    for i in (0, 2):
        assert (rows[i].value, rows[i].theta_star_rad) == (values[i], thetas[i])
    # NaN gap markers serialize explicitly instead of being dropped
    line = curve_csv_lines(rows)[2]
    assert line.endswith(",nan,nan")


def test_config_failure_does_not_abort_others(cfg1_2, monkeypatch):
    good = cfg1_2
    bad = ArrayConfig(carrier_freq=10e9, n_elements=5)
    real = sweep_mod.boundary_set

    def failing_boundary_set(cfg, *args, **kwargs):
        if cfg is bad:
            raise RuntimeError("forced config failure")
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "boundary_set", failing_boundary_set)
    spec = fast_spec([good, bad], ["linf"], RangeGrid(1.0, 2.0, 2))
    result = run_sweep(spec)
    assert len(result.boundaries) == 1
    assert result.boundaries[0].config_id == config_id(good)
    assert any("forced config failure" in e for e in result.errors)
    # the failed config still produced curve rows from the explicit grid
    assert {c.config_id for c in result.curves} == {config_id(good), config_id(bad)}


def test_presets():
    spec = preset("fig2-linf")
    assert spec.metrics == ("linf",)
    assert spec.tolerances.delta_inf == 1e-3
    assert len(spec.configs) == 9
    spec2 = preset("fig2-l2")
    assert spec2.tolerances.delta_2 == 1e-3
    assert any(
        c.carrier_freq == 300e9 and c.n_elements == 64 for c in spec2.configs
    )
    spec3 = preset("fig3-se")
    assert spec3.metrics == ("se",)
    assert spec3.tolerances.delta_se == 0.5
    assert [(c.carrier_freq, c.n_elements) for c in spec3.configs] == [
        (1e9, 2), (10e9, 5), (300e9, 10),
    ]
    with pytest.raises(ValueError):
        preset("bogus")
