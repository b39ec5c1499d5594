import numpy as np
import pytest

import nearfield.metrics as metrics_mod
import nearfield.sweep as sweep_mod
from nearfield import (
    AngleSearchPolicy,
    ArrayConfig,
    EnvelopeSearchPolicy,
    Tolerances,
    resolve_r_min,
)
from nearfield.boundaries import MAX_GRID_POINTS
from nearfield.metrics import worker_count
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
)

FAST_ANGLES = AngleSearchPolicy(coarse_grid_points=181)
FAST_ENVELOPE = EnvelopeSearchPolicy(points_per_decade=150)


def fast_spec(configs, metrics, points=25):
    return SweepSpec(
        configs=tuple(configs),
        metrics=tuple(metrics),
        auto_grid_points=points,
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
    with pytest.raises(ValueError, match="^points must lie in"):
        RangeGrid(start=1.0, stop=2.0, points=MAX_GRID_POINTS + 1)
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
    with pytest.raises(ValueError, match="^auto_grid_points must lie in"):
        SweepSpec(configs=(cfg1_2,), auto_grid_points=MAX_GRID_POINTS + 1)
    SweepSpec(configs=(cfg1_2,), metrics=())  # boundary sets only


def test_worker_count(monkeypatch):
    monkeypatch.delenv("NEARFIELD_THREADS", raising=False)
    assert worker_count() >= 1
    monkeypatch.setenv("NEARFIELD_THREADS", "0")
    assert worker_count() >= 1
    monkeypatch.setenv("NEARFIELD_THREADS", "3")
    assert worker_count() == 3
    # auto mode counts the cores this process may run on, not all of them
    monkeypatch.setattr(metrics_mod.os, "sched_getaffinity", lambda pid: {0, 2}, raising=False)
    monkeypatch.setattr(metrics_mod.os, "cpu_count", lambda: 8)
    monkeypatch.setenv("NEARFIELD_THREADS", "0")
    assert worker_count() == 2
    monkeypatch.delenv("NEARFIELD_THREADS")
    assert worker_count() == 2
    monkeypatch.delattr(metrics_mod.os, "sched_getaffinity")
    assert worker_count() == 8
    monkeypatch.setenv("NEARFIELD_THREADS", "junk")
    with pytest.raises(ValueError):
        worker_count()
    monkeypatch.setenv("NEARFIELD_THREADS", "-1")
    with pytest.raises(ValueError):
        worker_count()


def test_empty_metrics_yields_boundaries_only(cfg1_2):
    [record] = run_sweep(fast_spec([cfg1_2], []))
    assert record.cfg is cfg1_2
    assert record.curves == ()
    assert record.bounds is not None
    assert record.error is None


def test_single_point_grid_one_record_per_curve(cfg1_2, cfg10_5):
    spec = fast_spec([cfg1_2, cfg10_5], ["linf", "l2"], points=1)
    records = run_sweep(spec)
    assert [r.cfg for r in records] == [cfg1_2, cfg10_5]
    for record in records:
        assert [c.metric for c in record.curves] == ["linf", "l2"]
        for curve in record.curves:  # one point per (config, metric)
            assert curve.cfg is record.cfg
            assert list(curve.ranges) == [resolve_r_min(record.cfg, FAST_ENVELOPE)]
            assert len(curve.values) == len(curve.thetas) == 1


def test_curves_sorted_and_increasing(cfg1_2):
    spec = fast_spec([cfg1_2], ["linf", "se"], points=9)
    [record] = run_sweep(spec)
    assert [c.metric for c in record.curves] == ["linf", "se"]
    for curve in record.curves:
        assert len(curve.ranges) == len(curve.values) == len(curve.thetas) == 9
        assert np.all(np.diff(curve.ranges) > 0)
    np.testing.assert_array_equal(record.curves[0].ranges, record.curves[1].ranges)


def test_curve_never_again_against_own_samples(cfg10_5):
    spec = fast_spec([cfg10_5], ["linf"])
    [record] = run_sweep(spec)
    [curve] = record.curves
    tol = Tolerances().delta_inf
    beyond = curve.ranges > record.bounds.opt_linf
    assert beyond.any(), "auto grid must extend past the optimal radius"
    assert np.all(curve.values[beyond] < tol)


def test_determinism_same_spec_and_thread_count(cfg1_2, cfg10_5, monkeypatch):
    spec = fast_spec([cfg1_2, cfg10_5], ["linf"], points=7)
    monkeypatch.setenv("NEARFIELD_THREADS", "1")
    first = run_sweep(spec)
    monkeypatch.setenv("NEARFIELD_THREADS", "4")
    second = run_sweep(spec)
    for a, b in zip(first, second, strict=True):
        assert curve_csv_lines(a.curves) == curve_csv_lines(b.curves)
    assert boundary_csv_lines(first) == boundary_csv_lines(second)


def test_csv_format(cfg1_2):
    spec = fast_spec([cfg1_2], ["linf"], points=2)
    [record] = run_sweep(spec)
    lines = curve_csv_lines(record.curves)
    assert lines[0] == CURVE_HEADER
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "1GHz-N2"
    assert fields[1] == "1000000000"
    assert fields[2] == "2"
    assert fields[3] == "linf"
    assert float(fields[4]) == resolve_r_min(cfg1_2, FAST_ENVELOPE)
    blines = boundary_csv_lines([record])
    assert blines[0] == BOUNDARY_HEADER
    assert blines[1].split(",")[:3] == ["1GHz-N2", "1000000000", "2"]
    assert blines[1].split(",")[-1] in ("true", "false")
    # 17 significant digits survive the round trip
    assert float(f"{np.pi:.17g}") == np.pi


def test_config_failure_does_not_abort_others(cfg1_2, monkeypatch):
    good = cfg1_2
    bad = ArrayConfig(carrier_freq=10e9, n_elements=5)
    real = sweep_mod.boundary_set

    def failing_boundary_set(cfg, *args, **kwargs):
        if cfg is bad:
            raise RuntimeError("forced config failure")
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "boundary_set", failing_boundary_set)
    spec = fast_spec([good, bad], ["linf"], points=2)
    ok, failed = run_sweep(spec)
    assert ok.cfg is good and ok.error is None
    assert ok.bounds is not None and [c.metric for c in ok.curves] == ["linf"]
    assert failed.cfg is bad and failed.bounds is None
    assert "forced config failure" in str(failed.error)
    # the record keeps the exception but not the frames that raised it
    assert failed.error.__traceback__ is None
    # a config's grid is laid from its radii, so the failed config yields no curves
    assert failed.curves == ()
    assert boundary_csv_lines([ok, failed])[1:] == boundary_csv_lines([ok])[1:]


def test_presets():
    spec = preset("fig2-linf")
    assert spec.metrics == ("linf",)
    assert Tolerances().delta_inf == 1e-3
    assert len(spec.configs) == 9
    spec2 = preset("fig2-l2")
    assert Tolerances().delta_2 == 1e-3
    assert any(
        c.carrier_freq == 300e9 and c.n_elements == 64 for c in spec2.configs
    )
    spec3 = preset("fig3-se")
    assert spec3.metrics == ("se",)
    assert Tolerances().delta_se == 0.5
    assert [(c.carrier_freq, c.n_elements) for c in spec3.configs] == [
        (1e9, 2), (10e9, 5), (300e9, 10),
    ]
    with pytest.raises(ValueError):
        preset("bogus")
