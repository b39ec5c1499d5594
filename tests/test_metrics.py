import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nearfield import (
    AngleSearchPolicy,
    ArrayConfig,
    EnvelopeSearchPolicy,
    PolarPosition,
    Tolerances,
    array_gain_efficiency,
    e_l2_at,
    e_l2_worst,
    e_linf_at,
    e_linf_worst,
    resolve_r_min,
    spf_distance,
)
from nearfield import metrics
from nearfield.arrays import MAX_RANGE_M, MIN_RANGE_M, DegenerateGeometryError
from nearfield.link import DEFAULT_BUDGET, se_loss_worst, se_loss_worst_batch
from nearfield.metrics import (
    _golden_max_batch,
    block_rows,
    e_l2_worst_batch,
    e_linf_worst_batch,
    parallel_map,
    worker_count,
)
from nearfield.sweep import SweepSpec, run_sweep

RAYLEIGH_300_64 = 1.9845


def test_policy_validation():
    with pytest.raises(ValueError):
        AngleSearchPolicy(coarse_grid_points=2)


def test_single_element_metrics_vanish():
    cfg = ArrayConfig(carrier_freq=1e9, n_elements=1)
    pos = PolarPosition(theta=0.8, range_m=4.0)
    assert e_linf_at(cfg, pos) == 0.0
    assert e_l2_at(cfg, pos) == 0.0
    assert array_gain_efficiency(cfg, pos) == 1.0
    # the general kernels run: every angle ties, and ties take the first grid angle
    sample = e_linf_worst(cfg, 4.0)
    assert sample.value == 0.0 and sample.theta_star == metrics.THETA_INSET
    assert e_l2_worst(cfg, 4.0).value == 0.0
    ranges = np.geomspace(MIN_RANGE_M, MAX_RANGE_M, 120)
    for batch in (e_linf_worst_batch, e_l2_worst_batch):
        values, thetas = batch(cfg, ranges, AngleSearchPolicy(coarse_grid_points=31))
        assert np.all(values == 0.0) and np.all(thetas == metrics.THETA_INSET)


def test_pointwise_metrics_match_complex_arithmetic(cfg300):
    for theta in (0.1, math.pi / 3, 1.56, math.pi / 2, 2.9):
        pos = PolarPosition(theta=theta, range_m=RAYLEIGH_300_64)
        assert e_linf_at(cfg300, pos) == pytest.approx(
            oracles.linf_at(cfg300, RAYLEIGH_300_64, theta), rel=1e-11
        )
        assert e_l2_at(cfg300, pos) == pytest.approx(
            oracles.l2_at(cfg300, RAYLEIGH_300_64, theta), rel=1e-11
        )
        assert array_gain_efficiency(cfg300, pos) == pytest.approx(
            oracles.eta_at(cfg300, RAYLEIGH_300_64, theta), rel=1e-10
        )


def test_metrics_vanish_in_far_field(grid_configs):
    for cfg in grid_configs:
        r = 1e6 * max(cfg.aperture, cfg.spacing)
        assert e_linf_worst(cfg, r).value < 1e-3
        assert e_l2_worst(cfg, r).value < 1e-3
        pos = PolarPosition(theta=math.pi / 2, range_m=r)
        assert array_gain_efficiency(cfg, pos) > 1 - 1e-6


def test_linf_worst_matches_dense_oracle(cfg300):
    dense_value, _ = oracles.linf_dense_max(cfg300, 56.0)
    sample = e_linf_worst(cfg300, 56.0)
    assert sample.value == pytest.approx(dense_value, rel=1e-6)
    assert 0.0 <= sample.theta_star <= math.pi


def test_linf_worst_at_rayleigh_matches_dense_oracle(cfg300):
    dense_value, dense_theta = oracles.linf_dense_max(cfg300, RAYLEIGH_300_64)
    sample = e_linf_worst(cfg300, RAYLEIGH_300_64)
    assert sample.value == pytest.approx(dense_value, rel=1e-6)
    # the dense argmax lives on (0, 2*pi); ours is its reflection into [0, pi]
    folded = min(dense_theta, 2 * math.pi - dense_theta)
    assert sample.theta_star == pytest.approx(folded, abs=5e-3)


def test_worst_search_half_interval_equals_full_interval(cfg10_5):
    # full-circle oracle vs the symmetry-reduced search grid
    for r in (0.3, 1.0, 20.0):
        dense_value, _ = oracles.linf_dense_max(cfg10_5, r, n_angles=200_000)
        assert e_linf_worst(cfg10_5, r).value == pytest.approx(dense_value, rel=1e-6)


def test_l2_worst_matches_dense_oracle(cfg300):
    dense_value, _ = oracles.l2_dense_max(cfg300, RAYLEIGH_300_64)
    assert e_l2_worst(cfg300, RAYLEIGH_300_64).value == pytest.approx(dense_value, rel=1e-6)


def test_l2_worst_near_tolerance_at_cited_radius(cfg300):
    # the l2 envelope sits essentially at 1e-3 around 1.4 km
    assert e_l2_worst(cfg300, 1422.18).value == pytest.approx(1e-3, rel=0.02)


@settings(max_examples=60, deadline=None)
@given(
    theta=st.floats(1e-6, 2 * math.pi - 1e-6),
    r=st.floats(0.5, 500.0),
    n_elements=st.integers(2, 32),
)
def test_metric_nonnegativity_and_eta_range(theta, r, n_elements):
    cfg = ArrayConfig(carrier_freq=28e9, n_elements=n_elements)
    pos = PolarPosition(theta=theta, range_m=r)
    assert e_linf_at(cfg, pos) >= 0.0
    assert e_l2_at(cfg, pos) >= 0.0
    assert 0.0 <= array_gain_efficiency(cfg, pos) <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(1e-3, math.pi - 1e-3),
    r=st.floats(0.5, 200.0),
    n_elements=st.integers(2, 32),
)
def test_norm_inequality_bridge(theta, r, n_elements):
    # total mismatch never exceeds (r + aperture) times the per-element worst
    cfg = ArrayConfig(carrier_freq=10e9, n_elements=n_elements)
    pos = PolarPosition(theta=theta, range_m=r)
    bound = (r + cfg.aperture) * e_linf_at(cfg, pos)
    assert e_l2_at(cfg, pos) <= bound * (1 + 1e-12)


def test_worst_dominates_random_angles(cfg300):
    rng = np.random.default_rng(7)
    for r in (0.5, RAYLEIGH_300_64, 56.0):
        worst_linf = e_linf_worst(cfg300, r).value
        worst_l2 = e_l2_worst(cfg300, r).value
        thetas = rng.uniform(1e-6, 2 * math.pi - 1e-6, size=1000)
        # allowance for the finite coarse-grid resolution of the search
        slack = 1 + 5e-5
        for theta in thetas:
            pos = PolarPosition(theta=float(theta), range_m=r)
            assert e_linf_at(cfg300, pos) <= worst_linf * slack
            assert e_l2_at(cfg300, pos) <= worst_l2 * slack


def test_worst_value_dominates_own_grid(cfg10_5):
    # the returned maximum is no smaller than any coarse-grid sample
    from nearfield.metrics import _angle_grid, _clamped_cos, _linf_grid

    policy = AngleSearchPolicy()
    thetas = _angle_grid(policy)
    for r in (0.2, 1.7, 40.0):
        grid_values = _linf_grid(cfg10_5, np.array([r]), _clamped_cos(thetas)[None, :])[0]
        assert e_linf_worst(cfg10_5, r, policy).value >= grid_values.max()


def test_kernel_rows_above_the_cell_limit_are_refused():
    # the paper's 1 m array at 300 GHz (N = 2,048) fits one row per block at
    # the default angles; one more order of magnitude is refused by name
    assert block_rows(ArrayConfig(carrier_freq=300e9, n_elements=2048), AngleSearchPolicy()) == 1
    big = ArrayConfig(carrier_freq=300e9, n_elements=20_000)
    with pytest.raises(ValueError, match="^n_elements 20000 x .*MAX_ROW_CELLS"):
        block_rows(big, AngleSearchPolicy())
    with pytest.raises(ValueError, match="^n_elements 20000 "):
        e_linf_worst_batch(big, [1.0])


def test_block_rows_is_the_kernel_block(cfg10_5, monkeypatch):
    # 723 angles: 64-row blocks below 44 elements, 43 rows at N = 64
    cfg64 = ArrayConfig(carrier_freq=300e9, n_elements=64)
    assert block_rows(cfg10_5, AngleSearchPolicy()) == 64
    assert block_rows(cfg64, AngleSearchPolicy()) == 43
    starts = []
    real = metrics.parallel_map

    def recording(fn, items):
        starts.append(list(items))
        return real(fn, starts[-1])

    monkeypatch.setattr(metrics, "parallel_map", recording)
    e_linf_worst_batch(cfg64, np.geomspace(1.0, 10.0, 100))
    assert starts == [[0, 43, 86]]


def test_batch_matches_scalar(cfg10_5):
    rs = np.geomspace(0.2, 300.0, 37)
    bv, bt = e_linf_worst_batch(cfg10_5, rs)
    for i, r in enumerate(rs):
        sample = e_linf_worst(cfg10_5, float(r))
        assert bv[i] == sample.value
        assert bt[i] == sample.theta_star
    bv2, _ = e_l2_worst_batch(cfg10_5, rs)
    assert bv2[0] == e_l2_worst(cfg10_5, float(rs[0])).value


def test_worst_rejects_nonpositive_range(cfg10_5):
    with pytest.raises(ValueError):
        e_linf_worst(cfg10_5, 0.0)
    for worst in (
        e_linf_worst,
        e_l2_worst,
        lambda cfg, r: se_loss_worst(cfg, r, DEFAULT_BUDGET),
    ):
        for r in (math.nan, math.inf, -math.inf, math.nextafter(MAX_RANGE_M, math.inf),
                  math.nextafter(MIN_RANGE_M, 0.0)):
            with pytest.raises(ValueError, match="ranges"):
                worst(cfg10_5, r)
    # the largest range with a finite square still evaluates
    assert math.isfinite(e_l2_worst(cfg10_5, MAX_RANGE_M).value)


def test_golden_max_finds_quadratic_peak():
    x, v = _golden_max_batch(
        lambda t: -((t - 0.3) ** 2), np.array([0.0]), np.array([1.0]), 1e-9, 200
    )
    assert x[0] == pytest.approx(0.3, abs=1e-6)
    assert v[0] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize(
    "cfg",
    [ArrayConfig(carrier_freq=f, n_elements=n) for f in (1e9, 28e9, 300e9) for n in (2, 5, 64)]
    + [
        ArrayConfig(carrier_freq=1e9, n_elements=4, spacing=1.0),
        ArrayConfig(carrier_freq=3e9, n_elements=7, spacing=0.3),
    ],
    ids=lambda cfg: f"{cfg.carrier_freq / 1e9:g}GHz-N{cfg.n_elements}-d{cfg.spacing:g}",
)
def test_worst_case_search_never_hits_an_element(cfg):
    # the searched cosine is clamped below 1, so a range on an element offset,
    # or one ulp either side of it, still leaves every R_n > 0
    nd = cfg.element_offsets()[1:]
    ranges = np.concatenate([nd, np.nextafter(nd, 0.0), np.nextafter(nd, np.inf)])
    for values, thetas in (
        e_linf_worst_batch(cfg, ranges),
        e_l2_worst_batch(cfg, ranges),
        se_loss_worst_batch(cfg, ranges, DEFAULT_BUDGET),
    ):
        assert np.all(np.isfinite(values)) and np.all(thetas > 0.0)


def test_eta_bias_at_rayleigh_worst_angle(cfg300):
    # at 300 GHz / 64 elements the efficiency dip at the Rayleigh range is
    # about 0.2, the estimator-floor counterpart of the ~0.45 squared mismatch
    sample = e_l2_worst(cfg300, RAYLEIGH_300_64)
    eta = array_gain_efficiency(
        cfg300, PolarPosition(theta=sample.theta_star, range_m=RAYLEIGH_300_64)
    )
    assert 0.0 < eta < 1.0
    assert 1 - eta == pytest.approx(0.2057, abs=0.01)


BATCHES = {
    "linf": e_linf_worst_batch,
    "l2": e_l2_worst_batch,
    "se": lambda cfg, rs: se_loss_worst_batch(cfg, rs, DEFAULT_BUDGET),
}


@pytest.mark.parametrize(
    "cfg",
    [ArrayConfig(1e9, 2), ArrayConfig(10e9, 5), ArrayConfig(300e9, 10), ArrayConfig(300e9, 64)],
    ids=lambda cfg: f"{cfg.carrier_freq / 1e9:g}GHz-N{cfg.n_elements}",
)
def test_batch_values_do_not_depend_on_thread_count(cfg, monkeypatch):
    # 150 ranges are three blocks at N <= 10 and four at N = 64; on this span
    # a few SE rows change bits when the rows sharing a block change
    r_min = resolve_r_min(cfg, EnvelopeSearchPolicy())
    rs = np.geomspace(r_min, 2.0 * spf_distance(cfg, Tolerances().delta_inf), 150)

    def run(threads: int) -> dict:
        monkeypatch.setenv("NEARFIELD_THREADS", str(threads))
        return {name: tuple(a.tobytes() for a in batch(cfg, rs)) for name, batch in BATCHES.items()}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # let the block workers interleave often
    try:
        runs = {threads: run(threads) for threads in (1, 2, 3)}
        # the serial whole-block coarse pass is the reference for the slabs
        monkeypatch.setattr(metrics, "_SLAB_BUDGET", 1 << 40)
        whole_blocks = run(1)
    finally:
        sys.setswitchinterval(interval)
    assert runs[1] == whole_blocks
    assert runs[2] == whole_blocks
    assert runs[3] == whole_blocks


def test_too_small_range_in_a_later_block_raises_the_same_error(cfg10_5, monkeypatch):
    # 1e-170 m squares to 0, so the range to element 0 would be 0; it is
    # refused before any block runs, although its block is the third of four
    rs = np.geomspace(0.2, 300.0, 200)
    rs[150] = 1e-170
    raised = {}
    for threads in (1, 2):
        monkeypatch.setenv("NEARFIELD_THREADS", str(threads))
        with pytest.raises(ValueError, match="^ranges must be at least .* got 1e-170$") as exc:
            e_linf_worst_batch(cfg10_5, rs)
        raised[threads] = (type(exc.value), str(exc.value))
    assert raised[1][0] is ValueError
    assert raised[2] == raised[1]


@settings(max_examples=40, deadline=None)
@given(
    freq=st.sampled_from([1e6, 28e9, 1e12]),
    n_elements=st.integers(2, 9),
    spacing=st.sampled_from([1e-300, MIN_RANGE_M / 3, MIN_RANGE_M / 2, MIN_RANGE_M, 1.0, 1e100])
    | st.floats(1e-300, 1e100),
    free=st.lists(st.floats(MIN_RANGE_M, MAX_RANGE_M), max_size=4),
)
def test_worst_case_search_is_never_degenerate_in_the_range_interval(
    freq, n_elements, spacing, free
):
    # every range in [MIN_RANGE_M, MAX_RANGE_M] evaluates, the ends, the
    # element offsets and their neighbours included; values may overflow
    cfg = ArrayConfig(carrier_freq=freq, n_elements=n_elements, spacing=spacing)
    nd = cfg.element_offsets()[1:]
    near = np.concatenate([nd, np.nextafter(nd, 0.0), np.nextafter(nd, np.inf)])
    inside = near[(near >= MIN_RANGE_M) & (near <= MAX_RANGE_M)]
    ranges = np.concatenate([[MIN_RANGE_M, MAX_RANGE_M], inside, free])
    with np.errstate(all="ignore"):
        for batch in BATCHES.values():
            try:
                batch(cfg, ranges)
            except DegenerateGeometryError as exc:
                pytest.fail(f"{cfg} at {ranges}: {exc}")


@pytest.mark.filterwarnings("error")
def test_pointwise_views_refuse_an_aperture_that_overflows_the_distances():
    # r + D > MAX_RANGE_M: the distances overflowed to nan with a RuntimeWarning
    cfg = ArrayConfig(carrier_freq=28e9, n_elements=4, spacing=1e200)
    pos = PolarPosition(theta=0.5, range_m=1.0)
    for view in (e_linf_at, e_l2_at, array_gain_efficiency):
        with pytest.raises(ValueError, match=r"^range_m must be at most .* less the aperture "
                                             r"3e\+200 m, got 1\.0$"):
            view(cfg, pos)


def test_one_block_and_one_worker_run_inline(cfg10_5, monkeypatch):
    def no_pool(workers):
        raise AssertionError("the block pool was used")

    monkeypatch.setattr(metrics, "_block_pool", no_pool)
    monkeypatch.setenv("NEARFIELD_THREADS", "2")
    e_linf_worst(cfg10_5, 1.0)
    e_l2_worst_batch(cfg10_5, np.geomspace(0.2, 300.0, 64))  # one block of 64 rows
    se_loss_worst(cfg10_5, 1.0, DEFAULT_BUDGET)
    monkeypatch.setenv("NEARFIELD_THREADS", "1")
    e_linf_worst_batch(cfg10_5, np.geomspace(0.2, 300.0, 200))


def test_block_workers_see_the_callers_errstate(cfg1_2, monkeypatch):
    def dividing_grid(cfg, r, cos_t):
        return np.ones((len(r), cos_t.shape[1])) / 0.0

    monkeypatch.setenv("NEARFIELD_THREADS", "2")
    rs = np.geomspace(0.2, 300.0, 130)
    with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
        metrics.worst_over_angle_batch(cfg1_2, rs, AngleSearchPolicy(), dividing_grid)


def test_a_map_inside_a_pool_task_runs_inline(monkeypatch):
    real = metrics._block_pool
    calls = []

    def counting_pool(workers):
        calls.append(workers)
        return real(workers)

    monkeypatch.setattr(metrics, "_block_pool", counting_pool)
    monkeypatch.setenv("NEARFIELD_THREADS", "2")
    out = parallel_map(lambda i: parallel_map(lambda j: (i, j), range(3)), range(2))
    assert calls == [2]
    assert out == [[(i, j) for j in range(3)] for i in range(2)]


def test_the_first_failing_item_in_order_raises(monkeypatch):
    def fail_two_and_four(i):
        if i == 2:
            time.sleep(0.05)  # let item 4 fail first on the pool
        if i in (2, 4):
            raise ValueError(f"item {i}")
        return i

    for threads in ("1", "2"):
        monkeypatch.setenv("NEARFIELD_THREADS", threads)
        with pytest.raises(ValueError, match="item 2"):
            parallel_map(fail_two_and_four, range(6))


def test_a_sweep_computes_on_at_most_worker_count_threads(cfg1_2, cfg10_5, monkeypatch):
    real = metrics._linf_grid
    threads = set()

    def recording_grid(cfg, r, cos_t):
        threads.add(threading.get_ident())
        return real(cfg, r, cos_t)

    monkeypatch.setattr(metrics, "_linf_grid", recording_grid)
    monkeypatch.setenv("NEARFIELD_THREADS", "2")
    spec = SweepSpec(
        configs=(cfg1_2, cfg10_5),
        metrics=("linf",),
        auto_grid_points=200,  # four blocks of up to 64 rows
        angle_policy=AngleSearchPolicy(coarse_grid_points=181),
        envelope_policy=EnvelopeSearchPolicy(points_per_decade=150),
    )
    run_sweep(spec)
    assert 1 <= len(threads) <= worker_count()


def test_block_pool_is_shared_across_calls(cfg1_2, monkeypatch):
    monkeypatch.setenv("NEARFIELD_THREADS", "2")
    start = threading.active_count()
    rs = np.geomspace(0.2, 300.0, 130)  # three blocks of up to 64 rows
    for _ in range(50):
        e_linf_worst_batch(cfg1_2, rs)
    assert threading.active_count() <= start + worker_count()
