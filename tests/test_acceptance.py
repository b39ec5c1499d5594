"""Acceptance gate: every criterion checked at its stated tolerance.

Each test prints one line (visible with -s) naming the criterion and the
computed numbers; the assertions pin the tolerances.
"""

import filecmp
import math
import time

import numpy as np
import pytest

import oracles
from nearfield import (
    AngleSearchPolicy,
    ArrayConfig,
    DEFAULT_BUDGET,
    DegenerateGeometryError,
    EnvelopeSearchPolicy,
    LinkBudget,
    PolarPosition,
    boundary_set,
    channel_gain,
    e_l2_worst,
    epf_distance,
    l2_certification_bound,
    nmse_bias_approx,
    nmse_lower_bound,
    optimal_radius,
    rayleigh_distance,
    resolve_r_min,
    se_loss,
    se_loss_worst,
    snr_mismatched,
    spf_distance,
    sspf_distance,
)
from nearfield import cli
from nearfield.boundaries import MAX_SCAN_FACTOR
from nearfield.link import se_loss_worst_batch
from nearfield.metrics import e_l2_worst_batch, e_linf_worst_batch

DELTA_INF = 1e-3
DELTA_2 = 1e-3
DELTA_SE = 0.5

SMALL_POLICY = EnvelopeSearchPolicy(points_per_decade=400)
SMALL_CONFIGS = [
    ArrayConfig(carrier_freq=1e9, n_elements=2),
    ArrayConfig(carrier_freq=1e9, n_elements=5),
    ArrayConfig(carrier_freq=10e9, n_elements=2),
    ArrayConfig(carrier_freq=10e9, n_elements=5),
]
FIG3_CONFIGS = [
    ArrayConfig(carrier_freq=1e9, n_elements=2),
    ArrayConfig(carrier_freq=10e9, n_elements=5),
    ArrayConfig(carrier_freq=300e9, n_elements=10),
]


def _report(number: int, name: str, detail: str) -> None:
    print(f"criterion {number:02d} ({name}): PASS — {detail}")


def _solve_linf(cfg, delta, policy):
    r_min = resolve_r_min(cfg, policy)
    bound = spf_distance(cfg, delta)
    result = optimal_radius(
        lambda r: e_linf_worst_batch(cfg, np.array([r]))[0][0],
        delta,
        policy,
        r_min=r_min,
        analytic_bound=bound,
        batch_metric=lambda rs: e_linf_worst_batch(cfg, rs)[0],
    )
    return result, r_min, 2.0 * max(bound, r_min)


def _solve_l2(cfg, delta, policy):
    r_min = resolve_r_min(cfg, policy)
    bound = l2_certification_bound(cfg, delta)
    result = optimal_radius(
        lambda r: e_l2_worst_batch(cfg, np.array([r]))[0][0],
        delta,
        policy,
        r_min=r_min,
        analytic_bound=bound,
        batch_metric=lambda rs: e_l2_worst_batch(cfg, rs)[0],
    )
    return result, r_min, 2.0 * max(bound, r_min)


@pytest.fixture(scope="module")
def flagship_linf(cfg300):
    start = time.time()
    result, r_min, horizon = _solve_linf(cfg300, DELTA_INF, EnvelopeSearchPolicy())
    return result, horizon, time.time() - start


@pytest.fixture(scope="module")
def flagship_l2(cfg300):
    start = time.time()
    result, r_min, horizon = _solve_l2(cfg300, DELTA_2, EnvelopeSearchPolicy())
    return result, horizon, time.time() - start


@pytest.fixture(scope="module")
def small_linf_radii():
    out = {}
    for cfg in SMALL_CONFIGS:
        result, r_min, horizon = _solve_linf(cfg, DELTA_INF, SMALL_POLICY)
        out[(cfg.carrier_freq, cfg.n_elements)] = (cfg, result, r_min, horizon)
    return out


@pytest.fixture(scope="module")
def small_l2_radii():
    out = {}
    for cfg in (SMALL_CONFIGS[0], SMALL_CONFIGS[3]):
        result, r_min, horizon = _solve_l2(cfg, DELTA_2, SMALL_POLICY)
        out[(cfg.carrier_freq, cfg.n_elements)] = (cfg, result, r_min, horizon)
    return out


def test_criterion_01_rayleigh_exactness(cfg300):
    got = rayleigh_distance(cfg300)
    assert got == pytest.approx(1.9845, rel=1e-4)
    _report(1, "rayleigh exactness", f"2*D^2/lambda = {got!r} m vs 1.9845 m")


def test_criterion_02_optimal_linf_radius(flagship_linf):
    result, _, elapsed = flagship_linf
    assert result.certified
    assert result.radius == pytest.approx(56.0013, rel=0.01)
    _report(
        2,
        "optimal per-element radius",
        f"{result.radius:.4f} m vs 56.0013 m +/-1% in {elapsed:.1f}s",
    )


def test_criterion_03_optimal_l2_radius(flagship_l2):
    result, _, elapsed = flagship_l2
    assert result.certified
    assert result.radius == pytest.approx(1422.18, rel=0.01)
    _report(
        3,
        "optimal normalized-mismatch radius",
        f"{result.radius:.2f} m vs 1422.18 m +/-1% in {elapsed:.1f}s",
    )


def test_criterion_04_bias_floor(cfg300):
    r_transition = 1.9845
    worst = e_l2_worst(cfg300, r_transition)
    dense_value, _ = oracles.l2_dense_max(cfg300, r_transition)
    assert worst.value == pytest.approx(dense_value, rel=1e-6)
    bias = nmse_bias_approx(worst.value)
    bias_db = 10 * math.log10(bias)
    print(
        f"criterion 04 (bias floor): worst-case normalized mismatch at {r_transition} m "
        f"= {worst.value:.6f} (dense-oracle {dense_value:.6f}); "
        f"bias approx = {bias:.4f} ({bias_db:.2f} dB)"
    )
    assert bias == pytest.approx(0.36, abs=0.06)
    assert bias_db == pytest.approx(-4.4, abs=0.5)
    assert worst.value == pytest.approx(0.60, abs=0.05)
    _report(4, "bias floor", f"mismatch {worst.value:.4f}, bias {bias:.4f} ({bias_db:.2f} dB)")


def test_criterion_05_ordering_and_residuals(grid_configs):
    for cfg in grid_configs:
        epf = epf_distance(cfg, DELTA_INF)
        spf = spf_distance(cfg, DELTA_INF)
        assert epf <= spf
        residual = (2 * DELTA_INF / cfg.aperture**2) * spf**3 - cfg.wavenumber * spf - 1.0
        assert abs(residual) / (cfg.wavenumber * spf) < 1e-9
    _report(5, "radius ordering and residuals", "epf <= spf and cubic residual < 1e-9 on the 3x3 grid")


def test_criterion_06_never_again(cfg300, flagship_linf, flagship_l2, small_linf_radii):
    checked = []

    linf_result, linf_horizon, _ = flagship_linf
    samples = np.geomspace(linf_result.radius, linf_horizon, 10_000)
    values, _ = e_linf_worst_batch(cfg300, samples)
    assert np.all(values < DELTA_INF)
    checked.append(f"300GHz-N64/linf max tail {values.max():.3e}")

    l2_result, l2_horizon, _ = flagship_l2
    samples = np.geomspace(l2_result.radius, l2_horizon, 10_000)
    values, _ = e_l2_worst_batch(cfg300, samples)
    assert np.all(values < DELTA_2)
    checked.append(f"300GHz-N64/l2 max tail {values.max():.3e}")

    for (freq, n), (cfg, result, _, horizon) in small_linf_radii.items():
        samples = np.geomspace(result.radius, horizon, 10_000)
        values, _ = e_linf_worst_batch(cfg, samples)
        assert np.all(values < DELTA_INF)
        checked.append(f"{freq/1e9:g}GHz-N{n}/linf")

    cfg = ArrayConfig(carrier_freq=10e9, n_elements=5)
    policy = EnvelopeSearchPolicy()
    r_min = resolve_r_min(cfg, policy)
    horizon = MAX_SCAN_FACTOR * max(rayleigh_distance(cfg), sspf_distance(cfg, DELTA_INF))
    se_result = optimal_radius(
        lambda r: se_loss_worst(cfg, r, DEFAULT_BUDGET).value,
        DELTA_SE,
        policy,
        r_min=r_min,
        heuristic_horizon=max(rayleigh_distance(cfg), sspf_distance(cfg, DELTA_INF)),
        batch_metric=lambda rs: se_loss_worst_batch(cfg, rs, DEFAULT_BUDGET)[0],
    )
    samples = np.geomspace(se_result.radius, horizon, 10_000)
    values, _ = se_loss_worst_batch(cfg, samples, DEFAULT_BUDGET)
    assert np.all(values < DELTA_SE)
    assert not se_result.certified
    checked.append("10GHz-N5/se")

    _report(6, "never-again property", "; ".join(checked))


def test_criterion_07_oracle_equivalence(small_linf_radii, small_l2_radii):
    cell = math.log(10.0) / SMALL_POLICY.points_per_decade
    lines = []

    for (freq, n), (cfg, result, r_min, horizon) in small_linf_radii.items():
        n_dense = 10 * (int(math.ceil(math.log10(horizon / r_min) * SMALL_POLICY.points_per_decade)) + 1)
        dense = np.geomspace(r_min, horizon, n_dense)
        values, _ = e_linf_worst_batch(cfg, dense)
        last = int(np.flatnonzero(values >= DELTA_INF)[-1])
        assert last < len(dense) - 1
        gap = abs(math.log(result.radius / dense[last + 1]))
        assert gap <= 1.2 * cell
        lines.append(f"{freq/1e9:g}GHz-N{n}/linf gap {gap/cell:.2f} cells")

    for (freq, n), (cfg, result, r_min, horizon) in small_l2_radii.items():
        n_dense = 10 * (int(math.ceil(math.log10(horizon / r_min) * SMALL_POLICY.points_per_decade)) + 1)
        dense = np.geomspace(r_min, horizon, n_dense)
        values, _ = e_l2_worst_batch(cfg, dense)
        last = int(np.flatnonzero(values >= DELTA_2)[-1])
        assert last < len(dense) - 1
        gap = abs(math.log(result.radius / dense[last + 1]))
        assert gap <= 1.2 * cell
        lines.append(f"{freq/1e9:g}GHz-N{n}/l2 gap {gap/cell:.2f} cells")

    _report(7, "oracle equivalence", "; ".join(lines))


def test_criterion_08_nmse_monte_carlo():
    cfg = ArrayConfig(carrier_freq=10e9, n_elements=5)
    budget = LinkBudget(pilot_snr=10.0 ** (30.0 / 10.0), data_snr=1.0, pilot_len=64)
    pos = PolarPosition(theta=math.pi / 3, range_m=2.0 * rayleigh_distance(cfg))
    mean, stderr = oracles.nmse_monte_carlo(cfg, pos, budget, draws=10_000, seed=20240601)
    bound = nmse_lower_bound(cfg, pos, budget)
    assert mean >= bound - 3.0 * stderr
    assert abs(mean - bound) / bound < 0.05
    _report(
        8,
        "NMSE Monte Carlo",
        f"empirical {mean:.6f} (stderr {stderr:.2e}) vs analytic {bound:.6f}",
    )


def test_criterion_09_se_properties():
    rng = np.random.default_rng(20240602)
    max_violation = 0.0
    count = 0
    while count < 10_000:
        freq = 10.0 ** rng.uniform(8.0, math.log10(300e9))
        n = int(rng.integers(1, 65))
        cfg = ArrayConfig(carrier_freq=freq, n_elements=n)
        scale = max(cfg.aperture, cfg.spacing)
        r = scale * 10.0 ** rng.uniform(-1.0, 4.0)
        theta = rng.uniform(1e-6, 2 * math.pi - 1e-6)
        budget = LinkBudget(
            pilot_snr=10.0 ** rng.uniform(-2.0, 12.0),
            data_snr=10.0 ** rng.uniform(-2.0, 12.0),
            pilot_len=int(rng.integers(1, 513)),
        )
        try:
            report = se_loss(cfg, PolarPosition(theta=theta, range_m=r), budget)
        except DegenerateGeometryError:
            continue
        count += 1
        assert report.delta_se >= 0.0
        assert report.se_opt >= report.se_mis >= 0.0
        mis = snr_mismatched(report.gain, report.eta, budget)
        assert mis <= report.eta * report.gain * budget.data_snr * (1 + 1e-12)
        max_violation = max(max_violation, -report.delta_se)

    for cfg in FIG3_CONFIGS:
        far = 1e6 * cfg.aperture
        assert se_loss_worst(cfg, far, DEFAULT_BUDGET).value < 1e-3

    # qualitative: at the classical transition range the worst-case SE loss
    # still exceeds the 0.5 bits/s/Hz budget for every fig3 configuration
    losses = []
    for cfg in FIG3_CONFIGS:
        loss = se_loss_worst(cfg, rayleigh_distance(cfg), DEFAULT_BUDGET).value
        assert loss > DELTA_SE
        losses.append(f"{cfg.carrier_freq/1e9:g}GHz-N{cfg.n_elements}: {loss:.2f}")
    _report(9, "SE properties", f"10^4 samples nonnegative; at classical range {', '.join(losses)}")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    def run(tag, threads):
        out_dir = tmp_path / tag
        monkeypatch.setenv("NEARFIELD_THREADS", threads)
        code = cli.main([
            "reproduce", "fig2-linf", "--out-dir", str(out_dir),
            "--points-per-decade", "150", "--curve-points", "40",
            "--coarse-angles", "181",
        ])
        assert code == 0
        return out_dir / "fig2-linf"

    first = run("a", "1")
    second = run("b", "7")
    names_a = sorted(p.name for p in first.iterdir())
    names_b = sorted(p.name for p in second.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert filecmp.cmp(first / name, second / name, shallow=False), name
        assert (first / name).read_bytes() == (second / name).read_bytes()
    _report(10, "determinism", f"{len(names_a)} files byte-identical across thread counts")
