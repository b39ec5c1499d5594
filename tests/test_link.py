import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nearfield import (
    DEFAULT_BUDGET,
    THETA_OPEN_MIN,
    ArrayConfig,
    LinkBudget,
    PolarPosition,
    channel_gain,
    e_l2_at,
    nmse_bias_approx,
    nmse_lower_bound,
    se_loss,
    se_loss_bound,
    se_loss_worst,
    se_optimal,
    snr_mismatched,
    sspf_distance,
)
from nearfield.link import se_loss_worst_batch


def test_budget_validation():
    with pytest.raises(ValueError):
        LinkBudget(pilot_snr=0.0, data_snr=1.0, pilot_len=4)
    with pytest.raises(ValueError):
        LinkBudget(pilot_snr=1.0, data_snr=-0.5, pilot_len=4)
    with pytest.raises(ValueError):
        LinkBudget(pilot_snr=1.0, data_snr=1.0, pilot_len=0)


def test_channel_gain_single_element():
    cfg = ArrayConfig(carrier_freq=1e9, n_elements=1)
    r = 7.0
    expected = (cfg.wavelength / (4 * math.pi * r)) ** 2
    assert channel_gain(cfg, PolarPosition(theta=0.2, range_m=r)) == pytest.approx(expected)


def test_channel_gain_broadside_closed_form():
    cfg = ArrayConfig(carrier_freq=10e9, n_elements=5)
    r = 3.0
    nd = cfg.spacing * np.arange(5)
    expected = (cfg.wavelength / (4 * math.pi)) ** 2 * np.sum(1.0 / (r * r + nd * nd))
    got = channel_gain(cfg, PolarPosition(theta=math.pi / 2, range_m=r))
    assert got == pytest.approx(expected, rel=1e-13)


def test_channel_gain_matches_high_precision_sum(cfg300):
    got = channel_gain(cfg300, PolarPosition(theta=math.pi / 3, range_m=5.0))
    expected = oracles.gain_mpmath(cfg300, 5.0, math.pi / 3)
    assert got == pytest.approx(expected, rel=1e-13)


def test_se_optimal_trivia():
    budget = LinkBudget(pilot_snr=1.0, data_snr=0.0, pilot_len=1)
    assert se_optimal(123.0, budget) == 0.0
    budget = LinkBudget(pilot_snr=1.0, data_snr=1.0, pilot_len=1)
    assert se_optimal(1.0, budget) == pytest.approx(1.0)
    assert se_optimal(3.0, budget) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        se_optimal(-1.0, budget)


def test_snr_mismatched_worked_example():
    # eta^2 G^2 rho_d / (G eta rho_d/(L rho_p) + eta G + 1/(L rho_p))
    # = 2.5 / (0.05 + 0.5 + 0.01) with the values below
    budget = LinkBudget(pilot_snr=10.0, data_snr=10.0, pilot_len=10)
    got = snr_mismatched(1.0, 0.5, budget)
    assert got == pytest.approx(2.5 / 0.56, rel=1e-12)


def test_snr_mismatched_limits():
    budget = LinkBudget(pilot_snr=10.0, data_snr=5.0, pilot_len=8)
    assert snr_mismatched(2.0, 0.0, budget) == 0.0
    huge = LinkBudget(pilot_snr=1e15, data_snr=5.0, pilot_len=1000)
    assert snr_mismatched(2.0, 1.0, huge) == pytest.approx(10.0, rel=1e-6)
    with pytest.raises(ValueError):
        snr_mismatched(2.0, 1.5, budget)
    with pytest.raises(ValueError):
        snr_mismatched(0.0, 0.5, budget)


@settings(max_examples=200)
@given(
    gain=st.floats(1e-12, 1e6),
    eta=st.floats(0.0, 1.0),
    pilot_snr=st.floats(1e-3, 1e12),
    data_snr=st.floats(0.0, 1e12),
    pilot_len=st.integers(1, 512),
)
def test_snr_chain_inequality(gain, eta, pilot_snr, data_snr, pilot_len):
    budget = LinkBudget(pilot_snr=pilot_snr, data_snr=data_snr, pilot_len=pilot_len)
    mis = snr_mismatched(gain, eta, budget)
    assert 0.0 <= mis <= eta * gain * data_snr <= gain * data_snr


def test_se_loss_zero_data_snr(cfg10_5):
    budget = LinkBudget(pilot_snr=100.0, data_snr=0.0, pilot_len=16)
    report = se_loss(cfg10_5, PolarPosition(theta=1.0, range_m=1.0), budget)
    assert report.se_opt == 0.0 and report.delta_se == 0.0


def test_se_loss_single_element_high_pilot_budget():
    cfg = ArrayConfig(carrier_freq=1e9, n_elements=1)
    budget = LinkBudget(pilot_snr=1e14, data_snr=1e8, pilot_len=4096)
    report = se_loss(cfg, PolarPosition(theta=0.9, range_m=5.0), budget)
    assert report.eta == 1.0
    assert report.delta_se == pytest.approx(0.0, abs=1e-6)
    # no look angle matters; the loss is the pilot-noise floor, a difference
    # of two 11-bit SEs that the two paths round alike to about 1e-15
    assert se_loss_worst(cfg, 5.0, budget).value == pytest.approx(report.delta_se, abs=1e-14)


@pytest.mark.parametrize("freq", [1e9, 28e9, 300e9, 1e12])
def test_single_element_worst_se_loss_is_the_pilot_noise_floor(freq):
    # the worst case runs the general kernel: every angle gives the loss at
    # eta = 1, which se_loss reports at any angle
    cfg = ArrayConfig(carrier_freq=freq, n_elements=1)
    ranges = np.geomspace(1e-3, 1e3, 40)
    values, _ = se_loss_worst_batch(cfg, ranges, DEFAULT_BUDGET)
    for r, value in zip(ranges, values):
        report = se_loss(cfg, PolarPosition(theta=THETA_OPEN_MIN, range_m=r), DEFAULT_BUDGET)
        assert value == pytest.approx(report.delta_se, rel=1e-12)
        assert value > 0.0


def test_se_loss_far_field(cfg10_5):
    budget = LinkBudget(pilot_snr=1e10, data_snr=1e10, pilot_len=64)
    r = 1e6 * cfg10_5.aperture
    report = se_loss(cfg10_5, PolarPosition(theta=math.pi / 2, range_m=r), budget)
    assert 0.0 <= report.delta_se < 1e-3
    assert se_loss_worst(cfg10_5, r, budget).value < 1e-3


def test_se_loss_nonnegative_and_ordered(cfg10_5):
    budget = LinkBudget(pilot_snr=1e6, data_snr=1e8, pilot_len=32)
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = float(rng.uniform(0.2, 50.0))
        theta = float(rng.uniform(1e-3, 2 * math.pi - 1e-3))
        report = se_loss(cfg10_5, PolarPosition(theta=theta, range_m=r), budget)
        assert report.se_opt >= report.se_mis >= 0.0
        assert report.delta_se == report.se_opt - report.se_mis


def test_se_loss_matches_complex_oracle(cfg10_5):
    budget = LinkBudget(pilot_snr=1e4, data_snr=1e6, pilot_len=16)
    for theta, r in ((0.3, 0.5), (math.pi / 2, 2.0), (2.0, 14.0)):
        got = se_loss(cfg10_5, PolarPosition(theta=theta, range_m=r), budget).delta_se
        assert got == pytest.approx(oracles.se_loss_at(cfg10_5, r, theta, budget), rel=1e-9, abs=1e-12)


def test_se_loss_worst_dominates_random_angles(cfg10_5):
    budget = LinkBudget(pilot_snr=1e10, data_snr=1e10, pilot_len=64)
    r = 0.5
    worst = se_loss_worst(cfg10_5, r, budget).value
    rng = np.random.default_rng(11)
    slack = 1 + 5e-5
    for theta in rng.uniform(1e-6, 2 * math.pi - 1e-6, size=1000):
        report = se_loss(cfg10_5, PolarPosition(theta=float(theta), range_m=r), budget)
        assert report.delta_se <= worst * slack


def test_se_loss_worst_matches_dense_oracle(cfg1_2):
    # r off the element offsets so the brute-force oracle has no singular angle
    budget = LinkBudget(pilot_snr=1e10, data_snr=1e10, pilot_len=64)
    r = 0.16
    dense, _ = oracles.se_loss_dense_max(cfg1_2, r, budget)
    got = se_loss_worst(cfg1_2, r, budget).value
    assert got == pytest.approx(dense, rel=1e-5)
    assert got > 0.5


def test_nmse_lower_bound_basics(cfg300):
    budget = LinkBudget(pilot_snr=1e3, data_snr=1.0, pilot_len=64)
    pos = PolarPosition(theta=math.pi / 3, range_m=2.0)
    bound = nmse_lower_bound(cfg300, pos, budget)
    eta_term = 1.0 - oracles.eta_at(cfg300, 2.0, math.pi / 3)
    assert bound >= eta_term > 0.0
    # single element with asymptotically clean pilots: floor collapses
    cfg1 = ArrayConfig(carrier_freq=1e9, n_elements=1)
    clean = LinkBudget(pilot_snr=1e18, data_snr=1.0, pilot_len=1024)
    assert nmse_lower_bound(cfg1, PolarPosition(theta=0.1, range_m=2.0), clean) < 1e-9


def test_nmse_lower_bound_monotone_in_pilot_energy(cfg10_5):
    pos = PolarPosition(theta=1.2, range_m=1.0)
    bounds_len = [
        nmse_lower_bound(cfg10_5, pos, LinkBudget(pilot_snr=100.0, data_snr=1.0, pilot_len=length))
        for length in (1, 2, 8, 64, 512)
    ]
    assert all(a >= b for a, b in zip(bounds_len, bounds_len[1:]))
    bounds_snr = [
        nmse_lower_bound(cfg10_5, pos, LinkBudget(pilot_snr=snr, data_snr=1.0, pilot_len=16))
        for snr in (0.1, 1.0, 10.0, 1e4, 1e8)
    ]
    assert all(a >= b for a, b in zip(bounds_snr, bounds_snr[1:]))


def test_nmse_bias_approx_values():
    assert nmse_bias_approx(0.0) == 0.0
    assert nmse_bias_approx(0.6) == pytest.approx(0.3276, abs=1e-12)
    for x in (1e-3, 1e-4, 1e-5):
        assert nmse_bias_approx(x) / (x * x) == pytest.approx(1.0, rel=1e-5)
    with pytest.raises(ValueError):
        nmse_bias_approx(-0.1)


def test_bound_dominates_bias_approx_far_out(cfg300):
    # far beyond the strict small-phase radius the squared mismatch is tiny
    # and the pilot-noise term carries the bound above the bias approximation
    budget = LinkBudget(pilot_snr=1e12, data_snr=1.0, pilot_len=4096)
    r = 10.0 * sspf_distance(cfg300, 1e-3)
    pos = PolarPosition(theta=math.pi / 2, range_m=r)
    bound = nmse_lower_bound(cfg300, pos, budget)
    approx = nmse_bias_approx(e_l2_at(cfg300, pos))
    assert approx < 1e-4
    assert bound >= approx - 10 * approx**2


def test_nmse_monte_carlo_consistency_smoke(cfg10_5):
    budget = LinkBudget(pilot_snr=1e3, data_snr=1.0, pilot_len=64)
    pos = PolarPosition(theta=math.pi / 3, range_m=1.0)
    mean, stderr = oracles.nmse_monte_carlo(cfg10_5, pos, budget, draws=2000, seed=42)
    bound = nmse_lower_bound(cfg10_5, pos, budget)
    assert mean >= bound - 3 * stderr
    assert mean == pytest.approx(bound, rel=0.10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    freq_ghz=st.floats(0.5, 300.0),
    n_elements=st.integers(1, 64),
    spacing_exp=st.floats(-1.0, 2.0),
    data_snr_db=st.floats(0.0, 90.0),
    pilot_snr_db=st.floats(0.0, 60.0),
    pilot_len=st.integers(1, 128),
    depth=st.floats(-8.0, 0.0),
)
def test_se_loss_bound_dominates_the_worst_case_loss(
    freq_ghz, n_elements, spacing_exp, data_snr_db, pilot_snr_db, pilot_len, depth
):
    """U(r) lies above the kernel's worst-case loss and above the loss on a
    dense angle grid at r in (D, 10^4 * D + 1 m]; its rounding allowance is
    part of U, so no slack is added here."""
    lam = 3e8 / (freq_ghz * 1e9)
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements,
                      spacing=0.5 * lam * 10**spacing_exp)
    budget = LinkBudget(pilot_snr=10 ** (pilot_snr_db / 10), data_snr=10 ** (data_snr_db / 10),
                        pilot_len=pilot_len)
    d_ap = cfg.aperture
    r = d_ap + (1e4 * d_ap + 1.0) * 10**depth
    assert r > d_ap
    bound = se_loss_bound(cfg, budget, [r])[0]
    assert bound >= se_loss_worst_batch(cfg, np.array([r]), budget)[0][0]
    assert bound >= oracles.se_loss_dense_max(cfg, r, budget, n_angles=4_000)[0]


def test_se_loss_bound_has_no_value_within_the_aperture(cfg300):
    d_ap = cfg300.aperture
    bound = se_loss_bound(cfg300, DEFAULT_BUDGET, [0.5 * d_ap, d_ap, 1.001 * d_ap, 2.0 * d_ap])
    assert np.all(np.isinf(bound[:2])) and np.all(np.isfinite(bound[2:]))
    # one element: no phase gap, eta = 1, and U is the pilot-noise floor
    one = ArrayConfig(carrier_freq=1e9, n_elements=1)
    r = 31.8
    floor = se_loss_worst(one, r, DEFAULT_BUDGET).value
    assert floor < se_loss_bound(one, DEFAULT_BUDGET, [r])[0] <= floor + 1e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "freq_ghz, n_elements, data_snr_db, r",
    [
        (28, 4, 60, 1e-100),  # inside the aperture
        (1e-9, 1, 60, 1e-150),  # G overflows
        (1e-9, 3, 3000, 0.5),  # rho_d * G overflows
        (1e160, 5, 60, 300.0),  # G underflows to 0
    ],
)
def test_se_loss_bound_at_the_float_edges_warns_nothing(freq_ghz, n_elements, data_snr_db, r):
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements)
    budget = LinkBudget(pilot_snr=1e4, data_snr=10 ** (data_snr_db / 10), pilot_len=64)
    assert se_loss_bound(cfg, budget, [r])[0] == math.inf
