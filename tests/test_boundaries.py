import math
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nearfield import (
    AngleSearchPolicy,
    ArrayConfig,
    EnvelopeSearchPolicy,
    HorizonExceededError,
    LinkBudget,
    Tolerances,
    boundary_set,
    epf_distance,
    l2_certification_bound,
    l2_mismatch_bound,
    linf_mismatch_bound,
    optimal_radius,
    phase_amp_envelope,
    rayleigh_distance,
    resolve_r_min,
    se_gain_bound,
    small_angle_envelope,
    spf_distance,
    sspf_distance,
)
from nearfield import boundaries
from nearfield.arrays import MAX_RANGE_M
from nearfield.boundaries import _SCAN_CHUNK, MAX_SCAN_FACTOR, _last_crossing, _log_grid
from nearfield.link import DEFAULT_BUDGET, se_loss_worst, se_loss_worst_batch
from nearfield.metrics import block_rows, e_l2_worst, e_l2_worst_batch, e_linf_worst_batch

FAST_ANGLES = AngleSearchPolicy(coarse_grid_points=241)
FAST_ENVELOPE = EnvelopeSearchPolicy(points_per_decade=300)


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(delta_inf=0.0)
    with pytest.raises(ValueError):
        Tolerances(delta_se=-0.1)
    defaults = Tolerances()
    assert defaults.delta_inf == 1e-3 and defaults.delta_2 == 1e-3 and defaults.delta_se == 0.5


def test_envelope_policy_validation():
    with pytest.raises(ValueError):
        EnvelopeSearchPolicy(points_per_decade=5)
    with pytest.raises(ValueError):
        EnvelopeSearchPolicy(r_min=-1.0)


def test_r_min_resolution(cfg300):
    assert resolve_r_min(cfg300, EnvelopeSearchPolicy()) == cfg300.aperture
    few = ArrayConfig(carrier_freq=300e9, n_elements=4)
    # small apertures fall back to ten spacings
    assert resolve_r_min(few, EnvelopeSearchPolicy()) == 10 * few.spacing
    assert resolve_r_min(cfg300, EnvelopeSearchPolicy(r_min=7.0)) == 7.0


def test_rayleigh_distance_values(cfg300):
    assert rayleigh_distance(ArrayConfig(carrier_freq=1e9, n_elements=1)) == 0.0
    assert rayleigh_distance(cfg300) == pytest.approx(1.9845, rel=1e-12)
    # wavelength 1 m, aperture 1 m
    unit = ArrayConfig(carrier_freq=3e8, n_elements=2, spacing=1.0)
    assert rayleigh_distance(unit) == pytest.approx(2.0, rel=1e-15)


def test_sspf_distance_values(cfg300):
    assert sspf_distance(ArrayConfig(carrier_freq=1e9, n_elements=1), 1e-3) == 0.0
    assert sspf_distance(cfg300, 1e-3) == pytest.approx(55.973165986251594, rel=1e-12)
    # quadrupling the tolerance halves the radius
    assert sspf_distance(cfg300, 4e-3) == pytest.approx(sspf_distance(cfg300, 1e-3) / 2, rel=1e-12)
    with pytest.raises(ValueError):
        sspf_distance(cfg300, 0.0)


def test_spf_distance_against_bisection_oracle(cfg300, cfg1_2):
    for cfg in (cfg300, cfg1_2):
        got = spf_distance(cfg, 1e-3)
        ref = oracles.cubic_root_bisect(cfg, 1e-3)
        assert got == pytest.approx(ref, rel=1e-9)
    assert spf_distance(cfg300, 1e-3) == pytest.approx(55.832375880825, rel=1e-10)


def test_spf_residual_postcondition(cfg300):
    delta = 1e-3
    r = spf_distance(cfg300, delta)
    residual = (2 * delta / cfg300.aperture**2) * r**3 - cfg300.wavenumber * r - 1.0
    assert abs(residual) / (cfg300.wavenumber * r) < 1e-9


def test_spf_domain_error_for_unphysical_tolerance():
    cfg = ArrayConfig(carrier_freq=0.1e9, n_elements=2)
    with pytest.raises(ValueError):
        spf_distance(cfg, 10.0)
    with pytest.raises(ValueError):
        spf_distance(ArrayConfig(carrier_freq=1e9, n_elements=1), 1e-3)


@settings(max_examples=100, deadline=None)
@given(
    freq_ghz=st.floats(0.1, 300.0),
    n_elements=st.integers(2, 128),
    delta=st.floats(1e-6, 0.05),
)
def test_spf_cubic_residual_random(freq_ghz, n_elements, delta):
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements)
    # the depressed cubic r^3 + p*r + q behind spf_distance has three real roots
    p = -cfg.wavenumber * cfg.aperture**2 / (2 * delta)
    q = -cfg.aperture**2 / (2 * delta)
    assert (q / 2) ** 2 + (p / 3) ** 3 < 0
    r = spf_distance(cfg, delta)
    residual = (2 * delta / cfg.aperture**2) * r**3 - cfg.wavenumber * r - 1.0
    assert abs(residual) / (cfg.wavenumber * r) < 1e-9


def test_envelope_majorant_ordering(cfg300):
    rs = np.geomspace(0.05, 500, 2000)
    assert np.all(phase_amp_envelope(cfg300, rs) <= small_angle_envelope(cfg300, rs) + 1e-18)


def test_epf_against_dense_scan(cfg300):
    delta = 1e-3
    policy = EnvelopeSearchPolicy()
    epf = epf_distance(cfg300, delta, policy)
    spf = spf_distance(cfg300, delta)
    assert epf <= spf
    grid = np.geomspace(resolve_r_min(cfg300, policy), spf, 1_000_000)
    g = phase_amp_envelope(cfg300, grid)
    last = int(np.flatnonzero(g >= delta)[-1])
    assert grid[last] <= epf <= grid[last + 1] * (1 + policy.bisection_tol)
    # beyond the returned radius the majorant never violates again
    tail = np.geomspace(epf * (1 + 1e-9), 10 * spf, 10_000)
    assert np.all(phase_amp_envelope(cfg300, tail) < delta)


def test_epf_ordering_on_grid(grid_configs):
    for cfg in grid_configs:
        epf = epf_distance(cfg, 1e-3)
        spf = spf_distance(cfg, 1e-3)
        sspf = sspf_distance(cfg, 1e-3)
        assert epf <= spf
        if spf >= cfg.aperture:
            assert spf <= sspf


def test_epf_returns_r_min_when_never_violated():
    cfg = ArrayConfig(carrier_freq=1e6, n_elements=2)
    policy = EnvelopeSearchPolicy()
    r_min = resolve_r_min(cfg, policy)
    assert spf_distance(cfg, 1e-3) < r_min
    assert epf_distance(cfg, 1e-3, policy) == r_min
    with pytest.raises(ValueError):
        epf_distance(ArrayConfig(carrier_freq=1e9, n_elements=1), 1e-3)


def test_l2_certification_bound_properties(cfg300):
    delta = 1e-3
    bound = l2_certification_bound(cfg300, delta)
    assert (bound + cfg300.aperture) * small_angle_envelope(cfg300, bound) <= delta * (1 + 1e-9)
    just_below = bound * 0.99
    assert (just_below + cfg300.aperture) * small_angle_envelope(cfg300, just_below) > delta
    assert l2_certification_bound(cfg300, 1e-4) > bound
    # with one element the mismatch is zero everywhere
    assert l2_certification_bound(ArrayConfig(carrier_freq=300e9, n_elements=1), delta) == 0.0


@pytest.mark.parametrize(
    "freq_ghz, n_elements, delta_2, expected",
    [
        (300, 64, 1e-3, 3117.2769693605255),
        (28, 4, 1e-3, 75.75259575015023),
        (1, 2, 0.5, 0.6281437582441763),
        (28, 4, 1e3, 0.008035714285714285),  # no doubling: the start's half
        (10, 5, 1e-9, 376991118.49571687),
        (300, 10, 0.37, 0.1764816848942789),
    ],
)
def test_l2_certification_bound_keeps_its_bits(freq_ghz, n_elements, delta_2, expected):
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements)
    assert repr(l2_certification_bound(cfg, delta_2)) == repr(expected)


@pytest.mark.filterwarnings("error")
def test_l2_certification_bound_refuses_an_overflowing_search(cfg300):
    # tiny but ordinary tolerances keep their bits
    assert l2_certification_bound(cfg300, 1e-100) == 3.1172453105262277e100
    # past ~1.3e154 m, r**2 overflows and the envelope would read 0, ending
    # the search far below the true bound (l2_mismatch_bound gives 1.43e200 m)
    with pytest.raises(HorizonExceededError, match="delta_2"):
        l2_certification_bound(cfg300, 1e-200)


@pytest.mark.parametrize(
    "freq_ghz, n_elements, spacing",
    [(1, 16, 0.5), (300, 64, None), (28, 256, None), (300, 2048, None)],
)
def test_l2_rounding_floor_lies_below_the_refused_delta_2(freq_ghz, n_elements, spacing,
                                                          monkeypatch):
    # far past the 1/r law the l2 kernel reads its rounding floor, 0.30-0.40 of
    # k*D*2^-52 here; boundary_set refuses any delta_2 at or below that product
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements, spacing=spacing)
    floor = cfg.wavenumber * cfg.aperture * 2.0**-52
    assert 0.0 < e_l2_worst(cfg, 1e20).value < floor

    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran")

    for name in ("e_linf_worst_batch", "e_l2_worst_batch", "se_loss_worst_batch", "epf_distance"):
        monkeypatch.setattr(boundaries, name, no_scan)
    with pytest.raises(ValueError, match=r"^delta_2 .* is at or below the l2 kernel's rounding "
                                         r"floor k\*D\*2\^-52 = "):
        boundary_set(cfg, Tolerances(delta_2=floor))


@settings(max_examples=40, deadline=None)
@given(
    freq_ghz=st.floats(0.5, 300.0),
    n_elements=st.integers(2, 64),
    data_snr_db=st.floats(0.0, 90.0),
    pilot_snr_db=st.floats(0.0, 60.0),
    pilot_len=st.integers(1, 128),
    delta_se=st.floats(0.05, 3.0),
    stretch=st.floats(1.0, 10.0),
)
def test_se_loss_below_delta_beyond_the_gain_bound(
    freq_ghz, n_elements, data_snr_db, pilot_snr_db, pilot_len, delta_se, stretch
):
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements)
    budget = LinkBudget(
        pilot_snr=10 ** (pilot_snr_db / 10), data_snr=10 ** (data_snr_db / 10), pilot_len=pilot_len
    )
    r_g = se_gain_bound(cfg, delta_se, budget)
    assert r_g > cfg.aperture
    value, _ = oracles.se_loss_dense_max(cfg, stretch * r_g, budget, n_angles=20_000)
    assert value < delta_se


def test_se_gain_bound_closed_form(cfg300):
    # the flagship's default budget: about 5% above opt_se = 0.969 m
    assert se_gain_bound(cfg300, 0.5, DEFAULT_BUDGET) == pytest.approx(1.02066, abs=1e-5)
    # with no data power the loss is zero wherever the geometry is defined
    silent = LinkBudget(pilot_snr=1e4, data_snr=0.0, pilot_len=64)
    assert se_gain_bound(cfg300, 0.5, silent) == cfg300.aperture
    # r_G - D grows like sqrt(rho_d)
    loud = LinkBudget(pilot_snr=1e4, data_snr=4e6, pilot_len=64)
    assert se_gain_bound(cfg300, 0.5, loud) - cfg300.aperture == pytest.approx(
        2 * (se_gain_bound(cfg300, 0.5, DEFAULT_BUDGET) - cfg300.aperture), rel=1e-12
    )
    with pytest.raises(ValueError):
        se_gain_bound(cfg300, 0.0, DEFAULT_BUDGET)
    # from delta_se = 1024 on 2^delta_se - 1 overflows, and r_G takes its limit D
    for delta_se in (1024.0, 2000.0, 1e300):
        assert se_gain_bound(cfg300, delta_se, DEFAULT_BUDGET) == cfg300.aperture


def test_high_snr_se_radius_found_below_the_gain_bound():
    """At 1 GHz / N=2 and 100 dB data SNR the pilot-noise floor holds the SE
    loss above delta_se well past the heuristic horizon (1,762 m), where the
    trailing-decade check used to fail the solve.  r_G (5,245 m) ends the
    grid instead, and the loss stays below delta_se from the radius to it."""
    cfg = ArrayConfig(carrier_freq=1e9, n_elements=2)
    budget = LinkBudget(pilot_snr=1e4, data_snr=1e10, pilot_len=64)
    tol = Tolerances()
    bounds = boundary_set(cfg, tol, budget, FAST_ANGLES, FAST_ENVELOPE)
    r_g = se_gain_bound(cfg, tol.delta_se, budget)
    horizon = MAX_SCAN_FACTOR * max(bounds.rayleigh, bounds.sspf)
    assert horizon < bounds.opt_se < r_g
    assert not bounds.opt_se_certified
    tail = np.geomspace(bounds.opt_se, r_g, 2000)
    values, _ = se_loss_worst_batch(cfg, tail, budget, FAST_ANGLES)
    assert np.all(values < tol.delta_se)
    for r in tail[::400]:
        assert oracles.se_loss_dense_max(cfg, r, budget, n_angles=20_000)[0] < tol.delta_se


def test_flagship_se_scan_stops_at_the_gain_bound(cfg300, monkeypatch):
    """The flagship's SE radius (0.969 m) lies far below its heuristic horizon
    (5,597 m).  r_G = 1.021 m confines the scan to the kernel blocks below it:
    two 43-row blocks; the whole heuristic grid cost 7,685 ranges."""
    seen = []
    real = boundaries.se_loss_worst_batch

    def counting(cfg, rs, *args):
        seen.append(len(rs))
        return real(cfg, rs, *args)

    monkeypatch.setattr(boundaries, "se_loss_worst_batch", counting)
    bounds = boundary_set(cfg300)
    assert 0 < sum(seen) <= 2 * 43
    assert bounds.opt_se == pytest.approx(0.969368176382184, rel=1e-9)
    assert not bounds.opt_se_certified


def test_mismatch_bounds_closed_form(cfg300):
    d_ap, k = cfg300.aperture, cfg300.wavenumber
    # the flagship: a little above opt_linf = 55.83 m and opt_l2 = 1,410.6 m
    assert linf_mismatch_bound(cfg300, 1e-3) == pytest.approx(56.145182026084, rel=1e-12)
    assert l2_mismatch_bound(cfg300, 1e-3) == pytest.approx(1428.9545056468, rel=1e-12)
    # r_inf - D halves when the tolerance quadruples
    assert linf_mismatch_bound(cfg300, 4e-3) - d_ap == pytest.approx(
        (linf_mismatch_bound(cfg300, 1e-3) - d_ap) / 2, rel=1e-12
    )
    # A = c_2*D + c_4*k*D^2/2 with c_p = sqrt(mean_n (n/(N-1))^p); r_2 solves
    # (r + D)*A = delta*(r - D)^2
    frac = np.arange(64) / 63
    a = math.sqrt(np.mean(frac**2)) * d_ap + math.sqrt(np.mean(frac**4)) * k * d_ap**2 / 2
    r_2 = l2_mismatch_bound(cfg300, 1e-3)
    assert (r_2 + d_ap) * a == pytest.approx(1e-3 * (r_2 - d_ap) ** 2, rel=1e-12)
    single = ArrayConfig(carrier_freq=1e9, n_elements=1)
    assert linf_mismatch_bound(single, 1e-3) == l2_mismatch_bound(single, 1e-3) == 0.0


@settings(max_examples=40, deadline=None)
@given(
    freq_ghz=st.floats(0.5, 300.0),
    n_elements=st.integers(2, 64),
    delta_exp=st.floats(-5.0, -1.0),
    stretch=st.floats(1.0, 10.0),
)
def test_linf_below_delta_beyond_its_majorant(freq_ghz, n_elements, delta_exp, stretch):
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements)
    delta = 10**delta_exp
    r_inf = linf_mismatch_bound(cfg, delta)
    assert r_inf > cfg.aperture
    assert oracles.linf_dense_max(cfg, stretch * r_inf, n_angles=20_000)[0] < delta


# delta_2 stops at 1e-4: near 10^6 m the oracle's direct law of cosines loses
# about k*eps*r radians of phase, as much as the mismatch it measures there
@settings(max_examples=40, deadline=None)
@given(
    freq_ghz=st.floats(0.5, 300.0),
    n_elements=st.integers(2, 64),
    delta_exp=st.floats(-4.0, -1.0),
    stretch=st.floats(1.0, 10.0),
)
def test_l2_below_delta_beyond_its_majorant(freq_ghz, n_elements, delta_exp, stretch):
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements)
    delta = 10**delta_exp
    r_2 = l2_mismatch_bound(cfg, delta)
    assert r_2 > cfg.aperture
    assert oracles.l2_dense_max(cfg, stretch * r_2, n_angles=20_000)[0] < delta


@settings(max_examples=40, deadline=None)
@given(
    freq_ghz=st.floats(0.5, 300.0),
    n_elements=st.integers(2, 64),
    depth=st.floats(-8.0, 0.0),
)
def test_majorants_dominate_the_worst_case_kernels(freq_ghz, n_elements, depth):
    """Both majorants decrease on r > D, so a majorant is at least the
    library's worst-case value v at r exactly when the radius it gives for
    the tolerance v lies at or beyond r.  r runs over (D, 10^4 * r_min]."""
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements)
    d_ap = cfg.aperture
    r = d_ap + (1e4 * resolve_r_min(cfg, EnvelopeSearchPolicy()) - d_ap) * 10**depth
    assert r > d_ap
    linf = e_linf_worst_batch(cfg, np.array([r]))[0][0]
    l2 = e_l2_worst_batch(cfg, np.array([r]))[0][0]
    assert r <= linf_mismatch_bound(cfg, linf)
    assert r <= l2_mismatch_bound(cfg, l2)


def test_flagship_linf_l2_scans_stop_at_the_majorants(cfg300, monkeypatch):
    """r_inf = 56.15 m and r_2 = 1,429 m lie in the 43-row kernel blocks that
    hold opt_linf (55.83 m) and opt_l2 (1,410.6 m), so each scan evaluates
    one block; from twice the Taylor bounds down they cost 701 and 1,378
    ranges."""
    seen = {}
    for name in ("e_linf_worst_batch", "e_l2_worst_batch"):
        real = getattr(boundaries, name)
        counts = seen[name] = []

        def counting(cfg, rs, *args, real=real, counts=counts):
            counts.append(len(rs))
            return real(cfg, rs, *args)

        monkeypatch.setattr(boundaries, name, counting)
    bounds = boundary_set(cfg300)
    for counts in seen.values():
        assert 0 < sum(counts) <= 43
    assert bounds.opt_linf == 55.82867055805448 and bounds.opt_l2 == 1410.60128533603
    assert bounds.opt_linf_certified and bounds.opt_l2_certified


def _count_ranges(monkeypatch, name):
    """Patch the boundaries kernel `name` to record how many ranges each call takes."""
    seen = []
    real = getattr(boundaries, name)

    def counting(cfg, rs, *args):
        seen.append(len(rs))
        return real(cfg, rs, *args)

    monkeypatch.setattr(boundaries, name, counting)
    return seen


def test_linf_bound_takes_the_phase_saturation_radius():
    """Where the phase gap wraps many times, sin^2 <= 1 bounds the mismatch
    far below r_inf: at 1e150 GHz with 1 m spacing r_inf is 1.53e78 m, and
    the scan used to walk about 75 decades down from it."""
    cfg = ArrayConfig(carrier_freq=1e159, n_elements=16, spacing=1.0)
    d_ap, delta = cfg.aperture, 1e-3
    r_sat = linf_mismatch_bound(cfg, delta)
    assert r_sat == pytest.approx(2007.528, rel=1e-6)
    # D^2/p^2 + 4/p = delta^2 at p = (r - D)*r, r = r_sat less its 1e-9 margin
    r = r_sat / (1.0 + 1e-9)
    p = (r - d_ap) * r
    assert d_ap**2 / p**2 + 4.0 / p == pytest.approx(delta**2, rel=1e-12)
    assert e_linf_worst_batch(cfg, np.array([r_sat]))[0][0] < delta


def test_linf_scan_of_a_wrapping_phase_evaluates_one_block(monkeypatch):
    """It walked about 150,000 ranges."""
    seen = _count_ranges(monkeypatch, "e_linf_worst_batch")
    cfg = ArrayConfig(carrier_freq=1e159, n_elements=16, spacing=1.0)
    bounds = boundary_set(cfg, Tolerances(delta_2=1e152))
    assert sum(seen) == block_rows(cfg, AngleSearchPolicy()) == 64
    assert f"{bounds.opt_linf:.12g}" == "2007.24965376" and bounds.opt_linf_certified


def test_l2_bound_takes_the_phase_saturation_radius(monkeypatch):
    """e_l2 <= 2 + D/r bounds a wrapping phase where r_2 = 1,149.7 m does not:
    the l2 scan walked 3,776 ranges down from r_2 at delta_2 = 1e150."""
    cfg = ArrayConfig(carrier_freq=1e159, n_elements=16, spacing=1.0)
    d_ap = cfg.aperture
    assert l2_mismatch_bound(cfg, 2.0) > 1e152  # r_2: no saturation radius at delta_2 <= 2
    assert l2_mismatch_bound(cfg, 3.0) == (1.0 + 1e-9) * d_ap
    assert l2_mismatch_bound(cfg, 1e150) == (1.0 + 1e-9) * d_ap / (1e150 - 2.0)
    seen = _count_ranges(monkeypatch, "e_l2_worst_batch")
    bounds = boundary_set(cfg, Tolerances(delta_2=1e150))
    assert sum(seen) == block_rows(cfg, AngleSearchPolicy()) == 64
    assert bounds.opt_l2 == resolve_r_min(cfg, EnvelopeSearchPolicy()) == 15.0
    assert bounds.opt_l2_certified


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    freq_ghz=st.floats(0.5, 300.0),
    n_elements=st.integers(2, 64),
    spacing_exp=st.floats(0.0, 4.0),
    depth=st.floats(-8.0, 0.0),
)
def test_linf_bound_dominates_the_kernel_at_wide_spacings(freq_ghz, n_elements, spacing_exp,
                                                          depth):
    """As test_majorants_dominate_the_worst_case_kernels, at spacings up to
    10^4 half-wavelengths, where the phase-saturation radius takes over."""
    lam = 3e8 / (freq_ghz * 1e9)
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements,
                      spacing=0.5 * lam * 10**spacing_exp)
    d_ap = cfg.aperture
    r = d_ap + (1e4 * resolve_r_min(cfg, EnvelopeSearchPolicy()) - d_ap) * 10**depth
    assert r > d_ap
    linf = e_linf_worst_batch(cfg, np.array([r]))[0][0]
    assert r <= linf_mismatch_bound(cfg, linf)


@pytest.mark.parametrize(
    "freq_ghz, n_elements, scale, ranges",
    [
        (28, 4, 10, 0),  # every window cleared: was 1,600 ranges
        (28, 4, 1, 128),  # was 256
        (300, 64, 1, 43),  # the flagship: was 86
    ],
)
def test_se_scan_skips_the_windows_its_loss_bound_clears(freq_ghz, n_elements, scale, ranges,
                                                         monkeypatch):
    seen = _count_ranges(monkeypatch, "se_loss_worst_batch")
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements)
    bounds = boundary_set(cfg, Tolerances(1e-3 * scale, 1e-3 * scale, 0.5 * scale))
    assert sum(seen) == ranges
    if ranges == 0:
        assert bounds.opt_se == resolve_r_min(cfg, EnvelopeSearchPolicy())
    if n_elements == 64:
        assert bounds.opt_se == pytest.approx(0.969368176382184, rel=1e-9)
        assert bounds.opt_linf == 55.82867055805448 and bounds.opt_l2 == 1410.60128533603
    assert not bounds.opt_se_certified


def test_optimal_radius_trivial_tolerance(cfg10_5):
    r_min = resolve_r_min(cfg10_5, FAST_ENVELOPE)
    result = optimal_radius(
        lambda r: e_linf_worst_batch(cfg10_5, np.array([r]), FAST_ANGLES)[0][0],
        100.0,
        FAST_ENVELOPE,
        r_min=r_min,
        analytic_bound=spf_distance(cfg10_5, 100.0),
        batch_metric=lambda rs: e_linf_worst_batch(cfg10_5, rs, FAST_ANGLES)[0],
    )
    assert result.radius == r_min
    assert result.certified


def test_optimal_radius_rejects_bad_tolerance(cfg10_5):
    with pytest.raises(ValueError):
        optimal_radius(lambda r: 0.0, 0.0, FAST_ENVELOPE, r_min=1.0, analytic_bound=2.0)


@pytest.mark.parametrize("block", [0, -43, 43.0])
def test_optimal_radius_rejects_a_bad_block(block):
    with pytest.raises(ValueError, match="^block must be a positive integer"):
        optimal_radius(lambda r: 0.0, 1.0, r_min=1.0, analytic_bound=2.0, block=block)


def test_optimal_radius_horizon_exceeded():
    policy = EnvelopeSearchPolicy(points_per_decade=50)
    with pytest.raises(HorizonExceededError):
        optimal_radius(lambda r: 1.0 / r, 1e-9, policy, r_min=0.1, analytic_bound=1.0)
    with pytest.raises(HorizonExceededError):
        # heuristic scan: trailing decade never settles under the margin
        optimal_radius(lambda r: 1.0, 0.5, policy, r_min=0.1, heuristic_horizon=1.0)


def test_a_scan_that_would_start_beyond_the_largest_range_is_refused():
    # l2_mismatch_bound reaches 2.8e162 m at delta_2 = 1e-160; a scan from
    # there evaluated ranges beyond MAX_RANGE_M and was refused as `ranges`
    policy = EnvelopeSearchPolicy(points_per_decade=10)
    solve = partial(optimal_radius, lambda r: 1.0 / r, 0.5, policy, r_min=1.0,
                    heuristic_horizon=MAX_RANGE_M)
    for bound in (1e160, MAX_RANGE_M / 2.0):  # the window of the second reaches past
        message = f"proven bound {bound} m puts the scan's first window beyond the largest range"
        with pytest.raises(HorizonExceededError, match=f"^{re.escape(message)}"):
            solve(proven_bound=bound)
    # a grid that only ends beyond it scans as before
    assert solve(proven_bound=10.0).radius == pytest.approx(2.0, rel=1e-7)


def test_optimal_radius_monotone_in_tolerance(cfg10_5):
    r_min = resolve_r_min(cfg10_5, FAST_ENVELOPE)
    radii = []
    for delta in (1e-2, 1e-3, 1e-4):
        res = optimal_radius(
            lambda r: e_linf_worst_batch(cfg10_5, np.array([r]), FAST_ANGLES)[0][0],
            delta,
            FAST_ENVELOPE,
            r_min=r_min,
            analytic_bound=spf_distance(cfg10_5, delta),
            batch_metric=lambda rs: e_linf_worst_batch(cfg10_5, rs, FAST_ANGLES)[0],
        )
        radii.append(res.radius)
    assert radii[0] <= radii[1] <= radii[2]


def test_optimal_radius_never_again(cfg10_5):
    delta = 1e-3
    policy = EnvelopeSearchPolicy(points_per_decade=800)
    r_min = resolve_r_min(cfg10_5, policy)
    spf = spf_distance(cfg10_5, delta)
    scanned = []

    def batch(rs):
        scanned.append(len(rs))
        return e_linf_worst_batch(cfg10_5, rs)[0]

    res = optimal_radius(
        lambda r: e_linf_worst_batch(cfg10_5, np.array([r]))[0][0],
        delta,
        policy,
        r_min=r_min,
        analytic_bound=spf,
        batch_metric=batch,
    )
    # the scan runs from the horizon down and stops at the last violation
    grid_size = len(_log_grid(r_min, 2 * max(spf, r_min), policy.points_per_decade))
    assert sum(scanned) < grid_size
    samples = np.geomspace(res.radius, 2 * max(spf, r_min), 1000)
    values, _ = e_linf_worst_batch(cfg10_5, samples)
    assert np.all(values < delta)


def test_boundary_set_single_element():
    # zero aperture: linf and l2 vanish, but SE keeps its pilot-noise floor
    cfg = ArrayConfig(carrier_freq=1e9, n_elements=1)
    bounds = boundary_set(cfg)
    r_min = resolve_r_min(cfg, EnvelopeSearchPolicy())
    assert bounds.rayleigh == bounds.epf == bounds.spf == bounds.sspf == 0.0
    assert bounds.opt_linf == bounds.opt_l2 == r_min
    assert bounds.opt_linf_certified and bounds.opt_l2_certified
    assert bounds.opt_se > r_min and not bounds.opt_se_certified


@pytest.mark.parametrize("freq", [1e9, 28e9])
def test_single_element_opt_se_is_a_crossing(freq):
    # was pinned to r_min, where the loss is 1.35 bits/s/Hz at 1 GHz
    cfg = ArrayConfig(carrier_freq=freq, n_elements=1)
    radius = boundary_set(cfg).opt_se
    delta = Tolerances().delta_se
    below = radius * (1.0 - EnvelopeSearchPolicy.bisection_tol)
    assert se_loss_worst(cfg, radius, DEFAULT_BUDGET).value < delta
    assert se_loss_worst(cfg, below, DEFAULT_BUDGET).value >= delta


def test_boundary_set_structure(cfg10_5):
    bounds = boundary_set(
        cfg10_5,
        angle_policy=FAST_ANGLES,
        envelope_policy=FAST_ENVELOPE,
    )
    assert 0 < bounds.rayleigh < bounds.epf <= bounds.spf <= bounds.sspf
    assert bounds.opt_linf > 10 * bounds.rayleigh
    assert bounds.opt_l2 > bounds.opt_linf
    assert bounds.opt_linf_certified and bounds.opt_l2_certified
    assert not bounds.opt_se_certified
    assert bounds.opt_se >= resolve_r_min(cfg10_5, FAST_ENVELOPE)


# --- the last-crossing engine on synthetic metrics ---------------------------

# r_min 1 m and analytic bound 50 m give a 100 m horizon: 809 ranges, three
# full chunks and a 41-range top chunk
ENGINE_POLICY = EnvelopeSearchPolicy(points_per_decade=404)
ENGINE_GRID = _log_grid(1.0, 100.0, ENGINE_POLICY.points_per_decade)


def _step_metric(cross: float, high: float = 1.0):
    """Scalar and batch metric: `high` at and below `cross`, 0 above it; the
    list collects every range the batch form was asked for."""
    seen = []

    def batch(rs):
        seen.extend(rs)
        return np.where(rs <= cross, high, 0.0)

    return (lambda r: high if r <= cross else 0.0), batch, seen


def _solve(metric, batch, block=_SCAN_CHUNK, **bound):
    bound = bound or {"analytic_bound": 50.0}
    return optimal_radius(
        metric, 0.5, ENGINE_POLICY, r_min=1.0, batch_metric=batch, block=block, **bound
    )


@pytest.mark.parametrize(
    "last, first_scanned",
    [
        (2 * _SCAN_CHUNK, 2 * _SCAN_CHUNK),  # first index of a chunk
        (2 * _SCAN_CHUNK - 1, _SCAN_CHUNK),  # last index of a chunk
        (0, 0),  # only grid[0] violates: every chunk is scanned
    ],
)
def test_last_crossing_stops_at_the_violating_chunk(last, first_scanned):
    metric, batch, seen = _step_metric(float(ENGINE_GRID[last]))
    res = _solve(metric, batch)
    assert ENGINE_GRID[last] < res.radius <= ENGINE_GRID[last + 1]
    full = oracles.optimal_radius_full_scan(metric, None, 0.5, ENGINE_POLICY, 1.0,
                                            analytic_bound=50.0)
    assert res.radius == full
    assert np.array_equal(np.sort(seen), ENGINE_GRID[first_scanned:])


def test_last_crossing_without_violation_returns_scan_start():
    metric, batch, seen = _step_metric(0.5)
    assert _solve(metric, batch).radius == 1.0
    assert len(seen) == len(ENGINE_GRID)


def test_last_crossing_violation_at_the_horizon():
    metric, batch, seen = _step_metric(float(ENGINE_GRID[-1]))
    with pytest.raises(HorizonExceededError,
                       match="^tolerance 0.5 still violated at the scan horizon 100 m$"):
        _solve(metric, batch)
    # the top chunk alone settles it
    assert len(ENGINE_GRID) == 3 * _SCAN_CHUNK + 41 and len(seen) == 41


def test_last_crossing_counts_nan_as_violation():
    last = _SCAN_CHUNK + 7
    metric, batch, _ = _step_metric(float(ENGINE_GRID[last]), high=math.nan)
    res = _solve(metric, batch)
    assert ENGINE_GRID[last] < res.radius <= ENGINE_GRID[last + 1]
    assert res.radius == oracles.optimal_radius_full_scan(
        metric, batch, 0.5, ENGINE_POLICY, 1.0, analytic_bound=50.0
    )


@pytest.mark.parametrize("lower", [100, 2 * _SCAN_CHUNK - 150])
def test_trailing_margin_failure_wins_over_a_lower_violation(lower):
    """A heuristic scan (horizon 100 m, trailing decade from 10 m, about index
    404) whose trailing decade holds a value between delta * margin and delta
    fails, even though a lower range violates in another chunk or in the same
    chunk as the failing tail point."""
    tail_start = int(np.flatnonzero(ENGINE_GRID >= 10.0)[0])
    assert _SCAN_CHUNK < tail_start < 2 * _SCAN_CHUNK - 1
    unsettled = ENGINE_GRID[tail_start + 1]
    metric, step, _ = _step_metric(float(ENGINE_GRID[lower]))
    heuristic = {"heuristic_horizon": 1.0}

    def batch(rs):
        return step(rs) + 0.4 * (rs == unsettled)

    with pytest.raises(HorizonExceededError,
                       match="^trailing decade of the heuristic scan is not safely below 0.5$"):
        _solve(metric, batch, **heuristic)
    # with the tail settled the same scan goes on to the lower violation
    res = _solve(metric, step, **heuristic)
    assert not res.certified
    assert res.radius == oracles.optimal_radius_full_scan(
        metric, step, 0.5, ENGINE_POLICY, 1.0, heuristic_horizon=1.0
    )


@pytest.mark.parametrize("last", [300, 2 * _SCAN_CHUNK + 8])
def test_last_crossing_skips_chunks_above_the_proven_bound(last):
    """A proven bound of 30 m (about index 597) starts the heuristic scan in
    the chunk from 512: the 41-range top chunk is never evaluated, and the
    trailing-decade check, which the 0.4 values above the bound would fail,
    is dropped."""
    bound = 30.0
    assert (np.searchsorted(ENGINE_GRID, bound, side="right") - 1) // _SCAN_CHUNK == 2
    metric, step, seen = _step_metric(float(ENGINE_GRID[last]))

    def batch(rs):
        return step(rs) + 0.4 * (rs > bound)

    proven = {"heuristic_horizon": 1.0, "proven_bound": bound}
    res = _solve(metric, batch, **proven)
    assert not res.certified
    first_scanned = last // _SCAN_CHUNK * _SCAN_CHUNK
    assert np.array_equal(np.sort(seen), ENGINE_GRID[first_scanned : 3 * _SCAN_CHUNK])
    assert ENGINE_GRID[last] < res.radius <= ENGINE_GRID[last + 1]
    assert res.radius == oracles.optimal_radius_full_scan(
        metric, batch, 0.5, ENGINE_POLICY, 1.0, **proven
    )
    with pytest.raises(HorizonExceededError, match="^trailing decade"):
        _solve(metric, batch, heuristic_horizon=1.0)


@pytest.mark.parametrize("last", [100, 2 * _SCAN_CHUNK + 8])
def test_last_crossing_skips_windows_its_majorant_clears(last):
    """A majorant of 0.4 above 20 m (about index 526) clears the 41-range top
    chunk alone: the scan goes on from the chunk from 512 to the same radius."""
    metric, batch, seen = _step_metric(float(ENGINE_GRID[last]))
    res = _solve(metric, batch, analytic_bound=50.0,
                 majorant=lambda rs: np.where(rs > 20.0, 0.4, 1.0))
    first_scanned = last // _SCAN_CHUNK * _SCAN_CHUNK
    assert np.array_equal(np.sort(seen), ENGINE_GRID[first_scanned : 3 * _SCAN_CHUNK])
    assert res.radius == _solve(metric, batch).radius


@pytest.mark.parametrize("above, cleared", [(0.3, False), (0.2, True)])
def test_a_majorant_clears_the_trailing_decade_only_below_its_limit(above, cleared):
    """On the heuristic scan a window is skipped only where the majorant lies
    below the trailing limit delta * CERTIFICATION_MARGIN = 0.25."""
    metric, batch, seen = _step_metric(float(ENGINE_GRID[100]))
    heuristic = {"heuristic_horizon": 1.0}
    res = _solve(metric, batch, majorant=lambda rs: np.where(rs > 20.0, above, 1.0), **heuristic)
    assert np.array_equal(np.sort(seen), ENGINE_GRID[: 3 * _SCAN_CHUNK if cleared else None])
    assert res.radius == _solve(metric, batch, **heuristic).radius


def _check_proven_bound_beyond_the_horizon(horizon):
    """A proven bound of 500 m lies beyond the 100 m horizon of either grid:
    the grid runs to the bound, so a last violation at 400 m is found, and
    only the top chunk of the longer grid is evaluated."""
    grid = _log_grid(1.0, 500.0, ENGINE_POLICY.points_per_decade)
    last = int(np.flatnonzero(grid <= 400.0)[-1])
    metric, batch, seen = _step_metric(float(grid[last]))
    proven = {**horizon, "proven_bound": 500.0}
    res = _solve(metric, batch, **proven)
    assert res.certified == ("analytic_bound" in horizon)
    assert max(seen) == 500.0 and len(seen) == len(grid) % _SCAN_CHUNK
    assert grid[last] < res.radius <= grid[last + 1]
    assert res.radius == oracles.optimal_radius_full_scan(
        metric, batch, 0.5, ENGINE_POLICY, 1.0, **proven
    )
    # a violation at the bound itself still fails the scan
    metric, batch, _ = _step_metric(500.0)
    with pytest.raises(HorizonExceededError, match="scan horizon 500 m$"):
        _solve(metric, batch, **proven)


def test_proven_bound_beyond_the_horizon_ends_the_grid():
    _check_proven_bound_beyond_the_horizon({"heuristic_horizon": 1.0})


def test_proven_bound_beyond_the_analytic_bound_ends_the_grid():
    _check_proven_bound_beyond_the_horizon({"analytic_bound": 50.0})


def test_last_crossing_maps_a_scalar_metric():
    calls = []
    cross = 30.0  # index about 597, in the chunk from 512

    def metric(r):
        calls.append(r)
        return 2.0 / r

    res = optimal_radius(metric, 2.0 / cross, ENGINE_POLICY, r_min=1.0, analytic_bound=50.0)
    assert res.certified and res.radius == pytest.approx(cross, rel=1e-8)
    full = oracles.optimal_radius_full_scan(
        lambda r: 2.0 / r, None, 2.0 / cross, ENGINE_POLICY, 1.0, analytic_bound=50.0
    )
    assert res.radius == full
    assert len(calls) < len(ENGINE_GRID)


def _windows_of(batch, calls):
    """Wrap a batch metric on ENGINE_GRID so each call is recorded as its
    (first, end) grid indices."""

    def recording(rs):
        first = int(np.searchsorted(ENGINE_GRID, rs[0]))
        assert np.array_equal(rs, ENGINE_GRID[first : first + len(rs)])
        calls.append((first, first + len(rs)))
        return batch(rs)

    return recording


def _check_windows(calls, block, last_candidate, n=len(ENGINE_GRID)):
    """The windows of a scan with window `block`: one block each, counted
    from grid[0], from the block that holds the last candidate down."""
    first = last_candidate // block * block
    assert calls == [(lo, min(lo + block, n)) for lo in range(first, -1, -block)][: len(calls)]


WINDOW_BLOCKS = [1, 7, 43, 64, 256]


@pytest.mark.parametrize("block", WINDOW_BLOCKS)
def test_last_crossing_windows_follow_the_kernel_blocks(block):
    """One-block windows from the last candidate down find the radius of the
    full scan: violations at a block's first and last index, at indices 512
    and 511, only at grid[0], nowhere and as NaN, with the last candidate at
    the horizon or at a proven bound of 30 m (index 597)."""
    edge = (_SCAN_CHUNK + 100) // block * block
    lasts = [edge, edge - 1, 2 * _SCAN_CHUNK, 2 * _SCAN_CHUNK - 1, 0, None]
    for bound in ({"analytic_bound": 50.0}, {"analytic_bound": 50.0, "proven_bound": 30.0}):
        candidate = len(ENGINE_GRID) - 1
        if "proven_bound" in bound:
            candidate = int(np.searchsorted(ENGINE_GRID, 30.0, side="right")) - 1
        for last in lasts:
            for high in (1.0, math.nan):
                cross = 0.5 if last is None else float(ENGINE_GRID[last])
                metric, step, _ = _step_metric(cross, high)
                calls = []
                res = _solve(metric, _windows_of(step, calls), block, **bound)
                full = oracles.optimal_radius_full_scan(metric, step, 0.5, ENGINE_POLICY, 1.0,
                                                        **bound)
                assert res.radius == full, (block, bound, last, high)
                _check_windows(calls, block, candidate)
                # the scan stops at the window that holds the last violation
                lo, hi = calls[-1]
                assert lo <= last < hi if last is not None else lo == 0


@pytest.mark.parametrize("block", WINDOW_BLOCKS)
def test_last_crossing_windows_at_the_horizon(block):
    metric, step, _ = _step_metric(float(ENGINE_GRID[-1]))
    calls = []
    with pytest.raises(HorizonExceededError, match="scan horizon 100 m$"):
        _solve(metric, _windows_of(step, calls), block)
    # the one block at the top settles it
    _check_windows(calls, block, len(ENGINE_GRID) - 1)
    assert len(calls) == 1


@pytest.mark.parametrize("block", WINDOW_BLOCKS)
def test_trailing_check_scans_whole_chunks(block):
    """The heuristic scan's default windows are whole chunks.  With any
    window the trailing-decade check (from 10 m, index 404) raises in the
    same cases as the full scan: a last violation below, at or above the
    tail start, with or without a tail value between delta * margin and
    delta."""
    metric, step, _ = _step_metric(float(ENGINE_GRID[100]))
    calls = []
    _solve(metric, _windows_of(step, calls), heuristic_horizon=1.0)
    assert calls == [(768, 809), (512, 768), (256, 512), (0, 256)]
    n = len(ENGINE_GRID)
    tail_start = int(np.flatnonzero(ENGINE_GRID >= 10.0)[0])
    for last in (100, tail_start - 1, tail_start, n - 2):
        for unsettled in (None, tail_start, tail_start + 50, n - 1):
            metric, step, _ = _step_metric(float(ENGINE_GRID[last]))
            bump = -1.0 if unsettled is None else float(ENGINE_GRID[unsettled])

            def batch(rs, step=step, bump=bump):
                return step(rs) + 0.4 * (rs == bump)

            full = partial(oracles.optimal_radius_full_scan, metric, batch, 0.5, ENGINE_POLICY,
                           1.0, heuristic_horizon=1.0)
            calls = []
            if last >= tail_start or unsettled is not None:
                with pytest.raises(RuntimeError, match="^trailing decade"):
                    full()
                with pytest.raises(HorizonExceededError, match="^trailing decade"):
                    _solve(metric, _windows_of(batch, calls), block, heuristic_horizon=1.0)
            else:
                res = _solve(metric, _windows_of(batch, calls), block, heuristic_horizon=1.0)
                assert res.radius == full() and not res.certified
            _check_windows(calls, block, n - 1)


# --- equivalence with the whole-grid scan ------------------------------------

EQUIV_ANGLES = AngleSearchPolicy(coarse_grid_points=181)
EQUIV_ENVELOPE = EnvelopeSearchPolicy(points_per_decade=150)


@pytest.mark.parametrize(
    "freq_ghz, n_elements", [(1, 2), (10, 5), (28, 4), (300, 10), (300, 64)]
)
def test_optimal_radius_equals_full_scan(freq_ghz, n_elements):
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements)
    tol = Tolerances()
    r_min = resolve_r_min(cfg, EQUIV_ENVELOPE)
    cases = [
        (lambda rs: e_linf_worst_batch(cfg, rs, EQUIV_ANGLES)[0], tol.delta_inf,
         {"analytic_bound": spf_distance(cfg, tol.delta_inf),
          "proven_bound": linf_mismatch_bound(cfg, tol.delta_inf)}),
        (lambda rs: e_l2_worst_batch(cfg, rs, EQUIV_ANGLES)[0], tol.delta_2,
         {"analytic_bound": l2_certification_bound(cfg, tol.delta_2),
          "proven_bound": l2_mismatch_bound(cfg, tol.delta_2)}),
        (lambda rs: se_loss_worst_batch(cfg, rs, DEFAULT_BUDGET, EQUIV_ANGLES)[0], tol.delta_se,
         {"heuristic_horizon": max(rayleigh_distance(cfg), sspf_distance(cfg, tol.delta_inf))}),
        (lambda rs: se_loss_worst_batch(cfg, rs, DEFAULT_BUDGET, EQUIV_ANGLES)[0], tol.delta_se,
         {"heuristic_horizon": max(rayleigh_distance(cfg), sspf_distance(cfg, tol.delta_inf)),
          "proven_bound": se_gain_bound(cfg, tol.delta_se, DEFAULT_BUDGET)}),
    ]
    for batch, delta, bound in cases:
        def metric(r, batch=batch):
            return float(batch(np.array([r]))[0])

        want = oracles.optimal_radius_full_scan(
            metric, batch, delta, EQUIV_ENVELOPE, r_min, **bound
        )
        for block in (_SCAN_CHUNK, block_rows(cfg, EQUIV_ANGLES)):
            got = optimal_radius(metric, delta, EQUIV_ENVELOPE, r_min=r_min, batch_metric=batch,
                                 block=block, **bound)
            assert got.radius == want, (delta, block, got.radius, want)


@pytest.mark.parametrize("freq_ghz, n_elements", [(300, 64), (10, 5), (300, 10), (300, 44)])
def test_batch_values_do_not_depend_on_grouping(freq_ghz, n_elements):
    """The scan evaluates the grid one kernel block at a time, counted from
    grid[0]: every row must come out as in one whole-grid call, bit for bit.
    At N=44 and N=64 the blocks hold 63 and 43 rows and straddle every
    multiple of 256, the window for a metric with no kernel block; at N=5
    and N=10 they hold 64 rows."""
    cfg = ArrayConfig(carrier_freq=freq_ghz * 1e9, n_elements=n_elements)
    r_min = resolve_r_min(cfg, EnvelopeSearchPolicy())
    grid = np.geomspace(r_min, 2 * spf_distance(cfg, 1e-3), 640)
    block = block_rows(cfg, AngleSearchPolicy())
    windows = []

    def record(rs):
        windows.append(rs)
        return np.zeros_like(rs)

    # no violation: the windows cover the grid, from a last candidate inside it
    _last_crossing(None, record, grid, 1.0, 1e-8, "", proven_bound=float(grid[630]), block=block)
    assert [len(w) for w in windows[1:]] == [block] * (len(windows) - 1)
    covered = len(np.concatenate(windows))
    assert covered > 630
    assert np.array_equal(np.concatenate(windows[::-1]), grid[:covered])
    kernels = [
        lambda rs: e_linf_worst_batch(cfg, rs),
        lambda rs: e_l2_worst_batch(cfg, rs),
        lambda rs: se_loss_worst_batch(cfg, rs, DEFAULT_BUDGET),
    ]
    for kernel in kernels:
        whole = kernel(grid)
        scanned = [kernel(w) for w in windows[::-1]]
        for k in range(2):  # values and maximizing angles
            assert np.array_equal(np.concatenate([w[k] for w in scanned]), whole[k][:covered])
