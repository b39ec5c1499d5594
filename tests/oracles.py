"""Independent reference implementations the tests check the library against.

Everything here evaluates the defining formulas directly with complex
arithmetic (or extended precision), deliberately sharing no code with the
library's stabilized kernels.
"""

import math

import numpy as np

# the search's fixed settings (not code): the full scan must use the same ones
from nearfield.boundaries import CERTIFICATION_MARGIN, MAX_SCAN_FACTOR


def distances(cfg, r, theta):
    nd = cfg.spacing * np.arange(cfg.n_elements)
    return np.sqrt(r * r + nd * nd - 2.0 * r * nd * math.cos(theta))


def mismatch_elements(cfg, r, theta):
    """Per-element |e^{-jkR}/R - e^{-jk(r - nd cos)}/r| via complex arithmetic."""
    nd = cfg.spacing * np.arange(cfg.n_elements)
    k = cfg.wavenumber
    dist = distances(cfg, r, theta)
    near = np.exp(-1j * k * dist) / dist
    far = np.exp(-1j * k * (r - nd * math.cos(theta))) / r
    return np.abs(near - far)


def linf_at(cfg, r, theta):
    return float(mismatch_elements(cfg, r, theta).max())


def l2_at(cfg, r, theta):
    dist = distances(cfg, r, theta)
    num = np.sum(mismatch_elements(cfg, r, theta) ** 2)
    return float(math.sqrt(num / np.sum(1.0 / dist**2)))


def eta_at(cfg, r, theta):
    nd = cfg.spacing * np.arange(cfg.n_elements)
    k = cfg.wavenumber
    dist = distances(cfg, r, theta)
    amp = cfg.wavelength / (4.0 * math.pi)
    h_near = amp / dist * np.exp(-1j * k * dist)
    h_far = amp / r * np.exp(-1j * k * (r - nd * math.cos(theta)))
    inner = np.vdot(h_near, h_far)
    return float(abs(inner) ** 2 / (np.vdot(h_near, h_near).real * np.vdot(h_far, h_far).real))


def se_loss_at(cfg, r, theta, budget):
    amp = cfg.wavelength / (4.0 * math.pi)
    dist = distances(cfg, r, theta)
    gain = float(np.sum((amp / dist) ** 2))
    eta = eta_at(cfg, r, theta)
    pe = budget.pilot_len * budget.pilot_snr
    snr_mis = (eta**2 * gain**2 * budget.data_snr) / (
        gain * eta * budget.data_snr / pe + eta * gain + 1.0 / pe
    )
    return math.log2(1.0 + budget.data_snr * gain) - math.log2(1.0 + snr_mis)


def _dense_grid_max(fn, n_angles):
    thetas = np.linspace(1e-9, 2.0 * math.pi - 1e-9, n_angles)
    values = fn(thetas)
    i = int(np.argmax(values))
    return float(values[i]), float(thetas[i])


def linf_dense_max(cfg, r, n_angles=100_000):
    """Brute-force worst-case single-element mismatch over a dense angle grid."""
    nd = cfg.spacing * np.arange(cfg.n_elements)
    k = cfg.wavenumber

    def fn(thetas):
        dist = np.sqrt(r * r + nd**2 - 2.0 * r * nd * np.cos(thetas)[:, None])
        near = np.exp(-1j * k * dist) / dist
        far = np.exp(-1j * k * (r - nd * np.cos(thetas)[:, None])) / r
        return np.abs(near - far).max(axis=1)

    return _dense_grid_max(fn, n_angles)


def l2_dense_max(cfg, r, n_angles=100_000):
    nd = cfg.spacing * np.arange(cfg.n_elements)
    k = cfg.wavenumber

    def fn(thetas):
        dist = np.sqrt(r * r + nd**2 - 2.0 * r * nd * np.cos(thetas)[:, None])
        near = np.exp(-1j * k * dist) / dist
        far = np.exp(-1j * k * (r - nd * np.cos(thetas)[:, None])) / r
        num = (np.abs(near - far) ** 2).sum(axis=1)
        return np.sqrt(num / (1.0 / dist**2).sum(axis=1))

    return _dense_grid_max(fn, n_angles)


def se_loss_dense_max(cfg, r, budget, n_angles=100_000):
    nd = cfg.spacing * np.arange(cfg.n_elements)
    k = cfg.wavenumber
    amp = cfg.wavelength / (4.0 * math.pi)
    pe = budget.pilot_len * budget.pilot_snr

    def fn(thetas):
        dist = np.sqrt(r * r + nd**2 - 2.0 * r * nd * np.cos(thetas)[:, None])
        h_near = amp / dist * np.exp(-1j * k * dist)
        h_far = amp / r * np.exp(-1j * k * (r - nd * np.cos(thetas)[:, None]))
        gain = (np.abs(h_near) ** 2).sum(axis=1)
        inner = np.abs((np.conj(h_near) * h_far).sum(axis=1)) ** 2
        eta = inner / (gain * (np.abs(h_far) ** 2).sum(axis=1))
        snr_mis = (eta**2 * gain**2 * budget.data_snr) / (
            gain * eta * budget.data_snr / pe + eta * gain + 1.0 / pe
        )
        return np.log2(1.0 + budget.data_snr * gain) - np.log2(1.0 + snr_mis)

    return _dense_grid_max(fn, n_angles)


def cubic_root_bisect(cfg, delta_inf, lo=1e-6, hi=1e12, iters=200):
    """Positive root of (2*delta/D^2) r^3 - k r - 1 by sign-change bisection."""
    d_sq = cfg.aperture**2
    k = cfg.wavenumber

    def poly(r):
        return (2.0 * delta_inf / d_sq) * r**3 - k * r - 1.0

    assert poly(lo) < 0 < poly(hi)
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if poly(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gain_mpmath(cfg, r, theta, dps=40):
    """Channel gain recomputed term by term in extended precision."""
    import mpmath

    with mpmath.workdps(dps):
        lam = mpmath.mpf(cfg.light_speed) / mpmath.mpf(cfg.carrier_freq)
        amp = lam / (4 * mpmath.pi)
        total = mpmath.mpf(0)
        for n in range(cfg.n_elements):
            nd = mpmath.mpf(cfg.spacing) * n
            dist_sq = (
                mpmath.mpf(r) ** 2 + nd**2 - 2 * mpmath.mpf(r) * nd * mpmath.cos(mpmath.mpf(theta))
            )
            total += amp**2 / dist_sq
        return float(total)


def nmse_monte_carlo(cfg, pos, budget, draws, seed):
    """Empirical NMSE of planar-constrained least squares under pilot noise.

    Pilot model: unit-modulus pilots of power pilot_snr (unit noise variance),
    observations Y = h_near x^T + W, estimate constrained to span(h_far).
    Returns (mean NMSE, standard error of the mean).
    """
    k = cfg.wavenumber
    nd = cfg.spacing * np.arange(cfg.n_elements)
    amp = cfg.wavelength / (4.0 * math.pi)
    dist = distances(cfg, pos.range_m, pos.theta)
    h_near = amp / dist * np.exp(-1j * k * dist)
    h_far = amp / pos.range_m * np.exp(
        -1j * k * (pos.range_m - nd * math.cos(pos.theta))
    )
    n_r, length = cfg.n_elements, budget.pilot_len
    x = math.sqrt(budget.pilot_snr) * np.exp(
        2j * math.pi * np.arange(length) / length
    )
    x_energy = float(np.vdot(x, x).real)
    far_energy = float(np.vdot(h_far, h_far).real)
    proj = (np.vdot(h_far, h_near) / far_energy) * h_far
    rng = np.random.default_rng(seed)
    noise = (
        rng.standard_normal((draws, n_r, length)) + 1j * rng.standard_normal((draws, n_r, length))
    ) / math.sqrt(2.0)
    v = noise @ np.conj(x)  # (draws, n_r)
    coeff = (v @ np.conj(h_far)) / (far_energy * x_energy)  # (draws,)
    estimates = proj[None, :] + coeff[:, None] * h_far[None, :]
    err = estimates - h_near[None, :]
    nmse = (np.abs(err) ** 2).sum(axis=1) / float(np.vdot(h_near, h_near).real)
    return float(nmse.mean()), float(nmse.std(ddof=1) / math.sqrt(draws))


def optimal_radius_full_scan(
    metric, batch_metric, delta, policy, r_min, analytic_bound=None, heuristic_horizon=None,
    proven_bound=None,
):
    """Envelope search by brute force: evaluate every range of the log grid
    from r_min to the horizon, take the last violation (NaN counts), then
    bisect that cell geometrically with the scalar metric.  A proven bound
    replaces the heuristic grid's trailing-decade check and, on either grid,
    extends the grid when it lies beyond the horizon; every range is still
    evaluated."""
    if analytic_bound is not None:
        horizon = 2.0 * max(analytic_bound, r_min)
    else:
        horizon = MAX_SCAN_FACTOR * max(heuristic_horizon or r_min, r_min)
    if proven_bound is not None:
        horizon = max(horizon, proven_bound)
    n = max(int(math.ceil(math.log10(horizon / r_min) * policy.points_per_decade)) + 1, 16)
    grid = np.geomspace(r_min, horizon, n)
    if batch_metric is None:
        values = np.array([metric(float(r)) for r in grid])
    else:
        values = np.asarray(batch_metric(grid), dtype=float)
    if analytic_bound is None and proven_bound is None:
        tail = values[grid >= horizon / 10.0]
        if np.any(~(tail < delta * CERTIFICATION_MARGIN)):
            raise RuntimeError("trailing decade not below the margin")
    violating = np.flatnonzero(~(values < delta))
    if violating.size == 0:
        return float(grid[0])
    last = int(violating[-1])
    if last == n - 1:
        raise RuntimeError("violated at the horizon")
    lo, hi = float(grid[last]), float(grid[last + 1])
    while hi - lo > policy.bisection_tol * hi:
        mid = math.sqrt(lo * hi)
        if metric(mid) < delta:
            hi = mid
        else:
            lo = mid
    return hi
