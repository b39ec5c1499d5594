"""Transition-distance solvers: closed forms plus the last-crossing envelope search."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, ClassVar

import numpy as np

from .arrays import MAX_RANGE_M, ArrayConfig, require_finite, require_whole
from .link import DEFAULT_BUDGET, LinkBudget, se_loss_bound, se_loss_worst, se_loss_worst_batch
from .metrics import (
    AngleSearchPolicy,
    block_rows,
    e_l2_worst,
    e_l2_worst_batch,
    e_linf_worst,
    e_linf_worst_batch,
)


# Ranges per window of the last-crossing scan for a metric with no kernel block.
_SCAN_CHUNK = 256

MAX_GRID_POINTS = 1_000_000
"""Most points a scan or curve grid may hold, about 50 times a default scan
(20k points) and 2,500 times a default curve; a larger grid is refused."""

# The uncertified (SE) search builds its grid up to MAX_SCAN_FACTOR times its
# heuristic horizon.  Without a proven bound it requires the trailing decade of
# that grid to lie below CERTIFICATION_MARGIN times the tolerance.
MAX_SCAN_FACTOR = 100.0
CERTIFICATION_MARGIN = 0.5


class HorizonExceededError(RuntimeError):
    """Tolerance violations persist at the end of the scan horizon."""


def _require_positive(name: str, value: float) -> None:
    """Reject a value that is NaN, infinite or not positive, naming it."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass(frozen=True)
class Tolerances:
    """Application error budgets: per-meter, dimensionless, and bits/s/Hz."""

    delta_inf: float = 1e-3
    delta_2: float = 1e-3
    delta_se: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            _require_positive(f.name, getattr(self, f.name))


@dataclass(frozen=True)
class EnvelopeSearchPolicy:
    """Scan and refinement settings for the last-crossing envelope search.

    r_min of None resolves per config to max(aperture, 10 * spacing); below
    that the look-angle sweep can reach the array itself.
    """

    r_min: float | None = None
    points_per_decade: int = 2000
    bisection_tol: ClassVar[float] = 1e-8  # relative width of the last-cell bisection

    def __post_init__(self) -> None:
        require_finite(self)
        require_whole(self, "points_per_decade")
        if self.r_min is not None and self.r_min <= 0:
            raise ValueError("r_min must be positive")
        if self.points_per_decade < 10:
            raise ValueError("points_per_decade must be at least 10")


@dataclass(frozen=True)
class OptimalRadius:
    """Result of the envelope search: the radius and whether a bound
    guarantees no violation beyond it.

    A search on the analytic grid reads certified=True.  In boundary_set a
    proven bound (linf_mismatch_bound, l2_mismatch_bound) rules out every
    violation above the windows it scans; the grid's end at twice the
    analytic bound only fixes where the grid points sit.  A search on the
    heuristic grid reads certified=False even when a proven bound
    (se_gain_bound for SE) bounds its scan: its grid still ends at the
    heuristic horizon, and the flag changes together with the grid, since
    the boundary CSV's opt_se_certified column is pinned by the fig3-se
    reference bundle under perfbench/reference/.
    """

    radius: float
    certified: bool


@dataclass(frozen=True)
class BoundarySet:
    """All transition radii for one configuration, in meters.

    opt_linf_certified and opt_l2_certified read True: linf_mismatch_bound
    and l2_mismatch_bound prove those scans complete.  opt_se_certified
    reads False although se_gain_bound proves the SE scan complete; see
    OptimalRadius.
    """

    rayleigh: float
    epf: float
    spf: float
    sspf: float
    opt_linf: float
    opt_l2: float
    opt_se: float
    opt_linf_certified: bool
    opt_l2_certified: bool
    opt_se_certified: bool


def resolve_r_min(cfg: ArrayConfig, policy: EnvelopeSearchPolicy) -> float:
    """Smallest range the searches will evaluate."""
    if policy.r_min is not None:
        return policy.r_min
    return max(cfg.aperture, 10.0 * cfg.spacing)


def rayleigh_distance(cfg: ArrayConfig) -> float:
    """Classical far-field onset 2*D^2/lambda."""
    return 2.0 * cfg.aperture * cfg.aperture / cfg.wavelength


def sspf_distance(cfg: ArrayConfig, delta_inf: float) -> float:
    """Strict small-phase radius sqrt((k*D^2 + D) / (2*delta))."""
    _require_positive("delta_inf", delta_inf)
    d_ap = cfg.aperture
    return math.sqrt((cfg.wavenumber * d_ap * d_ap + d_ap) / (2.0 * delta_inf))


def spf_distance(cfg: ArrayConfig, delta_inf: float) -> float:
    """Small-phase radius: the positive root of (2*delta/D^2)*r^3 - k*r - 1 = 0.

    It rearranges to the depressed cubic r^3 + p*r + q = 0 with
    p = -k*D^2/(2*delta) and q = -D^2/(2*delta), both negative, which for
    physical parameters has three real roots.  Solved in closed form via the
    trigonometric method; the returned root is the largest (the physical one).
    """
    _require_positive("delta_inf", delta_inf)
    if cfg.n_elements < 2:
        raise ValueError("the cubic needs a nonzero aperture (n_elements >= 2)")
    d_sq = cfg.aperture * cfg.aperture
    p = -cfg.wavenumber * d_sq / (2.0 * delta_inf)
    q = -d_sq / (2.0 * delta_inf)
    # D^2 under- or overflowed.  p = -inf alone (a tiny delta_inf) puts the
    # root at inf, which the scans refuse as a horizon (exit 3)
    if p == 0.0 or q == 0.0 or not math.isfinite(q):
        raise ValueError(f"aperture {cfg.aperture} m and delta_inf {delta_inf} give cubic "
                         f"coefficients p = {p}, q = {q} that the closed form cannot evaluate")
    arg = (3.0 * q / (2.0 * p)) * math.sqrt(-3.0 / p)
    if not -1.0 <= arg <= 1.0:
        raise ValueError(
            f"unphysical parameter combination: trigonometric-root argument {arg} "
            "falls outside [-1, 1]"
        )
    return 2.0 * math.sqrt(-p / 3.0) * math.cos(math.acos(arg) / 3.0)


def phase_amp_envelope(cfg: ArrayConfig, r) -> np.ndarray | float:
    """Angle-free mismatch majorant D^2/(2r^3) + (2/r)|sin(k*D^2/(4r))|."""
    r = np.asarray(r, dtype=float)
    d_sq = cfg.aperture * cfg.aperture
    # an overflowing r**3 makes its term read 0, which is its limit
    with np.errstate(over="ignore"):
        phase = np.abs(np.sin(cfg.wavenumber * d_sq / (4.0 * r)))
        return d_sq / (2.0 * r**3) + (2.0 / r) * phase


def small_angle_envelope(cfg: ArrayConfig, r) -> np.ndarray | float:
    """Small-angle majorant D^2/(2r^3) + k*D^2/(2r^2); dominates phase_amp_envelope."""
    r = np.asarray(r, dtype=float)
    d_sq = cfg.aperture * cfg.aperture
    return d_sq / (2.0 * r**3) + cfg.wavenumber * d_sq / (2.0 * r**2)


def epf_distance(
    cfg: ArrayConfig, delta_inf: float, policy: EnvelopeSearchPolicy | None = None
) -> float:
    """Last range where the angle-free mismatch majorant still reaches delta_inf.

    The majorant oscillates, so the scan walks a log grid from r_min to the
    small-phase radius (beyond which it provably stays under tolerance) and
    bisects inside the last violating cell.  Returns r_min when no violation
    exists at or beyond r_min.
    """
    if cfg.n_elements < 2:
        raise ValueError("epf_distance needs a nonzero aperture (n_elements >= 2)")
    _require_positive("delta_inf", delta_inf)
    policy = policy or EnvelopeSearchPolicy()
    r_min = resolve_r_min(cfg, policy)
    spf = spf_distance(cfg, delta_inf)
    if spf <= r_min:
        return r_min
    envelope = partial(phase_amp_envelope, cfg)
    return _last_crossing(
        envelope,
        envelope,
        _log_grid(r_min, spf, policy.points_per_decade),
        delta_inf,
        policy.bisection_tol,
        "majorant still violates tolerance at the small-phase radius",
    )


def l2_certification_bound(cfg: ArrayConfig, delta_2: float) -> float:
    """Smallest r where (r + D) * small_angle_envelope(r) < delta_2.

    The normalized total mismatch never exceeds (r + D) times the per-element
    worst case, so no violation of delta_2 can occur beyond this radius.
    """
    _require_positive("delta_2", delta_2)
    d_ap = cfg.aperture
    if d_ap == 0.0:
        return 0.0

    def h(r):
        # an overflowing r**3 makes its term read 0, which is its limit
        with np.errstate(over="ignore"):
            return (r + d_ap) * small_angle_envelope(cfg, r)

    hi = max(d_ap, cfg.spacing)
    while h(hi) >= delta_2:
        hi *= 2.0
        if math.isinf(hi * hi):  # r**2 overflows: h would read 0 and end the search
            raise HorizonExceededError(f"delta_2 {delta_2} needs ranges whose square overflows")
    # h(hi) < delta_2, and h(hi / 2) >= delta_2 unless hi is the start
    return _last_crossing(
        h, h, np.array([hi / 2.0, hi]), delta_2, 1e-12, f"search end {hi} m violates delta_2"
    )


def linf_mismatch_bound(cfg: ArrayConfig, delta_inf: float) -> float:
    """Radius beyond which the per-element mismatch stays below delta_inf at
    every look angle: the smaller of r_inf = D + sqrt((D + k*D^2/2) / delta_inf)
    and the phase-saturation radius r_sat = (1 + 1e-9)*(D + sqrt(D^2 + 4*q))/2,
    q = (2 + sqrt(4 + delta_inf^2*D^2)) / delta_inf^2.

    For r > D, element n at offset x = n*d <= D has |R_n - r| <= x and
    R_n >= r - D.  Its phase gap k*(R_n - r + x*cos) equals
    k*x^2*sin^2 / (R_n + r - x*cos), whose denominator is at least 2*(r - D),
    so |dphi| <= k*x^2 / (2*(r - D)).  The kernel's split
    |e_n|^2 = (1/R_n - 1/r)^2 + 4*sin^2(dphi/2) / (R_n*r), with
    R_n*r >= (r - D)^2 and |sin u| <= |u|, gives
    |e_n| <= (x + k*x^2/2) / (r - D)^2 <= (D + k*D^2/2) / (r - D)^2,
    which falls below delta_inf for r > r_inf.  Unlike small_angle_envelope
    it holds for every r > D.

    Where the phase gap wraps, sin^2 <= 1 is the sharper bound: with
    p = (r - D)*r <= R_n*r and |1/R_n - 1/r| = |R_n - r|/(R_n*r) <= D/p,
    |e_n|^2 <= D^2/p^2 + 4/p, which decreases in r and equals delta_inf^2
    at p = q, that is at r = (D + sqrt(D^2 + 4*q))/2.  This bound comes
    within 1e-8 of the kernel, so r_sat carries a relative margin of 1e-9
    for the kernel's rounding.
    """
    _require_positive("delta_inf", delta_inf)
    d_ap = cfg.aperture
    r_inf = d_ap + math.sqrt((d_ap + 0.5 * cfg.wavenumber * d_ap * d_ap) / delta_inf)
    spread = delta_inf * d_ap
    # a square that overflows makes q, and r_sat, read inf
    q = (2.0 + math.sqrt(4.0 + spread * spread)) / delta_inf / delta_inf
    r_sat = (1.0 + 1e-9) * 0.5 * (d_ap + math.sqrt(d_ap * d_ap + 4.0 * q))
    return min(r_inf, r_sat)


def l2_mismatch_bound(cfg: ArrayConfig, delta_2: float) -> float:
    """Radius r_2 = D + (A + sqrt(A^2 + 8*A*D*delta_2)) / (2*delta_2) beyond
    which the normalized total mismatch stays below delta_2 at every look
    angle, with A = rms_n(x_n) + (k/2)*rms_n(x_n^2) = c_2*D + c_4*k*D^2/2 and
    c_p = sqrt(mean_n (n/(N-1))^p).

    The per-element bound |e_n| <= (x_n + k*x_n^2/2) / (r - D)^2 of
    linf_mismatch_bound and Minkowski's inequality give
    sqrt(sum_n |e_n|^2) <= sqrt(N)*A / (r - D)^2, and R_n <= r + D gives
    sum_n 1/R_n^2 >= N / (r + D)^2.  Hence e_l2 <= (r + D)*A / (r - D)^2,
    which decreases on r > D and equals delta_2 at r_2, the positive root of
    delta_2*u^2 - A*u - 2*A*D = 0 in u = r - D.
    """
    _require_positive("delta_2", delta_2)
    x = cfg.element_offsets()
    a = math.sqrt(np.mean(x * x)) + 0.5 * cfg.wavenumber * math.sqrt(np.mean(x**4))
    d_ap = cfg.aperture
    return d_ap + (a + math.sqrt(a * a + 8.0 * a * d_ap * delta_2)) / (2.0 * delta_2)


def _require_above_l2_floor(cfg: ArrayConfig, delta_2: float) -> None:
    """Refuse a delta_2 at or below k*D*2^-52, the l2 kernel's rounding floor.

    Far beyond the 1/r law, each phase gap dphi_n = k*((R_n - r) + x_n*cos)
    is a sum of two terms of size up to x_n that cancel to about
    k*x_n^2/(2*r).  Each term carries a rounding error of a few units of
    x_n*2^-53 whatever r is, so dphi_n keeps an error of order
    k*x_n*2^-53, and e_l2, the rms over n of |dphi_n| there, levels off at
    a constant times k*D*2^-52 instead of falling as 1/r.  Measured at
    1e18-1e147 m (1 GHz / N = 16 / 0.5 m, 300 GHz / N = 64, 28 GHz /
    N = 256, 300 GHz / N = 2048) that constant is 0.25-0.43.  The factor
    c = 1 keeps every delta_2 that passes more than twice that floor, so
    rounding alone cannot reach it and no scan meets a crossing it made.
    """
    floor = cfg.wavenumber * cfg.aperture * 2.0**-52
    if delta_2 <= floor:
        raise ValueError(f"delta_2 {delta_2} is at or below the l2 kernel's rounding floor "
                         f"k*D*2^-52 = {floor!r}")


def se_gain_bound(cfg: ArrayConfig, delta_se: float, budget: LinkBudget) -> float:
    """Radius r_G = D + sqrt(rho_d * N * (lambda/(4*pi))^2 / (2^delta_se - 1))
    beyond which the SE loss stays below delta_se at every look angle.

    The SE loss is log2(1 + rho_d*G) - log2(1 + snr_mis) with snr_mis >= 0, so
    it never exceeds log2(1 + rho_d*G).  Every element lies within D of the
    first one, so R_n >= r - D for r > D, and G = sum_n (lambda/(4*pi*R_n))^2
    <= N*(lambda/(4*pi))^2 / (r - D)^2.  For r > r_G this gives
    rho_d*G < 2^delta_se - 1, hence a loss below delta_se whatever the
    mismatch.  No property of eta enters: the bound is tight where the
    pilot-noise floor, not wavefront mismatch, sets opt_se.
    """
    _require_positive("delta_se", delta_se)
    try:
        growth = math.expm1(delta_se * math.log(2.0))
    except OverflowError:  # 2^delta_se - 1 overflows: the root term's limit is 0
        return cfg.aperture
    amp = cfg.wavelength / (4.0 * math.pi)
    return cfg.aperture + amp * math.sqrt(budget.data_snr * cfg.n_elements / growth)


def _log_grid(lo: float, hi: float, points_per_decade: int) -> np.ndarray:
    if not math.isfinite(hi):
        raise HorizonExceededError(f"scan end {hi} m is not a finite horizon")
    if not math.isfinite(hi / lo):
        raise HorizonExceededError(f"scan from {lo} m to {hi} m: the range ratio overflows")
    decades = math.log10(hi / lo)
    n = max(int(math.ceil(decades * points_per_decade)) + 1, 16)
    if n > MAX_GRID_POINTS:
        raise ValueError(f"points_per_decade {points_per_decade} makes a scan grid of {n} "
                         f"points, more than MAX_GRID_POINTS = {MAX_GRID_POINTS}")
    return np.geomspace(lo, hi, n)


def _last_crossing(
    metric: Callable[[float], float],
    batch_metric: Callable[[np.ndarray], np.ndarray],
    grid: np.ndarray,
    delta: float,
    bisection_tol: float,
    horizon_message: str,
    trailing: tuple[float, float, str] | None = None,
    proven_bound: float | None = None,
    *,
    block: int = _SCAN_CHUNK,
    majorant: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Range past the last grid point where the metric reaches delta, bisected
    with the scalar metric to bisection_tol (relative) inside the cell after
    it; the scan start grid[0] when no grid point violates.  NaN/inf values
    count as violations.

    The batch metric evaluates the grid in windows of `block` ranges counted
    from grid[0], so with the kernel's block (metrics.block_rows) each window
    is one kernel block and every row comes out as in a whole-grid call.  The
    scan starts at the window that holds the last candidate, the last grid
    point at or below `proven_bound` (a range beyond which the metric
    provably stays below delta), else the horizon, and steps down one window
    at a time to the first that holds a violation: nothing below it can move
    the last crossing.  `majorant` maps ranges to upper bounds on the batch
    metric's values; a window where it lies below delta (below the trailing
    limit when there is one) at every point holds no violation, and the scan
    steps past it without calling the batch metric.  A proven bound whose
    window reaches past MAX_RANGE_M, where no range can be evaluated, raises
    HorizonExceededError.  `trailing`, as (r_from, limit, message) with
    limit <= delta, requires every grid point at or beyond r_from to lie
    below limit, raising HorizonExceededError(message) otherwise.  Each
    window is checked before its violations, and a trailing point below the
    last window scanned lies below that window's violation, which fails the
    check itself, so the check does not depend on `block`.
    """
    last_candidate = len(grid) - 1
    if proven_bound is not None:
        last_candidate = max(int(np.searchsorted(grid, proven_bound, side="right")) - 1, 0)
    start = last_candidate // block * block
    if proven_bound is not None and grid[min(start + block, len(grid)) - 1] > MAX_RANGE_M:
        raise HorizonExceededError(f"proven bound {proven_bound} m puts the scan's first "
                                   f"window beyond the largest range {MAX_RANGE_M!r} m")
    clear = delta if trailing is None else trailing[1]  # limit <= delta
    for lo in range(start, -1, -block):
        window = grid[lo : lo + block]
        if majorant is not None and np.all(majorant(window) < clear):
            continue
        values = np.asarray(batch_metric(window), dtype=float)
        if trailing is not None:
            r_from, limit, message = trailing
            if np.any(~(values[window >= r_from] < limit)):
                raise HorizonExceededError(message)
        violating = np.flatnonzero(~(values < delta))
        if violating.size:
            last = lo + int(violating[-1])
            break
    else:
        return float(grid[0])
    if last == len(grid) - 1:
        raise HorizonExceededError(horizon_message)
    lo, hi = float(grid[last]), float(grid[last + 1])
    while hi - lo > bisection_tol * hi:
        mid = math.sqrt(lo * hi)
        if metric(mid) < delta:
            hi = mid
        else:
            lo = mid
    return hi


def optimal_radius(
    metric: Callable[[float], float],
    delta: float,
    policy: EnvelopeSearchPolicy | None = None,
    *,
    r_min: float,
    analytic_bound: float | None = None,
    heuristic_horizon: float | None = None,
    proven_bound: float | None = None,
    batch_metric: Callable[[np.ndarray], np.ndarray] | None = None,
    block: int = _SCAN_CHUNK,
    majorant: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OptimalRadius:
    """Smallest radius beyond which metric(r) stays strictly below delta.

    metric maps a range in meters to a worst-case (angle-maximized) value and
    drives the bisection; batch_metric, when given, must be its vectorized
    twin and evaluates the grid scan, which otherwise maps metric.  The scan
    runs from the horizon down and stops at the last violation.  With
    `analytic_bound` (a Taylor-based closed form) the grid runs to twice the
    bound and the result is certified; with a proven bound beside it, that
    horizon only fixes where the grid points sit.  Without it, the grid runs
    to MAX_SCAN_FACTOR * heuristic_horizon, its trailing decade must sit
    below delta * CERTIFICATION_MARGIN, and the result is not certified.
    `proven_bound`, a range beyond which the metric provably stays below
    delta, replaces that trailing check: the scan starts at the grid point
    at or below the bound, and the grid ends at the bound instead when the
    bound lies beyond its horizon.  The scan evaluates one window of `block`
    ranges at a time, counted from r_min; pass the batch metric's kernel
    block (metrics.block_rows) to make each window one kernel block.
    `majorant`, which maps ranges to upper bounds on the batch metric's
    values, lets the scan skip every window it clears (see _last_crossing);
    the radius stays the same.  Returns r_min when no scanned point violates
    the tolerance.

    A NaN, infinite or non-positive r_min, and a NaN or non-positive bound
    or horizon, raise ValueError; an infinite one, or a proven bound whose
    scan would start beyond MAX_RANGE_M, raises HorizonExceededError.
    """
    _require_positive("delta", delta)
    _require_positive("r_min", r_min)
    for name, value in (("analytic_bound", analytic_bound),
                        ("heuristic_horizon", heuristic_horizon),
                        ("proven_bound", proven_bound)):
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
    if not (isinstance(block, int) and block >= 1):
        raise ValueError(f"block must be a positive integer, got {block!r}")
    batch_metric = batch_metric or (lambda rs: [metric(float(r)) for r in rs])
    policy = policy or EnvelopeSearchPolicy()
    trailing = None
    if analytic_bound is not None:
        horizon = 2.0 * max(analytic_bound, r_min)
        certified = True
    else:
        horizon = MAX_SCAN_FACTOR * max(heuristic_horizon or r_min, r_min)
        certified = False
    if proven_bound is not None:
        if not math.isfinite(proven_bound):
            raise HorizonExceededError(f"proven bound {proven_bound} m is not a finite horizon")
        horizon = max(horizon, proven_bound)
    elif analytic_bound is None:
        trailing = (
            horizon / 10.0,
            delta * CERTIFICATION_MARGIN,
            f"trailing decade of the heuristic scan is not safely below {delta}",
        )
    radius = _last_crossing(
        metric,
        batch_metric,
        _log_grid(r_min, horizon, policy.points_per_decade),
        delta,
        policy.bisection_tol,
        f"tolerance {delta} still violated at the scan horizon {horizon:.6g} m",
        trailing,
        proven_bound,
        block=block,
        majorant=majorant,
    )
    return OptimalRadius(radius=radius, certified=certified)


def boundary_set(
    cfg: ArrayConfig,
    tolerances: Tolerances | None = None,
    budget: LinkBudget | None = None,
    angle_policy: AngleSearchPolicy | None = None,
    envelope_policy: EnvelopeSearchPolicy | None = None,
) -> BoundarySet:
    """All seven transition radii for one configuration.

    The opt_linf and opt_l2 scans start at linf_mismatch_bound and
    l2_mismatch_bound, and the SE scan at se_gain_bound, one kernel block per
    window and per kernel call; the SE scan skips every window where
    se_loss_bound stays below delta_se.  The grids still end at twice spf and
    twice l2_certification_bound (at the heuristic horizon for SE), or at the
    proven bound where that lies beyond; that end only fixes where the grid
    points sit.  A delta_2 at or below the l2 kernel's rounding floor
    k*D*2^-52 is refused with ValueError before any scan.
    """
    tol = tolerances or Tolerances()
    budget = budget or DEFAULT_BUDGET
    angle_policy = angle_policy or AngleSearchPolicy()
    envelope_policy = envelope_policy or EnvelopeSearchPolicy()
    r_min = resolve_r_min(cfg, envelope_policy)
    rayleigh = rayleigh_distance(cfg)
    block = block_rows(cfg, angle_policy)  # refuses an oversized row before any scan
    sspf = sspf_distance(cfg, tol.delta_inf)

    def solve(point, batch, args, delta, **bounds):
        # the kernels are this module's globals read per call: wrapped names take effect
        return optimal_radius(
            lambda r: point(cfg, r, *args).value, delta, envelope_policy, r_min=r_min,
            batch_metric=lambda rs: batch(cfg, rs, *args)[0],
            block=block, **bounds,
        )

    if cfg.n_elements == 1:
        # zero aperture: the mismatch vanishes, but SE keeps its pilot-noise floor
        spf = epf = 0.0
        opt_linf = opt_l2 = OptimalRadius(radius=r_min, certified=True)
    else:
        spf = spf_distance(cfg, tol.delta_inf)
        l2_bounds = {"analytic_bound": l2_certification_bound(cfg, tol.delta_2),
                     "proven_bound": l2_mismatch_bound(cfg, tol.delta_2)}
        # a proven bound past the largest range is refused by its scan instead
        if l2_bounds["proven_bound"] <= MAX_RANGE_M:
            _require_above_l2_floor(cfg, tol.delta_2)
        epf = epf_distance(cfg, tol.delta_inf, envelope_policy)
        opt_linf = solve(e_linf_worst, e_linf_worst_batch, (angle_policy,), tol.delta_inf,
                         analytic_bound=spf,
                         proven_bound=linf_mismatch_bound(cfg, tol.delta_inf))
        opt_l2 = solve(e_l2_worst, e_l2_worst_batch, (angle_policy,), tol.delta_2, **l2_bounds)
    opt_se = solve(se_loss_worst, se_loss_worst_batch, (budget, angle_policy), tol.delta_se,
                   heuristic_horizon=max(rayleigh, sspf, r_min),
                   proven_bound=se_gain_bound(cfg, tol.delta_se, budget),
                   majorant=partial(se_loss_bound, cfg, budget))
    return BoundarySet(
        rayleigh=rayleigh,
        epf=epf,
        spf=spf,
        sspf=sspf,
        opt_linf=opt_linf.radius,
        opt_l2=opt_l2.radius,
        opt_se=opt_se.radius,
        opt_linf_certified=opt_linf.certified,
        opt_l2_certified=opt_l2.certified,
        opt_se_certified=opt_se.certified,
    )
