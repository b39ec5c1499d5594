"""Transition-distance solvers: closed forms plus the last-crossing envelope search."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable

import numpy as np

from .arrays import ArrayConfig, require_finite, require_whole
from .link import DEFAULT_BUDGET, LinkBudget, se_loss_worst, se_loss_worst_batch
from .metrics import (
    AngleSearchPolicy,
    e_l2_worst,
    e_l2_worst_batch,
    e_linf_worst,
    e_linf_worst_batch,
)


# Ranges per evaluation chunk of the last-crossing scan.  Chunk starts are
# multiples of it counted from grid[0], so the worst-case kernels (64-row
# blocks below 44 elements at the default angle density) group rows exactly as
# one whole-grid call would, and a row's value does not depend on the scan.
_SCAN_CHUNK = 256

# The uncertified (SE) search scans up to MAX_SCAN_FACTOR times its heuristic
# horizon and requires the trailing decade of that scan to lie below
# CERTIFICATION_MARGIN times the tolerance.
MAX_SCAN_FACTOR = 100.0
CERTIFICATION_MARGIN = 0.5


class HorizonExceededError(RuntimeError):
    """Tolerance violations persist at the end of the scan horizon."""


@dataclass(frozen=True)
class Tolerances:
    """Application error budgets: per-meter, dimensionless, and bits/s/Hz."""

    delta_inf: float = 1e-3
    delta_2: float = 1e-3
    delta_se: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self)
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive, got {getattr(self, f.name)}")


@dataclass(frozen=True)
class CubicCoefficients:
    """Depressed-cubic coefficients behind the small-phase closed form.

    The small-angle sufficient condition rearranges to r^3 + p*r + q = 0 with
    p = -k*D^2/(2*delta) and q = -D^2/(2*delta); both are negative and the
    discriminant (q/2)^2 + (p/3)^3 stays negative for physical parameters,
    which is the three-real-roots regime.
    """

    p: float
    q: float

    @property
    def discriminant(self) -> float:
        return (self.q / 2.0) ** 2 + (self.p / 3.0) ** 3

    @classmethod
    def from_config(cls, cfg: ArrayConfig, delta_inf: float) -> "CubicCoefficients":
        if delta_inf <= 0:
            raise ValueError("delta_inf must be positive")
        if cfg.n_elements < 2:
            raise ValueError("the cubic needs a nonzero aperture (n_elements >= 2)")
        d_sq = cfg.aperture * cfg.aperture
        return cls(
            p=-cfg.wavenumber * d_sq / (2.0 * delta_inf),
            q=-d_sq / (2.0 * delta_inf),
        )


@dataclass(frozen=True)
class EnvelopeSearchPolicy:
    """Scan and refinement settings for the last-crossing envelope search.

    r_min of None resolves per config to max(aperture, 10 * spacing); below
    that the look-angle sweep can reach the array itself.
    """

    r_min: float | None = None
    points_per_decade: int = 2000
    bisection_tol: float = 1e-8

    def __post_init__(self) -> None:
        require_finite(self)
        require_whole(self, "points_per_decade")
        if self.r_min is not None and self.r_min <= 0:
            raise ValueError("r_min must be positive")
        if self.points_per_decade < 10:
            raise ValueError("points_per_decade must be at least 10")
        if self.bisection_tol <= 0:
            raise ValueError("bisection_tol must be positive")


@dataclass(frozen=True)
class OptimalRadius:
    """Result of the envelope search: the radius and whether an analytic bound
    guarantees no violation beyond the scanned horizon."""

    radius: float
    certified: bool


@dataclass(frozen=True)
class BoundarySet:
    """All transition radii for one configuration, in meters."""

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
    if delta_inf <= 0:
        raise ValueError("delta_inf must be positive")
    d_ap = cfg.aperture
    return math.sqrt((cfg.wavenumber * d_ap * d_ap + d_ap) / (2.0 * delta_inf))


def spf_distance(cfg: ArrayConfig, delta_inf: float) -> float:
    """Small-phase radius: the positive root of (2*delta/D^2)*r^3 - k*r - 1 = 0.

    Solved in closed form via the trigonometric method for a depressed cubic
    with three real roots; the returned root is the largest (the physical one).
    """
    coeffs = CubicCoefficients.from_config(cfg, delta_inf)
    p, q = coeffs.p, coeffs.q
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
    return d_sq / (2.0 * r**3) + (2.0 / r) * np.abs(np.sin(cfg.wavenumber * d_sq / (4.0 * r)))


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
    if delta_inf <= 0:
        raise ValueError("delta_inf must be positive")
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
    if delta_2 <= 0:
        raise ValueError("delta_2 must be positive")
    d_ap = cfg.aperture
    if d_ap == 0.0:
        return 0.0

    def h(r: float) -> float:
        return (r + d_ap) * float(small_angle_envelope(cfg, r))

    hi = max(d_ap, cfg.spacing)
    while h(hi) >= delta_2:
        hi *= 2.0
    lo = hi / 2.0
    if h(lo) < delta_2 and lo <= max(d_ap, cfg.spacing):
        return lo
    for _ in range(200):
        if hi - lo <= 1e-12 * hi:
            break
        mid = math.sqrt(lo * hi)
        if h(mid) < delta_2:
            hi = mid
        else:
            lo = mid
    return hi


def _log_grid(lo: float, hi: float, points_per_decade: int) -> np.ndarray:
    decades = math.log10(hi / lo)
    n = max(int(math.ceil(decades * points_per_decade)) + 1, 16)
    return np.geomspace(lo, hi, n)


def _last_crossing(
    metric: Callable[[float], float],
    batch_metric: Callable[[np.ndarray], np.ndarray] | None,
    grid: np.ndarray,
    delta: float,
    bisection_tol: float,
    horizon_message: str,
    trailing: tuple[float, float, str] | None = None,
) -> float:
    """Range past the last grid point where the metric reaches delta, bisected
    with the scalar metric to bisection_tol (relative) inside the cell after
    it; the scan start grid[0] when no grid point violates.  NaN/inf values
    count as violations.

    The grid is evaluated from the horizon downward, _SCAN_CHUNK ranges at a
    time (metric mapped over the chunk when batch_metric is None), and the
    scan stops at the first chunk that holds a violation: nothing below it can
    move the last crossing.  `trailing`, as (r_from, limit, message) with
    limit <= delta, requires every grid point at or beyond r_from to lie
    below limit, raising HorizonExceededError(message) otherwise; the
    violation check that may stop the scan comes after it in each chunk.
    """
    top = (len(grid) - 1) // _SCAN_CHUNK * _SCAN_CHUNK
    for start in range(top, -1, -_SCAN_CHUNK):
        chunk = grid[start : start + _SCAN_CHUNK]
        if batch_metric is None:
            values = np.array([metric(float(r)) for r in chunk])
        else:
            values = np.asarray(batch_metric(chunk), dtype=float)
        if trailing is not None:
            r_from, limit, message = trailing
            if np.any(~(values[chunk >= r_from] < limit)):
                raise HorizonExceededError(message)
        violating = np.flatnonzero(~(values < delta))
        if violating.size:
            last = start + int(violating[-1])
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
    batch_metric: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OptimalRadius:
    """Smallest radius beyond which metric(r) stays strictly below delta.

    metric maps a range in meters to a worst-case (angle-maximized) value and
    drives the bisection; batch_metric, when given, must be its vectorized
    twin and is used for the grid scan, which runs from the horizon down and
    stops at the last violation.  With `analytic_bound`, violations provably
    cannot occur beyond it; the scan still extends to twice the bound to
    absorb the slack of the Taylor-based majorants, and the result is
    certified.  Without it, the scan runs to MAX_SCAN_FACTOR *
    heuristic_horizon, requires the trailing decade to sit below delta *
    CERTIFICATION_MARGIN, and the result is not certified.  Returns r_min
    when no scanned point violates the tolerance.
    """
    if delta <= 0:
        raise ValueError("tolerance must be positive")
    policy = policy or EnvelopeSearchPolicy()
    if analytic_bound is not None:
        horizon = 2.0 * max(analytic_bound, r_min)
        certified = True
        trailing = None
    else:
        base = heuristic_horizon if heuristic_horizon else r_min
        horizon = MAX_SCAN_FACTOR * max(base, r_min)
        certified = False
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
    )
    return OptimalRadius(radius=radius, certified=certified)


def boundary_set(
    cfg: ArrayConfig,
    tolerances: Tolerances | None = None,
    budget: LinkBudget | None = None,
    angle_policy: AngleSearchPolicy | None = None,
    envelope_policy: EnvelopeSearchPolicy | None = None,
) -> BoundarySet:
    """All seven transition radii for one configuration."""
    tol = tolerances or Tolerances()
    budget = budget or DEFAULT_BUDGET
    angle_policy = angle_policy or AngleSearchPolicy()
    envelope_policy = envelope_policy or EnvelopeSearchPolicy()
    r_min = resolve_r_min(cfg, envelope_policy)
    rayleigh = rayleigh_distance(cfg)
    if cfg.n_elements == 1:
        # zero aperture: both models coincide, every metric is identically zero
        return BoundarySet(
            rayleigh=0.0,
            epf=0.0,
            spf=0.0,
            sspf=0.0,
            opt_linf=r_min,
            opt_l2=r_min,
            opt_se=r_min,
            opt_linf_certified=True,
            opt_l2_certified=True,
            opt_se_certified=True,
        )
    sspf = sspf_distance(cfg, tol.delta_inf)
    spf = spf_distance(cfg, tol.delta_inf)
    epf = epf_distance(cfg, tol.delta_inf, envelope_policy)
    opt_linf = optimal_radius(
        lambda r: e_linf_worst(cfg, r, angle_policy).value,
        tol.delta_inf,
        envelope_policy,
        r_min=r_min,
        analytic_bound=spf,
        batch_metric=lambda rs: e_linf_worst_batch(cfg, rs, angle_policy)[0],
    )
    opt_l2 = optimal_radius(
        lambda r: e_l2_worst(cfg, r, angle_policy).value,
        tol.delta_2,
        envelope_policy,
        r_min=r_min,
        analytic_bound=l2_certification_bound(cfg, tol.delta_2),
        batch_metric=lambda rs: e_l2_worst_batch(cfg, rs, angle_policy)[0],
    )
    opt_se = optimal_radius(
        lambda r: se_loss_worst(cfg, r, budget, angle_policy).value,
        tol.delta_se,
        envelope_policy,
        r_min=r_min,
        heuristic_horizon=max(rayleigh, sspf),
        batch_metric=lambda rs: se_loss_worst_batch(cfg, rs, budget, angle_policy)[0],
    )
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
