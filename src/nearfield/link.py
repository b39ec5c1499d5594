"""Spectral efficiency and estimation penalties of planar-wavefront combining."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, PolarPosition, element_distances, require_finite, require_whole
from .metrics import (
    AngleSearchPolicy,
    MetricSample,
    array_gain_efficiency,
    eta_and_inv2_sum,
    geometry,
    worst_over_angle_batch,
)

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class LinkBudget:
    """Linear pilot/data SNRs and pilot length for the estimation model."""

    pilot_snr: float
    data_snr: float
    pilot_len: int

    def __post_init__(self) -> None:
        require_finite(self)
        require_whole(self, "pilot_len")
        if self.pilot_snr <= 0:
            raise ValueError("pilot_snr must be positive")
        if self.data_snr < 0:
            raise ValueError("data_snr must be nonnegative")
        if self.pilot_len < 1:
            raise ValueError("pilot_len must be a positive integer")


DEFAULT_BUDGET = LinkBudget(pilot_snr=1e4, data_snr=1e6, pilot_len=64)
"""Stand-in budget for the bundled presets: data SNR 60 dB, pilot SNR 40 dB,
64 pilot symbols.  Chosen so matched-filter SE at the presets' classical
transition ranges lands in the 5-15 bits/s/Hz band while the worst-case SE
loss there clears the presets' 0.5 bits/s/Hz budget.  Always overridable."""


@dataclass(frozen=True)
class SEReport:
    """Matched-filter vs mismatched-combiner SE, and the NMSE floor, at one position."""

    se_opt: float
    se_mis: float
    delta_se: float
    eta: float
    gain: float
    nmse_floor: float


def channel_gain(cfg: ArrayConfig, pos: PolarPosition) -> float:
    """Squared channel norm G = sum_n (lambda/(4*pi*R_n))^2."""
    dist = element_distances(cfg, pos)
    amp = cfg.wavelength / (4.0 * math.pi)
    return float((amp * amp) * np.sum(1.0 / (dist * dist)))


def se_optimal(gain: float, budget: LinkBudget) -> float:
    """Matched-filter spectral efficiency log2(1 + data_snr * G)."""
    if gain < 0:
        raise ValueError("gain must be nonnegative")
    return math.log1p(budget.data_snr * gain) / _LN2


def _snr_mismatched(gain, eta, budget: LinkBudget):
    """snr_mismatched without input checks, for floats or numpy arrays alike."""
    pilot_energy = budget.pilot_len * budget.pilot_snr
    num = eta * eta * gain * gain * budget.data_snr
    den = gain * eta * budget.data_snr / pilot_energy + eta * gain + 1.0 / pilot_energy
    # the ratio never exceeds eta*G*rho_d algebraically; keep that exact in floats
    return np.minimum(num / den, eta * gain * budget.data_snr)


def snr_mismatched(gain: float, eta: float, budget: LinkBudget) -> float:
    """Post-combiner SNR when the combiner is estimated on the planar subspace.

    eta is the array-gain efficiency; the pilot-noise terms keep this strictly
    below eta * G * data_snr for any finite pilot energy.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if not (math.isfinite(gain) and gain > 0):
        raise ValueError(f"gain must be finite and positive, got {gain}")
    return float(_snr_mismatched(gain, eta, budget))


def require_finite_loss(cfg: ArrayConfig, budget: LinkBudget, ranges, losses) -> None:
    """Refuse the first SE loss that is NaN or infinite with ValueError,
    naming the inputs behind it."""
    bad = np.flatnonzero(~np.isfinite(losses))
    if bad.size:
        pilot_energy = budget.pilot_len * budget.pilot_snr
        raise ValueError(f"carrier_freq {cfg.carrier_freq} Hz, range_m {ranges[bad[0]]}, pilot "
                         f"energy {pilot_energy} and data_snr {budget.data_snr} give SE loss "
                         f"{losses[bad[0]]}, which must be finite")


def se_loss(cfg: ArrayConfig, pos: PolarPosition, budget: LinkBudget) -> SEReport:
    """SE penalty of planar-subspace estimation and combining at one position.

    A position whose gain G, or whose NMSE noise term 1/(pilot energy * G),
    is not finite and positive in floats is refused with ValueError, and so
    is one whose SE loss is not finite.
    """
    # products past the float range; what they leave non-finite is refused below
    with np.errstate(all="ignore"):
        gain = channel_gain(cfg, pos)
        pilot_energy = budget.pilot_len * budget.pilot_snr
        noise = 1.0 / (pilot_energy * gain) if pilot_energy * gain > 0.0 else math.inf
        if not (0.0 < gain < math.inf and 0.0 < noise < math.inf):
            raise ValueError(f"carrier_freq {cfg.carrier_freq} Hz, range_m {pos.range_m} and "
                             f"pilot energy {pilot_energy} give gain {gain} and NMSE noise term "
                             f"{noise}; both must be finite and positive")
        eta = array_gain_efficiency(cfg, pos)
        se_opt = se_optimal(gain, budget)
        se_mis = math.log1p(snr_mismatched(gain, eta, budget)) / _LN2
    delta_se = se_opt - se_mis
    require_finite_loss(cfg, budget, [pos.range_m], [delta_se])
    return SEReport(se_opt=se_opt, se_mis=se_mis, delta_se=delta_se, eta=eta, gain=gain,
                    nmse_floor=(1.0 - eta) + noise)


def _se_loss_grid(budget: LinkBudget):
    def grid_fn(cfg: ArrayConfig, r: np.ndarray, cos_t: np.ndarray) -> np.ndarray:
        dist, _, dphi = geometry(cfg, r, cos_t)
        inv = np.divide(1.0, dist, out=dist)
        eta, inv2_sum = eta_and_inv2_sum(cfg.n_elements, inv, dphi)
        amp = cfg.wavelength / (4.0 * math.pi)
        gain = (amp * amp) * inv2_sum
        snr_opt = budget.data_snr * gain
        return (np.log1p(snr_opt) - np.log1p(_snr_mismatched(gain, eta, budget))) / _LN2

    return grid_fn


def se_loss_worst(
    cfg: ArrayConfig,
    r: float,
    budget: LinkBudget,
    policy: AngleSearchPolicy | None = None,
) -> MetricSample:
    """Worst-case SE loss over the look angle at range r, in bits/s/Hz."""
    values, thetas = se_loss_worst_batch(cfg, np.array([r], dtype=float), budget, policy)
    return MetricSample(range_m=r, value=float(values[0]), theta_star=float(thetas[0]))


def se_loss_worst_batch(
    cfg: ArrayConfig,
    r_values,
    budget: LinkBudget,
    policy: AngleSearchPolicy | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector form of se_loss_worst: (values, theta_stars) for an array of ranges.

    A gain near the float limits overflows the SE products without a
    warning.  Where the loss keeps a finite limit (_snr_mismatched's minimum
    takes it) that limit is the value; otherwise the value is NaN or
    infinite, for require_finite_loss to refuse.
    """
    # one error state for the whole search: parallel_map carries it to the pool
    with np.errstate(all="ignore"):
        return worst_over_angle_batch(
            cfg, r_values, policy or AngleSearchPolicy(), _se_loss_grid(budget)
        )


def se_loss_bound(cfg: ArrayConfig, budget: LinkBudget, ranges) -> np.ndarray:
    """Upper bound U(r) on the worst-case SE loss over the look angle at each
    range, as the kernel computes it; inf where no bound holds.

    Write A = (lambda/(4*pi))^2, x_n = n*d and rho_d = data_snr, and take
    r > D.  The loss at angle theta is
    L = log2(1 + rho_d*G) - log2(1 + s(G, eta)), s = _snr_mismatched.

    - Gain.  R_n^2 = (r - x_n)^2 + 2*r*x_n*(1 - cos) puts R_n in
      [r - x_n, r + x_n], so G_l = A*sum_n 1/(r + x_n)^2 <= G <= G_e =
      A*sum_n 1/(r - x_n)^2.
    - Phase.  dphi_n = k*x_n^2*sin^2 / (R_n + r - x_n*cos), and
      R_n >= r - x_n*cos >= r - x_n, so dphi_n lies in [0, Phi_n] with
      Phi_n = k*x_n^2 / (2*(r - x_n)).
    - eta = |sum_n e^{j*dphi_n}/R_n|^2 / (N*sum_n 1/R_n^2).  Each real part
      cos(dphi_n)/R_n is at least c_n: cos(Phi_n)/(r + x_n) when
      Phi_n <= pi/2, where the cosine is nonnegative, else
      cos(min(Phi_n, pi))/(r - x_n).  The modulus is at least the real part,
      so eta >= eta_l = max(0, sum_n c_n)^2 / (N*sum_n 1/(r - x_n)^2).
    - Monotonicity.  With y = eta*G, a = rho_d/E + 1 and b = 1/E for the pilot
      energy E, s = min(rho_d*y^2/(a*y + b), rho_d*y), and
      d/dy [rho_d*y^2/(a*y + b)] = rho_d*y*(a*y + 2*b)/(a*y + b)^2 >= 0, so s
      is nondecreasing in y >= 0, hence in eta and in G.

    So L <= log2(1 + rho_d*G_e) - log2(1 + s(G_l, eta_l)) at every angle.
    U adds 1e-9*(1 + log2(1 + rho_d*G_e)) to it, far above the kernel's
    rounding of about 1e-15*(1 + L), so U bounds the kernel's values too.
    At eta_l = 0, U < delta_se is, up to that allowance, the end-fire gain
    bound's criterion rho_d*G_e < 2^delta_se - 1.  U is inf at r <= D, where G_l underflows to
    0 (the kernel's gain does too) and where any term is not finite.
    """
    r = np.asarray(ranges, dtype=float)[:, None]
    x = cfg.element_offsets()
    amp = cfg.wavelength / (4.0 * math.pi)
    # float-edge terms come out inf, 0 or NaN; the check below refuses them
    with np.errstate(all="ignore"):
        near, far = r - x, r + x
        inv_near2 = (1.0 / (near * near)).sum(axis=1)
        gain_hi = (amp * amp) * inv_near2
        gain_lo = (amp * amp) * (1.0 / (far * far)).sum(axis=1)
        phi = cfg.wavenumber * x * x / (2.0 * near)
        c = np.where(phi <= 0.5 * math.pi, np.cos(phi) / far,
                     np.cos(np.minimum(phi, math.pi)) / near)
        eta_lo = np.maximum(c.sum(axis=1), 0.0) ** 2 / (cfg.n_elements * inv_near2)
        se_hi = np.log1p(budget.data_snr * gain_hi) / _LN2
        bound = (se_hi - np.log1p(_snr_mismatched(gain_lo, eta_lo, budget)) / _LN2
                 + 1e-9 * (1.0 + se_hi))
    ok = (r[:, 0] > cfg.aperture) & (gain_lo > 0.0) & np.isfinite(bound)
    return np.where(ok, bound, np.inf)


def nmse_lower_bound(cfg: ArrayConfig, pos: PolarPosition, budget: LinkBudget) -> float:
    """Floor of the planar-constrained estimator's NMSE: (1 - eta) + noise term."""
    return se_loss(cfg, pos, budget).nmse_floor


def nmse_bias_approx(e_l2_value: float) -> float:
    """Small-mismatch bias approximation 1 - (1 - x^2/2)^2 of the NMSE floor."""
    if e_l2_value < 0:
        raise ValueError("mismatch value must be nonnegative")
    half_sq = 0.5 * e_l2_value * e_l2_value
    return 1.0 - (1.0 - half_sq) * (1.0 - half_sq)
