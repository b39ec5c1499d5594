"""Array geometry and source-to-element distances for a uniform linear array."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

LIGHT_SPEED = 3.0e8
"""Default propagation speed in m/s (3e8, so half-wave geometries stay exact)."""

MIN_RANGE_M = math.sqrt(sys.float_info.min)
"""Smallest range whose square is a normal float (about 1.49e-154 m).  From
here to MAX_RANGE_M the distance R_0 = r to the first element is positive,
and the worst-case search's clamped cosine keeps 2*r*x_n*(1 - cos) > 0 for
every other element, so no worst-case evaluation raises
DegenerateGeometryError."""

MAX_RANGE_M = math.sqrt(sys.float_info.max)
"""Largest range whose square is finite (about 1.34e154 m); every distance
computation squares the range, so a larger one yields inf and NaN metrics."""

MAX_ELEMENTS = 1_000_000
"""Largest n_elements an ArrayConfig takes, so no per-element vector
(offsets, distances) reaches gigabytes."""


class DegenerateGeometryError(ValueError):
    """The source position coincides with an array element (some R_n == 0)."""


def require_finite(obj) -> None:
    """Reject NaN and infinite fields of a numeric dataclass, naming the field;
    None (an unset optional field) passes."""
    for name, value in vars(obj).items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def require_whole(obj, *names: str) -> None:
    """Reject fractional values of the named count fields of a frozen
    dataclass, naming the field; a whole float (721.0 from a JSON file) is
    stored as the int it stands for."""
    for name in names:
        value = getattr(obj, name)
        if int(value) != value:
            raise ValueError(f"{name} must be an integer, got {value}")
        object.__setattr__(obj, name, int(value))


def require_ranges(name: str, r, aperture: float = 0.0) -> None:
    """Reject any range r below MIN_RANGE_M, NaN included, or with r + aperture
    above MAX_RANGE_M, where the distances to an array's far elements would
    overflow; the message names it and the first offending value."""
    r = np.asarray(r, dtype=float)
    bad = r[~((r >= MIN_RANGE_M) & (r + aperture <= MAX_RANGE_M))]
    if bad.size:
        value = float(bad[0])
        limit = f"at least {MIN_RANGE_M!r}"
        if value + aperture > MAX_RANGE_M:
            less = f" less the aperture {aperture!r}" if aperture else ""
            limit = f"at most {MAX_RANGE_M!r}{less}"
        raise ValueError(f"{name} must be {limit} m, got {value!r}")


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array of isotropic elements on one axis.

    The first element sits at the origin; element n sits at distance n*spacing
    along the array axis.  `spacing` defaults to half the carrier wavelength.
    """

    carrier_freq: float
    n_elements: int
    spacing: float | None = None
    light_speed: float = LIGHT_SPEED

    def __post_init__(self) -> None:
        require_finite(self)
        require_whole(self, "n_elements")
        if self.carrier_freq <= 0:
            raise ValueError(f"carrier_freq must be positive, got {self.carrier_freq}")
        if not 1 <= self.n_elements <= MAX_ELEMENTS:
            raise ValueError(f"n_elements must lie in [1, {MAX_ELEMENTS}], got {self.n_elements}")
        if self.light_speed <= 0:
            raise ValueError(f"light_speed must be positive, got {self.light_speed}")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2.0)
        # a tiny carrier frequency can still overflow the default spacing
        if not 0.0 < self.spacing < math.inf:
            raise ValueError(f"spacing must be finite and positive, got {self.spacing}")
        # 2*k*D bounds every phase gap the metrics compute; one element has
        # none.  Written without the wavelength, which may underflow to 0.
        phase = 4.0 * math.pi * self.carrier_freq / self.light_speed * self.aperture
        if self.aperture and not math.isfinite(phase):
            raise ValueError(f"carrier_freq {self.carrier_freq} Hz and spacing {self.spacing} m "
                             f"(aperture {self.aperture} m) overflow the phase 2*k*D")

    @property
    def wavelength(self) -> float:
        return self.light_speed / self.carrier_freq

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def aperture(self) -> float:
        """Physical array extent (n_elements - 1) * spacing; zero for one element."""
        return (self.n_elements - 1) * self.spacing

    def element_offsets(self) -> np.ndarray:
        """Distances n*spacing of each element from the first one."""
        return self.spacing * np.arange(self.n_elements, dtype=float)


@dataclass(frozen=True)
class PolarPosition:
    """Source location: look angle (rad) and range (m) from the first element.

    `theta` may be any real number; all geometry enters through cos(theta),
    so angles outside [0, pi] are equivalent to their reflection into it.
    """

    theta: float
    range_m: float

    def __post_init__(self) -> None:
        require_finite(self)
        require_ranges("range_m", self.range_m)


def distances(r, nd, cos_t):
    """Source-to-element distances R_n, broadcast over r, nd and cos_t.

    Assembled as (r - nd)^2 + 2*r*nd*(1 - cos) rather than the direct law of
    cosines r^2 + nd^2 - 2*r*nd*cos, which cancels catastrophically near the
    axis; both terms are nonnegative, so the square never dips below zero.
    """
    gap = r - nd
    dist = np.sqrt(gap * gap + (2.0 * r * nd) * (1.0 - cos_t))
    if np.any(dist == 0.0):
        n_bad = int(np.argwhere(dist == 0.0)[0][-1])
        raise DegenerateGeometryError(
            f"the source coincides with array element {n_bad} (R_n = 0)"
        )
    return dist


def element_distances(cfg: ArrayConfig, pos: PolarPosition) -> np.ndarray:
    """Exact source-to-element distances R_n for all n."""
    require_ranges("range_m", pos.range_m, cfg.aperture)
    return distances(pos.range_m, cfg.element_offsets(), math.cos(pos.theta))
