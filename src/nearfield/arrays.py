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


def require_number(name: str, value, low=-math.inf, high=math.inf, *,
                   positive: bool = False, whole: bool = False):
    """`value` if it is a finite number (an int beyond the float range is
    not), above 0 when `positive` and in [low, high]; with `whole` it must
    be an integer and comes back as the int it stands for (721.0 from a JSON
    file is 721).  Otherwise ValueError names `name` and the value."""
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if positive and not (finite and value > 0):
        rule = "be finite and positive"
    elif not finite:
        rule = "be finite"
    elif whole and int(value) != value:
        rule = "be an integer"
    elif not low <= value <= high:
        rule = f"be at least {low}" if high == math.inf else f"lie in [{low}, {high}]"
    else:
        return int(value) if whole else value
    raise ValueError(f"{name} must {rule}, got {_shown(value)}")


def _shown(value) -> str:
    """`value` as a message prints it; an int past Python's limit on integer
    string conversion by its sign and number of digits."""
    try:
        return f"{value}"
    except ValueError:
        size = abs(value)
        digits = int((size.bit_length() - 1) * math.log10(2.0)) + 1  # or one more
        digits += size >= 10**digits
        return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"


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
        require_number("carrier_freq", self.carrier_freq, positive=True)
        object.__setattr__(self, "n_elements", require_number(
            "n_elements", self.n_elements, 1, MAX_ELEMENTS, whole=True))
        require_number("light_speed", self.light_speed, positive=True)
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2.0)
        # a tiny carrier frequency can still overflow the default spacing
        require_number("spacing", self.spacing, positive=True)
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
        require_number("theta", self.theta)
        require_ranges("range_m", require_number("range_m", self.range_m))


def distances(r, nd, cos_t, out=None):
    """Source-to-element distances R_n, broadcast over r, nd and cos_t, into
    `out` when given.

    Assembled as (r - nd)^2 + 2*r*nd*(1 - cos) rather than the direct law of
    cosines r^2 + nd^2 - 2*r*nd*cos, which cancels catastrophically near the
    axis; both terms are nonnegative, so the square never dips below zero.
    """
    gap = r - nd
    dist = np.multiply(2.0 * r * nd, 1.0 - cos_t, out=out)
    dist = np.sqrt(np.add(gap * gap, dist, out=dist), out=dist)
    if not dist.all():  # NaN counts as nonzero
        n_bad = int(np.argwhere(dist == 0.0)[0][-1])
        raise DegenerateGeometryError(
            f"the source coincides with array element {n_bad} (R_n = 0)"
        )
    return dist


def element_distances(cfg: ArrayConfig, pos: PolarPosition) -> np.ndarray:
    """Exact source-to-element distances R_n for all n."""
    require_ranges("range_m", pos.range_m, cfg.aperture)
    return distances(pos.range_m, cfg.element_offsets(), math.cos(pos.theta))
