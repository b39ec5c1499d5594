"""Batch evaluation across configurations and range grids, with CSV output."""

from __future__ import annotations

import math
import os  # noqa: F401  (tests fake the core count through sweep.os)
from dataclasses import asdict, dataclass, field
from typing import IO, Iterable

import numpy as np

from .arrays import (
    MAX_RANGE_M,
    ArrayConfig,
    DegenerateGeometryError,
    require_finite,
    require_whole,
)
from .boundaries import (
    BoundarySet,
    EnvelopeSearchPolicy,
    Tolerances,
    boundary_set,
    resolve_r_min,
)
# the scalar views are unused here, but perfbench/tracing.py wraps them by
# name in this module and fails to install when one is missing
from .link import DEFAULT_BUDGET, LinkBudget, se_loss_worst, se_loss_worst_batch  # noqa: F401
from .metrics import (  # noqa: F401
    AngleSearchPolicy,
    e_l2_worst,
    e_l2_worst_batch,
    e_linf_worst,
    e_linf_worst_batch,
    parallel_map,
    worker_count,  # tests read it through this module
)

METRIC_NAMES = ("linf", "l2", "se")

CURVE_HEADER = "config_id,freq_hz,n_elements,metric,range_m,value,theta_star_rad"
BOUNDARY_HEADER = (
    "config_id,freq_hz,n_elements,rayleigh_m,epf_m,spf_m,sspf_m,"
    "opt_linf_m,opt_l2_m,opt_se_m,opt_se_certified"
)

PRESET_NAMES = ("fig2-linf", "fig2-l2", "fig3-se")

# externally cited radii the presets are expected to land on, for summaries
REFERENCE_RADII = {
    "fig2-linf": {"300GHz-N64": ("opt_linf_m", 56.0013)},
    "fig2-l2": {"300GHz-N64": ("opt_l2_m", 1422.18)},
    "fig3-se": {},
}


@dataclass(frozen=True)
class RangeGrid:
    """Log-spaced range grid; a single-point grid collapses to `start`."""

    start: float
    stop: float
    points: int

    def __post_init__(self) -> None:
        require_finite(self)
        require_whole(self, "points")
        if self.start <= 0:
            raise ValueError("start must be positive")
        if self.points < 1:
            raise ValueError("points must be a positive integer")
        # a single-point grid may end at its start, but never below it
        if self.stop < self.start or (self.points >= 2 and self.stop == self.start):
            raise ValueError(f"stop must lie above start {self.start}, got {self.stop}")
        for name, value in (("start", self.start), ("stop", self.stop)):
            if value > MAX_RANGE_M:
                raise ValueError(f"{name} must be at most {MAX_RANGE_M!r} m, got {value}")

    def values(self) -> np.ndarray:
        return np.geomspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """One batch job: configurations x metrics on a shared or per-config grid."""

    configs: tuple[ArrayConfig, ...]
    metrics: tuple[str, ...] = METRIC_NAMES
    r_grid: RangeGrid | None = None
    auto_grid_points: int = 400
    tolerances: Tolerances = field(default_factory=Tolerances)
    budget: LinkBudget = DEFAULT_BUDGET
    angle_policy: AngleSearchPolicy = field(default_factory=AngleSearchPolicy)
    envelope_policy: EnvelopeSearchPolicy = field(default_factory=EnvelopeSearchPolicy)

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError("configs must be non-empty")
        unknown = [m for m in self.metrics if m not in METRIC_NAMES]
        if unknown:
            raise ValueError(f"unknown metrics {unknown}; choose from {METRIC_NAMES}")
        if self.auto_grid_points < 1:
            raise ValueError("auto_grid_points must be positive")


@dataclass(frozen=True)
class CurveRecord:
    """One evaluated point of a worst-case metric curve."""

    config_id: str
    freq_hz: float
    n_elements: int
    metric: str
    range_m: float
    value: float
    theta_star_rad: float


@dataclass(frozen=True)
class BoundaryRecord:
    """The transition radii of one configuration, tagged for serialization."""

    config_id: str
    freq_hz: float
    n_elements: int
    bounds: BoundarySet


@dataclass(frozen=True)
class SweepResult:
    curves: tuple[CurveRecord, ...]
    boundaries: tuple[BoundaryRecord, ...]
    errors: tuple[str, ...]


def config_id(cfg: ArrayConfig) -> str:
    return f"{cfg.carrier_freq / 1e9:g}GHz-N{cfg.n_elements}"


def curve_records(
    cfg: ArrayConfig, metric: str, grid: np.ndarray, spec: SweepSpec
) -> tuple[list[CurveRecord], list[str]]:
    """Worst-case curve rows of one metric on a range grid, and per-point errors.

    When the grid holds a range below ~2e-162 m, where the source coincides
    with an element, each range is evaluated alone (the same bits) and the
    failing ones become NaN gap markers instead of aborting the curve.
    """
    # module globals, looked up per call, so wrapped names take effect
    batch = {
        "linf": lambda rs: e_linf_worst_batch(cfg, rs, spec.angle_policy),
        "l2": lambda rs: e_l2_worst_batch(cfg, rs, spec.angle_policy),
        "se": lambda rs: se_loss_worst_batch(cfg, rs, spec.budget, spec.angle_policy),
    }[metric]
    errors = []
    try:
        values, thetas = batch(grid)
    except DegenerateGeometryError:
        values = np.empty(len(grid))
        thetas = np.empty(len(grid))
        for i, r in enumerate(grid):
            try:
                values[i : i + 1], thetas[i : i + 1] = batch(grid[i : i + 1])
            except DegenerateGeometryError as exc:
                values[i] = thetas[i] = math.nan
                errors.append(f"{config_id(cfg)}/{metric} at r={float(r)!r}: {exc}")
    return [
        CurveRecord(config_id(cfg), cfg.carrier_freq, cfg.n_elements, metric,
                    float(r), float(v), float(t))
        for r, v, t in zip(grid, values, thetas)
    ], errors


def _config_job(cfg: ArrayConfig, spec: SweepSpec):
    cid = config_id(cfg)
    curves: list[CurveRecord] = []
    errors: list[str] = []
    boundary: BoundaryRecord | None = None
    grid = None if spec.r_grid is None else spec.r_grid.values()
    try:
        bounds = boundary_set(
            cfg, spec.tolerances, spec.budget, spec.angle_policy, spec.envelope_policy
        )
        boundary = BoundaryRecord(
            config_id=cid, freq_hz=cfg.carrier_freq, n_elements=cfg.n_elements, bounds=bounds
        )
        if grid is None:
            r_min = resolve_r_min(cfg, spec.envelope_policy)
            top = max(bounds.rayleigh, bounds.epf, bounds.spf, bounds.sspf, r_min)
            grid = RangeGrid(r_min, 10.0 * top, spec.auto_grid_points).values()
    except Exception as exc:  # keep other configs alive; surface the failure
        errors.append(f"{cid}: {type(exc).__name__}: {exc}")
    if grid is not None:
        for metric in spec.metrics:
            rows, point_errors = curve_records(cfg, metric, grid, spec)
            curves.extend(rows)
            errors.extend(point_errors)
    return curves, boundary, errors


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate every (config, metric) curve and a boundary set per config.

    Configurations run through `metrics.parallel_map`, their kernel calls
    inline on its workers; output order is fixed by (config order, metric
    order, range), so results are identical for any worker count.
    """
    jobs = parallel_map(lambda cfg: _config_job(cfg, spec), spec.configs)
    curves: list[CurveRecord] = []
    boundaries: list[BoundaryRecord] = []
    errors: list[str] = []
    for job_curves, boundary, job_errors in jobs:
        curves.extend(job_curves)
        if boundary is not None:
            boundaries.append(boundary)
        errors.extend(job_errors)
    return SweepResult(curves=tuple(curves), boundaries=tuple(boundaries), errors=tuple(errors))


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _bool(x: bool) -> str:
    return "true" if x else "false"


def curve_csv_lines(curves: Iterable[CurveRecord]) -> list[str]:
    lines = [CURVE_HEADER]
    lines.extend(
        f"{c.config_id},{_fmt(c.freq_hz)},{c.n_elements},{c.metric},"
        f"{_fmt(c.range_m)},{_fmt(c.value)},{_fmt(c.theta_star_rad)}"
        for c in curves
    )
    return lines


def boundary_csv_lines(records: Iterable[BoundaryRecord]) -> list[str]:
    lines = [BOUNDARY_HEADER]
    for rec in records:
        b = rec.bounds
        lines.append(
            f"{rec.config_id},{_fmt(rec.freq_hz)},{rec.n_elements},"
            f"{_fmt(b.rayleigh)},{_fmt(b.epf)},{_fmt(b.spf)},{_fmt(b.sspf)},"
            f"{_fmt(b.opt_linf)},{_fmt(b.opt_l2)},{_fmt(b.opt_se)},"
            f"{_bool(b.opt_se_certified)}"
        )
    return lines


def write_lines(lines: list[str], out: IO[str]) -> None:
    out.write("\n".join(lines) + "\n")


def radius_columns(bounds: BoundarySet) -> dict[str, float]:
    """The seven radii as `<radius>_m` columns, in BoundarySet field order."""
    return {f"{k}_m": v for k, v in asdict(bounds).items() if not k.endswith("_certified")}


def _grid_configs(freqs_ghz, element_counts) -> tuple[ArrayConfig, ...]:
    return tuple(
        ArrayConfig(carrier_freq=f * 1e9, n_elements=n)
        for f in freqs_ghz
        for n in element_counts
    )


def preset(name: str) -> SweepSpec:
    """Bundled sweep presets; tolerances are 1e-3 (per-meter and dimensionless)
    and 0.5 bits/s/Hz, with the documented stand-in link budget."""
    if name == "fig2-linf":
        return SweepSpec(configs=_grid_configs((1, 10, 300), (2, 5, 64)), metrics=("linf",))
    if name == "fig2-l2":
        return SweepSpec(configs=_grid_configs((1, 10, 300), (2, 5, 64)), metrics=("l2",))
    if name == "fig3-se":
        configs = (
            ArrayConfig(carrier_freq=1e9, n_elements=2),
            ArrayConfig(carrier_freq=10e9, n_elements=5),
            ArrayConfig(carrier_freq=300e9, n_elements=10),
        )
        return SweepSpec(configs=configs, metrics=("se",))
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
