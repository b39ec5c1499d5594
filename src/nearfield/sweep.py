"""Batch evaluation across configurations and range grids, with CSV output."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import IO, Iterable

import numpy as np

from .arrays import ArrayConfig, require_number, require_ranges
from .boundaries import (
    MAX_GRID_POINTS,
    BoundarySet,
    EnvelopeSearchPolicy,
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
    "fig2-linf": {"300GHz-N64": 56.0013},
    "fig2-l2": {"300GHz-N64": 1422.18},
}


@dataclass(frozen=True)
class RangeGrid:
    """Log-spaced range grid; a single-point grid collapses to `start`."""

    start: float
    stop: float
    points: int

    def __post_init__(self) -> None:
        require_ranges("start", require_number("start", self.start))
        object.__setattr__(self, "points", require_number(
            "points", self.points, 1, MAX_GRID_POINTS, whole=True))
        # a single-point grid may end at its start, a longer one only above it
        low = self.start if self.points == 1 else np.nextafter(self.start, np.inf)
        require_ranges("stop", require_number("stop", self.stop, low))

    def values(self) -> np.ndarray:
        return np.geomspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """One batch job: configurations x metrics, each on a grid from its own radii."""

    configs: tuple[ArrayConfig, ...]
    metrics: tuple[str, ...] = METRIC_NAMES
    auto_grid_points: int = 400
    angle_policy: AngleSearchPolicy = field(default_factory=AngleSearchPolicy)
    envelope_policy: EnvelopeSearchPolicy = field(default_factory=EnvelopeSearchPolicy)

    def __post_init__(self) -> None:
        if not self.configs:
            raise ValueError("configs must be non-empty")
        unknown = [m for m in self.metrics if m not in METRIC_NAMES]
        if unknown:
            raise ValueError(f"unknown metrics {unknown}; choose from {METRIC_NAMES}")
        object.__setattr__(self, "auto_grid_points", require_number(
            "auto_grid_points", self.auto_grid_points, 1, MAX_GRID_POINTS, whole=True))


@dataclass(frozen=True)
class Curve:
    """A worst-case metric curve of one configuration: the value and the
    maximizing look angle at each range of a grid."""

    cfg: ArrayConfig
    metric: str
    ranges: np.ndarray
    values: np.ndarray
    thetas: np.ndarray


@dataclass(frozen=True)
class ConfigSweep:
    """What a sweep computed for one configuration.  A failed configuration
    keeps the radii and curves finished before `error` stopped it."""

    cfg: ArrayConfig
    bounds: BoundarySet | None
    curves: tuple[Curve, ...]
    error: Exception | None


def config_id(cfg: ArrayConfig) -> str:
    return f"{cfg.carrier_freq / 1e9:g}GHz-N{cfg.n_elements}"


def metric_curve(
    cfg: ArrayConfig, metric: str, grid: np.ndarray, budget: LinkBudget, policy: AngleSearchPolicy
) -> Curve:
    """The worst-case curve of one metric on a range grid."""
    # module globals, looked up per call, so wrapped names take effect
    values, thetas = {
        "linf": lambda: e_linf_worst_batch(cfg, grid, policy),
        "l2": lambda: e_l2_worst_batch(cfg, grid, policy),
        "se": lambda: se_loss_worst_batch(cfg, grid, budget, policy),
    }[metric]()
    return Curve(cfg, metric, grid, values, thetas)


def _config_job(cfg: ArrayConfig, spec: SweepSpec) -> ConfigSweep:
    bounds, curves, error = None, [], None
    try:
        bounds = boundary_set(
            cfg, angle_policy=spec.angle_policy, envelope_policy=spec.envelope_policy
        )
        r_min = resolve_r_min(cfg, spec.envelope_policy)
        top = max(bounds.rayleigh, bounds.epf, bounds.spf, bounds.sspf, r_min)
        grid = RangeGrid(r_min, 10.0 * top, spec.auto_grid_points).values()
        for metric in spec.metrics:
            curves.append(metric_curve(cfg, metric, grid, DEFAULT_BUDGET, spec.angle_policy))
    except Exception as exc:  # keep other configs alive; record the failure
        error = exc.with_traceback(None)  # its frames would keep the arrays alive
    return ConfigSweep(cfg, bounds, tuple(curves), error)


def run_sweep(spec: SweepSpec) -> list[ConfigSweep]:
    """Boundary set and one curve per metric for every configuration, one
    record per configuration in config order.

    Configurations run through `metrics.parallel_map`, their kernel calls
    inline on its workers, so results are identical for any worker count.
    """
    return parallel_map(lambda cfg: _config_job(cfg, spec), spec.configs)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _config_cells(cfg: ArrayConfig) -> str:
    """The `config_id,freq_hz,n_elements` cells that start every CSV row."""
    return f"{config_id(cfg)},{_fmt(cfg.carrier_freq)},{cfg.n_elements}"


def curve_csv_lines(curves: Iterable[Curve]) -> list[str]:
    lines = [CURVE_HEADER]
    for c in curves:
        head = f"{_config_cells(c.cfg)},{c.metric}"
        lines.extend(
            f"{head},{_fmt(r)},{_fmt(v)},{_fmt(t)}" for r, v, t in zip(c.ranges, c.values, c.thetas)
        )
    return lines


def boundary_csv_lines(records: Iterable[ConfigSweep]) -> list[str]:
    """The boundary CSV of every record that has radii."""
    lines = [BOUNDARY_HEADER]
    for rec in records:
        if rec.bounds is not None:
            radii = ",".join(_fmt(v) for v in radius_columns(rec.bounds).values())
            certified = "true" if rec.bounds.opt_se_certified else "false"
            lines.append(f"{_config_cells(rec.cfg)},{radii},{certified}")
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
    """Bundled sweep presets.  Like every sweep they use the default tolerances,
    1e-3 (per-meter and dimensionless) and 0.5 bits/s/Hz, and DEFAULT_BUDGET."""
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
