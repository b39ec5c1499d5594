"""Command-line front end: boundary queries, metric curves, SE analysis, presets."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .arrays import ArrayConfig, DegenerateGeometryError, PolarPosition
from .boundaries import (
    EnvelopeSearchPolicy,
    HorizonExceededError,
    Tolerances,
    boundary_set,
)
from .link import LinkBudget, DEFAULT_BUDGET, se_loss, se_loss_worst
from .metrics import THETA_OPEN_MIN, AngleSearchPolicy, worker_count
from .sweep import (
    METRIC_NAMES,
    PRESET_NAMES,
    REFERENCE_RADII,
    RangeGrid,
    boundary_csv_lines,
    config_id,
    curve_csv_lines,
    metric_curve,
    preset,
    radius_columns,
    run_sweep,
    write_lines,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3


class CliConfigError(ValueError):
    """The --config file is malformed or contains invalid values."""


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


# settings sections take their keys from the dataclass fields; `array` and
# `budget` keys are file names (spacing_m, *_snr_db in dB), not field names
_CONFIG_SECTIONS = {
    "array": ("spacing_m", "light_speed"),
    "tolerances": _field_names(Tolerances),
    "budget": ("pilot_snr_db", "data_snr_db", "pilot_len"),
    "angle_policy": _field_names(AngleSearchPolicy),
    "envelope_policy": _field_names(EnvelopeSearchPolicy),
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliConfigError("config file must contain a JSON object")
    for section, body in doc.items():
        if section not in _CONFIG_SECTIONS:
            raise CliConfigError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise CliConfigError(f"config section {section!r} must be an object")
        for key, value in body.items():
            if key not in _CONFIG_SECTIONS[section]:
                raise CliConfigError(f"unknown key {section}.{key}")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise CliConfigError(f"{section}.{key} must be a number, got {value!r}")
    return doc


def _overlay(base, file_section: dict, **flags):
    """`base` with config-file values over it and the flags that were given
    (not None) over those: CLI flag > config file > `base`."""
    given = {k: v for k, v in flags.items() if v is not None}
    return dataclasses.replace(base, **{**file_section, **given})


def _db_to_linear(name: str, db: float | None) -> float | None:
    """The linear ratio of `db` decibels; one that overflows or is 0 is refused by name."""
    try:
        linear = None if db is None else 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{name} {db} dB overflows as a linear ratio") from None
    if linear == 0.0:
        raise ValueError(f"{name} {db} dB underflows to a zero linear ratio")
    return linear


def _budget_from(args, file_cfg: dict) -> LinkBudget:
    section = {
        key.removesuffix("_db"): _db_to_linear(f"budget.{key}", value)
        if key.endswith("_db") else value
        for key, value in file_cfg.get("budget", {}).items()
    }
    return _overlay(DEFAULT_BUDGET, section,
                    pilot_snr=_db_to_linear("--pilot-snr-db", args.pilot_snr_db),
                    data_snr=_db_to_linear("--data-snr-db", args.data_snr_db),
                    pilot_len=args.pilot_len)


def _tolerances_from(args, file_cfg: dict) -> Tolerances:
    return _overlay(Tolerances(), file_cfg.get("tolerances", {}),
                    delta_inf=args.delta_inf, delta_2=args.delta_2, delta_se=args.delta_se)


def _array_from(args, file_cfg: dict) -> ArrayConfig:
    section = {
        "spacing" if key == "spacing_m" else key: value
        for key, value in file_cfg.get("array", {}).items()
    }
    if args.spacing_m is not None:
        section["spacing"] = args.spacing_m
    return ArrayConfig(carrier_freq=args.freq_ghz * 1e9, n_elements=args.elements, **section)


def _angle_policy_from(args, file_cfg: dict) -> AngleSearchPolicy:
    # `se` has no --coarse-angles flag
    return _overlay(AngleSearchPolicy(), file_cfg.get("angle_policy", {}),
                    coarse_grid_points=getattr(args, "coarse_angles", None))


def _envelope_policy_from(args, file_cfg: dict) -> EnvelopeSearchPolicy:
    return _overlay(EnvelopeSearchPolicy(), file_cfg.get("envelope_policy", {}),
                    points_per_decade=args.points_per_decade)


def _add_array_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--freq-ghz", type=float, required=True, help="carrier frequency in GHz")
    p.add_argument("--elements", type=int, required=True, help="number of array elements")
    p.add_argument("--spacing-m", type=float, default=None, dest="spacing_m",
                   help="element spacing in meters (default: half wavelength)")


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pilot-snr-db", type=float, default=None, help="pilot SNR in dB")
    p.add_argument("--data-snr-db", type=float, default=None, help="data SNR in dB")
    p.add_argument("--pilot-len", type=int, default=None, help="pilot sequence length")


def _add_tolerance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta-inf", type=float, default=None, help="per-meter tolerance")
    p.add_argument("--delta-2", type=float, default=None, help="dimensionless tolerance")
    p.add_argument("--delta-se", type=float, default=None, help="SE tolerance in bits/s/Hz")


def _add_angle_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coarse-angles", type=int, default=None,
                   help="coarse angle-grid size override")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points-per-decade", type=int, default=None,
                   help="envelope scan density override")
    _add_angle_flag(p)


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON file with default settings")


def cmd_boundaries(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    cfg = _array_from(args, file_cfg)
    tol = _tolerances_from(args, file_cfg)
    budget = _budget_from(args, file_cfg)
    bounds = boundary_set(
        cfg, tol, budget, _angle_policy_from(args, file_cfg), _envelope_policy_from(args, file_cfg)
    )
    if args.json:
        doc = {
            "schema": 1,
            "config": {
                "freq_hz": cfg.carrier_freq,
                "n_elements": cfg.n_elements,
                "spacing_m": cfg.spacing,
                "light_speed": cfg.light_speed,
            },
            "tolerances": dataclasses.asdict(tol),
            "budget": dataclasses.asdict(budget),
            "boundaries": {
                **radius_columns(bounds),
                **{k: v for k, v in dataclasses.asdict(bounds).items()
                   if k.endswith("_certified")},
            },
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    print(f"configuration: {cfg.carrier_freq / 1e9:g} GHz, {cfg.n_elements} elements, "
          f"spacing {cfg.spacing:g} m")
    print(f"{'boundary':<10} {'meters':<22} certified")
    for column, value in radius_columns(bounds).items():
        name = column.removesuffix("_m")
        certified = getattr(bounds, f"{name}_certified", None)
        mark = "" if certified is None else "yes" if certified else "no"
        print(f"{name:<10} {value:<22.12g} {mark}")
    return EXIT_OK


def cmd_curve(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    cfg = _array_from(args, file_cfg)
    grid = RangeGrid(args.r_start, args.r_stop, args.r_points).values()
    # curve output needs no transition radii: evaluate the grid directly
    curve = metric_curve(
        cfg, args.metric, grid, _budget_from(args, file_cfg), _angle_policy_from(args, file_cfg)
    )
    lines = curve_csv_lines([curve])
    if args.out == "-":
        write_lines(lines, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_lines(lines, fh)
    return EXIT_OK


def cmd_se(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    cfg = _array_from(args, file_cfg)
    budget = _budget_from(args, file_cfg)
    if args.theta_deg is not None:
        pos = PolarPosition(theta=math.radians(args.theta_deg), range_m=args.range_m)
        report = se_loss(cfg, pos, budget)
        theta = pos.theta
    else:
        worst = se_loss_worst(cfg, args.range_m, budget, _angle_policy_from(args, file_cfg))
        # a worst angle on the grid endpoint needs the open-interval floor to
        # re-evaluate without touching the array axis
        theta = max(worst.theta_star, THETA_OPEN_MIN)
        report = se_loss(cfg, PolarPosition(theta=theta, range_m=args.range_m), budget)
    if args.json:
        doc = {
            "schema": 1,
            "range_m": args.range_m,
            "theta_rad": theta,
            "theta_is_worst_case": args.theta_deg is None,
            "se_opt": report.se_opt,
            "se_mis": report.se_mis,
            "delta_se": report.delta_se,
            "eta": report.eta,
            "gain": report.gain,
            "nmse_lower_bound": report.nmse_floor,
        }
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    label = "worst-case" if args.theta_deg is None else "given"
    print(f"range_m           {args.range_m:g}")
    print(f"theta_rad         {theta:.9g} ({label})")
    print(f"se_opt            {report.se_opt:.6g} bits/s/Hz")
    print(f"se_mis            {report.se_mis:.6g} bits/s/Hz")
    print(f"delta_se          {report.delta_se:.6g} bits/s/Hz")
    print(f"eta               {report.eta:.9g}")
    print(f"gain              {report.gain:.9g}")
    print(f"nmse_lower_bound  {report.nmse_floor:.9g}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    spec = preset(args.preset)
    spec = _overlay(
        spec, {},
        envelope_policy=_overlay(spec.envelope_policy, {},
                                 points_per_decade=args.points_per_decade),
        angle_policy=_overlay(spec.angle_policy, {}, coarse_grid_points=args.coarse_angles),
        auto_grid_points=args.curve_points,
    )
    out_dir = Path(args.out_dir) / args.preset
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_sweep(spec)
    for rec in results:
        # curves come in metric order; a failed config may stop short of them
        for i, metric in enumerate(spec.metrics):
            name = f"curve_{config_id(rec.cfg)}_{metric}.csv"
            with open(out_dir / name, "w", encoding="utf-8") as fh:
                write_lines(curve_csv_lines(rec.curves[i : i + 1]), fh)
    with open(out_dir / "boundaries.csv", "w", encoding="utf-8") as fh:
        write_lines(boundary_csv_lines(results), fh)
    references = REFERENCE_RADII.get(args.preset, {})
    primary = spec.metrics[0]
    for rec in results:
        if rec.bounds is None:
            continue
        cid, value = config_id(rec.cfg), getattr(rec.bounds, f"opt_{primary}")
        line = f"opt_{primary}({cid}) = {value:.6g} m"
        if cid in references:
            ref = references[cid]
            line += f" (reference: {ref:g} m, diff {100.0 * (value - ref) / ref:+.2f}%)"
        if not getattr(rec.bounds, f"opt_{primary}_certified"):
            line += " [not certified; qualitative, depends on the link budget]"
        print(line)
    print(f"wrote {len(spec.configs) * len(spec.metrics)} curve files and boundaries.csv "
          f"to {out_dir}")
    failed = [rec for rec in results if rec.error is not None]
    for rec in failed:
        print(f"{config_id(rec.cfg)}: {type(rec.error).__name__}: {rec.error}", file=sys.stderr)
    if failed:
        raise failed[0].error  # main maps its class to the exit code
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearfield",
        description="Near-field to far-field transition distances for uniform linear arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("boundaries", help="all transition radii for one configuration")
    _add_array_flags(p)
    _add_tolerance_flags(p)
    _add_budget_flags(p)
    _add_solver_flags(p)
    _add_config_flag(p)
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(func=cmd_boundaries)

    p = sub.add_parser("curve", help="worst-case metric curve over a range grid")
    p.add_argument("--metric", required=True, choices=METRIC_NAMES)
    _add_array_flags(p)
    p.add_argument("--r-start", type=float, required=True, help="grid start in meters")
    p.add_argument("--r-stop", type=float, required=True, help="grid stop in meters")
    p.add_argument("--r-points", type=int, required=True, help="number of grid points")
    p.add_argument("--out", default="-", help="output CSV path, - for stdout")
    _add_budget_flags(p)
    _add_angle_flag(p)
    _add_config_flag(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("se", help="spectral-efficiency report at one range")
    _add_array_flags(p)
    p.add_argument("--range-m", type=float, required=True, help="range in meters")
    p.add_argument("--theta-deg", type=float, default=None,
                   help="look angle in degrees (default: worst case)")
    _add_budget_flags(p)
    _add_config_flag(p)
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(func=cmd_se)

    p = sub.add_parser("reproduce", help="run a bundled preset and write its CSV bundle")
    p.add_argument("preset", choices=PRESET_NAMES)
    p.add_argument("--out-dir", required=True, help="directory for the CSV bundle")
    p.add_argument("--curve-points", type=int, default=None,
                   help="points per curve override")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        worker_count()  # reject a bad NEARFIELD_THREADS before any command runs
        return args.func(args)
    # DegenerateGeometryError is a ValueError, so the solver errors go first
    except (HorizonExceededError, DegenerateGeometryError, ArithmeticError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
