"""Command-line front end: boundary queries, metric curves, SE analysis, presets."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .arrays import (
    ArrayConfig,
    DegenerateGeometryError,
    PolarPosition,
    require_number,
    require_ranges,
)
from .boundaries import (
    EnvelopeSearchPolicy,
    HorizonExceededError,
    Tolerances,
    boundary_set,
)
from .link import DEFAULT_BUDGET, require_finite_loss, se_loss, se_loss_worst
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


# One row per setting: (section, --config key, field, flag or None, flag type,
# flag help).  Each command names the sections it takes; a `_db` key or flag
# sets its field to the linear ratio.
_SETTINGS = (
    ("array", "spacing_m", "spacing", "--spacing-m", float,
     "element spacing in meters (default: half wavelength)"),
    ("array", "light_speed", "light_speed", None, None, None),
    ("tolerances", "delta_inf", "delta_inf", "--delta-inf", float, "per-meter tolerance"),
    ("tolerances", "delta_2", "delta_2", "--delta-2", float, "dimensionless tolerance"),
    ("tolerances", "delta_se", "delta_se", "--delta-se", float, "SE tolerance in bits/s/Hz"),
    ("budget", "pilot_snr_db", "pilot_snr", "--pilot-snr-db", float, "pilot SNR in dB"),
    ("budget", "data_snr_db", "data_snr", "--data-snr-db", float, "data SNR in dB"),
    ("budget", "pilot_len", "pilot_len", "--pilot-len", int, "pilot sequence length"),
    ("angle_policy", "coarse_grid_points", "coarse_grid_points", "--coarse-angles", int,
     "coarse angle-grid size override"),
    ("envelope_policy", "r_min", "r_min", None, None, None),
    ("envelope_policy", "points_per_decade", "points_per_decade", "--points-per-decade", int,
     "envelope scan density override"),
)

_CONFIG_SECTIONS = {
    section: tuple(key for s, key, *_ in _SETTINGS if s == section)
    for section in dict.fromkeys(row[0] for row in _SETTINGS)
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # malformed, or an integer past Python's digit limit
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("config file must contain a JSON object")
    for section, body in doc.items():
        if section not in _CONFIG_SECTIONS:
            raise ValueError(f"unknown config section {section!r}")
        if not isinstance(body, dict):
            raise ValueError(f"config section {section!r} must be an object")
        for key, value in body.items():
            if key not in _CONFIG_SECTIONS[section]:
                raise ValueError(f"unknown key {section}.{key}")
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{section}.{key} must be a number, got {value!r}")
    return doc


def _db_to_linear(name: str, db: float) -> float:
    """The linear ratio of `db` decibels; a dB value that is not finite, or a
    ratio that overflows or is 0, is refused by name."""
    require_number(name, db)
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{name} {db} dB overflows as a linear ratio") from None
    if linear == 0.0:
        raise ValueError(f"{name} {db} dB underflows to a zero linear ratio")
    return linear


def _section(args, file_cfg: dict, section: str) -> dict:
    """The fields of `section` that the file or a flag sets, a given flag over
    the file's key.  A dB value becomes its linear ratio, refused under its
    own key or flag; the file's values are converted first."""
    rows = [row for row in _SETTINGS if row[0] == section]
    fields = {key: field for _, key, field, *_ in rows}
    given = [(f"{section}.{key}", key, value) for key, value in file_cfg.get(section, {}).items()]
    # a command without the flag leaves the file's key
    given += [(flag, key, getattr(args, flag[2:].replace("-", "_"), None))
              for _, key, _, flag, *_ in rows if flag]
    return {fields[key]: _db_to_linear(source, value) if key.endswith("_db") else value
            for source, key, value in given if value is not None}


def _add_settings_flags(p: argparse.ArgumentParser, *sections: str) -> None:
    if "array" in sections:
        p.add_argument("--freq-ghz", type=float, required=True, help="carrier frequency in GHz")
        p.add_argument("--elements", type=int, required=True, help="number of array elements")
    for section, _, _, flag, kind, text in _SETTINGS:
        if section in sections and flag:
            p.add_argument(flag, type=kind, help=text)


def _add_config_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="JSON file with default settings")


def cmd_boundaries(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    cfg = ArrayConfig(args.freq_ghz * 1e9, args.elements, **_section(args, file_cfg, "array"))
    tol = Tolerances(**_section(args, file_cfg, "tolerances"))
    budget = dataclasses.replace(DEFAULT_BUDGET, **_section(args, file_cfg, "budget"))
    bounds = boundary_set(
        cfg, tol, budget, AngleSearchPolicy(**_section(args, file_cfg, "angle_policy")),
        EnvelopeSearchPolicy(**_section(args, file_cfg, "envelope_policy")),
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
    cfg = ArrayConfig(args.freq_ghz * 1e9, args.elements, **_section(args, file_cfg, "array"))
    grid = RangeGrid(args.r_start, args.r_stop, args.r_points).values()
    budget = dataclasses.replace(DEFAULT_BUDGET, **_section(args, file_cfg, "budget"))
    angle_policy = AngleSearchPolicy(**_section(args, file_cfg, "angle_policy"))
    require_ranges("stop", args.r_stop, cfg.aperture)
    # curve output needs no transition radii: evaluate the grid directly
    curve = metric_curve(cfg, args.metric, grid, budget, angle_policy)
    if args.metric == "se":
        require_finite_loss(cfg, budget, grid, curve.values)
    lines = curve_csv_lines([curve])
    if args.out == "-":
        write_lines(lines, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_lines(lines, fh)
    return EXIT_OK


def cmd_se(args) -> int:
    file_cfg = _load_config_file(args.config) if args.config else {}
    cfg = ArrayConfig(args.freq_ghz * 1e9, args.elements, **_section(args, file_cfg, "array"))
    budget = dataclasses.replace(DEFAULT_BUDGET, **_section(args, file_cfg, "budget"))
    require_ranges("range_m", args.range_m, cfg.aperture)
    if args.theta_deg is not None:
        theta = math.radians(require_number("theta_deg", args.theta_deg))
    else:
        angle_policy = AngleSearchPolicy(**_section(args, file_cfg, "angle_policy"))
        worst = se_loss_worst(cfg, args.range_m, budget, angle_policy)
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
    curve_points = {} if args.curve_points is None else {"auto_grid_points": args.curve_points}
    spec = dataclasses.replace(
        spec,
        envelope_policy=dataclasses.replace(spec.envelope_policy,
                                            **_section(args, {}, "envelope_policy")),
        angle_policy=dataclasses.replace(spec.angle_policy, **_section(args, {}, "angle_policy")),
        **curve_points,
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
    _add_settings_flags(p, "array", "tolerances", "budget", "angle_policy", "envelope_policy")
    _add_config_flag(p)
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(func=cmd_boundaries)

    p = sub.add_parser("curve", help="worst-case metric curve over a range grid")
    p.add_argument("--metric", required=True, choices=METRIC_NAMES)
    _add_settings_flags(p, "array", "budget", "angle_policy")
    p.add_argument("--r-start", type=float, required=True, help="grid start in meters")
    p.add_argument("--r-stop", type=float, required=True, help="grid stop in meters")
    p.add_argument("--r-points", type=int, required=True, help="number of grid points")
    p.add_argument("--out", default="-", help="output CSV path, - for stdout")
    _add_config_flag(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("se", help="spectral-efficiency report at one range")
    _add_settings_flags(p, "array", "budget")
    p.add_argument("--range-m", type=float, required=True, help="range in meters")
    p.add_argument("--theta-deg", type=float, default=None,
                   help="look angle in degrees (default: worst case)")
    _add_config_flag(p)
    p.add_argument("--json", action="store_true", help="emit a JSON document")
    p.set_defaults(func=cmd_se)

    p = sub.add_parser("reproduce", help="run a bundled preset and write its CSV bundle")
    p.add_argument("preset", choices=PRESET_NAMES)
    p.add_argument("--out-dir", required=True, help="directory for the CSV bundle")
    p.add_argument("--curve-points", type=int, default=None,
                   help="points per curve override")
    _add_settings_flags(p, "angle_policy", "envelope_policy")
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
    # an output path that cannot be written: its message names the path
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
