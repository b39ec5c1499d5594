"""Output checks, run outside the timed region.

Each function returns a list of failure messages; an empty list means the
output passed.  The reference evaluators are the complex-arithmetic oracles
in ``tests/oracles.py``, which share no code with the library's kernels.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import math
from pathlib import Path

import numpy as np

import nearfield

# On the benchmark's grids the oracles agree with the library to 6e-8
# relative (their direct law of cosines loses digits at long range); the
# checks allow 1e-6, so a perturbation of 1e-5 or more is caught.
RTOL = 1e-6
# an independent angle grid over [0, 2*pi], unrelated to the library's 723
# points on [0, pi]
ORACLE_ANGLES = 1001


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("nearfield_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def close(got: float, want: float, rtol: float = RTOL) -> bool:
    return abs(got - want) <= rtol * abs(want)


def closed_form_errors(cfg, tol, bounds) -> list[str]:
    """rayleigh and sspf against their formulas, spf against its cubic."""
    errors = []
    d_ap, k = cfg.aperture, cfg.wavenumber
    rayleigh = 2.0 * d_ap * d_ap / cfg.wavelength
    if not close(bounds.rayleigh, rayleigh, 1e-12):
        errors.append(f"rayleigh {bounds.rayleigh!r} != 2D^2/lambda {rayleigh!r}")
    sspf = math.sqrt((k * d_ap * d_ap + d_ap) / (2.0 * tol.delta_inf))
    if not close(bounds.sspf, sspf, 1e-12):
        errors.append(f"sspf {bounds.sspf!r} != closed form {sspf!r}")
    r = bounds.spf
    terms = ((2.0 * tol.delta_inf / (d_ap * d_ap)) * r**3, k * r, 1.0)
    residual = terms[0] - terms[1] - terms[2]
    if not abs(residual) <= 1e-9 * max(terms):
        errors.append(f"spf {r!r} leaves cubic residual {residual!r}")
    return errors


def crossing_errors(cfg, tol, budget, bounds, r_min: float, bisection_tol: float) -> list[str]:
    """Each opt_* radius is a crossing of its own worst-case metric."""
    metrics = (
        ("opt_linf", bounds.opt_linf, tol.delta_inf, lambda r: nearfield.e_linf_worst(cfg, r)),
        ("opt_l2", bounds.opt_l2, tol.delta_2, lambda r: nearfield.e_l2_worst(cfg, r)),
        ("opt_se", bounds.opt_se, tol.delta_se,
         lambda r: nearfield.se_loss_worst(cfg, r, budget)),
    )
    errors = []
    for name, radius, delta, worst in metrics:
        at = worst(radius).value
        if not at < delta:
            errors.append(f"{name}={radius!r}: metric {at!r} is not below {delta}")
        if radius == r_min:
            continue
        below = radius * (1.0 - bisection_tol)
        before = worst(below).value
        if not before >= delta:
            errors.append(f"{name}={radius!r}: metric {before!r} at {below!r} is below {delta}")
    return errors


def well_conditioned(cfg, r: float) -> bool:
    """No element offset lies within 0.1% of r, so R_n >= 1e-3 * r at every
    angle and the oracles' direct law of cosines keeps its digits."""
    offsets = cfg.element_offsets()
    return bool(np.min(np.abs(r - offsets)) >= 1e-3 * r)


def _oracle_pair(oracles, cfg, metric: str, budget):
    if metric == "linf":
        return (lambda r, t: oracles.linf_at(cfg, r, t),
                lambda r: oracles.linf_dense_max(cfg, r, ORACLE_ANGLES)[0])
    if metric == "l2":
        return (lambda r, t: oracles.l2_at(cfg, r, t),
                lambda r: oracles.l2_dense_max(cfg, r, ORACLE_ANGLES)[0])
    return (lambda r, t: oracles.se_loss_at(cfg, r, t, budget),
            lambda r: oracles.se_loss_dense_max(cfg, r, budget, ORACLE_ANGLES)[0])


def row_errors(oracles, cfg, metric: str, budget, rows, grid_check: bool = True) -> list[str]:
    """Worst-case rows (range, value, theta_star) against the oracles.

    The value must match the oracle at theta_star, and must not fall below
    the oracle's maximum over its own angle grid.
    """
    at, grid_max = _oracle_pair(oracles, cfg, metric, budget)
    errors = []
    with np.errstate(all="ignore"):
        for r, value, theta in rows:
            want = at(r, theta)
            if not close(value, want):
                errors.append(f"{metric} at r={r!r}: {value!r} != oracle {want!r} at theta*")
            if grid_check:
                floor = grid_max(r)
                if not value >= floor * (1.0 - RTOL):
                    errors.append(f"{metric} at r={r!r}: {value!r} below oracle grid max {floor!r}")
    return errors


def read_curve_text(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def curve_rows(records: list[dict]) -> list[tuple[float, float, float]]:
    return [
        (float(rec["range_m"]), float(rec["value"]), float(rec["theta_star_rad"]))
        for rec in records
    ]


def sample_rows(cfg, rows, k: int, rng) -> list[tuple[float, float, float]]:
    eligible = [row for row in rows if well_conditioned(cfg, row[0])]
    picks = rng.choice(len(eligible), size=min(k, len(eligible)), replace=False)
    return [eligible[i] for i in sorted(picks)]


def _numbers_match(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return g == w or abs(g - w) <= 1e-9 * abs(w)


def bundle_errors(files: dict[str, bytes], ref_dir: Path) -> list[str]:
    """The bundle has the reference's files with the same cells; numbers
    must agree to 1e-9 relative."""
    expected = sorted(p.name for p in ref_dir.iterdir())
    if sorted(files) != expected:
        return [f"bundle files {sorted(files)} != reference {expected}"]
    errors = []
    for name in expected:
        got = files[name].decode("utf-8").splitlines()
        want = (ref_dir / name).read_text(encoding="utf-8").splitlines()
        if len(got) != len(want):
            errors.append(f"{name}: {len(got)} lines != reference {len(want)}")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            gc, wc = g.split(","), w.split(",")
            if len(gc) != len(wc) or not all(map(_numbers_match, gc, wc)):
                errors.append(f"{name} line {i + 1}: {g!r} != reference {w!r}")
                break
    return errors
