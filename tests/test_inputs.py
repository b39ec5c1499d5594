"""Inputs are validated where they enter: NaN and infinity never get through."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearfield import (
    DEFAULT_BUDGET,
    AngleSearchPolicy,
    ArrayConfig,
    EnvelopeSearchPolicy,
    HorizonExceededError,
    LinkBudget,
    PolarPosition,
    Tolerances,
    cli,
    epf_distance,
    l2_certification_bound,
    l2_mismatch_bound,
    linf_mismatch_bound,
    nmse_bias_approx,
    optimal_radius,
    se_gain_bound,
    se_optimal,
    snr_mismatched,
    spf_distance,
    sspf_distance,
)
from nearfield.sweep import RangeGrid, SweepSpec

HUGE = 10**400  # a whole number beyond the float range

ONE_CONFIG = dict(configs=(ArrayConfig(carrier_freq=1e9, n_elements=4),))

FIELDS = [
    (ArrayConfig, dict(carrier_freq=1e9, n_elements=4), name)
    for name in ("carrier_freq", "n_elements", "spacing", "light_speed")
] + [
    (PolarPosition, dict(theta=0.5, range_m=2.0), name) for name in ("theta", "range_m")
] + [
    (Tolerances, {}, name) for name in ("delta_inf", "delta_2", "delta_se")
] + [
    (LinkBudget, dict(pilot_snr=1e4, data_snr=1e6, pilot_len=64), name)
    for name in ("pilot_snr", "data_snr", "pilot_len")
] + [
    (AngleSearchPolicy, {}, "coarse_grid_points")
] + [
    (EnvelopeSearchPolicy, {}, name) for name in ("r_min", "points_per_decade")
] + [
    (RangeGrid, dict(start=1.0, stop=2.0, points=3), name) for name in ("start", "stop", "points")
] + [
    (SweepSpec, ONE_CONFIG, "auto_grid_points")
]


@pytest.mark.parametrize(
    "make, base, name", FIELDS, ids=[f"{make.__name__}.{name}" for make, _, name in FIELDS]
)
@settings(max_examples=25, deadline=None)
@given(value=st.floats(allow_nan=True, allow_infinity=True))
@example(value=math.nan)
@example(value=math.inf)
@example(value=-math.inf)
def test_non_finite_field_rejected_by_name(make, base, name, value):
    try:
        make(**{**base, name: value})
    except ValueError as exc:
        assert math.isfinite(value) or name in str(exc)
    else:
        assert math.isfinite(value)


COUNTS = [
    (ArrayConfig, dict(carrier_freq=1e9), "n_elements", 4.5),
    (LinkBudget, dict(pilot_snr=1e4, data_snr=1e6), "pilot_len", 63.5),
    (AngleSearchPolicy, {}, "coarse_grid_points", 3.5),
    (EnvelopeSearchPolicy, {}, "points_per_decade", 100.5),
    (RangeGrid, dict(start=1.0, stop=2.0), "points", 2.5),
    (SweepSpec, ONE_CONFIG, "auto_grid_points", 2.5),
]


@pytest.mark.parametrize(
    "make, base, name, value", COUNTS,
    ids=[f"{make.__name__}.{name}" for make, _, name, _ in COUNTS],
)
def test_fractional_count_rejected_by_name(make, base, name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        make(**base, **{name: value})
    # a whole float (as a JSON config file may carry) is stored as an int
    whole = getattr(make(**base, **{name: math.ceil(value) + 0.0}), name)
    assert whole == math.ceil(value) and type(whole) is int
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {HUGE}$"):
        make(**base, **{name: HUGE})


BOUNDARIES = ["boundaries", "--freq-ghz", "28", "--elements", "4"]
# every int flag and count key, with the field that reports it
HUGE_COUNTS = {
    "--elements": (["boundaries", "--freq-ghz", "28", "--elements", str(HUGE)], "n_elements"),
    "--pilot-len": ([*BOUNDARIES, "--pilot-len", str(HUGE)], "pilot_len"),
    "--coarse-angles": ([*BOUNDARIES, "--coarse-angles", str(HUGE)], "coarse_grid_points"),
    "--points-per-decade": ([*BOUNDARIES, "--points-per-decade", str(HUGE)], "points_per_decade"),
    "--r-points": (["curve", "--metric", "linf", "--freq-ghz", "28", "--elements", "4",
                    "--r-start", "1", "--r-stop", "2", "--r-points", str(HUGE)], "points"),
    "--curve-points": (["reproduce", "fig3-se", "--curve-points", str(HUGE)], "auto_grid_points"),
    "budget.pilot_len": ([*BOUNDARIES], "pilot_len"),
    "angle_policy.coarse_grid_points": ([*BOUNDARIES], "coarse_grid_points"),
    "envelope_policy.points_per_decade": ([*BOUNDARIES], "points_per_decade"),
}


@pytest.mark.parametrize("source", HUGE_COUNTS)
def test_a_count_beyond_the_float_range_exits_2_naming_its_field(capsys, tmp_path, source):
    argv, name = HUGE_COUNTS[source]
    if "." in source:
        section, key = source.split(".")
        path = tmp_path / "settings.json"
        path.write_text(f'{{"{section}": {{"{key}": {HUGE}}}}}', encoding="utf-8")
        argv = [*argv, "--config", str(path)]
    elif argv[0] == "reproduce":
        argv = [*argv, "--out-dir", str(tmp_path)]
    code = cli.main(argv)
    assert (code, *capsys.readouterr()) == (2, "", f"error: {name} must be finite, got {HUGE}\n")


def test_inner_solver_tolerances_are_class_constants():
    # no caller varies them, so they are neither fields nor config keys
    for cls, name, value in (
        (AngleSearchPolicy, "refine_tolerance", 1e-6),
        (AngleSearchPolicy, "refine_max_iter", 200),
        (EnvelopeSearchPolicy, "bisection_tol", 1e-8),
    ):
        assert getattr(cls(), name) == value and type(getattr(cls, name)) is type(value)
        with pytest.raises(TypeError, match=name):
            cls(**{name: value})

    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(AngleSearchPolicy) == ["coarse_grid_points"]
    assert names(EnvelopeSearchPolicy) == ["r_min", "points_per_decade"]
    assert names(SweepSpec) == [
        "configs", "metrics", "auto_grid_points", "angle_policy", "envelope_policy",
    ]


# every function a tolerance (or optimal_radius's r_min) enters directly, with
# the argument name it reports
TOLERANCE_ARGS = [
    (sspf_distance, "delta_inf"),
    (spf_distance, "delta_inf"),
    (epf_distance, "delta_inf"),
    (linf_mismatch_bound, "delta_inf"),
    (l2_certification_bound, "delta_2"),
    (l2_mismatch_bound, "delta_2"),
    (lambda cfg, value: se_gain_bound(cfg, value, DEFAULT_BUDGET), "delta_se"),
    (lambda cfg, value: optimal_radius(lambda r: 0.0, value, r_min=1.0, analytic_bound=2.0),
     "delta"),
    (lambda cfg, value: optimal_radius(lambda r: 0.0, 1.0, r_min=value, analytic_bound=2.0),
     "r_min"),
]


@pytest.mark.parametrize(
    "solve, name", TOLERANCE_ARGS,
    ids=["sspf", "spf", "epf", "linf_bound", "l2_certification", "l2_bound",
         "se_gain_bound", "optimal_radius", "optimal_radius_r_min"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_bad_tolerance_rejected_by_name(solve, name, value):
    cfg = ArrayConfig(carrier_freq=300e9, n_elements=4)
    with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {value}$"):
        solve(cfg, value)
    solve(cfg, 1e-3)


# the link functions a gain, eta or mismatch value enters directly
LINK_ARGS = [
    (lambda value: se_optimal(value, DEFAULT_BUDGET), "gain"),
    (lambda value: snr_mismatched(value, 0.5, DEFAULT_BUDGET), "gain"),
    (lambda value: snr_mismatched(1e-9, value, DEFAULT_BUDGET), "eta"),
    (nmse_bias_approx, "e_l2_value"),
]


@pytest.mark.parametrize(
    "call, name", LINK_ARGS, ids=["se_optimal", "snr_mismatched.gain", "snr_mismatched.eta",
                                  "nmse_bias_approx"],
)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, HUGE],
                         ids=["nan", "inf", "-inf", "huge"])
def test_non_finite_link_argument_rejected_by_name(call, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call(value)
    assert math.isfinite(call(0.5))


# optimal_radius's bounds and horizon must be positive; None means "not given".
# A proven_bound of -1.0 used to certify 1.34 m for 1/r at 0.5, which crosses at 2 m.
@pytest.mark.parametrize("name", ["analytic_bound", "heuristic_horizon", "proven_bound"])
@pytest.mark.parametrize("value", [math.nan, -math.inf, 0.0, -1.0])
def test_bad_optimal_radius_bound_rejected_by_name(name, value):
    args = {"r_min": 1.0, "analytic_bound": 10.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be positive, got {value}$"):
        optimal_radius(lambda r: 1.0 / r, 0.5, **args)
    # an infinite one leaves the search no finite horizon
    with pytest.raises(HorizonExceededError, match="not a finite horizon$"):
        optimal_radius(lambda r: 1.0 / r, 0.5, r_min=1.0, **{name: math.inf})
