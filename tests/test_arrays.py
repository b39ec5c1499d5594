import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearfield import (
    ArrayConfig,
    DegenerateGeometryError,
    PolarPosition,
    e_linf_at,
    element_distances,
)
from nearfield.arrays import MAX_RANGE_M, MIN_RANGE_M


def test_config_invariants():
    cfg = ArrayConfig(carrier_freq=300e9, n_elements=64)
    assert cfg.wavelength == pytest.approx(1e-3)
    assert cfg.wavenumber == pytest.approx(2000 * math.pi)
    assert cfg.spacing == pytest.approx(5e-4)  # defaults to half wavelength
    assert cfg.aperture == pytest.approx(63 * 5e-4)
    assert ArrayConfig(carrier_freq=1e9, n_elements=1).aperture == 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(carrier_freq=0.0, n_elements=4),
        dict(carrier_freq=-1e9, n_elements=4),
        dict(carrier_freq=1e9, n_elements=0),
        dict(carrier_freq=1e9, n_elements=4, spacing=-0.1),
        dict(carrier_freq=1e9, n_elements=4, light_speed=0.0),
        # the phase bound 2*k*D overflows, also where the wavelength is 0
        dict(carrier_freq=1e169, n_elements=4, spacing=1e150),
        dict(carrier_freq=1e307, n_elements=4, spacing=1.0, light_speed=1e-30),
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ArrayConfig(**kwargs)


def test_one_element_has_no_phase_to_overflow():
    # k overflows to inf, but a zero aperture leaves no phase gap
    cfg = ArrayConfig(carrier_freq=1e307, n_elements=1, spacing=1.0, light_speed=1e-10)
    assert cfg.aperture == 0.0


def test_position_requires_positive_range():
    with pytest.raises(ValueError):
        PolarPosition(theta=0.3, range_m=0.0)
    # every distance squares the range: one whose square overflows is refused
    PolarPosition(theta=0.3, range_m=MAX_RANGE_M)
    with pytest.raises(ValueError, match="range_m must be at most .* got 1e\\+160"):
        PolarPosition(theta=0.3, range_m=1e160)
    # and so is one whose square is subnormal or zero
    PolarPosition(theta=0.3, range_m=MIN_RANGE_M)
    with pytest.raises(ValueError, match="range_m must be at least .* got 1e-170"):
        PolarPosition(theta=0.3, range_m=1e-170)


def test_element_distance_trivia():
    cfg = ArrayConfig(carrier_freq=1e9, n_elements=2, spacing=1.0)
    # n = 0 is the reference element
    assert element_distances(cfg, PolarPosition(theta=0.7, range_m=3.3))[0] == 3.3
    # collinear: |r - nd|
    assert element_distances(cfg, PolarPosition(theta=0.0, range_m=2.0))[1] == pytest.approx(1.0)
    # 3-4-5 triangle at broadside
    cfg4 = ArrayConfig(carrier_freq=1e9, n_elements=4, spacing=1.0)
    dist = element_distances(cfg4, PolarPosition(theta=math.pi / 2, range_m=4.0))
    assert dist[3] == pytest.approx(5.0)


def test_degenerate_geometry_raises():
    cfg = ArrayConfig(carrier_freq=1e9, n_elements=2, spacing=1.0)
    with pytest.raises(DegenerateGeometryError):
        element_distances(cfg, PolarPosition(theta=0.0, range_m=1.0))


@settings(max_examples=200)
@given(
    theta=st.floats(-10.0, 10.0),
    r=st.floats(0.01, 1e4),
    n_elements=st.integers(1, 64),
)
def test_triangle_inequality(theta, r, n_elements):
    cfg = ArrayConfig(carrier_freq=5e9, n_elements=n_elements)
    pos = PolarPosition(theta=theta, range_m=r)
    try:
        dist = element_distances(cfg, pos)
    except DegenerateGeometryError:
        return
    nd = cfg.element_offsets()
    assert np.all(np.abs(dist - r) <= nd + 1e-9 * r)


def test_models_converge_in_far_field(grid_configs):
    # r*e_n is the gap between the unit-modulus spherical and planar phasors
    for cfg in grid_configs:
        r = 1e6 * max(cfg.aperture, cfg.spacing)
        for theta in (0.3, math.pi / 2, 2.5):
            assert r * e_linf_at(cfg, PolarPosition(theta=theta, range_m=r)) < 1e-3


@settings(max_examples=100)
@given(theta=st.floats(0.0, 2 * math.pi), r=st.floats(0.5, 100.0))
def test_angle_reflection_symmetry(theta, r):
    # 2*pi - theta is the same geometry; float pi makes it equal only to rounding
    cfg = ArrayConfig(carrier_freq=3e9, n_elements=8)
    pos = PolarPosition(theta=theta, range_m=r)
    mirrored = PolarPosition(theta=2 * math.pi - theta, range_m=r)
    try:
        base = element_distances(cfg, pos)
    except DegenerateGeometryError:
        return
    np.testing.assert_allclose(base, element_distances(cfg, mirrored), rtol=1e-12)
