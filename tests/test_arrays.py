import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nearfield import (
    ArrayConfig,
    DegenerateGeometryError,
    PolarPosition,
    channel_ff,
    channel_nf,
    element_distance,
    element_distances,
    steering_ff,
    steering_nf,
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
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ArrayConfig(**kwargs)


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
    assert element_distance(cfg, PolarPosition(theta=0.7, range_m=3.3), 0) == 3.3
    # collinear: |r - nd|
    assert element_distance(cfg, PolarPosition(theta=0.0, range_m=2.0), 1) == pytest.approx(1.0)
    # 3-4-5 triangle at broadside
    cfg4 = ArrayConfig(carrier_freq=1e9, n_elements=4, spacing=1.0)
    assert element_distance(cfg4, PolarPosition(theta=math.pi / 2, range_m=4.0), 3) == pytest.approx(5.0)


def test_element_distance_bad_index():
    cfg = ArrayConfig(carrier_freq=1e9, n_elements=4)
    with pytest.raises(ValueError):
        element_distance(cfg, PolarPosition(theta=0.1, range_m=1.0), 4)


def test_degenerate_geometry_raises():
    cfg = ArrayConfig(carrier_freq=1e9, n_elements=2, spacing=1.0)
    with pytest.raises(DegenerateGeometryError):
        element_distances(cfg, PolarPosition(theta=0.0, range_m=1.0))
    with pytest.raises(DegenerateGeometryError):
        steering_nf(cfg, PolarPosition(theta=0.0, range_m=1.0))


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


def test_steering_nf_unit_magnitude_and_reference_element(cfg300):
    pos = PolarPosition(theta=1.1, range_m=3.7)
    vec = steering_nf(cfg300, pos)
    assert vec.shape == (64,)
    np.testing.assert_allclose(np.abs(vec), 1.0, atol=1e-14)
    assert vec[0] == pytest.approx(np.exp(-1j * cfg300.wavenumber * 3.7), abs=1e-12)


def test_steering_nf_matches_high_precision_oracle(cfg300):
    pos = PolarPosition(theta=math.pi / 3, range_m=5.0)
    expected = oracles.steering_near_mpmath(cfg300, 5.0, math.pi / 3)
    np.testing.assert_allclose(steering_nf(cfg300, pos), expected, atol=5e-9)


def test_steering_ff_broadside_and_ramp():
    cfg = ArrayConfig(carrier_freq=1e9, n_elements=5)
    # broadside: every element at the same phase
    vec = steering_ff(cfg, PolarPosition(theta=math.pi / 2, range_m=10.0))
    np.testing.assert_allclose(vec, vec[0], atol=1e-12)
    # half-wave spacing, endfire: consecutive phase difference is pi
    cfg2 = ArrayConfig(carrier_freq=1e9, n_elements=2)
    vec2 = steering_ff(cfg2, PolarPosition(theta=0.0, range_m=10.0))
    diff = np.angle(vec2[1] * np.conj(vec2[0]))
    assert abs(diff) == pytest.approx(math.pi, abs=1e-12)


def test_steering_ff_linear_phase_slope():
    cfg = ArrayConfig(carrier_freq=1e9, n_elements=5)
    theta = math.pi / 4
    vec = steering_ff(cfg, PolarPosition(theta=theta, range_m=10.0))
    phases = np.unwrap(np.angle(vec))
    slopes = np.diff(phases)
    expected = cfg.wavenumber * cfg.spacing * math.cos(theta)
    np.testing.assert_allclose(np.mod(slopes, 2 * math.pi), expected % (2 * math.pi), atol=1e-9)


def test_single_element_models_coincide():
    cfg = ArrayConfig(carrier_freq=2e9, n_elements=1)
    pos = PolarPosition(theta=0.4, range_m=2.5)
    np.testing.assert_allclose(steering_nf(cfg, pos), steering_ff(cfg, pos), atol=1e-15)
    np.testing.assert_allclose(channel_nf(cfg, pos), channel_ff(cfg, pos), atol=1e-20)


def test_channel_amplitudes(cfg300):
    pos = PolarPosition(theta=math.pi / 2, range_m=2.0)
    h_near = channel_nf(cfg300, pos)
    h_far = channel_ff(cfg300, pos)
    dist = element_distances(cfg300, pos)
    np.testing.assert_allclose(
        np.abs(h_near), cfg300.wavelength / (4 * math.pi * dist), rtol=1e-13
    )
    # planar amplitude is element-independent
    np.testing.assert_allclose(np.abs(h_far), np.abs(h_far[0]), rtol=1e-13)
    # amplitude ratio across the array follows the exact distances
    assert abs(h_near[63]) / abs(h_near[0]) == pytest.approx(2.0 / dist[63], rel=1e-12)


def test_models_converge_in_far_field(grid_configs):
    for cfg in grid_configs:
        r = 1e6 * max(cfg.aperture, cfg.spacing)
        for theta in (0.3, math.pi / 2, 2.5):
            pos = PolarPosition(theta=theta, range_m=r)
            gap = np.abs(steering_nf(cfg, pos) - steering_ff(cfg, pos)).max()
            assert gap < 1e-3


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
    np.testing.assert_allclose(steering_nf(cfg, pos), steering_nf(cfg, mirrored), atol=1e-9)
    np.testing.assert_allclose(channel_ff(cfg, pos), channel_ff(cfg, mirrored), atol=1e-9)
