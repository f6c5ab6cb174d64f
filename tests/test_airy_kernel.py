import math

import numpy as np
import pytest

from airypng.airy_kernel import (extended_airy_kernel, a_tilde, heat_phi,
                                 correlation_R, SpaceTimePoint, kernel_grid,
                                 _route)
from airypng.special import airy_ai, airy_ai_prime
from airypng.errors import DomainError

from oracles import okounkov_lhs_quadrature


def classic_kernel(x, y):
    return (airy_ai(x) * airy_ai_prime(y)
            - airy_ai_prime(x) * airy_ai(y)) / (x - y)


def test_equal_time_example_point():
    got = extended_airy_kernel(0.0, 0.0, 1.0, 2.0)
    assert got == pytest.approx(classic_kernel(1.0, 2.0), abs=1e-10)


def test_equal_time_diagonal_identity():
    for x in (-3.0, -0.5, 0.0, 1.3, 4.0):
        want = airy_ai_prime(x) ** 2 - x * airy_ai(x) ** 2
        assert extended_airy_kernel(0.0, 0.0, x, x) == pytest.approx(
            want, abs=1e-10)


def test_argument_symmetry():
    for s, t in ((0.0, 0.0), (1.0, 0.4), (2.0, -1.0)):
        a = extended_airy_kernel(s, t, -1.2, 2.5)
        b = extended_airy_kernel(s, t, 2.5, -1.2)
        assert a == pytest.approx(b, abs=1e-12)


def test_near_diagonal_fallback_is_smooth():
    base = extended_airy_kernel(0.0, 0.0, 0.7, 0.7)
    close = extended_airy_kernel(0.0, 0.0, 0.7, 0.7 + 5e-7)
    assert close == pytest.approx(base, abs=1e-8)


def test_heat_phi_closed_form_values():
    assert heat_phi(1.0, 0.0, 0.0) == pytest.approx(
        math.exp(1.0 / 12.0) / math.sqrt(4 * math.pi), abs=1e-15)
    assert heat_phi(0.7, 1.1, -0.4) == heat_phi(0.7, -0.4, 1.1)
    with pytest.raises(DomainError):
        heat_phi(0.0, 0.0, 0.0)


def test_okounkov_identity_spot():
    lhs = okounkov_lhs_quadrature(0.5, 0.3, -0.2)
    assert lhs == pytest.approx(heat_phi(0.5, 0.3, -0.2), abs=1e-8)


def test_a_tilde_continuity_at_vanishing_gap():
    gap = 1e-4
    near = a_tilde(0.0, gap, 0.4, -0.3)
    at = extended_airy_kernel(0.0, 0.0, 0.4, -0.3)
    assert abs(near - at) < 1e-3


def test_a_tilde_exceeds_equal_time_value():
    assert a_tilde(0.0, 0.5, 0.0, 0.0) > extended_airy_kernel(0.0, 0.0,
                                                              0.0, 0.0)


def test_a_tilde_domain():
    with pytest.raises(DomainError):
        a_tilde(0.0, 2.5, 0.0, 0.0)
    with pytest.raises(DomainError):
        a_tilde(1.0, 0.5, 0.0, 0.0)


def test_decomposition_consistency():
    # on the decomposition route the identity is exact by construction
    s, t, x, y = 0.0, 0.5, 0.3, -0.2
    val = a_tilde(s, t, x, y) - heat_phi(t - s, x, y)
    assert extended_airy_kernel(s, t, x, y) == val
    # deep in the cancellation regime the kernel switches to the mirrored
    # integral; it must agree with the decomposition where both are usable
    s, t, x, y = 0.0, 1.9, -6.0, -6.0
    mirrored = extended_airy_kernel(s, t, x, y)
    val = a_tilde(s, t, x, y) - heat_phi(t - s, x, y)
    assert mirrored == pytest.approx(val, abs=1e-7)


def test_time_order_matters():
    up = extended_airy_kernel(0.0, 0.8, -0.5, 1.0)
    down = extended_airy_kernel(0.8, 0.0, -0.5, 1.0)
    assert abs(up - down) > 1e-3


def test_coordinate_domain():
    with pytest.raises(DomainError):
        extended_airy_kernel(0.0, 0.0, -25.0, 0.0)


# a 10 x 6 grid whose block route is the one of lo = -11.5
_GRID_XS = np.arange(-6.0, 3.5, 1.0)
_GRID_YS = np.arange(-5.5, 3.0, 1.5)


@pytest.mark.parametrize("s, t", [(0.3, 0.3), (1.0, 0.4), (0.0, 0.5),
                                  (0.0, 3.0), (0.0, 1.9)])
def test_kernel_grid_matches_single_entries(s, t):
    # equal time, s > t, the decomposition, the mirrored route, and a
    # route split: at (0, 1.9) the block takes the mirrored route from
    # its lowest x + y while single entries higher up take the
    # decomposition, so they agree only within the 1e-11 that
    # test_operator_entry_structure also allows
    grid = kernel_grid(s, t, _GRID_XS, _GRID_YS)
    assert grid.shape == (_GRID_XS.size, _GRID_YS.size)
    want = [[extended_airy_kernel(s, t, float(x), float(y))
             for y in _GRID_YS] for x in _GRID_XS]
    assert np.max(np.abs(grid - want)) <= 1e-11


def test_kernel_grid_route_split_is_real():
    assert _route(0.0, 1.9, _GRID_XS.min() + _GRID_YS.min())[1] == 0.0
    assert _route(0.0, 1.9, _GRID_XS.max() + _GRID_YS.max())[1] > 0.0


def test_kernel_grid_coordinate_domain():
    with pytest.raises(DomainError):
        kernel_grid(0.0, 0.0, [0.0, -21.0], [0.0])


def test_exponential_diagonal_decay():
    for x in np.arange(2.0, 8.0, 0.75):
        for gap in (0.0, 0.5, 1.0):
            assert extended_airy_kernel(gap, 0.0, x, x) <= math.exp(-x)
            assert extended_airy_kernel(0.0, gap, x, x) <= math.exp(-x)


# ---------------------------------------------------------------------------
# Correlation functions.
# ---------------------------------------------------------------------------

def test_single_point_density_nonnegative():
    for x in (-2.0, 0.0, 1.5):
        assert correlation_R([SpaceTimePoint(0.0, x)]) >= 0.0


def test_duplicated_point_vanishes():
    val = correlation_R([(0.0, 1.0), (0.0, 1.0)])
    assert abs(val) < 1e-10


def test_negative_correlation_equal_time():
    xs = np.linspace(-2.0, 2.0, 5)
    for x in xs:
        for y in xs:
            if abs(x - y) < 1e-9:
                continue
            r2 = correlation_R([(0.0, float(x)), (0.0, float(y))])
            r1a = correlation_R([(0.0, float(x))])
            r1b = correlation_R([(0.0, float(y))])
            assert r2 <= r1a * r1b + 1e-12


def test_permutation_invariance():
    pts = [(0.0, -1.0), (0.3, 0.5), (0.9, 1.5)]
    base = correlation_R(pts)
    rng = np.random.default_rng(3)
    for _ in range(4):
        perm = rng.permutation(3)
        assert correlation_R([pts[i] for i in perm]) == pytest.approx(
            base, abs=1e-12)


def test_point_count_domain():
    with pytest.raises(DomainError):
        correlation_R([])
    with pytest.raises(DomainError):
        correlation_R([(0.0, 0.0)] * 13)
