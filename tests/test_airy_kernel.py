import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from airypng.airy_kernel import (extended_airy_kernel, a_tilde, heat_phi,
                                 correlation_R, SpaceTimePoint, kernel_grid,
                                 Leg, mirrored_block, positive_block,
                                 _gap_key, _negative_grid, _positive_grid,
                                 _route)
from airypng.special import airy_ai, airy_ai_prime, airy_ai_aip_vec
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
# The grid cut.
# ---------------------------------------------------------------------------

def _uncut(leg):
    leg.cut = math.inf
    return leg


# (s, t, xs, ys, route, bound on |cut - uncut| from the module docstring):
# the decomposition at its edge gap = 2, kappa = 10.5 (lo = 2/3 - 10.5),
# equal times and s > t with coordinates at -20 and near 20, and the
# mirrored integral with nodes beyond 20
_CUT_CASES = [
    (0.0, 2.0, [4.6, 6.0, 10.0, 19.5], [2.0 / 3.0 - 10.5 - 4.6, -8.0, 0.0, 5.0],
     positive_block, 3.4e-15),
    (0.0, 0.0, [-20.0, -10.0, 0.0, 12.0, 19.5], [-20.0, 0.0, 19.0],
     positive_block, 4e-28),
    (0.5, 0.0, [-20.0, -10.0, 0.0, 12.0, 19.5], [-20.0, 0.0, 19.0],
     positive_block, 4e-28),
    (0.0, 3.0, [-20.0, 0.0, 19.5, 25.0], [-20.0, 0.0, 19.0, 22.0],
     mirrored_block, 4e-28),
]


@pytest.mark.parametrize("s, t, xs, ys, route, bound", _CUT_CASES)
def test_grid_cut_stays_within_its_bound(s, t, xs, ys, route, bound):
    xs, ys = np.array(xs), np.array(ys)
    integral, heat_gap = _route(s, t, xs.min() + ys.min())
    assert integral.func is route
    if bound > 1e-20:
        kappa = heat_gap ** 3 / 12.0 - heat_gap * (xs.min() + ys.min()) / 2.0
        assert heat_gap == 2.0 and kappa == pytest.approx(10.5)
    for npp in (48, 96):
        cut = integral(Leg(s, xs, npp=npp), Leg(t, ys, npp=npp))
        full = integral(_uncut(Leg(s, xs, npp=npp)),
                        _uncut(Leg(t, ys, npp=npp)))
        assert np.max(np.abs(cut - full)) <= bound


def test_leg_grid_values_are_exact_or_zero():
    nodes = np.array([-8.0, -1.0, 5.0, 15.0, 22.0, 30.0])
    leg = Leg(0.0, nodes)
    assert leg.cut == 20.0
    key = _gap_key(3.0)
    for offsets, got in ((_positive_grid(48)[0], leg.ai_pos()),
                         (-_negative_grid(key, 48)[0], leg.ai_neg(key))):
        args = nodes[:, None] + offsets
        want = np.where(args > leg.cut, 0.0, airy_ai_aip_vec(args)[0])
        # a leading run of z-columns; the node at -8 keeps every u-column
        kept = np.flatnonzero((args <= leg.cut).any(axis=0))
        assert kept[0] == 0 and kept.size == kept[-1] + 1 == got.shape[1]
        assert np.array_equal(got, want[:, :kept.size])
        assert np.all(args[:, kept.size:] > leg.cut)


@pytest.mark.parametrize("low", [-20.0, 0.0, 9.0, 12.0, 19.0, 30.0])
def test_cut_is_twenty_or_far_below_the_leg_peak(low):
    cut = Leg(0.0, [low, low + 5.0]).cut
    peak = airy_ai(max(low, -1.0188))     # the largest |Ai| on [low, inf)
    assert 20.0 <= cut <= 40.0
    assert airy_ai(cut) <= 1e-17 * peak
    if low <= 9.0:
        assert cut == 20.0


@pytest.mark.parametrize("x", [12.0, 16.0, 19.0])
def test_scalar_kernel_keeps_relative_accuracy_at_large_coordinates(x):
    with mp.workdps(60):
        want = float(mp.airyai(x, derivative=1) ** 2 - x * mp.airyai(x) ** 2)
    # relative only: the values are far below pytest.approx's absolute floor
    assert abs(extended_airy_kernel(0.0, 0.0, x, x) / want - 1.0) <= 1e-12
    # s > t takes the same z-quadrature, damped, so it stays below
    assert 0.0 < extended_airy_kernel(0.5, 0.0, x, x) < want


def test_grid_values_keep_temporaries_bounded():
    # one leg of a gap-2.5 time pair at n=384, npp=96: about 590k points,
    # nearly all within the cut
    from airypng.fredholm import _leg_rule
    nodes, _ = _leg_rule(0.0, 20.0, 384)
    leg = Leg(2.5, nodes, npp=96)
    key = _gap_key(2.5)
    airy_ai_aip_vec(nodes[:1])  # build the cached panel table first
    tracemalloc.start()
    try:
        table = leg.ai_neg(key)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.size >= 589_824
    # at most an (Ai, Ai') call on the whole argument table: its arguments,
    # its two outputs and a few MB for its 2**16-point blocks (measured:
    # 2.8 table sizes here, against 3.8 for that call)
    assert peak <= 3 * table.nbytes + 4 * 2 ** 20


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
