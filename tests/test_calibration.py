"""Calibration of the certificates against a finer reference.

``gap_probability`` and ``_gap_density`` return the finer value of the
first (m, 2m) pair of their ladder that agrees within 1e-8.  Each value
here is compared with the same determinant two levels finer than the top
pair (n, L) -> (2n, L+4): at (4n, L+8) with 192 z-nodes per panel.
``kernel_grid`` returns the 96-node block of its 48/96 doubling; it is
compared with the same route at 192 nodes per panel.  ``ktilde_matrix``
returns the contour level whose factor bound first meets its tolerance;
the bound is checked against the change of the complex products and the
value against the block oracle two doublings finer.
``joint_gap_probability`` returns the determinant on the first window whose
tail bound meets 5e-9; it is compared with the determinant on a window four
times wider.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airypng.airy_kernel import Leg, _route, heat_phi, kernel_grid
from airypng.errors import settled
from airypng.fredholm import (TimeGrid, gap_probability, _gap_density,
                              _density_value, DEFAULT_NODES, DEFAULT_CUTOFF)
from airypng.png_kernel import (default_params, ktilde_matrix, _doublings,
                                _factors, _norm, _CONTOUR_POINTS, _gap_det,
                                _window, joint_gap_probability,
                                discrete_gap_probability)
from airypng.png_sim import d_scaling, growth_speed

from oracles import ktilde_block_oracle

GATE = 1e-8

CASES = [
    ((0.0,), (-8.0,)),
    ((0.0,), (-7.0,)),
    ((0.0,), (-6.0,)),
    ((0.0,), (-2.0,)),
    ((0.0,), (1.0,)),
    ((0.0, 0.5), (-1.0, 0.5)),          # heat-kernel decomposition
    ((0.0, 3.0), (-2.0, 1.0)),          # mirrored integral
    ((0.0, 1.9), (-6.0, -6.0)),         # both routes in one operator
    ((0.0, 0.1, 0.2), (-1.0, -1.32, -0.68)),   # settles at n/2 or at n
    ((0.0, 2.5, 5.0), (-1.0, 0.0, 1.0)),
]


def _assert_calibrated(returned, reference):
    for got, want in zip(returned, reference):
        assert abs(got - want) <= GATE
        if abs(want) < GATE:
            # below the gate an absolute 1e-8 says nothing; the ladder's
            # lowest pair must still carry the tail to 1e-7 relative
            assert abs(got - want) <= 1e-7 * abs(want)


@pytest.mark.slow
@pytest.mark.parametrize("n", [96, DEFAULT_NODES])
@pytest.mark.parametrize("times, thresholds", CASES)
def test_certified_values_match_finer_reference(times, thresholds, n):
    # n = 96 puts n/4 = 24 below six nodes per panel, where a pair can
    # agree while both of its values are off
    grid = TimeGrid(times, thresholds)
    reference = _density_value(grid, 4 * n, DEFAULT_CUTOFF + 8.0, 192)
    density = _gap_density(grid, n, DEFAULT_CUTOFF)
    _assert_calibrated(density, reference)
    _assert_calibrated((gap_probability(grid, n=n),), reference[:1])


@pytest.mark.parametrize("s, t", [
    (0.0, 0.0),     # equal times
    (0.0, 0.5),     # heat-kernel decomposition
    (0.0, 1.9),     # decomposition near its cancellation budget
    (0.0, 3.0),     # mirrored integral
    (1.0, 0.0),     # s > t
])
def test_kernel_grid_matches_finer_reference(s, t):
    xs = ys = np.linspace(-3.0, 3.0, 7)
    integral, heat_gap = _route(s, t, xs.min() + ys.min())
    reference = integral(Leg(s, xs, npp=192), Leg(t, ys, npp=192))
    if heat_gap:
        reference -= heat_phi(heat_gap, xs[:, None], ys)
    error = np.abs(kernel_grid(s, t, xs, ys) - reference)
    assert np.all(error <= 1e-10 * np.maximum(1.0, np.abs(reference)))


@settings(max_examples=10, deadline=None)
@given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0),
       nx=st.integers(1, 6), ny=st.integers(1, 6))
@pytest.mark.parametrize("u, v", [(0, 0), (0, 2), (2, 0)])
@pytest.mark.parametrize("N", [3, 64, 1024])
def test_contour_certificate_matches_finer_reference(N, u, v, x, y, nx, ny):
    # windows of nx, ny heights starting x, y fluctuation scales from the
    # edge; every certificate along the doubling must bound the change of
    # the complex products, up to their rounding
    tol = 1e-9
    params = default_params(0.5, N)
    edge, scale = growth_speed(0.25) * N, d_scaling(0.25) * N ** (1 / 3)
    xs = max(0, round(edge + x * scale)) + np.arange(nx)
    ys = max(0, round(edge + y * scale)) + np.arange(ny)
    rows, cols = [(u, xs)], [(v, ys)]
    levels = []

    def tracked():
        for n in _doublings(_CONTOUR_POINTS):
            levels.append(n)
            yield _factors(params, rows, cols, n)

    settled(tracked(), tol, "contour point-doubling")
    for n in levels[:-1]:
        coarse, fine = (_factors(params, rows, cols, m) for m in (n, 2 * n))
        change = np.abs(ktilde_block_oracle(params, u, v, xs, ys, 2 * n)
                        - ktilde_block_oracle(params, u, v, xs, ys, n)).max()
        rounding = 4e-16 * _norm(fine.f, fine.width) * _norm(fine.h,
                                                             fine.width)
        assert change <= (fine - coarse) + rounding
    reference = ktilde_block_oracle(params, u, v, xs, ys, 4 * levels[-1])
    error = np.abs(ktilde_matrix(params, u, v, xs, ys, tol) - reference.real)
    assert error.max() <= tol + 1e-14


@settings(max_examples=6, deadline=None)
@given(x=st.floats(-2.0, 2.0), y=st.floats(-2.0, 2.0))
@pytest.mark.parametrize("N, lines", [(1, 1), (3, 1), (3, 2), (64, 1),
                                      (64, 2), (1024, 1), (1024, 2)])
def test_window_certificate_matches_wider_reference(N, lines, x, y):
    # thresholds x, y fluctuation scales from the edge at times 0 and about
    # 2 N^(1/3) (N = 1 has a single time); the returned determinant must be
    # within the 1e-8 gate of the same determinant on four times its window
    params = default_params(0.5, N)
    edge, scale = growth_speed(0.25) * N, d_scaling(0.25) * N ** (1 / 3)
    events = [(u, max(-1, round(edge + z * scale))) for u, z in
              [(0, x), (min(N - 1, round(2 * N ** (1 / 3))), y)][:lines]]
    got = joint_gap_probability(params, events)
    reference = _gap_det(params, events, 4 * _window(params, events))
    assert abs(got - reference) <= GATE
    if lines == 1:
        assert discrete_gap_probability(params, *events[0]) == got
