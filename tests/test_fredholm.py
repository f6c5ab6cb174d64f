import math
import subprocess
import sys

import numpy as np
import pytest

from airypng import airy_kernel, fredholm
from airypng.airy_kernel import (Leg, extended_airy_kernel, kernel_block,
                                 _gap_key, _negative_grid, _positive_grid)
from airypng.fredholm import (TimeGrid, build_operator, gap_probability,
                              tw2_cdf, tw2_pdf, conditional_window_probability,
                              increment_variance, long_range_covariance,
                              _tw2_moments,
                              _gap_density, _density_value, _kernel_block,
                              _leg_rule, _operator_from_legs, _certified,
                              DEFAULT_CUTOFF)
from airypng.blas import one_blas_thread
from airypng.errors import DomainError, NumericsError

from conftest import child_env
from oracles import f2_nystrom_oracle, F2_AT_ZERO, moment_identity_check


def test_time_grid_validation():
    with pytest.raises(DomainError):
        TimeGrid((0.0, 0.0), (0.0, 0.0))
    with pytest.raises(DomainError):
        TimeGrid((0.0,), (0.0, 1.0))
    with pytest.raises(DomainError):
        TimeGrid(tuple(range(9)), tuple(range(9)))


def test_empty_gap_event():
    val = gap_probability(TimeGrid((0.0,), (12.0,)), n=96, L=8.0)
    assert abs(val - 1.0) < 1e-9


def test_f2_at_zero_against_oracle():
    assert tw2_cdf(0.0) == pytest.approx(F2_AT_ZERO, abs=1e-8)
    assert tw2_cdf(0.0) == pytest.approx(f2_nystrom_oracle(0.0), abs=1e-8)


def test_large_gap_decorrelation():
    product = tw2_cdf(0.0) * tw2_cdf(0.0)
    joint = gap_probability(TimeGrid((0.0, 8.0), (0.0, 0.0)))
    assert abs(joint - product) < 1e-4


def test_upper_tail():
    assert 1.0 - tw2_cdf(12.0, n=96, L=8.0) < 1e-9


def test_cdf_monotone():
    vals = [tw2_cdf(s, n=96) for s in np.linspace(-6, 4, 26)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_left_tail_cubic_ratio():
    ratio = math.log(tw2_cdf(-5.0)) / math.log(tw2_cdf(-4.0))
    assert abs(ratio / (125.0 / 64.0) - 1.0) < 0.15


def test_left_tail_range():
    val = tw2_cdf(-3.0)
    assert 0.0 < val < 0.1


def test_pdf_positive_and_normalized():
    for s in (-8.0, -4.0, -2.0, 0.0, 2.0):
        assert tw2_pdf(s, n=128) > 0.0
    nodes, weights = np.polynomial.legendre.leggauss(64)
    lo, hi = -7.5, 8.0
    xs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    ws = 0.5 * (hi - lo) * weights
    dens = [tw2_pdf(float(s), n=96) for s in xs]
    assert np.dot(ws, dens) == pytest.approx(1.0, abs=1e-3)


def test_pdf_mode_location():
    grid = np.arange(-3.0, 0.0, 0.05)
    dens = [tw2_pdf(float(s), n=96) for s in grid]
    assert grid[int(np.argmax(dens))] == pytest.approx(-1.77, abs=0.15)


def _richardson(f, x, h=1e-3):
    """Derivative of f at x from central differences at h and h/2,
    extrapolated to h = 0."""
    coarse = (f(x + h) - f(x - h)) / (2.0 * h)
    fine = (f(x + h / 2) - f(x - h / 2)) / h
    return (4.0 * fine - coarse) / 3.0


@pytest.mark.parametrize("s", [-4.0, -2.0, 0.0, 2.0])
def test_pdf_matches_richardson_on_cdf(s):
    assert abs(tw2_pdf(s) - _richardson(tw2_cdf, s)) <= 1e-9


def _bordered(grid, n):
    """Nystrom matrix of ``grid`` bordered by a one-node probe leg of
    weight 1 at (t_1, xi_1)."""
    legs = [Leg(t, *_leg_rule(xi, xi + DEFAULT_CUTOFF, n))
            for t, xi in zip(grid.times, grid.thresholds)]
    legs.append(Leg(grid.times[0], [grid.thresholds[0]], np.ones(1)))
    return _operator_from_legs(legs).block_matrix


@pytest.mark.parametrize("times, thresholds", [
    ((0.0,), (-2.0,)),
    ((0.0, 0.5), (-1.0, 0.5)),
    ((0.0, 3.0), (-1.0, 0.5)),
    ((0.0, 0.2, 0.4), (-1.0, 0.0, 0.3))])
def test_density_is_bordered_determinant_difference(times, thresholds):
    # det(I - D+) = det(I - D) (1 - R(xi_1, xi_1)) by the Schur complement
    grid = TimeGrid(times, thresholds)
    P, dP = _density_value(grid, 96, DEFAULT_CUTOFF, 48)
    Dp = _bordered(grid, 96)
    k = Dp.shape[0] - 1
    eye = np.eye(k + 1)
    inner = np.linalg.det(eye[:k, :k] - Dp[:k, :k])
    outer = np.linalg.det(eye - Dp)
    assert P == pytest.approx(inner, abs=1e-14)
    assert abs(dP - (inner - outer)) <= 1e-12


@pytest.mark.parametrize("times, thresholds", [
    ((0.0, 0.5), (-1.0, 0.5)),    # the heat-kernel decomposition
    ((0.0, 3.0), (-1.0, 0.5)),    # the mirrored integral
    ((0.0, 1.9), (-6.0, -6.0)),   # both routes inside one operator
    ((0.0, 0.2, 0.4), (-1.0, 0.0, 0.3))])
def test_threshold_derivative_matches_richardson(times, thresholds):
    def gap(xi1):
        return gap_probability(TimeGrid(times, (xi1, *thresholds[1:])))
    want = _richardson(gap, thresholds[0])
    P, dP = _gap_density(TimeGrid(times, thresholds), n=192,
                         L=DEFAULT_CUTOFF)
    assert P == gap(thresholds[0])
    # absolute and relative: the mixed-route value is only about 4e-13
    assert abs(dP - want) <= 1e-9 * min(1.0, abs(want))


def test_tw2_moments():
    mean, var = _tw2_moments()
    assert mean == pytest.approx(-1.7710868074, abs=1e-9)
    assert var == pytest.approx(0.8131947928, abs=1e-9)


def test_threshold_monotonicity_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(10):
        base = rng.uniform(-2.5, 1.0, 2)
        bump = rng.uniform(0.05, 0.6)
        which = rng.integers(0, 2)
        hi = base.copy()
        hi[which] += bump
        g = TimeGrid((0.0, 0.7), tuple(base))
        g2 = TimeGrid((0.0, 0.7), tuple(hi))
        assert gap_probability(g2, n=96) >= \
            gap_probability(g, n=96) - 1e-10


def test_probability_bounds():
    for thr in (-6.0, -2.0, 0.0, 3.0):
        v = gap_probability(TimeGrid((0.0,), (thr,)), n=96)
        assert -1e-9 <= v <= 1.0 + 1e-9


def test_marginalization():
    two = gap_probability(TimeGrid((0.0, 0.5), (0.0, 10.0)))
    one = tw2_cdf(0.0)
    assert abs(two - one) < 1e-7


def test_time_shift_invariance():
    a = gap_probability(TimeGrid((0.0, 0.5), (0.0, -0.5)), n=96)
    b = gap_probability(TimeGrid((3.25, 3.75), (0.0, -0.5)), n=96)
    assert abs(a - b) < 1e-10


def test_refinement_certificate():
    # the refine path itself raises unless doubling moves < 1e-8
    gap_probability(TimeGrid((0.0, 0.3), (-1.0, 0.5)))


def test_threshold_domain():
    with pytest.raises(DomainError):
        gap_probability(TimeGrid((0.0,), (-9.0,)))
    with pytest.raises(DomainError):
        tw2_pdf(-8.5)


def test_refinement_failure_raises_with_estimates():
    # 16 nodes under-resolve the kernel, so the (2n, L+4) rerun moves the
    # value beyond the 1e-8 gate and the contract demands an error
    with pytest.raises(NumericsError) as err:
        gap_probability(TimeGrid((0.0,), (-2.0,)), n=16, L=8.0)
    assert err.value.estimates is not None


def test_top_pair_below_six_nodes_per_panel_raises():
    # at n = 16 and L = 16 the (n, L) and (2n, L+4) rules share their nodes
    # on (xi, xi + 16], so the pair agrees while both values are off F2(-3)
    with pytest.raises(NumericsError) as err:
        gap_probability(TimeGrid((0.0,), (-3.0,)), n=16)
    coarse, fine = err.value.estimates
    assert abs(fine - coarse) <= 1e-8
    assert abs(fine - tw2_cdf(-3.0)) > 1e-6


def _recording(monkeypatch, name):
    """Replace ``fredholm.<name>`` by a wrapper that records each
    (n, L, npp) it is called at."""
    levels = []
    real = getattr(fredholm, name)

    def recording(grid, n, L, npp):
        levels.append((n, L, npp))
        return real(grid, n, L, npp)

    monkeypatch.setattr(fredholm, name, recording)
    return levels


def test_ladder_settles_f2_at_its_lowest_pair(monkeypatch):
    levels = _recording(monkeypatch, "_gap_value")
    tw2_cdf(0.3125)
    assert levels == [(48, 16.0, 48), (96, 20.0, 96)]


def test_ladder_climbs_to_the_top_pair_with_the_parent_value(monkeypatch):
    # a three-time density at short gaps: 48 nodes leave 1e-8 in dP, so
    # the pair at n/2 = 48 fails and the top pair decides, as before the
    # ladder; n/4 = 24 has under 6 nodes per panel and is not tried
    grid = TimeGrid((0.0, 0.1, 0.2), (-1.0, -1.32, -0.68))
    with one_blas_thread:
        top = fredholm._density_value(grid, 192, DEFAULT_CUTOFF + 4.0, 96)
    levels = _recording(monkeypatch, "_density_value")
    value = _gap_density(grid, 96, DEFAULT_CUTOFF)
    assert value == top == (0.6793153398723832, 0.08211026553616897)
    assert levels == [(48, 16.0, 48), (96, 20.0, 96),
                      (96, 16.0, 48), (192, 20.0, 96)]


def test_unsettled_ladder_tries_pairs_at_six_nodes_per_panel():
    # a value that never settles: every pair the ladder tries is run, and
    # the error carries the top pair's two values
    levels = []

    def moving(grid, n, L, npp):
        levels.append(n)
        return float(n)

    grid = TimeGrid((0.0,), (0.0,))
    for n, L, tried in ((192, 16.0, [48, 96, 192]), (96, 16.0, [48, 96]),
                        (192, 20.0, [96, 192]), (64, 16.0, [64])):
        levels.clear()
        with pytest.raises(NumericsError) as err:
            _certified(moving, grid, n, L, "value")
        assert levels[::2] == tried
        assert err.value.estimates == (float(n), float(2 * n))


def test_operator_entry_structure():
    grid = TimeGrid((0.0,), (0.0,))
    op = build_operator(grid, n=24, L=10.0)
    nodes = op.grid[0]
    weights = op.weights[0]
    i, j = 3, 17
    want = math.sqrt(weights[i]) * extended_airy_kernel(
        0.0, 0.0, float(nodes[i]), float(nodes[j])) * math.sqrt(weights[j])
    assert op.block_matrix[i, j] == pytest.approx(want, abs=1e-11)
    # every entry of the blocks between two times matches the scalar kernel
    cases = [((0.0, 0.5), (-1.0, 0.5)),   # the heat-kernel decomposition
             ((0.0, 3.0), (-1.0, 0.5)),   # the mirrored integral
             # the block takes the mirrored integral (lo = -12), while
             # entries with x + y above about -10.6 take the decomposition
             ((0.0, 1.9), (-6.0, -6.0))]
    for times, thresholds in cases:
        op = build_operator(TimeGrid(times, thresholds), n=24, L=10.0)
        roots = [np.sqrt(w) for w in op.weights]
        offs = np.cumsum([0] + [len(nodes) for nodes in op.grid])
        for a, b in ((0, 1), (1, 0)):
            block = op.block_matrix[offs[a]:offs[a + 1],
                                    offs[b]:offs[b + 1]]
            want = np.array([[extended_airy_kernel(times[a], times[b],
                                                   float(x), float(y))
                              for y in op.grid[b]] for x in op.grid[a]])
            want *= roots[a][:, None] * roots[b][None, :]
            assert np.max(np.abs(block - want)) <= 1e-11, (times, a, b)


def test_operator_spectral_radius():
    for thr in (-6.0, -3.0, 0.0):
        op = build_operator(TimeGrid((0.0,), (thr,)), n=96, L=10.0)
        assert np.max(np.abs(np.linalg.eigvals(op.block_matrix))) < 1.0


def test_leg_rule_has_eight_panels_wherever_the_leg_starts():
    # lo + 1.5 + 1.5 + 1.5 + 1.5 can round 1 ulp below lo + 6 (as at this
    # time-0 covariance leg of t = 0.1, and at 2.6% of a dense grid on
    # [-1, 1]), which once took a fifth 1.5-step: 9 panels and 99 nodes
    for lo in [-0.7869810560335088, *np.linspace(-8.0, 8.0, 801),
               *np.linspace(-1.0, 1.0, 2001)]:
        assert len(fredholm._panel_edges(lo, lo + DEFAULT_CUTOFF)) == 9, lo
        for n in (48, 96, 192):
            nodes, weights = _leg_rule(lo, lo + DEFAULT_CUTOFF, n)
            assert len(nodes) == len(weights) == n, (lo, n)


@pytest.mark.parametrize("threshold", [-6.0, -2.0, 0.0, 3.0])
def test_equal_time_block_matches_z_quadrature(threshold):
    # two legs share one node set, so off-diagonal blocks meet x == y too;
    # at equal times the evaluator takes the z-quadrature route
    rule = _leg_rule(threshold, threshold + DEFAULT_CUTOFF, 96)
    shifted = _leg_rule(threshold + 0.3, threshold + 0.3 + DEFAULT_CUTOFF, 64)
    legs = [Leg(0.0, *rule), Leg(0.0, *rule), Leg(0.0, *shifted)]
    for leg_i in legs:
        for leg_j in legs:
            block = _kernel_block(leg_i, leg_j)
            quad = kernel_block(leg_i, leg_j)
            assert np.max(np.abs(block - quad)) <= 1e-10


def _count_airy_calls(monkeypatch):
    """Shapes of the arguments of every Airy call the operator's legs
    make."""
    shapes = []
    real = airy_kernel.airy_ai_aip_vec

    def counting(x, **kwargs):
        shapes.append(np.shape(x))
        return real(x, **kwargs)

    monkeypatch.setattr(airy_kernel, "airy_ai_aip_vec", counting)
    return shapes


def test_single_time_operator_evaluates_airy_at_its_nodes_only(monkeypatch):
    shapes = _count_airy_calls(monkeypatch)
    op = build_operator(TimeGrid((0.0,), (-1.0,)), n=192)
    assert shapes == [(op.block_matrix.shape[0],)]


@pytest.mark.parametrize("times", [(0.0, 0.5), (0.0, 3.0)])
def test_two_time_operator_makes_one_grid_call_per_leg(monkeypatch, times):
    # each leg makes one (Ai, Ai') call on its nodes and one Ai-only call
    # per grid on the points within its cut, which is 20 for legs whose
    # nodes start below 9: gap 0.5 takes the heat-kernel decomposition
    # (positive grid only); gap 3 also needs the mirrored integral's
    # negative grid on each leg
    calls = []
    real = airy_kernel.airy_ai_aip_vec

    def recording(x, derivative=True):
        calls.append((np.shape(x), derivative))
        return real(x, derivative=derivative)

    monkeypatch.setattr(airy_kernel, "airy_ai_aip_vec", recording)
    op = build_operator(TimeGrid(times, (-1.0, 0.5)), n=96)
    offsets = [_positive_grid(48)[0]]
    if times[1] - times[0] > 2.0:
        offsets.append(-_negative_grid(_gap_key(3.0), 48)[0])
    nodes_calls = [((len(nodes),), True) for nodes in op.grid]
    grid_calls = [((int(np.sum(nodes[:, None] + g <= 20.0)),), False)
                  for nodes in op.grid for g in offsets]
    assert sorted(calls) == sorted(nodes_calls + grid_calls)
    # an uncut leg evaluates its nodes and every point of its grids
    full = sum(len(nodes) * (1 + sum(len(g) for g in offsets))
               for nodes in op.grid)
    assert sum(shape[0] for shape, _ in calls) < full


# ---------------------------------------------------------------------------
# Conditional window probabilities.
# ---------------------------------------------------------------------------

def test_conditional_total_probability():
    eps = 0.25
    wide = 8.0 / math.sqrt(eps)
    est = conditional_window_probability(0.0, 0.0, [(1.0, -wide, wide)], eps,
                                         n=96)
    assert est == pytest.approx(1.0, abs=2e-2)


def test_conditional_degenerate_window():
    est = conditional_window_probability(0.0, -1.0, [(1.0, 0.3, 0.3)], 0.1,
                                         n=96)
    assert est == pytest.approx(0.0, abs=1e-12)


def test_conditional_error_shrinks_with_epsilon():
    from oracles import gaussian_window_mass
    target = gaussian_window_mass(1.0, -1.0, 1.0)
    errs = []
    for eps in (0.2, 0.05):
        est = conditional_window_probability(0.0, -1.0, [(1.0, -1.0, 1.0)],
                                             eps)
        errs.append(abs(est - target))
    assert errs[1] < errs[0]


def test_conditional_parameter_domain():
    with pytest.raises(DomainError):
        conditional_window_probability(0.0, -1.0, [(1.0, -1.0, 1.0)], 0.6)
    with pytest.raises(DomainError):
        conditional_window_probability(0.0, -1.0, [], 0.1)


def test_conditional_rejects_vanishing_density():
    # F_2'(-7) is about 3e-12, below the 1e-8 floor of the conditioning
    with pytest.raises(NumericsError):
        conditional_window_probability(0.0, -7.0, [(1.0, -1.0, 1.0)], 0.1)


# ---------------------------------------------------------------------------
# Variance and covariance (shared session values; the heavy sweep lives in
# the acceptance module).
# ---------------------------------------------------------------------------

def test_increment_variance_at_zero():
    assert increment_variance(0.0) == 0.0


def test_increment_variance_domain():
    with pytest.raises(DomainError):
        increment_variance(0.7)
    with pytest.raises(DomainError):
        long_range_covariance(1.0)


@pytest.mark.slow
def test_increment_variance_monotone():
    vals = [increment_variance(t) for t in (0.05, 0.1, 0.2)]
    assert vals[0] < vals[1] < vals[2]


@pytest.mark.slow
def test_long_range_covariance_positive():
    assert long_range_covariance(2.0) > 0.0


# ---------------------------------------------------------------------------
# Factorial-moment identity.
# ---------------------------------------------------------------------------

def test_moment_identity_single_interval():
    grid = TimeGrid((0.0,), (0.0,))
    lhs, rhs = moment_identity_check(grid, [(0, (0.0, 0.5), 1)])
    assert lhs == pytest.approx(rhs, abs=1e-3)


def test_moment_identity_empty_interval():
    grid = TimeGrid((0.0,), (0.0,))
    assert moment_identity_check(grid, [(0, (0.3, 0.3), 1)]) == (0.0, 0.0)


def test_moment_identity_two_times():
    grid = TimeGrid((0.0, 0.5), (0.0, 0.0))
    lhs, rhs = moment_identity_check(
        grid, [(0, (-0.5, 0.1), 1), (1, (0.2, 0.8), 1)])
    assert lhs == pytest.approx(rhs, abs=5e-3)


def test_moment_identity_second_factorial():
    grid = TimeGrid((0.0,), (0.0,))
    lhs, rhs = moment_identity_check(grid, [(0, (-1.0, 0.0), 2)])
    assert lhs == pytest.approx(rhs, abs=5e-3)


def test_moment_identity_overlap_rejected():
    grid = TimeGrid((0.0,), (0.0,))
    with pytest.raises(DomainError):
        moment_identity_check(grid, [(0, (0.0, 0.5), 1), (0, (0.4, 0.9), 1)])


@pytest.mark.parametrize("t, legs, pinned", [
    (0.1, 92, 0.7225588144672849),      # heat-kernel decomposition
    (3.0, None, 0.08258855820517169),   # mirrored integral
])
def test_covariance_once_pinned_and_threshold_major(monkeypatch, t, legs,
                                                    pinned):
    # values of the per-node joint operator at 4 nodes per panel; the
    # Schur complement moves them by round-off only, and each distinct x
    # threshold (92 of the 260 nodes at t = 0.1) builds one time-t leg
    built = []

    def counting_leg(time, *args, **kwargs):
        built.append(time)
        return Leg(time, *args, **kwargs)

    monkeypatch.setattr(fredholm, "Leg", counting_leg)
    value = fredholm._covariance_once(t, 96, DEFAULT_CUTOFF, 4)
    assert abs(value - pinned) <= 1e-13
    if legs is not None:
        assert built.count(t) == legs


@pytest.mark.slow
@pytest.mark.parametrize("code", [
    "from airypng import increment_variance as v; print(repr(v(0.1)))",
    # a top pair of order 288 and 576, whose LUs once followed the count
    "from airypng.fredholm import TimeGrid, _gap_density as g; print(repr("
    "g(TimeGrid((0.0, 0.1, 0.2), (-1.0, -1.32, -0.68)), 96, 16.0)))",
    "from airypng import conditional_window_probability as c; print(repr("
    "c(0.0, -1.0, [(1.0, -1.0, 1.0), (1.0, -1.0, 1.0)], 0.1)))",
    "from airypng.png_kernel import default_params as p, "
    "joint_gap_probability as j; "
    "print(repr(j(p(0.5, 1024), [(0, 2048), (5, 2050)])))",
], ids=["increment_variance", "three_time_density", "conditional_window",
        "finite_n_joint"])
def test_values_independent_of_blas_threads(code):
    reprs = [subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=child_env(OPENBLAS_NUM_THREADS=k, OMP_NUM_THREADS=k),
    ).stdout for k in ("1", "2")]
    assert reprs[0] == reprs[1] != ""
