import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airypng import png_kernel
from airypng.png_kernel import (PngKernelParams, default_params,
                                ktilde_matrix, phi_values,
                                discrete_gap_probability,
                                joint_gap_probability, kn_block_matrix,
                                airy_limit_report, _window)
from airypng.png_sim import (d_scaling, growth_speed, evolve_batch_heights,
                             last_passage_batch, geometric_from_uniform,
                             replica_generator)
from airypng.errors import DomainError, NumericsError

from oracles import kn_block_oracle


def test_params_validation():
    with pytest.raises(DomainError):
        PngKernelParams(alpha=0.5, N=4, r1=1.2, r2=1.1)
    with pytest.raises(DomainError):
        PngKernelParams(alpha=0.5, N=4, r1=0.4, r2=1.1)
    with pytest.raises(DomainError):
        PngKernelParams(alpha=0.5, N=0, r1=0.8, r2=1.2)


def test_default_radii_inside_annulus():
    for alpha in (0.3, 0.5, 0.75, 0.9):
        for N in (1, 8, 64, 512):
            p = default_params(alpha, N)
            assert alpha < p.r1 < p.r2 < 1.0 / alpha


def test_n1_kernel_closed_form():
    # at N=1 the kernel collapses to (1-q) sqrt(q)^(x+y)
    q = 0.25
    pars = default_params(math.sqrt(q), 1)
    xs = np.arange(6)
    want = (1 - q) * math.sqrt(q) ** np.add.outer(xs, xs)
    assert np.abs(ktilde_matrix(pars, 0, 0, xs, xs) - want).max() <= 1e-12


def test_n1_gap_is_geometric():
    for q in (0.25, 0.5):
        pars = default_params(math.sqrt(q), 1)
        for M in range(0, 9):
            got = discrete_gap_probability(pars, 0, M)
            assert got == pytest.approx(1.0 - q ** (M + 1), abs=1e-9)


def test_radii_independence():
    a = PngKernelParams(alpha=0.5, N=4, r1=0.6, r2=1.1)
    b = PngKernelParams(alpha=0.5, N=4, r1=0.7, r2=1.3)
    for (u, x, v, y) in [(1, 7, 0, 9), (0, 8, 0, 8), (-1, 5, 2, 11)]:
        va = ktilde_matrix(a, u, v, [x], [y])[0, 0]
        vb = ktilde_matrix(b, u, v, [x], [y])[0, 0]
        assert va == pytest.approx(vb, abs=1e-9)


def test_lattice_domain():
    pars = default_params(0.5, 4)
    with pytest.raises(DomainError):
        ktilde_matrix(pars, 4, 0, [3], [3])
    with pytest.raises(DomainError):
        ktilde_matrix(pars, 0, 0, [-1], [3])


@pytest.mark.parametrize("u", [4, -4, 5])
@pytest.mark.parametrize("entry", [
    lambda p, u: ktilde_matrix(p, u, 0, [3], [3]),
    lambda p, u: ktilde_matrix(p, 0, u, [3], [3]),
    lambda p, u: kn_block_matrix(p, [(0, np.arange(3, 6)), (u, [7])]),
    lambda p, u: joint_gap_probability(p, [(0, 10), (u, 10)]),
    lambda p, u: discrete_gap_probability(p, u, 10)],
    ids=["ktilde_matrix_row", "ktilde_matrix_column", "kn_block_matrix",
         "joint_gap_probability", "discrete_gap_probability"])
def test_time_index_outside_the_lattice_raises(entry, u):
    # at N = 4 the lattice has |u| <= 3; every finite-N entry refuses a
    # time beyond it instead of returning a number
    with pytest.raises(DomainError, match="time index"):
        entry(default_params(0.5, 4), u)


def test_realness_random_points():
    rng = np.random.default_rng(2)
    pars = default_params(0.5, 16)
    for _ in range(20):
        u, v = rng.integers(-3, 4, 2)
        x, y = rng.integers(0, 40, 2)
        val = float(ktilde_matrix(pars, int(u), int(v), [x], [y])[0, 0])
        assert isinstance(val, float) and math.isfinite(val)


def test_phi_zero_unless_forward():
    pars = default_params(0.5, 8)
    assert phi_values(pars, 3, 3, [2])[0] == 0.0
    assert phi_values(pars, 3, 1, [2])[0] == 0.0


def test_phi_translation_invariance(monkeypatch):
    # with Ktilde set to 0, K_N is -phi: its (x, y) entries depend on
    # y - x only, and vanish unless the row time precedes the column time
    monkeypatch.setattr(png_kernel, "_ktilde_lines",
                        lambda params, rows, cols, tol: np.zeros((4, 4)))
    pars = default_params(0.5, 8)
    K = kn_block_matrix(pars, [(0, np.array([10, 11])),
                               (2, np.array([12, 13]))])
    a, b = -K[0, 2], -K[1, 3]
    assert a == pytest.approx(b, abs=1e-12)
    assert a == phi_values(pars, 0, 2, [2])[0]
    assert not K[2:, :2].any() and not K[:2, :2].any()


def test_phi_row_sum_mass():
    pars = default_params(0.5, 64)
    u = 16
    v = u + 7
    deltas = np.arange(-600, 601)
    vals = phi_values(pars, u, v, deltas)
    assert float(vals.sum()) == pytest.approx(1.0, abs=1e-6)


def test_kn_equal_times_is_ktilde():
    pars = default_params(0.5, 6)
    xs = np.array([11, 13])
    assert np.array_equal(kn_block_matrix(pars, [(1, xs[:1]), (1, xs[1:])]),
                          ktilde_matrix(pars, 1, 1, xs, xs))


def test_kn_diagonal_density_in_unit_interval():
    pars = default_params(0.5, 1)
    vals = np.diagonal(kn_block_matrix(pars, [(0, np.arange(11))]))
    assert np.all((-1e-12 <= vals) & (vals <= 1.0 + 1e-12))


def test_kn_time_order_asymmetry_anchors():
    # regression anchors recorded from the converged contour evaluation
    pars = default_params(0.5, 6)
    anchors = [
        ((0, 12, 1, 13), -0.14688195181044253),
        ((1, 13, 0, 12), 0.014928454550485503),
        ((-1, 10, 2, 14), -0.02375353756292509),
    ]
    for (u, x, v, y), want in anchors:
        got = kn_block_matrix(pars, [(u, [x]), (v, [y])])[0, 1]
        assert got == pytest.approx(want, abs=1e-9)


def test_stacked_product_matches_block_oracle():
    # two lines at u = 1 share one scan per side with different windows;
    # the line at u = 3 gives u < v and u > v blocks against both
    pars = default_params(0.5, 64)
    lines = [(1, np.arange(120, 130)), (1, np.arange(136, 141)),
             (3, np.arange(125, 133))]
    ref = kn_block_oracle(pars, lines, 4096)
    assert np.abs(ref.imag).max() < 1e-12
    assert np.abs(kn_block_matrix(pars, lines) - ref.real).max() <= 1e-12


def test_gap_monotone_in_threshold():
    pars = default_params(0.5, 3)
    vals = [discrete_gap_probability(pars, 0, M) for M in range(0, 10)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 0.99


def test_gap_window_doubles_until_the_tail_bound_holds():
    # at N = 64 the first window has 64 sites; above 95, about 4.5
    # fluctuation scales below the edge at 128, the next 64 sites still
    # hold 2.4e-8 expected points, so the window doubles once
    pars = default_params(0.5, 64)
    assert _window(pars, [(0, 128)]) == 64
    assert _window(pars, [(0, 95)]) == 128
    assert _window(pars, [(0, 128), (2, 95)]) == 128


def test_gap_window_raises_when_no_window_certifies(monkeypatch):
    # a kernel with one expected point on every site fails every tail bound
    monkeypatch.setattr(png_kernel, "_real_factors",
                        lambda params, rows, cols, tol: 2 * [np.eye(
                            len(rows[0][1]))])
    with pytest.raises(NumericsError):
        joint_gap_probability(default_params(0.5, 3), [(0, 2)])


def _window_by_diagonal(params, events):
    # the tail bound read off the diagonal of the full product
    first = 8 * int(math.ceil(d_scaling(params.alpha ** 2)
                              * params.N ** (1.0 / 3.0)))
    for W in png_kernel._doublings(first, 1280):
        tail = sum(float(np.abs(np.diagonal(ktilde_matrix(
            params, u, u, *2 * [np.arange(thr + W + 1, thr + 2 * W + 1)],
            1e-8 / (2 * W * len(events))))).sum()) for u, thr in events)
        if tail <= 0.5e-8:
            return W


@pytest.mark.parametrize("N, events", [
    (1, [(0, 0)]), (1, [(0, 3)]), (64, [(0, 128)]), (64, [(0, 95)]),
    (64, [(0, 128), (2, 95)]), (1024, [(0, 2040), (5, 2050)]),
    (1024, [(0, 1930)])])
def test_window_tail_reads_the_diagonal_without_the_product(N, events):
    # the row-wise dot of F and H is the product's diagonal up to the order
    # of its sums, and every window is the one the full product gives
    pars = default_params(0.5, N)
    W = _window(pars, events)
    assert W == _window_by_diagonal(pars, events)
    for u, thr in events:
        xs = np.arange(thr + W + 1, thr + 2 * W + 1)
        tol = 1e-8 / (2 * W * len(events))
        full = np.diagonal(ktilde_matrix(pars, u, u, xs, xs, tol))
        dots = np.einsum("ij,ij->i", *png_kernel._real_factors(
            pars, [(u, xs)], [(u, xs)], tol))
        tail = np.abs(full).sum()
        assert np.abs(dots - full).max() <= 1e-15 * tail
        assert abs(np.abs(dots).sum() - tail) <= 1e-15 * tail


@settings(max_examples=40, deadline=None)
@given(st.integers(-20, 20), st.integers(0, 1500), st.integers(0, 1500),
       st.sampled_from([512, 1024]), st.sampled_from([1, -1]))
def test_windowed_scan_is_a_slice_of_the_full_scan(t, a, b, n, sign):
    pars = default_params(0.5, 64)
    lo, hi = sorted((a, b))
    full = png_kernel._coefficient_scan(pars, t, 0, hi, n, sign)
    part = png_kernel._coefficient_scan(pars, t, lo, hi, n, sign)
    assert part.tobytes() == full[lo:].tobytes()


def test_windowed_scan_keeps_the_overflow_guard_on_hi():
    # hi |log r2| > 690 from hi = 3785 at N = 64, whatever the scan's start
    pars = default_params(0.5, 64)
    assert png_kernel._coefficient_scan(pars, 0, 3700, 3700, 512, 1).size == 1
    for lo in (0, 3000, 4000):
        with pytest.raises(NumericsError, match="dynamic range"):
            png_kernel._coefficient_scan(pars, 0, lo, 4000, 512, 1)


def test_contour_doubling_converges_at_default():
    pars = default_params(0.5, 64)
    x = int(growth_speed(0.25) * 64)
    a = ktilde_matrix(pars, 0, 0, [x], [x], tol=1e-10)
    assert math.isfinite(float(a[0, 0]))


def test_two_time_joint_law_matches_simulation():
    # the strongest convention arbiter: multi-time determinants against
    # direct simulation of the interface at N=2
    q = 0.25
    pars = default_params(math.sqrt(q), 2)
    R = 200_000
    h = evolve_batch_heights(q, 3, 9, 3, range(R), [0, 2])
    for (a, b) in [(2, 1), (1, 1), (3, 2)]:
        det = joint_gap_probability(pars, [(0, a), (1, b)])
        emp = float(np.mean((h[:, 0] <= a) & (h[:, 1] <= b)))
        se = math.sqrt(emp * (1 - emp) / R)
        assert abs(det - emp) < 4 * se + 1e-4


def test_single_time_matches_lpp_simulation():
    q = 0.25
    N = 3
    pars = default_params(math.sqrt(q), N)
    R = 200_000
    rng = replica_generator(31, 2, 0)
    w = geometric_from_uniform(rng.random((R, N, N)), q)
    g = last_passage_batch(w)
    for M in (2, 3, 4, 6):
        det = discrete_gap_probability(pars, 0, M)
        emp = float(np.mean(g <= M))
        se = math.sqrt(emp * (1 - emp) / R)
        assert abs(det - emp) < 4 * se + 1e-4


def test_airy_limit_errors_decrease():
    rows = airy_limit_report(0.25, [64, 256])
    assert rows[1].abs_error < rows[0].abs_error


def test_airy_limit_equal_time_matches_airy_kernel():
    rows = airy_limit_report(0.25, [256])
    ref = rows[0].airy_reference
    assert abs(rows[0].scaled_kernel - ref) < 0.10 * abs(ref)


def test_scaled_kernel_decay_envelope():
    q = 0.25
    N = 128
    alpha = math.sqrt(q)
    d = d_scaling(q)
    mu = growth_speed(q)
    pars = default_params(alpha, N)
    xs = np.round(mu * N + np.linspace(0.0, 3.0, 4) * d * N ** (1.0 / 3.0))
    xr = (xs - mu * N) / (d * N ** (1.0 / 3.0))
    vals = ktilde_matrix(pars, 0, 0, *2 * [xs.astype(int)])
    bound = 10.0 * N ** (-1.0 / 3.0) * np.exp(-0.5 * np.add.outer(xr, xr))
    assert np.all(np.abs(vals) <= bound)


def _n64_box_sum():
    # criterion 10's lattice at N = 64 (K1 = 7, j1 = 116, window
    # [113, 119]): the box sum of four joints and the two single-time
    # values at j1 and j1 - 1
    pars = default_params(0.5, 64)
    joints = [joint_gap_probability(pars, [(0, a), (7, b)])
              for a in (116, 115) for b in (119, 112)]
    singles = [discrete_gap_probability(pars, 0, m) for m in (116, 115)]
    return joints + singles


def test_contour_ffts_are_taken_once_per_key(monkeypatch):
    keys, ffts = set(), []
    scan, fft = png_kernel._coefficient_scan, np.fft.fft

    def recording_scan(params, t, lo, hi, n, sign):
        keys.add((params, t, n, sign))
        return scan(params, t, lo, hi, n, sign)

    def counting_fft(a, *args, **kwargs):
        ffts.append(len(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(png_kernel, "_coefficient_scan", recording_scan)
    monkeypatch.setattr(np.fft, "fft", counting_fft)
    png_kernel._contour_fft.cache_clear()
    png_kernel._phi_coefficients.cache_clear()
    cold = _n64_box_sum()
    misses = png_kernel._contour_fft.cache_info().misses
    # at most two times, two sides, 512 and 1024 points
    assert misses == len(keys) == len(ffts) <= 8
    warm = _n64_box_sum()
    assert len(ffts) == misses
    assert [repr(v) for v in warm] == [repr(v) for v in cold]


def test_memoised_contour_arrays_refuse_writes():
    pars = default_params(0.5, 64)
    for a in (png_kernel._contour_fft(pars, 0, 512, 1),
              png_kernel._contour_fft(pars, 7, 512, -1),
              png_kernel._phi_coefficients(pars.alpha, 7, 512)):
        with pytest.raises(ValueError):
            a[0] = 0.0
    # and what a caller gets back is its own
    scan = png_kernel._coefficient_scan(pars, 0, 0, 200, 512, 1)
    scan[0] = 0.0
    assert png_kernel._coefficient_scan(pars, 0, 0, 200, 512, 1)[0] != 0.0


def test_gap_far_below_the_edge_raises():
    # at N = 1024 the edge is near 2048 and a fluctuation scale d N^(1/3)
    # is 18.3 sites. 1930 (6.4 scales below) still returns a number; at
    # 1900 (8.1 scales) the contour's imaginary residual, 2.0e-10, exceeds
    # the 1e-10 guard, and the call must raise rather than return one
    pars = default_params(0.5, 1024)
    assert 0.0 < discrete_gap_probability(pars, 0, 1930) < 1e-10
    with pytest.raises(NumericsError, match="imaginary residual"):
        discrete_gap_probability(pars, 0, 1900)
