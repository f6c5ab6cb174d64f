"""Independent reference computations used only by the tests.

Nothing here touches the library's own Airy or quadrature code paths: the
Airy oracle sums the Maclaurin series in extended-precision mpmath
arithmetic, the Tracy-Widom oracle is a high-resolution Nystrom build on
the classic closed-form kernel with scipy's Airy functions, the
last-passage oracle enumerates paths, and the growth oracle applies the
growth rule one site at a time.  The one exception is the factorial-moment
check at the end: it builds the package's own operator and tests the
determinantal structure that operator must carry.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import mpmath as mp
import numpy as np
import scipy.special as sp

from airypng.airy_kernel import Leg, kernel_block
from airypng.errors import DomainError
from airypng.fredholm import TimeGrid, _det_i_minus, _operator_from_legs
from airypng.special import panel_rule


def airy_series_oracle(x: float, derivative: int = 0) -> float:
    """Ai(x), Ai'(x) or Ai''(x) from the power series of y'' = xy, summed
    with enough working digits to cover the oscillatory cancellation."""
    # negative x: terms reach exp(xi); positive x: the result is exp(-xi)
    # below the terms, so twice the digits are needed
    dps = 40 + int((0.62 if x > 0 else 0.35) * abs(x) ** 1.5)
    with mp.workdps(dps):
        ai0 = mp.power(3, mp.mpf(-2) / 3) / mp.gamma(mp.mpf(2) / 3)
        aip0 = -mp.power(3, mp.mpf(-1) / 3) / mp.gamma(mp.mpf(1) / 3)
        if x == 0:
            return float((ai0, aip0, mp.mpf(0))[derivative])
        xm = mp.mpf(x)
        x3 = xm ** 3
        xd = xm ** derivative

        def falling(p):  # d^derivative/dx^derivative of x^p is this x^(p-d)
            return math.prod(range(p - derivative + 1, p + 1))

        # fa, ga are the x^(3k) and x^(3k+1) terms of the solutions f, g
        # with f(0) = g'(0) = 1 and f'(0) = g(0) = 0
        fa, ga = mp.mpf(1), xm
        f = falling(0) * fa / xd
        g = falling(1) * ga / xd
        for k in range(0, 4000):
            fa *= x3 / ((3 * k + 2) * (3 * k + 3))
            ga *= x3 / ((3 * k + 3) * (3 * k + 4))
            kk = k + 1
            f += falling(3 * kk) * fa / xd
            g += falling(3 * kk + 1) * ga / xd
            if abs(fa) + abs(ga) < mp.mpf(10) ** (-dps - 5):
                break
        return float(ai0 * f + aip0 * g)


def airy_ai_second(x: float) -> float:
    """Ai''(x) from the series oracle, for ODE-residual checks of the
    library's Ai."""
    return airy_series_oracle(x, derivative=2)


def airy_first_zero() -> float:
    """Root of Ai near -2.34, bisected on the series oracle."""
    lo, hi = -2.5, -2.2
    flo = airy_series_oracle(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = airy_series_oracle(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def classic_airy_kernel_matrix(nodes: np.ndarray) -> np.ndarray:
    """(Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y) with scipy Airy values."""
    ai, aip, _, _ = sp.airy(nodes)
    num = np.outer(ai, aip) - np.outer(aip, ai)
    den = nodes[:, None] - nodes[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        K = num / den
    diag = aip ** 2 - nodes * ai ** 2
    np.fill_diagonal(K, diag)
    return K


def f2_nystrom_oracle(s: float, n: int = 200, L: float = 14.0) -> float:
    """High-resolution Nystrom determinant of the classic Airy kernel on
    (s, s + L]; fully independent of the package's kernel pipeline."""
    per = max(8, int(math.ceil(n / 7)))
    nodes_list = []
    weights_list = []
    edges = np.linspace(s, s + L, 8)
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = np.polynomial.legendre.leggauss(per)
        nodes_list.append(0.5 * (b - a) * x + 0.5 * (a + b))
        weights_list.append(0.5 * (b - a) * w)
    nodes = np.concatenate(nodes_list)
    weights = np.concatenate(weights_list)
    K = classic_airy_kernel_matrix(nodes)
    r = np.sqrt(weights)
    D = r[:, None] * K * r[None, :]
    sign, logdet = np.linalg.slogdet(np.eye(len(nodes)) - D)
    return float(sign * math.exp(logdet))


# Frozen from f2_nystrom_oracle(0.0) (n=200); the known value of F2 at zero.
F2_AT_ZERO = 0.9693728283552632


def okounkov_lhs_quadrature(alpha: float, x: float, y: float) -> float:
    """int_R exp(alpha z) Ai(x+z) Ai(y+z) dz by composite Gauss panels on
    scipy Airy values; independent of the closed form and of the package
    quadratures."""
    z_hi = 60.0
    z_lo = -(46.0 / alpha + 25.0)
    edges = np.concatenate([np.linspace(z_lo, -10.0, 60),
                            np.linspace(-10.0, z_hi, 36)[1:]])
    xg, wg = np.polynomial.legendre.leggauss(32)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        z = 0.5 * (b - a) * xg + 0.5 * (a + b)
        w = 0.5 * (b - a) * wg
        ai_x = sp.airy(x + z)[0]
        ai_y = sp.airy(y + z)[0]
        total += float(np.dot(w, np.exp(alpha * z) * ai_x * ai_y))
    return total


def lpp_bruteforce(w: np.ndarray) -> int:
    """Max path sum over all up/right paths by explicit enumeration."""
    M, N = w.shape
    best = None
    for downs in combinations(range(M + N - 2), M - 1):
        i = j = 0
        s = int(w[0, 0])
        for step in range(M + N - 2):
            if step in downs:
                i += 1
            else:
                j += 1
            s += int(w[i, j])
        best = s if best is None else max(best, s)
    return best


def png_heights_oracle(noise_steps) -> list:
    """h(x, T) for x = -T..T from the flat state by the scalar rule
    h(x, s) = max(h(x-1, s-1), h(x, s-1), h(x+1, s-1)) + noise, where
    noise_steps[s-1] sits on x = -(s-1), -(s-3), ..., s-1."""
    h = {}
    for s, noise in enumerate(noise_steps, start=1):
        active = dict(zip(range(-(s - 1), s, 2), noise))
        h = {x: max(h.get(x - 1, 0), h.get(x, 0), h.get(x + 1, 0))
             + int(active.get(x, 0)) for x in range(-s, s + 1)}
    T = len(noise_steps)
    return [h.get(x, 0) for x in range(-T, T + 1)]


def geometric_pmf(q: float, m) -> np.ndarray:
    m = np.asarray(m)
    return (1.0 - q) * q ** m


def gaussian_window_mass(s: float, a: float, b: float) -> float:
    half = 0.5 / math.sqrt(s)
    return 0.5 * (math.erf(b * half) - math.erf(a * half))


def _bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free Bareiss
    elimination: every division is exact."""
    A = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(len(A) - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, len(A)) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, len(A)):
            for j in range(k + 1, len(A)):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[-1][-1] if A else 1


def toeplitz_cdf_exact(q, N: int, u: int, M: int) -> Fraction:
    """P[top line at time 2u <= M] for N layers, exactly.  By RSK it is the
    last-passage time G(m, n), m = N + u, n = N - u, with geometric(q)
    weights, and by Gessel's identity P[G(m, n) <= M] = (1-q)^(mn) D_M,
    D_M the M x M Toeplitz determinant of the symbol
    (1 + a z)^m (1 + a/z)^n, a = sqrt(q).  a must be rational: then
    r^(m+n) times the symbol, a = p/r, has integer coefficients
    sum_i C(m, i) C(n, i - k) p^(2i-k) r^(m+n-2i+k) at z^k, and D_M is a
    Bareiss determinant over the integers."""
    q = Fraction(q)
    p, r = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if Fraction(p, r) ** 2 != q:
        raise DomainError("sqrt(q) must be rational")
    m, n = N + u, N - u

    def coefficient(k):
        return sum(math.comb(m, i) * math.comb(n, i - k) * p ** (2 * i - k)
                   * r ** (m + n - 2 * i + k)
                   for i in range(max(0, k), min(m, n + k) + 1))

    det = _bareiss_det([[coefficient(j - i) for j in range(M)]
                        for i in range(M)])
    return (1 - q) ** (m * n) * Fraction(det, r ** ((m + n) * M))


def ktilde_block_oracle(params, u: int, v: int, xs, ys, n: int) -> np.ndarray:
    """Ktilde_N(2u, x; 2v, y) as the complex n-point trapezoid double sum,
    one block alone: z/(z - w) = sum_k (w/z)^k over k_terms + 1 terms turns
    it into (1-alpha)^{2(v-u)} sum_k a_{x+k} b_{y+k}, with a_j the
    coefficient of z^j in f on |z| = r2 and b_m that of w^-m in h on
    |w| = r1."""
    alpha, N = params.alpha, params.N
    k = min(int(math.ceil(48.0 / -math.log(params.r1 / params.r2))), 200_000)
    theta = 2.0 * math.pi * np.arange(n) / n
    z = params.r2 * np.exp(1j * theta)
    w = params.r1 * np.exp(1j * theta)
    f = np.exp((N + u) * np.log(1 - alpha / z)
               - (N - u) * np.log(1 - alpha * z))
    h = np.exp((N - v) * np.log(1 - alpha * w)
               - (N + v) * np.log(1 - alpha / w))
    js = np.arange(max(xs) + k + 1)
    ms = np.arange(max(ys) + k + 1)
    a = np.fft.fft(f)[js % n] / n * params.r2 ** -js.astype(float)
    b = np.fft.ifft(h)[ms % n] * params.r1 ** ms.astype(float)
    A = np.array([a[x:x + k + 1] for x in xs])
    B = np.array([b[y:y + k + 1] for y in ys])
    return (1.0 - alpha) ** (2 * (v - u)) * (A @ B.T)


def phi_oracle(params, u: int, v: int, deltas, n: int = 4096) -> np.ndarray:
    """phi_{2u,2v}(y - x) for u < v: the Fourier coefficients of
    ((1-alpha)^2 / |1 - alpha e^{i theta}|^2)^{v-u} on n points."""
    theta = 2.0 * math.pi * np.arange(n) / n
    alpha = params.alpha
    g = ((1.0 - alpha) ** 2
         / np.abs(1.0 - alpha * np.exp(1j * theta)) ** 2) ** (v - u)
    return np.fft.ifft(g)[np.asarray(deltas) % n].real


def kn_block_oracle(params, lines, n: int) -> np.ndarray:
    """K_N = Ktilde_N - phi over (u, xs) lines, block by block, complex."""
    return np.block([[ktilde_block_oracle(params, u, v, xs, ys, n)
                      - (phi_oracle(params, u, v, np.subtract.outer(ys, xs).T)
                         if u < v else 0.0)
                      for v, ys in lines] for u, xs in lines])


# ---------------------------------------------------------------------------
# Factorial-moment identity check: the package's own operator against the
# k-point correlation structure it must carry.
# ---------------------------------------------------------------------------

def _cells(lo: float, hi: float, m: int):
    edges = np.linspace(lo, hi, m + 1)
    return list(zip(edges[:-1], edges[1:]))


def _void_dets(grid: TimeGrid, cell_sets):
    """Build one operator over every cell and return a closure computing
    det(I - D) on arbitrary index subsets.

    ``cell_sets`` is a list of lists of (time_index, lo, hi); the closure
    takes tuples of flat cell indices.
    """
    legs = []
    index_of = {}
    flat = 0
    per_cell_nodes = 6
    for cells in cell_sets:
        for (ti, lo, hi) in cells:
            legs.append(Leg(grid.times[ti],
                            *panel_rule([lo, hi], per_cell_nodes)))
            index_of[flat] = slice(flat * per_cell_nodes,
                                   (flat + 1) * per_cell_nodes)
            flat += 1
    D = _operator_from_legs(legs).block_matrix

    def void(cell_indices) -> float:
        idx = np.concatenate([np.arange(index_of[c].start, index_of[c].stop)
                              for c in cell_indices])
        return _det_i_minus(D[np.ix_(idx, idx)])

    return void


def _lhs_mesh_estimate(grid: TimeGrid, boxes, mesh: int) -> float:
    """Factorial moment from occupation probabilities of a cell mesh.

    Each box is split into ``mesh`` cells; since the process a.s. has at
    most one particle per shrinking cell, the falling factorial (#B)_k is
    k! times the number of k-sets of occupied cells, so
      E[prod_i (#B_i)_{k_i}] ~ prod_i k_i! sum P[every chosen cell >= 1]
    over one k_i-set of cells per box, and joint occupation probabilities
    expand by inclusion-exclusion into void probabilities det(I - K) over
    cell unions.
    """
    cell_sets = []
    for (ti, (lo, hi), _k) in boxes:
        cell_sets.append([(ti, a, b) for a, b in _cells(lo, hi, mesh)])
    void = _void_dets(grid, cell_sets)

    def occupied(cells):
        """P[every listed cell holds >= 1 particle], by inclusion-exclusion."""
        total = 0.0
        p = len(cells)
        for mask in range(1 << p):
            chosen = tuple(cells[i] for i in range(p) if mask & (1 << i))
            total += (-1) ** len(chosen) * (1.0 if not chosen
                                            else void(chosen))
        return total

    groups = [combinations(range(b * mesh, (b + 1) * mesh), k)
              for b, (_ti, _iv, k) in enumerate(boxes)]
    scale = math.prod(math.factorial(k) for *_x, k in boxes)
    return scale * sum(occupied(sum(cells, ()))
                       for cells in product(*groups))


def _rhs_correlation_integral(grid: TimeGrid, boxes,
                              nodes_per_dim: int = 24) -> float:
    """Quadrature of the k-point correlation determinant over the box
    product."""
    slots = []
    for (ti, (lo, hi), k) in boxes:
        nodes, weights = panel_rule([lo, hi], nodes_per_dim)
        for _ in range(k):
            slots.append((ti, nodes, weights))
    k = len(slots)
    legs = [Leg(grid.times[ti], nodes, np.ones_like(nodes))
            for ti, nodes, _w in slots]
    # one k x k correlation matrix per node tuple (a_1, ..., a_k)
    idx = np.indices((nodes_per_dim,) * k).reshape(k, -1)
    mats = np.empty((idx.shape[1], k, k))
    for i in range(k):
        for j in range(k):
            mats[:, i, j] = kernel_block(legs[i], legs[j])[idx[i], idx[j]]
    weights = slots[0][2]
    for _ti, _nodes, w in slots[1:]:
        weights = np.multiply.outer(weights, w)
    return float(weights.ravel() @ np.linalg.det(mats))


def moment_identity_check(grid: TimeGrid, boxes):
    """Return (lhs, rhs) of the factorial-moment identity for the listed
    boxes.

    ``boxes`` is a list of (time_index, (lo, hi), k_i) with k_i in {1, 2}
    and total order at most 3; intervals on a common time line must be
    disjoint.  lhs comes from cell meshes of void probabilities (two mesh
    sizes, Richardson extrapolated), rhs from quadrature of the
    correlation determinant.
    """
    boxes = [(int(ti), (float(lo), float(hi)), int(k))
             for ti, (lo, hi), k in boxes]
    for ti, (lo, hi), k in boxes:
        if not 0 <= ti < grid.m:
            raise DomainError("box time index out of range")
        if k not in (1, 2):
            raise DomainError("k_i must be 1 or 2")
        if hi < lo:
            raise DomainError("box interval reversed")
    for i, (ti, (lo, hi), _) in enumerate(boxes):
        for tj, (lo2, hi2), _k in boxes[i + 1:]:
            if ti == tj and not (hi <= lo2 or hi2 <= lo):
                raise DomainError("boxes on one time line must be disjoint")
    if any(hi == lo for _t, (lo, hi), _k in boxes):
        return 0.0, 0.0
    total_k = sum(k for *_x, k in boxes)
    if total_k > 3:
        raise DomainError("total factorial order k must be <= 3")
    mesh = 8 if total_k == 3 else 16
    coarse = _lhs_mesh_estimate(grid, boxes, mesh)
    fine = _lhs_mesh_estimate(grid, boxes, 2 * mesh)
    lhs = 2.0 * fine - coarse
    rhs = _rhs_correlation_integral(grid, boxes)
    return lhs, rhs
