"""Nystrom discretization of the multi-time Airy operator and the
distributions built on its Fredholm determinant.

A joint event {A(t_1) <= xi_1, ..., A(t_m) <= xi_m} is the determinant
det(I - D) of the symmetrized block matrix D with entries
sqrt(w_a) A_{t_i,t_j}(x_a, x_b) sqrt(w_b), nodes living on the truncated
half-lines (xi_i, xi_i + L].  This module owns the node rules, the
assembly and the determinants; every block comes from
``airy_kernel.kernel_block``, which picks its route: the closed form at
equal times, one scaled matmul on a quadrature grid between two times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericsError, settled
from .airy_kernel import Leg, kernel_block
from .special import panel_rule

DEFAULT_NODES = 192
DEFAULT_CUTOFF = 16.0
THRESHOLD_MIN = -8.0


@dataclass(frozen=True)
class TimeGrid:
    """Ordered times t_1 < ... < t_m with per-time thresholds xi_i."""

    times: tuple
    thresholds: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        thresholds = tuple(float(x) for x in self.thresholds)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "thresholds", thresholds)
        if not 1 <= len(times) <= 8:
            raise DomainError("TimeGrid supports 1..8 time points")
        if len(times) != len(thresholds):
            raise DomainError("times and thresholds must have equal length")
        if not all(map(math.isfinite, times + thresholds)):
            raise DomainError("times and thresholds must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("times must be strictly increasing")

    @property
    def m(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class _Operator:
    """The Nystrom matrix of ``_operator_from_legs``, read by name
    (perfbench's tracer reads its order off ``block_matrix``)."""

    block_matrix: np.ndarray


# ---------------------------------------------------------------------------
# Leg construction and block assembly.
# ---------------------------------------------------------------------------

def _panel_edges(lo: float, hi: float) -> np.ndarray:
    """Panel edges on (lo, hi]; finer panels near lo where the kernel
    carries its mass.  Steps of 1.5 up to lo + 6, then 2.5, decided on the
    offsets from lo, which are exact, so the panel count does not depend
    on how lo's sums round."""
    offsets = [0.0]
    while offsets[-1] < hi - lo - 1e-12:
        offsets.append(offsets[-1] + (1.5 if offsets[-1] < 6.0 else 2.5))
    return np.minimum(lo + np.asarray(offsets), hi)


def _leg_rule(lo: float, hi: float, n: int):
    """Composite GL rule on (lo, hi], about n nodes and at least 4 per
    panel."""
    edges = _panel_edges(lo, hi)
    per = max(4, int(math.ceil(n / (len(edges) - 1))))
    return panel_rule(edges, per)


def _scaled_block(leg_i: Leg, leg_j: Leg) -> np.ndarray:
    """The Nystrom block sqrt(w_a) A_{t_i, t_j}(x_a, y_b) sqrt(w_b)."""
    return (np.sqrt(leg_i.weights)[:, None] * kernel_block(leg_i, leg_j)
            * np.sqrt(leg_j.weights)[None, :])


def _operator_from_legs(legs) -> _Operator:
    """The symmetrized Nystrom matrix over ``legs``, one block per leg
    pair.  A leg evaluates Airy values as its blocks first need them: its
    nodes (Ai, Ai') for the equal-time blocks, and once per grid its kept
    grid points (Ai only) for the blocks between times."""
    sizes = [len(leg.nodes) for leg in legs]
    total = sum(sizes)
    D = np.empty((total, total))
    offs = np.concatenate([[0], np.cumsum(sizes)])
    for i, leg_i in enumerate(legs):
        for j, leg_j in enumerate(legs):
            D[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = \
                _scaled_block(leg_i, leg_j)
    return _Operator(D)


def _grid_legs(grid: TimeGrid, n: int, L: float, npp: int) -> list:
    return [Leg(t, *_leg_rule(xi, xi + L, n), npp)
            for t, xi in zip(grid.times, grid.thresholds)]


def _det_i_minus(D: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(np.eye(D.shape[0]) - D)
    return float(sign * math.exp(logdet))


def _gap_value(grid: TimeGrid, n: int, L: float, npp: int) -> float:
    return _det_i_minus(
        _operator_from_legs(_grid_legs(grid, n, L, npp)).block_matrix)


def _density_value(grid: TimeGrid, n: int, L: float, npp: int):
    """(P, dP/dxi_1) from one bordered Nystrom matrix D+: the legs of
    ``grid`` plus a one-node probe leg at (t_1, xi_1) of weight 1.

    With D the leading block, P = det(I - D), and moving the endpoint xi_1
    gives dP/dxi_1 = P R(xi_1, xi_1), the resolvent kernel at the endpoint
    (Tracy-Widom 1994): R = D+_pp + D+_p,: (I - D)^-1 D+_:,p.
    """
    probe = Leg(grid.times[0], [grid.thresholds[0]], np.ones(1), npp)
    M = _operator_from_legs(_grid_legs(grid, n, L, npp) + [probe]).block_matrix
    np.negative(M, out=M)
    M.flat[::M.shape[0] + 1] += 1.0      # M = I - D+, formed in place
    k = M.shape[0] - 1
    sign, logdet = np.linalg.slogdet(M[:k, :k])
    P = float(sign * math.exp(logdet))
    border = M[k, :k] @ np.linalg.solve(M[:k, :k], M[:k, k])
    return P, P * float(1.0 - M[k, k] + border)


def _certified(value, grid: TimeGrid, n: int, L: float, what):
    """``value(grid, m, L, 48)``, accepted only if the (2m, L+4) rerun,
    which also doubles the z-grid nodes per panel (48 to 96) of the blocks
    between times, moves each component by at most 1e-8; the rerun's
    result is returned.  For a single time the kernel is the closed form,
    so the rerun certifies the m-node Nystrom quadrature and the truncation
    of (xi, inf) at xi + L.

    The pair is tried at m = n/4, n/2 and n, cheapest first (Nystrom
    quadrature of these analytic kernels converges exponentially in m,
    Bornemann 2010), and the first that settles is returned.  A pair needs
    6 nodes per panel (m >= 48 at L = 16): with fewer, the 4-node floor of
    ``_leg_rule`` leaves both rules of a pair nearly alike, and they can
    agree while both are far off.  A lower pair with fewer is skipped; a
    top pair with fewer is not accepted but raises ``NumericsError`` with
    its two values, as does a top pair that disagrees.  Every gap
    probability, density, F_2 and F_2' value of this module comes from
    this ladder."""
    if any(xi < THRESHOLD_MIN for xi in grid.thresholds):
        raise DomainError(f"thresholds below {THRESHOLD_MIN} are unsupported")
    if not (n >= 16 and 8.0 <= L < math.inf):
        raise DomainError(f"{what} needs n >= 16 and a finite L >= 8")

    def pair(m):
        return (value(grid, *level)
                for level in ((m, L, 48), (2 * m, L + 4.0, 96)))

    fewest = 6 * (len(_panel_edges(0.0, L)) - 1)
    if n < fewest:
        raise NumericsError(f"{what}: n = {n} has fewer than 6 nodes per "
                            f"panel (n >= {fewest} at L = {L:g}) and cannot "
                            "be certified", estimates=tuple(pair(n)))
    for m in (n // 4, n // 2):
        if m >= fewest:
            try:
                return settled(pair(m), 1e-8, what)
            except NumericsError:
                pass
    return settled(pair(n), 1e-8, what)


def gap_probability(grid: TimeGrid, n: int = DEFAULT_NODES,
                    L: float = DEFAULT_CUTOFF) -> float:
    """P[A(t_i) <= xi_i for all i] as det(I - D), certified by
    ``_certified``; ``n`` is the top order of its ladder."""
    return _certified(_gap_value, grid, n, L, "gap_probability")


def _gap_density(grid: TimeGrid, n: int, L: float):
    """(P, dP/dxi_1) of the gap event of ``grid``, both certified; every
    density and conditional probability is built on it."""
    return _certified(_density_value, grid, n, L, "density")


# ---------------------------------------------------------------------------
# Tracy-Widom GUE distribution.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=100_000)
def tw2_cdf(s: float, n: int = DEFAULT_NODES,
            L: float = DEFAULT_CUTOFF) -> float:
    """F_2(s), the GUE Tracy-Widom distribution function, for s >= -8."""
    return gap_probability(TimeGrid((0.0,), (s,)), n=n, L=L)


@lru_cache(maxsize=100_000)
def tw2_pdf(s: float, n: int = DEFAULT_NODES,
            L: float = DEFAULT_CUTOFF) -> float:
    """F_2'(s) for s >= -8, exactly: F_2(s) times the resolvent of the Airy
    kernel at the endpoint s (``_gap_density`` on one time), under the same
    refinement certificate as ``tw2_cdf``, and memoised like it."""
    return _gap_density(TimeGrid((0.0,), (s,)), n, L)[1]


@lru_cache(maxsize=None)
def _tw2_moments():
    """(mean, variance) of TW2 from 128-node Gauss quadrature of the exact,
    certified density ``tw2_pdf`` over [-7.5, 8]."""
    nodes, weights = panel_rule(np.linspace(-7.5, 8.0, 17), 8)
    dens = np.array([tw2_pdf(float(s)) for s in nodes])
    mass = float(np.dot(weights, dens))
    mean = float(np.dot(weights, nodes * dens)) / mass
    second = float(np.dot(weights, nodes ** 2 * dens)) / mass
    return mean, second - mean ** 2


# ---------------------------------------------------------------------------
# The conditional window probability of the local Brownian comparison.
# ---------------------------------------------------------------------------

def conditional_window_probability(t1: float, p1: float, offsets,
                                   epsilon: float, n: int = 160,
                                   L: float = DEFAULT_CUTOFF) -> float:
    """P[A(t_i) in [p1 + a_i sqrt(eps), p1 + b_i sqrt(eps)] for all i >= 2
    given A(t_1) = p1], with exact conditioning.

    The joint density at A(t_1) = p1 is the 2^(m-1)-vertex box sum of
    dP/dxi_1 at xi_1 = p1 over the later windows (``_gap_density``); it is
    divided by the TW2 density F_2'(p1).  ``offsets`` lists (s_gap, a, b)
    per later time; t_i = t_{i-1} + s_gap * epsilon.
    """
    offsets = list(offsets)
    if not 1 <= len(offsets) <= 3:
        raise DomainError("conditional window supports 1..3 offsets")
    if not 0.01 <= epsilon <= 0.5:
        raise DomainError("epsilon must lie in [0.01, 0.5]")
    times = [float(t1)]
    windows = []
    root = math.sqrt(epsilon)
    for s_gap, a, b in offsets:
        if not s_gap > 0:
            raise DomainError("time gaps s_i must be positive")
        if a > b:
            raise DomainError("window needs a <= b")
        times.append(times[-1] + s_gap * epsilon)
        windows.append((p1 + a * root, p1 + b * root))
    density = tw2_pdf(p1, n=n, L=L)
    if density < 1e-8:
        raise NumericsError(
            f"conditioning density {density:.3e} is ill-conditioned")
    m = len(offsets)
    joint = 0.0
    for mask in range(1 << m):
        vertex = [w[mask >> i & 1] for i, w in enumerate(windows)]
        sign = (-1) ** (m - bin(mask).count("1"))
        joint += sign * _gap_density(TimeGrid(tuple(times), (p1, *vertex)),
                                     n, L)[1]
    return joint / density


# ---------------------------------------------------------------------------
# Two-time covariance machinery (Hoeffding double integral).
# ---------------------------------------------------------------------------

# The integrand P[A(t)<=x, A(0)<=y] - F(x)F(y) is below 2e-10 once either
# coordinate leaves [-6.9, 5.3], so the [-8, 8]^2 contract domain can be
# clipped to it; these are its x-panels.
_COV_X_EDGES = np.array([-6.9, -4.0, -1.5, 1.0, 5.3])
_COV_NPP = 32


def _covariance_once(t: float, n: int, L: float, per: int) -> float:
    """Cov(A(t), A(0)) as the Hoeffding integral of
    P[A(t) <= x, A(0) <= y] - F(x) F(y), in coordinates rotated to follow
    the near-diagonal crossover, ``per`` Gauss nodes on every u- and
    x-panel.

    The stationary two-time law is exchangeable in its two arguments (the
    determinants agree to machine precision under threshold swap), so only
    u = x - y >= 0 is integrated and doubled.

    Every u-row integrates x over the same panels [-6.9, -4, -1.5, 1, 5.3]
    and skips the nodes whose y = x - u falls below -6.9, where the
    integrand is below 2e-10.  So each level builds exactly 4 ``per``
    time-t legs, one per x node, visited x-major: each builds E = I - D_tt,
    F(x) = det E and E^-1 once.  Every (u, x) node on it then builds only
    its time-0 leg at y = x - u, A = I - D_00, and takes the joint
    determinant as the Schur complement det(A - D_0t E^-1 D_t0) F(x), so
    every LU is of one leg's order.  E is worst conditioned at the lowest x
    (cond 7.8e5 at x = -6.9, n = 96, where F(x) = 8.8e-13), so the identity
    costs under 1e-21 absolute.
    """
    width = max(math.sqrt(2.0 * t), 0.05)
    u_edges = [0.0]
    for mult in (0.5, 1.5, 4.0):
        e = mult * width
        if e < 6.0:
            u_edges.append(e)
    u_max = _COV_X_EDGES[-1] - _COV_X_EDGES[0]
    u_edges.extend([7.0, u_max] if u_max > 7.0 + 1e-9 else [u_max])
    u_nodes, u_weights = panel_rule(np.array(u_edges), per)
    x_nodes, x_weights = panel_rule(_COV_X_EDGES, per)
    integrand = np.zeros((len(x_nodes), len(u_nodes)))
    for row, x in zip(integrand, x_nodes):
        legt = Leg(t, *_leg_rule(x, x + L, n), npp=_COV_NPP)
        D_tt = _scaled_block(legt, legt)
        F_x = _det_i_minus(D_tt)
        E_inv = np.linalg.inv(np.eye(len(D_tt)) - D_tt)
        for idx in np.flatnonzero(x - u_nodes >= _COV_X_EDGES[0]):
            y = x - u_nodes[idx]
            leg0 = Leg(0.0, *_leg_rule(y, y + L, n), npp=_COV_NPP)
            D_00 = _scaled_block(leg0, leg0)
            schur = D_00 + _scaled_block(leg0, legt) @ (
                E_inv @ _scaled_block(legt, leg0))
            row[idx] = F_x * (_det_i_minus(schur) - _det_i_minus(D_00))
    return 2.0 * float(u_weights @ (x_weights @ integrand))


@lru_cache(maxsize=None)
def _covariance(t: float, n: int, L: float) -> float:
    """``_covariance_once`` at 4 and then 6 nodes per panel, accepted when
    the two agree within 5e-3; memoised like ``tw2_cdf``."""
    return settled((_covariance_once(t, n, L, per) for per in (4, 6)),
                   5e-3, "covariance grid refinement")


def increment_variance(t: float, n: int = 96, L: float = DEFAULT_CUTOFF) -> float:
    """Var(A(t) - A(0)) = 2 (Var TW2 - Cov(A(t), A(0))) for t in
    [0.02, 0.5]; Var TW2 is ``_tw2_moments``, the quadrature of the exact
    density."""
    t = float(t)
    if t == 0.0:
        return 0.0
    if not 0.02 <= t <= 0.5:
        raise DomainError("increment_variance supports t in [0.02, 0.5]")
    cov = _covariance(t, n, L)
    _, var = _tw2_moments()
    return 2.0 * (var - cov)


def long_range_covariance(t: float, n: int = 96,
                          L: float = DEFAULT_CUTOFF) -> float:
    """Cov(A(t), A(0)) for t in [2, 6]."""
    t = float(t)
    if not 2.0 <= t <= 6.0:
        raise DomainError("long_range_covariance supports t in [2, 6]")
    return _covariance(t, n, L)
