"""The two-time Airy kernel, its heat-kernel decomposition and correlation
functions.

For ``s >= t`` the kernel is the absolutely convergent integral
``int_0^inf exp(-z(s-t)) Ai(x+z) Ai(y+z) dz``.  For ``s < t`` there are two
usable representations and both are implemented:

* the decomposition ``A = a_tilde - heat_phi`` (growing exponential under
  the integral, minus the closed-form heat kernel), accurate while the two
  pieces do not dominate the difference;
* the mirrored integral ``-int_0^inf exp(-u(t-s)) Ai(x-u) Ai(y-u) du``,
  which converges absolutely for any ``t-s > 0`` and takes over when the
  decomposition would cancel catastrophically (large time gaps or very
  negative coordinates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericsError
from .special import airy_ai, airy_ai_prime, airy_ai_aip_vec, panel_rule

#: Coordinates below this are outside the supported window.
COORD_MIN = -20.0

#: Upper limit of the heat-kernel decomposition route.
A_TILDE_MAX_GAP = 2.0

# Decomposition is used only while the predicted cancellation
# exp(kappa) with kappa = gap^3/12 - gap*(x+y)/2 keeps ~1e-11 absolute
# accuracy in double precision.
_CANCEL_BUDGET = 10.5

_Z_MAX = 60.0


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point (t, x) on time line t."""

    t: float
    x: float

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise DomainError("SpaceTimePoint needs finite coordinates")


# ---------------------------------------------------------------------------
# Quadrature grids.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _positive_grid(npp: int = 48):
    """Nodes/weights for int_0^inf . dz after z = u^2, truncated at _Z_MAX.

    The substitution removes the sqrt-kink of the half-line and keeps the
    oscillatory region (arguments down to COORD_MIN) well sampled.
    ``npp`` is the Gauss node count per panel.
    """
    edges = np.linspace(0.0, math.sqrt(_Z_MAX), 7)
    u, wu = panel_rule(edges, npp)
    return u * u, 2.0 * u * wu


@lru_cache(maxsize=None)
def _negative_grid(gap_key: int, npp: int = 48):
    """Grid for -int_0^inf exp(-u*gap) Ai(x-u) Ai(y-u) du.

    ``gap_key`` encodes the rounded-up time gap so ranges are shared; the
    range covers exp(-u*gap) down to ~1e-20 plus room for the algebraic
    prefactor of the oscillation.
    """
    gap = gap_key / 16.0
    u_max = min(46.0 / gap + 12.0, 220.0)
    n_panels = max(6, int(math.ceil(u_max / 2.0)))
    edges = np.linspace(0.0, u_max, n_panels + 1)
    return panel_rule(edges, npp)


def _gap_key(gap: float) -> int:
    return max(1, int(math.floor(gap * 16.0)))


def _pair_products(x: float, y: float, z: np.ndarray) -> np.ndarray:
    ai_x, _ = airy_ai_aip_vec(x + z)
    ai_y, _ = airy_ai_aip_vec(y + z)
    return ai_x * ai_y


def _positive_integral(delta: float, x: float, y: float, npp: int) -> float:
    """int_0^inf exp(-delta*z) Ai(x+z) Ai(y+z) dz on the cached grid."""
    z, w = _positive_grid(npp)
    return float(np.dot(w * np.exp(-delta * z), _pair_products(x, y, z)))


def _negative_integral(gap: float, x: float, y: float, npp: int) -> float:
    u, w = _negative_grid(_gap_key(gap), npp)
    ai_x, _ = airy_ai_aip_vec(x - u)
    ai_y, _ = airy_ai_aip_vec(y - u)
    return -float(np.dot(w * np.exp(-gap * u), ai_x * ai_y))


def _with_doubling(fn, tol: float, what: str) -> float:
    coarse = fn(48)
    fine = fn(96)
    if not abs(coarse - fine) <= tol * max(1.0, abs(fine)):
        raise NumericsError(
            f"{what}: node-doubling disagreement {abs(coarse - fine):.3e}",
            estimates=(coarse, fine))
    return fine


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def heat_phi(alpha: float, x: float, y: float) -> float:
    """Closed-form heat kernel phi_alpha(x, y)."""
    if not alpha > 0:
        raise DomainError("heat_phi needs alpha > 0")
    return math.exp(-((x - y) ** 2) / (4.0 * alpha)
                    - alpha * (x + y) / 2.0
                    + alpha ** 3 / 12.0) / math.sqrt(4.0 * math.pi * alpha)


def a_tilde(s: float, t: float, x: float, y: float) -> float:
    """int_0^inf exp(z(t-s)) Ai(x+z) Ai(y+z) dz for 0 < t-s <= 2."""
    gap = t - s
    if not gap > 0:
        raise DomainError("a_tilde needs t > s")
    if gap > A_TILDE_MAX_GAP:
        raise DomainError(f"a_tilde supports t - s <= {A_TILDE_MAX_GAP}")
    _check_coords(x, y)
    return _with_doubling(
        lambda npp: _positive_integral(-gap, x, y, npp), 1e-10, "a_tilde")


def _check_coords(x: float, y: float):
    if x < COORD_MIN or y < COORD_MIN:
        raise DomainError(f"coordinates below {COORD_MIN} are unsupported")


def _equal_time_diagonal(x: float) -> float:
    return airy_ai_prime(x) ** 2 - x * airy_ai(x) ** 2


def extended_airy_kernel(s: float, t: float, x: float, y: float) -> float:
    """Two-time Airy kernel A_{s,t}(x, y) for coordinates >= -20."""
    _check_coords(x, y)
    if s >= t:
        gap = s - t
        if gap == 0.0 and abs(x - y) < 1e-6:
            # 0/0-safe diagonal; off-diagonal agreement with the closed
            # form is what the quadrature route is tested against.
            return _equal_time_diagonal(0.5 * (x + y))
        return _with_doubling(
            lambda npp: _positive_integral(gap, x, y, npp),
            1e-10, "extended_airy_kernel")
    gap = t - s
    kappa = gap ** 3 / 12.0 - gap * (x + y) / 2.0
    if gap <= A_TILDE_MAX_GAP and kappa <= _CANCEL_BUDGET:
        tilde = _with_doubling(
            lambda npp: _positive_integral(-gap, x, y, npp),
            1e-10, "extended_airy_kernel")
        return tilde - heat_phi(gap, x, y)
    return _with_doubling(
        lambda npp: _negative_integral(gap, x, y, npp),
        1e-10, "extended_airy_kernel")


def correlation_R(points) -> float:
    """k-point correlation det[A(z_i, z_j)] in input order, k <= 12."""
    pts = [p if isinstance(p, SpaceTimePoint) else SpaceTimePoint(*p)
           for p in points]
    k = len(pts)
    if not 1 <= k <= 12:
        raise DomainError("correlation_R supports 1..12 points")
    mat = np.empty((k, k))
    for i, pi in enumerate(pts):
        for j, pj in enumerate(pts):
            mat[i, j] = extended_airy_kernel(pi.t, pj.t, pi.x, pj.x)
    return float(np.linalg.det(mat))
