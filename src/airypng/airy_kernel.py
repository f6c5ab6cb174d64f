"""The two-time Airy kernel and its heat-kernel decomposition.

One evaluator, ``kernel_block``, gives A_{s,t}(x_a, y_b) on the nodes of two
``Leg``s (time lines whose Airy values are cached on the quadrature grids),
and it alone picks a block's route.  Equal times take the closed form
(Ai(x) Ai'(y) - Ai'(x) Ai(y)) / (x - y) on the nodes' (Ai, Ai'), with
Ai'(x)^2 - x Ai(x)^2 where x == y.  Otherwise the block is one scaled
matmul on one of three routes:

* ``s >= t``: ``int_0^inf exp(-z(s-t)) Ai(x+z) Ai(y+z) dz``, absolutely
  convergent;
* the decomposition ``a_tilde - heat_phi``: the growing exponential under
  the same integral, minus the closed-form heat kernel, while ``t-s <=
  A_TILDE_MAX_GAP`` and kappa = (t-s)^3/12 - (t-s) lo/2 <= _CANCEL_BUDGET
  with lo = min x + min y, so the cancellation stays bounded;
* otherwise the mirrored integral ``-int_0^inf exp(-u(t-s)) Ai(x-u)
  Ai(y-u) du``, absolutely convergent for any ``t-s > 0``.

``kernel_grid`` is one such route on one leg per axis, equal times
included (the closed form cancels badly for coordinates that differ by
little but not by 0), accepted after a 48/96 node-doubling check of every
entry; ``extended_airy_kernel`` and ``a_tilde`` are its 1x1 case (so lo =
x + y).

Grid cut.  A leg evaluates Ai on its quadrature grids only at arguments up
to its cut c = max(20, (x_+^(3/2) + 60)^(2/3)), x_+ = max(min node, 0);
beyond c a grid value is an exact 0 and is never evaluated.  There Ai is
below Ai(20) = 1.7e-27, and below 5e-18 of the largest |Ai| on the leg (Ai
falls by about e^-40 from x_+ to c), so the scalar kernel keeps its
relative accuracy at large coordinates.  The tail an entry loses is at
most, summed over its two legs:

* 4e-28 on the routes whose weight is at most 1 (s >= t, mirrored);
* 3.4e-15 on the decomposition route: with a = x+z, b = y+z and
  lo <= x + y, exp(gap z) <= exp(kappa - gap^3/12) exp(gap (a+b)/2), and
  exp(kappa - gap^3/12) sup_b |Ai(b)| exp(gap b/2) int_20^inf Ai(a)
  exp(gap a/2) da <= 1.7e-15 per leg for gap <= 2 and kappa <= 10.5.

A z-grid argument grows with z, so a leg keeps a leading run of
z-columns, and ``positive_block`` multiplies only over the columns both
legs keep.  On the u-grid arguments fall with u, and the lowest node of a
leg keeps every column.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np

from .errors import DomainError, settled
from .special import PANEL_EDGE, airy_ai_aip_vec, panel_rule

#: Coordinates below this are outside the supported window.
COORD_MIN = -20.0

#: Upper limit of the heat-kernel decomposition route.
A_TILDE_MAX_GAP = 2.0

# Decomposition is used only while the predicted cancellation
# exp(kappa) with kappa = gap^3/12 - gap*(x+y)/2 keeps ~1e-11 absolute
# accuracy in double precision.
_CANCEL_BUDGET = 10.5

_Z_MAX = 60.0

# Ai(c) / Ai(x_+) <= about exp(-_PEAK_DECAY) at the grid cut (``_cut``).
_PEAK_DECAY = 40.0


# ---------------------------------------------------------------------------
# Quadrature grids, the legs that cache Airy values on them, and the block
# evaluator.
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

    ``gap_key`` is the time gap floored to a multiple of 1/16 (see
    ``_gap_key``), so nearby gaps share a range; flooring only lengthens
    the range.  The range covers exp(-u*gap) down to ~1e-20 plus room for
    the algebraic prefactor of the oscillation.
    """
    gap = gap_key / 16.0
    u_max = min(46.0 / gap + 12.0, 220.0)
    n_panels = max(6, int(math.ceil(u_max / 2.0)))
    edges = np.linspace(0.0, u_max, n_panels + 1)
    return panel_rule(edges, npp)


def _gap_key(gap: float) -> int:
    return max(1, int(math.floor(gap * 16.0)))


def _cut(nodes: np.ndarray) -> float:
    """The largest grid argument a leg on ``nodes`` evaluates (see the
    module docstring)."""
    lo = max(float(nodes.min()), 0.0)
    return max(PANEL_EDGE, (lo ** 1.5 + 1.5 * _PEAK_DECAY) ** (2.0 / 3.0))


def _airy_within(nodes: np.ndarray, offsets: np.ndarray,
                 cut: float) -> np.ndarray:
    """Ai(x_a + offsets_k), one row per node, 0 wherever the argument
    exceeds ``cut``, on the leading columns that keep any argument (the
    lowest node keeps column 0).  One Airy call takes the kept points only.
    The argument table is dropped before that call, so the peak stays near
    17 bytes per grid point (mask, kept arguments or values, table), below
    the 24 of an (Ai, Ai') call on the whole table."""
    args = nodes[:, None] + offsets
    keep = args <= cut
    width = np.flatnonzero(keep.any(axis=0))[-1] + 1
    keep = keep[:, :width]
    args = args[:, :width][keep]
    values = airy_ai_aip_vec(args, derivative=False)
    del args
    table = np.zeros(keep.shape)
    table[keep] = values
    return table


class Leg:
    """Nodes on one time line plus their cached Airy values: (Ai, Ai') at
    the nodes, and Ai alone on the positive z-grid and on the negative
    u-grid of each gap key.  The grid values stop at the leg's ``cut``: an
    argument beyond it is an exact 0, never evaluated, and only the leading
    z-columns that keep an argument are stored.  ``weights`` are the
    Nystrom weights, if any."""

    def __init__(self, t, nodes, weights=None, npp=48):
        self.t = float(t)
        self.nodes = np.atleast_1d(nodes)
        self.weights = weights
        self.npp = npp
        self.cut = _cut(self.nodes)
        self._ai_aip = None
        self._ai_pos = None
        self._ai_neg = {}

    def ai_aip(self):
        """(Ai, Ai') at the nodes."""
        if self._ai_aip is None:
            self._ai_aip = airy_ai_aip_vec(self.nodes)
        return self._ai_aip

    def ai_pos(self):
        """Ai(x_a + z_k) on the leading columns k of the positive z-grid."""
        if self._ai_pos is None:
            z, _ = _positive_grid(self.npp)
            self._ai_pos = _airy_within(self.nodes, z, self.cut)
        return self._ai_pos

    def ai_neg(self, gap_key: int):
        """Ai(x_a - u_k) on the negative u-grid of ``gap_key``."""
        if gap_key not in self._ai_neg:
            u, _ = _negative_grid(gap_key, self.npp)
            self._ai_neg[gap_key] = _airy_within(self.nodes, -u, self.cut)
        return self._ai_neg[gap_key]


def positive_block(leg_i: Leg, leg_j: Leg, delta: float) -> np.ndarray:
    """int_0^inf exp(-delta z) Ai(x_a+z) Ai(y_b+z) dz over the two legs;
    a_tilde for delta = -(t-s)."""
    z, w = _positive_grid(leg_i.npp)
    ai_i, ai_j = leg_i.ai_pos(), leg_j.ai_pos()
    k = min(ai_i.shape[1], ai_j.shape[1])  # the columns both legs keep
    return (ai_i[:, :k] * (w[:k] * np.exp(-delta * z[:k]))) @ ai_j[:, :k].T


def mirrored_block(leg_i: Leg, leg_j: Leg, gap: float) -> np.ndarray:
    """-int_0^inf exp(-gap u) Ai(x_a-u) Ai(y_b-u) du over the two legs."""
    key = _gap_key(gap)
    u, w = _negative_grid(key, leg_i.npp)
    return -(leg_i.ai_neg(key) * (w * np.exp(-gap * u))) @ leg_j.ai_neg(key).T


def _route(s: float, t: float, lo: float):
    """(integral over two legs, heat-kernel gap) of the route for times
    s, t and lowest coordinate sum ``lo``.  The kernel is the integral,
    minus heat_phi at the returned gap when that gap is not 0."""
    gap = t - s
    if gap <= 0.0:
        return partial(positive_block, delta=-gap), 0.0
    kappa = gap ** 3 / 12.0 - gap * lo / 2.0
    if gap <= A_TILDE_MAX_GAP and kappa <= _CANCEL_BUDGET:
        return partial(positive_block, delta=-gap), gap
    return partial(mirrored_block, gap=gap), 0.0


def kernel_block(leg_i: Leg, leg_j: Leg) -> np.ndarray:
    """Matrix A_{t_i, t_j}(x_a, y_b) over the two node sets (no weights):
    the closed form at equal times, else the route's integral."""
    if leg_i.t == leg_j.t:
        ai_x, aip_x = leg_i.ai_aip()
        ai_y, aip_y = leg_j.ai_aip()
        x = leg_i.nodes
        dx = x[:, None] - leg_j.nodes[None, :]
        same = dx == 0.0
        cross = ai_x[:, None] * aip_y[None, :] - aip_x[:, None] * ai_y[None, :]
        diagonal = (aip_x * aip_x - x * ai_x * ai_x)[:, None]
        return np.where(same, diagonal, cross / np.where(same, 1.0, dx))
    integral, heat_gap = _route(leg_i.t, leg_j.t,
                                leg_i.nodes.min() + leg_j.nodes.min())
    block = integral(leg_i, leg_j)
    if heat_gap:
        block -= heat_phi(heat_gap, leg_i.nodes[:, None], leg_j.nodes)
    return block


def _gated(integral, s: float, t: float, xs, ys, what: str) -> np.ndarray:
    """``integral`` as a block on the legs (s, xs) and (t, ys), at 48 and
    96 nodes per panel; the latter once every entry agrees within
    1e-10 max(1, |value|)."""
    return settled((integral(Leg(s, xs, npp=npp), Leg(t, ys, npp=npp))
                    for npp in (48, 96)), 1e-10, what, relative=True)


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def heat_phi(alpha: float, x, y):
    """Closed-form heat kernel phi_alpha(x, y); x and y broadcast."""
    if not alpha > 0:
        raise DomainError("heat_phi needs alpha > 0")
    return np.exp(-((x - y) ** 2) / (4.0 * alpha)
                  - alpha * (x + y) / 2.0
                  + alpha ** 3 / 12.0) / math.sqrt(4.0 * math.pi * alpha)


def a_tilde(s: float, t: float, x: float, y: float) -> float:
    """int_0^inf exp(z(t-s)) Ai(x+z) Ai(y+z) dz for 0 < t-s <= 2."""
    _check_domain(s, t, x, y)
    gap = t - s
    if not gap > 0:
        raise DomainError("a_tilde needs t > s")
    if gap > A_TILDE_MAX_GAP:
        raise DomainError(f"a_tilde supports t - s <= {A_TILDE_MAX_GAP}")
    return float(_gated(partial(positive_block, delta=-gap), s, t, x, y,
                        "a_tilde")[0, 0])


def _check_domain(s: float, t: float, x: float, y: float):
    """Finite times s, t and lowest coordinates x, y >= COORD_MIN (NaN
    fails the comparison)."""
    if not (math.isfinite(s) and math.isfinite(t)):
        raise DomainError("times s and t must be finite")
    if not (x >= COORD_MIN and y >= COORD_MIN):
        raise DomainError(f"coordinates must be numbers >= {COORD_MIN}")


def kernel_grid(s: float, t: float, xs, ys) -> np.ndarray:
    """A_{s,t}(x_a, y_b) over the grid xs x ys, coordinates >= -20: one
    block on one leg per axis, on the route of lo = min xs + min ys."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    _check_domain(s, t, xs.min(), ys.min())
    integral, heat_gap = _route(s, t, xs.min() + ys.min())
    # on the decomposition route the doubling gate judges a_tilde on its
    # own scale; heat_phi is exact and subtracted after it
    block = _gated(integral, s, t, xs, ys, "kernel_grid")
    return block - heat_phi(heat_gap, xs[:, None], ys) if heat_gap else block


def extended_airy_kernel(s: float, t: float, x: float, y: float) -> float:
    """Two-time Airy kernel A_{s,t}(x, y) for coordinates >= -20."""
    return float(kernel_grid(s, t, x, y)[0, 0])
