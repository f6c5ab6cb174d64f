"""Airy function evaluation and Gauss-Legendre quadrature rules.

Everything else in the package integrates products of Airy functions, so
this module is deliberately self-contained: no special-function library is
used.  ``airy_ai_aip_vec`` is the one Airy evaluator; ``airy_ai`` and
``airy_ai_prime`` call it on a one-element array.

* On [-20, 20] it sums Taylor polynomials of degree 12 about centres 1/8
  apart, so no argument is more than 1/16 from its centre.  The
  coefficients about a centre c follow from the Airy equation y'' = x y:
  a_2 = c a_0 / 2 and a_{k+2} = (c a_k + a_{k-1}) / ((k+1)(k+2)).
* Beyond +-20 it sums the classical asymptotic expansions with Horner's
  rule; ten terms leave a relative truncation error below 1e-16 there.

The centre values (a_0, a_1) = (Ai(c), Ai'(c)) are made once, on first
use, by Taylor stepping from centre to centre: from the forty-digit Ai(0)
and Ai'(0) out to -20, and from the asymptotic expansion at x = 20.25 back
to 0, the direction in which Ai grows and errors of the Bi kind decay.
The backward stepping must meet Ai(0) and Ai'(0) at 0; that match
certifies the table.

Against mpmath the absolute error is below 6e-16 on [-20, 20], and the
relative error below 5e-16 on [0, 20].  Beyond +-20 the rounding of
2 |x|^(3/2) / 3 inside exp and cos sets the error: up to 1.2e-13 absolute
(Ai') on [-60, -20] and 3e-14 relative on [20, 40].

Arrays are evaluated in blocks of at most 2**16 points written into the
preallocated outputs, so a call's temporaries stay at a few MB whatever
its size.  ``derivative=False`` returns Ai alone and skips every Ai'
operation; Horner's recurrence for Ai does not read Ai', so these values
are bit-identical to the first output of the default call.  The kernel
quadrature grids use it on the points within their leg's cut only (see
``airy_kernel``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericsError

# 3**(-2/3)/Gamma(2/3) and -3**(-1/3)/Gamma(1/3), forty digits.
AI_AT_ZERO = float("0.3550280538878172392600631860041831763980")
AIP_AT_ZERO = float("-0.2588194037928067984051835601892039634791")

#: Supported argument range of the public scalar evaluators.
AIRY_SUPPORT = (-60.0, 40.0)

PANEL_EDGE = 20.0       # Taylor panels on [-20, 20], asymptotics beyond
PANEL_WIDTH = 0.125
_PANEL_DEGREE = 12
_STEP_DEGREE = 24       # one centre-to-centre step of the table build
# The backward stepping starts from the asymptotic expansion at 4.5**2,
# where xi = 2 x**1.5 / 3 = 60.75 is exact, so exp(-xi) carries only its own
# rounding.
_BACKWARD_START = 20.25
_CERTIFICATE_TOL = 1e-13  # rounding keeps the miss near 1e-16
_BLOCK = 1 << 16

_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Asymptotic expansions.  u_k are the classical Airy coefficients,
# u_0 = 1, u_{k+1} = u_k (6k+1)(6k+3)(6k+5) / (216 (k+1)(2k+1)),
# v_k = u_k (6k+1)/(1-6k).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _asymptotic_coefficients():
    """Alternating u_k, v_k (k < 10) for Horner sums in 1/xi (x > 0), and
    their even and odd halves for sums in 1/xi^2 (x < 0)."""
    u = [1.0]
    for k in range(9):
        u.append(u[-1] * (6 * k + 1) * (6 * k + 3) * (6 * k + 5)
                 / (216.0 * (k + 1) * (2 * k + 1)))
    v = [c * (6 * k + 1) / (1.0 - 6 * k) for k, c in enumerate(u)]
    alt_u = [c * (-1.0) ** k for k, c in enumerate(u)]
    alt_v = [c * (-1.0) ** k for k, c in enumerate(v)]
    halves = [[c * (-1.0) ** k for k, c in enumerate(seq[start::2])]
              for seq in (u, v) for start in (0, 1)]
    return (alt_u, alt_v, *halves)


def _horner(coeffs, s: np.ndarray) -> np.ndarray:
    out = np.full(s.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= s
        out += c
    return out


def _asymptotic_positive(x: np.ndarray, derivative: bool = True):
    alt_u, alt_v, *_ = _asymptotic_coefficients()
    r = np.sqrt(x)
    q = np.sqrt(r)
    xi = x * r * 2.0 / 3.0
    e = np.exp(-xi) / (2.0 * _SQRT_PI)
    inv = 1.0 / xi
    ai = e / q * _horner(alt_u, inv)
    return (ai, -q * e * _horner(alt_v, inv)) if derivative else (ai,)


def _asymptotic_negative(x: np.ndarray, derivative: bool = True):
    _, _, ue, uo, ve, vo = _asymptotic_coefficients()
    r = np.sqrt(-x)
    q = np.sqrt(r)
    xi = -x * r * 2.0 / 3.0
    inv = 1.0 / xi
    inv2 = inv * inv
    c = np.cos(xi - math.pi / 4.0)
    s = np.sin(xi - math.pi / 4.0)
    ai = (c * _horner(ue, inv2) + s * inv * _horner(uo, inv2)) / (_SQRT_PI * q)
    if not derivative:
        return (ai,)
    aip = q / _SQRT_PI * (s * _horner(ve, inv2) - c * inv * _horner(vo, inv2))
    return ai, aip


# ---------------------------------------------------------------------------
# Taylor panels.
# ---------------------------------------------------------------------------

def _taylor(c, y, yp, degree: int) -> list:
    """Coefficients a_0..a_degree about c of the solution of y'' = x y with
    value y and slope yp at c (scalars, or arrays over many centres)."""
    a = [y, yp, 0.5 * c * y]
    for k in range(1, degree - 1):
        a.append((c * a[k] + a[k - 1]) / ((k + 1) * (k + 2)))
    return a


def _step(c: float, y: float, yp: float, h: float):
    """(y, y') at c + h from (y, y') at c."""
    a = _taylor(c, y, yp, _STEP_DEGREE)
    return (math.fsum(ak * h ** k for k, ak in enumerate(a)),
            math.fsum(k * ak * h ** (k - 1) for k, ak in enumerate(a) if k))


@lru_cache(maxsize=None)
def _panel_table():
    """Taylor coefficients, one row per power and one column per centre,
    and the certificate: how far the backward stepping lands from
    (Ai(0), Ai'(0))."""
    h = PANEL_WIDTH
    n = round(PANEL_EDGE / h)
    y = np.empty(2 * n + 1)
    yp = np.empty(2 * n + 1)
    y[n], yp[n] = AI_AT_ZERO, AIP_AT_ZERO
    # index j holds the centre (j - n) h; forward from 0 out to -20
    for j in range(n, 0, -1):
        y[j - 1], yp[j - 1] = _step((j - n) * h, y[j], yp[j], -h)
    # backward from the asymptotic expansion to 0, keeping centres (0, 20]
    m = round(_BACKWARD_START / h)
    ai, aip = _asymptotic_positive(np.array([m * h]))
    v, vp = float(ai[0]), float(aip[0])
    for i in range(m, 0, -1):
        if i <= n:
            y[n + i], yp[n + i] = v, vp
        v, vp = _step(i * h, v, vp, -h)
    certificate = max(abs(v - AI_AT_ZERO), abs(vp - AIP_AT_ZERO))
    if certificate > _CERTIFICATE_TOL:
        raise NumericsError(
            f"Airy panel table: backward stepping misses (Ai(0), Ai'(0)) "
            f"by {certificate:.3g}")
    return np.array(_taylor(np.arange(-n, n + 1) * h, y, yp,
                            _PANEL_DEGREE)), certificate


def _panels(x: np.ndarray, derivative: bool = True):
    """Horner's rule for the panel polynomial and, alongside unless
    ``derivative`` is False, its derivative."""
    coefficients, _ = _panel_table()
    j = np.rint(x * (1.0 / PANEL_WIDTH))
    t = x - j * PANEL_WIDTH
    idx = j.astype(np.intp)
    idx += round(PANEL_EDGE / PANEL_WIDTH)
    coef = np.empty_like(x)
    p = coefficients[-1].take(idx, mode="clip")
    dp = np.zeros_like(x) if derivative else None
    for row in coefficients[-2::-1]:
        if derivative:
            dp *= t
            dp += p
        p *= t
        p += row.take(idx, out=coef, mode="clip")
    return (p, dp) if derivative else (p,)


def _evaluate_block(x: np.ndarray, outs):
    """Fill ``outs``, (Ai,) or (Ai, Ai'), at the points ``x``."""
    derivative = len(outs) == 2
    pos = x > PANEL_EDGE
    neg = x < -PANEL_EDGE
    if not (pos.any() or neg.any()):
        for out, value in zip(outs, _panels(x, derivative)):
            out[...] = value
        return
    inner = ~(pos | neg)  # NaN goes to the panels and comes back NaN
    for mask, branch in ((inner, _panels), (pos, _asymptotic_positive),
                         (neg, _asymptotic_negative)):
        if mask.any():
            for out, value in zip(outs, branch(x[mask], derivative)):
                out[mask] = value


def airy_ai_aip_vec(x: np.ndarray, *, derivative: bool = True):
    """Vectorised (Ai, Ai') without domain checks; the package's one Airy
    evaluator.  With ``derivative=False`` it returns Ai alone, bit-identical
    to the first output of the default call."""
    x = np.asarray(x, dtype=float)
    outs = tuple(np.empty(x.shape) for _ in range(1 + derivative))
    flat_x, *flat_outs = (a.reshape(-1) for a in (x, *outs))
    for lo in range(0, flat_x.size, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        _evaluate_block(flat_x[block], [out[block] for out in flat_outs])
    return outs if derivative else outs[0]


def _check_support(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x < AIRY_SUPPORT[0] or x > AIRY_SUPPORT[1]:
        raise DomainError(
            f"airy argument {x!r} outside supported range {AIRY_SUPPORT}")
    return x


def _airy_scalar(x: float):
    ai, aip = airy_ai_aip_vec(np.array([_check_support(x)]))
    return float(ai[0]), float(aip[0])


def airy_ai(x: float) -> float:
    """Airy function Ai(x) on [-60, 40]; against mpmath the absolute error
    is below 6e-16 on [-20, 20] and 1.2e-13 on [-60, -20], the relative
    error below 3e-14 on [20, 40]."""
    return _airy_scalar(x)[0]


def airy_ai_prime(x: float) -> float:
    """Derivative Ai'(x) on [-60, 40], with the error bounds of
    ``airy_ai``."""
    return _airy_scalar(x)[1]


# ---------------------------------------------------------------------------
# Gauss-Legendre rules.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def panel_rule(edges, n: int):
    """The n-point Gauss-Legendre rule mapped affinely onto each panel
    between consecutive ``edges``, which must increase strictly: flat
    (nodes, weights), exact up to degree 2n-1 on every panel."""
    edges = np.asarray(edges, dtype=float)
    if n < 1:
        raise DomainError("panel_rule needs n >= 1")
    if edges.ndim != 1 or edges.size < 2 or not np.all(np.diff(edges) > 0):
        raise DomainError("panel_rule needs strictly increasing edges")
    ref_nodes, ref_weights = _leggauss(int(n))
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    return ((ref_nodes * half + 0.5 * (a + b)).ravel(),
            (ref_weights * half).ravel())
