"""Airy function evaluation and Gauss-Legendre quadrature rules.

Everything else in the package integrates products of Airy functions, so
this module is deliberately self-contained: no special-function library is
used.  ``airy_ai``/``airy_ai_prime`` combine three representations,

* a double-precision Maclaurin series of the two power-series solutions of
  ``y'' = x y`` for ``|x| <= 4.5``,
* the same series summed in exact rational arithmetic for
  ``4.5 < |x| <= 7.5`` (double precision loses too many digits to
  cancellation there, while the divergent asymptotic series has not yet
  reached 1e-12),
* asymptotic expansions with exponential/oscillatory prefactors beyond.

The vectorised evaluators used by the quadrature code stay in double
precision throughout (with compensated summation); their worst-case
absolute error, near the series/asymptotic seam, is a few 1e-11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError

# 3**(-2/3)/Gamma(2/3) and -3**(-1/3)/Gamma(1/3), forty digits.
_AI0_STR = "0.3550280538878172392600631860041831763980"
_AIP0_STR = "-0.2588194037928067984051835601892039634791"
AI_AT_ZERO = float(Fraction(_AI0_STR))
AIP_AT_ZERO = float(Fraction(_AIP0_STR))

#: Supported argument range of the public scalar evaluators.
AIRY_SUPPORT = (-60.0, 40.0)

_DOUBLE_SWITCH = 4.5   # double Maclaurin inside
_EXACT_SWITCH = 7.5    # rational Maclaurin up to here, asymptotics beyond
_VEC_POS_SWITCH = 5.8  # vectorised path switches to asymptotics earlier
_VEC_NEG_SWITCH = -7.5

_SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Maclaurin series of f, g with f(0)=1, f'(0)=0 and g(0)=0, g'(0)=1.
# The Airy ODE gives the three-term jumps  a_{k+1} = a_k x^3 / ((3k+2)(3k+3))
# for the f-terms and b_{k+1} = b_k x^3 / ((3k+3)(3k+4)) for the g-terms.
# ---------------------------------------------------------------------------

def _series_double(x: float):
    """Return (f, g, f', g') summed in double precision."""
    if x == 0.0:
        return 1.0, 0.0, 0.0, 1.0
    x3 = x * x * x
    fa, ga = 1.0, x
    f, g = fa, ga
    fp, gp = 0.0, 1.0
    for k in range(200):
        fa *= x3 / ((3 * k + 2) * (3 * k + 3))
        ga *= x3 / ((3 * k + 3) * (3 * k + 4))
        kk = k + 1
        f += fa
        g += ga
        fp += 3 * kk * fa / x
        gp += (3 * kk + 1) * ga / x
        if abs(fa) + abs(ga) < 1e-22 * (abs(f) + abs(g) + 1.0):
            break
    return f, g, fp, gp


def _series_exact(x: float):
    """Return (f, g, f', g') as Fractions; exact up to the truncation tail."""
    xf = Fraction(x)
    x3 = xf * xf * xf
    fa, ga = Fraction(1), xf
    f, g = fa, ga
    fp, gp = Fraction(0), Fraction(1)
    for k in range(400):
        fa *= x3 / ((3 * k + 2) * (3 * k + 3))
        ga *= x3 / ((3 * k + 3) * (3 * k + 4))
        kk = k + 1
        f += fa
        g += ga
        if x != 0:
            fp += 3 * kk * fa / xf
            gp += (3 * kk + 1) * ga / xf
        if abs(float(fa)) + abs(float(ga)) < 1e-45 * (abs(float(f)) + abs(float(g)) + 1.0):
            break
    return f, g, fp, gp


def _series_second(x: float, exact: bool):
    """Second derivatives f'', g'' of the two series solutions."""
    if x == 0.0:
        return 0.0, 0.0
    if exact:
        xf = Fraction(x)
        x3 = xf * xf * xf
        fa, ga = Fraction(1), xf
        fpp, gpp = Fraction(0), Fraction(0)
        x2 = xf * xf
        for k in range(400):
            fa *= x3 / ((3 * k + 2) * (3 * k + 3))
            ga *= x3 / ((3 * k + 3) * (3 * k + 4))
            kk = k + 1
            fpp += 3 * kk * (3 * kk - 1) * fa / x2
            gpp += (3 * kk + 1) * 3 * kk * ga / x2
            if abs(float(fa)) + abs(float(ga)) < 1e-45:
                break
        return float(fpp), float(gpp)
    x3 = x * x * x
    x2 = x * x
    fa, ga = 1.0, x
    fpp, gpp = 0.0, 0.0
    for k in range(200):
        fa *= x3 / ((3 * k + 2) * (3 * k + 3))
        ga *= x3 / ((3 * k + 3) * (3 * k + 4))
        kk = k + 1
        fpp += 3 * kk * (3 * kk - 1) * fa / x2
        gpp += (3 * kk + 1) * 3 * kk * ga / x2
        if abs(fa) + abs(ga) < 1e-22 * (abs(fpp) + abs(gpp) + 1.0):
            break
    return fpp, gpp


_AI0_FRAC = Fraction(_AI0_STR)
_AIP0_FRAC = Fraction(_AIP0_STR)


# ---------------------------------------------------------------------------
# Asymptotic expansions.  u_k are the classical Airy coefficients,
# u_0 = 1, u_{k+1} = u_k (6k+1)(6k+3)(6k+5) / (216 (k+1)(2k+1)),
# v_k = u_k (6k+1)/(1-6k).
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _uv_coefficients(kmax: int = 64):
    u = [1.0]
    for k in range(kmax):
        u.append(u[-1] * (6 * k + 1) * (6 * k + 3) * (6 * k + 5)
                 / (216.0 * (k + 1) * (2 * k + 1)))
    v = [u[k] * (6 * k + 1) / (1.0 - 6 * k) if k else 1.0
         for k in range(len(u))]
    return tuple(u), tuple(v)


def _asymptotic_sum(coeffs, xi: float) -> float:
    """Sum an alternating divergent series in 1/xi, truncating at the
    smallest term."""
    total = 0.0
    term = 1.0
    prev = math.inf
    for k, c in enumerate(coeffs):
        term = c * (-1.0) ** k / xi ** k if k else coeffs[0]
        mag = abs(term)
        if mag >= prev:
            break
        total += term
        prev = mag
        if mag < 1e-19 * abs(total):
            break
    return total


def _ai_asym_pos(x: float):
    u, v = _uv_coefficients()
    xi = (2.0 / 3.0) * x ** 1.5
    pre = math.exp(-xi) / (2.0 * _SQRT_PI * x ** 0.25)
    ai = pre * _asymptotic_sum(u, xi)
    aip = -(x ** 0.25) * math.exp(-xi) / (2.0 * _SQRT_PI) * _asymptotic_sum(v, xi)
    return ai, aip


def _ai_asym_neg(x: float):
    u, v = _uv_coefficients()
    t = -x
    xi = (2.0 / 3.0) * t ** 1.5
    u_even = u[0::2]
    u_odd = u[1::2]
    v_even = v[0::2]
    v_odd = v[1::2]
    xi2 = xi * xi
    s_ue = _asymptotic_sum(u_even, xi2)
    s_uo = _asymptotic_sum(u_odd, xi2) / xi
    s_ve = _asymptotic_sum(v_even, xi2)
    s_vo = _asymptotic_sum(v_odd, xi2) / xi
    c = math.cos(xi - math.pi / 4.0)
    s = math.sin(xi - math.pi / 4.0)
    ai = (c * s_ue + s * s_uo) / (_SQRT_PI * t ** 0.25)
    aip = (t ** 0.25) / _SQRT_PI * (s * s_ve - c * s_vo)
    return ai, aip


def _ai_scalar(x: float):
    ax = abs(x)
    if ax <= _DOUBLE_SWITCH:
        f, g, fp, gp = _series_double(x)
        return (AI_AT_ZERO * f + AIP_AT_ZERO * g,
                AI_AT_ZERO * fp + AIP_AT_ZERO * gp)
    if ax <= _EXACT_SWITCH:
        f, g, fp, gp = _series_exact(x)
        return (float(_AI0_FRAC * f + _AIP0_FRAC * g),
                float(_AI0_FRAC * fp + _AIP0_FRAC * gp))
    if x > 0:
        return _ai_asym_pos(x)
    return _ai_asym_neg(x)


def _check_support(x: float) -> float:
    x = float(x)
    if not math.isfinite(x) or x < AIRY_SUPPORT[0] or x > AIRY_SUPPORT[1]:
        raise DomainError(
            f"airy argument {x!r} outside supported range {AIRY_SUPPORT}")
    return x


def airy_ai(x: float) -> float:
    """Airy function Ai(x) on [-60, 40].

    Absolute error is below 1e-12 on [-20, 10] and below 1e-10 on the rest
    of the supported range.
    """
    return _ai_scalar(_check_support(x))[0]


def airy_ai_prime(x: float) -> float:
    """Derivative Ai'(x) on [-60, 40]; absolute error <= 1e-11 on [-20, 10]."""
    return _ai_scalar(_check_support(x))[1]


def airy_ai_second(x: float) -> float:
    """Second derivative Ai''(x) from the series branches, for |x| <= 26.

    Used to exercise the ODE residual Ai'' - x Ai independently of the
    first-derivative machinery; not a hot path.
    """
    x = float(x)
    if abs(x) > 26.0:
        raise DomainError("airy_ai_second supports |x| <= 26 only")
    if abs(x) <= 7.0:
        fpp, gpp = _series_second(x, exact=False)
    else:
        fpp, gpp = _series_second(x, exact=True)
    return AI_AT_ZERO * fpp + AIP_AT_ZERO * gpp


# ---------------------------------------------------------------------------
# Vectorised evaluators (internal).  Same branch structure, but all-double
# with compensated accumulation; these back every quadrature in the package.
# ---------------------------------------------------------------------------

def _series_vec(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    x3 = x ** 3
    fa = np.ones_like(x)
    ga = x.copy()
    f = fa.copy()
    g = ga.copy()
    fp = np.zeros_like(x)
    gp = np.ones_like(x)
    cf = np.zeros_like(x)  # Kahan compensations
    cg = np.zeros_like(x)
    xsafe = np.where(x == 0.0, 1.0, x)
    for k in range(120):
        fa *= x3 / ((3 * k + 2) * (3 * k + 3))
        ga *= x3 / ((3 * k + 3) * (3 * k + 4))
        kk = k + 1
        # compensated add of fa into f (and ga into g)
        yv = fa - cf
        tv = f + yv
        cf = (tv - f) - yv
        f = tv
        yv = ga - cg
        tv = g + yv
        cg = (tv - g) - yv
        g = tv
        fp += 3 * kk * fa / xsafe
        gp += (3 * kk + 1) * ga / xsafe
        if np.max(np.abs(fa) + np.abs(ga)) < 1e-21 * max(1.0, float(np.max(np.abs(f)))):
            break
    ai = AI_AT_ZERO * f + AIP_AT_ZERO * g
    aip = AI_AT_ZERO * fp + AIP_AT_ZERO * gp
    zero = x == 0.0
    if np.any(zero):
        ai = np.where(zero, AI_AT_ZERO, ai)
        aip = np.where(zero, AIP_AT_ZERO, aip)
    return ai, aip


def _asym_sum_vec(coeffs, xi: np.ndarray):
    """Vectorised optimally-truncated alternating sum in 1/xi."""
    total = np.full(xi.shape, coeffs[0], dtype=float)
    prev = np.full(xi.shape, np.inf)
    active = np.ones(xi.shape, dtype=bool)
    term = np.full(xi.shape, coeffs[0], dtype=float)
    for k in range(1, len(coeffs)):
        term = term * (-coeffs[k] / coeffs[k - 1]) / xi
        mag = np.abs(term)
        active &= mag < prev
        total = np.where(active, total + term, total)
        prev = np.where(active, mag, prev)
        if not np.any(active) or float(np.max(np.where(active, mag, 0.0))) < 1e-19:
            break
    return total


def _horner(coeffs, invxi: np.ndarray):
    out = np.full(invxi.shape, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * invxi + c
    return out


@lru_cache(maxsize=None)
def _alt_coeff_table():
    """Fixed-length alternating coefficient lists for Horner evaluation.

    The vectorised branches only see xi >= 9.3 (xi^2 >= 187 on the
    oscillatory side), where truncating at these depths leaves relative
    errors below ~2e-9 -- smaller than the optimal-truncation floor at the
    branch switch itself.
    """
    u, v = _uv_coefficients()
    alt_u = tuple(c * (-1.0) ** k for k, c in enumerate(u[:28]))
    alt_v = tuple(c * (-1.0) ** k for k, c in enumerate(v[:28]))
    ue = tuple(c * (-1.0) ** k for k, c in enumerate(u[0:24:2]))
    uo = tuple(c * (-1.0) ** k for k, c in enumerate(u[1:24:2]))
    ve = tuple(c * (-1.0) ** k for k, c in enumerate(v[0:24:2]))
    vo = tuple(c * (-1.0) ** k for k, c in enumerate(v[1:24:2]))
    return alt_u, alt_v, ue, uo, ve, vo


def _ai_vec_pos(x: np.ndarray):
    alt_u, alt_v, *_ = _alt_coeff_table()
    xi = (2.0 / 3.0) * x ** 1.5
    invxi = 1.0 / xi
    pre = np.exp(-xi) / (2.0 * _SQRT_PI * x ** 0.25)
    ai = pre * _horner(alt_u, invxi)
    aip = -(x ** 0.25) * np.exp(-xi) / (2.0 * _SQRT_PI) * _horner(alt_v, invxi)
    return ai, aip


def _ai_vec_neg(x: np.ndarray):
    _, _, ue, uo, ve, vo = _alt_coeff_table()
    t = -x
    xi = (2.0 / 3.0) * t ** 1.5
    inv2 = 1.0 / (xi * xi)
    s_ue = _horner(ue, inv2)
    s_uo = _horner(uo, inv2) / xi
    s_ve = _horner(ve, inv2)
    s_vo = _horner(vo, inv2) / xi
    c = np.cos(xi - math.pi / 4.0)
    s = np.sin(xi - math.pi / 4.0)
    q = t ** 0.25
    ai = (c * s_ue + s * s_uo) / (_SQRT_PI * q)
    aip = q / _SQRT_PI * (s * s_ve - c * s_vo)
    return ai, aip


def airy_ai_aip_vec(x: np.ndarray):
    """Vectorised (Ai, Ai') without domain checks; internal workhorse."""
    x = np.asarray(x, dtype=float)
    ai = np.empty_like(x)
    aip = np.empty_like(x)
    mid = (x >= _VEC_NEG_SWITCH) & (x <= _VEC_POS_SWITCH)
    pos = x > _VEC_POS_SWITCH
    neg = x < _VEC_NEG_SWITCH
    if np.any(mid):
        ai[mid], aip[mid] = _series_vec(x[mid])
    if np.any(pos):
        ai[pos], aip[pos] = _ai_vec_pos(x[pos])
    if np.any(neg):
        ai[neg], aip[neg] = _ai_vec_neg(x[neg])
    return ai, aip


# ---------------------------------------------------------------------------
# Gauss-Legendre rules.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights integrating exactly up to degree 2n-1 on
    (a, b)."""

    nodes: np.ndarray
    weights: np.ndarray
    interval: tuple[float, float]

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=None)
def _leggauss_cached(n: int):
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """The n-point Gauss-Legendre rule mapped affinely onto (a, b)."""
    if n < 1:
        raise DomainError("gauss_legendre needs n >= 1")
    a = float(a)
    b = float(b)
    if not a < b:
        raise DomainError("gauss_legendre needs a < b")
    ref_nodes, ref_weights = _leggauss_cached(int(n))
    half = 0.5 * (b - a)
    return QuadratureRule(
        nodes=ref_nodes * half + 0.5 * (a + b),
        weights=ref_weights * half,
        interval=(a, b),
    )


def panel_rule(edges, nodes_per_panel: int):
    """Composite Gauss-Legendre rule over consecutive panels.

    Returns flat (nodes, weights) arrays; ``edges`` must be increasing.
    """
    xs = []
    ws = []
    for a, b in zip(edges[:-1], edges[1:]):
        rule = gauss_legendre(nodes_per_panel, a, b)
        xs.append(rule.nodes)
        ws.append(rule.weights)
    return np.concatenate(xs), np.concatenate(ws)
