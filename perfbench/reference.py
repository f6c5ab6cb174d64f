"""Reference values for the output checks, computed without the package's
Airy, kernel or quadrature code: scipy's Airy functions, numpy's
Gauss-Legendre nodes and brute-force path enumeration."""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations

import numpy as np
import scipy.special as sp


def _panels(edges, per_panel: int):
    x, w = np.polynomial.legendre.leggauss(per_panel)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    return ((half[:, None] * x + mid[:, None]).ravel(),
            (half[:, None] * w).ravel())


def classic_airy_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(Ai(x)Ai'(y) - Ai'(x)Ai(y)) / (x - y), with Ai'^2 - x Ai^2 where
    x = y: the equal-time Airy kernel in closed form."""
    ai_x, aip_x, _, _ = sp.airy(x)
    ai_y, aip_y, _, _ = sp.airy(y)
    num = np.outer(ai_x, aip_y) - np.outer(aip_x, ai_y)
    den = x[:, None] - y[None, :]
    same = np.abs(den) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / np.where(same, 1.0, den)
    diag = np.broadcast_to((aip_x ** 2 - x * ai_x ** 2)[:, None], out.shape)
    return np.where(same, diag, out)


@lru_cache(maxsize=None)
def f2_classic(s: float, nodes: int = 256, cutoff: float = 16.0) -> float:
    """F2(s) as a Nystrom determinant of the classic Airy kernel on
    (s, s + cutoff], 16 Gauss panels."""
    x, w = _panels(np.linspace(s, s + cutoff, 17), nodes // 16)
    r = np.sqrt(w)
    D = r[:, None] * classic_airy_kernel(x, x) * r[None, :]
    sign, logdet = np.linalg.slogdet(np.eye(x.size) - D)
    return float(sign * math.exp(logdet))


def mirrored_kernel(gap: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """-int_0^inf exp(-gap u) Ai(x - u) Ai(y - u) du for gap > 0: the
    two-time kernel A_{s,s+gap}(x, y), summed on unit panels up to where
    exp(-gap u) drops below 1e-17."""
    u_max = math.ceil(40.0 / gap + 10.0)
    u, w = _panels(np.arange(0.0, u_max + 1.0), 32)
    ai_x = sp.airy(x[:, None] - u[None, :])[0]
    ai_y = sp.airy(y[:, None] - u[None, :])[0]
    return -(ai_x * (w * np.exp(-gap * u))) @ ai_y.T


def lpp_corner(w: np.ndarray) -> np.ndarray:
    """Last-passage time to the far corner of each (M, N) field of a batch,
    as the maximum over every up/right path."""
    B, M, N = w.shape
    best = None
    for downs in combinations(range(M + N - 2), M - 1):
        i = j = 0
        total = w[:, 0, 0].copy()
        for step in range(M + N - 2):
            if step in downs:
                i += 1
            else:
                j += 1
            total += w[:, i, j]
        best = total if best is None else np.maximum(best, total)
    return best
