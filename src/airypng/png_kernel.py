"""The finite-N determinantal kernel of the multilayer growth model, by
double contour integration.

With q = alpha^2 the kernel is

  Ktilde_N(2u,x; 2v,y) = (2 pi i)^{-2} oint_{|z|=r2} dz/z oint_{|w|=r1}
        dw/w  (w^y / z^x) (z / (z - w)) G(z, w),
  G(z, w) = (1-alpha)^{2(v-u)} (1-alpha/z)^{N+u} (1-alpha w)^{N-v}
            / ((1-alpha z)^{N-u} (1-alpha/w)^{N+v}),

K_N = Ktilde_N - phi_{2u,2v}, with phi the theta-integral transition
kernel.  The placement of (x, y) is pinned empirically: the N=1 law is
exactly geometric and N<=3 gap probabilities match direct simulation.

Numerics: expanding z/(z-w) = sum_k (w/z)^k on r1 < r2 factorizes the
double trapezoid sum exactly into single-circle sums, i.e. FFTs: Ktilde =
F H^T, with row x of F the Laurent coefficients of f from z^x on and
column y of H those of h from w^-y on.  Both are real up to rounding, as
f(conj z) = conj f(z); one FFT per distinct time and side serves a whole
multi-time matrix; the point count doubles until the Cauchy-Schwarz bound
on the product's change, from row norms of F, H and their changes, meets
the tolerance, and only then is the one real product formed.  A level
scans, per time and side, only the coefficients its lines read, from the
lowest line's start to the highest line's end.  Each FFT is
memoised per process (_contour_fft, keyed by params, time, points and
side; phi's by alpha, v - u and points, _phi_coefficients), read-only and
at most 32 entries per memo, so a gap determinant, its window's tail bound
and every threshold of a box sum on one lattice share them.  Radii are
placed at the stationary points of the integrand exponent (near |z| = 1
in the scaling window), which keeps the circle maxima within a few e-folds
of the extracted coefficients; fixed radii far from the stationary point
lose tens of digits to cancellation at large N.  Gap determinants take the
window that the expected number of points beyond it certifies (_window),
read as the row-wise dot of the settled F and H, the product's diagonal
without the product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .airy_kernel import extended_airy_kernel
from .blas import one_blas_thread
from .errors import DomainError, NumericsError, settled
from .png_sim import d_scaling, growth_speed

_CONTOUR_POINTS = 512  # first level of every contour point-doubling


@dataclass(frozen=True)
class PngKernelParams:
    alpha: float
    N: int
    r1: float
    r2: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError("alpha must lie in (0, 1)")
        if not (1 <= self.N < math.inf and self.N == int(self.N)):
            raise DomainError("N must be an integer >= 1")
        if not self.alpha < self.r1 < self.r2 < 1.0 / self.alpha:
            raise DomainError("radii must satisfy alpha < r1 < r2 < 1/alpha")


def default_params(alpha: float, N: int) -> PngKernelParams:
    """Radii 1 * (1 +- 0.8 N^{-1/3}), clamped into (alpha, 1/alpha)."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if N < 1:
        raise DomainError("N must be >= 1")
    delta = 0.8 * N ** (-1.0 / 3.0)
    lo, hi = alpha, 1.0 / alpha
    r2 = min(1.0 + delta, hi - 0.08 * (hi - lo))
    r1 = max(1.0 / (1.0 + delta), lo + 0.08 * (hi - lo))
    if not r1 < r2:
        r1 = lo + 0.45 * (hi - lo)
        r2 = lo + 0.55 * (hi - lo)
    return PngKernelParams(alpha=alpha, N=N, r1=r1, r2=r2)


_RANGE = ("contour radii give an unrepresentable dynamic range; move them "
          "toward the stationary point")


@lru_cache(maxsize=32)
def _contour_fft(params, t, n, sign):
    """FFT of f at time t on n points of |z| = r2 (sign +1), or of h = 1/f
    on |w| = r1 (-1), read-only; raises where max Re log of it exceeds 690
    (an exception is not memoised, so the guard reruns on every call).
    This memo and _phi_coefficients' hold 32 entries of 16 n bytes each:
    16-32 KB at the 1024-2048 points a doubling accepts, 1 MB a memo; the
    worst case, every entry at the 2^18-point top of the doubling, is
    128 MB a memo."""
    r = params.r2 if sign > 0 else params.r1
    z = r * np.exp(2j * math.pi * np.arange(n) / n)
    log_g = sign * ((params.N + t) * np.log(1.0 - params.alpha / z)
                    - (params.N - t) * np.log(1.0 - params.alpha * z))
    if float(np.max(log_g.real)) > 690.0:
        raise NumericsError(_RANGE)
    out = np.fft.fft(np.exp(log_g))
    out.flags.writeable = False
    return out


def _coefficient_scan(params, t, lo, hi, n, sign):
    """Trapezoid coefficients lo..hi on n points of z^j in f at time t on
    |z| = r2 (sign +1), or of w^-j in h = 1/f at time t on |w| = r1 (-1);
    each equals its entry in the full scan 0..hi bit for bit."""
    r = params.r2 if sign > 0 else params.r1
    if hi * abs(math.log(r)) > 690.0:
        raise NumericsError(_RANGE)
    js = np.arange(lo, hi + 1)
    return (_contour_fft(params, t, n, sign)[sign * js % n] / n
            * r ** (-sign * js))


def _doublings(n: int, top: int = 1 << 18):
    """n, 2n, 4n, ... up to ``top``."""
    while n <= top:
        yield n
        n *= 2


def _norm(lines, width):
    """Largest 2-norm of a length-width window over (run, starts) lines;
    the appended 0 lets reduceat close a window at the end of its run."""
    return math.sqrt(max(float(np.add.reduceat(
        np.append(np.abs(run) ** 2, 0.0), np.stack([st, st + width], 1)
        .ravel())[::2].max()) for run, st in lines))


@dataclass(frozen=True)
class _Factors:
    """One contour level of Ktilde = F H^T: a (coefficient run, window
    starts) pair per row line (``f``) and column line (``h``).  By
    Cauchy-Schwarz, ``later - earlier`` = max|dF_x| max|H_y| + max|F_x|
    max|dH_y| bounds the product's largest entrywise change."""
    f: tuple
    h: tuple
    width: int

    def __sub__(self, other):
        w = self.width
        df = [(a - b, st) for (a, st), (b, _) in zip(self.f, other.f)]
        dh = [(a - b, st) for (a, st), (b, _) in zip(self.h, other.h)]
        return (_norm(df, w) * _norm(other.h, w)
                + _norm(self.f, w) * _norm(dh, w))


def _factors(params, rows, cols, n):
    """Level n: row x of F holds f's ``width`` coefficients from x, column
    y of H h's from y, scaled to split each block's (1-alpha)^{2(v-u)}."""
    width = 1 + min(int(math.ceil(48.0 / -math.log(params.r1 / params.r2))),
                    200_000)

    def side(lines, sign):
        # one scan per time, from its lines' lowest start to highest end
        lo = {t: min(int(xs.min()) for s, xs in lines if s == t)
              for t, _ in lines}
        scans = {t: _coefficient_scan(params, t, lo[t], width - 1 + max(
            int(xs.max()) for s, xs in lines if s == t), n, sign)
            for t in lo}
        return tuple(((1.0 - params.alpha) ** (2 * sign * (rows[0][0] - t))
                      * scans[t][xs.min() - lo[t]:xs.max() + width - lo[t]],
                      xs - xs.min())
                     for t, xs in lines)

    return _Factors(side(rows, 1), side(cols, -1), width)


def _real_factors(params, rows, cols, tol):
    """The real F and H of Ktilde_N = F H^T between (time, coordinates) row
    and column lines, at the first contour level that settles to tol."""
    rows, cols = ([(t, np.atleast_1d(np.asarray(xs, dtype=int)))
                   for t, xs in lines] for lines in (rows, cols))
    if max(abs(t) for t, _xs in rows + cols) >= params.N:
        raise DomainError("time index |u| must be < N")
    if min(int(xs.min()) for _t, xs in rows + cols) < 0:
        raise DomainError("height coordinates must be >= 0")
    level = settled((_factors(params, rows, cols, n)
                     for n in _doublings(_CONTOUR_POINTS)),
                    tol, "contour point-doubling")
    real = _Factors(*(tuple((run.real, st) for run, st in lines)
                      for lines in (level.f, level.h)), level.width)
    imag = level - real  # bounds Im K and the dropped Im F Im H^T alike
    if imag > 1e-10:
        raise NumericsError(f"contour integral imaginary residual {imag:.3e}")
    return (np.concatenate([_windows(run, st, real.width)
                            for run, st in lines])
            for lines in (real.f, real.h))


def _windows(run, st, width):
    """The length-width windows of run starting at st: a basic slice of the
    sliding view, not a copy, where st is a contiguous range."""
    view = np.lib.stride_tricks.sliding_window_view(run, width)
    return (view[st[0]:st[0] + len(st)] if np.all(np.diff(st) == 1)
            else view[st])


def _ktilde_lines(params, rows, cols, tol):
    """Ktilde_N between row and column lines as one real product F H^T."""
    F, H = _real_factors(params, rows, cols, tol)
    with one_blas_thread:
        return F @ H.T


def ktilde_matrix(params: PngKernelParams, u: int, v: int,
                  xs, ys, tol: float = 1e-9) -> np.ndarray:
    """Ktilde_N(2u, x; 2v, y) over coordinate arrays, |u|, |v| < N and
    x, y >= 0, the contour point count doubled from 512 until it settles
    to ``tol`` (see _Factors)."""
    return _ktilde_lines(params, [(u, xs)], [(v, ys)], tol)


@lru_cache(maxsize=32)
def _phi_coefficients(alpha, k, n):
    """Fourier coefficients of phi over k = v - u time steps on n points,
    read-only."""
    theta = 2.0 * math.pi * np.arange(n) / n
    log_sym = k * (2.0 * math.log(1.0 - alpha)
                   - np.log(1.0 + alpha * alpha - 2.0 * alpha * np.cos(theta)))
    out = np.fft.ifft(np.exp(log_sym))
    out.flags.writeable = False
    return out


def phi_values(params: PngKernelParams, u: int, v: int, deltas) -> np.ndarray:
    """phi_{2u,2v} as a function of y - x (zero unless u < v), point count
    doubled until two evaluations agree within 1e-12."""
    deltas = np.atleast_1d(np.asarray(deltas, dtype=int))
    if u >= v:
        return np.zeros(deltas.shape)
    return settled((_phi_coefficients(params.alpha, v - u, n)[deltas % n].real
                    for n in _doublings(_CONTOUR_POINTS)),
                   1e-12, "phi point-doubling")


def kn_block_matrix(params: PngKernelParams, lines) -> np.ndarray:
    """K_N over a multi-time point set; ``lines`` is a list of (u, xs)."""
    out = _ktilde_lines(params, lines, lines, 1e-9)
    offs = np.cumsum([0] + [len(xs) for _u, xs in lines])
    for i, (ui, xi) in enumerate(lines):
        for j, (uj, xj) in enumerate(lines):
            if ui < uj:
                out[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] -= phi_values(
                    params, ui, uj, np.subtract.outer(xj, xi).T)
    return out


def _gap_det(params: PngKernelParams, events, W: int) -> float:
    """det(I - K_N) on the W sites above each (u, threshold) event, at one
    BLAS thread."""
    lines = [(u, np.arange(thr + 1, thr + 1 + W)) for u, thr in events]
    with one_blas_thread:
        K = kn_block_matrix(params, lines)
        sign, logdet = np.linalg.slogdet(np.eye(K.shape[0]) - K)
    return float(sign * math.exp(logdet))


def _window(params: PngKernelParams, events) -> int:
    """The smallest W in 8 ceil(d N^(1/3)) 2^k <= 1280 whose tail bound T(W)
    is at most 5e-9: the expected number of points on the next W sites of
    each line, which bounds the probability of "none in the window, some
    beyond it".  At equal times it is a sum of Ktilde diagonals, each the
    row-wise dot of F and H, here each line's to 1e-8 / (2 W lines), so
    the truncation is at most 1e-8.  The
    sum over (W, 2W] stands for (W, inf): this assumes that the one-point
    density falls faster than geometrically above the edge (q^x at N = 1)."""
    for W in _doublings(8 * int(math.ceil(d_scaling(params.alpha ** 2)
                                          * params.N ** (1.0 / 3.0))), 1280):
        tail = sum(float(np.abs(np.einsum("ij,ij->i", *_real_factors(
            params, *2 * [[(u, np.arange(thr + W + 1, thr + 2 * W + 1))]],
            1e-8 / (2 * W * len(events))))).sum()) for u, thr in events)
        if tail <= 0.5e-8:
            return W
    raise NumericsError("gap window: no W <= 1280 has a tail bound <= 5e-9")


def joint_gap_probability(params: PngKernelParams, events) -> float:
    """P[top line at time 2u has no particle above threshold, for every
    (u, threshold) event]: det(I - K_N) on the W sites above each threshold,
    the window W certified by ``_window``.

    Supported thresholds lie within about 6 fluctuation scales d N^(1/3)
    of the edge mu N, where the value is above about 1e-8, the determinant's
    certified accuracy.  From about 8 scales below it (N >= 256) the
    contour's imaginary residual exceeds its 1e-10 guard and the call
    raises ``NumericsError`` instead of returning a number."""
    if not events:
        raise DomainError("joint_gap_probability needs at least one event")
    if min(thr for _u, thr in events) < -1:
        raise DomainError("threshold must be >= -1")
    return _gap_det(params, events, _window(params, events))


def discrete_gap_probability(params: PngKernelParams, u: int,
                             threshold: int) -> float:
    """P[top line at time 2u has no particle above ``threshold``]: the
    one-event ``joint_gap_probability``."""
    return joint_gap_probability(params, [(u, threshold)])


@dataclass(frozen=True)
class AiryLimitRow:
    N: int
    scaled_kernel: float
    airy_reference: float
    abs_error: float


def airy_limit_report(q: float, N_list):
    """Tabulate |d N^(1/3) Ktilde_N - extended Airy kernel| against N at
    equal times and the scaled coordinate 0, recomputed from the rounded
    height index so that the reference is evaluated at the point used."""
    if not 0.0 < q < 1.0:
        raise DomainError("q must lie in (0, 1)")
    alpha, d, mu = math.sqrt(q), d_scaling(q), growth_speed(q)
    rows = []
    for N in N_list:
        if not (1 <= N <= 512 and N == int(N)):
            raise DomainError("airy_limit_report needs integers N in [1, 512]")
        N = int(N)
        x = round(mu * N)
        xp = (x - mu * N) / (d * N ** (1.0 / 3.0))
        scaled = d * N ** (1.0 / 3.0) * float(ktilde_matrix(
            default_params(alpha, N), 0, 0, [x], [x])[0, 0])
        ref = extended_airy_kernel(0.0, 0.0, xp, xp)
        rows.append(AiryLimitRow(N=N, scaled_kernel=scaled,
                                 airy_reference=ref,
                                 abs_error=abs(scaled - ref)))
    return rows
