"""Discrete polynuclear growth, last-passage percolation, and the exact
coupling between them.

The growth rule is h(x, t+1) = max(h(x-1,t), h(x,t), h(x+1,t)) + w(x, t+1)
started from h = 0, with geometric nucleation noise on the active sites

    active(s) = { x : |x| <= s-1 and s - x odd }.

The parity convention is pinned by the coupling G(i, j) = h(i-j, i+j-1):
mapping the last-passage weights w(i, j) onto noise at position i-j and
time i+j-1 lands exactly on active(s), and coupling_check verifies the
identity bit-for-bit.

One growth recursion (_grow) serves evolve_batch_heights, the one public
growth entry, and the coupling check; one row recurrence (_lpp_rows)
serves the full last-passage table and the batched corner value. Its along-row scans run along whichever axis is
longer: over a row's columns, with the leading axes as the vector, when
those hold strictly more elements than the row (a batch of 3 x 3
fields), and along the row otherwise (a 200 x 200 table).

Randomness is counter-based (Philox); the stream of a replica is a pure
function of (master_seed, stream tag, replica index). Heights at positions
[x_min, x_max] at time T depend only on the noise in their backward light
cone, x_min - (T-s) <= x <= x_max + (T-s) at step s, so a replica's stream
feeds only the active sites of that cone, in the canonical order (time
ascending, position ascending). For [-T, T] this is every active site. The
results do not depend on batching or worker count.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

HEIGHT_DTYPE = np.int64


def _geometric_floor(v: np.ndarray, q: float) -> np.ndarray:
    """floor(log(U)/log(q)) with U = 1 - v, computed in place on the
    float64 array v and returned; every path that turns uniforms into
    geometric noise goes through here."""
    if not 0.0 < q < 1.0:
        raise DomainError("geometric parameter q must lie in (0, 1)")
    np.negative(v, out=v)
    np.log1p(v, out=v)
    v /= math.log(q)
    return np.floor(v, out=v)


def geometric_from_uniform(u, q: float):
    """Inversion sampler floor(log(U)/log(q)) with U uniform on (0, 1], so
    P[m] = (1 - q) q^m for m >= 0.

    numpy generators yield [0, 1); 1 - u maps that onto (0, 1].
    """
    return _geometric_floor(np.array(u, dtype=float), q).astype(HEIGHT_DTYPE)


def _noise_bound(q: float) -> int:
    """Bounds the noise for every u <= 1 - 2^-53 that random() can return:
    log1p(-u) >= -53 log 2, and the + 1 absorbs the rounding."""
    return math.ceil(53.0 * math.log(2.0) / -math.log(q)) + 1


def replica_generator(master_seed: int, tag: int, replica: int) -> np.random.Generator:
    """Counter-based per-replica stream."""
    seq = np.random.SeedSequence(entropy=(int(master_seed) & (2 ** 64 - 1),
                                          int(tag), int(replica)))
    return np.random.Generator(np.random.Philox(seq))


@lru_cache(maxsize=16)
def _cone_windows(n_steps: int, x_min: int, x_max: int) -> tuple:
    """For each step s = 1..T: the window [a, b] that step s updates (the
    backward light cone of [x_min, x_max] at time T, cut to |x| <= s-1),
    the first active site a0 in it and the number n of active sites.
    Memoised, so _grow and evolve_batch_heights read one tuple per
    (T, cone): under 180 T bytes an entry, 1.5 MB for all 16 at T = 511."""
    T = n_steps
    windows = []
    for s in range(1, T + 1):
        a = max(-(s - 1), x_min - (T - s))
        b = min(s - 1, x_max + (T - s))
        a0 = a + (s - a + 1) % 2
        windows.append((a, b, a0, max(0, (b - a0) // 2 + 1)))
    return tuple(windows)


def _grow(noise: np.ndarray, n_steps: int, cone=None):
    """The growth recursion for a batch, from the flat state, restricted to
    the backward light cone of the positions cone = (x_min, x_max) at time
    T (default the whole line [-T, T]). ``noise`` is (B, active sites of
    the cone) in canonical order: step s takes the next n entries, one per
    active site of its window in _cone_windows. Yields the (B, 2T+1)
    heights on [-T, T], one buffer updated in place, before and after each
    step; after step s its window is current. The sites |x| = s are still 0
    at time s, so step s updates |x| <= s-1 at most.

    The buffer is position-major, (2T+1, B), so each step's shifted slices
    and noise rows (transposed once) are contiguous. A height is a path sum
    of at most T noise entries, so it takes the narrowest signed type, no
    narrower than the noise, that holds T max|noise|.
    """
    T = int(n_steps)
    x_min, x_max = (-T, T) if cone is None else cone
    m = max(int(noise.max(initial=0)), -int(noise.min(initial=0)))
    h = np.zeros((2 * T + 1, noise.shape[0]), dtype=np.promote_types(
        noise.dtype, np.min_scalar_type(-T * m - 1)))
    pair = np.empty_like(h)
    noise = np.ascontiguousarray(noise.T)
    yield h.T
    off = 0
    for a, b, a0, n in _cone_windows(T, x_min, x_max):
        lo, hi = a + T, b + T + 1
        # max(h[x-1], h[x], h[x+1]) from pairwise maxima, written in place
        p = pair[:hi - lo + 1]
        np.maximum(h[lo - 1:hi], h[lo:hi + 1], out=p)
        np.maximum(p[:-1], p[1:], out=h[lo:hi])
        h[lo + a0 - a:hi:2] += noise[off:off + n]
        off += n
        yield h.T


# ---------------------------------------------------------------------------
# Last-passage percolation.
# ---------------------------------------------------------------------------

_LPP_BLOCK = 1 << 16  # elements of w per cumulative-sum call and batch chunk


def _scan(op, a, out):
    """out = op.accumulate(a, axis=-1) for op np.add or np.maximum; out
    may be a.  Loops over the row's columns, the leading axes being the
    vector, when those hold strictly more elements than the row: an
    accumulate along a short row costs about three times more per
    element."""
    n = a.shape[-1]
    if a.size <= n * n:
        op.accumulate(a, axis=-1, out=out)
        return
    out[..., 0] = a[..., 0]
    for j in range(1, n):
        op(out[..., j - 1], a[..., j], out=out[..., j])


def _lpp_rows(w, out):
    """Write row i of the last-passage table of w (..., M, N), vectorized
    over the leading axes, into out[..., i % R, :]: out holds all R = M
    rows (the table) or a ring of R = 2 (the batch). Unrolling
    g(i,j) = w(i,j) + max(g(i-1,j), g(i,j-1)) along a row gives
    g_i = S_i + cummax(g_{i-1} + w_i - S_i), S_i = cumsum(w_i); the first
    row is S_0, since no path enters it from above. S, written straight
    into out, and w - S take one call each per block of rows holding
    _LPP_BLOCK elements (one row in a ring); each row then takes three
    in-place calls. Both along-row scans, S and the running max, go
    through _scan, which loops over the columns when the leading axes are
    longer than a row (a batch of small fields) and accumulates along the
    rows otherwise (a coupling table)."""
    M, R = w.shape[-2], out.shape[-2]
    step = max(1, _LPP_BLOCK * M // max(w.size, 1)) if R == M else 1
    d = np.empty(w.shape[:-2] + (min(step, M - 1), w.shape[-1]), w.dtype)
    for i0 in range(0, M, step):
        i1 = min(i0 + step, M)
        _scan(np.add, w[..., i0:i1, :],
              out[..., i0 % R:i0 % R + i1 - i0, :])
        a = max(i0, 1)
        np.subtract(w[..., a:i1, :], out[..., a % R:a % R + i1 - a, :],
                    out=d[..., :i1 - a, :])
        for k, i in enumerate(range(a, i1)):
            row = d[..., k, :]
            row += out[..., (i - 1) % R, :]
            _scan(np.maximum, row, row)
            out[..., i % R, :] += row


def last_passage_table(w: np.ndarray) -> np.ndarray:
    """Full table g(i,j) = w(i,j) + max(g(i-1,j), g(i,j-1)), where a
    missing neighbour means no path."""
    w = np.asarray(w, dtype=HEIGHT_DTYPE)
    out = np.empty(w.shape, dtype=HEIGHT_DTYPE)
    _lpp_rows(w, out)
    return out


def last_passage_batch(w: np.ndarray) -> np.ndarray:
    """G(M, N) for a batch of weight fields, shape (B, M, N) -> (B,),
    in chunks of about _LPP_BLOCK elements of w, keeping two table rows
    per field of a chunk at a time."""
    w = np.asarray(w, dtype=HEIGHT_DTYPE)
    lead, (M, N) = w.shape[:-2], w.shape[-2:]
    w = w.reshape(-1, M, N)
    c = max(1, _LPP_BLOCK // max(M * N, 1))
    # ring-major, so that each ring row is one contiguous run
    out = np.moveaxis(np.empty((min(M, 2), min(c, len(w)), N),
                               dtype=HEIGHT_DTYPE), 0, -2)
    g = np.empty(len(w), dtype=HEIGHT_DTYPE)
    for b0 in range(0, len(w), c):
        ring = out[:len(w) - b0]
        _lpp_rows(w[b0:b0 + c], ring)
        g[b0:b0 + c] = ring[:, (M - 1) % ring.shape[-2], -1]
    return g.reshape(lead)


# ---------------------------------------------------------------------------
# The exact coupling.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _coupling_layout(N: int):
    """For the N x N box, read-only: the order that reads w along
    anti-diagonals, i ascending, and the flat index of cell (i, j)'s
    height h(i-j, i+j-1) in the (T+1, 2T+1) snapshots, T = 2N - 1;
    16 N^2 bytes, so at most 5 MB for the 8 entries at N <= 200."""
    T = 2 * N - 1
    ii, jj = np.divmod(np.arange(N * N), N)
    layout = (np.lexsort((ii, ii + jj)),
              (ii + jj + 1) * (2 * T + 1) + ii - jj + T)
    for a in layout:
        a.flags.writeable = False
    return layout


def coupling_check_detail(seed: int, N: int, q: float = 0.25):
    """Run one coupled realization; return (ok, first_violation), the first
    cell in (i, j) order where G(i, j) != h(i-j, i+j-1), as (i, j, G, h).

    w(i, j) is the noise at position i-j and time i+j-1. The backward light
    cone of x = 0 at time 2N-1 is exactly the N x N box (|i-j| <= 2N-i-j
    iff max(i, j) <= N), so the growth takes w read along anti-diagonals,
    i ascending, as its noise in canonical cone order.
    """
    if not 1 <= N <= 200:
        raise DomainError("coupling_check supports 1 <= N <= 200")
    rng = replica_generator(seed, 1, 0)
    w = geometric_from_uniform(rng.random((N, N)), q)
    T = 2 * N - 1
    order, cells = _coupling_layout(N)
    snap = np.empty((T + 1, 2 * T + 1), dtype=HEIGHT_DTYPE)
    for s, h in enumerate(_grow(w.ravel()[order][None], T, (0, 0))):
        snap[s] = h[0]
    h_cells = snap.take(cells).reshape(N, N)
    g = last_passage_table(w)
    bad = np.argwhere(h_cells != g)
    if bad.size == 0:
        return True, None
    i, j = bad[0]
    return False, (int(i) + 1, int(j) + 1, int(g[i, j]), int(h_cells[i, j]))


def coupling_check(seed: int, N: int, q: float = 0.25) -> bool:
    """True iff G(i,j) = h(i-j, i+j-1) holds exactly for all i, j <= N."""
    ok, _ = coupling_check_detail(seed, N, q)
    return ok


# ---------------------------------------------------------------------------
# KPZ rescaling.
# ---------------------------------------------------------------------------

def d_scaling(q: float) -> float:
    """Fluctuation scale d = q^(1/6) (1 + sqrt(q))^(1/3) / (1 - sqrt(q))."""
    sq = math.sqrt(q)
    return sq ** (1.0 / 3.0) * (1.0 + sq) ** (1.0 / 3.0) / (1.0 - sq)


def growth_speed(q: float) -> float:
    """Leading-order height per unit N: 2 sqrt(q)/(1 - sqrt(q))."""
    sq = math.sqrt(q)
    return 2.0 * sq / (1.0 - sq)


def space_scale(q: float) -> float:
    """Transversal coefficient 2 (1 + sqrt(q)) / (1 - sqrt(q)) / d."""
    sq = math.sqrt(q)
    return 2.0 * (1.0 + sq) / (1.0 - sq) / d_scaling(q)


def rescale_H(heights, t: float, q: float) -> float:
    """H_N(t) from the 2T + 1 heights on [-T, T] at time T = 2N - 1,
    interpolated linearly between integer sites."""
    if len(heights) % 4 != 3:
        raise DomainError("rescale_H needs the heights on [-T, T] at an odd "
                          "time T = 2N - 1")
    T = len(heights) // 2
    N = (T + 1) // 2
    x = space_scale(q) * N ** (2.0 / 3.0) * t
    if not -T <= x < T:     # NaN and infinities included
        raise DomainError(f"t={t} maps to x={x:.2f}, outside the growth cone")
    lo = math.floor(x)
    frac = x - lo
    h = (1.0 - frac) * heights[lo + T] + frac * heights[lo + 1 + T]
    return (h - growth_speed(q) * N) / (d_scaling(q) * N ** (1.0 / 3.0))


# ---------------------------------------------------------------------------
# Batched evolution for Monte Carlo experiments.
# ---------------------------------------------------------------------------

def evolve_batch_heights(q: float, n_steps: int, master_seed: int, tag: int,
                         replicas, positions) -> np.ndarray:
    """Heights h(x, n_steps) at the given positions for each replica.

    Every replica draws only the noise of the backward light cone of
    [min(positions), max(positions)] at time n_steps, from its own Philox
    stream in canonical order, so the result is independent of how replicas
    are grouped into batches. The uniforms are inverted in place in one
    reused row; the noise takes the narrowest signed type that holds
    _noise_bound(q), int8 at q = 1/4 (bound 28; int16 heights to T = 1170).
    """
    replicas = list(replicas)
    positions = np.asarray(positions, dtype=int)
    T = int(n_steps)
    if not 0.0 < q < 1.0:
        raise DomainError("geometric parameter q must lie in (0, 1)")
    if T < 1:
        raise DomainError("n_steps must be >= 1")
    if positions.size == 0 or np.any(np.abs(positions) > T):
        raise DomainError("recorded positions missing or outside the growth "
                          "cone")
    cone = (int(positions.min()), int(positions.max()))
    u = np.empty(sum(n for *_, n in _cone_windows(T, *cone)))
    noise = np.empty((len(replicas), u.size),
                     dtype=np.min_scalar_type(-_noise_bound(q) - 1))
    for bi, r in enumerate(replicas):
        replica_generator(master_seed, tag, r).random(out=u)
        noise[bi] = _geometric_floor(u, q)
    for h in _grow(noise, T, cone):
        pass
    return h[:, positions + T].astype(HEIGHT_DTYPE)
