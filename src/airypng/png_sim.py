"""Discrete polynuclear growth, last-passage percolation, and the exact
coupling between them.

The growth rule is h(x, t+1) = max(h(x-1,t), h(x,t), h(x+1,t)) + w(x, t+1)
started from h = 0, with geometric nucleation noise on the active sites

    active(s) = { x : |x| <= s-1 and s - x odd }.

The parity convention is pinned by the coupling G(i, j) = h(i-j, i+j-1):
mapping the last-passage weights w(i, j) onto noise at position i-j and
time i+j-1 lands exactly on active(s), and coupling_check verifies the
identity bit-for-bit.

Randomness is counter-based (Philox); the stream of a replica is a pure
function of (master_seed, stream tag, replica index) and is consumed in the
canonical order (time ascending, position ascending), so results do not
depend on batching or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

HEIGHT_DTYPE = np.int64


@dataclass(frozen=True)
class PngConfig:
    q: float
    n_steps: int
    seed: int
    log_noise: bool = False

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise DomainError("geometric parameter q must lie in (0, 1)")
        if self.n_steps < 1:
            raise DomainError("n_steps must be >= 1")


@dataclass
class HeightField:
    """Interface state at integer time t; heights indexed by x in [-t, t]."""

    t: int
    heights: np.ndarray
    noise_log: list = field(default_factory=list)
    log_noise: bool = False

    @classmethod
    def flat(cls, log_noise: bool = False) -> "HeightField":
        return cls(t=0, heights=np.zeros(1, dtype=HEIGHT_DTYPE),
                   log_noise=log_noise)

    def height(self, x: int) -> int:
        t = self.t
        if abs(x) > t:
            return 0
        return int(self.heights[x + t])


def active_sites(s: int) -> np.ndarray:
    """Positions x with |x| <= s-1 and s - x odd, ascending."""
    return np.arange(-(s - 1), s, 2)


def geometric_from_uniform(u, q: float):
    """Inversion sampler floor(log(U)/log(q)) with U uniform on (0, 1].

    numpy generators yield [0, 1); 1 - u maps that onto (0, 1].
    """
    return np.floor(np.log1p(-u) / math.log(q)).astype(HEIGHT_DTYPE)


def sample_geometric(q: float, rng: np.random.Generator) -> int:
    """One draw with P[m] = (1 - q) q^m, m >= 0."""
    if not 0.0 < q < 1.0:
        raise DomainError("q must lie in (0, 1)")
    return int(geometric_from_uniform(rng.random(), q))


def replica_generator(master_seed: int, tag: int, replica: int) -> np.random.Generator:
    """Counter-based per-replica stream."""
    seq = np.random.SeedSequence(entropy=(int(master_seed) & (2 ** 64 - 1),
                                          int(tag), int(replica)))
    return np.random.Generator(np.random.Philox(seq))


def png_step(field: HeightField, rng: np.random.Generator,
             q: float, noise: np.ndarray | None = None) -> HeightField:
    """Advance one time step; ``noise`` overrides the geometric draws (test
    hook and coupling driver)."""
    t = field.t
    s = t + 1
    old = field.heights
    padded = np.zeros(2 * s + 3, dtype=HEIGHT_DTYPE)
    padded[2:2 + old.size] = old  # old spans [-t, t]; padded spans [-t-2, t+2]
    grown = np.maximum(np.maximum(padded[:-2], padded[1:-1]), padded[2:])
    new = grown  # spans [-s, s]
    if noise is None:
        noise = geometric_from_uniform(rng.random(s), q)
    else:
        noise = np.asarray(noise, dtype=HEIGHT_DTYPE)
        if noise.shape != (s,):
            raise DomainError(f"noise for step {s} must have length {s}")
    new[1:2 * s:2] += noise  # active sites -(s-1), -(s-3), ..., s-1
    log = field.noise_log
    if field.log_noise:
        log = list(log)
        log.append(noise.copy())
    return HeightField(t=s, heights=new, noise_log=log,
                       log_noise=field.log_noise)


def simulate(config: PngConfig) -> HeightField:
    """Run the recursion for config.n_steps from the flat state."""
    rng = replica_generator(config.seed, 0, 0)
    field = HeightField.flat(log_noise=config.log_noise)
    for _ in range(config.n_steps):
        field = png_step(field, rng, config.q)
    return field


# ---------------------------------------------------------------------------
# Last-passage percolation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LppField:
    w: np.ndarray
    g: np.ndarray


def lpp_field(w: np.ndarray) -> LppField:
    """Weights plus their completed last-passage table."""
    w = np.asarray(w, dtype=HEIGHT_DTYPE)
    return LppField(w=w, g=last_passage_table(w))


def last_passage_G(M: int, N: int, w: np.ndarray) -> int:
    """Max over up/right paths (1,1) -> (M,N) of the path sum of w."""
    if M < 1 or N < 1:
        raise DomainError("last_passage_G needs M, N >= 1")
    w = np.asarray(w, dtype=HEIGHT_DTYPE)
    if w.shape[0] < M or w.shape[1] < N:
        raise DomainError("weight matrix smaller than (M, N)")
    return int(last_passage_table(w[:M, :N])[M - 1, N - 1])


def last_passage_table(w: np.ndarray) -> np.ndarray:
    """Full DP table g(i,j) = w(i,j) + max(g(i-1,j), g(i,j-1)),
    vectorized along antidiagonals."""
    w = np.asarray(w, dtype=HEIGHT_DTYPE)
    M, N = w.shape
    g = np.zeros((M, N), dtype=HEIGHT_DTYPE)
    for d in range(M + N - 1):
        i = np.arange(max(0, d - N + 1), min(M, d + 1))
        j = d - i
        up = np.where(i > 0, g[np.maximum(i - 1, 0), j], 0)
        left = np.where(j > 0, g[i, np.maximum(j - 1, 0)], 0)
        g[i, j] = w[i, j] + np.maximum(up, left)
    return g


def last_passage_batch(w: np.ndarray) -> np.ndarray:
    """G(M, N) for a batch of weight fields, shape (B, M, N) -> (B,)."""
    B, M, N = w.shape
    g = np.zeros((B, M, N), dtype=HEIGHT_DTYPE)
    for i in range(M):
        for j in range(N):
            best = 0
            if i > 0 and j > 0:
                best = np.maximum(g[:, i - 1, j], g[:, i, j - 1])
            elif i > 0:
                best = g[:, i - 1, j]
            elif j > 0:
                best = g[:, i, j - 1]
            g[:, i, j] = w[:, i, j] + best
    return g[:, M - 1, N - 1]


# ---------------------------------------------------------------------------
# The exact coupling.
# ---------------------------------------------------------------------------

def noise_from_lpp(w: np.ndarray, s: int) -> np.ndarray:
    """Noise vector for step s induced by w(i, j) -> position i-j, time
    i+j-1; zero where i or j exceeds the w array."""
    N = w.shape[0]
    xs = active_sites(s)
    i = (s + xs + 1) // 2
    j = (s - xs + 1) // 2
    out = np.zeros(xs.size, dtype=HEIGHT_DTYPE)
    ok = (i <= N) & (j <= N)
    out[ok] = w[i[ok] - 1, j[ok] - 1]
    return out


def coupling_check_detail(seed: int, N: int, q: float = 0.25):
    """Run one coupled realization; return (ok, first_violation)."""
    if N > 200:
        raise DomainError("coupling_check supports N <= 200")
    rng = replica_generator(seed, 1, 0)
    w = geometric_from_uniform(rng.random((N, N)), q)
    g = last_passage_table(w)
    field = HeightField.flat()
    heights = {}
    for s in range(1, 2 * N):
        field = png_step(field, rng, q, noise=noise_from_lpp(w, s))
        heights[s] = field.heights.copy()
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            s = i + j - 1
            x = i - j
            h = heights[s][x + s]
            if h != g[i - 1, j - 1]:
                return False, (i, j, int(g[i - 1, j - 1]), int(h))
    return True, None


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


def rescale_H(field: HeightField, t: float, q: float) -> float:
    """H_N(t) from a field at time 2N - 1, heights interpolated linearly
    between integer sites."""
    if field.t % 2 != 1:
        raise DomainError("rescale_H needs a field at odd time 2N - 1")
    N = (field.t + 1) // 2
    x = space_scale(q) * N ** (2.0 / 3.0) * t
    lo = math.floor(x)
    frac = x - lo
    T = field.t
    if lo < -T or lo + 1 > T:
        raise DomainError(f"t={t} maps to x={x:.2f}, outside the growth cone")
    h = (1.0 - frac) * field.heights[lo + T] + frac * field.heights[lo + 1 + T]
    return (h - growth_speed(q) * N) / (d_scaling(q) * N ** (1.0 / 3.0))


# ---------------------------------------------------------------------------
# Batched evolution for Monte Carlo experiments.
# ---------------------------------------------------------------------------

def evolve_batch_heights(q: float, n_steps: int, master_seed: int, tag: int,
                         replicas, positions) -> np.ndarray:
    """Heights h(x, n_steps) at the given positions for each replica.

    Every replica consumes its own Philox stream in canonical order, so the
    result is independent of how replicas are grouped into batches.
    """
    replicas = list(replicas)
    positions = np.asarray(positions, dtype=int)
    T = int(n_steps)
    if np.any(np.abs(positions) > T):
        raise DomainError("recorded positions outside the growth cone")
    lnq = math.log(q)
    counts = np.arange(1, T + 1)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    B = len(replicas)
    u = np.empty((B, offsets[-1]))
    for bi, r in enumerate(replicas):
        u[bi] = replica_generator(master_seed, tag, r).random(offsets[-1])
    noise = np.floor(np.log1p(-u) / lnq).astype(np.int32)
    del u
    h = np.zeros((B, 2 * T + 1), dtype=np.int32)
    c = T
    for s in range(1, T + 1):
        lo = c - s + 1
        hi = c + s
        grown = np.maximum(np.maximum(h[:, lo - 1:hi - 1], h[:, lo:hi]),
                           h[:, lo + 1:hi + 1])
        grown[:, ::2] += noise[:, offsets[s - 1]:offsets[s]]
        h[:, lo:hi] = grown
    return h[:, positions + T].astype(HEIGHT_DTYPE)
