"""Statistical experiments confronting the two local-Brownian theorems
with data.

The growth-model experiment conditions simulated interfaces on an exact
height value at one reference position and compares window probabilities
at nearby positions against Gaussian transition integrals; the
Airy-process experiment does the analogue through Fredholm determinants.
Every reported probability carries a binomial standard error, and a
report is a pure function of its plan (worker count never changes the
stream assignment).
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, asdict

import numpy as np

from .errors import DomainError, InsufficientDataError
from . import fredholm
from .special import panel_rule
from .png_sim import (d_scaling, growth_speed, space_scale,
                      evolve_batch_heights)

_PILOT_TAG = 7
_MAIN_TAG = 11
_BATCH = 250


@dataclass(frozen=True)
class PngExperimentPlan:
    q: float
    N: int
    gamma: float
    tau1: float
    s_gaps: tuple
    windows: tuple
    replicas: int
    master_seed: int
    pilot_replicas: int = 10_000
    workers: int = 1
    j1_override: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "s_gaps", tuple(float(s) for s in self.s_gaps))
        object.__setattr__(self, "windows",
                           tuple((float(a), float(b)) for a, b in self.windows))
        if not 0.0 < self.q < 1.0:
            raise DomainError("q must lie in (0, 1)")
        if not 0.0 < self.gamma < 2.0 / 3.0:
            raise DomainError("gamma must lie in (0, 2/3)")
        if len(self.s_gaps) != len(self.windows) or not self.s_gaps:
            raise DomainError("need one window per time gap")
        if any(s <= 0 for s in self.s_gaps):
            raise DomainError("time gaps must be positive")
        if any(a >= b for a, b in self.windows):
            raise DomainError("windows need a < b")
        if self.replicas < 10_000:
            raise DomainError("reported statistics need >= 10^4 replicas")


@dataclass
class ExperimentReport:
    estimates: list
    joint_estimate: float
    joint_standard_error: float
    gaussian_target: float
    ks_distance: float
    conditioned_count: int
    j1: int
    psi: float
    lattice: dict
    runtime_seconds: float
    config_echo: dict

    def as_dict(self, include_timing: bool = True) -> dict:
        config = dict(self.config_echo)
        workers = config.pop("workers", None)
        out = {
            "config": config,
            "lattice": dict(self.lattice),
            "results": {
                "j1": self.j1,
                "psi": self.psi,
                "conditioned_count": self.conditioned_count,
                "joint_estimate": self.joint_estimate,
                "joint_standard_error": self.joint_standard_error,
                "gaussian_target": self.gaussian_target,
                "ks_distance": self.ks_distance,
                "windows": [dict(e) for e in self.estimates],
            },
        }
        if include_timing:
            # execution details live with the other volatile fields so a
            # --no-timing report is byte-stable across worker counts
            out["timing"] = {"runtime_seconds": self.runtime_seconds,
                             "workers": workers}
        return out


def ks_distance(samples, cdf) -> float:
    """Sup-distance between the empirical CDF of ``samples`` and ``cdf``,
    which is called once per distinct sample."""
    samples = np.sort(np.asarray(samples, dtype=float))
    n = samples.size
    if n < 100:
        raise DomainError("ks_distance needs at least 100 samples")
    distinct, inverse = np.unique(samples, return_inverse=True)
    values = np.array([cdf(float(s)) for s in distinct])[inverse]
    upper = np.max(np.arange(1, n + 1) / n - values)
    lower = np.max(values - np.arange(0, n) / n)
    return float(max(upper, lower))


def gaussian_window_integral(s_list, bounds) -> float:
    """Integral over prod [a_i, b_i] of the chained heat kernels
    prod (4 pi s_i)^{-1/2} exp(-(x_i - x_{i-1})^2 / (4 s_i)), x_1 = 0.

    Evaluated by iterated Gauss quadrature; exact erf for one step.
    """
    if len(s_list) == 1:
        (a, b), s = bounds[0], s_list[0]
        half = 0.5 / math.sqrt(s)
        return 0.5 * (math.erf(b * half) - math.erf(a * half))
    # 24-node Gauss panels of width <= 3 on each window
    nodes, weights = zip(*(
        panel_rule(np.linspace(a, b, max(1, math.ceil((b - a) / 3.0)) + 1),
                   24) for a, b in bounds))
    dens = np.exp(-nodes[0] ** 2 / (4.0 * s_list[0])) \
        / math.sqrt(4.0 * math.pi * s_list[0]) * weights[0]
    prev = nodes[0]
    for step in range(1, len(s_list)):
        s = s_list[step]
        x = nodes[step]
        kern = np.exp(-(x[None, :] - prev[:, None]) ** 2 / (4.0 * s)) \
            / math.sqrt(4.0 * math.pi * s)
        dens = dens @ kern * weights[step]
        prev = x
    return float(np.sum(dens))


# ---------------------------------------------------------------------------
# Growth-model experiment.
# ---------------------------------------------------------------------------

def _plan_lattice(plan: PngExperimentPlan) -> dict:
    """Integer lattice positions and the realized gap values they induce."""
    q = plan.q
    d = d_scaling(q)
    conv = 0.5 * space_scale(q)  # (1 + sqrt q)/(1 - sqrt q) / d
    N = plan.N
    K = [round(conv * N ** (2.0 / 3.0) * plan.tau1)]
    realized_s = []
    for s in plan.s_gaps:
        K.append(round(K[-1] + conv * s * N ** plan.gamma))
        realized_s.append((K[-1] - K[-2]) / (conv * N ** plan.gamma))
    if any(k2 <= k1 for k1, k2 in zip(K, K[1:])):
        raise DomainError("rounded lattice offsets collapsed; increase N "
                          "or the gaps")
    return {"K": K, "realized_s": realized_s,
            "positions": [2 * k for k in K]}


def _batches(plan, tag, replicas, positions):
    """Arguments of the fixed-size batches of one run; per-replica streams
    do not depend on batching or worker count."""
    return [(plan.q, 2 * plan.N - 1, plan.master_seed, tag,
             list(range(lo, min(lo + _BATCH, replicas))), positions)
            for lo in range(0, replicas, _BATCH)]


def _evolve_star(args):
    return evolve_batch_heights(*args)


def _window_integers(j1: int, a: float, b: float, scale: float):
    lo = math.ceil(j1 + a * scale)
    hi = math.floor(j1 + b * scale)
    return lo, hi


def ProcessPoolExecutor(max_workers: int):
    """``concurrent.futures.ProcessPoolExecutor``, imported at first use:
    its module costs about 20 ms of ``import airypng``, and only the
    growth experiment's pool needs it."""
    from concurrent.futures import ProcessPoolExecutor as pool_type
    return pool_type(max_workers=max_workers)


def run_png_brownian_experiment(plan: PngExperimentPlan) -> ExperimentReport:
    """Condition interfaces on h(2K_1, 2N-1) = J_1 and compare window
    frequencies at the later positions with the Gaussian product integral.

    J_1 defaults to the mode of a pilot run; integer windows are mapped
    back to realized (a, b) with a half-cell extension, and the realized
    gap values from the rounded lattice feed the Gaussian target, so the
    comparison happens at the points actually simulated.
    """
    started = time.perf_counter()
    q, N = plan.q, plan.N
    d = d_scaling(q)
    lattice = _plan_lattice(plan)
    positions = lattice["positions"]
    pilot = [] if plan.j1_override is not None else _batches(
        plan, _PILOT_TAG, plan.pilot_replicas, positions[:1])
    args = pilot + _batches(plan, _MAIN_TAG, plan.replicas, positions)
    # pilot and main batches in one pool, in order
    with (ProcessPoolExecutor(max_workers=plan.workers)
          if plan.workers > 1 else nullcontext()) as pool:
        parts = list((pool.map if pool else map)(_evolve_star, args))
    if pilot:
        values, counts = np.unique(
            np.concatenate(parts[:len(pilot)])[:, 0], return_counts=True)
        j1 = int(values[np.argmax(counts)])
    else:
        j1 = int(plan.j1_override)
    heights = np.concatenate(parts[len(pilot):], axis=0)
    cond = heights[:, 0] == j1
    n_cond = int(np.count_nonzero(cond))
    if n_cond < 500:
        raise InsufficientDataError(
            f"only {n_cond} replicas hit h = {j1}; move j1_override to the "
            "empirical mode or raise replicas")
    window_scale = d * N ** (plan.gamma / 2.0)
    estimates = []
    joint_mask = cond.copy()
    realized_bounds = []
    for col, ((a, b), s_real) in enumerate(zip(plan.windows,
                                               lattice["realized_s"]),
                                           start=1):
        lo, hi = _window_integers(j1, a, b, window_scale)
        inside = (heights[:, col] >= lo) & (heights[:, col] <= hi)
        joint_mask &= inside
        p = float(np.count_nonzero(inside & cond)) / n_cond
        se = math.sqrt(max(p * (1.0 - p), 1e-12) / n_cond)
        a_real = (lo - 0.5 - j1) / window_scale
        b_real = (hi + 0.5 - j1) / window_scale
        realized_bounds.append((a_real, b_real))
        estimates.append({
            "window": [a, b], "integer_window": [lo, hi],
            "realized_window": [a_real, b_real], "realized_s": s_real,
            "estimate": p, "standard_error": se,
        })
    joint_p = float(np.count_nonzero(joint_mask)) / n_cond
    joint_se = math.sqrt(max(joint_p * (1.0 - joint_p), 1e-12) / n_cond)
    target = gaussian_window_integral(lattice["realized_s"], realized_bounds)
    standardized = (heights[:, 0] - growth_speed(q) * N) / (d * N ** (1.0 / 3.0))
    ks = ks_distance(standardized, _tw2_clamped)
    psi = (j1 - growth_speed(q) * N) / (d * N ** (1.0 / 3.0))
    return ExperimentReport(
        estimates=estimates,
        joint_estimate=joint_p,
        joint_standard_error=joint_se,
        gaussian_target=target,
        ks_distance=ks,
        conditioned_count=n_cond,
        j1=j1,
        psi=psi,
        lattice={"K": lattice["K"], "realized_s": lattice["realized_s"],
                 "positions": positions},
        runtime_seconds=time.perf_counter() - started,
        config_echo=asdict(plan),
    )


def _tw2_clamped(s: float) -> float:
    """Certified ``tw2_cdf`` on (-8, 8); 0 at and below its domain's edge
    -8, and 1 from 8 on, where 1 - F_2 is below 1e-16."""
    if s <= fredholm.THRESHOLD_MIN:
        return 0.0
    if s >= 8.0:
        return 1.0
    return fredholm.tw2_cdf(s)


# ---------------------------------------------------------------------------
# Airy-process experiment.
# ---------------------------------------------------------------------------

@dataclass
class AiryTrendRow:
    epsilon: float
    estimate: float
    gaussian_target: float
    abs_error: float


def run_airy_brownian_experiment(t1: float, p1: float, epsilons,
                                 s_gaps, windows, n: int = 160) -> dict:
    """Conditional window probabilities against the Gaussian product, per
    epsilon, with the monotone-trend flag (20% slack per step)."""
    s_gaps = [float(s) for s in s_gaps]
    windows = [(float(a), float(b)) for a, b in windows]
    target = gaussian_window_integral(s_gaps, windows)
    rows = []
    for eps in epsilons:
        offsets = [(s, a, b) for s, (a, b) in zip(s_gaps, windows)]
        est = fredholm.conditional_window_probability(
            t1, p1, offsets, float(eps), n=n)
        rows.append(AiryTrendRow(epsilon=float(eps), estimate=est,
                                 gaussian_target=target,
                                 abs_error=abs(est - target)))
    ordered = sorted(rows, key=lambda r: -r.epsilon)
    trend_ok = all(later.abs_error <= 1.2 * earlier.abs_error
                   for earlier, later in zip(ordered, ordered[1:]))
    return {"rows": rows, "gaussian_target": target, "trend_ok": trend_ok}
