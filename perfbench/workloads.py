"""The four workloads: inputs made from a seed, the timed ops, and the
check on every op's output.

An op is one CLI invocation or one library call (the exact finite-N window
is one box sum of library calls).  Ops run in a fresh interpreter
(``round_child.py``); checks run afterwards, in the parent, outside the
timed region.  A check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

Q = 0.25  # geometric parameter of every growth workload


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def _read_csv(path: Path):
    """(columns, rows of strings) of a CSV the CLI wrote; '#' lines
    skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    reader = csv.reader(lines)
    columns = next(reader)
    return columns, [row for row in reader]


def _cli_op(op_dir: Path, *argv):
    def op():
        from airypng import cli
        op_dir.mkdir(parents=True, exist_ok=True)
        return {"exit": cli.main(["--output-dir", str(op_dir), *argv])}
    return op


def _cli_exit(output) -> list:
    return [] if output["exit"] == 0 else [f"exit code {output['exit']}"]


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable        # seed -> dict of plain values
    ops: Callable           # (inputs, workdir, workers) -> [(name, callable)]
    check: Callable         # (op name, output, inputs, workdir) -> problems
    pool_workers: Callable  # nproc -> worker processes the load uses


# ---------------------------------------------------------------------------
# airy-cli: the CLI commands the README lists.
# ---------------------------------------------------------------------------

def _airy_cli_inputs(seed: int) -> dict:
    rng = _rng(seed, "airy-cli")
    a = round(-6.0 + 0.1 * rng.random(), 6)
    tau = round(0.5 * rng.random(), 6)
    shift = round(0.5 * rng.random(), 6)
    thresholds = [round(b + 0.25 * rng.random(), 6) for b in (-1.0, 0.0, -0.5)]
    return {
        "s_grid": f"{a!r}:{round(a + 10.0, 6)!r}:0.1",
        "xy_grid": f"{round(-3.0 + shift, 6)!r}:{round(3.0 + shift, 6)!r}:0.5",
        # one (s, t) pair per kernel route: equal time (s >= t), the
        # heat-kernel decomposition (gap 0.5), the mirrored integral (gap 3)
        "pairs": [[tau, tau], [tau, round(tau + 0.5, 6)],
                  [tau, round(tau + 3.0, 6)]],
        "times": [0.0, 2.5, 5.0],
        "thresholds": thresholds,
    }


def _airy_cli_ops(inp: dict, workdir: Path, workers: int):
    ops = [("tw2", _cli_op(workdir / "tw2", "tw2", "--s-grid", inp["s_grid"]))]
    for k, (s, t) in enumerate(inp["pairs"]):
        ops.append((f"kernel{k}", _cli_op(
            workdir / f"kernel{k}", "kernel", "--s", repr(s), "--t", repr(t),
            "--x-grid", inp["xy_grid"], "--y-grid", inp["xy_grid"])))
    ops.append(("gap", _cli_op(
        workdir / "gap", "gap",
        "--times", ",".join(map(repr, inp["times"])),
        "--thresholds", ",".join(map(repr, inp["thresholds"])))))
    return ops


def _airy_cli_check(name: str, output, inp: dict, workdir: Path) -> list:
    import reference
    problems = _cli_exit(output)
    if problems:
        return problems
    if name == "tw2":
        cols, rows = _read_csv(workdir / "tw2" / "tw2.csv")
        if cols != ["s", "F2"] or len(rows) != 101:
            return [f"tw2.csv has columns {cols} and {len(rows)} rows"]
        for s, f2 in ((float(r[0]), float(r[1])) for r in rows):
            ref = reference.f2_classic(s)
            if not abs(f2 - ref) <= 1e-8:
                problems.append(f"F2({s}) = {f2}, classic Nystrom {ref}")
        return problems
    if name.startswith("kernel"):
        s, t = inp["pairs"][int(name[-1])]
        cols, rows = _read_csv(workdir / name / "kernel.csv")
        if cols != ["s", "t", "x", "y", "value"] or len(rows) != 169:
            return [f"kernel.csv has columns {cols} and {len(rows)} rows"]
        vals = np.array(rows, dtype=float)
        if not (np.all(vals[:, 0] == s) and np.all(vals[:, 1] == t)):
            return ["kernel.csv echoes other (s, t)"]
        x = np.unique(vals[:, 2])
        got = vals[:, 4].reshape(x.size, -1)
        if s == t:
            ref, tol = reference.classic_airy_kernel(x, x), 1e-10
        else:
            ref, tol = reference.mirrored_kernel(t - s, x, x), 1e-8
        worst = float(np.max(np.abs(got - ref)))
        return [] if worst <= tol else [
            f"kernel at (s, t) = ({s}, {t}) off by {worst:.3e} > {tol}"]
    cols, rows = _read_csv(workdir / "gap" / "gap.csv")
    p = float(rows[0][2])
    marginal = min(reference.f2_classic(xi) for xi in inp["thresholds"])
    if not 0.0 <= p <= 1.0:
        problems.append(f"gap probability {p} outside [0, 1]")
    if not p <= marginal + 1e-8:
        problems.append(f"gap probability {p} above one-time marginal "
                        f"{marginal}")
    return problems


# ---------------------------------------------------------------------------
# airy-multitime: thousands of small operators beside a few large ones.
# ---------------------------------------------------------------------------

def _airy_multitime_inputs(seed: int) -> dict:
    rng = _rng(seed, "airy-multitime")
    return {"t": round(0.08 + 0.04 * rng.random(), 6),
            "p1": round(-1.0 + 0.05 * rng.random(), 6),
            "epsilons": [0.2, 0.1], "s_gaps": [1.0, 1.0],
            "windows": [[-1.0, 1.0], [-1.0, 1.0]]}


def _airy_multitime_ops(inp: dict, workdir: Path, workers: int):
    def variance():
        from airypng import fredholm
        return fredholm.increment_variance(inp["t"])

    def brownian():
        from airypng import harness
        table = harness.run_airy_brownian_experiment(
            0.0, inp["p1"], inp["epsilons"], inp["s_gaps"], inp["windows"])
        return {"trend_ok": bool(table["trend_ok"]),
                "rows": [[r.epsilon, r.estimate, r.gaussian_target]
                         for r in table["rows"]]}

    return [("variance", variance), ("airy_brownian", brownian)]


def _airy_multitime_check(name: str, output, inp: dict, workdir: Path):
    if name == "variance":
        ratio = output / inp["t"]
        return [] if 1.7 <= ratio <= 2.3 else [
            f"Var/t = {ratio:.4f} outside [1.7, 2.3]"]
    problems = [] if output["trend_ok"] else ["error trend flag is false"]
    for eps, est, _target in output["rows"]:
        if not 0.0 <= est <= 1.0:
            problems.append(f"estimate {est} at epsilon {eps} outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# growth-mc: criterion 10's pipeline at a tenth of its replicas.
# ---------------------------------------------------------------------------

def _growth_mc_inputs(seed: int) -> dict:
    return {"plan": {"q": Q, "N": 128, "gamma": 1.0 / 3.0, "tau1": 0.0,
                     "s_gaps": [1.0], "windows": [[-1.0, 1.0]],
                     "replicas": 20_000, "pilot_replicas": 4000,
                     "master_seed": int(seed)}}


def _growth_mc_ops(inp: dict, workdir: Path, workers: int):
    workdir.mkdir(parents=True, exist_ok=True)
    plan = workdir / "plan.json"
    plan.write_text(json.dumps(inp["plan"]), encoding="utf-8")
    return [("verify", _cli_op(workdir / "verify", "--threads", str(workers),
                               "verify", "png-brownian", "--config",
                               str(plan), "--no-timing"))]


def exact_conditional_window(N: int, K1: int, j1: int, lo: int, hi: int,
                             q: float = Q) -> dict:
    """P[lo <= h(2 K1) <= hi | h(0) = j1] at time 2N - 1, as a box sum of
    joint gap probabilities of the finite-N kernel over the exact
    P[h(0) = j1]; also the one-line joint value at j1 beside the
    single-time determinant, which must agree."""
    from airypng import png_kernel
    params = png_kernel.default_params(math.sqrt(q), N)

    def joint(a, b):
        return png_kernel.joint_gap_probability(params, [(0, a), (K1, b)])

    box = joint(j1, hi) - joint(j1 - 1, hi) - joint(j1, lo - 1) \
        + joint(j1 - 1, lo - 1)
    at_j1 = png_kernel.discrete_gap_probability(params, 0, j1)
    below = png_kernel.discrete_gap_probability(params, 0, j1 - 1)
    return {"value": box / (at_j1 - below),
            "one_line_joint": png_kernel.joint_gap_probability(
                params, [(0, j1)]),
            "single_time": at_j1}


# every round of a run has the same inputs, so the reference is shared
_exact_reference = lru_cache(maxsize=None)(exact_conditional_window)


def _growth_mc_check(name: str, output, inp: dict, workdir: Path) -> list:
    problems = _cli_exit(output)
    if problems:
        return problems
    doc = json.loads((workdir / "verify" / "report.json").read_text())
    res = doc["results"]
    (win,) = res["windows"]
    lo, hi = win["integer_window"]
    exact = _exact_reference(inp["plan"]["N"], doc["lattice"]["K"][1],
                             res["j1"], lo, hi)["value"]
    z = (res["joint_estimate"] - exact) / res["joint_standard_error"]
    if not abs(z) <= 4.0:
        problems.append(f"joint estimate {res['joint_estimate']:.5f} is "
                        f"{z:+.2f} standard errors from exact {exact:.5f}")
    if not 0.0 <= res["ks_distance"] <= 1.0:
        problems.append(f"KS distance {res['ks_distance']} outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# growth-exact: the other growth routines and the contour-FFT kernel.
# ---------------------------------------------------------------------------

EXACT_N = (64, 128, 256, 512, 1024, 2048, 4096)
LPP_BATCH = (10 ** 6, 3, 3)


def _lpp_weights(seed: int) -> np.ndarray:
    u = _rng(seed, "growth-exact/lpp").random(LPP_BATCH)
    return np.floor(np.log1p(-u) / math.log(Q)).astype(np.int64)


@lru_cache(maxsize=1)
def _lpp_reference(seed: int) -> np.ndarray:
    import reference
    return reference.lpp_corner(_lpp_weights(seed))


def _exact_lattice(N: int, psi: float) -> dict:
    """Criterion 10's lattice: gap s = 1 at gamma = 1/3, window [-1, 1],
    conditioning height j1 at standardized position psi."""
    sq = math.sqrt(Q)
    d = sq ** (1.0 / 3.0) * (1.0 + sq) ** (1.0 / 3.0) / (1.0 - sq)
    conv = (1.0 + sq) / (1.0 - sq) / d
    K1 = round(conv * N ** (1.0 / 3.0))
    j1 = round(2.0 * sq / (1.0 - sq) * N + psi * d * N ** (1.0 / 3.0))
    scale = d * N ** (1.0 / 6.0)
    return {"N": N, "K1": K1, "j1": j1, "lo": math.ceil(j1 - scale),
            "hi": math.floor(j1 + scale)}


def _growth_exact_inputs(seed: int) -> dict:
    rng = _rng(seed, "growth-exact")
    return {"coupling_seeds": [int(v) for v in
                               rng.choice(2 ** 31, size=100, replace=False)],
            "coupling_N": 200,
            "lattices": [_exact_lattice(N, round(-2.0 + 0.4 * rng.random(), 6))
                         for N in EXACT_N],
            "n1_q": [0.25, 0.5]}


def _growth_exact_ops(inp: dict, workdir: Path, workers: int):
    from airypng import png_kernel, png_sim
    ops = []
    for k, seed in enumerate(inp["coupling_seeds"]):
        ops.append((f"coupling{k}", lambda seed=seed: bool(
            png_sim.coupling_check(seed, inp["coupling_N"]))))
    weights = _lpp_weights(inp["seed"])
    ops.append(("lpp_batch", lambda: png_sim.last_passage_batch(weights)))
    for lat in inp["lattices"]:
        ops.append((f"window{lat['N']}", lambda lat=lat: (
            exact_conditional_window(lat["N"], lat["K1"], lat["j1"],
                                     lat["lo"], lat["hi"]))))
    for q in inp["n1_q"]:
        params = png_kernel.default_params(math.sqrt(q), 1)
        for M in range(9):
            ops.append((f"n1_q{q}_M{M}", lambda params=params, M=M: (
                png_kernel.discrete_gap_probability(params, 0, M))))
    return ops


def _growth_exact_check(name: str, output, inp: dict, workdir: Path):
    if name.startswith("coupling"):
        return [] if output is True else ["coupling G(i,j) = h(i-j, i+j-1) "
                                          "broken"]
    if name == "lpp_batch":
        ref = _lpp_reference(inp["seed"])
        bad = int(np.count_nonzero(np.asarray(output) != ref))
        return [] if bad == 0 else [f"{bad} last-passage times differ from "
                                    "path enumeration"]
    if name.startswith("window"):
        problems = []
        if not 0.0 <= output["value"] <= 1.0:
            problems.append(f"window probability {output['value']} outside "
                            "[0, 1]")
        diff = abs(output["one_line_joint"] - output["single_time"])
        if not diff <= 1e-8:
            problems.append(f"one-line joint and single-time determinants "
                            f"differ by {diff:.3e}")
        return problems
    q = float(name.split("_q")[1].split("_M")[0])
    M = int(name.split("_M")[1])
    diff = abs(output - (1.0 - q ** (M + 1)))
    return [] if diff <= 1e-9 else [
        f"N=1 gap at M={M}, q={q} off the geometric law by {diff:.3e}"]


def _with_seed(inputs):
    def make(seed: int) -> dict:
        return {**inputs(seed), "seed": int(seed)}
    return make


WORKLOADS = {
    w.name: w for w in (
        Workload("airy-cli", _with_seed(_airy_cli_inputs), _airy_cli_ops,
                 _airy_cli_check, lambda nproc: 1),
        Workload("airy-multitime", _with_seed(_airy_multitime_inputs),
                 _airy_multitime_ops, _airy_multitime_check,
                 lambda nproc: 1),
        Workload("growth-mc", _with_seed(_growth_mc_inputs), _growth_mc_ops,
                 _growth_mc_check, lambda nproc: min(2, nproc)),
        Workload("growth-exact", _with_seed(_growth_exact_inputs),
                 _growth_exact_ops, _growth_exact_check, lambda nproc: 1),
    )
}
