"""Acceptance suite: one test per criterion, each printing a verdict line
and appending it to acceptance_summary.txt at session end. A criterion's
bracketed time includes the time of the module fixture it reads. A
criterion whose computation raises writes a FAIL line naming the
exception, then lets the exception propagate.

Criterion 10's first clause is asserted exactly as stated; ROADMAP.md's
"Exact finite-N reference" table compares its Monte Carlo estimates with
the exact finite-N values from `png_kernel.joint_gap_probability`.
"""

import functools
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from airypng import airy_kernel, fredholm, harness, png_kernel, png_sim

from conftest import child_env
from oracles import okounkov_lhs_quadrature, f2_nystrom_oracle

GAUSS_TARGET = 0.5204998778130465  # erf(1/2)

CRITERIA = {
    1: "heat-kernel product identity",
    2: "equal-time kernel equivalence",
    3: "F2 anchor vs Nystrom oracle",
    4: "exact growth/last-passage coupling",
    5: "N=1 kernel exactness",
    6: "N=3 kernel vs 10^6-sample MC",
    7: "increment variance 2t",
    8: "covariance t^-2 decay",
    9: "Airy conditional Brownian trend",
    10: "growth-model Brownian MC",
    11: "scaled-kernel convergence",
    12: "transition kernel vs Gaussian",
    13: "thread-count determinism",
}


def _verdict(log, num, ok, detail, started):
    line = (f"ACCEPTANCE {num:02d} {CRITERIA[num]}: "
            f"{'PASS' if ok else 'FAIL'} ({detail}) "
            f"[{time.perf_counter() - started:.1f}s]")
    print(line)
    log.append(line)
    return line


def _verdict_if_raises(num):
    """Make criterion ``num`` write a FAIL verdict line naming the
    exception when its computation raises before it wrote its own line;
    the exception is then re-raised."""
    def decorate(test):
        @functools.wraps(test)
        def run(acceptance_log, **fixtures):
            started = time.perf_counter()
            written = len(acceptance_log)
            try:
                test(acceptance_log, **fixtures)
            except Exception as exc:
                if len(acceptance_log) == written:
                    _verdict(acceptance_log, num, False,
                             f"raised {type(exc).__name__}: {exc}", started)
                raise
        return run
    return decorate


def _once(compute):
    """A call that runs ``compute`` the first time and returns its value
    and the seconds it took; later calls return the same pair, or raise
    what the first run raised."""
    memo = {}

    def get():
        if not memo:
            started = time.perf_counter()
            try:
                memo["value"] = compute()
            except Exception as exc:
                memo["error"] = exc
            memo["seconds"] = time.perf_counter() - started
        if "error" in memo:
            raise memo["error"]
        return memo["value"], memo["seconds"]

    return get


@_verdict_if_raises(1)
def test_criterion_01_okounkov_identity(acceptance_log):
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0):
        for x in (-2.0, -0.5, 0.0, 1.0, 2.0):
            for y in (-2.0, -0.5, 0.0, 1.0, 2.0):
                lhs = okounkov_lhs_quadrature(alpha, x, y)
                rhs = airy_kernel.heat_phi(alpha, x, y)
                worst = max(worst, abs(lhs - rhs))
    line = _verdict(acceptance_log, 1, worst <= 1e-8,
                    f"max residual {worst:.2e} <= 1e-8", t0)
    assert worst <= 1e-8, line


@_verdict_if_raises(2)
def test_criterion_02_equal_time_kernel(acceptance_log):
    from airypng.special import airy_ai, airy_ai_prime
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    count = 0
    while count < 100:
        x, y = rng.uniform(-10.0, 8.0, 2)
        if abs(x - y) <= 1e-3:
            continue
        count += 1
        closed = (airy_ai(x) * airy_ai_prime(y)
                  - airy_ai_prime(x) * airy_ai(y)) / (x - y)
        quad = airy_kernel.extended_airy_kernel(0.7, 0.7, float(x), float(y))
        worst = max(worst, abs(quad - closed))
    line = _verdict(acceptance_log, 2, worst <= 1e-10,
                    f"max |diff| {worst:.2e} <= 1e-10", t0)
    assert worst <= 1e-10, line


@_verdict_if_raises(3)
def test_criterion_03_f2_anchor(acceptance_log):
    t0 = time.perf_counter()
    oracle0 = f2_nystrom_oracle(0.0, n=200)
    ours0 = fredholm.tw2_cdf(0.0)
    worst = abs(ours0 - oracle0)
    for s in range(-4, 3):
        worst = max(worst, abs(fredholm.tw2_cdf(float(s))
                               - f2_nystrom_oracle(float(s), n=200)))
    line = _verdict(acceptance_log, 3, worst <= 1e-8,
                    f"F2(0)={ours0:.10f}, max route diff {worst:.2e}", t0)
    assert worst <= 1e-8, line


@_verdict_if_raises(4)
def test_criterion_04_exact_coupling(acceptance_log):
    t0 = time.perf_counter()
    bad = sum(not png_sim.coupling_check(seed, 50) for seed in range(1000))
    bad += sum(not png_sim.coupling_check(seed, 200) for seed in range(100))
    line = _verdict(acceptance_log, 4, bad == 0,
                    f"{bad} mismatches in 1000x(N=50)+100x(N=200)", t0)
    assert bad == 0, line


@_verdict_if_raises(5)
def test_criterion_05_n1_geometric_law(acceptance_log):
    t0 = time.perf_counter()
    worst = 0.0
    for q in (0.25, 0.5):
        pars = png_kernel.default_params(math.sqrt(q), 1)
        for M in range(0, 9):
            det = png_kernel.discrete_gap_probability(pars, 0, M)
            worst = max(worst, abs(det - (1.0 - q ** (M + 1))))
    line = _verdict(acceptance_log, 5, worst <= 1e-9,
                    f"max |det - geometric| {worst:.2e}", t0)
    assert worst <= 1e-9, line


@_verdict_if_raises(6)
def test_criterion_06_n3_kernel_vs_monte_carlo(acceptance_log):
    t0 = time.perf_counter()
    q = 0.25
    N = 3
    R = 10 ** 6
    rng = png_sim.replica_generator(606, 2, 0)
    w = png_sim.geometric_from_uniform(rng.random((R, N, N)), q)
    g = png_sim.last_passage_batch(w)
    pars = png_kernel.default_params(math.sqrt(q), N)
    worst_z = 0.0
    for M in (3, 4, 5, 6, 8):
        emp = float(np.mean(g <= M))
        se = math.sqrt(emp * (1.0 - emp) / R)
        det = png_kernel.discrete_gap_probability(pars, 0, M)
        worst_z = max(worst_z, abs(det - emp) / se)
    line = _verdict(acceptance_log, 6, worst_z <= 3.0,
                    f"worst |z| {worst_z:.2f} <= 3", t0)
    assert worst_z <= 3.0, line


@pytest.fixture(scope="module")
def variance_values():
    """A call returning the variances and the seconds they took."""
    return _once(lambda: {t: fredholm.increment_variance(t)
                          for t in (0.05, 0.1, 0.2)})


@_verdict_if_raises(7)
def test_criterion_07_variance_asymptotics(acceptance_log, variance_values):
    values, fixture_s = variance_values()
    t0 = time.perf_counter() - fixture_s
    ratios = {t: v / t for t, v in values.items()}
    in_range = all(1.7 <= ratios[t] <= 2.3 for t in (0.05, 0.1))
    closer = abs(ratios[0.05] - 2.0) < abs(ratios[0.2] - 2.0)
    ok = in_range and closer
    line = _verdict(acceptance_log, 7, ok, "ratios " + ", ".join(
                    f"t={t}: {ratios[t]:.3f}" for t in sorted(ratios)), t0)
    assert ok, line


@_verdict_if_raises(8)
def test_criterion_08_covariance_decay(acceptance_log):
    t0 = time.perf_counter()
    c3 = fredholm.long_range_covariance(3.0)
    c6 = fredholm.long_range_covariance(6.0)
    ratio = c3 / c6
    ok = 2.5 <= ratio <= 6.5 and c6 < 0.05 and c3 > 0.0
    line = _verdict(acceptance_log, 8, ok,
                    f"cov(3)={c3:.5f}, cov(6)={c6:.5f}, ratio {ratio:.2f}",
                    t0)
    assert ok, line


@_verdict_if_raises(9)
def test_criterion_09_airy_brownian_trend(acceptance_log):
    t0 = time.perf_counter()
    table = harness.run_airy_brownian_experiment(
        0.0, -1.0, [0.2, 0.1, 0.05], [1.0], [(-1.0, 1.0)])
    errs = [row.abs_error for row in table["rows"]]
    shrinking = all(b <= 1.2 * a for a, b in zip(errs, errs[1:]))
    ok = shrinking and errs[-1] <= 0.08
    line = _verdict(acceptance_log, 9, ok,
                    "errors " + ", ".join(f"{e:.4f}" for e in errs), t0)
    assert ok, line


@pytest.fixture(scope="module")
def png_brownian_reports():
    """A call returning the reports by N and the seconds they took."""
    def compute():
        reports = {}
        for N in (64, 128, 256):
            plan = harness.PngExperimentPlan(
                q=0.25, N=N, gamma=1.0 / 3.0, tau1=0.0, s_gaps=(1.0,),
                windows=((-1.0, 1.0),), replicas=200_000,
                master_seed=20260810, workers=min(os.cpu_count() or 1, 2))
            reports[N] = harness.run_png_brownian_experiment(plan)
        return reports
    return _once(compute)


@_verdict_if_raises(10)
def test_criterion_10_png_brownian_monte_carlo(acceptance_log,
                                               png_brownian_reports):
    reports, fixture_s = png_brownian_reports()
    t0 = time.perf_counter() - fixture_s
    errors = {N: abs(r.joint_estimate - GAUSS_TARGET)
              for N, r in reports.items()}
    se128 = reports[128].joint_standard_error
    envelope_ok = errors[128] <= 4.0 * se128 + 0.05
    pooled = math.sqrt(reports[64].joint_standard_error ** 2
                       + reports[256].joint_standard_error ** 2)
    trend_ok = errors[256] <= errors[64] + 2.0 * pooled
    detail = (", ".join(
        f"N={N}: est {reports[N].joint_estimate:.4f}"
        f" (err {errors[N]:.4f}, target(realized)"
        f" {reports[N].gaussian_target:.4f})" for N in (64, 128, 256))
        + f"; envelope {4 * se128 + 0.05:.4f}"
        + f"; envelope_ok={envelope_ok} trend_ok={trend_ok}")
    ok = envelope_ok and trend_ok
    line = _verdict(acceptance_log, 10, ok, detail, t0)
    assert ok, (line + " -- see ROADMAP.md, 'Exact finite-N reference': "
                "these estimates match the exact finite-N conditional "
                "probabilities, so the N=128 deviation is the true "
                "conditional law at effective epsilon N^(gamma-2/3) ~ 0.2 "
                "plus window rounding; the stated envelope is unattainable "
                "at these parameters")


def test_invariant_ks_trend_toward_tw2(png_brownian_reports):
    # single-time convergence of the standardized height law toward TW2
    reports, _ = png_brownian_reports()
    assert reports[256].ks_distance < reports[64].ks_distance


@_verdict_if_raises(11)
def test_criterion_11_scaled_kernel_convergence(acceptance_log):
    t0 = time.perf_counter()
    rows = png_kernel.airy_limit_report(0.25, [32, 64, 128, 256])
    errs = [r.abs_error for r in rows]
    ok = all(b < a for a, b in zip(errs, errs[1:]))
    line = _verdict(acceptance_log, 11, ok,
                    "errors " + ", ".join(f"{e:.5f}" for e in errs), t0)
    assert ok, line


@_verdict_if_raises(12)
def test_criterion_12_phi_gaussian_approximation(acceptance_log):
    t0 = time.perf_counter()
    q = 0.25
    alpha = math.sqrt(q)
    gamma = 1.0 / 3.0
    errs = {}
    for N in (64, 256):
        d = png_sim.d_scaling(q)
        conv = (1 + alpha) / (1 - alpha) / d
        u = int(round(N ** (2.0 / 3.0)))
        v = u + round(conv * N ** gamma)
        s_real = (v - u) / (conv * N ** gamma)
        pars = png_kernel.default_params(alpha, N)
        scale = d * N ** (1.0 / 3.0)
        worst = 0.0
        for k in range(0, int(math.floor(2 * scale)) + 1):
            ph = png_kernel.phi_values(pars, u, v, [k])[0]
            var = 2.0 * s_real * N ** (gamma - 2.0 / 3.0)
            gauss = math.exp(-(k / scale) ** 2 / (2.0 * var)) \
                / math.sqrt(2.0 * math.pi * var) / scale
            worst = max(worst, abs(ph - gauss))
        errs[N] = worst
    ok = errs[256] < errs[64]
    line = _verdict(acceptance_log, 12, ok,
                    f"max err N=64: {errs[64]:.5f}, N=256: {errs[256]:.5f}",
                    t0)
    assert ok, line


def test_criterion_13_determinism(acceptance_log, tmp_path):
    t0 = time.perf_counter()
    plan = {"q": 0.25, "N": 32, "gamma": 1.0 / 3.0, "tau1": 0.0,
            "s_gaps": [1.0], "windows": [[-1.0, 1.0]], "replicas": 20000,
            "master_seed": 777, "pilot_replicas": 4000}
    outputs = {}
    failure = None
    for threads in ("1", "2"):
        d = tmp_path / f"t{threads}"
        d.mkdir()
        (d / "plan.json").write_text(json.dumps(plan))
        res = subprocess.run(
            [sys.executable, "-m", "airypng.cli", "verify", "png-brownian",
             "--config", "plan.json", "--no-timing"],
            cwd=d, env=child_env(AIRYPNG_THREADS=threads),
            capture_output=True, text=True)
        if res.returncode != 0:
            tail = " | ".join(res.stderr.strip().splitlines()[-2:])
            failure = (f"AIRYPNG_THREADS={threads} exited "
                       f"{res.returncode}: {tail}")
            break
        outputs[threads] = tuple((d / f).read_bytes()
                                 for f in ("report.json", "report.csv",
                                           "report.svg"))
    ok = failure is None and outputs["1"] == outputs["2"]
    detail = failure or ("reports byte-identical" if ok else
                         "reports differ") + " across AIRYPNG_THREADS=1,2"
    line = _verdict(acceptance_log, 13, ok, detail, t0)
    assert ok, line
