import hashlib
import math

import numpy as np
import pytest

from airypng import harness
from airypng.png_sim import evolve_batch_heights
from airypng.harness import (PngExperimentPlan, run_png_brownian_experiment,
                             run_airy_brownian_experiment, ks_distance,
                             gaussian_window_integral)
from airypng.errors import DomainError, InsufficientDataError

from oracles import gaussian_window_mass


SMALL_PLAN = dict(q=0.25, N=32, gamma=1.0 / 3.0, tau1=0.0, s_gaps=(1.0,),
                  windows=((-1.0, 1.0),), replicas=20_000, master_seed=777,
                  pilot_replicas=4000)


def test_plan_validation():
    with pytest.raises(DomainError):
        PngExperimentPlan(**{**SMALL_PLAN, "gamma": 0.7})
    with pytest.raises(DomainError):
        PngExperimentPlan(**{**SMALL_PLAN, "replicas": 100})
    with pytest.raises(DomainError):
        PngExperimentPlan(**{**SMALL_PLAN, "windows": ((1.0, -1.0),)})
    with pytest.raises(DomainError):
        PngExperimentPlan(**{**SMALL_PLAN, "s_gaps": ()})


def test_gaussian_window_integral_single():
    assert gaussian_window_integral([1.0], [(-1.0, 1.0)]) == pytest.approx(
        gaussian_window_mass(1.0, -1.0, 1.0), abs=1e-14)
    assert gaussian_window_integral([1.0], [(-1.0, 1.0)]) == pytest.approx(
        0.5204998778, abs=1e-9)


def test_gaussian_window_integral_two_steps():
    val = gaussian_window_integral([1.0, 1.0], [(-1.0, 1.0), (-1.0, 1.0)])
    # chained steps through symmetric windows; slightly below the product
    product = gaussian_window_mass(1.0, -1.0, 1.0) ** 2
    assert 0.20 < val < product
    wide = gaussian_window_integral([1.0, 1.0],
                                    [(-30.0, 30.0), (-1.0, 1.0)])
    assert wide == pytest.approx(gaussian_window_mass(2.0, -1.0, 1.0),
                                 abs=1e-9)


def test_ks_distance_basics():
    n = 400
    quantiles = (np.arange(1, n + 1) - 0.5) / n
    assert ks_distance(quantiles, lambda s: s) <= 0.5 / n + 1e-12
    const = np.full(200, 0.37)
    assert ks_distance(const, lambda s: s) >= 0.5
    with pytest.raises(DomainError):
        ks_distance(np.zeros(50), lambda s: s)


def test_ks_distance_critical_value():
    rng = np.random.default_rng(123)
    n = 2000
    samples = rng.random(n)
    assert ks_distance(samples, lambda s: min(max(s, 0.0), 1.0)) \
        < 1.63 / math.sqrt(n)


def test_ks_distance_calls_cdf_once_per_distinct_sample():
    samples = np.random.default_rng(7).integers(-40, 40, 5000) / 8.0
    calls = []

    def cdf(s):
        calls.append(s)
        return 0.5 * (1.0 + math.erf(s / 3.0))

    d = ks_distance(samples, cdf)
    assert sorted(calls) == np.unique(samples).tolist()
    x = np.sort(samples)
    n = x.size
    values = np.array([cdf(float(s)) for s in x])
    assert d == max(np.max(np.arange(1, n + 1) / n - values),
                    np.max(values - np.arange(0, n) / n))


# sha256 of the first pilot batch (tag 7, first position) and the first
# main batch (tag 11) of criterion 10's plans; the growth engine must keep
# every bit of them
CRITERION_10_BATCHES = {
    64: ("30214fa33a1346b87e1bd4a12a517a76fa133d6b15a6ba8b2b6c08661e181e1e",
         "78783527398d7523491f7eff53c8c6f65ef164a8207d8081fc996a0096fcba8b"),
    128: ("09937afa39d474d2bedc8bd2815b6111006173e5fbefb407aa78f27fbec49095",
          "e72f2e470fe1257ff1c2403d5824e6696ba439980ec33230cadec0b6c5142a66"),
    256: ("89c2f8f6f9d642bb0160e9272c855dc099b433448e4cc48b47d82d7178df3b1b",
          "1060a2406ac636816a9ba3a6414300a206351027ef3c63354716557cee105c7e"),
}


@pytest.mark.parametrize("N", sorted(CRITERION_10_BATCHES))
def test_criterion_10_first_batches_are_pinned(N):
    plan = PngExperimentPlan(q=0.25, N=N, gamma=1.0 / 3.0, tau1=0.0,
                             s_gaps=(1.0,), windows=((-1.0, 1.0),),
                             replicas=200_000, master_seed=20260810)
    positions = harness._plan_lattice(plan)["positions"]
    for tag, where, digest in zip((7, 11), (positions[:1], positions),
                                  CRITERION_10_BATCHES[N]):
        h = evolve_batch_heights(0.25, 2 * N - 1, 20260810, tag,
                                 range(harness._BATCH), where)
        assert hashlib.sha256(h.tobytes()).hexdigest() == digest


def test_png_experiment_report_shape():
    rep = run_png_brownian_experiment(PngExperimentPlan(**SMALL_PLAN))
    assert rep.conditioned_count >= 500
    assert 0.0 <= rep.joint_estimate <= 1.0
    assert rep.joint_standard_error > 0.0
    assert len(rep.estimates) == 1
    entry = rep.estimates[0]
    assert entry["standard_error"] == pytest.approx(
        math.sqrt(entry["estimate"] * (1 - entry["estimate"])
                  / rep.conditioned_count), rel=1e-9)
    assert rep.lattice["positions"][0] == 0
    assert 0.0 < rep.gaussian_target < 1.0
    assert rep.ks_distance < 0.25


def test_png_experiment_pure_function_of_plan():
    a = run_png_brownian_experiment(PngExperimentPlan(**SMALL_PLAN))
    b = run_png_brownian_experiment(
        PngExperimentPlan(**{**SMALL_PLAN, "workers": 2}))
    da = a.as_dict(include_timing=False)
    db = b.as_dict(include_timing=False)
    assert da == db


def test_png_experiment_window_covering_everything():
    plan = PngExperimentPlan(**{**SMALL_PLAN,
                                "windows": ((-40.0, 40.0),)})
    rep = run_png_brownian_experiment(plan)
    assert rep.joint_estimate == 1.0


def test_png_experiment_insufficient_data():
    plan = PngExperimentPlan(**{**SMALL_PLAN, "j1_override": 1_000_000})
    with pytest.raises(InsufficientDataError):
        run_png_brownian_experiment(plan)


def test_airy_experiment_rows_and_trend():
    table = run_airy_brownian_experiment(
        0.0, -1.0, [0.2, 0.1], [1.0], [(-1.0, 1.0)], n=96)
    assert len(table["rows"]) == 2
    assert table["gaussian_target"] == pytest.approx(0.5205, abs=1e-4)
    assert table["trend_ok"]
    for row in table["rows"]:
        assert row.abs_error == abs(row.estimate - row.gaussian_target)


def test_airy_experiment_computes_the_density_once(monkeypatch):
    # the TW2 density at p1 is one certified single-time density, shared
    # by every epsilon
    from airypng import fredholm
    fredholm._tw2_pdf_cached.cache_clear()
    times = []
    real = fredholm._gap_density

    def recording(grid, *args):
        times.append(grid.times)
        return real(grid, *args)

    monkeypatch.setattr(fredholm, "_gap_density", recording)
    run_airy_brownian_experiment(0.0, -1.0, [0.2, 0.1], [1.0], [(-1.0, 1.0)],
                                 n=96)
    assert times.count((0.0,)) == 1
    assert len(times) == 1 + 2 * 2   # two vertices per epsilon


def test_airy_experiment_degenerate_window():
    table = run_airy_brownian_experiment(
        0.0, -1.0, [0.1], [1.0], [(0.4, 0.4)], n=96)
    assert table["rows"][0].estimate == pytest.approx(0.0, abs=1e-12)


def test_airy_experiment_two_step_product_target():
    # at n = 64 the three-time derivative dP/dxi_1 moves 1.3e-8 under the
    # (2n, L+4) rerun (the gap-0.1 heat-kernel blocks are under-resolved),
    # so the certificate rightly refuses it; n = 96 is converged to 4e-13
    table = run_airy_brownian_experiment(
        0.0, -1.0, [0.1], [1.0, 1.0], [(-1.0, 1.0), (-1.0, 1.0)], n=96)
    # target is the chained double integral, near but below 0.2709
    assert 0.20 <= table["gaussian_target"] <= 0.2709 + 1e-6
