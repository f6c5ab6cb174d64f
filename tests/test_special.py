import importlib.util
import math
import pkgutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import airypng
from airypng import airy_kernel, fredholm, special
from airypng.special import (airy_ai, airy_ai_prime, airy_ai_aip_vec,
                             panel_rule, PANEL_EDGE, PANEL_WIDTH)
from airypng.errors import DomainError

from oracles import airy_series_oracle, airy_first_zero, airy_ai_second


def test_ai_at_zero():
    assert airy_ai(0.0) == pytest.approx(0.3550280538878172, abs=1e-15)
    assert airy_ai_prime(0.0) == pytest.approx(-0.2588194037928068, abs=1e-15)


def test_ai_at_five():
    assert airy_ai(5.0) == pytest.approx(1.0834442813607441e-4, abs=1e-12)


def test_airy_ode_residual_spot():
    x = 1.5
    assert abs(airy_ai_second(x) - x * airy_ai(x)) < 1e-10


def test_first_zero_of_ai():
    z = airy_first_zero()
    assert z == pytest.approx(-2.338107410459767, abs=1e-12)
    assert abs(airy_ai(z)) < 1e-10
    assert airy_ai_prime(z) == pytest.approx(0.7012, abs=1e-3)


def test_derivative_matches_central_difference():
    h = 1e-5
    approx = (airy_ai(1.0 + h) - airy_ai(1.0 - h)) / (2 * h)
    assert abs(approx - airy_ai_prime(1.0)) < 1e-8


def test_scalar_accuracy_against_series_oracle():
    for x in np.linspace(-20.0, 10.0, 61):
        assert airy_ai(float(x)) == pytest.approx(
            airy_series_oracle(float(x)), abs=1e-12)
        assert airy_ai_prime(float(x)) == pytest.approx(
            airy_series_oracle(float(x), derivative=1), abs=1e-11)


def test_scalar_accuracy_outer_range():
    for x in (-55.0, -40.0, -25.0, 15.0, 25.0, 39.0):
        assert airy_ai(x) == pytest.approx(airy_series_oracle(x), abs=1e-10)


def test_scipy_cross_check():
    sp = pytest.importorskip("scipy.special")
    xs = np.linspace(-30.0, 20.0, 101)
    ai_ref = sp.airy(xs)[0]
    ours = np.array([airy_ai(float(x)) for x in xs])
    assert np.max(np.abs(ours - ai_ref)) < 1e-11


def test_out_of_range_raises():
    with pytest.raises(DomainError):
        airy_ai(-61.0)
    with pytest.raises(DomainError):
        airy_ai_prime(41.0)


def test_ode_residual_random_window():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-15.0, 8.0, 200):
        resid = airy_ai_second(float(x)) - x * airy_ai(float(x))
        assert abs(resid) < 1e-9, x


def test_branch_joint_continuity():
    # Taylor panels against the asymptotic expansions at the switch points
    for x0, asymptotic in ((PANEL_EDGE, special._asymptotic_positive),
                           (-PANEL_EDGE, special._asymptotic_negative)):
        x = np.array([x0])
        for panel, asym in zip(special._panels(x), asymptotic(x)):
            assert panel[0] == pytest.approx(asym[0], rel=1e-13), x0


def test_panel_table_certificate():
    # backward stepping from the asymptotic expansion meets Ai(0), Ai'(0)
    _coefficients, certificate = special._panel_table()
    assert certificate <= 1e-15


def test_positive_axis_monotone_decay():
    xs = np.arange(0.0, 20.0 + 1e-9, 1e-2)
    vals = np.array([airy_ai(float(x)) for x in xs])
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_vectorised_matches_scalar():
    # every panel centre and edge of [-20, 10], and random points between
    half = PANEL_WIDTH / 2.0
    xs = np.concatenate([
        np.arange(-20.0, 10.0 + half, half),
        np.random.default_rng(3).uniform(-20.0, 10.0, 60)])
    ai, aip = airy_ai_aip_vec(xs)
    for x, a, ap in zip(xs, ai, aip):
        assert a == pytest.approx(airy_series_oracle(x), abs=1e-12), x
        assert ap == pytest.approx(airy_series_oracle(x, 1), abs=1e-11), x
    assert np.array_equal(ai, [airy_ai(x) for x in xs])
    outer = np.concatenate([np.linspace(-60.0, -20.5, 12),
                            np.linspace(10.5, 40.0, 8)])
    ai, aip = airy_ai_aip_vec(outer)
    for x, a, ap in zip(outer, ai, aip):
        assert a == pytest.approx(airy_series_oracle(x), abs=1e-10), x
        assert ap == pytest.approx(airy_series_oracle(x, 1), abs=1e-10), x


def test_large_call_keeps_temporaries_bounded():
    # one leg of a gap-2.5 time pair at n=384, npp=96: about 590k points
    nodes, _ = fredholm._leg_rule(0.0, 20.0, 384)
    u, _ = airy_kernel._negative_grid(airy_kernel._gap_key(2.5), 96)
    x = nodes[:, None] - u[None, :]
    assert x.size >= 589_824
    airy_ai_aip_vec(x[:1, :1])  # build the cached panel table first
    tracemalloc.start()
    try:
        ai, aip = airy_ai_aip_vec(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ai.nbytes + aip.nbytes + 16 * 2 ** 20
    # row 42 straddles the first block boundary
    assert np.array_equal(ai[42], airy_ai_aip_vec(x[42])[0])


def test_ai_only_matches_default_path():
    # every panel centre and edge, +-20 and their neighbours, both
    # asymptotic branches, and a call longer than one 2**16-point block
    half = PANEL_WIDTH / 2.0
    edges = np.array([-20.0, 20.0])
    xs = np.concatenate([
        np.arange(-20.0, 20.0 + half, half),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        np.nextafter(edges, -np.inf),
        np.linspace(-60.0, 40.0, 2 ** 16 + 1001)])
    ai_only = airy_ai_aip_vec(xs, derivative=False)
    assert np.array_equal(ai_only, airy_ai_aip_vec(xs)[0])
    table = xs[:2 ** 16 + 1000].reshape(-1, 8)
    assert np.array_equal(airy_ai_aip_vec(table, derivative=False),
                          airy_ai_aip_vec(table)[0])


def _tracer():
    """perfbench's tracer module, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_airy_names_exist():
    # perfbench's tracer counts Airy work only through the module
    # attributes it wraps, so every module that holds an Airy function
    # must have that name in its table, or the per-layer metrics would
    # silently drop Airy time
    wrapped = {(module, attr) for module, attr, span, *_ in _tracer().WRAPPED
               if span == "special.airy"}
    airy = (special.airy_ai_aip_vec, special.airy_ai, special.airy_ai_prime)
    held = set()
    for info in pkgutil.iter_modules(airypng.__path__):
        name = f"airypng.{info.name}"
        if name == "airypng.special":
            continue
        module = importlib.import_module(name)
        held |= {(name, attr) for attr, value in vars(module).items()
                 if any(value is fn for fn in airy)}
    assert ("airypng.airy_kernel", "airy_ai_aip_vec") in held
    assert held <= wrapped, held - wrapped


# names the tracer still lists though the package dropped them; the next
# change to the benchmark removes them, and no other name may join them
_STALE_TRACED = {("airypng.fredholm", "airy_ai_aip_vec"),
                 ("airypng.fredholm", "gauss_legendre"),
                 ("airypng.airy_kernel", "airy_ai"),
                 ("airypng.airy_kernel", "airy_ai_prime"),
                 ("airypng.png_sim", "png_step"),
                 ("airypng.harness", "_tw2_for_ks")}


@pytest.mark.parametrize("layer", sorted(
    {span.split(".")[0] + "." for _, _, span, *_ in _tracer().WRAPPED}))
def test_traced_names_exist(layer):
    # every span the tracer times must name a live attribute, or a refactor
    # would silently move its time out of fredholm.tw2, png_sim.batch,
    # cli.write and the rest
    entries = [(module, attr) for module, attr, span, *_ in _tracer().WRAPPED
               if span.startswith(layer)]
    assert entries
    missing = {(module, attr) for module, attr in entries
               if not hasattr(importlib.import_module(module), attr)}
    assert missing <= _STALE_TRACED, missing - _STALE_TRACED


# ---------------------------------------------------------------------------
# Quadrature rules.
# ---------------------------------------------------------------------------

def test_single_node_rule_is_midpoint():
    nodes, weights = panel_rule([-1.0, 1.0], 1)
    assert nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert weights[0] == pytest.approx(2.0, abs=1e-15)


def test_degree_nine_monomial():
    nodes, weights = panel_rule([0.0, 1.0], 5)
    assert np.dot(weights, nodes ** 9) == pytest.approx(0.1, abs=1e-14)


def test_exponential_integral():
    nodes, weights = panel_rule([0.0, 20.0], 40)
    val = np.dot(weights, np.exp(-nodes))
    assert val == pytest.approx(1.0 - math.exp(-20.0), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 40),
       a=st.floats(-5, 4.5), width=st.floats(0.1, 10))
def test_rule_invariants(n, a, width):
    nodes, weights = panel_rule([a, a + width], n)
    assert np.all(weights > 0)
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > a and nodes[-1] < a + width
    assert np.sum(weights) == pytest.approx(width, abs=1e-13)
    for k in range(0, 2 * n, max(1, (2 * n) // 6)):
        exact = ((a + width) ** (k + 1) - a ** (k + 1)) / (k + 1)
        got = float(np.dot(weights, nodes ** k))
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-13)


def test_panels_are_the_single_panel_rules():
    # every panel of a composite rule is bit for bit the rule on that panel
    edges = [0.0, 0.35, 1.05, 2.8, 7.0, 11.0]
    nodes, weights = panel_rule(edges, 6)
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        x, w = panel_rule([a, b], 6)
        assert nodes[6 * k:6 * k + 6].tobytes() == x.tobytes()
        assert weights[6 * k:6 * k + 6].tobytes() == w.tobytes()


def test_rule_preconditions():
    for edges, n in [([0.0, 1.0], 0), ([1.0, 1.0], 4), ([0.0, 2.0, 1.0], 4),
                     ([0.0], 4), ([0.0, float("nan")], 4)]:
        with pytest.raises(DomainError):
            panel_rule(edges, n)
