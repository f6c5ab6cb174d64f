import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from airypng import png_sim
from airypng.png_sim import (PngConfig, HeightField, simulate,
                             geometric_from_uniform, replica_generator,
                             last_passage_table,
                             last_passage_batch, coupling_check,
                             coupling_check_detail, rescale_H,
                             evolve_batch_heights, d_scaling, growth_speed,
                             active_sites)
from airypng.errors import DomainError

from oracles import lpp_bruteforce, geometric_pmf, png_heights_oracle


def test_config_validation():
    with pytest.raises(DomainError):
        PngConfig(q=1.0, n_steps=4, seed=0)
    with pytest.raises(DomainError):
        PngConfig(q=0.5, n_steps=0, seed=0)


def test_geometric_mean_and_mass():
    rng = replica_generator(42, 0, 0)
    draws = geometric_from_uniform(rng.random(10 ** 6), 0.5)
    assert draws.mean() == pytest.approx(1.0, abs=0.01)
    assert np.mean(draws == 0) == pytest.approx(0.5, abs=0.005)


def test_geometric_chi_square_gof():
    from scipy.stats import chi2
    q = 0.3
    n = 10 ** 6
    rng = replica_generator(7, 0, 0)
    draws = geometric_from_uniform(rng.random(n), q)
    kmax = 20
    observed = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
    probs = np.append(geometric_pmf(q, np.arange(kmax)), q ** kmax)
    expected = n * probs
    # pool right-tail bins until every expected count is >= 5
    while expected[-1] < 5.0 and len(expected) > 2:
        expected = np.append(expected[:-2], expected[-2] + expected[-1])
        observed = np.append(observed[:-2], observed[-2] + observed[-1])
    stat = float(np.sum((observed - expected) ** 2 / expected))
    p_value = float(chi2.sf(stat, df=len(expected) - 1))
    assert p_value > 0.001


@pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5, float("nan")])
@pytest.mark.parametrize("draw", [
    lambda q: geometric_from_uniform(np.array([0.5]), q),
    lambda q: evolve_batch_heights(q, 3, 0, 0, [0], [0]),
    lambda q: evolve_batch_heights(q, 3, 0, 0, [], [0]),
    lambda q: coupling_check_detail(0, 3, q),
], ids=["geometric_from_uniform", "evolve_batch_heights",
        "evolve_batch_heights_no_replicas", "coupling_check_detail"])
def test_noise_paths_reject_q_outside_unit_interval(draw, q):
    with pytest.raises(DomainError):
        draw(q)


def test_first_step_single_block():
    field = simulate(PngConfig(q=0.25, n_steps=1, seed=5))
    assert field.t == 1
    assert field.heights.shape == (3,)
    assert field.heights[0] == field.heights[2] == 0
    # the single active site at time 1 carries the whole increment
    assert field.heights[1] >= 0


def test_zero_noise_stays_flat():
    T = 7
    for h in png_sim._grow(np.zeros((1, T * (T + 1) // 2), np.int64), T):
        assert np.all(h == 0)


def test_replay_determinism():
    a = simulate(PngConfig(q=0.25, n_steps=25, seed=99))
    b = simulate(PngConfig(q=0.25, n_steps=25, seed=99))
    assert np.array_equal(a.heights, b.heights)


def test_growth_cone_and_monotonicity():
    T = 29
    u = replica_generator(3, 0, 0).random((1, T * (T + 1) // 2))
    prev = None
    for s, h in enumerate(png_sim._grow(geometric_from_uniform(u, 0.4), T)):
        assert np.all(h >= 0)
        # nothing grows outside the cone |x| <= s - 1
        assert np.all(h[0, :T - s + 1] == 0) and np.all(h[0, T + s:] == 0)
        if prev is not None:
            # pointwise nondecreasing in time
            assert np.all(h >= prev)
        prev = h.copy()


def test_active_sites_parity():
    for s in (1, 2, 5, 10):
        xs = active_sites(s)
        assert np.all(np.abs(xs) <= s - 1)
        assert np.all((s - xs) % 2 == 1)


# ---------------------------------------------------------------------------
# Last-passage percolation.
# ---------------------------------------------------------------------------

def test_lpp_single_cell():
    w = np.array([[7]])
    assert last_passage_table(w)[0, 0] == 7


def test_lpp_all_ones():
    w = np.ones((4, 6), dtype=int)
    assert last_passage_table(w)[3, 5] == 4 + 6 - 1


def test_lpp_against_bruteforce():
    # signed weights: a missing up/left neighbour means no path, not 0
    assert last_passage_table([[-1, -1]])[0, 1] == -2
    rng = np.random.default_rng(0)
    for shape, lo, hi in [((3, 3), -6, 7), ((4, 5), -4, 5), ((1, 6), -3, 3),
                          ((5, 1), -3, 3)]:
        for _ in range(10):
            w = rng.integers(lo, hi, shape)
            assert last_passage_table(w)[-1, -1] == lpp_bruteforce(w)
            assert last_passage_batch(w[None])[0] == lpp_bruteforce(w)


def test_lpp_batch_matches_single():
    rng = np.random.default_rng(1)
    w = rng.integers(0, 9, (16, 3, 3))
    batch = last_passage_batch(w)
    singles = [last_passage_table(wi)[2, 2] for wi in w]
    assert np.array_equal(batch, np.array(singles))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_lpp_table_recurrence(seed):
    rng = np.random.default_rng(seed)
    w = rng.integers(0, 6, (5, 4))
    g = last_passage_table(w)
    for i in range(5):
        for j in range(4):
            up = g[i - 1, j] if i else 0
            left = g[i, j - 1] if j else 0
            assert g[i, j] == w[i, j] + max(up, left)


def test_lpp_table_matches_enumeration_with_a_batch_axis():
    # signed weights, so every cell's max over its two neighbours matters;
    # each cell is the enumerated corner value of its sub-rectangle
    rng = np.random.default_rng(7)
    w = rng.integers(-5, 6, (3, 4, 5))
    g = last_passage_table(w)
    assert g.shape == w.shape and g.dtype == np.int64
    for b in range(3):
        for i in range(4):
            for j in range(5):
                assert g[b, i, j] == lpp_bruteforce(w[b, :i + 1, :j + 1])


@pytest.mark.parametrize("block", [1, 7, 30])
def test_lpp_row_blocks_leave_the_table_unchanged(monkeypatch, block):
    # blocks of one row, of a row and a part, and of several rows that end
    # inside the table give the one-call table bit for bit
    rng = np.random.default_rng(8)
    w = rng.integers(-9, 10, (2, 11, 6))
    whole = last_passage_table(w)
    monkeypatch.setattr(png_sim, "_LPP_BLOCK", block)
    assert np.array_equal(last_passage_table(w), whole)
    assert np.array_equal(last_passage_batch(w), whole[:, -1, -1])


@pytest.mark.parametrize("shape", [(64, 3, 3), (64, 1, 6), (64, 2, 4)])
def test_lpp_batch_shapes_match_enumeration(shape):
    rng = np.random.default_rng(9)
    w = rng.integers(-4, 9, shape)
    batch = last_passage_batch(w)
    assert batch.shape == shape[:1] and batch.dtype == np.int64
    assert batch.tolist() == [lpp_bruteforce(wi) for wi in w]
    big = geometric_from_uniform(rng.random((50_000,) + shape[1:]), 0.25)
    assert np.array_equal(last_passage_batch(big),
                          last_passage_table(big)[:, -1, -1])


class _RecordingOp:
    """np.add or np.maximum, recording whether a scan accumulated along
    its rows or looped over its columns."""

    def __init__(self, op):
        self.op, self.forms = op, set()

    def accumulate(self, *args, **kwargs):
        self.forms.add("rows")
        return self.op.accumulate(*args, **kwargs)

    def __call__(self, *args, **kwargs):
        self.forms.add("columns")
        return self.op(*args, **kwargs)


@pytest.mark.parametrize("shape, form", [
    ((200, 200), "rows"), ((201, 200), "columns"), ((5, 1, 5), "rows"),
    ((4, 5, 5), "columns"), ((1, 6), "rows"), ((7, 2), "columns"),
    ((3, 9), "rows")])
def test_lpp_scan_loops_over_columns_only_when_the_batch_is_longer(shape,
                                                                   form):
    # the rule is strict: a 200 x 200 table accumulates along its rows
    a = np.random.default_rng(10).integers(-9, 10, shape)
    for op in (np.add, np.maximum):
        rec, out = _RecordingOp(op), np.empty_like(a)
        png_sim._scan(rec, a, out)
        assert rec.forms == {form}
        assert np.array_equal(out, op.accumulate(a, axis=-1))
        inplace = a.copy()
        png_sim._scan(op, inplace, inplace)
        assert np.array_equal(inplace, out)


def _lpp_cellwise(w):
    """g(i, j) = w(i, j) + max(g(i-1, j), g(i, j-1)), one cell at a time."""
    M, N = w.shape
    g = [[0] * N for _ in range(M)]
    for i in range(M):
        for j in range(N):
            up = [g[i - 1][j]] if i else []
            left = [g[i][j - 1]] if j else []
            g[i][j] = int(w[i, j]) + max(up + left, default=0)
    return np.array(g)


def test_lpp_table_200_matches_the_cellwise_recurrence():
    # signed weights on a coupling-sized table, which scans along its rows
    w = np.random.default_rng(11).integers(-9, 10, (200, 200))
    assert np.array_equal(last_passage_table(w), _lpp_cellwise(w))


@pytest.mark.parametrize("shape", [(2, 3, 8), (3, 4, 5), (9, 2, 3),
                                   (64, 3, 3), (6, 5, 1)])
def test_lpp_scan_forms_match_enumeration(shape):
    # batches shorter and longer than their rows, as tables and as batches
    rng = np.random.default_rng(12)
    w = rng.integers(-6, 9, shape)
    corners = [lpp_bruteforce(wi) for wi in w]
    assert last_passage_batch(w).tolist() == corners
    assert last_passage_table(w)[:, -1, -1].tolist() == corners


def test_lpp_batch_chunk_edges_match_enumeration():
    # batches of one field fewer, exactly and one more than a chunk
    c = png_sim._LPP_BLOCK // 9
    w = np.random.default_rng(13).integers(-6, 9, (c + 1, 3, 3))
    corners = [lpp_bruteforce(wi) for wi in w]
    for B in (c - 1, c, c + 1):
        assert last_passage_batch(w[:B]).tolist() == corners[:B]


def test_lpp_batch_keeps_temporaries_bounded():
    # a 10^5 x 3 x 3 batch holds the corner values (1/3 of a row of
    # 2.4 MB) and, per chunk of _LPP_BLOCK elements, two table rows and one
    # row of w - S (0.22 rows): 0.58 rows in all, where one unchunked ring
    # took 3 1/3
    w = geometric_from_uniform(
        replica_generator(5, 2, 0).random((100_000, 3, 3)), 0.25)
    row = w[:, 0].nbytes
    tracemalloc.start()
    try:
        g = last_passage_batch(w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * row
    assert np.array_equal(g[:100], [lpp_bruteforce(wi) for wi in w[:100]])


# ---------------------------------------------------------------------------
# The exact coupling.
# ---------------------------------------------------------------------------

def test_coupling_n1():
    ok, viol = coupling_check_detail(0, 1)
    assert ok and viol is None


def test_coupling_medium():
    assert all(coupling_check(seed, 50) for seed in range(200))


def test_coupling_large():
    assert all(coupling_check(seed, 200) for seed in range(10))


def test_coupling_sensitivity_to_corruption(monkeypatch):
    # bumping the noise entry that feeds cell (N, N) -- position x = 0 at
    # the last step T = 2N - 1, the last entry of the cone of x = 0 -- must
    # break the identity there, and only there, since (N, N) is the last
    # cell in (i, j) order
    N = 12
    grow = png_sim._grow

    def bumped(noise, n_steps, cone):
        noise = noise.copy()
        noise[0, -1] += 1
        return grow(noise, n_steps, cone)

    monkeypatch.setattr(png_sim, "_grow", bumped)
    w = geometric_from_uniform(replica_generator(12, 1, 0).random((N, N)),
                               0.25)
    G = int(last_passage_table(w)[N - 1, N - 1])
    assert coupling_check_detail(12, N) == (False, (N, N, G, G + 1))


def test_coupling_reports_first_violation_in_ij_order(monkeypatch):
    # two corrupted table cells; (6, 2) comes first column by column, (4, 7)
    # comes first row by row, which is the order the report promises
    table = png_sim.last_passage_table

    def corrupted(w):
        g = table(w)
        g[5, 1] += 3
        g[3, 6] -= 2
        return g

    monkeypatch.setattr(png_sim, "last_passage_table", corrupted)
    w = geometric_from_uniform(replica_generator(4, 1, 0).random((8, 8)),
                               0.25)
    h = int(table(w)[3, 6])
    assert coupling_check_detail(4, 8) == (False, (4, 7, h - 2, h))


def test_coupling_layout_is_memoised_read_only():
    # N = 3, 0-based: w read along anti-diagonals, i ascending; cell (i, j)
    # at time i + j + 1 and position i - j of the (6, 11) snapshots, T = 5
    order, cells = png_sim._coupling_layout(3)
    assert order.tolist() == [0, 1, 3, 2, 4, 6, 5, 7, 8]
    assert cells.tolist() == [(i + j + 1) * 11 + i - j + 5
                              for i in range(3) for j in range(3)]
    assert png_sim._coupling_layout(3)[0] is order
    for a in (order, cells):
        with pytest.raises(ValueError):
            a[0] = 1


def test_coupling_size_domain():
    with pytest.raises(DomainError):
        coupling_check(0, 500)
    with pytest.raises(DomainError):
        coupling_check_detail(0, 0)


# ---------------------------------------------------------------------------
# Rescaling.
# ---------------------------------------------------------------------------

def test_scaling_constants():
    assert d_scaling(0.25) == pytest.approx(2 * 0.75 ** (1 / 3), abs=1e-12)
    assert d_scaling(0.25) == pytest.approx(1.8171, abs=1e-4)
    assert growth_speed(0.25) == pytest.approx(2.0, abs=1e-15)


def test_rescale_interpolation_midpoint():
    field = simulate(PngConfig(q=0.25, n_steps=2 * 12 - 1, seed=4))
    from airypng.png_sim import space_scale
    scale = space_scale(0.25) * 12 ** (2.0 / 3.0)
    t_site = 3.0 / scale      # lands exactly on x = 3
    t_half = 3.5 / scale
    h_site = rescale_H(field, t_site, 0.25)
    h_next = rescale_H(field, (4.0 - 1e-12) / scale, 0.25)
    h_half = rescale_H(field, t_half, 0.25)
    assert h_half == pytest.approx(0.5 * (h_site + h_next), abs=1e-6)


def test_rescale_out_of_cone():
    field = simulate(PngConfig(q=0.25, n_steps=2 * 4 - 1, seed=4))
    with pytest.raises(DomainError):
        rescale_H(field, 50.0, 0.25)


def test_rescale_needs_odd_time():
    field = HeightField(t=4, heights=np.zeros(9, dtype=np.int64))
    with pytest.raises(DomainError):
        rescale_H(field, 0.0, 0.25)


# ---------------------------------------------------------------------------
# Batched evolution.
# ---------------------------------------------------------------------------

def _step_draws(gen, q, T):
    """Noise drawn step by step, s uniforms at step s."""
    return [geometric_from_uniform(gen.random(s), q) for s in range(1, T + 1)]


def test_batch_matches_sequential():
    q, T = 0.25, 23
    noise = _step_draws(replica_generator(99, 5, 3), q, T)
    batch = evolve_batch_heights(q, T, 99, 5, [3], list(range(-T, T + 1)))
    assert batch[0].tolist() == png_heights_oracle(noise)


def test_simulate_matches_scalar_recursion():
    q, T = 0.3, 17
    noise = _step_draws(replica_generator(8, 0, 0), q, T)
    field = simulate(PngConfig(q=q, n_steps=T, seed=8))
    assert field.t == T
    assert field.heights.tolist() == png_heights_oracle(noise)


def test_batch_grouping_invariance():
    q, T = 0.25, 15
    whole = evolve_batch_heights(q, T, 7, 11, list(range(10)), [0, 2])
    parts = np.concatenate([
        evolve_batch_heights(q, T, 7, 11, [r], [0, 2]) for r in range(10)])
    assert np.array_equal(whole, parts)


def test_batch_position_domain():
    with pytest.raises(DomainError):
        evolve_batch_heights(0.25, 5, 0, 0, [0], [9])
    with pytest.raises(DomainError):
        evolve_batch_heights(0.25, 5, 0, 0, [0], [])


def _cone_cells(T, x_min, x_max):
    """(step, position) of the active sites in the backward light cone of
    [x_min, x_max] at time T, in canonical order."""
    return [(s, int(x)) for s in range(1, T + 1) for x in active_sites(s)
            if x_min - (T - s) <= x <= x_max + (T - s)]


def test_batch_cone_matches_full_line():
    # each replica's cone draws, placed in their cells of the canonical
    # full-line layout with large random values everywhere outside the cone,
    # grown on the whole line, give the heights of the narrow batch
    q, T, positions = 0.3, 21, [-3, 1, 4]
    cells = _cone_cells(T, -3, 4)
    rng = np.random.default_rng(5)
    batch = evolve_batch_heights(q, T, 13, 2, range(4), positions)
    for r in range(4):
        drawn = geometric_from_uniform(
            replica_generator(13, 2, r).random(len(cells)), q)
        placed = dict(zip(cells, drawn))
        noise = np.array([[placed.get((s, int(x)),
                                      10 ** 6 + int(rng.integers(10 ** 6)))
                           for s in range(1, T + 1)
                           for x in active_sites(s)]])
        for h in png_sim._grow(noise, T):
            pass
        assert h[0, np.array(positions) + T].tolist() == batch[r].tolist()


@pytest.mark.parametrize("T", [1, 2, 5, 8, 17])
def test_light_cone_identity(T):
    # h(x, T) = G(floor((T+1+x)/2), floor((T+1-x)/2)), G = 0 on an empty
    # box, at every x of both parities: the cone of x is that box, and its
    # draws fill it anti-diagonal by anti-diagonal, i ascending
    q, seed, tag = 0.4, 21, 3
    for x in range(-T, T + 1):
        i, j = (T + 1 + x) // 2, (T + 1 - x) // 2
        h = int(evolve_batch_heights(q, T, seed, tag, [0], [x])[0, 0])
        cells = sorted(((a, b) for a in range(i) for b in range(j)),
                       key=lambda c: (c[0] + c[1], c[0]))
        drawn = geometric_from_uniform(
            replica_generator(seed, tag, 0).random(len(cells)), q)
        w = np.zeros((i, j), dtype=np.int64)
        for (a, b), v in zip(cells, drawn):
            w[a, b] = v
        assert h == (last_passage_table(w)[-1, -1] if i and j else 0)


@pytest.mark.parametrize("T, positions, draws", [(255, [0, 16], 17_372),
                                                 (511, [0, 20], 68_041)])
def test_batch_draws_only_the_cone(monkeypatch, T, positions, draws):
    drawn = []
    generator = png_sim.replica_generator

    class Counting:
        def __init__(self, gen):
            self.gen = gen

        def random(self, *args, **kwargs):
            out = self.gen.random(*args, **kwargs)
            drawn.append(out.size)
            return out

    monkeypatch.setattr(png_sim, "replica_generator",
                        lambda *key: Counting(generator(*key)))
    evolve_batch_heights(0.25, T, 1, 0, [0, 1], positions)
    assert drawn == [draws, draws]


# ---------------------------------------------------------------------------
# Noise and height types.
# ---------------------------------------------------------------------------

def test_noise_bound_covers_every_double():
    # the inversion is nondecreasing in u, and the largest double random()
    # returns is 1 - 2^-53, so the float path there is the largest noise
    top = np.array([1.0 - 2.0 ** -53])
    assert png_sim._geometric_floor(top.copy(), 0.25)[0] == 26
    assert png_sim._noise_bound(0.25) == 28
    for q in (1e-3, 0.1, 0.25, 0.5, 0.9, 0.999):
        assert png_sim._geometric_floor(top.copy(), q)[0] \
            <= png_sim._noise_bound(q)


def _record_types(monkeypatch):
    """Patch _grow to record (noise dtype, height dtype) of each run."""
    seen = []
    grow = png_sim._grow

    def recording(noise, n_steps, cone=None):
        for h in grow(noise, n_steps, cone):
            yield h
        seen.append((noise.dtype, h.dtype))

    monkeypatch.setattr(png_sim, "_grow", recording)
    return seen


def test_quarter_noise_int8_heights_int16(monkeypatch):
    # 511 steps of noise at most 28 stay below 2^15
    assert 511 * png_sim._noise_bound(0.25) < 2 ** 15
    seen = _record_types(monkeypatch)
    h = evolve_batch_heights(0.25, 511, 1, 0, [0, 1], [0, 20])
    assert seen == [(np.int8, np.int16)]
    assert h.dtype == np.int64


@pytest.mark.parametrize("T, heights", [(120, np.int16), (300, np.int32)])
def test_wide_noise_matches_scalar_recursion(monkeypatch, T, heights):
    # at q = 0.9 the bound 350 overflows int8 and T * 350 overflows int16;
    # the heights widen once T times the largest drawn value does
    q = 0.9
    assert png_sim._noise_bound(q) == 350
    seen = _record_types(monkeypatch)
    batch = evolve_batch_heights(q, T, 5, 3, range(3), list(range(-T, T + 1)))
    assert seen == [(np.int16, heights)]
    for r in range(3):
        noise = _step_draws(replica_generator(5, 3, r), q, T)
        assert batch[r].tolist() == png_heights_oracle(noise)
