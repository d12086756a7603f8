"""verify's block-drawn random instances against scalar draws of the same stream.

The three piecewise-cost checks (greedy deployment, max of affines, midpoint
convexity) draw all of their instances in three generator calls: every K,
every N, then one ``rng.random`` block of fixed-width rows, one per instance,
each read from the left. They scale a shape group of instances at once, and
two of them cost whole groups through ``slot_cost`` on a ``FleetStack``. The
scalar references here follow the same layout with one ``rng.integers`` call
per K and per N and one ``rng.uniform`` call per quantity
(``conftest.random_instance`` at a given shape is the scalar instance draw),
draw and drop the unused rest of each row, and cost one slot at a time, as the
checks used to. A check's detail alone cannot pin the stream: the
max-of-affines detail reads 0.000e+00 whatever the instances are, so the drawn
arrays and the generator state are compared too.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from minerflex import (
    ProgramSpec,
    cost_fixed_k,
    fleet_from_rewards,
    hindsight_optimum,
    lp_deployment_oracle,
    realized_cost,
)
from minerflex import verify
from minerflex.oracle import fixed_dot
from minerflex.programs import prices_of
from minerflex.verify import CheckResult

from conftest import random_instance, slot_batch_of
from test_acceptance import _bounded_rounds


# The width of the block's rows: 2K + 3N + 1 doubles at K = 4 and N = 3, and 2N + 2 more with a segment.
ROW, SEGMENT_ROW = 18, 26


def scalar_instances(rng, count, segment=False):
    """``verify._drawn_by_shape(rng, count, segment)`` drawn scalar by scalar, in draw order.

    Every K, then every N, one ``rng.integers`` call each; then, instance by
    instance, its doubles in row order (``random_instance`` at its shape, and
    with ``segment`` the ends a and b of a segment and their shares), and the
    rest of its row drawn and dropped. Each instance is (fleet, programs, c,
    raw), followed by a and b with ``segment``.
    """
    ks = [int(rng.integers(1, 5)) for _ in range(count)]
    ns = [int(rng.integers(1, 4)) for _ in range(count)]
    out = []
    for k, n in zip(ks, ns):
        inst = random_instance(rng, shape=(k, n))
        used = 2 * k + 3 * n + 1
        if segment:
            cap = inst[0].total_capacity_mw
            a = rng.uniform(0.0, 1.0, n)
            b = rng.uniform(0.0, 1.0, n)
            a *= rng.uniform(0.0, 1.0) * cap / max(a.sum(), 1e-12)
            b *= rng.uniform(0.0, 1.0) * cap / max(b.sum(), 1e-12)
            inst += (a, b)
            used += 2 * n + 2
        rng.random((SEGMENT_ROW if segment else ROW) - used)
        out.append(inst)
    return out


def fields_of(inst):
    """A scalar instance as ``_drawn_by_shape``'s fields: caps, rewards, prices, raw, c (and a, b)."""
    fleet, programs, c, raw, *ends = inst
    return [fleet.capacities, fleet.rewards, prices_of(programs), raw, c, *ends]


def shape_of(fields):
    """(K, N) of one instance's fields."""
    return len(fields[0]), len(fields[2])


def scalar_greedy(seed, instances):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for fleet, programs, c, raw in scalar_instances(rng, instances):
        greedy = realized_cost(fleet, programs, c, raw)
        oracle = lp_deployment_oracle(fleet, programs, c, raw)
        worst = max(worst, abs(greedy - oracle))
    return CheckResult(
        "greedy deployment vs LP vertex oracle",
        worst <= 1e-9,
        f"max |diff| = {worst:.3e} over {instances} instances",
    )


def scalar_max_of_affines(seed, points):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for fleet, programs, c, raw in scalar_instances(rng, points):
        cost = realized_cost(fleet, programs, c, raw)
        best = max(cost_fixed_k(fleet, programs, c, raw, k) for k in range(1, fleet.n_types + 1))
        worst = max(worst, abs(cost - best))
    return CheckResult(
        "piecewise cost = max of affine surrogates",
        worst <= 1e-9,
        f"max |diff| = {worst:.3e} over {points} points",
    )


def scalar_midpoint(seed, segments):
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for fleet, programs, _, raw, a, b in scalar_instances(rng, segments, segment=True):
        mid = 0.5 * (a + b)
        gap = realized_cost(fleet, programs, mid, raw) - 0.5 * (
            realized_cost(fleet, programs, a, raw) + realized_cost(fleet, programs, b, raw)
        )
        worst = max(worst, gap)
    return CheckResult(
        "midpoint convexity of the slot cost",
        worst <= 1e-9,
        f"max violation = {worst:.3e} over {segments} segments",
    )


def as_tuple(result):
    return result.name, bool(result.passed), result.detail


@pytest.mark.parametrize("segment", [False, True], ids=["instance", "segment"])
@pytest.mark.parametrize("seed", range(6))
def test_drawn_arrays_and_stream_match_scalar_draws(seed, segment):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ref = scalar_instances(ref_rng, 400, segment)
    groups = list(verify._drawn_by_shape(rng, 400, segment=segment))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # instance i is the next unread row of its shape's group
    rows = {(group[0].shape[1], group[2].shape[1]): zip(*group) for group in groups}
    for i, inst in enumerate(ref):
        want = fields_of(inst)
        got = next(rows[shape_of(want)])
        assert len(got) == len(want), f"instance {i}"
        for name, x, y in zip(("caps", "rewards", "prices", "raw", "c", "a", "b"), want, got):
            assert y.dtype == np.float64 and y.tobytes() == np.asarray(x).tobytes(), f"instance {i}: {name}"
        assert math.fsum(got[0]) == inst[0].total_capacity_mw
    assert set(rows) == {(k, n) for k in range(1, 5) for n in range(1, 4)}
    assert all(next(left, None) is None for left in rows.values())


@pytest.mark.parametrize("fast", [False, True], ids=["full", "fast"])
@pytest.mark.parametrize("seed", range(6))
def test_checks_match_scalar_checks(seed, fast):
    # the sizes and seed offsets of run_verify
    greedy, points = (100, 800) if fast else (200, 2000)
    assert as_tuple(verify.check_greedy_deployment(seed, greedy)) == as_tuple(scalar_greedy(seed, greedy))
    assert as_tuple(verify.check_max_of_affines(seed + 1, points)) == as_tuple(
        scalar_max_of_affines(seed + 1, points)
    )
    assert as_tuple(verify.check_midpoint_convexity(seed + 2, points)) == as_tuple(
        scalar_midpoint(seed + 2, points)
    )


def test_max_of_affines_reference_matches_surrogates():
    # the check's reference, row by row, is the max over the instance's own K
    # surrogates of cost_fixed_k, bit for bit
    rng = np.random.default_rng(11)
    for caps, rewards, prices, raw, c in verify._drawn_by_shape(rng, 600):
        best = verify._max_of_affines(caps, rewards, prices, raw, c)
        assert best.shape == (len(caps),)
        for i in range(len(caps)):
            fleet = fleet_from_rewards(caps[i], rewards[i])
            programs = [ProgramSpec(id=f"p{j}", price=float(p)) for j, p in enumerate(prices[i])]
            ref = max(cost_fixed_k(fleet, programs, c[i], raw[i], k) for k in range(1, fleet.n_types + 1))
            assert np.float64(ref).tobytes() == best[i].tobytes(), f"row {i} of K={caps.shape[1]}"


def test_drawn_by_shape_groups_every_instance_once_in_draw_order():
    # every shape drawn many times over: still one group per shape over the whole draw
    count = 2 * 256 + 37
    ref_rng, rng = np.random.default_rng(12), np.random.default_rng(12)
    drawn = [fields_of(inst) for inst in scalar_instances(ref_rng, count, segment=True)]
    groups = list(verify._drawn_by_shape(rng, count, segment=True))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    shapes = list(dict.fromkeys(map(shape_of, drawn)))
    assert [(g[0].shape[1], g[2].shape[1]) for g in groups] == shapes
    for shape, group in zip(shapes, groups):
        members = [inst for inst in drawn if shape_of(inst) == shape]
        for field, stacked in enumerate(group):
            assert np.array([inst[field] for inst in members]).tobytes() == stacked.tobytes(), (shape, field)


def numpy_scalar_lp_oracle(fleet, programs, c, eps):
    """``lp_deployment_oracle`` as it walked fill orders on numpy scalars, before its Python-float walk."""
    total = float(fixed_dot(eps, c))
    revenue = float(fixed_dot(prices_of(programs), c))
    best = math.inf
    for order in itertools.permutations(range(fleet.n_types)):
        remaining = total
        mining_loss = 0.0
        for k in order:
            d = min(remaining, fleet.capacities[k])
            mining_loss += fleet.rewards[k] * d
            remaining -= d
        best = min(best, mining_loss - revenue)
    return best


@pytest.mark.parametrize("seed", range(5))
def test_lp_oracle_is_the_numpy_scalar_walk_as_a_float(seed):
    # the greedy check's 200 instances, as it builds them
    for group in verify._drawn_by_shape(np.random.default_rng(seed), 200):
        for caps, rewards, prices, raw, c in zip(*(field.tolist() for field in group)):
            fleet = fleet_from_rewards(caps, rewards)
            programs = [ProgramSpec(id=f"p{i}", price=price) for i, price in enumerate(prices)]
            got = lp_deployment_oracle(fleet, programs, c, raw)
            ref = numpy_scalar_lp_oracle(fleet, programs, np.array(c), np.array(raw))
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()


@pytest.mark.parametrize(
    "shapes", [((3,), (3,)), ((7, 1, 2), (5, 2)), ((4, 3), (3,)), ((6, 1), (6, 1)), ((2, 5, 3), (2, 1, 3))]
)
def test_fixed_dot_matches_the_pairwise_sum_and_leaves_its_inputs(shapes):
    # the in-place sum adds the same products in the same order as a fresh np.add per term
    rng = np.random.default_rng(14)
    a, b = (rng.normal(size=shape) for shape in shapes)
    a_bytes, b_bytes = a.tobytes(), b.tobytes()
    ref = functools.reduce(np.add, map(np.multiply, np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)))
    got = fixed_dot(a, b)
    assert np.shape(got) == np.shape(ref) and np.asarray(got).tobytes() == np.asarray(ref).tobytes()
    assert a.tobytes() == a_bytes and b.tobytes() == b_bytes
    assert np.asarray(fixed_dot(a, b.tolist())).tobytes() == np.asarray(ref).tobytes()  # a list, as a vertex check passes


def test_verify_verdicts_are_python_bools():
    # checks.csv writes PASS or FAIL from these; callers get a bool, not a numpy.bool
    results = verify.run_verify(fast=True)
    assert [type(r.passed) for r in results] == [bool] * len(results)
    assert type(CheckResult("x", np.bool_(True), "").passed) is bool


@pytest.mark.parametrize("seed", [10, 108])
def test_regret_slots_match_bounded_rounds(seed):
    # criterion 7's bounded runs draw through regret_slots: the per-slot FleetSpec
    # build it replaced must give the same batch and leave the same stream behind
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    tables = ("rewards", "capacities", "cum_capacities", "prefix_costs", "quoted_prices", "raw_eps",
              "down", "missing", "eps", "prices")
    for horizon in (500, 1, 37, 500):
        ref = slot_batch_of(*_bounded_rounds(ref_rng, horizon), 250.0)
        got = verify.regret_slots(rng, horizon)
        for name in tables:
            x, y = getattr(ref, name), getattr(got, name)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name
        assert got.cap == ref.cap
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_grid_distance_matches_row_norms():
    # check_projection's distance to its grid, column by column, against the row norms it replaced
    cap = 250.0
    axis = np.linspace(0.0, cap, 201)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    grid = grid[grid.sum(axis=1) <= cap + 1e-9]
    columns = np.ascontiguousarray(grid.T)
    rng = np.random.default_rng(13)
    t = rng.uniform(0.0, cap, 200)
    inside = rng.uniform(0.0, cap, (600, 2))
    points = [
        rng.uniform(-150.0, 450.0, (1000, 2)),  # the check's own draws, mostly outside
        inside[inside.sum(axis=1) <= cap],
        np.column_stack([t, np.zeros_like(t)]),  # the three faces
        np.column_stack([np.zeros_like(t), t]),
        np.column_stack([t, cap - t]),
        [[0.0, 0.0], [cap, 0.0], [0.0, cap]],  # the corners
        grid[rng.choice(len(grid), 100)],  # grid points themselves, at distance 0
    ]
    points = np.concatenate(points)
    assert len(points) >= 2000
    for x in points:
        ref = np.linalg.norm(grid - x, axis=1).min()
        assert np.float64(verify._grid_distance(columns, x)).tobytes() == ref.tobytes(), x


@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "fresh"])
def test_prefix_take_matches_prefix_rebuild(stationary):
    # criterion 7's stationary runs take each prefix of the run's batch: it must equal the
    # batch rebuilt from the prefix's rounds, table for table, and solve to the same bits
    rng = np.random.default_rng(108)
    horizon = 500
    if stationary:
        fleets, programs_seq, samples = (rounds * horizon for rounds in _bounded_rounds(rng, 1))
    else:
        fleets, programs_seq, samples = _bounded_rounds(rng, horizon)
    batch = slot_batch_of(fleets, programs_seq, samples, 250.0)
    tables = ("rewards", "capacities", "cum_capacities", "prefix_costs", "quoted_prices", "raw_eps",
              "down", "missing", "eps", "prices")
    for t in (1, horizon // 4, int(horizon * 0.9), horizon):
        ref = slot_batch_of(fleets[:t], programs_seq[:t], samples[:t], 250.0)
        got = batch.take(slice(0, t))
        for name in tables:
            x, y = getattr(ref, name), getattr(got, name)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), (t, name)
        assert (got.T, got.n, got.cap) == (ref.T, ref.n, ref.cap)
        (ref_opt, _, ref_gap), (opt, _, gap) = hindsight_optimum(ref), hindsight_optimum(got)
        assert opt.tobytes() == ref_opt.tobytes() and np.float64(gap).tobytes() == np.float64(ref_gap).tobytes()
        assert got.totals(opt[None, :])[0].tobytes() == ref.totals(ref_opt[None, :])[0].tobytes()
