"""verify's block-drawn random instances against the scalar draws they replace.

The three piecewise-cost checks (greedy deployment, max of affines, midpoint
convexity) draw each instance from one ``rng.random`` block and scale a shape
group of instances at once; two of them cost whole groups through
``slot_cost`` on a ``FleetStack``. The scalar references
here draw with one ``rng.uniform`` call per quantity (``conftest.random_instance``
is the scalar instance draw) and cost one slot at a time, as the checks used
to. A check's detail alone cannot pin the stream: the max-of-affines detail
reads 0.000e+00 whatever the instances are, so the drawn arrays and the
generator state are compared too.
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


def scalar_segment(rng):
    """The midpoint check's scalar draw: an instance, then the ends a and b of a segment."""
    fleet, programs, c, raw = random_instance(rng)
    n = len(programs)
    cap = fleet.total_capacity_mw
    a = rng.uniform(0.0, 1.0, n)
    b = rng.uniform(0.0, 1.0, n)
    a *= rng.uniform(0.0, 1.0) * cap / max(a.sum(), 1e-12)
    b *= rng.uniform(0.0, 1.0) * cap / max(b.sum(), 1e-12)
    return fleet, programs, c, raw, a, b


def scalar_greedy(seed, instances):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        fleet, programs, c, raw = random_instance(rng)
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
    for _ in range(points):
        fleet, programs, c, raw = random_instance(rng)
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
    for _ in range(segments):
        fleet, programs, _, raw, a, b = scalar_segment(rng)
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


def one_instance(rng, segment):
    """One instance drawn alone: row 0 of each field of a one-instance draw."""
    (group,) = verify._drawn_by_shape(rng, 1, segment=segment)
    return [field[0] for field in group]


def as_tuple(result):
    return result.name, bool(result.passed), result.detail


@pytest.mark.parametrize("segment", [False, True], ids=["instance", "segment"])
@pytest.mark.parametrize("seed", range(6))
def test_drawn_arrays_and_stream_match_scalar_draws(seed, segment):
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    shapes = set()
    for i in range(400):
        if segment:
            fleet, programs, *ref_vectors = scalar_segment(ref_rng)
        else:
            fleet, programs, *ref_vectors = random_instance(ref_rng)
        caps, rewards, prices, raw, c, *ends = one_instance(rng, segment)
        ref = [fleet.capacities, fleet.rewards, prices_of(programs), ref_vectors[1], ref_vectors[0], *ref_vectors[2:]]
        got = [caps, rewards, prices, raw, c, *ends]
        assert len(got) == len(ref), f"instance {i}"
        for name, x, y in zip(("caps", "rewards", "prices", "raw", "c", "a", "b"), ref, got):
            assert np.asarray(y, dtype=float).tobytes() == np.asarray(x).tobytes(), f"instance {i}: {name}"
        assert math.fsum(caps) == fleet.total_capacity_mw
        assert rng.bit_generator.state == ref_rng.bit_generator.state, f"instance {i}"
        shapes.add((len(caps), len(prices)))
    assert shapes == {(k, n) for k in range(1, 5) for n in range(1, 4)}


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
    # more than one pass, the last one short: still one group per shape over the whole draw
    count = 2 * verify.DRAW_PASS + 37
    ref_rng, rng = np.random.default_rng(12), np.random.default_rng(12)
    drawn = [one_instance(ref_rng, True) for _ in range(count)]
    groups = list(verify._drawn_by_shape(rng, count, segment=True))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    shapes = list(dict.fromkeys((len(inst[0]), len(inst[2])) for inst in drawn))
    assert [(g[0].shape[1], g[2].shape[1]) for g in groups] == shapes
    for shape, group in zip(shapes, groups):
        members = [inst for inst in drawn if (len(inst[0]), len(inst[2])) == shape]
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
        (ref_opt, ref_gap), (opt, gap) = hindsight_optimum(ref), hindsight_optimum(got)
        assert opt.c.tobytes() == ref_opt.c.tobytes() and np.float64(gap).tobytes() == np.float64(ref_gap).tobytes()
        assert got.totals(opt.c[None, :])[0].tobytes() == ref.totals(ref_opt.c[None, :])[0].tobytes()
