import dataclasses
import inspect
import math
from collections import namedtuple
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from minerflex import (
    BernoulliEps,
    ConstantEps,
    InvalidInputError,
    ProgramSpec,
    Sampler,
    SgdConfig,
    TruncatedExponential,
    UniformEps,
    compare_strategies,
    fit_lambda,
    fleet_from_rewards,
    load_fleet_config,
    program_sampler,
    project_feasible,
    sample_joint,
    sample_subgradient,
    solve,
    step_size,
    suboptimality_bound,
    synthesize_traces,
)
from minerflex import cli, sgd
from minerflex.config import load_config
from minerflex.deployment import project_simplex
from minerflex.fleet import MachineType, canonicalize
from minerflex.programs import prices_of
from minerflex.regulation import joint_pair
from minerflex.sgd import default_diameter, default_grad_bound
from minerflex.traces import PriceBlock, load_synthesis_spec

from conftest import random_instance
from test_traces import synth_spec

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def rates(size, n):
    """The (*size, n) shape a sampler returns for an int or (m, B) ``size``."""
    return (*np.atleast_1d(size).tolist(), n)


def feasible_grid(cap, n, step):
    axes = [np.append(np.arange(0.0, cap, step), cap)] * n
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    return mesh[mesh.sum(axis=1) <= cap + 1e-9]


def assert_projection_optimal(x, cap, step=2.5):
    """The projection must be feasible and at least as close as any grid point."""
    p = project_feasible(x, cap)
    assert np.all(p >= 0.0) and p.sum() <= cap + 1e-9
    dist = np.linalg.norm(p - x)
    grid = feasible_grid(cap, x.size, step)
    grid_dists = np.linalg.norm(grid - x, axis=1)
    assert dist <= grid_dists.min() + 1e-9


def test_projection_interior_identity():
    x = np.array([10.0, 20.0])
    np.testing.assert_allclose(project_feasible(x, 250.0), x)


def test_projection_single_axis_overflow():
    np.testing.assert_allclose(project_feasible(np.array([300.0, 0.0]), 250.0), [250.0, 0.0])
    assert_projection_optimal(np.array([300.0, 0.0]), 250.0)


def test_projection_symmetric_shift():
    np.testing.assert_allclose(project_feasible(np.array([200.0, 200.0]), 250.0), [125.0, 125.0])
    assert_projection_optimal(np.array([200.0, 200.0]), 250.0)


def test_projection_clips_negatives():
    np.testing.assert_allclose(project_feasible(np.array([-5.0, 30.0]), 100.0), [0.0, 30.0])


def test_projection_onto_cap_zero_is_the_origin():
    # no sorted entry stays positive at cap 0, so rho falls back to 0 and tau is the largest entry
    for x in ([1.0, 2.0], [3.0, -1.0, 2.0, 0.5, 4.0, 1.0, 2.0, 0.0, 1.5]):  # the Python-float and numpy paths
        assert project_feasible(np.array(x), 0.0).tolist() == [0.0] * len(x)
    rows = project_simplex(np.array([[1.0, 2.0], [3.0, 0.5]]), np.array([[0.0], [1.0]]))
    assert rows.tolist() == [[0.0, 0.0], [1.0, 0.0]]


def test_projection_grid_oracle_random(rng):
    for _ in range(10):
        x = rng.uniform(-100.0, 400.0, 2)
        assert_projection_optimal(x, 250.0)


def test_projection_idempotent_nonexpansive(rng):
    for _ in range(200):
        n = int(rng.integers(1, 5))
        cap = float(rng.uniform(10.0, 300.0))
        x = rng.uniform(-2.0 * cap, 2.0 * cap, n)
        y = rng.uniform(-2.0 * cap, 2.0 * cap, n)
        px = project_feasible(x, cap)
        py = project_feasible(y, cap)
        np.testing.assert_allclose(project_feasible(px, cap), px, atol=1e-12)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_step_size_values():
    d = math.sqrt(2.0) * 250.0
    g = math.sqrt(2.0) * 200.0
    assert step_size(1, d, g) == pytest.approx(1.25)
    assert step_size(4, d, g) == pytest.approx(0.625)
    assert step_size(10**8, d, g) == pytest.approx(1.25e-4)


def test_step_size_validation():
    with pytest.raises(InvalidInputError):
        step_size(0, 1.0, 1.0)
    with pytest.raises(InvalidInputError):
        step_size(1, -1.0, 1.0)


def test_suboptimality_bound_values():
    assert suboptimality_bound(10000, 2, 150.0, 200.0, 250.0) == pytest.approx(1500.0)
    # quadrupling the iteration count halves the bound
    b1 = suboptimality_bound(1000, 2, 150.0, 200.0, 250.0)
    b4 = suboptimality_bound(4000, 2, 150.0, 200.0, 250.0)
    assert b4 == pytest.approx(0.5 * b1)
    assert suboptimality_bound(10**18, 2, 150.0, 200.0, 250.0) < 1e-3


def test_subgradient_zero_deployment(two_type_fleet):
    programs = [ProgramSpec(id="a", price=20.0), ProgramSpec(id="b", price=7.0)]
    g = sample_subgradient(two_type_fleet, programs, np.array([10.0, 10.0]), np.zeros((4, 2)))
    np.testing.assert_allclose(g, [-20.0, -7.0])


def test_subgradient_single_sample():
    fleet = fleet_from_rewards([100.0], [150.0])
    programs = [ProgramSpec(id="a", price=20.0)]
    g = sample_subgradient(fleet, programs, np.array([10.0]), np.array([[0.5]]))
    np.testing.assert_allclose(g, [55.0])


def test_subgradient_rejects_empty(two_type_fleet):
    programs = [ProgramSpec(id="a", price=20.0)]
    with pytest.raises(InvalidInputError):
        sample_subgradient(two_type_fleet, programs, np.array([10.0]), [])


def test_subgradient_rejects_non_finite_inputs(two_type_fleet):
    programs = [ProgramSpec(id="a", price=20.0), ProgramSpec(id="b", price=7.0)]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="^samples must be finite"):
            sample_subgradient(two_type_fleet, programs, np.array([10.0, 10.0]), np.array([[0.5, 0.5], [0.2, bad]]))
        with pytest.raises(InvalidInputError, match="^profile must be finite"):
            sample_subgradient(two_type_fleet, programs, np.array([bad, 10.0]), np.array([[0.5, 0.5]]))


def test_subgradient_matches_finite_differences(rng):
    checked = 0
    while checked < 25:
        fleet, programs, c, _ = random_instance(rng)
        n = len(programs)
        eps = rng.uniform(0.0, 1.0, (12, n))
        h = 1e-6 * fleet.total_capacity_mw
        # Skip points within a few finite-difference steps of a kink.
        totals = eps @ c
        margins = np.abs(totals[:, None] - fleet.cum_capacities[None, :])
        if margins.min() < 10.0 * h or c.min() < 10.0 * h:
            continue
        if c.sum() > fleet.total_capacity_mw - 10.0 * h:
            continue

        def f(x):
            from minerflex import realized_cost

            return np.mean([realized_cost(fleet, programs, x, e) for e in eps])

        g = sample_subgradient(fleet, programs, c, eps)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (f(c + e) - f(c - e)) / (2.0 * h)
            assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-6 * max(1.0, abs(fd)))
        checked += 1


def test_solve_pushes_to_capacity_when_never_deployed():
    fleet = fleet_from_rewards([250.0], [150.0])
    programs = [ProgramSpec(id="a", price=20.0)]
    cfg = SgdConfig(iterations=4000, batch=2, seed=1)
    result = solve(fleet, programs, lambda rng, size: np.zeros(rates(size, 1)), cfg, record_trajectory=True)
    assert result.trajectory[-1][0] == pytest.approx(250.0)
    assert result.profile[0] > 240.0


def test_solve_stays_at_zero_when_unprofitable():
    fleet = fleet_from_rewards([250.0], [150.0])
    programs = [ProgramSpec(id="a", price=20.0)]
    cfg = SgdConfig(iterations=500, batch=2, seed=1)
    result = solve(fleet, programs, lambda rng, size: np.ones(rates(size, 1)), cfg)
    assert result.profile[0] == 0.0


def test_zero_rewards_and_prices_leave_the_profile_at_zero():
    """Every subgradient is then zero, as is the gradient bound G the steps divide by: no step moves, and the bound is 0."""
    fleet = fleet_from_rewards([100.0, 150.0], [0.0, 0.0])
    programs = [ProgramSpec("a", 0.0), ProgramSpec("b", 0.0, "down")]
    for n in (1, 2):
        sampler = lambda r, size, n=n: r.uniform(0, 1, rates(size, n))  # noqa: E731
        result = solve(fleet, programs[:n], sampler, SgdConfig(iterations=70, batch=3), record_trajectory=True)
        assert result.bound == 0.0
        assert all(c.tobytes() == np.zeros(n).tobytes() for c in [result.profile, *result.trajectory])


def test_solve_iterates_feasible(two_type_fleet, rng):
    programs = [ProgramSpec(id="a", price=30.0), ProgramSpec(id="b", price=10.0, direction="down")]
    cfg = SgdConfig(iterations=300, batch=3, seed=7)
    result = solve(two_type_fleet, programs, lambda r, size: r.uniform(0, 1, rates(size, 2)), cfg, record_trajectory=True)
    cap = two_type_fleet.total_capacity_mw
    for c in result.trajectory:
        assert np.all(c >= 0.0)
        assert c.sum() <= cap + 1e-9
    assert result.profile.sum() <= cap + 1e-9


def test_solve_deterministic(two_type_fleet):
    programs = [ProgramSpec(id="a", price=30.0), ProgramSpec(id="b", price=10.0)]
    cfg = SgdConfig(iterations=200, batch=4, seed=99)
    sampler = lambda r, size: r.uniform(0, 1, rates(size, 2))
    r1 = solve(two_type_fleet, programs, sampler, cfg, record_trajectory=True)
    r2 = solve(two_type_fleet, programs, sampler, cfg, record_trajectory=True)
    assert all(np.array_equal(a, b) for a, b in zip(r1.trajectory, r2.trajectory))
    assert np.array_equal(r1.profile, r2.profile)
    assert r1.bound == r2.bound


def test_averaged_iterate_gap_within_bound(two_type_fleet):
    # deterministic eps makes the expected cost an evaluable piecewise-linear
    # function; the averaged iterate must honor the reported guarantee
    programs = [ProgramSpec(id="a", price=30.0), ProgramSpec(id="b", price=12.0)]
    eps = np.array([0.35, 0.8])
    sampler = lambda r, size: np.full(rates(size, 2), eps)

    def cost(c):
        from minerflex import realized_cost

        return realized_cost(two_type_fleet, programs, c, eps)

    axis = np.linspace(0.0, 250.0, 801)
    a, b = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    grid = np.column_stack([a, b])[a + b <= 250.0 + 1e-9]
    # the realized cost over the whole grid as a max of affines: max_k(prefix_k + r_k * eps.c) - p.c
    fleet, prices = two_type_fleet, np.array([p.price for p in programs])
    affines = fleet.prefix_costs[:, None] + fleet.rewards[:, None] * (grid @ eps)
    best = float((affines.max(axis=0) - grid @ prices).min())
    for iters in (100, 2000):
        result = solve(two_type_fleet, programs, sampler, SgdConfig(iterations=iters, batch=1, seed=3))
        assert cost(result.profile) - best <= result.bound


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SgdConfig(iterations=0)
    with pytest.raises(InvalidInputError):
        SgdConfig(iterations=1, batch=0)


# ── solve against the serial loop ──────────────────────────────────────────


def reference_projection(x, cap):
    """The 1-D sort-and-threshold projection, one vector at a time."""
    clipped = np.maximum(x, 0.0)
    if clipped.sum() <= cap:
        return clipped
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - cap
    j = np.arange(1, x.size + 1)
    positive = np.nonzero(u - css / j > 0.0)[0]
    rho = positive[-1] if positive.size else 0  # none at cap 0: tau = u_0, the largest entry
    tau = css[rho] / (rho + 1.0)
    return np.maximum(x - tau, 0.0)


def reference_solve(fleet, prices, down, sampler, cfg, trajectory=None):
    """Serial projected SGD, one learner, as a plain loop (the iterate average).

    Appends c = 0 and then every iterate to ``trajectory`` when given.
    """
    n = prices.size
    cap = fleet.total_capacity_mw
    num = default_diameter(n, cap) / default_grad_bound(n, float(fleet.rewards[-1]), float(prices.max()))
    rng = np.random.default_rng(cfg.seed)
    c = np.zeros(n)
    acc = np.zeros(n)
    if trajectory is not None:
        trajectory.append(c)
    for j in range(1, cfg.iterations + 1):
        acc += c
        eps = np.asarray(sampler(rng, cfg.batch), dtype=float)
        if down.any():
            eps = np.where(down, 1.0 - eps, eps)
        d = np.minimum(np.maximum(eps @ c, 0.0), fleet.cum_capacities[-1])
        k = np.searchsorted(fleet.cum_capacities, d, side="left")
        grad = (fleet.rewards[k, None] * eps).mean(axis=0) - prices
        c = reference_projection(c - (num / math.sqrt(j)) * grad, cap)
        if trajectory is not None:
            trajectory.append(c)
    return acc / cfg.iterations


def assert_same_iterates(trajectory, reference):
    assert len(trajectory) == len(reference)
    for j, (c, ref) in enumerate(zip(trajectory, reference)):
        assert isinstance(c, np.ndarray) and c.tobytes() == ref.tobytes(), f"iterate {j}"


def resampling_sampler(rows):
    """compare_strategies' pooled sampler: ``rows`` drawn with replacement."""
    def sampler(rng, size):
        return rows[rng.integers(0, len(rows), size)]

    return sampler


class IndexRows:
    """A resample table of ``size`` rows whose row i is [i], built only as rows are drawn."""

    def __init__(self, size):
        self.size = size

    def __len__(self):
        return self.size

    def __getitem__(self, index):
        return np.asarray(index, dtype=float)[..., None]


def clamped_mean_fleet(traces, machines):
    """Each machine's net reward floored at 0 and averaged over the slots."""
    rewards = [
        float(np.mean(np.maximum(traces.coin_price / m.energy_intensity - traces.rt_price, 0.0)))
        for m in machines
    ]
    return canonicalize(
        [MachineType(m.id, m.capacity_mw, m.energy_intensity, reward=q) for m, q in zip(machines, rewards)]
    )


# one resampling learner's inputs: its fleet, prices, raw deployment rows and seed
Learner = namedtuple("Learner", "fleet prices rows seed")


def hot_afternoon_week(seed):
    """A 72 h trace whose afternoons price mining out, its three machines and its programs (unpriced).

    Real-time prices near 170 $/MWh floor the two older machine types at
    zero reward, so mean-reward fleets merge them into one type.
    """
    hourly = [40.0] * 10 + [170.0] * 7 + [40.0] * 7
    spec = dataclasses.replace(
        synth_spec(hours=72), rt_price=PriceBlock(tuple(hourly), 4.0, 1.0, 200.0)
    )
    machines = [
        MachineType("new", 100.0, energy_intensity=110.0),
        MachineType("old", 150.0, energy_intensity=130.0),
        MachineType("older", 60.0, energy_intensity=150.0),
    ]
    # the traces carry no direction; the programs take the usual ones of presp, regup and regdn
    programs = [ProgramSpec(p.id, 0.0, "down" if p.id == "regdn" else "up") for p in spec.programs]
    return synthesize_traces(spec, seed=seed), machines, programs


def hot_afternoon_learners(seed):
    """Pooled and per-hour resampling learners on :func:`hot_afternoon_week`."""
    traces, machines, programs = hot_afternoon_week(seed)
    order = traces.columns(programs)
    hours = np.array([ts.hour for ts in traces.timestamps])
    groups = [(np.arange(len(traces)), seed)] + [(np.flatnonzero(hours == h), seed + 1 + h) for h in range(24)]
    learners = []
    for slots, learner_seed in groups:
        sub = traces.take(slots)
        # C order, like the SlotBatch columns compare_strategies hands its learner
        rows = np.ascontiguousarray(sub.deployment[:, order])
        prices = np.ascontiguousarray(sub.as_prices[:, order]).mean(axis=0)
        learners.append(Learner(clamped_mean_fleet(sub, machines), prices, rows, learner_seed))
    return learners, [p.direction for p in programs]


def test_solve_on_the_resampler_matches_serial_reference_per_learner():
    learners, directions = hot_afternoon_learners(seed=31)
    # merged-reward afternoon hours sit beside 3-type hours
    assert {lr.fleet.n_types for lr in learners} == {2, 3}
    assert "down" in directions
    # hand-made learners: one machine type, a single resample row, 13 rows
    rows = learners[0].rows
    learners.append(Learner(fleet_from_rewards([310.0], [40.0]), np.array([30.0, 20.0, 9.0]), rows[:1], 5))
    learners.append(Learner(fleet_from_rewards([60.0, 250.0], [0.0, 90.0]), np.array([3.0, 40.0, 12.0]), rows[:13], 6))
    # a zero-capacity type at the top, whose reward still sets the step
    learners.append(Learner(fleet_from_rewards([60.0, 250.0, 0.0], [0.0, 90.0, 140.0]), learners[0].prices, rows, 8))
    down = np.array(directions) == "down"
    for iterations, batch in ((150, 7), (64, 8)):  # across and exactly at a draw chunk
        for lr in learners:
            cfg = SgdConfig(iterations=iterations, batch=batch, seed=lr.seed)
            reference = []
            ref = reference_solve(lr.fleet, lr.prices, down, resampling_sampler(lr.rows), cfg, reference)
            # compare_strategies' pooled programs: the mean prices, with each program's direction
            programs = [ProgramSpec(f"p{i}", float(q), d) for i, (q, d) in enumerate(zip(lr.prices, directions))]
            result = solve(lr.fleet, programs, resampling_sampler(lr.rows), cfg, record_trajectory=True)
            assert result.profile.tobytes() == ref.tobytes()
            assert_same_iterates(result.trajectory, reference)


def per_call_draws(model, rng, size):
    """One model's draws as ``sample`` made them, one generator call per program."""
    if isinstance(model, TruncatedExponential):
        return -np.log1p(rng.random(size) * math.expm1(-model.lam)) / model.lam
    if isinstance(model, BernoulliEps):
        return (rng.random(size) < model.prob).astype(float)
    if isinstance(model, UniformEps):
        return rng.uniform(model.lo, model.hi, size)
    return np.full(size, model.value)  # a constant draws nothing


def per_call_joint(model, rng, size):
    """The reg pair's draws: the direction, then both rates whichever deploys."""
    down_deployed = rng.random(size) < model.theta
    out = np.zeros((size, 2))
    ups, downs = per_call_draws(model.up, rng, size), per_call_draws(model.down, rng, size)
    out[~down_deployed, 0] = ups[~down_deployed]
    out[down_deployed, 1] = downs[down_deployed]
    return out


def sampler_cases():
    """(programs, Sampler, per-call reference) for every model kind, the reg pair and a CLI composite."""
    up, dn = TruncatedExponential(fit_lambda(0.18)), TruncatedExponential(fit_lambda(0.27))
    models = [up, BernoulliEps(0.3), ConstantEps(0.4), UniformEps(0.1, 0.8), UniformEps()]
    cases = []
    for model in models:
        programs = [ProgramSpec("p", 20.0, eps_model=model)]
        column = lambda rng, size, model=model: per_call_draws(model, rng, size)[:, None]  # noqa: E731
        cases.append((programs, program_sampler(programs), column))
    pair = [ProgramSpec("u", 26.0, eps_model=up), ProgramSpec("d", 19.0, "down", dn)]
    model = joint_pair(pair, 0.4, "u", "d")[2]
    cases.append((pair, Sampler(model.width, model.from_uniform), partial(sample_joint, model)))
    # the constant comes first, so the programs after it must skip its zero width
    programs = [
        ProgramSpec("flat", 4.0, eps_model=models[2]),
        ProgramSpec("presp", 12.0, eps_model=models[1]),
        ProgramSpec("regdn", 19.0, "down", dn),
        ProgramSpec("regup", 26.0, eps_model=up),
        ProgramSpec("uni", 9.0, "down", models[3]),
    ]
    composite = joint_pair(programs, 0.4, "regup", "regdn")

    def composite_reference(rng, size):
        out = np.zeros((size, len(programs)))
        out[:, [3, 2]] = per_call_joint(composite[2], rng, size)
        for i in (0, 1, 4):
            out[:, i] = per_call_draws(programs[i].eps_model, rng, size)
        return out

    cases.append((programs, program_sampler(programs, composite), composite_reference))
    return cases


def test_block_draws_match_per_call_draws():
    """A sampler's (m, B) call is the stream of m calls of size B, value for value.

    The resampler runs at :func:`test_chunked_integer_draws_match_per_call_draws`'
    table sizes, up to 2**31 + 1 rows, over rows that hold their own index.
    """
    samplers = [(sampler, reference) for _, sampler, reference in sampler_cases()]
    for size in (1, 5, 7, 13, 168, 8760, 2**31 + 1):
        samplers.append((resampling_sampler(IndexRows(size)), lambda rng, b, size=size: rng.integers(0, size, (b, 1))))
    for sampler, reference in samplers:
        for batch in (1, 7, 8, 10):
            one, calls, block = (np.random.default_rng(batch) for _ in range(3))
            expected = np.array([reference(one, batch) for _ in range(150)], dtype=float)
            per_call = np.array([sampler(calls, batch) for _ in range(150)])
            blocks = np.concatenate([sampler(block, (m, batch)) for m in (64, 64, 22)])
            assert expected.tobytes() == per_call.tobytes() == blocks.tobytes()
            assert one.bit_generator.state == calls.bit_generator.state == block.bit_generator.state


def test_solve_matches_serial_reference(two_type_fleet):
    two = [ProgramSpec(id="a", price=30.0), ProgramSpec(id="b", price=10.0, direction="down")]
    uniform = lambda r, size: r.uniform(0, 1, rates(size, 2))  # noqa: E731  a plain callable
    # nine programs take the numpy projection path
    nine = [ProgramSpec(id=f"p{i}", price=4.0 + 3.0 * i, direction=("up", "down")[i % 2]) for i in range(9)]
    uniform9 = lambda r, size: r.uniform(0, 1, rates(size, 9))  # noqa: E731
    cases = [(two, uniform, uniform), (nine, uniform9, uniform9), *sampler_cases()]
    # the desk fleet, and one topped by a zero-capacity type whose reward still sets the step
    fleets = [two_type_fleet, fleet_from_rewards([150.0, 100.0, 0.0], [94.0, 150.0, 170.0])]
    for programs, sampler, reference in cases:
        prices = prices_of(programs)
        down = np.array([p.direction == "down" for p in programs])
        for fleet in fleets:
            for iterations in (1, 63, 64, 65, 300):  # around and across draw blocks
                for batch, seed in ((3, 7), (10, 1)):
                    cfg = SgdConfig(iterations=iterations, batch=batch, seed=seed)
                    result = solve(fleet, programs, sampler, cfg, record_trajectory=iterations == 300)
                    trajectory = [] if result.trajectory is not None else None
                    expected = reference_solve(fleet, prices, down, reference, cfg, trajectory)
                    assert result.profile.tobytes() == expected.tobytes()
                    if trajectory is not None:
                        assert_same_iterates(result.trajectory, trajectory)


def test_solve_signature_keeps_config_fourth():
    """The benchmark's traced iteration counter reads ``config`` as positional argument 3."""
    params = list(inspect.signature(solve).parameters.values())
    assert params[3].name == "config"
    assert params[3].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params[:4])


def test_solve_rejects_non_finite_samples(two_type_fleet):
    programs = [ProgramSpec(id="a", price=30.0), ProgramSpec(id="b", price=10.0, direction="down")]
    cfg = SgdConfig(iterations=100, batch=3, seed=0)
    for bad in (np.nan, np.inf, -np.inf):
        calls = []

        def plain(rng, size, bad=bad):
            # a bad rate in the second draw block's call
            calls.append(size)
            out = rng.uniform(0.0, 1.0, rates(size, 2))
            if len(calls) == 2:
                out[-1, -1, 1] = bad
            return out

        with pytest.raises(InvalidInputError, match="non-finite"):
            solve(two_type_fleet, programs, plain, cfg)
        assert calls == [(64, 3), (36, 3)]

        def from_uniform(u, bad=bad):
            out = np.stack([u[..., 0, :], u[..., 0, :]], axis=-1)
            out[..., -1, :, 0] = bad  # the last iteration of every draw block
            return out

        with pytest.raises(InvalidInputError, match="non-finite"):
            solve(two_type_fleet, programs, Sampler(1, from_uniform), cfg)


def test_solve_rejects_misshapen_samples():
    fleet, cfg = fleet_from_rewards([100.0], [50.0]), SgdConfig(iterations=10, batch=2)
    two = [ProgramSpec("a", 10.0), ProgramSpec("b", 5.0)]
    for programs, rows in (([two[0]], np.array([0.5, 0.5])), (two, np.array([[0.5]]))):  # 1-D rows; too few columns
        with pytest.raises(InvalidInputError, match=r"^sampler returned shape \("):
            solve(fleet, programs, resampling_sampler(rows), cfg)


def test_program_spec_rejects_a_bad_price():
    for bad, message in ((-1.0, "price must be >= 0, got -1.0"), (np.nan, "price must be finite, got nan"),
                         (np.inf, "price must be finite, got inf")):
        with pytest.raises(InvalidInputError, match=f"^program 'a': {message}$"):
            ProgramSpec("a", bad)
    with pytest.raises(InvalidInputError, match="direction must be one of"):
        ProgramSpec("a", 1.0, "sideways")


def test_rowwise_projection_matches_per_row_calls(rng):
    for _ in range(300):
        n = int(rng.integers(1, 6))
        cap = float(rng.uniform(1.0, 300.0))
        rows = int(rng.integers(1, 8))
        # scales mix rows inside the capped simplex with rows far outside it
        x = rng.uniform(-cap, 2.0 * cap, (rows, n)) * rng.choice([1e-3, 0.2, 1.0, 1e3], (rows, 1))
        out = project_simplex(x, cap)
        for i in range(rows):
            assert np.array_equal(out[i], project_simplex(x[i], cap))
            assert np.array_equal(out[i], reference_projection(x[i], cap))
        caps = rng.uniform(1.0, 300.0, (rows, 1))
        out = project_simplex(x, caps)
        for i in range(rows):
            assert np.array_equal(out[i], reference_projection(x[i], caps[i, 0]))


def test_chunked_integer_draws_match_per_call_draws():
    """compare_strategies' resampler draws (m, B) index blocks; they must be the per-call stream.

    2**31 + 1 rejects about half of its 32-bit candidates, and odd batches
    leave a spare half-word between calls: both must carry over identically.
    """
    for size in (1, 5, 7, 13, 168, 8760, 2**31 + 1):
        for batch in (1, 7, 8):
            one, block = np.random.default_rng(size + batch), np.random.default_rng(size + batch)
            per_call = np.array([one.integers(0, size, batch) for _ in range(150)])
            chunked = np.concatenate([block.integers(0, size, (m, batch)) for m in (64, 64, 22)])
            assert np.array_equal(per_call, chunked)
            assert one.bit_generator.state == block.bit_generator.state


def test_pooled_fixed_profile_keeps_its_bytes():
    """Criterion 8's pooled learner, trained through ``solve`` on the resampler."""
    traces = synthesize_traces(load_synthesis_spec(CONFIGS / "synthesis_week.json"), seed=17)
    programs = [ProgramSpec(id="presp", price=12.0), ProgramSpec(id="regup", price=26.0)]
    rep = compare_strategies(traces, load_fleet_config(CONFIGS / "fleet.json"), programs, sgd_iterations=2000, seed=7)
    assert rep.fixed_profile.tobytes().hex() == "26eb978160a6b73fde38523baae86e40"


# ── long horizons and work per iteration ───────────────────────────────────


def shipped_parametric_instance():
    """The fleet, programs and sampler of parametric ``solve-offline`` on the shipped configs."""
    programs, joint, economics = load_config(CONFIGS / "programs.json", cli._parse_programs)
    fleet = cli._parametric_fleet(load_fleet_config(CONFIGS / "fleet.json"), economics)
    return fleet, programs, program_sampler(programs, joint)


def verify_sgd_instance():
    """``verify.check_sgd_convergence``'s fleet and programs."""
    fleet = fleet_from_rewards([150.0, 100.0], [103.846153846, 131.818181818])
    programs = [ProgramSpec(pid, p, eps_model=TruncatedExponential(fit_lambda(mean)))
                for pid, p, mean in (("a", 24.0, 0.18), ("b", 30.0, 0.27))]
    return fleet, programs


def step_numerator(fleet, programs):
    """``solve``'s D/G: each step is this over sqrt(j)."""
    n, prices = len(programs), prices_of(programs)
    return default_diameter(n, fleet.total_capacity_mw) / default_grad_bound(
        n, float(fleet.rewards[-1]), float(prices.max())
    )


def test_block_step_schedule_matches_the_scalar_one_for_a_million_iterations():
    """``solve`` takes a draw block's steps as ``num / np.sqrt(np.arange(j0, j1, dtype=float))``.

    Each element is one correctly rounded sqrt and division, as ``num / math.sqrt(j)`` is,
    so the blocks' split cannot matter: one array over j <= 10**6 covers every block.
    """
    nums = [step_numerator(*shipped_parametric_instance()[:2]), step_numerator(*verify_sgd_instance())]
    nums += (np.random.default_rng(38).random(4) * 10.0 ** np.arange(-3, 5)[::2]).tolist()
    j = np.arange(1, 10**6 + 1, dtype=float)
    for num in nums:
        block = (num / np.sqrt(j)).tolist()
        assert block == [num / math.sqrt(i) for i in range(1, 10**6 + 1)], num


def test_shipped_parametric_solve_matches_serial_reference_over_10000_iterations():
    fleet, programs, sampler = shipped_parametric_instance()
    cfg = SgdConfig(iterations=10000, batch=10, seed=0)  # solve-offline's defaults
    reference = []
    down = np.array([p.direction == "down" for p in programs])
    expected = reference_solve(fleet, prices_of(programs), down, sampler, cfg, reference)
    result = solve(fleet, programs, sampler, cfg, record_trajectory=True)
    assert result.profile.tobytes() == expected.tobytes()
    assert_same_iterates(result.trajectory, reference)


@pytest.mark.parametrize("iterations", [1, 63, 64, 65, 300])
def test_solve_draws_once_per_block_and_forms_one_subgradient_per_iteration(iterations, monkeypatch):
    """A J-iteration solve calls its sampler ceil(J / 64) times and ``_subgradient`` J times."""
    fleet, programs = verify_sgd_instance()
    sampler, kernel, counts = program_sampler(programs), sgd._subgradient, {"draws": 0, "subgradients": 0}

    def counted_sampler(rng, size):
        counts["draws"] += 1
        return sampler(rng, size)

    def counted_kernel(*args):
        counts["subgradients"] += 1
        return kernel(*args)

    monkeypatch.setattr(sgd, "_subgradient", counted_kernel)
    solve(fleet, programs, counted_sampler, SgdConfig(iterations=iterations, batch=4, seed=1))
    assert counts == {"draws": -(-iterations // 64), "subgradients": iterations}
