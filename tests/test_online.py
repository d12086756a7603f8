import dataclasses
import math
import tracemalloc
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from minerflex import (
    InvalidInputError,
    OgdConfig,
    ProgramSpec,
    fleet_from_rewards,
    hindsight_optimum,
    run_online,
)
from minerflex import verify
from minerflex.deployment import Profile, project_simplex, slot_cost
from minerflex.online import hour_optima, per_round_costs, regret_report
from minerflex.verify import check_online_regret

from conftest import slot_batch_of, slot_costs


def random_rounds(rng, horizon, caps=(150.0, 100.0), r_max=200.0, p_max=60.0, n=2):
    """Bounded adversarial sequence: fresh rewards, prices, eps each round."""
    fleets, programs_seq, samples = [], [], []
    for _ in range(horizon):
        rewards = np.sort(rng.uniform(0.0, r_max, len(caps)))
        rewards += np.arange(len(caps)) * 1e-9
        fleets.append(fleet_from_rewards(caps, rewards))
        programs_seq.append(
            [ProgramSpec(id=f"p{i}", price=float(rng.uniform(0.0, p_max))) for i in range(n)]
        )
        samples.append(rng.uniform(0.0, 1.0, n))
    return fleets, programs_seq, samples


def stationary_rounds(rng, horizon, caps=(150.0, 100.0), r_max=200.0, p_max=60.0, n=2):
    fleets, programs_seq, samples = random_rounds(rng, 1, caps, r_max, p_max, n)
    return fleets * horizon, programs_seq * horizon, samples * horizon


def serial_run_online(batch, cfg, timestamps=None):
    """Reference learner loop: one round at a time, each learner with its own step clock.

    Slot t's cost goes through ``slot_cost`` on slot t's fleet row, the step is
    eta = D / (G sqrt(clock)), the projection is 1-D, and the incurred costs are
    summed in round order. Returns the played profiles, the costs and their total.
    """
    T, n = batch.T, batch.n
    states = [np.zeros(n) for _ in range(cfg.learners)]
    clocks = [0] * cfg.learners
    played, costs = np.empty((T, n)), np.empty(T)
    total = 0.0
    for t in range(T):
        h = (t if timestamps is None else timestamps[t].hour) % cfg.learners
        c = states[h]
        row = SimpleNamespace(
            rewards=batch.rewards[t], cum_capacities=batch.cum_capacities[t], prefix_costs=batch.prefix_costs[t]
        )
        cost, slope = slot_cost(row, batch.eps[t], batch.prices[t], c)
        played[t], costs[t] = c, cost
        total += float(cost)
        clocks[h] += 1
        eta = cfg.diameter / (cfg.grad_bound * math.sqrt(clocks[h]))
        states[h] = project_simplex(c - eta * (slope * batch.eps[t] - batch.prices[t]), cfg.cap)
    return played, costs, total


def assert_matches_serial(batch, cfg, timestamps=None):
    """``run_online`` equals :func:`serial_run_online` bit for bit, regret report included."""
    played, costs, report = run_online(batch, cfg, timestamps)
    ref_played, ref_costs, ref_total = serial_run_online(batch, cfg, timestamps)
    assert played.tobytes() == ref_played.tobytes()
    assert costs.tobytes() == ref_costs.tobytes()
    static = ref_total - float(batch.totals(report.hindsight_profile.c[None, :])[0][0])
    assert np.float64(report.static_regret).tobytes() == np.float64(static).tobytes()
    assert np.float64(report.average_regret).tobytes() == np.float64(static / batch.T).tobytes()
    # each learner's own (3/2) G D sqrt(T_l), summed over the learners that play
    keys = np.arange(batch.T) if timestamps is None else np.array([ts.hour for ts in timestamps])
    rounds = np.bincount(keys % cfg.learners).tolist()
    assert report.bound == math.fsum(1.5 * cfg.grad_bound * cfg.diameter * math.sqrt(t) for t in rounds if t)


def test_waves_match_the_serial_loop(rng):
    # 3-type fleets, a down program, missing cells and slots that skip hours and
    # fall between them, so the learners play unequal round counts
    horizon = 150
    fleets, programs_seq, samples = random_rounds(rng, horizon, caps=(90.0, 60.0, 100.0), p_max=150.0, n=3)
    programs_seq = [[ps[0], dataclasses.replace(ps[1], direction="down"), ps[2]] for ps in programs_seq]
    masks = [rng.random(3) < 0.3 if t % 4 == 0 else None for t in range(horizon)]
    batch = slot_batch_of(fleets, programs_seq, samples, 250.0, masks)
    start = datetime(2022, 3, 1, 17, tzinfo=timezone.utc)
    stamps = [start + timedelta(minutes=int(m)) for m in np.cumsum(rng.choice([20, 60, 150], horizon))]
    for learners, timestamps in ((24, stamps), (7, stamps), (5, None), (1, None), (40, None)):
        cfg = OgdConfig.from_bounds(3, 250.0, 200.0, 150.0, learners=learners)
        assert_matches_serial(batch, cfg, timestamps)


def test_learner_bank_memory_does_not_grow_with_its_size(rng):
    # only the learners that play hold state: ten million on 48 slots cost what 48 do
    batch = slot_batch_of(*random_rounds(rng, 48), 250.0)
    runs = {}
    for learners in (48, 10**7):
        cfg = OgdConfig.from_bounds(2, 250.0, 200.0, 60.0, learners=learners)
        tracemalloc.start()
        try:
            played, costs, report = run_online(batch, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        runs[learners] = [
            played.tobytes(), costs.tobytes(), report.hindsight_profile.c.tobytes(),
            *(np.float64(x).tobytes() for x in (report.static_regret, report.hindsight_gap, report.bound)),
        ]
    assert peak < 2**20, peak
    assert runs[10**7] == runs[48]


def test_regret_bound_values():
    def bound(T, N):
        return OgdConfig.from_bounds(N, 250.0, 200.0, 50.0).regret_bound(T)

    assert bound(100, 2) == pytest.approx(1_500_000.0)
    assert bound(400, 2) == pytest.approx(3_000_000.0)
    assert bound(1, 1) == pytest.approx(1.5 * 250.0 * 200.0)


def test_bank_regret_bound_covers_the_one_learner_bound(rng):
    # sqrt is subadditive, so the sum over learners of sqrt(T_l) is at least sqrt(T)
    horizon = 150
    batch = slot_batch_of(*random_rounds(rng, horizon), 250.0)
    start = datetime(2022, 3, 1, 5, tzinfo=timezone.utc)
    stamps = [start + timedelta(minutes=int(m)) for m in np.cumsum(rng.choice([20, 60, 150], horizon))]
    one = OgdConfig.from_bounds(2, 250.0, 200.0, 60.0, learners=1)
    single = one.regret_bound(horizon)
    assert np.float64(run_online(batch, one)[2].bound).tobytes() == np.float64(single).tobytes()
    for learners in (2, 5, 24):
        cfg = dataclasses.replace(one, learners=learners)
        for timestamps in (None, stamps):
            bound = run_online(batch, cfg, timestamps)[2].bound
            assert bound >= single
            assert bound <= math.sqrt(learners) * single * (1.0 + 1e-12)  # Cauchy-Schwarz


def test_regret_bound_validation():
    for N, cap in ((0, 250.0), (2, 0.0)):
        with pytest.raises(InvalidInputError):
            OgdConfig.from_bounds(N, cap, 200.0, 50.0)


def constant_gradient_rounds(prices_seq):
    """Slots of a 150 + 100 MW fleet with no deployment (eps = 0): slot t's subgradient is -prices_seq[t]."""
    horizon, fleet = len(prices_seq), fleet_from_rewards([150.0, 100.0], [50.0, 180.0])
    programs_seq = [[ProgramSpec(id=f"p{i}", price=p) for i, p in enumerate(prices)] for prices in prices_seq]
    return slot_batch_of([fleet] * horizon, programs_seq, [np.zeros(len(prices_seq[0]))] * horizon, 250.0)


def test_online_zero_gradient_keeps_the_profile():
    # three rounds at -p move the learner inside the simplex; zero-price rounds
    # then have a zero subgradient, so every later round plays the same profile
    batch = constant_gradient_rounds([[10.0, 20.0]] * 3 + [[0.0, 0.0]] * 7)
    cfg = OgdConfig.from_bounds(2, 250.0, 200.0, 50.0, learners=1)
    played, _, _ = run_online(batch, cfg)
    assert 0.0 < played[3].sum() < 250.0
    for c in played[4:]:
        assert c.tobytes() == played[3].tobytes()


def test_online_constant_gradient_reaches_face():
    batch = constant_gradient_rounds([[30.0, 50.0]] * 1000)
    cfg = OgdConfig.from_bounds(2, 250.0, r_max=200.0, p_max=50.0, learners=1)
    played, _, _ = run_online(batch, cfg)
    assert played[-1].sum() == pytest.approx(250.0, rel=1e-9)


def test_online_plays_feasible_profiles(rng):
    batch = slot_batch_of(*random_rounds(rng, 200, p_max=150.0, n=3), 250.0)
    for learners in (1, 24):
        cfg = OgdConfig.from_bounds(3, 250.0, 200.0, 150.0, learners=learners)
        played, _, _ = run_online(batch, cfg)
        assert np.all(played >= 0.0) and np.all(played.sum(axis=1) <= 250.0 + 1e-9)


def test_single_round_regret_nonnegative(rng):
    batch = slot_batch_of(*random_rounds(rng, 1), 250.0)
    cfg = OgdConfig.from_bounds(2, 250.0, 200.0, 60.0, learners=1)
    _, _, report = run_online(batch, cfg)
    assert report.static_regret >= -1e-6 * max(1.0, abs(report.static_regret))


def test_stationary_convergence(rng):
    fleets, programs_seq, samples = stationary_rounds(rng, 400)
    cfg = OgdConfig.from_bounds(2, 250.0, 200.0, 60.0, learners=1)
    played, _, report = run_online(slot_batch_of(fleets, programs_seq, samples, 250.0), cfg)
    # average regret decays and the late profiles approach the per-round argmin
    arrays = slot_batch_of(fleets[:1], programs_seq[:1], samples[:1], 250.0)
    axis = np.linspace(0.0, 250.0, 501)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    grid = grid[grid.sum(axis=1) <= 250.0 + 1e-9]
    best = float(slot_costs(arrays, grid).sum(axis=0).min())
    late = played[-1]
    late_cost = float(arrays.totals(late[None, :])[0][0])
    eta_late = cfg.diameter / (cfg.grad_bound * math.sqrt(400))
    assert late_cost - best <= cfg.grad_bound * (eta_late * cfg.grad_bound + 3.0)
    assert report.average_regret <= report.bound / 400.0


def test_stationary_interior_kink_convergence():
    # single program, always fully deployed, priced between the two machine
    # rewards: cost falls until deployment exhausts the cheap type and rises
    # after, so the optimum sits at the interior kink c = cap_1.
    fleet = fleet_from_rewards([150.0, 100.0], [50.0, 180.0])
    horizon = 600
    batch = slot_batch_of([fleet] * horizon, [[ProgramSpec(id="p", price=100.0)]] * horizon,
                          [np.array([1.0])] * horizon, 250.0)
    cfg = OgdConfig.from_bounds(1, 250.0, 180.0, 100.0, learners=1)
    played, _, _ = run_online(batch, cfg)
    eta_late = cfg.diameter / (cfg.grad_bound * math.sqrt(horizon))
    for c in played[-20:]:
        assert abs(c[0] - 150.0) <= 3.0 * eta_late * cfg.grad_bound


def test_static_regret_below_bound_random(rng):
    for _ in range(10):
        batch = slot_batch_of(*random_rounds(rng, 120), 250.0)
        cfg = OgdConfig.from_bounds(2, 250.0, 200.0, 60.0, learners=1)
        played, _, report = run_online(batch, cfg)
        assert report.static_regret <= report.bound
        # Static regret itself may be negative (an adaptive learner can beat every
        # fixed profile); the hindsight profile must still be the best fixed one.
        totals = batch.totals(np.vstack([played, report.hindsight_profile.c]))[0]
        assert totals[-1] <= totals[:-1].min() + 1e-6 * max(1.0, abs(totals[-1]))


def test_per_hour_isolation(rng):
    horizon = 96
    fleets, programs_seq, samples = random_rounds(rng, horizon)
    start = datetime(2022, 1, 1, tzinfo=timezone.utc)
    stamps = [start + timedelta(hours=i) for i in range(horizon)]
    cfg = OgdConfig.from_bounds(2, 250.0, 200.0, 60.0, learners=24)
    played, _, _ = run_online(slot_batch_of(fleets, programs_seq, samples, 250.0), cfg, timestamps=stamps)

    # shuffle whole rounds while keeping each hour's internal order
    order = np.arange(horizon)
    blocks = order.reshape(4, 24).T.reshape(-1)  # interleave days
    shuffled = [int(i) for i in blocks]
    shuffled_batch = slot_batch_of(
        [fleets[i] for i in shuffled],
        [programs_seq[i] for i in shuffled],
        [samples[i] for i in shuffled],
        250.0,
    )
    played2, _, _ = run_online(shuffled_batch, cfg, timestamps=[stamps[i] for i in shuffled])
    for hour in range(24):
        seq1 = [c for i, c in enumerate(played) if stamps[i].hour == hour]
        seq2 = [c for i, c in enumerate(played2) if stamps[shuffled[i]].hour == hour]
        assert len(seq1) == len(seq2) == 4
        for a, b in zip(seq1, seq2):
            np.testing.assert_array_equal(a, b)


def test_hindsight_matches_dense_grid(rng):
    for _ in range(3):
        arrays = slot_batch_of(*random_rounds(rng, 50), 250.0)
        profile, _ = hindsight_optimum(arrays)
        value = float(arrays.totals(profile.c[None, :])[0][0])
        axis = np.linspace(0.0, 250.0, 500)
        grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        grid = grid[grid.sum(axis=1) <= 250.0 + 1e-9]
        grid_best = float(slot_costs(arrays, grid).sum(axis=0).min())
        assert value <= grid_best + 1e-4 * 50 * 250.0 * 200.0


def test_hindsight_identical_rounds_single_round_argmin(rng):
    fleets, programs_seq, samples = stationary_rounds(rng, 30)
    profile, _ = hindsight_optimum(slot_batch_of(fleets, programs_seq, samples, 250.0))
    arrays = slot_batch_of(fleets[:1], programs_seq[:1], samples[:1], 250.0)
    axis = np.linspace(0.0, 250.0, 800)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    grid = grid[grid.sum(axis=1) <= 250.0 + 1e-9]
    assert float(arrays.totals(profile.c[None, :])[0][0]) <= float(
        slot_costs(arrays, grid).sum(axis=0).min()
    ) + 1e-6 * 250.0 * 200.0


def test_hindsight_three_programs_beats_coarse_grid(rng):
    arrays = slot_batch_of(*random_rounds(rng, 40, n=3), 250.0)
    profile, _ = hindsight_optimum(arrays)
    value = float(arrays.totals(profile.c[None, :])[0][0])
    axis = np.linspace(0.0, 250.0, 80)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    grid = grid[grid.sum(axis=1) <= 250.0 + 1e-9]
    assert value <= float(slot_costs(arrays, grid).sum(axis=0).min()) + 1e-6


def lp_hindsight_value(batch):
    """Minimum total cost by HiGHS on the epigraph LP in (c, z_1..z_T).

    z_t >= prefix_tk + (r_tk eps_t - p_t).c for every slot t and machine type k,
    c >= 0 and sum c <= cap; the objective is sum z_t.
    """
    T, n, K = batch.T, batch.n, batch.rewards.shape[1]
    slopes = batch.rewards[:, :, None] * batch.eps[:, None, :] - batch.prices[:, None, :]
    a_ub = np.block([
        [slopes.reshape(T * K, n), -np.repeat(np.eye(T), K, axis=0)],
        [np.ones((1, n)), np.zeros((1, T))],
    ])
    b_ub = np.append(-batch.prefix_costs.reshape(-1), batch.cap)
    objective = np.append(np.zeros(n), np.ones(T))
    res = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * n + [(None, None)] * T, method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def _oracle_cases():
    for n in (1, 2, 3, 5):
        for horizon in (1, 50, 200):
            rng = np.random.default_rng(1000 * n + horizon)
            batch = slot_batch_of(*random_rounds(rng, horizon, p_max=150.0, n=n), 250.0)
            yield pytest.param(batch, id=f"random-n{n}-T{horizon}")
    rng = np.random.default_rng(7)
    fleets, programs_seq, samples = random_rounds(rng, 60, p_max=150.0, n=3)
    masks = [rng.random(3) < 0.3 if t % 4 == 0 else None for t in range(60)]
    yield pytest.param(slot_batch_of(fleets, programs_seq, samples, 250.0, masks), id="missing")
    fleets, programs_seq, samples = random_rounds(rng, 80, p_max=150.0, n=2)
    programs_seq = [[ps[0], dataclasses.replace(ps[1], direction="down")] for ps in programs_seq]
    yield pytest.param(slot_batch_of(fleets, programs_seq, samples, 250.0), id="down")
    # this seed's one repeated slot has its optimum at a kink inside the c_2 edge
    stationary = stationary_rounds(np.random.default_rng(9), 100, p_max=150.0)
    yield pytest.param(slot_batch_of(*stationary, 250.0), id="stationary")
    fleet = fleet_from_rewards([150.0, 100.0], [50.0, 180.0])
    kink = slot_batch_of([fleet] * 600, [[ProgramSpec(id="p", price=100.0)]] * 600, [np.array([1.0])] * 600, 250.0)
    yield pytest.param(kink, id="interior-kink")
    # zero rates and zero prices: every profile costs the same
    fleets, programs_seq, _ = random_rounds(rng, 30, n=2)
    free = [[dataclasses.replace(spec, price=0.0) for spec in ps] for ps in programs_seq]
    yield pytest.param(slot_batch_of(fleets, free, [np.zeros(2)] * 30, 250.0), id="flat")


@pytest.mark.parametrize("batch", _oracle_cases())
def test_hindsight_matches_lp_oracle(batch):
    profile, gap = hindsight_optimum(batch)
    star = lp_hindsight_value(batch)
    tol = 1e-9 * max(1.0, abs(star))
    value = float(batch.totals(profile.c[None, :])[0][0])
    assert abs(value - star) <= tol
    # the certificate bounds the true suboptimality and closes at the stopping tolerance
    assert value - star - tol <= gap <= 1e-9 * max(1.0, abs(value))
    again, gap_again = hindsight_optimum(batch)
    assert again.c.tobytes() == profile.c.tobytes()
    assert np.float64(gap_again).tobytes() == np.float64(gap).tobytes()


def assert_hour_optima_match_lp(batch, hours, profiles, gaps):
    """Every hour with slots holds its slots' LP optimum, certified by its gap.

    Every other hour holds the LP optimum of all slots, with a NaN gap.
    """
    for h in range(24):
        rows = np.flatnonzero(hours == h)
        if not rows.size:
            assert np.isnan(gaps[h]), f"hour {h}"
            star = lp_hindsight_value(batch)
            value = float(batch.totals(profiles[h][None, :])[0][0])
            assert abs(value - star) <= 1e-9 * max(1.0, abs(star)), f"hour {h}"
            continue
        sub = batch.take(rows)
        star = lp_hindsight_value(sub)
        tol = 1e-9 * max(1.0, abs(star))
        value = float(sub.totals(profiles[h][None, :])[0][0])
        assert abs(value - star) <= tol, f"hour {h}"
        assert value - star - tol <= gaps[h] <= 1e-9 * max(1.0, abs(value)), f"hour {h}"


def test_hour_optima_match_lp_oracle():
    rng = np.random.default_rng(18)
    fleets, programs_seq, samples = random_rounds(rng, 90, caps=(90.0, 60.0, 100.0), p_max=150.0, n=3)
    programs_seq = [[ps[0], dataclasses.replace(ps[1], direction="down"), ps[2]] for ps in programs_seq]
    batch = slot_batch_of(fleets, programs_seq, samples, 250.0)
    hours = rng.integers(0, 24, 90)
    hours[np.isin(hours, (5, 7))] = 6
    hours[0] = 7  # hour 5 has no slot, hour 7 one
    profiles, gaps = hour_optima(batch, hours)
    assert profiles.shape == (24, 3) and gaps.shape == (24,)
    assert np.flatnonzero(hours == 7).tolist() == [0]
    assert_hour_optima_match_lp(batch, hours, profiles, gaps)
    # the empty hour holds the pooled optimum itself
    assert profiles[5].tobytes() == hindsight_optimum(batch)[0].c.tobytes()
    for h in np.unique(hours).tolist():
        profile, gap = hindsight_optimum(batch.take(np.flatnonzero(hours == h)))
        assert profile.c.tobytes() == profiles[h].tobytes() and gap == gaps[h]


def test_per_round_costs_shape(rng):
    costs = per_round_costs(slot_batch_of(*random_rounds(rng, 7), 250.0), np.array([50.0, 50.0]))
    assert costs.shape == (7,)


def test_run_online_validates_dimensions(rng):
    fleets, programs_seq, samples = random_rounds(rng, 5)
    programs_seq[3] = programs_seq[3][:1]
    cfg = OgdConfig.from_bounds(2, 250.0, 200.0, 60.0)
    with pytest.raises(InvalidInputError):
        run_online(slot_batch_of(fleets, programs_seq, samples, 250.0), cfg)
    fleets, programs_seq, samples = random_rounds(rng, 5)
    samples[2] = np.array([1.5, 0.2])
    with pytest.raises(InvalidInputError):
        run_online(slot_batch_of(fleets, programs_seq, samples, 250.0), cfg)
    with pytest.raises(InvalidInputError):
        run_online(slot_batch_of(*random_rounds(rng, 5), 250.0), cfg, timestamps=[])
    with pytest.raises(InvalidInputError):
        run_online(slot_batch_of(*random_rounds(rng, 5, caps=(100.0, 100.0)), 200.0), cfg)


def test_missing_programs_are_skipped(rng):
    fleets, programs_seq, samples = random_rounds(rng, 6)
    masks = [None] * 6
    masks[2] = np.array([False, True])
    batch = slot_batch_of(fleets, programs_seq, samples, 250.0, masks)
    cfg = OgdConfig.from_bounds(2, 250.0, 200.0, 60.0, learners=1)
    played, _, _ = run_online(batch, cfg)
    assert batch.cost_and_subgradient(slice(2, 3), played[2][None])[1][0, 1] == 0.0
    assert batch.cost_and_subgradient(slice(2, 3), np.array([[40.0, 60.0]]))[1][0, 1] == 0.0


def test_ogd_config_validation():
    with pytest.raises(InvalidInputError):
        OgdConfig(grad_bound=-1.0, diameter=1.0, cap=1.0)
    with pytest.raises(InvalidInputError):
        OgdConfig(grad_bound=1.0, diameter=1.0, cap=1.0, learners=0)


@pytest.mark.parametrize("horizon", [1, 7, 200])
def test_regret_block_draws_match_per_slot_draws(horizon):
    # check_online_regret draws each run as one (T, 6) block; the check used to
    # draw every slot with scalar rng.uniform calls and build one fleet per slot
    ref_rng, rng = np.random.default_rng(31), np.random.default_rng(31)
    for _ in range(3):
        ref = slot_batch_of(*random_rounds(ref_rng, horizon), 250.0)
        batch = verify.regret_slots(rng, horizon)
        tables = ("rewards", "capacities", "cum_capacities", "prefix_costs", "quoted_prices",
                  "raw_eps", "down", "missing", "eps", "prices")
        for name in tables:
            a, b = getattr(batch, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert (batch.T, batch.n, batch.cap) == (ref.T, ref.n, ref.cap)
        cfg = OgdConfig.from_bounds(2, 250.0, 200.0, 60.0, learners=1)
        played, costs, report = run_online(batch, cfg)
        ref_played, ref_costs, ref_report = run_online(ref, cfg)
        assert played.tobytes() == ref_played.tobytes()
        assert costs.tobytes() == ref_costs.tobytes()
        assert report.hindsight_profile.c.tobytes() == ref_report.hindsight_profile.c.tobytes()
        fields = ("static_regret", "average_regret", "hindsight_gap", "bound")
        assert [np.float64(getattr(report, f)).tobytes() for f in fields] == [
            np.float64(getattr(ref_report, f)).tobytes() for f in fields
        ]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_verify_regret_check_accepts_negative_static_regret():
    # Run 4 of this seed ends with static regret -15,626 $: the adaptive learner
    # beats every fixed profile, and its hindsight profile is still the best fixed one.
    assert check_online_regret(seed=109010, runs=5).passed


def test_verify_regret_check_rejects_a_hindsight_profile_that_is_not_best(monkeypatch):
    # each run's comparator comes from its own regret_report: report zero participation as the best
    def no_participation_hindsight(*args, **kwargs):
        report = regret_report(*args, **kwargs)
        return dataclasses.replace(report, hindsight_profile=Profile(np.zeros(2)))

    assert check_online_regret(seed=10, runs=1, horizon=50).passed
    monkeypatch.setattr(verify, "regret_report", no_participation_hindsight)
    assert not check_online_regret(seed=10, runs=1, horizon=50).passed


@pytest.mark.parametrize("runs, horizon", [(1, 1), (1, 50), (3, 7), (20, 200)])
def test_regret_runs_match_serial_one_learner_runs(runs, horizon):
    # the lockstep bank plays each run as a lone learner on its own regret_slots draw would
    ref_rng, rng = np.random.default_rng(33), np.random.default_rng(33)
    cfg = OgdConfig.from_bounds(2, 250.0, 200.0, 60.0, learners=1)
    lockstep = verify.regret_runs(rng, runs, horizon)
    assert len(lockstep) == runs
    for r, (batch, played, costs, report) in enumerate(lockstep):
        ref_batch = verify.regret_slots(ref_rng, horizon)
        ref_played, ref_costs, ref_report = run_online(ref_batch, cfg)
        for name in ("rewards", "capacities", "quoted_prices", "raw_eps", "eps", "prices"):
            assert getattr(batch, name).tobytes() == getattr(ref_batch, name).tobytes(), (r, name)
        assert played.shape == ref_played.shape and played.tobytes() == ref_played.tobytes(), r
        assert costs.shape == ref_costs.shape and costs.tobytes() == ref_costs.tobytes(), r
        assert report.hindsight_profile.c.tobytes() == ref_report.hindsight_profile.c.tobytes(), r
        fields = ("static_regret", "average_regret", "hindsight_gap", "bound")
        assert [np.float64(getattr(report, f)).tobytes() for f in fields] == [
            np.float64(getattr(ref_report, f)).tobytes() for f in fields
        ], r
    assert rng.bit_generator.state == ref_rng.bit_generator.state
