import itertools

import numpy as np
import pytest

from minerflex import (
    DeploymentSample,
    InfeasibleError,
    InvalidInputError,
    Profile,
    ProgramSpec,
    allocate_deployment,
    cost_fixed_k,
    critical_type,
    effective_epsilon,
    fleet_from_rewards,
    realized_cost,
)
from minerflex.cutting import MAX_CUTS
from minerflex.deployment import FleetStack, capped_breaks, dot, realized_cost_batch, slot_cost, slot_piece
from minerflex.programs import directions_of, prices_of
from minerflex.sgd import sample_subgradient

from conftest import fleet_stack_of, random_instance, slot_batch_of


def rule(a, b):
    """The product rule on Python floats: term 0 starts the sum, each later term is added in order."""
    terms = [x * y for x, y in zip(np.asarray(a).tolist(), np.asarray(b).tolist())]
    total = terms[0]
    for term in terms[1:]:
        total += term
    return total


def brute_force_deployment_cost(fleet, programs, c, eps, step):
    """Grid search over feasible allocations d of the slot LP objective."""
    total = float(np.dot(eps, c))
    caps = fleet.capacities
    rewards = fleet.rewards
    revenue = float(prices_of(programs) @ c)
    k = len(caps)
    axes = [np.append(np.arange(0.0, cap, step), cap) for cap in caps[: k - 1]]
    best = np.inf
    for head in itertools.product(*axes):
        last = total - sum(head)
        if -1e-9 <= last <= caps[-1] + 1e-9:
            d = np.append(head, min(max(last, 0.0), caps[-1]))
            best = min(best, float(rewards @ d) - revenue)
    return best


def test_effective_epsilon_up_identity():
    out = effective_epsilon(DeploymentSample(np.array([0.3])), ["up"])
    np.testing.assert_allclose(out.epsilon, [0.3])


def test_effective_epsilon_down_flip():
    out = effective_epsilon(DeploymentSample(np.array([0.3])), ["down"])
    np.testing.assert_allclose(out.epsilon, [0.7])


def test_effective_epsilon_endpoints():
    out = effective_epsilon(np.array([0.0, 1.0]), ["up", "down"])
    np.testing.assert_allclose(out.epsilon, [0.0, 0.0])


def test_effective_epsilon_validates():
    with pytest.raises(InvalidInputError):
        effective_epsilon(np.array([0.5]), ["up", "down"])
    with pytest.raises(InvalidInputError):
        effective_epsilon(np.array([0.5]), ["sideways"])


def test_allocate_greedy(two_type_fleet):
    np.testing.assert_allclose(allocate_deployment(two_type_fleet, 200.0).d, [150.0, 50.0])
    np.testing.assert_allclose(allocate_deployment(two_type_fleet, 0.0).d, [0.0, 0.0])


def test_allocate_three_types_matches_grid_oracle():
    fleet = fleet_from_rewards([50.0, 50.0, 50.0], [10.0, 20.0, 30.0])
    alloc = allocate_deployment(fleet, 120.0)
    np.testing.assert_allclose(alloc.d, [50.0, 50.0, 20.0])
    programs = [ProgramSpec(id="p0", price=0.0)]
    cost = float(fleet.rewards @ alloc.d)
    oracle = brute_force_deployment_cost(fleet, programs, np.array([120.0]), np.array([1.0]), 1.0)
    assert cost == pytest.approx(oracle, abs=1e-9)


def test_allocate_rejects_overflow(two_type_fleet):
    with pytest.raises(InfeasibleError):
        allocate_deployment(two_type_fleet, 250.0 + 1e-6)


def test_allocation_monotone_in_total(two_type_fleet, rng):
    totals = np.sort(rng.uniform(0.0, 250.0, 50))
    previous = allocate_deployment(two_type_fleet, totals[0]).d
    for t in totals[1:]:
        current = allocate_deployment(two_type_fleet, float(t)).d
        assert np.all(current >= previous - 1e-12)
        previous = current


def test_allocation_sums_to_total(rng):
    for _ in range(200):
        fleet, _, _, _ = random_instance(rng)
        total = float(rng.uniform(0.0, fleet.total_capacity_mw))
        alloc = allocate_deployment(fleet, total)
        assert alloc.total() == pytest.approx(total, abs=1e-9)
        assert np.all(alloc.d >= 0.0)
        assert np.all(alloc.d <= fleet.capacities + 1e-12)


def test_critical_type_boundaries(two_type_fleet):
    assert critical_type(two_type_fleet, 100.0) == 1
    assert critical_type(two_type_fleet, 150.0) == 1  # inclusive boundary
    assert critical_type(two_type_fleet, 150.5) == 2
    assert critical_type(two_type_fleet, 250.0) == 2


def test_realized_cost_no_deployment(two_type_fleet, rng):
    programs = [ProgramSpec(id="a", price=20.0), ProgramSpec(id="b", price=7.0)]
    c = np.array([100.0, 50.0])
    cost = realized_cost(two_type_fleet, programs, c, np.zeros(2))
    assert cost == pytest.approx(-(100.0 * 20.0 + 50.0 * 7.0))


def test_realized_cost_zero_profile(two_type_fleet):
    programs = [ProgramSpec(id="a", price=20.0)]
    assert realized_cost(two_type_fleet, programs, np.zeros(1), np.array([0.7])) == 0.0


def test_realized_cost_worked_example(two_type_fleet):
    # caps [150, 100], rewards [94, 150], one program at p=20, c=250, eps=0.8:
    # deployment 200 puts the critical type at 2, and the direct objective
    # 94*150 + 150*50 - 250*20 must agree with the closed form 16600.
    programs = [ProgramSpec(id="p", price=20.0)]
    c = np.array([250.0])
    eps = np.array([0.8])
    cost = realized_cost(two_type_fleet, programs, c, eps)
    alloc = allocate_deployment(two_type_fleet, 200.0)
    direct = float(two_type_fleet.rewards @ alloc.d) - 20.0 * 250.0
    assert cost == pytest.approx(16600.0, abs=1e-9)
    assert direct == pytest.approx(16600.0, abs=1e-9)


def test_realized_cost_rejects_infeasible_profile(two_type_fleet):
    programs = [ProgramSpec(id="p", price=0.0)]
    with pytest.raises(InfeasibleError):
        realized_cost(two_type_fleet, programs, np.array([260.0]), np.array([0.5]))


def test_cost_fixed_k_at_critical_matches(two_type_fleet):
    programs = [ProgramSpec(id="p", price=20.0)]
    c, eps = np.array([250.0]), np.array([0.8])
    kc = critical_type(two_type_fleet, float(eps @ c))
    assert cost_fixed_k(two_type_fleet, programs, c, eps, kc) == pytest.approx(
        realized_cost(two_type_fleet, programs, c, eps)
    )


def test_cost_fixed_k_single_type():
    fleet = fleet_from_rewards([80.0], [120.0])
    programs = [ProgramSpec(id="p", price=5.0)]
    c, eps = np.array([60.0]), np.array([0.4])
    assert cost_fixed_k(fleet, programs, c, eps, 1) == pytest.approx(
        realized_cost(fleet, programs, c, eps)
    )


def test_cost_fixed_k_range_check(two_type_fleet):
    programs = [ProgramSpec(id="p", price=5.0)]
    with pytest.raises(InvalidInputError):
        cost_fixed_k(two_type_fleet, programs, np.array([1.0]), np.array([0.5]), 3)


def test_cost_fixed_k_rejects_mismatched_sizes(two_type_fleet):
    one = [ProgramSpec(id="p", price=5.0)]
    two = one + [ProgramSpec(id="q", price=7.0)]
    for programs, c, eps in ((one, [1.0, 2.0], [0.5]), (one, [1.0], [0.5, 0.5]), (one, [1.0, 2.0], [0.5, 0.5]),
                             (two, [1.0], [0.5])):
        with pytest.raises(InvalidInputError, match="dimension mismatch"):
            cost_fixed_k(two_type_fleet, programs, np.array(c), np.array(eps), 1)


def test_realized_cost_rejects_non_finite_inputs(two_type_fleet):
    # numpy's searchsorted puts nan past the last breakpoint and bisect puts it first
    programs = [ProgramSpec(id="a", price=20.0), ProgramSpec(id="b", price=7.0)]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidInputError, match="^profile .*finite"):
            realized_cost(two_type_fleet, programs, np.array([bad, 10.0]), np.array([0.5, 0.5]))
        with pytest.raises(InvalidInputError, match="^sample .*finite"):
            realized_cost(two_type_fleet, programs, np.array([10.0, 10.0]), np.array([0.5, bad]))


def test_capped_breakpoint_search_is_the_clipped_search(rng):
    """The piece of a raw total is the piece of the total clipped onto [0, cap]."""
    top = fleet_from_rewards([100.0, 150.0, 0.0], [10.0, 20.0, 30.0])
    fleets = [
        top,  # a zero-capacity type at the top: cum = [100, 250, 250]
        fleet_from_rewards([0.0, 100.0, 150.0], [10.0, 20.0, 30.0]),  # at the bottom
        fleet_from_rewards([0.0, 60.0, 0.0, 90.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        fleet_from_rewards([250.0], [40.0]),
        fleet_from_rewards([0.0, 0.0], [40.0, 50.0]),  # no capacity at all
    ]
    for _ in range(40):
        k = int(rng.integers(1, 6))
        caps = np.where(rng.random(k) < 0.3, 0.0, rng.uniform(1.0, 100.0, k))
        fleets.append(fleet_from_rewards(caps, np.sort(rng.uniform(0.0, 200.0, k)) + np.arange(k) * 1e-6))
    for fleet in fleets:
        cum = fleet.cum_capacities
        cap = float(cum[-1])
        edges = [0.0, -0.0, -1.0, -1e300, -np.inf, np.nextafter(0.0, -1.0), 2.0 * cap + 1.0, 1e300, np.inf]
        totals = np.concatenate([
            rng.uniform(-0.5 * cap - 1.0, 1.5 * cap + 1.0, 300),
            cum, np.nextafter(cum, np.inf), np.nextafter(cum, -np.inf), edges,
        ])
        clipped = cum.searchsorted(np.minimum(np.maximum(totals, 0.0), cap), side="left")
        assert np.array_equal(capped_breaks(cum).searchsorted(totals), clipped)
        assert np.array_equal(slot_piece(cum, totals)[1], clipped)
        for t, k in zip(totals.tolist(), clipped.tolist()):
            assert capped_breaks(cum).searchsorted(t) == k
    # the plain breakpoints cum[:-1] put a total past a zero-capacity top type
    assert top.cum_capacities.tolist() == [100.0, 250.0, 250.0]
    assert top.cum_capacities[:-1].searchsorted(300.0) == 2
    assert capped_breaks(top.cum_capacities).searchsorted(300.0) == 1


def test_one_slot_costs_match_slot_cost_bit_for_bit(rng):
    # realized_cost against slot_cost's numpy path; cost_fixed_k against its formula on
    # Python floats, its products added left to right
    for k in range(1, 5):
        for n in range(1, 4):
            for trial in range(150):
                caps = np.where(rng.random(k) < 0.15, 0.0, rng.uniform(1.0, 100.0, k))
                caps += caps.sum() == 0.0  # some capacity in every fleet
                fleet = fleet_from_rewards(caps, np.sort(rng.uniform(0.0, 200.0, k)))
                programs = [ProgramSpec(id=f"p{i}", price=float(rng.uniform(0.0, 60.0))) for i in range(n)]
                eps = np.where(rng.random(n) < 0.2, rng.choice([0.0, 1.0], n), rng.uniform(0.0, 1.0, n))
                c = rng.dirichlet(np.ones(n + 1))[:n] * fleet.total_capacity_mw
                if trial % 10 == 0:  # a total exactly on the first break
                    eps, c = np.ones(n), np.append(fleet.cum_capacities[0], np.zeros(n - 1))
                elif trial % 10 == 1:  # the whole fleet, or nothing
                    c = np.append(fleet.total_capacity_mw * (trial % 20 == 1), np.zeros(n - 1))
                p = prices_of(programs)
                expected = slot_cost(fleet, eps, p, c)[0]
                cost = realized_cost(fleet, programs, c, eps)
                assert isinstance(cost, float)
                assert np.float64(cost).tobytes() == np.float64(expected).tobytes(), (k, n, trial)
                for kp in range(1, fleet.n_types + 1):
                    expected = fleet.prefix_costs[kp - 1] + fleet.rewards[kp - 1] * rule(eps, c) - rule(p, c)
                    assert np.float64(cost_fixed_k(fleet, programs, c, eps, kp)).tobytes() == expected.tobytes()


def test_max_of_affines_property(rng):
    for _ in range(500):
        fleet, programs, c, raw = random_instance(rng)
        cost = realized_cost(fleet, programs, c, raw)
        surrogates = [
            cost_fixed_k(fleet, programs, c, raw, k) for k in range(1, fleet.n_types + 1)
        ]
        assert cost == pytest.approx(max(surrogates), abs=1e-9)


def test_midpoint_convexity(rng):
    for _ in range(500):
        fleet, programs, _, raw = random_instance(rng)
        n = len(programs)
        cap = fleet.total_capacity_mw
        a = rng.uniform(0.0, 1.0, n)
        b = rng.uniform(0.0, 1.0, n)
        a *= rng.uniform(0.0, 1.0) * cap / max(a.sum(), 1e-12)
        b *= rng.uniform(0.0, 1.0) * cap / max(b.sum(), 1e-12)
        t = float(rng.uniform(0.0, 1.0))
        mix = t * a + (1.0 - t) * b
        lhs = realized_cost(fleet, programs, mix, raw)
        rhs = t * realized_cost(fleet, programs, a, raw) + (1.0 - t) * realized_cost(
            fleet, programs, b, raw
        )
        assert lhs <= rhs + 1e-9


def test_lp_grid_oracle_agreement(rng):
    # Coarse-grid LP oracle on tiny instances; resolution-limited tolerance.
    for _ in range(20):
        fleet, programs, c, raw = random_instance(rng, k_max=3, n_max=2, cap_scale=20.0)
        step = 0.01 * fleet.total_capacity_mw
        cost = realized_cost(fleet, programs, c, raw)
        oracle = brute_force_deployment_cost(fleet, programs, c, raw, step)
        assert cost <= oracle + 1e-9
        assert abs(cost - oracle) <= step * float(fleet.rewards.max()) * fleet.n_types


def test_batch_matches_scalar(rng):
    for _ in range(50):
        fleet, programs, c, _ = random_instance(rng)
        eps = rng.uniform(0.0, 1.0, (17, len(programs)))
        batch = realized_cost_batch(fleet, prices_of(programs), eps, c)
        single = [realized_cost(fleet, programs, c, row) for row in eps]
        np.testing.assert_allclose(batch, single, rtol=0, atol=1e-9)

    # SlotBatch: a fleet per slot (2 or 3 types), a down program, missing programs
    fleets, programs_seq, samples, masks = [], [], [], []
    for t in range(12):
        caps = [150.0, 100.0] if t % 2 else [90.0, 60.0, 100.0]
        rewards = np.sort(rng.uniform(0.0, 200.0, len(caps))) + np.arange(len(caps)) * 1e-6
        fleets.append(fleet_from_rewards(caps, rewards))
        programs_seq.append([
            ProgramSpec(id=f"p{i}", price=float(rng.uniform(0.0, 60.0)), direction="down" if i == 1 else "up")
            for i in range(3)
        ])
        samples.append(rng.uniform(0.0, 1.0, 3))
        masks.append(np.array([False, t % 2 == 0, True]) if t % 3 == 0 else None)
    batch = slot_batch_of(fleets, programs_seq, samples, 250.0, masks)
    cands = np.array([[60.0, 80.0, 40.0], [100.0, 100.0, 50.0]])
    costs = batch.costs_for(cands)
    for b, c in enumerate(cands):
        total_grad = np.zeros(3)
        for t, (fleet, programs) in enumerate(zip(fleets, programs_seq)):
            eff = effective_epsilon(samples[t], directions_of(programs)).epsilon.copy()
            if masks[t] is not None:
                eff[masks[t]] = 0.0
                programs = [
                    ProgramSpec(p.id, 0.0 if absent else p.price, p.direction)
                    for p, absent in zip(programs, masks[t])
                ]
            cost = realized_cost(fleet, programs, c, eff)
            grad = sample_subgradient(fleet, programs, c, eff[None, :])
            (round_cost,), (round_grad,) = batch.cost_and_subgradient(slice(t, t + 1), c[None])
            np.testing.assert_allclose([costs[t, b], round_cost], cost, rtol=0, atol=1e-9)
            np.testing.assert_allclose(round_grad, grad, rtol=0, atol=1e-9)
            total_grad += grad
        np.testing.assert_allclose(batch.total_subgradient(c), total_grad, rtol=0, atol=1e-9)


def test_sample_and_profile_validation():
    with pytest.raises(InvalidInputError):
        DeploymentSample(np.array([1.2]))
    with pytest.raises(InvalidInputError):
        DeploymentSample(np.array([-0.1]))
    with pytest.raises(InvalidInputError):
        Profile(np.array([-1.0]))
    p = Profile(np.array([-1e-13, 2.0]))  # tiny negative clamps to zero
    assert p.c[0] == 0.0


def test_row_wise_and_shared_profile_costs_match(rng):
    # one profile per row and one profile for all rows are the same broadcast
    # expression, so a row's bits do not depend on how its profile reaches it
    for n in range(1, 6):
        k = 3
        stack = FleetStack(np.sort(rng.uniform(0.0, 200.0, (400, k)), axis=1), rng.uniform(1.0, 100.0, (400, k)))
        eps = rng.uniform(0.0, 1.0, (400, n)) * rng.choice([1e-9, 1.0, 1e6], (400, n))
        eps[::7] = np.round(eps[::7], 1)  # exact tenths, as coarse trace rates are
        prices = rng.uniform(0.0, 60.0, (400, n))
        profiles = rng.uniform(0.0, 250.0, (3, n))
        shared = slot_cost(stack, eps[:, None], prices[:, None], profiles)
        for b, c in enumerate(profiles):
            rows = slot_cost(stack, eps, prices, np.tile(c, (400, 1)))
            one = slot_cost(stack, eps, prices, c)
            for got in (rows, one):
                assert got[0].tobytes() == shared[0][:, b].copy().tobytes(), f"N={n}"
                assert got[1].tobytes() == shared[1][:, b].copy().tobytes(), f"N={n}"


def test_dot_is_the_python_loop_bit_for_bit(rng):
    # N = 1..8 program products, signed zeros included, and the cut axis up to MAX_CUTS terms
    zeros = np.array([0.0, -0.0])
    for n in range(1, 9):
        a = rng.uniform(-1.0, 1.0, (300, n)) * rng.choice([1e-9, 1.0, 1e6], (300, n))
        b = rng.uniform(-1.0, 1.0, (300, n)) * rng.choice([1e-9, 1.0, 1e6], (300, n))
        a[::5], b[1::5] = rng.choice(zeros, (60, n)), rng.choice(zeros, (60, n))
        got = dot(a, b)
        assert got.tobytes() == np.array([rule(x, y) for x, y in zip(a, b)]).tobytes(), f"N={n}"
        assert np.float64(dot(a[0], b[0])).tobytes() == np.float64(rule(a[0], b[0])).tobytes()
    for m in (1, 2, 7, 8, 9, 50, MAX_CUTS):
        lam = rng.dirichlet(np.ones(m))
        lam[::3] = 0.0
        for n in (1, 2, 3):
            g = rng.uniform(-1.0, 1.0, (m, n)) * rng.choice([1e-6, 1.0, 1e6], (m, n))
            g[::4] = rng.choice(zeros, (len(g[::4]), n))
            got = dot(lam[:, None], g, axis=0)
            assert got.tobytes() == np.array([rule(lam, col) for col in g.T]).tobytes(), (m, n)
            assert np.float64(dot(lam, g[:, 0], axis=0)).tobytes() == np.float64(rule(lam, g[:, 0])).tobytes()
    assert np.signbit(dot(np.array([-0.0, 0.0]), np.array([1.0, -1.0])))  # -0.0 + -0.0
    assert np.signbit(dot(np.array([[-0.0], [0.0]]), np.array([[1.0], [-1.0]]), axis=0)[0])


def test_slot_rows_match_one_slot_calls(rng):
    # 2- and 3-type fleets (padded), a down program, missing programs; profiles at
    # zero, inside the simplex, on its face and with deployment past the first type
    fleets, programs_seq, samples, masks = [], [], [], []
    for t in range(40):
        caps = [150.0, 100.0] if t % 2 else [90.0, 60.0, 100.0]
        rewards = np.sort(rng.uniform(0.0, 200.0, len(caps))) + np.arange(len(caps)) * 1e-6
        fleets.append(fleet_from_rewards(caps, rewards))
        programs_seq.append([
            ProgramSpec(id=f"p{i}", price=float(rng.uniform(0.0, 60.0)), direction="down" if i == 1 else "up")
            for i in range(3)
        ])
        samples.append(np.where(rng.random(3) < 0.2, 1.0, rng.uniform(0.0, 1.0, 3)))
        masks.append(rng.random(3) < 0.25 if t % 3 == 0 else None)
    batch = slot_batch_of(fleets, programs_seq, samples, 250.0, masks)
    profiles = rng.dirichlet(np.ones(4), 40)[:, :3] * 250.0
    profiles[::5] = 0.0
    profiles[1::5] = [250.0, 0.0, 0.0]
    for rows in (slice(0, 40), slice(3, 4), slice(7, 31)):
        costs, grads = batch.cost_and_subgradient(rows, profiles[rows])
        assert costs.shape == (rows.stop - rows.start,) and grads.shape == (len(costs), 3)
        for i, t in enumerate(range(rows.start, rows.stop)):
            (cost,), (grad,) = batch.cost_and_subgradient(slice(t, t + 1), profiles[t][None])
            assert isinstance(cost, float)
            assert np.float64(cost).tobytes() == costs[i].tobytes(), f"slot {t}"
            assert grad.tobytes() == grads[i].tobytes(), f"slot {t}"



def test_fleet_stack_rows_match_one_slot_cost(rng):
    # rows of different capacity totals (which no SlotBatch can hold), K of 1-4
    # padded to one width, N of 1-3; deployment totals exactly on every break,
    # at zero, at the fleet's full capacity and inside
    fleets = []
    for k in range(1, 5):
        for _ in range(3):
            rewards = np.sort(rng.uniform(0.0, 200.0, k)) + np.arange(k) * 1e-6
            fleets.append(fleet_from_rewards(rng.uniform(1.0, 100.0, k), rewards))
    stack = fleet_stack_of(fleets)
    assert len(set(stack.cum_capacities[:, -1].tolist())) == len(fleets)
    for n in range(1, 4):
        rows, eps, prices, profiles, full = [], [], [], [], []
        for f, fleet in enumerate(fleets):
            cap = fleet.total_capacity_mw
            full.append(len(rows) + fleet.n_types)
            # one program deploys exactly c[0]: zero, each break (the last is the full capacity)
            for d in [0.0, *fleet.cum_capacities.tolist()]:
                rows.append(f)
                eps.append(np.append(1.0, rng.uniform(0.0, 1.0, n - 1)))
                profiles.append(np.append(d, np.zeros(n - 1)))
            for c in rng.dirichlet(np.ones(n + 1), 4)[:, :n] * cap:
                rows.append(f)
                eps.append(rng.uniform(0.0, 1.0, n))
                profiles.append(c)
        rows, eps, profiles = np.array(rows), np.array(eps), np.array(profiles)
        prices = rng.uniform(0.0, 60.0, eps.shape)
        assert [float(eps[i] @ profiles[i]) for i in full] == stack.cum_capacities[:, -1].tolist()
        perm = rng.permutation(len(rows))
        calls = [
            (rows[perm], perm, slot_cost(stack.select(rows[perm]), eps[perm], prices[perm], profiles[perm])),
            (np.arange(len(fleets)), full, slot_cost(stack, eps[full], prices[full], profiles[full])),
        ]
        for fleet_rows, picked, (costs, slopes) in calls:
            assert costs.shape == slopes.shape == (len(picked),)
            for i, (f, t) in enumerate(zip(fleet_rows, picked)):
                fleet, c, e = fleets[f], profiles[t], eps[t]
                programs = [ProgramSpec(id=f"p{j}", price=float(x)) for j, x in enumerate(prices[t])]
                cost = realized_cost(fleet, programs, c, e)
                assert np.float64(cost).tobytes() == costs[i].tobytes(), f"N={n}, fleet {f}, row {t}"
                assert slopes[i] == fleet.rewards[critical_type(fleet, float(e @ c)) - 1], f"N={n}, row {t}"
