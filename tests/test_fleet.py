import math

import numpy as np
import pytest

from minerflex import (
    FleetSpec,
    InvalidInputError,
    MachineType,
    ModelViolationError,
    canonicalize,
    load_fleet_config,
    mining_revenue_rate,
    net_reward,
)

from conftest import fleet_stack_of


def test_revenue_rate_paper_example():
    # $20,000/coin at 100 MWh/coin is the canonical ~$200/MWh figure.
    assert mining_revenue_rate(20000.0, 100.0) == pytest.approx(200.0)


def test_revenue_rate_zero_coin_price():
    assert mining_revenue_rate(0.0, 100.0) == 0.0


def test_revenue_rate_division():
    assert mining_revenue_rate(20000.0, 130.0) == pytest.approx(20000.0 / 130.0)
    assert mining_revenue_rate(20000.0, 130.0) == pytest.approx(153.8461538, abs=1e-6)


def test_revenue_rate_rejects_bad_intensity():
    with pytest.raises(InvalidInputError):
        mining_revenue_rate(100.0, 0.0)
    with pytest.raises(InvalidInputError):
        mining_revenue_rate(100.0, -3.0)


def test_net_reward():
    assert net_reward(200.0, 50.0) == 150.0
    assert net_reward(200.0, 200.0) == 0.0
    assert net_reward(mining_revenue_rate(20000.0, 130.0), 60.0) == pytest.approx(
        93.8461538, abs=1e-6
    )


def test_net_reward_composes_with_revenue_rate(rng):
    for _ in range(50):
        p = float(rng.uniform(0.0, 50000.0))
        e = float(rng.uniform(1.0, 500.0))
        assert net_reward(mining_revenue_rate(p, e), 0.0) == p / e


def test_canonicalize_sorts_ascending():
    fleet = canonicalize(
        [
            MachineType("a", 100.0, reward=150.0),
            MachineType("b", 150.0, reward=94.0),
        ]
    )
    assert [m.reward for m in fleet.machines] == [94.0, 150.0]
    assert [m.capacity_mw for m in fleet.machines] == [150.0, 100.0]
    assert fleet.total_capacity_mw == 250.0


def test_canonicalize_merges_equal_rewards():
    fleet = canonicalize(
        [MachineType("a", 100.0, reward=5.0), MachineType("b", 50.0, reward=5.0)]
    )
    assert fleet.n_types == 1
    assert fleet.machines[0].capacity_mw == 150.0
    assert fleet.total_capacity_mw == 150.0


def test_canonicalize_single_machine_identity():
    fleet = canonicalize([MachineType("solo", 42.0, reward=7.0)])
    assert fleet.n_types == 1
    assert fleet.total_capacity_mw == 42.0


def test_canonicalize_idempotent(rng):
    for _ in range(100):
        k = int(rng.integers(1, 6))
        machines = [
            MachineType(f"m{i}", float(rng.uniform(0, 100)), reward=float(rng.choice([1.0, 2.5, 7.0, rng.uniform(0, 200)])))
            for i in range(k)
        ]
        once = canonicalize(machines)
        twice = canonicalize(once.machines)
        assert [m.reward for m in once.machines] == [m.reward for m in twice.machines]
        assert [m.capacity_mw for m in once.machines] == [m.capacity_mw for m in twice.machines]
        assert once.total_capacity_mw == twice.total_capacity_mw


def test_canonicalize_strictly_increasing_and_exact_total(rng):
    for _ in range(100):
        k = int(rng.integers(1, 7))
        caps = rng.uniform(0.0, 300.0, k)
        rewards = rng.uniform(0.0, 200.0, k)
        fleet = canonicalize(
            [MachineType(f"m{i}", float(c), reward=float(r)) for i, (c, r) in enumerate(zip(caps, rewards))]
        )
        rs = [m.reward for m in fleet.machines]
        assert all(a < b for a, b in zip(rs, rs[1:]))
        assert fleet.total_capacity_mw == pytest.approx(math.fsum(caps), rel=0, abs=1e-9)


def test_canonicalize_rejects_empty_and_negative_reward():
    with pytest.raises(InvalidInputError):
        canonicalize([])
    with pytest.raises(ModelViolationError):
        canonicalize([MachineType("bad", 10.0, reward=-1.0)])
    with pytest.raises(InvalidInputError):
        canonicalize([MachineType("none", 10.0)])


def test_machine_validation():
    with pytest.raises(InvalidInputError):
        MachineType("neg", -1.0)
    with pytest.raises(InvalidInputError):
        MachineType("bad", 1.0, energy_intensity=-2.0)


def test_prefix_costs(two_type_fleet):
    np.testing.assert_allclose(two_type_fleet.prefix_costs, [0.0, (94.0 - 150.0) * 150.0])
    np.testing.assert_allclose(two_type_fleet.cum_capacities, [150.0, 250.0])


def numpy_tables(fleet):
    """The fleet tables as numpy expressions: the lazily built tables of earlier versions."""
    r = np.array([m.reward for m in fleet.machines], dtype=float)
    cap = np.array([m.capacity_mw for m in fleet.machines], dtype=float)
    cum = np.cumsum(cap)
    rc = np.concatenate(([0.0], np.cumsum(r * cap)[:-1]))
    cc = np.concatenate(([0.0], cum[:-1]))
    return {"rewards": r, "capacities": cap, "cum_capacities": cum, "prefix_costs": rc - r * cc}


def test_tables_match_numpy_expressions_bit_for_bit(rng):
    fleets = []
    for _ in range(300):
        k = int(rng.integers(1, 8))
        # few distinct rewards, so canonicalize merges ties; some zero capacities
        rewards = rng.choice([3.0, 94.0, 150.0, *rng.uniform(0.0, 200.0, 3)], k)
        caps = np.where(rng.random(k) < 0.2, 0.0, rng.uniform(0.0, 300.0, k) * rng.choice([1e-3, 1.0, 1e4], k))
        fleets.append(canonicalize(MachineType(f"m{i}", c, reward=r) for i, (c, r) in enumerate(zip(caps, rewards))))
    # built directly, as the regulation tests do: equal rewards and a zero capacity kept apart
    fleets.append(FleetSpec((MachineType("a", 150.0, reward=120.0), MachineType("b", 100.0, reward=120.0)), 250.0))
    fleets.append(FleetSpec((MachineType("a", 0.0, reward=7.5), MachineType("b", 80.0, reward=20)), 80.0))
    assert any("+" in m.id for f in fleets for m in f.machines)  # merged ties
    assert any(m.capacity_mw == 0.0 for f in fleets[:-2] for m in f.machines)
    stack = fleet_stack_of(fleets)
    for f, fleet in enumerate(fleets):
        for name, expected in numpy_tables(fleet).items():
            table = getattr(fleet, name)
            assert table.dtype == np.float64 and table.shape == (fleet.n_types,), name
            assert table.tobytes() == expected.tobytes(), name
            assert not table.flags.writeable, name
            with pytest.raises(ValueError):
                table[0] = 1.0
            # a stack row holds the same tables, padded past the fleet's own types
            assert getattr(stack, name)[f, : fleet.n_types].tobytes() == expected.tobytes(), name


def test_load_fleet_config(tmp_path):
    path = tmp_path / "fleet.json"
    path.write_text(
        '[{"id": "new", "capacity_mw": 100, "energy_intensity_mwh_per_coin": 110},'
        ' {"id": "old", "capacity_mw": 150, "energy_intensity_mwh_per_coin": 130}]'
    )
    machines = load_fleet_config(path)
    assert [m.id for m in machines] == ["new", "old"]
    assert machines[0].energy_intensity == 110.0
    assert machines[0].reward is None


def test_load_fleet_config_rejects_missing_fields(tmp_path):
    path = tmp_path / "fleet.json"
    path.write_text('[{"id": "x"}]')
    with pytest.raises(InvalidInputError):
        load_fleet_config(path)
    path.write_text("[]")
    with pytest.raises(InvalidInputError):
        load_fleet_config(path)
