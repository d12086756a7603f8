"""Machine fleets and per-unit mining economics.

A fleet is a list of machine types, each with a capacity (MW) and a net
mining reward (dollars per MWh of electricity routed to it). Rewards come
from coin economics: coin revenue per MWh minus the electricity price.
Downstream solvers require the canonical form produced by
:func:`canonicalize` (rewards strictly ascending, equal-reward types
merged).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .config import at_least, finite, load_config
from .errors import InvalidInputError, ModelViolationError, NumericalError


@dataclass(frozen=True)
class MachineType:
    """One homogeneous group of mining machines.

    ``energy_intensity`` is MWh consumed per coin mined; it may be omitted
    when ``reward`` is supplied directly. ``reward`` is the net mining
    reward in $/MWh and is usually derived per timeslot from coin and
    electricity prices.
    """

    id: str
    capacity_mw: float
    energy_intensity: float | None = None
    reward: float | None = None

    def __post_init__(self):
        at_least(self.capacity_mw, f"machine {self.id!r}: capacity_mw")
        if self.energy_intensity is not None:
            at_least(self.energy_intensity, f"machine {self.id!r}: energy_intensity", strict=True)


@dataclass(frozen=True)
class FleetSpec:
    """Canonical fleet: machines sorted by strictly ascending reward.

    Build via :func:`canonicalize`; the constructor trusts its inputs. The
    read-only per-type tables ``rewards``, ``capacities``, ``cum_capacities``
    and ``prefix_costs`` (see :func:`fleet_tables`) are built on construction.
    Instances are immutable and safe to share across threads.
    """

    machines: tuple[MachineType, ...]
    total_capacity_mw: float

    def __post_init__(self):
        rewards = [float(m.reward) for m in self.machines]
        capacities = [float(m.capacity_mw) for m in self.machines]
        cum, prefix = fleet_tables(rewards, capacities)
        for name, table in (
            ("rewards", rewards), ("capacities", capacities), ("cum_capacities", cum), ("prefix_costs", prefix)
        ):
            arr = np.array(table, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_types(self) -> int:
        return len(self.machines)


def fleet_tables(rewards, capacities) -> tuple[list, list]:
    """Cumulative capacities and prefix costs of machine types in ascending reward order.

    ``rewards`` and ``capacities`` hold one entry per type: floats for one fleet,
    or for a stack of F fleets one length-F column per type. The tables are

        cum[q] = cap_0 + ... + cap_q
        prefix[q] = sum_{k<q} r_k cap_k - r_q sum_{k<q} cap_k = sum_{k<q} (r_k - r_q) cap_k,

    the constant part of the realized cost when type q is the one partially
    deployed (types below q run at zero, so their reward differential against
    r_q is sunk). Both sums run type by type, which is the float arithmetic of a
    ``cumsum`` along the types.
    """
    cum = list(accumulate(capacities))
    paid = [0.0, *accumulate(r * cap for r, cap in zip(rewards, capacities))]
    below = [0.0, *cum]
    return cum, [rc - r * cc for rc, r, cc in zip(paid, rewards, below)]


def mining_revenue_rate(coin_price: float, energy_intensity: float) -> float:
    """Coin revenue per MWh: coin price ($/coin) over intensity (MWh/coin)."""
    return at_least(coin_price, "coin_price") / at_least(energy_intensity, "energy_intensity", strict=True)


def net_reward(revenue_rate: float, electricity_price: float) -> float:
    """Net mining reward in $/MWh; may be negative, callers decide policy."""
    return revenue_rate - electricity_price


def canonicalize(machines: Iterable[MachineType]) -> FleetSpec:
    """Sort machine types by ascending reward and merge exact ties.

    Raises ``InvalidInputError`` on an empty fleet or a missing or NaN reward,
    ``ModelViolationError`` on any negative reward (the deployment model
    assumes mining is never run at a loss) and ``NumericalError`` where tied
    capacities sum past the largest double. An infinite reward passes.
    """
    machines = list(machines)
    if not machines:
        raise InvalidInputError("cannot canonicalize an empty fleet")
    for m in machines:
        if m.reward is None or math.isnan(m.reward):
            raise InvalidInputError(f"machine {m.id!r} has no reward computed, got {m.reward}")
        if m.reward < 0:
            raise ModelViolationError(
                f"machine {m.id!r} has negative net reward {m.reward}; "
                "the model assumes r_k >= 0 (clamp upstream for dirty data)"
            )

    merged: list[MachineType] = []
    for m in sorted(machines, key=lambda m: (m.reward, m.id)):
        if merged and merged[-1].reward == m.reward:
            prev = merged[-1]
            same_intensity = prev.energy_intensity == m.energy_intensity
            if (capacity := prev.capacity_mw + m.capacity_mw) == math.inf:  # each is finite: the sum overflowed
                raise NumericalError(f"tied machines {prev.id!r} and {m.id!r}: capacities overflow: {prev.capacity_mw} + {m.capacity_mw} MW")
            merged[-1] = MachineType(
                id=f"{prev.id}+{m.id}",
                capacity_mw=capacity,
                energy_intensity=prev.energy_intensity if same_intensity else None,
                reward=prev.reward,
            )
        else:
            merged.append(m)

    total = math.fsum(m.capacity_mw for m in merged)
    return FleetSpec(machines=tuple(merged), total_capacity_mw=total)


def load_fleet_config(path) -> list[MachineType]:
    """Read a fleet config: a JSON list of machine descriptions (see :func:`parse_machines`)."""
    return load_config(path, _parse_fleet)


def _parse_fleet(raw) -> list[MachineType]:
    if isinstance(raw, dict):
        raw = raw.get("machines", raw)
    return parse_machines(raw)


def parse_machines(raw) -> list[MachineType]:
    """Machine types from a decoded JSON list of machine descriptions.

    Each entry needs ``id``, ``capacity_mw`` and either
    ``energy_intensity_mwh_per_coin`` (rewards computed per slot from
    traces) or an explicit ``reward`` for parametric runs.
    """
    if not isinstance(raw, list) or not raw:
        raise InvalidInputError("expected a non-empty list of machines")
    out = []
    for i, entry in enumerate(raw):
        try:
            out.append(
                MachineType(
                    id=str(entry["id"]),
                    capacity_mw=finite(entry["capacity_mw"], f"machine #{i}: capacity_mw"),
                    energy_intensity=(
                        finite(entry["energy_intensity_mwh_per_coin"], f"machine #{i}: energy_intensity_mwh_per_coin")
                        if "energy_intensity_mwh_per_coin" in entry
                        else None
                    ),
                    reward=finite(entry["reward"], f"machine #{i}: reward") if "reward" in entry else None,
                )
            )
            if out[-1].id in {m.id for m in out[:-1]}:
                raise InvalidInputError(f"duplicate machine id {out[-1].id!r}")
        except KeyError as exc:
            raise InvalidInputError(f"machine #{i} missing field {exc}") from None
    return out


def fleet_from_rewards(
    capacities: Sequence[float], rewards: Sequence[float], ids: Sequence[str] | None = None
) -> FleetSpec:
    """Convenience constructor used heavily in tests and oracles."""
    if ids is None:
        ids = [f"m{i}" for i in range(len(capacities))]
    machines = [
        MachineType(id=i, capacity_mw=c, reward=r)
        for i, c, r in zip(ids, capacities, rewards)
    ]
    return canonicalize(machines)
