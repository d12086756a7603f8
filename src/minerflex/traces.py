"""Market trace ingestion, synthesis, and program statistics.

Two CSV layouts mirror the upstream market sources: a market file with
``timestamp,rt_price,coin_price`` rows and a long-format ancillary-service
file with ``timestamp,program_id,price,epsilon`` rows (epsilon may be
blank when a deployment observation is missing). Records join on timestamp
and one record is one hourly slot.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Optional, Sequence

import numpy as np

from .config import load_config
from .deployment import SlotBatch
from .errors import InvalidInputError, ModelViolationError, TraceFormatError
from .fleet import FleetSpec, MachineType, canonicalize, mining_revenue_rate, net_reward
from .programs import PriceResponsiveModel, ProgramSpec, parse_eps_model, price_responsive_eps
from .regulation import joint_pair, sample_joint
from .single_machine import ProgramStats

MARKET_HEADER = ["timestamp", "rt_price", "coin_price"]
AS_HEADER = ["timestamp", "program_id", "price", "epsilon"]


@dataclass(frozen=True)
class TraceRecord:
    """One hourly market observation across all configured programs."""

    timestamp: datetime
    rt_price: float
    coin_price: float
    program_ids: tuple[str, ...]
    as_prices: tuple[float, ...]
    deployment: tuple[Optional[float], ...]


def parse_timestamp(raw: str) -> datetime:
    """UTC datetime from ISO-8601 text; a trailing ``Z`` or no zone means UTC."""
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _parse_timestamp(raw: str, path, line: int, parsed: dict[str, datetime]) -> datetime:
    """:func:`parse_timestamp` memoized in ``parsed``; a bad string names its own file and line."""
    ts = parsed.get(raw)
    if ts is None:
        try:
            ts = parsed[raw] = parse_timestamp(raw)
        except ValueError:
            raise TraceFormatError(path, line, f"bad timestamp {raw!r}") from None
    return ts


def _parse_price(raw: str, field: str, path, line: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise TraceFormatError(path, line, f"bad {field} {raw!r}") from None
    if not math.isfinite(value):
        raise TraceFormatError(path, line, f"{field} must be finite, got {raw!r}")
    return value


def _format_ts(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def load_traces(market_path, as_path, program_ids: Sequence[str] | None = None) -> list[TraceRecord]:
    """Read and join the market and ancillary-service CSV files.

    Every market timestamp must carry a price row for every program.
    Records come back in timestamp order; an out-of-order file triggers a
    warning and gets sorted.
    """
    market: dict[datetime, tuple[float, float]] = {}
    # both files repeat the market timestamps: parse each distinct string once
    parsed: dict[str, datetime] = {}
    with open(market_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MARKET_HEADER:
            raise TraceFormatError(market_path, 1, f"expected header {MARKET_HEADER}, got {header}")
        prev = None
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise TraceFormatError(market_path, line, f"expected 3 fields, got {len(row)}")
            ts = _parse_timestamp(row[0], market_path, line, parsed)
            if ts in market:
                raise TraceFormatError(market_path, line, f"duplicate timestamp {row[0]}")
            if prev is not None and ts < prev:
                warnings.warn(f"{market_path}:{line}: timestamps out of order; sorting")
            prev = ts
            market[ts] = (
                _parse_price(row[1], "rt_price", market_path, line),
                _parse_price(row[2], "coin_price", market_path, line),
            )

    as_rows: dict[tuple[datetime, str], tuple[float, Optional[float]]] = {}
    seen_ids: list[str] = []
    with open(as_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != AS_HEADER:
            raise TraceFormatError(as_path, 1, f"expected header {AS_HEADER}, got {header}")
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise TraceFormatError(as_path, line, f"expected 4 fields, got {len(row)}")
            ts = _parse_timestamp(row[0], as_path, line, parsed)
            pid = row[1]
            if pid not in seen_ids:
                seen_ids.append(pid)
            price = _parse_price(row[2], "price", as_path, line)
            eps: Optional[float] = None
            if row[3] != "":
                eps = _parse_price(row[3], "epsilon", as_path, line)
                if not 0.0 <= eps <= 1.0:
                    raise TraceFormatError(
                        as_path, line, f"epsilon must be in [0,1], got {row[3]}"
                    )
            key = (ts, pid)
            if key in as_rows:
                raise TraceFormatError(as_path, line, f"duplicate (timestamp, program) {row[:2]}")
            as_rows[key] = (price, eps)

    ids = tuple(program_ids) if program_ids is not None else tuple(sorted(seen_ids))
    records = []
    for ts in sorted(market):
        rt, coin = market[ts]
        prices, deps = [], []
        for pid in ids:
            if (ts, pid) not in as_rows:
                raise TraceFormatError(
                    as_path, 0, f"missing program {pid!r} at {_format_ts(ts)}"
                )
            price, eps = as_rows[(ts, pid)]
            prices.append(price)
            deps.append(eps)
        records.append(
            TraceRecord(
                timestamp=ts,
                rt_price=rt,
                coin_price=coin,
                program_ids=ids,
                as_prices=tuple(prices),
                deployment=tuple(deps),
            )
        )
    return records


def write_traces(records: Sequence[TraceRecord], market_path, as_path):
    """Write the two-file CSV representation; floats keep full precision."""
    if not records:
        raise InvalidInputError("cannot write an empty record list")
    if any(r.program_ids != records[0].program_ids for r in records):
        raise InvalidInputError("all records must share the same program ids")
    with open(market_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MARKET_HEADER)
        for rec in records:
            writer.writerow([_format_ts(rec.timestamp), repr(rec.rt_price), repr(rec.coin_price)])
    with open(as_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AS_HEADER)
        for rec in records:
            for pid, price, eps in zip(rec.program_ids, rec.as_prices, rec.deployment):
                writer.writerow(
                    [_format_ts(rec.timestamp), pid, repr(price), "" if eps is None else repr(eps)]
                )


# ── Synthesis ────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class PriceBlock:
    """Clipped-normal hourly price model: mean varies by hour of day."""

    hourly_mean: tuple[float, ...]
    sd: float = 0.0
    lo: float = 0.0
    hi: float = math.inf

    @classmethod
    def from_config(cls, cfg: dict, name: str) -> "PriceBlock":
        if "hourly_mean" in cfg:
            means = tuple(float(x) for x in cfg["hourly_mean"])
            if len(means) != 24:
                raise InvalidInputError(f"{name}: hourly_mean needs 24 entries")
        elif "mean" in cfg:
            means = (float(cfg["mean"]),) * 24
        else:
            raise InvalidInputError(f"{name}: need 'mean' or 'hourly_mean'")
        return cls(
            hourly_mean=means,
            sd=float(cfg.get("sd", 0.0)),
            lo=float(cfg.get("min", 0.0)),
            hi=float(cfg.get("max", math.inf)),
        )

    def draw(self, rng: np.random.Generator, hour: int) -> float:
        # Always consume a draw so the stream layout is sd-independent.
        x = float(rng.normal(self.hourly_mean[hour], self.sd))
        return min(max(x, self.lo), self.hi)


@dataclass(frozen=True)
class SynthProgram:
    id: str
    direction: str
    price: PriceBlock
    eps_model: object


@dataclass(frozen=True)
class SynthesisSpec:
    start: datetime
    hours: int
    coin_price: PriceBlock
    rt_price: PriceBlock
    programs: tuple[SynthProgram, ...]
    joint: tuple | None = None  # a checked regulation pair from regulation.joint_pair

    def __post_init__(self):
        if self.hours < 1:
            raise InvalidInputError(f"synthesis needs at least one hour, got {self.hours}")


def load_synthesis_spec(path) -> SynthesisSpec:
    return load_config(path, _parse_synthesis_spec)


def _parse_synthesis_spec(cfg: dict) -> SynthesisSpec:
    """Synthesis spec from its decoded JSON (see ``configs/synthesis_week.json``)."""
    programs = []
    for p in cfg["programs"]:
        programs.append(
            SynthProgram(
                id=str(p["id"]),
                direction=str(p.get("direction", "up")),
                price=PriceBlock.from_config(p["price"], f"program {p['id']}"),
                eps_model=parse_eps_model(p["eps"]),
            )
        )
    joint = cfg.get("joint")
    return SynthesisSpec(
        start=parse_timestamp(cfg["start"]),
        hours=int(cfg["hours"]),
        coin_price=PriceBlock.from_config(cfg["coin_price"], "coin_price"),
        rt_price=PriceBlock.from_config(cfg["rt_price"], "rt_price"),
        programs=tuple(programs),
        joint=joint_pair(programs, float(joint["theta"]), str(joint["up"]), str(joint["down"])) if joint else None,
    )


def synthesize_traces(spec: SynthesisSpec, seed: int) -> list[TraceRecord]:
    """Deterministic synthetic trace: one record per hour from ``spec.start``.

    Regulation pairs named in the joint block draw through the mixed
    reg-up/down model; price-responsive programs derive their deployment
    from the drawn real-time price.
    """
    rng = np.random.default_rng(seed)
    joint = spec.joint

    records = []
    for h in range(spec.hours):
        ts = spec.start + timedelta(hours=h)
        hour = ts.hour
        rt = spec.rt_price.draw(rng, hour)
        coin = spec.coin_price.draw(rng, hour)
        prices = [p.price.draw(rng, hour) for p in spec.programs]
        eps: list[Optional[float]] = [None] * len(spec.programs)
        if joint is not None:
            e_up, e_dn = sample_joint(joint[2], rng)
            eps[joint[0]] = float(e_up)
            eps[joint[1]] = float(e_dn)
        for i, p in enumerate(spec.programs):
            if eps[i] is not None:
                continue
            if isinstance(p.eps_model, PriceResponsiveModel):
                eps[i] = price_responsive_eps(p.eps_model, rt)
            else:
                eps[i] = float(p.eps_model.sample(rng))
        records.append(
            TraceRecord(
                timestamp=ts,
                rt_price=rt,
                coin_price=coin,
                program_ids=tuple(p.id for p in spec.programs),
                as_prices=tuple(prices),
                deployment=tuple(eps),
            )
        )
    return records


# ── Statistics and per-slot model building ──────────────────────────────


def estimate_stats(records: Sequence[TraceRecord], program_index: int) -> ProgramStats:
    """Sample mean/unbiased variance of a program's observed deployment."""
    eps = [
        r.deployment[program_index]
        for r in records
        if r.deployment[program_index] is not None
    ]
    if len(eps) < 2:
        raise InvalidInputError(
            f"need at least 2 deployment observations for program {program_index}, got {len(eps)}"
        )
    arr = np.array(eps)
    prices = np.array([r.as_prices[program_index] for r in records])
    n = arr.size
    return ProgramStats(
        price=float(prices.mean()),
        mean_eps=float(arr.mean()),
        var_eps=float(arr.var(ddof=1)),
        var_slack=1.0 / (n - 1),
    )


def per_slot_rewards(
    record: TraceRecord,
    fleet_config: Sequence[MachineType],
    clamp_negative: bool = False,
) -> FleetSpec:
    """Canonical fleet for one slot from coin economics and the RT price."""
    machines = []
    for m in fleet_config:
        if m.energy_intensity is None:
            raise InvalidInputError(f"machine {m.id!r} has no energy_intensity")
        r = net_reward(
            mining_revenue_rate(record.coin_price, m.energy_intensity), record.rt_price
        )
        if r < 0:
            if not clamp_negative:
                raise ModelViolationError(
                    f"machine {m.id!r} has negative net reward {r:.3f} at "
                    f"{_format_ts(record.timestamp)}; pass clamp_negative to floor at 0"
                )
            r = 0.0
        machines.append(
            MachineType(
                id=m.id,
                capacity_mw=m.capacity_mw,
                energy_intensity=m.energy_intensity,
                reward=r,
            )
        )
    return canonicalize(machines)


def _columns(record: TraceRecord, programs: Sequence[ProgramSpec]) -> list[int]:
    """The record's column of each configured program, matched by id."""
    idx = {pid: i for i, pid in enumerate(record.program_ids)}
    for p in programs:
        if p.id not in idx:
            raise InvalidInputError(f"record has no program {p.id!r}")
    return [idx[p.id] for p in programs]


def programs_for_record(
    record: TraceRecord, base_programs: Sequence[ProgramSpec]
) -> list[ProgramSpec]:
    """Bind per-slot prices from a record onto configured program specs."""
    return [
        ProgramSpec(id=p.id, price=record.as_prices[i], direction=p.direction)
        for p, i in zip(base_programs, _columns(record, base_programs))
    ]


def deployment_for(
    record: TraceRecord, programs: Sequence[ProgramSpec]
) -> tuple[np.ndarray, np.ndarray]:
    """(eps with zeros at holes, boolean missing mask) of the configured programs.

    Columns follow the programs' order, matched by id like the prices of
    :func:`programs_for_record`.
    """
    deps = [record.deployment[i] for i in _columns(record, programs)]
    missing = np.array([d is None for d in deps])
    eps = np.array([0.0 if d is None else d for d in deps])
    return eps, missing


def reward_matrix(records: Sequence[TraceRecord], fleet_config, clamp_negative=False) -> np.ndarray:
    """(T, M) rewards of the configured machines; the float ops and errors of :func:`per_slot_rewards`."""
    no_intensity = np.array([m.energy_intensity is None for m in fleet_config])
    intensity = np.array([m.energy_intensity for m in fleet_config], dtype=float)  # None -> nan
    coin = np.array([r.coin_price for r in records], dtype=float)
    rewards = coin[:, None] / intensity - np.array([r.rt_price for r in records], dtype=float)[:, None]
    bad = no_intensity | (coin < 0.0)[:, None] | ((rewards < 0.0) & (not clamp_negative))
    if bad.any():  # exactly where the scalar path raises: let it raise its own error
        per_slot_rewards(records[int(np.argmax(bad.any(axis=1)))], fleet_config, clamp_negative)
    return np.where(rewards < 0.0, 0.0, rewards) if clamp_negative else rewards


def slot_batch(records: Sequence[TraceRecord], fleet_config, programs, clamp_negative=False) -> SlotBatch:
    """One row per record; costs and errors equal those of the per-record scalar path.

    Each row is :func:`canonicalize` without the merge: machines in (reward,
    id) order, each exact tie summing its capacities in that order onto its
    last member and zeroing the rest, which changes no cost.
    """
    if not records:
        raise InvalidInputError("traces are empty")
    if any(r.program_ids != records[0].program_ids for r in records):
        raise InvalidInputError("all records must share the same program ids")
    cols = _columns(records[0], programs)
    rewards = reward_matrix(records, fleet_config, clamp_negative)
    id_rank = np.unique([m.id for m in fleet_config], return_inverse=True)[1]
    order = np.lexsort((np.broadcast_to(id_rank, rewards.shape), rewards))
    rewards = np.take_along_axis(rewards, order, axis=1)
    capacities = np.array([m.capacity_mw for m in fleet_config], dtype=float)[order]
    for j in range(1, rewards.shape[1]):
        tie = rewards[:, j] == rewards[:, j - 1]
        capacities[tie, j], capacities[tie, j - 1] = capacities[tie, j - 1] + capacities[tie, j], 0.0
    prices = np.array([r.as_prices for r in records], dtype=float)[:, cols]
    if (prices < 0.0).any():  # the scalar path raises the program's own error
        programs_for_record(records[int(np.argmax((prices < 0.0).any(axis=1)))], programs)
    deployment = np.array([r.deployment for r in records], dtype=object)[:, cols]
    missing = deployment == None  # noqa: E711  (elementwise on an object array)
    raw_eps = np.where(missing, 0.0, deployment).astype(float)
    down = np.broadcast_to([p.direction == "down" for p in programs], missing.shape)
    return SlotBatch.from_arrays(rewards, capacities, prices, raw_eps, down, missing)
