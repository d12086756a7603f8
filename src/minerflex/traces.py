"""Market trace ingestion, synthesis, and program statistics.

Two CSV layouts mirror the upstream market sources: a market file with
``timestamp,rt_price,coin_price`` rows and a long-format ancillary-service
file with ``timestamp,program_id,price,epsilon`` rows (epsilon may be
blank when a deployment observation is missing). The files join on
timestamp into one :class:`Traces` table with one row per hourly slot.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Sequence

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


@dataclass(frozen=True, eq=False)
class Traces:
    """Hourly market observations as columns: row t is one slot, column i program ``program_ids[i]``.

    ``rt_price`` and ``coin_price`` are ``(T,)``; ``as_prices`` and
    ``deployment`` are ``(T, P)``. ``deployment`` is ``nan`` where a cell
    was not observed (the loader rejects non-finite rates, so ``nan`` only
    ever means missing).
    """

    timestamps: tuple[datetime, ...]
    rt_price: np.ndarray
    coin_price: np.ndarray
    program_ids: tuple[str, ...]
    as_prices: np.ndarray
    deployment: np.ndarray

    def __post_init__(self):
        T, P = len(self.timestamps), len(self.program_ids)
        rows, cells = {self.rt_price.shape, self.coin_price.shape}, {self.as_prices.shape, self.deployment.shape}
        if rows != {(T,)} or cells != {(T, P)}:
            raise InvalidInputError(f"trace columns need {T} rows and {P} program columns")

    def __len__(self) -> int:
        return len(self.timestamps)

    def take(self, rows) -> "Traces":
        """The slots at integer indices ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        return Traces(
            tuple(self.timestamps[t] for t in rows), self.rt_price[rows], self.coin_price[rows],
            self.program_ids, self.as_prices[rows], self.deployment[rows],
        )

    def columns(self, programs: Sequence[ProgramSpec]) -> list[int]:
        """The column of each configured program, matched by id."""
        idx = {pid: i for i, pid in enumerate(self.program_ids)}
        for p in programs:
            if p.id not in idx:
                raise InvalidInputError(f"traces have no program {p.id!r}")
        return [idx[p.id] for p in programs]


def parse_timestamp(raw: str) -> datetime:
    """UTC datetime from ISO-8601 text; a trailing ``Z`` or no zone means UTC."""
    ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:  # e.g. 9999-12-31T23:00-05:00 falls past year 9999 in UTC
        raise ValueError(f"{raw!r} is out of range in UTC") from None


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


def format_timestamp(ts: datetime) -> str:
    """UTC ISO-8601 text that :func:`parse_timestamp` reads back to ``ts``.

    The year has four digits, and microseconds appear only when non-zero.
    """
    return ts.astimezone(timezone.utc).replace(tzinfo=None).isoformat() + "Z"


def _read_rows(path, header: list[str]):
    """(line, fields) of each non-blank row under ``header``; read, decode and csv errors name the file."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            got = next(reader, None)
            if got != header:
                raise TraceFormatError(path, 1, f"expected header {header}, got {got}")
            for line, row in enumerate(reader, start=2):
                if row:
                    if len(row) != len(header):
                        raise TraceFormatError(path, line, f"expected {len(header)} fields, got {len(row)}")
                    yield line, row
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # the caller's own errors never reach here
        raise TraceFormatError(path, 0, f"cannot read trace file ({exc})") from None


def load_traces(market_path, as_path, program_ids: Sequence[str] | None = None) -> Traces:
    """Read and join the market and ancillary-service CSV files.

    Every market timestamp must carry a price row for every program; rows
    at other timestamps are ignored. Slots come back in timestamp order; an
    out-of-order file triggers a warning and gets sorted.
    """
    market: dict[datetime, tuple[float, float]] = {}
    # both files repeat the market timestamps: parse each distinct string once
    parsed: dict[str, datetime] = {}
    prev = None
    for line, row in _read_rows(market_path, MARKET_HEADER):
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

    as_rows: dict[tuple[datetime, str], tuple[float, float]] = {}
    for line, row in _read_rows(as_path, AS_HEADER):
        key = (_parse_timestamp(row[0], as_path, line, parsed), row[1])
        price = _parse_price(row[2], "price", as_path, line)
        eps = math.nan
        if row[3] != "":
            eps = _parse_price(row[3], "epsilon", as_path, line)
            if not 0.0 <= eps <= 1.0:
                raise TraceFormatError(as_path, line, f"epsilon must be in [0,1], got {row[3]}")
        if key in as_rows:
            raise TraceFormatError(as_path, line, f"duplicate (timestamp, program) {row[:2]}")
        as_rows[key] = (price, eps)

    ids = tuple(program_ids) if program_ids is not None else tuple(sorted({pid for _, pid in as_rows}))
    stamps = sorted(market)
    cells = []
    for ts in stamps:
        cells.append(market[ts])
        for pid in ids:
            if (ts, pid) not in as_rows:
                raise TraceFormatError(as_path, 0, f"missing program {pid!r} at {format_timestamp(ts)}")
            cells.append(as_rows[ts, pid])
    # one (T, 1 + P, 2) table: each slot's (rt, coin) pair, then its (price, eps) per program
    table = np.array(cells, dtype=float).reshape(len(stamps), 1 + len(ids), 2)
    rt, coin = np.ascontiguousarray(table[:, 0].T)
    as_prices, deployment = np.ascontiguousarray(table[:, 1:].transpose(2, 0, 1))
    return Traces(tuple(stamps), rt, coin, ids, as_prices, deployment)


def write_traces(traces: Traces, market_path, as_path):
    """Write the two-file CSV representation; floats keep full precision."""
    if not len(traces):
        raise InvalidInputError("cannot write empty traces")
    stamps = [format_timestamp(ts) for ts in traces.timestamps]
    with open(market_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MARKET_HEADER)
        for ts, rt, coin in zip(stamps, traces.rt_price.tolist(), traces.coin_price.tolist()):
            writer.writerow([ts, repr(rt), repr(coin)])
    with open(as_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(AS_HEADER)
        for ts, prices, deps in zip(stamps, traces.as_prices.tolist(), traces.deployment.tolist()):
            for pid, price, eps in zip(traces.program_ids, prices, deps):
                writer.writerow([ts, pid, repr(price), "" if math.isnan(eps) else repr(eps)])


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


def synthesize_traces(spec: SynthesisSpec, seed: int) -> Traces:
    """Deterministic synthetic trace: one slot per hour from ``spec.start``.

    Regulation pairs named in the joint block draw through the mixed
    reg-up/down model; price-responsive programs derive their deployment
    from the drawn real-time price.
    """
    rng = np.random.default_rng(seed)
    joint = spec.joint
    paired = list(joint[:2]) if joint else []
    timestamps = tuple(spec.start + timedelta(hours=h) for h in range(spec.hours))
    rt, coin = np.empty(spec.hours), np.empty(spec.hours)
    as_prices = np.empty((spec.hours, len(spec.programs)))
    deployment = np.empty_like(as_prices)
    for h, ts in enumerate(timestamps):
        hour = ts.hour
        rt[h] = spec.rt_price.draw(rng, hour)
        coin[h] = spec.coin_price.draw(rng, hour)
        as_prices[h] = [p.price.draw(rng, hour) for p in spec.programs]
        if joint:
            deployment[h, paired] = sample_joint(joint[2], rng)
        for i, p in enumerate(spec.programs):
            if i in paired:
                continue
            if isinstance(p.eps_model, PriceResponsiveModel):
                deployment[h, i] = price_responsive_eps(p.eps_model, rt[h])
            else:
                deployment[h, i] = p.eps_model.sample(rng)
    return Traces(timestamps, rt, coin, tuple(p.id for p in spec.programs), as_prices, deployment)


# ── Statistics and per-slot model building ──────────────────────────────


def estimate_stats(traces: Traces, program_index: int) -> ProgramStats:
    """Sample mean/unbiased variance of a program's observed deployment."""
    column = traces.deployment[:, program_index]
    arr = column[~np.isnan(column)]
    if arr.size < 2:
        raise InvalidInputError(
            f"need at least 2 deployment observations for program {program_index}, got {arr.size}"
        )
    n = arr.size
    return ProgramStats(
        price=float(traces.as_prices[:, program_index].mean()),
        mean_eps=float(arr.mean()),
        var_eps=float(arr.var(ddof=1)),
        var_slack=1.0 / (n - 1),
    )


def per_slot_rewards(
    traces: Traces,
    t: int,
    fleet_config: Sequence[MachineType],
    clamp_negative: bool = False,
) -> FleetSpec:
    """Canonical fleet for slot t from coin economics and the RT price."""
    coin, rt = float(traces.coin_price[t]), float(traces.rt_price[t])
    machines = []
    for m in fleet_config:
        if m.energy_intensity is None:
            raise InvalidInputError(f"machine {m.id!r} has no energy_intensity")
        r = net_reward(mining_revenue_rate(coin, m.energy_intensity), rt)
        if r < 0:
            if not clamp_negative:
                raise ModelViolationError(
                    f"machine {m.id!r} has negative net reward {r:.3f} at "
                    f"{format_timestamp(traces.timestamps[t])}; pass clamp_negative to floor at 0"
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


def programs_for_record(
    traces: Traces, t: int, base_programs: Sequence[ProgramSpec]
) -> list[ProgramSpec]:
    """Bind slot t's prices onto configured program specs."""
    return [
        ProgramSpec(id=p.id, price=float(traces.as_prices[t, i]), direction=p.direction)
        for p, i in zip(base_programs, traces.columns(base_programs))
    ]


def deployment_for(
    traces: Traces, t: int, programs: Sequence[ProgramSpec]
) -> tuple[np.ndarray, np.ndarray]:
    """(eps with zeros at holes, boolean missing mask) of the configured programs at slot t.

    Columns follow the programs' order, matched by id like the prices of
    :func:`programs_for_record`.
    """
    deps = traces.deployment[t, traces.columns(programs)]
    missing = np.isnan(deps)
    return np.where(missing, 0.0, deps), missing


def reward_matrix(traces: Traces, fleet_config, clamp_negative=False) -> np.ndarray:
    """(T, M) rewards of the configured machines; the float ops and errors of :func:`per_slot_rewards`."""
    no_intensity = np.array([m.energy_intensity is None for m in fleet_config])
    intensity = np.array([m.energy_intensity for m in fleet_config], dtype=float)  # None -> nan
    rewards = traces.coin_price[:, None] / intensity - traces.rt_price[:, None]
    bad = no_intensity | (traces.coin_price < 0.0)[:, None] | ((rewards < 0.0) & (not clamp_negative))
    if bad.any():  # exactly where the scalar path raises: let it raise its own error
        per_slot_rewards(traces, int(np.argmax(bad.any(axis=1))), fleet_config, clamp_negative)
    return np.where(rewards < 0.0, 0.0, rewards) if clamp_negative else rewards


def slot_batch(traces: Traces, fleet_config, programs, clamp_negative=False) -> SlotBatch:
    """One row per slot; costs and errors equal those of the per-slot scalar path.

    Each row is :func:`canonicalize` without the merge: machines in (reward,
    id) order, each exact tie summing its capacities in that order onto its
    last member and zeroing the rest, which changes no cost.
    """
    if not len(traces):
        raise InvalidInputError("traces are empty")
    cols = traces.columns(programs)
    rewards = reward_matrix(traces, fleet_config, clamp_negative)
    id_rank = np.unique([m.id for m in fleet_config], return_inverse=True)[1]
    order = np.lexsort((np.broadcast_to(id_rank, rewards.shape), rewards))
    rewards = np.take_along_axis(rewards, order, axis=1)
    capacities = np.array([m.capacity_mw for m in fleet_config], dtype=float)[order]
    for j in range(1, rewards.shape[1]):
        tie = rewards[:, j] == rewards[:, j - 1]
        capacities[tie, j], capacities[tie, j - 1] = capacities[tie, j - 1] + capacities[tie, j], 0.0
    prices = traces.as_prices[:, cols]
    if (prices < 0.0).any():  # the scalar path raises the program's own error
        programs_for_record(traces, int(np.argmax((prices < 0.0).any(axis=1))), programs)
    deployment = traces.deployment[:, cols]
    missing = np.isnan(deployment)
    down = np.broadcast_to([p.direction == "down" for p in programs], missing.shape)
    return SlotBatch.from_arrays(rewards, capacities, prices, np.where(missing, 0.0, deployment), down, missing)
