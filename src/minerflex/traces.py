"""Market trace ingestion, synthesis, and program statistics.

Two CSV layouts mirror the upstream market sources: a market file with
``timestamp,rt_price,coin_price`` rows and a long-format ancillary-service
file with ``timestamp,program_id,price,epsilon`` rows (epsilon may be
blank when a deployment observation is missing). The files join on
timestamp into one :class:`Traces` table with one row per hourly slot.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import chain, compress, cycle, islice, repeat
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
# rows read and checked at a time; bounds the text held at once
CHUNK_ROWS = 4096


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


@contextmanager
def _csv_reader(path, header: list[str]):
    """A csv reader past ``header``; read, decode and csv errors in the block name the file."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            got = next(reader, None)
            if got != header:
                raise TraceFormatError(path, 1, f"expected header {header}, got {got}")
            yield reader
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # the block's own errors are none of these
        raise TraceFormatError(path, 0, f"cannot read trace file ({exc})") from None


def _read_chunks(path, header: list[str]):
    """(lines, rows) blocks of up to :data:`CHUNK_ROWS` csv records under ``header``, blank ones dropped."""
    with _csv_reader(path, header) as reader:
        line = 2
        while rows := list(islice(reader, CHUNK_ROWS)):
            lines = range(line, line + len(rows))
            line += len(rows)
            if not all(rows):
                lines = [n for n, row in zip(lines, rows) if row]
                rows = [row for row in rows if row]
            if rows:
                yield lines, rows


def _read_rows(path, header: list[str]):
    """(line, fields) of each non-blank row under ``header``; a wrong field count raises."""
    with _csv_reader(path, header) as reader:
        for line, row in enumerate(reader, start=2):
            if row:
                if len(row) != len(header):
                    raise TraceFormatError(path, line, f"expected {len(header)} fields, got {len(row)}")
                yield line, row


def _floats(column) -> np.ndarray:
    """A text column parsed by ``float()``'s own grammar; a bad entry raises ValueError."""
    return np.fromiter(map(float, column), float, len(column))


def _warn_disorder(path, line: int) -> None:
    warnings.warn(f"{path}:{line}: timestamps out of order; sorting")


def _market_columns(path, parsed: dict[str, datetime]):
    """(timestamps, rt_price, coin_price, out-of-order lines) in file order, or None if a row check fails."""
    stamps: list[datetime] = []
    rt, coin, disorder = [], [], []
    try:
        for lines, rows in _read_chunks(path, MARKET_HEADER):
            if set(map(len, rows)) != {len(MARKET_HEADER)}:
                return None
            raws, rt_text, coin_text = zip(*rows)
            try:
                block = list(map(parse_timestamp, raws))
                rt.append(_floats(rt_text))
                coin.append(_floats(coin_text))
            except ValueError:
                return None
            if not (np.isfinite(rt[-1]).all() and np.isfinite(coin[-1]).all()):
                return None
            parsed.update(zip(raws, block))
            # each stamp against the row before it (the file's first against itself)
            before = (stamps[-1:] or block[:1]) + block[:-1]
            disorder.extend(compress(lines, map(operator.lt, block, before)))
            stamps += block
    except TraceFormatError:  # unreadable: the row checks raise it after checking the rows before it
        return None
    if len(set(stamps)) != len(stamps):
        return None
    return stamps, _concat(rt), _concat(coin), disorder


def _raise_market_error(path, parsed: dict[str, datetime]):
    """Check the market file row by row: warn where it is out of order and raise at the first bad line."""
    seen, prev = set(), None
    for line, row in _read_rows(path, MARKET_HEADER):
        ts = _parse_timestamp(row[0], path, line, parsed)
        if ts in seen:
            raise TraceFormatError(path, line, f"duplicate timestamp {row[0]}")
        if prev is not None and ts < prev:
            _warn_disorder(path, line)
        seen.add(ts)
        prev = ts
        _parse_price(row[1], "rt_price", path, line)
        _parse_price(row[2], "coin_price", path, line)
    raise AssertionError(f"{path}: a column check failed where no row check does")


def _as_columns(path, parsed: dict[str, datetime], slot: dict[datetime, int], program: dict[str, int]):
    """Each row's (slot, program index, price, epsilon) as columns and the (slot, program) row counts.

    Rows at timestamps the market lacks get new slots after its own, and new
    program ids new indices. None if a row check fails or a cell repeats.
    """
    slot_of = {raw: slot[ts] for raw, ts in parsed.items()}
    slots, programs, prices, eps = [], [], [], []
    try:
        for _, rows in _read_chunks(path, AS_HEADER):
            if set(map(len, rows)) != {len(AS_HEADER)}:
                return None
            raws, ids, price_text, eps_text = zip(*rows)
            try:
                for raw in set(raws).difference(slot_of):
                    slot_of[raw] = slot.setdefault(parse_timestamp(raw), len(slot))
                prices.append(_floats(price_text))
                eps.append(_floats([text or "nan" for text in eps_text]))  # blank: not observed
            except ValueError:
                return None
            rates = eps[-1]
            if (
                not np.isfinite(prices[-1]).all()
                or np.count_nonzero(np.isnan(rates)) != eps_text.count("")
                or np.isinf(rates).any()
                or ((rates < 0.0) | (rates > 1.0)).any()
            ):
                return None
            for pid in sorted(set(ids).difference(program)):
                program[pid] = len(program)
            slots.append(np.fromiter(map(slot_of.__getitem__, raws), np.intp, len(raws)))
            programs.append(np.fromiter(map(program.__getitem__, ids), np.intp, len(ids)))
    except TraceFormatError:  # unreadable: the row checks raise it after checking the rows before it
        return None
    slots, programs = _concat(slots, np.intp), _concat(programs, np.intp)
    counts = np.bincount(slots * len(program) + programs, minlength=len(slot) * len(program))
    if counts.max(initial=0) > 1:  # a duplicate (timestamp, program) cell
        return None
    return slots, programs, _concat(prices), _concat(eps), counts.reshape(len(slot), len(program))


def _raise_as_error(path, parsed: dict[str, datetime]):
    """Check the ancillary-service file row by row and raise at the first bad line."""
    seen = set()
    for line, row in _read_rows(path, AS_HEADER):
        key = (_parse_timestamp(row[0], path, line, parsed), row[1])
        _parse_price(row[2], "price", path, line)
        if row[3] != "":
            eps = _parse_price(row[3], "epsilon", path, line)
            if not 0.0 <= eps <= 1.0:
                raise TraceFormatError(path, line, f"epsilon must be in [0,1], got {row[3]}")
        if key in seen:
            raise TraceFormatError(path, line, f"duplicate (timestamp, program) {row[:2]}")
        seen.add(key)
    raise AssertionError(f"{path}: a column check failed where no row check does")


def _concat(parts: list[np.ndarray], dtype=float) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype)


def load_traces(market_path, as_path, program_ids: Sequence[str] | None = None) -> Traces:
    """Read and join the market and ancillary-service CSV files.

    Every market timestamp must carry a price row for every program; rows
    at other timestamps are checked and then ignored. Slots come back in
    timestamp order; an out-of-order file triggers a warning and gets sorted.

    Each file is read :data:`CHUNK_ROWS` rows at a time and checked a column
    at a time. Where a check fails, the file is checked again row by row, so
    the error names the first bad line.
    """
    # both files repeat the market timestamps: parse each distinct string once
    parsed: dict[str, datetime] = {}
    market = _market_columns(market_path, parsed)
    if market is None:
        _raise_market_error(market_path, parsed)
    stamps, rt, coin, disorder = market
    for line in disorder:
        _warn_disorder(market_path, line)
    if disorder:
        order = sorted(range(len(stamps)), key=stamps.__getitem__)
        stamps = [stamps[i] for i in order]
        rt, coin = rt[order], coin[order]
    T = len(stamps)
    slot = dict(zip(stamps, range(T)))

    program: dict[str, int] = {}
    for pid in program_ids or ():
        program.setdefault(pid, len(program))
    cells = _as_columns(as_path, parsed, slot, program)
    if cells is None:
        _raise_as_error(as_path, parsed)
    slots, programs, prices, eps, counts = cells

    ids = tuple(program_ids) if program_ids is not None else tuple(sorted(program))
    columns = [program[pid] for pid in ids]
    missing = counts[:T, columns] == 0
    if missing.any():
        t, i = divmod(int(np.argmax(missing)), len(ids))
        raise TraceFormatError(as_path, 0, f"missing program {ids[i]!r} at {format_timestamp(stamps[t])}")
    market_rows = slots < T
    as_prices, deployment = np.empty((2, T, len(program)))
    as_prices[slots[market_rows], programs[market_rows]] = prices[market_rows]
    deployment[slots[market_rows], programs[market_rows]] = eps[market_rows]
    return Traces(tuple(stamps), rt, coin, ids, as_prices[:, columns], deployment[:, columns])


def write_traces(traces: Traces, market_path, as_path):
    """Write the two-file CSV representation; floats keep full precision.

    Each file is one ``writelines`` over its columns. Timestamps and float
    reprs never need csv quoting; each program id is quoted, where it must
    be, once by the csv writer.
    """
    if not len(traces):
        raise InvalidInputError("cannot write empty traces")
    stamps = list(map(format_timestamp, traces.timestamps))
    with open(market_path, "w", newline="") as fh:
        fh.write(",".join(MARKET_HEADER) + "\n")
        fh.writelines(map("{},{!r},{!r}\n".format, stamps, traces.rt_price.tolist(), traces.coin_price.tolist()))
    ids = list(map(_csv_field, traces.program_ids))
    rates = traces.deployment.ravel().tolist()
    with open(as_path, "w", newline="") as fh:
        fh.write(",".join(AS_HEADER) + "\n")
        fh.writelines(map(
            "{},{},{!r},{}\n".format,
            chain.from_iterable(map(repeat, stamps, repeat(len(ids)))),  # one row per (slot, program)
            cycle(ids),
            traces.as_prices.ravel().tolist(),
            ["" if math.isnan(eps) else repr(eps) for eps in rates],  # blank: not observed
        ))


def _csv_field(text: str) -> str:
    """``text`` as the csv writer writes it among other fields of a row."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([text, ""])
    return line.getvalue()[: -len(",\n")]


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
        sd, lo, hi = float(cfg.get("sd", 0.0)), float(cfg.get("min", 0.0)), float(cfg.get("max", math.inf))
        if sd < 0:
            raise InvalidInputError(f"{name}: sd must be >= 0, got {sd}")
        if lo > hi:
            raise InvalidInputError(f"{name}: min {lo} exceeds max {hi}")
        return cls(hourly_mean=means, sd=sd, lo=lo, hi=hi)


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
    # price columns: rt, coin, then each program's; one normal draw per column every hour,
    # even at sd 0, so the stream layout does not depend on the sds
    blocks = [spec.rt_price, spec.coin_price, *(p.price for p in spec.programs)]
    means = np.array([b.hourly_mean for b in blocks]).T
    sds, lo, hi = (np.array([getattr(b, f) for b in blocks]) for f in ("sd", "lo", "hi"))
    if (sds < 0.0).any():  # rng.normal's own check, which standard_normal does not make
        raise ValueError("scale < 0")
    unpaired = [(i, p.eps_model) for i, p in enumerate(spec.programs) if i not in paired]
    responsive = [(i, m) for i, m in unpaired if isinstance(m, PriceResponsiveModel)]  # set by rt, no draw
    sampled = [(i, m) for i, m in unpaired if not isinstance(m, PriceResponsiveModel)]
    z = np.empty((spec.hours, len(blocks)))
    deployment = np.empty((spec.hours, len(spec.programs)))
    for h in range(spec.hours):
        # the stream of one rng.normal(mean, sd) per column, in column order
        rng.standard_normal(out=z[h])
        if joint:
            deployment[h, paired] = sample_joint(joint[2], rng)
        for i, model in sampled:
            deployment[h, i] = model.sample(rng)
    prices = means[[ts.hour for ts in timestamps]] + sds * z  # normal's own loc + scale * z
    # min(max(x, lo), hi) as Python evaluates it, signed zeros included
    prices = np.where(lo > prices, lo, prices)
    prices = np.where(hi < prices, hi, prices)
    rt, coin = np.ascontiguousarray(prices[:, :2].T)
    for i, model in responsive:
        deployment[:, i] = [price_responsive_eps(model, r) for r in rt.tolist()]
    as_prices = np.ascontiguousarray(prices[:, 2:])
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
    return SlotBatch(rewards, capacities, prices, np.where(missing, 0.0, deployment), down, missing)


def observed_slots(traces: Traces, fleet_config, programs, window=None, clamp_negative=False):
    """The fully observed slots at ``start <= timestamp < end`` of ``window`` (all without one) and their batch.

    Returns the selected :class:`Traces` and :func:`slot_batch` of them, in
    slot order. Raises ``InvalidInputError`` when fewer than 24 slots remain.
    """
    if window is not None:
        start, end = window
        traces = traces.take(np.flatnonzero([start <= ts < end for ts in traces.timestamps]))
    observed = []
    if len(traces):
        batch = slot_batch(traces, fleet_config, programs, clamp_negative)
        observed = np.flatnonzero(~batch.missing.any(axis=1))
    if len(observed) < 24:
        raise InvalidInputError(
            f"need at least 24 fully observed slots in the window, got {len(observed)}"
        )
    return traces.take(observed), batch.take(observed)
