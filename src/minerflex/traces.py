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
import operator
import re
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import chain, compress, islice, repeat
from typing import Sequence

import numpy as np

from .config import finite, load_config
from .deployment import SlotBatch
from .errors import InvalidInputError, ModelViolationError, NumericalError, TraceFormatError
from .fleet import FleetSpec, MachineType, canonicalize, mining_revenue_rate, net_reward
from .programs import PriceResponsiveModel, ProgramSpec, check_program_ids, parse_eps_model, price_responsive_eps
from .regulation import joint_pair, sample_joint
from .single_machine import ProgramStats

MARKET_HEADER = ["timestamp", "rt_price", "coin_price"]
AS_HEADER = ["timestamp", "program_id", "price", "epsilon"]
# lines (csv records, once a file needs csv.reader) read and checked at a time; bounds the text held at once
CHUNK_ROWS = 4096
# rows joined and written at a time
WRITE_ROWS = 512
# longest synthetic trace in hours, a century of hourly slots; checked before any slot is built
MAX_SYNTH_HOURS = 876_600
# csv.writer quotes a field of a row of two or more fields only if it holds one of these
# (a superset: csv.writer may leave a carriage return unquoted)
_QUOTABLE = re.compile('[,"\r\n]')


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


def format_timestamp(ts: datetime) -> str:
    """UTC ISO-8601 text that :func:`parse_timestamp` reads back to ``ts``.

    The year has four digits, and microseconds appear only when non-zero.
    """
    return ts.astimezone(timezone.utc).replace(tzinfo=None).isoformat() + "Z"


def _take(source, n: int):
    """Up to ``n`` items of ``source``, and the read, decode or csv error that cut them short (or None)."""
    items = []
    try:
        items.extend(islice(source, n))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        return items, exc
    return items, None


def _fail(exc):
    """An iterator that raises ``exc`` when it is read."""
    raise exc
    yield  # a generator, so nothing raises before the read


def _split(lines: list[str], width: int, limit: int):
    """The ``width`` columns of plain ``lines``, as ``csv.reader`` would give them, or None.

    Lines are plain when none holds a double quote or a carriage return or is
    longer than the csv field ``limit``, and each holds ``width - 1`` commas:
    then each line is one record and ``csv.reader`` splits it at every comma.
    Plain ``lines`` are emptied before the split, so that the block's text is
    held once at a time: as lines, as one string, then as fields.
    """
    text = "".join(lines).replace("\n", ",")
    if '"' in text or "\r" in text or set(map(str.count, lines, repeat(","))) != {width - 1}:
        return None
    if max(map(len, lines)) > limit:
        return None
    end = len(lines) * width  # a final line break leaves one more, empty, field
    lines.clear()
    fields = text.split(",")
    return [fields[i:end:width] for i in range(width)]


def _record_columns(path, lines, rows: list[list[str]], width: int):
    """The columns of csv ``rows`` at record numbers ``lines``, blank records dropped.

    A record without ``width`` fields raises, after the block of the records before it.
    """
    if not all(rows):
        lines = [n for n, row in zip(lines, rows) if row]
        rows = [row for row in rows if row]
    bad = next((i for i, row in enumerate(rows) if len(row) != width), len(rows))
    if bad:
        yield lines[:bad], list(zip(*rows[:bad]))
    if bad < len(rows):
        raise TraceFormatError(path, lines[bad], f"expected {width} fields, got {len(rows[bad])}")


def _read_chunks(path, header: list[str]):
    """(lines, columns) blocks of up to :data:`CHUNK_ROWS` csv records under ``header``, blank ones dropped.

    ``lines`` are the block's record numbers (the header is 1) and ``columns``
    one text sequence per header field. The header goes through ``csv.reader``;
    then the file is read :data:`CHUNK_ROWS` lines at a time, each block of
    plain lines (see :func:`_split`) split on its commas by hand, until the
    first block that is not plain: from its first line on, ``csv.reader``
    reads the rest of the file, since a quoted field may span lines. A record
    with the wrong field count raises after the block of the records before
    it. A read, decode or csv error names the file after the block of the
    records read before it.
    """
    width = len(header)
    try:
        with open(path, newline="") as fh:
            got = next(csv.reader(fh), None)
            if got != header:
                raise TraceFormatError(path, 1, f"expected header {header}, got {got}")
            limit, source, line, read = csv.field_size_limit(), fh, 2, CHUNK_ROWS
            while read == CHUNK_ROWS:
                block, error = _take(source, CHUNK_ROWS)  # keeps the lines read before an error
                read = len(block)
                columns = _split(block, width, limit) if source is fh else None
                if columns is not None:
                    yield range(line, line + read), columns
                else:
                    if source is fh:
                        # past a read error the file has lost its place: the error comes back instead
                        source = csv.reader(chain(block, fh if error is None else _fail(error)))
                        block, error = _take(source, CHUNK_ROWS)
                        read = len(block)
                    yield from _record_columns(path, range(line, line + read), block, width)
                line += read
                if error is not None:
                    raise error
    except FileNotFoundError:
        raise
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # the consumer's own errors never reach here
        raise TraceFormatError(path, 0, f"cannot read trace file ({exc})") from None


def _check_blocks(path, header: list[str], check, *state) -> None:
    """``check(path, lines, columns, *state)`` on each block of ``path``.

    A check raises at the block's first line, so where a block of several rows
    fails, its rows are checked again one at a time: the rows before the first
    bad one pass in turn, and that row raises its own message at its own line.
    """
    for lines, columns in _read_chunks(path, header):
        try:
            check(path, lines, columns, *state)
        except TraceFormatError:
            if len(lines) == 1:
                raise
            for i, line in enumerate(lines):
                check(path, [line], [column[i : i + 1] for column in columns], *state)


def _finite(path, lines, texts, field: str) -> np.ndarray:
    """``texts`` parsed by ``float()``'s own grammar; a bad or non-finite entry raises."""
    try:
        values = np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        raise TraceFormatError(path, lines[0], f"bad {field} {texts[0]!r}") from None
    if not np.isfinite(values).all():
        raise TraceFormatError(path, lines[0], f"{field} must be finite, got {texts[0]!r}")
    return values


def _warn_disorder(path, lines) -> None:
    for line in lines:
        warnings.warn(f"{path}:{line}: timestamps out of order; sorting")


def _market_columns(path, lines, columns, stamps: dict[datetime, str], rt: list, coin: list) -> None:
    """Check a block of market records, each check over the whole block, in the row reference's order.

    A block that passes adds each timestamp and its text to ``stamps`` and
    its price columns to ``rt`` and ``coin``, then warns at each line whose
    timestamp is before the one above it. A single row warns before its prices
    are checked, as the row reference does.
    """
    raws, rt_text, coin_text = columns
    try:
        block = list(map(parse_timestamp, raws))
    except ValueError:
        raise TraceFormatError(path, lines[0], f"bad timestamp {raws[0]!r}") from None
    if len(set(block)) < len(block) or not stamps.keys().isdisjoint(block):
        raise TraceFormatError(path, lines[0], f"duplicate timestamp {raws[0]}")
    # each stamp against the row above it (the file's first against itself)
    disorder = list(compress(lines, map(operator.lt, block, [next(reversed(stamps), block[0]), *block[:-1]])))
    if len(lines) == 1:
        _warn_disorder(path, disorder)
        disorder = []
    rt_block, coin_block = _finite(path, lines, rt_text, "rt_price"), _finite(path, lines, coin_text, "coin_price")
    stamps.update(zip(block, raws))
    rt.append(rt_block)
    coin.append(coin_block)
    _warn_disorder(path, disorder)


@dataclass(eq=False)
class _Cells:
    """The as.csv records checked so far, on a (slot, program) table.

    ``table[0]`` holds prices and ``table[1]`` rates (``nan`` where blank);
    a cell no record fills has a ``nan`` price, since a record's is finite.
    """

    slot: dict[datetime, int]  # the market's instants first, then new ones
    slot_of: dict[str, int]  # each timestamp text's slot
    program: dict[str, int]
    table: np.ndarray  # (2, len(slot), len(program))


def _indices(known: dict, added: dict, keys) -> np.ndarray:
    """Each key's index in ``added``, or else in ``known``."""
    if added:
        known = {key: added[key] if key in added else known[key] for key in set(keys)}
    return np.fromiter(map(known.__getitem__, keys), np.intp, len(keys))


def _as_columns(path, lines, columns, cells: _Cells) -> None:
    """Check a block of as.csv records as :func:`_market_columns` checks the market's.

    A block that passes fills its cells of ``cells.table``: timestamps the
    market lacks get new slots after its own, and new program ids new columns.
    """
    raws, ids, price_text, eps_text = columns
    try:
        fresh = {raw: parse_timestamp(raw) for raw in set(raws).difference(cells.slot_of)}
    except ValueError:
        raise TraceFormatError(path, lines[0], f"bad timestamp {raws[0]!r}") from None
    prices = _finite(path, lines, price_text, "price")
    observed = list(filter(None, eps_text))  # blank: not observed
    rates = _finite(path, lines, observed, "epsilon")
    if ((rates < 0.0) | (rates > 1.0)).any():
        raise TraceFormatError(path, lines[0], f"epsilon must be in [0,1], got {observed[0]}")
    new: dict[datetime, int] = {}  # instants and ids the block adds number on from the known ones
    for raw, ts in fresh.items():
        fresh[raw] = cells.slot[ts] if ts in cells.slot else new.setdefault(ts, len(cells.slot) + len(new))
    added = {pid: len(cells.program) + i for i, pid in enumerate(sorted(set(ids).difference(cells.program)))}
    slots, programs = _indices(cells.slot_of, fresh, raws), _indices(cells.program, added, ids)
    table = cells.table
    if new or added:
        table = np.pad(table, ((0, 0), (0, len(new)), (0, len(added))), constant_values=np.nan)
    cell = np.sort(slots * table.shape[2] + programs)
    if (cell[1:] == cell[:-1]).any() or not np.isnan(table[0, slots, programs]).all():
        raise TraceFormatError(path, lines[0], f"duplicate (timestamp, program) {[raws[0], ids[0]]}")
    cells.slot.update(new)
    cells.slot_of.update(fresh)
    cells.program.update(added)
    eps = np.full(len(lines), np.nan)
    eps[np.fromiter(map(bool, eps_text), bool, len(lines))] = rates
    table[:, slots, programs] = prices, eps
    cells.table = table


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0)


def load_traces(market_path, as_path, program_ids: Sequence[str] | None = None) -> Traces:
    """Read and join the market and ancillary-service CSV files.

    Every market timestamp must carry a price row for every program; rows
    at other timestamps are checked and then ignored. Slots come back in
    timestamp order; an out-of-order file triggers a warning and gets sorted.

    Each file is read :data:`CHUNK_ROWS` lines at a time, each block of
    plain lines split on its commas by hand and any other text read by
    ``csv.reader`` (see :func:`_read_chunks`), then checked a column at a
    time. Where a check fails, that block is checked again row by row, so
    the error names the first bad line.
    """
    stamps: dict[datetime, str] = {}
    rt, coin = [], []
    _check_blocks(market_path, MARKET_HEADER, _market_columns, stamps, rt, coin)
    timestamps, rt, coin = list(stamps), _concat(rt), _concat(coin)
    if any(map(operator.lt, timestamps[1:], timestamps)):
        order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
        timestamps = [timestamps[i] for i in order]
        rt, coin = rt[order], coin[order]
    T = len(timestamps)
    slot = dict(zip(timestamps, range(T)))

    program: dict[str, int] = {}
    for pid in program_ids or ():
        program.setdefault(pid, len(program))
    # the as file repeats the market's timestamp texts: each maps to its slot without a parse
    cells = _Cells(slot, {raw: slot[ts] for ts, raw in stamps.items()}, program, np.full((2, T, len(program)), np.nan))
    _check_blocks(as_path, AS_HEADER, _as_columns, cells)

    ids = tuple(program_ids) if program_ids is not None else tuple(sorted(program))
    as_prices, deployment = cells.table[:, :T, [program[pid] for pid in ids]]
    missing = np.isnan(as_prices)
    if missing.any():
        t, i = divmod(int(np.argmax(missing)), len(ids))
        raise TraceFormatError(as_path, 0, f"missing program {ids[i]!r} at {format_timestamp(timestamps[t])}")
    return Traces(tuple(timestamps), rt, coin, ids, as_prices, deployment)


def write_csv(path, header: Sequence[str], columns) -> None:
    """Write one table as a CSV file: the writer of every CSV the package writes.

    ``columns`` holds one column per ``header`` name: a float array, each
    cell written by ``repr``; an integer array, each cell written by ``str``;
    or a sequence of text cells, already encoded. Text cells, ``header``
    included, are quoted as ``csv.writer(fh, lineterminator="\\n")`` quotes
    them. Rows are made and written :data:`WRITE_ROWS` at a time, so the
    cells never all exist at once.
    """
    cells = [
        map(repr if column.dtype.kind == "f" else str, column.tolist()) if isinstance(column, np.ndarray) else column
        for column in columns
    ]
    texts = [header, *(column for column in columns if not isinstance(column, np.ndarray))]
    with open(path, "w", newline="") as fh:
        if len(header) > 1 and not any(_QUOTABLE.search("".join(text)) for text in texts):
            # no cell needs quoting: join the rows without the csv writer's per-field scan
            fh.write(",".join(header) + "\n")
            rows = zip(*cells)
            while block := list(islice(rows, WRITE_ROWS)):
                fh.write("\n".join(map(",".join, block)) + "\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(zip(*cells))


def trace_tables(traces: Traces):
    """The market and ancillary-service ``(header, columns)`` tables of ``traces``, for :func:`write_csv`.

    Timestamps are formatted once; an unobserved rate is a blank cell.
    """
    if not len(traces):
        raise InvalidInputError("cannot write empty traces")
    stamps = list(map(format_timestamp, traces.timestamps))
    ancillary = [  # one row per (slot, program)
        list(chain.from_iterable(map(repeat, stamps, repeat(len(traces.program_ids))))),
        list(traces.program_ids) * len(stamps),
        traces.as_prices.ravel(),
        ["" if math.isnan(eps) else repr(eps) for eps in traces.deployment.ravel().tolist()],
    ]
    return (MARKET_HEADER, [stamps, traces.rt_price, traces.coin_price]), (AS_HEADER, ancillary)


def write_traces(traces: Traces, market_path, as_path):
    """Write the two-file CSV representation; floats keep full precision."""
    for path, (header, columns) in zip((market_path, as_path), trace_tables(traces)):
        write_csv(path, header, columns)


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
            means = tuple(finite(x, f"{name}: hourly_mean") for x in cfg["hourly_mean"])
            if len(means) != 24:
                raise InvalidInputError(f"{name}: hourly_mean needs 24 entries")
        elif "mean" in cfg:
            means = (finite(cfg["mean"], f"{name}: mean"),) * 24
        else:
            raise InvalidInputError(f"{name}: need 'mean' or 'hourly_mean'")
        sd, lo = finite(cfg.get("sd", 0.0), f"{name}: sd"), finite(cfg.get("min", 0.0), f"{name}: min")
        hi = finite(cfg["max"], f"{name}: max") if "max" in cfg else math.inf
        if sd < 0:
            raise InvalidInputError(f"{name}: sd must be >= 0, got {sd}")
        if lo > hi:
            raise InvalidInputError(f"{name}: min {lo} exceeds max {hi}")
        return cls(hourly_mean=means, sd=sd, lo=lo, hi=hi)


@dataclass(frozen=True)
class SynthProgram:
    id: str
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
        if self.hours > MAX_SYNTH_HOURS:
            raise InvalidInputError(f"synthesis takes at most {MAX_SYNTH_HOURS} hours, got {self.hours}")
        try:
            self.start + timedelta(hours=self.hours - 1)
        except OverflowError:
            raise InvalidInputError(f"{self.hours} hours from {self.start} run past year 9999") from None


def load_synthesis_spec(path) -> SynthesisSpec:
    return load_config(path, _parse_synthesis_spec)


def _parse_synthesis_spec(cfg: dict) -> SynthesisSpec:
    """Synthesis spec from its decoded JSON (see ``configs/synthesis_week.json``)."""
    programs = []
    for p in cfg["programs"]:
        programs.append(
            SynthProgram(
                id=str(p["id"]),
                price=PriceBlock.from_config(p["price"], f"program {p['id']}"),
                eps_model=parse_eps_model(p["eps"]),
            )
        )
    check_program_ids(p.id for p in programs)
    joint = cfg.get("joint")
    hours = finite(cfg["hours"], "hours")
    if not hours.is_integer():
        raise InvalidInputError(f"hours must be a whole number, got {cfg['hours']!r}")
    return SynthesisSpec(
        start=parse_timestamp(cfg["start"]),
        hours=int(hours),
        coin_price=PriceBlock.from_config(cfg["coin_price"], "coin_price"),
        rt_price=PriceBlock.from_config(cfg["rt_price"], "rt_price"),
        programs=tuple(programs),
        joint=joint_pair(programs, finite(joint["theta"], "joint.theta"), str(joint["up"]), str(joint["down"]))
        if joint
        else None,
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
    # A slot cost is at most cap (3 max|r| + max p) in magnitude (rates lie in
    # [0, 1]), and every sum over the slots that the solves and regret totals
    # form (costs, subgradients, cut intercepts) at most 8 T cap (max|r| + max p);
    # the test leaves a factor of two. With cap floored at 1 the pooled mean
    # price is covered too. Python floats overflow to inf without a warning.
    r_max, p_max = float(np.abs(rewards).max()), float(prices.max(initial=0.0))
    cap = math.fsum(m.capacity_mw for m in fleet_config)
    if not math.isfinite(16.0 * len(traces) * max(cap, 1.0) * (r_max + p_max)):
        raise NumericalError(
            f"slot costs overflow: {len(traces)} slots of {cap} MW at rewards up to {r_max} "
            f"and program prices up to {p_max}"
        )
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
