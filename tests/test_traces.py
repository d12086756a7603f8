import csv
import dataclasses
import itertools
import json
import math
import warnings
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest

from minerflex import (
    ConstantEps,
    InvalidInputError,
    MachineType,
    ModelViolationError,
    PriceResponsiveModel,
    TraceFormatError,
    TruncatedExponential,
    estimate_stats,
    fit_lambda,
    load_synthesis_spec,
    load_traces,
    per_slot_rewards,
    price_responsive_eps,
    synthesize_traces,
    write_traces,
)
import minerflex.traces as traces_module
from minerflex.programs import EPS_KINDS, ProgramSpec, parse_eps_model
from minerflex.regulation import joint_pair
from minerflex.traces import (
    AS_HEADER,
    MARKET_HEADER,
    PriceBlock,
    SynthProgram,
    SynthesisSpec,
    Traces,
    format_timestamp,
    parse_timestamp,
    programs_for_record,
    slot_batch,
)

from conftest import slot_batch_of


UTC = timezone.utc
NAN = math.nan


def make_traces(n=5, eps=lambda i: (0.5, NAN)):
    i = np.arange(n)
    return Traces(
        timestamps=tuple(datetime(2022, 4, 4, t % 24, tzinfo=UTC) for t in range(n)),
        rt_price=50.0 + i,
        coin_price=20000.0 - 3.0 * i,
        program_ids=("regup", "presp"),
        as_prices=np.column_stack([15.5 + i, np.full(n, 11.25)]),
        deployment=np.array([eps(t) for t in range(n)], dtype=float).reshape(n, 2),
    )


def one_slot(rt_price, coin_price):
    return Traces(
        (datetime(2022, 4, 4, tzinfo=UTC),), np.array([rt_price]), np.array([coin_price]),
        ("p",), np.array([[10.0]]), np.array([[0.5]]),
    )


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_traces(a, b):
    """Equal timestamps and ids, and every column equal bit for bit (nan holes included)."""
    columns = ("rt_price", "coin_price", "as_prices", "deployment")
    return (a.timestamps, a.program_ids) == (b.timestamps, b.program_ids) and all(
        _same_bits(getattr(a, name), getattr(b, name)) for name in columns
    )


# ── The row-at-a-time loader the columnar one replaced ───────────────────


def _serial_read_rows(path, header):
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


def _serial_parse_timestamp(raw, path, line, parsed):
    ts = parsed.get(raw)
    if ts is None:
        try:
            ts = parsed[raw] = parse_timestamp(raw)
        except ValueError:
            raise TraceFormatError(path, line, f"bad timestamp {raw!r}") from None
    return ts


def _serial_parse_price(raw, field, path, line):
    try:
        value = float(raw)
    except ValueError:
        raise TraceFormatError(path, line, f"bad {field} {raw!r}") from None
    if not math.isfinite(value):
        raise TraceFormatError(path, line, f"{field} must be finite, got {raw!r}")
    return value


def serial_load_traces(market_path, as_path, program_ids=None):
    """The reference: ``load_traces`` one Python record at a time, as it was before the columnar read."""
    market = {}
    # both files repeat the market timestamps: parse each distinct string once
    parsed = {}
    prev = None
    for line, row in _serial_read_rows(market_path, MARKET_HEADER):
        ts = _serial_parse_timestamp(row[0], market_path, line, parsed)
        if ts in market:
            raise TraceFormatError(market_path, line, f"duplicate timestamp {row[0]}")
        if prev is not None and ts < prev:
            warnings.warn(f"{market_path}:{line}: timestamps out of order; sorting")
        prev = ts
        market[ts] = (
            _serial_parse_price(row[1], "rt_price", market_path, line),
            _serial_parse_price(row[2], "coin_price", market_path, line),
        )

    as_rows = {}
    for line, row in _serial_read_rows(as_path, AS_HEADER):
        key = (_serial_parse_timestamp(row[0], as_path, line, parsed), row[1])
        price = _serial_parse_price(row[2], "price", as_path, line)
        eps = math.nan
        if row[3] != "":
            eps = _serial_parse_price(row[3], "epsilon", as_path, line)
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


def load_outcome(loader, market_path, as_path, program_ids=None):
    """(the loaded traces, or the exception's type and text; each warning's category and text)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = loader(market_path, as_path, program_ids)
        except Exception as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def same_outcome(a, b):
    """Two :func:`load_outcome` results agree: the same bits, or the same error, and the same warnings."""
    (got, got_warnings), (want, want_warnings) = a, b
    if isinstance(want, Traces):
        return isinstance(got, Traces) and same_traces(got, want) and got_warnings == want_warnings
    return (got, got_warnings) == (want, want_warnings)


def synth_spec(hours=24, joint=True):
    programs = (
        SynthProgram("presp", PriceBlock((12.0,) * 24, 1.0, 0.0, 100.0), PriceResponsiveModel(60.0)),
        SynthProgram("regup", PriceBlock((15.0,) * 24, 1.0, 0.0, 100.0), TruncatedExponential(fit_lambda(0.18))),
        SynthProgram("regdn", PriceBlock((9.0,) * 24, 1.0, 0.0, 100.0), TruncatedExponential(fit_lambda(0.27))),
    )
    return SynthesisSpec(
        start=datetime(2022, 4, 4, tzinfo=UTC),
        hours=hours,
        coin_price=PriceBlock((20000.0,) * 24, 250.0, 15000.0, 25000.0),
        rt_price=PriceBlock((55.0,) * 24, 10.0, 1.0, 105.0),
        programs=programs,
        joint=joint_pair(programs, 0.5, "regup", "regdn") if joint else None,
    )


def test_registry_models_sample_scalar_and_vector(rng):
    examples = [
        {"kind": "truncexp", "mean": 0.18},
        {"kind": "truncexp", "lambda": 3.0},
        {"kind": "bernoulli", "prob": 0.3},
        {"kind": "constant", "value": 0.4},
        {"kind": "uniform", "lo": 0.1, "hi": 0.6},
    ]
    # price_responsive has no sample: its deployment follows the real-time price
    assert {cfg["kind"] for cfg in examples} | {"price_responsive"} == set(EPS_KINDS)
    for cfg in examples:
        model = parse_eps_model(cfg)
        x = model.sample(rng)
        assert isinstance(x, float) and 0.0 <= x <= 1.0, cfg
        assert np.shape(model.sample(rng, 5)) == (5,), cfg


def test_price_responsive_strict_threshold():
    model = PriceResponsiveModel(60.0)
    assert price_responsive_eps(model, 59.99) == 0.0
    assert price_responsive_eps(model, 60.0) == 0.0
    assert price_responsive_eps(model, 500.0) == 1.0


def test_round_trip_identity(tmp_path):
    traces = make_traces(6, eps=lambda i: (0.125 * i % 1.0, NAN if i % 2 else 0.75))
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    write_traces(traces, m, a)
    loaded = load_traces(m, a, program_ids=("regup", "presp"))
    assert same_traces(loaded, traces)


def test_round_trip_keeps_sub_second_and_early_timestamps(tmp_path):
    stamps = (
        datetime(999, 1, 1, tzinfo=UTC),
        datetime(2022, 4, 4, 0, 0, 0, 200000, tzinfo=UTC),
        datetime(2022, 4, 4, 0, 0, 0, 700000, tzinfo=UTC),
        datetime(2022, 4, 4, 0, 0, 1, tzinfo=UTC),
    )
    traces = dataclasses.replace(make_traces(4), timestamps=stamps)
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    write_traces(traces, m, a)
    written = [line.split(",")[0] for line in m.read_text().splitlines()[1:]]
    # whole seconds keep the old bytes; the loader reads every line back
    assert written == [
        "0999-01-01T00:00:00Z", "2022-04-04T00:00:00.200000Z", "2022-04-04T00:00:00.700000Z", "2022-04-04T00:00:01Z",
    ]
    assert same_traces(load_traces(m, a, program_ids=("regup", "presp")), traces)


def test_load_empty_files_with_header(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text(",".join(MARKET_HEADER) + "\n")
    a.write_text(",".join(AS_HEADER) + "\n")
    traces = load_traces(m, a)
    assert len(traces) == 0 and traces.program_ids == ()
    assert traces.rt_price.shape == traces.coin_price.shape == (0,)
    assert traces.as_prices.shape == traces.deployment.shape == (0, 0)
    assert load_traces(m, a, program_ids=("regup",)).deployment.shape == (0, 1)


def test_load_single_row(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text("timestamp,rt_price,coin_price\n2022-04-04T01:00:00Z,50.0,20000.0\n")
    a.write_text("timestamp,program_id,price,epsilon\n2022-04-04T01:00:00Z,regup,15.0,0.25\n")
    traces = load_traces(m, a)
    assert len(traces) == 1
    assert traces.rt_price.tolist() == [50.0]
    assert traces.deployment.tolist() == [[0.25]]


def test_load_rejects_out_of_range_epsilon(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text("timestamp,rt_price,coin_price\n2022-04-04T01:00:00Z,50.0,20000.0\n")
    a.write_text("timestamp,program_id,price,epsilon\n2022-04-04T01:00:00Z,regup,15.0,1.2\n")
    with pytest.raises(TraceFormatError) as err:
        load_traces(m, a)
    assert "epsilon" in str(err.value) and ":2" in str(err.value)


def test_load_rejects_nan_and_bad_header(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text("timestamp,rt_price,coin_price\n2022-04-04T01:00:00Z,nan,20000.0\n")
    a.write_text("timestamp,program_id,price,epsilon\n")
    with pytest.raises(TraceFormatError):
        load_traces(m, a)
    m.write_text("time,rt,coin\n")
    with pytest.raises(TraceFormatError):
        load_traces(m, a)
    # valid ISO text whose UTC value is past year 9999
    m.write_text("timestamp,rt_price,coin_price\n9999-12-31T23:00:00-05:00,50.0,20000.0\n")
    with pytest.raises(TraceFormatError, match="bad timestamp"):
        load_traces(m, a)


def test_load_names_the_as_file_and_line_of_a_bad_timestamp(tmp_path):
    # the market rows parse cleanly first, so a shared parse cache must not hide the bad as.csv row
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text("timestamp,rt_price,coin_price\n2022-04-04T01:00:00Z,50.0,20000.0\n")
    a.write_text(
        "timestamp,program_id,price,epsilon\n"
        "2022-04-04T01:00:00Z,regup,15.0,\n"
        "2022-04-04T01:00:00Q,presp,12.0,\n"
    )
    with pytest.raises(TraceFormatError) as err:
        load_traces(m, a)
    assert (err.value.path, err.value.line) == (a, 3)
    assert "bad timestamp" in str(err.value) and f"{a}:3" in str(err.value)


def test_load_names_a_bad_row_before_an_unreadable_one(tmp_path):
    # The reader fails at row 300 of 5000: at a quote that is never closed, once its field outgrows
    # the csv field limit, or at the decoder block holding an undecodable byte. The rows read
    # before the failure are checked first.
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    a.write_text(",".join(AS_HEADER) + "\n")
    start = datetime(2022, 4, 4, tzinfo=UTC)
    rows = [f"{format_timestamp(start + timedelta(minutes=i))},{40.0 + i / 7!r},20000.0" for i in range(5000)]
    for defect in (',"', ",\xe9"):
        unreadable = rows[:299] + [rows[299].replace(",", defect, 1)] + rows[300:]
        bad_first = unreadable[:9] + ["x,50.0,20000.0"] + unreadable[10:]
        cases = [(unreadable, f"{m}:0: cannot read trace file"), (bad_first, f"{m}:11: bad timestamp 'x'")]
        for lines, message in cases:
            m.write_bytes("\n".join([",".join(MARKET_HEADER), *lines, ""]).encode("latin-1"))
            outcome = load_outcome(load_traces, m, a)
            assert same_outcome(outcome, load_outcome(serial_load_traces, m, a))
            assert outcome[0][0] is TraceFormatError and outcome[0][1].startswith(message)


def test_rows_at_timestamps_the_market_lacks_are_checked_then_ignored(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text("timestamp,rt_price,coin_price\n2022-04-04T01:00:00Z,50.0,20000.0\n")
    header, kept = "timestamp,program_id,price,epsilon\n", "2022-04-04T01:00:00Z,regup,15.0,0.25\n"
    cases = {
        "2022-04-04T05:00:00Z,regup,16.0,\n2022-04-04T05:00:00Z,other,1.0,1.0\n": None,
        "2022-04-04T05:00:00Z,regup,oops,\n": "3: bad price 'oops'",
        "2022-04-04T05:00:00Z,regup,16.0,1.5\n": "3: epsilon must be in [0,1]",
        # the same instant written two ways is one cell
        "2022-04-04T05:00:00Z,regup,16.0,\n2022-04-04T05:00:00+00:00,regup,17.0,\n":
            "4: duplicate (timestamp, program)",
    }
    for extra, error in cases.items():
        a.write_text(header + kept + extra)
        outcome = load_outcome(load_traces, m, a, ("regup",))
        assert same_outcome(outcome, load_outcome(serial_load_traces, m, a, ("regup",)))
        if error is None:
            assert outcome[0].deployment.tolist() == [[0.25]] and len(outcome[0]) == 1
        else:
            assert outcome[0][0] is TraceFormatError and outcome[0][1].startswith(f"{a}:{error}")


def write_csv(path, header, rows):
    path.write_text("\n".join(map(",".join, [header, *rows])) + "\n")


@pytest.mark.parametrize("chunk", [1, 3, 4096])
def test_field_values_load_as_the_row_reference_does(tmp_path, chunk):
    # every value check, in the first block and in a later one: the same bits or the same error
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    stamps = [f"2022-04-04T{h:02d}:00:00Z" for h in range(8)]
    market = [[ts, repr(40.0 + h), "20000.0"] for h, ts in enumerate(stamps)]
    as_rows = [[ts, pid, repr(10.0 + h), "" if h % 3 == 0 else repr(h / 10)]
               for h, ts in enumerate(stamps) for pid in "ab"]
    values = ["nan", "NaN", " nan ", "inf", "-inf", "1e400", "-0.25", "1.5", "-0.0", "1_0", " 0.5 ", "", "0x1p-2", "x"]
    fields = [(MARKET_HEADER, 1), (MARKET_HEADER, 2), (AS_HEADER, 2), (AS_HEADER, 3)]
    # (edits, the reference's error text, its warnings): each edit sets a field of a row of one file
    cases = [([(header, row, field, value)], None, None)
             for (header, field), row, value in itertools.product(fields, (1, -2), values)]
    # checks that span blocks: a duplicate or an out-of-order line in the first block, a bad value in a later one
    cases += [
        ([(MARKET_HEADER, 1, 0, stamps[0]), (MARKET_HEADER, -2, 1, "x")], f"{m}:3: duplicate timestamp", []),
        ([(AS_HEADER, 1, 1, "a"), (AS_HEADER, -2, 2, "x")], f"{a}:3: duplicate (timestamp, program)", []),
        ([(MARKET_HEADER, 0, 0, stamps[1]), (MARKET_HEADER, 1, 0, stamps[0]), (MARKET_HEADER, -2, 1, "nan")],
         f"{m}:8: rt_price must be finite", [(UserWarning, f"{m}:3: timestamps out of order; sorting")]),
    ]
    with mock.patch.object(traces_module, "CHUNK_ROWS", chunk):
        for edits, error, warned in cases:
            market_rows, as_csv_rows = [list(r) for r in market], [list(r) for r in as_rows]
            for header, row, field, value in edits:
                (market_rows if header is MARKET_HEADER else as_csv_rows)[row][field] = value
            write_csv(m, MARKET_HEADER, market_rows)
            write_csv(a, AS_HEADER, as_csv_rows)
            got, want = load_outcome(load_traces, m, a), load_outcome(serial_load_traces, m, a)
            assert same_outcome(got, want), (edits, got, want)
            if error is not None:
                assert want[0][1].startswith(error) and want[1] == warned, want


def _lines(hours=300):
    """Market and ancillary-service lines, headers first: 300 slots, two programs, every seventh rate blank."""
    stamps = [format_timestamp(datetime(2022, 4, 4, tzinfo=UTC) + timedelta(hours=h)) for h in range(hours)]
    market = [",".join(MARKET_HEADER), *(f"{ts},{40.0 + h / 7!r},20000.0" for h, ts in enumerate(stamps))]
    ancillary = [",".join(AS_HEADER)] + [
        f"{ts},{pid},{10.0 + h / 3!r},{'' if h % 7 == 0 else repr(h % 10 / 10)}" for h, ts in enumerate(stamps)
        for pid in "ab"
    ]
    return market, ancillary


def _joined(lines, end="\n"):
    return (end.join(lines) + end).encode()


def _with_row(lines, record, edit):
    """``lines`` with ``edit`` applied to the line of record number ``record`` (the header is 1)."""
    return [*lines[: record - 1], edit(lines[record - 1]), *lines[record:]]


def _undecodable(lines, record, quoted=False):
    """``lines`` as bytes with a 0xff byte, which UTF-8 cannot decode, opening record ``record``.

    The reader gets the lines of the 8 KiB decoder chunks before the byte's own.
    With ``quoted``, the first record of the block those lines end in gets a
    quoted id, so that block is the first to go through ``csv.reader``.
    """
    head = _joined(lines[: record - 1])
    if quoted:
        unread = head[: len(head) // 8192 * 8192].count(b"\n") + 1  # the first record not read
        lines = _with_row(lines, 2 + (unread - 3) // 64 * 64, lambda line: line.replace(",a,", ',"a",'))
        head = _joined(lines[: record - 1])
    return head + b"\xff" + _joined(lines[record - 1 :])


LIMIT = csv.field_size_limit()
# Each case gives the two files' bytes from the lines of _lines(), and whether they load. CHUNK_ROWS
# is patched to 64: records 2-65 form the first block, 66-129 the second and 130-193 the third.
TOKENIZER_CASES = {
    "crlf line ends": (lambda m, a: (_joined(m, "\r\n"), _joined(a, "\r\n")), True),
    "lone-cr line ends": (lambda m, a: (_joined(m, "\r"), _joined(a, "\r")), True),
    "quoted field in the second block only": (
        lambda m, a: (_joined(m), _joined(_with_row(a, 102, lambda line: line.replace(",a,", ',"a",')))), True,
    ),
    # record 129 ends the second block; its quoted rate runs onto the next line
    "quoted line break across a block boundary": (
        lambda m, a: (_joined(m), _joined(_with_row(a, 129, lambda line: line.rsplit(",", 1)[0] + ',"0.5\n"'))),
        True,
    ),
    "no final line break": (lambda m, a: (_joined(m)[:-1], _joined(a)[:-1]), True),
    "leading and doubled blank lines": (
        lambda m, a: (_joined([m[0], "", *m[1:150], "", "", *m[150:]]), _joined([a[0], "", "", *a[1:]])), True,
    ),
    **{
        f"{name} inside a field": (
            lambda m, a, char=char: (_joined(m), _joined([line.replace(",a,", f",a{char}b,") for line in a])), True,
        )
        for name, char in (("NUL", "\x00"), ("NEL", "\x85"), ("U+2028", "\u2028"))
    },
    "a field longer than the csv field limit": (
        lambda m, a: (_joined(m), _joined(_with_row(a, 150, lambda line: line + "0" * LIMIT))), False,
    ),
    "a line longer than the csv field limit, each field shorter": (
        lambda m, a: (
            _joined(_with_row(m, 140, lambda line: line.replace(",20000.0", ",2." + "0" * (LIMIT // 2) + "e4"))),
            _joined(_with_row(a, 150, lambda line: line.rsplit(",", 1)[0] + ",0." + "0" * (LIMIT // 2) + "5")),
        ),
        True,
    ),
    # past the decoder's first 8 KiB, so the lines decoded before the byte's chunk are read first
    "undecodable bytes in the middle of a block": (lambda m, a: (_joined(m), _undecodable(a, 450)), False),
    "undecodable bytes in the first block with a quote": (
        lambda m, a: (_joined(m), _undecodable(a, 450, quoted=True)), False,
    ),
}


@pytest.mark.parametrize("case", TOKENIZER_CASES)
def test_tokenizer_corners_load_as_the_row_reference_does(tmp_path, case):
    # plain blocks are split by hand and every other one goes through csv.reader: the same bits or the same error
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    build, loads = TOKENIZER_CASES[case]
    market, ancillary = build(*_lines())
    m.write_bytes(market)
    a.write_bytes(ancillary)
    with mock.patch.object(traces_module, "CHUNK_ROWS", 64):
        got, want = load_outcome(load_traces, m, a), load_outcome(serial_load_traces, m, a)
    assert same_outcome(got, want), (got, want)
    if loads:
        assert isinstance(want[0], Traces) and len(want[0]) == 300, want
    else:
        assert want[0][0] is TraceFormatError and want[0][1].startswith(f"{a}:0: cannot read trace file"), want


def test_load_warns_and_sorts_on_disorder(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text(
        "timestamp,rt_price,coin_price\n"
        "2022-04-04T02:00:00Z,51.0,20000.0\n"
        "2022-04-04T01:00:00Z,50.0,20000.0\n"
    )
    a.write_text(
        "timestamp,program_id,price,epsilon\n"
        "2022-04-04T01:00:00Z,regup,15.0,\n"
        "2022-04-04T02:00:00Z,regup,15.0,\n"
    )
    with pytest.warns(UserWarning, match="out of order"):
        traces = load_traces(m, a)
    assert [ts.hour for ts in traces.timestamps] == [1, 2]
    assert traces.rt_price.tolist() == [50.0, 51.0]


def test_load_rejects_missing_program_row(tmp_path):
    m, a = tmp_path / "market.csv", tmp_path / "as.csv"
    m.write_text(
        "timestamp,rt_price,coin_price\n"
        "2022-04-04T01:00:00Z,50.0,20000.0\n"
        "2022-04-04T02:00:00Z,51.0,20000.0\n"
    )
    a.write_text(
        "timestamp,program_id,price,epsilon\n"
        "2022-04-04T01:00:00Z,regup,15.0,\n"
    )
    with pytest.raises(TraceFormatError, match="missing program"):
        load_traces(m, a)


def test_synthesize_deterministic(tmp_path):
    spec = synth_spec()
    a = synthesize_traces(spec, seed=7)
    b = synthesize_traces(spec, seed=7)
    assert same_traces(a, b)
    c = synthesize_traces(spec, seed=8)
    assert not same_traces(a, c)
    # file-level determinism
    write_traces(a, tmp_path / "m1.csv", tmp_path / "a1.csv")
    write_traces(b, tmp_path / "m2.csv", tmp_path / "a2.csv")
    assert (tmp_path / "m1.csv").read_bytes() == (tmp_path / "m2.csv").read_bytes()
    assert (tmp_path / "a1.csv").read_bytes() == (tmp_path / "a2.csv").read_bytes()


def test_synthesize_rejects_a_negative_sd():
    spec = dataclasses.replace(synth_spec(), rt_price=PriceBlock((55.0,) * 24, -1.0))
    with pytest.raises(ValueError, match="scale < 0"):
        synthesize_traces(spec, seed=7)


def test_synthesize_constant_prices():
    programs = (SynthProgram("p", PriceBlock((10.0,) * 24), ConstantEps(0.5)),)
    spec = SynthesisSpec(
        start=datetime(2022, 1, 1, tzinfo=UTC),
        hours=48,
        coin_price=PriceBlock((20000.0,) * 24),
        rt_price=PriceBlock((55.0,) * 24),
        programs=programs,
    )
    traces = synthesize_traces(spec, seed=1)
    assert set(traces.rt_price.tolist()) == {55.0}
    assert set(traces.as_prices[:, 0].tolist()) == {10.0}
    assert set(traces.deployment[:, 0].tolist()) == {0.5}


def test_synthesize_regulation_means_match():
    spec = synth_spec(hours=10**5)
    traces = synthesize_traces(spec, seed=3)
    eps_up = traces.deployment[:, 1]
    eps_dn = traces.deployment[:, 2]
    for col, expect in ((eps_up, 0.5 * 0.18), (eps_dn, 0.5 * 0.27)):
        se = col.std(ddof=1) / math.sqrt(col.size)
        assert abs(col.mean() - expect) <= 3.0 * se
    # mutual exclusivity of the pair
    assert np.all((eps_up == 0.0) | (eps_dn == 0.0))


def test_synthesize_price_responsive_consistency():
    spec = synth_spec(hours=2000)
    traces = synthesize_traces(spec, seed=11)
    assert np.array_equal(traces.deployment[:, 0], np.where(traces.rt_price > 60.0, 1.0, 0.0))


def test_load_synthesis_spec(tmp_path):
    cfg = {
        "start": "2022-04-04T00:00:00Z",
        "hours": 12,
        "coin_price": {"mean": 20000, "sd": 100, "min": 15000},
        "rt_price": {"hourly_mean": list(range(24)), "sd": 2},
        "programs": [
            {"id": "presp", "direction": "up", "price": {"mean": 12},
             "eps": {"kind": "price_responsive", "threshold": 60}},
            {"id": "regup", "direction": "up", "price": {"mean": 15},
             "eps": {"kind": "truncexp", "mean": 0.18}},
            {"id": "regdn", "direction": "down", "price": {"mean": 9},
             "eps": {"kind": "truncexp", "mean": 0.27}},
        ],
        "joint": {"up": "regup", "down": "regdn", "theta": 0.4},
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(cfg))
    spec = load_synthesis_spec(path)
    assert spec.hours == 12
    assert spec.joint[:2] == (1, 2) and spec.joint[2].theta == 0.4
    assert spec.programs[1].eps_model.mean() == pytest.approx(0.18, abs=1e-9)
    traces = synthesize_traces(spec, seed=0)
    assert len(traces) == 12


def test_estimate_stats_all_zero():
    traces = make_traces(10, eps=lambda i: (0.0, NAN))
    stats = estimate_stats(traces, 0)
    assert stats.mean_eps == 0.0 and stats.var_eps == 0.0


def test_estimate_stats_alternating():
    traces = make_traces(1000, eps=lambda i: (float(i % 2), NAN))
    stats = estimate_stats(traces, 0)
    assert stats.mean_eps == pytest.approx(0.5)
    assert stats.var_eps == pytest.approx(0.25 * 1000.0 / 999.0, rel=1e-12)


def test_estimate_stats_truncexp_consistency(rng):
    lam = fit_lambda(0.18)
    dist = TruncatedExponential(lam)
    draws = dist.sample(rng, 20000)
    traces = make_traces(20000, eps=lambda i: (float(draws[i]), NAN))
    stats = estimate_stats(traces, 0)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(stats.mean_eps - 0.18) <= 3.0 * se


def test_estimate_stats_requires_observations():
    traces = make_traces(5, eps=lambda i: (NAN, 0.5))
    with pytest.raises(InvalidInputError):
        estimate_stats(traces, 0)
    with pytest.raises(InvalidInputError):
        estimate_stats(traces.take([0]), 1)


def test_per_slot_rewards_worked_example():
    config = [
        MachineType("new", 100.0, energy_intensity=110.0),
        MachineType("old", 150.0, energy_intensity=130.0),
    ]
    fleet = per_slot_rewards(one_slot(50.0, 20000.0), 0, config)
    np.testing.assert_allclose(fleet.capacities, [150.0, 100.0])
    np.testing.assert_allclose(
        fleet.rewards, [20000.0 / 130.0 - 50.0, 20000.0 / 110.0 - 50.0]
    )
    assert fleet.rewards[0] == pytest.approx(103.846, abs=1e-3)
    assert fleet.rewards[1] == pytest.approx(131.818, abs=1e-3)


def test_per_slot_rewards_clamp_and_merge():
    traces = one_slot(50.0, 0.0)
    config = [
        MachineType("new", 100.0, energy_intensity=110.0),
        MachineType("old", 150.0, energy_intensity=130.0),
    ]
    with pytest.raises(ModelViolationError):
        per_slot_rewards(traces, 0, config)
    fleet = per_slot_rewards(traces, 0, config, clamp_negative=True)
    assert fleet.n_types == 1
    assert fleet.machines[0].reward == 0.0
    assert fleet.total_capacity_mw == 250.0


# ── Column-built slot tables against the per-slot scalar path ───────────


def _edge_traces(rng, hours=72):
    """Hourly slots from 11:00: clamped afternoons, blank eps cells, three programs."""
    start = datetime(2022, 4, 4, 11, tzinfo=UTC)
    stamps, rt, coin, prices, deployment = [], [], [], [], []
    for t in range(hours):
        ts = start + t * (datetime(2022, 1, 1, 1) - datetime(2022, 1, 1))
        afternoon = 13 <= ts.hour <= 16
        deployment.append([
            NAN if (t + i) % 5 == 0 else float(rng.choice([0.0, 1.0, rng.uniform()]))
            for i in range(3)
        ])
        stamps.append(ts)
        rt.append(float(rng.uniform(190.0, 260.0) if afternoon else rng.uniform(20.0, 60.0)))
        coin.append(float(rng.uniform(19000.0, 21000.0)))
        prices.append(rng.uniform(5.0, 40.0, 3))
    return Traces(tuple(stamps), np.array(rt), np.array(coin), ("presp", "regup", "regdn"),
                  np.array(prices), np.array(deployment))


EDGE_FLEETS = {
    "shipped": [MachineType("s19", 100.0, energy_intensity=110.0),
                MachineType("s9", 150.0, energy_intensity=130.0)],
    # equal intensities tie every slot; ids out of order and 0.1 + 0.2 + 0.3
    # make the merged capacity depend on the (reward, id) sum order, and the
    # exact total 1.45 of the three merged types differs from their float sum
    "ties": [MachineType("c", 0.3, energy_intensity=110.0),
             MachineType("b", 0.2, energy_intensity=110.0),
             MachineType("a", 0.1, energy_intensity=110.0),
             MachineType("e", 0.7, energy_intensity=120.0),
             MachineType("d", 0.15, energy_intensity=130.0)],
}
EDGE_PROGRAMS = {
    "given": ["presp", "regup", "regdn"],
    "reversed": ["regdn", "regup", "presp"],
    "subset": ["regdn", "presp"],
}


def _programs(ids):
    return [ProgramSpec(id=i, price=0.0, direction="down" if i == "regdn" else "up") for i in ids]


def deployment_for(traces, t, programs):
    """(eps with zeros at holes, boolean missing mask) of the configured programs at slot t.

    Columns follow the programs' order, matched by id like the prices of
    :func:`programs_for_record`.
    """
    deps = traces.deployment[t, traces.columns(programs)]
    missing = np.isnan(deps)
    return np.where(missing, 0.0, deps), missing


def _scalar_batch(traces, machines, programs, clamp):
    slots = range(len(traces))
    fleets = [per_slot_rewards(traces, t, machines, clamp) for t in slots]
    columns = [deployment_for(traces, t, programs) for t in slots]
    return slot_batch_of(
        fleets,
        [programs_for_record(traces, t, programs) for t in slots],
        [eps for eps, _ in columns],
        fleets[0].total_capacity_mw,
        [missing for _, missing in columns],
    )


def test_slot_batch_matches_scalar_path_bitwise(rng):
    traces = _edge_traces(rng)
    checked = 0
    for fleet_name, machines in EDGE_FLEETS.items():
        for config, ids in EDGE_PROGRAMS.items():
            programs = _programs(ids)
            fast = slot_batch(traces, machines, programs, clamp_negative=True)
            ref = _scalar_batch(traces, machines, programs, clamp=True)
            where = f"{fleet_name}/{config}"
            assert fast.cap == ref.cap, where
            # fleet tables differ in layout (ties stay as zero-capacity types), costs may not
            for name in ("raw_eps", "eps", "prices", "quoted_prices", "missing"):
                assert _same_bits(getattr(fast, name), getattr(ref, name)), f"{where}: {name}"
            cands = rng.dirichlet(np.ones(len(ids) + 1), 16)[:, :-1] * fast.cap
            per_slot = [np.array([b.cost_and_subgradient(slice(None), c)[0] for c in cands]) for b in (fast, ref)]
            assert _same_bits(*per_slot), where
            for c in cands[:4]:
                assert _same_bits(fast.totals(c[None])[1], ref.totals(c[None])[1]), where
                for t in range(fast.T):
                    (cost,), (grad,) = fast.cost_and_subgradient(slice(t, t + 1), c[None])
                    (ref_cost,), (ref_grad,) = ref.cost_and_subgradient(slice(t, t + 1), c[None])
                    assert cost == ref_cost and _same_bits(grad, ref_grad), f"{where}: slot {t}"
            checked += 1
    assert checked == 6
    # the fixture does hold clamped ties and blank cells, and slot 0's exact
    # capacity total is not its float sum
    ties = slot_batch(traces, EDGE_FLEETS["ties"], _programs(["regdn"]), clamp_negative=True)
    assert (ties.rewards[:, -1] == 0.0).any() and ties.missing.any()
    assert ties.cap == 1.45 != ties.cum_capacities[0, -1]


def test_slot_batch_keeps_the_scalar_errors(rng):
    traces = _edge_traces(rng, hours=30)
    no_intensity = [*EDGE_FLEETS["shipped"], MachineType("bare", 10.0, reward=5.0)]
    coin = traces.coin_price.copy()
    coin[7] = -1.0
    negative_coin = dataclasses.replace(traces, coin_price=coin)
    # a library caller's Traces may hold what the loaders refuse: a NaN coin price, and
    # a NaN RT price, whose NaN reward canonicalize refuses
    nan_coin, nan_rt = traces.coin_price.copy(), traces.rt_price.copy()
    nan_coin[9], nan_rt[4] = math.nan, math.nan
    as_prices = traces.as_prices.copy()
    as_prices[5, 1] = -1.5
    negative_price = dataclasses.replace(traces, as_prices=as_prices)
    nan_prices = traces.as_prices.copy()
    nan_prices[6, 0] = math.nan
    cases = [
        (traces.take(range(3, len(traces))), EDGE_FLEETS["ties"], False),  # afternoon rewards below zero, unclamped
        (negative_coin, EDGE_FLEETS["shipped"], True),
        (traces, no_intensity, True),
        (dataclasses.replace(traces, coin_price=nan_coin), EDGE_FLEETS["shipped"], True),
        (dataclasses.replace(traces, rt_price=nan_rt), EDGE_FLEETS["shipped"], True),
        (negative_price, EDGE_FLEETS["shipped"], True),  # the program's own price error
        (dataclasses.replace(traces, as_prices=nan_prices), EDGE_FLEETS["shipped"], True),
    ]
    programs = _programs(EDGE_PROGRAMS["given"])
    for case, machines, clamp in cases:
        with pytest.raises(Exception) as scalar:
            _scalar_batch(case, machines, programs, clamp)
        with pytest.raises(Exception) as fast:
            slot_batch(case, machines, programs, clamp)
        assert type(fast.value) is type(scalar.value)
        assert str(fast.value) == str(scalar.value)
    # slots cannot disagree on their programs: the table has one id per column
    with pytest.raises(InvalidInputError, match="3 program columns"):
        dataclasses.replace(traces, program_ids=("a", "b", "c"), as_prices=traces.as_prices[:, :2])
