"""Property-based fuzzing of the trace CSV and JSON config boundaries.

Kept in its own module so the rest of the suite collects where Hypothesis
is not installed.
"""

import contextlib
import csv
import io
import json
import math
import warnings
from pathlib import Path
from unittest import mock
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, given, settings, strategies as st  # noqa: E402

from minerflex import MinerflexError, Traces, load_traces, write_traces  # noqa: E402
from minerflex.cli import main  # noqa: E402
import minerflex.traces as traces_module  # noqa: E402
from minerflex.traces import AS_HEADER, CHUNK_ROWS, MARKET_HEADER, format_timestamp, write_csv  # noqa: E402
from test_traces import load_outcome, same_outcome, same_traces, serial_load_traces  # noqa: E402

MARKET = (
    "timestamp,rt_price,coin_price\n"
    "2022-04-04T00:00:00Z,31.5,20000.0\n"
    "2022-04-04T02:00:00Z,-3.0,21000.0\n"
    "2022-04-04T01:00:00Z,250.25,19874.5\n"
)
AS = (
    "timestamp,program_id,price,epsilon\n"
    "2022-04-04T00:00:00Z,presp,12.0,0.0\n"
    "2022-04-04T00:00:00Z,regup,26.5,0.18\n"
    "2022-04-04T01:00:00Z,presp,11.0,1.0\n"
    "2022-04-04T01:00:00Z,regup,25.0,\n"
    "2022-04-04T02:00:00Z,presp,13.5,\n"
    "2022-04-04T02:00:00Z,regup,27.0,0.5\n"
)
# A fixed example order and no example database, so every run tries the same inputs.
FUZZ = settings(derandomize=True, database=None, max_examples=150, deadline=None)

# Bytes that mean something to the csv reader, the number and timestamp parsers or the decoder,
# and timestamps whose UTC value falls outside the datetime range.
TOKENS = [b",", b"\n", b"\r", b'"', b"\x00", b"\xff", b"", b"nan", b"-inf", b"1e400", b"-", b"+05:00", b"Z", b"T", b"9",
          b"9999-12-31T23:00:00-05:00", b"0001-01-01T00:00:00+05:00"]
splices = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.integers(0, 8), st.one_of(st.sampled_from(TOKENS), st.binary(max_size=4))),
    max_size=4,
)


def mutate(text: str, edits) -> bytes:
    """``text`` with each (where, cut, insert) splice applied in turn."""
    data = text.encode()
    for where, cut, insert in edits:
        at = int(where * len(data))
        data = data[:at] + insert + data[at + cut:]
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(market_edits=splices, as_edits=splices)
def test_mutated_trace_text_loads_or_raises_a_library_error(fuzz_dir, market_edits, as_edits):
    market, as_csv = fuzz_dir / "market.csv", fuzz_dir / "as.csv"
    market.write_bytes(mutate(MARKET, market_edits))
    as_csv.write_bytes(mutate(AS, as_edits))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # an out-of-order market file only warns
        try:
            traces = load_traces(market, as_csv)
        except MinerflexError:
            return
    # what loads is a well-formed table: finite prices, rates in [0, 1] or missing
    for column in (traces.rt_price, traces.coin_price, traces.as_prices):
        assert np.isfinite(column).all()
    observed = traces.deployment[~np.isnan(traces.deployment)]
    assert ((observed >= 0.0) & (observed <= 1.0)).all()
    assert list(traces.timestamps) == sorted(set(traces.timestamps))


finite = st.floats(allow_nan=False, allow_infinity=False)
rates = st.one_of(st.floats(0.0, 1.0), st.just(math.nan))


# gaps between slots in microseconds: sub-second ones, and whole seconds up to about 4 months
gap_us = st.one_of(st.integers(1, 10**6), st.integers(1, 10**7).map(lambda s: s * 10**6))


@st.composite
def trace_tables(draw, id_text=st.text("abcxyz_-.019", min_size=1, max_size=5)):
    """Traces of 1-6 UTC slots from year 1 on, 0-3 programs, any finite prices and nan holes.

    Slots fall on whole seconds or between them.
    """
    T, P = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    ids = draw(st.lists(id_text, min_size=P, max_size=P, unique=True))
    gaps = draw(st.lists(gap_us, min_size=T, max_size=T))
    start = datetime(draw(st.integers(1, 2100)), 1, 1, tzinfo=timezone.utc)
    stamps = tuple(start + timedelta(microseconds=us) for us in np.cumsum(gaps).tolist())

    def column(n, elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)

    return Traces(
        stamps, column(T, finite), column(T, finite), tuple(ids),
        column(T * P, finite).reshape(T, P), column(T * P, rates).reshape(T, P),
    )


@FUZZ
@given(traces=trace_tables())
def test_written_traces_load_back_bit_for_bit(fuzz_dir, traces):
    market, as_csv = fuzz_dir / "round-market.csv", fuzz_dir / "round-as.csv"
    write_traces(traces, market, as_csv)
    assert same_traces(load_traces(market, as_csv, program_ids=traces.program_ids), traces)


def csv_row_writer(traces, market_path, as_path):
    """The reference: ``write_traces`` one csv.writer row at a time, as it was before the columnar write."""
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


@FUZZ
@given(traces=trace_tables(id_text=st.text(',"\n\r ab\t\'', max_size=4)))
def test_written_bytes_match_the_csv_row_writer(fuzz_dir, traces):
    # program ids with commas, quotes, line breaks, blanks or nothing at all get the csv writer's quoting
    write_traces(traces, fuzz_dir / "w-market.csv", fuzz_dir / "w-as.csv")
    csv_row_writer(traces, fuzz_dir / "r-market.csv", fuzz_dir / "r-as.csv")
    for name in ("market.csv", "as.csv"):
        assert (fuzz_dir / f"w-{name}").read_bytes() == (fuzz_dir / f"r-{name}").read_bytes()


@st.composite
def csv_tables(draw, text=st.text(',"\n\r ab', max_size=3)):
    """A header of 1-4 names and as many columns of 0-5 rows: float arrays, integer arrays or text."""
    width, rows = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    column = st.one_of(
        st.lists(st.floats(), min_size=rows, max_size=rows).map(lambda v: np.array(v, dtype=float)),
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=rows, max_size=rows).map(lambda v: np.array(v, np.int64)),
        st.lists(text, min_size=rows, max_size=rows),
    )
    return draw(st.lists(text, min_size=width, max_size=width)), [draw(column) for _ in range(width)]


@FUZZ
@given(table=csv_tables())
def test_write_csv_matches_the_csv_writer(fuzz_dir, table):
    # floats by repr and ints by str; text, the header and a lone empty field quoted as csv.writer quotes them
    header, columns = table
    write_csv(fuzz_dir / "w.csv", header, columns)
    cells = [
        [repr(x) if isinstance(x, float) else str(x) for x in column.tolist()] if isinstance(column, np.ndarray)
        else column
        for column in columns
    ]
    with open(fuzz_dir / "r.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*cells))
    assert (fuzz_dir / "w.csv").read_bytes() == (fuzz_dir / "r.csv").read_bytes()


# ── The columnar loader against the row-at-a-time reference ──────────────

program_id_lists = st.sampled_from([None, ("presp", "regup"), ("regup",), ("regup", "presp", "x")])


def assert_loaders_agree(market, as_csv, program_ids):
    got = load_outcome(load_traces, market, as_csv, program_ids)
    want = load_outcome(serial_load_traces, market, as_csv, program_ids)
    assert same_outcome(got, want), (got, want)
    result, caught = want
    event("loaded" if isinstance(result, Traces) else result[1].split(": ", 1)[-1][:24])
    event(f"{min(len(caught), 2)} warnings")


@FUZZ
@given(market_edits=splices, as_edits=splices, program_ids=program_id_lists)
def test_mutated_trace_text_loads_as_the_row_reference_does(fuzz_dir, market_edits, as_edits, program_ids):
    market, as_csv = fuzz_dir / "ref-market.csv", fuzz_dir / "ref-as.csv"
    market.write_bytes(mutate(MARKET, market_edits))
    as_csv.write_bytes(mutate(AS, as_edits))
    assert_loaders_agree(market, as_csv, program_ids)


def long_texts(rows: int, seed: int) -> tuple[list[bytes], list[bytes]]:
    """Market and as.csv lines (headers first) for ``rows`` hourly slots and two programs.

    The as file also holds two slots after the market's last one, which the loaders must
    check and then ignore. About one epsilon in five is blank.
    """
    rng = np.random.default_rng(seed)
    start = datetime(2021, 12, 31, 20, tzinfo=timezone.utc)
    stamps = [(start + timedelta(hours=h)).strftime("%Y-%m-%dT%H:%M:%SZ") for h in range(rows + 2)]
    rt, coin = rng.normal(40.0, 20.0, rows).tolist(), rng.uniform(1e4, 3e4, rows).tolist()
    market = [b"timestamp,rt_price,coin_price"] + [f"{ts},{r!r},{c!r}".encode() for ts, r, c in zip(stamps, rt, coin)]
    as_lines = [b"timestamp,program_id,price,epsilon"]
    for ts in stamps:
        for pid in ("presp", "regup"):
            eps = "" if rng.random() < 0.2 else repr(float(rng.random()))
            as_lines.append(f"{ts},{pid},{float(rng.uniform(5.0, 40.0))!r},{eps}".encode())
    return market, as_lines


LINE_TOKENS = TOKENS + [b"presp", b"2021-12-31T20:00:00Z", b"2021-12-31T20:00:00+00:00"]
# whole field values: non-finite or out-of-range numbers, float() grammar corners, blanks, other ids and stamps
FIELD_TOKENS = [b"nan", b"NaN", b"inf", b"-inf", b"1e400", b"-0.25", b"1.5", b"-0.0", b"1_0", b" 0.5 ", b"", b"regup",
                b"2021-12-31T20:00:00+00:00", b"2021-12-31T21:00:00Z"]


@st.composite
def line_edits(draw, chunk: int):
    """Up to three edits of a list of lines: copy, drop, swap, blank, quote, set a field or splice bytes.

    A quote opened at a field start runs that field on over the lines after it. Lines
    are picked in the second chunk, around the first chunk boundary or anywhere.
    """
    index = st.one_of(st.integers(chunk + 1, 2 * chunk + 8), st.integers(max(chunk - 2, 1), chunk + 3),
                      st.integers(1, 2 * chunk + 8))
    kind = st.sampled_from(["copy", "drop", "swap", "blank", "quote", "field", "splice"])
    at, token, value = st.integers(0, 40), st.sampled_from(LINE_TOKENS), st.sampled_from(FIELD_TOKENS)
    edit = st.tuples(kind, index, index, at, token, value)
    return draw(st.lists(edit, max_size=3))


def edit_lines(lines: list[bytes], edits) -> bytes:
    lines = list(lines)
    for kind, i, j, at, token, value in edits:
        i, j = 1 + (i - 1) % (len(lines) - 1), 1 + (j - 1) % (len(lines) - 1)  # never the header
        if kind == "copy":
            lines.insert(j, lines[i])
        elif kind == "drop":
            del lines[i]
        elif kind == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "blank":
            lines.insert(j, b"")
        elif kind == "quote":
            lines[i] = lines[i].replace(b",", b',"', 1)
        elif kind == "field":
            fields = lines[i].split(b",")
            fields[at % len(fields)] = value
            lines[i] = b",".join(fields)
        else:
            lines[i] = lines[i][:at] + token + lines[i][at + 1:]
    return b"\n".join(lines) + b"\n"


def check_edited_long_files(fuzz_dir, rows, seed, market_edits, as_edits, program_ids):
    market_lines, as_lines = long_texts(rows, seed)
    market, as_csv = fuzz_dir / "long-market.csv", fuzz_dir / "long-as.csv"
    market.write_bytes(edit_lines(market_lines, market_edits))
    as_csv.write_bytes(edit_lines(as_lines, as_edits))
    assert_loaders_agree(market, as_csv, program_ids)


observed_ids = st.sampled_from([None, ("presp", "regup"), ("regup",)])


@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(
    rows=st.integers(CHUNK_ROWS // 2 - 4, CHUNK_ROWS + 6), seed=st.integers(0, 3),
    market_edits=st.one_of(st.just([]), line_edits(CHUNK_ROWS)), as_edits=line_edits(CHUNK_ROWS),
    program_ids=observed_ids,
)
def test_long_files_load_as_the_row_reference_does(fuzz_dir, rows, seed, market_edits, as_edits, program_ids):
    # market files of one or two chunks, as.csv files of two or three; defects land in any of them
    check_edited_long_files(fuzz_dir, rows, seed, market_edits, as_edits, program_ids)


@settings(FUZZ, max_examples=300)
@given(data=st.data(), chunk=st.sampled_from([1, 2, 5, 16]), rows=st.integers(1, 40), seed=st.integers(0, 3),
       program_ids=observed_ids)
def test_short_chunks_load_as_the_row_reference_does(fuzz_dir, data, chunk, rows, seed, program_ids):
    # the same files cut into many small chunks, so every kind of defect meets a chunk boundary
    market_edits = data.draw(st.one_of(st.just([]), line_edits(chunk)))  # often a clean market, so as.csv is read
    as_edits = data.draw(line_edits(chunk))
    with mock.patch.object(traces_module, "CHUNK_ROWS", chunk):
        check_edited_long_files(fuzz_dir, rows, seed, market_edits, as_edits, program_ids)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# each shipped config kind, the file it mutates and the command that reads it (small and fast)
CONFIG_COMMANDS = {
    "fleet": ("fleet.json", lambda path: ["solve-offline", "--fleet", path, "--programs", CONFIGS / "programs.json",
                                          "--iterations", 20]),
    "programs": ("programs.json", lambda path: ["solve-offline", "--fleet", CONFIGS / "fleet.json", "--programs", path,
                                                "--iterations", 20]),
    "reg": ("reg.json", lambda path: ["solve-reg", "--config", path]),
    "risk": ("risk.json", lambda path: ["solve-risk", "--config", path]),
    "spec": ("synthesis_week.json", lambda path: ["synthesize-traces", "--spec", path, "--seed", 1]),
}
# literals json.dumps cannot write, spliced in for these marker strings
LITERALS = {"\x01nan": "NaN", "\x01huge": "1e999", "\x01-huge": "-1e999"}
# one past the synthesis bound, which a spec's ``hours`` must refuse, and strings float() reads as non-finite
CONFIG_VALUES = ["x", None, True, 0, [], {}, "a\rb", "\x00", traces_module.MAX_SYNTH_HOURS + 1, "nan", "-inf", *LITERALS]


def json_paths(node, at=()):
    """The path (keys and indices from the root) of every value in a decoded JSON tree."""
    yield at
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from json_paths(child, (*at, key))


def distinct_keys(tree):
    """The key names and list positions of ``tree``, once each, in the order they first appear."""
    return list(dict.fromkeys(at[-1] for at in json_paths(tree) if at))


# each config kind once per distinct key of its shipped file, so every key of every kind is edited about as often
KINDS_BY_KEY = [kind for kind, (name, _) in sorted(CONFIG_COMMANDS.items())
                for _ in distinct_keys(json.loads((CONFIGS / name).read_text()))]


@st.composite
def config_edits(draw, tree):
    """``tree`` after one to three edits, each dropping a value or setting it to another type or literal.

    An edit first draws a key name or list position among the distinct ones in the
    tree, then a path that ends in it, so a lone key such as a spec's ``hours`` is
    edited as often as any one list position, not once in about 60 paths.
    """
    for _ in range(draw(st.integers(1, 3))):
        paths = [at for at in json_paths(tree) if at]
        if not paths:
            break
        last = draw(st.sampled_from(distinct_keys(tree)))
        *parent, key = draw(st.sampled_from([at for at in paths if at[-1] == last]))
        node = tree
        for step in parent:
            node = node[step]
        if draw(st.booleans()):
            del node[key]
            event(f"{key!r} dropped")
        else:
            node[key] = draw(st.sampled_from(CONFIG_VALUES))
            event(f"{key!r} set to {node[key]!r}")
    return tree


def config_text(tree) -> str:
    text = json.dumps(tree)
    for marker, literal in LITERALS.items():
        text = text.replace(json.dumps(marker), literal)
    return text


@FUZZ
@given(kind=st.sampled_from(KINDS_BY_KEY), data=st.data())
def test_mutated_configs_run_or_exit_2_naming_the_file(fuzz_dir, kind, data):
    name, command = CONFIG_COMMANDS[kind]
    tree = data.draw(config_edits(json.loads((CONFIGS / name).read_text())))
    path = fuzz_dir / f"mutated-{name}"
    path.write_text(config_text(tree))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")  # a numpy warning is an unguarded path too
        code = main([*map(str, command(path)), "--out", str(fuzz_dir / "config-out")])
    err = err.getvalue()
    event(f"{kind}: exit {code}")
    assert code == 0 and not err or code == 2 and str(path) in err, (code, err, config_text(tree))
