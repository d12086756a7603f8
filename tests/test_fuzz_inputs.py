"""Property-based fuzzing of the trace CSV boundary.

Kept in its own module so the rest of the suite collects where Hypothesis
is not installed.
"""

import math
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from minerflex import MinerflexError, Traces, load_traces, write_traces  # noqa: E402
from test_traces import same_traces  # noqa: E402

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
def trace_tables(draw):
    """Traces of 1-6 UTC slots from year 1 on, 0-3 programs, any finite prices and nan holes.

    Slots fall on whole seconds or between them.
    """
    T, P = draw(st.integers(1, 6)), draw(st.integers(0, 3))
    ids = draw(st.lists(st.text("abcxyz_-.019", min_size=1, max_size=5), min_size=P, max_size=P, unique=True))
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
