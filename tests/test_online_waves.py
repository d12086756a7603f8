"""Property check of the wave-stepped learner bank against the serial reference loop.

Kept in its own module so the rest of the suite collects where Hypothesis
is not installed.
"""

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from minerflex import OgdConfig  # noqa: E402
from minerflex.deployment import SlotBatch  # noqa: E402
from test_online import assert_matches_serial  # noqa: E402

# A fixed example order and no example database, so every run tries the same inputs.
WAVES = settings(derandomize=True, database=None, max_examples=60, deadline=None)


@st.composite
def online_runs(draw):
    """A slot batch, a config and learner keys for one run: none, or the hours of hourly or gapped timestamps."""
    T, n, K = draw(st.integers(1, 300)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    learners = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rewards = np.sort(rng.uniform(0.0, 200.0, (T, K)), axis=1)
    caps = rng.uniform(10.0, 150.0, K)
    caps[:-1] *= rng.random(K - 1) > 0.25  # some types hold no capacity, as padded fleets do
    capacities = np.tile(caps, (T, 1))
    # prices up to 150 against rewards up to 200: some learners sit on the cap face
    prices = rng.uniform(0.0, 150.0, (T, n))
    raw_eps = np.where(rng.random((T, n)) < 0.1, 1.0, rng.uniform(0.0, 1.0, (T, n)))
    down = np.zeros((T, n), dtype=bool)
    down[:, 0] = draw(st.booleans())
    missing = rng.random((T, n)) < draw(st.sampled_from([0.0, 0.2]))
    batch = SlotBatch(rewards, capacities, prices, raw_eps, down, missing)
    cfg = OgdConfig.from_bounds(n, batch.cap, float(rewards.max()), float(prices.max()), learners=learners)
    kind = draw(st.sampled_from(["none", "hourly", "gapped"]))
    start = datetime(2022, 3, 1, draw(st.integers(0, 23)), draw(st.integers(0, 59)), tzinfo=timezone.utc)
    if kind == "none":
        stamps = None
    elif kind == "hourly":
        stamps = [start + timedelta(hours=t) for t in range(T)]
    else:  # gaps from 10 minutes to 5 hours: hours repeat and are skipped
        stamps = [start + timedelta(minutes=int(m)) for m in np.cumsum(rng.integers(10, 300, T))]
    return batch, cfg, None if stamps is None else np.array([ts.hour for ts in stamps])


@WAVES
@given(run=online_runs())
def test_waves_match_the_serial_loop_bit_for_bit(run):
    assert_matches_serial(*run)
