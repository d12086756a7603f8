"""Property: the one-vector simplex projection equals the reference loop bit for bit.

Kept in its own module so the rest of the suite collects where Hypothesis
is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, note, settings, strategies as st  # noqa: E402

from minerflex.deployment import project_simplex  # noqa: E402
from test_sgd import reference_projection  # noqa: E402

# A fixed example order and no example database, so every run tries the same inputs.
PROPERTY = settings(derandomize=True, database=None, max_examples=600, deadline=None)

# Exact ties, both zeros and round values next to arbitrary ones.
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False),
)


@st.composite
def vectors_and_caps(draw):
    n = draw(st.integers(1, 9))  # 8 and more entries take the numpy path
    scale = draw(st.sampled_from([1e-3, 1e-2, 0.3, 1.0, 7.0, 1e2, 1e3]))
    x = np.array([draw(ENTRIES) for _ in range(n)])
    if draw(st.booleans()):
        x = -np.abs(x)  # every entry negative or a zero
    elif draw(st.booleans()):
        x = np.abs(x)
    x *= scale
    total = float(np.maximum(x, 0.0).sum())
    kind = draw(st.sampled_from(["binding", "exact", "slack", "free", "zero"]))
    if kind == "binding" and total > 0.0:
        cap = total * draw(st.floats(0.01, 0.99))
    elif kind == "exact":
        cap = total
    elif kind == "slack":
        cap = total * draw(st.floats(1.0, 3.0)) + scale
    elif kind == "free":
        cap = scale * draw(st.floats(0.01, 10.0))
    else:
        cap = 0.0
    note(f"{kind}: sum of positive parts {total!r}, cap {cap!r}")
    return x, cap if kind == "zero" else max(cap, 1e-9 * scale)


@PROPERTY
@given(vectors_and_caps())
def test_vector_projection_matches_reference(case):
    x, cap = case
    out = project_simplex(x, cap)
    assert out.dtype == np.float64 and out.shape == x.shape
    assert out.tobytes() == reference_projection(x, cap).tobytes()
