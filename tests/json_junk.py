"""Hypothesis strategy for JSON-shaped junk, used to fill the numeric slots
of parsed records: infinities, NaN, huge integers, floats, strings, bools,
null and small nested lists."""

import math

from hypothesis import strategies as st

SPECIAL = [math.inf, -math.inf, math.nan, 10**400, -(10**400), 2**64, 0.5, 2.7, "1", True, None]

JUNK = st.recursive(
    st.one_of(
        st.sampled_from(SPECIAL),
        st.integers(min_value=-3, max_value=12),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=3,
)
