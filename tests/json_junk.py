"""Hypothesis strategies for JSON-shaped junk, used to fill the numeric slots
of parsed records: infinities, NaN, huge integers, floats, strings, bools,
null and small nested lists; and transcripts whose records carry it."""

import json
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


@st.composite
def junk_transcripts(draw):
    """One to three records, each with junk in one or two numeric slots."""
    reveal = {"round": 1, "party": "bob", "position": 1, "outcome": "+"}
    terminal = {"status": "decoded", "bob_bit": 0, "sonai_bit": 0, "confidence": 1.0,
                "abort_reason": None}
    numeric = {"round", "position", "bob_bit", "sonai_bit", "confidence"}
    lines = []
    for record in draw(st.lists(st.sampled_from([reveal, terminal]), min_size=1, max_size=3)):
        record = dict(record)
        slots = sorted(numeric & record.keys())
        for key in draw(st.sets(st.sampled_from(slots), min_size=1, max_size=2)):
            record[key] = draw(JUNK)
        lines.append(record)
    return "\n".join(json.dumps(line) for line in lines)
