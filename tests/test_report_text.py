"""Differential tests: the report writers against the `json` and `csv` modules they replace."""

import csv
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from scmac import cli

# floats whose text is easy to get wrong: a negative zero, the smallest
# subnormal, the point where repr switches to an exponent, a power of ten
# above 2^53, and the three that json spells its own way
SPECIAL_FLOATS = (-0.0, 5e-324, 1e16, 1e22, math.nan, math.inf, -math.inf)

floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**300), 2**300)
    | floats
    # a float subclass, which json writes as a float
    | floats.map(np.float64)
    | st.text()
)
values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=6)
        | st.lists(floats, max_size=12)
        | st.tuples(children, children)
        | st.dictionaries(st.text(), children, max_size=6)
        | st.dictionaries(st.integers(-5, 5), children, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=100, deadline=None)
@given(values)
def test_json_text_matches_json_dumps(obj):
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_json_text_of_float_lists_and_empty_containers():
    obj = {
        "décodé": [0.1, -0.0, 5e-324, 1e16, 1e22, -1.5e-7],
        "nan": [1.0, math.nan, -math.inf],
        "": {"empty": [], "nested": {}, "ints": [1, 2**80], "keys": {"ü": "✓", "a\nb": None}},
    }
    assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(floats, floats), max_size=20))
def test_trials_csv_matches_csv_writer(pairs):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("trial", "decoded", "oracle", "error"))
    writer.writerows((t, dec, orc, dec - orc) for t, (dec, orc) in enumerate(pairs))
    res = {"decoded": [dec for dec, _ in pairs], "oracle": [orc for _, orc in pairs]}
    assert cli._trials_csv(res) == buf.getvalue()
