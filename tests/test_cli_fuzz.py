"""Fuzz of the CLI boundary: any JSON value sent to any verb ends in a
documented exit code (0, 2 or 3), with no traceback and with nothing on
stdout after an error.

Payloads are either arbitrary JSON values or a valid payload of the verb
with one node replaced by an arbitrary JSON value, so that the fuzz also
reaches the readers' nested fields.  Integers stay within +-10**4: the
checks here are about types and shapes, and larger values only buy
longer runs (``betastar`` factors ``lambda`` by trial division).
"""

import contextlib
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from sfsdiag.cli import _DIAGRAM_VERBS, _VERBS, main

SPACE = {"base_genus": 0, "mode": "normalized", "euler": 1,
         "fibers": [{"alpha": 2, "beta": 1}, {"alpha": 3, "beta": 1}, {"alpha": 5, "beta": 2}]}
DIAGRAM = {"genus": 1, "x_curves": [[1, 2]], "y_curves": [[2, 1]], "signs": {"1": 1, "2": -1}}
TEMPLATES = {
    "normalize": SPACE,
    "homology": SPACE,
    "genus": SPACE,
    "diagram-build": SPACE,
    "diagram-verify": DIAGRAM,
    "diagram-encode": dict(DIAGRAM, signs={"1": 1, "2": 1}),
    "diagram-decode": {"sigma_x": [2, 3, 1], "sigma_y": [3, 1, 2]},
    "cover-lift": {"seifert": {"base_genus": 0, "mode": "non_normalized",
                               "fibers": [{"alpha": 6, "beta": -1}, {"alpha": 9, "beta": 1},
                                          {"alpha": 15, "beta": 2}]},
                   "cover": {"lambda": 3, "partitions": [[3], [3], [3]]}},
    "cover-base": dict(SPACE, base_genus=1),
    "betastar": {"pairs": [[2, 1], [5, 3]], "lambda": 3},
    "positivize": {"generators": 2, "relators": [[1, -2, 1], [2, 2]]},
}
assert set(TEMPLATES) == set(_VERBS)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**4, 10**4) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def paths(value, path=()):
    """Every node of a JSON value, as a key path from the root."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from paths(child, path + (key,))


def replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


@st.composite
def requests(draw):
    verb = draw(st.sampled_from(sorted(_VERBS)))
    template = TEMPLATES[verb]
    if draw(st.booleans()):
        payload = draw(json_values)
    else:
        payload = replaced(template, draw(st.sampled_from(list(paths(template)))), draw(json_values))
    emit = draw(st.sampled_from(["json", "dot"])) if verb in _DIAGRAM_VERBS else None
    return verb, payload, emit


@given(requests())
@settings(max_examples=300, deadline=None)
def test_every_verb_ends_in_a_documented_exit_code(request):
    verb, payload, emit = request
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(payload))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([verb] + (["--emit", emit] if emit else []))
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
    else:
        assert out.getvalue() and err.getvalue() == ""
