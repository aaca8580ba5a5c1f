"""Fuzz of the CLI boundary: any JSON value sent to any verb, with or
without extra command-line tokens, ends in a documented exit code (0, 2
or 3, or ``SystemExit(2)`` for a malformed command line), with no
traceback and with nothing on stdout after an error.

Payloads are either arbitrary JSON values or a valid payload of the verb
with one node replaced by an arbitrary JSON value, so that the fuzz also
reaches the readers' nested fields.  Integers reach +-10**40, well past
any machine word: every verb must refuse oversized work up front (exit 3)
rather than run long, so each example has a deadline of 5 s.
"""

import contextlib
import io
import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import VERB_PAYLOADS as TEMPLATES
from sfsdiag.cli import _DIAGRAM_VERBS, _VERBS, main

assert set(TEMPLATES) == set(_VERBS)

# extra argv tokens: flags known or not, ``=`` forms, values and stray words;
# no bare ``--output``, which would write its value as a file here
tokens = st.sampled_from([
    "--input", "--input=-", "--input=", "--in", "--output=-", "--output=", "--emit", "--emit=dot",
    "--emit=json", "--emit=xml", "--version", "--bogus", "-x", "-", "=", "json", "dot", "stray",
]) | st.text(max_size=3).filter(lambda t: t != "-h")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10**40, 10**40) | st.floats() | st.text(max_size=6),
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
    argv = [verb] + (["--emit", draw(st.sampled_from(["json", "dot"]))] if verb in _DIAGRAM_VERBS else [])
    if draw(st.booleans()):
        argv[1:] = draw(st.permutations(argv[1:] + draw(st.lists(tokens, min_size=1, max_size=3))))
    return argv, payload


@given(requests())
@settings(max_examples=400, deadline=5000)
def test_every_verb_ends_in_a_documented_exit_code(request):
    argv, payload = request
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(payload))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("UsageError: ") and err.getvalue().count("\n") == 1
        return
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1
    else:
        assert out.getvalue() and err.getvalue() == ""
