"""Differential tests of the crossing-index kernels against the dict
tracer in ``helpers``, plus error parity with :func:`validate`."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dict_components, dict_genus_sum
from sfsdiag.diagram import (
    Diagram,
    PermutationPair,
    _crossing_index,
    diagram_presentation,
    intersection_matrix,
    is_positive_diagram,
    montesinos_decode,
    montesinos_encode,
    rotation_genus,
    validate,
)
from sfsdiag.errors import Disconnected
from sfsdiag.seifert import SeifertData
from sfsdiag.vertical import build_positive_vertical


def cycles(sigma):
    seen, out = set(), []
    for start in range(1, len(sigma) + 1):
        if start not in seen:
            cycle, c = [], start
            while c not in seen:
                seen.add(c)
                cycle.append(c)
                c = sigma[c - 1]
            out.append(cycle)
    return out


@st.composite
def block_permutation(draw, sizes):
    """A permutation of 1..sum(sizes) that maps each block of ids to itself."""
    sigma, base = [], 0
    for size in sizes:
        block = draw(st.permutations(range(base + 1, base + size + 1)))
        sigma.extend(block)
        base += size
    return tuple(sigma)


@st.composite
def signed_pair_diagrams(draw):
    """Diagrams of random permutation pairs of degree 1..60 with random
    signs; several blocks make the pair intransitive."""
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    d = sum(sizes)
    if d > 60:
        sizes, d = [60], 60
    sx = draw(block_permutation(sizes))
    sy = draw(block_permutation(sizes))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=d, max_size=d))
    return Diagram.build(0, cycles(sx), cycles(sy), dict(enumerate(signs, start=1)))


def reference_relators(dg):
    x_index = {c: i for i, curve in enumerate(dg.x_curves, start=1) for c in curve}
    sign = dg.sign_map
    return tuple(tuple(sign[c] * x_index[c] for c in curve) for curve in dg.y_curves)


def exponent_rows(relators, n):
    rows = []
    for word in relators:
        row = [0] * n
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(tuple(row))
    return tuple(rows)


def check_against_reference(dg):
    comps = dict_components(dg)
    if len(comps) == 1:
        assert rotation_genus(dg) == dict_genus_sum(dg)
    else:
        with pytest.raises(Disconnected, match=f"curve union has {len(comps)} components"):
            rotation_genus(dg)
    relators = reference_relators(dg)
    assert diagram_presentation(dg).relators == relators
    assert intersection_matrix(dg).entries == exponent_rows(relators, len(dg.x_curves))
    assert is_positive_diagram(dg) == all(v == 1 for _, v in dg.signs)


@given(signed_pair_diagrams())
@settings(max_examples=150, deadline=None)
def test_permutation_pairs_match_dict_tracer(dg):
    check_against_reference(dg)
    positive = Diagram.build(0, dg.x_curves, dg.y_curves, {c: 1 for c, _ in dg.signs})
    pair = montesinos_encode(positive)
    decoded = montesinos_decode(pair)
    assert decoded.declared_genus == dict_genus_sum(positive)
    assert montesinos_encode(decoded) == pair


@given(signed_pair_diagrams(), st.data())
@settings(max_examples=100, deadline=None)
def test_noncontiguous_ids_match_dict_tracer(dg, data):
    ids = [c for c, _ in dg.signs]
    new_ids = data.draw(
        st.lists(st.integers(-1000, 1000), min_size=len(ids), max_size=len(ids), unique=True)
    )
    relabel = dict(zip(ids, new_ids))
    mapped = Diagram.build(
        0,
        [[relabel[c] for c in curve] for curve in dg.x_curves],
        [[relabel[c] for c in curve] for curve in dg.y_curves],
        {relabel[c]: s for c, s in dg.signs},
    )
    check_against_reference(mapped)
    assert intersection_matrix(mapped) == intersection_matrix(dg)
    assert mapped._index.components == dg._index.components


COPRIME_FIBERS = [(a, b) for a in range(2, 12) for b in range(1, a) if gcd(a, b) == 1]


@given(
    st.lists(st.sampled_from(COPRIME_FIBERS), min_size=0, max_size=6),
    st.integers(-6, 6),
)
@settings(max_examples=60, deadline=None)
def test_built_diagrams_match_dict_tracer(fibers, euler):
    dg = build_positive_vertical(SeifertData.normalized(0, fibers, euler))
    check_against_reference(dg)
    assert rotation_genus(dg) == dg.declared_genus


def test_index_is_cached_and_leaves_identity_alone():
    dg = montesinos_decode(PermutationPair(3, (2, 3, 1), (3, 1, 2)))
    twin = Diagram.build(dg.declared_genus, dg.x_curves, dg.y_curves, dg.sign_map)
    assert dg._index is dg._index
    assert dg == twin and hash(dg) == hash(twin)
    assert dg.to_json() == twin.to_json()


# every invalid diagram of test_diagram.py, plus a repeated sign id that
# agrees in sign, with today's exact message
INVALID = [
    (Diagram.build(1, [[1], [1]], [[1]], {1: 1}),
     "invalid diagram: DuplicateOnX: crossing 1 appears 2 times"),
    (Diagram.build(1, [[1, 2]], [[1], [2]], {1: 1}),
     "invalid diagram: MissingSign: crossing 2 has no sign"),
    (Diagram.build(1, [[1]], [[]], {1: 1, 2: -1}),
     "invalid diagram: MissingFromY: crossing 1 is only on an X curve"),
    (Diagram.build(1, [[1]], [[1]], {1: 2}),
     "invalid diagram: BadSign: crossing 1 has sign 2"),
    (Diagram.build(-1, [[1]], [[1]], {1: 1}),
     "invalid diagram: NegativeGenus: declared genus is negative"),
    (Diagram.build(1, [], [[1]], {1: 1}),
     "invalid diagram: EmptySide: no X curves"),
    (Diagram(1, ((1,),), ((1,),), ((1, 1), (1, -1))),
     "invalid diagram: DuplicateSign: crossing 1 appears 2 times"),
    (Diagram(1, ((2, 5),), ((5, 2),), ((2, 1), (2, 1), (5, 1))),
     "invalid diagram: DuplicateSign: crossing 2 appears 2 times"),
]


@pytest.mark.parametrize("dg,message", INVALID)
@pytest.mark.parametrize("query", [is_positive_diagram, rotation_genus, diagram_presentation])
def test_error_parity(dg, message, query):
    with pytest.raises(ValueError) as exc:
        query(dg)
    assert str(exc.value) == message


@given(
    st.integers(-1, 1),
    st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=3),
    st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=3),
    st.dictionaries(st.integers(0, 5), st.sampled_from((1, -1, 2))),
)
@settings(max_examples=300, deadline=None)
def test_index_rejects_exactly_what_validate_reports(genus, xs, ys, signs):
    dg = Diagram.build(genus, xs, ys, signs)
    problems = validate(dg)
    index = _crossing_index(genus, dg.x_curves, dg.y_curves, dg.signs)
    assert (index is None) == bool(problems)
    if problems:
        with pytest.raises(ValueError) as exc:
            is_positive_diagram(dg)
        assert str(exc.value) == f"invalid diagram: {problems[0].code}: {problems[0].message}"
