"""One FiberInvariant per distinct slope: ``SeifertData.from_json``, ``denormalize``,
``lift_seifert`` and ``base_orbifold_cover`` build each ``(alpha, beta)`` once per call and hand
the same object to every fiber of that slope.

Each of them is compared with its per-fiber oracle in ``helpers`` (equal values, identical
``to_json()``, the same first error), and each result must share its equal slopes, so that the
saving cannot silently go.  ``FiberInvariant`` itself refuses an alpha or beta that is not an
``int``, and ``CoverSpec`` a part that is not one, which is also what keeps ``(True, 1)`` or
``(3.0, 1)`` out of an ``int`` kind.
"""

import copy
import pickle
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfsdiag.covers import CoverSpec, base_orbifold_cover, lift_seifert
from sfsdiag.errors import InvalidInvariant
from sfsdiag.seifert import FiberInvariant, SeifertData, denormalize, normalize

from helpers import (
    base_orbifold_cover_by_cases,
    denormalize_by_cases,
    fibers_one_by_one,
    from_json_per_fiber,
    lift_seifert_per_fiber,
    outcome,
)


def assert_shared(s: SeifertData) -> None:
    """Equal slopes of ``s`` are one object."""
    first = {}
    for f in s.fibers:
        assert first.setdefault((f.alpha, f.beta), f) is f


def doc_of(genus, pairs, euler=None) -> dict:
    doc = {"base_genus": genus, "mode": "non_normalized" if euler is None else "normalized",
           "fibers": [{"alpha": a, "beta": b} for a, b in pairs]}
    if euler is not None:
        doc["euler"] = euler
    return doc


# a few kinds, drawn with repeats and shuffled: alpha 1 slots, negative and out-of-range beta, and
# now and then a pair that no fiber admits (alpha below 1, or not coprime)
any_pairs = st.tuples(st.integers(-1, 9), st.integers(-30, 30))
coprime_pairs = st.tuples(st.integers(1, 9), st.integers(-30, 30)).filter(lambda p: gcd(*p) == 1)


@st.composite
def slope_lists(draw, kinds=coprime_pairs, max_size=40):
    pool = draw(st.lists(kinds, min_size=1, max_size=6))
    return draw(st.permutations(draw(st.lists(st.sampled_from(pool), max_size=max_size))))


@st.composite
def spaces(draw):
    """A valid space over a few kinds, in either mode."""
    pairs = draw(slope_lists())
    genus = draw(st.integers(0, 2))
    if draw(st.booleans()):
        return SeifertData.non_normalized(genus, pairs)
    kept = [(a, b % a) for a, b in pairs if a > 1 and b % a]
    return SeifertData.normalized(genus, kept, draw(st.integers(-5, 5)))


@given(slope_lists(any_pairs), st.integers(-1, 2), st.one_of(st.none(), st.integers(-5, 5)))
@settings(max_examples=400, deadline=None)
@example([(1, 1), (1, 1), (3, 1), (4, 2), (4, 2), (6, 3)], 0, None)
@example([(2, 1), (2, 1), (3, 5), (3, 2)], 0, 1)
def test_reader_matches_the_per_fiber_oracle(pairs, genus, euler):
    doc = doc_of(genus, pairs, euler)
    got = outcome(SeifertData.from_json, doc)
    assert got == outcome(from_json_per_fiber, doc)
    if isinstance(got, SeifertData):
        assert got.to_json() == doc
        assert_shared(got)


@given(spaces(), st.data())
@settings(max_examples=300, deadline=None)
def test_derived_spaces_match_the_per_fiber_oracles(s, data):
    n = normalize(s)
    pattern = data.draw(st.lists(st.sampled_from(("+", "-", "free")), min_size=len(n.fibers),
                                 max_size=len(n.fibers) + 3))
    got = outcome(denormalize, n, pattern)
    assert got == outcome(denormalize_by_cases, n, pattern)
    if isinstance(got, SeifertData):
        assert got.to_json() == denormalize_by_cases(n, pattern).to_json()
        assert_shared(got)

    if not s.is_normalized and s.fibers:
        lam = data.draw(st.integers(1, 4))
        spec = CoverSpec(lam, tuple(data.draw(st.sampled_from(
            [(1,) * lam] + ([(lam,)] if f.alpha % lam == 0 else []))) for f in s.fibers))
        got = outcome(lift_seifert, s, spec)
        assert got == outcome(lift_seifert_per_fiber, s, spec)
        if isinstance(got, SeifertData):
            assert got.to_json() == lift_seifert_per_fiber(s, spec).to_json()
            assert_shared(got)

    got = outcome(base_orbifold_cover, s)
    assert got == outcome(base_orbifold_cover_by_cases, s)
    if isinstance(got[0], SeifertData):
        assert got[0].to_json() == base_orbifold_cover_by_cases(s)[0].to_json()
        assert_shared(got[0])


def test_equal_slopes_share_one_object():
    doc = doc_of(0, [(2, 1), (3, -4), (2, 1), (1, 2), (3, -4), (2, 1), (3, 2)])
    s = SeifertData.from_json(doc)
    assert s.fibers[0] is s.fibers[2] is s.fibers[5] and s.fibers[1] is s.fibers[4]
    assert len({id(f) for f in s.fibers}) == 4
    halves = denormalize(SeifertData.normalized(0, [(2, 1)] * 1000, 0), ["free"] * 1000)
    assert len({id(f) for f in halves.fibers}) == 1
    # slopes 3/1, 3/1, 3/2, 3/2, 6/5, 6/5
    lifted = lift_seifert(SeifertData.non_normalized(0, [(6, 1), (6, 1), (3, 2), (6, 5)]),
                          CoverSpec(2, ((2,), (2,), (1, 1), (1, 1))))
    assert [len({id(f) for f in lifted.fibers[i:i + 2]}) for i in (0, 2, 4)] == [1, 1, 1]


@pytest.mark.parametrize("pairs,error", [
    ([(4, 2), (3, 1), (3, 1)], (InvalidInvariant, "fiber (4, 2) is not coprime")),
    ([(3, 1), (3, 1), (4, 2)], (InvalidInvariant, "fiber (4, 2) is not coprime")),
    ([(3, 1), (6, 3), (6, 3), (4, 2)], (InvalidInvariant, "fiber (6, 3) is not coprime")),
    ([(1, 1), (1, 1), (0, 1), (0, 1), (4, 2)], (InvalidInvariant, "alpha must be >= 1, got 0")),
    ([(1, 1), (1, 1), (1, True)], (TypeError, "$.fibers[2].beta: expected integer, got boolean")),
    ([(1, 1), (1, 1), (1.0, 1)], (TypeError, "$.fibers[2].alpha: expected integer, got float")),
    ([(3, 1), (4, 2), (3, True)], (InvalidInvariant, "fiber (4, 2) is not coprime")),
    ([(3, 1), (4, 2), (4, 2), "3/1"], (InvalidInvariant, "fiber (4, 2) is not coprime")),
    ([(3, 1), (3, 1), "3/1", (4, 2)], (TypeError, "$.fibers[2]: expected object, got string")),
])
def test_json_first_bad_fiber_is_reported(pairs, error):
    doc = doc_of(0, [])
    doc["fibers"] = [p if isinstance(p, str) else {"alpha": p[0], "beta": p[1]} for p in pairs]
    assert outcome(SeifertData.from_json, doc) == error == outcome(from_json_per_fiber, doc)


def test_json_missing_key_after_a_bad_fiber():
    doc = doc_of(0, [(3, 1), (3, 1), (4, 2)])
    doc["fibers"].append({"alpha": 3})
    assert outcome(SeifertData.from_json, doc) == (InvalidInvariant, "fiber (4, 2) is not coprime")
    del doc["fibers"][2]
    assert outcome(SeifertData.from_json, doc) == (KeyError, "'beta'")


@pytest.mark.parametrize("pairs,error", [
    ([(True, 1)], (TypeError, "alpha: expected integer, got boolean")),
    ([(1, 1), (True, 1)], (TypeError, "alpha: expected integer, got boolean")),
    ([(1, 1), (1, 1.0)], (TypeError, "beta: expected integer, got float")),
    ([(3, 1), (3, True), (5, 2)], (TypeError, "beta: expected integer, got boolean")),
    ([(4, 2), (True, 1)], (InvalidInvariant, "fiber (4, 2) is not coprime")),
    ([(3, 1), (3, 1), ("3", 1)], (TypeError, "alpha: expected integer, got string")),
])
def test_constructors_refuse_non_int_fibers(pairs, error):
    assert outcome(SeifertData.non_normalized, 0, pairs) == error
    assert outcome(SeifertData.normalized, 0, pairs, 1) == error
    assert outcome(fibers_one_by_one, pairs) == error


def test_fiber_invariant_refuses_bool_and_float():
    assert outcome(FiberInvariant, True, 1) == (TypeError, "alpha: expected integer, got boolean")
    assert outcome(FiberInvariant, 2.0, 1) == (TypeError, "alpha: expected integer, got float")
    assert outcome(FiberInvariant, 3, False) == (TypeError, "beta: expected integer, got boolean")
    assert outcome(SeifertData.normalized, 0, [(3, True), (5, 2), (7, 3)], 1) == \
        (TypeError, "beta: expected integer, got boolean")


@pytest.mark.parametrize("parts,error", [
    (((2,), (2.0,)), "partitions[1]: expected integer, got float"),
    (((2.0,), (2,)), "partitions[0]: expected integer, got float"),
    (((2,), (True, True)), "partitions[1]: expected integer, got boolean"),
])
def test_cover_spec_refuses_non_int_parts(parts, error):
    # 6 // 2.0 is 3.0, and (3.0, 1) == (3, 1) as a key: a float part after an equal int slope must
    # not reach the lift, where it would take the int fiber
    assert outcome(CoverSpec, 2, parts) == (TypeError, error)


def test_shared_fibers_pickle_and_copy():
    s = SeifertData.from_json(doc_of(0, [(2, 1), (5, -3), (2, 1), (1, 4)] * 50))
    for twin in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s), copy.copy(s)):
        assert twin == s and twin.to_json() == s.to_json()
        assert normalize(twin) == normalize(s)
