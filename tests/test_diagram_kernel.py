"""Differential tests of the crossing-index kernels against the dict
tracer in ``helpers``, plus error parity with :func:`validate`."""

from decimal import Decimal
from fractions import Fraction
from itertools import chain, product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    S3,
    build_diagram,
    crossing_index_by_zip,
    cycles_by_scan,
    dart_face_count,
    dict_components,
    dict_face_count,
    dict_genus_sum,
    hom_count,
    intersection_matrix,
    outcome,
    positivize_by_handles,
)
from sfsdiag import diagram
from sfsdiag.diagram import (
    Diagram,
    PermutationPair,
    SignRun,
    _crossing_index,
    _CrossingIndex,
    _cycles,
    _face_count,
    _find_violations,
    _trivial_handles,
    diagram_homology,
    diagram_presentation,
    is_positive_diagram,
    montesinos_decode,
    montesinos_encode,
    rotation_genus,
    validate,
)
from sfsdiag.errors import Disconnected
from sfsdiag.presentation import _exponent_sums, abelianization, positivize
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
    return build_diagram(0, cycles(sx), cycles(sy), dict(enumerate(signs, start=1)))


def relabel(dg, new_ids):
    """The diagram with its crossing ids, in increasing order, renamed to ``new_ids``."""
    to = dict(zip((c for c, _ in dg.signs), new_ids))
    return build_diagram(
        0,
        [[to[c] for c in curve] for curve in dg.x_curves],
        [[to[c] for c in curve] for curve in dg.y_curves],
        {to[c]: s for c, s in dg.signs},
    )


@st.composite
def relabelled_pair_diagrams(draw):
    """Signed pair diagrams on distinct ids drawn from -1000..1000."""
    dg = draw(signed_pair_diagrams())
    d = dg.crossing_count
    return relabel(dg, draw(st.lists(st.integers(-1000, 1000), min_size=d, max_size=d, unique=True)))


@st.composite
def shared_sign_pair_diagrams(draw):
    """Diagrams of random permutation pairs of degree 1..80 with any share of -1
    crossings, every one -1 in about half the draws; three in four on even ids,
    which are never ``1..d``."""
    d = draw(st.integers(1, 80))
    sx, sy = (draw(st.permutations(range(1, d + 1))) for _ in "xy")
    minus = set(draw(st.permutations(range(1, d + 1)))[:draw(st.one_of(st.just(d), st.integers(0, d)))])
    dg = build_diagram(0, cycles(sx), cycles(sy), {c: -1 if c in minus else 1 for c in range(1, d + 1)})
    if draw(st.integers(0, 3)):
        ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=d, max_size=d, unique=True))
        dg = relabel(dg, [2 * c for c in ids])
    return dg


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
    # the Smith form is canonical, so the index's rows and the presentation's
    # exponent sums give one exact result, 1s included
    assert diagram_homology(dg) == abelianization(diagram_presentation(dg))
    assert is_positive_diagram(dg) == all(v == 1 for _, v in dg.signs)
    check_rows_and_walks(dg)


@given(signed_pair_diagrams())
@settings(max_examples=150, deadline=None)
def test_permutation_pairs_match_dict_tracer(dg):
    check_against_reference(dg)
    positive = build_diagram(0, dg.x_curves, dg.y_curves, {c: 1 for c, _ in dg.signs})
    pair = montesinos_encode(positive)
    decoded = montesinos_decode(pair)
    assert decoded.declared_genus == dict_genus_sum(positive)
    assert montesinos_encode(decoded) == pair


@given(shared_sign_pair_diagrams())
@settings(max_examples=100, deadline=None)
def test_diagram_homology_is_the_presentation_abelianization(dg):
    assert diagram_homology(dg) == abelianization(diagram_presentation(dg))


@st.composite
def permutation_pairs(draw):
    """Random permutation pairs of degree 1..60; several blocks make the pair intransitive."""
    sizes = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    return PermutationPair(draw(block_permutation(sizes)), draw(block_permutation(sizes)))


@given(permutation_pairs())
@settings(max_examples=150, deadline=None)
def test_decode_builds_one_crossing_index(pair):
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagram, "_crossing_index", lambda *args: calls.append(args) or _crossing_index(*args))
        dg = montesinos_decode(pair)
        assert montesinos_encode(dg) == pair and dg.declared_genus == dict_genus_sum(dg)
    assert len(calls) == 1
    # the kept index, built on the pair's own successor lists, equals the one the decoded diagram would build itself
    fresh = _crossing_index(dg.declared_genus, dg.x_curves, dg.y_curves, dg.signs)
    assert {s: getattr(fresh, s) for s in fresh.__slots__} == {s: getattr(dg._index, s) for s in fresh.__slots__}


@given(signed_pair_diagrams(), st.data())
@settings(max_examples=100, deadline=None)
def test_noncontiguous_ids_match_dict_tracer(dg, data):
    d = dg.crossing_count
    mapped = relabel(dg, data.draw(st.lists(st.integers(-1000, 1000), min_size=d, max_size=d, unique=True)))
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


@given(
    st.lists(st.sampled_from(COPRIME_FIBERS), min_size=0, max_size=6),
    st.integers(-6, 6),
)
@settings(max_examples=40, deadline=None)
def test_positive_and_signed_face_walks_agree(fibers, euler):
    check_face_walks_agree(build_positive_vertical(SeifertData.normalized(0, fibers, euler)))


@given(st.one_of(
    st.builds(lambda fibers, euler: build_positive_vertical(SeifertData.normalized(0, fibers, euler)),
              st.lists(st.sampled_from(COPRIME_FIBERS), max_size=6), st.integers(-6, 6)),
    relabelled_pair_diagrams().map(lambda dg: build_diagram(0, dg.x_curves, dg.y_curves, {c: 1 for c, _ in dg.signs})),
    permutation_pairs().map(montesinos_decode),
))
@settings(max_examples=150, deadline=None)
def test_encode_hands_over_the_pair_the_constructor_proves(dg):
    # encode wraps the index's successor lists without the constructor's sorts: the pair is the one the
    # constructor builds from the zip oracle's lists, with tuple fields, on built, relabelled and decoded diagrams
    zipped = crossing_index_by_zip(dg.declared_genus, dg.x_curves, dg.y_curves, dg.signs)
    pair, proved = montesinos_encode(dg), PermutationPair(tuple(zipped.x_next[1:]), tuple(zipped.y_next[1:]))
    assert pair == proved and hash(pair) == hash(proved) and pair.to_json() == proved.to_json()
    assert type(pair.sigma_x) is type(pair.sigma_y) is tuple


def check_face_walks_agree(dg):
    # _face_count gives each crossing of the minority sign a trivial handle, the dart walk turns
    # at each crossing by its sign, and the dict tracer walks (crossing, slot) darts
    faces = _face_count(dg._index)
    assert dart_face_count(dg._index) == faces == dict_face_count([c for c, _ in dg.signs], dg)


@given(st.one_of(signed_pair_diagrams(), relabelled_pair_diagrams()))
@settings(max_examples=150, deadline=None)
def test_trivial_handles_make_a_positive_diagram_one_genus_up_per_negative_crossing(dg):
    # the paper's statement: a -1 crossing becomes three +1 crossings with the same faces
    n = sum(v < 0 for _, v in dg.signs)
    x_next, y_next = _trivial_handles(dg._index)
    assert len(x_next) == len(y_next) == dg.crossing_count + 1 + 2 * n
    assert x_next[0] == y_next[0] == 0
    positive = montesinos_decode(PermutationPair(tuple(x_next[1:]), tuple(y_next[1:])))
    assert is_positive_diagram(positive)
    # a handle is a stabilization: one more X curve and one more Y curve
    assert (len(positive.x_curves), len(positive.y_curves)) == (len(dg.x_curves) + n, len(dg.y_curves) + n)
    assert positive.declared_genus == dict_genus_sum(positive) == dict_genus_sum(dg) + n
    assert dict_face_count(range(1, len(x_next)), positive) == dict_face_count([c for c, _ in dg.signs], dg)
    assert len(dict_components(positive)) == len(dict_components(dg))


@st.composite
def signed_builds(draw, max_negatives=4):
    """Built diagrams of 3-5 fibers with alpha at most 9, with 1..max_negatives of their crossings made -1."""
    fibers = draw(st.lists(st.sampled_from([f for f in COPRIME_FIBERS if f[0] <= 9]), min_size=3, max_size=5))
    built = build_positive_vertical(SeifertData.normalized(0, fibers, draw(st.integers(-3, 3))))
    d = built.crossing_count
    negatives = draw(st.lists(st.integers(1, d), min_size=1, max_size=max_negatives, unique=True))
    return Diagram(built.declared_genus, built.x_curves, built.y_curves, SignRun(d, tuple(sorted(negatives))))


def mirrored_run(dg):
    """A signed build with every sign flipped: a run whose -1 ids are the majority, so the index puts
    its own handles on the +1 crossings."""
    d = dg.crossing_count
    negatives = tuple(sorted(set(range(1, d + 1)) - set(dg.signs.negatives)))
    return Diagram(dg.declared_genus, dg.x_curves, dg.y_curves, SignRun(d, negatives))


def relabelled_build(dg):
    """A signed build with crossing ``c`` renamed ``2c + 1000``: tuple signs off ``1..d``, read by rank."""
    return relabel(dg, [2 * c + 1000 for c in range(1, dg.crossing_count + 1)])


@given(st.one_of(signed_builds(), signed_builds().map(mirrored_run), signed_builds().map(relabelled_build)))
@settings(max_examples=100, deadline=None)
def test_handles_drawn_as_curves_make_a_positive_diagram_of_the_same_space(dg):
    # the paper's move on curves, checked through the positive path: one genus up per -1 crossing,
    # the same faces and the same first homology
    n, positive = sum(v < 0 for _, v in dg.signs), positivize_by_handles(dg)
    assert validate(positive) == [] and is_positive_diagram(positive)
    assert rotation_genus(positive) == rotation_genus(dg) + n
    assert diagram_homology(positive).same_group(diagram_homology(dg))
    pair = montesinos_encode(positive)
    decoded = montesinos_decode(pair)
    assert decoded.declared_genus == rotation_genus(positive) and montesinos_encode(decoded) == pair


@given(st.one_of(signed_builds(max_negatives=2), signed_builds(max_negatives=2).map(relabelled_build)))
@settings(max_examples=40, deadline=None)
def test_handles_keep_the_s3_count(dg):
    # one or two -1 crossings: the same number of maps into S3 from D, from D with its handles drawn as
    # curves, and from the positivized presentation of D
    count = hom_count(diagram_presentation(dg), S3)
    assert hom_count(diagram_presentation(positivize_by_handles(dg)), S3) == count
    assert hom_count(positivize(diagram_presentation(dg)), S3) == count


@given(st.one_of(signed_pair_diagrams(), relabelled_pair_diagrams()))
@settings(max_examples=150, deadline=None)
def test_flipping_every_sign_keeps_the_faces_and_the_rotation_genus(dg):
    # the mirror reverses the rotation at every crossing, and with it every face
    assert _face_count(mirror(dg)._index) == _face_count(dg._index)
    assert outcome(rotation_genus, mirror(dg)) == outcome(rotation_genus, dg)


def mirror(dg):
    """``dg`` with every crossing sign flipped."""
    return Diagram(0, dg.x_curves, dg.y_curves, tuple((c, -v) for c, v in dg.signs))


def check_rows_and_walks(dg):
    """The index's rows are exactly the nonzeros of the reference exponent rows, its
    components those of the dict tracer, and every face walk agrees."""
    rows = exponent_rows(reference_relators(dg), len(dg.x_curves))
    assert [dict(row) for row in dg._index.matrix] == [{g: v for g, v in enumerate(row, start=1) if v} for row in rows]
    assert dg._index.components == len(dict_components(dg))
    check_face_walks_agree(dg)


# diagrams whose longest Y curve (the one whose row is derived, not counted) is tied,
# alone, missed by an X curve, or beside an empty X or Y curve; per case the curves
# and the -1 crossings, which in the last cases cancel a generator on that curve
DERIVED_ROW_CASES = {
    "tied-longest": ([[1, 2], [3, 4]], [[1, 3], [2, 4]], ()),
    "tied-longest-first-short": ([[1, 4], [2, 5], [3]], [[3], [1, 2], [4, 5]], ()),
    "single-y": ([[1, 2], [3]], [[1, 3, 2]], ()),
    "single-y-one-x": ([[3, 1, 2]], [[2, 1, 3]], ()),
    "x-misses-longest": ([[1, 2, 3], [4]], [[1, 2, 3], [4]], ()),
    "x-misses-longest-later": ([[5], [1, 3], [2, 4, 6]], [[6], [4, 1, 2, 3], [5]], ()),
    "empty-x": ([[1, 2], []], [[2, 1]], ()),
    "empty-x-first": ([[], [2, 3], [1]], [[1, 3, 2]], ()),
    "empty-y": ([[1, 2], [3]], [[2, 3, 1], []], ()),
    "empty-y-first": ([[1, 3], [2, 4]], [[], [4], [1, 2, 3]], ()),
    "cancelled-on-longest": ([[1, 2], [3]], [[1, 3, 2]], (2,)),
    "cancelled-on-longest-only": ([[1, 4], [2, 3]], [[1, 2, 3], [4]], (3,)),
    "cancelled-twice-on-longest": ([[1, 2], [3, 4], [5]], [[1, 3, 5, 2, 4], []], (2, 4)),
    "cancelled-beside-others": ([[1, 2, 5], [3, 4, 6]], [[2, 3], [1, 4, 5, 6]], (3, 5)),
    "all-cancelled-on-longest": ([[1, 2, 5], [3, 4, 6]], [[2, 3], [1, 4, 5, 6]], (5, 6)),
}


@pytest.mark.parametrize("case", DERIVED_ROW_CASES)
def test_derived_row_matches_reference(case):
    xs, ys, negative = DERIVED_ROW_CASES[case]
    d = sum(map(len, xs))
    built = build_diagram(0, xs, ys, {c: -1 if c in negative else 1 for c in range(1, d + 1)})
    variants = [built, relabel(built, [7 * c - 20 for c in range(d)])]
    if not negative:
        variants.append(Diagram(0, built.x_curves, built.y_curves, SignRun(d)))
    for dg in variants:
        assert is_positive_diagram(dg) == (not negative)
        # every variant's longest row is derived, from the signs on each X curve when some
        # are -1: as given, mirrored, and with the first crossing's sign flipped
        for signed in (dg, mirror(dg), Diagram(0, dg.x_curves, dg.y_curves, ((dg.signs[0][0], -dg.signs[0][1]), *dg.signs[1:]))):
            check_rows_and_walks(signed)


# X curves linked only through a Y curve that crosses one of them twice with
# opposite signs: its folded row drops that generator, but the curves still meet
CANCELLED_LINK_CASES = {
    "cancelled-first": ([[1, 2], [3]], [[1, 2, 3]], {1: 1, 2: -1, 3: 1}),
    "cancelled-last": ([[3], [1, 2]], [[3, 1, 2]], {1: -1, 2: 1, 3: -1}),
    "cancelled-middle": ([[1], [2, 3], [4]], [[1, 2, 3, 4]], {1: 1, 2: 1, 3: -1, 4: 1}),
}


@pytest.mark.parametrize("case", CANCELLED_LINK_CASES)
def test_a_cancelled_generator_still_links_its_x_curve(case):
    xs, ys, signs = CANCELLED_LINK_CASES[case]
    built = build_diagram(0, xs, ys, signs)
    for dg in (built, mirror(built)):
        assert len(dg._index.matrix[0]) == len(xs) - 1
        assert dg._index.components == len(dict_components(dg)) == 1
        assert rotation_genus(dg) == dict_genus_sum(dg)
        check_rows_and_walks(dg)


# the component count is 1, with no union-find, when some Y curve crosses every X curve, as
# its unsigned row shows; otherwise the X curves each Y curve crosses are joined.  Per case:
# curves, the -1 crossings, whether a row of the matrix, folded to its exponent sums, meets
# every X curve, and the component count
CONNECTIVITY_CASES = {
    # Y_1 crosses every X curve, as in every build
    "one-row-meets-all": ([[1, 4], [2], [3, 5]], [[1, 2, 3], [4, 5]], (), True, 1),
    # the longest Y curve misses X_3, which the other Y curve links to X_1
    "longest-misses-one": ([[1, 5], [2, 3], [4]], [[1, 2, 3], [4, 5]], (), False, 1),
    "intransitive": ([[1, 2], [3], [4]], [[1, 3, 2], [4]], (), False, 2),
    # Y_1 meets every X curve, X_1 twice with opposite signs: its folded row loses X_1, but the
    # count is taken on the unsigned rows, where Y_1 still meets every X curve, with no union-find
    "folded-row-loses-one": ([[1, 2], [3], [4]], [[1, 3, 2, 4]], (2,), False, 1),
}


@pytest.mark.parametrize("case", CONNECTIVITY_CASES)
def test_one_row_connectivity_rule_and_its_fallback(case):
    xs, ys, negative, row_meets_all, components = CONNECTIVITY_CASES[case]
    built = build_diagram(0, xs, ys, {c: -1 if c in negative else 1 for c in range(1, sum(map(len, xs)) + 1)})
    for dg in (built, mirror(built)):
        assert (len(xs) in map(len, dg._index.matrix)) == row_meets_all
        assert dg._index.components == len(dict_components(dg)) == components
        check_rows_and_walks(dg)


@given(st.one_of(signed_pair_diagrams(), relabelled_pair_diagrams()))
@settings(max_examples=150, deadline=None)
def test_majority_negative_diagrams_match_reference(dg):
    check_against_reference(dg if 2 * sum(v < 0 for _, v in dg.signs) >= dg.crossing_count else mirror(dg))


@given(st.one_of(signed_pair_diagrams(), relabelled_pair_diagrams()))
@settings(max_examples=150, deadline=None)
def test_face_count_gives_handles_to_the_minority_sign(dg):
    # handles on the +1 crossings are those of the mirror, whose faces are the same
    assert _trivial_handles(dg._index, 1) == _trivial_handles(mirror(dg)._index)
    # so the walk takes at most d / 2 handles: at most 2d + 1 ranks
    walked, real = [], _trivial_handles
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagram, "_trivial_handles", lambda idx, *sign: walked.append(real(idx, *sign)) or walked[-1])
        faces = _face_count(dg._index)
    assert faces == dart_face_count(dg._index)
    d, minus = dg.crossing_count, sum(v < 0 for _, v in dg.signs)
    assert [len(x_next) for x_next, _ in walked] == ([d + 1 + 2 * min(minus, d - minus)] if minus else [])


@st.composite
def decoded_pairs(draw):
    """Positive diagrams decoded from random permutation pairs of degree 1..60."""
    d = draw(st.integers(1, 60))
    sx, sy = (tuple(draw(st.permutations(range(1, d + 1)))) for _ in "xy")
    return montesinos_decode(PermutationPair(sx, sy))


@given(decoded_pairs())
@settings(max_examples=60, deadline=None)
def test_positive_and_signed_face_walks_agree_on_decoded_pairs(dg):
    # unlike in builds, most ranks of a random pair move under the face step
    check_face_walks_agree(dg)


def check_index_parity(dg):
    """Every slot of the index read off a run equals the one the ranked path builds for the tuple it
    stands for (which keeps ``y_ranks`` as lists, so the slots are compared as ``index_slots``)."""
    assert type(dg.signs) is SignRun
    run = _crossing_index(dg.declared_genus, dg.x_curves, dg.y_curves, dg.signs)
    tup = _crossing_index(dg.declared_genus, dg.x_curves, dg.y_curves, tuple(dg.signs))
    assert run is not None and index_slots(run) == index_slots(tup)


@given(
    st.lists(st.sampled_from(COPRIME_FIBERS), min_size=0, max_size=6),
    st.integers(-6, 6),
)
@settings(max_examples=40, deadline=None)
def test_index_of_a_built_run_matches_the_tuple_path(fibers, euler):
    check_index_parity(build_positive_vertical(SeifertData.normalized(0, fibers, euler)))


@given(decoded_pairs())
@settings(max_examples=60, deadline=None)
def test_index_of_a_decoded_run_matches_the_tuple_path(dg):
    check_index_parity(dg)


@given(st.one_of(signed_pair_diagrams(), signed_pair_diagrams().map(mirror), shared_sign_pair_diagrams()))
@settings(max_examples=100, deadline=None)
def test_index_of_a_signed_read_matches_the_tuple_path(dg):
    # pair diagrams on ids 1..d, signed as drawn, mirrored or with any share of -1 crossings, read back as runs
    if [c for c, _ in dg.signs] == list(range(1, dg.crossing_count + 1)):
        check_index_parity(Diagram.from_json(dg.to_json()))


@pytest.mark.parametrize("minus", ["every-third", "all"])
def test_index_of_a_signed_built_read_matches_the_tuple_path(minus):
    built = build_positive_vertical(SeifertData.normalized(0, [(11, 3), (7, 2), (9, 4)], -1))
    doc = built.to_json()
    doc["signs"] = {k: -1 if minus == "all" or int(k) % 3 == 0 else 1 for k in doc["signs"]}
    read = Diagram.from_json(doc)
    assert read.signs.negatives == tuple(c for c in range(1, built.crossing_count + 1) if minus == "all" or c % 3 == 0)
    check_index_parity(read)
    assert rotation_genus(read) == dict_genus_sum(read)


@given(st.one_of(signed_pair_diagrams(), relabelled_pair_diagrams(), shared_sign_pair_diagrams()))
@settings(max_examples=200, deadline=None)
def test_from_json_reads_ids_one_to_d_as_a_run(dg):
    read = Diagram.from_json(dg.to_json())
    assert read == dg and dg == read and hash(read) == hash(dg) and read.to_json() == dg.to_json()
    # the signs are a run iff the ids are 1..d, whatever their signs; the run keeps the -1 ids in order
    assert (type(read.signs) is SignRun) == ([c for c, _ in dg.signs] == list(range(1, dg.crossing_count + 1)))
    if type(read.signs) is SignRun:
        assert read.signs.negatives == tuple(c for c, v in dg.signs if v == -1)


@st.composite
def index_inputs(draw):
    """Curves and signs of permutation-pair diagrams, relabelled or with any share of -1
    crossings (none in a quarter of the draws; as a run of their -1 ids in half of those on
    ids ``1..d``), empty X and Y curves inserted, and in half the draws one id on one
    curve corrupted to 0, -k, d + 1 or a repeat."""
    dg = draw(st.one_of(signed_pair_diagrams(), relabelled_pair_diagrams(), shared_sign_pair_diagrams()))
    d, ids = dg.crossing_count, [c for c, _ in dg.signs]
    sides = [list(map(list, dg.x_curves)), list(map(list, dg.y_curves))]
    for curves in sides:
        for _ in range(draw(st.integers(0, 2))):
            curves.insert(draw(st.integers(0, len(curves))), [])
    if draw(st.booleans()):
        curve = draw(st.sampled_from([curve for curves in sides for curve in curves if curve]))
        at = draw(st.integers(0, len(curve) - 1))
        # id -k indexes slot d + 1 - k, so curve[at] - d - 1 fills the very slot it replaces
        curve[at] = draw(st.sampled_from(
            [0, d + 1, -draw(st.integers(1, d + 1)), curve[at] - d - 1, draw(st.sampled_from(ids))]))
    signs = tuple((c, 1) for c in ids) if draw(st.integers(0, 3)) == 0 else dg.signs
    if ids == list(range(1, d + 1)) and draw(st.booleans()):
        signs = SignRun(d, tuple(c for c, v in signs if v == -1))
    return dg.declared_genus, tuple(map(tuple, sides[0])), tuple(map(tuple, sides[1])), signs


def index_slots(idx):
    """Every slot of a crossing index, the curves and rows as plain lists and dicts; the rows
    read through ``matrix``, which folds a signed diagram's, not through its private slot."""
    if idx is None:
        return None
    slots = {s: getattr(idx, s.lstrip("_")) for s in _CrossingIndex.__slots__}
    slots["y_ranks"] = [list(rs) for rs in idx.y_ranks]
    slots["matrix"] = [dict(row) for row in idx.matrix]
    return slots


@given(index_inputs())
@settings(max_examples=400, deadline=None)
def test_index_matches_the_zip_oracle_slot_by_slot(case):
    genus, xs, ys, signs = case
    for signs in (signs, tuple((c, -v) for c, v in signs)):  # and the mirror
        assert index_slots(_crossing_index(genus, xs, ys, signs)) == index_slots(crossing_index_by_zip(genus, xs, ys, signs))


@given(st.one_of(signed_pair_diagrams(), shared_sign_pair_diagrams(), decoded_pairs()))
@settings(max_examples=150, deadline=None)
def test_a_signed_matrix_is_folded_once_when_first_read(dg):
    folds = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagram, "_exponent_sums", lambda counts: folds.append(counts) or _exponent_sums(counts))
        idx = dg._index
        assert not folds and (idx._matrix is None) == bool(idx.negative)
        first = diagram_homology(dg)
        assert len(folds) == (len(dg.y_curves) if idx.negative else 0)
        # the folded rows are kept: a second Smith form folds nothing new
        assert diagram_homology(dg) == first and len(folds) == (len(dg.y_curves) if idx.negative else 0)
    assert idx.matrix is idx.matrix
    zipped = crossing_index_by_zip(dg.declared_genus, dg.x_curves, dg.y_curves, dg.signs)
    assert [dict(row) for row in idx.matrix] == [dict(row) for row in zipped.matrix]


@given(st.integers(0, 60).flatmap(lambda d: st.permutations(range(1, d + 1))))
@settings(max_examples=200, deadline=None)
def test_cycles_match_the_scan_over_every_start(sigma):
    scanned = cycles_by_scan(tuple(sigma))
    cycles, number = _cycles(tuple(sigma))
    assert cycles == tuple(scanned)
    # each crossing's cycle number is the place of its cycle in the scan, the dummy 0's is 1
    of = {c: n for n, cycle in enumerate(scanned, start=1) for c in cycle}
    assert number == [1] + [of[c] for c in range(1, len(sigma) + 1)]


# one sign entry made bad: a key that is no canonical id (kept, with None), or a value that is no int
BAD_SIGN_ENTRIES = [("01", 1), ("1_0", 1), (" 1", 1), ("+1", 1), ("a", 1), ("-0", 1), ("1.0", 1),
                    (None, 1.0), (None, True), (None, "1"), (None, None)]


@given(st.one_of(signed_pair_diagrams(), relabelled_pair_diagrams()), st.data())
@settings(max_examples=200, deadline=None)
def test_from_json_reads_shuffled_sign_keys_alike(dg, data):
    # the keys to_json writes for ids 1..d are read in order; shuffled, they are parsed and sorted
    doc = dg.to_json()
    items = list(doc["signs"].items())
    if bad := data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(items) - 1))
        key, value = data.draw(st.sampled_from(BAD_SIGN_ENTRIES))
        items[at] = (key or items[at][0], value)
    shuffled = dict(doc, signs=dict(data.draw(st.permutations(items))))
    doc = dict(doc, signs=dict(items))
    read = outcome(Diagram.from_json, doc)
    assert outcome(Diagram.from_json, shuffled) == read
    assert type(read) is tuple if bad else read == dg


def test_large_built_diagram_matches_dict_tracer():
    dg = build_positive_vertical(SeifertData.normalized(0, [(59, 37), (53, 29), (47, 31)], -3))
    assert dg.crossing_count > 10_000
    faces = dict_face_count([c for c, _ in dg.signs], dg)
    assert _face_count(dg._index) == faces
    assert rotation_genus(dg) == (2 + dg.crossing_count - faces) // 2 == dg.declared_genus


def test_index_is_cached_and_leaves_identity_alone():
    dg = montesinos_decode(PermutationPair((2, 3, 1), (3, 1, 2)))
    twin = build_diagram(dg.declared_genus, dg.x_curves, dg.y_curves, dg.sign_map)
    assert dg._index is dg._index
    assert dg == twin and hash(dg) == hash(twin)
    assert dg.to_json() == twin.to_json()


# every invalid diagram of test_diagram.py, plus a repeated sign id that
# agrees in sign, with today's exact message
INVALID = [
    (build_diagram(1, [[1], [1]], [[1]], {1: 1}),
     "invalid diagram: DuplicateOnX: crossing 1 appears 2 times"),
    (build_diagram(1, [[1, 2]], [[1], [2]], {1: 1}),
     "invalid diagram: MissingSign: crossing 2 has no sign"),
    (build_diagram(1, [[1]], [[]], {1: 1, 2: -1}),
     "invalid diagram: MissingFromY: crossing 1 is only on an X curve"),
    (build_diagram(1, [[1]], [[1]], {1: 2}),
     "invalid diagram: BadSign: crossing 1 has sign 2"),
    (build_diagram(-1, [[1]], [[1]], {1: 1}),
     "invalid diagram: NegativeGenus: declared genus is negative"),
    (build_diagram(1, [], [[1]], {1: 1}),
     "invalid diagram: EmptySide: no X curves"),
    (Diagram(1, ((1,),), ((1,),), ((1, 1), (1, -1))),
     "invalid diagram: DuplicateSign: crossing 1 appears 2 times"),
    (Diagram(1, ((2, 5),), ((5, 2),), ((2, 1), (2, 1), (5, 1))),
     "invalid diagram: DuplicateSign: crossing 2 appears 2 times"),
    # a run of positive signs is trusted, its curves are not
    (Diagram(1, ((1, 1),), ((1, 2),), SignRun(2)),
     "invalid diagram: DuplicateOnX: crossing 1 appears 2 times"),
    (Diagram(1, ((1, 3),), ((3, 1),), SignRun(2)),
     "invalid diagram: MissingSign: crossing 3 has no sign"),
    (Diagram(1, ((0, 1),), ((1, 0),), SignRun(2)),
     "invalid diagram: MissingSign: crossing 0 has no sign"),
    (Diagram(1, ((1,),), ((1, 2),), SignRun(2)),
     "invalid diagram: MissingFromX: crossing 2 is only on a Y curve"),
]
# ids that are not ranks 1..d, under a run and under the tuple it stands for;
# -1 indexes the last slot and -2 the missing slot 2, so no slot is left
# unfilled and only their places as successors give them away
INVALID += [
    (Diagram(1, (x,), (y,), signs), "invalid diagram: " + message)
    for x, y, d, message in [
        ((1.5, 1), (1.5, 1), 2, "MissingSign: crossing 1.5 has no sign"),
        ((1, 2, -1), (1, 2, 3), 3, "MissingFromY: crossing -1 is only on an X curve"),
        ((1, 3, -2), (1, 2, 3), 3, "MissingFromY: crossing -2 is only on an X curve"),
        ((1, 2, 3), (0, 1, 2), 3, "MissingFromY: crossing 3 is only on an X curve"),
        ((1, 2, 4), (1, 2, 4), 3, "MissingSign: crossing 4 has no sign"),
        ((1, 2, 3), (1, 3, 3), 3, "DuplicateOnY: crossing 3 appears 2 times"),
    ]
    for signs in (SignRun(d), tuple(SignRun(d)))
]
# ids 1..d in order with a repeat: the sign map is shorter than d
INVALID.append((Diagram(1, ((1, 2),), ((1, 2),), ((1, 1), (1, 1))),
                "invalid diagram: DuplicateSign: crossing 1 appears 2 times"))
# repeats whose successor lists would sum to 1 + ... + d under a weaker sentinel for an
# unset slot: under d = 4, -4 fills slot 1, slot 2 stays unset and the set slots sum to 11
# (an unset -1 makes 10); under d = 3, -4 fills slot 0, slots 1 and 2 stay unset and the
# set slots already sum to 6 (an unset 0 passes)
INVALID += [
    (Diagram(1, *sides, SignRun(d)), f"invalid diagram: DuplicateOn{side}: crossing {c} appears 2 times")
    for curve, d, c in [((-4, 3, 4, 4), 4, 4), ((-4, 3, 3), 3, 3)]
    for side, sides in [("X", ((curve,), (tuple(range(1, d + 1)),))), ("Y", ((tuple(range(1, d + 1)),), (curve,)))]
]
# ids that are no int, under a run and under the tuple it stands for: 2.0 equals crossing 2,
# so only its type gives it away, and "2" does not sort among the int ids
INVALID += [
    (Diagram(1, ((1, c),), ((1, 2),), signs), "invalid diagram: " + message)
    for c, message in [(2.0, "BadId: crossing id 2.0 is not an integer"),
                       ("2", "MissingFromY: crossing '2' is only on an X curve")]
    for signs in (SignRun(2), ((1, 1), (2, 1)))
]
# ids that are no int under tuple signs, refused by the type scan; None never meets an int id in a sort
INVALID += [
    (Diagram(1, (("2",),), (("2",),), (("2", -1),)), "invalid diagram: BadId: crossing id '2' is not an integer"),
    (Diagram(1, ((-0.5,),), ((-0.5,),), ((-0.5, 1),)), "invalid diagram: BadId: crossing id -0.5 is not an integer"),
    (Diagram(1, ((1, None),), ((1, None),), ((1, 1), (None, 1))),
     "invalid diagram: BadId: crossing id None is not an integer"),
]


class IndexId:
    """A crossing id that indexes a list as the int it holds, yet is no int."""

    def __init__(self, v):
        self.v = v

    def __index__(self):
        return self.v

    def __repr__(self):
        return f"{type(self).__name__}({self.v})"


class NumpyLikeId(IndexId):
    """An :class:`IndexId` that also equals, hashes and adds as its int, as numpy's integers do;
    a sum that meets one is a ``NumpyLikeId``."""

    def __eq__(self, other):
        return self.v == other

    def __hash__(self):
        return hash(self.v)

    def __add__(self, other):
        return NumpyLikeId(self.v + other)

    __radd__ = __add__


# ids that are no int but equal an int: a sign key among ids 1..d (whose pairs are ranked too),
# a curve id under ranked signs (5, 7), or a curve id that indexes a list as crossing 2
INVALID += [
    (dg, f"invalid diagram: BadId: crossing id {c!r} is not an integer")
    for c, dg in [(2.0, Diagram(1, ((1, 2),), ((1, 2),), ((1, 1), (2.0, 1)))),
                  (Fraction(2), Diagram(1, ((1, 2),), ((1, 2),), ((1, 1), (Fraction(2), 1)))),
                  (Decimal(2), Diagram(1, ((1, 2),), ((1, 2),), ((1, 1), (Decimal(2), 1)))),
                  (7.0, Diagram(1, ((5, 7.0),), ((5, 7),), ((5, 1), (7, 1)))),
                  (Fraction(7), Diagram(1, ((5, 7),), ((Fraction(7), 5),), ((5, 1), (7, 1)))),
                  (NumpyLikeId(7), Diagram(1, ((5, NumpyLikeId(7)),), ((5, 7),), ((5, 1), (7, 1)))),
                  (NumpyLikeId(2), Diagram(1, ((1, NumpyLikeId(2)),), ((1, 2),), ((1, 1), (2, 1)))),
                  (NumpyLikeId(2), Diagram(1, ((1, 2),), ((NumpyLikeId(2), 1),), SignRun(2)))]
]
# an id that indexes a list but neither equals nor adds as an int, so it is also missing from Y
INVALID.append((Diagram(1, ((1, IndexId(2)),), ((1, 2),), SignRun(2)),
                "invalid diagram: MissingFromY: crossing IndexId(2) is only on an X curve"))
# a sign that is a string, under tuple signs on ids 1..d and on ranked ids, alone and beside a -1
INVALID += [
    (Diagram(1, ((a, b),), ((a, b),), signs), f"invalid diagram: BadSign: crossing {b} has sign x")
    for a, b in [(1, 2), (5, 7)]
    for signs in (((a, 1), (b, "x")), ((a, -1), (b, "x")))
]


class RaddId(IndexId):
    """An :class:`IndexId` that equals and hashes as its int, and whose sum with an int is a plain int:
    no sum of a successor list tells it from the int it stands for."""

    def __eq__(self, other):
        return self.v == other

    def __hash__(self):
        return hash(self.v)

    def __radd__(self, other):
        return other + self.v


DECODED = montesinos_decode(PermutationPair((2, 3, 1), (3, 1, 2)))
# ids and a sign that equal the ints they stand for and that only the type scan refuses: a True sign
# key, a True curve id under tuple signs and under a decoded diagram's own run, a RaddId under a run,
# and a True sign value
INVALID += [
    (dg, f"invalid diagram: BadId: crossing id {c!r} is not an integer")
    for c, dg in [(True, Diagram(1, ((1, 2),), ((2, 1),), ((True, 1), (2, 1)))),
                  (True, Diagram(1, ((True,),), ((1,),), ((1, 1),))),
                  (True, Diagram(1, ((True, *DECODED.x_curves[0][1:]),), DECODED.y_curves, DECODED.signs)),
                  (RaddId(2), Diagram(1, ((1, RaddId(2)),), ((1, 2),), SignRun(2)))]
]
INVALID.append((Diagram(1, ((1,),), ((1,),), ((1, True),)), "invalid diagram: BadSign: crossing 1 has sign True"))


def all_ints(dg):
    """Whether every curve id, sign key and sign value of ``dg`` is an int (a bool is none): the only
    data the crossing index and its zip oracle take, as the type scan of ``validate`` refuses the rest."""
    return all(type(c) is int for c in chain(*dg.x_curves, *dg.y_curves, *dg.signs))


def check_validate(dg):
    """``validate`` lists what the exhaustive pass lists, and on a first validation the pass finds a fault
    whenever ``validate`` builds no index (the type scan refused) or the index is None: else ``_index``
    would miss its key.  A decoded diagram comes validated."""
    fresh, built = "_violations" not in dg.__dict__, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagram, "_crossing_index", lambda *args: built.append(_crossing_index(*args)) or built[-1])
        problems = validate(dg)
    assert problems == _find_violations(dg)
    if fresh:
        assert bool(problems) == (built in ([], [None]))
    return problems


@pytest.mark.parametrize("dg,message", INVALID)
def test_error_is_the_first_violation(dg, message):
    first = check_validate(dg)[0]
    assert message == f"invalid diagram: {first.code}: {first.message}"
    if all_ints(dg):
        assert _crossing_index(dg.declared_genus, dg.x_curves, dg.y_curves, dg.signs) is None
        assert crossing_index_by_zip(dg.declared_genus, dg.x_curves, dg.y_curves, dg.signs) is None


@pytest.mark.parametrize("dg,message", INVALID)
@pytest.mark.parametrize("query", [is_positive_diagram, rotation_genus, diagram_presentation])
def test_error_parity(dg, message, query):
    with pytest.raises(ValueError) as exc:
        query(dg)
    assert str(exc.value) == message


@pytest.mark.parametrize("signs", [SignRun(3), ((1, 1), (2, 1), (3, 1))])
def test_every_id_that_is_no_int_is_listed_last(signs):
    dg = Diagram(1, ((1, "2", 3.0),), ((1, 2, 3),), signs)
    assert [(v.code, v.message) for v in validate(dg)] == [
        ("MissingFromY", "crossing '2' is only on an X curve"),
        ("MissingFromX", "crossing 2 is only on a Y curve"),
        ("MissingSign", "crossing '2' has no sign"),
        ("BadId", "crossing id '2' is not an integer"),
        ("BadId", "crossing id 3.0 is not an integer"),
    ]


# ids that are no int, or a bool, beside the ints -7..7
ODD_IDS = (2.5, -0.5, "2", None, True, 2.0)
CROSSING_IDS = st.one_of(st.integers(-7, 7), st.sampled_from(ODD_IDS))


@st.composite
def raw_diagrams(draw):
    """Curves of ids -7..7 or no int, and signs as a dict on ints, as a run of +1 signs on as many
    ids as the X curves hold, or as a tuple of pairs on any ids, in any order, as drawn."""
    genus = draw(st.integers(-1, 1))
    xs, ys = (tuple(map(tuple, draw(st.lists(st.lists(CROSSING_IDS, max_size=4), max_size=3)))) for _ in "xy")
    signs = draw(st.one_of(st.dictionaries(st.integers(-7, 7), st.sampled_from((1, -1, 2))), st.none(),
                           st.lists(st.tuples(CROSSING_IDS, st.sampled_from((1, -1, 2))), max_size=8).map(tuple)))
    if signs is None:
        return Diagram(genus, xs, ys, SignRun(sum(map(len, xs))))
    return Diagram(genus, xs, ys, signs) if type(signs) is tuple else build_diagram(genus, xs, ys, signs)


@st.composite
def renamed_pair_diagrams(draw):
    """Signed pair diagrams with their ids renamed alike on the curves and in the tuple signs,
    to distinct ints or ``ODD_IDS``: only an id that is no int is at fault."""
    dg = draw(signed_pair_diagrams())
    ids = st.one_of(st.integers(-100, 100), st.sampled_from(ODD_IDS))
    new = draw(st.lists(ids, min_size=dg.crossing_count, max_size=dg.crossing_count, unique=True))
    to = dict(zip((c for c, _ in dg.signs), new))
    x_curves, y_curves = (tuple(tuple(map(to.get, curve)) for curve in curves) for curves in (dg.x_curves, dg.y_curves))
    return Diagram(0, x_curves, y_curves, tuple((to[c], v) for c, v in dg.signs))


@st.composite
def own_rank_key_diagrams(draw):
    """Signed pair diagrams, their ids shifted by 0 (ids ``1..d``) or 10 (ranked), with one id made
    a value that equals it or indexes a list as it but is no int (``True`` for id 1), among the sign
    keys, the X curves, the Y curves or several of them."""
    dg = draw(signed_pair_diagrams())
    shift = draw(st.sampled_from((0, 10)))
    r = draw(st.integers(1, dg.crossing_count)) + shift
    odd = draw(st.sampled_from((float(r), Fraction(r), Decimal(r), NumpyLikeId(r), IndexId(r), RaddId(r))
                               + ((True,) * (r == 1))))
    where = draw(st.sets(st.sampled_from(("signs", "x", "y")), min_size=1))
    x_curves, y_curves = (tuple(tuple(odd if c + shift == r and side in where else c + shift for c in curve)
                                for curve in curves) for side, curves in (("x", dg.x_curves), ("y", dg.y_curves)))
    return Diagram(0, x_curves, y_curves,
                   tuple((odd if c + shift == r and "signs" in where else c + shift, v) for c, v in dg.signs))


@given(st.one_of(raw_diagrams(), renamed_pair_diagrams(), own_rank_key_diagrams()))
@settings(max_examples=400, deadline=None)
def test_index_rejects_exactly_what_validate_reports(dg):
    """Two independent validators, the type scan with the crossing index and the exhaustive pass, agree;
    ``validate`` lists what the pass lists, though it runs the pass only when the scan or the index
    refuses.  The index and its zip oracle, which take ints only, agree with the pass on ints."""
    problems = check_validate(dg)
    if all_ints(dg):
        assert (_crossing_index(dg.declared_genus, dg.x_curves, dg.y_curves, dg.signs) is None) == bool(problems)
        assert (crossing_index_by_zip(dg.declared_genus, dg.x_curves, dg.y_curves, dg.signs) is None) == bool(problems)
    if problems:
        with pytest.raises(ValueError) as exc:
            is_positive_diagram(dg)
        assert str(exc.value) == f"invalid diagram: {problems[0].code}: {problems[0].message}"


@given(st.one_of(signed_pair_diagrams(), relabelled_pair_diagrams(), shared_sign_pair_diagrams(), decoded_pairs(),
                 signed_builds(), index_inputs().map(lambda case: Diagram(*case))))
@settings(max_examples=200, deadline=None)
def test_validate_lists_what_the_exhaustive_pass_lists(dg):
    # the kernel's other strategies: valid diagrams, and index_inputs' corrupted ids and empty curves
    check_validate(dg)


@pytest.mark.parametrize("d", range(1, 5))
def test_index_rejects_every_side_that_is_not_one_to_d(d):
    """Every single curve over ids ``-(d+1)..d`` on either side, against the valid curve
    ``1..d`` on the other under a run of +1 signs: the index is None iff the exhaustive pass faults."""
    valid = (tuple(range(1, d + 1)),)
    for curve in product(range(-d - 1, d + 1), repeat=d):
        for xs, ys in (((curve,), valid), (valid, (curve,))):
            dg = Diagram(1, xs, ys, SignRun(d))
            assert (_crossing_index(1, xs, ys, dg.signs) is None) == bool(_find_violations(dg)), (xs, ys)


# a run's d and -1 ids that are not an int d >= 0 with increasing int ids in 1..d: out of range,
# repeated, out of order, a bool or a float among the ids, or a d that is no int or negative
MALFORMED_RUNS = [(2, (0,)), (2, (3,)), (2, (2, 2)), (3, (2, 1)), (2, (True,)), (2, (2.0,)), (2, ("1",)),
                  (True, ()), (2.0, ()), (-1, ()), ("2", (1,))]


@pytest.mark.parametrize("d,negatives", MALFORMED_RUNS)
def test_a_run_refuses_malformed_negatives(d, negatives):
    with pytest.raises(ValueError, match="a sign run takes an int d >= 0 and increasing int -1 ids in 1..d"):
        SignRun(d, negatives)


def well_formed_run(d, negatives):
    """Whether ``SignRun(d, negatives)`` stands for signs on ids ``1..d``: an int d >= 0, and
    -1 ids that are ints, each in ``1..d``, in increasing order."""
    return (type(d) is int and d >= 0 and all(type(c) is int and 1 <= c <= d for c in negatives)
            and list(negatives) == sorted(set(negatives)))


@st.composite
def hand_built_runs(draw):
    """A run's ``d`` (0..8, or in a quarter of the draws one that is no int or negative) and any -1 ids
    (a sorted subset of ``1..d`` in half the draws, else any of -1..d + 1, True, 2.0 and "1", in any
    order, with repeats), and curves for it to sign: in three draws of four those of a permutation pair
    on ``1..d``, one id of them corrupted in a third of those, else any curves of ``raw_diagrams``' ids."""
    d = draw(st.sampled_from((True, 2.0, -1))) if draw(st.integers(0, 3)) == 0 else draw(st.integers(0, 8))
    top = d if type(d) is int and d >= 0 else 2
    if draw(st.booleans()):
        negatives = tuple(sorted(draw(st.sets(st.integers(1, max(top, 1)), max_size=top))))
    else:
        negatives = tuple(draw(st.lists(st.one_of(st.integers(-1, top + 1), st.sampled_from((True, 2.0, "1"))),
                                        max_size=4)))
    if top > 0 and draw(st.integers(0, 3)):
        sides = [cycles(draw(st.permutations(range(1, top + 1)))) for _ in "xy"]
        if draw(st.integers(0, 2)) == 0:
            curve = draw(st.sampled_from(sides[0] + sides[1]))
            curve[draw(st.integers(0, len(curve) - 1))] = draw(st.sampled_from((0, top + 1, True, 2.0, curve[0])))
    else:
        sides = [draw(st.lists(st.lists(CROSSING_IDS, max_size=4), max_size=3)) for _ in "xy"]
    return d, negatives, *(tuple(map(tuple, curves)) for curves in sides)


@given(hand_built_runs())
@settings(max_examples=300, deadline=None)
def test_a_hand_built_run_is_refused_or_validated_as_its_tuple(case):
    """A run is refused exactly when its d or -1 ids are malformed; a well-formed one stands for its
    tuple of signs, and ``validate`` lists for it what the exhaustive pass lists."""
    d, negatives, xs, ys = case
    if not well_formed_run(d, negatives):
        with pytest.raises(ValueError):
            SignRun(d, negatives)
        return
    run = SignRun(d, negatives)
    assert run == tuple((c, -1 if c in negatives else 1) for c in range(1, d + 1))
    dg, twin = Diagram(1, xs, ys, run), Diagram(1, xs, ys, tuple(run))
    assert check_validate(dg) == validate(twin)
    for query in (is_positive_diagram, rotation_genus, diagram_homology):
        assert outcome(query, dg) == outcome(query, twin)


@pytest.fixture
def scans(monkeypatch):
    """Each type scan of ``Diagram._violations``, seen as its call of ``chain``, the module's only one."""
    made = []
    monkeypatch.setattr(diagram, "chain", lambda *its: made.append(its) or chain(*its))
    return made


class TestScanOnce:
    def test_a_hand_built_diagram_is_scanned_once(self, scans):
        dg = Diagram(1, ((1, 2),), ((2, 1),), ((1, 1), (2, 1)))
        assert validate(dg) == [] and rotation_genus(dg) == 1 and validate(dg) == [] and len(scans) == 1
        assert "_ints" not in dg.__dict__

    def test_built_read_and_decoded_diagrams_are_not_scanned(self, scans):
        built = build_positive_vertical(SeifertData.normalized(0, [(3, 1), (5, 2), (7, 3)], -1))
        doc = built.to_json()
        signed = dict(doc, signs={k: -1 if int(k) % 3 == 0 else v for k, v in doc["signs"].items()})
        shifted = dict(doc, x_curves=[[c + 10 for c in curve] for curve in doc["x_curves"]],
                       y_curves=[[c + 10 for c in curve] for curve in doc["y_curves"]],
                       signs={str(int(k) + 10): v for k, v in doc["signs"].items()})
        reads = [Diagram.from_json(d) for d in (doc, signed, shifted)]
        assert [type(dg.signs) for dg in reads] == [SignRun, SignRun, tuple]
        decoded = montesinos_decode(montesinos_encode(built))
        for dg in (built, *reads, decoded):
            assert validate(dg) == [] and rotation_genus(dg) == dict_genus_sum(dg)
            assert "_ints" not in dg.__dict__
        # a defective read is not scanned either: its index is None and the pass lists the fault
        doc["x_curves"][0][0] = doc["x_curves"][0][1]
        assert validate(Diagram.from_json(doc))[0].code == "DuplicateOnX"
        assert scans == []
