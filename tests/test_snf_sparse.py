"""Differential tests of the sparse ``snf`` against ``dense_snf``, the
dense elimination with a global pivot rescan kept in ``helpers``: random
matrices of every small shape and fill, one dense row over a bidiagonal
band, and the two structured matrices every verified build reduces (the
filling relations, at small and large alpha and in any fiber order, and
the diagram's intersection matrix).
``homology`` reads the Smith form of the filling relations off in closed
form; the full matrix of ``helpers.relation_matrix`` is its oracle, and
``helpers.homology_by_elimination`` where that matrix is too large."""

import random
import time
from math import gcd, prod

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfsdiag.diagram import diagram_homology
from sfsdiag.exactalg import IntMatrix, SnfResult, snf
from sfsdiag.seifert import FiberInvariant, SeifertData, homology
from sfsdiag.vertical import assign_betas, build_positive_vertical, plan_decomposition, synthesize_diagram

from helpers import (
    dense_snf,
    homology_by_elimination,
    intersection_matrix,
    rational_euler_by_fractions,
    relation_matrix,
)

COPRIME = [(a, b) for a in range(2, 8) for b in range(1, a) if gcd(a, b) == 1]


@st.composite
def matrices(draw):
    nr, nc = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    bound = draw(st.sampled_from((1, 9, 10**12)))
    entry = st.integers(-bound, bound)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    rows = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    # zero rows and columns; row and column factors, without which the
    # pivots of a random matrix are almost always units
    factor = st.sampled_from((0, 1, 1, 2, 3, 4, 6, 12))
    row_factors = draw(st.lists(factor, min_size=12, max_size=12))
    col_factors = draw(st.lists(factor, min_size=12, max_size=12))
    rows = [[row_factors[i] * col_factors[j] * v for j, v in enumerate(row)]
            for i, row in enumerate(rows)]
    return IntMatrix(nc, tuple(map(tuple, rows)))


@given(matrices())
@example(IntMatrix(0, ()))
@example(IntMatrix(5, ()))
@example(IntMatrix(0, ((),) * 5))
@example(IntMatrix(3, ((0,) * 3,) * 3))
@settings(max_examples=400, deadline=None)
def test_random_matrices_match_dense(m):
    assert snf(m) == dense_snf(m)


SHARED_FACTOR_ENTRIES = st.one_of(st.just(0), st.sampled_from((1, 2, 6, 12, 30, 60, 210)), st.integers(-99, 99))


@st.composite
def banded_matrices(draw, entry=SHARED_FACTOR_ENTRIES):
    """One dense row over a bidiagonal band of up to 40 columns, the shape of a chain
    build's intersection matrix, first or last; by default entries share small factors,
    so the Euclid passes move the pivot between rows and columns."""
    n = draw(st.integers(1, 40))
    dense = draw(st.lists(entry, min_size=n, max_size=n))
    band = [(0,) * j + tuple(draw(st.lists(entry, min_size=2, max_size=2))) + (0,) * (n - j - 2) for j in range(n - 1)]
    rows = [tuple(dense), *band] if draw(st.booleans()) else [*band, tuple(dense)]
    return IntMatrix(n, tuple(rows))


@given(banded_matrices())
# each of these moves a pivot to another row after a column pass on it, so the
# row it leaves stays live at a new length
@example(IntMatrix(3, ((-5, -10, 13), (10, 0, 0), (0, 0, 0))))
@example(IntMatrix(4, ((-14, 4, -6, 16), (-15, 12, 0, 0), (0, 0, -2, 0), (0, 0, 9, 0))))
@example(IntMatrix(4, ((-9, -10, 0, 0), (0, -3, 6, 0), (0, 0, 6, -17), (-12, 210, 9, 9))))
@settings(max_examples=300, deadline=None)
def test_banded_matrices_match_dense(m):
    assert snf(m) == dense_snf(m)


@given(banded_matrices(st.sampled_from([v for v in range(-7, 8) if v])))
# pivots 1, 2, 1, 3 in heap order: the 1s join between non-units, and the 3 leaves a 1
@example(IntMatrix(4, ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 3))))
@settings(max_examples=300, deadline=None)
def test_unit_pivots_between_non_units_match_dense(m):
    # _snf counts its 1s apart from the chain: equal factors put each of them back, first
    assert snf(m) == dense_snf(m)


def random_space(seed: int, genus: int, m: int) -> SeifertData:
    rng = random.Random(seed)
    return SeifertData.normalized(genus, [rng.choice(COPRIME) for _ in range(m)], rng.randint(-3, 3))


@given(st.integers(0, 3), st.integers(0, 60), st.integers(0, 2**32))
@settings(max_examples=60, deadline=None)
def test_filling_relations_match_dense(genus, m, seed):
    s = random_space(seed, genus, m)
    matrix = relation_matrix(s)
    assert snf(matrix) == dense_snf(matrix) == homology(s)


def test_filling_relations_at_four_hundred_fibers():
    s = random_space(400, 3, 400)
    matrix = relation_matrix(s)
    assert snf(matrix) == dense_snf(matrix) == homology(s)


@st.composite
def large_alpha_spaces(draw):
    """Spaces of up to 40 fibers with alpha up to 200, often repeating a fiber."""
    pool = draw(st.lists(st.integers(2, 200), min_size=1, max_size=6))
    fibers = []
    for _ in range(draw(st.integers(0, 40))):
        alpha = draw(st.sampled_from(pool) | st.integers(2, 200))
        beta = draw(st.integers(1, alpha - 1).filter(lambda b: gcd(alpha, b) == 1))
        fibers.append((alpha, beta))
    return SeifertData.normalized(draw(st.integers(0, 2)), fibers, draw(st.integers(-3, 3)))


@given(large_alpha_spaces(), st.data())
@settings(max_examples=80, deadline=None)
def test_filling_relations_at_large_alpha_match_dense_in_any_fiber_order(s, data):
    shuffled = SeifertData(s.base_genus, tuple(data.draw(st.permutations(s.fibers))), s.euler)
    expected = dense_snf(relation_matrix(s))
    assert snf(relation_matrix(s)) == snf(relation_matrix(shuffled)) == expected
    assert homology(s) == homology(shuffled) == expected


@st.composite
def kind_spaces(draw, max_copies=60):
    """1-6 fiber kinds with alpha up to 200, each repeated 1 to ``max_copies`` times, shuffled."""
    kinds = set()
    for alpha in draw(st.lists(st.integers(2, 200), min_size=1, max_size=6)):
        kinds.add((alpha, draw(st.integers(1, alpha - 1).filter(lambda b: gcd(alpha, b) == 1))))
    fibers = [kind for kind in sorted(kinds) for _ in range(draw(st.integers(1, max_copies)))]
    return SeifertData.normalized(draw(st.integers(0, 3)), draw(st.permutations(fibers)), draw(st.integers(-5, 5)))


@given(kind_spaces())
@example(SeifertData.normalized(0, [], 0))  # m = 0: S^2 x S^1
@example(SeifertData.normalized(0, [], -3))
@example(SeifertData.normalized(1, [], 2))
@example(SeifertData.normalized(0, [(5, 2)], 1))  # m = 1
@example(SeifertData.normalized(3, [(7, 3)], 0))
@example(SeifertData.normalized(0, [(4, 1), (6, 1)], 0))  # m = 2
@example(SeifertData.normalized(0, [(5, 2), (3, 1), (5, 2)], -1))
@example(SeifertData.normalized(2, [(4, 1), (6, 5), (4, 1), (4, 1)], 0))
@example(SeifertData.normalized(0, [(3, 2)] * 500, -300))
# e_Q = 0: no last factor, so the free rank is one higher
@example(SeifertData.normalized(0, [(3, 1), (3, 2)], 1))
@example(SeifertData.normalized(1, [(6, 1), (6, 5)], 1))
@example(SeifertData.normalized(0, [(2, 1), (3, 1), (6, 1)], 1))
@example(SeifertData.normalized(0, [(2, 1), (4, 1), (8, 1), (8, 1)], 1))
@example(SeifertData.normalized(2, [(2, 1), (4, 1), (8, 1), (16, 1), (16, 1)], 1))
@example(SeifertData.normalized(0, [(4, 1), (4, 3), (4, 1), (4, 3), (2, 1), (2, 1)], 3))
@settings(max_examples=60, deadline=None)
def test_homology_by_kinds_matches_the_full_relation_matrix(s):
    matrix = relation_matrix(s)
    assert homology(s) == snf(matrix)
    if len(s.fibers) <= 40:
        assert homology(s) == dense_snf(matrix)


@given(kind_spaces(max_copies=3000))
@example(SeifertData.normalized(0, [(2, 1), (3, 1), (5, 1), (7, 1)] * 5000, 1))
@example(SeifertData.normalized(0, [(2, 1)] * 6000, 3000))
@example(SeifertData.normalized(1, [(2, 1)] * 6000, 2999))
@settings(max_examples=25, deadline=None)
def test_closed_form_matches_the_elimination_by_kinds(s):
    # too many fibers for the full relation matrix; the per-kind elimination is the oracle
    assert homology(s) == homology_by_elimination(s)


@st.composite
def alternating_coprime_spaces(draw):
    """Fibers cycling through 2-4 pairwise coprime alphas, each repeated 1-3 times per
    pass: every join of a coprime alpha leaves a 1, between joins of larger factors."""
    alphas = draw(st.lists(st.sampled_from((2, 3, 5, 7, 11)), min_size=2, max_size=4, unique=True))
    fibers = []
    for _ in range(draw(st.integers(1, 12))):
        for alpha in alphas:
            fibers += [(alpha, draw(st.integers(1, alpha - 1)))] * draw(st.integers(1, 3))
    return SeifertData.normalized(draw(st.integers(0, 2)), fibers, draw(st.integers(-4, 4)))


@given(alternating_coprime_spaces())
@example(SeifertData.normalized(0, [(2, 1), (3, 1)] * 20, 1))
@example(SeifertData.normalized(1, [(2, 1), (2, 1), (3, 2), (5, 1), (3, 1), (2, 1)], 0))
@settings(max_examples=80, deadline=None)
def test_closed_form_keeps_the_1s_of_alternating_coprime_fibers(s):
    h = homology(s)
    assert h == homology_by_elimination(s)
    if len(s.fibers) <= 40:
        assert h == dense_snf(relation_matrix(s))


def timed_homology(s: SeifertData):
    start = time.perf_counter()
    h = homology(s)
    return h, time.perf_counter() - start


def test_many_fibers_of_few_kinds():
    # about 0.15 s and 0.02 s on a 2-core x86-64 host, where one elimination row per fiber took 19 s and 2.1 s
    s = SeifertData.normalized(0, [(2, 1), (3, 1), (5, 1), (7, 1)] * 5000, 1)
    h, elapsed = timed_homology(s)
    assert h.order() == abs(rational_euler_by_fractions(s)) * prod(f.alpha for f in s.fibers)
    assert elapsed < 2.0, f"homology took {elapsed:.2f} s"
    h, elapsed = timed_homology(SeifertData.normalized(0, [(2, 1)] * 6000, 3000))
    assert h == SnfResult((1, 1) + (2,) * 5998, 1)
    assert elapsed < 0.5, f"homology took {elapsed:.2f} s"


def test_a_hundred_thousand_equal_fibers():
    # {0; 1/2 x 100,000; e = 50,000}: about 0.17 s on a 2-core x86-64 host, where joining each
    # last gcd at the bottom of an ascending chain shifted the whole chain and took 3.3-3.9 s
    s = SeifertData(0, (FiberInvariant(2, 1),) * 100_000, 50_000)
    h, elapsed = timed_homology(s)
    assert h == SnfResult((1, 1) + (2,) * 99_998, 1)
    assert elapsed < 1.0, f"homology took {elapsed:.2f} s"


def large_alpha_family(m: int) -> SeifertData:
    """``alpha_i = 100 + 37i mod 101`` and ``beta_i = 1 + 11i mod (alpha_i - 1)``,
    raised to the next value coprime to ``alpha_i``, with euler 1: large,
    nearly all distinct fibers, on which a poor choice of pivot moves fills
    the matrix."""
    fibers = []
    for i in range(m):
        alpha = 100 + (37 * i) % 101
        beta = 1 + (11 * i) % (alpha - 1)
        while gcd(alpha, beta) != 1:
            beta += 1
        fibers.append((alpha, beta))
    return SeifertData.normalized(0, fibers, 1)


def test_two_hundred_distinct_large_fibers():
    s = large_alpha_family(200)
    h, elapsed = timed_homology(s)
    assert h.order() == abs(rational_euler_by_fractions(s)) * prod(f.alpha for f in s.fibers)
    assert elapsed < 5.0, f"homology took {elapsed:.2f} s"
    matrix = relation_matrix(s)
    start = time.perf_counter()
    assert snf(matrix) == h
    elapsed = time.perf_counter() - start
    # about 0.25 s; a pivot rule that fills the matrix takes 8 s or more here
    assert elapsed < 5.0, f"snf took {elapsed:.2f} s"


def test_eight_hundred_distinct_even_fibers():
    # {0; 1/4, 1/6, ..., 1/1602; e = -400}: every kind distinct, so nothing groups; about
    # 0.02 s on a 2-core x86-64 host, where eliminating the filling relations took 2.6 s
    m = 800
    s = SeifertData.normalized(0, [(2 * i + 4, 1) for i in range(m)], -m // 2)
    h, elapsed = timed_homology(s)
    assert h.free_rank == 0 and len(h.invariant_factors) == m + 1
    assert h.order() == abs(rational_euler_by_fractions(s)) * prod(f.alpha for f in s.fibers)
    assert elapsed < 0.5, f"homology took {elapsed:.2f} s"


def test_diagram_homology_of_an_eight_thousand_fiber_build():
    # {0; 1/2 x 8,000; e = 4,000}: an 8,000 x 8,000 intersection matrix, one dense row over a
    # bidiagonal band; about 0.05 s on a 2-core x86-64 host, where rescanning every live row
    # for each pivot took 1.9 s
    s = SeifertData.normalized(0, [(2, 1)] * 8000, 4000)
    dg = build_positive_vertical(s)
    start = time.perf_counter()
    h = diagram_homology(dg)
    elapsed = time.perf_counter() - start
    assert h.same_group(homology(s))
    assert elapsed < 0.5, f"diagram_homology took {elapsed:.2f} s"


@given(st.integers(0, 140), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_intersection_matrices_match_dense(m, seed):
    s = random_space(seed, 0, m)
    plan = plan_decomposition(m)
    matrix = intersection_matrix(synthesize_diagram(plan, assign_betas(s, plan)))
    assert snf(matrix) == dense_snf(matrix)
