"""Differential tests of the sparse ``snf`` against ``dense_snf``, the
dense elimination with a global pivot rescan kept in ``helpers``: random
matrices of every small shape and fill, and the two structured matrices
every verified build reduces (the filling relations and the diagram's
intersection matrix)."""

import random
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfsdiag.diagram import intersection_matrix
from sfsdiag.exactalg import IntMatrix, snf
from sfsdiag.seifert import SeifertData, homology
from sfsdiag.vertical import assign_betas, plan_decomposition, synthesize_diagram

from helpers import dense_snf

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
    return IntMatrix(nr, nc, tuple(map(tuple, rows)))


@given(matrices())
@example(IntMatrix(0, 0, ()))
@example(IntMatrix(0, 5, ()))
@example(IntMatrix(5, 0, ((),) * 5))
@example(IntMatrix(3, 3, ((0,) * 3,) * 3))
@settings(max_examples=400, deadline=None)
def test_random_matrices_match_dense(m):
    assert snf(m) == dense_snf(m)


def relation_matrix(s: SeifertData) -> IntMatrix:
    """Rows ``alpha_i x_i + beta_i t`` and ``x_1 + ... + x_m + e t`` over
    ``a_*, b_*, x_*, t``, as the ``homology`` docstring describes them."""
    g, m = s.base_genus, len(s.fibers)
    rows = []
    for i, f in enumerate(s.fibers):
        rows.append([0] * (2 * g + i) + [f.alpha] + [0] * (m - 1 - i) + [f.beta])
    rows.append([0] * (2 * g) + [1] * m + [s.euler])
    return IntMatrix(m + 1, 2 * g + m + 1, tuple(map(tuple, rows)))


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


@given(st.integers(0, 140), st.integers(0, 2**32))
@settings(max_examples=25, deadline=None)
def test_intersection_matrices_match_dense(m, seed):
    s = random_space(seed, 0, m)
    plan = plan_decomposition(m)
    matrix = intersection_matrix(synthesize_diagram(plan, assign_betas(s, plan)))
    assert snf(matrix) == dense_snf(matrix)
