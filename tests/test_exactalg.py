import random
import re
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfsdiag.errors import Incompatible
from sfsdiag.exactalg import (
    IntMatrix,
    SnfResult,
    _join,
    crt,
    floor_sum,
    snf,
)

from helpers import crt_by_scan, det, join_ascending, join_by_runs, least_positive_residue, smith_via_minors


class TestCrt:
    def test_single_trivial_modulus(self):
        assert crt([(0, 1)]) == (0, 1)

    def test_coprime_pair(self):
        assert crt([(2, 3), (3, 5)]) == (8, 15)

    def test_parity_clash(self):
        with pytest.raises(Incompatible):
            crt([(1, 2), (0, 2)])

    def test_empty_system(self):
        assert crt([]) == (0, 1)

    @given(st.lists(st.tuples(st.integers(-100, 100), st.integers(1, 30)), min_size=1, max_size=4))
    @settings(max_examples=150)
    def test_against_exhaustive_scan(self, pairs):
        product = 1
        for _, m in pairs:
            product *= m
        if product > 10**6:
            return
        expected = crt_by_scan(pairs)
        if expected is None:
            with pytest.raises(Incompatible):
                crt(pairs)
        else:
            assert crt(pairs) == expected


@st.composite
def factor_runs(draw):
    """Up to 8 runs of up to 300 equal factors each, a third of the runs of 1s."""
    kinds = st.sampled_from([1, 1, 1, 1, 2, 3, 4, 5, 6, 10, 12, 60, 97])
    return draw(st.lists(st.tuples(kinds, st.integers(1, 300)), max_size=8))


# two large primes and a Mersenne prime: pairwise coprime factors whose lcms grow fast
LARGE_PRIMES = (10**9 + 7, 998_244_353, 2**61 - 1)


@st.composite
def factor_sequences(draw):
    """Up to 10 runs of 1 to 200 equal factors: 1s, small factors, large coprime
    primes and multiples of an earlier factor."""
    factors = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("one", "small", "prime", "multiple")))
        if kind == "multiple" and factors:
            d = draw(st.sampled_from(factors)) * draw(st.integers(1, 12))
        elif kind == "prime":
            d = draw(st.sampled_from(LARGE_PRIMES))
        else:
            d = 1 if kind == "one" else draw(st.integers(1, 60))
        factors += [d] * draw(st.integers(1, 200))
    return factors


class TestJoin:
    @given(factor_sequences())
    @settings(max_examples=150, deadline=None)
    def test_bisecting_join_matches_the_run_walk_and_the_ascending_oracle(self, factors):
        chain, runs, oracle = [], [], []
        for d in factors:
            _join(chain, d)
            join_by_runs(runs, d)
            join_ascending(oracle, d)
        assert 1 not in chain
        chain += [1] * (len(oracle) - len(chain))
        assert chain == runs == oracle[::-1]
        for descending in (chain, runs, oracle[::-1]):
            assert all(a % b == 0 for a, b in zip(descending, descending[1:]))
        assert prod(chain) == prod(factors) and len(chain) == len(factors)

    @given(factor_runs())
    @settings(max_examples=150, deadline=None)
    def test_descending_join_matches_the_ascending_oracle(self, runs):
        chain, oracle, total = [], [], 1
        for d, k in runs:
            for _ in range(k):
                _join(chain, d)
                join_ascending(oracle, d)
            total *= d ** k
            assert 1 not in chain
            assert chain + [1] * (len(oracle) - len(chain)) == oracle[::-1]
        assert all(a % b == 0 for a, b in zip(chain, chain[1:]))
        assert prod(chain) == total

    @given(st.lists(st.integers(1, 60), max_size=40))
    def test_any_factor_order_matches_the_ascending_oracle(self, factors):
        chain, oracle = [], []
        for d in factors:
            _join(chain, d)
            join_ascending(oracle, d)
            assert 1 not in chain
            assert chain + [1] * (len(oracle) - len(chain)) == oracle[::-1]


@pytest.mark.parametrize("call,message", [
    (lambda: crt([(1, 2), (0, 0)]), "modulus must be >= 1, got 0"),
    (lambda: floor_sum([(1, 2), (3, -1)]), "denominator must be >= 1, got -1"),
    (lambda: IntMatrix(-1, ()), "matrix dimensions must be nonnegative"),
    (lambda: IntMatrix(2, ((1, 2), (3,))), "ragged matrix rows"),
    (lambda: IntMatrix.from_rows([]), "cols is required for an empty matrix"),
    (lambda: SnfResult((), -1), "free rank must be nonnegative"),
    (lambda: SnfResult((1, 0), 0), "invariant factors must be positive"),
    (lambda: SnfResult((2, 3), 0), "invariant factors must form a divisibility chain"),
])
def test_out_of_range_arguments_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


class TestLeastPositiveResidue:
    @pytest.mark.parametrize(
        "b,a,expected",
        [(-4, 3, 2), (-5, 2, 1), (7, 1, 1), (1, 4, 1), (3, 5, 3), (0, 6, 6)],
    )
    def test_values(self, b, a, expected):
        assert least_positive_residue(b, a) == expected

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
    def test_congruence_and_range(self, b, a):
        r = least_positive_residue(b, a)
        assert 0 < r <= a
        assert (r - b) % a == 0

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            least_positive_residue(3, 0)


class TestFloorSum:
    def test_worked_example(self):
        assert floor_sum([(1, 4), (-4, 3), (3, 5), (-5, 2)]) == -5

    def test_trivial(self):
        assert floor_sum([(0, 1)]) == 0

    def test_halves(self):
        assert floor_sum([(-1, 2), (-1, 2)]) == -2


class TestSnf:
    def test_identity(self):
        m = IntMatrix.from_rows([[1, 0], [0, 1]])
        assert snf(m) == SnfResult((1, 1), 0)

    def test_already_diagonal(self):
        m = IntMatrix.from_rows([[2, 0], [0, 4]])
        assert snf(m) == SnfResult((2, 4), 0)

    def test_triangular(self):
        m = IntMatrix.from_rows([[2, 1], [0, 3]])
        # determinant 6, entry gcd 1
        assert snf(m) == SnfResult((1, 6), 0)

    @pytest.mark.parametrize("rows,message", [
        ([[2.7, 0], [0, "4"]], "rows[0][0]: expected integer, got float"),
        ([[2, 0], [0, "4"]], "rows[1][1]: expected integer, got string"),
        ([[1, True]], "rows[0][1]: expected integer, got boolean"),
        ([[0, False]], "rows[0][1]: expected integer, got boolean"),
        ([[1, 2], (3, 4.0)], "rows[1][1]: expected integer, got float"),
    ])
    def test_from_rows_refuses_entries_that_are_not_ints(self, rows, message):
        with pytest.raises(TypeError) as info:
            IntMatrix.from_rows(rows)
        assert str(info.value) == message

    def test_from_rows_keeps_int_entries(self):
        m = IntMatrix.from_rows([(1, -2), [10**40, 0]])
        assert m.entries == ((1, -2), (10**40, 0)) and m.cols == 2

    @pytest.mark.parametrize("entries,message", [
        (((2.5,),), "entries[0][0]: expected integer, got float"),
        (((1, 0), (0, True)), "entries[1][1]: expected integer, got boolean"),
        (((1, 0), (0.0, "4")), "entries[1][1]: expected integer, got string"),
    ])
    def test_snf_refuses_nonzero_entries_that_are_not_ints(self, entries, message):
        with pytest.raises(TypeError) as info:
            snf(IntMatrix(len(entries[0]), entries))
        assert str(info.value) == message

    def test_zero_rows(self):
        m = IntMatrix(3, ())
        assert snf(m) == SnfResult((), 3)

    def test_torsion_property(self):
        assert snf(IntMatrix.from_rows([[2, 0], [0, 4]])).torsion == (2, 4)
        assert snf(IntMatrix.from_rows([[1, 0], [0, 1]])).torsion == ()

    def test_against_minor_oracle(self):
        rng = random.Random(5)
        for _ in range(120):
            nr = rng.randint(0, 4)
            nc = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(nc)] for _ in range(nr)]
            result = snf(IntMatrix.from_rows(rows, cols=nc))
            factors, free = smith_via_minors(rows, nc)
            assert result.invariant_factors == factors
            assert result.free_rank == free

    def test_entry_growth_regression(self):
        # bidiagonal-plus-dense-row shape from the diagram builder; the
        # naive clearing order used to blow entries past 10^5 bits here
        rows = [
            [53, 200, 8, 56, 40, 128, 16, 200, 32],
            [9, 9, 0, 0, 0, 0, 0, 0, 0],
            [0, 9, 8, 0, 0, 0, 0, 0, 0],
            [0, 0, 8, 3, 0, 0, 0, 0, 0],
            [0, 0, 0, 3, 8, 0, 0, 0, 0],
            [0, 0, 0, 0, 8, 7, 0, 0, 0],
            [0, 0, 0, 0, 0, 7, 5, 0, 0],
            [0, 0, 0, 0, 0, 0, 5, 7, 0],
            [0, 0, 0, 0, 0, 0, 0, 7, 9],
        ]
        result = snf(IntMatrix.from_rows(rows))
        assert result.invariant_factors == smith_via_minors(rows, 9)[0]
        assert abs(det(rows)) == 3 * 72 * 10970568

    def test_divisibility_chain_and_determinant(self):
        rng = random.Random(9)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 5)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            d = det(rows)
            if d == 0:
                continue
            result = snf(IntMatrix.from_rows(rows))
            prod = 1
            for f in result.invariant_factors:
                prod *= f
            assert prod == abs(d)
            for a, b in zip(result.invariant_factors, result.invariant_factors[1:]):
                assert b % a == 0
            checked += 1
