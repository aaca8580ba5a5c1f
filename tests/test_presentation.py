import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import S3, hom_count
from sfsdiag import presentation
from sfsdiag.errors import WorkBudgetExceeded
from sfsdiag.exactalg import SnfResult
from sfsdiag.presentation import (
    Presentation,
    abelianization,
    free_reduce,
    is_positive,
    positivize,
)


def random_presentation(rng, max_gens=5, max_relators=6, max_len=12):
    n = rng.randint(1, max_gens)
    relators = []
    for _ in range(rng.randint(0, max_relators)):
        word = []
        for _ in range(rng.randint(0, max_len)):
            g = rng.randint(1, n)
            word.append(g if rng.random() < 0.5 else -g)
        relators.append(tuple(word))
    return Presentation(n, tuple(relators))


def test_free_reduce():
    assert free_reduce((1, -1)) == ()
    assert free_reduce((2, 1, -1, -2, 3)) == (3,)
    assert free_reduce((1, 2, -1)) == (1, 2, -1)


class TestIsPositive:
    def test_positive_power(self):
        assert is_positive(Presentation(1, ((1, 1, 1),)))

    def test_inverse_letter(self):
        assert not is_positive(Presentation(1, ((-1,),)))

    def test_mixed_relators(self):
        assert not is_positive(Presentation(2, ((1, 2), (2, -1))))

    def test_no_relators(self):
        assert is_positive(Presentation(3, ()))


class TestPositivize:
    def test_single_inverse(self):
        # the inverse of the lone generator becomes the bare new generator
        q = positivize(Presentation(1, ((-1,),)))
        assert q == Presentation(2, ((1, 2), (2,)))
        assert abelianization(q).same_group(abelianization(Presentation(1, ((-1,),))))

    def test_already_positive_relator_unchanged(self):
        q = positivize(Presentation(1, ((1, 1),)))
        assert q == Presentation(2, ((1, 2), (1, 1)))

    def test_two_generator_substitution(self):
        p = Presentation(2, ((1, -2),))
        q = positivize(p)
        assert q == Presentation(3, ((1, 2, 3), (1, 3, 1)))
        assert abelianization(q).same_group(abelianization(p))

    def test_counts(self):
        rng = random.Random(3)
        for _ in range(50):
            p = random_presentation(rng)
            q = positivize(p)
            assert q.n_generators == p.n_generators + 1
            assert len(q.relators) == len(p.relators) + 1
            assert q.relators[0] == tuple(range(1, p.n_generators + 2))

    @given(st.data())
    @settings(max_examples=150)
    def test_positive_and_group_preserving(self, data):
        n = data.draw(st.integers(1, 5))
        letters = st.integers(-n, n).filter(lambda x: x != 0)
        relators = data.draw(
            st.lists(st.lists(letters, max_size=12).map(tuple), max_size=6).map(tuple)
        )
        p = Presentation(n, relators)
        q = positivize(p)
        assert is_positive(q)
        assert abelianization(q).same_group(abelianization(p))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_preserves_the_s3_count(self, data):
        # a homotopy invariant that abelianization cannot see
        n = data.draw(st.integers(1, 3))
        letters = st.integers(-n, n).filter(lambda x: x != 0)
        relators = data.draw(st.lists(st.lists(letters, max_size=10).map(tuple), max_size=4).map(tuple))
        p = Presentation(n, relators)
        assert hom_count(positivize(p), S3) == hom_count(p, S3)


class TestWorkBudget:
    def test_positivize_refuses_one_above_the_limit(self, monkeypatch):
        # n+1 letters for the new relator, n for each inverse letter, 1 otherwise
        rng = random.Random(41)
        for _ in range(40):
            p = random_presentation(rng)
            n = p.n_generators
            letters = n + 1 + sum(1 if x > 0 else n for word in p.relators for x in word)
            with monkeypatch.context() as patch:
                patch.setattr(presentation, "MAX_ENTRIES", letters - 1)
                with pytest.raises(WorkBudgetExceeded, match=f"needs {letters} letters"):
                    positivize(p)
                patch.setattr(presentation, "MAX_ENTRIES", letters)
                assert is_positive(positivize(p))

    def test_abelianization_refuses_one_above_the_limit(self, monkeypatch):
        p = Presentation(3, ((1, -2), (3,), (2, 2)))
        monkeypatch.setattr(presentation, "MAX_ENTRIES", 8)
        with pytest.raises(WorkBudgetExceeded, match="needs 9 entries"):
            abelianization(p)
        monkeypatch.setattr(presentation, "MAX_ENTRIES", 9)
        assert abelianization(p).free_rank == 0

    def test_abelianization_stays_sparse_at_the_limit(self):
        # 1,000 one-letter relators on 1,000 generators: exactly MAX_ENTRIES cells,
        # of which 1,000 are nonzero; a dense exponent matrix peaks near 16 MiB
        p = Presentation(1000, tuple((k,) for k in range(1, 1001)))
        assert len(p.relators) * p.n_generators == presentation.MAX_ENTRIES
        tracemalloc.start()
        try:
            result = abelianization(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == SnfResult((1,) * 1000, 0)
        assert peak < 2 * 1024 * 1024


class TestAbelianization:
    def test_free_group(self):
        result = abelianization(Presentation(1, ()))
        assert result.free_rank == 1
        assert result.invariant_factors == ()

    def test_order_three(self):
        # det [[2,1],[1,2]] = 3
        result = abelianization(Presentation(2, ((1, 1, 2), (1, 2, 2))))
        assert result.torsion == (3,)
        assert result.free_rank == 0

    def test_trivializing_relator(self):
        result = abelianization(Presentation(1, ((-1,),)))
        assert result.free_rank == 0
        assert result.torsion == ()

    @given(st.lists(st.integers(-4, 4).filter(bool), max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_exponent_sums_keep_the_counts_of_a_positive_word(self, word):
        counts = presentation._letter_counts(word)
        sums = presentation._exponent_sums(counts)
        assert sums == {k: v for k in range(1, 5) if (v := word.count(k) - word.count(-k))}
        assert (sums is counts) == all(letter > 0 for letter in word)

    def test_json_round_trip(self):
        p = Presentation(2, ((1, -2), (2, 2)))
        assert Presentation.from_json(p.to_json()) == p

    @pytest.mark.parametrize("doc,message", [
        ({"generators": 2, "relators": [[1, 2], [1, True]]},
         "$.relators[1][1]: expected integer, got boolean"),
        ({"generators": 2, "relators": [[1, 2.0]]}, "$.relators[0][1]: expected integer, got float"),
        ({"generators": 2, "relators": [[1], 3]}, "$.relators[1]: expected list, got integer"),
        ({"generators": "2", "relators": []}, "$.generators: expected integer, got string"),
    ])
    def test_json_types_are_checked(self, doc, message):
        with pytest.raises(TypeError) as exc:
            Presentation.from_json(doc)
        assert str(exc.value) == message
