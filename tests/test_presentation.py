import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
