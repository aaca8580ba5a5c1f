"""Finite group presentations with signed-letter relator words.

A word is a tuple of nonzero integers: letter ``k > 0`` is the k-th generator,
``k < 0`` its inverse.  A presentation is *positive* when every relator uses
only positive letters; any presentation can be rewritten into a positive one
at the cost of a single extra generator and relator, and that rewriting
preserves the group (the tests check it through abelianization and S3 counts).
"""

from collections import _count_elements

from .errors import Value, WorkBudgetExceeded, init_field, want, want_ints
from .exactalg import SnfResult, _snf

#: Most letters :func:`positivize` writes, and most cells of the relation matrix :func:`abelianization`
#: accepts: it allocates no cells, but the elimination's fill can reach them all.
MAX_ENTRIES = 1_000_000


class Presentation(Value):
    """A finite presentation: generator count plus relator words."""

    __slots__ = ("n_generators", "relators")

    def __init__(self, n_generators: int, relators: tuple[tuple[int, ...], ...]):
        if want(n_generators, int, "n_generators") < 0:
            raise ValueError("generator count must be nonnegative")
        for word in relators:
            for letter in word:
                if type(letter) is not int or letter == 0 or abs(letter) > n_generators:
                    raise ValueError(f"letter {letter} out of range")
        init_field(self, "n_generators", n_generators)
        init_field(self, "relators", relators)

    def to_json(self) -> dict:
        return {
            "generators": self.n_generators,
            "relators": [list(word) for word in self.relators],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Presentation":
        relators = want(data["relators"], list, "$.relators")
        relators = tuple(tuple(want_ints(w, "$.relators[{}]", i)) for i, w in enumerate(relators))
        return cls(want(data["generators"], int, "$.generators"), relators)


def free_reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs (linear, not cyclic, reduction)."""
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def is_positive(p: Presentation) -> bool:
    """Whether every letter of every relator is a positive power."""
    return all(letter > 0 for word in p.relators for letter in word)


def positivize(p: Presentation) -> Presentation:
    """Rewrite ``p`` as a positive presentation of the same group.

    Adds a generator ``x_{n+1}`` together with the relator
    ``x_1 x_2 ... x_n x_{n+1}`` (listed first); in every existing relator
    each inverse letter ``x_i^{-1}`` is replaced by the positive word
    ``x_{i+1} ... x_n x_{n+1} x_1 ... x_{i-1}``, which equals ``x_i^{-1}``
    once the new relator holds.  The result has ``n+1`` generators,
    ``m+1`` relators, and is freely reduced (an empty relator is legal and
    retained).  Refuses with :class:`WorkBudgetExceeded`, before writing
    anything, a result of more than :data:`MAX_ENTRIES` letters.
    """
    n = p.n_generators
    new_gen = n + 1
    negative = sum(letter < 0 for word in p.relators for letter in word)
    letters = new_gen + sum(map(len, p.relators)) + (n - 1) * negative
    if letters > MAX_ENTRIES:
        raise WorkBudgetExceeded(f"the result needs {letters} letters, above the limit of {MAX_ENTRIES}")

    def inverse_word(i: int) -> tuple[int, ...]:
        return tuple(range(i + 1, n + 1)) + (new_gen,) + tuple(range(1, i))

    relators: list[tuple[int, ...]] = [tuple(range(1, n + 2))]
    for word in p.relators:
        out: list[int] = []
        for letter in word:
            if letter > 0:
                out.append(letter)
            else:
                out.extend(inverse_word(-letter))
        relators.append(free_reduce(tuple(out)))
    return Presentation(new_gen, tuple(relators))


def _letter_counts(word) -> dict[int, int]:
    """How often each letter occurs in ``word``, counted into a plain dict as ``Counter`` counts."""
    counts = {}
    _count_elements(counts, word)
    return counts


def _exponent_sums(counts: dict[int, int]) -> dict[int, int]:
    """The nonzero exponent sums ``counts[k] - counts[-k]`` of a word's letter counts, by generator ``k``:
    ``counts`` itself when no letter is an inverse, as after :func:`positivize`."""
    if min(counts, default=1) > 0:
        return counts
    return {k: v for k in set(map(abs, counts)) if (v := counts.get(k, 0) - counts.get(-k, 0))}


def abelianization(p: Presentation) -> SnfResult:
    """Invariant factors and free rank of the abelianized group.

    Rows of the exponent-sum matrix are relators, kept as their nonzeros, columns
    generators; one of more than :data:`MAX_ENTRIES` cells raises :class:`WorkBudgetExceeded`.
    """
    cells = len(p.relators) * p.n_generators
    if cells > MAX_ENTRIES:
        raise WorkBudgetExceeded(f"the exponent matrix needs {cells} entries, above the limit of {MAX_ENTRIES}")
    return _snf(map(_exponent_sums, map(_letter_counts, p.relators)), p.n_generators)
