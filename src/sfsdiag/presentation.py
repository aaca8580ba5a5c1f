"""Finite group presentations with signed-letter relator words.

A word is a tuple of nonzero integers: letter ``k > 0`` is the k-th
generator, ``k < 0`` its inverse.  A presentation is *positive* when every
relator uses only positive letters; any presentation can be rewritten into
a positive one at the cost of a single extra generator and relator, and
that rewriting preserves the group (checked here through abelianization).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import want
from .exactalg import IntMatrix, SnfResult, snf


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator count plus relator words."""

    n_generators: int
    relators: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n_generators < 0:
            raise ValueError("generator count must be nonnegative")
        for word in self.relators:
            for letter in word:
                if letter == 0 or abs(letter) > self.n_generators:
                    raise ValueError(f"letter {letter} out of range")

    def to_json(self) -> dict:
        return {
            "generators": self.n_generators,
            "relators": [list(word) for word in self.relators],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Presentation":
        relators = []
        for i, word in enumerate(want(data["relators"], list, "$.relators")):
            if not set(map(type, want(word, list, "$.relators[{}]", i))) <= {int}:
                for k, x in enumerate(word):
                    want(x, int, "$.relators[{}][{}]", i, k)
            relators.append(tuple(word))
        return cls(want(data["generators"], int, "$.generators"), tuple(relators))


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
    retained).
    """
    n = p.n_generators
    new_gen = n + 1

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


def abelianization(p: Presentation) -> SnfResult:
    """Invariant factors and free rank of the abelianized group.

    Rows of the exponent-sum matrix are relators, columns generators.
    """
    rows = []
    for word in p.relators:
        row = [0] * p.n_generators
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    return snf(IntMatrix(len(rows), p.n_generators, tuple(map(tuple, rows))))
