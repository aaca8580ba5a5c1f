"""Exact integer primitives: congruence solving, floor sums, and Smith
normal form.

Everything works with arbitrary-precision Python integers; nothing in the
package has an overflow contract.  Floors are always toward minus infinity
(Python's ``//``), which is the convention the Euler-number bookkeeping
depends on.
"""

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from itertools import compress
from math import gcd, prod

from .errors import Incompatible, Value, init_field, want, want_ints


def crt(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Combine congruences ``x = r_i (mod m_i)`` into one ``x = r (mod lcm)``.

    Moduli need not be coprime.  Returns ``(r, lcm)`` with ``0 <= r < lcm``;
    the empty system yields ``(0, 1)``.  Raises :class:`Incompatible` when
    two congruences disagree modulo the gcd of their moduli.
    """
    res, mod = 0, 1
    for r_i, m_i in pairs:
        if m_i < 1:
            raise ValueError(f"modulus must be >= 1, got {m_i}")
        g = gcd(mod, m_i)
        if (r_i - res) % g != 0:
            raise Incompatible(
                f"residues {res} (mod {mod}) and {r_i} (mod {m_i}) conflict"
            )
        # res + mod*k = r_i (mod m_i) for k = (r_i-res)/g * inv(mod/g) mod m_i/g, below the lcm
        k = (r_i - res) // g * pow(mod // g, -1, m_i // g) % (m_i // g)
        res, mod = res + mod * k, mod // g * m_i
    return res, mod


def floor_sum(fractions: Iterable[tuple[int, int]]) -> int:
    """Sum of ``floor(beta/alpha)`` over ``(beta, alpha)`` pairs, ``alpha >= 1``."""
    total = 0
    for beta, alpha in fractions:
        if alpha < 1:
            raise ValueError(f"denominator must be >= 1, got {alpha}")
        total += beta // alpha
    return total


class IntMatrix(Value):
    """An ``int`` matrix as ``rows`` tuples of ``cols`` entries; ``from_rows`` and :func:`snf`
    refuse other entries."""

    __slots__ = ("cols", "entries")

    def __init__(self, cols: int, entries: tuple[tuple[int, ...], ...]):
        if cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
        init_field(self, "cols", cols)
        init_field(self, "entries", entries)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(want_ints(list(row), "rows[{}]", i)) for i, row in enumerate(rows))
        if cols is None:
            if not data:
                raise ValueError("cols is required for an empty matrix")
            cols = len(data[0])
        return cls(cols, data)


class SnfResult(Value):
    """Invariant factors and free rank of an integer matrix cokernel.

    ``invariant_factors`` are the nonzero diagonal entries of the Smith
    form: positive, ordered by divisibility, with 1s retained.  The
    cokernel reads columns as generators and rows as relations, so
    ``free_rank = cols - len(invariant_factors)``.  Two results describe
    the same abelian group iff their ``torsion`` and ``free_rank`` agree.
    """

    __slots__ = ("invariant_factors", "free_rank")

    def __init__(self, invariant_factors: tuple[int, ...], free_rank: int):
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for d in invariant_factors:
            if d <= 0:
                raise ValueError("invariant factors must be positive")
            if prev is not None and d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d
        init_field(self, "invariant_factors", invariant_factors)
        init_field(self, "free_rank", free_rank)

    @property
    def torsion(self) -> tuple[int, ...]:
        """Invariant factors greater than one (the torsion coefficients)."""
        return tuple(d for d in self.invariant_factors if d > 1)

    def same_group(self, other: "SnfResult") -> bool:
        """Whether both results present the same abelian group."""
        return self.torsion == other.torsion and self.free_rank == other.free_rank

    def order(self) -> int | None:
        """Group order when finite, else None."""
        return None if self.free_rank else prod(self.invariant_factors)


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form data of an integer matrix, by sparse elimination (:func:`_snf`)."""
    return _snf((compress(enumerate(entries), entries) for entries in m.entries), m.cols)


def _snf(nonzeros, ncols: int) -> SnfResult:
    """:func:`snf` of the ``ncols``-column matrix whose row ``i`` holds the
    nonzero entries ``nonzeros[i]``: a ``{col: value}`` mapping, which is
    copied, or ``(col, value)`` pairs; a zero value is not allowed.

    Rows are ``{col: value}`` dicts of nonzeros, beside a column -> row-set
    map.  Each pivot is the least ``|v|`` entry, ties to the shorter column,
    of the first row with the fewest nonzeros: the least ``(len(row), i)`` of a
    heap that gets an entry whenever a row's length changes, stale entries
    popped when they reach the top, so no pivot rescans the live rows.  Local
    Euclid passes: row operations clear the pivot column walking only the pivot
    row, column operations reduce the pivot row modulo the pivot and touch no
    other row.  Remainders, all below the pivot, move it to the shortest row
    after a row pass or the shortest column after a column pass, ties to the
    least.  A pivot alone in its row and column goes to :func:`_join`; units are counted, not joined.
    """
    from heapq import heapify, heappop, heappush

    rows, cols = {}, {}
    for i, row in enumerate(nonzeros):
        if row := dict(row):
            rows[i] = row
            for j, v in row.items():
                if type(v) is not int:
                    want(v, int, "entries[{}][{}]", i, j)
                if j in cols:
                    cols[j].add(i)
                else:
                    cols[j] = {i}
    heap = [(len(row), i) for i, row in rows.items()]
    heapify(heap)
    chain, rank = [], 0
    while rows:
        while (r := heap[0][1]) not in rows or len(rows[r]) != heap[0][0]:
            heappop(heap)
        row = rows[r]
        best = None
        for j, v in row.items():
            if best is None or (abs(v), len(cols[j])) < best:
                best, c = (abs(v), len(cols[j])), j
        while True:
            p, best = row[c], None
            for i in [*cols[c]]:
                if i == r:
                    continue
                other = rows[i]
                if q := other[c] // p:
                    n = len(other)
                    for j, v in row.items():
                        w = other.get(j)
                        if w is None:
                            other[j] = -q * v
                            cols[j].add(i)
                        elif w := w - q * v:
                            other[j] = w
                        else:
                            del other[j]
                            cols[j].discard(i)
                    if len(other) != n:
                        heappush(heap, (len(other), i))
                if c in other:
                    if best is None or (len(other), abs(other[c])) < best:
                        best, move = (len(other), abs(other[c])), i
                elif not other:
                    del rows[i]
            if best is not None:
                r, row = move, rows[move]
                continue
            n = len(row)
            for j in [*row]:
                if j == c:
                    continue
                if w := row[j] % p:
                    row[j] = w
                    if best is None or (len(cols[j]), abs(w)) < best:
                        best, move = (len(cols[j]), abs(w)), j
                else:
                    del row[j]
                    cols[j].discard(r)
            if best is None:
                break
            if len(row) != n:
                heappush(heap, (len(row), r))
            c = move
        _join(chain, abs(p))
        rank += 1
        del rows[r], cols[c]
    return SnfResult((1,) * (rank - len(chain)) + tuple(reversed(chain)), ncols - rank)


def _join(chain: list[int], d: int) -> None:
    """Join the factor ``d >= 1`` to the descending divisibility ``chain`` in place by gcd/lcm
    exchanges from the largest.  Each factor divides the one before it, so ``d`` divides a prefix
    of the chain, which the exchange leaves unchanged: one ``bisect_right`` on ``x % d`` jumps to
    the first factor ``d`` does not divide, and once ``d`` divides the last factor the last gcd is
    appended, shifting nothing, unless it is a 1: units are the caller's count, never joined."""
    i = 0
    while chain and chain[-1] % d:
        i = bisect_right(chain, 0, i, key=d.__rmod__)
        g = gcd(x := chain[i], d)
        chain[i], d = x // g * d, g
        i += 1
    if d > 1:
        chain.append(d)
