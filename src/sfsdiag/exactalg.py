"""Exact integer primitives: extended gcd, congruence solving, least
positive residues, floor sums, and Smith normal form.

Everything works with arbitrary-precision Python integers; nothing in the
package has an overflow contract.  Floors are always toward minus infinity
(Python's ``//``), which is the convention the Euler-number bookkeeping
depends on.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .errors import Incompatible


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(|a|, |b|) >= 0`` and ``a*x + b*y = g``.

    The degenerate pair ``(0, 0)`` returns ``(0, 0, 0)``.
    """
    if a == 0 and b == 0:
        return (0, 0, 0)
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return (-old_r, -old_s, -old_t)
    return (old_r, old_s, old_t)


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
        g, u, _ = ext_gcd(mod, m_i)
        if (r_i - res) % g != 0:
            raise Incompatible(
                f"residues {res} (mod {mod}) and {r_i} (mod {m_i}) conflict"
            )
        lcm = mod // g * m_i
        # res + mod*k = r_i (mod m_i), so k = (r_i-res)/g * inv(mod/g) (mod m_i/g)
        k = ((r_i - res) // g * u) % (m_i // g)
        res = (res + mod * k) % lcm
        mod = lcm
    return res, mod


def least_positive_residue(b: int, a: int) -> int:
    """The unique integer in ``[1, a]`` congruent to ``b`` modulo ``a >= 1``.

    When ``a > 1`` and ``gcd(b, a) = 1`` the result lands in ``(0, a)``; the
    value ``a`` itself only appears for ``a = 1`` or non-coprime inputs.
    """
    if a < 1:
        raise ValueError(f"modulus must be >= 1, got {a}")
    r = b % a
    return a if r == 0 else r


def floor_sum(fractions: Iterable[tuple[int, int]]) -> int:
    """Sum of ``floor(beta/alpha)`` over ``(beta, alpha)`` pairs, ``alpha >= 1``."""
    total = 0
    for beta, alpha in fractions:
        if alpha < 1:
            raise ValueError(f"denominator must be >= 1, got {alpha}")
        total += beta // alpha
    return total


@dataclass(frozen=True)
class IntMatrix:
    """An immutable integer matrix stored as a tuple of row tuples."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows:
            raise ValueError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            if not data:
                raise ValueError("cols is required for an empty matrix")
            cols = len(data[0])
        return cls(len(data), cols, data)


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors and free rank of an integer matrix cokernel.

    ``invariant_factors`` are the nonzero diagonal entries of the Smith
    form: positive, ordered by divisibility, with 1s retained.  The
    cokernel reads columns as generators and rows as relations, so
    ``free_rank = cols - len(invariant_factors)``.  Two results describe
    the same abelian group iff their ``torsion`` and ``free_rank`` agree.
    """

    invariant_factors: tuple[int, ...]
    free_rank: int

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        prev = None
        for d in self.invariant_factors:
            if d <= 0:
                raise ValueError("invariant factors must be positive")
            if prev is not None and d % prev != 0:
                raise ValueError("invariant factors must form a divisibility chain")
            prev = d

    @property
    def torsion(self) -> tuple[int, ...]:
        """Invariant factors greater than one (the torsion coefficients)."""
        return tuple(d for d in self.invariant_factors if d > 1)

    def same_group(self, other: "SnfResult") -> bool:
        """Whether both results present the same abelian group."""
        return self.torsion == other.torsion and self.free_rank == other.free_rank

    def order(self) -> int | None:
        """Group order when finite, else None."""
        if self.free_rank:
            return None
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form data of an integer matrix, by sparse elimination.

    Rows are ``{col: value}`` dicts of nonzeros, beside a column -> row-set
    map.  Each pivot is the least ``|v|`` entry, ties to the shorter column,
    of the active row with the fewest nonzeros.  Local Euclid passes: row
    operations clear the pivot column walking only the pivot row, column
    operations reduce the pivot row modulo the pivot and touch no other row,
    and remainders move the pivot to the least of them, ties to the shorter
    row or column, so a long row is rarely added into short ones.  A pivot
    alone in its row and column retires into the ascending divisibility
    chain of invariant factors, merged from the top by gcd/lcm exchanges
    that stop once a 1 passes down; a pivot of 1 goes straight to the bottom.
    """
    rows, cols = {}, {}
    for i, entries in enumerate(m.entries):
        if row := {j: v for j, v in enumerate(entries) if v}:
            rows[i] = row
            for j in row:
                if j in cols:
                    cols[j].add(i)
                else:
                    cols[j] = {i}
    chain = []
    while rows:
        r = min(zip(map(len, rows.values()), rows))[1]
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
                if c in other:
                    if best is None or (abs(other[c]), len(other)) < best:
                        best, move = (abs(other[c]), len(other)), i
                elif not other:
                    del rows[i]
            if best is not None:
                r, row = move, rows[move]
                continue
            for j in [*row]:
                if j == c:
                    continue
                if w := row[j] % p:
                    row[j] = w
                    if best is None or (abs(w), len(cols[j])) < best:
                        best, move = (abs(w), len(cols[j])), j
                else:
                    del row[j]
                    cols[j].discard(r)
            if best is None:
                break
            c = move
        d, i = abs(p), len(chain)
        while d != 1 and i:
            i -= 1
            g = gcd(chain[i], d)
            chain[i], d = chain[i] // g * d, g
        chain.insert(0, d)
        del rows[r], cols[c]
    return SnfResult(tuple(chain), m.cols - len(chain))
