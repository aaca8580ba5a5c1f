"""Seifert fibered space invariants over orientable base surfaces.

A closed orientable space is recorded either in *normalized* form
``(g; b_1/a_1, ..., b_m/a_m; e)`` with ``a_i > 1`` and ``0 < b_i < a_i``,
or in *non-normalized* form ``{g; b'_1/a_1, ..., b'_r/a_r}`` where the
Euler number is implicit: ``e = -sum(floor(b'_i/a_i))``.  Normalization
replaces each slope numerator by its least positive residue, drops
``a_i = 1`` fibers, and makes ``e`` explicit; it is a complete invariant
for these spaces, so equality of normalized data is the homeomorphism
test used throughout.

The genus classifier reports the Heegaard genus ``hg`` and an exact value
or interval for the positive Heegaard genus ``phg``, split into the cases
where the two agree, the sporadic horizontal families where they may not,
and a lens-space range handled by convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvalidInvariant, UnsatisfiablePattern, want
from .exactalg import IntMatrix, SnfResult, floor_sum, least_positive_residue, snf
from .presentation import Presentation


@dataclass(frozen=True)
class FiberInvariant:
    """One exceptional-fiber slope ``beta/alpha`` with coprime entries."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < 1:
            raise InvalidInvariant(f"alpha must be >= 1, got {self.alpha}")
        if gcd(self.alpha, self.beta) != 1:
            raise InvalidInvariant(
                f"fiber ({self.alpha}, {self.beta}) is not coprime"
            )


@dataclass(frozen=True)
class SeifertData:
    """A Seifert fibered space over an orientable base.

    ``euler`` present means normalized mode (every fiber then needs
    ``alpha > 1`` and ``0 < beta < alpha``); ``euler=None`` means
    non-normalized mode, where the Euler number is carried implicitly by
    the slopes.
    """

    base_genus: int
    fibers: tuple[FiberInvariant, ...]
    euler: int | None = None

    def __post_init__(self):
        if self.base_genus < 0:
            raise InvalidInvariant(f"base genus must be >= 0, got {self.base_genus}")
        if self.euler is not None:
            for f in self.fibers:
                if f.alpha <= 1 or not (0 < f.beta < f.alpha):
                    raise InvalidInvariant(
                        f"fiber ({f.alpha}, {f.beta}) is not in normalized range"
                    )

    @property
    def is_normalized(self) -> bool:
        return self.euler is not None

    @classmethod
    def normalized(cls, base_genus, fibers, euler) -> "SeifertData":
        return cls(base_genus, tuple(FiberInvariant(a, b) for a, b in fibers), euler)

    @classmethod
    def non_normalized(cls, base_genus, fibers) -> "SeifertData":
        return cls(base_genus, tuple(FiberInvariant(a, b) for a, b in fibers), None)

    def to_json(self) -> dict:
        out = {
            "base_genus": self.base_genus,
            "mode": "normalized" if self.is_normalized else "non_normalized",
            "fibers": [{"alpha": f.alpha, "beta": f.beta} for f in self.fibers],
        }
        if self.is_normalized:
            out["euler"] = self.euler
        return out

    @classmethod
    def from_json(cls, data: dict) -> "SeifertData":
        mode = data["mode"]
        if mode not in ("normalized", "non_normalized"):
            raise ValueError(f"unknown mode {mode!r}")
        euler = data.get("euler")
        if mode == "normalized" and euler is None:
            raise ValueError("normalized data requires an euler field")
        if mode == "non_normalized" and euler is not None:
            raise ValueError("non-normalized data must not carry an euler field")
        fibers = []
        for i, f in enumerate(want(data["fibers"], list, "$.fibers")):
            alpha, beta = want(f, dict, "$.fibers[{}]", i)["alpha"], f["beta"]
            if type(alpha) is not int or type(beta) is not int:
                want(alpha, int, "$.fibers[{}].alpha", i)
                want(beta, int, "$.fibers[{}].beta", i)
            fibers.append(FiberInvariant(alpha, beta))
        euler = None if euler is None else want(euler, int, "$.euler")
        return cls(want(data["base_genus"], int, "$.base_genus"), tuple(fibers), euler)


def normalize(s: SeifertData) -> SeifertData:
    """Unique normalized form of the space; idempotent.

    Fibers with ``alpha = 1`` are absorbed into the Euler number, every
    remaining numerator becomes its least positive residue, and
    ``e = -sum(floor(beta'_i/alpha_i))``.
    """
    if s.is_normalized:
        return s
    fibers = tuple(
        FiberInvariant(f.alpha, least_positive_residue(f.beta, f.alpha))
        for f in s.fibers
        if f.alpha > 1
    )
    e = -floor_sum((f.beta, f.alpha) for f in s.fibers)
    return SeifertData(s.base_genus, fibers, e)


def rational_euler(s: SeifertData) -> Fraction:
    """The rational Euler number ``e - sum(beta_i/alpha_i)``.

    In non-normalized coordinates this is ``-sum(beta'_i/alpha_i)``; it is
    independent of the chosen coordinates and multiplies by the covering
    degree under the fiber-preserving covers built in :mod:`covers`.
    """
    if s.is_normalized:
        return s.euler - sum((Fraction(f.beta, f.alpha) for f in s.fibers), Fraction(0))
    return -sum((Fraction(f.beta, f.alpha) for f in s.fibers), Fraction(0))


_PATTERN_KINDS = ("+", "-", "free")


def denormalize(
    s: SeifertData,
    sign_pattern,
    absorber_index: int | None = None,
) -> SeifertData:
    """Choose non-normalized slopes realizing a sign pattern.

    ``sign_pattern`` has one entry per output slot, each ``"+"``, ``"-"``
    or ``"free"``; patterns longer than the fiber count are padded with
    ``alpha = 1`` slots.  Slopes keep their residues mod alpha, signed
    slots get the minimal representative of the required sign, and the
    floor-sum deficit against ``-e`` is then repaired: spread as evenly as
    possible over the slots that can absorb it (matching sign or free,
    later slots taking the larger share), or placed entirely on
    ``absorber_index`` when given.  The output normalizes back to ``s``.

    Raises :class:`UnsatisfiablePattern` when no slot can absorb the
    deficit in the needed direction.
    """
    if not s.is_normalized:
        raise ValueError("denormalize expects normalized input")
    pattern = tuple(sign_pattern)
    for kind in pattern:
        if kind not in _PATTERN_KINDS:
            raise ValueError(f"unknown pattern entry {kind!r}")
    m = len(s.fibers)
    r = len(pattern)
    if r < m:
        raise ValueError(f"pattern length {r} is shorter than fiber count {m}")
    if absorber_index is not None and not (0 <= absorber_index < r):
        raise ValueError(f"absorber index {absorber_index} out of range")

    alphas = [f.alpha for f in s.fibers] + [1] * (r - m)
    reps: list[int] = []
    for i, kind in enumerate(pattern):
        if i < m:
            base = s.fibers[i].beta  # already the least positive residue
        else:
            base = 1  # residue class of 0 mod 1
        if kind == "+":
            reps.append(base)
        elif kind == "-":
            rep = base - alphas[i]
            reps.append(rep if rep != 0 else -alphas[i])
        else:
            reps.append(base if i < m else 0)

    deficit = (-s.euler) - floor_sum(zip(reps, alphas))
    if deficit != 0:
        if absorber_index is not None:
            kind = pattern[absorber_index]
            ok = kind == "free" or (kind == "+") == (deficit > 0)
            if not ok:
                raise UnsatisfiablePattern(
                    f"slot {absorber_index} ({kind}) cannot absorb deficit {deficit}"
                )
            reps[absorber_index] += deficit * alphas[absorber_index]
        else:
            want = "+" if deficit > 0 else "-"
            slots = [i for i in range(r) if pattern[i] in (want, "free")]
            if not slots:
                raise UnsatisfiablePattern(
                    f"no slot can absorb floor-sum deficit {deficit}"
                )
            q, rem = divmod(deficit, len(slots))
            for idx, i in enumerate(slots):
                reps[i] += (q + 1 if idx < rem else q) * alphas[i]

    return SeifertData(
        s.base_genus,
        tuple(FiberInvariant(a, b) for a, b in zip(alphas, reps)),
        None,
    )


def sfs_presentation(s: SeifertData) -> Presentation:
    """Fundamental-group presentation from the filling description.

    Generators, in order: ``a_1, b_1, ..., a_g, b_g, x_1, ..., x_m, t``.
    Relators: ``x_i^{alpha_i} t^{beta_i}`` per exceptional fiber, the long
    relation ``[a_1,b_1]...[a_g,b_g] x_1...x_m t^e``, and the commutators
    ``[a_j,t], [b_j,t], [x_i,t]`` recording that ``t`` is central.
    """
    if not s.is_normalized:
        raise ValueError("sfs_presentation expects normalized input")
    g, m, e = s.base_genus, len(s.fibers), s.euler
    t = 2 * g + m + 1

    def x(i: int) -> int:
        return 2 * g + 1 + i

    relators: list[tuple[int, ...]] = []
    for i, f in enumerate(s.fibers):
        relators.append((x(i),) * f.alpha + (t,) * f.beta)
    long_rel: list[int] = []
    for j in range(g):
        a, b = 2 * j + 1, 2 * j + 2
        long_rel += [a, b, -a, -b]
    long_rel += [x(i) for i in range(m)]
    long_rel += [t] * e if e >= 0 else [-t] * (-e)
    relators.append(tuple(long_rel))
    for k in range(1, t):
        relators.append((k, t, -k, -t))
    return Presentation(t, tuple(relators))


def homology(s: SeifertData) -> SnfResult:
    """First homology, via the abelianized filling relations.

    The relation matrix has rows ``alpha_i x_i + beta_i t`` and
    ``x_1 + ... + x_m + e t`` over generators ``a_*, b_*, x_*, t``; the
    ``a_j, b_j`` columns are untouched and contribute free rank ``2g``.
    Normalizes internally, so any coordinate form of the same space gives
    the same result.
    """
    n = normalize(s)
    g, m = n.base_genus, len(n.fibers)
    cols = 2 * g + m + 1
    rows = [[0] * cols for _ in range(m + 1)]
    for i, f in enumerate(n.fibers):
        rows[i][2 * g + i], rows[i][-1] = f.alpha, f.beta
        rows[m][2 * g + i] = 1
    rows[m][-1] = n.euler
    return snf(IntMatrix(m + 1, cols, tuple(map(tuple, rows))))


def vertical_genus_bound(s: SeifertData) -> int:
    """Lower bound ``max(2g+1, 2g+m-1)`` for any vertical splitting genus."""
    n = normalize(s)
    g, m = n.base_genus, len(n.fibers)
    return max(2 * g + 1, 2 * g + m - 1)


@dataclass(frozen=True)
class HorizontalFamily:
    """Membership data for the sporadic horizontal-splitting families.

    ``family`` is one of ``"1.1"``, ``"1.2"``, ``"2.1"``, ``"2.2"``,
    ``"2.3"``; ``n`` the family parameter; ``sign`` the denominator sign
    (absent for family 1.1, which instead records the fiber count).
    """

    family: str
    n: int
    sign: int | None = None
    fiber_count: int | None = None


def _remove_fibers(multiset: list[tuple[int, int]], fixed) -> tuple[int, int] | None:
    """Remove the fixed fibers from a 3-element multiset, returning the rest."""
    pool = list(multiset)
    for f in fixed:
        if f not in pool:
            return None
        pool.remove(f)
    assert len(pool) == 1
    return pool[0]


def horizontal_family(s: SeifertData) -> HorizontalFamily | None:
    """Detect membership in the families admitting low horizontal splittings.

    Family 1.1: base sphere, even ``m >= 4``, invariants
    ``1/2, ..., 1/2, n/(2n+1)`` and ``e = m/2`` (horizontal genus one below
    the vertical bound).  Family 1.2: positive base genus with
    non-normalized invariant ``+-1/n`` (at most one exceptional fiber).
    Families 2.1-2.3: base sphere, ``m = 3``, ``e = 1``, invariants
    ``1/2,1/3,n/(6n+-1)``, ``1/2,1/4,n/(4n+-1)`` or ``1/3,1/3,n/(3n+-1)``
    (horizontal genus equal to the vertical).  Matching is up to fiber
    permutation on normalized data; both numerator and denominator of the
    parameter fiber must fit the family shape.
    """
    n = normalize(s)
    g, m, e = n.base_genus, len(n.fibers), n.euler
    fibers = sorted((f.alpha, f.beta) for f in n.fibers)

    if g == 0 and m >= 4 and m % 2 == 0 and e == m // 2:
        halves = fibers.count((2, 1))
        if halves == m - 1:
            rest = [f for f in fibers if f != (2, 1)] or [(2, 1)]
            a, b = rest[0]
            if a == 2 * b + 1 and b >= 1:
                return HorizontalFamily("1.1", n=b, fiber_count=m)

    if g > 0:
        if m == 0 and e in (1, -1):
            # +1/1 normalizes to e=-1, -1/1 to e=+1
            return HorizontalFamily("1.2", n=1, sign=-1 if e == 1 else 1)
        if m == 1:
            a, b = fibers[0]
            if b == 1 and e == 0:
                return HorizontalFamily("1.2", n=a, sign=1)
            if b == a - 1 and e == 1:
                return HorizontalFamily("1.2", n=a, sign=-1)

    if g == 0 and m == 3 and e == 1:
        shapes = (
            ("2.1", [(2, 1), (3, 1)], 6),
            ("2.2", [(2, 1), (4, 1)], 4),
            ("2.3", [(3, 1), (3, 1)], 3),
        )
        for family, fixed, coeff in shapes:
            rest = _remove_fibers(fibers, fixed)
            if rest is None:
                continue
            a, b = rest
            if b >= 1 and a == coeff * b + 1:
                return HorizontalFamily(family, n=b, sign=1)
            if b >= 1 and a == coeff * b - 1:
                return HorizontalFamily(family, n=b, sign=-1)
    return None


_CASE_TAGS = (
    "ThmA1",
    "ThmA2",
    "ThmA3",
    "Generic_g0",
    "Generic_gpos",
    "ThmB_family",
    "SmallLens_extension",
)

# the three triples whose tied horizontal splitting is also vertical, and
# the one whose positivity is unresolved
_POSITIVE_TRIPLES = (
    ((2, 1), (3, 1), (5, 1)),
    ((2, 1), (3, 1), (4, 1)),
    ((2, 1), (3, 1), (3, 1)),
)
_OPEN_TRIPLE = ((2, 1), (3, 1), (7, 1))


@dataclass(frozen=True)
class GenusReport:
    """Heegaard genus and positive-Heegaard-genus classification."""

    hg: int
    phg_lo: int
    phg_hi: int
    exact: bool
    case_tag: str
    horizontal_family: HorizontalFamily | None = None
    notes: str = ""

    def __post_init__(self):
        if self.case_tag not in _CASE_TAGS:
            raise ValueError(f"unknown case tag {self.case_tag!r}")
        if self.phg_lo > self.phg_hi:
            raise ValueError("phg interval is empty")
        if self.exact != (self.phg_lo == self.phg_hi):
            raise ValueError("exactness flag disagrees with the interval")
        if self.hg > self.phg_lo:
            raise ValueError("hg exceeds the phg lower bound")

    def to_json(self) -> dict:
        out = {
            "hg": self.hg,
            "phg": [self.phg_lo, self.phg_hi],
            "exact": self.exact,
            "case": self.case_tag,
        }
        if self.horizontal_family is not None:
            fam = self.horizontal_family
            names = {"2.1": "half-third", "2.2": "half-quarter", "2.3": "third-third"}
            out["family"] = {
                "id": names[fam.family],
                "n": fam.n,
                "sign": "+" if fam.sign == 1 else "-",
            }
        if self.notes:
            out["notes"] = self.notes
        return out


def _tb_status(fibers) -> str:
    key = tuple(sorted(fibers))
    if key in _POSITIVE_TRIPLES:
        return "positive"
    if key == _OPEN_TRIPLE:
        return "open"
    return "not positive"


def genus_report(s: SeifertData) -> GenusReport:
    """Classify the Heegaard genus and positive Heegaard genus of ``s``.

    Cases, on the normalized form:

    * ``g > 0, m >= 3``: both genera equal ``2g+m-1``.
    * ``g = 0, m >= 3`` outside family 1.1: both equal ``m-1``; when the
      space lies in one of the tied horizontal families (2.1-2.3), the
      report is tagged ``ThmB_family`` and the notes record whether that
      horizontal splitting carries a positive diagram.
    * family 1.1: ``hg = m-2``; ``phg = m-1`` exactly when ``m = 4`` or
      ``n > 1``, otherwise the interval ``[m-2, m-1]`` (open).
    * family 1.2 data (``ThmA2``): ``hg = 2g``, ``phg`` in
      ``[2g+1, 2g+2]``.
    * other ``g > 0, m <= 2`` (``ThmA3``): ``hg = min(2g+1, 2g+m-1)``
      except that ``m = 0`` reports ``2g+1``, the vertical bound, with a
      note; ``phg`` in ``[hg, hg+1]``.
    * ``g = 0, m <= 2``: lens-space range, reported by convention
      (``hg = phg = 0`` for the 3-sphere, else 1) and flagged as an
      extension.
    """
    n = normalize(s)
    g, m = n.base_genus, len(n.fibers)
    fam = horizontal_family(n)

    if g == 0 and m <= 2:
        h = homology(n)
        hg = 0 if (h.free_rank == 0 and not h.torsion) else 1
        return GenusReport(
            hg, hg, hg, True, "SmallLens_extension",
            notes="lens-space range (g = 0, m <= 2) reported by convention, outside the classifier's coverage",
        )

    if g == 0:
        if fam is not None and fam.family == "1.1":
            hg = m - 2
            if m == 4 or fam.n > 1:
                return GenusReport(hg, m - 1, m - 1, True, "ThmA1")
            return GenusReport(
                hg, m - 2, m - 1, False, "ThmA1",
                notes="open: whether the horizontal splitting admits a positive diagram is unresolved for m >= 6 with n = 1",
            )
        if fam is not None:
            fibers = [(f.alpha, f.beta) for f in n.fibers]
            return GenusReport(
                m - 1, m - 1, m - 1, True, "ThmB_family",
                horizontal_family=fam,
                notes=f"horizontal splitting realizes the vertical genus; its positive-diagram status: {_tb_status(fibers)}",
            )
        return GenusReport(m - 1, m - 1, m - 1, True, "Generic_g0")

    if m >= 3:
        hg = 2 * g + m - 1
        return GenusReport(hg, hg, hg, True, "Generic_gpos")

    if fam is not None and fam.family == "1.2":
        hg = 2 * g
        return GenusReport(hg, 2 * g + 1, 2 * g + 2, False, "ThmA2")

    if m == 0:
        hg = 2 * g + 1
        notes = "m = 0 case formula 2g-1 contradicts the vertical lower bound; reporting hg = 2g+1"
    else:
        hg = min(2 * g + 1, 2 * g + m - 1)
        notes = ""
    return GenusReport(hg, hg, hg + 1, False, "ThmA3", notes=notes)
