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

from collections import Counter
from math import gcd, prod

from .errors import InvalidInvariant, UnsatisfiablePattern, Value, init_field, want
from .exactalg import SnfResult, _join, floor_sum
from .presentation import Presentation


class FiberInvariant(Value):
    """One exceptional-fiber slope ``beta/alpha`` with coprime entries."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: int, beta: int):
        if type(alpha) is not int or type(beta) is not int:
            want(alpha, int, "alpha")
            want(beta, int, "beta")
        if alpha < 1:
            raise InvalidInvariant(f"alpha must be >= 1, got {alpha}")
        if gcd(alpha, beta) != 1:
            raise InvalidInvariant(f"fiber ({alpha}, {beta}) is not coprime")
        _set_alpha(self, alpha)
        _set_beta(self, beta)


# the slots' own setters, about half the cost of init_field
_set_alpha, _set_beta = FiberInvariant.alpha.__set__, FiberInvariant.beta.__set__


def _fibers(pairs) -> tuple[FiberInvariant, ...]:
    """The fibers of ``pairs``, one :class:`FiberInvariant` per distinct ``(alpha, beta)``, built at its first
    occurrence from a dict that lives for this call.  Pairs hold ``int``s: as a key, ``(True, 1)`` is ``(1, 1)``."""
    kinds = {}
    return tuple([kinds.get(p) or kinds.setdefault(p, FiberInvariant(*p)) for p in pairs])


class SeifertData(Value):
    """A Seifert fibered space over an orientable base.

    ``euler`` present means normalized mode (every fiber then needs
    ``alpha > 1`` and ``0 < beta < alpha``); ``euler=None`` means
    non-normalized mode, where the Euler number is carried implicitly by
    the slopes.
    """

    __slots__ = ("base_genus", "fibers", "euler")

    def __init__(self, base_genus: int, fibers: tuple[FiberInvariant, ...], euler: int | None = None):
        if want(base_genus, int, "base_genus") < 0:
            raise InvalidInvariant(f"base genus must be >= 0, got {base_genus}")
        if not {*map(type, fibers)} <= {FiberInvariant}:  # a pair or a bool is no fiber: name the first
            next(want(f, FiberInvariant, "fibers[{}]", i) for i, f in enumerate(fibers) if type(f) is not FiberInvariant)
        if euler is not None:
            for f in fibers:
                if f.alpha <= 1 or not (0 < f.beta < f.alpha):
                    raise InvalidInvariant(f"fiber ({f.alpha}, {f.beta}) is not in normalized range")
        init_field(self, "base_genus", base_genus)
        init_field(self, "fibers", fibers)
        init_field(self, "euler", euler if euler is None else want(euler, int, "euler"))

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
        kinds, fibers = {}, []  # one FiberInvariant per distinct slope; fiber i is read at len(fibers) == i
        for f in want(data["fibers"], list, "$.fibers"):
            if type(f) is not dict:
                want(f, dict, "$.fibers[{}]", len(fibers))
            alpha, beta = pair = f["alpha"], f["beta"]
            if type(alpha) is not int or type(beta) is not int:  # before the lookup: (True, 1) == (1, 1)
                want(alpha, int, "$.fibers[{}].alpha", len(fibers))
                want(beta, int, "$.fibers[{}].beta", len(fibers))
            fibers.append(kinds.get(pair) or kinds.setdefault(pair, FiberInvariant(alpha, beta)))
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
    fibers = tuple(FiberInvariant(f.alpha, f.beta % f.alpha) for f in s.fibers if f.alpha > 1)
    e = -floor_sum((f.beta, f.alpha) for f in s.fibers)
    return SeifertData(s.base_genus, fibers, e)


def rational_euler(s: SeifertData) -> "Fraction":
    """The rational Euler number ``e - sum(beta_i/alpha_i)``.

    In non-normalized coordinates ``e`` is 0, giving ``-sum(beta'_i/alpha_i)``;
    it is independent of the chosen coordinates and multiplies by the covering
    degree under the fiber-preserving covers built in :mod:`covers`.
    """
    from fractions import Fraction

    return Fraction(*_euler_terms(s))


def _euler_terms(s: SeifertData) -> tuple[int, int]:
    """``(num, den)`` of :func:`rational_euler` in lowest terms, ``den >= 1``, by integers
    alone, so that :func:`homology` does not import :mod:`fractions`."""
    num, den = s.euler or 0, 1
    for f in s.fibers:
        num, den = num * f.alpha - f.beta * den, den * f.alpha
        g = gcd(num, den)
        num, den = num // g, den // g
    return num, den


def denormalize(
    s: SeifertData,
    sign_pattern,
    absorber_index: int | None = None,
) -> SeifertData:
    """Choose non-normalized slopes realizing a sign pattern.

    ``sign_pattern`` has one entry per output slot, each ``"+"``, ``"-"``
    or ``"free"``; patterns longer than the fiber count are padded with
    ``alpha = 1`` slots.  Slopes keep their residue ``b`` mod alpha (0 on
    padding) and start at ``b - alpha`` on ``"-"``, at ``b`` on ``"free"``
    and at ``b``, or ``alpha`` if ``b`` is 0, on ``"+"``.  The floor-sum
    deficit against ``-e`` is then repaired: spread as evenly as possible
    over the slots that can absorb it (matching sign or free; the first
    ``deficit mod k`` of ``k`` slots take one more), which is only
    ``absorber_index`` when given, a one-slot spread.  The output
    normalizes back to ``s``.

    Raises :class:`UnsatisfiablePattern` when no slot can absorb the
    deficit in the needed direction.
    """
    if not s.is_normalized:
        raise ValueError("denormalize expects normalized input")
    pattern = tuple(sign_pattern)
    for kind in pattern:
        if kind not in ("+", "-", "free"):
            raise ValueError(f"unknown pattern entry {kind!r}")
    m = len(s.fibers)
    r = len(pattern)
    if r < m:
        raise ValueError(f"pattern length {r} is shorter than fiber count {m}")
    if absorber_index is not None and not (0 <= want(absorber_index, int, "absorber_index") < r):
        raise ValueError(f"absorber index {absorber_index} out of range")

    alphas = [f.alpha for f in s.fibers] + [1] * (r - m)
    reps = [f.beta for f in s.fibers] + [0] * (r - m)
    for i, kind in enumerate(pattern):
        if kind == "-":
            reps[i] -= alphas[i]
        elif kind == "+" and reps[i] == 0:
            reps[i] = alphas[i]

    deficit = (-s.euler) - floor_sum(zip(reps, alphas))
    if deficit != 0:
        kinds = ("+" if deficit > 0 else "-", "free")
        slots = [i for i in (range(r) if absorber_index is None else [absorber_index]) if pattern[i] in kinds]
        if not slots:
            raise UnsatisfiablePattern(
                f"no slot can absorb floor-sum deficit {deficit}" if absorber_index is None
                else f"slot {absorber_index} ({pattern[absorber_index]}) cannot absorb deficit {deficit}"
            )
        q, rem = divmod(deficit, len(slots))
        for idx, i in enumerate(slots):
            reps[i] += (q + 1 if idx < rem else q) * alphas[i]

    return SeifertData(s.base_genus, _fibers(zip(alphas, reps)), None)


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
    x = 2 * g + 1
    relators: list[tuple[int, ...]] = []
    for i, f in enumerate(s.fibers):
        relators.append((x + i,) * f.alpha + (t,) * f.beta)
    long_rel: list[int] = []
    for j in range(g):
        a, b = 2 * j + 1, 2 * j + 2
        long_rel += [a, b, -a, -b]
    long_rel += range(x, t)
    long_rel += [t] * e if e >= 0 else [-t] * (-e)
    relators.append(tuple(long_rel))
    for k in range(1, t):
        relators.append((k, t, -k, -t))
    return Presentation(t, tuple(relators))


def homology(s: SeifertData) -> SnfResult:
    """First homology in closed form, from the abelianized filling relations.

    The relation matrix has rows ``alpha_i x_i + beta_i t`` and ``x_1 + ... + x_m + e t``
    over generators ``a_*, b_*, x_*, t``; the ``a_j, b_j`` columns are untouched and
    contribute free rank ``2g``.  Let ``c_1 | ... | c_m`` be the invariant factors of
    ``Z/alpha_1 + ... + Z/alpha_m`` and ``e_Q = num/den`` the rational Euler number in lowest
    terms.  On the ``x_*, t`` columns, for ``2 <= k <= m`` the gcd of the ``k x k`` minors is
    ``c_1 ... c_{k-2}``, and the determinant is ``+-e_Q * prod(alpha_i)``.  So the invariant
    factors are ``min(m, 2)`` ones, then ``c_1 ... c_{m-2}``, then ``|num| c_{m-1} c_m / den``
    unless ``num = 0``, and the free rank is ``m + 1`` minus their count, plus ``2g``.
    Nothing is eliminated: one :func:`_join` per fiber, units counted not joined, one pass for ``e_Q``.
    """
    n = normalize(s)
    m = len(n.fibers)
    chain = []
    for f in n.fibers:
        _join(chain, f.alpha)
    chain += [1] * (m - len(chain))
    num, den = _euler_terms(n)
    factors = [1] * min(m, 2) + chain[:1:-1]
    if num:
        factors.append(abs(num) * prod(chain[:2]) // den)
    return SnfResult(tuple(factors), m + 1 - len(factors) + 2 * n.base_genus)


def vertical_genus_bound(s: SeifertData) -> int:
    """Lower bound ``max(2g+1, 2g+m-1)`` for any vertical splitting genus."""
    n = normalize(s)
    g, m = n.base_genus, len(n.fibers)
    return max(2 * g + 1, 2 * g + m - 1)


class HorizontalFamily(Value):
    """Membership data for the sporadic horizontal-splitting families.

    ``family`` is one of ``"1.1"``, ``"1.2"``, ``"2.1"``, ``"2.2"``,
    ``"2.3"``; ``n`` the family parameter; ``sign`` the denominator sign
    (absent for family 1.1, which instead records the fiber count).
    """

    __slots__ = ("family", "n", "sign", "fiber_count")

    def __init__(self, family: str, n: int, sign: int | None = None, fiber_count: int | None = None):
        if family not in _FAMILY_NAMES:
            raise ValueError(f"unknown horizontal family {family!r}")
        if sign is not None and want(sign, int, "sign") not in (1, -1):
            raise ValueError(f"unknown sign {sign!r}")
        init_field(self, "family", family)
        init_field(self, "n", want(n, int, "n"))
        init_field(self, "sign", sign)
        init_field(self, "fiber_count", fiber_count if fiber_count is None else want(fiber_count, int, "fiber_count"))


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

    if g == 0 and m >= 4 and m % 2 == 0 and e == m // 2 and fibers.count((2, 1)) == m - 1:
        a, b = next(f for f in fibers if f != (2, 1))
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
        have = Counter(fibers)
        for family, fixed, coeff in shapes:
            if not Counter(fixed) <= have:
                continue
            [(a, b)] = have - Counter(fixed)
            if b >= 1 and a == coeff * b + 1:
                return HorizontalFamily(family, n=b, sign=1)
            if b >= 1 and a == coeff * b - 1:
                return HorizontalFamily(family, n=b, sign=-1)
    return None


_FAMILY_NAMES = {"1.1": None, "1.2": None, "2.1": "half-third", "2.2": "half-quarter", "2.3": "third-third"}
_CASE_TAGS = (
    "ThmA1",
    "ThmA2",
    "ThmA3",
    "Generic_g0",
    "Generic_gpos",
    "ThmB_family",
    "SmallLens_extension",
)

class GenusReport(Value):
    """Heegaard genus and positive-Heegaard-genus classification."""

    __slots__ = ("hg", "phg_lo", "phg_hi", "case_tag", "horizontal_family", "notes")

    def __init__(self, hg: int, phg_lo: int, phg_hi: int, case_tag: str,
                 horizontal_family: HorizontalFamily | None = None, notes: str = ""):
        if case_tag not in _CASE_TAGS:
            raise ValueError(f"unknown case tag {case_tag!r}")
        if (fam := horizontal_family) is not None and not (_FAMILY_NAMES[fam.family] and fam.sign):
            raise ValueError(f"a report cannot name family {fam.family!r} with sign {fam.sign!r}")
        if want(phg_lo, int, "phg_lo") > want(phg_hi, int, "phg_hi"):
            raise ValueError("phg interval is empty")
        if want(hg, int, "hg") > phg_lo:
            raise ValueError("hg exceeds the phg lower bound")
        init_field(self, "hg", hg)
        init_field(self, "phg_lo", phg_lo)
        init_field(self, "phg_hi", phg_hi)
        init_field(self, "case_tag", case_tag)
        init_field(self, "horizontal_family", horizontal_family)
        init_field(self, "notes", notes)

    @property
    def exact(self) -> bool:
        """Whether ``phg`` is known exactly, i.e. the interval is one value."""
        return self.phg_lo == self.phg_hi

    def to_json(self) -> dict:
        out = {
            "hg": self.hg,
            "phg": [self.phg_lo, self.phg_hi],
            "exact": self.exact,
            "case": self.case_tag,
        }
        if self.horizontal_family is not None:
            fam = self.horizontal_family
            out["family"] = {
                "id": _FAMILY_NAMES[fam.family],
                "n": fam.n,
                "sign": "+" if fam.sign == 1 else "-",
            }
        if self.notes:
            out["notes"] = self.notes
        return out


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
        hg = 0 if homology(n).order() == 1 else 1
        return GenusReport(
            hg, hg, hg, "SmallLens_extension",
            notes="lens-space range (g = 0, m <= 2) reported by convention, outside the classifier's coverage",
        )

    if g == 0:
        if fam is not None and fam.family == "1.1":
            hg = m - 2
            if m == 4 or fam.n > 1:
                return GenusReport(hg, m - 1, m - 1, "ThmA1")
            return GenusReport(
                hg, m - 2, m - 1, "ThmA1",
                notes="open: whether the horizontal splitting admits a positive diagram is unresolved for m >= 6 with n = 1",
            )
        if fam is not None:
            # n = 1 with sign -1 is 1/2,1/3,1/5 or 1/2,1/4,1/3 or 1/3,1/3,1/2, whose tied horizontal
            # splitting is also vertical; that of 1/2,1/3,1/7 is unresolved
            status = ("positive" if (fam.n, fam.sign) == (1, -1)
                      else "open" if (fam.family, fam.n, fam.sign) == ("2.1", 1, 1) else "not positive")
            return GenusReport(
                m - 1, m - 1, m - 1, "ThmB_family",
                horizontal_family=fam,
                notes=f"horizontal splitting realizes the vertical genus; its positive-diagram status: {status}",
            )
        return GenusReport(m - 1, m - 1, m - 1, "Generic_g0")

    if m >= 3:
        hg = 2 * g + m - 1
        return GenusReport(hg, hg, hg, "Generic_gpos")

    if fam is not None and fam.family == "1.2":
        hg = 2 * g
        return GenusReport(hg, 2 * g + 1, 2 * g + 2, "ThmA2")

    if m == 0:
        hg = 2 * g + 1
        notes = "m = 0 case formula 2g-1 contradicts the vertical lower bound; reporting hg = 2g+1"
    else:
        hg = min(2 * g + 1, 2 * g + m - 1)
        notes = ""
    return GenusReport(hg, hg, hg + 1, "ThmA3", notes=notes)
