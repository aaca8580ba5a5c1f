"""Covering-space arithmetic on Seifert invariants.

A cover of the base surface that is compatible with the filling slopes
lifts to a fiber-preserving cover of the filled space; everything here
works at the level of invariants, the covers themselves are never built.
``lift_seifert`` computes the lifted genus and slope list from branching
data, ``beta_star`` adjusts slope numerators to be coprime to an odd
sheet count without moving the floor sum, and ``base_orbifold_cover``
combines the two to present any space of genus ``g`` with at most three
exceptional fibers as a ``(2g+1)``-sheeted cover of a sphere base with
three fibers.
"""

from math import gcd

from .errors import (
    BaseGenusUnsupported,
    IncompatibleSpec,
    InfeasibleBetaStar,
    ParityError,
    TooManyFibers,
    Value,
    WorkBudgetExceeded,
    init_field,
    want,
    want_ints,
)
from .exactalg import crt, floor_sum
from .seifert import SeifertData, _fibers, denormalize, normalize

#: Largest trial divisor :func:`beta_star` tries when factoring the sheet count.
MAX_TRIAL_DIVISOR = 1_000_000


class CoverSpec(Value):
    """Boundary behavior of a surface cover: one partition per boundary.

    ``partitions[i]`` lists the covering degrees of the circles over
    boundary ``i``; each partition must sum to the sheet count.
    """

    __slots__ = ("sheets", "partitions")

    def __init__(self, sheets: int, partitions: tuple[tuple[int, ...], ...]):
        if sheets < 1:
            raise ValueError(f"sheet count must be >= 1, got {sheets}")
        for i, part in enumerate(partitions):
            if not part or any(want(b, int, "partitions[{}]", i) < 1 for b in part):
                raise ValueError(f"partition {i} must consist of positive parts")
            if sum(part) != sheets:
                raise IncompatibleSpec(f"partition {i} sums to {sum(part)}, not {sheets}")
        init_field(self, "sheets", sheets)
        init_field(self, "partitions", partitions)

    def to_json(self) -> dict:
        return {"lambda": self.sheets, "partitions": [list(p) for p in self.partitions]}

    @classmethod
    def from_json(cls, data: dict) -> "CoverSpec":
        sheets, parts = want(data["lambda"], int, "$.lambda"), want(data["partitions"], list, "$.partitions")
        return cls(sheets, tuple(tuple(want_ints(p, "$.partitions[{}]", i)) for i, p in enumerate(parts)))


def cyclic_cover_spec(sheets: int) -> CoverSpec:
    """The cover keeping each of three boundary preimages connected."""
    return CoverSpec(sheets, ((sheets,),) * 3)


def lifted_diagram_genus(g: int, sheets: int) -> int:
    """Genus ``sheets*(g-1) + 1`` of the lifted positive diagram."""
    if g < 0:
        raise ValueError(f"genus must be >= 0, got {g}")
    if sheets < 1:
        raise ValueError(f"sheet count must be >= 1, got {sheets}")
    return sheets * (g - 1) + 1


def lift_seifert(s: SeifertData, spec: CoverSpec) -> SeifertData:
    """Invariants of the cover induced by a base cover with the given
    boundary behavior.

    For non-normalized input ``{g; beta_i/alpha_i}`` with ``r`` slots and
    boundary parts ``b_{i,j}`` the lift has genus
    ``lambda*(g-1) + 1 + (r*lambda - sum(r_i))/2`` and slopes
    ``beta_i / (alpha_i / b_{i,j})``.  Each part must divide its alpha
    (otherwise the covered filling does not exist), which makes it coprime
    to its beta, and the genus formula must come out integral.
    """
    if s.is_normalized:
        raise ValueError("lift_seifert expects non-normalized input")
    r = len(s.fibers)
    if r < 1:
        raise ValueError("lift_seifert needs at least one filling slot")
    if len(spec.partitions) != r:
        raise IncompatibleSpec(
            f"{r} filling slots but {len(spec.partitions)} boundary partitions"
        )
    lam = spec.sheets
    for f, part in zip(s.fibers, spec.partitions):
        for b in part:
            if f.alpha % b != 0:
                raise IncompatibleSpec(f"part {b} does not divide alpha {f.alpha}")
    circles = sum(len(part) for part in spec.partitions)
    if (r * lam - circles) % 2 != 0:
        raise ParityError("boundary circle count has the wrong parity")
    genus = lifted_diagram_genus(s.base_genus, lam) + (r * lam - circles) // 2
    if genus < 0:
        raise IncompatibleSpec("covering data yields a negative genus")
    fibers = _fibers([(f.alpha // b, f.beta) for f, part in zip(s.fibers, spec.partitions) for b in part])
    return SeifertData(genus, fibers, None)


def _adjust_for_prime(pairs, p: int):
    """One odd prime at a time: make every numerator coprime to ``p``.

    Shifts whole multiples of alpha around so the floor sum is unchanged;
    every shifted numerator moves by ``k*alpha`` with ``1 <= |k| < p``,
    which cannot reintroduce the factor ``p``.
    """
    betas = [b for _, b in pairs]
    alphas = [a for a, _ in pairs]
    hit = [i for i in range(len(pairs)) if betas[i] % p == 0]
    if len(hit) == 1:
        if len(pairs) == 1:
            raise InfeasibleBetaStar(
                f"single slope divisible by {p} cannot be fixed without a partner"
            )
        i = hit[0]
        j = int(i == 0)  # the partner, the first other slot, steps down unless it lands on a multiple of p
        step = 1 if (betas[j] - alphas[j]) % p else -1
        betas[i] += step * alphas[i]
        betas[j] -= step * alphas[j]
        return tuple(betas)
    # the first half step up and the rest down; an odd count leaves one step
    # down over, which the first slot balances by a second step up
    half = len(hit) // 2
    for n, i in enumerate(hit):
        betas[i] += alphas[i] if n < half else -alphas[i]
    if len(hit) % 2:
        betas[hit[0]] += alphas[hit[0]]
    return tuple(betas)


def _prime_powers(n: int):
    """``(p, p**k)`` for each prime power ``p**k`` exactly dividing odd ``n``;
    :class:`WorkBudgetExceeded` if it needs a divisor above :data:`MAX_TRIAL_DIVISOR`."""
    out = []
    d = 3
    while d * d <= n:
        if d > MAX_TRIAL_DIVISOR:
            raise WorkBudgetExceeded(f"factoring {n} needs trial divisors above the limit of {MAX_TRIAL_DIVISOR}")
        if n % d == 0:
            q = 1
            while n % d == 0:
                n //= d
                q *= d
            out.append((d, q))
        d += 2
    if n > 1:
        out.append((n, n))
    return out


def beta_star(pairs, lam: int):
    """Numerators congruent to the given ones, coprime to ``lam``, with
    the same floor sum.

    ``lam`` must be odd; each ``(alpha, beta)`` pair must be ints, coprime,
    with ``alpha >= 1``.  Works one odd prime power at a time, stitches the
    per-prime answers together with the Chinese remainder theorem, and
    repairs the floor sum with one correction by a multiple of
    ``alpha_1 * lam``, which disturbs neither the residues nor the
    coprimality.  A ``lam`` that trial division up to :data:`MAX_TRIAL_DIVISOR`
    cannot factor raises :class:`WorkBudgetExceeded`.
    """
    pairs = tuple((a, b) for a, b in pairs)
    if type(lam) is not int or not {type(x) for pair in pairs for x in pair} <= {int}:
        raise TypeError(f"sheet count and pair entries must be ints, got {lam!r} and {pairs}")
    if lam < 1 or lam % 2 == 0:
        raise ValueError(f"sheet count must be odd and positive, got {lam}")
    for a, b in pairs:
        if a < 1:
            raise ValueError(f"alpha must be >= 1, got {a}")
        if gcd(a, b) != 1:
            raise ValueError(f"pair ({a}, {b}) is not coprime")
    if lam == 1 or not pairs:
        return tuple(b for _, b in pairs)

    alphas = [a for a, _ in pairs]
    adjusted = [(_adjust_for_prime(pairs, p), q) for p, q in _prime_powers(lam)]
    # one prime power keeps its shifted numerators; crt would reduce them modulo alpha * q
    out = (list(adjusted[0][0]) if len(adjusted) == 1
           else [crt((adj[i], a * q) for adj, q in adjusted)[0] for i, a in enumerate(alphas)])

    drift = floor_sum(zip(out, alphas)) - (target := floor_sum((b, a) for a, b in pairs))
    assert drift % lam == 0, "per-prime congruences should drift by multiples of lam"
    out[0] -= (drift // lam) * alphas[0] * lam

    for (a, b), star in zip(pairs, out):
        assert (star - b) % a == 0
        assert gcd(star, lam) == 1
    assert floor_sum(zip(out, alphas)) == target
    return tuple(out)


def base_orbifold_cover(s: SeifertData) -> tuple[SeifertData, int]:
    """Present ``s`` as a ``(2g+1)``-sheeted cover of a sphere base with
    three exceptional fibers.

    Requires base genus ``g >= 1`` and ``m <= 3`` fibers.  :func:`denormalize`
    first writes the space in three free slots, padding by ``alpha = 1``
    and absorbing the Euler number into slot ``m mod 3`` (the first padded
    slot, or slot one without padding); the numerators are then adjusted
    to be coprime to ``lambda = 2g+1`` and divided into the sphere-base
    slopes ``beta*_i / (lambda * alpha_i)``.  Lifting the result through
    :func:`cyclic_cover_spec` recovers ``s`` exactly.
    """
    n = normalize(s)
    g, m = n.base_genus, len(n.fibers)
    if g < 1:
        raise BaseGenusUnsupported(f"cover construction needs base genus >= 1, got {g}")
    if m > 3:
        raise TooManyFibers(f"at most three exceptional fibers supported, got {m}")
    lam = 2 * g + 1

    slots = [(f.alpha, f.beta) for f in denormalize(n, ("free",) * 3, absorber_index=m % 3).fibers]

    stars = beta_star(slots, lam)
    return SeifertData(0, _fibers([(lam * a, star) for (a, _), star in zip(slots, stars)]), None), lam


def positive_genus_bound(s: SeifertData) -> int:
    """Positive-diagram genus bound ``2g+2`` for at most three fibers."""
    n = normalize(s)
    if len(n.fibers) > 3:
        raise TooManyFibers(
            f"bound applies to at most three fibers, got {len(n.fibers)}"
        )
    return 2 * n.base_genus + 2
