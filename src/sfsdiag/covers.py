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

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    BaseGenusUnsupported,
    IncompatibleSpec,
    InfeasibleBetaStar,
    ParityError,
    TooManyFibers,
)
from .exactalg import crt, floor_sum
from .seifert import FiberInvariant, SeifertData, normalize


@dataclass(frozen=True)
class CoverSpec:
    """Boundary behavior of a surface cover: one partition per boundary.

    ``partitions[i]`` lists the covering degrees of the circles over
    boundary ``i``; each partition must sum to the sheet count.
    """

    sheets: int
    partitions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.sheets < 1:
            raise ValueError(f"sheet count must be >= 1, got {self.sheets}")
        for i, part in enumerate(self.partitions):
            if not part or any(b < 1 for b in part):
                raise ValueError(f"partition {i} must consist of positive parts")
            if sum(part) != self.sheets:
                raise IncompatibleSpec(
                    f"partition {i} sums to {sum(part)}, not {self.sheets}"
                )

    def to_json(self) -> dict:
        return {"lambda": self.sheets, "partitions": [list(p) for p in self.partitions]}

    @classmethod
    def from_json(cls, data: dict) -> "CoverSpec":
        return cls(
            int(data["lambda"]),
            tuple(tuple(int(b) for b in part) for part in data["partitions"]),
        )


def cyclic_cover_spec(sheets: int, boundaries: int = 3) -> CoverSpec:
    """The cover keeping each boundary preimage connected (one part each)."""
    return CoverSpec(sheets, ((sheets,),) * boundaries)


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
    ``beta_i / (alpha_i / b_{i,j})``.  Each part must divide its alpha and
    be coprime to its beta (otherwise the covered filling does not exist),
    and the genus formula must come out integral.
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
            if gcd(f.beta, b) != 1:
                raise IncompatibleSpec(
                    f"part {b} shares a factor with beta {f.beta}"
                )
    circles = sum(len(part) for part in spec.partitions)
    if (r * lam - circles) % 2 != 0:
        raise ParityError("boundary circle count has the wrong parity")
    genus = lam * (s.base_genus - 1) + 1 + (r * lam - circles) // 2
    if genus < 0:
        raise IncompatibleSpec("covering data yields a negative genus")
    fibers = tuple(
        FiberInvariant(f.alpha // b, f.beta)
        for f, part in zip(s.fibers, spec.partitions)
        for b in part
    )
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
    if not hit:
        return tuple(betas)
    if len(hit) == 1:
        i = hit[0]
        others = [j for j in range(len(pairs)) if j != i]
        if not others:
            raise InfeasibleBetaStar(
                f"single slope divisible by {p} cannot be fixed without a partner"
            )
        j = others[0]
        if (betas[j] - alphas[j]) % p != 0:
            betas[i] += alphas[i]
            betas[j] -= alphas[j]
        else:
            betas[i] -= alphas[i]
            betas[j] += alphas[j]
        return tuple(betas)
    if len(hit) % 2 == 0:
        half = len(hit) // 2
        for i in hit[:half]:
            betas[i] += alphas[i]
        for i in hit[half:]:
            betas[i] -= alphas[i]
        return tuple(betas)
    # odd count > 1: one slot takes a double step up, the rest balance it
    first, rest = hit[0], hit[1:]
    up = (len(hit) - 3) // 2
    betas[first] += 2 * alphas[first]
    for i in rest[:up]:
        betas[i] += alphas[i]
    for i in rest[up:]:
        betas[i] -= alphas[i]
    return tuple(betas)


def _prime_powers(n: int):
    """``(p, p**k)`` for each prime power ``p**k`` exactly dividing odd ``n``."""
    out = []
    d = 3
    while d * d <= n:
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

    ``lam`` must be odd; each ``(alpha, beta)`` pair must be coprime with
    ``alpha >= 1``.  Works one odd prime power at a time, stitches the
    per-prime answers together with the Chinese remainder theorem, and
    repairs the floor sum with one correction by a multiple of
    ``alpha_1 * lam``, which disturbs neither the residues nor the
    coprimality.
    """
    pairs = tuple((int(a), int(b)) for a, b in pairs)
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
    (p, mod), *others = _prime_powers(lam)
    partial = _adjust_for_prime(pairs, p)
    for p, q in others:
        nxt = _adjust_for_prime(pairs, p)
        combined = []
        for i, a in enumerate(alphas):
            value, _ = crt([(partial[i], a * mod), (nxt[i], a * q)])
            combined.append(value)
        partial = tuple(combined)
        mod *= q

    drift = floor_sum(zip(partial, alphas)) - floor_sum((b, a) for a, b in pairs)
    assert drift % lam == 0, "per-prime congruences should drift by multiples of lam"
    out = list(partial)
    out[0] -= (drift // lam) * alphas[0] * lam

    for (a, b), star in zip(pairs, out):
        assert (star - b) % a == 0
        assert gcd(star, lam) == 1
    assert floor_sum(zip(out, alphas)) == floor_sum((b, a) for a, b in pairs)
    return tuple(out)


def base_orbifold_cover(s: SeifertData) -> tuple[SeifertData, int]:
    """Present ``s`` as a ``(2g+1)``-sheeted cover of a sphere base with
    three exceptional fibers.

    Requires base genus ``g >= 1`` and at most three fibers.  The space is
    first written with exactly three non-normalized slots (padding by
    ``alpha = 1``, the Euler number absorbed into the first padded slot,
    or into slot one when there is no padding); the numerators are then
    adjusted to be coprime to ``lambda = 2g+1`` and divided into the
    sphere-base slopes ``beta*_i / (lambda * alpha_i)``.  Lifting the
    result through :func:`cyclic_cover_spec` recovers ``s`` exactly.
    """
    n = normalize(s)
    g, m = n.base_genus, len(n.fibers)
    if g < 1:
        raise BaseGenusUnsupported(f"cover construction needs base genus >= 1, got {g}")
    if m > 3:
        raise TooManyFibers(f"at most three exceptional fibers supported, got {m}")
    lam = 2 * g + 1

    slots = [(f.alpha, f.beta) for f in n.fibers]
    if m < 3:
        slots.append((1, -n.euler))
        slots.extend((1, 0) for _ in range(3 - len(slots)))
    else:
        a0, b0 = slots[0]
        slots[0] = (a0, b0 - n.euler * a0)

    stars = beta_star(slots, lam)
    base = SeifertData(
        0,
        tuple(FiberInvariant(lam * a, star) for (a, _), star in zip(slots, stars)),
        None,
    )
    return base, lam


def positive_genus_bound(s: SeifertData) -> int:
    """Positive-diagram genus bound ``2g+2`` for at most three fibers."""
    n = normalize(s)
    if len(n.fibers) > 3:
        raise TooManyFibers(
            f"bound applies to at most three fibers, got {len(n.fibers)}"
        )
    return 2 * n.base_genus + 2
