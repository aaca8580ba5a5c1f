"""Seeded inputs for the four workloads, as plain JSON-shaped data.

Nothing here imports ``sfsdiag``: the same seed gives the same inputs
whatever the program does.  Sizes are stratified so that every seed
draws the same spread of work: the builds pick, for each op, the
candidate at a stratified rank of the crossing count among a few random
spaces, and the query and CLI mixes hold fixed counts per kind.
"""

from __future__ import annotations

import json
import random
from math import gcd

from checkers import cycles

# ---------------------------------------------------------------- spaces


def coprime_beta(rng: random.Random, alpha: int) -> int:
    """Uniform ``beta`` in ``[1, alpha-1]`` coprime to ``alpha >= 2``."""
    while True:
        beta = rng.randrange(1, alpha)
        if gcd(alpha, beta) == 1:
            return beta


def normalized(genus: int, fibers, euler: int) -> dict:
    return {"base_genus": genus, "mode": "normalized",
            "fibers": [{"alpha": a, "beta": b} for a, b in fibers], "euler": euler}


def random_fibers(rng: random.Random, m: int, lo: int, hi: int) -> list:
    out = []
    for _ in range(m):
        a = rng.randint(lo, hi)
        out.append((a, coprime_beta(rng, a)))
    return out


def chain_crossings(fibers, euler: int) -> int:
    """Crossing count of the default chain plan over the sphere.

    Used only to stratify the build inputs by size; the measured count is
    reported separately.  Slopes alternate in sign along the chain, are
    positive on the outer disk, and the floor-sum deficit is spread over
    the slots of the needed sign, later slots taking the larger share.
    """
    m = len(fibers)
    r = max(m, 3)
    alphas = [a for a, _ in fibers] + [1] * (r - m)
    plus = [i % 2 == 0 for i in range(r - 1)] + [True]
    reps = []
    for i in range(r):
        base = fibers[i][1] if i < m else 1
        reps.append(base if plus[i] else (base - alphas[i]) or -alphas[i])
    deficit = -euler - sum(b // a for b, a in zip(reps, alphas))
    if deficit:
        slots = [i for i in range(r) if plus[i] == (deficit > 0)]
        q, rem = divmod(deficit, len(slots))
        for k, i in enumerate(slots):
            reps[i] += (q + 1 if k < rem else q) * alphas[i]
    mags = [abs(b) for b in reps]
    return (alphas[-1] * sum(mags[:r - 1]) + alphas[0] * mags[-1]
            + sum(alphas[q] + alphas[q + 1] for q in range(r - 2)))


def _stratified(rng: random.Random, n: int) -> list[float]:
    """``n`` uniforms in ``[0, 1)``, one per stratum, shuffled."""
    out = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(out)
    return out


def build_spaces(seed: int, n: int, m_range, alpha_range, target_range,
                 per_fiber: bool, candidates: int) -> list[dict]:
    """Sphere-base spaces whose crossing counts cover one smooth range.

    Each op draws a target from ``target_range``, one stratum per op, and
    keeps the one of ``candidates`` random spaces whose crossing count is
    nearest to it.  With ``per_fiber`` the fiber counts are spread evenly
    over ``m_range`` and the target is crossings per fiber; otherwise each
    candidate draws its own fiber count and the target is the total.
    Every seed thus draws the same spread of sizes, largest op included.
    """
    rng = random.Random(seed)
    m_lo, m_hi = m_range
    t_lo, t_hi = target_range
    ms = [m_lo + (i * (m_hi - m_lo + 1)) // n for i in range(n)]
    rng.shuffle(ms)
    out = []
    for m_op, u in zip(ms, _stratified(rng, n)):
        target = t_lo + (t_hi - t_lo) * u
        best = None
        for _ in range(candidates):
            m = m_op if per_fiber else rng.randint(m_lo, m_hi)
            fibers = random_fibers(rng, m, *alpha_range)
            euler = rng.randint(-2, 3)
            d = chain_crossings(fibers, euler)
            miss = abs((d / m if per_fiber else d) - target)
            if best is None or miss < best[0]:
                best = (miss, fibers, euler)
        out.append(normalized(0, best[1], best[2]))
    return out


# ---------------------------------------------------------------- query spaces

CASES = ("SmallLens_extension", "Generic_g0", "ThmA1", "ThmB_family",
         "Generic_gpos", "ThmA2", "ThmA3")


def case_space(rng: random.Random, case: str) -> dict:
    """A normalized space that ``genus_report`` must tag with ``case``."""
    if case == "SmallLens_extension":
        return normalized(0, random_fibers(rng, rng.randint(0, 2), 2, 12), rng.randint(-3, 3))
    if case == "Generic_g0":
        # alpha >= 5 keeps it out of every horizontal family
        return normalized(0, random_fibers(rng, rng.randint(3, 6), 5, 12), rng.randint(-3, 3))
    if case == "ThmA1":
        m = rng.choice((4, 6))
        k = rng.randint(1, 4)
        fibers = [(2, 1)] * (m - 1) + [(2 * k + 1, k)]
        rng.shuffle(fibers)
        return normalized(0, fibers, m // 2)
    if case == "ThmB_family":
        fixed, coeff = rng.choice((([(2, 1), (3, 1)], 6), ([(2, 1), (4, 1)], 4),
                                   ([(3, 1), (3, 1)], 3)))
        k = rng.randint(1, 5)
        fibers = fixed + [(coeff * k + rng.choice((1, -1)), k)]
        rng.shuffle(fibers)
        return normalized(0, fibers, 1)
    g = rng.randint(1, 3)
    if case == "Generic_gpos":
        return normalized(g, random_fibers(rng, rng.randint(3, 6), 2, 12), rng.randint(-3, 3))
    if case == "ThmA2":
        shape = rng.randrange(3)
        if shape == 0:
            return normalized(g, [], rng.choice((1, -1)))
        a = rng.randint(2, 12)
        return normalized(g, [(a, 1)], 0) if shape == 1 else normalized(g, [(a, a - 1)], 1)
    # ThmA3: no fiber with |e| >= 2, one fiber off the 1.2 shapes, or two fibers
    shape = rng.randrange(3)
    if shape == 0:
        return normalized(g, [], rng.choice((-3, -2, 0, 2, 3)))
    if shape == 1:
        a = rng.choice((5, 7, 8, 9, 10, 11, 12))  # each has a residue off 1 and a-1
        b = coprime_beta(rng, a)
        while b in (1, a - 1):
            b = coprime_beta(rng, a)
        return normalized(g, [(a, b)], rng.randint(-3, 3))
    return normalized(g, random_fibers(rng, 2, 2, 12), rng.randint(-3, 3))


def denormalized(rng: random.Random, doc: dict) -> dict:
    """Non-normalized coordinates of a normalized space.

    Numerators move by random multiples of alpha; one ``alpha = 1`` slot
    carries the Euler number, and sometimes a second, empty one is added.
    """
    fibers = []
    shift = 0
    for f in doc["fibers"]:
        k = rng.randint(-2, 2)
        fibers.append((f["alpha"], f["beta"] + k * f["alpha"]))
        shift += k
    fibers.append((1, -doc["euler"] - shift))
    if rng.random() < 0.5:
        fibers.append((1, 0))
    rng.shuffle(fibers)
    return {"base_genus": doc["base_genus"], "mode": "non_normalized",
            "fibers": [{"alpha": a, "beta": b} for a, b in fibers]}


def sign_pattern(rng: random.Random, length: int) -> list[str]:
    """A ``denormalize`` pattern with at least one free slot."""
    out = [rng.choice(("+", "-", "free")) for _ in range(length)]
    out[rng.randrange(length)] = "free"
    return out


def beta_star_case(rng: random.Random) -> tuple[list, int]:
    pairs = []
    for _ in range(rng.randint(2, 4)):
        a = rng.randint(1, 15)
        b = rng.randint(-20, 20)
        while gcd(a, b) != 1:
            b = rng.randint(-20, 20)
        pairs.append([a, b])
    return pairs, rng.randrange(3, 46, 2)


def presentation(rng: random.Random) -> dict:
    n = rng.randint(1, 4)
    relators = [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 6))]
                for _ in range(rng.randint(1, 4))]
    return {"generators": n, "relators": relators}


def permutation_pair(rng: random.Random, lo: int, hi: int) -> dict:
    """Successor permutations on ``1..d`` whose orbits join every crossing."""
    while True:
        d = rng.randint(lo, hi)
        sx = list(range(1, d + 1))
        sy = list(range(1, d + 1))
        rng.shuffle(sx)
        rng.shuffle(sy)
        if _transitive(sx, sy):
            return {"degree": d, "sigma_x": sx, "sigma_y": sy}


def _transitive(sx, sy) -> bool:
    seen = {1}
    todo = [1]
    while todo:
        c = todo.pop()
        for nxt in (sx[c - 1], sy[c - 1]):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return len(seen) == len(sx)


def pair_diagram(rng: random.Random, pair: dict, negative_share: float) -> dict:
    """Diagram JSON whose curves are the cycles of a permutation pair.

    ``genus`` is a placeholder; callers that need the forced genus get it
    from the checkers' face count.
    """
    signs = {str(c): (-1 if rng.random() < negative_share else 1)
             for c in range(1, pair["degree"] + 1)}
    return {"genus": 0, "x_curves": cycles(pair["sigma_x"]),
            "y_curves": cycles(pair["sigma_y"]), "signs": signs}


# ---------------------------------------------------------------- workloads

def build_deep(seed: int) -> list[dict]:
    """3-6 fibers, alpha 30-60; crossing counts uniform over 3,000-16,000."""
    return build_spaces(seed, 100, (3, 6), (30, 60), (3000, 16000), False, 128)


def build_wide(seed: int) -> list[dict]:
    """100-140 fibers, alpha 2-7; 18-38 crossings per fiber."""
    return build_spaces(seed, 100, (100, 140), (2, 7), (18, 38), True, 24)


QUERY_KINDS = ("from_json", "normalize", "homology", "genus_report", "cover",
               "beta_star", "positivize", "montesinos", "rotation_genus")
QUERY_BUNDLES = 120


def queries(seed: int) -> list[dict]:
    """Bundles holding one input per query kind.

    One op runs a whole bundle, so every op costs about the same and the
    percentiles do not fall between kinds of different cost.  Spaces
    cycle through the genus-report cases, so every case tag fires.
    """
    rng = random.Random(seed)
    cover_cases = ("Generic_gpos", "ThmA2", "ThmA3")
    # the two diagram kinds cost most; stratify their sizes like the builds
    small = build_spaces(rng.getrandbits(32), QUERY_BUNDLES, (3, 4), (2, 5), (25, 100), False, 16)
    degrees = [10 + int(51 * u) for u in _stratified(rng, QUERY_BUNDLES)]
    out = []
    for i in range(QUERY_BUNDLES):
        case = CASES[i % len(CASES)]
        bundle = {}
        for kind in ("from_json", "homology", "genus_report"):
            space = case_space(rng, case)
            if rng.random() < 0.5:
                space = denormalized(rng, space)
            bundle[kind] = {"space": space, "case": case}
        space = case_space(rng, case)
        bundle["normalize"] = {"space": denormalized(rng, space),
                               "pattern": sign_pattern(rng, max(len(space["fibers"]), 1))}
        space = case_space(rng, cover_cases[i % 3])
        space["fibers"] = space["fibers"][:3]
        bundle["cover"] = {"space": space}
        pairs, lam = beta_star_case(rng)
        bundle["beta_star"] = {"pairs": pairs, "lambda": lam}
        bundle["positivize"] = {"presentation": presentation(rng)}
        bundle["montesinos"] = {"space": small[i]}
        pair = permutation_pair(rng, degrees[i], degrees[i])
        bundle["rotation_genus"] = {"diagram": pair_diagram(rng, pair, 0.3)}
        out.append(bundle)
    return out


CLI_PER_VERB = 9
# signs given as a list: documented as malformed input (exit 2), but the
# program raises AttributeError instead; kept as the one known failure
KNOWN_FAILURE = {"verb": "diagram-verify",
                 "payload": {"genus": 1, "x_curves": [[1]], "y_curves": [[1]], "signs": [1]},
                 "expect": "error", "code": 2, "error": None}


def cli(seed: int) -> list[dict]:
    """CLI requests: ``verb``, ``payload`` (JSON value or raw text) and
    the expectation (``ok`` with a verb-specific check, or ``error`` with
    the documented exit code and error name)."""
    rng = random.Random(seed)
    out = []
    for i in range(CLI_PER_VERB):
        case = CASES[i % len(CASES)]
        space = case_space(rng, case)
        out.append({"verb": "normalize", "payload": denormalized(rng, space)})
        out.append({"verb": "homology", "payload": denormalized(rng, case_space(rng, case))})
        out.append({"verb": "genus", "payload": case_space(rng, case), "case": case})
        small = normalized(0, random_fibers(rng, rng.randint(3, 4), 2, 5), rng.randint(-1, 2))
        out.append({"verb": "diagram-build", "payload": small})
        pair = permutation_pair(rng, 6, 30)
        out.append({"verb": "diagram-verify", "payload": pair_diagram(rng, pair, 0.3)})
        positive = pair_diagram(rng, permutation_pair(rng, 6, 30), 0.0)
        out.append({"verb": "diagram-encode", "payload": positive})
        out.append({"verb": "diagram-decode", "payload": permutation_pair(rng, 6, 30)})
        cover_space = case_space(rng, ("Generic_gpos", "ThmA2", "ThmA3")[i % 3])
        cover_space["fibers"] = cover_space["fibers"][:3]
        out.append({"verb": "cover-base", "payload": cover_space})
        lam = rng.randrange(3, 12, 2)
        base = []
        for _ in range(3):
            a = rng.randint(1, 4)
            b = rng.randint(-9, 9)
            while gcd(b, lam * a) != 1:
                b = rng.randint(-9, 9)
            base.append({"alpha": lam * a, "beta": b})
        out.append({"verb": "cover-lift", "payload": {
            "seifert": {"base_genus": 0, "mode": "non_normalized", "fibers": base},
            "cover": {"lambda": lam, "partitions": [[lam]] * 3}}})
        pairs, lam = beta_star_case(rng)
        out.append({"verb": "betastar", "payload": {"pairs": pairs, "lambda": lam}})
        out.append({"verb": "positivize", "payload": presentation(rng)})
    for _ in range(2):
        doc = case_space(rng, "Generic_g0")
        text = json.dumps(doc)
        out.append({"verb": "normalize", "payload": text[:rng.randint(1, len(text) - 1)],
                    "expect": "error", "code": 2, "error": "JSONDecodeError"})
        del doc["fibers"]
        out.append({"verb": "homology", "payload": doc,
                    "expect": "error", "code": 2, "error": "KeyError"})
        a = 2 * rng.randint(2, 6)
        bad = normalized(0, [(a, 2)] + random_fibers(rng, 2, 3, 9), 1)
        out.append({"verb": "genus", "payload": bad,
                    "expect": "error", "code": 3, "error": "InvalidInvariant"})
        out.append({"verb": "diagram-build", "payload": case_space(rng, "Generic_gpos"),
                    "expect": "error", "code": 3, "error": "BaseGenusUnsupported"})
    out.append(dict(KNOWN_FAILURE))
    rng.shuffle(out)
    return out
