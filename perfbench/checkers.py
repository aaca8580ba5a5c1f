"""Independent output checks for the benchmark.

Nothing here calls into ``sfsdiag`` or compares against stored output.
Every check recomputes what the answer must be from plain data (lists,
dicts, ints and ``fractions.Fraction``) and raises :class:`CheckFailed`
when the program's output disagrees.

* ``surface`` traces the faces of the rotation system the crossing signs
  force, as orbits of a permutation on ``4d`` integer darts, and counts
  the components of the curve union.
* ``homology_order`` gives ``|prod(alpha) * e_Q|`` from fractions;
  ``det_rank`` gives determinant and rank of a small integer matrix by
  fraction elimination; ``smith`` gives Smith data from determinantal
  divisors.
* ``check_*`` functions hold the build, query and CLI checks.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import gcd


class CheckFailed(Exception):
    """An output disagrees with the independently computed answer."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------- surfaces

# dart slots at a crossing: X-out, Y-out, X-in, Y-in
XO, YO, XI, YI = 0, 1, 2, 3
# counterclockwise successor slot at a +1 and at a -1 crossing
_CCW_POS = (YO, XI, YI, XO)
_CCW_NEG = (YI, XO, YO, XI)


def surface(x_curves, y_curves, signs) -> tuple[int, int]:
    """``(components, faces)`` of the graph X u Y with the forced rotation.

    ``signs`` maps crossing id to +1 or -1.  Darts are ``4*rank + slot``;
    a face step crosses the edge leaving a dart and then turns to the next
    slot counterclockwise at the far crossing.
    """
    ids = sorted(signs)
    rank = {c: i for i, c in enumerate(ids)}
    d = len(ids)
    mate = [0] * (4 * d)
    parent = list(range(d))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for curves, out_slot, in_slot in ((x_curves, XO, XI), (y_curves, YO, YI)):
        for curve in curves:
            k = len(curve)
            for i in range(k):
                a, b = rank[curve[i]], rank[curve[(i + 1) % k]]
                mate[4 * a + out_slot] = 4 * b + in_slot
                mate[4 * b + in_slot] = 4 * a + out_slot
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
    ccw = [_CCW_POS if signs[c] == 1 else _CCW_NEG for c in ids]
    seen = bytearray(4 * d)
    faces = 0
    for start in range(4 * d):
        if seen[start]:
            continue
        faces += 1
        dart = start
        while not seen[dart]:
            seen[dart] = 1
            far = mate[dart]
            dart = 4 * (far >> 2) + ccw[far >> 2][far & 3]
    components = len({find(a) for a in range(d)})
    return components, faces


def genus_from_faces(crossings: int, faces: int, components: int) -> int:
    """Total genus of the closed surfaces, one per component."""
    chi = crossings - 2 * crossings + faces
    require((2 * components - chi) % 2 == 0, f"odd Euler characteristic {chi}")
    return (2 * components - chi) // 2


def exponent_matrix(x_curves, y_curves, signs) -> list[list[int]]:
    """Signed intersection counts: one row per Y curve, one column per X curve."""
    x_of = {}
    for idx, curve in enumerate(x_curves):
        for c in curve:
            x_of[c] = idx
    rows = []
    for curve in y_curves:
        row = [0] * len(x_curves)
        for c in curve:
            row[x_of[c]] += signs[c]
        rows.append(row)
    return rows


# ---------------------------------------------------------------- algebra

def det_rank(rows) -> tuple[int, int]:
    """Determinant (0 unless square and full rank) and rank, by fractions.

    Rows are kept sparse and each column pivots on the row with the fewest
    entries, so the built diagrams' matrices (one dense row over a band)
    eliminate in about linear time and memory.
    """
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    live = {i: {j: Fraction(v) for j, v in enumerate(row) if v} for i, row in enumerate(rows)}
    det = Fraction(1)
    rank = 0
    for col in range(n_cols):
        holders = [i for i, row in live.items() if col in row]
        if not holders:
            continue
        pivot = min(holders, key=lambda i: (len(live[i]), i))
        prow = live.pop(pivot)
        p = prow[col]
        # sign of moving the pivot row up to position ``rank``
        if sum(1 for i in live if i < pivot) % 2:
            det = -det
        det *= p
        rank += 1
        for i in holders:
            if i == pivot:
                continue
            row = live[i]
            f = row[col] / p
            for j, v in prow.items():
                w = row.get(j, 0) - f * v
                if w:
                    row[j] = w
                else:
                    row.pop(j, None)
    if rank != n_rows or n_rows != n_cols:
        det = Fraction(0)
    require(det.denominator == 1, "non-integral determinant")
    return int(det), rank


def _det_int(rows) -> int:
    return det_rank(rows)[0] if rows else 1


def smith(rows, n_cols: int) -> tuple[tuple[int, ...], int]:
    """``(torsion, free_rank)`` from gcds of k-minors; small matrices only."""
    divisors = [1]
    for k in range(1, min(len(rows), n_cols) + 1):
        g = 0
        for rsel in combinations(range(len(rows)), k):
            for csel in combinations(range(n_cols), k):
                g = gcd(g, _det_int([[rows[i][j] for j in csel] for i in rsel]))
        if g == 0:
            break
        divisors.append(g)
    factors = [divisors[i] // divisors[i - 1] for i in range(1, len(divisors))]
    return tuple(f for f in factors if f > 1), n_cols - len(factors)


def rational_euler(fibers, euler) -> Fraction:
    """``e - sum(beta/alpha)`` of normalized data."""
    return euler - sum((Fraction(b, a) for a, b in fibers), Fraction(0))


def homology_order(fibers, euler) -> tuple[int, bool]:
    """``(|prod(alpha) * e_Q|, e_Q == 0)`` of normalized data."""
    e_q = rational_euler(fibers, euler)
    prod = 1
    for a, _ in fibers:
        prod *= a
    value = prod * e_q
    require(value.denominator == 1, "prod(alpha) * e_Q is not an integer")
    return abs(int(value)), e_q == 0


# ---------------------------------------------------------------- Seifert data

def own_normalize(doc: dict) -> dict:
    """Normalized JSON of a Seifert JSON document, computed from scratch."""
    if doc["mode"] == "normalized":
        return doc
    fibers = []
    euler = 0
    for f in doc["fibers"]:
        a, b = f["alpha"], f["beta"]
        euler -= b // a
        if a > 1:
            fibers.append({"alpha": a, "beta": b % a})
    return {"base_genus": doc["base_genus"], "mode": "normalized",
            "fibers": fibers, "euler": euler}


def own_lift(doc: dict, lam: int, partitions) -> dict:
    """Lift of non-normalized data through a base cover, from the formula."""
    r = len(doc["fibers"])
    circles = sum(len(p) for p in partitions)
    genus = lam * (doc["base_genus"] - 1) + 1 + (r * lam - circles) // 2
    fibers = [{"alpha": f["alpha"] // b, "beta": f["beta"]}
              for f, part in zip(doc["fibers"], partitions) for b in part]
    return {"base_genus": genus, "mode": "non_normalized", "fibers": fibers}


def _pairs(doc: dict):
    return [(f["alpha"], f["beta"]) for f in doc["fibers"]]


def check_normalized(got: dict, source: dict) -> None:
    want = own_normalize(source)
    require(got == want, f"normalize gave {got}, expected {want}")
    for f in got["fibers"]:
        require(f["alpha"] > 1 and 0 < f["beta"] < f["alpha"], f"fiber {f} out of range")


def check_homology(factors, free_rank: int, doc: dict) -> None:
    n = own_normalize(doc)
    order, flat = homology_order(_pairs(n), n["euler"])
    g = n["base_genus"]
    require(free_rank == 2 * g + (1 if flat else 0),
            f"free rank {free_rank}, expected {2 * g + (1 if flat else 0)}")
    require(all(v > 0 for v in factors), "non-positive invariant factor")
    require(all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1)),
            "invariant factors do not form a divisibility chain")
    if not flat:
        prod = 1
        for v in factors:
            prod *= v
        require(prod == order, f"torsion order {prod}, expected {order}")


def check_genus(report: dict, expected_case: str) -> None:
    lo, hi = report["phg"]
    require(report["hg"] <= lo <= hi, f"genus bounds out of order: {report}")
    require(report["exact"] == (lo == hi), f"exact flag disagrees: {report}")
    require(report["case"] == expected_case,
            f"case {report['case']}, expected {expected_case}")


def check_beta_star(stars, pairs, lam: int) -> None:
    require(len(stars) == len(pairs), "beta_star length changed")
    for (a, b), s in zip(pairs, stars):
        require((s - b) % a == 0, f"beta* {s} not congruent to {b} mod {a}")
        require(gcd(s, lam) == 1, f"beta* {s} shares a factor with {lam}")
    before = sum(b // a for a, b in pairs)
    after = sum(s // a for (a, _), s in zip(pairs, stars))
    require(before == after, f"floor sum moved from {before} to {after}")


def check_cover_round_trip(base: dict, lam: int, lifted: dict, source: dict) -> None:
    require(base["base_genus"] == 0 and len(base["fibers"]) == 3,
            "base orbifold is not a sphere with three slots")
    require(lam == 2 * source["base_genus"] + 1, f"sheet count {lam}")
    require(all(f["alpha"] % lam == 0 for f in base["fibers"]),
            "base alphas are not multiples of the sheet count")
    want = own_lift(base, lam, [[lam]] * 3)
    require(own_normalize(lifted) == own_normalize(want), "lift disagrees with the formula")
    require(own_normalize(lifted) == own_normalize(source), "lift does not recover the space")


# ---------------------------------------------------------------- presentations

def exponent_sums(relators, n_generators: int) -> list[list[int]]:
    rows = []
    for word in relators:
        row = [0] * n_generators
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    return rows


def check_positivize(out: dict, source: dict, program_group=None) -> None:
    """``program_group``, when given, is the program's ``(torsion, free_rank)``
    for ``out``."""
    require(all(v > 0 for word in out["relators"] for v in word), "negative letter")
    require(out["generators"] == source["generators"] + 1, "generator count")
    require(len(out["relators"]) == len(source["relators"]) + 1, "relator count")
    want = smith(exponent_sums(source["relators"], source["generators"]),
                 source["generators"])
    got = smith(exponent_sums(out["relators"], out["generators"]), out["generators"])
    require(got == want, f"abelianization changed from {want} to {got}")
    if program_group is not None:
        require(tuple(program_group) == want, f"program abelianization {program_group}")


# ---------------------------------------------------------------- diagrams

def _signs_of(doc: dict) -> dict:
    return {int(k): v for k, v in doc["signs"].items()}


def check_diagram_surface(doc: dict, genus: int) -> None:
    """The forced rotation genus of a connected diagram equals ``genus``."""
    signs = _signs_of(doc)
    comps, faces = surface(doc["x_curves"], doc["y_curves"], signs)
    require(comps == 1, f"curve union has {comps} components")
    got = genus_from_faces(len(signs), faces, 1)
    require(got == genus, f"face count gives genus {got}, expected {genus}")


def check_build(doc: dict, space: dict) -> None:
    """Checks on a built diagram of the sphere-base space ``space``."""
    n = own_normalize(space)
    genus = max(len(n["fibers"]), 3) - 1
    signs = _signs_of(doc)
    require(all(v == 1 for v in signs.values()), "negative crossing")
    xs = [c for curve in doc["x_curves"] for c in curve]
    ys = [c for curve in doc["y_curves"] for c in curve]
    require(len(xs) == len(set(xs)) == len(signs) and set(xs) == set(signs),
            "a crossing is not on exactly one X curve")
    require(len(ys) == len(set(ys)) == len(signs) and set(ys) == set(signs),
            "a crossing is not on exactly one Y curve")
    require(len(doc["x_curves"]) == genus and len(doc["y_curves"]) == genus
            and doc["genus"] == genus, "curve counts disagree with the genus")
    check_diagram_surface(doc, genus)
    det, rank = det_rank(exponent_matrix(doc["x_curves"], doc["y_curves"], signs))
    order, flat = homology_order(_pairs(n), n["euler"])
    if flat:
        require(rank == genus - 1, f"free rank {genus - rank}, expected 1")
    else:
        require(abs(det) == order, f"diagram homology order {abs(det)}, expected {order}")


def successor_pair(doc: dict) -> tuple[list[int], list[int]]:
    """Along-X and along-Y successor permutations on ranked crossings 1..d."""
    ids = sorted(_signs_of(doc))
    rank = {c: i + 1 for i, c in enumerate(ids)}
    out = []
    for curves in (doc["x_curves"], doc["y_curves"]):
        sigma = [0] * len(ids)
        for curve in curves:
            for i, c in enumerate(curve):
                sigma[rank[c] - 1] = rank[curve[(i + 1) % len(curve)]]
        out.append(sigma)
    return out[0], out[1]


def cycles(sigma) -> list[list[int]]:
    """Cycles of a permutation of 1..d, each from its smallest element."""
    seen = set()
    out = []
    for start in range(1, len(sigma) + 1):
        if start not in seen:
            cycle = [start]
            seen.add(start)
            c = sigma[start - 1]
            while c != start:
                cycle.append(c)
                seen.add(c)
                c = sigma[c - 1]
            out.append(cycle)
    return out


def check_encode(pair: dict, doc: dict) -> None:
    sx, sy = successor_pair(doc)
    require(pair["degree"] == len(sx), "degree")
    require(list(pair["sigma_x"]) == sx and list(pair["sigma_y"]) == sy,
            "encoding disagrees with the curve successors")


def check_decode(out: dict, pair: dict) -> None:
    """Curves are the cycles, signs +1, genus the face-count genus."""
    want_x, want_y = cycles(pair["sigma_x"]), cycles(pair["sigma_y"])
    require(sorted(out["x_curves"]) == want_x and sorted(out["y_curves"]) == want_y,
            "decoded curves are not the permutation cycles")
    signs = _signs_of(out)
    require(sorted(signs) == list(range(1, pair["degree"] + 1)), "decoded crossing ids")
    require(all(v == 1 for v in signs.values()), "decoded diagram is not positive")
    comps, faces = surface(out["x_curves"], out["y_curves"], signs)
    want = genus_from_faces(len(signs), faces, comps) if signs else 0
    require(out["genus"] == want, f"decoded genus {out['genus']}, expected {want}")


def check_round_trip(decoded: dict, doc: dict) -> None:
    """decode(encode(doc)) has the curves of ``doc`` up to the id ranking."""
    ids = sorted(_signs_of(doc))
    rank = {c: i + 1 for i, c in enumerate(ids)}

    def canon(curves):
        out = []
        for curve in curves:
            ranked = [rank[c] for c in curve]
            k = ranked.index(min(ranked))
            out.append(ranked[k:] + ranked[:k])
        return sorted(out)

    require(sorted(decoded["x_curves"]) == canon(doc["x_curves"])
            and sorted(decoded["y_curves"]) == canon(doc["y_curves"]),
            "decode(encode(d)) changed the curves")


# ---------------------------------------------------------------- CLI

def check_cli_error(code: int, stdout: bytes, stderr: bytes, want_code: int,
                    want_name: str | None) -> None:
    text = stderr.decode("utf-8", "replace")
    require("Traceback" not in text, "traceback on stderr")
    require(code == want_code, f"exit {code}, expected {want_code}")
    require(not stdout, "output written on an error")
    if want_name is not None:
        require(text.startswith(want_name + ":"), f"stderr {text[:60]!r}")


def parse_cli_output(code: int, stdout: bytes, stderr: bytes):
    text = stderr.decode("utf-8", "replace")
    require("Traceback" not in text, "traceback on stderr")
    require(code == 0, f"exit {code}: {text[:80]!r}")
    require(stdout.endswith(b"\n") and stdout.count(b"\n") == 1,
            "output is not one JSON line")
    return json.loads(stdout)
