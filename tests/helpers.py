"""Shared independent oracles for the test suite.

These deliberately avoid the library's own algorithms: determinants use
Bareiss elimination, Smith data is recomputed from gcds of k-minors or
by dense elimination with a global pivot rescan (the filling relations
of a space are built in full, one row per fiber, or reduced per fiber kind
for the sparse elimination), the rational Euler number is summed in
``Fraction``s, congruences are checked by exhaustive scan, and forced
rotation genera are traced over ``(crossing, slot)`` darts with dict
successor maps and a union-find over the crossings, and the faces of a
signed crossing index are also walked on its X-darts with no trivial
handles; the crossing index itself is rebuilt by pairing each rank with
its successor and counting the letters of every Y curve, the longest
too, and a permutation's cycles are found by testing every start in turn;
chain diagrams are assembled through per-family id dicts,
with each torus curve's strand order found by walking its switch, and
that order is also kept as the tagged strand rotation.  The
ascending chain join that inserts each last gcd at the bottom and the
descending one that walks the chain run by run, the
case-by-case slot representatives of ``denormalize``, the hand-written
three slots of ``base_orbifold_cover``, the per-count branches of the
``beta_star`` shift, its pairwise stitch of the per-prime answers and the
table of tied-family statuses stay here to compare against, and so do the
Seifert producers that build a fresh ``FiberInvariant`` for every fiber
(``from_json_per_fiber``, ``lift_seifert_per_fiber``) where the library
builds one per distinct slope.
``positivize_by_handles`` trades each -1 crossing of a diagram for the
paper's trivial handle on its curves, where the library rewrites successor
lists.
``hom_count`` counts homomorphisms of a presented group into a finite
permutation group (``S3``) by brute force over the generator images, a
homotopy invariant that abelianization cannot see.
``VERB_PAYLOADS`` holds one valid request per CLI verb, and ``SRC`` the
source tree for tests that start a fresh interpreter.
"""

import os
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import combinations, count, groupby, permutations
from math import gcd
from operator import mul, neg

from sfsdiag import covers
from sfsdiag.covers import beta_star
from sfsdiag.diagram import Diagram, _CrossingIndex
from sfsdiag.errors import BaseGenusUnsupported, InfeasibleBetaStar, TooManyFibers, UnsatisfiablePattern, want
from sfsdiag.exactalg import IntMatrix, SnfResult, _snf, crt, floor_sum
from sfsdiag.seifert import FiberInvariant, SeifertData, normalize


def build_diagram(declared_genus, x_curves, y_curves, signs) -> Diagram:
    """A :class:`Diagram` from curve lists and a crossing -> sign mapping."""
    return Diagram(
        declared_genus,
        tuple(tuple(c) for c in x_curves),
        tuple(tuple(c) for c in y_curves),
        tuple(sorted((int(k), int(v)) for k, v in signs.items())),
    )


def det(rows):
    """Exact determinant by Bareiss fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def smith_via_minors(rows, ncols):
    """Invariant factors and free rank from determinantal divisors.

    The k-th divisor is the gcd of all k-by-k minors; factor k is the
    ratio of consecutive divisors.  Exponential in the matrix size, so
    only for small test matrices.
    """
    nrows = len(rows)
    divisors = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rsel in combinations(range(nrows), k):
            for csel in combinations(range(ncols), k):
                minor = det([[rows[i][j] for j in csel] for i in rsel])
                g = gcd(g, minor)
        if g == 0:
            break
        divisors.append(g)
    factors = tuple(divisors[i] // divisors[i - 1] for i in range(1, len(divisors)))
    return factors, ncols - len(factors)


def dense_snf(m: IntMatrix) -> SnfResult:
    """Smith normal form data of an integer matrix.

    Diagonalizes by elementary row and column operations, then normalizes
    the diagonal with pairwise gcd/lcm exchanges so the factors form the
    canonical divisibility chain.  Deterministic for fixed input.
    """
    a = [list(row) for row in m.entries]
    nr, nc = m.rows, m.cols

    def smallest(t):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(nr, nc):
        best = smallest(t)
        if best is None:
            break
        while True:
            bi, bj = best
            if bi != t:
                a[t], a[bi] = a[bi], a[t]
            if bj != t:
                for row in a:
                    row[t], row[bj] = row[bj], row[t]
            p = a[t][t]
            # Euclid passes: leave remainders in place, then restart from
            # the smallest survivor; keeps entry growth tame
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // p
                    if q:
                        for j in range(t, nc):
                            a[i][j] -= q * a[t][j]
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // p
                    if q:
                        for i in range(t, nr):
                            a[i][j] -= q * a[i][t]
                    if a[t][j] != 0:
                        dirty = True
            if not dirty:
                break
            best = smallest(t)
        t += 1
    diag = [abs(a[i][i]) for i in range(min(nr, nc)) if a[i][i] != 0]
    # pairwise (gcd, lcm) exchanges yield the true invariant factors from
    # any diagonal form
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i] != 0:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] // g * diag[j]
                    changed = True
    diag.sort()
    return SnfResult(tuple(diag), m.cols - len(diag))


def relation_matrix(s: SeifertData) -> IntMatrix:
    """Rows ``alpha_i x_i + beta_i t`` and ``x_1 + ... + x_m + e t`` over
    ``a_*, b_*, x_*, t``: the full filling-relation matrix of normalized
    ``s``, one row and one column per fiber, whose Smith form ``homology``
    reads off in closed form."""
    g, m = s.base_genus, len(s.fibers)
    rows = []
    for i, f in enumerate(s.fibers):
        rows.append([0] * (2 * g + i) + [f.alpha] + [0] * (m - 1 - i) + [f.beta])
    rows.append([0] * (2 * g) + [1] * m + [s.euler])
    return IntMatrix(2 * g + m + 1, tuple(map(tuple, rows)))


def join_ascending(chain: list[int], d: int) -> None:
    """Join the factor ``d >= 1`` to the ascending divisibility ``chain`` in place: gcd/lcm
    exchanges from the top, one ``bisect_left`` past each run of equal factors, until a 1
    passes down; the last gcd is inserted at the bottom, which shifts the whole list."""
    i = len(chain)
    while d != 1 and i:
        g = gcd(x := chain[i - 1], d)
        chain[i - 1], d = x // g * d, g
        i = bisect_left(chain, x, 0, i - 1)
    chain.insert(0, d)


def join_by_runs(chain: list[int], d: int) -> None:
    """Join the factor ``d >= 1`` to the descending divisibility ``chain`` in place: gcd/lcm
    exchanges from the largest, one ``bisect_right`` past each run of equal factors (they pass
    the gcd on unchanged), until a 1 passes down; the last gcd is appended, shifting nothing."""
    i = 0
    while d != 1 and i < len(chain):
        g = gcd(x := chain[i], d)
        chain[i], d = x // g * d, g
        i = bisect_right(chain, -x, i + 1, key=neg)
    chain.append(d)


def homology_by_elimination(s: SeifertData) -> SnfResult:
    """First homology of ``s`` by eliminating its filling relations per fiber kind.

    ``k`` equal fibers ``(alpha, beta)`` on ``x_1..x_k`` reduce, by ``y_j = x_j - x_1``,
    row ``j`` minus row 1 and ``z = y_2 + ... + y_k``, to the row ``alpha x_1 + beta t``,
    for ``k >= 2`` a row ``alpha z`` with ``k x_1 + z`` in the sum row, and ``k - 2``
    summands ``Z/alpha`` joined after: at most ``2 kinds + 1`` rows, in ``(alpha, beta)``
    order, for the sparse Smith elimination; the ``2g`` base columns are free.
    """
    n = normalize(s)
    kinds = sorted(Counter((f.alpha, f.beta) for f in n.fibers).items())
    rows, total = [], {}  # column 0 is t
    for (alpha, beta), k in kinds:
        total[x := len(total) + 1] = k
        rows.append({x: alpha, 0: beta})
        if k > 1:
            total[x + 1] = 1
            rows.append({x + 1: alpha})
    rows.append({**total, 0: n.euler} if n.euler else total)
    r = _snf(rows, len(total) + 1)
    chain = list(r.invariant_factors)
    for (alpha, _), k in kinds:
        for _ in range(k - 2):
            join_ascending(chain, alpha)
    return SnfResult(tuple(chain), r.free_rank + 2 * n.base_genus)


def rational_euler_by_fractions(s: SeifertData) -> Fraction:
    """``e - sum(beta_i/alpha_i)`` summed in ``Fraction``s (``e`` is 0 when not normalized)."""
    return (s.euler or 0) - sum((Fraction(f.beta, f.alpha) for f in s.fibers), Fraction(0))


def least_positive_residue(b: int, a: int) -> int:
    """The unique integer in ``[1, a]`` congruent to ``b`` modulo ``a >= 1``.

    When ``a > 1`` and ``gcd(b, a) = 1`` the result lands in ``(0, a)``; the
    value ``a`` itself only appears for ``a = 1`` or non-coprime inputs.
    """
    if a < 1:
        raise ValueError(f"modulus must be >= 1, got {a}")
    r = b % a
    return a if r == 0 else r


def intersection_matrix(dg: Diagram) -> IntMatrix:
    """Algebraic intersection matrix: entry ``(j, i)`` sums the signs of
    the crossings of Y curve ``j`` with X curve ``i``, read off the rows
    the crossing index keeps by generator ``i + 1``."""
    gx = len(dg.x_curves)
    return IntMatrix(gx, tuple(tuple(row.get(i, 0) for i in range(1, gx + 1)) for row in dg._index.matrix))


def crossing_index_by_zip(genus, x_curves, y_curves, signs):
    """The crossing index of ``sfsdiag.diagram._crossing_index`` slot by slot, None on the same
    defects: each rank paired with its successor by ``zip(rs, rs[1:] + rs[:1])``, every sign
    read from the pairs (a ``SignRun``'s too), every Y curve's letters counted into a
    ``Counter`` and folded to its exponent sums, the longest curve's too, and the component
    count from a union-find over the raw letters of every Y curve."""
    d = len(signs)
    if genus < 0 or not x_curves or not y_curves or sum(map(len, x_curves)) != d or sum(map(len, y_curves)) != d:
        return None
    ids = [c for curve in (*x_curves, *y_curves) for c in curve] + [c for c, _ in signs]
    if not all(isinstance(c, int) for c in ids):  # 2.0 or a numpy integer is no crossing id
        return None
    idx, rank = _CrossingIndex(), None
    values = [v for _, v in signs]
    if values.count(1) + values.count(-1) != d:
        return None
    if [c for c, _ in signs] != list(range(1, d + 1)):
        sign_map = dict(signs)
        if len(sign_map) != d:
            return None
        rank = {c: r for r, c in enumerate(sorted(sign_map), start=1)}
        values = [sign_map[c] for c in rank]
    idx.negative = values.count(-1)
    idx.x_next, idx.y_next = x_next, y_next = [0] + [-1] * d, [0] + [-1] * d
    letter = [1] * (d + 1)
    try:
        x_ranks, idx.y_ranks = (curves if rank is None else [[rank[c] for c in curve] for curve in curves]
                                for curves in (x_curves, y_curves))
        for gen, rs in enumerate(x_ranks, start=1):
            for r, n in zip(rs, rs[1:] + rs[:1]):
                x_next[r] = n
                letter[r] = gen
        for rs in idx.y_ranks:
            for r, n in zip(rs, rs[1:] + rs[:1]):
                y_next[r] = n
    except (IndexError, KeyError, TypeError):
        return None
    if min(x_next) < 0 or min(y_next) < 0:
        return None
    idx.letter = letter = list(map(mul, letter, [1] + values))
    counts = [Counter(map(letter.__getitem__, rs)) for rs in idx.y_ranks]
    idx._matrix = [{gen: v for gen in set(map(abs, row)) if (v := row[gen] - row[-gen])} for row in counts]
    parent = list(range(len(x_curves) + 1))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for row in counts:
        for k in row:
            parent[find(abs(k))] = find(abs(next(iter(row))))
    idx.components = len({find(gen) for gen, curve in enumerate(x_curves, start=1) if curve})
    return idx


def cycles_by_scan(sigma):
    """The cycles of a permutation ``sigma`` of ``1..len(sigma)``, each listed from its least
    crossing, in order of that crossing: every start is tested in turn, and one already seen
    lies on an earlier cycle."""
    seen = bytearray(len(sigma) + 1)
    cycles = []
    for start in range(1, len(sigma) + 1):
        if not seen[start]:
            cycle, c = [], start
            while not seen[c]:
                seen[c] = 1
                cycle.append(c)
                c = sigma[c - 1]
            cycles.append(tuple(cycle))
    return cycles


def crt_by_scan(pairs):
    """Solve a congruence system by scanning 0..lcm-1, stepping through the
    residue class of the largest modulus; None if unsolvable."""
    lcm = 1
    for _, m in pairs:
        lcm = lcm // gcd(lcm, m) * m
    r0, m0 = max(pairs, key=lambda pair: pair[1], default=(0, 1))
    for x in range(r0 % m0, lcm, m0):
        if all((x - r) % m == 0 for r, m in pairs):
            return x, lcm
    return None


def _successors(curves):
    nxt = {}
    prv = {}
    for curve in curves:
        k = len(curve)
        for i, c in enumerate(curve):
            nxt[c] = curve[(i + 1) % k]
            prv[c] = curve[(i - 1) % k]
    return nxt, prv


def positivize_by_handles(dg: Diagram) -> Diagram:
    """``dg`` with each -1 crossing ``p`` traded for the paper's trivial handle, drawn as curves: two new
    ids ``b`` and ``c = b + 1`` above every id, ``c`` takes ``p``'s place on its Y curve, a new Y curve
    ``(p, b)`` and a new X curve ``(b, c)``.  Every sign is +1, and the declared genus rises by one per
    handle."""
    top = max((c for c, _ in dg.signs), default=0)
    c_of = {p: top + 2 * k + 2 for k, p in enumerate(c for c, v in dg.signs if v == -1)}
    x_curves = [*dg.x_curves, *((c - 1, c) for c in c_of.values())]
    y_curves = [[c_of.get(c, c) for c in curve] for curve in dg.y_curves] + [(p, c - 1) for p, c in c_of.items()]
    signs = dict.fromkeys([*(c for c, _ in dg.signs), *range(top + 1, top + 2 * len(c_of) + 1)], 1)
    return build_diagram(dg.declared_genus + len(c_of), x_curves, y_curves, signs)


def dict_components(dg):
    """Crossing sets of the components of a valid diagram's curve union."""
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for k, _ in dg.signs:
        parent[k] = k
    for curve in list(dg.x_curves) + list(dg.y_curves):
        for i in range(1, len(curve)):
            union(curve[0], curve[i])
    groups = {}
    for k, _ in dg.signs:
        groups.setdefault(find(k), set()).add(k)
    return list(groups.values())


# dart slots at a crossing: X-out, Y-out, X-in, Y-in
_XO, _YO, _XI, _YI = 0, 1, 2, 3
# counterclockwise successor of each slot, by crossing sign
_CCW = {1: {_XO: _YO, _YO: _XI, _XI: _YI, _YI: _XO},
        -1: {_XO: _YI, _YI: _XI, _XI: _YO, _YO: _XO}}


def dict_face_count(crossings, dg):
    """Number of faces traced by the forced rotation system on a crossing set."""
    nxt_x, prv_x = _successors(dg.x_curves)
    nxt_y, prv_y = _successors(dg.y_curves)
    sign = dg.sign_map
    crossings = set(crossings)

    def alpha(dart):
        c, slot = dart
        if slot == _XO:
            return (nxt_x[c], _XI)
        if slot == _XI:
            return (prv_x[c], _XO)
        if slot == _YO:
            return (nxt_y[c], _YI)
        return (prv_y[c], _YO)

    def face_next(dart):
        c, slot = alpha(dart)
        return (c, _CCW[sign[c]][slot])

    todo = {(c, slot) for c in crossings for slot in (_XO, _YO, _XI, _YI)}
    faces = 0
    while todo:
        start = todo.pop()
        faces += 1
        dart = face_next(start)
        while dart != start:
            todo.remove(dart)
            dart = face_next(dart)
    return faces


def dart_face_count(idx) -> int:
    """Faces of a crossing index with no trivial handles: the squared face
    permutation runs on the X-darts ``2 * rank + e`` (``e`` 1 on arrival
    along X), each crossing turning the face by the sign of its letter.
    The dummy rank 0 closes one face of its own, which is not counted."""
    x_next, y_next, letter = idx.x_next, idx.y_next, idx.letter
    x_prev, y_prev = [0] * len(x_next), [0] * len(y_next)
    for r, (xn, yn) in enumerate(zip(x_next, y_next)):
        x_prev[xn] = y_prev[yn] = r
    dst = []
    for nxt, prv in zip(x_next, x_prev):
        for e, n in ((0, nxt), (1, prv)):
            via_out = (e == 1) == (letter[n] > 0)
            m = y_next[n] if via_out else y_prev[n]
            dst.append(2 * m + (via_out != (letter[m] > 0)))
    seen, faces = set(), -1
    for start in range(len(dst)):
        if start not in seen:
            faces += 1
            w = start
            while w not in seen:
                seen.add(w)
                w = dst[w]
    return faces


def dict_genus_sum(dg):
    """Forced rotation genus of a valid diagram, summed over components."""
    total = 0
    for comp in dict_components(dg):
        v = len(comp)
        chi = v - 2 * v + dict_face_count(comp, dg)
        assert (2 - chi) % 2 == 0
        total += (2 - chi) // 2
    return total


def strand_cycle(a: int, b: int, hdir: int) -> list[tuple[str, int]]:
    """Traversal order of the strands of an (a, b) torus curve, tagged.

    The curve is laid out as ``a`` horizontal strands (levels 0..a-1,
    bottom to top) and ``b`` vertical strands (slots 0..b-1, left to
    right) joined at one switch; ``hdir`` is the horizontal travel
    direction (+1 rightward, -1 leftward) and vertical strands always
    travel upward.  The switch connects the strands the way the cut-open
    (a, b) torus line does, which is the unique crossing-free filling of
    the switch box.  That line is the rotation ``s -> s + b mod a+b`` of
    strand ``s``: level ``s`` if ``s < a``, else slot ``a+b-1-s`` (``s-a``
    when travelling leftward); coprimality makes the orbit of 0 one cycle.
    """
    if a < 1 or b < 1:
        raise ValueError("strand counts must be positive")
    if gcd(a, b) != 1:
        raise ValueError("strand counts must be coprime")
    n = a + b
    steps = (k * b % n for k in range(n))
    return [("h", s) if s < a else ("v", n - 1 - s if hdir > 0 else s - a) for s in steps]


def walk_strand_cycle(a: int, b: int, hdir: int) -> list[tuple[str, int]]:
    """Strand order of an (a, b) torus curve found by walking the switch
    from strand to strand, as :func:`strand_cycle` describes it: levels
    ``0..a-1`` travelling in direction ``hdir``, slots ``0..b-1``
    travelling upward, ``min(a, b)`` strands turning."""
    if a < 1 or b < 1:
        raise ValueError("strand counts must be positive")
    if gcd(a, b) != 1:
        raise ValueError("strand counts must be coprime")
    turn = min(a, b)

    def succ(strand: tuple[str, int]) -> tuple[str, int]:
        kind, idx = strand
        if kind == "h":
            if idx >= a - turn:
                vhat = a - 1 - idx
                return ("v", vhat if hdir > 0 else b - 1 - vhat)
            return ("h", idx + b)
        vhat = idx if hdir > 0 else b - 1 - idx
        if vhat >= b - turn:
            return ("h", b - 1 - vhat)
        out = vhat + a
        return ("v", out if hdir > 0 else b - 1 - out)

    cycle = [("h", 0)]
    cur = succ(cycle[0])
    while cur != cycle[0]:
        cycle.append(cur)
        cur = succ(cur)
    assert len(cycle) == a + b, "switch did not close into a single curve"
    return cycle


def dict_synthesize(plan, betas):
    """The chain diagram of :func:`sfsdiag.vertical.synthesize_diagram`,
    with crossing ids handed out one by one and looked up by key."""
    r = plan.r
    betas = tuple(betas)
    if len(betas) != r:
        raise ValueError(f"expected {r} slopes, got {len(betas)}")
    for i, f in enumerate(betas):
        want = plan.sign_pattern[i]
        if (f.beta > 0) != (want == "+"):
            raise ValueError(f"slope {i} has sign {f.beta} against pattern {want}")

    alphas = [f.alpha for f in betas]
    bmag = [abs(f.beta) for f in betas]
    hdirs = [1 if f.beta > 0 else -1 for f in betas]
    beads = r - 1
    a_e, b_e = alphas[r - 1], bmag[r - 1]

    # crossing ids 1, 2, ..., keyed per family
    ids = count(1)
    a_id = {
        (i, v, p): next(ids)
        for i in range(beads)
        for v in range(bmag[i])
        for p in range(a_e)
    }
    b_id = {(k, v): next(ids) for k in range(alphas[0]) for v in range(b_e)}
    c_id = {}
    for q in range(r - 2):
        for k in range(alphas[q]):
            c_id[(q, q, k)] = next(ids)
        for k in range(alphas[q + 1]):
            c_id[(q, q + 1, k)] = next(ids)

    def x_horizontal_events(i: int, k: int) -> list[int]:
        right = [c_id[(i, i, k)]] if i <= r - 3 else []
        left = [c_id[(i - 1, i, k)]] if i >= 1 else []
        anchor = [b_id[(k, v)] for v in range(b_e)] if i == 0 else []
        if hdirs[i] > 0:
            return right + anchor + left
        return left + anchor + right

    x_curves = []
    for i in range(beads):
        seq: list[int] = []
        for kind, idx in walk_strand_cycle(alphas[i], bmag[i], hdirs[i]):
            if kind == "h":
                seq.extend(x_horizontal_events(i, idx))
            else:
                seq.extend(a_id[(i, idx, p)] for p in range(a_e))
        x_curves.append(tuple(seq))

    y_main: list[int] = []
    for kind, idx in walk_strand_cycle(a_e, b_e, -1):
        if kind == "h":
            for i in range(beads - 1, -1, -1):
                y_main.extend(a_id[(i, v, idx)] for v in range(bmag[i] - 1, -1, -1))
        else:
            y_main.extend(b_id[(k, idx)] for k in range(alphas[0]))
    y_curves = [tuple(y_main)]

    for q in range(r - 2):
        own = [c_id[(q, q, k)] for k in range(alphas[q])]
        other = [c_id[(q, q + 1, k)] for k in range(alphas[q + 1])]
        if hdirs[q] > 0:
            y_curves.append(tuple(own + other[::-1]))
        else:
            y_curves.append(tuple(own[::-1] + other))

    d = len(a_id) + len(b_id) + len(c_id)
    return Diagram(beads, tuple(x_curves), tuple(y_curves), tuple(zip(range(1, d + 1), [1] * d)))


def adjust_for_prime_by_cases(pairs, p: int):
    """:func:`sfsdiag.covers._adjust_for_prime` with one branch per count of
    numerators divisible by ``p``: none, one (moved against a partner), an
    even count (half up, half down) and an odd count above one (a double
    step up on the first, then as many single steps up as balance the rest)."""
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
    first, rest = hit[0], hit[1:]
    up = (len(hit) - 3) // 2
    betas[first] += 2 * alphas[first]
    for i in rest[:up]:
        betas[i] += alphas[i]
    for i in rest[up:]:
        betas[i] -= alphas[i]
    return tuple(betas)


def beta_star_pairwise(pairs, lam: int):
    """:func:`sfsdiag.covers.beta_star` on valid input, with the per-prime answers
    stitched pairwise: one two-congruence ``crt`` per slot and prime power after
    the first, carrying the partial answer and its modulus by hand."""
    pairs = tuple(pairs)
    if lam == 1 or not pairs:
        return tuple(b for _, b in pairs)
    alphas = [a for a, _ in pairs]
    (p, mod), *others = covers._prime_powers(lam)
    partial = covers._adjust_for_prime(pairs, p)
    for p, q in others:
        nxt = covers._adjust_for_prime(pairs, p)
        combined = []
        for i, a in enumerate(alphas):
            value, _ = crt([(partial[i], a * mod), (nxt[i], a * q)])
            combined.append(value)
        partial = tuple(combined)
        mod *= q
    drift = floor_sum(zip(partial, alphas)) - floor_sum((b, a) for a, b in pairs)
    out = list(partial)
    out[0] -= (drift // lam) * alphas[0] * lam
    return tuple(out)


def fibers_one_by_one(pairs) -> tuple:
    """A fresh :class:`FiberInvariant` for each ``(alpha, beta)``, in order: no two share an object."""
    return tuple(FiberInvariant(a, b) for a, b in pairs)


def from_json_per_fiber(data: dict) -> SeifertData:
    """:meth:`SeifertData.from_json` as it read fibers one by one, each checked through ``want`` and
    built before the next is read."""
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
        want(alpha, int, "$.fibers[{}].alpha", i)
        want(beta, int, "$.fibers[{}].beta", i)
        fibers.append(FiberInvariant(alpha, beta))
    euler = None if euler is None else want(euler, int, "$.euler")
    return SeifertData(want(data["base_genus"], int, "$.base_genus"), tuple(fibers), euler)


def lift_seifert_per_fiber(s: SeifertData, spec) -> SeifertData:
    """The slopes ``beta_i / (alpha_i / b_ij)`` of :func:`sfsdiag.covers.lift_seifert`, one new fiber
    per boundary circle, on the genus it reports."""
    genus = covers.lift_seifert(s, spec).base_genus
    pairs = ((f.alpha // b, f.beta) for f, part in zip(s.fibers, spec.partitions) for b in part)
    return SeifertData(genus, fibers_one_by_one(pairs), None)


def outcome(call, *args, **kwargs):
    """The result of a call, or its error's type and message."""
    try:
        return call(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def denormalize_by_cases(s, sign_pattern, absorber_index=None):
    """:func:`sfsdiag.seifert.denormalize` with each slot's starting
    representative chosen case by case: real fibers start from their
    residue and padding ``alpha = 1`` slots from residue 1, a ``-`` slot
    is moved off 0, and a free padding slot is set to 0."""
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
    if absorber_index is not None and not (0 <= absorber_index < r):
        raise ValueError(f"absorber index {absorber_index} out of range")

    alphas = [f.alpha for f in s.fibers] + [1] * (r - m)
    reps = []
    for i, kind in enumerate(pattern):
        base = s.fibers[i].beta if i < m else 1
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
            if not (kind == "free" or (kind == "+") == (deficit > 0)):
                raise UnsatisfiablePattern(f"slot {absorber_index} ({kind}) cannot absorb deficit {deficit}")
            reps[absorber_index] += deficit * alphas[absorber_index]
        else:
            want = "+" if deficit > 0 else "-"
            slots = [i for i in range(r) if pattern[i] in (want, "free")]
            if not slots:
                raise UnsatisfiablePattern(f"no slot can absorb floor-sum deficit {deficit}")
            q, rem = divmod(deficit, len(slots))
            for idx, i in enumerate(slots):
                reps[i] += (q + 1 if idx < rem else q) * alphas[i]
    return SeifertData(s.base_genus, fibers_one_by_one(zip(alphas, reps)), None)


def base_orbifold_cover_by_cases(s):
    """:func:`sfsdiag.covers.base_orbifold_cover` with its three slots
    written out by hand: the Euler number goes to the first padded slot,
    or into slot one when three fibers leave no padding."""
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
    return SeifertData(0, fibers_one_by_one((lam * a, star) for (a, _), star in zip(slots, stars)), None), lam


_SPACE = {"base_genus": 0, "mode": "normalized", "euler": 1,
         "fibers": [{"alpha": 2, "beta": 1}, {"alpha": 3, "beta": 1}, {"alpha": 5, "beta": 2}]}
_DIAGRAM = {"genus": 1, "x_curves": [[1, 2]], "y_curves": [[2, 1]], "signs": {"1": 1, "2": -1}}
# the source tree, for tests that start a fresh interpreter
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# one valid payload per CLI verb
VERB_PAYLOADS = {
    "normalize": _SPACE,
    "homology": _SPACE,
    "genus": _SPACE,
    "diagram-build": _SPACE,
    "diagram-verify": _DIAGRAM,
    "diagram-encode": dict(_DIAGRAM, signs={"1": 1, "2": 1}),
    "diagram-decode": {"sigma_x": [2, 3, 1], "sigma_y": [3, 1, 2]},
    "cover-lift": {"seifert": {"base_genus": 0, "mode": "non_normalized",
                               "fibers": [{"alpha": 6, "beta": -1}, {"alpha": 9, "beta": 1},
                                          {"alpha": 15, "beta": 2}]},
                   "cover": {"lambda": 3, "partitions": [[3], [3], [3]]}},
    "cover-base": dict(_SPACE, base_genus=1),
    "betastar": {"pairs": [[2, 1], [5, 3]], "lambda": 3},
    "positivize": {"generators": 2, "relators": [[1, -2, 1], [2, 2]]},
}


def remove_fibers(multiset, fixed):
    """Remove the fixed fibers from a 3-element multiset, returning the rest."""
    pool = list(multiset)
    for f in fixed:
        if f not in pool:
            return None
        pool.remove(f)
    assert len(pool) == 1
    return pool[0]


def tied_family_by_removal(fibers):
    """``(family, n, sign)`` of the tied horizontal family 2.1-2.3 of the
    ``g = 0, e = 1`` space with three normalized ``fibers``, or None, found
    by removing each family's fixed fibers from the list one at a time."""
    for family, fixed, coeff in (("2.1", [(2, 1), (3, 1)], 6), ("2.2", [(2, 1), (4, 1)], 4),
                                 ("2.3", [(3, 1), (3, 1)], 3)):
        rest = remove_fibers(sorted(fibers), fixed)
        if rest is None:
            continue
        a, b = rest
        if b >= 1 and a == coeff * b + 1:
            return family, b, 1
        if b >= 1 and a == coeff * b - 1:
            return family, b, -1
    return None


# the three triples whose tied horizontal splitting is also vertical, and
# the one whose positivity is unresolved
POSITIVE_TRIPLES = (
    ((2, 1), (3, 1), (5, 1)),
    ((2, 1), (3, 1), (4, 1)),
    ((2, 1), (3, 1), (3, 1)),
)
OPEN_TRIPLE = ((2, 1), (3, 1), (7, 1))


def tied_status_by_triples(fibers) -> str:
    """Positive-diagram status of the tied horizontal splitting of the
    ``g = 0, e = 1`` space with three normalized ``fibers`` (``(alpha, beta)``
    pairs), looked up in the tables above."""
    key = tuple(sorted(fibers))
    if key in POSITIVE_TRIPLES:
        return "positive"
    if key == OPEN_TRIPLE:
        return "open"
    return "not positive"


S3 = tuple(permutations(range(3)))


def hom_count(p, group) -> int:
    """Number of homomorphisms from the group presented by ``p`` into ``group``, a finite
    group of permutation tuples, by brute force over the generator images.  Images are
    chosen for the generators in most relators first; each relator, kept as runs
    ``(generator, exponent)``, is checked once every generator it uses has an image."""
    identity = tuple(range(len(group[0])))
    powers = {}
    for g in group:
        powers[g] = [identity]
        while (nxt := tuple(g[i] for i in powers[g][-1])) != identity:
            powers[g].append(nxt)
    uses = Counter(abs(letter) for word in p.relators for letter in set(word))
    order = sorted(range(1, p.n_generators + 1), key=lambda gen: -uses[gen])
    level = {gen: i for i, gen in enumerate(order)}
    due = [[] for _ in order]
    for word in filter(None, p.relators):
        runs = [(abs(letter), len(list(run)) * (1 if letter > 0 else -1)) for letter, run in groupby(word)]
        due[max(level[gen] for gen, _ in runs)].append(runs)
    images = {}

    def holds(runs):
        value = identity
        for gen, e in runs:
            power = powers[images[gen]]
            value = tuple(value[i] for i in power[e % len(power)])
        return value == identity

    def extensions(i):
        if i == len(order):
            return 1
        total = 0
        for g in group:
            images[order[i]] = g
            if all(map(holds, due[i])):
                total += extensions(i + 1)
        return total

    return extensions(0)
