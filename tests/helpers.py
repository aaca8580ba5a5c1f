"""Shared independent oracles for the test suite.

These deliberately avoid the library's own algorithms: determinants use
Bareiss elimination, Smith data is recomputed from gcds of k-minors,
congruences are checked by exhaustive scan, and forced rotation genera
are traced over ``(crossing, slot)`` darts with dict successor maps and a
union-find over the crossings.
"""

from itertools import combinations
from math import gcd


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


def crt_by_scan(pairs):
    """Solve a congruence system by scanning 0..lcm-1; None if unsolvable."""
    lcm = 1
    for _, m in pairs:
        lcm = lcm // gcd(lcm, m) * m
    for x in range(lcm):
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


def dict_genus_sum(dg):
    """Forced rotation genus of a valid diagram, summed over components."""
    total = 0
    for comp in dict_components(dg):
        v = len(comp)
        chi = v - 2 * v + dict_face_count(comp, dg)
        assert (2 - chi) % 2 == 0
        total += (2 - chi) // 2
    return total
