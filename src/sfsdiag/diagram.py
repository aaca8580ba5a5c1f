"""Combinatorial Heegaard diagrams.

A diagram stores two transverse systems of oriented curves on a closed
oriented surface purely combinatorially: each curve is the cyclic sequence
of crossing ids met along its orientation, and every crossing carries the
intersection sign of the X curve with the Y curve there.  No embedding is
stored; when a surface is needed (genus verification) it is recovered from
the rotation system the signs force at each crossing.

Every query reads one crossing index, built lazily once per diagram.
Building it is the structural validation: a defective diagram raises the
first violation that :func:`validate` reports.

Positive diagrams admit the classical encoding by a pair of permutations
of the crossings: flow along X (respectively Y) from one crossing to the
next.  ``montesinos_encode`` / ``montesinos_decode`` implement that codec;
for diagrams whose curve union is disconnected the encoding simply acts
per component.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import add, sub
from typing import Mapping

from .errors import Disconnected, IsolatedCurve, NotPositive
from .exactalg import IntMatrix, SnfResult, snf
from .presentation import Presentation


@dataclass(frozen=True)
class Diagram:
    """Oriented curve systems as cyclic crossing sequences plus signs.

    ``signs`` is kept as a tuple of ``(crossing_id, sign)`` pairs sorted by
    id so that equal diagrams compare equal and serialize identically.
    """

    declared_genus: int
    x_curves: tuple[tuple[int, ...], ...]
    y_curves: tuple[tuple[int, ...], ...]
    signs: tuple[tuple[int, int], ...]

    @classmethod
    def build(cls, declared_genus, x_curves, y_curves, signs: Mapping[int, int]) -> "Diagram":
        return cls(
            declared_genus,
            tuple(tuple(c) for c in x_curves),
            tuple(tuple(c) for c in y_curves),
            tuple(sorted((int(k), int(v)) for k, v in signs.items())),
        )

    @property
    def sign_map(self) -> dict[int, int]:
        return dict(self.signs)

    @property
    def crossing_count(self) -> int:
        return len(self.signs)

    @cached_property
    def _index(self) -> "_CrossingIndex":
        """The crossing index; raises ``ValueError`` on a defective diagram."""
        index = _crossing_index(self.declared_genus, self.x_curves, self.y_curves, self.signs)
        if index is None:
            first = validate(self)[0]
            raise ValueError(f"invalid diagram: {first.code}: {first.message}")
        return index

    def to_json(self) -> dict:
        return {
            "genus": self.declared_genus,
            "x_curves": [list(c) for c in self.x_curves],
            "y_curves": [list(c) for c in self.y_curves],
            "signs": {str(k): v for k, v in self.signs},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Diagram":
        genus = int(data["genus"])
        x_curves = [[int(c) for c in curve] for curve in data["x_curves"]]
        y_curves = [[int(c) for c in curve] for curve in data["y_curves"]]
        if not isinstance(data["signs"], dict):
            kind = type(data["signs"]).__name__
            raise TypeError(f"signs: expected an object mapping crossing id to sign, got {kind}")
        signs = {int(k): int(v) for k, v in data["signs"].items()}
        return cls.build(genus, x_curves, y_curves, signs)


@dataclass(frozen=True)
class DiagramViolation:
    """One structural defect found by :func:`validate`."""

    code: str
    message: str


def validate(dg: Diagram) -> list[DiagramViolation]:
    """Check the structural invariants exhaustively; empty list means ok.

    Every crossing id must occur exactly once across the X curves and once
    across the Y curves, and the signs must name each of those ids exactly
    once, with values +-1.
    """
    out: list[DiagramViolation] = []
    if dg.declared_genus < 0:
        out.append(DiagramViolation("NegativeGenus", "declared genus is negative"))
    if not dg.x_curves:
        out.append(DiagramViolation("EmptySide", "no X curves"))
    if not dg.y_curves:
        out.append(DiagramViolation("EmptySide", "no Y curves"))

    def side_ids(curves, dup_code):
        seen = Counter(c for curve in curves for c in curve)
        for c, count in sorted(seen.items()):
            if count > 1:
                out.append(DiagramViolation(dup_code, f"crossing {c} appears {count} times"))
        return set(seen)

    on_x = side_ids(dg.x_curves, "DuplicateOnX")
    on_y = side_ids(dg.y_curves, "DuplicateOnY")
    for c in sorted(on_x - on_y):
        out.append(DiagramViolation("MissingFromY", f"crossing {c} is only on an X curve"))
    for c in sorted(on_y - on_x):
        out.append(DiagramViolation("MissingFromX", f"crossing {c} is only on a Y curve"))
    signed = side_ids([[k for k, _ in dg.signs]], "DuplicateSign")
    for c in sorted((on_x | on_y) - signed):
        out.append(DiagramViolation("MissingSign", f"crossing {c} has no sign"))
    for c in sorted(signed - (on_x | on_y)):
        out.append(DiagramViolation("ExtraSign", f"sign for unknown crossing {c}"))
    for c, v in dg.signs:
        if v not in (1, -1):
            out.append(DiagramViolation("BadSign", f"crossing {c} has sign {v}"))
    return out


class _CrossingIndex:
    """The crossings of a valid diagram ranked ``0..d-1`` by id; ``rank``
    maps id to rank, or is None for ids ``1..d``.  Arrays, as the index is
    cached, give per rank the next rank along X and Y, the sign and the X
    curve; then the component count and the Y-by-X intersection matrix."""

    __slots__ = ("rank", "sign", "positive", "x_next", "y_next", "x_curve", "components", "matrix")


def _ranks(curve, rank, d: int) -> list[int]:
    """Ranks of a curve's crossings; KeyError if one is not a signed id."""
    if rank is None:
        if curve and (min(curve) < 1 or max(curve) > d):
            raise KeyError(curve)
        return [c - 1 for c in curve]
    return [rank[c] for c in curve]


def _crossing_index(genus, x_curves, y_curves, signs) -> _CrossingIndex | None:
    """Index of diagram data; None on any defect :func:`validate` reports."""
    values = [v for _, v in signs]
    if genus < 0 or not x_curves or not y_curves or not set(values) <= {1, -1}:
        return None
    idx = _CrossingIndex()
    idx.positive = -1 not in values
    if [c for c, _ in signs] == list(range(1, len(signs) + 1)):
        idx.rank, idx.sign = None, array("b", values)
    else:
        sign_map = dict(signs)
        if len(sign_map) != len(signs):
            return None
        idx.rank = {c: r for r, c in enumerate(sorted(sign_map))}
        idx.sign = array("b", [sign_map[c] for c in idx.rank])
    d = len(idx.sign)
    sides = []
    for curves in (x_curves, y_curves):
        nxt, which, total = [-1] * d, [-1] * d, 0
        for ci, curve in enumerate(curves):
            try:
                rs = _ranks(curve, idx.rank, d)
            except KeyError:
                return None
            total += len(rs)
            for r, n in zip(rs, rs[1:] + rs[:1]):
                nxt[r] = n
                which[r] = ci
        if total != d or -1 in which:
            return None
        sides.append((array("i", nxt), array("i", which)))
    (idx.x_next, idx.x_curve), (idx.y_next, y_curve) = sides

    gx = len(x_curves)
    rows = [[0] * gx for _ in y_curves]
    parent = list(range(gx + len(y_curves)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    # union-find over the curves, joining X curve i and Y curve j that cross
    for (j, i, s), count in Counter(zip(y_curve, idx.x_curve, idx.sign)).items():
        rows[j][i] += s * count
        parent[find(i)] = find(gx + j)
    idx.components = len({find(i) for i in set(idx.x_curve)})
    idx.matrix = tuple(map(tuple, rows))
    return idx


def is_positive_diagram(dg: Diagram) -> bool:
    """True iff every crossing sign is +1 (vacuously true with none)."""
    return dg._index.positive


def _face_count(idx: _CrossingIndex) -> int:
    """Cycle count of the face permutation on darts ``4 * rank + slot``,
    slots X-out 0, Y-out 1, X-in 2, Y-in 3: a face runs along an edge to
    the far crossing, then turns to its next slot counterclockwise."""
    sign = idx.sign
    n = 4 * len(sign)
    x_prev, y_prev = [0] * len(sign), [0] * len(sign)
    for r, (xn, yn) in enumerate(zip(idx.x_next, idx.y_next)):
        x_prev[xn] = y_prev[yn] = r
    # the turn after arriving through X-in, X-out, Y-in or Y-out: to slot
    # 2 + sign, 2 - sign, 1 - sign or 1 + sign
    at_xi = list(map(add, range(2, n, 4), sign))
    at_xo = list(map(sub, range(2, n, 4), sign))
    at_yi = list(map(sub, range(1, n, 4), sign))
    at_yo = list(map(add, range(1, n, 4), sign))
    face = [0] * n
    face[0::4] = map(at_xi.__getitem__, idx.x_next)
    face[1::4] = map(at_yi.__getitem__, idx.y_next)
    face[2::4] = map(at_xo.__getitem__, x_prev)
    face[3::4] = map(at_yo.__getitem__, y_prev)
    seen = bytearray(n)
    faces = 0
    for start in range(n):
        if seen[start]:
            continue
        faces += 1
        dart = start
        while not seen[dart]:
            seen[dart] = 1
            dart = face[dart]
    return faces


def _forced_genus(idx: _CrossingIndex) -> int:
    """Forced genus summed over the components: ``(2C + d - F) / 2``."""
    return (2 * idx.components + len(idx.sign) - _face_count(idx)) // 2


def rotation_genus(dg: Diagram) -> int:
    """Genus of the closed oriented surface forced by the crossing signs.

    The 4-valent graph X union Y gets the counterclockwise half-edge order
    (X-out, Y-out, X-in, Y-in) at a +1 crossing and
    (X-out, Y-in, X-in, Y-out) at a -1 crossing.  The faces are the
    cycles of that rotation system's face permutation on the ``4d``
    darts, and the genus is ``(2 - (V - E + F)) / 2`` with ``V = d``
    crossings and ``E = 2d`` edges.

    Requires every curve to carry a crossing (:class:`IsolatedCurve`) and
    the graph to be connected (:class:`Disconnected`).
    """
    idx = dg._index
    if not all(dg.x_curves) or not all(dg.y_curves):
        raise IsolatedCurve("a curve without crossings has no rotation data")
    if idx.components != 1:
        raise Disconnected(f"curve union has {idx.components} components")
    return _forced_genus(idx)


def diagram_presentation(dg: Diagram) -> Presentation:
    """Group presentation read off the diagram.

    One generator per X curve; each Y curve contributes the relator that
    lists, along its orientation, the crossed X curve with the crossing
    sign as exponent.  No free reduction is applied, so each relator's
    length equals that Y curve's crossing count.
    """
    idx = dg._index
    letter = [s * (i + 1) for s, i in zip(idx.sign, idx.x_curve)]
    relators = tuple(
        tuple(map(letter.__getitem__, _ranks(curve, idx.rank, len(letter))))
        for curve in dg.y_curves
    )
    return Presentation(len(dg.x_curves), relators)


def intersection_matrix(dg: Diagram) -> IntMatrix:
    """Algebraic intersection matrix: entry ``(j, i)`` sums the signs of
    the crossings of Y curve ``j`` with X curve ``i``."""
    return IntMatrix(len(dg.y_curves), len(dg.x_curves), dg._index.matrix)


def diagram_homology(dg: Diagram) -> SnfResult:
    """Smith data of the algebraic intersection matrix (Y rows, X columns)."""
    return snf(intersection_matrix(dg))


@dataclass(frozen=True)
class PermutationPair:
    """Successor permutations along X and along Y on crossings 1..d."""

    degree: int
    sigma_x: tuple[int, ...]
    sigma_y: tuple[int, ...]

    def __post_init__(self):
        for name, sigma in (("sigma_x", self.sigma_x), ("sigma_y", self.sigma_y)):
            if len(sigma) != self.degree or sorted(sigma) != list(range(1, self.degree + 1)):
                raise ValueError(f"{name} is not a permutation of 1..{self.degree}")

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "sigma_x": list(self.sigma_x),
            "sigma_y": list(self.sigma_y),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PermutationPair":
        sx = tuple(int(v) for v in data["sigma_x"])
        sy = tuple(int(v) for v in data["sigma_y"])
        degree = int(data.get("degree", len(sx)))
        return cls(degree, sx, sy)


def montesinos_encode(dg: Diagram) -> PermutationPair:
    """Encode a positive diagram by its along-X and along-Y successor maps.

    Crossing ids are ranked into 1..d in increasing order, so diagrams
    differing only by id relabeling encode identically.
    """
    idx = dg._index
    if not idx.positive:
        raise NotPositive("the permutation encoding needs an all-positive diagram")
    sigma_x, sigma_y = (tuple(n + 1 for n in nxt) for nxt in (idx.x_next, idx.y_next))
    return PermutationPair(len(idx.sign), sigma_x, sigma_y)


def _cycles(sigma: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen = bytearray(len(sigma) + 1)
    cycles = []
    for start in range(1, len(sigma) + 1):
        cycle, c = [], start
        while not seen[c]:
            seen[c] = 1
            cycle.append(c)
            c = sigma[c - 1]
        if cycle:
            cycles.append(tuple(cycle))
    return cycles


def montesinos_decode(p: PermutationPair) -> Diagram:
    """Rebuild the positive diagram with the given successor permutations.

    Curves are the permutation cycles (listed from their smallest
    crossing), all signs are +1, and the declared genus is the forced
    rotation genus, summed over components when the pair is intransitive.
    """
    x_curves = tuple(_cycles(p.sigma_x))
    y_curves = tuple(_cycles(p.sigma_y))
    signs = tuple((c, 1) for c in range(1, p.degree + 1))
    genus = _forced_genus(_crossing_index(0, x_curves, y_curves, signs)) if p.degree else 0
    return Diagram(genus, x_curves, y_curves, signs)


def to_dot(dg: Diagram) -> str:
    """Diagnostic DOT rendering of the 4-valent graph with colored curve edges."""
    lines = ["graph diagram {"]
    for color, side, curves in (("red", "x", dg.x_curves), ("blue", "y", dg.y_curves)):
        for idx, curve in enumerate(curves, start=1):
            for c, nxt in zip(curve, curve[1:] + curve[:1]):
                lines.append(f'  "{c}" -- "{nxt}" [color={color}, label="{side}{idx}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
