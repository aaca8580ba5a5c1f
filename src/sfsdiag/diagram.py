"""Combinatorial Heegaard diagrams.

A diagram stores two transverse systems of oriented curves on a closed
oriented surface purely combinatorially: each curve is the cyclic sequence
of crossing ids met along its orientation, and every crossing carries the
intersection sign of the X curve with the Y curve there (read or built on
ids ``1..d``, a :class:`SignRun` of the -1 ids).  No embedding is stored; a
surface is recovered from the rotation system the signs force at each crossing.

Every query reads one crossing index, built lazily once per diagram.
Building it is the structural validation, which :func:`validate` reads: only a
defective diagram runs the exhaustive pass, once, and raises its first violation.

Positive diagrams admit the classical encoding by a pair of permutations
of the crossings: flow along X (respectively Y) from one crossing to the
next.  ``montesinos_encode`` / ``montesinos_decode`` implement that codec;
for diagrams whose curve union is disconnected the encoding simply acts
per component.
"""

from collections import Counter
from functools import cached_property
from itertools import compress, count, repeat
from operator import eq

from .errors import Disconnected, IsolatedCurve, NotPositive, Value, init_field, want, want_ints
from .exactalg import SnfResult, _snf
from .presentation import Presentation, _exponent_sums, _letter_counts


class SignRun(Value):
    """The signs ``((1, s_1), ..., (d, s_d))`` of a diagram on ids ``1..d``, kept as ``d`` and the
    increasing tuple of its -1 ids: it equals, hashes, prints, iterates and slices as that tuple,
    and the crossing index reads it without a pass."""

    __slots__ = ("d", "negatives")

    def __init__(self, d: int, negatives: tuple[int, ...] = ()):
        init_field(self, "d", d)
        init_field(self, "negatives", negatives)

    def __len__(self):
        return self.d

    def __iter__(self):
        values = [1] * self.d
        for c in self.negatives:
            values[c - 1] = -1
        return zip(range(1, self.d + 1), values)

    def __getitem__(self, key):
        return tuple(self)[key]

    def __eq__(self, other):
        return tuple(self) == other if isinstance(other, tuple) else super().__eq__(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


def _negatives(values) -> tuple[int, ...]:
    """Places 1.. of the -1 values by eq ((-1).__eq__("x") is truthy), via a list: growing tuples fragment the heap."""
    return tuple(list(compress(count(1), map(eq, values, repeat(-1))))) if -1 in values else ()


class Diagram(Value):
    """Oriented curve systems as cyclic crossing sequences plus signs.

    ``signs`` is a tuple of ``(crossing_id, sign)`` pairs sorted by id, or a
    :class:`SignRun` on ids ``1..d`` that equals, hashes and prints as one, so
    that equal diagrams compare equal and serialize identically.
    """

    __slots__ = ("declared_genus", "x_curves", "y_curves", "signs", "__dict__")

    def __init__(self, declared_genus: int, x_curves: tuple[tuple[int, ...], ...],
                 y_curves: tuple[tuple[int, ...], ...], signs: tuple[tuple[int, int], ...]):
        init_field(self, "declared_genus", declared_genus)
        init_field(self, "x_curves", x_curves)
        init_field(self, "y_curves", y_curves)
        init_field(self, "signs", signs)

    @property
    def sign_map(self) -> dict[int, int]:
        return dict(self.signs)

    @property
    def crossing_count(self) -> int:
        return len(self.signs)

    @cached_property
    def _index(self) -> "_CrossingIndex":
        """The crossing index that ``_violations`` kept; raises ``ValueError`` on a defective diagram."""
        if self._violations:
            raise ValueError(f"invalid diagram: {self._violations[0].code}: {self._violations[0].message}")
        return self.__dict__["_index"]

    @cached_property
    def _violations(self) -> tuple["DiagramViolation", ...]:
        """Empty when the crossing index builds, kept as ``_index``; else every defect, from one exhaustive pass."""
        if (index := _crossing_index(self.declared_genus, self.x_curves, self.y_curves, self.signs)) is None:
            return tuple(_find_violations(self))
        self.__dict__["_index"] = index
        return ()

    def to_json(self) -> dict:
        return {
            "genus": self.declared_genus,
            "x_curves": [list(c) for c in self.x_curves],
            "y_curves": [list(c) for c in self.y_curves],
            "signs": {str(k): v for k, v in self.signs},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Diagram":
        genus = want(data["genus"], int, "$.genus")
        x_curves, y_curves = (
            tuple(tuple(want_ints(c, "$.{}[{}]", side, i)) for i, c in enumerate(want(data[side], list, "$." + side)))
            for side in ("x_curves", "y_curves"))
        signs = data["signs"]
        if not isinstance(signs, dict):
            raise TypeError(f"signs: expected an object mapping crossing id to sign, got {type(signs).__name__}")
        # keys "1".."d" in order with int values +-1 are a run, no parse or sort; types first: a list keeps want's error
        if list(signs) == list(map(str, range(1, len(signs) + 1))) and set(map(type, signs.values())) <= {int} \
                and set(signs.values()) <= {1, -1}:
            return cls(genus, x_curves, y_curves, SignRun(len(signs), _negatives(signs.values())))
        pairs = []
        for k, v in signs.items():  # canonical decimal keys only: int() alone also takes " 1", "+1" and "1_0"
            if not (k.removeprefix("-").isdecimal() and str(c := int(k)) == k):
                raise ValueError(f"$.signs: key {k!r} is not a crossing id")
            pairs.append((c, v if type(v) is int else want(v, int, "$.signs[{!r}]", k)))
        return cls(genus, x_curves, y_curves, tuple(sorted(pairs)))


class DiagramViolation(Value):
    """One structural defect found by :func:`validate`."""

    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str):
        init_field(self, "code", code)
        init_field(self, "message", message)


def validate(dg: Diagram) -> list[DiagramViolation]:
    """Check the structural invariants; empty list means ok.

    Every crossing id must be an ``int`` found once across the X curves and once across the Y
    curves, and the signs must name each of those ids exactly once, with values +-1.  Building the
    crossing index proves them; only a defective diagram runs the exhaustive pass, once per diagram.
    """
    return list(dg._violations)


def _find_violations(dg: Diagram) -> list[DiagramViolation]:
    """The exhaustive pass behind :func:`validate`."""
    out: list[DiagramViolation] = []
    if dg.declared_genus < 0:
        out.append(DiagramViolation("NegativeGenus", "declared genus is negative"))
    if not dg.x_curves:
        out.append(DiagramViolation("EmptySide", "no X curves"))
    if not dg.y_curves:
        out.append(DiagramViolation("EmptySide", "no Y curves"))
    # an id that is no int (a float, a string) fails to index and is listed last; beside one, numbers sort first
    ids = (c for curve in (*dg.x_curves, *dg.y_curves, [k for k, _ in dg.signs]) for c in curve)
    odd = dict.fromkeys(c for c in ids if not isinstance(c, int))
    key = (lambda c: (0, c) if isinstance(c, (int, float)) else (1, repr(c))) if odd else None

    def side_ids(curves, dup_code):
        seen = Counter(c for curve in curves for c in curve)
        for c in sorted(seen, key=key):
            if seen[c] > 1:
                out.append(DiagramViolation(dup_code, f"crossing {c!r} appears {seen[c]} times"))
        return set(seen)

    on_x = side_ids(dg.x_curves, "DuplicateOnX")
    on_y = side_ids(dg.y_curves, "DuplicateOnY")
    for c in sorted(on_x - on_y, key=key):
        out.append(DiagramViolation("MissingFromY", f"crossing {c!r} is only on an X curve"))
    for c in sorted(on_y - on_x, key=key):
        out.append(DiagramViolation("MissingFromX", f"crossing {c!r} is only on a Y curve"))
    signed = side_ids([[k for k, _ in dg.signs]], "DuplicateSign")
    for c in sorted((on_x | on_y) - signed, key=key):
        out.append(DiagramViolation("MissingSign", f"crossing {c!r} has no sign"))
    for c in sorted(signed - (on_x | on_y), key=key):
        out.append(DiagramViolation("ExtraSign", f"sign for unknown crossing {c!r}"))
    for c, v in dg.signs:
        if v not in (1, -1):
            out.append(DiagramViolation("BadSign", f"crossing {c!r} has sign {v}"))
    return out + [DiagramViolation("BadId", f"crossing id {c!r} is not an integer") for c in odd]


class _CrossingIndex:
    """The crossings of a valid diagram ranked ``1..d`` by id, and its Y curves as ranks
    (``y_ranks``, the curves themselves under a :class:`SignRun`); per rank the next rank along X
    and Y and the letter ``+-(i + 1)`` of its X curve ``i``, signed by the crossing, rank 0
    a dummy with letter 1 whose curves close on themselves; the count ``negative`` of -1
    crossings; the component count, 1 whenever one Y curve crosses every X curve; per Y curve
    its nonzero intersection numbers by generator ``1..g`` (``matrix``, rows as plain dicts):
    a positive diagram's counted with the index, a signed one's folded on first read."""

    __slots__ = ("y_ranks", "letter", "negative", "x_next", "y_next", "components", "_matrix")

    @property
    def matrix(self) -> list[dict[int, int]]:
        if self._matrix is None:  # a signed diagram's exponent sums, folded from its signed letters once
            self._matrix = [_exponent_sums(_letter_counts(map(self.letter.__getitem__, rs))) for rs in self.y_ranks]
        return self._matrix


def _crossing_index(genus, x_curves, y_curves, signs, links=None) -> _CrossingIndex | None:
    """Index of diagram data; None on any defect :func:`validate` reports.  A run's ids ``1..d`` are their own ranks,
    each linked from the one before it; one outside ``-(d+1)..d`` fails to index.  A side's d ids fill its slots once as
    indices and once as values, so they sum to ``d(d+1)/2`` iff the ids are ``1..d``: an unset slot (``2(d+1)**2``)
    outweighs ``-(d+1)`` in each other; with none, each of ``1..d`` is filled once, less ``d + 1`` per negative id.
    Every diagram's rows are counted on the unsigned letters, which give the component count; signs come after."""
    d, idx, negatives, rank = len(signs), _CrossingIndex(), (), None
    if links:  # a positive diagram's successor lists, already proved permutations, and its X curve numbers
        (x_next, y_next, letter), x_ranks, idx.y_ranks = links, x_curves, y_curves
    else:
        if genus < 0 or not x_curves or not y_curves or sum(map(len, x_curves)) != d or sum(map(len, y_curves)) != d:
            return None
        if type(signs) is SignRun:  # a run on 1..d is trusted; its curves are checked below
            negatives = signs.negatives
        else:  # pairs are ranked, ids 1..d too; only an int id takes a rank, and a repeat leaves fewer than d
            rank = dict(signs)  # each id's sign until the signs are read, then each id's rank
            values = list(map(rank.__getitem__, ids := sorted(c for c in rank if isinstance(c, int))))
            if values.count(1) + len(negatives := _negatives(values)) != d:
                return None
            rank.update(zip(ids, count(1)))  # the d signs came from int ids, so every key takes a rank
        # an unset slot outweighs the rest; an id no int is not ranked, and numpy's sum to no int: int.__ne__ refuses
        unset = 2 * (d + 1) ** 2
        x_next, y_next, letter = [unset] * (d + 1), [unset] * (d + 1), [1] * (d + 1)
        x_next[0] = y_next[0] = 0
        try:
            x_ranks, idx.y_ranks = (curves if rank is None else [[rank[c] for c in cs if isinstance(c, int)]
                                                                 for cs in curves] for curves in (x_curves, y_curves))
            for gen, rs in enumerate(x_ranks, start=1):
                p = rs[-1] if rs else 0
                for r in rs:  # link each rank from the one before it, the last closing the curve
                    x_next[p] = p = r
                    letter[r] = gen
            for rs in idx.y_ranks:
                p = rs[-1] if rs else 0
                for r in rs:
                    y_next[p] = p = r
            if int.__ne__(sum(x_next), d * (d + 1) // 2) or int.__ne__(sum(y_next), d * (d + 1) // 2):
                return None
        except (IndexError, KeyError, TypeError):
            return None
    # per Y curve the X curves it crosses, counted by generator: each rank lies on one X and one
    # Y curve, so column gen sums to the length of X_gen.  The longest Y curve (most crossings of a
    # build) goes uncounted, its row that length less the other rows, zeros dropped
    lens = [len(rs) for rs in idx.y_ranks]
    longest = lens.index(max(lens))
    rows = [{} if k == longest else _letter_counts(map(letter.__getitem__, rs)) for k, rs in enumerate(idx.y_ranks)]
    left = [0, *map(len, x_ranks)]
    for row in rows:
        for gen, v in row.items():
            left[gen] -= v
    rows[longest] = {gen: v for gen, v in enumerate(left) if v}
    if len(x_curves) in map(len, rows):  # a Y curve crosses every X curve, as Y_1 of a build does
        idx.components = 1
    else:
        parent = list(range(len(x_curves) + 1))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for row in rows:  # the X curves one Y curve crosses lie in one component
            if row:
                root = find(next(iter(row)))
                for gen in row:
                    parent[find(gen)] = root
        idx.components = len({find(gen) for gen, curve in enumerate(x_curves, start=1) if curve})
    for r in negatives:  # signs go on the letters only now, and a signed diagram's rows fold when first read
        letter[r], rows = -letter[r], None
    idx.x_next, idx.y_next, idx.letter, idx.negative, idx._matrix = x_next, y_next, letter, len(negatives), rows
    return idx


def is_positive_diagram(dg: Diagram) -> bool:
    """True iff every crossing sign is +1 (vacuously true with none)."""
    return not dg._index.negative


def _trivial_handles(idx: _CrossingIndex, sign: int = -1) -> tuple[list[int], list[int]]:
    """``x_next`` and ``y_next`` once each -1 crossing is traded for the paper's trivial handle, three
    +1 crossings with the same faces: per negative rank p, ranks b and c = b + 1 are appended, c takes
    p's place on its Y curve, p moves to the new Y curve (p, b) and the new X curve (b, c) closes it.
    With ``sign`` +1 the handles go on the +1 crossings (never the dummy rank 0): those of the mirror."""
    handled = [p for p, gen in enumerate(idx.letter) if p and gen * sign > 0]
    c_of = dict(zip(handled, count(len(idx.x_next) + 1, 2)))
    x_next, y_next = idx.x_next[:], list(map(c_of.get, idx.y_next, idx.y_next))
    for p, c in c_of.items():
        x_next += (c, c - 1)
        y_next += (p, y_next[p])
        y_next[p] = c - 1
    return x_next, y_next


def _face_count(idx: _CrossingIndex) -> int:
    """Faces of the forced rotation system, as cycles of one permutation.

    A face alternates X and Y edges.  In an all-positive diagram it runs
    X forward, Y backward, X backward, Y forward: the faces are the cycles
    of ``r -> y_next[x_prev[y_prev[x_next[r]]]]``, or of its conjugate by
    ``x_next``, which maps ``y_next[x_next[w]]`` to ``x_next[y_next[w]]``
    and fixes the commuting squares, where ``x_next`` and ``y_next`` commute.
    A signed diagram is first given its trivial handles (:func:`_trivial_handles`) on
    its minority sign: the mirror has the same faces, so at most ``2d + 1`` ranks are
    walked.  The dummy rank 0 adds one face.
    """
    x_next, y_next = idx.x_next, idx.y_next
    if idx.negative:  # more than d / 2 crossings -1: handles on the +1 ones, as on the mirror
        x_next, y_next = _trivial_handles(idx, 1 if 2 * idx.negative >= len(x_next) else -1)
    # most faces of a diagram are fixed points here; count them in bulk and
    # pop the cycles of the moved points
    step = {a: b for r, w in zip(x_next, y_next) if (a := y_next[r]) != (b := x_next[w])}
    faces = len(x_next) - len(step) - 1
    while step:
        start, w = step.popitem()
        faces += 1
        while w != start:
            w = step.pop(w)
    return faces


def _forced_genus(idx: _CrossingIndex) -> int:
    """Forced genus summed over the components: ``(2C + d - F) / 2``."""
    return (2 * idx.components + len(idx.letter) - 1 - _face_count(idx)) // 2


def rotation_genus(dg: Diagram) -> int:
    """Genus of the closed oriented surface forced by the crossing signs.

    The 4-valent graph X union Y gets the counterclockwise half-edge order
    (X-out, Y-out, X-in, Y-in) at a +1 crossing and
    (X-out, Y-in, X-in, Y-out) at a -1 crossing.  The faces are counted on the
    paper's trivial handles, which keep them (:func:`_face_count`); the genus is
    ``(2 - (V - E + F)) / 2`` with ``V = d`` crossings and ``E = 2d`` edges.

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
    return Presentation(len(dg.x_curves), tuple(tuple(map(idx.letter.__getitem__, rs)) for rs in idx.y_ranks))


def diagram_homology(dg: Diagram) -> SnfResult:
    """Smith data of the algebraic intersection matrix (Y rows, X columns), from its nonzeros."""
    return _snf(dg._index.matrix, len(dg.x_curves))


class PermutationPair(Value):
    """Successor permutations along X and along Y on crossings ``1..degree``."""

    __slots__ = ("sigma_x", "sigma_y")

    def __init__(self, sigma_x: tuple[int, ...], sigma_y: tuple[int, ...]):
        ids = list(range(1, len(sigma_x) + 1))
        for name, sigma in (("sigma_x", sigma_x), ("sigma_y", sigma_y)):
            if set(map(type, sigma)) - {int} or sorted(sigma) != ids:  # a bool or a float is no crossing
                raise ValueError(f"{name} is not a permutation of 1..{len(ids)}")
        init_field(self, "sigma_x", sigma_x)
        init_field(self, "sigma_y", sigma_y)

    @property
    def degree(self) -> int:
        return len(self.sigma_x)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "sigma_x": list(self.sigma_x),
            "sigma_y": list(self.sigma_y),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PermutationPair":
        sx = tuple(want_ints(data["sigma_x"], "$.sigma_x"))
        sy = tuple(want_ints(data["sigma_y"], "$.sigma_y"))
        degree = want(data.get("degree", len(sx)), int, "$.degree")
        if degree != len(sx):
            raise ValueError(f"sigma_x is not a permutation of 1..{degree}")
        return cls(sx, sy)


def montesinos_encode(dg: Diagram) -> PermutationPair:
    """Encode a positive diagram by its along-X and along-Y successor maps.

    Crossing ids are ranked into 1..d in increasing order, so diagrams
    differing only by id relabeling encode identically.
    """
    idx = dg._index
    if idx.negative:
        raise NotPositive("the permutation encoding needs an all-positive diagram")
    pair = object.__new__(PermutationPair)  # the index's successor lists, proved permutations: no re-sort
    init_field(pair, "sigma_x", tuple(idx.x_next[1:]))
    init_field(pair, "sigma_y", tuple(idx.y_next[1:]))
    return pair


def _cycles(sigma: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], ...], list[int]]:
    cycle_of, cycles, start = [1, *repeat(0, len(sigma)), 0], [], 0  # per crossing 0..d its cycle's number, 0's 1
    while (start := cycle_of.index(0, start + 1)) <= len(sigma):  # the least crossing on no cycle yet, or the last 0
        cycle, c, n = [], start, len(cycles) + 1
        while not cycle_of[c]:
            cycle_of[c] = n
            cycle.append(c)
            c = sigma[c - 1]
        cycles.append(tuple(cycle))
    return tuple(cycles), cycle_of[:-1]


def montesinos_decode(p: PermutationPair) -> Diagram:
    """Rebuild the positive diagram with the given successor permutations.

    Curves are the permutation cycles (listed from their smallest
    crossing), all signs are +1, and the declared genus is the forced
    rotation genus, summed over components when the pair is intransitive.
    """
    (x_curves, x_of), (y_curves, _) = _cycles(p.sigma_x), _cycles(p.sigma_y)
    signs = SignRun(p.degree)
    if not p.degree:
        return Diagram(0, x_curves, y_curves, signs)
    index = _crossing_index(0, x_curves, y_curves, signs, ([0, *p.sigma_x], [0, *p.sigma_y], x_of))
    dg = Diagram(_forced_genus(index), x_curves, y_curves, signs)
    dg.__dict__.update(_index=index, _violations=())  # fills both caches; no entry of the index reads the genus
    return dg


def to_dot(dg: Diagram) -> str:
    """Diagnostic DOT rendering of the 4-valent graph with colored curve edges."""
    lines = ["graph diagram {"]
    for color, side, curves in (("red", "x", dg.x_curves), ("blue", "y", dg.y_curves)):
        for idx, curve in enumerate(curves, start=1):
            for c, nxt in zip(curve, curve[1:] + curve[:1]):
                lines.append(f'  "{c}" -- "{nxt}" [color={color}, label="{side}{idx}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
