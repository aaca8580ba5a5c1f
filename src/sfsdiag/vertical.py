"""Constructive positive diagrams for vertical splittings over the sphere.

The base sphere is cut into a chain: disks D_1, ..., D_{r-1} in a row,
squares F_1, ..., F_{r-2} joining consecutive disks, and a single outer
disk E carrying the last fiber.  The D-side handlebody is the chain of
filled solid tori joined through the squares (genus r-1); its meridians
are the filling curves X_1, ..., X_{r-1}.  The E-side meridians are the
filling curve Y_1 of E together with one vertical rectangle per square.
With the slope numerators chosen to alternate in sign along the chain and
positive on E, every intersection can be oriented positively:

* each X_i is the (alpha_i, |beta'_i|)-weighted curve on its torus, laid
  out as alpha_i horizontal strands and |beta'_i| full fiber strands
  joined at one switch;
* Y_1 runs alpha_E parallel passes around the whole chain plus beta'_E
  fiber strands over D_1, joined at its own switch;
* the rectangle boundaries cross only the horizontal strands of the two
  adjacent X curves.

The resulting crossing orders are read off the explicit layout, so the
combinatorics embeds in the genus r-1 surface; the forced rotation genus
is checked to equal the declared one.  Correctness is pinned by exact
oracles: the algebraic intersection matrix must present the same first
homology as the input invariants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd

from .diagram import Diagram, diagram_homology, intersection_matrix, is_positive_diagram, rotation_genus, validate
from .errors import BaseGenusUnsupported, SynthesisInvariantViolation
from .seifert import FiberInvariant, SeifertData, denormalize, homology, normalize


@dataclass(frozen=True)
class ChainPlan:
    """The chain cell decomposition driving the construction.

    ``d_fibers`` lists the fiber slots placed on the disk path in order
    (always ``0..r-2``), ``e_fiber`` the slot on the single outer disk
    (always ``r-1``).  ``squares[q]`` joins ``d_fibers[q]`` to
    ``d_fibers[q+1]``; the disk graph is that path (a tree), the outer
    graph a wedge of ``r-2`` loops, so every square carries an E-side
    vertical disk (``b_squares``) and none carries a D-side one
    (``a_squares`` empty).  ``sign_pattern`` alternates ``+,-,...`` along
    the path and requires ``+`` on the outer disk, which is exactly what
    makes every crossing orientable positively.
    """

    r: int
    d_fibers: tuple[int, ...]
    e_fiber: int
    squares: tuple[tuple[int, int], ...]
    sign_pattern: tuple[str, ...]
    b_squares: tuple[int, ...]
    a_squares: tuple[int, ...] = ()

    def __post_init__(self):
        if self.r < 3:
            raise ValueError("chain plans need at least three fiber slots")
        if self.d_fibers != tuple(range(self.r - 1)) or self.e_fiber != self.r - 1:
            raise ValueError("chain plans place fibers in input order, last on E")
        if self.squares != tuple((q, q + 1) for q in range(self.r - 2)):
            raise ValueError("chain plans join consecutive disks")
        if len(self.sign_pattern) != self.r:
            raise ValueError("one sign per fiber slot required")
        for q in range(self.r - 2):
            if self.sign_pattern[q] == self.sign_pattern[q + 1]:
                raise ValueError("adjacent disk slots need opposite signs")
        if self.sign_pattern[self.r - 1] != "+":
            raise ValueError("the outer-disk slot must be positive")
        if self.sign_pattern[0] != "+":
            raise ValueError("the fiber-strand anchor slot must be positive")
        if self.b_squares != tuple(range(self.r - 2)) or self.a_squares != ():
            raise ValueError("every square carries exactly the E-side vertical disk")


def plan_decomposition(m: int) -> ChainPlan:
    """Deterministic chain plan for ``m`` fibers, padded up to three slots."""
    if m < 0:
        raise ValueError("fiber count must be nonnegative")
    r = max(m, 3)
    signs = tuple("+" if i % 2 == 0 else "-" for i in range(r - 1)) + ("+",)
    return ChainPlan(
        r=r,
        d_fibers=tuple(range(r - 1)),
        e_fiber=r - 1,
        squares=tuple((q, q + 1) for q in range(r - 2)),
        sign_pattern=signs,
        b_squares=tuple(range(r - 2)),
    )


def assign_betas(s: SeifertData, plan: ChainPlan) -> tuple[FiberInvariant, ...]:
    """Non-normalized slopes matching the plan's sign pattern.

    Keeps every numerator in its residue class, realizes the required
    signs, and preserves the floor sum, so the padded data still describes
    the input space.  A chain pattern always has a positive and a negative
    slot, so any floor-sum deficit is absorbable and this never fails.
    """
    n = normalize(s)
    if len(n.fibers) > plan.r:
        raise ValueError("plan has fewer slots than the space has fibers")
    return denormalize(n, plan.sign_pattern).fibers


def _strand_cycle(a: int, b: int, hdir: int) -> list[tuple[str, int]]:
    """Traversal order of the strands of an (a, b) torus curve.

    The curve is laid out as ``a`` horizontal strands (levels 0..a-1,
    bottom to top) and ``b`` vertical strands (slots 0..b-1, left to
    right) joined at one switch; ``hdir`` is the horizontal travel
    direction (+1 rightward, -1 leftward) and vertical strands always
    travel upward.  The switch connects the strands the way the cut-open
    (a, b) torus line does, which is the unique crossing-free filling of
    the switch box; coprimality makes the result a single cycle.
    """
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


def synthesize_diagram(plan: ChainPlan, betas) -> Diagram:
    """Assemble the positive diagram for the chain layout.

    ``betas`` are the padded non-normalized slopes produced by
    :func:`assign_betas`.  Crossing families, with ids assigned in this
    order:

    * fiber strands of X_i against the chain passes of Y_1
      (``|beta'_i| * alpha_E`` each),
    * horizontal strands of X_1 against the fiber strands of Y_1
      (``alpha_1 * beta'_E``),
    * horizontal strands of X_q and X_{q+1} against rectangle q
      (``alpha_q + alpha_{q+1}``).

    The algebraic intersection matrix this produces is verified against
    the abelianized filling relations before returning.
    """
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
        for kind, idx in _strand_cycle(alphas[i], bmag[i], hdirs[i]):
            if kind == "h":
                seq.extend(x_horizontal_events(i, idx))
            else:
                seq.extend(a_id[(i, idx, p)] for p in range(a_e))
        x_curves.append(tuple(seq))

    y_main: list[int] = []
    for kind, idx in _strand_cycle(a_e, b_e, -1):
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
    dg = Diagram(beads, tuple(x_curves), tuple(y_curves), tuple(zip(range(1, d + 1), [1] * d)))

    try:
        got = intersection_matrix(dg)
    except ValueError:
        raise SynthesisInvariantViolation(f"structural defect: {validate(dg)[0]}") from None
    target = [[bmag[i] * a_e for i in range(beads)]] + [[0] * beads for _ in range(r - 2)]
    target[0][0] += alphas[0] * b_e
    for q in range(r - 2):
        target[1 + q][q] = alphas[q]
        target[1 + q][q + 1] = alphas[q + 1]
    if got.entries != tuple(map(tuple, target)):
        raise SynthesisInvariantViolation("intersection matrix mismatch")
    return dg


def build_positive_vertical(s: SeifertData) -> Diagram:
    """Verified positive diagram of genus ``max(m, 3) - 1`` for the
    vertical splitting of a space over the sphere.

    Runs plan, slope assignment, and synthesis, then checks the produced
    diagram against independent oracles: all signs positive, curve counts,
    declared genus and forced rotation genus all equal to the plan genus,
    and first homology equal to that of the input invariants.  All of
    them read the diagram's one crossing index, built during synthesis.
    """
    if s.base_genus != 0:
        raise BaseGenusUnsupported(
            f"vertical construction covers base genus 0 only, got {s.base_genus}"
        )
    n = normalize(s)
    plan = plan_decomposition(len(n.fibers))
    betas = assign_betas(n, plan)
    dg = synthesize_diagram(plan, betas)

    genus = plan.r - 1
    if not is_positive_diagram(dg):
        raise SynthesisInvariantViolation("built diagram has a negative crossing")
    if len(dg.x_curves) != genus or len(dg.y_curves) != genus or dg.declared_genus != genus:
        raise SynthesisInvariantViolation("curve counts disagree with the plan genus")
    if rotation_genus(dg) != genus:
        raise SynthesisInvariantViolation("forced rotation genus differs from the plan genus")
    if not diagram_homology(dg).same_group(homology(n)):
        raise SynthesisInvariantViolation("diagram homology disagrees with the invariants")
    return dg
