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

The crossing orders follow from the layout by arithmetic on the id range
(so their count is bounded before allocation) and embed in the genus r-1
surface; the forced rotation genus is checked to equal the declared one.
Exact oracles pin the result: the algebraic intersection matrix must
present the same first homology as the input invariants.
"""

from itertools import accumulate

from .diagram import Diagram, SignRun, diagram_homology, is_positive_diagram, rotation_genus
from .errors import BaseGenusUnsupported, CrossingBudgetExceeded, SynthesisInvariantViolation, Value, init_field, want
from .seifert import FiberInvariant, SeifertData, denormalize, homology, normalize


#: Largest crossing count :func:`synthesize_diagram` will allocate.
MAX_CROSSINGS = 1_000_000
_IDS = [[]]  # ids 0..d of the largest d built so far: every build slices the same int objects


class ChainPlan(Value):
    """The chain cell decomposition driving the construction.

    Of the ``r`` fiber slots, ``0..r-2`` sit in input order on the disk
    path and ``r-1`` on the single outer disk.  Square ``q`` joins disks
    ``q`` and ``q+1``; the disk graph is that path (a tree), the outer
    graph a wedge of ``r-2`` loops, so every square carries an E-side
    vertical disk and none carries a D-side one.
    """

    __slots__ = ("r",)

    def __init__(self, r: int):
        if want(r, int, "r") < 3:
            raise ValueError("chain plans need at least three fiber slots")
        init_field(self, "r", r)

    @property
    def sign_pattern(self) -> tuple[str, ...]:
        """``+,-,...`` along the path and ``+`` on the outer disk: exactly
        what makes every crossing orientable positively."""
        return tuple("+-"[i % 2] for i in range(self.r - 1)) + ("+",)


def plan_decomposition(m: int) -> ChainPlan:
    """Deterministic chain plan for ``m`` fibers, padded up to three slots."""
    if want(m, int, "m") < 0:
        raise ValueError("fiber count must be nonnegative")
    return ChainPlan(max(m, 3))


def assign_betas(s: SeifertData, plan: ChainPlan) -> tuple[FiberInvariant, ...]:
    """Non-normalized slopes of normalized ``s`` in the plan's sign pattern.

    Keeps every numerator in its residue class, realizes the required
    signs, and preserves the floor sum, so the padded data still describes
    the input space.  A chain pattern always has a positive and a negative
    slot, so any floor-sum deficit is absorbable and this never fails.
    """
    return denormalize(s, plan.sign_pattern).fibers


def _strand_order(a: int, b: int) -> list[int]:
    """Traversal order of the ``a + b`` strands of an (a, b) torus curve, ``a`` and ``b`` positive and coprime.

    The curve is laid out as ``a`` horizontal strands (levels 0..a-1,
    bottom to top) and ``b`` vertical strands (slots 0..b-1, left to
    right, travelling upward) joined at one switch, the way the cut-open
    (a, b) torus line does: the unique crossing-free filling of the switch
    box.  That line is the rotation ``s -> s + b mod a+b`` of strand ``s``
    from 0, level ``s`` if ``s < a``, else slot ``a+b-1-s`` when the levels
    travel rightward and ``s-a`` when leftward; coprimality makes it one cycle.
    """
    n = a + b
    return [k * b % n for k in range(n)]


def synthesize_diagram(plan: ChainPlan, betas) -> Diagram:
    """Assemble the positive diagram for the chain layout.

    ``betas`` are the padded non-normalized slopes produced by
    :func:`assign_betas`.  Crossing ids are contiguous per family, in
    this order:

    * fiber strand ``v`` of X_i against chain pass ``p`` of Y_1 is
      ``a0[i] + v * alpha_E + p`` (``|beta'_i| * alpha_E`` each),
    * horizontal strand ``k`` of X_1 against fiber strand ``v`` of Y_1 is
      ``b0 + k * beta'_E + v`` (``alpha_1 * beta'_E``),
    * rectangle q meets the horizontal strands of X_q, then of X_{q+1},
      from ``c0[q]`` on (``alpha_q + alpha_{q+1}``).

    Every curve is a run of slices at these offsets of one id list, kept and shared by all builds, an X
    curve's in the :func:`_strand_order` of its ``(alpha, |beta'|)``, found once
    per pair, so the crossing count is known before anything is allocated; above
    :data:`MAX_CROSSINGS` it raises :class:`CrossingBudgetExceeded`.  The
    algebraic intersection matrix this produces is verified against the
    abelianized filling relations before returning.
    """
    r = plan.r
    betas = tuple(betas)
    if len(betas) != r:
        raise ValueError(f"expected {r} slopes, got {len(betas)}")
    for i, (f, sign) in enumerate(zip(betas, plan.sign_pattern)):
        if not f.beta or (f.beta > 0) != (sign == "+"):
            raise ValueError(f"slope {i} has sign {f.beta} against pattern {sign}")

    alphas = [f.alpha for f in betas]
    bmag = [abs(f.beta) for f in betas]
    hdirs = [1 if f.beta > 0 else -1 for f in betas]
    beads = r - 1
    a_e, b_e = alphas[r - 1], bmag[r - 1]

    a0 = list(accumulate([b * a_e for b in bmag[:beads]], initial=1))
    b0 = a0[beads]
    c0 = list(accumulate([alphas[q] + alphas[q + 1] for q in range(r - 2)], initial=b0 + alphas[0] * b_e))
    d = c0[r - 2] - 1
    if d > MAX_CROSSINGS:
        raise CrossingBudgetExceeded(f"the diagram needs {d} crossings, above the limit of {MAX_CROSSINGS}")

    if len(ids := _IDS[0]) <= d:  # grown by binding a new list, never in place: a concurrent build keeps its own
        ids = _IDS[0] = list(range(d + 1))
    orders = {pair: _strand_order(*pair) for pair in dict.fromkeys(zip(alphas, bmag))}
    x_curves = []
    for i in range(beads):
        a, n = alphas[i], alphas[i] + bmag[i]
        # horizontal strand k ends on rectangle i (right) and i-1 (left), met in travel order
        ends = ids[c0[i]:c0[i] + a] if i <= r - 3 else [], ids[c0[i] - a:c0[i]] if i else []
        first, last = ends if hdirs[i] > 0 else ends[::-1]
        seq: list[int] = []
        for s in orders[a, bmag[i]]:
            if s >= a:  # fiber strand: slot n-1-s travelling rightward, s-a leftward
                v = n - 1 - s if hdirs[i] > 0 else s - a
                seq += ids[a0[i] + v * a_e:a0[i] + (v + 1) * a_e]
                continue
            seq += first[s:s + 1]
            if i == 0:
                seq += ids[b0 + s * b_e:b0 + (s + 1) * b_e]
            seq += last[s:s + 1]
        x_curves.append(tuple(seq))

    # a chain pass meets the fiber strands of X_{r-1}, ..., X_1 in turn,
    # each from its last strand down: every a_e-th A id, descending
    y_main: list[int] = []
    for s in orders[a_e, b_e]:
        y_main += ids[b0 - a_e + s:s:-a_e] if s < a_e else ids[b0 + s - a_e:c0[0]:b_e]
    y_curves = [tuple(y_main)]

    for q in range(r - 2):
        mid = c0[q] + alphas[q]
        if hdirs[q] > 0:
            y_curves.append((*ids[c0[q]:mid], *ids[c0[q + 1] - 1:mid - 1:-1]))
        else:
            y_curves.append((*ids[mid - 1:c0[q] - 1:-1], *ids[mid:c0[q + 1]]))

    (dg := Diagram(beads, tuple(x_curves), tuple(y_curves), SignRun(d))).__dict__["_ints"] = True  # int ids: no scan

    try:
        got = dg._index.matrix
    except ValueError as exc:
        raise SynthesisInvariantViolation(f"structural defect: {exc}") from None
    # nonzeros of the intersection matrix by generator, Y_1 then one row per rectangle
    target = [{gen: b * a_e for gen, b in enumerate(bmag[:beads], start=1)}]
    target[0][1] += alphas[0] * b_e
    target += ({q + 1: alphas[q], q + 2: alphas[q + 1]} for q in range(r - 2))
    if got != target:
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
