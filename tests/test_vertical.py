import hashlib
import json
import random
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import S3, dict_synthesize, hom_count, strand_cycle, walk_strand_cycle
from sfsdiag import vertical
from sfsdiag.diagram import (
    diagram_homology,
    diagram_presentation,
    is_positive_diagram,
    rotation_genus,
    validate,
)
from sfsdiag.errors import BaseGenusUnsupported, CrossingBudgetExceeded, SynthesisInvariantViolation, UnsatisfiablePattern
from sfsdiag.presentation import Presentation, abelianization
from sfsdiag.seifert import FiberInvariant, SeifertData, homology, normalize, sfs_presentation
from sfsdiag.vertical import (
    ChainPlan,
    _strand_order,
    assign_betas,
    build_positive_vertical,
    plan_decomposition,
    synthesize_diagram,
)

COPRIME_FIBERS = [(a, b) for a in range(2, 6) for b in range(1, a) if gcd(a, b) == 1]


class TestPlan:
    def test_minimal_plan(self):
        plan = plan_decomposition(3)
        assert plan == ChainPlan(3)
        assert plan.sign_pattern == ("+", "-", "+")

    def test_four_fibers(self):
        plan = plan_decomposition(4)
        assert plan.r == 4
        assert plan.sign_pattern == ("+", "-", "+", "+")

    def test_padding(self):
        assert plan_decomposition(0).r == 3
        assert plan_decomposition(2).r == 3
        with pytest.raises(ValueError):
            plan_decomposition(-1)

    def test_alternation_enforced(self):
        # alternating along the disk path, + at both ends: the anchor slot
        # and the outer disk
        for m in range(12):
            r = max(m, 3)
            pattern = plan_decomposition(m).sign_pattern
            assert len(pattern) == r
            assert pattern[0] == pattern[r - 1] == "+"
            assert all(pattern[q] != pattern[q + 1] for q in range(r - 2))

    @pytest.mark.parametrize("r", [-1, 0, 1, 2])
    def test_fewer_than_three_slots_rejected(self, r):
        with pytest.raises(ValueError, match="at least three fiber slots"):
            ChainPlan(r)


class TestAssignBetas:
    def test_worked_example_chain_signs(self):
        # chain pattern is (+,-,+,+); the whole deficit lands on the one
        # negative slot
        n = SeifertData.normalized(0, [(4, 1), (3, 2), (5, 3), (2, 1)], 5)
        betas = assign_betas(n, plan_decomposition(4))
        assert [(f.alpha, f.beta) for f in betas] == [(4, 1), (3, -13), (5, 3), (2, 1)]

    def test_padded_trivial_space(self):
        n = SeifertData.normalized(0, [], 0)
        betas = assign_betas(n, plan_decomposition(0))
        assert [f.alpha for f in betas] == [1, 1, 1]
        assert [1 if f.beta > 0 else -1 for f in betas] == [1, -1, 1]
        assert sum(f.beta // f.alpha for f in betas) == 0

    def test_half_fibers(self):
        n = SeifertData.normalized(0, [(2, 1), (2, 1), (2, 1)], 1)
        betas = assign_betas(n, plan_decomposition(3))
        assert [1 if f.beta > 0 else -1 for f in betas] == [1, -1, 1]
        assert sum(f.beta // f.alpha for f in betas) == -1

    def test_always_succeeds(self):
        rng = random.Random(21)
        for _ in range(300):
            m = rng.randint(0, 7)
            n = SeifertData.normalized(
                0, [rng.choice(COPRIME_FIBERS) for _ in range(m)], rng.randint(-9, 9)
            )
            plan = plan_decomposition(m)
            try:
                betas = assign_betas(n, plan)
            except UnsatisfiablePattern:
                pytest.fail(f"chain assignment failed for {n.to_json()}")
            assert normalize(SeifertData(0, betas, None)) == n
            for f, kind in zip(betas, plan.sign_pattern):
                assert (f.beta > 0) == (kind == "+")
                assert gcd(f.alpha, f.beta) == 1


def tagged(a: int, b: int, hdir: int) -> list[tuple[str, int]]:
    """:func:`_strand_order` as the ``("h", level)`` and ``("v", slot)`` strands the synthesizer
    lays out: strand ``s >= a`` is slot ``a+b-1-s`` travelling rightward, ``s-a`` leftward."""
    n = a + b
    return [("h", s) if s < a else ("v", n - 1 - s if hdir > 0 else s - a) for s in _strand_order(a, b)]


class TestStrandCycle:
    @pytest.mark.parametrize("a,b", [(1, 1), (1, 4), (3, 2), (2, 3), (5, 3), (4, 7)])
    @pytest.mark.parametrize("hdir", [1, -1])
    def test_single_cycle_visits_all(self, a, b, hdir):
        assert sorted(_strand_order(a, b)) == list(range(a + b))
        cycle = tagged(a, b, hdir)
        assert len(cycle) == a + b
        assert sorted(c for c in cycle if c[0] == "h") == [("h", k) for k in range(a)]
        assert sorted(c for c in cycle if c[0] == "v") == [("v", v) for v in range(b)]

    @pytest.mark.parametrize("slopes", [((2, 4), (3, -1), (3, 1)), ((3, 1), (4, -2), (5, 2)), ((3, 1), (3, -1), (6, 3))])
    def test_non_coprime_slopes_fail_the_index_proof(self, slopes):
        # FiberInvariant makes every slope coprime; duck-typed slopes that are not leave the strand
        # rotation more than one cycle, and the crossing index refuses the curves it gives
        betas = [SimpleNamespace(alpha=a, beta=b) for a, b in slopes]
        with pytest.raises(SynthesisInvariantViolation, match="structural defect: invalid diagram: Duplicate"):
            synthesize_diagram(ChainPlan(3), betas)


def test_strand_rotation_matches_the_switch_walk():
    for a in range(1, 201):
        for b in range(1, 201):
            if gcd(a, b) == 1:
                for hdir in (1, -1):
                    assert tagged(a, b, hdir) == walk_strand_cycle(a, b, hdir) == strand_cycle(a, b, hdir), (a, b, hdir)
    # the synthesizer's slopes are positive and coprime, so only the two oracle walks check their counts
    for a, b in [(0, 1), (3, 0), (2, 4)]:
        errors = []
        for strands in (walk_strand_cycle, strand_cycle):
            with pytest.raises(ValueError) as exc:
                strands(a, b, 1)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


class TestSynthesize:
    def test_trivial_fibers_give_sphere(self):
        # 1/1, -1/1, 1/1 is the 3-sphere; genus-2 positive diagram
        plan = plan_decomposition(0)
        betas = assign_betas(SeifertData.normalized(0, [], -1), plan)
        dg = synthesize_diagram(plan, betas)
        assert dg.declared_genus == 2
        assert is_positive_diagram(dg)
        h = diagram_homology(dg)
        assert h.free_rank == 0 and h.torsion == ()

    def test_sign_pattern_enforced(self):
        plan = plan_decomposition(3)
        with pytest.raises(ValueError):
            synthesize_diagram(
                plan,
                SeifertData.non_normalized(0, [(2, 1), (3, 2), (5, 1)]).fibers,
            )

    def test_zero_slope_on_a_minus_slot_refused(self):
        # a - slot needs beta' < 0: beta' = 0 would leave X_1 without fiber strands
        betas = (FiberInvariant(2, 1), FiberInvariant(1, 0), FiberInvariant(3, 1))
        with pytest.raises(ValueError, match=r"^slope 1 has sign 0 against pattern -$"):
            synthesize_diagram(ChainPlan(3), betas)

    def test_wrong_slope_count_refused(self):
        betas = (FiberInvariant(2, 1), FiberInvariant(1, -1))
        with pytest.raises(ValueError, match="^expected 3 slopes, got 2$"):
            synthesize_diagram(ChainPlan(3), betas)


@st.composite
def sphere_spaces(draw, m_range=(0, 8), max_alpha=60):
    """Sphere-base spaces with ``m_range`` fibers (fewer than 3 are padded)."""
    fibers = []
    for _ in range(draw(st.integers(*m_range))):
        a = draw(st.integers(2, max_alpha))
        fibers.append((a, draw(st.sampled_from([b for b in range(1, a) if gcd(a, b) == 1]))))
    return SeifertData.normalized(0, fibers, draw(st.integers(-5, 5)))


def check_synthesis_matches_dict_assembly(s):
    n = normalize(s)
    plan = plan_decomposition(len(n.fibers))
    betas = assign_betas(n, plan)
    got = json.dumps(synthesize_diagram(plan, betas).to_json())
    assert got == json.dumps(dict_synthesize(plan, betas).to_json())


@given(sphere_spaces())
@settings(max_examples=150, deadline=None)
def test_synthesis_matches_dict_assembly(s):
    check_synthesis_matches_dict_assembly(s)


@given(sphere_spaces((100, 140), 7))
@settings(max_examples=10, deadline=None)
def test_wide_synthesis_matches_dict_assembly(s):
    """100-140 fibers with alpha 2-7, as ``build-wide`` draws them: most
    X curves meet a rectangle on either side."""
    check_synthesis_matches_dict_assembly(s)


@cache
def deep_cases() -> tuple:
    """Twenty seeded spaces of 3-6 fibers with alpha 30-60 (d about 4,600-21,300), by increasing d,
    each with its plan, slopes and the dict assembly's diagram (equal diagrams write equal JSON)."""
    rng, cases = random.Random(31), []
    for _ in range(20):
        alphas = [rng.randint(30, 60) for _ in range(rng.randint(3, 6))]
        fibers = [(a, rng.choice([b for b in range(1, a) if gcd(a, b) == 1])) for a in alphas]
        s = SeifertData.normalized(0, fibers, rng.randint(-5, 5))
        plan = plan_decomposition(len(fibers))
        betas = assign_betas(normalize(s), plan)
        dg = dict_synthesize(plan, betas)
        cases.append((dg.crossing_count, s, plan, betas, dg))
    return tuple(sorted(cases, key=lambda case: case[0]))


def crossing_orders(cases) -> dict:
    """``cases`` by decreasing, increasing and interleaved d (largest, smallest, next largest, ...)."""
    interleaved = [case for pair in zip(cases[::-1], cases) for case in pair][:len(cases)]
    return {"descending": cases[::-1], "ascending": cases, "interleaved": interleaved}


def curve_ids(dg) -> list[int]:
    return [c for curves in (dg.x_curves, dg.y_curves) for curve in curves for c in curve]


class TestSharedIds:
    """Every build slices one id list that the module keeps and grows to the largest d built."""

    def test_consecutive_builds_hold_the_same_int_objects(self):
        # the larger build first, so the second slices the list the first kept; ids up to 256 are
        # CPython's cached small ints and prove nothing
        big, small = (build_positive_vertical(deep_cases()[k][1]) for k in (-1, 0))
        kept = {c: c for c in curve_ids(big)}
        shared = [c for c in curve_ids(small) if c > 256]
        assert len(shared) == 2 * (small.crossing_count - 256)
        assert all(c is kept[c] and c is vertical._IDS[0][c] for c in shared)

    @pytest.mark.parametrize("order", ["descending", "ascending", "interleaved"])
    def test_builds_in_any_crossing_order_match_dict_assembly(self, order, monkeypatch):
        monkeypatch.setattr(vertical, "_IDS", [[]])
        for d, _, plan, betas, want in crossing_orders(deep_cases())[order]:
            assert synthesize_diagram(plan, betas) == want
            assert len(vertical._IDS[0]) > d

    @pytest.mark.parametrize("spare", [-1, 0, 1])
    def test_a_list_of_d_ids_is_grown_and_one_of_d_plus_one_is_sliced(self, spare, monkeypatch):
        # ids 0..d-1 miss the last crossing; ids 0..d and 0..d+1 hold every one
        for d, _, plan, betas, want in deep_cases()[:3]:
            pool = list(range(d + 1 + spare))
            monkeypatch.setattr(vertical, "_IDS", [pool])
            assert synthesize_diagram(plan, betas) == want
            assert (vertical._IDS[0] is pool) == (spare >= 0)

    def test_concurrent_builds_match_serial_builds(self, monkeypatch):
        # four threads race to grow the list, each in its own crossing order; the dict assembly is
        # what a serial build gives (test_builds_in_any_crossing_order_match_dict_assembly)
        cases = deep_cases()
        orders = [*crossing_orders(cases).values(), random.Random(37).sample(cases, len(cases))]
        monkeypatch.setattr(vertical, "_IDS", [[]])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            with ThreadPoolExecutor(4) as pool:
                built = list(pool.map(lambda order: [(synthesize_diagram(plan, betas), want)
                                                     for _, _, plan, betas, want in order], orders, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(got == want for pairs in built for got, want in pairs)

    def test_a_build_after_a_larger_one_keeps_its_pinned_bytes(self, monkeypatch):
        # the deep space's console-script output is pinned by CI, which builds once per process
        monkeypatch.setattr(vertical, "_IDS", [[]])
        big = build_positive_vertical(
            SeifertData.normalized(0, [(97, 50), (89, 40), (83, 41), (79, 30), (73, 20), (71, 33)], -5))
        assert big.crossing_count == 61_525 and len(vertical._IDS[0]) > 61_525
        dg = build_positive_vertical(SeifertData.normalized(0, [(59, 37), (53, 29), (47, 31), (41, 17), (43, 20)], -3))
        text = json.dumps(dg.to_json(), separators=(",", ":")) + "\n"
        assert dg.crossing_count == 18_121
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "b66ad0da2133555bf4171ba61860b53438b3e3e0f4b0aa0b82c766f03e8b8a79"


class TestBuild:
    def test_worked_example(self):
        s = SeifertData.non_normalized(0, [(4, 1), (3, -4), (5, 3), (2, -5)])
        dg = build_positive_vertical(s)
        assert dg.declared_genus == 3
        assert len(dg.x_curves) == len(dg.y_curves) == 3
        assert is_positive_diagram(dg)
        assert diagram_homology(dg).order() == 358

    def test_positive_base_genus_rejected(self):
        with pytest.raises(BaseGenusUnsupported):
            build_positive_vertical(SeifertData.normalized(1, [(2, 1)], 0))

    def test_triangle_group_space(self):
        s = SeifertData.normalized(0, [(2, 1), (3, 1), (5, 1)], 1)
        dg = build_positive_vertical(s)
        assert dg.declared_genus == 2
        assert diagram_homology(dg).same_group(homology(s))

    def test_quaternionic_space(self):
        # torsion (2, 2) confirmed by the minor-gcd oracle on the
        # abelianized relation matrix
        s = SeifertData.normalized(0, [(2, 1), (2, 1), (2, 1)], 1)
        dg = build_positive_vertical(s)
        assert dg.declared_genus == 2
        assert is_positive_diagram(dg)
        h = diagram_homology(dg)
        assert h.torsion == (2, 2) and h.free_rank == 0

    def test_small_manifold_presentations(self):
        # the genus-2 words are simple enough to reduce by hand: with
        # x*y = 1 the long relator y^(2e+1) x^2 collapses to x^(1-2e) x^2,
        # so e = 1 kills the group (the 3-sphere) and e = 3 leaves Z/3
        dg = build_positive_vertical(SeifertData.normalized(0, [], 1))
        assert diagram_presentation(dg).relators == ((2, 2, 2, 1, 1), (1, 2))
        dg = build_positive_vertical(SeifertData.normalized(0, [], 3))
        assert diagram_presentation(dg).relators == ((2, 2, 2, 2, 2, 1, 1), (1, 2))

    def test_determinism(self):
        s = SeifertData.normalized(0, [(3, 2), (4, 3), (5, 1)], -2)
        one = json.dumps(build_positive_vertical(s).to_json(), sort_keys=False)
        two = json.dumps(build_positive_vertical(s).to_json(), sort_keys=False)
        assert one == two

    def test_oracle_sweep(self):
        rng = random.Random(23)
        for _ in range(80):
            m = rng.randint(0, 6)
            s = SeifertData.normalized(
                0, [rng.choice(COPRIME_FIBERS) for _ in range(m)], rng.randint(-5, 5)
            )
            dg = build_positive_vertical(s)
            r = max(m, 3)
            assert validate(dg) == []
            assert is_positive_diagram(dg)
            assert len(dg.x_curves) == len(dg.y_curves) == dg.declared_genus == r - 1
            assert rotation_genus(dg) == r - 1
            assert diagram_homology(dg).same_group(homology(s))


class TestS3Counts:
    """Homomorphism counts into S3, a homotopy invariant that H1 cannot see."""

    @given(
        st.lists(st.sampled_from([(a, b) for a in range(2, 10) for b in range(1, a) if gcd(a, b) == 1]),
                 min_size=3, max_size=4),
        st.integers(-3, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_built_presentation_counts_as_the_input(self, fibers, euler):
        s = SeifertData.normalized(0, fibers, euler)
        assert hom_count(diagram_presentation(build_positive_vertical(s)), S3) == hom_count(sfs_presentation(s), S3)

    def test_a_letter_swap_that_keeps_h1_changes_the_count(self):
        # {0; 3/4, 1/2, 1/2; e = 0}: swapping two adjacent distinct letters of the
        # second relator keeps every exponent sum, so only the S3 count sees it
        s = SeifertData.normalized(0, [(4, 3), (2, 1), (2, 1)], 0)
        p = diagram_presentation(build_positive_vertical(s))
        assert p.relators[1] == (1, 1, 1, 1, 2, 2)
        mutant = Presentation(2, (p.relators[0], (1, 1, 1, 2, 1, 2)))
        assert abelianization(mutant) == abelianization(p)
        assert hom_count(p, S3) == hom_count(sfs_presentation(s), S3) == 10
        assert hom_count(mutant, S3) == 16


class TestCrossingBudget:
    def test_predicted_count_is_the_built_count(self, monkeypatch):
        # the budget sits exactly at the built count: one below refuses
        rng = random.Random(29)
        for _ in range(40):
            m = rng.randint(0, 6)
            fibers = [rng.choice(COPRIME_FIBERS) for _ in range(m)]
            s = SeifertData.normalized(0, fibers, rng.randint(-5, 5))
            d = build_positive_vertical(s).crossing_count
            with monkeypatch.context() as patch:
                patch.setattr(vertical, "MAX_CROSSINGS", d - 1)
                with pytest.raises(CrossingBudgetExceeded, match=f"needs {d} crossings"):
                    build_positive_vertical(s)
                patch.setattr(vertical, "MAX_CROSSINGS", d)
                assert build_positive_vertical(s).crossing_count == d
