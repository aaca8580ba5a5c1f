import json
import random
from collections import Counter
from itertools import combinations_with_replacement
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfsdiag.errors import InvalidInvariant, UnsatisfiablePattern
from sfsdiag import seifert
from sfsdiag.presentation import abelianization
from sfsdiag.seifert import (
    FiberInvariant,
    HorizontalFamily,
    SeifertData,
    denormalize,
    genus_report,
    homology,
    horizontal_family,
    normalize,
    rational_euler,
    sfs_presentation,
    vertical_genus_bound,
)

from helpers import (
    denormalize_by_cases,
    det,
    least_positive_residue,
    outcome,
    rational_euler_by_fractions,
    tied_family_by_removal,
    tied_status_by_triples,
)

COPRIME_FIBERS = [(a, b) for a in range(2, 6) for b in range(1, a) if gcd(a, b) == 1]
WIDE_COPRIME_FIBERS = [(a, b) for a in range(2, 10) for b in range(1, a) if gcd(a, b) == 1]


def random_normalized(rng, max_genus=2, max_fibers=5, max_euler=5):
    m = rng.randint(0, max_fibers)
    return SeifertData.normalized(
        rng.randint(0, max_genus),
        [rng.choice(COPRIME_FIBERS) for _ in range(m)],
        rng.randint(-max_euler, max_euler),
    )


class TestData:
    def test_fiber_gcd_enforced(self):
        with pytest.raises(InvalidInvariant):
            FiberInvariant(4, 2)

    def test_normalized_range_enforced(self):
        with pytest.raises(InvalidInvariant):
            SeifertData.normalized(0, [(3, 4)], 0)
        with pytest.raises(InvalidInvariant):
            SeifertData.normalized(0, [(1, 0)], 0)

    def test_json_round_trip(self):
        s = SeifertData.normalized(2, [(3, 2), (5, 1)], -1)
        assert SeifertData.from_json(s.to_json()) == s
        t = SeifertData.non_normalized(0, [(4, -7), (1, 3)])
        assert SeifertData.from_json(t.to_json()) == t

    @pytest.mark.parametrize("doc,message", [
        ({"base_genus": "0", "mode": "non_normalized", "fibers": []},
         "$.base_genus: expected integer, got string"),
        ({"base_genus": 0, "mode": "non_normalized", "fibers": [{"alpha": 3, "beta": 1}, [3, 1]]},
         "$.fibers[1]: expected object, got list"),
        ({"base_genus": 0, "mode": "non_normalized", "fibers": [{"alpha": 3, "beta": None}]},
         "$.fibers[0].beta: expected integer, got null"),
        ({"base_genus": 0, "mode": "non_normalized", "fibers": {}},
         "$.fibers: expected list, got object"),
    ])
    def test_json_types_are_checked(self, doc, message):
        with pytest.raises(TypeError) as exc:
            SeifertData.from_json(doc)
        assert str(exc.value) == message

    def test_json_mode_consistency(self):
        with pytest.raises(ValueError):
            SeifertData.from_json({"base_genus": 0, "mode": "normalized", "fibers": []})
        with pytest.raises(ValueError):
            SeifertData.from_json(
                {"base_genus": 0, "mode": "non_normalized", "fibers": [], "euler": 1}
            )


class TestNormalize:
    def test_worked_example(self):
        s = SeifertData.non_normalized(0, [(4, 1), (3, -4), (5, 3), (2, -5)])
        n = normalize(s)
        assert n == SeifertData.normalized(0, [(4, 1), (3, 2), (5, 3), (2, 1)], 5)

    def test_integer_fibers_absorb(self):
        s = SeifertData.non_normalized(2, [(1, 3), (1, 5)])
        assert normalize(s) == SeifertData.normalized(2, [], -8)

    def test_residues(self):
        s = SeifertData.non_normalized(0, [(2, 1), (2, 1), (2, -1)])
        assert normalize(s) == SeifertData.normalized(0, [(2, 1), (2, 1), (2, 1)], 1)

    @given(st.lists(st.tuples(st.integers(1, 60), st.integers(-10**6, 10**6)), max_size=6))
    def test_residues_are_least_positive(self, pairs):
        fibers = [(a, b) for a, b in pairs if gcd(a, b) == 1]
        n = normalize(SeifertData.non_normalized(0, fibers))
        assert [(f.alpha, f.beta) for f in n.fibers] == [(a, least_positive_residue(b, a)) for a, b in fibers if a > 1]

    def test_idempotent(self):
        rng = random.Random(2)
        for _ in range(50):
            n = random_normalized(rng)
            assert normalize(n) == n


class TestDenormalize:
    def test_worked_sign_pattern(self):
        n = SeifertData.normalized(0, [(4, 1), (3, 2), (5, 3), (2, 1)], 5)
        d = denormalize(n, ("+", "-", "+", "-"))
        assert [(f.alpha, f.beta) for f in d.fibers] == [(4, 1), (3, -4), (5, 3), (2, -5)]

    def test_all_free_identity_embedding(self):
        n = SeifertData.normalized(0, [(4, 1), (3, 2)], 3)
        d = denormalize(n, ("free", "free", "free"), absorber_index=2)
        assert [(f.alpha, f.beta) for f in d.fibers] == [(4, 1), (3, 2), (1, -3)]
        assert normalize(d) == n

    def test_small_search_case(self):
        n = SeifertData.normalized(0, [(2, 1), (2, 1), (2, 1)], 1)
        d = denormalize(n, ("+", "-", "+"))
        signs = [1 if f.beta > 0 else -1 for f in d.fibers]
        assert signs == [1, -1, 1]
        assert sum(f.beta // f.alpha for f in d.fibers) == -1

    def test_unsatisfiable_pattern(self):
        n = SeifertData.normalized(0, [(2, 1), (2, 1)], 5)
        with pytest.raises(UnsatisfiablePattern):
            denormalize(n, ("+", "+"))  # deficit is negative, no slot takes it

    def test_absorber_sign_clash(self):
        n = SeifertData.normalized(0, [(2, 1), (2, 1)], 5)
        with pytest.raises(UnsatisfiablePattern):
            denormalize(n, ("+", "-"), absorber_index=0)

    def test_absorber_round_trips(self):
        rng = random.Random(14)
        for _ in range(100):
            n = random_normalized(rng)
            m = len(n.fibers)
            pattern = ["free"] * (m + 1)
            absorber = rng.randrange(m + 1)
            d = denormalize(n, pattern, absorber_index=absorber)
            assert normalize(d) == n
            for i, f in enumerate(d.fibers):
                if i < m and i != absorber:
                    assert f.beta == n.fibers[i].beta

    def test_round_trip_random_patterns(self):
        rng = random.Random(4)
        for _ in range(200):
            n = random_normalized(rng)
            m = len(n.fibers)
            r = m + rng.randint(0, 2)
            if r == 0:
                r = 1
            pattern = [rng.choice("+-") for _ in range(r)]
            pattern[rng.randrange(r)] = "+"
            if r > 1:
                pattern[[i for i in range(r) if pattern[i] != "+"][0] if "-" in pattern else 1] = "-"
            try:
                d = denormalize(n, pattern)
            except UnsatisfiablePattern:
                assert "+" not in pattern or "-" not in pattern
                continue
            assert normalize(d) == n
            for f, kind in zip(d.fibers, pattern):
                if kind == "+":
                    assert f.beta > 0
                elif kind == "-":
                    assert f.beta < 0


@st.composite
def denormalize_calls(draw):
    """Spaces with 0-6 fibers (sometimes not normalized), patterns of every
    slot kind from one short of the fiber count to three padding slots
    beyond it (sometimes with an unknown kind), and absorbers in and out
    of range."""
    m = draw(st.integers(0, 6))
    fibers = [draw(st.sampled_from(WIDE_COPRIME_FIBERS)) for _ in range(m)]
    if draw(st.integers(0, 9)):
        s = SeifertData.normalized(draw(st.integers(0, 2)), fibers, draw(st.integers(-12, 12)))
    else:
        s = SeifertData.non_normalized(0, fibers)
    kinds = st.sampled_from(("+", "-", "free") * 6 + ("up",))
    pattern = draw(st.lists(kinds, min_size=max(m - 1, 0), max_size=m + 3))
    absorber = draw(st.one_of(st.none(), st.integers(-1, len(pattern))))
    return s, tuple(pattern), absorber


@given(denormalize_calls())
@settings(max_examples=600, deadline=None)
def test_denormalize_matches_case_by_case_representatives(call):
    s, pattern, absorber = call
    got = outcome(denormalize, s, pattern, absorber_index=absorber)
    assert got == outcome(denormalize_by_cases, s, pattern, absorber_index=absorber)


class TestPresentationAndHomology:
    def test_circle_bundle_presentation(self):
        p = sfs_presentation(SeifertData.normalized(0, [], 1))
        assert p.n_generators == 1
        assert p.relators == ((1,),)

    def test_relator_counts(self):
        p = sfs_presentation(SeifertData.normalized(0, [(2, 1), (2, 1), (2, 1)], 1))
        assert p.n_generators == 4
        assert len(p.relators) == 3 + 1 + 3

    def test_three_torus(self):
        p = sfs_presentation(SeifertData.normalized(1, [], 0))
        assert p.n_generators == 3
        assert p.relators == ((1, 2, -1, -2), (1, 3, -1, -3), (2, 3, -2, -3))

    def test_genus_one_two_fiber_presentation_word_by_word(self):
        # (1; 1/2, 2/3; e = -1): generators a, b, x_1, x_2, t are 1..5; a relabelling of
        # the x_i, which abelianization and homomorphism counts cannot see, changes these words
        p = sfs_presentation(SeifertData.normalized(1, [(2, 1), (3, 2)], -1))
        assert p.n_generators == 5
        assert p.relators == (
            (3, 3, 5),
            (4, 4, 4, 5, 5),
            (1, 2, -1, -2, 3, 4, -5),
            (1, 5, -1, -5), (2, 5, -2, -5), (3, 5, -3, -5), (4, 5, -4, -5),
        )

    def test_presentation_needs_normalized_input(self):
        with pytest.raises(ValueError, match="^sfs_presentation expects normalized input$"):
            sfs_presentation(SeifertData.non_normalized(0, [(2, 1)]))

    def test_three_torus_homology(self):
        h = homology(SeifertData.normalized(1, [], 0))
        assert h.free_rank == 3
        assert h.torsion == ()

    def test_worked_example_order(self):
        n = SeifertData.normalized(0, [(4, 1), (3, 2), (5, 3), (2, 1)], 5)
        # independent determinant of the abelianized relation matrix
        matrix = [
            [4, 0, 0, 0, 1],
            [0, 3, 0, 0, 2],
            [0, 0, 5, 0, 3],
            [0, 0, 0, 2, 1],
            [1, 1, 1, 1, 5],
        ]
        assert abs(det(matrix)) == 358
        assert homology(n).order() == 358

    def test_genus_two_circle_bundle(self):
        h = homology(SeifertData.normalized(2, [], 1))
        assert h.free_rank == 4
        assert h.torsion == ()

    def test_base_genus_adds_free_rank_only(self):
        # the a_j, b_j columns are zero: a base genus of 10**30 costs what genus 0 does
        fibers = [(2, 1), (3, 1), (5, 2)]
        for g in (1, 3, 10**30):
            h, h0 = homology(SeifertData.normalized(g, fibers, 1)), homology(SeifertData.normalized(0, fibers, 1))
            assert h.invariant_factors == h0.invariant_factors
            assert h.free_rank == h0.free_rank + 2 * g

    def test_matches_presentation_abelianization(self):
        rng = random.Random(6)
        for _ in range(60):
            n = random_normalized(rng)
            assert homology(n).same_group(abelianization(sfs_presentation(n)))

    def test_invariant_under_normalization(self):
        rng = random.Random(7)
        for _ in range(60):
            n = random_normalized(rng)
            pattern = ["+", "-"] + ["+" if i % 2 else "-" for i in range(len(n.fibers))]
            d = denormalize(n, pattern)
            assert homology(d).same_group(homology(n))

    def test_finite_order_matches_determinant(self):
        rng = random.Random(8)
        checked = 0
        while checked < 40:
            s = random_normalized(rng, max_genus=0)
            m = len(s.fibers)
            rows = []
            for i, f in enumerate(s.fibers):
                row = [0] * (m + 1)
                row[i] = f.alpha
                row[-1] = f.beta
                rows.append(row)
            rows.append([1] * m + [s.euler])
            d = det(rows)
            if d == 0:
                continue
            assert homology(s).order() == abs(d)
            checked += 1


class TestBoundsAndFamilies:
    @pytest.mark.parametrize(
        "g,m,expected", [(0, 4, 3), (0, 0, 1), (3, 5, 10), (1, 1, 3), (2, 0, 5)]
    )
    def test_vertical_bound(self, g, m, expected):
        fibers = [(2, 1)] * m
        # euler irrelevant for the bound
        assert vertical_genus_bound(SeifertData.normalized(g, fibers, 0)) == expected

    def test_family_1_1(self):
        s = SeifertData.normalized(0, [(2, 1), (2, 1), (2, 1), (3, 1)], 2)
        assert horizontal_family(s) == HorizontalFamily("1.1", n=1, fiber_count=4)

    def test_family_1_1_requires_euler(self):
        s = SeifertData.normalized(0, [(2, 1), (2, 1), (2, 1), (3, 1)], 1)
        assert horizontal_family(s) is None

    def test_family_2_1_plus(self):
        s = SeifertData.normalized(0, [(2, 1), (3, 1), (7, 1)], 1)
        assert horizontal_family(s) == HorizontalFamily("2.1", n=1, sign=1)

    def test_denominator_match_needs_numerator(self):
        # 11 = 6*2 - 1 but the numerator is 1, not 2: not of the
        # shape n/(6n-1), hence no family membership
        s = SeifertData.normalized(0, [(2, 1), (3, 1), (11, 1)], 1)
        assert horizontal_family(s) is None
        t = SeifertData.normalized(0, [(2, 1), (3, 1), (11, 2)], 1)
        assert horizontal_family(t) == HorizontalFamily("2.1", n=2, sign=-1)

    def test_family_2_2_via_permutation(self):
        s = SeifertData.normalized(0, [(2, 1), (3, 1), (4, 1)], 1)
        assert horizontal_family(s) == HorizontalFamily("2.2", n=1, sign=-1)

    def test_family_2_3(self):
        s = SeifertData.normalized(0, [(3, 1), (3, 1), (2, 1)], 1)
        assert horizontal_family(s) == HorizontalFamily("2.3", n=1, sign=-1)

    def test_family_1_2_from_non_normalized(self):
        for n, sign, data in [
            (5, 1, SeifertData.non_normalized(2, [(5, 1)])),
            (5, -1, SeifertData.non_normalized(2, [(5, -1)])),
            (1, -1, SeifertData.non_normalized(1, [(1, -1)])),
        ]:
            assert horizontal_family(data) == HorizontalFamily("1.2", n=n, sign=sign)

    def test_family_needs_positive_genus_for_1_2(self):
        assert horizontal_family(SeifertData.normalized(0, [], 1)) is None

    def test_tied_families_match_removal_on_every_small_triple(self):
        # every multiset of three normalized fibers with alpha <= 13 over the
        # sphere with e = 1, against removal from a list one fiber at a time
        fibers = [(a, b) for a in range(2, 14) for b in range(1, a) if gcd(a, b) == 1]
        for triple in combinations_with_replacement(fibers, 3):
            fam = horizontal_family(SeifertData.normalized(0, triple, 1))
            got = None if fam is None else (fam.family, fam.n, fam.sign)
            assert got == tied_family_by_removal(triple), triple


class TestGenusReport:
    def tag(self, s):
        return genus_report(s).case_tag

    def test_thm_a1_exact(self):
        rep = genus_report(SeifertData.normalized(0, [(2, 1)] * 3 + [(3, 1)], 2))
        assert (rep.hg, rep.phg_lo, rep.phg_hi, rep.exact) == (2, 3, 3, True)
        assert rep.case_tag == "ThmA1"
        assert json.dumps(rep.to_json(), separators=(",", ":")) == (
            '{"hg":2,"phg":[3,3],"exact":true,"case":"ThmA1"}'
        )

    def test_thm_a1_larger_n_exact(self):
        rep = genus_report(SeifertData.normalized(0, [(2, 1)] * 5 + [(5, 2)], 3))
        assert (rep.hg, rep.phg_lo, rep.phg_hi, rep.exact) == (4, 5, 5, True)

    def test_thm_a1_open_interval(self):
        rep = genus_report(SeifertData.normalized(0, [(2, 1)] * 5 + [(3, 1)], 3))
        assert (rep.hg, rep.phg_lo, rep.phg_hi, rep.exact) == (4, 4, 5, False)
        assert "open" in rep.notes

    def test_thm_a2(self):
        rep = genus_report(SeifertData.normalized(1, [], 1))
        assert (rep.hg, rep.phg_lo, rep.phg_hi, rep.exact) == (2, 3, 4, False)
        assert rep.case_tag == "ThmA2"

    def test_thm_a2_single_fiber(self):
        rep = genus_report(SeifertData.normalized(1, [(5, 1)], 0))
        assert rep.case_tag == "ThmA2"
        assert (rep.hg, rep.phg_lo, rep.phg_hi, rep.exact) == (2, 3, 4, False)
        rep = genus_report(SeifertData.normalized(2, [(7, 6)], 1))
        assert rep.case_tag == "ThmA2"
        assert (rep.hg, rep.phg_lo, rep.phg_hi) == (4, 5, 6)

    def test_thm_a3_m0(self):
        rep = genus_report(SeifertData.normalized(1, [], 3))
        assert rep.case_tag == "ThmA3"
        assert (rep.hg, rep.phg_lo, rep.phg_hi) == (3, 3, 4)
        assert "vertical lower bound" in rep.notes

    def test_thm_a3_m1(self):
        rep = genus_report(SeifertData.normalized(1, [(5, 2)], 0))
        assert rep.case_tag == "ThmA3"
        assert (rep.hg, rep.phg_lo, rep.phg_hi) == (2, 2, 3)

    def test_thm_a3_m2(self):
        rep = genus_report(SeifertData.normalized(2, [(3, 2), (5, 2)], 1))
        assert rep.case_tag == "ThmA3"
        assert (rep.hg, rep.phg_lo, rep.phg_hi) == (5, 5, 6)

    def test_generic_positive_genus(self):
        rep = genus_report(SeifertData.normalized(2, [(2, 1), (3, 1), (3, 2), (5, 2)], 1))
        assert (rep.hg, rep.phg_lo, rep.phg_hi, rep.exact) == (7, 7, 7, True)
        assert rep.case_tag == "Generic_gpos"

    def test_generic_sphere_base(self):
        rep = genus_report(SeifertData.normalized(0, [(2, 1), (3, 2), (5, 4)], 7))
        assert (rep.hg, rep.phg_lo, rep.phg_hi, rep.exact) == (2, 2, 2, True)
        assert rep.case_tag == "Generic_g0"

    def test_thm_b_statuses(self):
        cases = {
            ((2, 1), (3, 1), (5, 1)): "positive",
            ((2, 1), (3, 1), (4, 1)): "positive",
            ((3, 1), (3, 1), (2, 1)): "positive",
            ((2, 1), (3, 1), (7, 1)): "open",
            ((2, 1), (3, 1), (13, 2)): "not positive",  # 2/13 = n/(6n+1), n = 2
            ((2, 1), (4, 1), (5, 1)): "not positive",  # 1/5 = n/(4n+1), n = 1
        }
        for fibers, status in cases.items():
            rep = genus_report(SeifertData.normalized(0, list(fibers), 1))
            assert rep.case_tag == "ThmB_family"
            # "positive" is also a suffix of "not positive": compare from the colon
            assert rep.notes.endswith(f"status: {status}")

    def test_thm_b_status_matches_the_triple_tables(self):
        # every member of families 2.1-2.3 with alpha <= 100, its parameter
        # fiber first, against the tables of the tied-family statuses
        statuses = Counter()
        for fixed, coeff in (([(2, 1), (3, 1)], 6), ([(2, 1), (4, 1)], 4), ([(3, 1), (3, 1)], 3)):
            for b in range(1, 100 // coeff + 1):
                for a in (coeff * b - 1, coeff * b + 1):
                    if a > 100:
                        continue
                    rep = genus_report(SeifertData.normalized(0, [(a, b), *fixed], 1))
                    assert rep.case_tag == "ThmB_family"
                    status = rep.notes.rsplit("status: ", 1)[1]
                    assert status == tied_status_by_triples([(a, b), *fixed]), (a, b, fixed)
                    statuses[status] += 1
        assert statuses == {"positive": 3, "open": 1, "not positive": 143}

    def test_small_lens_sphere(self):
        rep = genus_report(SeifertData.normalized(0, [], 1))
        assert (rep.hg, rep.phg_lo, rep.phg_hi, rep.exact) == (0, 0, 0, True)
        assert rep.case_tag == "SmallLens_extension"

    def test_small_lens_s2xs1(self):
        rep = genus_report(SeifertData.normalized(0, [], 0))
        assert (rep.hg, rep.phg_lo, rep.phg_hi) == (1, 1, 1)

    def test_small_lens_proper(self):
        rep = genus_report(SeifertData.normalized(0, [(5, 2)], 1))
        assert rep.hg == 1
        assert rep.case_tag == "SmallLens_extension"

    def test_family_strictly_beats_vertical_bound(self):
        rng = random.Random(10)
        for _ in range(20):
            m = rng.choice([4, 6, 8])
            n = rng.randint(1, 4)
            s = SeifertData.normalized(0, [(2, 1)] * (m - 1) + [(2 * n + 1, n)], m // 2)
            rep = genus_report(s)
            assert rep.case_tag == "ThmA1"
            assert rep.hg == m - 2 < vertical_genus_bound(s)

    def test_intervals_respect_hg(self):
        rng = random.Random(11)
        for _ in range(100):
            rep = genus_report(random_normalized(rng))
            assert rep.hg <= rep.phg_lo <= rep.phg_hi
            assert rep.exact == (rep.phg_lo == rep.phg_hi)


def test_rational_euler_forms_agree():
    rng = random.Random(12)
    for _ in range(50):
        n = random_normalized(rng)
        pattern = ["+", "-"] + ["-"] * len(n.fibers)
        d = denormalize(n, pattern)
        assert rational_euler(d) == rational_euler(n)


@st.composite
def any_spaces(draw):
    """Normalized or non-normalized spaces of 0-12 fibers with alpha 1-90 (above 1 when
    normalized), numerators of either sign and genus 0-2."""
    genus, normalized = draw(st.integers(0, 2)), draw(st.booleans())
    fibers = []
    for _ in range(draw(st.integers(0, 12))):
        alpha = draw(st.integers(2 if normalized else 1, 90))
        beta = st.integers(1, alpha - 1) if normalized else st.integers(-300, 300)
        fibers.append((alpha, draw(beta.filter(lambda b: gcd(alpha, b) == 1))))
    if normalized:
        return SeifertData.normalized(genus, fibers, draw(st.integers(-9, 9)))
    return SeifertData.non_normalized(genus, fibers)


@given(any_spaces())
@example(SeifertData.normalized(0, [], 0))
@example(SeifertData.non_normalized(1, []))
@example(SeifertData.normalized(0, [(2, 1), (3, 1), (6, 1)], 1))
@example(SeifertData.non_normalized(0, [(1, 4), (3, -2), (3, 2)]))
@settings(max_examples=300)
def test_rational_euler_matches_the_fraction_sum(s):
    num, den = seifert._euler_terms(s)
    assert den >= 1 and gcd(num, den) == 1
    assert rational_euler(s) == rational_euler_by_fractions(s) == rational_euler(normalize(s))
    assert (rational_euler(s).numerator, rational_euler(s).denominator) == (num, den)
