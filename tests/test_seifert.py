import json
import random
from math import gcd

import pytest

from sfsdiag.errors import InvalidInvariant, UnsatisfiablePattern
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

from helpers import det

COPRIME_FIBERS = [(a, b) for a in range(2, 6) for b in range(1, a) if gcd(a, b) == 1]


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
            assert status in rep.notes

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
