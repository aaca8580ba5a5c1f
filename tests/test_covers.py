import os
import random
import re
import subprocess
import sys
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfsdiag import covers
from sfsdiag.covers import (
    CoverSpec,
    base_orbifold_cover,
    beta_star,
    cyclic_cover_spec,
    lift_seifert,
    lifted_diagram_genus,
    positive_genus_bound,
)
from sfsdiag.errors import (
    BaseGenusUnsupported,
    IncompatibleSpec,
    InfeasibleBetaStar,
    ParityError,
    TooManyFibers,
    WorkBudgetExceeded,
)
from sfsdiag.exactalg import floor_sum
from sfsdiag.seifert import SeifertData, normalize, rational_euler

from helpers import SRC, adjust_for_prime_by_cases, base_orbifold_cover_by_cases, beta_star_pairwise, outcome

COPRIME_FIBERS = [(a, b) for a in range(2, 6) for b in range(1, a) if gcd(a, b) == 1]


class TestLiftedDiagramGenus:
    @pytest.mark.parametrize("g,lam,expected", [(2, 3, 4), (7, 1, 7), (1, 9, 1), (0, 3, -2)])
    def test_formula(self, g, lam, expected):
        assert lifted_diagram_genus(g, lam) == expected

    def test_identity_cover(self):
        for g in range(6):
            assert lifted_diagram_genus(g, 1) == g

    @pytest.mark.parametrize("g,lam,message", [(-1, 3, "genus must be >= 0, got -1"),
                                               (1, 0, "sheet count must be >= 1, got 0")])
    def test_out_of_range_arguments_refused(self, g, lam, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            lifted_diagram_genus(g, lam)


class TestLiftSeifert:
    def test_identity_spec(self):
        s = SeifertData.non_normalized(1, [(4, 3), (5, -2)])
        spec = CoverSpec(1, ((1,), (1,)))
        assert lift_seifert(s, spec) == s

    def test_connected_triple_cover_of_sphere(self):
        s = SeifertData.non_normalized(0, [(6, 1), (3, 2), (9, -4)])
        lifted = lift_seifert(s, cyclic_cover_spec(3))
        assert lifted.base_genus == 1
        assert [(f.alpha, f.beta) for f in lifted.fibers] == [(2, 1), (1, 2), (3, -4)]

    def test_split_boundary_double_cover(self):
        s = SeifertData.non_normalized(1, [(4, 3)])
        lifted = lift_seifert(s, CoverSpec(2, ((1, 1),)))
        assert lifted.base_genus == 1
        assert [(f.alpha, f.beta) for f in lifted.fibers] == [(4, 3), (4, 3)]

    def test_part_must_divide_alpha(self):
        s = SeifertData.non_normalized(0, [(4, 3), (4, 1), (4, 1)])
        with pytest.raises(IncompatibleSpec):
            lift_seifert(s, cyclic_cover_spec(3))

    def test_beta_coprimality_is_implied_by_the_data_model(self):
        # a part b divides alpha, so any common factor of b and beta would
        # already violate gcd(alpha, beta) = 1; valid fibers always pass
        s = SeifertData.non_normalized(0, [(9, 2), (3, 1), (3, 2)])
        lifted = lift_seifert(s, cyclic_cover_spec(3))
        for f in lifted.fibers:
            assert gcd(f.alpha, f.beta) == 1

    def test_parity_check(self):
        s = SeifertData.non_normalized(1, [(2, 1)])
        with pytest.raises(ParityError):
            lift_seifert(s, CoverSpec(2, ((2,),)))

    def test_genus_formula_two_forms(self):
        rng = random.Random(31)
        for _ in range(100):
            r = rng.randint(1, 4)
            lam = rng.randint(1, 6)
            fibers = []
            partitions = []
            for _ in range(r):
                parts = []
                left = lam
                while left:
                    b = rng.randint(1, left)
                    parts.append(b)
                    left -= b
                mult = 1
                for b in parts:
                    mult = mult // gcd(mult, b) * b
                alpha = mult * rng.randint(1, 3)
                while True:
                    beta = rng.randint(-9, 9)
                    if gcd(alpha, beta) == 1 and all(gcd(beta, b) == 1 for b in parts):
                        break
                fibers.append((alpha, beta))
                partitions.append(tuple(parts))
            circles = sum(len(p) for p in partitions)
            if (r * lam - circles) % 2:
                continue
            g = rng.randint(1, 3)
            s = SeifertData.non_normalized(g, fibers)
            lifted = lift_seifert(s, CoverSpec(lam, tuple(partitions)))
            via_parts = lam * (g - 1) + 1 + sum(b - 1 for p in partitions for b in p) // 2
            assert 2 * lifted.base_genus == 2 * via_parts
            assert rational_euler(lifted) == lam * rational_euler(s)


class TestBetaStar:
    def test_identity_sheets(self):
        assert beta_star([(2, 1), (5, 3)], 1) == (1, 3)

    def test_already_coprime(self):
        assert beta_star([(4, 1), (5, 2)], 3) == (1, 2)

    def test_small_adjustment(self):
        pairs = [(2, 1), (5, 3)]
        stars = beta_star(pairs, 3)
        assert stars[1] % 5 == 3
        assert gcd(stars[1], 3) == 1
        assert floor_sum((b, a) for (a, _), b in zip(pairs, stars)) == floor_sum(
            (b, a) for a, b in pairs
        )
        # brute-force search confirms solutions exist in a small window
        found = [
            (b1, b2)
            for b1 in range(-100, 101)
            for b2 in range(-100, 101)
            if b1 % 2 == 1 and (b2 - 3) % 5 == 0
            and gcd(b1, 3) == 1 and gcd(b2, 3) == 1
            and b1 // 2 + b2 // 5 == 0 + 0
        ]
        assert found, "oracle says the instance is solvable"

    def test_single_blocked_pair(self):
        with pytest.raises(InfeasibleBetaStar):
            beta_star([(2, 3)], 3)

    def test_single_compatible_pair(self):
        assert beta_star([(2, 5)], 3) == (5,)

    def test_rejects_even_sheets(self):
        with pytest.raises(ValueError):
            beta_star([(2, 1)], 4)

    @pytest.mark.parametrize("pairs", [[(2.9, 1), (5, 3)], [(2, "1"), (5, 3)]])
    def test_entries_are_not_converted(self, pairs):
        # int() would read each as (2, 1) and answer (-1, 8)
        with pytest.raises(TypeError):
            beta_star(pairs, 3)

    @pytest.mark.parametrize("pairs,lam,message", [
        ([(2, 1), (5, 3)], 3.0, "lam: expected integer, got float"),
        ([(2, True), (5, 3)], 3, "pairs[0][1]: expected integer, got boolean"),
        ([(2, 1), (5, 3)], True, "lam: expected integer, got boolean"),
        ([(2, 1), (5.0, 3)], 3, "pairs[1][0]: expected integer, got float"),
    ], ids=["pairs0-3.0", "pairs1-3", "pairs2-True", "pairs3-3"])
    def test_bools_and_floats_are_refused(self, pairs, lam, message):
        # each was read as beta_star([(2, 1), (5, 3)], 3) == (-1, 8), a float lam even under -O
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            beta_star(pairs, lam)

    def test_each_argument_is_checked_before_the_next(self):
        # the sheet count's type and range, then each pair's alpha and beta in turn
        with pytest.raises(ValueError, match="^sheet count must be odd and positive, got 2$"):
            beta_star([(2, 1.0)], 2)
        with pytest.raises(ValueError, match="^alpha must be >= 1, got 0$"):
            beta_star([(0, 1), (2.0, 1)], 3)
        with pytest.raises(TypeError, match=r"^pairs\[1\]\[0\]: expected integer, got float$"):
            beta_star([(2, 1), (2.0, 1)], 3)

    def test_float_sheet_count_refused_under_optimize(self):
        code = ("from sfsdiag.covers import beta_star\n"
                "try:\n    print(beta_star([(2, 1), (5, 3)], 3.0))\n"
                "except TypeError as exc:\n    print('TypeError', exc)")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0 and proc.stdout == "TypeError lam: expected integer, got float\n", proc.stderr

    @pytest.mark.parametrize("lam,stars", [(3, (7, -17, -4)), (9, (7, -17, -4)), (15, (-17, 13, 38))])
    def test_goldens(self, lam, stars):
        assert beta_star([(2, 3), (5, -12), (7, 3)], lam) == stars

    @pytest.mark.parametrize("lam,divisor", [(49, 7), (143, 11), (3 * 127, 11), (1155, 7)])
    def test_trial_division_limit(self, monkeypatch, lam, divisor):
        # refused while a cofactor that may be composite outlasts the limit
        pairs = [(2, 1), (5, 3), (7, 2)]
        monkeypatch.setattr(covers, "MAX_TRIAL_DIVISOR", divisor - 1)
        with pytest.raises(WorkBudgetExceeded, match="needs trial divisors above the limit"):
            beta_star(pairs, lam)
        monkeypatch.setattr(covers, "MAX_TRIAL_DIVISOR", divisor)
        stars = beta_star(pairs, lam)
        assert all(gcd(star, lam) == 1 for star in stars)

    def test_randomized_conditions(self):
        rng = random.Random(37)
        lams = [3, 9, 15, 45, 105, 1155, 9999, 2401, 6561]
        for _ in range(400):
            n = rng.randint(2, 6)
            pairs = []
            for _ in range(n):
                a = rng.randint(1, 50)
                while True:
                    b = rng.randint(-50, 50)
                    if gcd(a, b) == 1:
                        break
                pairs.append((a, b))
            lam = rng.choice(lams)
            stars = beta_star(pairs, lam)
            for (a, b), star in zip(pairs, stars):
                assert (star - b) % a == 0
                assert gcd(star, lam) == 1
            assert floor_sum((s, a) for (a, _), s in zip(pairs, stars)) == floor_sum(
                (b, a) for a, b in pairs
            )


class TestBaseOrbifoldCover:
    def test_requires_positive_genus(self):
        with pytest.raises(BaseGenusUnsupported):
            base_orbifold_cover(SeifertData.normalized(0, [(2, 1)], 0))

    def test_too_many_fibers(self):
        s = SeifertData.normalized(1, [(2, 1), (3, 1), (3, 2), (5, 2)], 0)
        with pytest.raises(TooManyFibers):
            base_orbifold_cover(s)

    def test_circle_bundle_over_torus(self):
        s = SeifertData.normalized(1, [], 1)
        base, lam = base_orbifold_cover(s)
        assert lam == 3
        assert base.base_genus == 0 and len(base.fibers) == 3
        lifted = lift_seifert(base, cyclic_cover_spec(lam))
        assert normalize(lifted) == normalize(s)

    def test_round_trip_sweep(self):
        rng = random.Random(41)
        cases = 0
        for g in (1, 2, 3):
            for _ in range(25):
                m = rng.randint(0, 3)
                s = SeifertData.normalized(
                    g, [rng.choice(COPRIME_FIBERS) for _ in range(m)], rng.randint(-4, 4)
                )
                base, lam = base_orbifold_cover(s)
                assert lam == 2 * g + 1
                lifted = lift_seifert(base, cyclic_cover_spec(lam))
                assert normalize(lifted) == normalize(s)
                assert rational_euler(lifted) == lam * rational_euler(base)
                cases += 1
        assert cases == 75


@st.composite
def cover_inputs(draw):
    """Spaces of base genus 0-4 with 0-5 fibers, normalized or not (with
    ``alpha = 1`` slots), so every branch and both errors are reached."""
    fibers = [draw(st.sampled_from(COPRIME_FIBERS)) for _ in range(draw(st.integers(0, 5)))]
    g = draw(st.integers(0, 4))
    if draw(st.booleans()):
        return SeifertData.normalized(g, fibers, draw(st.integers(-12, 12)))
    slopes = [(a, b + a * draw(st.integers(-3, 3))) for a, b in fibers]
    return SeifertData.non_normalized(g, slopes + [(1, draw(st.integers(-6, 6)))] * draw(st.integers(0, 2)))


@given(cover_inputs())
@settings(max_examples=300, deadline=None)
def test_base_orbifold_cover_matches_hand_written_slots(s):
    assert outcome(base_orbifold_cover, s) == outcome(base_orbifold_cover_by_cases, s)


@st.composite
def shift_inputs(draw):
    """An odd prime ``p`` in 3-13 and 0-9 numerators divisible by it among
    0-4 that are not, in any order; each divisible one's alpha is prime to
    ``p``, as coprime pairs make it."""
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    multiple = st.integers(-30, 30).map(lambda k: p * k)
    hit = [(draw(st.integers(1, 80).filter(lambda a: a % p)), draw(multiple))
           for _ in range(draw(st.integers(0, 9)))]
    miss = [(draw(st.integers(1, 80)), draw(multiple) + draw(st.integers(1, p - 1)))
            for _ in range(draw(st.integers(0, 4)))]
    return draw(st.permutations(hit + miss)), p


@given(shift_inputs())
@example(([(2, 3)], 3))  # a lone numerator divisible by p has no partner: InfeasibleBetaStar
@example(([(2, 3), (5, 2)], 3))  # the partner steps down
@example(([(2, 3), (5, 7)], 3))  # the partner would land on a multiple of 3, so it steps up
@settings(max_examples=500)
def test_shift_matches_the_case_by_case_branches(case):
    pairs, p = case
    try:
        got = covers._adjust_for_prime(pairs, p)
    except InfeasibleBetaStar as exc:
        assert len(pairs) == 1
        assert outcome(adjust_for_prime_by_cases, pairs, p) == (InfeasibleBetaStar, str(exc))
        return
    assert got == adjust_for_prime_by_cases(pairs, p)
    assert all(b % p for b in got)
    assert sum((new - b) // a for (a, b), new in zip(pairs, got)) == 0


@st.composite
def beta_star_inputs(draw):
    """0-6 coprime pairs with alpha 1-60 and an odd sheet count: any below 400, or a
    product of up to four of 3, 9, 5, 25, 7, 11 and 13."""
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        alpha = draw(st.integers(1, 60))
        pairs.append((alpha, draw(st.integers(-200, 200).filter(lambda b: gcd(alpha, b) == 1))))
    powers = st.lists(st.sampled_from((3, 9, 5, 25, 7, 11, 13)), max_size=4).map(prod)
    return pairs, draw(st.integers(0, 199).map(lambda k: 2 * k + 1) | powers)


@given(beta_star_inputs())
@example(([(2, 3), (5, -12), (7, 3)], 9))  # one prime power: the shifted numerators, unreduced
@example(([(2, 3), (5, -12), (7, 3)], 15))
@example(([(2, 3), (5, -12), (7, 3)], 1155))
@example(([(2, 3)], 15))  # InfeasibleBetaStar from the first prime
@example(([(2, 5)], 15))  # InfeasibleBetaStar from the second prime only
@settings(max_examples=400)
def test_one_crt_per_slot_matches_the_pairwise_stitch(case):
    pairs, lam = case
    assert outcome(beta_star, pairs, lam) == outcome(beta_star_pairwise, pairs, lam)


class TestPositiveGenusBound:
    def test_sphere_base(self):
        assert positive_genus_bound(SeifertData.normalized(0, [(2, 1)], 0)) == 2

    def test_consistency_identity(self):
        for g in range(21):
            s = SeifertData.normalized(g, [(3, 2)], 0)
            assert positive_genus_bound(s) == lifted_diagram_genus(2, 2 * g + 1) == 2 * g + 2

    def test_fiber_limit(self):
        s = SeifertData.normalized(3, [(2, 1), (3, 1), (3, 2), (5, 2)], 0)
        with pytest.raises(TooManyFibers):
            positive_genus_bound(s)


def test_cover_spec_json_round_trip():
    spec = CoverSpec(5, ((5,), (2, 2, 1)))
    assert CoverSpec.from_json(spec.to_json()) == spec
