"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All comparisons are exact integer or byte comparisons; runtime budgets are
asserted where stated.  Run with ``pytest tests/test_acceptance.py -s`` to
see the per-criterion lines.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager
from math import gcd

from sfsdiag.covers import (
    base_orbifold_cover,
    beta_star,
    cyclic_cover_spec,
    lift_seifert,
    lifted_diagram_genus,
    positive_genus_bound,
)
from sfsdiag.diagram import (
    PermutationPair,
    diagram_homology,
    is_positive_diagram,
    montesinos_decode,
    montesinos_encode,
    rotation_genus,
)
from sfsdiag.exactalg import floor_sum
from sfsdiag.presentation import Presentation, abelianization, is_positive, positivize
from sfsdiag.seifert import SeifertData, genus_report, homology, normalize
from sfsdiag.vertical import build_positive_vertical

from helpers import build_diagram

COPRIME_FIBERS = [(a, b) for a in range(2, 6) for b in range(1, a) if gcd(a, b) == 1]


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def compact(obj):
    return json.dumps(obj, separators=(",", ":"))


def test_criterion_1_normalization_golden():
    with criterion(1, "normalization worked example"):
        s = SeifertData.non_normalized(0, [(4, 1), (3, -4), (5, 3), (2, -5)])
        got = compact(normalize(s).to_json())
        assert got == (
            '{"base_genus":0,"mode":"normalized","fibers":'
            '[{"alpha":4,"beta":1},{"alpha":3,"beta":2},'
            '{"alpha":5,"beta":3},{"alpha":2,"beta":1}],"euler":5}'
        )


def test_criterion_2_vertical_pipeline_sweep():
    with criterion(2, "vertical positive-diagram pipeline"):
        start = time.monotonic()
        rng = random.Random(20240)
        cases = []
        for m in (3, 4, 5, 6):
            seen = set()
            while len(seen) < 100:
                fibers = tuple(sorted(rng.choice(COPRIME_FIBERS) for _ in range(m)))
                e = rng.randint(-5, 5)
                seen.add((fibers, e))
            cases.extend(
                SeifertData.normalized(0, list(fibers), e) for fibers, e in sorted(seen)
            )
        assert len(cases) == 400
        for s in cases:
            m = len(s.fibers)
            dg = build_positive_vertical(s)
            assert is_positive_diagram(dg)
            assert len(dg.x_curves) == len(dg.y_curves) == dg.declared_genus == m - 1
            assert rotation_genus(dg) == m - 1
            assert diagram_homology(dg).same_group(homology(s))
        elapsed = time.monotonic() - start
        assert elapsed < 60, f"sweep took {elapsed:.1f}s"


def test_criterion_3_beta_star_properties():
    with criterion(3, "slope adjustment property suite"):
        start = time.monotonic()
        rng = random.Random(20241)
        composite_lams = [15, 45, 105, 315, 1155, 3465, 9009, 6561, 9999]
        checked = 0
        for trial in range(1000):
            n = rng.randint(2, 6)
            pairs = []
            for _ in range(n):
                alpha = rng.randint(1, 50)
                while True:
                    beta = rng.randint(-50, 50)
                    if gcd(alpha, beta) == 1:
                        break
                pairs.append((alpha, beta))
            if trial % 3 == 0:
                lam = rng.choice(composite_lams)
            else:
                lam = rng.randrange(3, 10**4, 2)
            stars = beta_star(pairs, lam)
            for (alpha, beta), star in zip(pairs, stars):
                assert (star - beta) % alpha == 0
                assert gcd(star, lam) == 1
            assert floor_sum(
                (star, alpha) for (alpha, _), star in zip(pairs, stars)
            ) == floor_sum((beta, alpha) for alpha, beta in pairs)
            checked += 1
        assert checked == 1000
        elapsed = time.monotonic() - start
        assert elapsed < 5, f"suite took {elapsed:.1f}s"


def test_criterion_4_cover_round_trip():
    with criterion(4, "sphere-base cover round trip"):
        start = time.monotonic()
        rng = random.Random(20242)
        cases = 0
        for g in (1, 2, 3):
            for _ in range(20):
                m = rng.randint(0, 3)
                s = SeifertData.normalized(
                    g,
                    [rng.choice(COPRIME_FIBERS) for _ in range(m)],
                    rng.randint(-4, 4),
                )
                base, lam = base_orbifold_cover(s)
                assert lam == 2 * g + 1
                assert base.base_genus == 0 and len(base.fibers) == 3
                lifted = lift_seifert(base, cyclic_cover_spec(lam))
                assert normalize(lifted) == normalize(s)
                cases += 1
        assert cases >= 50
        elapsed = time.monotonic() - start
        assert elapsed < 10, f"round trips took {elapsed:.1f}s"


def test_criterion_5_bound_consistency():
    with criterion(5, "positive-genus bound identity"):
        for g in range(21):
            s = SeifertData.normalized(g, [(2, 1), (3, 2)], 0)
            assert (
                positive_genus_bound(s)
                == lifted_diagram_genus(2, 2 * g + 1)
                == 2 * g + 2
            )


def test_criterion_6_classifier_table():
    with criterion(6, "classifier golden table"):
        table = [
            (
                SeifertData.normalized(0, [(2, 1)] * 3 + [(3, 1)], 2),
                '{"hg":2,"phg":[3,3],"exact":true,"case":"ThmA1"}',
            ),
            (
                SeifertData.normalized(0, [(2, 1)] * 5 + [(3, 1)], 3),
                '{"hg":4,"phg":[4,5],"exact":false,"case":"ThmA1",'
                '"notes":"open: whether the horizontal splitting admits a '
                'positive diagram is unresolved for m >= 6 with n = 1"}',
            ),
            (
                SeifertData.normalized(1, [], 1),
                '{"hg":2,"phg":[3,4],"exact":false,"case":"ThmA2"}',
            ),
            (
                SeifertData.normalized(2, [(2, 1), (3, 1), (3, 2), (5, 2)], 1),
                '{"hg":7,"phg":[7,7],"exact":true,"case":"Generic_gpos"}',
            ),
            (
                SeifertData.normalized(0, [(2, 1), (3, 1), (7, 1)], 1),
                '{"hg":2,"phg":[2,2],"exact":true,"case":"ThmB_family",'
                '"family":{"id":"half-third","n":1,"sign":"+"},'
                '"notes":"horizontal splitting realizes the vertical genus; '
                'its positive-diagram status: open"}',
            ),
        ]
        for s, expected in table:
            assert compact(genus_report(s).to_json()) == expected


def test_criterion_7_positivize_suite():
    with criterion(7, "positive presentation transform suite"):
        start = time.monotonic()
        rng = random.Random(20243)
        for _ in range(200):
            n = rng.randint(1, 5)
            relators = []
            for _ in range(rng.randint(0, 6)):
                word = []
                for _ in range(rng.randint(0, 12)):
                    g = rng.randint(1, n)
                    word.append(g if rng.random() < 0.5 else -g)
                relators.append(tuple(word))
            p = Presentation(n, tuple(relators))
            q = positivize(p)
            assert is_positive(q)
            assert q.n_generators == p.n_generators + 1
            assert len(q.relators) == len(p.relators) + 1
            assert abelianization(q).same_group(abelianization(p))
        elapsed = time.monotonic() - start
        assert elapsed < 5, f"suite took {elapsed:.1f}s"


def test_criterion_8_montesinos_codec():
    with criterion(8, "permutation codec round trips"):
        rng = random.Random(20244)
        for _ in range(500):
            d = rng.randint(1, 50)
            sx = list(range(1, d + 1))
            sy = list(range(1, d + 1))
            rng.shuffle(sx)
            rng.shuffle(sy)
            pair = PermutationPair(tuple(sx), tuple(sy))
            assert montesinos_encode(montesinos_decode(pair)) == pair

        def canonical(dg):
            def curves(side):
                out = []
                for curve in side:
                    k = curve.index(min(curve))
                    out.append(curve[k:] + curve[:k])
                return tuple(sorted(out))

            return curves(dg.x_curves), curves(dg.y_curves)

        for _ in range(100):
            d = rng.randint(1, 30)
            sx = list(range(1, d + 1))
            sy = list(range(1, d + 1))
            rng.shuffle(sx)
            rng.shuffle(sy)
            dg = montesinos_decode(PermutationPair(tuple(sx), tuple(sy)))
            shift = rng.randint(1, 99)
            disguised = build_diagram(
                dg.declared_genus,
                [tuple(c + shift for c in curve) for curve in dg.x_curves],
                [tuple(c + shift for c in curve) for curve in dg.y_curves],
                {c + shift: 1 for c, _ in dg.signs},
            )
            rebuilt = montesinos_decode(montesinos_encode(disguised))
            assert canonical(rebuilt) == canonical(dg)
