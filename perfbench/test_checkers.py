"""Tests of the benchmark's own checkers and input generators.

Run with ``python3 -m pytest perfbench`` from the repository root.  The
checkers must accept correct program output and reject tampered output;
where a test needs correct output it asks the program for it.
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checkers  # noqa: E402
import inputs  # noqa: E402
import sfsdiag  # noqa: E402
from checkers import CheckFailed  # noqa: E402

# the worked example: non-normalized {0; 1/4, -4/3, 3/5, -5/2}
EXAMPLE = {"base_genus": 0, "mode": "non_normalized",
           "fibers": [{"alpha": 4, "beta": 1}, {"alpha": 3, "beta": -4},
                      {"alpha": 5, "beta": 3}, {"alpha": 2, "beta": -5}]}


def test_one_crossing_torus_has_one_face_for_either_sign():
    for sign in (1, -1):
        assert checkers.surface([[1]], [[1]], {1: sign}) == (1, 1)
        assert checkers.genus_from_faces(1, 1, 1) == 1


def test_face_count_matches_program_on_random_signed_pairs():
    rng = random.Random(3)
    for _ in range(30):
        doc = inputs.pair_diagram(rng, inputs.permutation_pair(rng, 3, 25), 0.4)
        comps, faces = checkers.surface(doc["x_curves"], doc["y_curves"],
                                        {int(k): v for k, v in doc["signs"].items()})
        assert comps == 1
        want = sfsdiag.rotation_genus(sfsdiag.Diagram.from_json(doc))
        assert checkers.genus_from_faces(len(doc["signs"]), faces, 1) == want


def test_normalize_and_homology_order_of_the_worked_example():
    n = checkers.own_normalize(EXAMPLE)
    assert n == {"base_genus": 0, "mode": "normalized", "euler": 5,
                 "fibers": [{"alpha": 4, "beta": 1}, {"alpha": 3, "beta": 2},
                            {"alpha": 5, "beta": 3}, {"alpha": 2, "beta": 1}]}
    assert checkers.homology_order([(4, 1), (3, 2), (5, 3), (2, 1)], 5) == (358, False)
    checkers.check_homology([358], 0, EXAMPLE)
    with pytest.raises(CheckFailed):
        checkers.check_homology([179], 0, EXAMPLE)
    with pytest.raises(CheckFailed):
        checkers.check_homology([358], 1, EXAMPLE)


def test_det_rank_and_smith():
    assert checkers.det_rank([[2, 1], [1, 1]]) == (1, 2)
    assert checkers.det_rank([[1, 2], [2, 4]]) == (0, 1)
    assert checkers.smith([[2, 0], [0, 3]], 2) == ((6,), 0)
    assert checkers.smith([[2, 4]], 2) == ((2,), 1)


def test_check_build_accepts_the_program_and_rejects_tampering():
    doc = sfsdiag.build_positive_vertical(sfsdiag.SeifertData.from_json(EXAMPLE)).to_json()
    checkers.check_build(doc, EXAMPLE)
    flipped = dict(doc, signs=dict(doc["signs"], **{"1": -1}))
    with pytest.raises(CheckFailed):
        checkers.check_build(flipped, EXAMPLE)
    dropped = dict(doc, x_curves=[doc["x_curves"][0][1:]] + doc["x_curves"][1:])
    with pytest.raises(CheckFailed):
        checkers.check_build(dropped, EXAMPLE)
    other = dict(EXAMPLE, fibers=EXAMPLE["fibers"][:3] + [{"alpha": 2, "beta": -3}])
    with pytest.raises(CheckFailed):
        checkers.check_build(doc, other)


def test_codec_checks():
    doc = sfsdiag.build_positive_vertical(sfsdiag.SeifertData.from_json(EXAMPLE)).to_json()
    pair = sfsdiag.montesinos_encode(sfsdiag.Diagram.from_json(doc)).to_json()
    checkers.check_encode(pair, doc)
    decoded = sfsdiag.montesinos_decode(sfsdiag.PermutationPair.from_json(pair)).to_json()
    checkers.check_decode(decoded, pair)
    checkers.check_round_trip(decoded, doc)
    swapped = dict(pair, sigma_x=pair["sigma_y"], sigma_y=pair["sigma_x"])
    with pytest.raises(CheckFailed):
        checkers.check_encode(swapped, doc)
    with pytest.raises(CheckFailed):
        checkers.check_decode(dict(decoded, genus=decoded["genus"] + 1), pair)


def test_query_identities():
    checkers.check_beta_star([8, -1], [(5, 3), (2, 1)], 3)
    with pytest.raises(CheckFailed):
        checkers.check_beta_star([8, 1], [(5, 3), (2, 1)], 3)  # floor sum moved
    with pytest.raises(CheckFailed):
        checkers.check_beta_star([7, -1], [(5, 3), (2, 1)], 3)  # not congruent
    with pytest.raises(CheckFailed):
        checkers.check_beta_star([3, 1], [(5, 3), (2, 1)], 3)  # shares the factor 3
    checkers.check_genus({"hg": 2, "phg": [3, 3], "exact": True, "case": "ThmA1"}, "ThmA1")
    with pytest.raises(CheckFailed):
        checkers.check_genus({"hg": 4, "phg": [3, 3], "exact": True, "case": "ThmA1"}, "ThmA1")
    p = {"generators": 2, "relators": [[1, 1, -2], [2, 2]]}
    out = sfsdiag.positivize(sfsdiag.Presentation.from_json(p)).to_json()
    checkers.check_positivize(out, p, checkers.smith([[2, -1], [0, 2]], 2))
    with pytest.raises(CheckFailed):
        checkers.check_positivize(dict(out, relators=out["relators"][:-1] + [[1]]), p,
                                  checkers.smith([[2, -1], [0, 2]], 2))


def test_cover_round_trip_check():
    space = {"base_genus": 1, "mode": "normalized",
             "fibers": [{"alpha": 3, "beta": 1}], "euler": 2}
    base, lam = sfsdiag.base_orbifold_cover(sfsdiag.SeifertData.from_json(space))
    lifted = checkers.own_lift(base.to_json(), lam, [[lam]] * 3)
    checkers.check_cover_round_trip(base.to_json(), lam, lifted, space)
    with pytest.raises(CheckFailed):
        checkers.check_cover_round_trip(base.to_json(), lam, lifted, dict(space, euler=3))


def test_cli_output_checks():
    checkers.check_cli_error(3, b"", b"InvalidInvariant: x\n", 3, "InvalidInvariant")
    with pytest.raises(CheckFailed):
        checkers.check_cli_error(1, b"", b"Traceback (most recent call last):\n", 2, None)
    with pytest.raises(CheckFailed):
        checkers.check_cli_error(2, b"", b"KeyError: 'x'\n", 3, "KeyError")
    assert checkers.parse_cli_output(0, b'{"a":1}\n', b"") == {"a": 1}
    with pytest.raises(CheckFailed):
        checkers.parse_cli_output(0, b'{"a":1}\n{"b":2}\n', b"")


def test_inputs_are_seeded_and_cover_every_case():
    for make in (inputs.build_deep, inputs.queries, inputs.cli):
        assert make(5) == make(5)
        assert make(5) != make(6)
    tags = {b["genus_report"]["case"] for b in inputs.queries(5)}
    assert tags == set(inputs.CASES)
    for bundle in inputs.queries(5)[:20]:
        item = bundle["genus_report"]
        report = sfsdiag.genus_report(sfsdiag.SeifertData.from_json(item["space"]))
        assert report.case_tag == item["case"]
    failures = [r for r in inputs.cli(5) if r == inputs.KNOWN_FAILURE]
    assert len(failures) == 1


def test_chain_crossings_matches_built_diagrams():
    rng = random.Random(9)
    for _ in range(20):
        fibers = inputs.random_fibers(rng, rng.randint(1, 6), 2, 9)
        euler = rng.randint(-3, 3)
        s = sfsdiag.SeifertData.normalized(0, fibers, euler)
        built = sfsdiag.build_positive_vertical(s)
        assert inputs.chain_crossings(fibers, euler) == built.crossing_count
