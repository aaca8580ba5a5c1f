import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfsdiag import diagram
from sfsdiag.diagram import (
    Diagram,
    PermutationPair,
    diagram_homology,
    diagram_presentation,
    is_positive_diagram,
    montesinos_decode,
    montesinos_encode,
    rotation_genus,
    to_dot,
    validate,
)
from sfsdiag.errors import Disconnected, IsolatedCurve, NotPositive
from sfsdiag.seifert import SeifertData
from sfsdiag.vertical import build_positive_vertical

from helpers import build_diagram


def one_crossing():
    return build_diagram(1, [[1]], [[1]], {1: 1})


def lens_style(p):
    """One X and one Y curve meeting p times coherently."""
    ids = list(range(1, p + 1))
    return build_diagram(1, [ids], [ids], {c: 1 for c in ids})


class TestValidate:
    def test_empty_diagram_ok(self):
        dg = build_diagram(0, [[]], [[]], {})
        assert validate(dg) == []

    def test_duplicate_on_x(self):
        dg = build_diagram(1, [[1], [1]], [[1]], {1: 1})
        assert any(v.code == "DuplicateOnX" for v in validate(dg))

    def test_missing_sign(self):
        dg = build_diagram(1, [[1, 2]], [[1], [2]], {1: 1})
        assert any(v.code == "MissingSign" for v in validate(dg))

    def test_extra_sign_and_missing_from_y(self):
        dg = build_diagram(1, [[1]], [[]], {1: 1, 2: -1})
        codes = {v.code for v in validate(dg)}
        assert "MissingFromY" in codes
        assert "ExtraSign" in codes

    def test_bad_sign_value(self):
        dg = build_diagram(1, [[1]], [[1]], {1: 2})
        assert any(v.code == "BadSign" for v in validate(dg))

    def test_duplicate_sign(self):
        # a sign tuple naming crossing 1 twice; build_diagram cannot make it
        dg = Diagram(1, ((1,),), ((1,),), ((1, 1), (1, -1)))
        assert [(v.code, v.message) for v in validate(dg)] == [
            ("DuplicateSign", "crossing 1 appears 2 times")
        ]


@pytest.fixture
def calls(monkeypatch):
    """Counts of the crossing index builds and the exhaustive passes made through the module."""
    made = {"index": 0, "pass": 0}

    def count(key, real):
        def call(*args):
            made[key] += 1
            return real(*args)
        return call

    monkeypatch.setattr(diagram, "_crossing_index", count("index", diagram._crossing_index))
    monkeypatch.setattr(diagram, "_find_violations", count("pass", diagram._find_violations))
    return made


class TestValidateOnce:
    def test_a_valid_diagram_is_validated_by_its_index(self, calls):
        built = build_positive_vertical(SeifertData.normalized(0, [(3, 1), (5, 2), (7, 3)], -1))
        assert calls == {"index": 1, "pass": 0}  # the build's own index, which validate then reads
        assert validate(built) == [] and calls == {"index": 1, "pass": 0}
        read = Diagram.from_json(built.to_json())
        assert validate(read) == [] and calls == {"index": 2, "pass": 0}
        assert rotation_genus(read) == rotation_genus(built) == 2 and calls == {"index": 2, "pass": 0}

    def test_a_defective_diagram_runs_the_exhaustive_pass_once(self, calls):
        dg = build_diagram(1, [[1, 2], [1]], [[1, 2]], {1: 1, 2: 1})
        first = validate(dg)
        with pytest.raises(ValueError, match="invalid diagram: DuplicateOnX: crossing 1 appears 2 times"):
            rotation_genus(dg)
        assert validate(dg) == first and first and calls == {"index": 1, "pass": 1}

    def test_a_decoded_diagram_needs_no_second_validation(self, calls):
        dg = montesinos_decode(PermutationPair((2, 3, 1), (3, 1, 2)))
        assert calls == {"index": 1, "pass": 0}
        assert validate(dg) == [] and calls == {"index": 1, "pass": 0}


class TestPositivity:
    def test_all_positive(self):
        assert is_positive_diagram(lens_style(2))

    def test_one_negative(self):
        dg = build_diagram(1, [[1, 2]], [[1, 2]], {1: 1, 2: -1})
        assert not is_positive_diagram(dg)

    def test_vacuous(self):
        assert is_positive_diagram(build_diagram(0, [[]], [[]], {}))


class TestRotationGenus:
    def test_single_positive_crossing(self):
        # one transversal crossing forces the torus: V=1, E=2, F=1
        assert rotation_genus(one_crossing()) == 1

    def test_lens_family(self):
        for p in range(1, 6):
            assert rotation_genus(lens_style(p)) == 1

    def test_three_crossing_pair(self):
        dg = montesinos_decode(PermutationPair((2, 3, 1), (3, 1, 2)))
        assert rotation_genus(dg) == 1

    def test_disconnected(self):
        dg = build_diagram(1, [[1], [2]], [[1], [2]], {1: 1, 2: 1})
        with pytest.raises(Disconnected):
            rotation_genus(dg)

    def test_isolated_curve(self):
        dg = build_diagram(1, [[1], []], [[1]], {1: 1})
        with pytest.raises(IsolatedCurve):
            rotation_genus(dg)

    def test_mixed_signs_shift_faces(self):
        # coherent double crossing needs the torus; the +- pair is the
        # bigon configuration on the sphere (V=2, E=4, F=4)
        plus = build_diagram(1, [[1, 2]], [[1, 2]], {1: 1, 2: 1})
        mixed = build_diagram(0, [[1, 2]], [[1, 2]], {1: 1, 2: -1})
        assert rotation_genus(plus) == 1
        assert rotation_genus(mixed) == 0


class TestPresentationFromDiagram:
    def test_single_crossing(self):
        assert diagram_presentation(one_crossing()).relators == ((1,),)

    def test_cancelling_pair_kept_unreduced(self):
        dg = build_diagram(1, [[1, 2]], [[1, 2]], {1: 1, 2: -1})
        p = diagram_presentation(dg)
        assert p.relators == ((1, -1),)

    def test_letter_count_matches_crossings(self):
        rng = random.Random(1)
        for _ in range(20):
            d = rng.randint(1, 12)
            pair = random_pair(rng, d)
            dg = montesinos_decode(pair)
            pres = diagram_presentation(dg)
            for curve, word in zip(dg.y_curves, pres.relators):
                assert len(curve) == len(word)

    def test_homology_invariant_under_rotation_and_relabeling(self):
        dg = montesinos_decode(PermutationPair((2, 1, 4, 3), (3, 4, 1, 2)))
        base = diagram_homology(dg)
        rotated = build_diagram(
            dg.declared_genus,
            [curve[1:] + curve[:1] for curve in dg.x_curves],
            dg.y_curves,
            dg.sign_map,
        )
        assert diagram_homology(rotated).same_group(base)
        relabel = {c: c + 10 for c, _ in dg.signs}
        mapped = build_diagram(
            dg.declared_genus,
            [[relabel[c] for c in curve] for curve in dg.x_curves],
            [[relabel[c] for c in curve] for curve in dg.y_curves],
            {relabel[c]: s for c, s in dg.signs},
        )
        assert diagram_homology(mapped).same_group(base)


def random_pair(rng, d):
    sx = list(range(1, d + 1))
    sy = list(range(1, d + 1))
    rng.shuffle(sx)
    rng.shuffle(sy)
    return PermutationPair(tuple(sx), tuple(sy))


class TestMontesinosCodec:
    def test_one_crossing_encoding(self):
        pair = montesinos_encode(one_crossing())
        assert pair == PermutationPair((1,), (1,))

    def test_two_cycle(self):
        dg = build_diagram(1, [[1, 2]], [[2, 1]], {1: 1, 2: 1})
        pair = montesinos_encode(dg)
        assert pair.sigma_x == (2, 1)
        assert pair.sigma_y == (2, 1)

    def test_rejects_negative(self):
        dg = build_diagram(1, [[1]], [[1]], {1: -1})
        with pytest.raises(NotPositive):
            montesinos_encode(dg)

    @pytest.mark.parametrize("sx,sy,name", [((True,), (1,), "sigma_x"), ((1, 2), (1, 2.0), "sigma_y"),
                                            ((2.0, 1), (1, 2), "sigma_x")])
    def test_rejects_entries_that_are_no_int(self, sx, sy, name):
        # decode hands the pair's entries to the crossing index as proved successor lists
        with pytest.raises(ValueError, match=f"^{name} is not a permutation of 1..{len(sx)}$"):
            PermutationPair(sx, sy)

    def test_decode_identity_pair(self):
        dg = montesinos_decode(PermutationPair((1,), (1,)))
        assert dg.x_curves == ((1,),)
        assert dg.y_curves == ((1,),)
        assert dg.declared_genus == 1

    def test_decode_three_cycles(self):
        dg = montesinos_decode(PermutationPair((2, 3, 1), (3, 1, 2)))
        assert dg.x_curves == ((1, 2, 3),)
        assert dg.y_curves == ((1, 3, 2),)
        assert is_positive_diagram(dg)

    @given(st.data())
    @settings(max_examples=120)
    def test_encode_decode_identity(self, data):
        d = data.draw(st.integers(1, 30))
        sx = tuple(data.draw(st.permutations(range(1, d + 1))))
        sy = tuple(data.draw(st.permutations(range(1, d + 1))))
        pair = PermutationPair(sx, sy)
        assert montesinos_encode(montesinos_decode(pair)) == pair

    def test_decode_encode_reproduces_diagram(self):
        rng = random.Random(3)
        for _ in range(40):
            d = rng.randint(1, 20)
            dg = montesinos_decode(random_pair(rng, d))
            # disguise the diagram: relabel ids and rotate the curves
            shift = rng.randint(1, 50)
            disguised = build_diagram(
                dg.declared_genus,
                [rotate(tuple(c + shift for c in curve), rng) for curve in dg.x_curves],
                [rotate(tuple(c + shift for c in curve), rng) for curve in dg.y_curves],
                {c + shift: 1 for c, _ in dg.signs},
            )
            rebuilt = montesinos_decode(montesinos_encode(disguised))
            assert canonical(rebuilt) == canonical(dg)


def rotate(curve, rng):
    if not curve:
        return curve
    k = rng.randrange(len(curve))
    return curve[k:] + curve[:k]


def canonical(dg):
    def curves(side):
        out = []
        for curve in side:
            k = curve.index(min(curve))
            out.append(curve[k:] + curve[:k])
        return tuple(sorted(out))

    return curves(dg.x_curves), curves(dg.y_curves)


def test_dot_emission_mentions_curves():
    text = to_dot(lens_style(2))
    assert text.startswith("graph diagram {")
    assert 'label="x1"' in text and 'label="y1"' in text


def test_json_round_trip():
    dg = lens_style(3)
    assert Diagram.from_json(dg.to_json()) == dg


@pytest.mark.parametrize("doc,error,message", [
    ({"genus": 1, "x_curves": [[1]], "y_curves": [[1]], "signs": {"01": 1}},
     ValueError, "$.signs: key '01' is not a crossing id"),
    ({"genus": 1, "x_curves": [[1]], "y_curves": [[1]], "signs": {"1_0": 1}},
     ValueError, "$.signs: key '1_0' is not a crossing id"),
    ({"genus": 1, "x_curves": [[1]], "y_curves": [[1]], "signs": {"1": 1.0}},
     TypeError, "$.signs['1']: expected integer, got float"),
    ({"genus": 1, "x_curves": [[1], 2], "y_curves": [[1]], "signs": {"1": 1}},
     TypeError, "$.x_curves[1]: expected list, got integer"),
    ({"genus": 1, "x_curves": [[1]], "y_curves": [["1"]], "signs": {"1": 1}},
     TypeError, "$.y_curves[0][0]: expected integer, got string"),
    ({"genus": 1, "x_curves": [[1]], "y_curves": [[1]], "signs": {"a": 1}},
     ValueError, "$.signs: key 'a' is not a crossing id"),
    ({"genus": 1, "x_curves": [[1]], "y_curves": [[1]], "signs": {" 1": 1}},
     ValueError, "$.signs: key ' 1' is not a crossing id"),
    ({"genus": 1, "x_curves": [[1]], "y_curves": [[1]], "signs": {"+1": 1}},
     ValueError, "$.signs: key '+1' is not a crossing id"),
    ({"genus": 0, "x_curves": [[0]], "y_curves": [[0]], "signs": {"-0": 1}},
     ValueError, "$.signs: key '-0' is not a crossing id"),
    # keys "1".."d" with a value no set can hold: the types are checked before the values +-1
    ({"genus": 1, "x_curves": [[1, 2]], "y_curves": [[1, 2]], "signs": {"1": 1, "2": [-1]}},
     TypeError, "$.signs['2']: expected integer, got list"),
])
def test_json_types_are_checked(doc, error, message):
    with pytest.raises(error) as exc:
        Diagram.from_json(doc)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [0, 2])
def test_json_keeps_a_bad_sign_on_ids_one_to_d_as_pairs(bad):
    # keys "1".."d" with a value other than +-1 are no run: the pairs are read, and validate lists the value
    dg = Diagram.from_json({"genus": 1, "x_curves": [[1, 2, 3]], "y_curves": [[3, 2, 1]],
                            "signs": {"1": -1, "2": bad, "3": 1}})
    assert type(dg.signs) is tuple and dg.signs == ((1, -1), (2, bad), (3, 1))
    assert [(v.code, v.message) for v in validate(dg)] == [("BadSign", f"crossing 2 has sign {bad}")]
    with pytest.raises(ValueError, match=f"^invalid diagram: BadSign: crossing 2 has sign {bad}$"):
        rotation_genus(dg)


def test_json_reads_negative_ids():
    dg = Diagram.from_json({"genus": 0, "x_curves": [[-3]], "y_curves": [[-3]], "signs": {"-3": 1}})
    assert dg.signs == ((-3, 1),)
