import io
import json

import pytest

from sfsdiag import __version__
from sfsdiag.cli import main


def test_reads_stdin_by_default(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO('{"sigma_x":[2,1],"sigma_y":[1,2]}')
    )
    code = main(["diagram-decode"])
    captured = capsys.readouterr()
    assert code == 0
    decoded = json.loads(captured.out)
    assert decoded["x_curves"] == [[1, 2]]
    assert decoded["y_curves"] == [[1], [2]]


def run_with_file(tmp_path, capsys, verb, payload, extra=()):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code = main([verb, "--input", str(path), *extra])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FIGURE_INPUT = {
    "base_genus": 0,
    "mode": "non_normalized",
    "fibers": [
        {"alpha": 4, "beta": 1},
        {"alpha": 3, "beta": -4},
        {"alpha": 5, "beta": 3},
        {"alpha": 2, "beta": -5},
    ],
}


def test_normalize_golden(tmp_path, capsys):
    code, out, err = run_with_file(tmp_path, capsys, "normalize", FIGURE_INPUT)
    assert code == 0 and err == ""
    assert out == (
        '{"base_genus":0,"mode":"normalized","fibers":'
        '[{"alpha":4,"beta":1},{"alpha":3,"beta":2},'
        '{"alpha":5,"beta":3},{"alpha":2,"beta":1}],"euler":5}\n'
    )


def test_genus_golden(tmp_path, capsys):
    payload = {
        "base_genus": 0,
        "mode": "normalized",
        "fibers": [{"alpha": 2, "beta": 1}] * 3 + [{"alpha": 3, "beta": 1}],
        "euler": 2,
    }
    code, out, err = run_with_file(tmp_path, capsys, "genus", payload)
    assert code == 0
    assert out == '{"hg":2,"phg":[3,3],"exact":true,"case":"ThmA1"}\n'


def test_homology_matches_library(tmp_path, capsys):
    code, out, _ = run_with_file(tmp_path, capsys, "homology", FIGURE_INPUT)
    assert code == 0
    data = json.loads(out)
    assert data["free_rank"] == 0
    product = 1
    for d in data["invariant_factors"]:
        product *= d
    assert product == 358


def test_diagram_decode_golden(tmp_path, capsys):
    code, out, _ = run_with_file(
        tmp_path, capsys, "diagram-decode", {"sigma_x": [1], "sigma_y": [1]}
    )
    assert code == 0
    assert out == '{"genus":1,"x_curves":[[1]],"y_curves":[[1]],"signs":{"1":1}}\n'


def test_diagram_build_verify_encode_round_trip(tmp_path, capsys):
    code, out, _ = run_with_file(tmp_path, capsys, "diagram-build", FIGURE_INPUT)
    assert code == 0
    diagram = json.loads(out)
    assert diagram["genus"] == 3

    code, out, _ = run_with_file(tmp_path, capsys, "diagram-verify", diagram)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["is_positive"]
    assert report["rotation_genus"] <= report["declared_genus"]

    code, out, _ = run_with_file(tmp_path, capsys, "diagram-encode", diagram)
    assert code == 0
    pair = json.loads(out)
    assert pair["degree"] == len(diagram["signs"])

    code, out, _ = run_with_file(tmp_path, capsys, "diagram-decode", pair)
    assert code == 0
    rebuilt = json.loads(out)
    assert rebuilt["genus"] <= diagram["genus"]


def test_diagram_build_dot(tmp_path, capsys):
    code, out, _ = run_with_file(
        tmp_path, capsys, "diagram-build", FIGURE_INPUT, extra=("--emit", "dot")
    )
    assert code == 0
    assert out.startswith("graph diagram {")


def test_cover_base_then_lift(tmp_path, capsys):
    payload = {"base_genus": 1, "mode": "normalized", "fibers": [], "euler": 1}
    code, out, _ = run_with_file(tmp_path, capsys, "cover-base", payload)
    assert code == 0
    result = json.loads(out)
    assert result["lambda"] == 3

    code, out, _ = run_with_file(
        tmp_path, capsys, "cover-lift",
        {"seifert": result["base"], "cover": result["cover"]},
    )
    assert code == 0
    lifted = json.loads(out)

    code, out, _ = run_with_file(tmp_path, capsys, "normalize", lifted)
    assert code == 0
    assert json.loads(out) == {
        "base_genus": 1, "mode": "normalized", "fibers": [], "euler": 1,
    }


def test_betastar_verb(tmp_path, capsys):
    code, out, _ = run_with_file(
        tmp_path, capsys, "betastar", {"pairs": [[2, 1], [5, 3]], "lambda": 3}
    )
    assert code == 0
    stars = json.loads(out)["beta_star"]
    assert stars[0] % 2 == 1 and stars[1] % 5 == 3


def test_positivize_verb(tmp_path, capsys):
    code, out, _ = run_with_file(
        tmp_path, capsys, "positivize", {"generators": 1, "relators": [[-1]]}
    )
    assert code == 0
    assert json.loads(out) == {"generators": 2, "relators": [[1, 2], [2]]}


def test_diagram_verify_reports_disconnection(tmp_path, capsys):
    payload = {
        "genus": 2,
        "x_curves": [[1], [2]],
        "y_curves": [[1], [2]],
        "signs": {"1": 1, "2": 1},
    }
    code, out, _ = run_with_file(tmp_path, capsys, "diagram-verify", payload)
    assert code == 0
    report = json.loads(out)
    assert not report["ok"]
    assert report["rotation_genus"] is None
    assert any(e["code"] == "Disconnected" for e in report["errors"])


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code = main(["normalize", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err


def test_non_object_payload_exit_2(tmp_path, capsys):
    code, out, err = run_with_file(tmp_path, capsys, "normalize", [1])
    assert code == 2 and out == ""
    assert err == "TypeError: expected a JSON object, got list\n"


def test_diagram_signs_list_exit_2(tmp_path, capsys):
    payload = {"genus": 1, "x_curves": [[1]], "y_curves": [[1]], "signs": [1]}
    code, out, err = run_with_file(tmp_path, capsys, "diagram-verify", payload)
    assert code == 2 and out == ""
    assert err == (
        "TypeError: signs: expected an object mapping crossing id to sign, got list\n"
    )


def test_precondition_error_exit_3(tmp_path, capsys):
    payload = {"base_genus": 1, "mode": "normalized", "fibers": [], "euler": 0}
    code, out, err = run_with_file(tmp_path, capsys, "diagram-build", payload)
    assert code == 3
    assert err.startswith("BaseGenusUnsupported:")


def test_error_name_is_verbatim(tmp_path, capsys):
    payload = {
        "base_genus": 0,
        "mode": "normalized",
        "fibers": [{"alpha": 2, "beta": 3}],
        "euler": 0,
    }
    code, out, err = run_with_file(tmp_path, capsys, "normalize", payload)
    assert code == 3
    assert err.startswith("InvalidInvariant:")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_output_file(tmp_path, capsys):
    src = tmp_path / "in.json"
    dst = tmp_path / "out.json"
    src.write_text(json.dumps(FIGURE_INPUT), encoding="utf-8")
    code = main(["normalize", "--input", str(src), "--output", str(dst)])
    assert code == 0
    assert json.loads(dst.read_text(encoding="utf-8"))["euler"] == 5


@pytest.mark.parametrize("verb,payload,message", [
    ("normalize",
     {"base_genus": 0, "mode": "normalized", "fibers": [{"alpha": 2.7, "beta": 1}], "euler": 1},
     "$.fibers[0].alpha: expected integer, got float"),
    ("normalize",
     {"base_genus": 0, "mode": "normalized", "fibers": [{"alpha": 3, "beta": 1}], "euler": True},
     "$.euler: expected integer, got boolean"),
    ("positivize", {"generators": 2, "relators": "12"}, "$.relators: expected list, got string"),
])
def test_no_silent_coercion_exit_2(tmp_path, capsys, verb, payload, message):
    code, out, err = run_with_file(tmp_path, capsys, verb, payload)
    assert code == 2 and out == ""
    assert err == f"TypeError: {message}\n"
