import io
import json
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from sfsdiag import __version__, diagram, vertical
from sfsdiag.cli import _VERBS, main
from sfsdiag.diagram import Diagram
from sfsdiag.exactalg import SnfResult

from helpers import SRC


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


def test_diagram_decode_refuses_a_degree_that_disagrees(tmp_path, capsys):
    payload = {"degree": 2, "sigma_x": [1, 2, 3], "sigma_y": [1, 2, 3]}
    code, out, err = run_with_file(tmp_path, capsys, "diagram-decode", payload)
    assert code == 2 and out == ""
    assert err == "ValueError: sigma_x is not a permutation of 1..2\n"


def test_diagram_decode_reads_a_pair_without_degree(tmp_path, capsys):
    pair = {"sigma_x": [2, 3, 1], "sigma_y": [3, 1, 2]}
    code, out, err = run_with_file(tmp_path, capsys, "diagram-decode", pair)
    assert code == 0 and err == ""
    assert out == '{"genus":1,"x_curves":[[1,2,3]],"y_curves":[[1,3,2]],"signs":{"1":1,"2":1,"3":1}}\n'
    assert run_with_file(tmp_path, capsys, "diagram-decode", dict(pair, degree=3))[1] == out
    code, out, err = run_with_file(tmp_path, capsys, "diagram-encode", json.loads(out))
    assert code == 0 and err == ""
    assert out == '{"degree":3,"sigma_x":[2,3,1],"sigma_y":[3,1,2]}\n'


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


def nested(depth):
    return ["[" * depth + "]" * depth, '{"a":' * depth + "1" + "}" * depth,
            '{"fibers":' + "[" * depth + "]" * depth + "}"]


def nests_too_deep(text):
    """Whether this interpreter's ``json.loads`` runs out of recursion on ``text``."""
    try:
        json.loads(text)
    except RecursionError:
        return True
    except ValueError:
        pass
    return False


def run_text(tmp_path, capsys, verb, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    code = main([verb, "--input", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TOO_DEEP = "ValueError: JSON nesting is too deep\n"


# 1,100 levels exceed the recursion limit of Python 3.10 and 3.11, whose JSON
# scanner counts its nesting against it; 3.12 and later parse them
@pytest.mark.parametrize("verb", list(_VERBS))
@pytest.mark.parametrize("text", nested(1100), ids=["array", "object", "fibers"])
def test_deep_nesting_exit_2(tmp_path, capsys, verb, text):
    code, out, err = run_text(tmp_path, capsys, verb, text)
    assert code == 2 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    if nests_too_deep(text):
        assert err == TOO_DEEP


# 200,000 levels are too deep for every supported interpreter
@pytest.mark.parametrize("verb", list(_VERBS))
@pytest.mark.parametrize("text", nested(200_000), ids=["array", "object", "fibers"])
def test_very_deep_nesting_exit_2(tmp_path, capsys, verb, text):
    assert run_text(tmp_path, capsys, verb, text) == (2, "", TOO_DEEP)


# a child process's own peak RSS in KiB after one request on stdin: VmHWM, since
# on Linux ru_maxrss also carries the RSS of the parent through fork and exec;
# ru_maxrss (bytes on macOS) where there is no /proc
PEAK_RSS_CHILD = """
import io, resource, sys
from sfsdiag.cli import main
sys.stdout = io.StringIO()
code = main([sys.argv[1]])
try:
    with open("/proc/self/status") as status:
        peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // (1024 if sys.platform == "darwin" else 1)
sys.stderr.write(f"{code} {peak}")
"""


@pytest.mark.parametrize("verb", ["homology", "diagram-build"])
def test_many_fibers_in_bounded_memory(verb):
    # 4,000 fibers 1/2: the relation and intersection matrices are kept as
    # their nonzeros; filled in densely they peak above 250 MiB
    payload = {"base_genus": 0, "mode": "normalized", "fibers": [{"alpha": 2, "beta": 1}] * 4000, "euler": 2000}
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_CHILD, verb], input=json.dumps(payload),
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    code, peak_kib = proc.stderr.split()
    assert code == "0"
    assert int(peak_kib) < 64 * 1024


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
    ("betastar", {"pairs": [[2, 1], [5, 3]], "lambda": 3.9}, "$.lambda: expected integer, got float"),
    ("cover-lift",
     {"seifert": {"base_genus": 0, "mode": "non_normalized",
                  "fibers": [{"alpha": 2, "beta": 1}, {"alpha": 3, "beta": 1}, {"alpha": 5, "beta": 1}]},
      "cover": {"lambda": True, "partitions": [[1], [1], [1]]}},
     "$.lambda: expected integer, got boolean"),
    ("diagram-verify",
     {"genus": 1.5, "x_curves": [[1.0]], "y_curves": [[True]], "signs": {"1": 1}},
     "$.genus: expected integer, got float"),
    ("diagram-verify",
     {"genus": 1, "x_curves": [[1.0]], "y_curves": [[True]], "signs": {"1": 1}},
     "$.x_curves[0][0]: expected integer, got float"),
    ("diagram-decode", {"sigma_x": [1.0], "sigma_y": [True]}, "$.sigma_x[0]: expected integer, got float"),
    ("diagram-decode", {"sigma_x": [1], "sigma_y": [True]}, "$.sigma_y[0]: expected integer, got boolean"),
])
def test_no_silent_coercion_exit_2(tmp_path, capsys, verb, payload, message):
    code, out, err = run_with_file(tmp_path, capsys, verb, payload)
    assert code == 2 and out == ""
    assert err == f"TypeError: {message}\n"


@pytest.mark.parametrize("pairs,message", [
    ([[2, 1, 5]], "ValueError: $.pairs[0]: expected 2 integers [alpha, beta], got 3"),
    ([[2]], "ValueError: $.pairs[0]: expected 2 integers [alpha, beta], got 1"),
    ([[2, 1], []], "ValueError: $.pairs[1]: expected 2 integers [alpha, beta], got 0"),
    ([[2, 1, 5], [3, 1.5]], "ValueError: $.pairs[0]: expected 2 integers [alpha, beta], got 3"),
    ([[2, 1.5, 5]], "TypeError: $.pairs[0][1]: expected integer, got float"),
])
def test_betastar_pair_arity_exit_2(tmp_path, capsys, pairs, message):
    code, out, err = run_with_file(tmp_path, capsys, "betastar", {"pairs": pairs, "lambda": 3})
    assert code == 2 and out == ""
    assert err == message + "\n"


LIFT_SLOTS = {"base_genus": 0, "mode": "non_normalized",
              "fibers": [{"alpha": 2, "beta": 1}, {"alpha": 3, "beta": 1}, {"alpha": 5, "beta": 1}]}


@pytest.mark.parametrize("verb,payload,code,out,err", [
    ("normalize", {"base_genus": 0, "mode": "bogus", "fibers": []}, 2, "", "ValueError: unknown mode 'bogus'"),
    ("normalize", {"base_genus": -1, "mode": "normalized", "fibers": [], "euler": 0},
     3, "", "InvalidInvariant: base genus must be >= 0, got -1"),
    ("normalize", {"base_genus": 0, "mode": "normalized", "fibers": [{"alpha": 0, "beta": 1}], "euler": 0},
     3, "", "InvalidInvariant: alpha must be >= 1, got 0"),
    ("cover-lift", {"seifert": {"base_genus": 0, "mode": "normalized", "fibers": [], "euler": 0},
                    "cover": {"lambda": 1, "partitions": []}},
     2, "", "ValueError: lift_seifert expects non-normalized input"),
    ("cover-lift", {"seifert": {"base_genus": 0, "mode": "non_normalized", "fibers": []},
                    "cover": {"lambda": 1, "partitions": []}},
     2, "", "ValueError: lift_seifert needs at least one filling slot"),
    ("cover-lift", {"seifert": LIFT_SLOTS, "cover": {"lambda": 0, "partitions": [[1], [1], [1]]}},
     2, "", "ValueError: sheet count must be >= 1, got 0"),
    ("cover-lift", {"seifert": LIFT_SLOTS, "cover": {"lambda": 1, "partitions": [[0], [1], [1]]}},
     2, "", "ValueError: partition 0 must consist of positive parts"),
    ("cover-lift", {"seifert": LIFT_SLOTS, "cover": {"lambda": 1, "partitions": [[1], [1], [1], [1]]}},
     3, "", "IncompatibleSpec: 3 filling slots but 4 boundary partitions"),
    ("cover-lift", {"seifert": LIFT_SLOTS, "cover": {"lambda": 2, "partitions": [[1], [1], [1]]}},
     3, "", "IncompatibleSpec: partition 0 sums to 1, not 2"),
    ("cover-lift", {"seifert": {"base_genus": 0, "mode": "non_normalized", "fibers": [{"alpha": 9, "beta": 2}]},
                    "cover": {"lambda": 3, "partitions": [[3]]}},
     3, "", "IncompatibleSpec: covering data yields a negative genus"),
    ("betastar", {"pairs": [[0, 1], [5, 3]], "lambda": 3}, 2, "", "ValueError: alpha must be >= 1, got 0"),
    ("betastar", {"pairs": [[4, 2], [5, 3]], "lambda": 3}, 2, "", "ValueError: pair (4, 2) is not coprime"),
    ("positivize", {"generators": -1, "relators": []}, 2, "", "ValueError: generator count must be nonnegative"),
    ("positivize", {"generators": 2, "relators": [[1, 0]]}, 2, "", "ValueError: letter 0 out of range"),
    ("positivize", {"generators": 2, "relators": [[3]]}, 2, "", "ValueError: letter 3 out of range"),
    ("positivize", {"generators": 2, "relators": [[-3]]}, 2, "", "ValueError: letter -3 out of range"),
    ("diagram-decode", {"sigma_x": [1, 2], "sigma_y": [1, 1]},
     2, "", "ValueError: sigma_y is not a permutation of 1..2"),
    ("diagram-decode", {"sigma_x": [], "sigma_y": []},
     0, '{"genus":0,"x_curves":[],"y_curves":[],"signs":{}}', ""),
])
def test_exit_code_and_stderr_line(tmp_path, capsys, verb, payload, code, out, err):
    assert run_with_file(tmp_path, capsys, verb, payload) == (code, out and out + "\n", err and err + "\n")


def test_oversized_build_refused_before_allocating(tmp_path, capsys):
    # {0; 1/4000001, 1/3, 2/5; e=1} needs 12,000,021 crossings
    payload = {"base_genus": 0, "mode": "normalized", "euler": 1,
               "fibers": [{"alpha": 4000001, "beta": 1}, {"alpha": 3, "beta": 1},
                          {"alpha": 5, "beta": 2}]}
    tracemalloc.start()
    try:
        code, out, err = run_with_file(tmp_path, capsys, "diagram-build", payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err == (
        "CrossingBudgetExceeded: the diagram needs 12000021 crossings, above the limit of 1000000\n"
    )
    assert peak < 1_000_000


def test_diagram_verify_skips_validate_on_a_valid_diagram(tmp_path, capsys, monkeypatch):
    code, out, _ = run_with_file(tmp_path, capsys, "diagram-build", FIGURE_INPUT)
    assert code == 0
    calls = []
    real = diagram.validate
    monkeypatch.setattr(diagram, "validate", lambda dg: calls.append(dg) or real(dg))
    code, out, _ = run_with_file(tmp_path, capsys, "diagram-verify", json.loads(out))
    assert code == 0 and json.loads(out)["ok"]
    assert calls == []
    bad = {"genus": 1, "x_curves": [[1, 1]], "y_curves": [[1]], "signs": {"1": 1}}
    code, out, _ = run_with_file(tmp_path, capsys, "diagram-verify", bad)
    assert code == 0 and calls
    assert json.loads(out)["errors"] == [{"code": "DuplicateOnX", "message": "crossing 1 appears 2 times"}]


def test_diagram_verify_runs_the_exhaustive_pass_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = diagram._find_violations
    monkeypatch.setattr(diagram, "_find_violations", lambda dg: calls.append(dg) or real(dg))
    bad = {"genus": 1, "x_curves": [[1, 1]], "y_curves": [[1]], "signs": {"1": 1}}
    code, out, _ = run_with_file(tmp_path, capsys, "diagram-verify", bad)
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["errors"] == [{"code": "DuplicateOnX", "message": "crossing 1 appears 2 times"}]


# one broken builder oracle per case, on the worked example (53 crossings)
BROKEN_ORACLES = [
    ("Diagram", lambda g, xs, ys, signs: Diagram(g, xs, ys, signs[:-1]),
     "structural defect: invalid diagram: MissingSign: crossing 53 has no sign"),
    ("Diagram", lambda g, xs, ys, signs: Diagram(g, xs, ys, ((1, -1), *signs[1:])),
     "intersection matrix mismatch"),
    ("is_positive_diagram", lambda dg: False, "built diagram has a negative crossing"),
    ("Diagram", lambda g, xs, ys, signs: Diagram(g + 1, xs, ys, signs),
     "curve counts disagree with the plan genus"),
    ("rotation_genus", lambda dg: dg.declared_genus + 1, "forced rotation genus differs from the plan genus"),
    ("homology", lambda s: SnfResult((2,), 0), "diagram homology disagrees with the invariants"),
]


@pytest.mark.parametrize("name,broken,message", BROKEN_ORACLES)
def test_failed_builder_oracle_exit_4(tmp_path, capsys, monkeypatch, name, broken, message):
    monkeypatch.setattr(vertical, name, broken)
    code, out, err = run_with_file(tmp_path, capsys, "diagram-build", FIGURE_INPUT)
    assert code == 4 and out == ""
    assert err == f"SynthesisInvariantViolation: {message}\n"


PRIME_31 = 1000000000000000000000000000057


@pytest.mark.parametrize("verb,payload,error", [
    ("positivize", {"generators": 100000000, "relators": [[1]]},
     "WorkBudgetExceeded: the result needs 100000002 letters, above the limit of 1000000\n"),
    ("betastar", {"pairs": [[PRIME_31, 1], [5, 3]], "lambda": PRIME_31},
     f"WorkBudgetExceeded: factoring {PRIME_31} needs trial divisors above the limit of 1000000\n"),
    ("cover-base", {"base_genus": (PRIME_31 - 1) // 2, "mode": "normalized", "fibers": [], "euler": 0},
     f"WorkBudgetExceeded: factoring {PRIME_31} needs trial divisors above the limit of 1000000\n"),
])
def test_oversized_request_refused_quickly(tmp_path, capsys, verb, payload, error):
    start = time.perf_counter()
    code, out, err = run_with_file(tmp_path, capsys, verb, payload)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == "" and err == error


def run_argv(argv, capsys, monkeypatch, stdin='{"sigma_x":[1],"sigma_y":[1]}'):
    """(exit status, stdout, stderr) of ``main(argv)``, a ``SystemExit`` included."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv,reason", [
    ([], "missing verb"),
    (["bogus"], "unknown verb 'bogus'"),
    (["--input", "x", "normalize"], "unknown verb '--input'"),
    (["normalize", "--in", "x"], "unknown option '--in' for normalize"),
    (["normalize", "--inp=x"], "unknown option '--inp=x' for normalize"),
    (["normalize", "--bogus"], "unknown option '--bogus' for normalize"),
    (["normalize", "--version"], "unknown option '--version' for normalize"),
    (["normalize", "stray"], "unknown argument 'stray' for normalize"),
    (["normalize", "--emit", "dot"], "unknown option '--emit' for normalize"),
    (["normalize", "--input"], "option --input needs a value"),
    (["diagram-decode", "--emit"], "option --emit needs a value"),
    (["diagram-build", "--output", "-", "--output"], "option --output needs a value"),
    (["diagram-build", "--emit", "xml"], "--emit takes json or dot, not 'xml'"),
    (["diagram-decode", "--emit="], "--emit takes json or dot, not ''"),
])
def test_usage_error_exit_2(capsys, monkeypatch, argv, reason):
    code, out, err = run_argv(argv, capsys, monkeypatch)
    assert code == 2 and out == ""
    assert err == f"UsageError: {reason}; see sfsdiag --help\n"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["diagram-build", "--help"], ["normalize", "--input", "x", "-h"]])
def test_help_lists_every_verb(capsys, monkeypatch, argv):
    code, out, err = run_argv(argv, capsys, monkeypatch)
    assert code == 0 and err == ""
    assert out.startswith("usage: sfsdiag VERB [--input PATH] [--output PATH] [--emit {json,dot}]\n")
    listed = [line.split()[0] for line in out.split("verbs:\n")[1].split("\n\n")[0].splitlines()]
    assert listed == list(_VERBS)
    for flag in ("--input PATH", "--output PATH", "--emit {json,dot}"):
        assert f"\n  {flag} " in out


def test_equals_form_and_last_value_win(tmp_path, capsys, monkeypatch):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(FIGURE_INPUT), encoding="utf-8")
    spaced = run_argv(["diagram-build", "--input", str(src)], capsys, monkeypatch)
    assert spaced[0] == 0
    assert run_argv(["diagram-build", f"--input={src}"], capsys, monkeypatch) == spaced
    assert run_argv(["diagram-build", "--input", "nope", "--input", str(src)], capsys, monkeypatch) == spaced
    assert run_argv(["diagram-build", "--emit=dot", "--input", str(src), "--emit", "json"],
                    capsys, monkeypatch) == spaced
    dot = run_argv(["diagram-build", f"--input={src}", "--emit=dot"], capsys, monkeypatch)
    assert dot[0] == 0 and dot[1].startswith("graph diagram {")
    dst = tmp_path / "out.json"
    assert run_argv(["diagram-build", f"--input={src}", f"--output={dst}"], capsys, monkeypatch) == (0, "", "")
    assert dst.read_text(encoding="utf-8") == spaced[1]


def test_unwritable_output_exit_2(tmp_path, capsys, monkeypatch):
    code, out, err = run_argv(["diagram-decode", "--output", str(tmp_path / "no" / "out.json")], capsys, monkeypatch)
    assert code == 2 and out == ""
    assert err.startswith("FileNotFoundError: ") and err.count("\n") == 1


@pytest.mark.parametrize("payload,code,stderr", [
    (FIGURE_INPUT, 0, ""),
    ({"base_genus": 0, "mode": "normalized", "fibers": [{"alpha": 2, "beta": 3}], "euler": 0}, 3,
     "InvalidInvariant: "),
])
def test_input_file_is_closed(tmp_path, payload, code, stderr):
    # -X dev reports a file left open as a ResourceWarning on stderr
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "sfsdiag.cli", "normalize",
         "--input", str(path)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == code
    if code:
        assert proc.stdout == "" and proc.stderr.startswith(stderr) and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == "" and json.loads(proc.stdout)["euler"] == 5
