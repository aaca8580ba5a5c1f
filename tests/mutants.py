"""Committed mutants of ``src/sfsdiag`` and a stdlib runner that checks each one is caught.

Each entry of ``MUTANTS`` names a module under ``src/sfsdiag``, an exact old text that must
occur in it once, the text that replaces it, and the test files or node ids to run.  Per mutant the runner
copies ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory, applies the one
mutant there and runs ``pytest -x -q`` on its test files within ``TIMEOUT`` and ``MEMORY``.
The run fails on a survivor (the tests pass), a timeout, a pytest that ends in neither pass nor
failure, or a stale mutant (an old text that no longer occurs exactly once), so the list moves
with the code.  The entry whose replacement equals its old text is the identity: it checks the
runner, must be reported as a survivor, and fails the run if its tests fail.

Not collected by pytest.  Run from anywhere:

    python tests/mutants.py
"""

import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per mutant
MEMORY = 2 << 30  # bytes of address space per mutant: one that loops while it allocates dies alone
DIAGRAM_TESTS = ("tests/test_diagram.py", "tests/test_diagram_kernel.py")
RUN_TESTS = (*DIAGRAM_TESTS, "tests/test_values.py")
BOUNDARY_TEST = "tests/test_values.py::test_each_int_field_refuses_what_is_no_int[{}-True]"
FUNCTION_TEST = "tests/test_values.py::test_each_int_argument_refuses_what_is_no_int[{}-True]"
FAMILY_TEST = "tests/test_values.py::test_a_family_is_refused_where_it_cannot_be_represented[{}]"
HANDLE_TEST = "tests/test_diagram_kernel.py::test_handles_drawn_as_curves_make_a_positive_diagram_of_the_same_space"
AGREEMENT_TESTS = ("tests/test_diagram_kernel.py::test_index_rejects_exactly_what_validate_reports",
                   "tests/test_diagram_kernel.py::test_index_rejects_every_side_that_is_not_one_to_d")

# (name, module, old text, new text, test files or node ids)
MUTANTS = [
    # validate answers from the crossing index
    ("violations-keep-no-index", "diagram.py",
     '        self.__dict__["_index"] = index\n        return ()\n', "        return ()\n", ("tests/test_diagram.py",)),
    ("index-rebuilt", "diagram.py", '        return self.__dict__["_index"]\n',
     "        return _crossing_index(self.declared_genus, self.x_curves, self.y_curves, self.signs)\n",
     ("tests/test_diagram.py",)),
    ("decode-fills-only-index", "diagram.py", "dg.__dict__.update(_index=index, _violations=())",
     "dg.__dict__.update(_index=index)", ("tests/test_diagram.py",)),
    # the successor check by one sum per side, against the two re-pointed index/exhaustive-pass tests
    *((name, "diagram.py", old, new, AGREEMENT_TESTS) for name, old, new in (
        ("sentinel-minus-1", "unset = 2 * (d + 1) ** 2", "unset = -1"),
        ("sentinel-0", "unset = 2 * (d + 1) ** 2", "unset = 0"),
        ("y-sum-dropped", " or sum(y_next) != d * (d + 1) // 2:", ":"),
        ("x-sum-dropped", "if sum(x_next) != d * (d + 1) // 2 or ", "if "))),
    # the Montesinos codec on the crossing index's own proof
    ("encode-slices-from-0", "diagram.py", "tuple(idx.x_next[1:])", "tuple(idx.x_next[0:])", DIAGRAM_TESTS),
    ("links-without-leading-0", "diagram.py", "([0, *p.sigma_x], [0, *p.sigma_y], x_of)",
     "(list(p.sigma_x), list(p.sigma_y), x_of)", DIAGRAM_TESTS),
    ("cycle-numbers-from-2", "diagram.py", "n = [], start, len(cycles) + 1", "n = [], start, len(cycles) + 2",
     DIAGRAM_TESTS),
    # one type boundary: a hand-built diagram's ids and signs are scanned, a reader's and a build's are
    # not, the exhaustive pass lists a sign value that is no int, and a run checks its own -1 ids
    ("scan-bypassed", "diagram.py", "or {*map(type, chain(*self.x_curves, *self.y_curves, *self.signs))} <= {int})",
     "or True)", ("tests/test_diagram_kernel.py::test_error_is_the_first_violation",)),
    ("mark-ignored", "diagram.py", 'self.__dict__.pop("_ints", 0) or', 'self.__dict__.pop("_ints", 0) and 0 or',
     ("tests/test_diagram_kernel.py::TestScanOnce",)),
    ("bad-sign-type-dropped", "diagram.py", "if type(v) is not int or v not in (1, -1):", "if v not in (1, -1):",
     ("tests/test_diagram_kernel.py::test_error_is_the_first_violation",)),
    ("run-check-dropped", "diagram.py", "if type(d) is not int or d < 0 or negatives and not (", "if False and (",
     ("tests/test_diagram_kernel.py::test_a_run_refuses_malformed_negatives",
      "tests/test_diagram_kernel.py::test_a_hand_built_run_is_refused_or_validated_as_its_tuple")),
    # signs on ids 1..d are one run of their -1 ids: read only from values +-1, kept by the index and by iteration
    ("reader-sign-clause-dropped", "diagram.py", "and set(signs.values()) <= {1, -1}:", "and True:", RUN_TESTS),
    ("index-ignores-run-negatives", "diagram.py", "negatives = signs.negatives", "negatives = ()",
     ("tests/test_diagram_kernel.py::test_index_of_a_signed_built_read_matches_the_tuple_path", HANDLE_TEST)),
    ("run-iter-ignores-negatives", "diagram.py", "            values[c - 1] = -1\n", "            pass\n",
     ("tests/test_values.py::test_a_positive_run_acts_as_the_tuple_it_stands_for",
      "tests/test_diagram_kernel.py::test_from_json_reads_ids_one_to_d_as_a_run")),
    # one type boundary for every value class: each constructor refuses a field or an entry that is no int
    ("euler-check-dropped", "seifert.py", 'euler if euler is None else want(euler, int, "euler")', "euler",
     (BOUNDARY_TEST.format("SeifertData.euler"),)),
    ("fiber-type-check-dropped", "seifert.py", "if not {*map(type, fibers)} <= {FiberInvariant}:", "if False:",
     (BOUNDARY_TEST.format("SeifertData.fibers[0]"),)),
    ("letter-type-test-dropped", "presentation.py", "if type(letter) is not int or letter == 0", "if letter == 0",
     (BOUNDARY_TEST.format("Presentation.relators[0][0]"),)),
    ("matrix-row-check-dropped", "exactalg.py", 'if len(want_ints(list(row), "entries[{}]", i)) != cols:',
     "if len(row) != cols:", (BOUNDARY_TEST.format("IntMatrix.entries[0][0]"),)),
    ("factor-type-test-dropped", "exactalg.py", "if type(d) is not int or d <= 0:", "if d <= 0:",
     (BOUNDARY_TEST.format("SnfResult.invariant_factors[0]"),)),
    ("genus-want-dropped", "diagram.py", 'want(declared_genus, int, "declared_genus")', "declared_genus",
     (BOUNDARY_TEST.format("Diagram.declared_genus"),)),
    # every build slices one id list that the module keeps, grown past the largest d built
    ("ids-pool-short", "vertical.py", "if len(ids := _IDS[0]) <= d:", "if len(ids := _IDS[0]) < d:",
     ("tests/test_vertical.py::TestSharedIds::test_a_list_of_d_ids_is_grown_and_one_of_d_plus_one_is_sliced",)),
    ("ids-pool-not-kept", "vertical.py", "ids = _IDS[0] = list(range(d + 1))", "ids = list(range(d + 1))",
     ("tests/test_vertical.py::TestSharedIds::test_consecutive_builds_hold_the_same_int_objects",)),
    # one type boundary for every public function: each refuses an int argument or entry that is no int
    ("g-want-dropped", "covers.py", 'if want(g, int, "g") < 0:', "if g < 0:",
     (FUNCTION_TEST.format("lifted_diagram_genus.g"),)),
    ("sheets-want-dropped", "covers.py", '{g}")\n    if want(sheets, int, "sheets") < 1:', '{g}")\n    if sheets < 1:',
     (FUNCTION_TEST.format("lifted_diagram_genus.sheets"),)),
    ("absorber-want-dropped", "seifert.py", 'want(absorber_index, int, "absorber_index")', "absorber_index",
     (FUNCTION_TEST.format("denormalize.absorber_index"),)),
    ("m-want-dropped", "vertical.py", 'if want(m, int, "m") < 0:', "if m < 0:",
     (FUNCTION_TEST.format("plan_decomposition.m"),)),
    ("lam-want-dropped", "covers.py", 'want(lam, int, "lam")', "lam", (FUNCTION_TEST.format("beta_star.lam"),)),
    ("alpha-want-dropped", "covers.py", 'want(a, int, "pairs[{}][0]", i)', "a",
     (FUNCTION_TEST.format("beta_star.pairs[0][0]"),)),
    ("beta-want-dropped", "covers.py", 'want(b, int, "pairs[{}][1]", i)', "b",
     (FUNCTION_TEST.format("beta_star.pairs[0][1]"),)),
    # a horizontal family is refused where a report could not name it
    ("family-check-dropped", "seifert.py", "if family not in _FAMILY_NAMES:", "if False:",
     (FAMILY_TEST.format("unknown-family"),)),
    ("sign-range-dropped", "seifert.py", "not in (1, -1):", "is None:", (FAMILY_TEST.format("sign-5"),)),
    ("report-family-check-dropped", "seifert.py", "and not (_FAMILY_NAMES[fam.family] and fam.sign):", "and False:",
     (FAMILY_TEST.format("report-family-1.1"),)),
    # the paper's trivial handle: the index's own handles, checked against the handles drawn as curves
    ("handle-links-p-to-c", "diagram.py", "        y_next[p] = c - 1\n", "        y_next[p] = c\n", (HANDLE_TEST,)),
    ("exponent-sums-unsigned", "presentation.py", "    if min(counts, default=1) > 0:\n", "    if True:\n",
     (HANDLE_TEST,)),
]
# the identity checks the runner: it runs every test file and node id named above, each once
NAMED = {test for *_, tests in MUTANTS for test in tests}
MUTANTS.insert(0, ("identity", "diagram.py", "def validate(", "def validate(",
                   tuple(sorted(test for test in NAMED if "::" not in test or test.split("::")[0] not in NAMED))))


def stale(mutants) -> list[str]:
    """The names of the mutants whose old text does not occur exactly once."""
    return [name for name, module, old, _, _ in mutants
            if (ROOT / "src" / "sfsdiag" / module).read_text().count(old) != 1]


def run(mutant) -> str:
    """``caught``, ``survived``, ``timeout`` or ``error (exit N)`` for one mutant in its own copy."""
    _, module, old, new, tests = mutant
    with tempfile.TemporaryDirectory(prefix="sfsdiag-mutant-") as tmp:
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        path = Path(tmp, "src", "sfsdiag", module)
        path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(Path(tmp, "src")), str(Path(tmp, "tests")))),
                   PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
        proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                start_new_session=True,
                                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY)))
        try:
            code = proc.wait(TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest and any child it started
            proc.wait()
            return "timeout"
    # 1: a test failed; 2: pytest stopped, as on an import or collection error
    return {0: "survived", 1: "caught", 2: "caught"}.get(code, f"error (exit {code})")


def main() -> int:
    failed = stale(MUTANTS)
    for name in failed:
        print(f"stale     {name}: its old text does not occur exactly once")
    for mutant in (m for m in MUTANTS if m[0] not in failed):
        name, _, old, new, _ = mutant
        start = time.perf_counter()
        outcome = run(mutant)
        expected = "survived" if old == new else "caught"
        print(f"{outcome:<9} {name} ({time.perf_counter() - start:.1f} s)"
              + ("" if outcome == expected else f"  FAIL: expected {expected}"), flush=True)
        if outcome != expected:
            failed.append(name)
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} as expected"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
