"""Committed mutants of ``src/sfsdiag`` and a stdlib runner that checks each one is caught.

Each entry of ``MUTANTS`` names a module under ``src/sfsdiag``, an exact old text that must
occur in it once, the text that replaces it, and the test files to run.  Per mutant the runner
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
AGREEMENT_TESTS = ("tests/test_diagram_kernel.py::test_index_rejects_exactly_what_validate_reports",
                   "tests/test_diagram_kernel.py::test_index_rejects_every_side_that_is_not_one_to_d")

# (name, module, old text, new text, test files)
MUTANTS = [
    ("identity", "diagram.py", "def validate(", "def validate(", DIAGRAM_TESTS),
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
        ("y-sum-dropped", " or int.__ne__(sum(y_next), d * (d + 1) // 2):", ":"),
        ("x-sum-dropped", "if int.__ne__(sum(x_next), d * (d + 1) // 2) or ", "if "))),
    # the Montesinos codec on the crossing index's own proof
    ("encode-slices-from-0", "diagram.py", "tuple(idx.x_next[1:])", "tuple(idx.x_next[0:])", DIAGRAM_TESTS),
    ("links-without-leading-0", "diagram.py", "([0, *p.sigma_x], [0, *p.sigma_y], x_of)",
     "(list(p.sigma_x), list(p.sigma_y), x_of)", DIAGRAM_TESTS),
    ("rank-filter-dropped", "diagram.py", "sorted(c for c in rank if isinstance(c, int))",
     "sorted(c for c in rank)", DIAGRAM_TESTS),
    ("cycle-numbers-from-2", "diagram.py", "n = [], start, len(cycles) + 1", "n = [], start, len(cycles) + 2",
     DIAGRAM_TESTS),
    # an id that is no int never indexes: ranked curve ids, ids that index a list
    ("ranked-curve-int-check-dropped", "diagram.py", "[[rank[c] for c in cs if isinstance(c, int)]",
     "[[rank[c] for c in cs]", DIAGRAM_TESTS),
    ("sum-type-unchecked", "diagram.py",
     "if int.__ne__(sum(x_next), d * (d + 1) // 2) or int.__ne__(sum(y_next), d * (d + 1) // 2):",
     "if sum(x_next) != d * (d + 1) // 2 or sum(y_next) != d * (d + 1) // 2:", DIAGRAM_TESTS),
    # signs on ids 1..d are one run of their -1 ids: read only from values +-1, kept by the index and by iteration
    ("reader-sign-clause-dropped", "diagram.py", "and set(signs.values()) <= {1, -1}:", "and True:", RUN_TESTS),
    ("negatives-by-int-eq", "diagram.py", "map(eq, values, repeat(-1))", "map((-1).__eq__, values)", RUN_TESTS),
    ("index-ignores-run-negatives", "diagram.py", "negatives = signs.negatives", "negatives = ()", RUN_TESTS),
    ("run-iter-ignores-negatives", "diagram.py", "            values[c - 1] = -1\n", "            pass\n", RUN_TESTS),
    # every build slices one id list that the module keeps, grown past the largest d built
    ("ids-pool-short", "vertical.py", "if len(ids := _IDS[0]) <= d:", "if len(ids := _IDS[0]) < d:",
     ("tests/test_vertical.py::TestSharedIds::test_a_list_of_d_ids_is_grown_and_one_of_d_plus_one_is_sliced",)),
    ("ids-pool-not-kept", "vertical.py", "ids = _IDS[0] = list(range(d + 1))", "ids = list(range(d + 1))",
     ("tests/test_vertical.py::TestSharedIds::test_consecutive_builds_hold_the_same_int_objects",)),
]


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
