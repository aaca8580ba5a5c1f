"""The frozen value classes and the lazy package surface."""

import copy
import glob
import importlib
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import sfsdiag
from sfsdiag import (
    ChainPlan,
    CoverSpec,
    Diagram,
    FiberInvariant,
    GenusReport,
    HorizontalFamily,
    IntMatrix,
    PermutationPair,
    Presentation,
    SeifertData,
    SnfResult,
    beta_star,
    build_positive_vertical,
    cyclic_cover_spec,
    denormalize,
    lifted_diagram_genus,
    plan_decomposition,
    rotation_genus,
)
from sfsdiag.diagram import DiagramViolation, SignRun
from sfsdiag.errors import Value

from helpers import SRC, VERB_PAYLOADS

# one factory per class, each with the repr the classes had as frozen dataclasses
CASES = [
    (lambda: CoverSpec(3, ((3,), (1, 2))), "CoverSpec(sheets=3, partitions=((3,), (1, 2)))"),
    (lambda: Diagram(1, ((1,),), ((1,),), ((1, 1),)),
     "Diagram(declared_genus=1, x_curves=((1,),), y_curves=((1,),), signs=((1, 1),))"),
    (lambda: DiagramViolation("BadSign", "crossing 1 has sign 2"),
     "DiagramViolation(code='BadSign', message='crossing 1 has sign 2')"),
    (lambda: PermutationPair((2, 1), (1, 2)), "PermutationPair(sigma_x=(2, 1), sigma_y=(1, 2))"),
    (lambda: IntMatrix(2, ((1, -2),)), "IntMatrix(cols=2, entries=((1, -2),))"),
    (lambda: SnfResult((1, 6), 0), "SnfResult(invariant_factors=(1, 6), free_rank=0)"),
    (lambda: Presentation(2, ((1, -2), ())), "Presentation(n_generators=2, relators=((1, -2), ()))"),
    (lambda: FiberInvariant(5, -3), "FiberInvariant(alpha=5, beta=-3)"),
    (lambda: SeifertData(0, (FiberInvariant(2, 1), FiberInvariant(3, 1)), 1),
     "SeifertData(base_genus=0, fibers=(FiberInvariant(alpha=2, beta=1), FiberInvariant(alpha=3, beta=1)),"
     " euler=1)"),
    (lambda: SeifertData(1, ()), "SeifertData(base_genus=1, fibers=(), euler=None)"),
    (lambda: HorizontalFamily("2.1", 1, 1), "HorizontalFamily(family='2.1', n=1, sign=1, fiber_count=None)"),
    (lambda: HorizontalFamily("1.1", n=2, fiber_count=4),
     "HorizontalFamily(family='1.1', n=2, sign=None, fiber_count=4)"),
    (lambda: GenusReport(2, 2, 2, "Generic_g0"),
     "GenusReport(hg=2, phg_lo=2, phg_hi=2, case_tag='Generic_g0', horizontal_family=None, notes='')"),
    (lambda: GenusReport(2, 2, 2, "ThmB_family", HorizontalFamily("2.1", 1, 1), "note"),
     "GenusReport(hg=2, phg_lo=2, phg_hi=2, case_tag='ThmB_family',"
     " horizontal_family=HorizontalFamily(family='2.1', n=1, sign=1, fiber_count=None), notes='note')"),
    (lambda: ChainPlan(4), "ChainPlan(r=4)"),
]
IDS = [golden.split("(")[0] for _, golden in CASES]

# constructor parameters in order, with their defaults
SIGNATURES = {
    CoverSpec: {"sheets": None, "partitions": None},
    Diagram: {"declared_genus": None, "x_curves": None, "y_curves": None, "signs": None},
    DiagramViolation: {"code": None, "message": None},
    PermutationPair: {"sigma_x": None, "sigma_y": None},
    IntMatrix: {"cols": None, "entries": None},
    SnfResult: {"invariant_factors": None, "free_rank": None},
    Presentation: {"n_generators": None, "relators": None},
    FiberInvariant: {"alpha": None, "beta": None},
    SeifertData: {"base_genus": None, "fibers": None, "euler": None},
    HorizontalFamily: {"family": None, "n": None, "sign": None, "fiber_count": None},
    GenusReport: {"hg": None, "phg_lo": None, "phg_hi": None, "case_tag": None, "horizontal_family": None,
                  "notes": ""},
    ChainPlan: {"r": None},
}


def fields(value) -> dict:
    return {name: getattr(value, name) for name in SIGNATURES[type(value)]}


@pytest.mark.parametrize("make,golden", CASES, ids=IDS)
class TestValueClasses:
    def test_repr_is_the_dataclass_repr(self, make, golden):
        assert repr(make()) == golden

    def test_equal_and_hash_equal_when_built_apart(self, make, golden):
        a, b = make(), make()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_never_equal_to_a_tuple(self, make, golden):
        a = make()
        values = tuple(fields(a).values())
        assert a != values and values != a

    def test_keyword_construction(self, make, golden):
        a = make()
        assert type(a)(**fields(a)) == a

    def test_frozen(self, make, golden):
        a = make()
        for name, value in fields(a).items():
            with pytest.raises(AttributeError):
                setattr(a, name, value)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.extra = 1
        assert repr(a) == golden

    def test_pickle_and_copy_round_trip(self, make, golden):
        a = make()
        for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert type(twin) is type(a) and twin == a and repr(twin) == golden


def test_equality_is_by_class_and_fields():
    assert FiberInvariant(2, 1) != (2, 1)
    assert FiberInvariant(2, 1) != DiagramViolation(2, 1)
    assert FiberInvariant(5, 2) != FiberInvariant(5, 3)
    assert SeifertData(0, (), 1) != SeifertData(0, (), None)
    assert HorizontalFamily("2.1", 1, 1) != HorizontalFamily("2.2", 1, 1)


def test_constructor_parameters_and_defaults():
    for cls, params in SIGNATURES.items():
        code = cls.__init__.__code__
        names = code.co_varnames[1:code.co_argcount]
        assert list(names) == list(params), cls
        defaults = cls.__init__.__defaults__ or ()
        assert list(params.values())[len(params) - len(defaults):] == list(defaults), cls
    assert SeifertData(1, ()).euler is None
    assert GenusReport(1, 1, 1, "Generic_g0").notes == ""


@pytest.mark.parametrize("make,name,value", [
    (lambda: GenusReport(2, 2, 2, "Generic_g0"), "exact", True),
    (lambda: GenusReport(2, 3, 4, "ThmA3"), "exact", False),
    (lambda: PermutationPair((2, 3, 1), (1, 3, 2)), "degree", 3),
    (lambda: PermutationPair((), ()), "degree", 0),
    (lambda: IntMatrix(2, ((1, -2), (0, 3), (4, 0))), "rows", 3),
    (lambda: IntMatrix(3, ()), "rows", 0),
], ids=["exact", "inexact", "degree", "degree-0", "rows", "rows-0"])
def test_derived_fields_are_read_only_properties(make, name, value):
    a = make()
    assert name not in type(a).__slots__ and getattr(a, name) == value
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert twin == a and hash(twin) == hash(a) and getattr(twin, name) == value
    with pytest.raises(AttributeError):
        setattr(a, name, value)
    with pytest.raises(TypeError):
        type(a)(**fields(a), **{name: value})


def test_a_diagram_pickles_after_its_index_is_cached():
    dg = Diagram(1, ((1,),), ((1,),), ((1, 1),))
    assert rotation_genus(dg) == 1
    twin = pickle.loads(pickle.dumps(dg))
    assert twin == dg and rotation_genus(twin) == 1
    assert copy.deepcopy(dg) == dg


@pytest.fixture(scope="module")
def large_built():
    dg = build_positive_vertical(SeifertData.normalized(0, [(59, 37), (53, 29), (47, 31)], -3))
    assert dg.crossing_count > 10_000 and type(dg.signs) is SignRun
    return dg


def negative_runs(d):
    """The -1 ids of runs on ``1..d``: none, every one, every third, the first and the last."""
    return [(), tuple(range(1, d + 1)), tuple(range(3, d + 1, 3)), (1,)[:d], (d,)[:d]]


@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5, 53, "built"])
def test_a_positive_run_acts_as_the_tuple_it_stands_for(d, request):
    # a run of +1 signs, and runs on the same ids with -1 ids
    built = request.getfixturevalue("large_built").signs if d == "built" else SignRun(d)
    d = len(built)
    for negatives in negative_runs(d):
        run = SignRun(d, negatives) if negatives else built
        twin = tuple((c, -1 if c in negatives else 1) for c in range(1, d + 1))
        assert run.negatives == negatives
        assert run == twin and twin == run and not run != twin and not twin != run
        assert hash(run) == hash(twin) and repr(run) == repr(twin) == str(run)
        assert len(run) == len(twin) and list(run) == list(twin) and tuple(run) == twin
        for i in {0, 1, d // 2, d - 1, -1, -d} & set(range(-d, d)):
            assert run[i] == twin[i]
        for i in (d, -d - 1):
            with pytest.raises(IndexError):
                run[i]
        for cut in (slice(None), slice(1, None), slice(None, -1), slice(None, None, -1), slice(2, d // 2, 3)):
            assert type(run[cut]) is tuple and run[cut] == twin[cut]
        for field, value in (("d", d + 1), ("negatives", ())):
            with pytest.raises(AttributeError):
                setattr(run, field, value)
        copies = [pickle.loads(pickle.dumps(run, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for copied in (*copies, copy.copy(run), copy.deepcopy(run)):
            assert type(copied) is SignRun and copied == run and copied == twin
            assert copied.negatives == negatives and hash(copied) == hash(twin) and repr(copied) == repr(twin)


@pytest.mark.parametrize("d", [1, 2, 5, 53])
def test_a_positive_run_differs_from_other_signs(d):
    # a run of +1 signs, and runs with -1 ids, against other runs, other tuples and other types
    for negatives in negative_runs(d):
        run, twin = SignRun(d, negatives), tuple(SignRun(d, negatives))
        for other in (SignRun(d - 1), SignRun(d + 1), twin[:-1], twin + ((d + 1, 1),),
                      ((0, twin[0][1]), *twin[1:]), list(twin), [*map(list, twin)], d, None,
                      *(SignRun(d, others) for others in negative_runs(d) if others != negatives)):
            assert run != other and other != run and not run == other
        for i in range(d):
            flipped = (*twin[:i], (i + 1, -twin[i][1]), *twin[i + 1:])
            assert run != flipped and flipped != run


def test_a_built_diagram_equals_its_tuple_signs_twin(large_built):
    dg = large_built
    decoded = Diagram.from_json(dg.to_json())
    assert type(decoded.signs) is SignRun
    for twin in (Diagram(dg.declared_genus, dg.x_curves, dg.y_curves, tuple(dg.signs)), decoded):
        assert twin == dg and dg == twin and not twin != dg
        assert hash(twin) == hash(dg) and repr(twin) == repr(dg)
        assert twin.to_json() == dg.to_json()
    assert decoded.sign_map == dict.fromkeys(range(1, dg.crossing_count + 1), 1)


def test_checks_still_run_in_the_constructor():
    from sfsdiag.errors import InvalidInvariant

    with pytest.raises(InvalidInvariant):
        FiberInvariant(4, 2)
    with pytest.raises(ValueError):
        ChainPlan(2)
    with pytest.raises(ValueError, match="phg interval is empty"):
        GenusReport(1, 2, 1, "Generic_g0")
    with pytest.raises(ValueError, match="^unknown case tag 'ThmZ'$"):
        GenusReport(1, 1, 1, "ThmZ")
    with pytest.raises(ValueError, match="^hg exceeds the phg lower bound$"):
        GenusReport(3, 2, 2, "Generic_g0")


@pytest.mark.parametrize("make,message", [
    (lambda: HorizontalFamily("9.9", 1), "unknown horizontal family '9.9'"),
    (lambda: HorizontalFamily("2.1", 1, sign=5), "unknown sign 5"),
    (lambda: HorizontalFamily("1.2", 1, sign=0), "unknown sign 0"),
    (lambda: GenusReport(2, 3, 3, "ThmA1", horizontal_family=HorizontalFamily("1.1", 1, fiber_count=4)),
     "a report cannot name family '1.1' with sign None"),
    (lambda: GenusReport(2, 3, 3, "ThmA2", horizontal_family=HorizontalFamily("1.2", 1, sign=1)),
     "a report cannot name family '1.2' with sign 1"),
    (lambda: GenusReport(2, 2, 2, "ThmB_family", HorizontalFamily("2.1", 1)),
     "a report cannot name family '2.1' with sign None"),
], ids=["unknown-family", "sign-5", "sign-0", "report-family-1.1", "report-family-1.2", "report-no-sign"])
def test_a_family_is_refused_where_it_cannot_be_represented(make, message):
    # a family is one of the five, its sign None or +-1, and a report's to_json names only 2.1-2.3 with a sign
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError and str(info.value) == message


WANT = "{path}: expected integer, got {got}"
RUN = "a sign run takes an int d >= 0 and increasing int -1 ids in 1..d, not {}"


def row(path, make, good=1, bad=(True, 1.0), error=TypeError, message=WANT):
    """One int field or kind of int entry: its path, a constructor call that puts x there, an x that
    builds, the xs that are no int, and the exception and message (of path, x and x's type) each gets."""
    return path, make, good, bad, error, message


# Per value class, one row per int field and per kind of int entry; the bad xs are a bool and a float
# that equal an accepted int, and more where a class had a way to take them.  A class with no int
# in its fields has no row.
BOUNDARY = {
    ChainPlan: [row("r", lambda x: ChainPlan(x), 3, (True, 3.0))],
    CoverSpec: [row("sheets", lambda x: CoverSpec(x, ((1,),))),
                row("partitions[0]", lambda x: CoverSpec(1, ((x,),)))],
    # crossing ids and signs are validate's, in tests/test_diagram_kernel.py
    Diagram: [row("declared_genus", lambda x: Diagram(x, ((1,),), ((1,),), ((1, 1),)), bad=(True, 1.0, "1"))],
    DiagramViolation: [],
    FiberInvariant: [row("alpha", lambda x: FiberInvariant(x, 1)), row("beta", lambda x: FiberInvariant(2, x))],
    GenusReport: [row("hg", lambda x: GenusReport(x, 1, 1, "ThmA1")),
                  row("phg_lo", lambda x: GenusReport(1, x, 1, "ThmA1")),
                  row("phg_hi", lambda x: GenusReport(1, 1, x, "ThmA1"))],
    HorizontalFamily: [row("n", lambda x: HorizontalFamily("2.1", x, 1)),
                       row("sign", lambda x: HorizontalFamily("2.1", 1, x)),
                       row("fiber_count", lambda x: HorizontalFamily("1.1", 1, None, x))],
    IntMatrix: [row("cols", lambda x: IntMatrix(x, ((0,),))), row("entries[0][0]", lambda x: IntMatrix(1, ((x,),)))],
    PermutationPair: [row("sigma_x", lambda x: PermutationPair((x,), (1,)), error=ValueError,
                          message="sigma_x is not a permutation of 1..1"),
                      row("sigma_y", lambda x: PermutationPair((1,), (x,)), error=ValueError,
                          message="sigma_y is not a permutation of 1..1")],
    Presentation: [row("n_generators", lambda x: Presentation(x, ((1,),))),
                   row("relators[0][0]", lambda x: Presentation(1, ((x,),)), error=ValueError,
                       message="letter {x} out of range")],
    SeifertData: [row("base_genus", lambda x: SeifertData(x, ())), row("euler", lambda x: SeifertData(0, (), x)),
                  row("fibers[0]", lambda x: SeifertData(0, (x,)), FiberInvariant(2, 1), (True, 1.0, (2, 1)),
                      message="{path}: expected FiberInvariant, got {got}")],
    SignRun: [row("d", lambda x: SignRun(x), error=ValueError, message=RUN.format("{x}, ()")),
              row("negatives[0]", lambda x: SignRun(1, (x,)), error=ValueError, message=RUN.format("1, ({x},)"))],
    SnfResult: [row("free_rank", lambda x: SnfResult((), x)),
                row("invariant_factors[0]", lambda x: SnfResult((x,), 0), error=ValueError,
                    message="invariant factors must be positive")],
}
GOT = {bool: "boolean", float: "float", str: "string", tuple: "tuple"}
REFUSALS = [pytest.param(make, x, error, message.format(path=path, got=GOT[type(x)], x=x),
                         id=f"{cls.__name__}.{path}-{x!r}")
            for cls, rows in BOUNDARY.items() for path, make, _, bad, error, message in rows for x in bad]


def value_classes() -> set:
    """Every subclass of ``Value`` that the package's modules define, once all of them are imported."""
    for module in pkgutil.iter_modules(sfsdiag.__path__):
        importlib.import_module(f"sfsdiag.{module.name}")
    found, todo = set(), [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("sfsdiag.") and cls not in found:
                found.add(cls)
                todo.append(cls)
    return found


def test_the_boundary_table_names_every_value_class():
    assert set(BOUNDARY) == value_classes()


@pytest.mark.parametrize("make,x,error,message", REFUSALS)
def test_each_int_field_refuses_what_is_no_int(make, x, error, message):
    with pytest.raises(error) as info:
        make(x)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("cls,make,x", [pytest.param(cls, make, good, id=f"{cls.__name__}.{path}")
                                        for cls, rows in BOUNDARY.items() for path, make, good, *_ in rows])
def test_each_int_field_takes_an_int(cls, make, x):
    assert type(make(x)) is cls


# Per public function, one row per int parameter and per kind of int entry, by the rows of the class
# table: each refuses a bool and a float that equal an accepted int with want's TypeError, naming it.
FUNCTION_BOUNDARY = {
    beta_star: [row("lam", lambda x: beta_star([(2, 1)], x)), row("pairs[0][0]", lambda x: beta_star([(x, 1)], 3)),
                row("pairs[0][1]", lambda x: beta_star([(2, x)], 3)),
                row("pairs[1][0]", lambda x: beta_star([(2, 1), (x, 3)], 3)),
                row("pairs[1][1]", lambda x: beta_star([(2, 1), (5, x)], 3))],
    cyclic_cover_spec: [row("sheets", lambda x: cyclic_cover_spec(x))],
    denormalize: [row("absorber_index", lambda x: denormalize(SeifertData(0, (), 0), ("free", "free"), x))],
    lifted_diagram_genus: [row("g", lambda x: lifted_diagram_genus(x, 3)),
                           row("sheets", lambda x: lifted_diagram_genus(2, x))],
    plan_decomposition: [row("m", lambda x: plan_decomposition(x))],
}


def int_parameters() -> set:
    """``(function, parameter)`` for each parameter annotated ``int`` or ``int | None`` of a function in
    ``sfsdiag.__all__``."""
    functions = filter(inspect.isfunction, (getattr(sfsdiag, name) for name in sfsdiag.__all__))
    return {(f, p.name) for f in functions for p in inspect.signature(f).parameters.values()
            if p.annotation in (int, int | None)}


def test_the_function_table_names_every_int_parameter():
    named = {(f, path) for f, rows in FUNCTION_BOUNDARY.items() for path, *_ in rows if "[" not in path}
    assert named == int_parameters()


@pytest.mark.parametrize("make,x,message", [
    pytest.param(make, x, WANT.format(path=path, got=GOT[type(x)]), id=f"{f.__name__}.{path}-{x!r}")
    for f, rows in FUNCTION_BOUNDARY.items() for path, make, _, bad, *_ in rows for x in bad])
def test_each_int_argument_refuses_what_is_no_int(make, x, message):
    with pytest.raises(TypeError) as info:
        make(x)
    assert type(info.value) is TypeError and str(info.value) == message


@pytest.mark.parametrize("make,x", [pytest.param(make, good, id=f"{f.__name__}.{path}")
                                    for f, rows in FUNCTION_BOUNDARY.items() for path, make, good, *_ in rows])
def test_each_int_argument_takes_an_int(make, x):
    make(x)


class TestPackage:
    def test_every_exported_name_resolves(self):
        assert len(sfsdiag.__all__) == 42
        for name in sfsdiag.__all__:
            assert getattr(sfsdiag, name) is not None
        namespace = {}
        exec("from sfsdiag import *", namespace)
        assert set(sfsdiag.__all__) <= set(namespace)
        assert set(sfsdiag.__all__) <= set(dir(sfsdiag))

    def test_exports_are_the_module_objects(self):
        from sfsdiag import diagram, seifert

        assert sfsdiag.Diagram is diagram.Diagram
        assert sfsdiag.normalize is seifert.normalize

    def test_internal_helpers_import_from_their_modules_only(self):
        from sfsdiag import exactalg, presentation

        for module, name in [(exactalg, "crt"), (exactalg, "floor_sum"), (presentation, "free_reduce")]:
            assert name not in sfsdiag.__all__
            assert callable(getattr(module, name))
        assert not hasattr(exactalg, "ext_gcd") and not hasattr(exactalg, "least_positive_residue")

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sfsdiag.no_such_name
        assert not hasattr(sfsdiag, "Value")
        with pytest.raises(ImportError):
            exec("from sfsdiag import no_such_name", {})

    def test_source_stays_under_its_line_ceiling(self):
        # the newlines of `cat src/sfsdiag/*.py | wc -l`, against the net src/ baseline of 2,108
        lines = 0
        for path in glob.glob(os.path.join(SRC, "sfsdiag", "*.py")):
            with open(path, "rb") as handle:
                lines += handle.read().count(b"\n")
        assert lines <= 2108, f"src/sfsdiag holds {lines} lines, over its 2,108-line ceiling"


def new_modules(body: str, stdin: str = "", flags: tuple = ()) -> set:
    """Modules a fresh interpreter, started with ``flags``, loads while running ``body``."""
    code = ("import sys\nbefore = set(sys.modules)\n" + body
            + "\nsys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *flags, "-c", code], input=stdin, capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


CLI_UNNEEDED = {"argparse", "gettext", "locale"}


class TestImportBudget:
    def test_package_import_loads_no_submodule(self):
        loaded = new_modules("import sfsdiag")
        assert "sfsdiag" in loaded
        assert {m for m in loaded if m.startswith("sfsdiag.")} == set()

    def test_cli_import_skips_dataclasses_and_fractions(self):
        loaded = new_modules("import sfsdiag.cli")
        assert "sfsdiag.cli" in loaded
        assert not ({"dataclasses", "fractions"} | CLI_UNNEEDED) & loaded

    # -S keeps site from loading typing, so the check sees what sfsdiag loads
    @pytest.mark.parametrize("flags,unneeded", [((), CLI_UNNEEDED), (("-S",), CLI_UNNEEDED | {"typing"})],
                             ids=["site", "no-site"])
    @pytest.mark.parametrize("verb", sorted(VERB_PAYLOADS))
    def test_a_verb_process_skips_argparse_and_typing(self, verb, flags, unneeded):
        loaded = new_modules(f"from sfsdiag.cli import main\nassert main([{verb!r}]) == 0",
                             json.dumps(VERB_PAYLOADS[verb]), flags)
        assert "sfsdiag.cli" in loaded
        assert not unneeded & loaded

    # only diagram-build runs an elimination, whose pivot heap is the one user of heapq
    @pytest.mark.parametrize("verb", ["homology", "normalize", "genus", "diagram-build"])
    def test_only_an_elimination_loads_heapq(self, verb):
        loaded = new_modules(f"from sfsdiag.cli import main\nassert main([{verb!r}]) == 0",
                             json.dumps(VERB_PAYLOADS[verb]))
        assert "sfsdiag.exactalg" in loaded
        assert ("heapq" in loaded) == (verb == "diagram-build")

    @pytest.mark.parametrize("verb,payload,needed,unneeded", [
        ("positivize", {"generators": 2, "relators": [[1, -2]]}, {"presentation"},
         {"seifert", "diagram", "covers", "vertical"}),
        ("diagram-build", {"base_genus": 0, "mode": "normalized", "euler": 1,
                           "fibers": [{"alpha": 2, "beta": 1}, {"alpha": 3, "beta": 1}, {"alpha": 5, "beta": 2}]},
         {"seifert", "diagram", "vertical"}, {"covers", "array"}),
        ("cover-base", {"base_genus": 1, "mode": "normalized", "fibers": [], "euler": 1},
         {"seifert", "covers"}, {"diagram", "vertical"}),
    ])
    def test_a_verb_loads_only_its_modules(self, verb, payload, needed, unneeded):
        loaded = new_modules(f"from sfsdiag.cli import main\nassert main([{verb!r}]) == 0", json.dumps(payload))
        assert {"sfsdiag." + m for m in needed} <= loaded
        unneeded = {m if m in sys.stdlib_module_names else "sfsdiag." + m for m in unneeded}
        assert not (unneeded | {"dataclasses", "fractions"}) & loaded
