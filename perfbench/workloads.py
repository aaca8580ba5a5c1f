"""Operations of the four workloads: the timed call, its check and its trace.

``materialize(workload, items, api, cli_module, root)`` is the set-up
step: it turns the seeded inputs into program objects through ``api`` (a
fresh import of ``sfsdiag``) and returns one :class:`Op` per input.  ``Op.run`` is what
the timed run times; ``Op.check`` verifies its output with
:mod:`checkers`; ``Op.trace`` calls the public stage functions one after
another, each inside a span, for the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import checkers
import inputs

GENERATORS = {
    "build-deep": inputs.build_deep,
    "build-wide": inputs.build_wide,
    "queries": inputs.queries,
    "cli": inputs.cli,
}
WORKLOADS = tuple(GENERATORS)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    # calls the stage functions inside spans; returns what ``run`` returns
    trace: Callable[["Tracer"], Any]
    # span names that time what ``run`` times, for the tracing overhead
    own: tuple[str, ...]
    # True when the output is not a documented outcome of the op
    failed: Callable[[Any], bool] = lambda out: False


class Tracer:
    """Spans kept in memory: name, start, end, parent span, op id."""

    def __init__(self, ref):
        self.ref = ref
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self.op = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = {"id": sid, "name": name, "op": self.op,
                  "parent": self._stack[-1] if self._stack else None,
                  "segment": self.ref.segment}
        self.spans.append(record)
        self._stack.append(sid)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts.append({"name": name, "op": self.op, "value": value})

    def record(self, name: str, raw_s: float) -> None:
        """A span measured elsewhere, such as a child process."""
        now = time.perf_counter()
        self.spans.append({"id": len(self.spans), "name": name, "op": self.op,
                           "parent": self._stack[-1] if self._stack else None,
                           "segment": self.ref.segment, "start": now - raw_s, "end": now})


# ---------------------------------------------------------------- builds

def _build_op(api, doc: dict) -> Op:
    s = api.SeifertData.from_json(doc)

    def trace(tr: Tracer):
        with tr.span("vertical.build_ms"):
            built = api.build_positive_vertical(s)
        n = api.normalize(s)
        with tr.span("vertical.assign_betas_ms"):
            plan = api.plan_decomposition(len(n.fibers))
            betas = api.assign_betas(n, plan)
        with tr.span("vertical.synthesize_ms"):
            dg = api.synthesize_diagram(plan, betas)
        with tr.span("diagram.validate_ms"):
            api.validate(dg)
        with tr.span("diagram.rotation_genus_ms"):
            api.rotation_genus(dg)
        with tr.span("diagram.presentation_ms"):
            api.diagram_presentation(dg)
        rows = checkers.exponent_matrix(dg.x_curves, dg.y_curves, dg.sign_map)
        genus = len(dg.x_curves)
        matrix = api.IntMatrix.from_rows(rows, cols=genus)
        with tr.span("exactalg.snf_diagram_ms"):
            api.snf(matrix)
        with tr.span("seifert.homology_ms"):
            api.homology(n)
        m = len(n.fibers)
        tr.count("diagram.crossings", dg.crossing_count)
        tr.count("exactalg.snf_cells", genus * genus + (m + 1) * (2 * n.base_genus + m + 1))
        return built

    return Op("build", lambda: api.build_positive_vertical(s),
              lambda dg: checkers.check_build(dg.to_json(), doc), trace, ("vertical.build_ms",))


# ---------------------------------------------------------------- queries

def _query_calls(api, kind: str, item: dict):
    """``(calls, check)`` of one query kind; ``check`` takes the last call's output."""
    if kind == "from_json":
        doc = item["space"]

        def check(s):
            checkers.require(s.to_json() == doc, "from_json/to_json round trip")
        return [("seifert.from_json_us", lambda: api.SeifertData.from_json(doc))], check
    if kind == "normalize":
        s = api.SeifertData.from_json(item["space"])

        def check(n):
            checkers.check_normalized(n.to_json(), item["space"])
            checkers.require(api.normalize(n) == n, "normalize is not idempotent")
            again = api.normalize(api.denormalize(n, item["pattern"]))
            checkers.require(again == n, "normalize(denormalize(n)) != n")
        return [("seifert.normalize_us", lambda: api.normalize(s))], check
    if kind == "homology":
        s = api.SeifertData.from_json(item["space"])

        def check(h):
            checkers.check_homology(list(h.invariant_factors), h.free_rank, item["space"])
        return [("seifert.homology_us", lambda: api.homology(s))], check
    if kind == "genus_report":
        s = api.SeifertData.from_json(item["space"])
        return ([("seifert.genus_report_us", lambda: api.genus_report(s))],
                lambda r: checkers.check_genus(r.to_json(), item["case"]))
    if kind == "cover":
        s = api.SeifertData.from_json(item["space"])
        state = {}

        def base():
            state["base"], state["lam"] = api.base_orbifold_cover(s)
            return state["base"]

        def lift():
            return api.lift_seifert(state["base"], api.cyclic_cover_spec(state["lam"]))

        def check(lifted):
            checkers.check_cover_round_trip(state["base"].to_json(), state["lam"],
                                            lifted.to_json(), item["space"])
        return [("covers.base_orbifold_cover_us", base), ("covers.lift_seifert_us", lift)], check
    if kind == "beta_star":
        pairs = [tuple(p) for p in item["pairs"]]
        lam = item["lambda"]
        return ([("covers.beta_star_us", lambda: api.beta_star(pairs, lam))],
                lambda stars: checkers.check_beta_star(list(stars), pairs, lam))
    if kind == "positivize":
        p = api.Presentation.from_json(item["presentation"])
        state = {}

        def positivize():
            state["p"] = api.positivize(p)
            return state["p"]

        def check(ab):
            checkers.check_positivize(state["p"].to_json(), item["presentation"],
                                      (ab.torsion, ab.free_rank))
        return ([("presentation.positivize_us", positivize),
                 ("presentation.abelianization_us", lambda: api.abelianization(state["p"]))],
                check)
    if kind == "montesinos":
        dg = api.build_positive_vertical(api.SeifertData.from_json(item["space"]))
        doc = dg.to_json()
        state = {}

        def encode():
            state["pair"] = api.montesinos_encode(dg)
            return state["pair"]

        def check(decoded):
            pair = state["pair"].to_json()
            checkers.check_encode(pair, doc)
            checkers.check_decode(decoded.to_json(), pair)
            checkers.check_round_trip(decoded.to_json(), doc)
        return ([("diagram.montesinos_encode_us", encode),
                 ("diagram.montesinos_decode_us", lambda: api.montesinos_decode(state["pair"]))],
                check)
    doc = item["diagram"]
    state = {}

    def load():
        state["dg"] = api.Diagram.from_json(doc)
        return state["dg"]

    def check(genus):
        checkers.require(state["dg"].to_json() == doc, "diagram from_json/to_json round trip")
        checkers.check_diagram_surface(doc, genus)
    return ([("diagram.from_json_us", load),
             ("diagram.rotation_genus_us", lambda: api.rotation_genus(state["dg"]))],
            check)


def _bundle_op(api, bundle: dict) -> Op:
    """One query of every kind, each on its own input, in a fixed order."""
    parts = [(kind, *_query_calls(api, kind, bundle[kind])) for kind in inputs.QUERY_KINDS]

    def run():
        outs = []
        for _, calls, _ in parts:
            for _, call in calls:
                out = call()
            outs.append(out)
        return outs

    def trace(tr: Tracer):
        outs = []
        for _, calls, _ in parts:
            for name, call in calls:
                with tr.span(name):
                    out = call()
            outs.append(out)
        return outs

    def check(outs):
        for (kind, _, check_part), out in zip(parts, outs):
            try:
                check_part(out)
            except checkers.CheckFailed as exc:
                raise checkers.CheckFailed(f"{kind}: {exc}") from None

    own = tuple(name for _, calls, _ in parts for name, _ in calls)
    return Op("queries", run, check, trace, own)


# ---------------------------------------------------------------- CLI

DOCUMENTED_CODES = (0, 2, 3, 4)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


CLI_LAUNCH = "import sys; from sfsdiag.cli import main; sys.exit(main())"


def _run_child(argv, stdin: bytes, env) -> subprocess.CompletedProcess:
    return subprocess.run(argv, input=stdin, capture_output=True, env=env, timeout=60)


def _cli_op(api, cli_module, root: str, req: dict) -> Op:
    payload = req["payload"]
    text = payload if isinstance(payload, str) else json.dumps(payload)
    stdin = text.encode("utf-8")
    argv = [sys.executable, "-c", CLI_LAUNCH, req["verb"]]
    env = child_env(root)

    def run():
        return _run_child(argv, stdin, env)

    def failed(proc) -> bool:
        return proc.returncode not in DOCUMENTED_CODES or b"Traceback" in proc.stderr

    def check(proc):
        if req.get("expect") == "error":
            checkers.check_cli_error(proc.returncode, proc.stdout, proc.stderr,
                                     req["code"], req["error"])
        else:
            _check_cli_output(req, checkers.parse_cli_output(
                proc.returncode, proc.stdout, proc.stderr))

    def trace(tr: Tracer):
        with tr.span("cli.process"):
            proc = run()
        tr.count("cli.output_bytes", len(proc.stdout))
        t0 = time.perf_counter()
        _run_child([sys.executable, "-c", "pass"], b"", env)
        bare = time.perf_counter() - t0
        tr.record("cli.interpreter_ms", bare)
        t0 = time.perf_counter()
        _run_child([sys.executable, "-c", "import sfsdiag.cli"], b"", env)
        tr.record("cli.import_ms", time.perf_counter() - t0 - bare)
        saved = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), tr.span("cli.main_ms"):
                try:
                    cli_module.main([req["verb"]])
                except Exception:  # the known failure escapes main; its span still counts
                    pass
        finally:
            sys.stdin = saved
        return proc

    return Op("cli:" + req["verb"], run, check, trace, ("cli.process",), failed)


def _check_cli_output(req: dict, out) -> None:
    verb, payload = req["verb"], req["payload"]
    if verb == "normalize":
        checkers.check_normalized(out, payload)
    elif verb == "homology":
        checkers.check_homology(out["invariant_factors"], out["free_rank"], payload)
    elif verb == "genus":
        checkers.check_genus(out, req["case"])
    elif verb == "diagram-build":
        checkers.check_build(out, payload)
    elif verb == "diagram-verify":
        signs = {int(k): v for k, v in payload["signs"].items()}
        comps, faces = checkers.surface(payload["x_curves"], payload["y_curves"], signs)
        want = {"ok": True, "errors": [], "declared_genus": payload["genus"],
                "is_positive": all(v == 1 for v in signs.values()),
                "rotation_genus": checkers.genus_from_faces(len(signs), faces, comps)}
        checkers.require(comps == 1 and out == want, f"diagram-verify gave {out}, expected {want}")
    elif verb == "diagram-encode":
        checkers.check_encode(out, payload)
    elif verb == "diagram-decode":
        checkers.check_decode(out, payload)
    elif verb == "cover-base":
        checkers.require(out["cover"] == {"lambda": out["lambda"],
                                          "partitions": [[out["lambda"]]] * 3}, "cover spec")
        lifted = checkers.own_lift(out["base"], out["lambda"], out["cover"]["partitions"])
        checkers.check_cover_round_trip(out["base"], out["lambda"], lifted, payload)
    elif verb == "cover-lift":
        spec = payload["cover"]
        want = checkers.own_lift(payload["seifert"], spec["lambda"], spec["partitions"])
        checkers.require(out == want, f"cover-lift gave {out}, expected {want}")
    elif verb == "betastar":
        checkers.check_beta_star(out["beta_star"], [tuple(p) for p in payload["pairs"]],
                                 payload["lambda"])
    elif verb == "positivize":
        checkers.check_positivize(out, payload)
    else:
        raise checkers.CheckFailed(f"no check for verb {verb}")


# ---------------------------------------------------------------- set-up

def materialize(workload: str, items: list, api, cli_module, root: str) -> list[Op]:
    if workload in ("build-deep", "build-wide"):
        return [_build_op(api, doc) for doc in items]
    if workload == "queries":
        return [_bundle_op(api, bundle) for bundle in items]
    return [_cli_op(api, cli_module, root, req) for req in items]


def probe_ops(seed: int, api, cli_module, root: str) -> list[Op]:
    """A few small ops of every kind, for the layers a workload does not drive."""
    bundles = inputs.queries(seed)[:3]
    ops = [_bundle_op(api, bundle) for bundle in bundles]
    ops += [_build_op(api, bundle["montesinos"]["space"]) for bundle in bundles]
    requests = [r for r in inputs.cli(seed) if r.get("expect") != "error"][:3]
    ops += [_cli_op(api, cli_module, root, r) for r in requests]
    return ops
