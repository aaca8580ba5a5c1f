"""sfsdiag benchmark: four seeded closed-loop workloads, one client each.

    python3 perfbench/run.py --workload build-deep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py            # every workload, timed and traced

One run sets up (imports ``sfsdiag`` from ``src/`` and turns the seeded
inputs into program objects) several times, then runs whole rounds of the
workload's fixed op list until ``--seconds`` have passed, one op at a
time.  Every op's output is checked once per run, outside the timed
region.  Times are scaled by an interleaved reference kernel (see
``reference.py``).  The last line of stdout is the result object; the
line before it holds the raw, unscaled figures and the reference
kernel's own statistics, which show how fast the host was.

``--trace 1`` runs the same ops, calling the public stage functions one
after another inside spans, and reports the per-layer metrics; spans
are written to ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import compileall
from array import array
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from reference import Reference  # noqa: E402
from workloads import GENERATORS, WORKLOADS, Tracer, materialize, probe_ops  # noqa: E402

SETUP_REPS = 5
OUT_DIR = ".bench_out"


def fresh_import(name: str) -> None:
    """Import ``name`` with every ``sfsdiag`` module loaded anew."""
    for mod in [m for m in sys.modules if m == "sfsdiag" or m.startswith("sfsdiag.")]:
        del sys.modules[mod]
    importlib.import_module(name)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def prepare_source() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sfsdiag", "__init__.py")):
        raise SystemExit(f"error: no sfsdiag package under {src}")
    # byte-compile before any timed step, so no set-up pays for it
    if not compileall.compile_dir(os.path.join(src, "sfsdiag"), quiet=1):
        raise SystemExit("error: sfsdiag does not compile")
    sys.path.insert(0, src)


def setup(workload: str, items: list, ref: Reference):
    """Repeat the set-up; return the ops of the last one and each raw time."""
    times = []
    module = "sfsdiag.cli" if workload == "cli" else "sfsdiag"
    for _ in range(SETUP_REPS):
        segment = ref.segment
        t0 = time.perf_counter()
        fresh_import(module)
        api = sys.modules["sfsdiag"]
        cli_module = sys.modules.get("sfsdiag.cli")
        ops = materialize(workload, items, api, cli_module, ROOT)
        times.append((time.perf_counter() - t0, segment))
        ref.sample()
    return ops, api, times


def run_rounds(workload: str, ops, ref: Reference, seconds: float, step) -> dict:
    """Whole rounds of ``ops`` for about ``seconds``.

    A round starts only if one more round of the same length still ends
    within ``seconds``; the first always runs.  ``step(op)`` does one op
    and returns ``(output, raw seconds)``.  Each op is checked on its
    first round only.  Per-op times go to flat arrays, so a longer or
    faster run adds little to the measured peak RSS.
    """
    state = {"attempted": 0, "failed": 0, "problems": [], "rounds": 0,
             "raw": array("d"), "segment": array("q")}
    start = time.perf_counter()
    round_s = 0.0
    while state["rounds"] == 0 or time.perf_counter() - start + round_s <= seconds:
        first = state["rounds"] == 0
        round_start = time.perf_counter()
        for op in ops:
            segment = ref.segment
            state["attempted"] += 1
            try:
                out, raw = step(op)
            except Exception as exc:  # a failing op is counted, not fatal
                state["failed"] += 1
                state["problems"].append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            state["raw"].append(raw)
            state["segment"].append(segment)
            ref.tick(raw)
            if op.failed(out):
                state["failed"] += 1
            elif first:
                try:
                    op.check(out)
                except Exception as exc:  # whatever breaks a check, the output is wrong
                    state["problems"].append(f"{op.kind}: wrong output: {exc!r}")
                    state["correct"] = False
        state["rounds"] += 1
        round_s = time.perf_counter() - round_start
    ref.sample()
    state["peak_rss_mb"] = peak_rss_mb(workload)
    return state


def timed_step(op):
    t0 = time.perf_counter()
    out = op.run()
    return out, time.perf_counter() - t0


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def percentile_90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(state: dict, setup_times, ref: Reference) -> tuple[dict, dict]:
    scaled = [ref.scale(r, seg) for r, seg in zip(state["raw"], state["segment"])]
    raw = state["raw"]
    ok = state["attempted"] - state["failed"]
    setups = [ref.scale(r, seg) for r, seg in setup_times]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ok / sum(scaled), "ops/s"),
        "op_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
        "op_ms_p90": (percentile_90(scaled) * 1e3, "ms"),
        "peak_rss_mb": (state["peak_rss_mb"], "MiB"),
    }
    raw_figures = {
        "setup_s": statistics.median(r for r, _ in setup_times),
        "ops_per_s": ok / sum(raw),
        "op_ms_p50": statistics.median(raw) * 1e3,
        "op_ms_p90": percentile_90(raw) * 1e3,
        "wall_s": sum(raw),
    }
    return metrics, raw_figures


def traced_run(workload, ops, ref, seconds, seed, api) -> tuple[dict, dict, dict]:
    tracer = Tracer(ref)
    own = []

    def step(op):
        tracer.op += 1
        first = len(tracer.spans)
        with tracer.span("op:" + op.kind):
            out = op.trace(tracer)
        spans = tracer.spans[first + 1:]
        own.append(sum(s["end"] - s["start"] for s in spans if s["name"] in op.own))
        return out, tracer.spans[first]["end"] - tracer.spans[first]["start"]

    state = run_rounds(workload, ops, ref, seconds, step)
    wanted = load_spec()["per_layer"]
    measured = {s["name"] for s in tracer.spans} | {c["name"] for c in tracer.counts}
    missing = {m["name"] for m in wanted} - measured
    if missing:
        cli_module = importlib.import_module("sfsdiag.cli")
        probe_start = len(tracer.spans), len(tracer.counts)
        for op in probe_ops(seed, api, cli_module, ROOT):
            tracer.op += 1
            op.trace(tracer)
        ref.sample()
        # probe spans count only for the layers the workload itself left out
        tracer.spans[probe_start[0]:] = [s for s in tracer.spans[probe_start[0]:]
                                         if s["name"] in missing]
        tracer.counts[probe_start[1]:] = [c for c in tracer.counts[probe_start[1]:]
                                          if c["name"] in missing]
    metrics = {}
    for m in wanted:
        per_op: dict[int, float] = {}
        factor = 1e6 if m["unit"] == "us" else 1e3
        for s in tracer.spans:
            if s["name"] == m["name"]:
                value = ref.scale(s["end"] - s["start"], s["segment"]) * factor
                per_op[s["op"]] = per_op.get(s["op"], 0.0) + value
        for c in tracer.counts:
            if c["name"] == m["name"]:
                per_op[c["op"]] = per_op.get(c["op"], 0) + c["value"]
        metrics[m["name"]] = (statistics.median(per_op.values()), m["unit"])
    own_scaled = [ref.scale(t, seg) for t, seg in zip(own, state["segment"])]
    details = {"traced_ops_per_s": (state["attempted"] - state["failed"]) / sum(own_scaled),
               "spans": len(tracer.spans)}
    write_trace(workload, seed, tracer, ref)
    return state, metrics, details


def write_trace(workload: str, seed: int, tracer: Tracer, ref: Reference) -> None:
    out_dir = os.path.join(ROOT, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    for s in tracer.spans:
        s["scaled_ms"] = ref.scale(s["end"] - s["start"], s["segment"]) * 1e3
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "spans": tracer.spans,
                   "counts": tracer.counts, "reference_ms": [x * 1e3 for x in ref.samples]},
                  handle)


def one_run(args) -> int:
    prepare_source()
    items = GENERATORS[args.workload](args.seed)
    ref = Reference([sys.executable, "-c", "pass"] if args.workload == "cli" else None)
    for _ in range(3):
        ref.sample()
    ops, api, setup_times = setup(args.workload, items, ref)
    if args.trace:
        state, metrics, details = traced_run(args.workload, ops, ref, args.seconds,
                                             args.seed, api)
    else:
        state = run_rounds(args.workload, ops, ref, args.seconds, timed_step)
        metrics, raw = end_to_end(state, setup_times, ref)
        details = {"raw": raw}
    details.update({"workload": args.workload, "seed": args.seed, "rounds": state["rounds"],
                    "reference": ref.summary()})
    for problem in state["problems"][:20]:
        print("problem:", problem, file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps({
        "correct": state.get("correct", True),
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, timed then traced, each in its own process."""
    overall = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload}: run failed (exit {proc.returncode})\n{proc.stderr}")
                overall = 1
                break
            results[trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
        if len(results) < 2:
            continue
        (details, result), (tdetails, tresult) = results[0], results[1]
        print(f"== {workload} (seed {args.seed}): attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct'] and tresult['correct']}")
        raw = details["raw"]
        for name, m in result["metrics"].items():
            raw_text = f"   raw {raw[name]:.4g}" if name in raw else ""
            print(f"  {name:<14} {m['value']:>12.4f} {m['unit']:<6}{raw_text}")
        ref = details["reference"]
        print(f"  reference sample: median {ref['median_ms']:.2f} ms, "
              f"IQR {ref['iqr_ms']:.2f} ms over {ref['samples']} samples")
        ops = result["metrics"]["ops_per_s"]["value"]
        print(f"  tracing overhead: {100 * (1 - tdetails['traced_ops_per_s'] / ops):+.1f} % "
              f"of ops_per_s")
        for name, m in tresult["metrics"].items():
            print(f"    {name:<34} {m['value']:>12.4f} {m['unit']}")
        if not (result["correct"] and tresult["correct"]):
            overall = 1
    return overall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return one_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
