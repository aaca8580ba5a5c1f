"""Re-measure the size rungs of the ROADMAP baseline table, once.

    python3 perfbench/rungs.py            # every rung but the d ~ 0.9M one
    python3 perfbench/rungs.py --slow     # add m=4, alpha <= 1000

Each rung is one seeded space, picked among random candidates for the
crossing count nearest to the one the ROADMAP table lists, and built
stage by stage; times are single ``perf_counter`` readings, raw and
scaled by the reference kernel.  This is a size ladder for reading the
workloads against, not a gate.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import sfsdiag  # noqa: E402
from reference import REF_MS, Reference  # noqa: E402
from workloads import CLI_LAUNCH, child_env  # noqa: E402

WORKED_EXAMPLE = [(4, 1), (3, -4), (5, 3), (2, -5)]
# (fibers, largest alpha, crossing count in the ROADMAP table)
RUNGS = [(6, 5, 104), (100, 5, 1181), (10, 100, 65836)]
SLOW_RUNG = (4, 1000, 894735)


def rung_space(rng: random.Random, m: int, top: int, d: int):
    best = None
    for _ in range(400):
        fibers = inputs.random_fibers(rng, m, 2, top)
        euler = rng.randint(-2, 3)
        miss = abs(inputs.chain_crossings(fibers, euler) - d)
        if best is None or miss < best[0]:
            best = (miss, fibers, euler)
    return sfsdiag.SeifertData.normalized(0, best[1], best[2])


def timed(call):
    t0 = time.perf_counter()
    out = call()
    return out, time.perf_counter() - t0


def stages(s) -> dict:
    n = sfsdiag.normalize(s)
    plan = sfsdiag.plan_decomposition(len(n.fibers))
    betas = sfsdiag.assign_betas(n, plan)
    dg, synth = timed(lambda: sfsdiag.synthesize_diagram(plan, betas))
    _, validate = timed(lambda: sfsdiag.validate(dg))
    _, genus = timed(lambda: sfsdiag.rotation_genus(dg))
    _, h1 = timed(lambda: sfsdiag.diagram_homology(dg))
    _, build = timed(lambda: sfsdiag.build_positive_vertical(s))
    return {"d": dg.crossing_count, "synth": synth, "validate": validate,
            "rotation genus": genus, "diagram H1": h1, "total build": build}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--slow", action="store_true", help="add the d ~ 0.9M rung")
    args = parser.parse_args(argv)
    ref = Reference()
    for _ in range(5):
        ref.sample()
    rng = random.Random(0)
    spaces = [("worked example, m=4", sfsdiag.SeifertData.non_normalized(0, WORKED_EXAMPLE))]
    for m, top, d in RUNGS + ([SLOW_RUNG] if args.slow else []):
        spaces.append((f"m={m}, alpha<={top}", rung_space(rng, m, top, d)))
    print(f"reference kernel {ref.summary()['median_ms']:.2f} ms "
          f"(scaled figures assume {REF_MS} ms)")
    print("| rung | d | synth | validate | rotation genus | diagram H1 | total build |")
    print("| --- | ---: | ---: | ---: | ---: | ---: | ---: |")
    for label, s in spaces:
        row = stages(s)
        ref.sample()
        scale = REF_MS / 1e3 / ref.samples[-1]
        cells = [f"{row[k] * 1e3:.1f} ({row[k] * scale * 1e3:.1f})"
                 for k in ("synth", "validate", "rotation genus", "diagram H1", "total build")]
        print(f"| {label} | {row['d']:,} | " + " | ".join(cells) + " |")
    print("\ninput homology, raw ms (scaled):")
    for m in (50, 100, 200, 400):
        s = sfsdiag.SeifertData.normalized(0, inputs.random_fibers(rng, m, 2, 5), 1)
        _, raw = timed(lambda: sfsdiag.homology(s))
        ref.sample()
        print(f"  m={m}: {raw * 1e3:.1f} ({raw * REF_MS / ref.samples[-1]:.1f})")
    doc = sfsdiag.SeifertData.non_normalized(0, WORKED_EXAMPLE).to_json()
    stdin = json.dumps(doc).encode()
    runs = []
    for _ in range(5):
        _, raw = timed(lambda: subprocess.run(
            [sys.executable, "-c", CLI_LAUNCH, "diagram-build"], input=stdin,
            capture_output=True, env=child_env(ROOT), check=True))
        runs.append(raw)
    runs.sort()
    print(f"\nCLI diagram-build, worked example, median of 5 processes: "
          f"{runs[2] * 1e3:.1f} ms raw")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
