"""Seeded request corpus that pins the CLI's output contract.

:func:`requests` draws, from one ``random.Random(seed)`` and nothing else, a list
of ``(argv, stdin)`` requests for each of the eleven verbs: small valid inputs,
non-normalized Seifert payloads of 1,000 or more fibers drawn from a few slopes,
payloads whose first bad fiber sits at index 0, after a repeated slope or behind
a repeated bad slope, and error payloads of every other kind.  Every error text
it provokes is written by the package (or is a ``KeyError`` naming a key), never
by the interpreter, so the digests hold on every supported Python.

:func:`run` answers one request through an in-process :func:`sfsdiag.cli.main`;
:func:`digests` hashes, per verb, the exit code, stdout and stderr of each
request and of all of them.  ``tests/golden_hashes.json`` keeps those digests,
and ``tests/test_golden.py`` compares against it.  After an intended output
change, rewrite it with::

    PYTHONPATH=src python tests/corpus.py > tests/golden_hashes.json
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from math import gcd

SEED = 20231019


def _slope(rng, normalized: bool) -> tuple[int, int]:
    """A coprime ``(alpha, beta)``: in normalized range, or any numerator with ``alpha >= 1``."""
    while True:
        alpha = rng.randint(2, 12) if normalized else rng.randint(1, 12)
        beta = rng.randint(1, alpha - 1) if normalized else rng.randint(-3 * alpha, 3 * alpha)
        if gcd(alpha, beta) == 1:
            return alpha, beta


def _space(genus: int, pairs, euler=None) -> dict:
    doc = {"base_genus": genus, "mode": "non_normalized" if euler is None else "normalized",
           "fibers": [{"alpha": a, "beta": b} for a, b in pairs]}
    if euler is not None:
        doc["euler"] = euler
    return doc


def _small_space(rng, genus: int, m: int) -> dict:
    normalized = rng.random() < 0.5
    pairs = [_slope(rng, normalized) for _ in range(m)]
    return _space(genus, pairs, rng.randint(-4, 4) if normalized else None)


def _kinds_space(rng, count: int, kinds: int, normalized: bool) -> dict:
    """``count`` fibers drawn, shuffled, from ``kinds`` slopes (alpha 1 slots too when non-normalized)."""
    slopes = [_slope(rng, normalized) for _ in range(kinds)]
    if not normalized:
        slopes[0] = (1, rng.randint(-3, 3))
    pairs = [rng.choice(slopes) for _ in range(count)]
    rng.shuffle(pairs)
    return _space(0, pairs, rng.randint(-count // 4, count // 4) if normalized else None)


def _bad_spaces(rng) -> list:
    """Error payloads of the Seifert readers: bad slopes placed after repeats, type and range errors."""
    good = [(3, 1), (3, 1), (5, 2), (1, -2), (1, -2)]
    out = []
    for bad in ((4, 2), (0, 1), (-3, 1), (6, 9), (1, 0)):
        out.append(_space(0, [bad] + good))                         # at index 0
        out.append(_space(0, good + [bad, (2, 1)]))                 # after a repeated slope
        out.append(_space(0, good[:2] + [bad, bad, (9, 3)]))        # behind a repeated bad slope
        out.append(_space(1, good + [bad] * 3 + [(3, 1)] * 2))      # a bad slope repeated, then a repeat
    # normalized range: the gcd of a later fiber is reported before the range of an earlier one
    out.append(_space(0, [(3, 1), (3, 1), (3, 4), (4, 2)], 1))
    out.append(_space(0, [(3, 1), (3, 1), (3, 4), (3, 4)], 1))
    out.append(_space(0, [(2, 1)] * 3 + [(1, 1)], 0))
    out.append(_space(0, [(5, 2), (5, 2), (5, 0)], 0))
    for value in (True, False, 1.0, 2.5, "3", None, [1]):
        for field in ("alpha", "beta"):
            doc = _space(0, [(1, 1), (1, 1), (2, 1), (2, 1), (1, 1)])
            doc["fibers"][rng.randint(1, 4)][field] = value
            out.append(doc)
    doc = _space(0, [(2, 1), (2, 1)])
    doc["fibers"].append([2, 1])
    out.append(doc)
    doc = _space(0, [(2, 1), (3, 1)])
    del doc["fibers"][1]["beta"]
    out.append(doc)
    out += [
        {"base_genus": 0, "mode": "non_normalized", "fibers": {"alpha": 2, "beta": 1}},
        {"base_genus": 0, "mode": "normalised", "fibers": []},
        {"base_genus": 0, "mode": "normalized", "fibers": []},
        dict(_space(0, [(2, 1)]), euler=1),
        dict(_space(0, [(2, 1)], 0), euler=True),
        dict(_space(0, [(2, 1)]), base_genus=-1),
        dict(_space(0, [(2, 1)]), base_genus="0"),
        {"mode": "non_normalized", "fibers": []},
        {"base_genus": 0, "fibers": []},
    ]
    return out


def _cycles(perm: list) -> list:
    seen, out = set(), []
    for start in range(1, len(perm) + 1):
        if start not in seen:
            cycle, c = [], start
            while c not in seen:
                seen.add(c)
                cycle.append(c)
                c = perm[c - 1]
            out.append(cycle)
    return out


def _permutation(rng, d: int) -> list:
    perm = list(range(1, d + 1))
    rng.shuffle(perm)
    return perm


def _diagram(rng, d: int, negative_share: float) -> dict:
    """Curves of a random permutation pair on ``d`` crossings, some ids relabelled, signed at random."""
    x_curves, y_curves = _cycles(_permutation(rng, d)), _cycles(_permutation(rng, d))
    ids = list(range(1, d + 1))
    if rng.random() < 0.3:
        ids = sorted(rng.sample(range(-5, 3 * d + 5), d))
        rng.shuffle(ids)
        x_curves, y_curves = ([[ids[c - 1] for c in curve] for curve in curves] for curves in (x_curves, y_curves))
    signs = {str(c): -1 if rng.random() < negative_share else 1 for c in sorted(ids)}
    return {"genus": rng.randint(0, 4), "x_curves": x_curves, "y_curves": y_curves, "signs": signs}


def _bad_diagrams(rng) -> list:
    out = []
    for _ in range(12):
        doc = _diagram(rng, rng.randint(3, 12), rng.choice((0, 0.5)))
        c = int(next(iter(doc["signs"])))
        cut = rng.randint(0, 7)
        if cut == 0:
            doc["x_curves"][0].append(c)
        elif cut == 1:
            doc["y_curves"].append([max(map(int, doc["signs"])) + 1])
        elif cut == 2:
            del doc["signs"][str(c)]
        elif cut == 3:
            doc["signs"][str(c)] = rng.choice((0, 2, -3))
        elif cut == 4:
            doc["signs"]["999"] = 1
        elif cut == 5:
            doc["x_curves"].append([])
        elif cut == 6:
            doc["genus"] = -1
        else:
            doc["y_curves"] = []
        out.append(doc)
    disconnected = {"genus": 2, "x_curves": [[1, 2], [3, 4]], "y_curves": [[2, 1], [4, 3]],
                    "signs": {"1": 1, "2": 1, "3": 1, "4": 1}}
    out += [
        disconnected,
        dict(disconnected, signs={"1": True, "2": 1, "3": 1, "4": 1}),
        dict(disconnected, signs={" 1": 1, "2": 1, "3": 1, "4": 1}),
        dict(disconnected, signs=[1, 1, 1, 1]),
        dict(disconnected, x_curves=[[1, 2.0], [3, 4]]),
        dict(disconnected, genus="2"),
        {"genus": 1, "x_curves": [[1]], "signs": {"1": 1}},
    ]
    return out


def _cover_lift(rng) -> dict:
    lam = rng.randint(1, 6)
    slots = []
    for _ in range(rng.randint(1, 4)):
        part = []
        while sum(part) < lam:
            part.append(rng.randint(1, lam - sum(part)))
        alpha = 1
        for b in part:
            alpha = alpha * b // gcd(alpha, b)
        alpha *= rng.choice((1, 1, 2, 3))
        beta = rng.randint(-2 * alpha, 2 * alpha)
        while gcd(alpha, beta) != 1:
            beta += 1
        slots.append(((alpha, beta), part))
    seifert = _space(rng.randint(0, 2), [s for s, _ in slots])
    return {"seifert": seifert, "cover": {"lambda": lam, "partitions": [p for _, p in slots]}}


def _word(rng, n: int) -> list:
    return [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 6))]


def requests(seed: int = SEED) -> dict:
    """``{verb: [(argv, stdin text), ...]}`` for every verb, drawn from ``random.Random(seed)``."""
    rng = random.Random(seed)
    spaces = [_small_space(rng, rng.choice((0, 0, 1, 2)), rng.randint(0, 8)) for _ in range(40)]
    spaces += [_space(0, [(2, 1)] * 4 + [(5, 2)], 2), _space(0, [(2, 1), (3, 1), (7, 2)], 1),
               _space(1, [(5, 1)], 0), _space(2, [], 1)]
    wide = [_kinds_space(rng, rng.randint(1000, 2500), rng.randint(3, 8), False) for _ in range(4)]
    wide.append(_kinds_space(rng, 1200, 4, True))
    bad = _bad_spaces(rng)
    sphere = [_small_space(rng, 0, rng.randint(0, 9)) for _ in range(25)]
    builds = sphere + [_kinds_space(rng, rng.randint(100, 300), rng.randint(2, 4), False) for _ in range(3)]
    builds += [dict(spaces[0], base_genus=1), _space(0, [(97, 45), (89, 2), (83, 31), (79, 40)], -2)]
    diagrams = [_diagram(rng, rng.randint(1, 40), rng.choice((0, 0, 0.3, 0.5, 1))) for _ in range(40)]
    positive = [_diagram(rng, rng.randint(1, 40), 0) for _ in range(25)]
    pairs = [{"sigma_x": _permutation(rng, d), "sigma_y": _permutation(rng, d)}
             for d in [0, 1, 2] + [rng.randint(3, 50) for _ in range(25)]]
    covered = [_small_space(rng, rng.randint(1, 3), rng.randint(0, 3)) for _ in range(25)]
    lifts = [_cover_lift(rng) for _ in range(30)]
    stars = []
    for _ in range(30):
        lam = rng.choice((1, 3, 5, 7, 9, 15, 21, 45, 105))
        stars.append({"pairs": [list(_slope(rng, False)) for _ in range(rng.randint(0, 5))], "lambda": lam})
    presentations = []
    for _ in range(30):
        n = rng.randint(1, 4)
        presentations.append({"generators": n, "relators": [_word(rng, n) for _ in range(rng.randint(0, 4))]})

    docs = {
        "normalize": spaces + wide + bad,
        "homology": spaces + wide + bad,
        "genus": spaces + wide + bad,
        "diagram-build": builds + bad[::3],
        "diagram-verify": diagrams + _bad_diagrams(rng),
        "diagram-encode": positive + diagrams[:5] + _bad_diagrams(rng)[:8],
        "diagram-decode": pairs + [
            {"sigma_x": [1, 1], "sigma_y": [1, 2]}, {"sigma_x": [1, 2], "sigma_y": [2, 3]},
            {"degree": 3, "sigma_x": [1, 2], "sigma_y": [1, 2]}, {"sigma_x": [1, True], "sigma_y": [1, 2]},
            {"sigma_x": [2, 1]}, {"degree": 2.0, "sigma_x": [2, 1], "sigma_y": [1, 2]}],
        "cover-lift": lifts + [{"seifert": s, "cover": {"lambda": 2, "partitions": [[2]] * len(s["fibers"])}}
                               for s in bad[:6]] + [
            {"seifert": spaces[0], "cover": {"lambda": 3, "partitions": [[3]]}},
            {"seifert": _space(0, [(6, 1), (6, 1)]), "cover": {"lambda": 4, "partitions": [[4], [3, 1]]}},
            {"seifert": _space(0, [(6, 1), (6, 1)]), "cover": {"lambda": 2, "partitions": [[2], [1, 1]]}},
            {"seifert": _space(0, [(6, 1)]), "cover": {"lambda": 3, "partitions": [[3], [3]]}},
            {"seifert": _space(0, [(6, 1)]), "cover": {"lambda": 3, "partitions": [[2, 2]]}},
            {"seifert": _space(0, []), "cover": {"lambda": 1, "partitions": []}},
            {"seifert": _space(0, [(6, 1)]), "cover": {"lambda": True, "partitions": [[1]]}},
            {"seifert": _space(0, [(6, 1)]), "cover": [1]}],
        "cover-base": covered + wide[:2] + bad[::4] + [_space(0, [(2, 1)], 1)],
        "betastar": stars + [
            {"pairs": [[2, 1]], "lambda": 4}, {"pairs": [[4, 2]], "lambda": 3}, {"pairs": [[1, 3]], "lambda": 3},
            {"pairs": [[2, 1, 1]], "lambda": 3}, {"pairs": [[2, True]], "lambda": 3}, {"pairs": [[0, 1]], "lambda": 3},
            {"pairs": [[2, 1]], "lambda": 3.0}, {"pairs": {"2": 1}, "lambda": 3}],
        "positivize": presentations + [
            {"generators": 1, "relators": [[2]]}, {"generators": 2, "relators": [[0]]},
            {"generators": -1, "relators": []}, {"generators": 2, "relators": [[1, 1.5]]},
            {"generators": True, "relators": []}, {"relators": []}],
    }
    out = {}
    for verb, payloads in docs.items():
        reqs = [([verb], json.dumps(doc)) for doc in payloads]
        if verb in ("diagram-build", "diagram-decode"):
            reqs += [([verb, "--emit", "dot"], json.dumps(doc)) for doc in payloads[:4]]
        out[verb] = reqs
    return out


def run(argv: list, text: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``sfsdiag ARGV`` on ``text``, run in-process."""
    from sfsdiag.cli import main

    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def request_digest(argv: list, text: str) -> str:
    """SHA-256 of one request's exit code, stdout and stderr."""
    return hashlib.sha256(json.dumps(run(argv, text)).encode()).hexdigest()


def digests(corpus: dict) -> dict:
    """Per verb, ``{"sha256": ..., "requests": [...]}``: the SHA-256 over its requests' digests in
    order, and a 16-digit prefix of each, which names the first request that differs."""
    out = {}
    for verb, reqs in corpus.items():
        each = [request_digest(argv, text) for argv, text in reqs]
        out[verb] = {"sha256": hashlib.sha256("".join(each).encode()).hexdigest(),
                     "requests": [h[:16] for h in each]}
    return out


if __name__ == "__main__":
    json.dump({"seed": SEED, "verbs": digests(requests())}, sys.stdout, indent=1)
    sys.stdout.write("\n")
