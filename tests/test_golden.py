"""Output contract: every verb's answers to the seeded corpus of ``tests/corpus.py``
hash to the digests in ``tests/golden_hashes.json``, byte for byte, exit codes and
stderr included.  A mismatch names the verb and prints its first request that differs."""

import functools
import json
import os

import pytest

from corpus import digests, requests, run
from sfsdiag.cli import _VERBS

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_hashes.json"), encoding="utf-8") as handle:
    GOLDEN = json.load(handle)


@functools.lru_cache(maxsize=None)
def corpus() -> dict:
    return requests(GOLDEN["seed"])


def test_corpus_covers_every_verb_and_many_fiber_kinds():
    assert set(corpus()) == set(_VERBS) == set(GOLDEN["verbs"])
    wide = [doc for _, text in corpus()["normalize"] if len((doc := json.loads(text)).get("fibers", ())) >= 1000
            and doc["mode"] == "non_normalized"]
    assert len(wide) >= 3
    for doc in wide:
        kinds = {(f["alpha"], f["beta"]) for f in doc["fibers"]}
        assert len(kinds) <= 8 and any(a == 1 for a, _ in kinds)


@pytest.mark.parametrize("verb", sorted(_VERBS))
def test_verb_output_matches_its_golden_hash(verb):
    want, reqs = GOLDEN["verbs"][verb], corpus()[verb]
    got = digests({verb: reqs})[verb]
    if got["sha256"] == want["sha256"]:
        return
    pairs = list(zip(got["requests"], want["requests"]))
    i = next((i for i, (g, w) in enumerate(pairs) if g != w), len(pairs))
    if i == len(reqs):
        pytest.fail(f"{verb}: {len(reqs)} requests, the golden hashes hold {len(want['requests'])}")
    argv, text = reqs[i]
    code, out, err = run(argv, text)
    pytest.fail(f"{verb}: request {i} of {len(reqs)} differs from its golden hash\n"
                f"argv: {argv}\nstdin: {text[:2000]}\nexit {code}\nstdout: {out[:2000]}\nstderr: {err[:2000]}")
