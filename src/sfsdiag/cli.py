"""Command-line interface: one verb per library pipeline, JSON in and out.

``sfsdiag VERB [--input PATH] [--output PATH] [--emit {json,dot}]`` reads JSON
from stdin (or ``--input``) and writes JSON to stdout (or ``--output``).
Options are spelled in full (``--in`` is refused) as ``--opt VALUE`` or
``--opt=VALUE``; the last repeat wins.  Exit codes: 0 success, 2 malformed
input or command line, 3 precondition violation, 4 internal verification
failure.  Error lines on stderr start with the error class name so scripts
can match on it (``UsageError:`` for a malformed command line).
"""

import json
import sys

from . import __version__
from .errors import DomainError, SynthesisInvariantViolation, want, want_ints

# each verb imports the modules it needs, so a process loads only those


def _cmd_normalize(payload, emit):
    from .seifert import SeifertData, normalize
    return normalize(SeifertData.from_json(payload)).to_json()


def _cmd_homology(payload, emit):
    from .seifert import SeifertData, homology
    result = homology(SeifertData.from_json(payload))
    return {"invariant_factors": list(result.invariant_factors), "free_rank": result.free_rank}


def _cmd_genus(payload, emit):
    from .seifert import SeifertData, genus_report
    return genus_report(SeifertData.from_json(payload)).to_json()


def _cmd_diagram_build(payload, emit):
    from .diagram import to_dot
    from .seifert import SeifertData
    from .vertical import build_positive_vertical
    dg = build_positive_vertical(SeifertData.from_json(payload))
    return to_dot(dg) if emit == "dot" else dg.to_json()


def _cmd_diagram_verify(payload, emit):
    from .diagram import Diagram, is_positive_diagram, rotation_genus, validate
    dg = Diagram.from_json(payload)
    out = {"ok": False, "errors": [], "declared_genus": dg.declared_genus,
           "is_positive": None, "rotation_genus": None}
    try:  # building the crossing index validates; validate() only lists the defects
        out["is_positive"] = is_positive_diagram(dg)
        out["rotation_genus"] = rotation_genus(dg)
        out["ok"] = True
    except ValueError:
        out["errors"] = [{"code": p.code, "message": p.message} for p in validate(dg)]
    except DomainError as exc:
        out["errors"].append({"code": type(exc).__name__, "message": str(exc)})
    return out


def _cmd_diagram_encode(payload, emit):
    from .diagram import Diagram, montesinos_encode
    return montesinos_encode(Diagram.from_json(payload)).to_json()


def _cmd_diagram_decode(payload, emit):
    from .diagram import PermutationPair, montesinos_decode, to_dot
    dg = montesinos_decode(PermutationPair.from_json(payload))
    return to_dot(dg) if emit == "dot" else dg.to_json()


def _cmd_cover_lift(payload, emit):
    from .covers import CoverSpec, lift_seifert
    from .seifert import SeifertData
    seifert = SeifertData.from_json(want(payload["seifert"], dict, "$.seifert"))
    return lift_seifert(seifert, CoverSpec.from_json(want(payload["cover"], dict, "$.cover"))).to_json()


def _cmd_cover_base(payload, emit):
    from .covers import base_orbifold_cover, cyclic_cover_spec
    from .seifert import SeifertData
    base, lam = base_orbifold_cover(SeifertData.from_json(payload))
    return {"base": base.to_json(), "lambda": lam, "cover": cyclic_cover_spec(lam).to_json()}


def _cmd_betastar(payload, emit):
    from .covers import beta_star
    pairs = want(payload["pairs"], list, "$.pairs")
    for i, p in enumerate(pairs):
        if len(want_ints(p, "$.pairs[{}]", i)) != 2:
            raise ValueError(f"$.pairs[{i}]: expected 2 integers [alpha, beta], got {len(p)}")
    stars = beta_star(pairs, want(payload["lambda"], int, "$.lambda"))
    return {"beta_star": list(stars)}


def _cmd_positivize(payload, emit):
    from .presentation import Presentation, positivize
    return positivize(Presentation.from_json(payload)).to_json()


_VERBS = {
    "normalize": (_cmd_normalize, "normalize Seifert invariants"),
    "homology": (_cmd_homology, "first homology of a Seifert space"),
    "genus": (_cmd_genus, "Heegaard genus classification"),
    "diagram-build": (_cmd_diagram_build, "positive vertical-splitting diagram"),
    "diagram-verify": (_cmd_diagram_verify, "validate a diagram and report its data"),
    "diagram-encode": (_cmd_diagram_encode, "permutation encoding of a positive diagram"),
    "diagram-decode": (_cmd_diagram_decode, "diagram from a permutation pair"),
    "cover-lift": (_cmd_cover_lift, "lift invariants through a base cover"),
    "cover-base": (_cmd_cover_base, "sphere-base presentation as a cyclic cover"),
    "betastar": (_cmd_betastar, "slope numerators coprime to an odd sheet count"),
    "positivize": (_cmd_positivize, "positive presentation transform"),
}

_DIAGRAM_VERBS = ("diagram-build", "diagram-decode")


_HELP = """\
usage: sfsdiag VERB [--input PATH] [--output PATH] [--emit {{json,dot}}]
       sfsdiag -h | --help | --version

verbs:
{}
options:
  --input PATH       input path, - for stdin (default)
  --output PATH      output path, - for stdout (default)
  --emit {{json,dot}}  output form of diagram-build and diagram-decode (default json)
"""


def _usage_error(reason: str):
    print(f"UsageError: {reason}; see sfsdiag --help", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv: list) -> tuple:
    """``(verb, options)`` read from ``argv``; ``--version`` first or ``-h`` /
    ``--help`` anywhere end in ``SystemExit(0)``, a malformed argv in ``SystemExit(2)``."""
    verb = argv[0] if argv else None
    if verb == "--version":
        print(__version__)
        raise SystemExit(0)
    if "-h" in argv or "--help" in argv:
        print(_HELP.format("".join(f"  {v:<19}{text}\n" for v, (_, text) in _VERBS.items())), end="")
        raise SystemExit(0)
    if verb not in _VERBS:
        _usage_error("missing verb" if verb is None else f"unknown verb {verb!r}")
    options = {"--input": "-", "--output": "-", "--emit": "json"}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in options or flag == "--emit" and verb not in _DIAGRAM_VERBS:
            _usage_error(f"unknown {'option' if token[:1] == '-' else 'argument'} {token!r} for {verb}")
        # the next token is the value whatever it holds (argparse too read ``--input -5``)
        options[flag] = value if eq else next(tokens, None)
        if options[flag] is None:
            _usage_error(f"option {flag} needs a value")
    if options["--emit"] not in ("json", "dot"):
        _usage_error(f"--emit takes json or dot, not {options['--emit']!r}")
    return verb, options


def _read_payload(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nesting is too deep") from None
    if not isinstance(payload, dict):
        raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def _write_result(path: str, result) -> None:
    text = result if isinstance(result, str) else json.dumps(result, separators=(",", ":")) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv=None) -> int:
    verb, options = _parse(sys.argv[1:] if argv is None else argv)
    try:
        payload = _read_payload(options["--input"])
        _write_result(options["--output"], _VERBS[verb][0](payload, options["--emit"]))
    except (DomainError, SynthesisInvariantViolation, KeyError, TypeError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DomainError) else 4 if isinstance(exc, SynthesisInvariantViolation) else 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
