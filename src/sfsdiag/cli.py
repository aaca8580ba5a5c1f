"""Command-line interface: one verb per library pipeline, JSON in and out.

Reads a JSON document from stdin (or ``--input``), writes a JSON result to
stdout (or ``--output``).  Exit codes: 0 success, 2 malformed input,
3 precondition violation, 4 internal verification failure.  Error lines on
stderr start with the error class name so scripts can match on it.
"""

import argparse
import json
import sys

from . import __version__
from .errors import DomainError, SynthesisInvariantViolation, want, want_ints

# each verb imports the modules it needs, so a process loads only those


def _cmd_normalize(payload, args):
    from .seifert import SeifertData, normalize
    return normalize(SeifertData.from_json(payload)).to_json()


def _cmd_homology(payload, args):
    from .seifert import SeifertData, homology
    result = homology(SeifertData.from_json(payload))
    return {
        "invariant_factors": list(result.invariant_factors),
        "free_rank": result.free_rank,
    }


def _cmd_genus(payload, args):
    from .seifert import SeifertData, genus_report
    return genus_report(SeifertData.from_json(payload)).to_json()


def _cmd_diagram_build(payload, args):
    from .diagram import to_dot
    from .seifert import SeifertData
    from .vertical import build_positive_vertical
    dg = build_positive_vertical(SeifertData.from_json(payload))
    if args.emit == "dot":
        return to_dot(dg)
    return dg.to_json()


def _cmd_diagram_verify(payload, args):
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


def _cmd_diagram_encode(payload, args):
    from .diagram import Diagram, montesinos_encode
    return montesinos_encode(Diagram.from_json(payload)).to_json()


def _cmd_diagram_decode(payload, args):
    from .diagram import PermutationPair, montesinos_decode, to_dot
    dg = montesinos_decode(PermutationPair.from_json(payload))
    if args.emit == "dot":
        return to_dot(dg)
    return dg.to_json()


def _cmd_cover_lift(payload, args):
    from .covers import CoverSpec, lift_seifert
    from .seifert import SeifertData
    lifted = lift_seifert(
        SeifertData.from_json(want(payload["seifert"], dict, "$.seifert")),
        CoverSpec.from_json(want(payload["cover"], dict, "$.cover")),
    )
    return lifted.to_json()


def _cmd_cover_base(payload, args):
    from .covers import base_orbifold_cover, cyclic_cover_spec
    from .seifert import SeifertData
    base, lam = base_orbifold_cover(SeifertData.from_json(payload))
    return {
        "base": base.to_json(),
        "lambda": lam,
        "cover": cyclic_cover_spec(lam).to_json(),
    }


def _cmd_betastar(payload, args):
    from .covers import beta_star
    pairs = [tuple(want_ints(p, "$.pairs[{}]", i)) for i, p in enumerate(want(payload["pairs"], list, "$.pairs"))]
    stars = beta_star(pairs, want(payload["lambda"], int, "$.lambda"))
    return {"beta_star": list(stars)}


def _cmd_positivize(payload, args):
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfsdiag",
        description="Seifert fibered space invariants and positive Heegaard diagrams",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help_text) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--input", default="-", help="input path, - for stdin")
        p.add_argument("--output", default="-", help="output path, - for stdout")
        if verb in _DIAGRAM_VERBS:
            p.add_argument("--emit", choices=("json", "dot"), default="json")
    return parser


def _read_payload(path: str) -> dict:
    text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def _write_result(path: str, result) -> None:
    if isinstance(result, str):
        text = result
    else:
        text = json.dumps(result, separators=(",", ":")) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, _ = _VERBS[args.verb]
    try:
        payload = _read_payload(args.input)
        result = handler(payload, args)
    except SynthesisInvariantViolation as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    _write_result(args.output, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
