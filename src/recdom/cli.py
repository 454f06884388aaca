"""Command line front end.

Exit codes: 0 on success (identity holds, property verified), 1 on a
verified-false outcome (reciprocity fails, complex not CM, selection not
separable, scan found violations), 2 on input or usage errors, 3 when an
internal invariant fails (a defect in recdom, not a verdict).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import jsonio, suite
from .enumerator import (
    COMPLEMENT,
    SELECTED,
    DomainSpec,
    FacetSelection,
    default_grading,
    domain_gf,
    expand,
    lattice_points,
    reciprocity_check,
    verify_colon_identity,
)
from .geometry import GF2, QQ, FieldSpec, InvariantViolation
from .lifting import (
    lift,
    schlegel,
    schlegel_of_selection,
    verify_embedding,
    verify_lower_hull,
)
from .separation import DegeneratePoint, line_shelling, separation_witness
from .topology import barycentric, boundary_subcomplex, is_cohen_macaulay, reduced_homology

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _parse_select(text):
    """The facet indices i,j,... of ``--select``; an empty or repeated index
    is an input error, never read as another selection."""
    indices = []
    for token in text.split(","):
        if not token.strip():
            raise ValueError(f"--select {text} has an empty facet index")
        index = int(token)
        if index in indices:
            raise ValueError(f"--select {text} repeats facet index {index}")
        indices.append(index)
    return frozenset(indices)


def _parse_vector(text):
    return tuple(int(t) for t in text.split(","))


def _parse_point(text):
    return tuple(jsonio.parse_fraction(t) for t in text.split(","))


def _fields(args):
    if not args.field:
        return (QQ, GF2)
    fields = []
    for text in args.field:
        field = FieldSpec.parse(text)
        if field in fields:
            raise ValueError(f"--field {text} repeats the field {field.label}")
        fields.append(field)
    return tuple(fields)


def _emit(args, payload: dict, text_lines):
    if args.json:
        sys.stdout.write(jsonio.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _selection(args, cone) -> FacetSelection:
    if not args.select:
        raise ValueError("--select i,j,... is required for this command")
    return FacetSelection(cone, _parse_select(args.select))


def _reject(args, option, what):
    if getattr(args, option) is not None:
        raise ValueError(f"--{option} does not apply to {what}")


def cmd_enumerate(args) -> int:
    cone = jsonio.cone_from_dict(jsonio.read(args.input))
    selection = _selection(args, cone)
    side = SELECTED if args.side == "selected" else COMPLEMENT
    spec = DomainSpec(selection, side)
    w = _parse_vector(args.grading) if args.grading else default_grading(cone)
    series = lattice_points(spec, w, args.degree)
    gf = domain_gf(spec)
    check = expand(gf, w, args.degree).coeffs == series.coeffs
    payload = {
        "series": jsonio.series_to_dict(series),
        "gf": jsonio.gf_to_dict(gf),
        "expansion_matches": check,
    }
    lines = [
        f"grading {list(w)}, bound {args.degree}",
        f"points by degree: {series.degree_counts()}",
        f"gf numerator terms: {len(gf.numerator.terms)}, denominator rays: {len(gf.denom_rays)}",
        f"expansion matches direct count: {check}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if check else EXIT_FALSIFIED


def cmd_reciprocity(args) -> int:
    cone = jsonio.cone_from_dict(jsonio.read(args.input))
    selection = _selection(args, cone)
    grading = _parse_vector(args.grading) if args.grading else None
    report = reciprocity_check(selection, _fields(args), grading=grading)
    payload = report.to_json()
    lines = [f"holds: {report.holds}", f"cm: {report.cm_over}"]
    if not report.holds:
        lines.append(f"first disagreement: {payload['first_disagreement']}")
    _emit(args, payload, lines)
    return EXIT_OK if report.holds else EXIT_FALSIFIED


def cmd_cm(args) -> int:
    data = jsonio.read(args.input)
    if "rays" in data or "inequalities" in data:
        cone = jsonio.cone_from_dict(data)
        selection = _selection(args, cone)
        sc = barycentric(boundary_subcomplex(selection))
    else:
        _reject(args, "select", "a simplicial complex")
        sc = jsonio.simplicial_from_dict(data)
    verdicts = {}
    betti = {}
    for field in _fields(args):
        cert = is_cohen_macaulay(sc, field)
        verdicts[field.label] = {
            "is_cm": cert.is_cm,
            "failing_face": list(cert.failing_face) if cert.failing_face is not None else None,
            "failing_index": cert.failing_index,
            "failing_betti": cert.failing_betti,
        }
        betti[field.label] = list(reduced_homology(sc, field).betti) if sc.dim >= 0 else []
    payload = {"cm": verdicts, "betti": betti}
    lines = [f"{label}: {v}" for label, v in verdicts.items()]
    _emit(args, payload, lines)
    return EXIT_OK if all(v["is_cm"] for v in verdicts.values()) else EXIT_FALSIFIED


def cmd_separate(args) -> int:
    cone = jsonio.cone_from_dict(jsonio.read(args.input))
    selection = _selection(args, cone)
    result = separation_witness(selection)
    payload = {
        "separable": result.separable,
        "witness": [jsonio.fraction_str(x) for x in result.witness] if result.witness else None,
    }
    lines = [f"separable: {result.separable}"]
    if result.witness:
        lines.append(f"witness: {payload['witness']}")
    _emit(args, payload, lines)
    return EXIT_OK if result.separable else EXIT_FALSIFIED


def cmd_shell(args) -> int:
    cone = jsonio.cone_from_dict(jsonio.read(args.input))
    if args.point:
        base = _parse_point(args.point)
    else:
        rng = random.Random(args.seed)
        base = tuple(Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(cone.dim))
    attempt_rng = random.Random(args.seed)
    for attempt in range(64):
        if attempt == 0:
            candidate = base
        else:
            eps = Fraction(1, 2 ** (attempt + 3))
            candidate = tuple(b + eps * Fraction(attempt_rng.randint(1, 97), 97) for b in base)
        try:
            shelling = line_shelling(cone, candidate)
        except DegeneratePoint:
            continue
        payload = {
            "order": list(shelling.order),
            "source_point": [jsonio.fraction_str(x) for x in shelling.source_point],
        }
        _emit(args, payload, [f"order: {list(shelling.order)}"])
        return EXIT_OK
    print("error: no generic steering point found", file=sys.stderr)
    return EXIT_INPUT


def cmd_colon(args) -> int:
    cone = jsonio.cone_from_dict(jsonio.read(args.input))
    selection = _selection(args, cone)
    grading = _parse_vector(args.grading) if args.grading else None
    report = verify_colon_identity(selection, args.degree, grading=grading)
    payload = report.to_json()
    lines = [
        f"points scanned: {report.points_scanned}, members: {report.members}",
        f"product checks: {report.product_checks}, witnesses: {len(report.witnesses)}",
        f"violations: {len(report.violations)}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if report.consistent else EXIT_FALSIFIED


def cmd_lift(args) -> int:
    pc = jsonio.embedded_from_dict(jsonio.read(args.input))
    if not verify_embedding(pc):
        raise ValueError("the complex is not embedded: two cells meet outside a common face")
    result = lift(pc)
    hull_ok = verify_lower_hull(result)
    payload = {
        "max_value": jsonio.fraction_str(result.max_value),
        "margin": result.margin,
        "subdivision": jsonio.embedded_to_dict(result.subdivision),
        "lift_values": [jsonio.fraction_str(v) for v in result.lift_values],
        "polytope_vertices": [
            [jsonio.fraction_str(x) for x in v] for v in result.polytope_vertices
        ],
        "lower_hull_verified": hull_ok,
    }
    lines = [
        f"subdivision cells: {len(result.subdivision.cells)}",
        f"max value M = {jsonio.fraction_str(result.max_value)}, margin = {result.margin}",
        f"polytope vertices: {len(result.polytope_vertices)}",
        f"lower hull verified: {hull_ok}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if hull_ok else EXIT_FALSIFIED


def cmd_schlegel(args) -> int:
    data = jsonio.read(args.input)
    if "rays" in data or "inequalities" in data:
        _reject(args, "cells", "a cone")
        cone = jsonio.cone_from_dict(data)
        out = schlegel_of_selection(_selection(args, cone), args.avoid)
    else:
        _reject(args, "select", "a polytope's vertices")
        vertices = jsonio.vertex_points(data)
        cells = jsonio.vertex_lists(data, "cells", len(vertices)) if "cells" in data else []
        if args.cells:
            cells = [tuple(int(v) for v in spec.split(",")) for spec in args.cells]
        if not cells:
            raise ValueError("no boundary cells given (JSON \"cells\" or --cells)")
        out = schlegel(vertices, cells, args.avoid)
    payload = jsonio.embedded_to_dict(out)
    lines = [
        f"projected complex: {len(out.cells)} cells in dimension {out.ambient_dim}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_corpus(args) -> int:
    results = suite.run_all(seed=args.seed, bound=args.degree)
    payload = {
        "results": [
            {"criterion": r.name, "passed": r.passed, "details": _plain(r.details)}
            for r in results
        ]
    }
    lines = [
        f"criterion {r.name}: {'PASS' if r.passed else 'FAIL'}" for r in results
    ]
    _emit(args, payload, lines)
    return EXIT_OK if all(r.passed for r in results) else EXIT_FALSIFIED


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (frozenset, set)):
        return sorted(_plain(v) for v in value)
    if isinstance(value, Fraction):
        return jsonio.fraction_str(value)
    return value


# Each subcommand's help, handler and the options its handler reads, besides
# its input and --json; any other option is a usage error.
COMMANDS = {
    "enumerate": ("lattice points and generating function", cmd_enumerate,
                  "--select --degree --grading --side"),
    "reciprocity": ("two-sided enumerator identity", cmd_reciprocity, "--select --field --grading"),
    "cm": ("Cohen-Macaulay certificate", cmd_cm, "--select --field"),
    "separate": ("strict separation witness", cmd_separate, "--select"),
    "shell": ("line shelling of the cross-section", cmd_shell, "--seed --point"),
    "colon": ("colon-ideal consistency scan", cmd_colon, "--select --degree --grading"),
    "lift": ("lift a complex onto a lower hull", cmd_lift, ""),
    "schlegel": ("project boundary cells past one facet", cmd_schlegel, "--select --avoid --cells"),
    "corpus": ("run the full acceptance suite", cmd_corpus, "--degree --seed"),
}

OPTIONS = {
    "--select": dict(help="facet indices i,j,... naming the selection"),
    "--degree": dict(type=int, default=8, help="degree bound N"),
    "--field": dict(action="append", help="Q, F2, or Fp (repeatable)"),
    "--grading": dict(help="grading covector w1,...,wd"),
    "--seed": dict(type=int, default=0),
    "--side": dict(choices=("selected", "complement"), default="selected"),
    "--point": dict(help="steering point a/b,c/d,..."),
    "--avoid": dict(type=int, required=True, help="facet index to project past"),
    "--cells": dict(action="append", help="boundary cell i,j,... (repeatable)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recdom",
        description="reciprocal cone domains: enumerators, reciprocity, CM checks, shellings, lifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name != "corpus":
            p.add_argument("input", help="path to a JSON cone or complex")
        for option in options.split():
            p.add_argument(option, **OPTIONS[option])
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.set_defaults(handler=handler, parser=p)
    return parser


def main(argv=None) -> int:
    args, unread = _build_parser().parse_known_args(argv)
    if unread:
        # the subcommand's own usage lists the options it does take
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.handler(args)
    except json.JSONDecodeError as err:
        print(f"error: line {err.lineno}, column {err.colno}: {err.msg}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, KeyError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
