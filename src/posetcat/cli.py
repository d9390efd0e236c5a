"""Command-line entry point.

Subcommands: audit-idempotents, certify, enumerate, triangulate, kan, horn,
verify-all.  Machine output is JSON on stdout; diagnostics go to stderr.
Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog, checks, karoubi, presheaf
from .errors import BoundExceeded, PosetCatError, SchemaError
from .poset import JSON_POSET_BOUND, chain, poset_from_json, poset_to_json

# certify builds the cube [1]^n on an n-element lattice: 2^n vertices and
# 3.5 to 5x the time per extra element (1.0 s at 12 on a 2 vCPU Xeon VM).
MAX_CERTIFY_SIZE = 12
# `enumerate --kind maps` lists a hom-set only up to this many maps; it counts
# them first, and the count itself is bounded by catalog.COUNT_STATE_BOUND.
MAX_LISTED_MAPS = 1 << 16
# the most phis and comma cells `kan` builds (JSON_POSET_BOUND alone allows ~10^8)
MAX_KAN_CELLS = 1 << 20


def _int_in(low: int, high: int | None = None):
    """argparse type: an int at least `low`, and at most `high` if given (else exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if high is None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in {low}..{high}, got {value}")
        return value

    return parse


def _emit(data) -> None:
    sys.stdout.write(json.dumps(data, indent=2) + "\n")


def _parse_json(raw: str):
    try:
        return json.loads(raw)
    except RecursionError:  # the decoder recurses once per nesting level
        raise SchemaError("JSON document is nested too deeply") from None


def _read_poset(path: str | None, max_size: int = JSON_POSET_BOUND):
    if path in (None, "-"):
        raw = sys.stdin.read()
    else:
        with open(path) as fh:
            raw = fh.read()
    return poset_from_json(_parse_json(raw), max_size)


def _cmd_enumerate(args) -> int:
    if args.kind == "maps":
        if not args.dom or not args.cod:
            print("enumerate --kind maps requires --dom and --cod", file=sys.stderr)
            return 2
        dom = _read_poset(args.dom)
        cod = _read_poset(args.cod)
        count = catalog.count_monotone_maps(dom, cod)
        if args.format == "count":
            _emit({"count": count})
            return 0
        if count > MAX_LISTED_MAPS:
            raise BoundExceeded(
                f"{count} maps exceed the listing bound {MAX_LISTED_MAPS}; "
                "use --format count"
            )
        try:
            maps = list(catalog.enumerate_monotone_maps(dom, cod))
        except ValueError as exc:  # both posets are valid: a streamed map failed its check
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if len(maps) != count:
            print(f"error: streamed {len(maps)} maps, counted {count}", file=sys.stderr)
            return 1
        _emit(
            {
                "dom": poset_to_json(dom),
                "cod": poset_to_json(cod),
                "count": len(maps),
                "items": [list(f.image) for f in maps],
            }
        )
        return 0
    enum = catalog.enumerate_posets if args.kind == "posets" else catalog.enumerate_lattices
    reps = enum(args.size)
    if args.format == "count":
        _emit({"count": len(reps)})
        return 0
    _emit(
        {
            "count": len(reps),
            "items": [poset_to_json(cp.poset) for cp in reps],
        }
    )
    return 0


def _cmd_audit_idempotents(args) -> int:
    report = karoubi.audit_cube_idempotents(args.dim)
    _emit(karoubi.audit_report_to_json(report, include_timing=args.timings))
    return 0 if report.passed else 1


def _cmd_certify(args) -> int:
    C = _read_poset(args.input, MAX_CERTIFY_SIZE)
    cert = karoubi.retract_certificate(C)
    _emit(
        {
            "lattice": poset_to_json(C),
            "cube_dim": C.size,
            "section": list(cert.section.image),
            "retraction": list(cert.retraction.image),
        }
    )
    return 0


def _cmd_triangulate(args) -> int:
    X = presheaf.triangulate(args.cube_dim, args.trunc)
    if args.format == "count":
        _emit(list(X.cells))
    elif args.format == "human":
        for m, c in enumerate(X.cells):
            print(f"level [{m}]: {c} cells")
    else:
        _emit(presheaf.presheaf_to_json(X))
    return 0


def _cmd_kan(args) -> int:
    M = _read_poset(args.target)
    if args.presheaf:
        with open(args.presheaf) as fh:
            X = presheaf.presheaf_from_json(_parse_json(fh.read()))
    else:
        X = presheaf.simplex(args.simplex, args.simplex)
    # at each level where X has cells, left_kan builds every phi: M -> [k]
    # and at most the cells over it; a level without cells builds nothing.
    # Bound both before any is built, level by level
    size = 0
    for k, c in enumerate(X.cells):
        if not c:
            continue
        size += (1 + c) * catalog.count_monotone_maps(M, chain(k))
        if size > MAX_KAN_CELLS:
            raise BoundExceeded(f"kan would build {size} comma cells, more than {MAX_KAN_CELLS}")
    result = presheaf.left_kan(X, M)
    if args.presheaf:
        _emit({"target": poset_to_json(M), "components": result.count})
        return 0
    oracle = catalog.count_monotone_maps(M, chain(args.simplex))
    _emit(
        {
            "simplex": args.simplex,
            "target": poset_to_json(M),
            "components": result.count,
            "hom_oracle": oracle,
            "match": result.count == oracle,
        }
    )
    return 0 if result.count == oracle else 1


def _cmd_horn(args) -> int:
    I = [int(v) for v in args.faces.split(",") if v != ""]
    incl = presheaf.horn(args.dim, I, args.trunc)
    if args.format == "count":
        _emit(
            {
                "cells": list(incl.source.cells),
                "target_cells": list(incl.target.cells),
            }
        )
        return 0
    _emit(
        {
            "source": presheaf.presheaf_to_json(incl.source),
            "target": presheaf.presheaf_to_json(incl.target),
            "components": [list(c) for c in incl.components],
        }
    )
    return 0


def _cmd_verify_all(args) -> int:
    report = checks.verify_all(
        max_poset=args.max_poset,
        max_dim=args.max_dim,
        max_simplex=args.max_simplex,
        deep=args.deep,
        seed=args.seed,
    )
    if args.format == "human":
        for c in sorted(report.checks, key=lambda c: c.name):
            status = "pass" if c.passed else "FAIL"
            extra = f"  [{c.error}]" if c.error else ""
            print(f"{c.name:<24} {status}  {c.counts} ({c.elapsed:.2f}s){extra}")
        print(f"overall: {'pass' if report.passed else 'FAIL'}")
    else:
        _emit(checks.report_to_json(report, timings=args.timings))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posetcat",
        description="Audits for idempotent splittings of cubes, lattice retract "
        "certificates, cube triangulations and their Kan extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="posets/lattices up to iso, or monotone maps")
    p.add_argument("--kind", choices=["posets", "lattices", "maps"], required=True)
    p.add_argument("--size", type=_int_in(0), default=0)
    p.add_argument("--dom", help="domain poset JSON file (maps)")
    p.add_argument("--cod", help="codomain poset JSON file (maps)")
    p.add_argument("--format", choices=["json", "count"], default="json")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("audit-idempotents", help="split every idempotent cube endomorphism")
    p.add_argument("--dim", type=_int_in(0), required=True)
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=_cmd_audit_idempotents)

    p = sub.add_parser(
        "certify",
        help=f"lattice-in-cube retract certificate (at most {MAX_CERTIFY_SIZE} elements)",
    )
    p.add_argument("--input", help="poset JSON file (default stdin)")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("triangulate", help="simplicial cell counts of a cube")
    p.add_argument("--cube-dim", type=int, required=True)
    p.add_argument("--trunc", type=int, required=True)
    p.add_argument("--format", choices=["json", "count", "human"], default="json")
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("kan", help="pointwise left Kan extension value")
    p.add_argument("--simplex", type=int, default=1)
    p.add_argument("--presheaf", help="presheaf JSON file instead of a representable")
    p.add_argument("--target", help="poset JSON file for the evaluation point (default stdin)")
    p.set_defaults(func=_cmd_kan)

    p = sub.add_parser("horn", help="generalized horn inclusion")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--faces", required=True, help="comma-separated face indices (the union set)")
    p.add_argument("--trunc", type=int)
    p.add_argument("--format", choices=["json", "count"], default="json")
    p.set_defaults(func=_cmd_horn)

    p = sub.add_parser("verify-all", help="run the full audit suite")
    p.add_argument("--max-poset", type=_int_in(1, catalog.RETRACT_SIZE_BOUND), default=5)
    p.add_argument("--max-dim", type=_int_in(0, karoubi.AUDIT_DIM_BOUND), default=2)
    simplex_bound = min(presheaf.TRIANGULATE_BOUND, presheaf.HORN_DIM_BOUND)
    p.add_argument("--max-simplex", type=_int_in(1, simplex_bound), default=3)
    p.add_argument("--deep", action="store_true", help="include the exhaustive dim-3 audit")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "human"], default="json")
    p.add_argument("--timings", action="store_true", help="include elapsed times in JSON")
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PosetCatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
