"""One workload process: run a list of operations against posetcat, report raw results.

Usage (from bench/run.py, with posetcat importable):

    python3 bench/worker.py --setup-only
    python3 bench/worker.py '<json spec>'

`--setup-only` imports posetcat, prints `ready` and exits; bench/run.py times
it as set-up.  Otherwise the spec is `{"ops": [...], "trace": bool}`; the
worker runs each op in order (a closed loop: each op starts when the previous
one returned) and prints one JSON line of results.  It checks nothing itself:
bench/run.py compares the results with bench/oracles.py.
"""

from __future__ import annotations

import sys

if len(sys.argv) == 2 and sys.argv[1] == "--setup-only":
    import posetcat  # noqa: F401

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    raise SystemExit(0)

import contextlib
import hashlib
import io
import json
from time import perf_counter

import spans  # bench/spans.py: the script's directory is first on sys.path
from posetcat import catalog, cli, karoubi, presheaf
from posetcat.poset import Poset, chain, interval_power, product


def _relabel(P: Poset, perm: list[int]) -> Poset:
    up = [0] * P.size
    for i in range(P.size):
        row = 0
        m = P.up[i]
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            row |= 1 << perm[j]
        up[perm[i]] = row
    return Poset(P.size, tuple(up))


def _base(shape: dict) -> Poset:
    kind = shape["kind"]
    if kind == "cube":
        return interval_power(shape["n"])
    if kind == "chain":
        return chain(shape["m"])
    if kind == "poset":
        return catalog.enumerate_posets(shape["size"])[shape["index"]].poset
    if kind == "lattice":
        return catalog.enumerate_lattices(shape["size"])[shape["index"]].poset
    raise ValueError(f"unknown shape kind {kind!r}")


def build(shape: dict) -> Poset:
    """The shape's poset, relabeled by its permutation (products: each factor)."""
    if shape["kind"] == "product":
        return product(build(shape["left"]), build(shape["right"]))
    return _relabel(_base(shape), shape["perm"])


def run_op(op: dict) -> dict:
    kind = op["op"]
    if kind == "posets":
        return {"value": len(catalog.enumerate_posets(op["n"]))}
    if kind == "lattices":
        return {"value": len(catalog.enumerate_lattices(op["n"]))}
    if kind in ("count", "stream", "materialize"):
        P, Q = build(op["dom"]), build(op["cod"])
        if kind == "count":
            value = catalog.count_monotone_maps(P, Q)
        elif kind == "stream":
            value = sum(1 for _ in catalog.enumerate_monotone_maps(P, Q))
        else:
            value = len(catalog.monotone_maps(P, Q))
        return {"value": value, "dom": list(P.up), "cod": list(Q.up)}
    if kind == "iso":
        P, Q = _base(op["shape"]), build(op["shape"])
        f = catalog.find_isomorphism(P, Q)
        return {"image": None if f is None else list(f.image), "dom": list(P.up), "cod": list(Q.up)}
    if kind == "certificate":
        L = build(op["shape"])
        cert = karoubi.retract_certificate(L)
        return {
            "lattice": list(L.up),
            "section": list(cert.section.image),
            "retraction": list(cert.retraction.image),
        }
    if kind == "audit":
        report = karoubi.audit_cube_idempotents(op["n"])
        return {
            "endos": report.endos,
            "idempotents": report.idempotents,
            "violations": len(report.violations),
        }
    if kind == "triangulate":
        return {"cells": list(presheaf.triangulate(op["n"], op["d"]).cells)}
    if kind == "horn":
        incl = presheaf.horn(op["n"], op["I"], op["d"])
        return {"source": list(incl.source.cells), "target": list(incl.target.cells)}
    if kind == "square":
        counts = presheaf.horn_attachment_square(op["n"], op["I"], op["i"], op["d"])
        return {"cells": [counts[lvl] for lvl in sorted(counts)]}
    if kind == "verify-all":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify-all"])
        return {"rc": rc, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    raise ValueError(f"unknown op {kind!r}")


def time_two_workers(tracer, ops: list[dict]) -> dict:
    """Re-count every `count` pair with workers=2, untraced, after the verdict."""
    count = tracer.original("catalog.count_monotone_maps")
    pairs = [(build(op["dom"]), build(op["cod"])) for op in ops if op["op"] == "count"]
    start = perf_counter()
    values = [count(P, Q, workers=2) for P, Q in pairs]
    return {"seconds": perf_counter() - start if pairs else 0.0, "values": values}


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec.get("trace"):
        tracer = spans.Tracer()
        spans.install_posetcat(tracer)
    results = []
    for op in spec["ops"]:
        try:
            results.append(run_op(op))
        except Exception as exc:  # a raising op is a failed op, reported by the runner
            results.append({"error": f"{type(exc).__name__}: {exc}"})
    out = {"results": results}
    if tracer is not None:
        out["trace"] = spans.summary(tracer)
        out["w2"] = time_two_workers(tracer, spec["ops"])
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
