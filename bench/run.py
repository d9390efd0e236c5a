"""posetcat benchmark: time to verdict on one workload, checked against known answers.

    python3 bench/run.py --workload {verify-all,catalog,sites} --seed N --seconds S --trace {0,1}

Run from the repository root.  Each operation batch runs in a fresh Python
process (bench/worker.py), because command-line users pay cold caches on
every run; the batch is relaunched while the next launch still fits in
`--seconds` (at least once).  This process never imports posetcat: it
generates the inputs from the seed, launches the workers, and checks every
result against bench/oracles.py.

The last line of stdout is the result JSON.  With `--trace 0` it carries the
end-to-end metrics, with `--trace 1` the per-layer metrics of one traced
launch.  The line before it records the machine and the raw samples.  Exit
code 0 means every result was right; 1 means some were wrong; 2 means the
benchmark could not run (bad arguments, or no posetcat sources).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from time import perf_counter

import oracles

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"

SETUP_LAUNCHES = 15
LAUNCH_TIMEOUT_S = 80

# Fixed shapes of the catalog workload; the seed only relabels them.
SIX_POSETS = (10, 74, 138, 202, 266)  # indices into enumerate_posets(6)
SEVEN_LATTICES = (5, 21, 37)  # indices into enumerate_lattices(7)

CHECK_NAMES = (
    "contracting-homotopies", "cube-idempotents", "horn-pushouts", "kan-oracle",
    "lattice-certificates", "mono-preservation", "nat-hom", "poset-laws",
    "retract-transfer", "simplex-retracts", "sort-splits", "triangulation-counts",
)


# ---------------------------------------------------------------------------
# workload inputs


def _shape(rng: random.Random, kind: str, elements: int, **fields) -> dict:
    return {"kind": kind, **fields, "perm": rng.sample(range(elements), elements)}


def catalog_ops(seed: int) -> list[dict]:
    rng = random.Random(seed)

    def cube(n):
        return _shape(rng, "cube", 1 << n, n=n)

    def chain(m):
        return _shape(rng, "chain", m + 1, m=m)

    ops = [{"op": "posets", "n": n} for n in range(7)]
    ops += [{"op": "lattices", "n": n} for n in range(1, 8)]
    for dom, cod in ((cube(4), chain(3)), (cube(4), cube(2)), (cube(3), cube(3))):
        ops += [{"op": "count", "dom": dom, "cod": cod}, {"op": "stream", "dom": dom, "cod": cod}]
    sixes = [_shape(rng, "poset", 6, size=6, index=i) for i in SIX_POSETS]
    sevens = [_shape(rng, "lattice", 7, size=7, index=i) for i in SEVEN_LATTICES]
    for dom in sixes:
        for cod in sevens:
            ops += [
                {"op": "count", "dom": dom, "cod": cod},
                {"op": "materialize", "dom": dom, "cod": cod},
            ]
    dom, left, right = cube(3), chain(2), cube(2)
    ops += [
        {"op": "count", "dom": dom, "cod": left},
        {"op": "count", "dom": dom, "cod": right},
        {"op": "count", "dom": dom, "cod": {"kind": "product", "left": left, "right": right}},
    ]
    ops += [{"op": "iso", "shape": s} for s in (cube(4), *sixes, *sevens)]
    ops += [{"op": "certificate", "shape": s} for s in sevens]
    ops.append({"op": "audit", "n": 3})
    return ops


def sites_ops(seed: int) -> list[dict]:
    # One seeded index set I per size |I| = 1..4, for horns and for squares:
    # cell counts and work depend on |I| only, so work is comparable across seeds.
    rng = random.Random(seed)
    n, d = 4, 4
    ops = [{"op": "triangulate", "n": k, "d": d} for k in range(n + 1)]
    for size in range(1, n + 1):
        I = sorted(rng.sample(range(n + 1), size))
        ops.append({"op": "horn", "n": n, "I": I, "d": d})
    for size in range(1, n + 1):
        I = sorted(rng.sample(range(n + 1), size))
        ops.append({"op": "square", "n": n, "I": I, "i": rng.choice(I), "d": d})
    return ops


def verify_all_ops(seed: int) -> list[dict]:
    # `--seed` is echoed into the report bytes, so the pinned hash needs the default.
    return [{"op": "verify-all"}]


WORKLOADS = {"verify-all": verify_all_ops, "catalog": catalog_ops, "sites": sites_ops}


# ---------------------------------------------------------------------------
# known answers


def expected_count(dom: dict, cod: dict, result: dict | None) -> int:
    """|Poset(dom, cod)|: closed forms for cubes, else an independent count of
    the relabeled posets the worker reports."""
    if dom["kind"] == "cube" and cod["kind"] == "chain":
        return oracles.cube_to_chain_count(dom["n"], cod["m"])
    if dom["kind"] == "cube" and cod["kind"] == "cube":
        return oracles.cube_to_cube_count(dom["n"], cod["n"])
    return _independent_count(tuple(result["dom"]), tuple(result["cod"]))


@lru_cache(maxsize=None)
def _independent_count(dom: tuple, cod: tuple) -> int:
    return oracles.count_monotone(list(dom), list(cod))


def check_result(op: dict, result: dict) -> str | None:
    """Why `result` is wrong for `op`, or None if it is right."""
    if "error" in result:
        return result["error"]
    kind = op["op"]
    if kind == "posets":
        want = oracles.A000112[op["n"]]
        return None if result["value"] == want else f"posets({op['n']}) = {result['value']}, want {want}"
    if kind == "lattices":
        want = oracles.A006966[op["n"]]
        return None if result["value"] == want else f"lattices({op['n']}) = {result['value']}, want {want}"
    if kind in ("count", "stream", "materialize"):
        # count, stream and materialize of one pair meet the same known answer,
        # so they also agree with each other
        dom, cod = op["dom"], op["cod"]
        if len(result["dom"]) != len(dom["perm"]):
            return f"{kind}: domain has {len(result['dom'])} elements, want {len(dom['perm'])}"
        if cod["kind"] == "product":  # |P -> Q1 x Q2| = |P -> Q1| * |P -> Q2|
            want = expected_count(dom, cod["left"], None) * expected_count(dom, cod["right"], None)
        else:
            want = expected_count(dom, cod, result)
        if result["value"] != want:
            return f"{kind} {dom['kind']}->{cod['kind']} = {result['value']}, want {want}"
        return None
    if kind == "iso":
        shape = op["shape"]
        if result["cod"] != oracles.relabel(result["dom"], shape["perm"]):
            return f"the relabeled {shape['kind']} is not the base relabeled by the seed's permutation"
        if result["image"] is None or not oracles.is_isomorphism(
            result["dom"], result["cod"], result["image"]
        ):
            return f"no valid isomorphism onto the relabeled {shape['kind']}"
        return None
    if kind == "certificate":
        if not oracles.is_retract_certificate(
            result["lattice"], result["section"], result["retraction"]
        ):
            return "retract certificate fails r.s = id, the down-set section, or monotonicity"
        return None
    if kind == "audit":
        n = op["n"]
        want = (oracles.cube_to_cube_count(n, n), oracles.cube_idempotent_count(n), 0)
        got = (result["endos"], result["idempotents"], result["violations"])
        return None if got == want else f"audit({n}) (endos, idempotents, violations) = {got}, want {want}"
    if kind == "triangulate":
        want = [oracles.triangulation_cells(op["n"], m) for m in range(op["d"] + 1)]
        return None if result["cells"] == want else f"triangulate({op['n']}) = {result['cells']}, want {want}"
    if kind in ("horn", "square"):
        I = frozenset(op["I"])
        want = [oracles.horn_cells(op["n"], I, m) for m in range(op["d"] + 1)]
        got = result["source"] if kind == "horn" else result["cells"]
        if got != want:
            return f"{kind}({op['n']}, {sorted(I)}) cells = {got}, want {want}"
        if kind == "horn":
            simplex = [oracles.simplex_cells(op["n"], m) for m in range(op["d"] + 1)]
            if result["target"] != simplex:
                return f"horn target cells = {result['target']}, want {simplex}"
        return None
    if kind == "verify-all":
        if result["rc"] != 0 or result["sha256"] != oracles.VERIFY_ALL_SHA256:
            return f"verify-all exit {result['rc']}, stdout sha256 {result['sha256']}"
        return None
    return f"no known answer for op {kind!r}"


def check_results(ops: list[dict], results: list | None) -> list[str | None]:
    """Per op: why its result is wrong, or None.  No results fails every op."""
    if not isinstance(results, list) or len(results) != len(ops):
        return ["worker returned no result"] * len(ops)
    verdicts = []
    for op, result in zip(ops, results):
        try:
            verdicts.append(check_result(op, result))
        except (KeyError, TypeError, IndexError) as exc:
            verdicts.append(f"malformed result {result!r:.200}: {exc!r}")
    return verdicts


# ---------------------------------------------------------------------------
# launching workers


@dataclass
class Launch:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ready_s: float | None
    output: dict | None


def _env() -> dict:
    # Workers run serial (no POSETCAT_THREADS) and may write the bytecode cache,
    # as an installed posetcat has one; the unmeasured first launch fills it.
    drop = ("POSETCAT_THREADS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(args: list[str]) -> Launch:
    """Run bench/worker.py once; wall time is from spawn until the process is reaped."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        cwd=str(ROOT),
        env=_env(),
    )
    watchdog = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready = perf_counter() - start
        rest = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = None
    lines = (first + rest).decode().strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            output = json.loads(lines[-1])
        except json.JSONDecodeError:
            output = None
    return Launch(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        ready_s=ready if first == b"ready\n" else None,
        output=output if isinstance(output, dict) else None,
    )


def run_ops(ops: list[dict], trace: bool) -> tuple[Launch, list[str | None]]:
    """Launch one worker over `ops`; per op, why its result is wrong or None."""
    result = launch([json.dumps({"ops": ops, "trace": trace})])
    results = result.output.get("results") if result.output else None
    verdicts = check_results(ops, results)
    if trace and result.output is not None:
        # the workers=2 recount of each `count` op must give the serial answer
        w2 = iter(result.output.get("w2", {}).get("values", []))
        for k, op in enumerate(ops):
            if op["op"] == "count" and next(w2, None) != results[k].get("value") and verdicts[k] is None:
                verdicts[k] = "count with workers=2 differs from the serial count"
    return result, verdicts


# ---------------------------------------------------------------------------
# metrics


def _src_info() -> dict:
    """Line count and sha256 of the `src/` Python files (the commit is unknown
    in a checkout without .git)."""
    lines, digest = 0, hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += len(data.splitlines())
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "git_commit": _git_commit(),
        **_src_info(),
    }


def end_to_end(samples: list[Launch], setups: list[float], attempted: int, failed: int) -> dict:
    return {
        "verdict_s": {"value": statistics.median(s.wall_s for s in samples), "unit": "s"},
        "cpu_s": {"value": statistics.median(s.cpu_s for s in samples), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(s.rss_mb for s in samples), "unit": "MB"},
        "ok_ops": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }


PER_LAYER_COUNTS = (
    "presheaf.left_kan.calls", "presheaf.Presheaf.validate.calls",
    "presheaf.representable.calls", "presheaf.delta_site.misses", "presheaf.horn.calls",
    "presheaf.horn.distinct_args", "catalog.enumerate_posets.hits",
    "catalog.enumerate_posets.misses", "catalog.enumerate_lattices.misses",
    "catalog.count_monotone_maps.leaves", "catalog.enumerate_monotone_maps.maps",
    "catalog.monotone_maps.hits", "catalog.monotone_maps.misses",
    "catalog.canonical_key.calls", "catalog.find_isomorphism.calls",
    "karoubi.split_idempotent.calls", "karoubi.retract_certificate.calls",
)
PER_LAYER_TIMES = (
    "presheaf.left_kan.self_s", "presheaf.left_kan_map.self_s",
    "presheaf.Presheaf.validate.self_s", "presheaf.PresheafMap.validate.self_s",
    "presheaf.representable.self_s", "presheaf.subpresheaf.self_s", "presheaf.pushout.self_s",
    "presheaf.delta_site.self_s", "catalog.enumerate_posets.self_s",
    "catalog.count_monotone_maps.self_s", "catalog.enumerate_monotone_maps.self_s",
    "catalog.monotone_maps.self_s", "catalog.canonical_key.self_s",
    "catalog.find_isomorphism.self_s", "karoubi.audit_cube_idempotents.self_s",
    "karoubi.retract_certificate.self_s",
    *(f"checks.{name}_s" for name in CHECK_NAMES),
    "catalog.count_monotone_maps.w2_self_s", "trace.overhead_s",
)


def per_layer(trace: dict, w2_s: float, overhead_s: float) -> dict:
    values = dict(trace)
    values["catalog.count_monotone_maps.w2_self_s"] = w2_s
    values["trace.overhead_s"] = overhead_s
    metrics = {name: {"value": values.get(name, 0), "unit": "count"} for name in PER_LAYER_COUNTS}
    metrics.update({name: {"value": values.get(name, 0.0), "unit": "s"} for name in PER_LAYER_TIMES})
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "posetcat" / "__init__.py").is_file():
        print(f"bench: no posetcat sources under {SRC}", file=sys.stderr)
        return 2

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **machine_info()}
    ops = WORKLOADS[args.workload](args.seed)
    warm = launch(["--setup-only"])  # writes the bytecode cache; not measured
    if warm.ready_s is None:
        print("bench: posetcat does not import", file=sys.stderr)
        return 2

    attempted = failed = 0
    samples: list[Launch] = []

    def measure(trace: bool) -> Launch:
        nonlocal attempted, failed
        sample, verdicts = run_ops(ops, trace)
        attempted += len(ops)
        for op, why in zip(ops, verdicts):
            if why is not None:
                failed += 1
                print(f"bench: wrong result for {op['op']}: {why}", file=sys.stderr)
        return sample

    if args.trace:
        plain = measure(trace=False)
        traced = measure(trace=True)
        samples = [plain, traced]
        output = traced.output or {}
        w2_s = output.get("w2", {}).get("seconds", 0.0)
        overhead = traced.wall_s - w2_s - plain.wall_s
        metrics = per_layer(output.get("trace", {}), w2_s, overhead)
        info["trace_detail"] = output.get("trace")
    else:
        setups = [launch(["--setup-only"]).ready_s for _ in range(SETUP_LAUNCHES)]
        if None in setups:
            print("bench: posetcat does not import", file=sys.stderr)
            return 2
        start = perf_counter()
        while True:
            samples.append(measure(trace=False))
            if perf_counter() - start + samples[-1].wall_s > args.seconds:
                break
        metrics = end_to_end(samples, setups, attempted, failed)
        info["setup_s_samples"] = setups
    info["samples"] = len(samples)
    info["verdict_s_samples"] = [s.wall_s for s in samples]
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
