"""Self-test of the benchmark's gate: it must pass right results and fail wrong ones.

    python3 bench/selftest.py

Each case runs in a child interpreter started with `-O`, so the gate is shown
to hold with assertions stripped.  The cases replace the worker launch with a
stub that answers from bench/oracles.py, so they need no posetcat and finish
in seconds:

- `good`: right results pass (exit 0, correct, failed 0);
- `wrong-result`: one stubbed wrong horn count gives failed > 0 and exit 1;
- `wrong-expected`: a wrong known answer gives failed > 0 and exit 1;
- `wrong-hash`: a verify-all report with another hash gives failed > 0 and exit 1;
- `raising-op` and `dead-worker`: an op that raised, and a worker that died,
  count as failed;
- `wrong-catalog`: a wrong count, stream, iso, certificate and audit each fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _right_result(op: dict) -> dict:
    import oracles

    kind = op["op"]
    levels = range(op.get("d", 0) + 1)
    if kind == "triangulate":  # not through oracles, which `wrong-expected` breaks
        return {"cells": [(m + 2) ** op["n"] for m in levels]}
    if kind in ("horn", "square"):
        cells = [oracles.horn_cells(op["n"], frozenset(op["I"]), m) for m in levels]
        if kind == "square":
            return {"cells": cells}
        return {"source": cells, "target": [oracles.simplex_cells(op["n"], m) for m in levels]}
    if kind == "verify-all":
        return {"rc": 0, "sha256": oracles.VERIFY_ALL_SHA256}
    raise ValueError(kind)


def _stub_launch(run, tamper):
    """A stand-in for run.launch that answers every op from the oracles."""

    def launch(args):
        if args == ["--setup-only"]:
            return run.Launch(0.1, 0.1, 10.0, 0.1, None)
        spec = json.loads(args[0])
        if tamper == "dead-worker":
            return run.Launch(1.0, 1.0, 10.0, None, None)
        results = [_right_result(op) for op in spec["ops"]]
        if tamper == "wrong-result":
            k = next(k for k, op in enumerate(spec["ops"]) if op["op"] == "horn")
            results[k]["source"][2] += 1
        if tamper == "wrong-hash":
            results[0]["sha256"] = "0" * 64
        if tamper == "raising-op":
            results[0] = {"error": "InvariantViolation: injected"}
        return run.Launch(1.0, 1.0, 10.0, None, {"results": results})

    return launch


def _catalog_failures(run) -> int:
    """How many of five wrong catalog results the checker rejects."""
    import oracles

    cube4 = {"kind": "cube", "n": 4, "perm": list(range(16))}
    chain3 = {"kind": "chain", "m": 3, "perm": list(range(4))}
    cube_up = [sum(1 << y for y in range(16) if x & ~y == 0) for x in range(16)]
    chain_up = [(0b1111 >> i) << i for i in range(4)]
    right = oracles.cube_to_chain_count(4, 3)
    diamond = [0b1111, 0b1010, 0b1100, 0b1000]
    cases = [
        ({"op": "count", "dom": cube4, "cod": chain3},
         {"value": right + 1, "dom": cube_up, "cod": chain_up}),
        ({"op": "stream", "dom": cube4, "cod": chain3},
         {"value": right - 1, "dom": cube_up, "cod": chain_up}),
        ({"op": "iso", "shape": {"kind": "lattice", "perm": [0, 1, 2, 3]}},
         {"image": [1, 0, 2, 3], "dom": diamond, "cod": diamond}),
        ({"op": "certificate", "shape": {"kind": "lattice", "perm": [0, 1, 2, 3]}},
         {"lattice": diamond, "section": [1, 3, 5, 15], "retraction": [0] * 16}),
        ({"op": "audit", "n": 3}, {"endos": 8000, "idempotents": 1540, "violations": 0}),
    ]
    return sum(run.check_result(op, result) is not None for op, result in cases)


def case(name: str) -> int:
    sys.path.insert(0, str(BENCH))
    import oracles
    import run

    if name == "wrong-catalog":
        rejected = _catalog_failures(run)
        print(json.dumps({"rejected": rejected}))
        return 0 if rejected == 5 else 1
    if name == "wrong-expected":
        oracles.triangulation_cells = lambda n, m: (m + 2) ** n + 1
    run.launch = _stub_launch(run, name)
    workload = "verify-all" if name == "wrong-hash" else "sites"
    return run.main(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"])


EXPECT = {  # case -> (exit code, correct)
    "good": (0, True),
    "wrong-result": (1, False),
    "wrong-expected": (1, False),
    "wrong-hash": (1, False),
    "raising-op": (1, False),
    "dead-worker": (1, False),
}


def main() -> int:
    bad = 0
    for name in (*EXPECT, "wrong-catalog"):
        proc = subprocess.run(
            [sys.executable, "-O", str(Path(__file__)), "--case", name],
            capture_output=True, text=True, timeout=120,
        )
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if name == "wrong-catalog":
            ok = proc.returncode == 0 and last["rejected"] == 5
        else:
            code, correct = EXPECT[name]
            ok = (
                proc.returncode == code
                and last["correct"] is correct
                and (last["failed"] == 0) is correct
                and last["attempted"] >= 1
            )
        print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {proc.returncode}, {last}")
        bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--case":
        raise SystemExit(case(sys.argv[2]))
    raise SystemExit(main())
