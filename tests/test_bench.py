"""Smoke test of the benchmark worker (bench/worker.py) under its tracer.

The worker wraps src functions by name (bench/spans.py), so a refactor that
renames or drops one of them breaks the benchmark; this runs traced
triangulate, count, horn and square ops in a subprocess, as bench/run.py does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import posetcat

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def test_traced_worker_runs_a_presheaf_op_and_a_count_op():
    src = os.path.dirname(os.path.dirname(posetcat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    cube = {"kind": "cube", "n": 2, "perm": [3, 1, 2, 0]}
    chain = {"kind": "chain", "m": 2, "perm": [0, 1, 2]}
    spec = {
        "ops": [
            {"op": "triangulate", "n": 2, "d": 2},
            {"op": "count", "dom": cube, "cod": chain},
            {"op": "horn", "n": 2, "I": [1, 2], "d": 2},
            {"op": "square", "n": 2, "I": [1, 2], "i": 1, "d": 2},
        ],
        "trace": True,
    }
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(spec)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert [r for r in out["results"] if "error" in r] == []
    # triangulate 1, the horn's Delta[2] and the square's Delta[1]; the face
    # unions and the pushout are carried along checked maps and not validated
    assert out["trace"]["presheaf.Presheaf.validate.calls"] == 3
    assert out["trace"]["catalog.count_monotone_maps.calls"] == 1
    assert out["trace"]["presheaf.pushout.calls"] == 1
    assert out["trace"]["presheaf.horn_attachment_square.calls"] == 1
