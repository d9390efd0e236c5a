import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from posetcat import cli
from test_presheaf import coproduct


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def diamond_file(tmp_path):
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps({"size": 4, "relation": [[0, 1], [0, 2], [1, 3], [2, 3]]}))
    return str(path)


def arrow_file(tmp_path):
    path = tmp_path / "arrow.json"
    path.write_text(json.dumps({"size": 2, "relation": [[0, 1]]}))
    return str(path)


class TestAuditIdempotents:
    def test_dim1_exact_output(self, capsys):
        code, out, _ = run(capsys, ["audit-idempotents", "--dim", "1"])
        assert code == 0
        data = json.loads(out)
        assert data["endos"] == 3 and data["idempotents"] == 3
        assert data["violations"] == []

    def test_dim2(self, capsys):
        code, out, _ = run(capsys, ["audit-idempotents", "--dim", "2"])
        assert code == 0
        assert json.loads(out)["endos"] == 36

    def test_dim_too_large_exits_2(self, capsys):
        code, _, err = run(capsys, ["audit-idempotents", "--dim", "7"])
        assert code == 2 and "error" in err


class TestCertify:
    def test_diamond(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["certify", "--input", diamond_file(tmp_path)])
        assert code == 0
        data = json.loads(out)
        assert data["cube_dim"] == 4
        assert data["section"] == [1, 3, 5, 15]
        for c, v in enumerate(data["section"]):
            assert data["retraction"][v] == c

    @pytest.mark.parametrize(
        "data",
        [
            {"size": 2, "relation": [[0, 5]]},
            {"size": "2", "relation": []},
            [1, 2],
        ],
    )
    def test_malformed_input_exits_2_without_traceback(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, ["certify", "--input", str(path)])
        assert code == 2 and out == ""
        assert "error" in err and "Traceback" not in err

    def test_size_bound_exits_2(self, capsys, tmp_path):
        n = cli.MAX_CERTIFY_SIZE + 1
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"size": n, "relation": [[i, i + 1] for i in range(n - 1)]}))
        code, out, err = run(capsys, ["certify", "--input", str(path)])
        assert code == 2 and out == ""
        assert "bound" in err and "Traceback" not in err

    def test_incomplete_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "vee.json"
        path.write_text(json.dumps({"size": 3, "relation": [[0, 2], [1, 2]]}))
        code, _, err = run(capsys, ["certify", "--input", str(path)])
        assert code == 2 and "error" in err


class TestTriangulate:
    def test_count_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["triangulate", "--cube-dim", "2", "--trunc", "3", "--format", "count"],
        )
        assert code == 0
        assert json.loads(out) == [4, 9, 16, 25]

    def test_json_format_round_trips(self, capsys):
        from posetcat import presheaf as ps

        code, out, _ = run(
            capsys, ["triangulate", "--cube-dim", "1", "--trunc", "2"]
        )
        assert code == 0
        X = ps.presheaf_from_json(json.loads(out))
        assert X.cells == (2, 3, 4)

    def test_negative_truncation_exits_2(self, capsys):
        code, out, err = run(capsys, ["triangulate", "--cube-dim", "2", "--trunc", "-1"])
        assert code == 2 and out == ""
        assert "dimension must be >= 0" in err and "Traceback" not in err


class TestKan:
    def test_matches_oracle(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["kan", "--simplex", "1", "--target", diamond_file(tmp_path)]
        )
        assert code == 0
        data = json.loads(out)
        assert data["components"] == data["hom_oracle"] == 6
        assert data["match"] is True

    def test_explicit_truncation(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            ["kan", "--simplex", "2", "--target", arrow_file(tmp_path), "--trunc", "3"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["components"] == 6 and data["truncation"] == 3


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


DELTA_1 = {"kind": "delta", "dim": 1}


class TestKanPresheaf:
    def test_representable_matches_hom_count(self, capsys, tmp_path):
        from posetcat import presheaf as ps
        from posetcat.poset import chain

        X = ps.representable(ps.delta_site(1), chain(1))
        path = write_json(tmp_path, "y1.json", ps.presheaf_to_json(X))
        code, out, _ = run(capsys, ["kan", "--presheaf", path, "--target", arrow_file(tmp_path)])
        assert code == 0 and json.loads(out)["components"] == 3

    @pytest.mark.parametrize(
        "data",
        [
            {"site": [1], "cells": [], "actions": {}},
            [1, 2],
            {"site": {"kind": "simplex", "dim": 1}, "cells": [1, 1], "actions": {}},
            {"site": {"dim": 1}, "cells": [1, 1], "actions": {}},
            {"site": {"kind": "delta", "dim": "1"}, "cells": [1, 1], "actions": {}},
            {"site": {"kind": "box", "dim": True}, "cells": [1, 1], "actions": {}},
            {"site": {"kind": "delta", "dim": -1}, "cells": [], "actions": {}},
            {"site": {"kind": "custom", "objects": {}}, "cells": [], "actions": {}},
            {"site": {"kind": "custom", "objects": [[0]]}, "cells": [1], "actions": {}},
            {"site": DELTA_1, "cells": "2", "actions": {}},
            {"site": DELTA_1, "cells": [1, -1], "actions": {}},
            {"site": DELTA_1, "cells": [1, 1.5], "actions": {}},
            {"site": DELTA_1, "cells": [1, 1], "actions": []},
            {"site": DELTA_1, "cells": [1, 1], "actions": {"0,0": [0]}},
            {"site": DELTA_1, "cells": [1, 1], "actions": {"0,x,0": [0]}},
            {"site": DELTA_1, "cells": [1, 1], "actions": {"0,0,-1": [0]}},
            {"site": DELTA_1, "cells": [1, 1], "actions": {"0,0,0": 0}},
            {"site": DELTA_1, "cells": [1, 1], "actions": {"0,0,0": ["0"]}},
            {"site": DELTA_1, "cells": [1], "actions": {}},
            {"site": DELTA_1, "cells": [1, 1], "actions": {"0,0,0": [0]}},
        ],
    )
    def test_malformed_presheaf_exits_2_without_traceback(self, capsys, tmp_path, data):
        path = write_json(tmp_path, "bad.json", data)
        code, out, err = run(capsys, ["kan", "--presheaf", path, "--target", arrow_file(tmp_path)])
        assert code == 2 and out == ""
        assert "error" in err and "Traceback" not in err


    def test_custom_site_past_the_hom_bound_exits_2(self, capsys, tmp_path):
        # one 12-element antichain asks for 12**12 endomorphisms
        site = {"kind": "custom", "objects": [{"size": 12, "relation": []}]}
        path = write_json(tmp_path, "big.json", {"site": site, "cells": [0], "actions": {}})
        code, out, err = run(capsys, ["kan", "--presheaf", path, "--target", arrow_file(tmp_path)])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("key", ["0,1,9", "5,5,5"])
    def test_action_key_of_no_hom_exits_2(self, capsys, tmp_path, key):
        from posetcat import presheaf as ps
        from posetcat.poset import chain

        X = ps.representable(ps.delta_site(1), chain(0))
        data = ps.presheaf_to_json(coproduct(X, X))
        data["actions"][key] = [1, 1]
        path = write_json(tmp_path, "extra.json", data)
        code, out, err = run(capsys, ["kan", "--presheaf", path, "--target", arrow_file(tmp_path)])
        assert code == 2 and out == ""
        assert "homs the site does not have" in err and "Traceback" not in err

    def test_second_spelling_of_a_key_exits_2(self, capsys, tmp_path):
        from posetcat import presheaf as ps
        from posetcat.poset import chain

        data = ps.presheaf_to_json(ps.representable(ps.delta_site(1), chain(1)))
        data["actions"]["01,0,0"] = data["actions"]["1,0,0"]
        data["actions"]["1,0,0"] = [1, 1, 1]
        path = write_json(tmp_path, "alias.json", data)
        code, out, err = run(capsys, ["kan", "--presheaf", path, "--target", arrow_file(tmp_path)])
        assert code == 2 and out == ""
        assert "'01,0,0'" in err and "Traceback" not in err

    def test_missing_word_table_exits_2(self, capsys, tmp_path):
        from posetcat import presheaf as ps
        from posetcat.poset import chain

        X = ps.representable(ps.delta_site(2), chain(1))
        site = X.site
        given = set(site.generators) | {(i, i, h) for i, h in enumerate(site.identity_index)}
        reached = [site.hom_keys[c] for c in site.steps[2::3]]
        i, k, c = [key for key in reached if key not in given][-1]
        data = ps.presheaf_to_json(X)
        del data["actions"][f"{i},{k},{c}"]
        path = write_json(tmp_path, "short.json", data)
        code, out, err = run(capsys, ["kan", "--presheaf", path, "--target", arrow_file(tmp_path)])
        assert code == 2 and out == ""
        assert f"missing action table ({i},{k},{c})" in err and "Traceback" not in err


class TestInputPosetBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ["kan", "--target", "{big}"],
            ["enumerate", "--kind", "maps", "--dom", "{big}", "--cod", "{arrow}"],
            ["enumerate", "--kind", "maps", "--dom", "{arrow}", "--cod", "{big}"],
            ["kan", "--presheaf", "{site}", "--target", "{arrow}"],
        ],
    )
    def test_oversized_poset_exits_2_before_its_closure(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        from posetcat import poset

        big = {"size": 3000, "relation": []}
        files = {
            "big": write_json(tmp_path, "big.json", big),
            "arrow": arrow_file(tmp_path),
            "site": write_json(
                tmp_path, "site.json",
                {"site": {"kind": "custom", "objects": [big]}, "cells": [1], "actions": {}},
            ),
        }
        real = poset.validate_poset

        def bounded(relation, size):
            # fail fast: past the closure, a 3000-element site object hangs
            assert size <= poset.JSON_POSET_BOUND, "closure of an oversized poset"
            return real(relation, size)

        monkeypatch.setattr(poset, "validate_poset", bounded)
        code, out, err = run(capsys, [a.format(**files) for a in argv])
        assert code == 2 and out == ""
        assert "bound" in err and "Traceback" not in err


class TestHorn:
    def test_counts(self, capsys):
        code, out, _ = run(
            capsys, ["horn", "--dim", "2", "--faces", "1,2", "--format", "count"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["cells"] == [3, 5, 7] and data["target_cells"] == [3, 6, 10]

    def test_bad_faces_exit_2(self, capsys):
        code, _, err = run(
            capsys, ["horn", "--dim", "2", "--faces", "0,1,2", "--format", "count"]
        )
        assert code == 2 and "error" in err

    def test_negative_truncation_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            ["horn", "--dim", "2", "--faces", "0", "--trunc", "-1", "--format", "count"],
        )
        assert code == 2 and out == ""
        assert "dimension must be >= 0" in err and "Traceback" not in err


class TestEnumerate:
    def test_poset_count(self, capsys):
        code, out, _ = run(
            capsys, ["enumerate", "--kind", "posets", "--size", "3", "--format", "count"]
        )
        assert code == 0 and json.loads(out)["count"] == 5

    def test_poset_count_size_seven(self, capsys):
        code, out, _ = run(
            capsys, ["enumerate", "--kind", "posets", "--size", "7", "--format", "count"]
        )
        assert code == 0 and json.loads(out)["count"] == 2045

    def test_lattice_items_round_trip(self, capsys):
        from posetcat.poset import poset_from_json, is_complete

        code, out, _ = run(
            capsys, ["enumerate", "--kind", "lattices", "--size", "4"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 2
        for item in data["items"]:
            assert is_complete(poset_from_json(item))

    def test_maps_count(self, capsys, tmp_path):
        arrow = arrow_file(tmp_path)
        code, out, _ = run(
            capsys,
            ["enumerate", "--kind", "maps", "--dom", arrow, "--cod", arrow,
             "--format", "count"],
        )
        assert code == 0 and json.loads(out)["count"] == 3

    def test_maps_count_of_wide_antichain(self, capsys, tmp_path):
        wide = write_json(tmp_path, "wide.json", {"size": 40, "relation": []})
        code, out, _ = run(
            capsys,
            ["enumerate", "--kind", "maps", "--dom", wide, "--cod", arrow_file(tmp_path),
             "--format", "count"],
        )
        assert code == 0 and json.loads(out)["count"] == 1 << 40

    def test_maps_listing_past_its_bound_exits_2(self, capsys, tmp_path, monkeypatch):
        arrow = arrow_file(tmp_path)
        argv = ["enumerate", "--kind", "maps", "--dom", arrow, "--cod", arrow]
        monkeypatch.setattr(cli, "MAX_LISTED_MAPS", 3)
        code, out, _ = run(capsys, argv)
        assert code == 0 and len(json.loads(out)["items"]) == 3
        monkeypatch.setattr(cli, "MAX_LISTED_MAPS", 2)
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        wide = write_json(tmp_path, "wide.json", {"size": 17, "relation": []})
        monkeypatch.undo()
        code, out, err = run(capsys, ["enumerate", "--kind", "maps", "--dom", wide, "--cod", arrow])
        assert code == 2 and out == "" and f"exceed the listing bound {1 << 16}" in err

    @pytest.mark.parametrize("fmt", ["json", "count"])
    def test_maps_past_the_count_state_bound_exit_2(self, capsys, tmp_path, fmt):
        # five disjoint arrows into a 16-chain: 16**5 states of five masks
        arrows = {"size": 10, "relation": [[i, 5 + i] for i in range(5)]}
        dom = write_json(tmp_path, "arrows.json", arrows)
        cod = write_json(
            tmp_path, "chain.json", {"size": 16, "relation": [[i, i + 1] for i in range(15)]}
        )
        code, out, err = run(
            capsys,
            ["enumerate", "--kind", "maps", "--dom", dom, "--cod", cod, "--format", fmt],
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "state entries" in err and "Traceback" not in err

    def test_maps_require_endpoints(self, capsys):
        code, _, err = run(capsys, ["enumerate", "--kind", "maps"])
        assert code == 2 and err


class TestRangeChecks:
    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--kind", "posets", "--size", "-1"],
            ["audit-idempotents", "--dim", "-1"],
        ],
    )
    def test_out_of_range_exits_2_without_traceback(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "must be at least" in err and "Traceback" not in err


# sha256 of the bytes a default `posetcat verify-all` writes to stdout
VERIFY_ALL_SHA256 = "692f4f16eec2997b8db85f368ffc52b22da2bc73b1e98c1d0169f194fdd5150a"


class TestVerifyAllFlags:
    def test_default_report_bytes_are_pinned(self, capsys):
        code, out, _ = run(capsys, ["verify-all"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256

    def test_default_report_bytes_are_pinned_under_python_O(self):
        # a fresh interpreter through `python -m posetcat`, with asserts off
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "posetcat", "verify-all"],
            capture_output=True,
            timeout=300,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_ALL_SHA256

    def test_error_inside_a_check_fails_that_check(self, capsys, monkeypatch):
        # a defect that builds a non-monotone map raises ValueError from
        # MonotoneMap: the audit failed, the input was fine
        from posetcat import checks

        def broken():
            raise ValueError("not monotone on 2 <= 3")

        monkeypatch.setattr(checks, "check_contracting_homotopies", broken)
        code, out, err = run(capsys, ["verify-all"])
        assert code == 1 and err == ""
        report = json.loads(out)
        assert len(report["checks"]) == 12
        failed = [c for c in report["checks"] if c["status"] != "pass"]
        assert [(c["name"], c["error"]) for c in failed] == [
            ("contracting-homotopies", "not monotone on 2 <= 3")
        ]

    def test_bad_dim_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify-all", "--max-dim", "99"])
        assert exc.value.code == 2 and "--max-dim: must be in 0..3" in capsys.readouterr().err

    def test_bad_poset_bound_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify-all", "--max-poset", "9"])
        assert exc.value.code == 2 and "--max-poset" in capsys.readouterr().err

    def test_bad_simplex_bound_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify-all", "--max-simplex", "5"])
        assert exc.value.code == 2 and "--max-simplex: must be in 1..4" in capsys.readouterr().err

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_input_file_exits_2(self, capsys):
        code, _, err = run(capsys, ["certify", "--input", "/nonexistent.json"])
        assert code == 2 and "input error" in err


# ---------------------------------------------------------------------------
# fuzzing the exit-code contract in-process: generated argv over generated
# JSON documents must exit 0, 1 or 2 and never show a traceback.

SMALL = st.integers(-2, 6)
JUNK = st.recursive(
    st.none() | st.booleans() | SMALL | st.sampled_from(["", "1", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["size", "relation", "site", "cells", "actions", "kind", "dim"]),
        inner,
        max_size=3,
    ),
    max_leaves=8,
)


@st.composite
def poset_documents(draw):
    # at most 6 elements: `enumerate --kind maps` counts within
    # catalog.COUNT_STATE_BOUND and lists at most cli.MAX_LISTED_MAPS maps,
    # but a listing near that bound would still cost seconds per example
    from posetcat import catalog
    from posetcat.poset import poset_to_json

    kind = draw(st.sampled_from(["valid", "raw", "junk"]))
    if kind == "valid":
        size = draw(st.integers(0, 4))
        reps = catalog.enumerate_posets(size)
        return poset_to_json(reps[draw(st.integers(0, len(reps) - 1))].poset)
    if kind == "raw":
        pairs = st.lists(st.integers(-1, 6), max_size=3)
        return {"size": draw(st.integers(-1, 6)), "relation": draw(st.lists(pairs, max_size=8))}
    return draw(JUNK)


@st.composite
def presheaf_documents(draw):
    from posetcat import presheaf as ps
    from posetcat.poset import chain

    if draw(st.booleans()):
        return draw(JUNK)
    y0 = ps.representable(ps.delta_site(1), chain(0))
    bases = [
        ps.representable(ps.delta_site(1), chain(1)),
        ps.representable(ps.delta_site(2), chain(1)),
        coproduct(y0, y0),
        ps.representable(ps.PosetSite([chain(0), chain(1)]), chain(1)),
    ]
    data = ps.presheaf_to_json(draw(st.sampled_from(bases)))
    actions = data["actions"]
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from(["add", "drop", "set", "cells"]))
        keys = sorted(actions)
        if op == "add":
            key = ",".join(str(draw(st.integers(0, 9))) for _ in range(3))
            actions[key] = draw(st.lists(SMALL, max_size=3))
        elif op == "drop" and keys:
            del actions[draw(st.sampled_from(keys))]
        elif op == "set" and keys:
            tab = actions[draw(st.sampled_from(keys))]
            if tab:
                tab[draw(st.integers(0, len(tab) - 1))] = draw(SMALL)
        elif op == "cells" and data["cells"]:
            data["cells"][draw(st.integers(0, len(data["cells"]) - 1))] = draw(SMALL)
    return data


def option(flag, values):
    return st.one_of(st.just([]), given_option(flag, values))


def given_option(flag, values):
    return st.sampled_from(values).map(lambda v: [flag, str(v)])


def switch(flag):
    return st.sampled_from([[], [flag]])


FILES = ["{dom}", "{cod}", "{presheaf}", "{missing}"]
COMMANDS = {
    # enumerating the 7-element posets costs about 12 s, so --size skips 7
    "enumerate": [
        given_option("--kind", ["posets", "lattices", "maps", "sets"]),
        option("--size", [-1, 0, 1, 2, 3, 4, 5, 6, 8, "x"]),
        option("--dom", FILES),
        option("--cod", FILES),
        option("--format", ["json", "count", "csv"]),
    ],
    # the dimension-4 audit costs over 1 s per example, so --dim skips 4
    "audit-idempotents": [
        given_option("--dim", [-1, 0, 1, 2, 3, 5, "x"]),
        switch("--timings"),
    ],
    "certify": [option("--input", FILES + ["-"])],
    "triangulate": [
        given_option("--cube-dim", [-1, 0, 1, 2, 3, 4, 9, "x"]),
        given_option("--trunc", [-1, 0, 1, 2, 3, 4, 9]),
        option("--format", ["json", "count", "human", "csv"]),
    ],
    "kan": [
        option("--simplex", [-1, 0, 1, 2, 3, 4, 5, 6]),
        option("--presheaf", FILES),
        given_option("--target", FILES + ["-"]),
        option("--trunc", [-1, 0, 1, 2, 3, 4, 5, 7]),
    ],
    "horn": [
        given_option("--dim", [-1, 0, 1, 2, 3, 4, 5]),
        given_option("--faces", ["", "0", "0,1", "1,2,3", "0,9", "-1", "x"]),
        option("--trunc", [-1, 0, 2, 4, 5, 6]),
        option("--format", ["json", "count", "csv"]),
    ],
    # the default --max-* bounds run the full 2 s suite, so all three are given
    "verify-all": [
        given_option("--max-poset", [0, 1, 2, 9]),
        given_option("--max-dim", [-1, 0, 1, 9]),
        given_option("--max-simplex", [0, 1, 2, 9]),
        option("--seed", [-1, 3]),
        option("--format", ["json", "human", "csv"]),
        switch("--timings"),
        switch("--deep"),
    ],
}
# mostly nothing, sometimes a stray token after the options
TRAILING = st.sampled_from([[], [], [], [], ["--help"], ["-x"], ["1"], [""]])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS) * 4 + ["bogus"]))
    argv = [command]
    for part in COMMANDS.get(command, []):
        argv += draw(part)
    return argv + draw(TRAILING)


class TestFuzz:
    @given(
        argv=argvs(),
        dom=poset_documents(),
        cod=poset_documents(),
        presheaf=presheaf_documents(),
        stdin=poset_documents(),
    )
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    def test_exit_code_contract(self, argv, dom, cod, presheaf, stdin):
        with tempfile.TemporaryDirectory() as tmp:
            files = {"missing": str(Path(tmp) / "missing.json")}
            for name, doc in (("dom", dom), ("cod", cod), ("presheaf", presheaf)):
                files[name] = str(Path(tmp) / f"{name}.json")
                Path(files[name]).write_text(json.dumps(doc))
            argv = [a.format(**files) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            saved_stdin = sys.stdin
            sys.stdin = io.StringIO(json.dumps(stdin))
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
            finally:
                sys.stdin = saved_stdin
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
