"""Command line interface: exit codes, artifact bytes, and report formats.

main() is driven in-process with argv lists.  Exit codes carry the planner
status outward: 0 ok, 1 error (I/O, parse, usage, failed verification),
2 infeasible, 3 unsupported, 4 external result required, 5 ingredient
unavailable within limits.
"""

import json

from hwp4m.cli import main
from hwp4m.model import decode_solution
from hwp4m.search import clear_memo
from hwp4m.verifier import verify_solution

# ============================================================
# build
# ============================================================


def test_build_writes_a_verified_solution(tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = main(
        ["build", "--v", "12", "--m", "3", "--r", "3", "--s", "2", "--out", str(out)]
    )
    assert code == 0
    sol = decode_solution(out.read_bytes())
    assert (sol.v, sol.r, sol.s) == (12, 3, 2)
    assert verify_solution(sol).ok
    assert "via odd_r_odd_t" in capsys.readouterr().err


def test_build_to_stdout(capsys):
    code = main(["build", "--v", "12", "--m", "3", "--r", "3", "--s", "2", "--out", "-"])
    assert code == 0
    captured = capsys.readouterr()
    sol = decode_solution(captured.out.encode())
    assert verify_solution(sol).ok


def test_build_is_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert (
            main(["build", "--v", "12", "--m", "3", "--r", "2", "--s", "3", "--out", str(out)])
            == 0
        )
    assert a.read_bytes() == b.read_bytes()


def test_build_exit_codes_follow_the_planner(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["build", "--v", "16", "--m", "3", "--r", "1", "--s", "6", "--out", out]) == 2
    assert main(["build", "--v", "24", "--m", "3", "--r", "2", "--s", "9", "--out", out]) == 3
    assert main(["build", "--v", "12", "--m", "3", "--r", "4", "--s", "1", "--out", out]) == 4


def test_build_reports_unavailable_ingredients(tmp_path):
    clear_memo()
    out = str(tmp_path / "x.json")
    code = main(
        [
            "build", "--v", "36", "--m", "3", "--r", "1", "--s", "16",
            "--time-limit", "0", "--cache", str(tmp_path / "cache"), "--out", out,
        ]
    )
    assert code == 5


def test_build_accepts_an_ingredient_file_where_search_cannot_go(tmp_path):
    # export the 9-point triangle system, then rebuild with search disabled:
    # only the imported file can make the build succeed
    kts = tmp_path / "kts9.json"
    assert (
        main(
            ["ingredient", "--type", "kts9", "--cache", str(tmp_path / "c1"),
             "--out", str(kts)]
        )
        == 0
    )
    clear_memo()
    out = tmp_path / "sol.json"
    code = main(
        [
            "build", "--v", "36", "--m", "3", "--r", "1", "--s", "16",
            "--ingredient", str(kts), "--time-limit", "0",
            "--cache", str(tmp_path / "c2"), "--out", str(out),
        ]
    )
    assert code == 0
    assert verify_solution(decode_solution(out.read_bytes())).ok


# ============================================================
# verify
# ============================================================


def test_verify_accepts_solution_files(tmp_path, capsys):
    out = tmp_path / "sol.json"
    main(["build", "--v", "12", "--m", "3", "--r", "3", "--s", "2", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 0
    assert "ok (r=3, s=2)" in capsys.readouterr().out


def test_verify_rejects_tampered_files(tmp_path, capsys):
    out = tmp_path / "sol.json"
    main(["build", "--v", "12", "--m", "3", "--r", "3", "--s", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["factors"][0]["cycles"] = doc["factors"][0]["cycles"][1:]
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--in", str(out)]) == 1


def test_verify_json_report_shape(tmp_path, capsys):
    out = tmp_path / "block.json"
    main(["block", "--m", "5", "--kind", "mixed", "--out", str(out)])
    capsys.readouterr()
    assert main(["verify", "--in", str(out), "--report", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert report["violations"] == []
    assert (report["r_found"], report["s_found"]) == (2, 2)


def test_verify_dispatches_blocks_by_factor_count(tmp_path):
    # 4 factors on 20 vertices is a block of C_5[4], not a solution
    out = tmp_path / "block.json"
    main(["block", "--m", "5", "--kind", "c4", "--out", str(out)])
    assert main(["verify", "--in", str(out)]) == 0
    out2 = tmp_path / "switch.json"
    main(["block", "--m", "5", "--kind", "switch", "--out", str(out2)])
    assert main(["verify", "--in", str(out2)]) == 0


def test_verify_missing_or_malformed_file_is_an_error(tmp_path, capsys):
    assert main(["verify", "--in", str(tmp_path / "nope.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["verify", "--in", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


# ============================================================
# feasible
# ============================================================


def test_feasible_reports_and_exits_by_route(capsys):
    assert main(["feasible", "--v", "28", "--m", "7", "--r", "5", "--s", "8"]) == 0
    assert "route=odd_r_odd_t" in capsys.readouterr().out
    assert main(["feasible", "--v", "16", "--m", "3", "--r", "1", "--s", "6"]) == 2
    assert "m ∤ v" in capsys.readouterr().out
    assert main(["feasible", "--v", "24", "--m", "3", "--r", "2", "--s", "9"]) == 3
    assert main(["feasible", "--v", "12", "--m", "3", "--r", "0", "--s", "5"]) == 4


# ============================================================
# block and ingredient
# ============================================================


def test_block_kinds_emit_verifiable_documents(tmp_path):
    for kind in ("c4", "cm", "mixed", "switch"):
        out = tmp_path / f"{kind}.json"
        assert main(["block", "--m", "3", "--kind", kind, "--out", str(out)]) == 0
        assert main(["verify", "--in", str(out)]) == 0


def test_block_rejects_bad_shapes(capsys):
    assert main(["block", "--m", "4", "--kind", "switch", "--out", "-"]) == 1
    assert "error:" in capsys.readouterr().err


def test_ingredient_equipartite_export(tmp_path):
    out = tmp_path / "equi.json"
    code = main(
        [
            "ingredient", "--type", "equipartite", "--params", "4", "3", "3",
            "--cache", str(tmp_path / "c"), "--out", str(out),
        ]
    )
    assert code == 0
    sol = decode_solution(out.read_bytes())
    assert sol.v == 12 and len(sol.factors) == 4


def test_ingredient_timeout_exit(tmp_path):
    clear_memo()
    code = main(
        [
            "ingredient", "--type", "kts9", "--time-limit", "0",
            "--cache", str(tmp_path / "c"), "--out", str(tmp_path / "x.json"),
        ]
    )
    assert code == 5


def test_ingredient_bad_params_is_an_error(tmp_path, capsys):
    code = main(
        [
            "ingredient", "--type", "equipartite", "--params", "3", "4", "3",
            "--cache", str(tmp_path / "c"), "--out", "-",
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ============================================================
# usage
# ============================================================


def test_usage_errors_exit_one(capsys):
    assert main(["build", "--v", "12"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["ingredient", "--type", "hwp12", "--out", "-"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
