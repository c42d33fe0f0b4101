"""Command line interface: exit codes, artifact bytes, and report formats.

main() is driven in-process with argv lists.  Exit codes carry the planner
status outward: 0 ok, 1 error (I/O, parse, usage, failed verification),
2 infeasible, 3 unsupported, 4 external result required, 5 ingredient
unavailable within limits, 6 out of memory.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import hwp4m
from hwp4m import blocks, cli
from hwp4m.blocks import cm_block
from hwp4m.cli import main
from hwp4m.composer import plan
from hwp4m.model import decode_solution
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


def test_build_exit_codes_follow_the_planner(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    for request, code in (((16, 3, 1, 6), 2), ((24, 3, 2, 9), 3), ((12, 3, 4, 1), 4)):
        v, m, r, s = (str(n) for n in request)
        assert main(["build", "--v", v, "--m", m, "--r", r, "--s", s, "--out", out]) == code
        p = plan(*request)
        assert capsys.readouterr().err == f"{p.route}: {p.note}\n"


def test_build_reports_unavailable_ingredients(tmp_path):
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


def test_build_proves_an_ingredient_file_once(tmp_path, certify_calls):
    kts = tmp_path / "kts9.json"
    argv = ["ingredient", "--type", "kts9", "--cache", str(tmp_path / "c1"), "--out", str(kts)]
    assert main(argv) == 0
    certify_calls.clear()  # count the build's proofs only
    code = main(
        [
            "build", "--v", "36", "--m", "3", "--r", "1", "--s", "16",
            "--ingredient", str(kts), "--time-limit", "0",
            "--cache", str(tmp_path / "c2"), "--out", str(tmp_path / "sol.json"),
        ]
    )
    assert code == 0
    assert len(certify_calls) == 1


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
    # the decode error's code is printed once
    assert err.count("MalformedDocument") == 1
    # every failure of json.loads is one error line: deep nesting, an int
    # past Python's digit limit, and bytes that are no UTF-8/16/32 text
    for text in (
        b"[" * 100000 + b"]" * 100000,
        b'{"v":' + b"9" * 5000 + b',"factors":[]}',
        b"\xff\xfe{",
        b"\x80abc",
    ):
        bad.write_bytes(text)
        assert main(["verify", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: MalformedDocument: ") and err.count("\n") == 1, err[:200]
        assert "Traceback" not in err


def test_verify_out_of_memory_exits_six_without_a_traceback(tmp_path, capsys, monkeypatch):
    """A crash must not read as a rejection: a rejection exits 1, running
    out of memory exits 6 with one error line and no report."""
    out = tmp_path / "sol.json"
    main(["build", "--v", "12", "--m", "3", "--r", "3", "--s", "2", "--out", str(out)])
    capsys.readouterr()

    def exhausted(sol):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_solution", exhausted)
    assert main(["verify", "--in", str(out), "--report", "json"]) == cli.EXIT_MEMORY == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


# ============================================================
# feasible
# ============================================================


def test_feasible_reports_and_exits_by_route(capsys):
    assert main(["feasible", "--v", "28", "--m", "7", "--r", "5", "--s", "8"]) == 0
    assert "route=odd_r_odd_t" in capsys.readouterr().out
    assert main(["feasible", "--v", "16", "--m", "3", "--r", "1", "--s", "6"]) == 2
    assert "m ∤ v" in capsys.readouterr().out
    assert main(["feasible", "--v", "24", "--m", "3", "--r", "-1", "--s", "12"]) == 2
    assert "r and s must be nonnegative" in capsys.readouterr().out
    assert main(["feasible", "--v", "24", "--m", "3", "--r", "2", "--s", "9"]) == 3
    assert main(["feasible", "--v", "12", "--m", "3", "--r", "0", "--s", "5"]) == 4
    capsys.readouterr()
    # routes with no recipe report their t alone
    for (v, m, r, s), route in (("36 3 17 0".split(), "all_c4"), ("24 3 4 7".split(), "k24_table")):
        assert main(["feasible", "--v", v, "--m", m, "--r", r, "--s", s]) == 0
        out = capsys.readouterr().out
        assert f"route={route} t=" in out and "recipe" not in out


def test_inner_blowup_is_feasible_builds_and_verifies(tmp_path, capsys):
    request = ["--v", "96", "--m", "3", "--r", "19", "--s", "28"]
    assert main(["feasible", *request]) == 0
    assert "route=inner_blowup" in capsys.readouterr().out
    out = tmp_path / "sol.json"
    assert main(["build", *request, "--cache", str(tmp_path / "c"), "--out", str(out)]) == 0
    assert "via inner_blowup" in capsys.readouterr().err
    assert main(["verify", "--in", str(out)]) == 0
    assert "ok (r=19, s=28)" in capsys.readouterr().out


# ============================================================
# block and ingredient
# ============================================================


def test_block_kinds_emit_verifiable_documents(tmp_path):
    for kind in ("c4", "cm", "mixed", "switch"):
        out = tmp_path / f"{kind}.json"
        assert main(["block", "--m", "3", "--kind", kind, "--out", str(out)]) == 0
        assert main(["verify", "--in", str(out)]) == 0


def test_block_rejects_bad_shapes(tmp_path, capsys):
    assert main(["block", "--m", "4", "--kind", "switch", "--out", "-"]) == 1
    assert "error:" in capsys.readouterr().err
    for kind, message in (
        ("c4", "walk needs m >= 3"), ("cm", "block needs m >= 3"), ("mixed", "block needs m >= 3"),
    ):
        assert main(["block", "--m", "2", "--kind", kind, "--out", "-"]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    out = tmp_path / "missing" / "c4.json"
    assert main(["block", "--m", "3", "--kind", "c4", "--out", str(out)]) == 1
    assert f"error: cannot write {out}" in capsys.readouterr().err


def test_block_writes_only_what_verify_block_accepts(tmp_path, capsys, monkeypatch):
    def short_cm(m):  # a Cm block with its last factor dropped
        sol = cm_block(m)
        return replace(sol, factors=sol.factors[:-1])

    monkeypatch.setitem(blocks.BLOCK_BUILDERS, "cm", short_cm)
    out = tmp_path / "cm.json"
    assert main(["block", "--m", "5", "--kind", "cm", "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: cm block at m = 5 failed verification: CountMismatch: ")


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
    code = main(
        [
            "ingredient", "--type", "kts9", "--time-limit", "0",
            "--cache", str(tmp_path / "c"), "--out", str(tmp_path / "x.json"),
        ]
    )
    assert code == 5


def test_ingredient_bad_params_is_an_error(tmp_path, capsys):
    # odd degree, then one part, empty parts, negative part sizes, and a
    # cycle length that does not divide the vertex count, with and without
    # an expired time limit: a malformed shape is an error under any limit
    for params in (
        ["3", "4", "3"], ["4", "1", "3"], ["0", "3", "3"], ["-1", "3", "3"], ["4", "3", "5"]
    ):
        for limit in ([], ["--time-limit", "0"]):
            code = main(
                [
                    "ingredient", "--type", "equipartite", "--params", *params,
                    "--cache", str(tmp_path / "c"), "--out", "-", *limit,
                ]
            )
            assert code == 1
            assert "error:" in capsys.readouterr().err
    # a value count that does not fit the type
    for args in (["kts9", "--params", "1"], ["equipartite", "--params", "4", "3"]):
        assert main(["ingredient", "--type", *args, "--cache", str(tmp_path / "c"), "--out", "-"]) == 1
        assert "error: --params" in capsys.readouterr().err


def test_a_nan_time_limit_is_an_error_that_writes_nothing(tmp_path, capsys):
    # float() reads "nan", a deadline no clock passes; the outer of (12, 3)
    # is builtin and kts9 takes 45 nodes, so neither call could hang
    for argv in (["build", "--v", "12", "--m", "3", "--r", "3", "--s", "2"], ["ingredient", "--type", "kts9"]):
        out, cache_dir = tmp_path / "out.json", tmp_path / "cache"
        assert main([*argv, "--time-limit", "nan", "--cache", str(cache_dir), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --time-limit")
        assert not out.exists() and not cache_dir.exists()
    # a negative limit has expired, as 0 has, and inf is no limit
    for limit, code in (("-1", 5), ("inf", 0)):
        cache_dir = str(tmp_path / f"cache{limit}")
        assert main(["ingredient", "--type", "kts9", "--time-limit", limit, "--cache", cache_dir, "--out", "-"]) == code
    capsys.readouterr()


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


def _alone(argv):
    """The exit code and standard output of ``hwp4m argv`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(hwp4m.__file__).parent.parent)}
    done = subprocess.run(
        [sys.executable, "-m", "hwp4m.cli", *argv], capture_output=True, env=env, timeout=120, check=False,
    )
    return done.returncode, done.stdout.decode()


def test_commands_run_in_one_process_as_each_runs_alone(tmp_path, capsys):
    """main builds its parser once per process: a usage error, a verify of
    a built document and a block, run in turn through main and then again,
    each give the exit code and output they give in a fresh interpreter, so
    the reused parser carries nothing from one call to the next."""
    out = tmp_path / "sol.json"
    assert main(["build", "--v", "12", "--m", "3", "--r", "3", "--s", "2", "--out", str(out)]) == 0
    runs = (
        ["build", "--v", "12"],
        ["verify", "--in", str(out), "--report", "json"],
        ["block", "--m", "5", "--kind", "mixed"],
    )
    alone = [_alone(argv) for argv in runs]
    assert [code for code, _ in alone] == [1, 0, 0]
    capsys.readouterr()
    for argv, want in [*zip(runs, alone)] * 2:
        code = main(argv)
        assert (code, capsys.readouterr().out) == want, argv
