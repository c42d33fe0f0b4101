"""Tests of the benchmark itself: the BENCHMARK.json schema, the output
schema, a short pass of every workload, a traced run, and the refusal to run
without the package sources.  Run from the repository root with

    python3 -m pytest perfbench -q

A full pass of every workload takes about two minutes on two cores.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark's own module, found through HERE)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, *args):
    env = dict(os.environ, HOME=str(tmp_path / "home"))
    (tmp_path / "home").mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert not (tmp_path / "home" / ".cache").exists()
    return proc


def _results(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, record_line, final_line = proc.stdout.splitlines()
    return json.loads(record_line), json.loads(final_line)


def test_benchmark_json_matches_the_metrics_the_run_reports():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"])
        assert metric["unit"] == run.unit_of(metric["name"])
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_short_pass_of_each_workload(tmp_path, workload):
    out = tmp_path / "record.json"
    proc = _run(tmp_path, "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", "0", "--out", str(out))
    record, final = _results(proc)
    assert json.loads(out.read_text()) == record
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    assert list(final["metrics"]) == list(run.END_TO_END)
    for name, metric in final["metrics"].items():
        assert metric["unit"] == run.unit_of(name) and metric["value"] > 0
    for metric in record["metrics"]:
        assert set(metric) == {"workload", "scope", "name", "value", "unit"}
        assert metric["workload"] == workload and NAME.match(metric["name"]) and metric["unit"]
    assert len(set(record["pass_digests"])) == 1
    env = record["environment"]
    assert env["seed"] == 7 and env["nproc"] >= 1 and env["repo.src_lines"] > 0
    assert env["python"] and env["cpu_model"]


def test_traced_search_cold_reports_layers_and_repeats_node_counts(tmp_path):
    proc = _run(tmp_path, "--workload", "search_cold", "--seed", "3", "--seconds", "0",
                "--trace", "1")
    record, final = _results(proc)
    assert final["correct"] is True
    assert list(final["metrics"]) == list(run.PER_LAYER)
    searches = record["search_nodes"][0]
    assert searches["cmfact-n14-m7"] == [["found", 4675883]]
    assert searches["blowup-split-m3"][0][0] == "unsat"
    layers = {m["name"]: m["value"] for m in record["metrics"] if m["scope"] == "per_layer"}
    assert layers["search.nodes"] == sum(n for runs in searches.values() for _, n in runs)
    assert layers["cache.hits"] == 5 and layers["cache.files"] == 5
    assert record["trace_targets_missing"] == []


def test_refuses_a_tree_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
