"""Self-tests of the benchmark. Run from the checkout root:

    python3 -m pytest perfbench/tests -q
"""

import argparse
import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import outcheck  # noqa: E402
import run  # noqa: E402
from kernelcg import ExperimentConfig, cli  # noqa: E402

SMALL = "configs/inner_small.json"
DEFINITION = run.load_definition()


def result_of(capsys, subcommand, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    args = argparse.Namespace(workload="smoke", seed=3, seconds=0.2, trace=trace)
    rc = run.run_workload("smoke", run.Workload(subcommand, SMALL), args, DEFINITION)
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    return json.loads(lines[-1]), lines


@pytest.mark.parametrize("subcommand", ["rates", "compare", "holdout"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(capsys, tmp_path, monkeypatch, subcommand, trace):
    result, lines = result_of(capsys, subcommand, trace, tmp_path, monkeypatch)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 15
    expected = DEFINITION["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float))
        assert f"metric {m['name']} {metric['value']!r} {m['unit']}" in lines
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def rewrite(path, rows):
    with open(path) as handle:
        comment = handle.readline()
    with open(path, "w", newline="") as handle:
        handle.write(comment)
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


COLUMNS = {"rates": ("error", "m_hat"), "holdout": ("error", "m_hat"), "compare": ("cg_error", "cg_m_hat")}


@pytest.mark.parametrize("kind", sorted(COLUMNS))
@pytest.mark.parametrize("corruption", ["error", "m_hat"])
def test_check_rejects_a_corrupted_row(tmp_path, kind, corruption):
    out = str(tmp_path / "out")
    assert cli.main([kind, "--config", os.path.join(ROOT, SMALL), "--out", out, "--seed", "5", "--quiet"]) == 0
    with open(os.path.join(ROOT, SMALL)) as handle:
        cfg = dataclasses.replace(ExperimentConfig.from_dict(json.load(handle)), master_seed=5)
    clean = outcheck.check_outputs(kind, cfg, out, seed=5)
    assert clean.mismatches == () and clean.failed == 0 and len(clean.checked) == outcheck.N_CHECKS

    path = os.path.join(out, outcheck.CSV_NAMES[kind])
    rows = outcheck.read_rows(path)
    n, rep = clean.checked[0]
    error_col, m_col = COLUMNS[kind]
    for row in rows:
        if (int(row["n"]), int(row["rep"])) == (n, rep):
            if corruption == "error":
                row[error_col] = repr(float(row[error_col]) * 1.01)
            else:
                row[m_col] = str(int(row[m_col]) + 1)
    rewrite(path, rows)
    bad = outcheck.check_outputs(kind, cfg, out, seed=5)
    assert len(bad.mismatches) == 1
    assert bad.mismatches[0].startswith(f"n={n} rep={rep}:")


def test_missing_replicates_count_as_failed(tmp_path):
    out = str(tmp_path / "out")
    assert cli.main(["compare", "--config", os.path.join(ROOT, SMALL), "--out", out, "--quiet"]) == 0
    with open(os.path.join(ROOT, SMALL)) as handle:
        cfg = ExperimentConfig.from_dict(json.load(handle))
    path = os.path.join(out, "compare.csv")
    rewrite(path, outcheck.read_rows(path)[:-2])
    assert outcheck.check_outputs("compare", cfg, out, seed=1).failed == 2


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    workload = DEFINITION["workloads"][0]["name"]
    cmd = [sys.executable, *DEFINITION["command"][1:], "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_definition_matches_workloads_and_layer_table():
    names = [w["name"] for w in DEFINITION["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS)
    with open(os.path.join(BENCH, "layers.json")) as handle:
        layers = json.load(handle)
    assert list(layers) == [m["name"] for m in DEFINITION["per_layer"]]
    end_to_end = {m["name"] for m in DEFINITION["end_to_end"]}
    for entry in layers.values():
        assert set(entry["moves"]) <= end_to_end
        assert set(entry["on"]) <= set(names)


@pytest.mark.parametrize("reduced, shipped", [
    ("perfbench/configs/outer_r025_s05.reduced.json", "configs/outer_r025_s05.json"),
    ("perfbench/configs/inner_r1_s05.reduced.json", "configs/inner_r1_s05.json"),
])
def test_reduced_configs_differ_from_shipped_only_in_replicates(reduced, shipped):
    with open(os.path.join(ROOT, reduced)) as a, open(os.path.join(ROOT, shipped)) as b:
        small, full = json.load(a), json.load(b)
    assert small["replicates"] < full["replicates"]
    assert {**small, "replicates": full["replicates"]} == full
