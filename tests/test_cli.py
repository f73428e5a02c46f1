"""The `bench` command line: its documented exit codes."""

from __future__ import annotations

import csv
import json

import pytest

from aostore import cli
from aostore.bench import BenchmarkConfig, verify_report_metrics
from aostore.cli import main

TINY = ["--app", "histogram", "--objects", "big", "--dataset", "desk", "--seed", "3"]


def test_run_writes_a_verified_report(tmp_path):
    out = tmp_path / "r.json"
    assert main(["run", *TINY, "--arena", str(tmp_path / "arenas"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["status"] == "ok"
    verify_report_metrics(report)


def test_invalid_config_exits_2_before_any_work(tmp_path, capsys):
    arenas = tmp_path / "arenas"
    argv = ["run", "--app", "matadd", "--result", "inplace_fma", "--arena", str(arenas)]
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not arenas.exists()


def test_arena_path_that_is_a_file_exits_1(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    assert main(["run", *TINY, "--arena", str(blocker), "--out", str(tmp_path / "r.json")]) == 1
    assert "runtime failure" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_sweep_with_a_failing_row_exits_1(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "base": {"app": "histogram", "objects": "big", "dataset": "desk", "seed": 3},
        "runs": [{"arena_path": str(tmp_path / "arenas")}, {"arena_path": str(blocker)}],
    }))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 1
    with out.open() as fh:
        assert [row["status"] for row in csv.DictReader(fh)] == ["ok", "error"]


def test_sweep_records_an_invalid_row_and_runs_the_rest(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "base": {"objects": "big", "dataset": "desk", "seed": 3,
                 "arena_path": str(tmp_path / "arenas")},
        "runs": [{"app": "histogram"}, {"app": "matadd", "result": "inplace_fma"}],
    }))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 1
    with out.open() as fh:
        assert [row["status"] for row in csv.DictReader(fh)] == ["ok", "error"]


@pytest.mark.parametrize("entry", [
    pytest.param({"seed": "7"}, id="seed-str"),
    pytest.param({"seed": 7.5}, id="seed-float"),
    pytest.param({"tier": "mm", "mm_cache_bytes": "big"}, id="mm-cache-str"),
    pytest.param({"tier": "mm", "mm_cache_bytes": True}, id="mm-cache-bool"),
    pytest.param({"dram_capacity_bytes": "1e9"}, id="dram-capacity-str"),
])
def test_sweep_records_a_mistyped_row_and_runs_the_rest(tmp_path, entry):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "base": {"app": "histogram", "objects": "big", "dataset": "desk", "seed": 3,
                 "arena_path": str(tmp_path / "arenas")},
        "runs": [entry, {}],
    }))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 1
    with out.open() as fh:
        assert [row["status"] for row in csv.DictReader(fh)] == ["error", "ok"]


@pytest.mark.parametrize("text", [
    pytest.param(json.dumps([{"app": "histogram", "no_such_field": 1}]), id="unknown-field"),
    pytest.param("[{", id="not-json"),
    pytest.param(json.dumps([1, 2]), id="entry-not-object"),
    pytest.param(json.dumps({"base": [], "runs": [{"app": "histogram"}]}), id="base-not-object"),
])
def test_malformed_plan_exits_2(tmp_path, capsys, text):
    plan = tmp_path / "plan.json"
    plan.write_text(text)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--plan", str(plan), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_run_csv_without_out_prints_header_and_one_row(tmp_path, capsys):
    argv = ["run", *TINY, "--arena", str(tmp_path / "arenas"), "--format", "csv"]
    assert main(argv) == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert [row["status"] for row in rows] == ["ok"]


def test_unset_run_options_take_the_config_defaults(monkeypatch):
    seen = []

    def fake_run(config):
        seen.append(config)
        raise cli.ConfigError("stop here")

    monkeypatch.setattr(cli, "run_benchmark", fake_run)
    assert main(["run", "--app", "histogram"]) == 2
    assert seen == [BenchmarkConfig(app="histogram")]
