from __future__ import annotations

import copy
import csv
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import aostore
from aostore import bench
from aostore.bench import (
    BenchmarkConfig,
    CSV_COLUMNS,
    ConfigError,
    CostModel,
    compute_metrics,
    emit_report,
    load_plan,
    modeled_time_ns,
    parse_fraction,
    profile_sizes,
    run_benchmark,
    sweep,
    verify_report_metrics,
)
from aostore.errors import InvalidRequestError
from aostore.model import ObjectIdFactory
from aostore.tiers import ArenaConfig, TierKind, open_tier

SRC = Path(aostore.__file__).resolve().parents[1]
REPO = SRC.parent


def desk(app, **kw):
    base = dict(app=app, dataset="desk", objects="small", seed=7)
    base.update(kw)
    return BenchmarkConfig(**base)


class TestValidation:
    def test_inplace_fma_only_for_matmul(self, tmp_path):
        with pytest.raises(ConfigError, match="matmul"):
            desk("matadd", result="inplace_fma", arena_path=str(tmp_path)).validate()

    def test_inplace_fma_active_only(self, tmp_path):
        with pytest.raises(ConfigError, match="active"):
            desk("matmul", mode="passive", result="inplace_fma",
                 arena_path=str(tmp_path)).validate()

    def test_stored_results_only_for_matrix_apps(self, tmp_path):
        with pytest.raises(ConfigError, match="matrix"):
            desk("histogram", result="volatile", arena_path=str(tmp_path)).validate()
        with pytest.raises(ConfigError, match="matrix"):
            desk("kmeans", result="store", arena_path=str(tmp_path)).validate()

    def test_dram_tier_requires_fitting_dataset(self, tmp_path):
        cfg = desk("histogram", dataset="big", tier="dram", arena_path=str(tmp_path))
        with pytest.raises(ConfigError, match="DRAM capacity"):
            cfg.validate()
        # the same dataset is fine on the arena-backed tiers
        desk("histogram", dataset="big", tier="nvm", arena_path=str(tmp_path)).validate()

    def test_value_result_bounded_by_return_limit(self, tmp_path):
        # small dataset + big objects => 672x672 blocks, too big to return by value
        cfg = desk("matadd", dataset="small", objects="big", result="value",
                   arena_path=str(tmp_path))
        with pytest.raises(ConfigError, match="return-by-value"):
            cfg.validate()

    def test_enum_membership_checked(self, tmp_path):
        with pytest.raises(ConfigError, match="app"):
            BenchmarkConfig(app="sort").validate()
        with pytest.raises(ConfigError, match="tier"):
            BenchmarkConfig(app="histogram", tier="ssd").validate()

    def test_grid_preserved_across_scales(self):
        for dataset in ("desk", "small", "big"):
            for objects, grid in (("big", 6), ("small", 42)):
                sizes = profile_sizes(BenchmarkConfig(
                    app="matmul", dataset=dataset, objects=objects))
                assert sizes["matrix"].grid == grid


class TestMetrics:
    def test_paper_histogram_ratio_example(self):
        # 7650 ms over 1000 MB -> 7.65 ms/MB
        m = compute_metrics(
            total_ns=7_650_000_000,
            dataset_bytes=1_000_000_000,
            method_total_ns=1,
            method_input_bytes=1,
            output_bytes=1,
        )
        assert m["computation_to_data_ratio_ms_per_mb"] == Fraction(765, 100)
        assert float(m["computation_to_data_ratio_ms_per_mb"]) == 7.65

    def test_matadd_output_ratio_is_half(self):
        m = compute_metrics(total_ns=1, dataset_bytes=200, method_total_ns=1,
                            method_input_bytes=200, output_bytes=100)
        assert m["output_size_ratio"] == Fraction(1, 2)

    def test_reuse_factor_exact_ten(self):
        m = compute_metrics(total_ns=1, dataset_bytes=64, method_total_ns=1,
                            method_input_bytes=640, output_bytes=1)
        assert m["reuse_factor"] == 10 and float(m["reuse_factor"]) == 10.0

    def test_zero_denominator_rejected(self):
        with pytest.raises(ConfigError):
            compute_metrics(total_ns=1, dataset_bytes=0, method_total_ns=1,
                            method_input_bytes=1, output_bytes=1)


class TestModeledTime:
    def test_linear_in_counters(self, tmp_path):
        cost = CostModel(
            dram_read_ns_per_byte=Fraction(1, 50),
            nvm_read_ns_per_byte=Fraction(3, 100),
            nvm_write_ns_per_byte=Fraction(1, 10),
            per_op_latency_ns=Fraction(500),
        )
        tier = open_tier(
            TierKind.NVM_DIRECT,
            ArenaConfig(path=tmp_path / "m.arena", capacity_bytes=1 << 16),
        )
        key = ObjectIdFactory(seed=99).new_object_id()
        tier.store(key, bytes(1000))
        tier.read_view(key)
        tier.read_view(key)
        c = tier.media_counters()["nvm"]
        expected = (
            c.bytes_read * Fraction(3, 100)
            + c.bytes_written * Fraction(1, 10)
            + (c.read_ops + c.write_ops) * Fraction(500)
        )
        assert modeled_time_ns(c, "nvm", cost) == expected
        tier.close()

    def test_default_ordering_nvm_write_costliest(self):
        cost = CostModel()
        assert cost.nvm_write_ns_per_byte >= cost.nvm_read_ns_per_byte >= cost.dram_read_ns_per_byte


def tiny_config(tmp_path, **kw):
    """A fast, sub-second configuration for harness tests."""
    base = dict(app="matadd", mode="active", tier="nvm", objects="small",
                dataset="desk", result="volatile", seed=3,
                arena_path=str(tmp_path / "arenas"))
    base.update(kw)
    return BenchmarkConfig(**base)


class TestRunBenchmark:
    def test_report_fields_and_recomputation(self, tmp_path):
        report = run_benchmark(tiny_config(tmp_path, app="histogram", result="value",
                                           objects="big"))
        assert report["status"] == "ok"
        assert report["metrics"]["reuse_factor"] == 1.0
        verify_report_metrics(report)

    def test_active_passive_results_identical(self, tmp_path):
        a = run_benchmark(tiny_config(tmp_path, app="histogram", result="value",
                                      objects="big", mode="active"))
        p = run_benchmark(tiny_config(tmp_path, app="histogram", result="value",
                                      objects="big", mode="passive"))
        assert a["raw"]["result_digest"] == p["raw"]["result_digest"]

    def test_counters_deterministic_across_repeats(self, tmp_path):
        r1 = run_benchmark(tiny_config(tmp_path))
        r2 = run_benchmark(tiny_config(tmp_path))
        for section in ("wire_client", "wire_server", "tiers", "read_count_histogram",
                        "method_traffic"):
            assert r1[section] == r2[section], section
        assert r1["raw"]["result_digest"] == r2["raw"]["result_digest"]

    def test_loopback_and_tcp_counters_identical(self, tmp_path):
        lo = run_benchmark(tiny_config(tmp_path, transport="loopback"))
        tc = run_benchmark(tiny_config(tmp_path, transport="tcp"))
        assert lo["wire_client"] == tc["wire_client"]
        assert lo["wire_server"] == tc["wire_server"]
        assert lo["tiers"] == tc["tiers"]

    def test_invalid_config_rejected_before_work(self, tmp_path):
        cfg = tiny_config(tmp_path, app="matadd", result="inplace_fma")
        with pytest.raises(ConfigError):
            run_benchmark(cfg)
        assert not (tmp_path / "arenas").exists()


class TestReports:
    def test_json_round_trip(self, tmp_path):
        report = run_benchmark(tiny_config(tmp_path))
        out = tmp_path / "r.json"
        emit_report(report, "json", out)
        doc = json.loads(out.read_text())
        assert doc == report
        verify_report_metrics(doc)

    def test_csv_header_fixed_and_rows_append(self, tmp_path):
        out = tmp_path / "runs.csv"
        report = run_benchmark(tiny_config(tmp_path))
        emit_report(report, "csv", out)
        emit_report(report, "csv", out)
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        assert len(rows) == 3

    def test_fraction_string_round_trip(self):
        f = Fraction(492198336, 25)
        assert parse_fraction(f"{f.numerator}/{f.denominator}") == f


@pytest.fixture(scope="module")
def active_report(tmp_path_factory):
    """One verified report of an active run whose methods read a tier."""
    report = run_benchmark(tiny_config(tmp_path_factory.mktemp("verify")))
    verify_report_metrics(report)
    assert report["method_traffic"]
    return report


class TestVerifyReport:
    def test_tampered_method_traffic_rejected(self, active_report):
        report = copy.deepcopy(active_report)
        for media in report["method_traffic"].values():
            for counters in media.values():
                counters["modeled_time_ns"] = "7/1"
        with pytest.raises(AssertionError, match="method traffic"):
            verify_report_metrics(report)

    def test_unknown_medium_rejected(self, active_report):
        report = copy.deepcopy(active_report)
        media = report["tiers"]["nvm_direct"]
        media["ssd"] = media.pop("nvm")
        with pytest.raises(InvalidRequestError, match="ssd"):
            verify_report_metrics(report)

    def test_checks_hold_under_optimize(self, active_report, tmp_path):
        report = copy.deepcopy(active_report)
        report["metrics"]["reuse_factor"] += 1
        report["tiers"]["nvm_direct"]["nvm"]["modeled_time_ns"] = "7/1"
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(report))
        code = ("import json, sys; from aostore.bench import verify_report_metrics; "
                "verify_report_metrics(json.loads(open(sys.argv[1]).read()))")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run([sys.executable, "-O", "-c", code, str(path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert "AssertionError: reuse_factor" in proc.stderr


def test_desk_counters_byte_identical(tmp_path):
    """The desk plan's counters, modeled times and digests, without any
    wall-clock field, match the committed desk_counters.json byte for byte."""
    out = tmp_path / "desk_counters.json"
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    subprocess.run([sys.executable, str(REPO / "scripts" / "desk_counters.py"), str(out)],
                   env=env, check=True, capture_output=True, timeout=600)
    assert out.read_bytes() == (REPO / "desk_counters.json").read_bytes()


def test_quick_start_demo_runs(tmp_path):
    """README's Quick start: the demo exits 0 and the stub's local and remote
    means agree. Its arena directory goes under ``tmp_path``."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "TMPDIR": str(tmp_path),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "run_demo.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "local mean : 2.0" in lines and "remote mean: 2.0" in lines


class TestSweep:
    def test_empty_plan_yields_header_only(self, tmp_path):
        out = tmp_path / "s.csv"
        summary = sweep([], out)
        assert summary["runs"] == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows == [CSV_COLUMNS]

    def test_four_config_sweep_writes_four_rows(self, tmp_path):
        configs = [
            tiny_config(tmp_path, mode="active"),
            tiny_config(tmp_path, mode="passive"),
            tiny_config(tmp_path, app="histogram", result="value", mode="active",
                        objects="big"),
            tiny_config(tmp_path, app="histogram", result="value", mode="passive",
                        objects="big"),
        ]
        out = tmp_path / "s.csv"
        summary = sweep(configs, out)
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)
        ratios = summary["passive_over_active"]
        assert len(ratios) == 2
        # data-movement law: passive pulls whole objects, active pulls results
        assert all(v > 1.0 for v in ratios.values())

    def test_each_row_is_on_disk_before_the_next_run(self, tmp_path, monkeypatch):
        out = tmp_path / "s.csv"
        rows_seen = []
        real_run = bench.run_benchmark

        def run(config):
            with out.open() as fh:
                rows_seen.append([r["mode"] for r in csv.DictReader(fh)])
            return real_run(config)

        monkeypatch.setattr(bench, "run_benchmark", run)
        configs = [
            tiny_config(tmp_path, app="histogram", result="value", objects="big", mode=mode)
            for mode in ("active", "passive")
        ]
        sweep(configs, out)
        assert rows_seen == [[], ["active"]]

    def test_failures_recorded_and_sweep_continues(self, tmp_path):
        bad = tiny_config(tmp_path, app="matmul", result="inplace_fma", mode="passive")
        good = tiny_config(tmp_path, app="histogram", result="value", objects="big")
        out = tmp_path / "s.csv"
        summary = sweep([bad, good], out)
        assert summary["failures"] == 1
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["error", "ok"]

    def test_plan_loader_merges_base(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "base": {"app": "histogram", "dataset": "desk", "objects": "big",
                     "arena_path": str(tmp_path / "a")},
            "runs": [{"mode": "active"}, {"mode": "passive"}],
        }))
        configs = load_plan(plan)
        assert [c.mode for c in configs] == ["active", "passive"]
        assert all(c.app == "histogram" for c in configs)
