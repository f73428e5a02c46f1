from __future__ import annotations

import csv
import json
from fractions import Fraction

import pytest

from aostore import bench
from aostore.bench import (
    BenchmarkConfig,
    CSV_COLUMNS,
    ConfigError,
    compute_metrics,
    emit_report,
    load_plan,
    parse_fraction,
    profile_sizes,
    resolve_cost_model,
    run_benchmark,
    sweep,
    verify_report_metrics,
)


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

    def test_cost_model_env_overrides(self, tmp_path):
        cfg = desk("histogram", arena_path=str(tmp_path))
        model = resolve_cost_model(cfg, env={"AOSTORE_NVM_WRITE_NS_PER_B": "0.25"})
        assert model.nvm_write_ns_per_byte == Fraction(1, 4)
        model2 = resolve_cost_model(
            BenchmarkConfig(app="histogram", cost_overrides={"per_op_latency_ns": 5}),
            env={},
        )
        assert model2.per_op_latency_ns == 5


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
