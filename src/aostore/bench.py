"""Benchmark harness: configuration matrix, derived metrics, reports.

Each run drives one application in one mode over one tier layout, then reports
raw counters (wire bytes, per-tier traffic, per-object read counts) together
with the derived metrics:

    computation-to-data ratio  = total wall time / input dataset size (ms/MB)
    method computation index   = method time / multiplicity-weighted method
                                 input size (ms/MB)
    output size ratio          = output bytes / input bytes
    reuse factor               = method input bytes / input bytes

ns-per-byte equals ms-per-MB, so both time ratios are exact integer-ratio
values. Modeled times are exact rationals of the counter vectors and the cost
model; wall-clock fields are reported but never part of any acceptance check.
"""

from __future__ import annotations

import csv
from collections import Counter
import json
import os
import time
from dataclasses import dataclass, field, fields, asdict, replace
from fractions import Fraction
from pathlib import Path

from . import apps
from .client import Session
from .engine import Engine
from .errors import StoreError
from .kernels import KMeansSpec, MatrixDescriptor, build_catalog
from .model import ObjectIdFactory
from .tiers import (
    ArenaConfig,
    CostModel,
    TierKind,
    modeled_time_ns,
    open_tier,
    TierCounters,
)
from .wire import ServerCore, TcpServer

APPS = ("histogram", "kmeans", "matadd", "matmul")
MODES = ("active", "passive")
TIERS = ("dram", "nvm", "mm")
OBJECT_SIZES = ("big", "small")
DATASETS = ("desk", "small", "big")
RESULTS = ("value", "volatile", "store", "inplace_fma")
TRANSPORTS = ("loopback", "tcp")

TIER_KINDS = {"dram": TierKind.DRAM, "nvm": TierKind.NVM_DIRECT, "mm": TierKind.MEMORY_MODE}

# Array-app block sizes: big objects 8 MiB, small objects 1 MiB (8x smaller).
ARRAY_BLOCK_ELEMS = {"big": 1 << 20, "small": 1 << 17}
HIST_DATASET_ELEMS = {"desk": 1 << 22, "small": 1 << 25, "big": 1 << 28}
KMEANS_BLOCK_ROWS = {"big": 2048, "small": 256}
KMEANS_DATASET_POINTS = {"desk": 1 << 13, "small": 1 << 16, "big": 1 << 19}
# Matrix apps keep the grid side fixed per object-size profile (6 or 42), so
# the reuse factor of blocked multiplication is preserved at every scale.
MATRIX_SIDE = {"desk": 2016, "small": 4032, "big": 8064}
MATRIX_GRID = {"big": 6, "small": 42}

DEFAULT_DRAM_CAPACITY = 1 << 30
MM_CACHE_BIG_DATASET = 256 * 1000 * 1000

ENV_COST_KEYS = {
    "AOSTORE_DRAM_READ_NS_PER_B": "dram_read_ns_per_byte",
    "AOSTORE_DRAM_WRITE_NS_PER_B": "dram_write_ns_per_byte",
    "AOSTORE_NVM_READ_NS_PER_B": "nvm_read_ns_per_byte",
    "AOSTORE_NVM_WRITE_NS_PER_B": "nvm_write_ns_per_byte",
    "AOSTORE_PER_OP_NS": "per_op_latency_ns",
}

CSV_CONFIG_COLUMNS = ("app", "mode", "tier", "objects", "dataset", "result", "seed", "transport")
CSV_COLUMNS = [
    *CSV_CONFIG_COLUMNS,
    "status",
    "error",
    "wall_total_ns",
    "dataset_bytes",
    "output_bytes",
    "method_input_bytes",
    "method_total_ns",
    "invocations",
    "reuse_factor",
    "output_size_ratio",
    "computation_to_data_ratio_ms_per_mb",
    "method_computation_index_ms_per_mb",
    "client_bytes_sent",
    "client_bytes_received",
    "server_bytes_sent",
    "server_bytes_received",
    "modeled_time_ns_total",
    "result_digest",
]


class ConfigError(ValueError):
    """Invalid benchmark configuration; rejected before any work happens."""


@dataclass(frozen=True)
class BenchmarkConfig:
    app: str
    mode: str = "active"
    tier: str = "dram"
    objects: str = "big"
    dataset: str = "desk"
    result: str = "value"
    seed: int = 0
    arena_path: str = "bench-arenas"
    transport: str = "loopback"
    dram_capacity_bytes: int = DEFAULT_DRAM_CAPACITY
    mm_cache_bytes: int = 0  # 0 = derive from dataset size
    cost_overrides: dict = field(default_factory=dict)

    def validate(self) -> None:
        checks = [
            (self.app, APPS, "app"),
            (self.mode, MODES, "mode"),
            (self.tier, TIERS, "tier"),
            (self.objects, OBJECT_SIZES, "objects"),
            (self.dataset, DATASETS, "dataset"),
            (self.result, RESULTS, "result"),
            (self.transport, TRANSPORTS, "transport"),
        ]
        for value, allowed, name in checks:
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {allowed}, got {value!r}")
        if self.result == "inplace_fma" and self.app != "matmul":
            raise ConfigError("inplace_fma is only defined for matmul")
        if self.result == "inplace_fma" and self.mode != "active":
            raise ConfigError("inplace_fma is an active-store execution mode")
        if self.result in ("volatile", "store") and self.app not in ("matadd", "matmul"):
            raise ConfigError(
                f"result={self.result} applies to the matrix apps (sizeable output); "
                f"{self.app} returns a constant-size result by value"
            )
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        sizes = profile_sizes(self)
        if self.tier == "dram" and sizes["dataset_bytes"] > self.dram_capacity_bytes:
            raise ConfigError(
                f"dataset of {sizes['dataset_bytes']} bytes does not fit the configured "
                f"DRAM capacity {self.dram_capacity_bytes}; use tier=nvm or tier=mm"
            )
        if self.app in ("matadd", "matmul") and self.result == "value":
            block_encoded = sizes["matrix"].k ** 2 * 8 + 9
            if block_encoded > (1 << 20):
                raise ConfigError(
                    f"matrix blocks of {block_encoded} encoded bytes exceed the 1 MiB "
                    f"return-by-value limit; use result=volatile or result=store"
                )


def profile_sizes(config: BenchmarkConfig) -> dict:
    """Shapes and byte sizes implied by (app, objects, dataset)."""
    out: dict = {}
    if config.app == "histogram":
        n = HIST_DATASET_ELEMS[config.dataset]
        out["n_elems"] = n
        out["block_elems"] = ARRAY_BLOCK_ELEMS[config.objects]
        out["dataset_bytes"] = n * 8
    elif config.app == "kmeans":
        spec = KMeansSpec()
        n = KMEANS_DATASET_POINTS[config.dataset]
        out["n_points"] = n
        out["block_rows"] = KMEANS_BLOCK_ROWS[config.objects]
        out["kmeans_spec"] = spec
        out["dataset_bytes"] = n * spec.dims * 8
    else:
        n = MATRIX_SIDE[config.dataset]
        grid = MATRIX_GRID[config.objects]
        desc = MatrixDescriptor(n, n // grid)
        out["matrix"] = desc
        out["dataset_bytes"] = 2 * n * n * 8
    return out


def resolve_cost_model(config: BenchmarkConfig, env: dict | None = None) -> CostModel:
    """Defaults, overridden by environment variables, then by the config."""
    env = os.environ if env is None else env
    overrides: dict = {}
    for env_key, field_name in ENV_COST_KEYS.items():
        if env_key in env:
            overrides[field_name] = env[env_key]
    overrides.update(config.cost_overrides)
    return CostModel.create(**overrides)


def compute_metrics(
    *,
    total_ns: int,
    dataset_bytes: int,
    method_total_ns: int,
    method_input_bytes: int,
    output_bytes: int,
) -> dict[str, Fraction]:
    """Table-style derived metrics as exact fractions (ns/B == ms/MB)."""
    if dataset_bytes <= 0:
        raise ConfigError("dataset_bytes must be positive")
    if method_input_bytes <= 0:
        raise ConfigError("method_input_bytes must be positive")
    return {
        "computation_to_data_ratio_ms_per_mb": Fraction(total_ns, dataset_bytes),
        "method_computation_index_ms_per_mb": Fraction(method_total_ns, method_input_bytes),
        "output_size_ratio": Fraction(output_bytes, dataset_bytes),
        "reuse_factor": Fraction(method_input_bytes, dataset_bytes),
    }


def _metrics_of(raw: dict) -> dict[str, Fraction]:
    """The derived metrics of a report's raw section."""
    names = ("total_ns", "dataset_bytes", "method_total_ns", "method_input_bytes", "output_bytes")
    return compute_metrics(**{name: raw[name] for name in names})


def _fraction_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(s: str) -> Fraction:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or 1))


def _counters_dict(c: TierCounters) -> dict:
    out = asdict(c)
    out["modeled_time_ns"] = _fraction_str(c.modeled_time_ns)
    return out


@dataclass
class BenchmarkReport:
    config: dict
    status: str
    error: str
    wall_ns: dict
    wire_client: dict
    wire_server: dict
    tiers: dict
    read_count_histogram: dict
    method_traffic: dict
    raw: dict
    metrics: dict

    def to_dict(self) -> dict:
        return asdict(self)


def _tier_layout(config: BenchmarkConfig, cost: CostModel) -> dict[TierKind, object]:
    arena_dir = Path(config.arena_path)
    arena_dir.mkdir(parents=True, exist_ok=True)
    sizes = profile_sizes(config)
    arena_capacity = sizes["dataset_bytes"] * 3 + (64 << 20)
    tiers: dict[TierKind, object] = {
        TierKind.DRAM: open_tier(
            TierKind.DRAM,
            ArenaConfig(capacity_bytes=config.dram_capacity_bytes, cost_model=cost),
        )
    }
    kind = TIER_KINDS[config.tier]
    if kind == TierKind.DRAM:
        return tiers
    path = arena_dir / f"bench-{config.tier}.arena"
    path.unlink(missing_ok=True)  # benchmark runs start from an empty store
    cache = 0
    if kind == TierKind.MEMORY_MODE:
        cache = config.mm_cache_bytes
        if cache <= 0:
            cache = MM_CACHE_BIG_DATASET if config.dataset == "big" else sizes["dataset_bytes"] * 2
    tiers[kind] = open_tier(
        kind,
        ArenaConfig(
            path=path,
            capacity_bytes=max(arena_capacity, cache + 1),
            cache_capacity_bytes=cache,
            cost_model=cost,
        ),
    )
    return tiers


def run_benchmark(config: BenchmarkConfig) -> BenchmarkReport:
    config.validate()
    cost = resolve_cost_model(config)
    sizes = profile_sizes(config)
    tiers = _tier_layout(config, cost)
    catalog = build_catalog()
    engine = Engine(tiers, catalog, id_factory=ObjectIdFactory(config.seed))
    server = None
    session = None
    t_total = time.perf_counter_ns()
    try:
        if config.transport == "tcp":
            server = TcpServer(engine)
            session = Session.connect_tcp(server.host, server.port, catalog)
        else:
            session = Session.connect_loopback(ServerCore(engine), catalog)

        record_start = engine.record_count
        run = apps.run_app(
            config.app,
            config.mode,
            session,
            seed=config.seed,
            tier=TIER_KINDS[config.tier],
            profile=sizes,
            result=config.result,
            engine=engine,
            assemble=config.dataset != "big",
        )
        total_ns = time.perf_counter_ns() - t_total

        counts = engine.read_counts()
        histogram = Counter(counts[oid] for oid in run.input_ids)

        method_deltas = _sum_invoke_deltas(engine, record_start)
        client = session.counters()
        server_stats = session.stats()

        raw = {
            "total_ns": total_ns,
            "dataset_bytes": run.dataset_bytes,
            "output_bytes": run.output_bytes,
            "method_total_ns": run.method_total_ns,
            "method_input_bytes": run.method_input_bytes,
            "invocations": run.invocations,
            "input_objects": len(run.input_ids),
            "result_digest": run.output_digest,
        }
        metrics = _metrics_of(raw)
        media = {kind: handle.media_counters() for kind, handle in tiers.items()}
        tier_section = {
            kind.name.lower(): {medium: _counters_dict(c) for medium, c in counters.items()}
            for kind, counters in media.items()
        }
        total_model = sum(
            (c.modeled_time_ns for counters in media.values() for c in counters.values()),
            Fraction(0),
        )

        report_config = {
            k: v for k, v in asdict(config).items() if k not in ("arena_path", "cost_overrides")
        }
        report_config["cost_model"] = {
            f.name: _fraction_str(getattr(cost, f.name)) for f in fields(CostModel)
        }
        wire_client = asdict(client)
        wire_client["per_type"] = {str(k): v for k, v in sorted(client.per_type.items())}
        report = BenchmarkReport(
            config=report_config,
            status="ok",
            error="",
            wall_ns={"total": total_ns, "phases": dict(run.phases)},
            wire_client=wire_client,
            wire_server={
                "bytes_sent": server_stats.wire.bytes_sent,
                "bytes_received": server_stats.wire.bytes_received,
                "per_type": {str(k): v for k, v in sorted(server_stats.wire.per_type.items())},
            },
            tiers=tier_section,
            read_count_histogram={str(k): v for k, v in sorted(histogram.items())},
            method_traffic=method_deltas,
            raw=raw,
            metrics={
                **{name: float(value) for name, value in metrics.items()},
                "modeled_time_ns_total": float(total_model),
                "modeled_time_ns_total_exact": _fraction_str(total_model),
            },
        )
        return report
    finally:
        if session is not None:
            session.close()
        if server is not None:
            server.stop()
        engine.close()


def _sum_invoke_deltas(engine: Engine, record_start: int) -> dict:
    """Aggregate tier traffic caused by method invocations alone, with its
    exact modeled cost under each tier's cost model."""
    sums: dict[tuple, list[int]] = {}
    for rec in engine.records(record_start):
        if rec.op != "invoke":
            continue
        for key, delta in rec.tier_deltas.items():
            sums[key] = [a + d for a, d in zip(sums.get(key, [0] * 6), delta)]
    out: dict = {}
    for (kind, medium), vals in sorted(sums.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        counters = TierCounters(*vals)
        model = modeled_time_ns(counters, medium, engine.tiers[kind].cost_model)
        out.setdefault(kind.name.lower(), {})[medium] = _counters_dict(
            replace(counters, modeled_time_ns=model)
        )
    return out


def verify_report_metrics(report: dict) -> None:
    """Check every derived metric against recomputation from the raw fields.

    Raises AssertionError on any mismatch; comparison is exact (float fields
    must equal float(exact fraction), exact fields must match the recomputed
    fractions).
    """
    metrics = report["metrics"]
    for name, frac in _metrics_of(report["raw"]).items():
        assert metrics[name] == float(frac), f"{name}: {metrics[name]} != {float(frac)}"
    cost = report["config"]["cost_model"]
    model = CostModel(**{f.name: parse_fraction(cost[f.name]) for f in fields(CostModel)})
    total = Fraction(0)
    for tier_name, media in report["tiers"].items():
        for medium, c in media.items():
            counters = TierCounters(**{k: v for k, v in c.items() if k != "modeled_time_ns"})
            recomputed_model = modeled_time_ns(counters, medium, model)
            assert parse_fraction(c["modeled_time_ns"]) == recomputed_model, (
                f"tier {tier_name}/{medium} modeled time mismatch"
            )
            total += recomputed_model
    assert parse_fraction(report["metrics"]["modeled_time_ns_total_exact"]) == total
    assert report["metrics"]["modeled_time_ns_total"] == float(total)


def emit_report(report: BenchmarkReport, fmt: str, path: str | Path) -> None:
    """Write one report; CSV appends a row (with header when the file is new)."""
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=False) + "\n")
    elif fmt == "csv":
        _append_csv_row(path, _csv_row(report))
    else:
        raise ConfigError(f"unknown report format {fmt!r}")


def _csv_row(report: BenchmarkReport) -> dict:
    d = report.to_dict()
    row = {c: "" for c in CSV_COLUMNS}
    row.update({k: d["config"].get(k, "") for k in CSV_CONFIG_COLUMNS})
    row["status"] = d["status"]
    row["error"] = d["error"]
    if d["status"] != "ok":
        return row
    row["wall_total_ns"] = d["wall_ns"]["total"]
    for k in ("dataset_bytes", "output_bytes", "method_input_bytes",
              "method_total_ns", "invocations"):
        row[k] = d["raw"][k]
    row["result_digest"] = d["raw"]["result_digest"]
    for k in ("reuse_factor", "output_size_ratio",
              "computation_to_data_ratio_ms_per_mb",
              "method_computation_index_ms_per_mb", "modeled_time_ns_total"):
        row[k] = d["metrics"][k]
    row["client_bytes_sent"] = d["wire_client"]["bytes_sent"]
    row["client_bytes_received"] = d["wire_client"]["bytes_received"]
    row["server_bytes_sent"] = d["wire_server"]["bytes_sent"]
    row["server_bytes_received"] = d["wire_server"]["bytes_received"]
    return row


def _append_csv_row(path: Path, row: dict) -> None:
    new_file = not path.exists() or path.stat().st_size == 0
    with path.open("a", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        if new_file:
            writer.writeheader()
        writer.writerow(row)


def write_csv_header(path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        csv.DictWriter(fh, fieldnames=CSV_COLUMNS).writeheader()


def load_plan(path: str | Path) -> list[BenchmarkConfig]:
    """A plan is a JSON file: either a list of config objects or
    {"base": {...}, "runs": [{...}, ...]} with per-run overrides."""
    doc = json.loads(Path(path).read_text())
    if isinstance(doc, dict):
        base = doc.get("base", {})
        runs = doc.get("runs", [])
    else:
        base, runs = {}, doc
    configs = []
    for entry in runs:
        merged = {**base, **entry}
        try:
            configs.append(BenchmarkConfig(**merged))
        except TypeError as exc:
            raise ConfigError(f"bad plan entry {entry}: {exc}") from None
    return configs


def sweep(configs: list[BenchmarkConfig], out_csv: str | Path) -> dict:
    """Run a configuration matrix serially; per-row failures are recorded and
    the sweep continues. Returns a summary with passive/active traffic ratios
    per application where both modes completed."""
    out_csv = Path(out_csv)
    write_csv_header(out_csv)
    client_bound: dict[tuple, dict[str, int]] = {}
    rows = 0
    failures = 0
    for config in configs:
        try:
            config.validate()
            report = run_benchmark(config)
            _append_csv_row(out_csv, _csv_row(report))
            key = (config.app, config.tier, config.objects, config.dataset)
            client_bound.setdefault(key, {})[config.mode] = report.wire_client[
                "bytes_received"
            ]
        except (ConfigError, StoreError, OSError) as exc:
            failures += 1
            row = {c: "" for c in CSV_COLUMNS}
            row.update({k: getattr(config, k) for k in CSV_CONFIG_COLUMNS})
            row.update(status="error", error=str(exc))
            _append_csv_row(out_csv, row)
        rows += 1
    summary: dict = {"runs": rows, "failures": failures, "passive_over_active": {}}
    for key, modes in sorted(client_bound.items()):
        if "active" in modes and "passive" in modes and modes["active"] > 0:
            summary["passive_over_active"]["/".join(key)] = (
                modes["passive"] / modes["active"]
            )
    return summary
