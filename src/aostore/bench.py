"""Benchmark harness: configuration matrix, derived metrics, reports.

Each run drives one application in one mode over one tier layout, then reports
raw counters (wire bytes, per-tier traffic, per-object read counts) together
with the derived metrics:

    computation-to-data ratio  = total wall time / input dataset size (ms/MB)
    method computation index   = method time / multiplicity-weighted method
                                 input size (ms/MB)
    output size ratio          = output bytes / input bytes
    reuse factor               = method input bytes / input bytes

The total wall time includes the ``generate`` phase, which builds the dataset.
ns-per-byte equals ms-per-MB, so both time ratios are exact integer-ratio
values. Modeled times are exact rationals of the tier counters and the fixed
:class:`CostModel`, which only this module applies; wall-clock fields are
reported but never part of any acceptance check.
"""

from __future__ import annotations

import csv
from collections import Counter
import json
import sys
import time
from dataclasses import dataclass, fields, asdict
from fractions import Fraction
from pathlib import Path

from . import apps
from .client import Session
from .engine import SMALL_RESULT_LIMIT, Engine
from .errors import InvalidRequestError, StoreError
from .kernels import KMeansSpec, MatrixDescriptor, build_catalog
from .model import TAG_SUBMATRIX, ObjectIdFactory, Schema, header_length
from .tiers import MEDIA_DRAM, MEDIA_NVM, ArenaConfig, TierCounters, TierKind, open_tier
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

# each CSV column, in order, with the report section it is read from and its
# key there; the section "" is the report's top level
_CSV_SOURCES = {
    **{c: ("config", c) for c in ("app", "mode", "tier", "objects", "dataset", "result", "seed",
                                  "transport")},
    "status": ("", "status"),
    "error": ("", "error"),
    "wall_total_ns": ("wall_ns", "total"),
    **{c: ("raw", c) for c in ("dataset_bytes", "output_bytes", "method_input_bytes",
                               "method_total_ns", "invocations")},
    **{c: ("metrics", c) for c in ("reuse_factor", "output_size_ratio",
                                   "computation_to_data_ratio_ms_per_mb",
                                   "method_computation_index_ms_per_mb")},
    "client_bytes_sent": ("wire_client", "bytes_sent"),
    "client_bytes_received": ("wire_client", "bytes_received"),
    "server_bytes_sent": ("wire_server", "bytes_sent"),
    "server_bytes_received": ("wire_server", "bytes_received"),
    "modeled_time_ns_total": ("metrics", "modeled_time_ns_total"),
    "result_digest": ("raw", "result_digest"),
}
CSV_COLUMNS = list(_CSV_SOURCES)


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
        for name in ("seed", "dram_capacity_bytes", "mm_cache_bytes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.dram_capacity_bytes <= 0:
            raise ConfigError("dram_capacity_bytes must be positive")
        if self.mm_cache_bytes < 0:
            raise ConfigError("mm_cache_bytes must be non-negative (0 derives it from the dataset)")
        if not isinstance(self.arena_path, str):
            raise ConfigError(f"arena_path must be a string, got {self.arena_path!r}")
        sizes = profile_sizes(self)
        if self.tier == "dram" and sizes["dataset_bytes"] > self.dram_capacity_bytes:
            raise ConfigError(
                f"dataset of {sizes['dataset_bytes']} bytes does not fit the configured "
                f"DRAM capacity {self.dram_capacity_bytes}; use tier=nvm or tier=mm"
            )
        if self.app in ("matadd", "matmul") and self.result == "value":
            block = Schema(TAG_SUBMATRIX, (sizes["matrix"].k,))
            block_encoded = header_length(TAG_SUBMATRIX) + block.nbytes
            if block_encoded > SMALL_RESULT_LIMIT:
                raise ConfigError(
                    f"matrix blocks of {block_encoded} encoded bytes exceed the return-by-value "
                    f"limit of {SMALL_RESULT_LIMIT} bytes; use result=volatile or result=store"
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


@dataclass(frozen=True)
class CostModel:
    """Per-byte and per-operation costs, exact rationals (ns units).

    Default ordering follows the qualitative hardware behaviour: NVM writes
    cost more than NVM reads, which cost more than DRAM accesses.
    """

    dram_read_ns_per_byte: Fraction = Fraction(1, 100)
    dram_write_ns_per_byte: Fraction = Fraction(1, 100)
    nvm_read_ns_per_byte: Fraction = Fraction(3, 100)
    nvm_write_ns_per_byte: Fraction = Fraction(1, 10)
    per_op_latency_ns: Fraction = Fraction(1000)


def modeled_time_ns(counters: TierCounters, medium: str, cost: CostModel) -> Fraction:
    """Exact modeled cost of one medium's counter vector under ``cost``."""
    if medium == MEDIA_DRAM:
        read_rate, write_rate = cost.dram_read_ns_per_byte, cost.dram_write_ns_per_byte
    elif medium == MEDIA_NVM:
        read_rate, write_rate = cost.nvm_read_ns_per_byte, cost.nvm_write_ns_per_byte
    else:
        raise InvalidRequestError(f"unknown medium {medium!r}")
    return (
        counters.bytes_read * read_rate
        + counters.bytes_written * write_rate
        + (counters.read_ops + counters.write_ops) * cost.per_op_latency_ns
    )


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


def _traffic_section(counters: dict[tuple[TierKind, str], TierCounters], cost: CostModel) -> dict:
    """Counters keyed by (TierKind, medium) as a report section: per tier name
    and medium, the counts and their exact modeled time under ``cost``."""
    out: dict = {}
    for (kind, medium), c in sorted(counters.items()):
        out.setdefault(kind.name.lower(), {})[medium] = {
            **asdict(c),
            "modeled_time_ns": _fraction_str(modeled_time_ns(c, medium, cost)),
        }
    return out


def _wire_section(counters) -> dict:
    """One endpoint's wire counters as a report section, message types as keys."""
    per_type = {str(k): v for k, v in sorted(counters.per_type.items())}
    return {**asdict(counters), "per_type": per_type}


def _tier_layout(config: BenchmarkConfig) -> dict[TierKind, object]:
    arena_dir = Path(config.arena_path)
    arena_dir.mkdir(parents=True, exist_ok=True)
    sizes = profile_sizes(config)
    arena_capacity = sizes["dataset_bytes"] * 3 + (64 << 20)
    dram = ArenaConfig(capacity_bytes=config.dram_capacity_bytes)
    tiers: dict[TierKind, object] = {TierKind.DRAM: open_tier(TierKind.DRAM, dram)}
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
        ),
    )
    return tiers


def run_benchmark(config: BenchmarkConfig) -> dict:
    """Run one configuration; its report, ready for ``json.dumps``. Every
    report is checked with :func:`verify_report_metrics` before it is
    returned, so one that fails raises AssertionError instead."""
    config.validate()
    cost = CostModel()
    sizes = profile_sizes(config)
    tiers = _tier_layout(config)
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
        media = {
            (kind, medium): c
            for kind, handle in tiers.items()
            for medium, c in handle.media_counters().items()
        }
        total_model = sum(
            (modeled_time_ns(c, medium, cost) for (_, medium), c in media.items()), Fraction(0)
        )

        report_config = {k: v for k, v in asdict(config).items() if k != "arena_path"}
        report_config["cost_model"] = {k: _fraction_str(v) for k, v in asdict(cost).items()}
        report = {
            "config": report_config,
            "status": "ok",
            "error": "",
            "wall_ns": {"total": total_ns, "phases": dict(run.phases)},
            "wire_client": _wire_section(client),
            "wire_server": _wire_section(server_stats.wire),
            "tiers": _traffic_section(media, cost),
            "read_count_histogram": {str(k): v for k, v in sorted(histogram.items())},
            "method_traffic": _traffic_section(
                {key: TierCounters(*vals) for key, vals in run.method_traffic.items()}, cost
            ),
            "raw": raw,
            "metrics": {
                **{name: float(value) for name, value in metrics.items()},
                "modeled_time_ns_total": float(total_model),
                "modeled_time_ns_total_exact": _fraction_str(total_model),
            },
        }
        verify_report_metrics(report)
        return report
    finally:
        if session is not None:
            session.close()
        if server is not None:
            server.stop()
        engine.close()


def _check(ok: bool, message: str) -> None:
    """An ``assert`` that ``python -O`` does not strip."""
    if not ok:
        raise AssertionError(message)


def _checked_modeled_total(section: dict, model: CostModel, name: str) -> Fraction:
    """Check a traffic section's modeled times against its counters; their sum."""
    total = Fraction(0)
    for tier_name, media in section.items():
        for medium, c in media.items():
            counters = TierCounters(**{k: v for k, v in c.items() if k != "modeled_time_ns"})
            modeled = modeled_time_ns(counters, medium, model)
            _check(parse_fraction(c["modeled_time_ns"]) == modeled,
                   f"{name} {tier_name}/{medium} modeled time mismatch")
            total += modeled
    return total


def verify_report_metrics(report: dict) -> None:
    """Check every derived metric and modeled time against exact recomputation
    from the raw fields and counters (float fields against float(fraction)).

    Raises AssertionError on any mismatch, also under ``python -O``, and
    InvalidRequestError on a medium the cost model does not know.
    """
    metrics = report["metrics"]
    for name, frac in _metrics_of(report["raw"]).items():
        _check(metrics[name] == float(frac), f"{name}: {metrics[name]} != {float(frac)}")
    cost = report["config"]["cost_model"]
    model = CostModel(**{f.name: parse_fraction(cost[f.name]) for f in fields(CostModel)})
    total = _checked_modeled_total(report["tiers"], model, "tier")
    _checked_modeled_total(report["method_traffic"], model, "method traffic")
    exact = parse_fraction(metrics["modeled_time_ns_total_exact"])
    _check(exact == total and metrics["modeled_time_ns_total"] == float(total),
           "modeled_time_ns_total mismatch")


def emit_report(report: dict, fmt: str, path: str | Path | None) -> None:
    """Write one report to ``path``, or to stdout when it is None. JSON
    replaces the file; CSV appends a row, under a header when the file is
    new (stdout always is)."""
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown report format {fmt!r}")
    if path is None:
        _write_report(report, fmt, sys.stdout, header=True)
        return
    path = Path(path)
    new_file = not path.exists() or path.stat().st_size == 0
    with path.open("w" if fmt == "json" else "a", newline="") as fh:
        _write_report(report, fmt, fh, header=new_file)


def _write_report(report: dict, fmt: str, fh, header: bool) -> None:
    if fmt == "json":
        fh.write(json.dumps(report, indent=2) + "\n")
        return
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
    if header:
        writer.writeheader()
    writer.writerow(_csv_row(report))


def _csv_row(report: dict) -> dict:
    """A report's CSV row. A failed run's report holds only its config, status
    and error, and leaves the other columns empty."""
    return {
        column: (report.get(section, {}) if section else report).get(key, "")
        for column, (section, key) in _CSV_SOURCES.items()
    }


def load_plan(path: str | Path) -> list[BenchmarkConfig]:
    """A plan is a JSON file: either a list of config objects or
    {"base": {...}, "runs": [{...}, ...]} with per-run overrides."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"plan {path} is not JSON: {exc}") from None
    if isinstance(doc, dict):
        base = doc.get("base", {})
        runs = doc.get("runs", [])
    else:
        base, runs = {}, doc
    if not (isinstance(base, dict) and isinstance(runs, list)):
        raise ConfigError("a plan's base must be an object and its runs a list")
    configs = []
    for entry in runs:
        try:  # an entry that is not an object fails to merge
            configs.append(BenchmarkConfig(**{**base, **entry}))
        except TypeError as exc:
            raise ConfigError(f"bad plan entry {entry}: {exc}") from None
    return configs


def sweep(configs: list[BenchmarkConfig], out_csv: str | Path) -> dict:
    """Run a configuration matrix serially; per-row failures, a report that
    fails its check in ``run_benchmark`` among them, are recorded and the
    sweep continues. Returns a summary with passive/active traffic ratios per
    application where both modes completed."""
    client_bound: dict[tuple, dict[str, int]] = {}
    failures = 0
    with Path(out_csv).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for config in configs:
            fh.flush()  # an interrupted sweep keeps the rows it finished
            try:
                report = run_benchmark(config)
                key = (config.app, config.tier, config.objects, config.dataset)
                client_bound.setdefault(key, {})[config.mode] = report["wire_client"][
                    "bytes_received"
                ]
            except (ConfigError, StoreError, OSError, AssertionError) as exc:
                failures += 1
                report = {"config": asdict(config), "status": "error", "error": str(exc)}
            writer.writerow(_csv_row(report))
    summary: dict = {"runs": len(configs), "failures": failures, "passive_over_active": {}}
    for key, modes in sorted(client_bound.items()):
        if "active" in modes and "passive" in modes and modes["active"] > 0:
            summary["passive_over_active"]["/".join(key)] = (
                modes["passive"] / modes["active"]
            )
    return summary
