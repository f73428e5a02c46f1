"""Per-layer spans, recorded from outside the program around its public calls.

``Tracer.install`` replaces the calls listed in ``_TARGETS`` with wrappers
that keep one span per call in memory: name, start, end, the span that
caused it and, for wire traffic, the request id. A span's parent is the span
open on the same thread when it started; a server span is tied to the client
span of the same request through the request id, since the two run on
different threads. ``layer_metrics`` turns the spans into the per-layer
metrics, and ``write`` saves them as JSON when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import struct
import threading
import time
from collections import defaultdict
from pathlib import Path

from aostore import apps, client, engine, tiers, wire
from aostore.engine import Routine, RoutineCatalog

# (owner, attribute, span name); a span's layer is the first part of its name
_TARGETS = [
    (apps, "run_app", "apps.run_app"),
    (apps, "matadd_block", "kernels.client.matadd_block"),
    (apps, "fma_values", "kernels.client.fma_values"),
    (apps, "kmeans_partial", "kernels.client.kmeans_partial"),
    (apps, "kmeans_reduce", "kernels.client.kmeans_reduce"),
    (apps, "encode_payload", "model.encode_payload"),
    (client, "decode_payload", "model.decode_payload"),
    (wire, "encode_payload", "model.encode_payload"),
    (wire, "decode_payload", "model.decode_payload"),
    *[
        (client.Session, m, f"client.{m}")
        for m in (
            "register_class",
            "register_method",
            "make_persistent",
            "get",
            "invoke",
            "delete",
            "flush",
        )
    ],
    *[
        (engine.Engine, m, f"engine.{m}")
        for m in (
            "register_class",
            "register_method",
            "make_persistent",
            "get_object",
            "delete_object",
            "flush",
            "invoke",
        )
    ],
    *[
        (cls, m, f"tiers.{m}")
        for cls in (tiers.DramTier, tiers.NvmDirectTier, tiers.MemoryModeTier)
        for m in ("store", "read_view", "write_in_place")
    ],
]
SERVER_SPAN = "wire.handle_frame_bytes"
LAYERS = ("apps", "client", "wire", "engine", "kernels", "model", "tiers")

# span fields
NAME, START, END, PARENT, KEY = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._epoch = 0  # one per client connection; request ids restart at 1 on each
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, key_of=None):
        spans, stack_of = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = [name, 0, 0, stack[-1] if stack else None, key_of(args) if key_of else None]
            stack.append(span)
            span[START] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
                spans.append(span)

        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name in _TARGETS:
            self._patch(owner, attr, self._wrap(vars(owner)[attr], name))
        self._patch(
            wire.ServerCore,
            "handle_frame_bytes",
            self._wrap(vars(wire.ServerCore)["handle_frame_bytes"], SERVER_SPAN, self._server_key),
        )
        connect = vars(wire.TcpConnection)["__init__"]
        encode_frame = vars(wire)["encode_frame"]

        def new_connection(conn, *args, **kwargs):
            self._epoch += 1
            connect(conn, *args, **kwargs)

        def tag_request(frame, *args, **kwargs):
            stack = self._stack()
            if stack and not frame.msg_type & wire.REPLY_BIT:
                stack[-1][KEY] = (self._epoch, frame.request_id, frame.msg_type)
            return encode_frame(frame, *args, **kwargs)

        self._patch(wire.TcpConnection, "__init__", new_connection)
        self._patch(wire, "encode_frame", tag_request)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def suspended(self):
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def _server_key(self, args):
        data = args[1]
        if len(data) < 13:
            return None
        return (self._epoch, struct.unpack_from("<Q", data, 5)[0], data[4])

    def catalog(self, base: RoutineCatalog) -> RoutineCatalog:
        """The same routines, each wrapped in a ``kernels.<routine key>`` span."""
        return RoutineCatalog(
            [
                Routine(key, self._wrap(base.get(key).fn, f"kernels.{key}"), base.get(key).mutates)
                for key in base.keys()
            ]
        )

    def write(self, path: Path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [
            [s[NAME], s[START], s[END], index.get(id(s[PARENT]), -1), s[KEY]]
            for s in self.spans
        ]
        path.write_text(
            json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "request"], "spans": rows})
        )


# -- per-layer metrics ------------------------------------------------------------

# name -> unit, in the order printed; every one is reported on every workload
PER_LAYER = {
    "kernels.fma_us": "us",
    "kernels.fma_total_ms": "ms",
    "kernels.accumulate_us": "us",
    "kernels.accumulate_total_ms": "ms",
    "kernels.add_us": "us",
    "kernels.add_total_ms": "ms",
    "kernels.client_add_ms": "ms",
    "kernels.client_add_total_ms": "ms",
    "engine.self_us.invoke": "us",
    "engine.self_total_ms.invoke": "ms",
    "engine.get_ms": "ms",
    "engine.persist_ms": "ms",
    "engine.records": "count",
    "wire.transport_us.invoke": "us",
    "wire.transport_ms.get": "ms",
    "wire.transport_ms.persist": "ms",
    "wire.server_codec_us.invoke": "us",
    "wire.server_codec_ms.get": "ms",
    "wire.server_codec_ms.persist": "ms",
    "wire.req_frames.persist": "count",
    "wire.req_frames.get": "count",
    "wire.req_frames.invoke": "count",
    "wire.req_frames.delete": "count",
    "wire.req_frames.other": "count",
    "wire.client_B": "B",
    "model.encode_ms": "ms",
    "model.decode_ms": "ms",
    "tiers.read_view_us": "us",
    "tiers.read_view_total_ms": "ms",
    "tiers.store_ms": "ms",
    "tiers.store_total_ms": "ms",
    "tiers.write_in_place_us": "us",
    "tiers.write_in_place_total_ms": "ms",
    **{
        f"tiers.{tier}.{medium}.{attr}": "B" if attr.startswith("bytes") else "count"
        for tier, medium in (("dram", "dram"), ("nvm", "nvm"), ("mm", "dram"), ("mm", "nvm"))
        for attr in ("bytes_read", "bytes_written", "read_ops", "write_ops")
    },
    "tiers.mm.hits": "count",
    "tiers.mm.misses": "count",
    "tiers.mm.hit_ratio": "ratio",
    "apps.self_ms": "ms",
    "apps.reads_per_input": "count",
    **{f"self_ms.{layer}": "ms" for layer in LAYERS if layer != "apps"},
}

_SCALE = {"us": 1e3, "ms": 1e6}


def _p50(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[list], passes: int, counts: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of ``passes`` passes; totals are per pass.

    ``counts`` holds the exact counters of one pass, which every pass repeats.
    """

    def dur(s):
        return s[END] - s[START]

    below = defaultdict(lambda: defaultdict(int))  # span id -> layer -> child ns
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
        if s[PARENT] is not None:
            below[id(s[PARENT])][s[NAME].split(".")[0]] += dur(s)

    server = {s[KEY][:2]: s for s in by_name[SERVER_SPAN] if s[KEY]}

    def self_ns(s, *layers):
        """Duration less the child spans of ``layers`` (default: all), and for
        a client call less the server span of its request."""
        inner = below[id(s)]
        ns = dur(s) - sum(inner[layer] for layer in (layers or inner))
        if not layers and s[NAME].startswith("client.") and s[KEY] and s[KEY][:2] in server:
            ns -= dur(server[s[KEY][:2]])
        return ns

    out: dict[str, float] = {}

    def timing(metric, spans_):
        values = [dur(s) for s in spans_]
        out[metric] = _p50(values) / _SCALE[metric.rsplit("_", 1)[1]]
        return values

    def total(metric, values):
        out[metric] = sum(values) / 1e6 / passes

    for short, name in (
        ("fma", "kernels.mat.fma"),
        ("accumulate", "kernels.kmeans.accumulate"),
        ("add", "kernels.mat.add"),
    ):
        total(f"kernels.{short}_total_ms", timing(f"kernels.{short}_us", by_name[name]))
    values = timing("kernels.client_add_ms", by_name["kernels.client.matadd_block"])
    total("kernels.client_add_total_ms", values)

    values = [self_ns(s) for s in by_name["engine.invoke"]]
    out["engine.self_us.invoke"] = _p50(values) / 1e3
    total("engine.self_total_ms.invoke", values)
    timing("engine.get_ms", by_name["engine.get_object"])
    timing("engine.persist_ms", by_name["engine.make_persistent"])

    for op, client_span, msg, unit in (
        ("invoke", "client.invoke", wire.MSG_INVOKE, "us"),
        ("get", "client.get", wire.MSG_GET, "ms"),
        ("persist", "client.make_persistent", wire.MSG_MAKE_PERSISTENT, "ms"),
    ):
        transport = [
            dur(s) - dur(server[s[KEY][:2]])
            for s in by_name[client_span]
            if s[KEY] and s[KEY][:2] in server
        ]
        out[f"wire.transport_{unit}.{op}"] = _p50(transport) / _SCALE[unit]
        codec = [self_ns(s, "engine") for s in server.values() if s[KEY][2] == msg]
        out[f"wire.server_codec_{unit}.{op}"] = _p50(codec) / _SCALE[unit]

    total("model.encode_ms", [dur(s) for s in by_name["model.encode_payload"]])
    total("model.decode_ms", [dur(s) for s in by_name["model.decode_payload"]])
    for op, unit in (("read_view", "us"), ("store", "ms"), ("write_in_place", "us")):
        total(f"tiers.{op}_total_ms", timing(f"tiers.{op}_{unit}", by_name[f"tiers.{op}"]))

    layer_self = defaultdict(int)
    for s in spans:
        layer_self[s[NAME].split(".")[0]] += self_ns(s)
    for layer in LAYERS:
        out[f"{layer}.self_ms" if layer == "apps" else f"self_ms.{layer}"] = (
            layer_self[layer] / 1e6 / passes
        )

    out.update(counts)
    return {name: out[name] for name in PER_LAYER}
