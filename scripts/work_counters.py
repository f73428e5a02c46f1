#!/usr/bin/env python3
"""Count the work of one call of each operation at each layer of the store.

    PYTHONPATH=src python scripts/work_counters.py [out.json]

Writes ``work_counters.json`` by default. The operations are the three
invokes of ``invoke_layers.py`` (a 96x96 in-place FMA, a no-op and the
k-means ``accumulate``), a GET and a persist of 73,728 bytes (a 96x96 block)
and of 2 MiB (512x512), STATS, and an INVOKE that fails (an unknown method).
The layers are the engine call, ``ServerCore.handle_frame_bytes`` on the
encoded request, a loopback ``Session`` and a TCP ``Session``, whose client
thread and server connection thread are counted apart. STATS has no engine
call.

Per call, after a warm-up, a layer counts its Python-function calls and its
C calls, as ``sys.setprofile`` (``threading.setprofile`` for the server
thread) reports them, and a TCP thread also its socket calls ``recv_into``,
``sendmsg`` and ``sendall``. An operation is a function of no arguments, and
its own call is counted with the rest. The interpreter's call counts do not
drift with the host, so two checkouts whose code does the same work write
byte-identical files, and a change shows here what work it added or took
away, layer by layer.

Counts must not depend on how the kernel splits a stream, so every socket
call of the process is made to finish its whole request: a receive waits
until its view is full, and a send, the non-blocking one too, until every
byte is taken. Each still counts as one call. A large reply then always
leaves in the first send, and a large frame arrives in the fewest receives;
a real socket may take more of both.

The file records the Python (major.minor) and numpy versions it was made
with, since other versions make other calls.
"""

from __future__ import annotations

import gc
import json
import select
import socket
import sys
import tempfile
import threading
import time
from pathlib import Path

from invoke_layers import open_store  # sets the BLAS thread count before numpy loads

import _socket
import numpy as np

from aostore.client import Session
from aostore.engine import ResultPlacement
from aostore.errors import UnknownNameError
from aostore.kernels import MATRIX_CLASS
from aostore.model import Submatrix
from aostore.tiers import TierKind, copy_of
from aostore.wire import MESSAGES, MSG_GET, MSG_INVOKE, MSG_MAKE_PERSISTENT, MSG_STATS
from aostore.wire import Frame, ServerCore, TcpServer, encode_body, encode_frame

WARMUP, CALLS = 2, 5
SOCKET_CALLS = ("recv_into", "sendmsg", "sendall")


# -- socket calls that finish their whole request ------------------------------------


def _recv_into(sock, buffer, nbytes=0, flags=0):
    view = memoryview(buffer).cast("B")[: nbytes or None]
    got = 0
    while got < len(view):
        n = _socket.socket.recv_into(sock, view[got:], 0, flags)
        if not n:
            break
        got += n
    return got


def _sendmsg(sock, buffers, ancdata=(), flags=0):
    parts = [memoryview(part).cast("B") for part in buffers]
    total = sum(map(len, parts))
    while parts:
        try:
            sent = _socket.socket.sendmsg(sock, parts, ancdata, flags)
        except BlockingIOError:  # a non-blocking send to a full socket
            select.select([], [sock], [])
            continue
        ancdata = ()
        while parts and sent >= len(parts[0]):
            sent -= len(parts[0])
            parts.pop(0)
        if parts:
            parts[0] = parts[0][sent:]
    return total


def _sendall(sock, data, flags=0):
    return _socket.socket.sendall(sock, data, flags)


_WHOLE = {"recv_into": _recv_into, "sendmsg": _sendmsg, "sendall": _sendall}
_NAME_OF = {fn.__code__: name for name, fn in _WHOLE.items()}


# -- counting ---------------------------------------------------------------------------


class Counter:
    """A profile function for one thread: it counts Python calls, C calls and
    socket calls. A socket call is one of the functions above, counted as
    the one C call it stands for, with nothing it makes."""

    def __init__(self):
        self.counts = dict.fromkeys(("python", "c", *SOCKET_CALLS), 0)
        self.inside = None  # the socket call under way, if any
        self._frame = None

    def __call__(self, frame, event, arg):
        if self._frame is not None:
            if event == "return" and frame is self._frame:
                self._frame = self.inside = None
            return
        if event == "call":
            name = _NAME_OF.get(frame.f_code)
            if name is None:
                self.counts["python"] += 1
                return
            self.counts["c"] += 1
            self.counts[name] += 1
            self._frame, self.inside = frame, name
        elif event == "c_call":
            self.counts["c"] += 1

    def snapshot(self) -> dict:
        return dict(self.counts)


def _per_call(before: dict, after: dict, keys) -> dict:
    out = {}
    for key in keys:
        total = after[key] - before[key]
        if total % CALLS:
            raise RuntimeError(f"{total} {key} calls in {CALLS} calls: the count drifts")
        out[key] = total // CALLS
    return out


def _window(op, calls: int) -> dict:
    """This thread's counts over ``calls`` calls of ``op()``."""
    counter = Counter()
    sys.setprofile(counter)
    for _ in range(calls):
        op()
    sys.setprofile(None)
    return counter.snapshot()


def count_here(op, cleanup) -> dict:
    """Python and C calls per call of ``op()`` on this thread. The empty
    window counts what setting the profile function costs."""
    for _ in range(WARMUP):
        op()
    cleanup()
    empty, counted = _window(op, 0), _window(op, CALLS)
    cleanup()
    return _per_call(empty, counted, ("python", "c"))


class TcpPair:
    """A TCP session to a server thread of this process, whose connection
    thread has a counter of its own."""

    def __init__(self, engine):
        self.server = TcpServer(engine)
        self.counter = Counter()
        threading.setprofile(self.counter)
        try:
            self.session = Session.connect_tcp(self.server.host, self.server.port)
            self._idle()  # the thread has started, so it has the counter
        finally:
            threading.setprofile(None)

    def _idle(self) -> None:
        """Wait until the server thread waits for the next request."""
        while self.counter.inside != "recv_into":
            time.sleep(0.0005)

    def count(self, op, cleanup) -> tuple[dict, dict]:
        """Calls per call of ``op()`` in the client thread and in the server
        thread, the server's from one wait for a request to the next."""
        for _ in range(WARMUP):
            op()
        self._idle()
        cleanup()
        empty, server = _window(op, 0), self.counter.snapshot()
        counted = _window(op, CALLS)
        self._idle()
        cleanup()
        keys = ("python", "c", *SOCKET_CALLS)
        return _per_call(empty, counted, keys), _per_call(server, self.counter.snapshot(), keys)

    def close(self) -> None:
        self.session.close()
        self.server.stop()


def _frame(msg_type: int, *values) -> bytes:
    body = encode_body(MESSAGES[msg_type].request, values)
    return b"".join(encode_frame(Frame(msg_type, 1, body)))


def _operations(engine, cases) -> dict:
    """Each operation by name: (its invokes' (target, method, args), or the
    object a GET reads, or the block a persist stores, or nothing)."""
    ops: dict = {f"invoke {name}": ("invoke", (target, method, args))
                 for name, (_, target, method, args) in cases.items()}
    rng = np.random.default_rng(11)
    for label, side in (("73,728 B", 96), ("2 MiB", 512)):
        block = Submatrix(rng.random((side, side)))
        oid = engine.make_persistent(MATRIX_CLASS, block.schema(), TierKind.NVM_DIRECT,
                                     copy_of(block.data_view()))
        ops[f"get {label}"] = ("get", oid)
        ops[f"persist {label}"] = ("persist", block)
    ops["stats"] = ("stats", None)
    ops["invoke unknown method"] = ("fail", cases["fma 96x96"][1])
    return ops


def _engine_call(engine, kind: str, what):
    """The engine call of an operation, None for STATS."""
    if kind == "invoke":
        return lambda t=what: engine.invoke(*t)
    if kind == "get":
        return lambda: engine.get_object(what)
    if kind == "persist":
        schema, fill = what.schema(), copy_of(what.data_view())
        return lambda: engine.make_persistent(MATRIX_CLASS, schema, TierKind.NVM_DIRECT, fill)
    if kind == "fail":

        def fail():
            try:
                engine.invoke(what, "no_such_method")
            except UnknownNameError:
                pass

        return fail
    return None


def _request(kind: str, what) -> bytes:
    """The request frame of an operation."""
    if kind == "invoke":
        target, method, args = what
        return _frame(MSG_INVOKE, target, method, ResultPlacement.value(), args)
    if kind == "get":
        return _frame(MSG_GET, what)
    if kind == "persist":
        return _frame(MSG_MAKE_PERSISTENT, MATRIX_CLASS, TierKind.NVM_DIRECT, what)
    if kind == "fail":
        return _frame(MSG_INVOKE, what, "no_such_method", ResultPlacement.value(), [])
    return _frame(MSG_STATS)


def _session_call(session: Session, kind: str, what):
    """The session call of an operation."""
    if kind == "invoke":
        return lambda t=what: session.invoke(*t)
    if kind == "get":
        return lambda: session.get(what)
    if kind == "persist":
        return lambda: session.make_persistent(MATRIX_CLASS, what, TierKind.NVM_DIRECT)
    if kind == "fail":

        def fail():
            try:
                session.invoke(what, "no_such_method")
            except UnknownNameError:
                pass

        return fail
    return lambda: session.stats()


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("work_counters.json")
    for name, fn in _WHOLE.items():
        setattr(socket.socket, name, fn)
    gc.disable()  # no collection, nor what it might run, inside a count
    rows: dict = {}
    with tempfile.TemporaryDirectory() as arenas:
        engine, cases = open_store(arenas)
        core = ServerCore(engine)
        loopback = Session.connect_loopback(core)
        tcp = TcpPair(engine)
        try:
            ops = _operations(engine, cases)
            kept = set(engine.object_ids())

            def cleanup():
                """Delete what a persist made, so each count starts from the same arenas."""
                for oid in set(engine.object_ids()) - kept:
                    engine.delete_object(oid)

            for name, (kind, what) in ops.items():
                row = {}
                direct = _engine_call(engine, kind, what)
                if direct is not None:
                    row["engine"] = count_here(direct, cleanup)
                frame = _request(kind, what)
                row["handle_frame_bytes"] = count_here(
                    lambda: core.handle_frame_bytes(frame), cleanup)
                row["loopback"] = count_here(_session_call(loopback, kind, what), cleanup)
                row["tcp client"], row["tcp server"] = tcp.count(
                    _session_call(tcp.session, kind, what), cleanup)
                rows[name] = row
        finally:
            loopback.close()
            tcp.close()
            engine.close()
    doc = {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
        "calls": {"warm-up": WARMUP, "counted": CALLS},
        "operations": rows,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(rows)} operations written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
