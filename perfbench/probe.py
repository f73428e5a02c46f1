"""A fixed piece of reference work that gauges how fast the machine runs now.

The machine this benchmark was built on is a share of a host with other
tenants; its speed changes from second to second and, for minutes at a time,
by up to about 2x (README.md). The probe times the same work every time:
interpreted Python on a dict, small numpy outer products like those of the
FMA kernel, copies of an 8 MB array, and 1 kB round trips over a socket pair
to an echo thread. Its time depends on the machine and not on the program,
so a time of the program multiplied by ``REFERENCE_S / probe time`` is that
time in seconds of a machine on which the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np

# The probe's time on the machine described in README.md in its faster state
# (the fastest 10% of the probes of a 13-minute trial took 43-47 ms); a round
# figure, so that normalized times read close to the wall times of a quiet
# moment.
REFERENCE_S = 0.050
REPEATS = 3  # each part is timed this many times; its fastest time counts
_ROUND_TRIPS = 2000
_MESSAGE = bytes(1024)


def _echo(sock: socket.socket) -> None:
    while data := sock.recv(65536):
        sock.sendall(data)


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((96, 96))
        self._b = rng.random((96, 96))
        self._big = rng.random(1 << 20)  # 8 MB
        self._copy = np.empty_like(self._big)

    def _python(self, _sock) -> None:
        d: dict[int, int] = {}
        for i in range(60000):
            d[i & 1023] = d.get(i & 1023, 0) + i * 3

    def _outer(self, _sock) -> None:
        out = np.zeros((96, 96))
        tmp = np.empty_like(out)
        for _ in range(4):
            for t in range(96):
                np.outer(self._a[:, t], self._b[t, :], out=tmp)
                out += tmp

    def _memcpy(self, _sock) -> None:
        for _ in range(20):
            np.copyto(self._copy, self._big)

    def _round_trips(self, sock: socket.socket) -> None:
        for _ in range(_ROUND_TRIPS):
            sock.sendall(_MESSAGE)
            got = 0
            while got < len(_MESSAGE):
                got += len(sock.recv(65536))

    def seconds(self) -> float:
        """The probe's time now: the sum over its parts of each part's fastest time."""
        sock, peer = socket.socketpair()
        echo = threading.Thread(target=_echo, args=(peer,), name="probe-echo")
        echo.start()
        try:
            total = 0.0
            for part in (self._python, self._outer, self._memcpy, self._round_trips):
                best = float("inf")
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    part(sock)
                    best = min(best, time.perf_counter() - t0)
                total += best
            return total
        finally:
            sock.shutdown(socket.SHUT_WR)
            echo.join()
            sock.close()
            peer.close()
