"""One random program run on a loopback and a TCP session in lockstep.

Each session drives its own store, built alike, whose id factories share a
seed, so both hand out the same ids. After every step the two sessions must
have given the same replies or the same error, and both stores must match one
model: each live object's values, tier and read count, the bytes each tier
holds, and its media counters. The stores' wire counters must be equal too.

Values are small integers, so every sum and product the kernels make is
exact whatever the order of its terms, and the model's own numpy arithmetic
gives the values the stores must hold.
"""

from __future__ import annotations

import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from aostore.apps import ensure_kernel_registration
from aostore.client import Session
from aostore.engine import Engine, ResultPlacement
from aostore.errors import (
    CapacityError,
    InvalidRequestError,
    NotFoundError,
    StoreError,
    UnknownNameError,
)
from aostore.kernels import MATRIX_CLASS, build_catalog
from aostore.model import ObjectIdFactory, Submatrix
from aostore.tiers import MEDIA_DRAM, MEDIA_NVM, ArenaConfig, TierCounters, TierKind, open_tier
from aostore.wire import ServerCore, TcpServer

TIERS = {TierKind.DRAM: MEDIA_DRAM, TierKind.NVM_DIRECT: MEDIA_NVM}
# bytes per tier: room for the 41 largest blocks that the at most 41 steps of a
# program can store, and small enough that the block of the no-room rule is cheap
CAPACITY = 1 << 20
# 45x45 is the largest block whose persist frame is below GATHER_LIMIT, 46x46 the smallest above
SIDES = (8, 45, 46)
EXACT = 2.0**53  # below it a float64 holds every integer

_tiers = st.sampled_from(list(TIERS))
_seeds = st.integers(0, 2**32 - 1)


def _block(seed: int, side: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(-3, 4, (side, side)).astype(np.float64)


class _Object:
    def __init__(self, values: np.ndarray, tier: TierKind):
        self.values, self.tier, self.reads = values, tier, 0


class LoopbackTcpLockstep(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="lockstep-"))
        self.engines, self.cores, self.sessions = [], [], []
        self.server = None
        for name in ("loopback", "tcp"):
            tiers = {
                TierKind.DRAM: open_tier(TierKind.DRAM, ArenaConfig(capacity_bytes=CAPACITY)),
                TierKind.NVM_DIRECT: open_tier(
                    TierKind.NVM_DIRECT,
                    ArenaConfig(path=self.dir / f"{name}.arena", capacity_bytes=CAPACITY),
                ),
            }
            engine = Engine(tiers, build_catalog(), ObjectIdFactory(7))
            if name == "tcp":
                self.server = TcpServer(engine)
                core = self.server.core
                session = Session.connect_tcp(self.server.host, self.server.port)
            else:
                core = ServerCore(engine)
                session = Session.connect_loopback(core)
            self.engines.append(engine)
            self.cores.append(core)
            self.sessions.append(session)
            ensure_kernel_registration(session)
        self.model: dict = {}  # object id -> _Object
        self.deleted: list = []
        # per tier: bytes read, bytes written, read ops, write ops
        self.io = {kind: [0, 0, 0, 0] for kind in TIERS}

    def teardown(self):
        for session in self.sessions:
            session.close()
        if self.server is not None:
            self.server.stop()
        for engine in self.engines:
            engine.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- helpers -------------------------------------------------------------------

    def both(self, call):
        """``call(session)`` on each session: the one reply both gave, or the
        error both raised, which must have the same code and message."""
        outcomes = []
        for session in self.sessions:
            try:
                outcomes.append((call(session), None))
            except StoreError as exc:
                outcomes.append((None, exc))
        (a, a_err), (b, b_err) = outcomes
        if a_err or b_err:
            assert (type(a_err), str(a_err)) == (type(b_err), str(b_err))
            return a_err
        if isinstance(a, Submatrix):
            assert a.values.tobytes() == b.values.tobytes()
        else:
            assert a == b
        return a

    def read(self, oid) -> None:
        """Count a read of the object's region, as its tier does."""
        obj = self.model[oid]
        io = self.io[obj.tier]
        io[0] += obj.values.nbytes
        io[2] += 1

    def write(self, tier: TierKind, nbytes: int) -> None:
        io = self.io[tier]
        io[1] += nbytes
        io[3] += 1

    def store(self, oid, values: np.ndarray, tier: TierKind) -> None:
        assert oid not in self.model
        self.model[oid] = _Object(values, tier)
        self.write(tier, values.nbytes)

    def pick(self, data, side=None, but=None):
        """A live object, of side ``side`` if given, other than ``but``; None if there is none."""
        ids = [oid for oid, obj in sorted(self.model.items())
               if (side is None or len(obj.values) == side) and oid != but]
        return data.draw(st.sampled_from(ids)) if ids else None

    # -- rules ---------------------------------------------------------------------

    @initialize(side=st.sampled_from(SIDES), tier=_tiers, seed=_seeds)
    def first_object(self, side, tier, seed):
        self.persist(side, tier, seed)

    @rule(side=st.sampled_from(SIDES), tier=_tiers, seed=_seeds)
    def persist(self, side, tier, seed):
        values = _block(seed, side)
        oid = self.both(lambda s: s.make_persistent(MATRIX_CLASS, Submatrix(values), tier))
        self.store(oid, values, tier)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def get(self, data):
        oid = self.pick(data)
        got = self.both(lambda s: s.get(oid))
        self.read(oid)
        self.model[oid].reads += 1
        assert np.array_equal(got.values, self.model[oid].values)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), by_value=st.booleans(), seed=_seeds,
          tier=st.sampled_from([None, *TIERS]))
    def add(self, data, by_value, seed, tier):
        """``add`` with its argument by reference or by value, and its result
        by value or stored in a tier."""
        target = self.pick(data)
        a = self.model[target]
        side = len(a.values)
        arg = None if by_value else self.pick(data, side)
        b = _block(seed, side) if arg is None else self.model[arg].values
        argument = Submatrix(b) if arg is None else arg
        placement = ResultPlacement(tier)
        got = self.both(lambda s: s.invoke(target, "add", [argument], placement))
        expected = a.values + b
        self.read(target)
        a.reads += 1
        if arg is not None:
            self.read(arg)
            self.model[arg].reads += 1
        if tier is None:
            assert np.array_equal(got.values, expected)
        else:
            self.store(got, expected, tier)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), by_value=st.tuples(st.booleans(), st.booleans()),
          seeds=st.tuples(_seeds, _seeds))
    def fma(self, data, by_value, seeds):
        """``fma`` in place. Each argument is drawn by value or by reference;
        one drawn by reference goes by value when no other object of the
        target's side lives."""
        target = self.pick(data)
        acc = self.model[target]
        side = len(acc.values)
        args = [None if value else self.pick(data, side, but=target) for value in by_value]
        arrays = [_block(seed, side) if arg is None else self.model[arg].values
                  for arg, seed in zip(args, seeds)]
        a, b = arrays
        if (np.abs(acc.values) + np.abs(a) @ np.abs(b)).max() >= EXACT:
            return  # a sum might round, and its value then depend on the order of its terms
        arguments = [Submatrix(v) if arg is None else arg for arg, v in zip(args, arrays)]
        assert self.both(lambda s: s.invoke(target, "fma", arguments)) is None
        self.read(target)  # the engine reads the target, but counts no read of it
        for arg in args:
            if arg is not None:
                self.read(arg)
                self.model[arg].reads += 1
        acc.values = acc.values + a @ b
        self.write(acc.tier, acc.values.nbytes)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), tier=_tiers)
    def identity(self, data, tier):
        oid = self.pick(data)
        new = self.both(lambda s: s.invoke(oid, "identity", [], ResultPlacement.store_in(tier)))
        self.read(oid)
        self.model[oid].reads += 1
        self.store(new, self.model[oid].values.copy(), tier)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        oid = self.pick(data)
        assert self.both(lambda s: s.delete(oid)) is None
        del self.model[oid]
        self.deleted.append(oid)

    @rule(tier=st.sampled_from([None, *TIERS]))
    def flush(self, tier):
        """A flush of one tier or of all moves no object and no counter."""
        assert self.both(lambda s: s.flush(tier)) is None

    # -- requests that fail before any read ----------------------------------------

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def unknown_method(self, data):
        oid = self.pick(data)
        assert isinstance(self.both(lambda s: s.invoke(oid, "no_such_method")), UnknownNameError)

    @precondition(lambda self: self.model and self.deleted)
    @rule(data=st.data(), as_target=st.booleans())
    def deleted_id(self, data, as_target):
        gone = data.draw(st.sampled_from(self.deleted))
        if as_target:
            call = lambda s: s.get(gone)
        else:
            oid = self.pick(data)
            call = lambda s: s.invoke(oid, "add", [gone])
        assert isinstance(self.both(call), NotFoundError)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), first=st.booleans())
    def fma_aliasing_its_target(self, data, first):
        oid = self.pick(data)
        side = len(self.model[oid].values)
        other = self.pick(data, side, but=oid) or Submatrix(np.zeros((side, side)))
        args = [oid, other] if first else [other, oid]
        error = self.both(lambda s: s.invoke(oid, "fma", args))
        assert isinstance(error, InvalidRequestError)

    @rule(side=st.sampled_from((8, 46)), tier=_tiers)
    def persist_unknown_class(self, side, tier):
        """A small frame, and one large enough that a TCP server receives
        only its prefix before the request fails, and drops the rest. Its
        zero bytes, read as the next frame, would be refused at once."""
        payload = Submatrix(np.zeros((side, side)))
        error = self.both(lambda s: s.make_persistent("NoSuchClass", payload, tier))
        assert isinstance(error, UnknownNameError)

    @rule(tier=_tiers)
    def no_room(self, tier):
        """The smallest block larger than the tier's free space, by the
        model's count: a frame far above GATHER_LIMIT, so a TCP server
        refuses it with only its prefix in hand, and drops the rest."""
        free = CAPACITY - sum(obj.values.nbytes for obj in self.model.values() if obj.tier == tier)
        side = math.isqrt(free // 8) + 1
        payload = Submatrix(np.zeros((side, side)))
        error = self.both(lambda s: s.make_persistent(MATRIX_CLASS, payload, tier))
        assert isinstance(error, CapacityError)

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def stores_match_the_model(self):
        reads = {oid: obj.reads for oid, obj in self.model.items()}
        for engine in self.engines:
            assert engine.read_counts() == reads
            for kind, medium in TIERS.items():
                handle = engine.tier(kind)
                mine = [obj for obj in self.model.values() if obj.tier == kind]
                assert handle.used_bytes == sum(obj.values.nbytes for obj in mine)
                r, w, r_ops, w_ops = self.io[kind]
                assert handle.media_counters() == {medium: TierCounters(r, w, 0, 0, r_ops, w_ops)}
            for oid, obj in self.model.items():
                region = np.frombuffer(engine.tier(obj.tier).read_view(oid), np.float64)
                assert np.array_equal(region, obj.values.ravel())
        for oid in self.model:
            self.read(oid)  # the read back just made, on each store

    @invariant()
    def transports_count_alike(self):
        loopback, tcp = self.sessions
        assert loopback.counters() == tcp.counters()
        assert self.cores[0].wire_counters() == self.cores[1].wire_counters()


LoopbackTcpLockstep.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestLoopbackTcpLockstep = LoopbackTcpLockstep.TestCase
