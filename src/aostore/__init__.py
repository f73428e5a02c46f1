"""aostore: a single-node active object store over emulated DRAM/NVM tiers.

Clients register datasets as blocked objects and ship named computations that
execute inside the store; a passive get/put path runs the same kernels
client-side for comparison. Instrumented byte counters on the wire and in the
tiers make data-movement behaviour measurable and deterministic.
"""

from .engine import ByRef, ByValue, Engine, ResultPlacement, RoutineCatalog
from .client import Session, Stub
from .model import (
    BlockPayload,
    Centroids,
    ClassDescriptor,
    FloatArray,
    Histogram,
    MethodDescriptor,
    ObjectId,
    ObjectIdFactory,
    PointsBlock,
    Submatrix,
    decode_payload,
    encode_payload,
)
from .tiers import ArenaConfig, TierCounters, TierKind, open_tier
from .wire import LoopbackConnection, ServerCore, TcpConnection, TcpServer

__version__ = "0.1.0"

__all__ = [
    "ArenaConfig",
    "BlockPayload",
    "ByRef",
    "ByValue",
    "Centroids",
    "ClassDescriptor",
    "Engine",
    "FloatArray",
    "Histogram",
    "LoopbackConnection",
    "MethodDescriptor",
    "ObjectId",
    "ObjectIdFactory",
    "PointsBlock",
    "ResultPlacement",
    "RoutineCatalog",
    "ServerCore",
    "Session",
    "Stub",
    "Submatrix",
    "TcpConnection",
    "TcpServer",
    "TierCounters",
    "TierKind",
    "decode_payload",
    "encode_payload",
    "open_tier",
]
