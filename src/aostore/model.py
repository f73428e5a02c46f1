"""Object identities, class/method descriptors, and the block payload codec.

Payload wire encoding (little-endian, shared by the RPC protocol):

    FloatArray   tag=1 | count u64          | count   f64
    PointsBlock  tag=2 | rows u64, dims u64 | rows*dims f64 (row major)
    Submatrix    tag=3 | k u64              | k*k     f64 (row major)
    Histogram    tag=4 | bins u64           | bins    u64
    Centroids    tag=5 | rows u64, dims u64 | rows*dims f64 (row major)

Memory tiers hold only the raw data section; the engine keeps (variant, shape)
per object, so tier byte counters account exactly ``8 * element_count`` per
payload.
"""

from __future__ import annotations

import math
import random
import secrets
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidRequestError, PayloadError

F64 = np.dtype("<f8")
U64 = np.dtype("<u8")

TAG_FLOAT_ARRAY = 1
TAG_POINTS = 2
TAG_SUBMATRIX = 3
TAG_HISTOGRAM = 4
TAG_CENTROIDS = 5

# Semantic type tags used in method/argument schemas.
SEM_FLOAT_ARRAY = "f64_array"
SEM_POINTS = "points"
SEM_SUBMATRIX = "submatrix"
SEM_HISTOGRAM = "histogram"
SEM_CENTROIDS = "centroids"
SEM_SCALAR = "scalar"
SEM_NONE = "none"


@dataclass(frozen=True)
class ObjectId:
    """128-bit opaque object identity."""

    raw: bytes

    def __post_init__(self) -> None:
        if len(self.raw) != 16:
            raise InvalidRequestError(f"object id must be 16 bytes, got {len(self.raw)}")

    def hex(self) -> str:
        return self.raw.hex()

    def __repr__(self) -> str:
        return f"ObjectId({self.raw.hex()})"


class ObjectIdFactory:
    """Generates unique 128-bit ids; seedable so tests can pin id streams."""

    def __init__(self, seed: int | None = None):
        self._rng = random.Random(seed) if seed is not None else None

    def new_object_id(self) -> ObjectId:
        if self._rng is not None:
            return ObjectId(self._rng.getrandbits(128).to_bytes(16, "little"))
        return ObjectId(secrets.token_bytes(16))


@dataclass(frozen=True)
class ClassDescriptor:
    """Schema of a registered class: named typed attributes plus method names."""

    class_name: str
    fields: tuple[tuple[str, str], ...] = ()
    methods: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.class_name:
            raise InvalidRequestError("class name must be non-empty")
        names = [n for n, _ in self.fields]
        if len(set(names)) != len(names):
            raise InvalidRequestError(f"duplicate field name in class {self.class_name!r}")
        if len(set(self.methods)) != len(self.methods):
            raise InvalidRequestError(f"duplicate method name in class {self.class_name!r}")


@dataclass(frozen=True)
class MethodDescriptor:
    """Binding of (class, method) to a server-side routine."""

    class_name: str
    method_name: str
    routine_key: str
    arg_schema: tuple[str, ...] = ()
    result_schema: str = SEM_NONE
    mutates_target: bool = False


class BlockPayload:
    """Base for the block payload variants; value semantics, bit-exact equality.

    Subclasses validate and keep their array in ``_values``; their encoded
    shape fields are the array's shape unless they say otherwise.
    """

    tag: int = 0
    semantic: str = ""
    _values: np.ndarray

    @property
    def values(self) -> np.ndarray:
        return self._values

    def shape_fields(self) -> tuple[int, ...]:
        return self._values.shape

    @classmethod
    def array_shape(cls, shape_fields: tuple[int, ...]) -> tuple[int, ...]:
        """Shape of the values array that ``shape_fields`` describe."""
        return tuple(shape_fields)

    @property
    def element_count(self) -> int:
        return int(self.values.size)

    def data_bytes(self) -> bytes:
        """Raw data section, exactly what a tier region holds."""
        return np.ascontiguousarray(self.values).tobytes()

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        assert isinstance(other, BlockPayload)
        return (
            self.shape_fields() == other.shape_fields()
            and self.data_bytes() == other.data_bytes()
        )

    def __hash__(self) -> int:  # payloads are not meant to be dict keys
        return id(self)


class FloatArray(BlockPayload):
    tag = TAG_FLOAT_ARRAY
    semantic = SEM_FLOAT_ARRAY

    def __init__(self, values):
        arr = np.asarray(values, dtype=F64)
        if arr.ndim != 1:
            raise PayloadError(f"float array must be 1-d, got shape {arr.shape}")
        self._values = arr

    def __repr__(self) -> str:
        return f"FloatArray(n={self._values.shape[0]})"


class _Matrix2D(BlockPayload):
    """Shared shape handling for rows x dims float blocks."""

    def __init__(self, values, rows: int | None = None, dims: int | None = None):
        arr = np.asarray(values, dtype=F64)
        if arr.ndim == 1 and rows is not None and dims is not None:
            arr = arr.reshape(rows, dims)
        if arr.ndim != 2:
            raise PayloadError(f"{type(self).__name__} expects a rows x dims matrix")
        if rows is not None and arr.shape[0] != rows:
            raise PayloadError(f"row count mismatch: declared {rows}, got {arr.shape[0]}")
        if dims is not None and arr.shape[1] != dims:
            raise PayloadError(f"dim count mismatch: declared {dims}, got {arr.shape[1]}")
        self._values = arr

    @property
    def rows(self) -> int:
        return int(self._values.shape[0])

    @property
    def dims(self) -> int:
        return int(self._values.shape[1])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.rows}x{self.dims})"


class PointsBlock(_Matrix2D):
    tag = TAG_POINTS
    semantic = SEM_POINTS


class Centroids(_Matrix2D):
    tag = TAG_CENTROIDS
    semantic = SEM_CENTROIDS


class Submatrix(BlockPayload):
    tag = TAG_SUBMATRIX
    semantic = SEM_SUBMATRIX

    def __init__(self, values, k: int | None = None):
        arr = np.asarray(values, dtype=F64)
        if arr.ndim == 1 and k is not None:
            if arr.size != k * k:
                raise PayloadError(f"length mismatch: submatrix k={k} expects {k * k} values, got {arr.size}")
            arr = arr.reshape(k, k)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise PayloadError(f"submatrix must be square, got shape {arr.shape}")
        if k is not None and arr.shape[0] != k:
            raise PayloadError(f"length mismatch: declared k={k}, got side {arr.shape[0]}")
        self._values = arr

    @property
    def k(self) -> int:
        return int(self._values.shape[0])

    def shape_fields(self) -> tuple[int, ...]:
        return (self.k,)

    @classmethod
    def array_shape(cls, shape_fields: tuple[int, ...]) -> tuple[int, ...]:
        return (shape_fields[0], shape_fields[0])

    def __repr__(self) -> str:
        return f"Submatrix(k={self.k})"


class Histogram(BlockPayload):
    tag = TAG_HISTOGRAM
    semantic = SEM_HISTOGRAM

    def __init__(self, counts):
        arr = np.asarray(counts, dtype=U64)
        if arr.ndim != 1:
            raise PayloadError(f"histogram counts must be 1-d, got shape {arr.shape}")
        self._values = arr

    @property
    def counts(self) -> np.ndarray:
        return self._values

    def __repr__(self) -> str:
        return f"Histogram(bins={self._values.shape[0]})"


class _Variant(NamedTuple):
    """One row of the payload layout: class, u64 shape fields after the tag,
    and the element type of the data section."""

    cls: type[BlockPayload]
    shape_count: int
    dtype: np.dtype


_VARIANTS: dict[int, _Variant] = {
    TAG_FLOAT_ARRAY: _Variant(FloatArray, 1, F64),
    TAG_POINTS: _Variant(PointsBlock, 2, F64),
    TAG_SUBMATRIX: _Variant(Submatrix, 1, F64),
    TAG_HISTOGRAM: _Variant(Histogram, 1, U64),
    TAG_CENTROIDS: _Variant(Centroids, 2, F64),
}


def _variant(tag: int, where: str = "") -> _Variant:
    try:
        return _VARIANTS[tag]
    except KeyError:
        raise PayloadError(f"unknown variant tag 0x{tag:02x}{where}") from None


def _data_length(variant: _Variant, shape: tuple[int, ...]) -> int:
    return 8 * math.prod(variant.cls.array_shape(shape))


def _build_payload(variant: _Variant, shape: tuple[int, ...], data) -> BlockPayload:
    arr = np.frombuffer(data, dtype=variant.dtype)
    return variant.cls(arr.reshape(variant.cls.array_shape(shape)))


def payload_size_bytes(p: BlockPayload) -> int:
    """Exact data size in bytes, excluding the tag/shape framing."""
    return 8 * p.element_count


def encoded_size(p: BlockPayload) -> int:
    return 1 + 8 * len(p.shape_fields()) + payload_size_bytes(p)


def encode_payload(p: BlockPayload) -> bytes:
    """Self-describing little-endian encoding: tag, shape as u64, raw data.
    The data is copied once, straight from the array into the result."""
    shape = p.shape_fields()
    header = struct.pack(f"<B{len(shape)}Q", p.tag, *shape)
    return b"".join((header, np.ascontiguousarray(p.values)))


def encoded_length(data: bytes | memoryview) -> int:
    """Length of the encoded payload at the start of ``data``, read from its
    tag and shape; ``data`` may continue past it."""
    variant, shape, offset = _decode_header(data)
    return offset + _data_length(variant, shape)


def decode_payload(data: bytes | memoryview) -> BlockPayload:
    """Inverse of :func:`encode_payload`; always copies out of ``data``."""
    variant, shape, offset = _decode_header(data)
    expected = _data_length(variant, shape)
    got = len(data) - offset
    if got != expected:
        raise PayloadError(
            f"length mismatch: variant tag {data[0]} with shape {shape} expects "
            f"{expected} data bytes at offset {offset}, got {got}"
        )
    return _build_payload(variant, shape, bytes(data[offset:]))


def _decode_header(data: bytes | memoryview) -> tuple[_Variant, tuple[int, ...], int]:
    if len(data) < 1:
        raise PayloadError("truncated payload: missing variant tag at offset 0")
    variant = _variant(data[0], " at offset 0")
    need = 1 + 8 * variant.shape_count
    if len(data) < need:
        raise PayloadError(
            f"truncated payload: need {need} header bytes at offset 1, have {len(data)}"
        )
    return variant, struct.unpack_from(f"<{variant.shape_count}Q", data, 1), need


def payload_from_region(tag: int, shape: tuple[int, ...], region: memoryview) -> BlockPayload:
    """Zero-copy payload over a tier region holding the raw data section.

    The resulting arrays alias ``region``: mutations through the buffer are
    visible and, on a writable region, mutating the array writes through.
    """
    variant = _variant(tag)
    expected = _data_length(variant, shape)
    if len(region) != expected:
        raise PayloadError(
            f"length mismatch: region holds {len(region)} bytes, variant needs {expected}"
        )
    return _build_payload(variant, shape, region)
