"""Object identities, class/method descriptors, and the block payload codec.

Payload wire encoding (little-endian, shared by the RPC protocol):

    FloatArray   tag=1 | count u64          | count   f64
    PointsBlock  tag=2 | rows u64, dims u64 | rows*dims f64 (row major)
    Submatrix    tag=3 | k u64              | k*k     f64 (row major)
    Histogram    tag=4 | bins u64           | bins    u64
    Centroids    tag=5 | rows u64, dims u64 | rows*dims f64 (row major)

Memory tiers hold only the raw data section; the engine keeps the rest, a
:class:`Schema`, per object, so tier byte counters account exactly
``8 * element_count`` per payload.
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


class ObjectId(bytes):
    """128-bit opaque object identity: its 16 raw bytes, so it hashes and
    compares as those bytes do, in C (it equals the bytes it was made from),
    and is immutable like them."""

    __slots__ = ()

    def __new__(cls, raw) -> "ObjectId":
        if len(raw) != 16:
            raise InvalidRequestError(f"object id must be 16 bytes, got {len(raw)}")
        return bytes.__new__(cls, raw)

    def __repr__(self) -> str:
        return f"ObjectId({self.hex()})"

    __str__ = __repr__


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


class Schema(NamedTuple):
    """A payload less its data: the variant tag and the shape fields. The
    engine keeps one per object while a tier holds the data section, and
    every payload over a raw data section, in a tier region or a frame, is
    built by :meth:`view`."""

    tag: int
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """The length of the data section."""
        return 8 * math.prod(_variant(self.tag).array_shape(self.shape))

    def view(self, region: bytes | memoryview, copy: bool = False) -> BlockPayload:
        """The payload whose data section is ``region``. Its array aliases
        ``region``, copying nothing: changes to the region show through it
        and, on a writable region, writing the array writes the region; it is
        unaligned when the region does not start at an address that is a
        multiple of 8. With ``copy``, the array is a fresh, aligned copy of
        the region instead, which the caller owns."""
        expected = self.nbytes
        if len(region) != expected:
            raise PayloadError(
                f"length mismatch: variant tag {self.tag} with shape {self.shape} expects "
                f"{expected} data bytes, got {len(region)}"
            )
        variant = _VARIANTS[self.tag]
        values = np.frombuffer(region, variant.dtype).reshape(variant.array_shape(self.shape))
        return variant(values.copy() if copy else values)


class BlockPayload:
    """Base for the block payload variants; value semantics, bit-exact equality.

    Each variant declares its layout on its class: the element type of the
    data section, the dimensions of its values array, and how many u64 shape
    fields follow the tag in the encoding. Those fields are the array's shape
    unless the variant says otherwise.
    """

    tag: int = 0
    semantic: str = ""
    dtype: np.dtype = F64
    ndim: int = 1
    shape_count: int = 1
    _values: np.ndarray

    def __init__(self, values):
        arr = np.asarray(values, dtype=self.dtype)
        if arr.ndim != self.ndim:
            raise PayloadError(
                f"{type(self).__name__} expects a {self.ndim}-d array, got shape {arr.shape}"
            )
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        return self._values

    def shape_fields(self) -> tuple[int, ...]:
        return self._values.shape

    def schema(self) -> Schema:
        return Schema(self.tag, self.shape_fields())

    @classmethod
    def array_shape(cls, shape_fields: tuple[int, ...]) -> tuple[int, ...]:
        """Shape of the values array that ``shape_fields`` describe."""
        return tuple(shape_fields)

    @property
    def element_count(self) -> int:
        return int(self.values.size)

    def data_view(self) -> memoryview:
        """The raw data section as a flat byte view, without a copy when the
        array is contiguous; what a tier stores."""
        return memoryview(np.ascontiguousarray(self.values).reshape(-1)).cast("B")

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        assert isinstance(other, BlockPayload)
        return (
            self.shape_fields() == other.shape_fields()
            and self.data_view() == other.data_view()
        )

    def __hash__(self) -> int:  # payloads are not meant to be dict keys
        return id(self)


class FloatArray(BlockPayload):
    tag = TAG_FLOAT_ARRAY
    semantic = SEM_FLOAT_ARRAY

    def __repr__(self) -> str:
        return f"FloatArray(n={self._values.shape[0]})"


class _Matrix2D(BlockPayload):
    """Shared shape handling for rows x dims float blocks."""

    ndim = 2
    shape_count = 2

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
    ndim = 2

    def __init__(self, values):
        shape = np.shape(values)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise PayloadError(f"submatrix must be square, got shape {shape}")
        super().__init__(values)

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
    dtype = U64

    @property
    def counts(self) -> np.ndarray:
        return self._values

    def __repr__(self) -> str:
        return f"Histogram(bins={self._values.shape[0]})"


_VARIANTS: dict[int, type[BlockPayload]] = {
    cls.tag: cls for cls in (FloatArray, PointsBlock, Submatrix, Histogram, Centroids)
}


def _variant(tag: int, where: str = "") -> type[BlockPayload]:
    try:
        return _VARIANTS[tag]
    except KeyError:
        raise PayloadError(f"unknown variant tag 0x{tag:02x}{where}") from None


def header_length(tag: int) -> int:
    """The length of the header (tag and shape fields) of an encoded payload
    of variant ``tag``; 1 for an unknown tag, which :func:`decode_header` rejects."""
    variant = _VARIANTS.get(tag)
    return 1 + 8 * variant.shape_count if variant else 1


def encoded_size(p: BlockPayload) -> int:
    return 1 + 8 * len(p.shape_fields()) + p.values.nbytes


def encode_payload(p: BlockPayload, out: list | None = None) -> bytes | None:
    """Self-describing little-endian encoding: tag, shape as u64, raw data.
    The data is copied once, straight from the array into the result. With
    ``out``, the header and a flat byte view of the data section are
    appended to that list instead, and nothing is copied."""
    shape = p.shape_fields()
    header = struct.pack(f"<B{len(shape)}Q", p.tag, *shape)
    if out is None:
        return b"".join((header, np.ascontiguousarray(p.values)))
    out += (header, p.data_view())
    return None


def decode_payload(
    data: bytes | memoryview, copy: bool = True, whole: bool = True
) -> BlockPayload:
    """Inverse of :func:`encode_payload`: the payload over the data section
    of ``data`` (see :meth:`Schema.view`). By default its array is a fresh,
    aligned copy, which the caller owns; with ``copy=False`` it is a view of
    ``data``. ``data`` holds the payload and nothing more, unless ``whole``
    is false: then the payload is the one at its start, and ``data`` may
    continue past it."""
    schema, offset = decode_header(data)
    end = None if whole else offset + schema.nbytes
    return schema.view(memoryview(data)[offset:end], copy)


def decode_header(data: bytes | memoryview) -> tuple[Schema, int]:
    """The schema and header length of the encoded payload at the start of
    ``data``, which need hold only its header."""
    if len(data) < 1:
        raise PayloadError("truncated payload: missing variant tag at offset 0")
    variant = _variant(data[0], " at offset 0")
    need = 1 + 8 * variant.shape_count
    if len(data) < need:
        raise PayloadError(
            f"truncated payload: need {need} header bytes at offset 1, have {len(data)}"
        )
    return Schema(variant.tag, struct.unpack_from(f"<{variant.shape_count}Q", data, 1)), need
