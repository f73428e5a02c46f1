from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from aostore.errors import PayloadError
from aostore.model import (
    Centroids,
    ClassDescriptor,
    FloatArray,
    Histogram,
    ObjectId,
    ObjectIdFactory,
    PointsBlock,
    Submatrix,
    decode_payload,
    encode_payload,
    encoded_size,
    region_reader,
)


class TestObjectIds:
    def test_consecutive_ids_distinct(self):
        factory = ObjectIdFactory()
        assert factory.new_object_id() != factory.new_object_id()

    def test_seeded_stream_reproducible(self):
        a = ObjectIdFactory(seed=123)
        b = ObjectIdFactory(seed=123)
        assert [a.new_object_id() for _ in range(5)] == [b.new_object_id() for _ in range(5)]

    def test_million_draws_unique(self):
        factory = ObjectIdFactory(seed=7)
        seen = {bytes(factory.new_object_id()) for _ in range(10**6)}
        assert len(seen) == 10**6

    def test_bad_length_rejected(self):
        with pytest.raises(Exception):
            ObjectId(b"short")

    def test_hashes_and_compares_as_its_raw_bytes(self):
        raw = bytes(range(16))
        oid = ObjectId(bytearray(raw))
        assert oid == ObjectId(raw) and oid != ObjectId(bytes(16))
        assert hash(oid) == hash(raw)
        assert bytes(oid) == raw
        assert oid.hex() == raw.hex()
        assert repr(oid) == str(oid) == f"ObjectId({raw.hex()})"
        assert {oid: 1}[ObjectId(raw)] == 1

    def test_immutable(self):
        oid = ObjectId(bytes(16))
        with pytest.raises(AttributeError):
            oid.raw = bytes(range(16))
        with pytest.raises(AttributeError):
            oid.extra = 1


def _floats(n):
    return st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=n, max_size=n
    )


payloads = st.one_of(
    st.integers(0, 40).flatmap(lambda n: _floats(n).map(FloatArray)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda rd: _floats(rd[0] * rd[1]).map(
            lambda vals: PointsBlock(np.array(vals).reshape(rd))
        )
    ),
    st.integers(1, 6).flatmap(
        lambda k: _floats(k * k).map(lambda vals: Submatrix(np.array(vals).reshape(k, k)))
    ),
    st.lists(st.integers(0, 2**63), min_size=1, max_size=40).map(Histogram),
    st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda rd: _floats(rd[0] * rd[1]).map(
            lambda vals: Centroids(np.array(vals).reshape(rd))
        )
    ),
)


class TestCodec:
    def test_empty_float_array_is_nine_bytes(self):
        assert len(encode_payload(FloatArray([]))) == 9

    def test_submatrix_k2_is_41_bytes(self):
        encoded = encode_payload(Submatrix(np.array([[1.0, 2.0], [3.0, 4.0]])))
        assert len(encoded) == 1 + 8 + 32 == 41

    @given(payloads)
    def test_round_trip(self, payload):
        assert decode_payload(encode_payload(payload)) == payload

    @given(payloads)
    def test_size_law(self, payload):
        encoded = encode_payload(payload)
        assert len(encoded) == encoded_size(payload)
        assert payload.values.nbytes == 8 * payload.element_count
        assert len(encoded) == 1 + 8 * len(payload.shape_fields()) + payload.values.nbytes

    def test_unknown_tag(self):
        with pytest.raises(PayloadError, match="unknown variant"):
            decode_payload(b"\xff" + b"\x00" * 16)

    def test_submatrix_length_mismatch(self):
        # header claims k=3 but only 4 values follow
        bad = b"\x03" + (3).to_bytes(8, "little") + np.zeros(4).tobytes()
        with pytest.raises(PayloadError, match="length mismatch"):
            decode_payload(bad)

    def test_truncated_header_names_offset(self):
        with pytest.raises(PayloadError, match="offset"):
            decode_payload(b"\x01\x01")

    def test_empty_buffer(self):
        with pytest.raises(PayloadError, match="offset 0"):
            decode_payload(b"")

    def test_declared_shape_checked(self):
        with pytest.raises(PayloadError, match="square"):
            Submatrix(np.zeros(4))

    def test_sizes_match_paper_constants(self):
        assert FloatArray(np.zeros(1000)).values.nbytes == 8000
        assert PointsBlock(np.zeros((100, 500))).values.nbytes == 400000
        # constant k-means output: 20 centroids x 500 dims = 80 kB
        assert Centroids(np.zeros((20, 500))).values.nbytes == 80000


class TestZeroCopyView:
    def test_view_aliases_buffer(self):
        payload = FloatArray([1.0, 2.0, 3.0])
        buf = bytearray(payload.data_view())
        view = region_reader(payload.tag, payload.shape_fields())(memoryview(buf))
        buf[0:8] = np.float64(9.5).tobytes()
        assert view.values[0] == 9.5

    def test_writable_view_writes_through(self):
        buf = bytearray(np.zeros(4).tobytes())
        view = region_reader(1, (4,))(memoryview(buf))
        view.values[2] = 7.0
        assert np.frombuffer(buf, dtype="<f8")[2] == 7.0

    def test_region_length_checked(self):
        with pytest.raises(PayloadError, match="length mismatch"):
            region_reader(3, (3,))(memoryview(bytearray(32)))


class TestDecodeOwnership:
    @pytest.mark.parametrize("lead", range(8))
    def test_copy_is_owned_and_aligned_at_any_offset(self, lead):
        payload = Submatrix(np.arange(16.0).reshape(4, 4))
        buf = bytearray(lead) + bytearray(encode_payload(payload))
        decoded = decode_payload(memoryview(buf)[lead:])
        buf[lead + 9 :] = bytes(len(buf) - lead - 9)
        assert decoded == payload
        assert decoded.values.flags.owndata and decoded.values.flags.aligned
        assert not np.shares_memory(decoded.values, np.frombuffer(buf, np.uint8))

    def test_view_aliases_its_frame(self):
        payload = FloatArray([1.0, 2.0])
        buf = bytearray(b"\x00" + encode_payload(payload))
        decoded = decode_payload(memoryview(buf)[1:], copy=False)
        assert decoded == payload
        assert not decoded.values.flags.aligned  # the data starts at offset 10
        buf[10:18] = np.float64(9.5).tobytes()
        assert decoded.values[0] == 9.5

    def test_encoding_into_a_list_copies_nothing(self):
        payload = PointsBlock(np.ones((3, 2)))
        parts = []
        assert encode_payload(payload, parts) is None
        header, data = parts
        assert header + bytes(data) == encode_payload(payload)
        assert np.shares_memory(np.frombuffer(data, np.uint8), payload.values)

    def test_empty_2d_payload_has_an_empty_data_view(self):
        assert len(PointsBlock(np.zeros((0, 3))).data_view()) == 0
        assert decode_payload(encode_payload(Submatrix(np.zeros((0, 0))))) == Submatrix(
            np.zeros((0, 0))
        )


class TestDescriptors:
    def test_duplicate_field_names_rejected(self):
        with pytest.raises(Exception, match="duplicate field"):
            ClassDescriptor("C", (("a", "t"), ("a", "t")))

    def test_empty_class_name_rejected(self):
        with pytest.raises(Exception, match="non-empty"):
            ClassDescriptor("")
