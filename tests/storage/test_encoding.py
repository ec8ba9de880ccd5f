"""Tests for order-preserving key encoding and posting-list codecs."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import KeyEncodingError
from repro.storage import (
    decode_key,
    decode_uvarint,
    encode_key,
    encode_uvarint,
    key_prefix_upper_bound,
)

key_parts = st.lists(
    st.one_of(
        st.text(max_size=8),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
    ),
    max_size=4,
)


class TestUvarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 1 << 20, 1 << 62])
    def test_roundtrip(self, value):
        data = encode_uvarint(value)
        decoded, offset = decode_uvarint(data)
        assert decoded == value
        assert offset == len(data)

    def test_negative_rejected(self):
        with pytest.raises(KeyEncodingError):
            encode_uvarint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(KeyEncodingError):
            decode_uvarint(b"\x80")

    def test_small_values_one_byte(self):
        assert len(encode_uvarint(127)) == 1
        assert len(encode_uvarint(128)) == 2

    @given(st.integers(min_value=0, max_value=(1 << 63) - 1))
    def test_roundtrip_property(self, value):
        assert decode_uvarint(encode_uvarint(value))[0] == value


class TestKeyEncoding:
    def test_string_roundtrip(self):
        assert decode_key(encode_key(("hello",))) == ("hello",)

    def test_mixed_roundtrip(self):
        key = ("word", 42, "tail")
        assert decode_key(encode_key(key)) == key

    def test_embedded_nul(self):
        key = ("a\x00b",)
        assert decode_key(encode_key(key)) == key

    def test_unicode(self):
        key = ("prüfung", 1)
        assert decode_key(encode_key(key)) == key

    def test_rejects_negative_int(self):
        with pytest.raises(KeyEncodingError):
            encode_key((-1,))

    def test_rejects_bool(self):
        with pytest.raises(KeyEncodingError):
            encode_key((True,))

    def test_rejects_float(self):
        with pytest.raises(KeyEncodingError):
            encode_key((1.5,))

    @given(key_parts)
    def test_roundtrip_property(self, parts):
        parts = tuple(parts)
        assert decode_key(encode_key(parts)) == parts

    @given(key_parts, key_parts)
    def test_order_preserved(self, a, b):
        """Byte order must equal tuple order for same-shaped tuples."""
        a, b = tuple(a), tuple(b)
        shapes_match = len(a) == len(b) and all(
            type(x) is type(y) for x, y in zip(a, b)
        )
        if not shapes_match:
            return
        assert (encode_key(a) < encode_key(b)) == (a < b)

    @given(key_parts, key_parts)
    def test_prefix_sorts_first(self, prefix, extra):
        prefix, extra = tuple(prefix), tuple(extra)
        if not extra:
            return
        assert encode_key(prefix) <= encode_key(prefix + extra)


class TestPrefixUpperBound:
    def test_simple(self):
        prefix = encode_key(("abc",))
        hi = key_prefix_upper_bound(prefix)
        assert prefix < hi

    def test_extension_within_bound(self):
        prefix = encode_key(("abc",))
        hi = key_prefix_upper_bound(prefix)
        assert prefix <= encode_key(("abc", 5)) < hi

    def test_sibling_outside_bound(self):
        prefix = encode_key(("abc",))
        hi = key_prefix_upper_bound(prefix)
        assert encode_key(("abd",)) >= hi

    def test_all_ff(self):
        assert key_prefix_upper_bound(b"\xff\xff") is None
