"""The store over no base: a plain in-memory ordered ``bytes`` map.

This is what a *built* index uses; ``test_sorted_block.py`` covers the
same class over mapped bases.
"""

import pytest

from repro.errors import StorageError
from repro.storage import CowKVStore, encode_key


class TestMemoryStore:
    def test_put_get(self):
        store = CowKVStore()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"

    def test_get_default(self):
        assert CowKVStore().get(b"k", b"d") == b"d"

    def test_delete(self):
        store = CowKVStore()
        store.put(b"k", b"v")
        assert store.delete(b"k") is True
        assert store.delete(b"k") is False

    def test_len_contains(self):
        store = CowKVStore()
        store.put(b"a", b"")
        store.put(b"b", b"")
        assert len(store) == 2
        assert b"a" in store and b"c" not in store

    def test_items_sorted(self):
        store = CowKVStore()
        for key in (b"c", b"a", b"b"):
            store.put(key, key)
        assert [k for k, _ in store.items()] == [b"a", b"b", b"c"]
        # The sorted view follows later writes.
        store.put(b"aa", b"")
        store.delete(b"b")
        assert list(store.keys()) == [b"a", b"aa", b"c"]

    def test_range(self):
        store = CowKVStore()
        for b in range(10):
            store.put(bytes([b]), b"")
        # Half-open: low included, high excluded.
        assert [k for k, _ in store.range(bytes([2]), bytes([5]))] == [
            bytes([2]), bytes([3]), bytes([4]),
        ]
        assert len(list(store.range(low=bytes([7])))) == 3
        assert len(list(store.range(high=bytes([2])))) == 2

    def test_scan_prefix(self):
        store = CowKVStore()
        store.put(encode_key(("apple", 1)), b"1")
        store.put(encode_key(("apple", 2)), b"2")
        store.put(encode_key(("apricot", 1)), b"3")
        hits = list(store.scan_prefix(encode_key(("apple",))))
        assert [value for _, value in hits] == [b"1", b"2"]

    def test_rejects_non_bytes(self):
        store = CowKVStore()
        with pytest.raises(StorageError):
            store.put("str", b"v")
        with pytest.raises(StorageError):
            store.put(b"k", 42)
        with pytest.raises(StorageError):
            store.get("str")
        with pytest.raises(StorageError):
            store.scan_prefix("str")
