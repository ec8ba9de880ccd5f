"""Columnar sorted-KV block and its copy-on-write overlay store.

``SortedKVBlock`` is the zero-copy read side of the frozen index
snapshot format; ``CowKVStore`` layers a mutable overlay on top so a
frozen index can diverge in memory while the mapped bytes stay valid.
"""

import random

import pytest

from repro.errors import KeyEncodingError, StorageError
from repro.storage import CowKVStore, SortedKVBlock, encode_sorted_kv_block


def make_block(pairs):
    return SortedKVBlock(encode_sorted_kv_block(pairs))


SAMPLE = [
    (b"alpha", b"1"),
    (b"beta", b""),
    (b"delta", b"four"),
    (b"gamma", b"33"),
]


class TestSortedKVBlock:
    def test_round_trip(self):
        block = make_block(SAMPLE)
        assert len(block) == 4
        assert list(block.items()) == SAMPLE
        assert list(block.keys()) == [k for k, _ in SAMPLE]

    def test_empty_block(self):
        block = make_block([])
        assert len(block) == 0
        assert list(block.items()) == []
        assert block.get(b"anything") is None
        assert len(block.value_region()) == 0
        assert block.value_spans() == []

    def test_get_and_contains(self):
        block = make_block(SAMPLE)
        assert bytes(block.get(b"delta")) == b"four"
        assert bytes(block.get(b"beta")) == b""
        assert block.get(b"missing") is None
        assert block.get(b"missing", b"dflt") == b"dflt"
        assert b"alpha" in block
        assert b"omega" not in block

    def test_values_are_memoryviews(self):
        block = make_block(SAMPLE)
        assert isinstance(block.get(b"alpha"), memoryview)

    def test_range(self):
        block = make_block(SAMPLE)
        got = [k for k, _ in block.range(b"beta", b"gamma")]
        assert got == [b"beta", b"delta"]
        assert [k for k, _ in block.range()] == [k for k, _ in SAMPLE]
        assert [k for k, _ in block.range(low=b"c")] == [b"delta", b"gamma"]
        assert [k for k, _ in block.range(high=b"c")] == [b"alpha", b"beta"]

    def test_value_region_and_spans(self):
        block = make_block(SAMPLE)
        region = bytes(block.value_region())
        assert region == b"".join(v for _, v in SAMPLE)
        rebuilt = {
            key: region[offset : offset + length]
            for key, offset, length in block.value_spans()
        }
        assert rebuilt == dict(SAMPLE)

    def test_encoder_rejects_unsorted(self):
        with pytest.raises(KeyEncodingError):
            encode_sorted_kv_block([(b"b", b""), (b"a", b"")])

    def test_encoder_rejects_duplicates(self):
        with pytest.raises(KeyEncodingError):
            encode_sorted_kv_block([(b"a", b"1"), (b"a", b"2")])

    def test_encoder_accepts_generator(self):
        block = make_block((b"%03d" % i, b"v%d" % i) for i in range(40))
        assert len(block) == 40
        assert bytes(block.get(b"017")) == b"v17"

    def test_truncated_blob_rejected(self):
        blob = encode_sorted_kv_block(SAMPLE)
        for cut in (4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(KeyEncodingError):
                SortedKVBlock(blob[:cut])

    def test_binary_search_large(self):
        pairs = [(b"k%05d" % i, b"%d" % (i * i)) for i in range(2000)]
        block = make_block(pairs)
        for i in (0, 1, 999, 1998, 1999):
            assert bytes(block.get(b"k%05d" % i)) == b"%d" % (i * i)
        assert block.get(b"k99999") is None


class TestCowKVStore:
    def make(self, pairs=SAMPLE):
        return CowKVStore(make_block(pairs))

    def test_pristine_reads(self):
        store = self.make()
        assert store.is_pristine()
        assert len(store) == 4
        assert store.get(b"delta") == b"four"
        assert isinstance(store.get(b"delta"), bytes)
        assert b"alpha" in store
        assert list(store.items()) == SAMPLE

    def test_overlay_shadows_base(self):
        store = self.make()
        store.put(b"alpha", b"overridden")
        assert not store.is_pristine()
        assert store.get(b"alpha") == b"overridden"
        assert len(store) == 4
        assert dict(store.items())[b"alpha"] == b"overridden"

    def test_insert_new_key(self):
        store = self.make()
        store.put(b"epsilon", b"5")
        assert len(store) == 5
        assert [k for k in store.keys()] == [
            b"alpha", b"beta", b"delta", b"epsilon", b"gamma",
        ]

    def test_delete_base_key(self):
        store = self.make()
        assert store.delete(b"beta") is True
        assert b"beta" not in store
        assert store.get(b"beta") is None
        assert len(store) == 3
        assert store.delete(b"beta") is False

    def test_delete_overlay_key(self):
        store = self.make()
        store.put(b"new", b"x")
        assert store.delete(b"new") is True
        assert b"new" not in store
        assert len(store) == 4

    def test_delete_shadowing_key_removes_base_view_too(self):
        store = self.make()
        store.put(b"alpha", b"overridden")
        assert store.delete(b"alpha") is True
        assert b"alpha" not in store
        assert len(store) == 3

    def test_resurrect_deleted_base_key(self):
        store = self.make()
        store.delete(b"alpha")
        store.put(b"alpha", b"back")
        assert store.get(b"alpha") == b"back"
        assert len(store) == 4

    def test_delete_missing_key(self):
        store = self.make()
        assert store.delete(b"nope") is False
        assert len(store) == 4

    def test_base_bytes_never_change(self):
        blob = encode_sorted_kv_block(SAMPLE)
        snapshot = bytes(blob)
        store = CowKVStore(SortedKVBlock(blob))
        store.put(b"alpha", b"clobbered")
        store.delete(b"gamma")
        store.put(b"zzz", b"tail")
        assert blob == snapshot

    def test_range_merges_base_and_overlay(self):
        store = self.make()
        store.put(b"carol", b"c")
        store.delete(b"delta")
        got = [k for k, _ in store.range(b"beta", b"gamma")]
        assert got == [b"beta", b"carol"]

    def test_scan_prefix(self):
        store = self.make([(b"ab:1", b"x"), (b"ab:2", b"y"), (b"ac:1", b"z")])
        store.put(b"ab:3", b"w")
        store.delete(b"ab:1")
        got = [k for k, _ in store.scan_prefix(b"ab:")]
        assert got == [b"ab:2", b"ab:3"]

    def test_load_sorted_unsupported(self):
        with pytest.raises(StorageError):
            self.make().load_sorted([(b"a", b"b")])

    def test_randomized_vs_dict_model(self):
        rng = random.Random(99)
        base_pairs = [(b"k%04d" % i, b"v%d" % i) for i in range(0, 400, 2)]
        store = CowKVStore(make_block(base_pairs))
        model = dict(base_pairs)
        for step in range(3000):
            key = b"k%04d" % rng.randrange(400)
            if rng.random() < 0.55:
                value = b"s%d" % step
                store.put(key, value)
                model[key] = value
            else:
                assert store.delete(key) == (key in model)
                model.pop(key, None)
            if step % 500 == 0:
                assert len(store) == len(model)
        assert len(store) == len(model)
        assert dict(store.items()) == model
        assert list(store.keys()) == sorted(model)
        lo, hi = b"k0100", b"k0300"
        expected = sorted(
            (k, v) for k, v in model.items() if lo <= k < hi
        )
        assert list(store.range(lo, hi)) == expected
