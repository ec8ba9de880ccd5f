"""Columnar sorted-KV block and its copy-on-write overlay store.

``SortedKVBlock`` is the zero-copy read side of the frozen index
snapshot format; ``CowKVStore`` layers a mutable overlay on top so a
frozen index can diverge in memory while the mapped bytes stay valid;
``StackedKVBase`` is the base of a store opened over a delta chain.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KeyEncodingError
from repro.storage import (
    CowKVStore,
    SortedKVBlock,
    StackedKVBase,
    encode_sorted_kv_block,
)


def make_block(pairs):
    return SortedKVBlock(encode_sorted_kv_block(pairs))


SAMPLE = [
    (b"alpha", b"1"),
    (b"beta", b""),
    (b"delta", b"four"),
    (b"gamma", b"33"),
]


# ----------------------------------------------------------------------
# Model-based property: the store over every kind of base
# ----------------------------------------------------------------------
# A small key space (with shared prefixes) so operations collide.
KEYS = st.sampled_from(
    [prefix + bytes([suffix]) for prefix in (b"a", b"ab", b"b")
     for suffix in range(6)]
)
VALUES = st.binary(max_size=3)
OPS = st.one_of(
    st.tuples(st.just("put"), KEYS, VALUES),
    st.tuples(st.just("delete"), KEYS),
    # Ordered reads interleave with writes: the overlay's sorted view
    # must never be stale.
    st.tuples(st.just("scan"), KEYS, KEYS),
)


def make_bases(bottom, layers):
    """``(base, content, blobs)`` for no base, a block, a stack.

    ``content`` is what the base holds.
    """
    yield None, {}, []

    bottom_blob = bytearray(encode_sorted_kv_block(sorted(bottom.items())))
    yield SortedKVBlock(bottom_blob), dict(bottom), [bottom_blob]

    content = dict(bottom)
    blobs = [bottom_blob]
    stack_layers = []
    for puts, deleted in layers:
        deleted = deleted - set(puts)  # a layer never holds a key twice
        blob = bytearray(encode_sorted_kv_block(sorted(puts.items())))
        blobs.append(blob)
        stack_layers.append((SortedKVBlock(blob), deleted))
        for key in deleted:
            content.pop(key, None)
        content.update(puts)
    yield (
        StackedKVBase(SortedKVBlock(bottom_blob), stack_layers),
        content, blobs,
    )


def check_against_model(store, content, ops):
    overlay, deleted = {}, set()

    def model():
        merged = {k: v for k, v in content.items() if k not in deleted}
        merged.update(overlay)
        return merged

    def check_point(key):
        expected = model()
        assert store.get(key) == expected.get(key)
        assert store.get(key, b"dflt") == expected.get(key, b"dflt")
        assert (key in store) == (key in expected)
        assert len(store) == len(expected)
        view = store.view(key)
        if key in expected:
            assert bytes(view) == expected[key]
        else:
            assert view is None

    def check_ordered(low, high):
        expected = sorted(model().items())
        assert list(store.items()) == expected
        assert list(store.keys()) == [k for k, _ in expected]
        if low > high:
            low, high = high, low
        assert list(store.range(low, high)) == [
            (k, v) for k, v in expected if low <= k < high
        ]
        assert list(store.range(low=low)) == [
            (k, v) for k, v in expected if k >= low
        ]
        assert list(store.range(high=high)) == [
            (k, v) for k, v in expected if k < high
        ]
        prefix = low[:-1]
        assert list(store.scan_prefix(prefix)) == [
            (k, v) for k, v in expected if k.startswith(prefix)
        ]
        assert store.overlay_items() == sorted(overlay.items())
        assert store.overlay_deletes() == sorted(deleted)

    for op in ops:
        if op[0] == "put":
            _, key, value = op
            store.put(key, value)
            overlay[key] = value
            deleted.discard(key)
            check_point(key)
        elif op[0] == "delete":
            _, key = op
            assert store.delete(key) == (key in model())
            overlay.pop(key, None)
            if key in content:
                deleted.add(key)
            check_point(key)
        else:
            check_ordered(op[1], op[2])
    check_ordered(b"a", b"c")


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
        assert store.overlay_items() == [] and store.overlay_deletes() == []
        assert len(store) == 4
        assert store.get(b"delta") == b"four"
        assert isinstance(store.get(b"delta"), bytes)
        assert isinstance(store.view(b"delta"), memoryview)  # no copy
        assert b"alpha" in store
        assert list(store.items()) == SAMPLE

    def test_overlay_shadows_base(self):
        store = self.make()
        store.put(b"alpha", b"overridden")
        assert store.overlay_items() == [(b"alpha", b"overridden")]
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

    @settings(max_examples=120, deadline=None)
    @given(
        bottom=st.dictionaries(KEYS, VALUES, max_size=12),
        layers=st.lists(
            st.tuples(
                st.dictionaries(KEYS, VALUES, max_size=6),
                st.sets(KEYS, max_size=4),
            ),
            min_size=2,
            max_size=2,
        ),
        ops=st.lists(OPS, max_size=40),
    )
    def test_randomized_vs_dict_model(self, bottom, layers, ops):
        """Every read agrees with a sorted-dict model, over every base."""
        for base, content, blobs in make_bases(bottom, layers):
            snapshots = [bytes(blob) for blob in blobs]
            check_against_model(CowKVStore(base), content, ops)
            assert [bytes(blob) for blob in blobs] == snapshots
