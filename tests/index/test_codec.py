"""The posting codec has two implementations; they must be one codec.

``encode_posting_payload`` and ``decode_payload`` run in C when the
compiled kernels are active and as Python loops otherwise.  Held here:
for random document-ordered columns the C encoder writes the Python
encoder's bytes and the C decoder returns the Python decoder's arrays,
a damaged payload fails with the same :class:`IndexingError` on both,
a CRC-valid payload whose postings are not what an encoder writes — a
shared prefix longer than the key before it, keys out of order — is
refused by both, naming the keyword, and a count larger than the body
can hold is refused when the list is opened, before either decoder
allocates for it.  A bare key column (``ListColumns(keys)``) runs the
decoder's partition walk over the same arrays.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.backend as backend_module
from repro.errors import IndexingError
from repro.index import InvertedList
from repro.index.blocks import encode_posting_payload
from repro.index.inverted import key_tuples
from repro.kernels import ListColumns
from repro.storage import encode_uvarint

COMPILED = backend_module.compiled

needs_compiled = pytest.mark.skipif(
    COMPILED is None, reason="compiled backend unavailable on this host"
)


@pytest.fixture(params=["compiled", "pure-python"])
def kernel_backend(request, monkeypatch):
    if request.param == "pure-python":
        monkeypatch.setattr(backend_module, "compiled", None)
    elif COMPILED is None:
        pytest.skip("compiled backend unavailable on this host")
    return request.param


def on_both_backends(action):
    """``[compiled outcome, pure-Python outcome]`` of ``action()``: its
    value, or the type and message of what it raised."""
    outcomes = []
    for lib in (COMPILED, None):
        backend_module.compiled = lib
        try:
            outcomes.append(("value", action()))
        except IndexingError as exc:
            outcomes.append(("error", str(exc)))
        finally:
            backend_module.compiled = COMPILED
    return outcomes


def decoded(payload, type_table):
    return InvertedList.open("kw", payload, type_table).arrays()


components = st.one_of(st.integers(0, 3), st.integers(0, 1 << 40))
columns = st.lists(
    st.tuples(
        st.lists(components, min_size=1, max_size=12).map(tuple),
        st.integers(0, 1 << 40),
    ),
    min_size=1,
    max_size=600,
    unique_by=lambda row: row[0],
).map(sorted)


@needs_compiled
@settings(max_examples=150, deadline=None)
@given(
    rows=columns,
    types=st.sampled_from([40, 0x10000 + 40]),
    data=st.data(),
)
def test_compiled_codec_is_the_python_codec(rows, types, data):
    keys = [key for key, _ in rows]
    counts = [count for _, count in rows]
    tids = data.draw(st.lists(
        st.integers(0, types - 1), min_size=len(keys), max_size=len(keys)
    ))
    type_table = [("t",)] * types

    encoded = on_both_backends(
        lambda: encode_posting_payload("kw", keys, tids, counts)
    )
    assert encoded[0] == encoded[1]
    payload = encoded[0][1]

    (compiled, pure) = on_both_backends(lambda: decoded(payload, type_table))
    assert compiled[1] == pure[1]
    arrays = compiled[1]
    assert arrays.tids.typecode == ("H" if types <= 0x10000 else "I")
    assert key_tuples(arrays.flat, arrays.offs) == keys
    assert list(arrays.tids) == tids and list(arrays.counts) == counts

    position = data.draw(st.integers(0, len(payload) - 1))
    damaged = {
        "flipped": payload[:position]
        + bytes([payload[position] ^ data.draw(st.integers(1, 255))])
        + payload[position + 1:],
        "truncated": payload[:position],
        "trailing": payload + b"\x00",
    }
    for kind, raw in damaged.items():
        outcomes = on_both_backends(lambda: decoded(raw, type_table))
        assert outcomes[0] == outcomes[1], kind
        assert outcomes[0][0] == "error" or kind == "flipped"
    # An id the table does not hold.
    known = max(tids)
    outcomes = on_both_backends(
        lambda: decoded(payload, type_table[:known])
    )
    assert outcomes[0] == outcomes[1] == (
        "error", "posting list for 'kw' names an unknown node type",
    )


# Keys of one or two components are common, so root keys (Def. 6.1:
# shorter than two components) and partitions of one posting are too.
walk_keys = st.one_of(
    st.lists(
        st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
        max_size=60, unique=True,
    ).map(sorted),
    # Every key in one partition.
    st.lists(
        st.lists(st.integers(0, 3), max_size=3).map(tuple),
        min_size=1, max_size=30, unique=True,
    ).map(lambda tails: sorted((2, 1) + tail for tail in tails)),
)


@settings(max_examples=200, deadline=None)
@given(keys=walk_keys)
def test_bare_columns_and_list_columns_share_one_walk(keys):
    """``ListColumns(keys)`` packs the keys and walks them as the
    decoder does: the columns of the list the keys encode to hold the
    same arrays, and the Python decoder's arrays are C's."""
    payload = encode_posting_payload("kw", keys, [0] * len(keys),
                                     [1] * len(keys))
    outcomes = on_both_backends(lambda: decoded(payload, [("t",)]))
    assert outcomes[0] == outcomes[1]
    listed = ListColumns.of_list(InvertedList.open("kw", payload, [("t",)]))
    bare = ListColumns(keys)
    assert bare.flat_offs() == listed.flat_offs()
    assert key_tuples(*bare.flat_offs()) == keys
    for name in ("size", "pid_flat", "starts", "ends", "root_count"):
        assert getattr(bare, name) == getattr(listed, name), name
    assert bare.root_count == sum(len(key) < 2 for key in keys)
    assert list(zip(bare.pid_flat[0::2], bare.pid_flat[1::2])) == sorted(
        {key[:2] for key in keys if len(key) >= 2}
    )


def crafted_payload(postings, count=None):
    """A payload of hand-written postings, its CRC correct.

    ``postings`` holds ``(shared, suffix)`` pairs; each gets type id 0
    and count 1.  ``count`` overrides the number the payload declares.
    """
    body = bytearray()
    for shared, suffix in postings:
        body += encode_uvarint(shared)
        body += encode_uvarint(len(suffix))
        for part in suffix:
            body += encode_uvarint(part)
        body += encode_uvarint(0) + encode_uvarint(1)
    head = encode_uvarint(len(postings) if count is None else count)
    crc = zlib.crc32(body, zlib.crc32(head))
    return head + crc.to_bytes(4, "little") + bytes(body)


def test_a_shared_prefix_longer_than_the_key_before_it_is_refused(
    kernel_backend,
):
    # The fourth posting claims nine shared components after a
    # three-component key; clamping would read it as (0, 1, 5, 7).
    payload = crafted_payload(
        [(0, (0, 0, 1)), (2, (2,)), (1, (1, 5)), (9, (7,))]
    )
    lst = InvertedList.open("kw", payload, [("t",)])
    with pytest.raises(
        IndexingError, match="posting list for 'kw' has a key sharing more "
        "components",
    ):
        lst.arrays()


def test_keys_out_of_order_are_refused(kernel_backend):
    # A key between two in-order ones that sorts before both.
    payload = crafted_payload(
        [(0, (0, 0, 1)), (2, (2,)), (1, (1, 0)), (2, (5,)), (2, (3,))]
    )
    lst = InvertedList.open("kw", payload, [("t",)])
    with pytest.raises(
        IndexingError, match="posting list for 'kw' holds postings out of "
        "document order",
    ):
        lst.counts


@pytest.mark.parametrize("count", [3, 1 << 34])
def test_a_count_the_body_cannot_hold_is_refused_at_open(
    kernel_backend, count
):
    # Eleven body bytes hold at most two postings of four bytes; the
    # CRC covers the inflated count, so only the count is wrong.
    payload = crafted_payload([(0, (0, 1)), (1, (2,))], count=count)
    with pytest.raises(
        IndexingError, match=f"posting list for 'kw' declares {count} "
        "postings, more than its 11-byte body can hold",
    ):
        InvertedList.open("kw", payload, [("t",)])
