"""Frozen columnar snapshot tests: round trip, corruption, CoW.

A frozen snapshot must serve byte-identical answers to the index it
was frozen from, reject corrupt files with typed errors instead of
undefined behaviour, and accept mutations without touching the mapped
file.
"""

import struct
import zlib

import pytest

from repro import XRefine
from repro.errors import IndexingError
from repro.index import (
    InvertedList,
    append_partition,
    build_document_index,
    freeze_index,
    load_frozen_index,
    remove_partition,
)
from repro.index.blocks import decode_header, encode_posting_payload
from repro.index.frozen import (
    _CRC_CHUNK,
    _HEADER,
    _SECTION_COUNT,
    _SECTION_ENTRY,
    _paging_checksum,
    FORMAT_VERSION,
    MAGIC,
)
from repro.storage import encode_key, encode_uvarint
from repro.xmltree import Dewey, parse, serialize

QUERIES = ("on line data base", "database publication", "xml twig")


@pytest.fixture(scope="module")
def frozen_path(tmp_path_factory, figure1_index):
    path = tmp_path_factory.mktemp("frozen") / "figure1.frz"
    freeze_index(figure1_index, path)
    return path


@pytest.fixture()
def loaded(frozen_path):
    return load_frozen_index(str(frozen_path))


def stored_payload(index, keyword):
    """The packed posting payload the store holds for ``keyword``."""
    return index.inverted._store.get(encode_key((keyword,)))


class TestRoundTrip:
    def test_tree_identical(self, loaded, figure1_index):
        assert serialize(loaded.tree) == serialize(figure1_index.tree)
        assert len(loaded.tree) == len(figure1_index.tree)

    def test_keywords_identical(self, loaded, figure1_index):
        assert loaded.inverted.keywords() == figure1_index.inverted.keywords()

    def test_postings_identical(self, loaded, figure1_index):
        for keyword in figure1_index.inverted.keywords():
            assert list(loaded.inverted_list(keyword)) == list(
                figure1_index.inverted_list(keyword)
            ), keyword

    def test_stored_payloads_identical(self, loaded, figure1_index):
        for keyword in figure1_index.inverted.keywords():
            assert stored_payload(loaded, keyword) == stored_payload(
                figure1_index, keyword
            ), keyword

    def test_frequency_identical(self, loaded, figure1_index):
        t = ("bib", "author", "publications", "inproceedings")
        for keyword in ("database", "xml", "skyline"):
            assert loaded.xml_df(keyword, t) == figure1_index.xml_df(
                keyword, t
            )
            assert loaded.tf(keyword, t) == figure1_index.tf(keyword, t)

    def test_statistics_identical(self, loaded, figure1_index):
        for node_type, stats in figure1_index.statistics.items():
            assert loaded.node_count(node_type) == stats.node_count
            assert (
                loaded.distinct_keywords(node_type)
                == stats.distinct_keywords
            )

    def test_search_identical_all_algorithms(self, loaded, figure1_index):
        built = XRefine(figure1_index)
        frozen = XRefine(loaded)
        for algorithm in ("partition", "sle", "stack"):
            for query in QUERIES:
                a = built.search(query, k=3, algorithm=algorithm)
                b = frozen.search(query, k=3, algorithm=algorithm)
                assert a.needs_refinement == b.needs_refinement
                assert [r.rq.key for r in a.refinements] == [
                    r.rq.key for r in b.refinements
                ]
                assert a.original_results == b.original_results

    def test_snapshot_handle_attached(self, loaded):
        assert loaded.frozen_snapshot is not None

    def test_lazy_decode(self, loaded):
        """Opening decodes nothing; lists materialize per keyword."""
        assert loaded.inverted._cache == {}
        loaded.inverted_list("xml")
        assert set(loaded.inverted._cache) == {"xml"}

    def test_freeze_method_and_from_frozen(self, tmp_path, figure1_index):
        path = figure1_index.freeze(tmp_path / "conv.frz")
        engine = XRefine.from_frozen(path)
        response = engine.search("database publication", k=2)
        reference = XRefine(figure1_index).search(
            "database publication", k=2
        )
        assert [r.rq.key for r in response.refinements] == [
            r.rq.key for r in reference.refinements
        ]


class TestPagingChecksum:
    """The chunked+madvise open-time CRC must equal the one-shot CRC."""

    def test_multi_chunk_body_matches_one_shot(self, tmp_path):
        import mmap as mmap_module
        import random
        import zlib

        rng = random.Random(5)
        payload = bytes(
            rng.getrandbits(8) for _ in range(4096)
        ) * ((2 * _CRC_CHUNK) // 4096 + 3)
        path = tmp_path / "body.bin"
        path.write_bytes(payload)
        body_start = _HEADER.size  # any unaligned offset will do
        with open(path, "rb") as handle:
            mapped = mmap_module.mmap(
                handle.fileno(), 0, access=mmap_module.ACCESS_READ
            )
        view = memoryview(mapped)
        body = view[body_start:]
        try:
            assert _paging_checksum(mapped, body, body_start) == (
                zlib.crc32(payload[body_start:])
            )
        finally:
            body.release()
            view.release()
            mapped.close()

    def test_small_body_takes_the_one_shot_path(self, frozen_path):
        # Every fixture-sized snapshot is far below one chunk; loading
        # them exercises the eager branch (and TestCorruption proves
        # a flipped byte still fails either way).
        assert load_frozen_index(frozen_path) is not None


class TestCorruption:
    def corrupt(self, frozen_path, tmp_path, mutate):
        blob = bytearray(frozen_path.read_bytes())
        mutate(blob)
        bad = tmp_path / "bad.frz"
        bad.write_bytes(bytes(blob))
        return bad

    def test_missing_file(self, tmp_path):
        with pytest.raises(IndexingError):
            load_frozen_index(tmp_path / "nothing.frz")

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.frz"
        empty.write_bytes(b"")
        with pytest.raises(IndexingError):
            load_frozen_index(empty)

    def test_bad_magic(self, frozen_path, tmp_path):
        bad = self.corrupt(
            frozen_path, tmp_path, lambda b: b.__setitem__(0, b[0] ^ 0xFF)
        )
        with pytest.raises(IndexingError):
            load_frozen_index(bad)

    def test_wrong_version(self, frozen_path, tmp_path):
        """Older (1, 2, 3) and newer (5, 99) headers: found vs supported."""
        for version in (1, 2, 3, FORMAT_VERSION + 1, 99):
            bad = self.corrupt(
                frozen_path,
                tmp_path,
                lambda blob: struct.pack_into(
                    "<H", blob, len(MAGIC), version
                ),
            )
            with pytest.raises(IndexingError) as err:
                load_frozen_index(bad)
            message = str(err.value)
            assert f"format version {version};" in message
            assert f"only version {FORMAT_VERSION}" in message
            assert "repro index" in message

    def test_wrong_section_count(self, frozen_path, tmp_path):
        def bump_sections(blob):
            struct.pack_into("<H", blob, len(MAGIC) + 2, 999)

        bad = self.corrupt(frozen_path, tmp_path, bump_sections)
        with pytest.raises(IndexingError):
            load_frozen_index(bad)

    @pytest.mark.parametrize("keep", [12, 40, 0.5, 0.99])
    def test_truncation(self, frozen_path, tmp_path, keep):
        blob = frozen_path.read_bytes()
        cut = keep if isinstance(keep, int) else int(len(blob) * keep)
        bad = tmp_path / "cut.frz"
        bad.write_bytes(blob[:cut])
        with pytest.raises(IndexingError):
            load_frozen_index(bad)

    def test_flipped_body_byte_fails_checksum(self, frozen_path, tmp_path):
        body_start = _HEADER.size + _SECTION_COUNT * _SECTION_ENTRY.size

        def flip(blob):
            offset = (body_start + len(blob)) // 2
            blob[offset] ^= 0x01

        bad = self.corrupt(frozen_path, tmp_path, flip)
        with pytest.raises(IndexingError, match="checksum"):
            load_frozen_index(bad)


def frozen_payload(index, keyword, block_size):
    """``keyword``'s payload as a freeze at ``block_size`` writes it."""
    postings = index.inverted_list(keyword)
    return encode_posting_payload(
        keyword, postings.dewey_keys, postings.type_ids, postings.counts,
        block_size,
    )


def _encode_header(count, block_size, offsets, crcs, firsts, lasts):
    """Re-encode a payload header (mirror of the writer); ``offsets``
    are the block boundaries relative to the body."""

    def components(out, parts):
        out += encode_uvarint(len(parts))
        for part in parts:
            out += encode_uvarint(part)

    out = bytearray()
    out += encode_uvarint(count)
    out += encode_uvarint(block_size)
    out += encode_uvarint(len(crcs))
    for lo, hi in zip(offsets, offsets[1:]):
        out += encode_uvarint(hi - lo)
    for index in range(len(crcs)):
        out += struct.pack("<I", crcs[index])
        components(out, firsts[index])
        components(out, lasts[index])
    return bytes(out)


class TestBlockDirectoryFuzz:
    """Corrupted payload headers must fail with typed errors.

    Every mutation here preserves enough structure to reach the header
    validator — the point is that a reordered, truncated or
    inconsistent header is rejected *before* it can mis-route a binary
    search or a block-max prune, and never read as something else.
    """

    @pytest.fixture(scope="class")
    def postings(self, figure1_index):
        keyword = max(
            figure1_index.inverted.keywords(),
            key=figure1_index.inverted.list_length,
        )
        assert figure1_index.inverted.list_length(keyword) >= 3
        return figure1_index.inverted_list(keyword)

    @pytest.fixture(scope="class")
    def payload(self, figure1_index, postings):
        return frozen_payload(figure1_index, postings.keyword, 1)

    @pytest.fixture(scope="class")
    def header(self, payload):
        return decode_header("kw", payload)

    @pytest.fixture(scope="class")
    def body(self, payload, header):
        return payload[header[2][0]:]

    @pytest.fixture(scope="class")
    def type_table(self, figure1_index):
        return figure1_index.inverted.node_type_table

    def fields(self, header):
        block_size, count, offsets, crcs, firsts, lasts = header
        return (
            count,
            block_size,
            [offset - offsets[0] for offset in offsets],
            list(crcs),
            list(firsts),
            list(lasts),
        )

    def test_roundtrip_is_clean(self, payload, header, body, type_table,
                                postings):
        assert _encode_header(*self.fields(header)) + body == payload
        lst = InvertedList.open("kw", payload, type_table)
        assert lst.block_count == len(postings)
        assert list(lst) == list(postings)

    @pytest.mark.parametrize("cut", [1, 3, 7])
    def test_truncated_directory(self, header, cut):
        raw = _encode_header(*self.fields(header))
        with pytest.raises(IndexingError, match="'kw' has a truncated"):
            decode_header("kw", raw[:-cut])

    def test_out_of_order_block_headers(self, header, body):
        count, size, offsets, crcs, firsts, lasts = self.fields(header)
        firsts[0], firsts[1] = firsts[1], firsts[0]
        lasts[0], lasts[1] = lasts[1], lasts[0]
        raw = _encode_header(count, size, offsets, crcs, firsts, lasts)
        with pytest.raises(IndexingError, match="'kw' has out-of-order"):
            decode_header("kw", raw + body)

    def test_inverted_block_bounds(self, header, body):
        count, size, offsets, crcs, firsts, lasts = self.fields(header)
        # Give block 0 a first key beyond its last key.
        firsts[0] = lasts[-1]
        raw = _encode_header(count, size, offsets, crcs, firsts, lasts)
        with pytest.raises(IndexingError, match="'kw' has an inverted block"):
            decode_header("kw", raw + body)

    def test_non_ascending_offsets(self, header, body):
        count, size, offsets, crcs, firsts, lasts = self.fields(header)
        offsets[1] = offsets[0]
        raw = _encode_header(count, size, offsets, crcs, firsts, lasts)
        with pytest.raises(IndexingError, match="'kw' has non-ascending"):
            decode_header("kw", raw + body)

    def test_wrong_block_count(self, header, body):
        count, size, offsets, crcs, firsts, lasts = self.fields(header)
        raw = _encode_header(count + 5, size, offsets, crcs, firsts, lasts)
        with pytest.raises(IndexingError, match="'kw' declares"):
            decode_header("kw", raw + body)

    @pytest.mark.parametrize("change", ["longer", "shorter"])
    def test_last_offset_must_end_the_payload(self, payload, change):
        """A payload whose length disagrees with its blocks is an error,
        never a list read some other way."""
        raw = payload + b"\x00" if change == "longer" else payload[:-1]
        with pytest.raises(IndexingError, match="'kw' has blocks ending"):
            decode_header("kw", raw)

    def test_truncated_block_payload(self, header, body, type_table):
        """A block cut short mid-posting fails with a typed error.

        The CRC is forged to match the truncated bytes, so the decode
        itself must detect that the block ran out of postings.
        """
        count, size, offsets, crcs, firsts, lasts = self.fields(header)
        cut = body[: offsets[-1] - 1]
        crcs[-1] = zlib.crc32(cut[offsets[-2]:])
        offsets[-1] -= 1
        raw = _encode_header(count, size, offsets, crcs, firsts, lasts)
        lst = InvertedList.open("kw", raw + cut, type_table)
        with pytest.raises(IndexingError, match="'kw' is truncated"):
            list(lst)

    def test_header_disagrees_with_its_block(self, header, body, type_table):
        """A header key that is well ordered but not the block's own."""
        count, size, offsets, crcs, firsts, lasts = self.fields(header)
        lasts[-1] = lasts[-1] + (0,)
        raw = _encode_header(count, size, offsets, crcs, firsts, lasts)
        lst = InvertedList.open("kw", raw + body, type_table)
        with pytest.raises(IndexingError, match="'kw' disagrees"):
            list(lst)


class TestBlockCorruptionOnDisk:
    """Per-block CRCs catch payload damage the header cannot see.

    The file-level checksum is recomputed after each mutation, so the
    snapshot *opens* cleanly — the corruption must be caught lazily, by
    the block CRC, when the list is first read.
    """

    def frozen_with_blocks(self, figure1_index, tmp_path):
        path = tmp_path / "blocked.frz"
        freeze_index(figure1_index, path, block_size=1)
        keyword = max(
            figure1_index.inverted.keywords(),
            key=figure1_index.inverted.list_length,
        )
        payload = frozen_payload(figure1_index, keyword, 1)
        return path, keyword, payload

    def rechecksum(self, blob):
        body_start = _HEADER.size + _SECTION_COUNT * _SECTION_ENTRY.size
        struct.pack_into(
            "<I", blob, len(MAGIC) + 4, zlib.crc32(bytes(blob[body_start:]))
        )

    def test_flipped_block_byte_fails_lazily(
        self, figure1_index, tmp_path
    ):
        path, keyword, payload = self.frozen_with_blocks(
            figure1_index, tmp_path
        )
        offsets = decode_header(keyword, payload)[2]
        blob = bytearray(path.read_bytes())
        position = blob.find(payload)
        assert position != -1, "payload bytes not found in the snapshot"
        # Damage the *last* block only, then make the file-level
        # checksum agree again.
        blob[position + offsets[-2]] ^= 0x40
        self.rechecksum(blob)
        bad = tmp_path / "bad_block.frz"
        bad.write_bytes(bytes(blob))

        loaded = load_frozen_index(bad)
        lazy = loaded.inverted_list(keyword)
        # Opening reads the header only; the first read checks every
        # block and names the damaged one in a typed checksum error.
        with pytest.raises(
            IndexingError,
            match=f"block {len(offsets) - 2} of {keyword!r} fails its "
            "checksum",
        ):
            lazy[0]

    def test_clean_snapshot_decodes_every_block(
        self, figure1_index, tmp_path
    ):
        path, keyword, _payload = self.frozen_with_blocks(
            figure1_index, tmp_path
        )
        loaded = load_frozen_index(path)
        assert list(loaded.inverted_list(keyword)) == list(
            figure1_index.inverted_list(keyword)
        )


def author_spec(name, titles):
    return (
        "author",
        None,
        [
            ("name", name),
            (
                "publications",
                None,
                [("inproceedings", None, [("title", t)]) for t in titles],
            ),
        ],
    )


class TestCopyOnWrite:
    def reload(self, figure1_tree, tmp_path):
        index = build_document_index(parse(serialize(figure1_tree)))
        path = tmp_path / "cow.frz"
        freeze_index(index, path)
        return load_frozen_index(path), path

    def test_append_then_matches_rebuild(self, figure1_tree, tmp_path):
        loaded, path = self.reload(figure1_tree, tmp_path)
        before = path.read_bytes()
        append_partition(
            loaded, author_spec("carol", ["quantum refinement views"])
        )
        fresh = build_document_index(parse(serialize(loaded.tree)))
        assert loaded.inverted.keywords() == fresh.inverted.keywords()
        assert loaded.has_keyword("quantum")
        for keyword in ("quantum", "xml", "carol"):
            assert list(loaded.inverted_list(keyword)) == list(
                fresh.inverted_list(keyword)
            ), keyword
        for node_type, stats in fresh.statistics.items():
            assert loaded.node_count(node_type) == stats.node_count
        # Mutation is copy-on-write: the snapshot on disk is untouched.
        assert path.read_bytes() == before

    def test_remove_then_matches_rebuild(self, figure1_tree, tmp_path):
        loaded, path = self.reload(figure1_tree, tmp_path)
        before = path.read_bytes()
        first = loaded.tree.partitions()[0]
        remove_partition(loaded, first.dewey)
        # Re-parsing re-assigns dense partition ordinals, so compare
        # lengths and statistics rather than exact Dewey labels.
        fresh = build_document_index(parse(serialize(loaded.tree)))
        assert loaded.inverted.keywords() == fresh.inverted.keywords()
        for keyword in fresh.inverted.keywords():
            assert loaded.inverted.list_length(
                keyword
            ) == fresh.inverted.list_length(keyword), keyword
        for node_type, stats in fresh.statistics.items():
            assert loaded.node_count(node_type) == stats.node_count
        assert path.read_bytes() == before

    def test_mutated_index_refreezes(self, figure1_tree, tmp_path):
        loaded, _ = self.reload(figure1_tree, tmp_path)
        append_partition(loaded, author_spec("dave", ["stream joins"]))
        second = tmp_path / "second.frz"
        freeze_index(loaded, second)
        reloaded = load_frozen_index(second)
        assert reloaded.inverted.keywords() == loaded.inverted.keywords()
        assert list(reloaded.inverted_list("joins")) == list(
            loaded.inverted_list("joins")
        )

    def test_search_after_mutation(self, figure1_tree, tmp_path):
        loaded, _ = self.reload(figure1_tree, tmp_path)
        append_partition(
            loaded, author_spec("erin", ["probabilistic xml ranking"])
        )
        fresh = build_document_index(parse(serialize(loaded.tree)))
        a = XRefine(loaded).search("probabilistic ranking", k=2)
        b = XRefine(fresh).search("probabilistic ranking", k=2)
        assert a.needs_refinement == b.needs_refinement
        assert [r.rq.key for r in a.refinements] == [
            r.rq.key for r in b.refinements
        ]
