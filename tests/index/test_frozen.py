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
    load_index_chain,
    remove_partition,
    save_delta,
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
        """Older and newer headers: found vs supported."""
        for version in (1, 2, 3, 4, FORMAT_VERSION + 1, 99):
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


def frozen_payload(index, keyword):
    """``keyword``'s payload as a freeze writes it."""
    postings = index.inverted_list(keyword)
    return encode_posting_payload(
        keyword, postings.dewey_keys, postings.type_ids, postings.counts
    )


def _encode_payload(count, body, crc=None):
    """A payload of ``count`` and ``body`` (mirror of the writer), its
    CRC computed unless given."""
    head = encode_uvarint(count)
    if crc is None:
        crc = zlib.crc32(body, zlib.crc32(head))
    return head + struct.pack("<I", crc) + body


class TestPayloadHeaderFuzz:
    """Damaged payloads must fail with typed errors.

    A header cut short fails when the list is opened; a body that
    disagrees with its CRC, or whose CRC was forged to match bytes no
    encoder writes, fails at the first read of a column — never read
    as some other list.
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
        return frozen_payload(figure1_index, postings.keyword)

    @pytest.fixture(scope="class")
    def header(self, payload):
        return decode_header("kw", payload)

    @pytest.fixture(scope="class")
    def body(self, payload, header):
        return payload[header[2]:]

    @pytest.fixture(scope="class")
    def type_table(self, figure1_index):
        return figure1_index.inverted.node_type_table

    def test_roundtrip_is_clean(self, payload, header, body, type_table,
                                postings):
        count, crc, _ = header
        assert count == len(postings)
        assert _encode_payload(count, body, crc) == payload
        assert _encode_payload(count, body) == payload
        lst = InvertedList.open("kw", payload, type_table)
        assert list(lst) == list(postings)

    @pytest.mark.parametrize("cut", [1, 3, 5])
    def test_truncated_header(self, payload, header, cut):
        with pytest.raises(IndexingError, match="'kw' has a truncated"):
            InvertedList.open("kw", payload[:header[2] - cut], ())

    @pytest.mark.parametrize("change", ["longer", "shorter"])
    def test_body_must_match_its_checksum(self, payload, type_table,
                                          change):
        """A payload whose length disagrees with its CRC opens (the body
        is not read until a column is) and fails at the first read."""
        raw = payload + b"\x00" if change == "longer" else payload[:-1]
        lst = InvertedList.open("kw", raw, type_table)
        with pytest.raises(IndexingError, match="'kw' fails its checksum"):
            lst.counts

    def test_truncated_body(self, header, body, type_table):
        """A body cut short mid-posting fails with a typed error.

        The CRC is forged to match the truncated bytes, so the decode
        itself must detect that the postings ran out.
        """
        lst = InvertedList.open(
            "kw", _encode_payload(header[0], body[:-1]), type_table
        )
        with pytest.raises(IndexingError, match="'kw' is truncated"):
            list(lst)

    def test_bytes_past_the_postings(self, header, body, type_table):
        """Postings past the declared count, under a forged CRC."""
        lst = InvertedList.open(
            "kw", _encode_payload(header[0] - 1, body), type_table
        )
        with pytest.raises(IndexingError, match="'kw' has bytes past"):
            list(lst)


class TestPayloadCorruptionOnDisk:
    """The per-list CRC catches payload damage the opener cannot see.

    The file-level checksum is recomputed after each mutation, so the
    snapshot *opens* cleanly — the corruption must be caught lazily, by
    the list's CRC, when the list is first read.
    """

    def frozen(self, figure1_index, tmp_path):
        path = tmp_path / "frozen.frz"
        freeze_index(figure1_index, path)
        keyword = max(
            figure1_index.inverted.keywords(),
            key=figure1_index.inverted.list_length,
        )
        return path, keyword, frozen_payload(figure1_index, keyword)

    def rechecksum(self, blob):
        body_start = _HEADER.size + _SECTION_COUNT * _SECTION_ENTRY.size
        struct.pack_into(
            "<I", blob, len(MAGIC) + 4, zlib.crc32(bytes(blob[body_start:]))
        )

    def test_flipped_payload_byte_fails_at_first_read(
        self, figure1_index, tmp_path
    ):
        path, keyword, payload = self.frozen(figure1_index, tmp_path)
        blob = bytearray(path.read_bytes())
        position = blob.find(payload)
        assert position != -1, "payload bytes not found in the snapshot"
        # Damage the last posting's bytes, then make the file-level
        # checksum agree again.
        blob[position + len(payload) - 1] ^= 0x40
        self.rechecksum(blob)
        bad = tmp_path / "bad_payload.frz"
        bad.write_bytes(bytes(blob))

        loaded = load_frozen_index(bad)
        lazy = loaded.inverted_list(keyword)
        # Opening reads the count only; the first read checks the CRC
        # and names the keyword in a typed checksum error.
        assert len(lazy) == len(figure1_index.inverted_list(keyword))
        with pytest.raises(
            IndexingError,
            match=f"posting list for {keyword!r} fails its checksum",
        ):
            lazy[0]

    def test_clean_snapshot_decodes_every_list(
        self, figure1_index, tmp_path
    ):
        path, _keyword, _payload = self.frozen(figure1_index, tmp_path)
        loaded = load_frozen_index(path)
        for keyword in figure1_index.inverted.keywords():
            assert list(loaded.inverted_list(keyword)) == list(
                figure1_index.inverted_list(keyword)
            ), keyword


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

    @staticmethod
    def assert_decodes_at_first_read(index, keyword, partition):
        lst = index.inverted.get(keyword)
        assert not lst.decoded
        assert len(lst) == index.inverted.list_length(keyword)
        assert not lst.decoded
        lo, hi = lst.range_indices(partition)
        assert lst.decoded
        assert hi - lo == 1
        return lst

    def test_appended_and_delta_layered_lists_decode_at_first_read(
        self, figure1_tree, tmp_path
    ):
        """A list rewritten by a mutation, or served by a delta layer,
        opens like a list of the base snapshot: the count at open, the
        whole payload at the first read."""
        loaded, path = self.reload(figure1_tree, tmp_path)
        before = loaded.inverted.list_length("xml")
        partition = append_partition(
            loaded, author_spec("erin", ["xml views"])
        ).dewey
        appended = self.assert_decodes_at_first_read(loaded, "xml", partition)
        assert len(appended) == before + 1
        assert list(appended)[-1].dewey.components[:2] == (
            partition.components
        )

        delta = tmp_path / "cow.d1.dlt"
        save_delta(loaded, delta, path)
        chained = load_index_chain(delta)
        layered = self.assert_decodes_at_first_read(chained, "xml", partition)
        assert list(layered) == list(appended)

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
