"""Snapshots carry no timing; older files that do still load.

Earlier builds wrote a cost-model calibration record (a timing of the
host, different on every freeze) into the statistics section of every
frozen snapshot and delta, under the reserved ``CALIBRATION_KEY``.
Nothing writes it now, so two freezes of one index are byte-identical;
the reader skips the record, so those files load — with no format
version bump — and answer exactly like files without it.
"""

import struct

import pytest

import repro.index.delta as delta_module
import repro.index.frozen as frozen_module
from repro.core.engine import XRefine
from repro.errors import IndexingError
from repro.index import append_partition, load_index_chain, save_delta
from repro.index.frozen import (
    CALIBRATION_KEY,
    FORMAT_VERSION,
    freeze_index,
    load_frozen_index,
)
from repro.verify.oracle import response_fingerprint

QUERIES = ("databse systems", "xml query", "keyword search")

#: The record as the last build that wrote it laid it out: a version
#: byte (3) and nine little-endian doubles.
RECORD_V3 = struct.pack("<B9d", 3, *(1e-7 * (i + 1) for i in range(9)))


def with_record(monkeypatch, raw, module=frozen_module):
    """Make ``module``'s writer add a calibration record, as before."""
    plain = frozen_module._statistics_pairs
    monkeypatch.setattr(
        module,
        "_statistics_pairs",
        lambda index: sorted(plain(index) + [(CALIBRATION_KEY, raw)]),
    )


def answers(index):
    engine = XRefine(index, cache_size=0)
    return [
        response_fingerprint(engine.search(query, k=2, algorithm=algorithm))
        for query in QUERIES
        for algorithm in ("auto", "partition", "stack")
    ]


def statistics_of(index):
    return {
        node_type: (
            entry.node_count, entry.distinct_keywords, entry.total_terms
        )
        for node_type, entry in index.statistics.items()
    }


class TestFormatVersion2:
    def test_calibration_key_never_collides_with_node_types(
        self, tmp_path, figure1_index, monkeypatch
    ):
        with_record(monkeypatch, RECORD_V3)
        path = tmp_path / "with_record.frz"
        freeze_index(figure1_index, path)
        index = load_frozen_index(path)
        for node_type in index.statistics.types():
            assert "\x00calibration" not in node_type


def assert_record_is_skipped(tmp_path, index, monkeypatch, raw):
    """A file carrying ``raw`` loads with no calibration and answers
    exactly like the same index frozen without it."""
    plain_path = tmp_path / "plain.frz"
    freeze_index(index, plain_path)
    with_record(monkeypatch, raw)
    carrying_path = tmp_path / "carrying.frz"
    freeze_index(index, carrying_path)
    monkeypatch.undo()
    assert carrying_path.read_bytes() != plain_path.read_bytes()

    plain = load_frozen_index(plain_path)
    carrying = load_frozen_index(carrying_path)
    assert getattr(carrying, "calibration", None) is None
    assert statistics_of(carrying) == statistics_of(plain)
    assert answers(carrying) == answers(plain)


class TestVersionSkew:
    @pytest.mark.parametrize(
        "raw", [RECORD_V3, b""], ids=["v3", "empty"]
    )
    def test_calibration_record_of_any_version_is_skipped(
        self, tmp_path, dblp_index, monkeypatch, raw
    ):
        assert_record_is_skipped(tmp_path, dblp_index, monkeypatch, raw)

    def test_unknown_calibration_record_version_degrades_to_none(
        self, tmp_path, dblp_index, monkeypatch
    ):
        raw = b"\xc8" + RECORD_V3[1:]  # a record version nobody wrote
        assert_record_is_skipped(tmp_path, dblp_index, monkeypatch, raw)

    def test_pre_batch_record_versions_degrade_to_none(
        self, tmp_path, dblp_index, monkeypatch
    ):
        for name, raw in (
            ("v1", struct.pack("<B7d", 1, *([1e-6] * 7))),
            ("v2", struct.pack("<B8d", 2, *([1e-6] * 8))),
        ):
            directory = tmp_path / name
            directory.mkdir()
            assert_record_is_skipped(directory, dblp_index, monkeypatch, raw)

    def test_future_format_version_is_rejected(
        self, tmp_path, figure1_index, monkeypatch
    ):
        """Files whose writer declared version 1, 2 or 4 are refused."""
        for version in (1, 2, FORMAT_VERSION + 1):
            monkeypatch.setattr(frozen_module, "FORMAT_VERSION", version)
            path = tmp_path / f"v{version}.frz"
            freeze_index(figure1_index, path)
            monkeypatch.undo()
            with pytest.raises(
                IndexingError,
                match=f"format version {version}; .* only version "
                f"{FORMAT_VERSION}",
            ):
                load_frozen_index(path)


class TestNoTimingInTheFile:
    def test_two_freezes_are_byte_identical(self, tmp_path, dblp_index):
        first = tmp_path / "first.frz"
        second = tmp_path / "second.frz"
        freeze_index(dblp_index, first)
        freeze_index(dblp_index, second)
        assert first.read_bytes() == second.read_bytes()
        assert not hasattr(dblp_index, "calibration")

    def test_delta_carrying_a_record_loads_and_compacts_identically(
        self, tmp_path, dblp_index, monkeypatch
    ):
        base = tmp_path / "base.frz"
        freeze_index(dblp_index, base)
        partition = ("author", None, [
            ("name", "delta carol"),
            ("publications", None, [
                ("inproceedings", None, [("title", "xml stream joins")]),
            ]),
        ])
        paths = {}
        for name, record in (("plain", None), ("carrying", RECORD_V3)):
            if record is not None:
                with_record(monkeypatch, record, module=delta_module)
            index = load_frozen_index(base)
            append_partition(index, partition)
            paths[name] = tmp_path / f"{name}.d1.dlt"
            save_delta(index, paths[name], base)
            index.frozen_snapshot.close()
        monkeypatch.undo()

        chains = {name: load_index_chain(path) for name, path in paths.items()}
        assert statistics_of(chains["carrying"]) == statistics_of(
            chains["plain"]
        )
        assert answers(chains["carrying"]) == answers(chains["plain"])
        compacted = {}
        for name, index in chains.items():
            compacted[name] = tmp_path / f"{name}.frz"
            freeze_index(index, compacted[name])
        assert (
            compacted["carrying"].read_bytes()
            == compacted["plain"].read_bytes()
        )
