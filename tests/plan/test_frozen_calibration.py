"""Calibration persistence in frozen snapshots."""

import pytest

import repro.index.frozen as frozen_module
from repro.core.engine import XRefine
from repro.errors import IndexingError
from repro.index.frozen import FORMAT_VERSION, freeze_index, load_frozen_index


@pytest.fixture()
def snapshot_path(tmp_path, figure1_index):
    path = tmp_path / "corpus.frz"
    freeze_index(figure1_index, path)
    return path


class TestFormatVersion2:
    def test_snapshot_carries_a_calibration(self, snapshot_path):
        index = load_frozen_index(snapshot_path)
        assert index.calibration is not None
        assert index.calibration.source == "snapshot"

    def test_planner_uses_the_snapshot_calibration(self, snapshot_path):
        index = load_frozen_index(snapshot_path)
        engine = XRefine(index)
        engine.search("databse systems", algorithm="auto")
        stats = engine.cache_stats()["planner"]
        assert stats["calibration"]["source"] == "snapshot"

    def test_freezing_stashes_the_calibration_on_the_source(
        self, tmp_path, figure1_index
    ):
        freeze_index(figure1_index, tmp_path / "again.frz")
        assert figure1_index.calibration is not None

    def test_calibration_key_never_collides_with_node_types(
        self, snapshot_path
    ):
        index = load_frozen_index(snapshot_path)
        for node_type in index.statistics.types():
            assert "\x00calibration" not in node_type


class TestVersionSkew:
    def test_unknown_calibration_record_version_degrades_to_none(
        self, tmp_path, figure1_index, monkeypatch
    ):
        from repro.index.frozen import CALIBRATION_KEY
        from repro.plan.cost_model import DEFAULT_CALIBRATION, encode_calibration

        raw = bytearray(encode_calibration(DEFAULT_CALIBRATION))
        raw[0] = 200  # a record version this build does not know
        monkeypatch.setattr(
            frozen_module,
            "_calibration_pairs",
            lambda index: [(CALIBRATION_KEY, bytes(raw))],
        )
        path = tmp_path / "skewed.frz"
        freeze_index(figure1_index, path)

        index = load_frozen_index(path)
        assert index.calibration is None

    def test_pre_batch_record_versions_degrade_to_none(
        self, tmp_path, figure1_index, monkeypatch
    ):
        """v1/v2 records predate the batch-score term: recalibrate.

        Their constants were measured against the pre-batch scoring
        loops, so carrying them forward would mis-cost every route.
        Decoding must reject them outright; the planner then lazily
        recalibrates on first use.
        """
        import struct

        from repro.index.frozen import CALIBRATION_KEY
        from repro.plan.cost_model import decode_calibration

        v1 = struct.pack("<B7d", 1, *([1e-6] * 7))
        v2 = struct.pack("<B8d", 2, *([1e-6] * 8))
        assert decode_calibration(v1) is None
        assert decode_calibration(v2) is None

        monkeypatch.setattr(
            frozen_module,
            "_calibration_pairs",
            lambda index: [(CALIBRATION_KEY, v2)],
        )
        path = tmp_path / "prebatch.frz"
        freeze_index(figure1_index, path)

        index = load_frozen_index(path)
        assert index.calibration is None
        engine = XRefine(index)
        engine.search("databse systems", algorithm="auto")
        stats = engine.cache_stats()["planner"]
        assert stats["calibration"]["source"] != "snapshot"

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
