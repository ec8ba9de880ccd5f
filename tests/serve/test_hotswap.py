"""Zero-downtime snapshot hot-swap: drain, flip, release.

The contract under test, end to end and at the lifecycle layer:

* a reload under concurrent client load drops **zero** requests —
  every response is a well-formed answer from exactly one generation;
* a failed reload (missing or corrupt snapshot) is a typed error and
  the old generation keeps serving, untouched;
* the swapped-out generation's mmap is released when its last reader
  exits — not at flip time, and not before.
"""

from __future__ import annotations

import threading

import pytest

from repro import XRefine
from repro.serve import (
    BackgroundServer,
    ServeClientError,
    SnapshotManager,
)
from repro.serve.wire import encode_response

QUERY = "databse systems"


def wire_answer(payload):
    return {
        key: value
        for key, value in payload.items()
        if key not in ("stats", "generation", "plan", "plan_text")
    }


class TestReloadUnderLoad:
    def test_swap_cycle_drops_nothing(self, serve_snapshots):
        """Clients hammer /search while the daemon swaps A→B→A→B."""
        snap_a, snap_b = serve_snapshots
        # Ground truth per corpus, computed with library engines.
        expected = {}
        for path in (snap_a, snap_b):
            engine = XRefine.from_frozen(path)
            expected[path] = wire_answer(
                encode_response(engine.search(QUERY, k=2))
            )
        assert expected[snap_a] != expected[snap_b]  # swap is observable

        failures = []
        answers = []
        stop = threading.Event()

        with BackgroundServer(snap_a) as daemon:

            def hammer():
                with daemon.client() as client:
                    while not stop.is_set():
                        try:
                            answers.append(client.search(QUERY, k=2))
                        except Exception as exc:  # noqa: BLE001
                            failures.append(exc)
                            return

            workers = [
                threading.Thread(target=hammer) for _ in range(4)
            ]
            for worker in workers:
                worker.start()
            try:
                with daemon.client() as admin:
                    # Guarantee at least one pre-swap answer on record.
                    answers.append(admin.search(QUERY, k=2))
                    generations = [0]
                    for target in (snap_b, snap_a, snap_b, snap_a):
                        flip = admin.reload(target)
                        assert flip["ok"] is True
                        generations.append(flip["generation"])
            finally:
                stop.set()
                for worker in workers:
                    worker.join(30.0)

            assert failures == []
            assert generations == [0, 1, 2, 3, 4]
            assert daemon.server.manager.swaps == 4
            assert len(answers) >= 4
            seen_generations = set()
            for answer in answers:
                generation = answer["generation"]
                seen_generations.add(generation)
                source = snap_a if generation % 2 == 0 else snap_b
                # Every answer is exactly one generation's answer —
                # never a stale-cache mix across the swap.
                assert wire_answer(answer) == expected[source], generation
            assert 0 in seen_generations  # load spanned the first flip

    def test_hot_query_generation_label_tracks_swaps_with_cache_on(
        self, serve_snapshots
    ):
        """One cached query hammered across A→B→A reloads.

        Hits are answered on the event loop from bytes that carry the
        generation they were rendered under: every response must name
        the snapshot its answer came from, and once a ``/reload`` has
        returned, no later request may be answered from the previous
        generation's bytes.
        """
        snap_a, snap_b = serve_snapshots
        expected = {}
        for path in (snap_a, snap_b):
            engine = XRefine.from_frozen(path)
            expected[path] = wire_answer(
                encode_response(engine.search(QUERY, k=2))
            )
        assert expected[snap_a] != expected[snap_b]

        floor = [0]  # generation the last completed /reload flipped to
        answers = []
        failures = []
        stop = threading.Event()

        with BackgroundServer(snap_a) as daemon:
            server = daemon.server

            def hammer():
                with daemon.client() as client:
                    while not stop.is_set():
                        sent_after = floor[0]
                        try:
                            answer = client.search(QUERY, k=2)
                        except Exception as exc:  # noqa: BLE001
                            failures.append(exc)
                            return
                        answers.append((sent_after, answer))

            def wait_for_hits(count):
                target = server.inline_hits + count
                for _ in range(600):
                    if server.inline_hits >= target or failures:
                        return
                    stop.wait(0.05)

            worker = threading.Thread(target=hammer)
            worker.start()
            try:
                with daemon.client() as admin:
                    for target in (snap_b, snap_a):
                        wait_for_hits(20)  # this generation is hot
                        floor[0] = admin.reload(target)["generation"]
                    wait_for_hits(20)
            finally:
                stop.set()
                worker.join(30.0)
            assert not worker.is_alive()
            assert failures == []
            assert server.inline_hits >= 60

        assert {answer["generation"] for _, answer in answers} == {0, 1, 2}
        for sent_after, answer in answers:
            generation = answer["generation"]
            assert generation >= sent_after
            source = snap_a if generation % 2 == 0 else snap_b
            assert wire_answer(answer) == expected[source], generation

    def test_swap_purges_cached_answers(self, serve_snapshots):
        """A query cached on generation N must re-evaluate on N+1."""
        snap_a, snap_b = serve_snapshots
        with BackgroundServer(snap_a) as daemon:
            with daemon.client() as client:
                before = client.search(QUERY, k=2)
                again = client.search(QUERY, k=2)  # served warm
                assert wire_answer(again) == wire_answer(before)
                client.reload(snap_b)
                after = client.search(QUERY, k=2)
                assert after["generation"] == 1
                assert wire_answer(after) != wire_answer(before)

    def test_reload_prewarms_recently_served_queries(
        self, serve_snapshots
    ):
        """The slow half pre-mines the hot set against the new index."""
        snap_a, snap_b = serve_snapshots
        with BackgroundServer(snap_a) as daemon:
            with daemon.client() as client:
                client.search(QUERY, k=2)
                flip = client.reload(snap_b)
                # The served signature was warmed before the flip, so
                # its first post-swap evaluation skips the cold mining
                # cost; a cold daemon (nothing served yet) warms none.
                assert flip["prewarmed"] >= 1
        with BackgroundServer(snap_a) as daemon:
            with daemon.client() as client:
                assert client.reload(snap_b)["prewarmed"] == 0

    def test_reload_back_prewarms_and_answers_as_before(
        self, serve_snapshots
    ):
        """A→B→A: each reload's miner is the serving one updated, and
        the way back answers on the wire as A did at first."""
        snap_a, snap_b = serve_snapshots
        with BackgroundServer(snap_a) as daemon:
            engine = daemon.server.manager.engine
            first_miner = engine.miner
            with daemon.client() as client:
                before = client.search(QUERY, k=2)
                client.reload(snap_b)
                assert engine.miner is not first_miner
                flip = client.reload(snap_a)
                assert flip["generation"] == 2 and flip["prewarmed"] >= 1
                assert engine.miner.vocabulary == first_miner.vocabulary
                after = client.search(QUERY, k=2)
                assert after["generation"] == 2
                assert wire_answer(after) == wire_answer(before)


class TestFailedReload:
    """Every refused source: typed 500, and the old generation serves on."""

    def refused(self, daemon, client, source, says):
        healthy = client.search(QUERY, k=2)
        with pytest.raises(ServeClientError) as err:
            client.reload(str(source))
        assert err.value.status == 500
        assert err.value.error_type == "IndexingError"
        assert says in err.value.error
        assert daemon.server.manager.generation == 0
        still = client.search(QUERY, k=2)
        assert wire_answer(still) == wire_answer(healthy)

    def test_missing_snapshot_keeps_old_live(self, daemon, client):
        self.refused(daemon, client, "/nonexistent/snapshot.frz", "no such")

    def test_corrupt_snapshot_keeps_old_live(
        self, daemon, client, tmp_path
    ):
        from repro.index.frozen import MAGIC

        corrupt = tmp_path / "corrupt.frz"
        corrupt.write_bytes(MAGIC + b"\x00" * 16)  # truncated body
        self.refused(daemon, client, corrupt, "corrupt.frz")

    def test_directory_source_keeps_old_live(self, daemon, client, tmp_path):
        """An index directory — a format no build reads any more."""
        (tmp_path / "corpus.idx").mkdir()
        (tmp_path / "corpus.idx" / "document.xml").write_text("<a/>")
        self.refused(daemon, client, tmp_path / "corpus.idx", "is a directory")

    def test_old_format_version_keeps_old_live(
        self, daemon, client, serve_snapshots, tmp_path
    ):
        import struct

        from repro.index.frozen import MAGIC

        with open(serve_snapshots[1], "rb") as handle:
            blob = bytearray(handle.read())
        struct.pack_into("<H", blob, len(MAGIC), 2)
        stale = tmp_path / "v2.frz"
        stale.write_bytes(bytes(blob))
        self.refused(daemon, client, stale, "format version 2")


class TestSnapshotLifecycle:
    def test_old_mmap_released_after_last_reader(self, serve_snapshots):
        snap_a, snap_b = serve_snapshots
        manager = SnapshotManager(snap_a)
        try:
            old_snapshot = manager.engine.index.frozen_snapshot
            reader = manager.current()  # an in-flight request
            assert reader.generation == 0

            new_index = manager.load(snap_b)
            manager.flip(new_index, snap_b)
            assert manager.generation == 1
            # The reader admitted before the flip still pins the old
            # generation's mmap open.
            assert not reader.disposed
            assert not old_snapshot.closed

            reader.release()
            assert reader.disposed
            assert old_snapshot.closed
        finally:
            manager.close()

    def test_handles_acquired_after_flip_see_the_new_generation(
        self, serve_snapshots
    ):
        snap_a, snap_b = serve_snapshots
        manager = SnapshotManager(snap_a)
        try:
            new_index = manager.load(snap_b)
            manager.flip(new_index, snap_b)
            handle = manager.current()
            assert handle.generation == 1
            assert handle.index is manager.engine.index
            handle.release()
        finally:
            manager.close()

    def test_flip_restamps_the_index_version(self, serve_snapshots):
        snap_a, snap_b = serve_snapshots
        manager = SnapshotManager(snap_a)
        try:
            for expected_version, target in ((1, snap_b), (2, snap_a)):
                new_index = manager.load(target)
                assert getattr(new_index, "version", 0) == 0  # fresh
                flip = manager.flip(new_index, target)
                assert flip["index_version"] == expected_version
                assert manager.engine.index.version == expected_version
        finally:
            manager.close()

    def test_close_releases_the_current_generation(self, serve_snapshots):
        manager = SnapshotManager(serve_snapshots[0])
        snapshot = manager.engine.index.frozen_snapshot
        manager.close()
        assert snapshot.closed

    def test_acquire_after_dispose_is_refused(self, serve_snapshots):
        manager = SnapshotManager(serve_snapshots[0])
        handle = manager.current()
        manager.close()
        handle.release()
        assert handle.disposed
        with pytest.raises(RuntimeError):
            handle.acquire()
