"""Partition presence must equal its per-partition reference.

Every parity test runs twice via the ``kernel_backend`` fixture: once
under whatever backend import selected (skipped when compilation was
unavailable) and once with the compiled library masked off, so the
pure-Python fallback is exercised in-process regardless of the host.
"""

from __future__ import annotations

import pytest

import repro.kernels.backend as backend_module
from repro.kernels import ListColumns, partition_presence


@pytest.fixture(params=["active", "pure-python"])
def kernel_backend(request, monkeypatch):
    """Run the test under the active backend, then the pure fallback."""
    if request.param == "pure-python":
        monkeypatch.setattr(backend_module, "compiled", None)
    elif backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    return request.param


# ----------------------------------------------------------------------
# Batch partition presence vs per-pid probes
# ----------------------------------------------------------------------
def _pids(column):
    """A column's partition ids as ``(component, component)`` tuples."""
    pid_flat = column.pid_flat
    return list(zip(pid_flat[0::2], pid_flat[1::2]))


def _pid_range(column):
    """pid -> ``(lo, hi)`` posting range of one column."""
    return dict(zip(_pids(column), zip(column.starts, column.ends)))


def _naive_presence(anchor_columns, lane_columns):
    """The short-list route's original probe loop."""
    nlanes = len(lane_columns)
    masks = []
    spans = []
    ranges = [_pid_range(column) for column in lane_columns]
    for pid in _pids(anchor_columns):
        mask = 0
        row = []
        for lane in range(nlanes):
            span = ranges[lane].get(pid)
            if span is None:
                row.extend((-1, -1))
            else:
                mask |= 1 << lane
                row.extend(span)
        masks.append(mask)
        spans.extend(row)
    return masks, spans


def _assert_presence_matches(anchor_columns, lane_columns):
    masks, spans = partition_presence(anchor_columns, lane_columns)
    want_masks, want_spans = _naive_presence(anchor_columns, lane_columns)
    assert list(masks) == want_masks
    assert list(spans) == want_spans


class TestPartitionPresence:
    def test_matches_per_pid_probes(self, kernel_backend):
        columns = [
            ListColumns([(0, 1, 0), (0, 1, 2), (0, 3), (1, 0), (2, 2, 5)]),
            ListColumns([(0, 1, 1), (0, 3, 0), (2, 2)]),
            ListColumns([(1, 0, 4), (1, 0, 5), (3, 1)]),
        ]
        for anchor in columns:
            _assert_presence_matches(anchor, columns)

    def test_duplicate_keyword_lanes_share_a_column(self, kernel_backend):
        """A query repeating a keyword probes the same column twice."""
        shared = ListColumns([(0, 1, 0), (0, 2), (3, 1, 4)])
        other = ListColumns([(0, 2, 1), (3, 1)])
        lanes = [shared, other, shared]
        _assert_presence_matches(shared, lanes)
        masks, spans = partition_presence(shared, lanes)
        nlanes = len(lanes)
        for i in range(len(shared.starts)):
            # Both duplicate lanes see the partition identically.
            assert bool(masks[i] & 1) == bool(masks[i] & 4)
            base = i * nlanes * 2
            assert spans[base:base + 2] == spans[base + 4:base + 6]

    def test_single_posting_partitions(self, kernel_backend):
        anchor = ListColumns([(0, 0, 1), (0, 1, 2), (1, 5), (2, 0, 0, 3)])
        lanes = [anchor, ListColumns([(0, 1, 9), (2, 0, 1)])]
        _assert_presence_matches(anchor, lanes)
        masks, spans = partition_presence(anchor, lanes)
        # Every anchor partition holds exactly one posting.
        for i, pid in enumerate(_pids(anchor)):
            lo, hi = spans[i * 4], spans[i * 4 + 1]
            assert (lo, hi) == _pid_range(anchor)[pid]
            assert hi - lo == 1

    def test_absent_and_empty_lanes(self, kernel_backend):
        anchor = ListColumns([(0, 1, 0), (4, 4)])
        lanes = [anchor, ListColumns([(9, 9, 9)]), ListColumns([])]
        _assert_presence_matches(anchor, lanes)
        masks, spans = partition_presence(anchor, lanes)
        for i in range(len(anchor.starts)):
            assert masks[i] == 1  # only the anchor lane is present
            assert list(spans[i * 6 + 2:i * 6 + 6]) == [-1, -1, -1, -1]

    def test_root_postings_have_no_partition(self, kernel_backend):
        """Depth-0 labels belong to no partition (Definition 6.1)."""
        anchor = ListColumns([(0,), (0, 1), (0, 1, 2), (0, 2, 0)])
        assert anchor.root_count == 1
        assert _pids(anchor) == [(0, 1), (0, 2)]
        _assert_presence_matches(anchor, [anchor, ListColumns([(0,)])])
