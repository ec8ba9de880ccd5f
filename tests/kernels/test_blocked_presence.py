"""Resident blocked columns take SLE's batch presence path.

``BlockedListColumns.tables_ready`` gates the batch merge-join: it must
turn true as soon as a whole-list consumer has decoded the column (the
compiled backend's ``flat_offs`` does, on its first SLCA call) and must
never be what forces a decode.
"""

from __future__ import annotations

import pytest

import repro.kernels.backend as backend_module
from repro.datasets import generate_dblp
from repro.index import build_document_index, freeze_index, load_frozen_index
from repro.kernels import (
    BlockedListColumns,
    columns_for,
    presence_ready,
    slca_columns,
)

BLOCK_SIZE = 8


@pytest.fixture(scope="module")
def frozen_path(tmp_path_factory):
    index = build_document_index(generate_dblp(num_authors=40, seed=5))
    path = tmp_path_factory.mktemp("blocked") / "corpus.frz"
    freeze_index(index, path, block_size=BLOCK_SIZE)
    return path


def _two_longest_blocked(index):
    lengths = sorted(
        ((index.inverted.list_length(keyword), keyword)
         for keyword in index.inverted.keywords()),
        reverse=True,
    )
    lists = [index.inverted.get(keyword) for _, keyword in lengths[:2]]
    columns = [columns_for(lst) for lst in lists]
    assert all(isinstance(c, BlockedListColumns) for c in columns)
    return lists, columns


def test_one_compiled_slca_call_makes_the_columns_presence_ready(frozen_path):
    if backend_module.compiled is None:
        pytest.skip("compiled backend unavailable on this host")
    lists, columns = _two_longest_blocked(load_frozen_index(frozen_path))
    assert not presence_ready(columns)
    slca_columns(columns)
    # flat_offs walked every block: the columns are resident, and
    # reporting it costs nothing more.
    decoded = [lst.block_store.blocks_decoded for lst in lists]
    assert decoded == [
        lst.block_store.block_count for lst in lists
    ]
    assert presence_ready(columns)
    assert [lst.block_store.blocks_decoded for lst in lists] == decoded


def test_header_probes_leave_the_columns_lazy(frozen_path):
    lists, columns = _two_longest_blocked(load_frozen_index(frozen_path))
    long_column, other = columns
    # A pid known to the other list: a real probe, resolved through
    # the headers plus at most the two blocks that pin the range.
    pid = other.keys[len(other.keys) // 2][:2]
    long_column.may_contain(pid)
    long_column.pid_range.get(pid)
    decoded = [lst.block_store.blocks_decoded for lst in lists]
    assert decoded[0] <= 2
    assert not long_column.tables_ready
    assert not presence_ready(columns)
    # Asking did not decode anything either.
    assert [lst.block_store.blocks_decoded for lst in lists] == decoded
