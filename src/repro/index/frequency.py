"""The frequent table (Section VII, index 2).

Stores, for each combination of keyword ``k`` and node type ``T``:

* ``f_k^T`` — the **XML document frequency** (Definition 3.2): the
  number of T-typed nodes containing ``k`` anywhere in their subtree;
* ``tf(k, T)`` — the **XML term frequency**: total occurrences of ``k``
  within subtrees rooted at T-typed nodes.

Entries live in the store under the order-preserving
composite key ``(keyword, type_id)`` so one prefix scan returns all
types for a keyword — the access pattern of Formula 1 (summing
``f_k^T`` over all T for each query keyword).
"""

from __future__ import annotations

import struct

from ..storage import CowKVStore, encode_key

_VALUE = struct.Struct(">II")  # f_k^T, tf(k, T)
_ABSENT = (0, 0)


class FrequencyTable:
    """XML DF / TF statistics keyed by (keyword, node type)."""

    def __init__(self, type_ids=None, type_table=None, store=None):
        self._store = store if store is not None else CowKVStore()
        # Interning shared with the inverted index keeps keys compact.
        self._type_ids = type_ids if type_ids is not None else {}
        self._type_table = type_table if type_table is not None else []
        self._pending = {}
        # Hot-path memo over the store: keyword -> {node_type: (df, tf)},
        # filled by one prefix scan per keyword.  An absent keyword's
        # scan is empty and is not kept, so the memo holds indexed
        # keywords only.  Cleared on any write.
        self._memo = {}

    def _intern(self, node_type):
        type_id = self._type_ids.get(node_type)
        if type_id is None:
            type_id = len(self._type_table)
            self._type_ids[node_type] = type_id
            self._type_table.append(node_type)
        return type_id

    # ------------------------------------------------------------------
    # Build API (accumulate in memory, then flush once)
    # ------------------------------------------------------------------
    def accumulate(self, keyword, node_type, df_delta=0, tf_delta=0):
        """Add to the (keyword, type) counters during index build."""
        key = (keyword, self._intern(node_type))
        df, tf = self._pending.get(key, (0, 0))
        self._pending[key] = (df + df_delta, tf + tf_delta)

    def finalize(self):
        """Flush accumulated counters into the store."""
        for (keyword, type_id), (df, tf) in self._pending.items():
            self._store.put(
                encode_key((keyword, type_id)), _VALUE.pack(df, tf)
            )
        self._pending.clear()
        self.clear_memo()

    def adjust(self, keyword, node_type, df_delta=0, tf_delta=0):
        """Read-modify-write one (keyword, type) entry (index updates)."""
        if not df_delta and not tf_delta:
            return
        key = encode_key((keyword, self._intern(node_type)))
        raw = self._store.get(key)
        df, tf = _VALUE.unpack(raw) if raw is not None else (0, 0)
        self._store.put(key, _VALUE.pack(df + df_delta, tf + tf_delta))
        self._memo.pop(keyword, None)

    def clear_memo(self):
        """Drop the lookup memo (after any bulk store mutation)."""
        self._memo.clear()

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def _entries(self, keyword):
        """``{node_type: (df, tf)}`` for one keyword, in store order
        (shared: read, never write)."""
        entries = self._memo.get(keyword)
        if entries is None:
            type_table = self._type_table
            entries = {
                # The type id is the key's last part: 8 big-endian bytes.
                type_table[int.from_bytes(key[-8:], "big")]:
                    _VALUE.unpack(raw)
                for key, raw in self._store.scan_prefix(
                    encode_key((keyword,))
                )
            }
            if entries:
                self._memo[keyword] = entries
        return entries

    def _lookup(self, keyword, node_type):
        return self._entries(keyword).get(node_type, _ABSENT)

    def xml_df(self, keyword, node_type):
        """``f_k^T``: T-typed nodes containing ``keyword`` in the subtree."""
        return self._lookup(keyword, node_type)[0]

    def tf(self, keyword, node_type):
        """``tf(k, T)``: term count of ``keyword`` under T-typed subtrees."""
        return self._lookup(keyword, node_type)[1]

    def types_for(self, keyword):
        """All (node_type, f_k^T, tf) triples for one keyword, in the
        store's key order (a new list)."""
        return [
            (node_type, df, tf)
            for node_type, (df, tf) in self._entries(keyword).items()
        ]

    def __len__(self):
        return len(self._store) + len(self._pending)
