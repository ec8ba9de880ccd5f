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

from ..storage import CowKVStore, decode_key, encode_key

_VALUE = struct.Struct(">II")  # f_k^T, tf(k, T)


class FrequencyTable:
    """XML DF / TF statistics keyed by (keyword, node type)."""

    def __init__(self, type_ids=None, type_table=None, store=None):
        self._store = store if store is not None else CowKVStore()
        # Interning shared with the inverted index keeps keys compact.
        self._type_ids = type_ids if type_ids is not None else {}
        self._type_table = type_table if type_table is not None else []
        self._pending = {}
        # Hot-path memos over the store: (keyword, type) -> (df, tf)
        # lookups and per-keyword prefix scans.  Cleared on any write.
        self._memo = {}
        self._types_memo = {}

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
        self._memo.pop((keyword, node_type), None)
        self._types_memo.pop(keyword, None)

    def clear_memo(self):
        """Drop the lookup memos (after any bulk store mutation)."""
        self._memo.clear()
        self._types_memo.clear()

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def _lookup(self, keyword, node_type):
        memo_key = (keyword, node_type)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        type_id = self._type_ids.get(node_type)
        if type_id is None:
            value = (0, 0)
        else:
            raw = self._store.get(encode_key((keyword, type_id)))
            value = _VALUE.unpack(raw) if raw is not None else (0, 0)
        self._memo[memo_key] = value
        return value

    def xml_df(self, keyword, node_type):
        """``f_k^T``: T-typed nodes containing ``keyword`` in the subtree."""
        return self._lookup(keyword, node_type)[0]

    def tf(self, keyword, node_type):
        """``tf(k, T)``: term count of ``keyword`` under T-typed subtrees."""
        return self._lookup(keyword, node_type)[1]

    def types_for(self, keyword):
        """All (node_type, f_k^T, tf) triples for one keyword.

        The prefix scan is memoized per keyword; a fresh list is
        returned each call so callers may mutate their copy.
        """
        cached = self._types_memo.get(keyword)
        if cached is not None:
            return list(cached)
        prefix = encode_key((keyword,))
        result = []
        for key, raw in self._store.scan_prefix(prefix):
            _, type_id = decode_key(key)
            df, tf = _VALUE.unpack(raw)
            result.append((self._type_table[type_id], df, tf))
        self._types_memo[keyword] = tuple(result)
        return result

    def __len__(self):
        return len(self._store) + len(self._pending)
