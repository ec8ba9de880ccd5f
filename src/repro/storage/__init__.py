"""Storage substrate: byte codecs, sorted blocks, one overlay store.

Replaces the paper's Berkeley DB [24] dependency with the capabilities
the indexes need from it: keyed lookup, ordered range scans (binary
search over sorted snapshot sections, merged with one in-memory overlay
store), and file persistence (:mod:`repro.index.frozen`).
"""

from .encoding import (
    SortedKVBlock,
    decode_key,
    decode_uvarint,
    encode_key,
    encode_sorted_kv_block,
    encode_uvarint,
    key_prefix_upper_bound,
)
from .kvstore import CowKVStore, StackedKVBase

__all__ = [
    "CowKVStore",
    "StackedKVBase",
    "SortedKVBlock",
    "encode_sorted_kv_block",
    "encode_key",
    "decode_key",
    "encode_uvarint",
    "decode_uvarint",
    "key_prefix_upper_bound",
]
