"""One loader for every index source.

The paper stores its indexes in Berkeley DB so a corpus is parsed and
analyzed once; here that file is a frozen snapshot
(:mod:`repro.index.frozen`) with optional delta snapshots stacked on
it (:mod:`repro.index.delta`).  An index therefore comes from exactly
three sources — a raw XML document, a ``.frz`` snapshot, or a ``.dlt``
chain top — and :func:`open_index_source` tells them apart.
"""

from __future__ import annotations

import os

from ..errors import IndexingError
from ..xmltree.parser import parse_file
from .builder import build_document_index
from .delta import DELTA_MAGIC, load_index_chain
from .frozen import MAGIC, load_frozen_index


def open_index_source(source, pause=None):
    """A :class:`DocumentIndex` from any on-disk source.

    Dispatches on what ``source`` is: a frozen snapshot or a delta
    chain top (checked by magic), or a raw ``.xml`` document indexed
    on the fly.  This is the loader behind both the CLI source
    argument and the serving daemon's startup/hot-reload paths.

    ``pause`` is an optional zero-argument callable invoked
    periodically during a snapshot open's one CPU-bound stretch: a
    loader running on a background thread of a live server passes a
    short ``time.sleep`` so the open yields the interpreter to
    concurrent request threads instead of monopolizing it.  Ignored
    for XML, whose build is not on any serving path.
    """
    if os.path.isdir(source):
        raise IndexingError(
            f"{source!r} is a directory, not an index source: pass an "
            ".xml document, a .frz snapshot or a .dlt delta (an index "
            "directory saved by an older build is rebuilt from its "
            "document with `repro index`)"
        )
    if not os.path.exists(source):
        raise IndexingError(f"no such index or document: {source!r}")
    try:
        with open(source, "rb") as handle:
            magic = handle.read(len(MAGIC))
    except OSError:
        magic = b""
    if magic == MAGIC:
        return load_frozen_index(source, pause=pause)
    if magic == DELTA_MAGIC:
        return load_index_chain(source, pause=pause)
    return build_document_index(parse_file(source))
