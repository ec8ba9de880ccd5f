"""Partition-paged document tree over a frozen snapshot.

The tree section of a frozen snapshot stores the document in preorder:
the root record followed by each partition's subtree records.  The
snapshot also records, per partition, the byte offset of its root
record and its subtree node count (the *tree partition directory*,
written by :func:`repro.index.frozen._encode_tree`).  That makes every
partition independently decodable, so a multi-million-node corpus no
longer materializes its whole tree at open time:

* :func:`decode_paged_tree` decodes only the root record and the
  partition directory — three flat integer arrays, a few bytes per
  partition.  Partition *roots* are shallow
  :class:`_LazyPartitionRoot` nodes created the first time something
  looks at them (``root.children`` is a :class:`_LazyRootChildren`
  sequence), and partition *bodies* stay on the mmap until a root's
  ``children`` is touched;
* touching a lazy root's ``children`` decodes that partition's subtree
  and registers it in the Dewey lookup table, at which point it is
  indistinguishable from an eagerly decoded partition;
* whole-tree operations (``iter_nodes``, ``remove_partition``,
  re-freezing) force :meth:`PagedXMLTree.ensure_loaded` and then run
  the ordinary :class:`~repro.xmltree.tree.XMLTree` machinery, so
  laziness can degrade to eagerness but never to a wrong answer.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left

from ..errors import IndexingError, XMLError
from ..storage import decode_uvarint
from ..xmltree.dewey import Dewey
from ..xmltree.tree import XMLNode, XMLTree, build_node_type

#: Directory entries decoded between ``pause()`` calls at open time.
_OPEN_CHUNK = 4096

#: The slot descriptor behind ``XMLNode.children`` — the lazy root
#: shadows it with a property, so raw slot access goes through this.
_CHILDREN_SLOT = XMLNode.__dict__["children"]


def _read_record(view, tags, pos):
    tag_id, pos = decode_uvarint(view, pos)
    ordinal, pos = decode_uvarint(view, pos)
    child_count, pos = decode_uvarint(view, pos)
    text_len, pos = decode_uvarint(view, pos)
    text = bytes(view[pos : pos + text_len]).decode("utf-8")
    return tags[tag_id], ordinal, child_count, text, pos + text_len


class _LazyPartitionRoot(XMLNode):
    """A partition root whose subtree decodes on first ``children`` access."""

    __slots__ = ("_tree", "_span")

    @property
    def children(self):
        span = self._span
        if span is not None:
            loaded = self._tree._load_partition(self, span[0], span[1])
            _CHILDREN_SLOT.__set__(self, loaded)
            self._span = None
        return _CHILDREN_SLOT.__get__(self)

    @children.setter
    def children(self, value):
        self._span = None
        _CHILDREN_SLOT.__set__(self, value)

    @property
    def loaded(self):
        return self._span is None


class _LazyRootChildren:
    """The document root's child sequence, materialized on demand.

    Backed by the tree partition directory (three parallel integer
    arrays — per-partition ordinal, byte offset and node count), this
    holds a few bytes per partition instead of a shallow
    :class:`XMLNode` per partition, which is what keeps snapshot open
    O(1) in resident memory.  Indexing or iterating creates (and
    memoizes) the shallow roots; partitions appended after open live
    in a plain overflow list.
    """

    __slots__ = ("_tree", "ordinals", "_offsets", "_counts", "_made",
                 "_appended")

    def __init__(self, ordinals, offsets, counts):
        self._tree = None
        self.ordinals = ordinals
        self._offsets = offsets
        self._counts = counts
        self._made = {}
        self._appended = []

    def __len__(self):
        return len(self.ordinals) + len(self._appended)

    def _node_at(self, index):
        node = self._made.get(index)
        if node is None:
            node = self._tree._make_partition_root(
                self.ordinals[index], self._offsets[index],
                self._counts[index],
            )
            self._made[index] = node
        return node

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[position] for position in
                    range(*index.indices(len(self)))]
        directory = len(self.ordinals)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("partition index out of range")
        if index < directory:
            return self._node_at(index)
        return self._appended[index - directory]

    def __iter__(self):
        for index in range(len(self.ordinals)):
            yield self._node_at(index)
        yield from self._appended

    def append(self, node):
        self._appended.append(node)

    def node_for_ordinal(self, ordinal):
        """The shallow root for a partition ordinal, or ``None``."""
        index = bisect_left(self.ordinals, ordinal)
        if index < len(self.ordinals) and self.ordinals[index] == ordinal:
            return self._node_at(index)
        for node in self._appended:
            if node.dewey.components[1] == ordinal:
                return node
        return None

    def max_ordinal(self):
        """The largest partition ordinal present (-1 when empty)."""
        largest = self.ordinals[-1] if len(self.ordinals) else -1
        for node in self._appended:
            largest = max(largest, node.dewey.components[1])
        return largest

    def loaded_count(self):
        """Partitions whose bodies have materialized."""
        made = sum(
            1
            for node in self._made.values()
            if not isinstance(node, _LazyPartitionRoot) or node.loaded
        )
        return made + len(self._appended)


class PagedXMLTree(XMLTree):
    """An :class:`XMLTree` that decodes partitions on demand.

    Invariants: ``_by_dewey`` always contains the root, every
    *materialized* partition root, and every node of every *loaded*
    partition; ``_ordered`` is ``None`` until :meth:`ensure_loaded`
    has materialized everything, after which the base-class
    implementations take over unchanged.
    """

    def __init__(self, root, view, tags, nodes_start, unloaded_extra):
        # Deliberately not calling XMLTree.__init__ — it would walk
        # (and therefore decode) the whole document.
        self.root = root
        self._view = view
        self._tags = tags
        self._nodes_start = nodes_start
        self._by_dewey = {root.dewey: root}
        #: Nodes living only on the mmap (for an unloaded partition its
        #: whole subtree including the not-yet-made shallow root).
        self._unloaded_extra = unloaded_extra
        self._ordered = None

    # ------------------------------------------------------------------
    # Partition faulting
    # ------------------------------------------------------------------
    def _make_partition_root(self, ordinal, offset, node_count):
        """Materialize one shallow partition root from the directory."""
        tag, record_ordinal, _children, text, _pos = _read_record(
            self._view, self._tags, self._nodes_start + offset
        )
        if record_ordinal != ordinal:
            raise IndexingError(
                "frozen snapshot tree partition directory points at the "
                "wrong record"
            )
        root = self.root
        lazy = XMLNode.__new__(_LazyPartitionRoot)
        lazy.tag = tag
        lazy.dewey = Dewey.from_trusted((0, ordinal))
        lazy.node_type = build_node_type(root.node_type, tag)
        lazy.text = text
        lazy._span = (offset, node_count)
        lazy._tree = self
        self._by_dewey[lazy.dewey] = lazy
        self._unloaded_extra -= 1
        return lazy

    def _load_partition(self, partition_root, offset, node_count):
        """Decode one partition body; returns the root's children."""
        view = self._view
        tags = self._tags
        pos = self._nodes_start + offset
        # The first record is the partition root itself, already
        # materialized shallowly — re-read it for its child count.
        _tag, _ordinal, child_count, _text, pos = _read_record(
            view, tags, pos
        )
        by_dewey = self._by_dewey
        root_children = []
        stack = [(partition_root, child_count)]
        for _ in range(node_count - 1):
            while stack and stack[-1][1] == 0:
                stack.pop()
            if not stack:
                raise IndexingError(
                    "frozen snapshot tree partition is malformed"
                )
            parent, remaining = stack[-1]
            stack[-1] = (parent, remaining - 1)
            tag, ordinal, child_count, text, pos = _read_record(
                view, tags, pos
            )
            node = XMLNode(
                tag,
                Dewey.from_trusted(parent.dewey.components + (ordinal,)),
                parent.node_type + (tag,),
                text,
            )
            if parent is partition_root:
                root_children.append(node)
            else:
                parent.children.append(node)
            by_dewey[node.dewey] = node
            stack.append((node, child_count))
        self._unloaded_extra -= node_count - 1
        return root_children

    def _fault_in(self, dewey):
        """Materialize whatever holds ``dewey`` (if anything does)."""
        components = getattr(dewey, "components", None)
        if components is None or len(components) < 2:
            return
        partition = self._by_dewey.get(
            Dewey.from_trusted(components[:2])
        )
        if partition is None:
            children = _CHILDREN_SLOT.__get__(self.root)
            if isinstance(children, _LazyRootChildren):
                partition = children.node_for_ordinal(components[1])
        if (
            len(components) > 2
            and isinstance(partition, _LazyPartitionRoot)
            and not partition.loaded
        ):
            partition.children  # noqa: B018 — property access decodes

    def ensure_loaded(self):
        """Materialize every partition; afterwards the tree is a plain
        :class:`XMLTree` in behavior and cost."""
        if self._ordered is not None:
            return
        materialized = []
        for child in self.root.children:
            if isinstance(child, _LazyPartitionRoot) and not child.loaded:
                child.children  # noqa: B018 — property access decodes
            materialized.append(child)
        # Swap the lazy sequence for a plain list so the base-class
        # mutation paths (remove, re-label) work unchanged.
        self.root.children = materialized
        self._ordered = sorted(
            node.dewey.components for node in self.root.iter_subtree()
        )

    @property
    def fully_loaded(self):
        return self._ordered is not None

    def loaded_partition_count(self):
        """How many partitions have materialized (monitoring/tests)."""
        children = _CHILDREN_SLOT.__get__(self.root)
        if isinstance(children, _LazyRootChildren):
            return children.loaded_count()
        return sum(
            1
            for child in children
            if not isinstance(child, _LazyPartitionRoot) or child.loaded
        )

    # ------------------------------------------------------------------
    # Lookup overrides
    # ------------------------------------------------------------------
    def __len__(self):
        return len(self._by_dewey) + self._unloaded_extra

    def __contains__(self, dewey):
        return self.get(dewey) is not None

    def get(self, dewey, default=None):
        found = self._by_dewey.get(dewey)
        if found is not None:
            return found
        self._fault_in(dewey)
        return self._by_dewey.get(dewey, default)

    def node(self, dewey):
        found = self.get(dewey)
        if found is None:
            raise XMLError(f"no node with Dewey label {dewey}")
        return found

    def partition_of(self, dewey):
        pid = dewey.partition_id()
        if pid is None:
            return None
        return self.get(pid)

    def next_partition_ordinal(self):
        children = _CHILDREN_SLOT.__get__(self.root)
        if isinstance(children, _LazyRootChildren):
            return children.max_ordinal() + 1
        return super().next_partition_ordinal()

    # ------------------------------------------------------------------
    # Traversal overrides
    # ------------------------------------------------------------------
    def iter_nodes(self):
        self.ensure_loaded()
        return super().iter_nodes()

    def iter_subtree(self, dewey):
        if self._ordered is not None or dewey == self.root.dewey:
            self.ensure_loaded()
            return super().iter_subtree(dewey)
        node = self.get(dewey)
        if node is None:
            return iter(())
        # Preorder of one subtree is exactly its document order.
        return node.iter_subtree()

    def node_types(self):
        self.ensure_loaded()
        return super().node_types()

    # ------------------------------------------------------------------
    # Mutation overrides
    # ------------------------------------------------------------------
    def append_partition(self, node):
        if self._ordered is not None:
            return super().append_partition(node)
        expected = Dewey((0, self.next_partition_ordinal()))
        if node.dewey != expected:
            raise XMLError(
                f"new partition must be labeled {expected}, got {node.dewey}"
            )
        self.root.children.append(node)
        for descendant in node.iter_subtree():
            self._by_dewey[descendant.dewey] = descendant

    def remove_partition(self, dewey):
        # Removal splices the global document order — a rare
        # administrative operation, so it simply forces the full load.
        self.ensure_loaded()
        return super().remove_partition(dewey)


def decode_paged_tree(view, directory_payload, pause=None):
    """Open a tree section as a :class:`PagedXMLTree`.

    ``view`` is the mapped tree-section bytes; ``directory_payload``
    the tree partition directory from the block section.  Only the
    root record and the directory's integer arrays are decoded —
    partition roots materialize on first access, so open-time resident
    memory is a few bytes per partition, not an object per partition.
    """
    partition_count, pos = decode_uvarint(directory_payload, 0)
    ordinals = array("q")
    offsets = array("q")
    counts = array("q")
    offset = 0
    previous_ordinal = -1
    for index in range(partition_count):
        if pause is not None and index and index % _OPEN_CHUNK == 0:
            pause()
        ordinal, pos = decode_uvarint(directory_payload, pos)
        delta, pos = decode_uvarint(directory_payload, pos)
        node_count, pos = decode_uvarint(directory_payload, pos)
        offset += delta
        if ordinal <= previous_ordinal or node_count < 1:
            raise IndexingError(
                "frozen snapshot tree partition directory is malformed"
            )
        previous_ordinal = ordinal
        ordinals.append(ordinal)
        offsets.append(offset)
        counts.append(node_count)

    tag_count, pos = decode_uvarint(view, 0)
    tags = []
    for _ in range(tag_count):
        length, pos = decode_uvarint(view, pos)
        tags.append(bytes(view[pos : pos + length]).decode("utf-8"))
        pos += length
    total_nodes, pos = decode_uvarint(view, pos)
    if total_nodes == 0:
        raise IndexingError("frozen snapshot tree section has no nodes")
    nodes_start = pos

    tag, ordinal, child_count, text, pos = _read_record(view, tags, pos)
    root = XMLNode(tag, Dewey.from_trusted((ordinal,)), (tag,), text)
    if child_count != partition_count:
        raise IndexingError(
            "frozen snapshot tree partition directory disagrees with the "
            "root record"
        )
    if 1 + sum(counts) != total_nodes:
        raise IndexingError(
            "frozen snapshot tree partition directory disagrees with the "
            "node count"
        )

    children = _LazyRootChildren(ordinals, offsets, counts)
    root.children = children
    tree = PagedXMLTree(root, view, tags, nodes_start, total_nodes - 1)
    children._tree = tree
    return tree
