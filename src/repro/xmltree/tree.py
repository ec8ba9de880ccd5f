"""The labeled-tree data model of Section III.

XML data is modeled as a rooted, labeled tree.  Each element becomes an
:class:`XMLNode` carrying

* ``tag`` — the element name;
* ``dewey`` — its :class:`~repro.xmltree.dewey.Dewey` label;
* ``node_type`` — the prefix path of tag names from the root
  (Definition 3.1), represented as a tuple of tags;
* ``text`` — the concatenated direct character data of the element.

Attributes of an element are modeled the way the XML keyword search
literature does: each attribute becomes a child node whose tag is the
attribute name and whose text is the attribute value, so keyword
matches on attribute names/values behave exactly like matches on
elements.  (The synthetic datasets only use elements, but real data
such as DBLP uses ``key=``/``mdate=`` attributes.)

:class:`XMLTree` owns the node table and offers Dewey-keyed lookup,
pre-order traversal, subtree iteration via Dewey ranges, and document
partitions (Definition 6.1).
"""

from __future__ import annotations

import bisect

from ..errors import XMLError
from .dewey import Dewey, descendant_range_key


class XMLNode:
    """One element (or attribute pseudo-element) of the document tree."""

    __slots__ = ("tag", "dewey", "node_type", "text", "children")

    def __init__(self, tag, dewey, node_type, text=""):
        self.tag = tag
        self.dewey = dewey
        self.node_type = node_type
        self.text = text
        self.children = []

    @property
    def depth(self):
        """Depth of the node; the root has depth 1 (as in Formula 1)."""
        return self.dewey.depth

    @property
    def is_leaf(self):
        return not self.children

    def label(self):
        """The ``tag:deweyID`` display form used throughout the paper."""
        return f"{self.tag}:{self.dewey}"

    def iter_subtree(self):
        """Yield this node and all descendants in document order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def subtree_text(self):
        """All character data in the subtree, in document order."""
        return " ".join(
            node.text for node in self.iter_subtree() if node.text
        )

    def __repr__(self):
        return f"XMLNode({self.label()})"


class XMLTree:
    """A parsed XML document with Dewey-addressed random access."""

    def __init__(self, root):
        if root.dewey != Dewey.root():
            raise XMLError(
                f"document root must carry Dewey label 0, got {root.dewey}"
            )
        self.root = root
        self._by_dewey = {}
        self._ordered = []
        for node in root.iter_subtree():
            self._by_dewey[node.dewey] = node
            self._ordered.append(node.dewey.components)
        self._ordered.sort()

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self):
        """Number of nodes in the document."""
        return len(self._by_dewey)

    def __contains__(self, dewey):
        return dewey in self._by_dewey

    def node(self, dewey):
        """The node with the given Dewey label.

        Raises :class:`XMLError` if no such node exists.
        """
        try:
            return self._by_dewey[dewey]
        except KeyError:
            raise XMLError(f"no node with Dewey label {dewey}") from None

    def get(self, dewey, default=None):
        """Like :meth:`node` but returns ``default`` when missing."""
        return self._by_dewey.get(dewey, default)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def iter_nodes(self):
        """All nodes in document order: a pre-order walk, which visits
        children in ordinal order, is the sorted order of the labels."""
        return self.root.iter_subtree()

    def iter_subtree(self, dewey):
        """All nodes in the subtree rooted at ``dewey``, document order."""
        lo = bisect.bisect_left(self._ordered, dewey.components)
        hi = bisect.bisect_left(self._ordered, descendant_range_key(dewey))
        for components in self._ordered[lo:hi]:
            yield self._by_dewey[Dewey(components)]

    def partitions(self):
        """The document partitions of Definition 6.1, in order.

        Each partition is the subtree rooted at a child of the document
        root; the returned list contains the partition root nodes.
        """
        return list(self.root.children)

    def partition_count(self):
        """Number of document partitions.

        Cheap on paged trees (directory length, no node
        materialization), unlike ``len(partitions())``.
        """
        return len(self.root.children)

    def loaded_partition_count(self):
        """Partitions resident as node objects: all of a built tree's;
        a partition-paged tree counts the ones something faulted in."""
        return self.partition_count()

    def ensure_loaded(self):
        """Make every partition resident — a built tree's always are."""

    def partition_of(self, dewey):
        """The partition root containing ``dewey`` (``None`` for root)."""
        pid = dewey.partition_id()
        if pid is None:
            return None
        return self._by_dewey.get(pid)

    # ------------------------------------------------------------------
    # Mutation (document partitions only; see repro.index.update)
    # ------------------------------------------------------------------
    def next_partition_ordinal(self):
        """Ordinal for a new root child that cannot collide.

        After a partition removal, ``len(root.children)`` may reuse an
        existing ordinal; the maximum existing ordinal + 1 never does.
        """
        if not self.root.children:
            return 0
        return max(child.dewey.components[1] for child in self.root.children) + 1

    def append_partition(self, node):
        """Attach a fully built subtree as a new child of the root.

        ``node`` must carry a Dewey label of
        ``root.child(next_partition_ordinal())`` and consistent labels
        throughout its subtree (``repro.index.update`` builds it).
        """
        expected = Dewey((0, self.next_partition_ordinal()))
        if node.dewey != expected:
            raise XMLError(
                f"new partition must be labeled {expected}, got {node.dewey}"
            )
        self.root.children.append(node)
        appended = []
        for descendant in node.iter_subtree():
            self._by_dewey[descendant.dewey] = descendant
            appended.append(descendant.dewey.components)
        # New labels all sort after every existing label.
        self._ordered.extend(appended)

    def remove_partition(self, dewey):
        """Detach one document partition; returns its root node.

        Sibling labels keep their ordinals (Dewey labels need not be
        dense), so document order and all remaining labels stay valid.
        """
        import bisect as _bisect

        node = self.node(dewey)
        if node not in self.root.children:
            raise XMLError(f"{dewey} is not a document partition")
        self.root.children.remove(node)
        lo = _bisect.bisect_left(self._ordered, dewey.components)
        hi = _bisect.bisect_left(
            self._ordered, descendant_range_key(dewey)
        )
        for components in self._ordered[lo:hi]:
            del self._by_dewey[Dewey(components)]
        del self._ordered[lo:hi]
        return node

    # ------------------------------------------------------------------
    # Statistics helpers
    # ------------------------------------------------------------------
    def node_types(self):
        """All distinct node types with their node counts.

        Returns a dict mapping the type (tuple of tags) to the number of
        nodes of that type (``N_T`` in Formula 3).
        """
        counts = {}
        for node in self._by_dewey.values():
            counts[node.node_type] = counts.get(node.node_type, 0) + 1
        return counts

    def __repr__(self):
        return f"XMLTree(root={self.root.tag!r}, nodes={len(self)})"


def build_node_type(parent_type, tag):
    """Extend a parent's node type (prefix path) with a child tag."""
    return parent_type + (tag,)
