"""Dewey labels for XML nodes.

A Dewey label identifies a node by the path of child ordinals from the
document root: the root is ``0``, its second child is ``0.1``, that
child's first child is ``0.1.0`` and so on (the scheme of Tatarinov et
al. [19], used throughout the paper).  Dewey labels give three
properties that the refinement algorithms rely on:

* **document order** is the lexicographic order of the component tuples;
* the **LCA** of two nodes is their longest common prefix;
* a node is an **ancestor** of another iff its label is a proper prefix.

:class:`Dewey` is an immutable, hashable, totally ordered wrapper around
a tuple of non-negative ints.  It is the common currency passed between
the parser, the inverted lists, the SLCA algorithms and the document
partitioner, so the implementation favours cheap construction and
comparison.
"""

from __future__ import annotations

from ..errors import DeweyError


class Dewey:
    """An immutable Dewey label.

    Parameters
    ----------
    components:
        Iterable of non-negative ints, root first.  Must be non-empty.

    Examples
    --------
    >>> a = Dewey((0, 1, 2))
    >>> b = Dewey.parse("0.1")
    >>> b.is_ancestor_of(a)
    True
    >>> a.lca(Dewey((0, 2))).components
    (0,)
    """

    __slots__ = ("components", "_hash")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise DeweyError("a Dewey label needs at least one component")
        for part in components:
            if not isinstance(part, int) or part < 0:
                raise DeweyError(f"invalid Dewey component: {part!r}")
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "_hash", hash(components))

    def __setattr__(self, name, value):
        raise AttributeError("Dewey labels are immutable")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text):
        """Parse a dotted label string such as ``"0.1.2"``."""
        try:
            return cls(int(piece) for piece in text.split("."))
        except ValueError as exc:
            raise DeweyError(f"cannot parse Dewey label {text!r}") from exc

    @classmethod
    def from_trusted(cls, components):
        """Wrap an already-validated component tuple without any checks.

        Internal fast path for hot loops (inverted-list decoding, SLCA
        inner loops) where ``components`` is a non-empty tuple of
        non-negative ints by construction — typically sliced or copied
        from an existing label.  Passing anything else yields a label
        whose behaviour is undefined; every public construction route
        (``Dewey(...)``, :meth:`parse`, :meth:`child`) stays validated.
        """
        label = object.__new__(cls)
        object.__setattr__(label, "components", components)
        object.__setattr__(label, "_hash", hash(components))
        return label

    @classmethod
    def root(cls):
        """The label of the document root, ``0``."""
        return cls((0,))

    def child(self, ordinal):
        """Label of this node's ``ordinal``-th child (0-based).

        Only the ordinal is checked: this label's components already
        were, when it was made.
        """
        if not isinstance(ordinal, int) or ordinal < 0:
            raise DeweyError(f"child ordinal must be an int >= 0, got "
                             f"{ordinal!r}")
        return Dewey.from_trusted(self.components + (ordinal,))

    @property
    def parent(self):
        """Label of the parent node, or ``None`` for the root."""
        if len(self.components) == 1:
            return None
        return Dewey(self.components[:-1])

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------
    @property
    def depth(self):
        """Number of components; the root has depth 1."""
        return len(self.components)

    def is_ancestor_of(self, other):
        """True iff ``self`` is a *proper* ancestor of ``other``."""
        mine, theirs = self.components, other.components
        return len(mine) < len(theirs) and theirs[: len(mine)] == mine

    def is_ancestor_or_self_of(self, other):
        """True iff ``self`` is ``other`` or a proper ancestor of it."""
        mine, theirs = self.components, other.components
        return len(mine) <= len(theirs) and theirs[: len(mine)] == mine

    def is_descendant_of(self, other):
        """True iff ``self`` is a *proper* descendant of ``other``."""
        return other.is_ancestor_of(self)

    def lca(self, other):
        """Lowest common ancestor: the longest common prefix."""
        mine = self.components
        shared = shared_prefix_length(mine, other.components)
        if shared == 0:
            raise DeweyError(
                f"labels {self} and {other} share no prefix; "
                "they come from different documents"
            )
        return Dewey.from_trusted(mine[:shared])

    def partition_id(self):
        """The document partition containing this node (Def. 6.1).

        A partition is a subtree rooted at a child of the document root,
        so the partition id is the 2-component prefix of the label.  The
        root itself has no partition and returns ``None``.
        """
        if len(self.components) < 2:
            return None
        return Dewey.from_trusted(self.components[:2])

    # ------------------------------------------------------------------
    # Ordering / container protocol
    # ------------------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Dewey):
            return NotImplemented
        return self.components == other.components

    def __lt__(self, other):
        if not isinstance(other, Dewey):
            return NotImplemented
        return self.components < other.components

    def __le__(self, other):
        if not isinstance(other, Dewey):
            return NotImplemented
        return self.components <= other.components

    def __gt__(self, other):
        if not isinstance(other, Dewey):
            return NotImplemented
        return self.components > other.components

    def __ge__(self, other):
        if not isinstance(other, Dewey):
            return NotImplemented
        return self.components >= other.components

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # The default slot-based pickling would trip over the
        # immutability guard in ``__setattr__``, so rebuild through
        # the trusted constructor instead.
        return (_from_components, (self.components,))

    def __len__(self):
        return len(self.components)

    def __getitem__(self, item):
        return self.components[item]

    def __iter__(self):
        return iter(self.components)

    def __repr__(self):
        return f"Dewey({str(self)!r})"

    def __str__(self):
        return ".".join(map(str, self.components))


def _from_components(components):
    """Pickle helper: rebuild a label from its validated components."""
    return Dewey.from_trusted(components)


def shared_prefix_length(a, b):
    """How many leading components ``a`` and ``b`` share — the depth of
    their LCA, for two labels' component sequences."""
    shared = 0
    for x, y in zip(a, b):
        if x != y:
            break
        shared += 1
    return shared


def lca_of_all(labels):
    """LCA of a non-empty iterable of :class:`Dewey` labels."""
    iterator = iter(labels)
    try:
        result = next(iterator)
    except StopIteration:
        raise DeweyError("lca_of_all() needs at least one label") from None
    for label in iterator:
        result = result.lca(label)
    return result


def descendant_range_key(prefix):
    """Upper-bound tuple for all descendants-or-self of ``prefix``.

    For a sorted list of component tuples, all labels ``x`` with
    ``prefix <= x < descendant_range_key(prefix)`` are exactly the
    descendants-or-self of ``prefix``.  Used by the partitioner and SLE's
    random-access probes to binary-search a Dewey range.
    """
    parts = prefix.components
    return parts[:-1] + (parts[-1] + 1,)
