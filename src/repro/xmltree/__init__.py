"""XML substrate: Dewey labels, tokenizer, parser, tree model, writer.

This subpackage is a self-contained, dependency-free XML toolkit
implementing exactly what the paper's data model (Section III) needs:
a rooted labeled tree whose nodes carry Dewey labels [19] and node
types (root-to-node prefix paths, Definition 3.1).
"""

from .build import build_tree
from .dewey import Dewey, descendant_range_key, lca_of_all
from .parser import EVENT_END, EVENT_START, iterparse, parse, parse_file
from .serialize import serialize, write_file
from .validate import check_tree
from .tree import XMLNode, XMLTree, build_node_type

__all__ = [
    "build_tree",
    "check_tree",
    "Dewey",
    "descendant_range_key",
    "lca_of_all",
    "parse",
    "parse_file",
    "iterparse",
    "EVENT_START",
    "EVENT_END",
    "serialize",
    "write_file",
    "XMLNode",
    "XMLTree",
    "build_node_type",
]
