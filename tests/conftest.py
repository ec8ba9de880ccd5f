"""Shared fixtures for the XRefine test suite."""

from __future__ import annotations

import pytest

from repro import XRefine
from repro.datasets import generate_baseball, generate_dblp
from repro.index import build_document_index
from repro.xmltree import parse

#: The running example of the paper's Figure 1, extended enough that
#: statistics are non-degenerate.
FIGURE1_XML = """<bib>
 <author>
  <name>john smith</name>
  <publications>
   <inproceedings>
     <title>online database systems</title>
     <booktitle>sigmod</booktitle>
     <year>2003</year>
   </inproceedings>
   <inproceedings>
     <title>xml twig pattern matching</title>
     <booktitle>vldb</booktitle>
     <year>2004</year>
   </inproceedings>
  </publications>
 </author>
 <author>
  <name>mary lee</name>
  <publications>
   <article>
     <title>machine learning for online search</title>
     <journal>tkde</journal>
     <year>2005</year>
   </article>
   <inproceedings>
     <title>database keyword search</title>
     <booktitle>icde</booktitle>
     <year>2006</year>
   </inproceedings>
  </publications>
  <hobby>reading</hobby>
 </author>
 <author>
  <name>wei chen</name>
  <publications>
   <inproceedings>
     <title>efficient skyline computation</title>
     <booktitle>icde</booktitle>
     <year>2006</year>
   </inproceedings>
  </publications>
 </author>
</bib>"""


@pytest.fixture(scope="session")
def figure1_tree():
    return parse(FIGURE1_XML)


@pytest.fixture(scope="session")
def figure1_index(figure1_tree):
    return build_document_index(figure1_tree)


@pytest.fixture(scope="session")
def figure1_engine(figure1_index):
    return XRefine(figure1_index)


@pytest.fixture(scope="session")
def dblp_tree():
    """A medium synthetic DBLP corpus shared across the suite."""
    return generate_dblp(num_authors=120, seed=7)


@pytest.fixture(scope="session")
def dblp_index(dblp_tree):
    return build_document_index(dblp_tree)


@pytest.fixture(scope="session")
def dblp_engine(dblp_index):
    return XRefine(dblp_index)


@pytest.fixture(scope="session")
def baseball_tree():
    return generate_baseball(seed=11)


@pytest.fixture(scope="session")
def baseball_index(baseball_tree):
    return build_document_index(baseball_tree)


@pytest.fixture(scope="session")
def baseball_engine(baseball_index):
    return XRefine(baseball_index)
