"""Quickstart: index a small bibliography and refine a broken query.

Run with::

    python examples/quickstart.py

Walks through the full XRefine loop on the paper's Figure-1-style
document: a query that works, a query with mistakenly split keywords
(``on line data base``), and a query using a synonym the data does not
(``publication`` vs ``inproceedings``).
"""

from __future__ import annotations

from repro import XRefine
from repro.slca import scan_eager_slca, stack_slca

BIB_XML = """<bib>
 <author>
  <name>john smith</name>
  <publications>
   <inproceedings>
     <title>online database systems</title>
     <booktitle>sigmod</booktitle><year>2003</year>
   </inproceedings>
   <inproceedings>
     <title>xml twig pattern matching</title>
     <booktitle>vldb</booktitle><year>2004</year>
   </inproceedings>
  </publications>
 </author>
 <author>
  <name>mary lee</name>
  <publications>
   <article>
     <title>machine learning for online search</title>
     <journal>tkde</journal><year>2005</year>
   </article>
   <inproceedings>
     <title>database keyword search</title>
     <booktitle>icde</booktitle><year>2006</year>
   </inproceedings>
  </publications>
  <hobby>reading</hobby>
 </author>
</bib>"""


def show(engine, query, k=3):
    print(f"\n>>> search({query!r}, k={k})")
    response = engine.search(query, k=k)
    if not response.needs_refinement:
        print("  query has meaningful results; no refinement needed:")
        for dewey in response.original_results:
            node = engine.node(dewey)
            print(f"    {node.label()}  ->  {node.subtree_text()[:60]}")
        return
    print("  no meaningful result; suggested refinements:")
    for rank, refinement in enumerate(response.refinements, start=1):
        keywords = " ".join(refinement.rq.keywords)
        print(
            f"    #{rank} {{{keywords}}}  dSim={refinement.rq.dissimilarity}"
            f"  rank={refinement.rank_score:.3f}"
            f"  results={refinement.result_count}"
        )
        for dewey in refinement.slcas[:2]:
            node = engine.node(dewey)
            print(f"        {node.label()}: {node.subtree_text()[:60]}")


def main():
    engine = XRefine.from_xml(BIB_XML)
    print(f"indexed: {engine.index!r}")
    print("search-for inference and meaningful-SLCA filtering are")
    print("automatic; the engine decides per query whether to refine.")

    # 1. A query that simply works (SLCA search, no refinement).
    show(engine, "xml twig")

    # 2. Mistakenly split keywords: fixed by two term merges.
    show(engine, "on line data base")

    # 3. Term mismatch: the user says "publication", the data says
    #    "inproceedings"/"article" (the paper's Example 1).
    show(engine, "database publication")

    # 4. A spelling error, plus plain SLCA search: the engine's own,
    #    then the two label-list baselines of repro.slca.
    show(engine, "skylne computation")
    print("\n>>> plain SLCA on 'database 2003':")
    labels = engine.slca_search("database 2003")
    print(f"    {'engine':>19}: {[str(d) for d in labels]}")
    lists = [
        engine.index.inverted_list(term).labels()
        for term in ("database", "2003")
    ]
    for baseline in (stack_slca, scan_eager_slca):
        labels = baseline(lists)
        print(f"    {baseline.__name__:>19}: {[str(d) for d in labels]}")

    # 5. Every search above ran with algorithm="auto", which is
    #    Algorithm 3 (SLE).  explain=True names the route that answered
    #    and says whether the result cache served it (this query was
    #    asked in step 2, so it did).
    print("\n>>> explain: how 'on line data base' was answered")
    response = engine.search("on line data base", k=3, explain=True)
    print("  " + response.plan.describe().replace("\n", "\n  "))


if __name__ == "__main__":
    main()
