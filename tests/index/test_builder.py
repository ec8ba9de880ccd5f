"""Cross-validation of the index builder against brute force.

The builder computes ``f_k^T`` (distinct T-typed nodes containing k),
``tf(k, T)``, ``N_T`` and ``G_T`` from each keyword's posting columns;
these tests recompute every statistic by brute-force subtree inspection
on small documents (including generated ones) and demand exact
agreement — for the whole document, and for one partition's nodes, the
run the incremental updates hand the same pass.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.index import build_document_index, node_keywords
from repro.index.builder import subtree_contribution
from repro.xmltree import build_tree, parse


def brute_stats(tree, run=None):
    """(df, tf, n, g) maps computed the slow, obvious way.

    ``run`` (a set of labels, default every node) restricts the
    statistics to those nodes' keywords: a node outside it still counts
    toward ``f_k^T`` and ``tf`` when its subtree holds run nodes.
    """
    df = Counter()
    tf = Counter()
    n = Counter()
    vocab_per_type = {}
    for node in tree.iter_nodes():
        if run is None or node.dewey in run:
            n[node.node_type] += 1
        subtree_terms = []
        for descendant in tree.iter_subtree(node.dewey):
            if run is None or descendant.dewey in run:
                subtree_terms.extend(node_keywords(descendant))
        counts = Counter(subtree_terms)
        for keyword, count in counts.items():
            df[(keyword, node.node_type)] += 1
            tf[(keyword, node.node_type)] += count
        vocab_per_type.setdefault(node.node_type, set()).update(counts)
    g = {t: len(v) for t, v in vocab_per_type.items()}
    return df, tf, n, g


def assert_index_matches_brute(tree):
    index = build_document_index(tree)
    df, tf, n, g = brute_stats(tree)
    for (keyword, node_type), expected in df.items():
        assert index.xml_df(keyword, node_type) == expected, (
            keyword, node_type,
        )
    for (keyword, node_type), expected in tf.items():
        assert index.tf(keyword, node_type) == expected
    for node_type, expected in n.items():
        assert index.node_count(node_type) == expected
    for node_type, expected in g.items():
        assert index.distinct_keywords(node_type) == expected
    # And the reverse: no phantom statistics.
    for keyword in index.inverted.keywords():
        for node_type, df_value, tf_value in index.frequency.types_for(
            keyword
        ):
            assert df[(keyword, node_type)] == df_value
            assert tf[(keyword, node_type)] == tf_value


class TestFigure1Statistics:
    def test_paper_example_xml_df(self, figure1_index):
        """f_XML^inproceedings = 2 in the paper's Figure 1 (our copy)."""
        t_inproc = ("bib", "author", "publications", "inproceedings")
        assert figure1_index.xml_df("xml", t_inproc) == 1
        # "database" appears under two inproceedings.
        assert figure1_index.xml_df("database", t_inproc) == 2

    def test_n_t(self, figure1_index):
        assert figure1_index.node_count(("bib", "author")) == 3
        assert figure1_index.node_count(("bib",)) == 1

    def test_tf_counts_multiplicity(self):
        tree = parse("<a><b>x x x</b><b>x</b></a>")
        index = build_document_index(tree)
        assert index.tf("x", ("a",)) == 4
        assert index.tf("x", ("a", "b")) == 4
        assert index.xml_df("x", ("a", "b")) == 2
        assert index.xml_df("x", ("a",)) == 1

    def test_tag_names_indexed(self, figure1_index):
        assert figure1_index.has_keyword("inproceedings")
        assert figure1_index.has_keyword("hobby")

    def test_absent_keyword(self, figure1_index):
        assert not figure1_index.has_keyword("zebra")
        assert figure1_index.xml_df("zebra", ("bib", "author")) == 0


#: Few words and tags, so terms repeat within a node and across nodes,
#: and one tag recurs at several depths (with the same and other paths).
_TAGS = ("r", "s", "t")
_TEXT = st.lists(
    st.sampled_from(("ape", "bee", "cat") + _TAGS), max_size=4
).map(" ".join)
_LEAF = st.tuples(st.sampled_from(_TAGS), _TEXT)
_SPECS = st.recursive(
    _LEAF,
    lambda children: st.tuples(
        st.sampled_from(_TAGS), _TEXT, st.lists(children, min_size=1,
                                                max_size=3),
    ),
    max_leaves=12,
)


class TestBruteForceAgreement:
    def test_figure1(self, figure1_tree):
        assert_index_matches_brute(figure1_tree)

    def test_single_node(self):
        assert_index_matches_brute(build_tree(("only", "alpha beta")))

    def test_repeated_terms_across_levels(self):
        tree = parse(
            "<r><x>term</x><y><x>term term</x></y><term>other</term></r>"
        )
        assert_index_matches_brute(tree)

    @settings(max_examples=150, deadline=None)
    @given(spec=_SPECS)
    @example(spec=("r", ""))
    @example(spec=("r", "ape ape r"))
    @example(spec=("r", "", [("r", "r r", [("r", "r")]), ("s", "r")]))
    def test_randomized_trees(self, spec):
        assert_index_matches_brute(build_tree(spec))

    @settings(max_examples=150, deadline=None)
    @given(spec=_SPECS)
    @example(spec=("r", "", [("r", "r r", [("r", "r")]), ("s", "r")]))
    def test_partition_contribution_matches_brute_force(self, spec):
        """The update path: one partition's nodes, and nothing else."""
        tree = build_tree(spec)
        for partition in tree.partitions():
            nodes = list(partition.iter_subtree())
            df, tf, postings, type_counts = subtree_contribution(nodes)
            expected_df, expected_tf, expected_n, _ = brute_stats(
                tree, {node.dewey for node in nodes}
            )
            assert df == expected_df
            assert tf == expected_tf
            assert type_counts == expected_n
            expected_postings = {}
            for node in nodes:
                for keyword, count in Counter(node_keywords(node)).items():
                    keys, node_types, counts = expected_postings.setdefault(
                        keyword, ([], [], [])
                    )
                    keys.append(node.dewey.components)
                    node_types.append(node.node_type)
                    counts.append(count)
            assert postings == expected_postings


class TestInvertedLists:
    def test_document_order(self, dblp_index):
        for keyword in list(dblp_index.inverted.keywords())[:30]:
            postings = list(dblp_index.inverted_list(keyword))
            labels = [p.dewey.components for p in postings]
            assert labels == sorted(labels)

    def test_posting_counts_match_tf_at_node_type(self, figure1_index):
        # Sum of posting counts for nodes of exactly type T' rolls up
        # into tf at every ancestor type.
        postings = figure1_index.inverted_list("online")
        total = sum(p.count for p in postings)
        assert figure1_index.tf("online", ("bib",)) == total

    def test_empty_list_for_missing(self, figure1_index):
        assert len(figure1_index.inverted_list("missingword")) == 0
