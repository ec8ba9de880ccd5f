"""Tests for keyword extraction and query normalization."""

from hypothesis import given
from hypothesis import strategies as st

from repro.index import extract_terms, node_keywords, normalize_term, query_terms
from repro.xmltree import build_tree


class TestExtractTerms:
    def test_simple(self):
        assert extract_terms("Holistic Twig Joins") == [
            "holistic", "twig", "joins",
        ]

    def test_punctuation_split(self):
        assert extract_terms("twig-joins: optimal, XML!") == [
            "twig", "joins", "optimal", "xml",
        ]

    def test_numbers_kept(self):
        assert extract_terms("published in 2003") == ["published", "in", "2003"]

    def test_empty(self):
        assert extract_terms("") == []
        assert extract_terms(None) == []

    def test_whitespace_only(self):
        assert extract_terms("   \t ") == []

    def test_mixed_alnum(self):
        assert extract_terms("xpath2.0 b+tree") == ["xpath2", "0", "b", "tree"]


class TestUnicodeSplitting:
    """Non-ASCII separators must split exactly like ASCII ones.

    The original split table only classified codepoints below 128, so
    ``twig–joins`` (en dash) indexed as one unsplittable token
    while the query side saw two — the terms could never match.
    """

    def test_en_dash_splits(self):
        assert extract_terms("twig–joins") == ["twig", "joins"]

    def test_em_dash_splits(self):
        assert extract_terms("xml—database") == ["xml", "database"]

    def test_curly_quotes_split(self):
        assert extract_terms("“holistic” ‘twig’") == [
            "holistic", "twig",
        ]

    def test_nbsp_and_ellipsis_split(self):
        assert extract_terms("xml query…index") == [
            "xml", "query", "index",
        ]

    def test_accented_letters_kept(self):
        assert extract_terms("Sébastien Groß") == [
            "sébastien", "groß",
        ]

    def test_accented_letters_lowercased(self):
        assert normalize_term("SÉBASTIEN") == "sébastien"

    def test_cjk_kept(self):
        assert extract_terms("数据库 query") == [
            "数据库", "query",
        ]

    def test_query_and_index_normalization_agree(self):
        # The same unicode text must tokenize identically whether it
        # arrives as document content or as a keyword query.
        text = "twig–joins “XML” Sébastien"
        assert query_terms(text) == extract_terms(text)

    def test_query_list_pieces_are_split_too(self):
        assert query_terms(["twig–joins", "xml"]) == [
            "twig", "joins", "xml",
        ]


class TestNodeKeywords:
    def test_tag_plus_text(self):
        tree = build_tree(("title", "XML search"))
        assert node_keywords(tree.root) == ["title", "xml", "search"]

    def test_tag_only(self):
        tree = build_tree(("publications", None))
        assert node_keywords(tree.root) == ["publications"]

    def test_multiplicity_preserved(self):
        tree = build_tree(("t", "xml xml xml"))
        assert node_keywords(tree.root).count("xml") == 3


class TestQueryTerms:
    def test_from_string(self):
        assert query_terms("XML database") == ["xml", "database"]

    def test_from_comma_string(self):
        assert query_terms("online, newspaper") == ["online", "newspaper"]

    def test_from_list(self):
        assert query_terms(["XML", "Database"]) == ["xml", "database"]

    def test_empty_pieces_dropped(self):
        assert query_terms("  a   b  ") == ["a", "b"]

    def test_normalize_term(self):
        assert normalize_term("DataBase") == "database"

    @given(st.one_of(st.text(), st.lists(st.text())))
    def test_normalized_terms_round_trip_unchanged(self, query):
        # The daemon normalizes once on its event loop and hands the
        # term tuple to the engine as the query: normalizing a
        # normalized tuple must be the identity.
        terms = tuple(query_terms(query))
        assert tuple(query_terms(terms)) == terms
