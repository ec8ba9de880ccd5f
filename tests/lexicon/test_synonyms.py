"""Tests for the thesaurus and acronym table."""

from repro.lexicon import AcronymTable, Thesaurus


class TestThesaurus:
    def test_paper_synonyms(self):
        thesaurus = Thesaurus()
        synonyms = dict(thesaurus.synonyms("publication"))
        assert "article" in synonyms
        assert "inproceedings" in synonyms

    def test_symmetry(self):
        thesaurus = Thesaurus()
        assert thesaurus.are_synonyms("article", "inproceedings")
        assert thesaurus.are_synonyms("inproceedings", "article")

    def test_score(self):
        thesaurus = Thesaurus()
        assert thesaurus.score("article", "publication") == 1
        assert thesaurus.score("article", "machine") is None

    def test_case_insensitive(self):
        thesaurus = Thesaurus()
        assert thesaurus.are_synonyms("Article", "INPROCEEDINGS")

    def test_custom_groups(self):
        thesaurus = Thesaurus(groups=[({"foo", "bar"}, 2)])
        assert thesaurus.synonyms("foo") == [("bar", 2)]
        assert thesaurus.synonyms("publication") == []

    def test_multi_group_minimum_score(self):
        thesaurus = Thesaurus(groups=[])
        thesaurus.add_group({"a", "b"}, 3)
        thesaurus.add_group({"a", "b", "c"}, 1)
        assert thesaurus.score("a", "b") == 1

    def test_unknown_word(self):
        assert Thesaurus().synonyms("zzz") == []

    def test_vocabulary(self):
        thesaurus = Thesaurus(groups=[({"x", "y"}, 1)])
        assert thesaurus.vocabulary() == ["x", "y"]


class TestAcronymTable:
    def test_paper_acronym_www(self):
        table = AcronymTable()
        assert table.expand("www") == ("world", "wide", "web")
        assert table.contract(("world", "wide", "web")) == "www"

    def test_case_insensitive(self):
        table = AcronymTable()
        assert table.expand("WWW") == ("world", "wide", "web")
        assert table.contract(("World", "Wide", "Web")) == "www"

    def test_contains(self):
        table = AcronymTable()
        assert "ml" in table
        assert "zz" not in table

    def test_unknown(self):
        table = AcronymTable()
        assert table.expand("zz") is None
        assert table.contract(("no", "such")) is None

    def test_custom_table(self):
        table = AcronymTable({"lol": ("laugh", "out", "loud")})
        assert table.expand("lol") == ("laugh", "out", "loud")
        assert table.expand("www") is None

    def test_add(self):
        table = AcronymTable({})
        table.add("tps", ("transactions", "per", "second"))
        assert table.contract(("transactions", "per", "second")) == "tps"

    def test_last_words_hold_every_expansion_end(self):
        table = AcronymTable()
        table.add("TPS", ("Transactions", "Per", "Second"))
        assert table.last_words == {
            expansion[-1] for _, expansion in table.items()
        }
        assert "second" in table.last_words
