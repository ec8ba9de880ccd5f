"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.datasets import generate_dblp
from repro.xmltree import write_file


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def corpus_xml(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.xml"
    write_file(generate_dblp(num_authors=60, seed=7), path)
    return str(path)


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, corpus_xml):
    target = tmp_path_factory.mktemp("cli") / "corpus.frz"
    code, output = run_cli("index", corpus_xml, "-o", str(target))
    assert code == 0
    assert "frozen snapshot" in output
    return str(target)


class TestGenerate:
    def test_dblp(self, tmp_path):
        target = tmp_path / "d.xml"
        code, output = run_cli(
            "generate", "dblp", "-o", str(target), "--authors", "10"
        )
        assert code == 0
        assert target.exists()
        assert "nodes" in output

    def test_baseball(self, tmp_path):
        target = tmp_path / "b.xml"
        code, _ = run_cli("generate", "baseball", "-o", str(target))
        assert code == 0
        assert target.exists()


class TestIndex:
    def test_index_builds(self, index_path):
        from repro.index.frozen import MAGIC

        with open(index_path, "rb") as handle:
            assert handle.read(len(MAGIC)) == MAGIC


class TestSearch:
    def test_search_saved_index(self, index_path):
        code, output = run_cli("search", index_path, "online", "databse")
        assert code == 0
        assert "refinement" in output

    def test_search_raw_xml(self, corpus_xml):
        code, output = run_cli("search", corpus_xml, "database", "query")
        assert code == 0

    def test_search_algorithm_flag(self, index_path):
        for algorithm in ("auto", "partition", "sle", "stack"):
            code, _ = run_cli(
                "search", index_path, "databse", "--algorithm", algorithm
            )
            assert code == 0

    def test_search_explain_prints_the_plan(self, index_path):
        code, output = run_cli(
            "search", index_path, "online", "databse", "--explain"
        )
        assert code == 0
        assert "plan: algorithm=sle (auto)" in output
        assert "evaluated in" in output

    def test_search_explain_with_fixed_algorithm(self, index_path):
        code, output = run_cli(
            "search", index_path, "online", "databse",
            "--algorithm", "sle", "--explain",
        )
        assert code == 0
        assert "plan: algorithm=sle (forced" in output

    def test_hopeless_query_exit_code(self, index_path):
        code, output = run_cli("search", index_path, "zzzzz", "qqqqq")
        assert code == 1
        assert "no refinement" in output


class TestOtherCommands:
    def test_slca(self, index_path):
        code, output = run_cli("slca", index_path, "database", "query")
        assert code == 0
        assert "SLCA" in output

    def test_stats(self, index_path):
        code, output = run_cli("stats", index_path)
        assert code == 0
        assert "vocabulary" in output
        assert "partitions" in output


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            run_cli()

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            run_cli("teleport")

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("--version")
        assert excinfo.value.code == 0

    def test_subcommands(self):
        import argparse

        from repro.cli import build_parser

        (commands,) = (
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert set(commands.choices) == {
            "generate", "index", "freeze-index", "compact", "search",
            "slca", "stats", "serve", "bench", "verify-diff",
        }


class TestFrozenSnapshots:
    @pytest.fixture(scope="class")
    def frozen_path(self, tmp_path_factory, index_path):
        """``freeze-index`` re-freezes any source, a snapshot included."""
        target = tmp_path_factory.mktemp("cli") / "refrozen.frz"
        code, output = run_cli("freeze-index", index_path, "-o", str(target))
        assert code == 0
        assert "frozen snapshot" in output
        return str(target)

    def test_single_file(self, frozen_path, index_path):
        import os

        assert os.path.isfile(frozen_path)
        assert os.path.getsize(frozen_path) > 0
        # Re-freezing a snapshot copies every payload as stored.
        with open(frozen_path, "rb") as a, open(index_path, "rb") as b:
            assert a.read() == b.read()

    def test_index_and_freeze_index_are_one_command(self):
        from repro.cli import build_parser

        parser = build_parser()
        argv = ["corpus.xml", "-o", "corpus.frz"]
        parsed = [
            vars(parser.parse_args([command] + argv))
            for command in ("index", "freeze-index")
        ]
        for namespace in parsed:
            del namespace["command"]  # the spelling itself
        assert parsed[0] == parsed[1]

    def test_search_frozen_source(self, frozen_path, corpus_xml):
        code_frozen, out_frozen = run_cli(
            "search", frozen_path, "online", "databse"
        )
        code_xml, out_xml = run_cli("search", corpus_xml, "online", "databse")
        assert code_frozen == code_xml
        assert out_frozen == out_xml

    def test_stats_frozen_source(self, frozen_path, corpus_xml):
        code_frozen, out_frozen = run_cli("stats", frozen_path)
        code_xml, out_xml = run_cli("stats", corpus_xml)
        assert code_frozen == 0
        assert out_frozen == out_xml

    def test_freeze_rejects_bad_source(self, tmp_path):
        code, _ = run_cli(
            "freeze-index",
            str(tmp_path / "missing"),
            "-o",
            str(tmp_path / "out.frz"),
        )
        assert code != 0

    def test_directory_source_is_a_typed_error(self, tmp_path, capsys):
        """An index directory from an older build: exit 2, say why."""
        (tmp_path / "corpus.idx").mkdir()
        for argv in (
            ("search", str(tmp_path / "corpus.idx"), "xml"),
            ("serve", str(tmp_path / "corpus.idx"), "--port", "0"),
        ):
            code, _ = run_cli(*argv)
            assert code == 2
            assert "is a directory" in capsys.readouterr().err
