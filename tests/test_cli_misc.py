"""CLI parser surface and tooling smoke tests."""

from pathlib import Path

import pytest

from repro.cli import build_parser


class TestParserSurface:
    def test_help_renders(self):
        text = build_parser().format_help()
        assert "explore" in text and "upgrade" in text

    @pytest.mark.parametrize(
        "command",
        ["demo", "synth", "lint", "table", "dot", "explore",
         "upgrade", "failures"],
    )
    def test_subcommand_help(self, command, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([command, "--help"])
        assert excinfo.value.code == 0

    def test_unknown_command_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_module_entry_point_exists(self):
        import repro.__main__  # noqa: F401


class TestTools:
    def test_api_docs_up_to_date_sections(self):
        """docs/api.md exists and lists every subpackage section."""
        api = (
            Path(__file__).resolve().parent.parent / "docs" / "api.md"
        ).read_text()
        for package in (
            "repro.hgraph", "repro.boolexpr", "repro.spec",
            "repro.activation", "repro.binding", "repro.timing",
            "repro.core", "repro.adaptive", "repro.analysis",
            "repro.casestudies", "repro.io", "repro.report",
        ):
            assert f"## `{package}`" in api, package
