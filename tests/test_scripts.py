"""Tests for the repository's generator scripts (docstring-driven docs)."""

import importlib.util
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load(script_name: str):
    path = REPO_ROOT / "scripts" / script_name
    spec = importlib.util.spec_from_file_location(script_name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestApiDocsGenerator:
    def test_first_paragraph_extraction(self):
        gen = _load("generate_api_docs.py")
        doc = "Line one\ncontinues here.\n\nSecond paragraph."
        assert gen.first_paragraph(doc) == "Line one continues here."

    def test_first_paragraph_empty(self):
        gen = _load("generate_api_docs.py")
        assert gen.first_paragraph("") == "(undocumented)"

    def test_describe_symbol_function(self):
        gen = _load("generate_api_docs.py")

        def sample(a, b=2):
            """Does a thing."""

        line = gen.describe_symbol("sample", sample)
        assert "`sample(a, b=2)`" in line
        assert "Does a thing." in line

    def test_describe_symbol_constant(self):
        gen = _load("generate_api_docs.py")
        line = gen.describe_symbol("X", 42)
        assert "constant" in line

    def test_generates_file_with_all_packages(self, tmp_path):
        gen = _load("generate_api_docs.py")
        out = tmp_path / "API.md"
        gen.main(str(out))
        text = out.read_text()
        for pkg in gen.PACKAGES:
            assert f"## `{pkg}`" in text
        # Key public symbols are present.
        for symbol in ("EAD(", "CarliniWagnerL2(", "MagNet(",
                       "build_magnet(", "run_experiment("):
            assert symbol in text

    def test_committed_api_md_lists_each_package_all(self):
        """API.md's symbol list per package equals what regenerating would
        write.  Only names are compared: signature rendering differs
        across Python versions."""
        gen = _load("generate_api_docs.py")
        text = (REPO_ROOT / "API.md").read_text()
        documented = {}
        for section in re.split(r"^## ", text, flags=re.M)[1:]:
            pkg = re.match(r"`([\w.]+)`", section).group(1)
            documented[pkg] = re.findall(r"^- \*\*`(\w+)", section, flags=re.M)
        assert list(documented) == gen.PACKAGES
        for pkg_name in gen.PACKAGES:
            pkg = importlib.import_module(pkg_name)
            expected = [name for name, _ in gen.public_symbols(pkg)]
            assert documented[pkg_name] == expected, (
                f"API.md is stale for {pkg_name}; "
                "run scripts/generate_api_docs.py")


class TestExperimentsMdGenerator:
    def test_paper_reference_covers_all_experiments(self):
        gen = _load("generate_experiments_md.py")
        assert set(gen.ORDER) == set(gen.PAPER.keys())
        assert len(gen.ORDER) == 20

    def test_preamble_matches_committed_experiments_md(self):
        """The generator is the one source of EXPERIMENTS.md's preamble:
        regenerating must not rewrite the committed text."""
        gen = _load("generate_experiments_md.py")
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        head = text[:text.index("## table1")]
        profile = re.search(r"Profile: `([^`]+)`", head).group(1)
        assert "\n".join(gen.preamble(profile)) + "\n" == head
