"""The docs checker passes on the tree: links, anchors, file references,
package names.

``scripts/check_docs_links.py`` fails when a README or ``docs/`` sentence
cites a file or a ``repro.…`` name that does not exist, so a PR that deletes
a file or a function must also drop every sentence pointing at it.
"""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / \
    "check_docs_links.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_docs_links",
                                                  _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_links_and_references_resolve():
    assert _load_checker().main() == 0


def test_missing_file_reference_is_reported(tmp_path):
    checker = _load_checker()
    page = tmp_path / "page.md"
    page.write_text("See `scripts/gone.py` and `README.md`.\n"
                    "Scratch `/tmp/x.json`, `.bench_out/run.json`, "
                    "`bench/*.py`, `tests/test_{a,b}.py`.\n"
                    "```\n`inside/a/fence.py`\n```\n", encoding="utf-8")
    assert checker._missing_references(str(page)) == [
        (1, "scripts/gone.py", "missing file reference")]


def test_reference_may_be_relative_to_the_package(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("`index/executors.py` and `bench/compare.py` and "
                    "`index/process.py`\n", encoding="utf-8")
    assert _load_checker()._missing_references(str(page)) == [
        (1, "index/process.py", "missing file reference")]


def test_unresolved_package_name_is_reported(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(
        "`repro.distance` `repro.distance.kernels` "
        "`repro.distance.DistanceEngine` `repro.index.available_backends()`\n"
        "`repro.distance.kernels.SORT_WHOLE` "
        "`repro.cluster.gkmeans.graph_guided_boost_pass`\n"
        "`repro.distance.cross_squared_euclidean` `repro.nowhere` "
        "`repro.distance.engine.DistanceEngine.cross`\n"
        "```\n`repro.inside.a.fence`\n```\n"
        "plain repro.not.backticked and `repro.distance.norms` text\n",
        encoding="utf-8")
    assert _load_checker()._unresolved_names(str(page)) == [
        (3, "repro.distance.cross_squared_euclidean", "unresolved name"),
        (3, "repro.nowhere", "unresolved name"),
        (3, "repro.distance.engine.DistanceEngine.cross", "unresolved name")]


def test_history_docs_are_link_checked_but_not_reference_checked():
    checker = _load_checker()
    linked = {Path(path).name for path in checker._doc_paths()}
    referencing = {Path(path).name
                   for path in checker._doc_paths(checker.REFERENCE_GLOBS)}
    assert {"ROADMAP.md", "CHANGES.md", "README.md"} <= linked
    assert "README.md" in referencing
    assert not {"ROADMAP.md", "CHANGES.md"} & referencing


@pytest.mark.parametrize("heading,slug", [
    ("Out-of-process serving", "out-of-process-serving"),
    ("Reading `bench/run.py` output", "reading-benchrunpy-output"),
    ("The graph walk (+ CSR)", "the-graph-walk--csr"),
    ("**Bold** and [a link](README.md)", "bold-and-a-link"),
])
def test_slugify_follows_github_anchor_rules(heading, slug):
    assert _load_checker()._slugify(heading) == slug


def test_duplicate_headings_are_numbered_and_fenced_ones_skipped(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("# Setup\n## Setup\ntext\n```\n# Not a heading\n```\n"
                    "### Usage\n", encoding="utf-8")
    assert _load_checker()._anchors(str(page)) == {"setup", "setup-1",
                                                   "usage"}


def test_broken_links_and_dangling_anchors_are_reported(tmp_path):
    (tmp_path / "other.md").write_text("# Real section\n", encoding="utf-8")
    page = tmp_path / "page.md"
    page.write_text("# Top\n"
                    "[a](gone.md) [b](other.md#real-section)\n"
                    "[c](other.md#renamed) [d](#top) [e](#nowhere)\n"
                    "[f](https://example.org/gone.md) ![g](other.md)\n",
                    encoding="utf-8")
    assert _load_checker()._broken_links(str(page)) == [
        (2, "gone.md", "missing file"),
        (3, "other.md#renamed", "dangling anchor"),
        (3, "#nowhere", "dangling anchor")]
