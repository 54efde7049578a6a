#!/usr/bin/env python
"""Check that intra-repo markdown links, file references and package names
resolve.

Scans the maintained markdown sources (README, ROADMAP, everything under
docs/) for inline links and validates every relative target against the
working tree. Anchored links are validated against the target file's
headings using GitHub's heading-slug rules — a bare ``#anchor`` must name
a heading in the current file, and ``other.md#anchor`` must name one in
``other.md`` — so a reworded section title cannot silently orphan its
cross-references. External schemes are skipped. Generated artifacts like
PAPERS.md are out of scope — their image references point at a retrieval
pipeline, not this repo.

The living docs (README and docs/, not the ROADMAP/CHANGES history) are
also checked for file references: a backticked path ending in ``.py``,
``.json``, ``.md`` or ``.yml`` must exist under the repo root or
``src/repro/``, so deleting a file cannot leave a sentence citing it.
Scratch paths (``/tmp``, ``.bench_out/``) and patterns (``*``, ``{``) are
skipped. A backticked dotted name under the package (``repro.x.y``,
optionally called: ``repro.x.f()``) must resolve too: its longest module
prefix is found under ``src/``, and the one part after it, if any, must be
a top-level ``def``, ``class``, assignment or import of that module. The
modules are parsed with ``ast``, never imported, so a deleted function
cannot stay cited. CI runs this in the docs job; run locally with:

    python scripts/check_docs_links.py
"""

from __future__ import annotations

import ast
import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Markdown sources whose links must resolve.
DOC_GLOBS = ("README.md", "ROADMAP.md", "CHANGES.md", "EXPERIMENTS.md",
             "docs/*.md")

#: Markdown sources whose backticked file references must exist.
REFERENCE_GLOBS = ("README.md", "docs/*.md")

#: Directories a backticked file reference may be relative to.
REFERENCE_ROOTS = (REPO_ROOT, os.path.join(REPO_ROOT, "src", "repro"))

#: A whole backticked span that names a file: ``path/to/file.py``.
REFERENCE = re.compile(r"`([^`\s]+\.(?:py|json|md|yml))`")

#: Where the package's modules live (``repro.a.b`` is ``src/repro/a/b.py``
#: or ``src/repro/a/b/__init__.py``).
SOURCE_ROOT = os.path.join(REPO_ROOT, "src")

#: A whole backticked span that names a package object: ``repro.a.b`` or a
#: call of one, ``repro.a.f()``.
DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")

#: ``[text](target)`` inline links; images share the syntax via ``!``.
LINK = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Schemes that point outside the repo and are not checked.
EXTERNAL = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")

#: ATX headings (``# ...`` through ``###### ...``).
HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*$")

#: Fenced-code delimiters — headings inside fences are not anchors.
FENCE = re.compile(r"^\s*(```|~~~)")

#: Characters GitHub drops when slugging a heading (word chars, spaces
#: and hyphens survive; everything else vanishes).
_SLUG_DROP = re.compile(r"[^\w\- ]")

#: Per-file heading-anchor cache (anchor checks revisit target files).
_ANCHORS: dict = {}


def _doc_paths(globs=DOC_GLOBS) -> list:
    paths = []
    for pattern in globs:
        paths.extend(glob.glob(os.path.join(REPO_ROOT, pattern)))
    return sorted(paths)


def _slugify(heading: str) -> str:
    """GitHub's heading-to-anchor slug: strip markup, drop punctuation,
    lowercase, hyphenate spaces."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = text.replace("**", "").replace("*", "")
    return _SLUG_DROP.sub("", text.lower()).strip().replace(" ", "-")


def _anchors(path: str) -> set:
    """All valid anchor slugs of a markdown file (duplicate headings get
    ``-1``, ``-2``, ... suffixes, as GitHub numbers them)."""
    if path not in _ANCHORS:
        slugs: set = set()
        counts: dict = {}
        in_fence = False
        with open(path, encoding="utf-8") as stream:
            for line in stream:
                if FENCE.match(line):
                    in_fence = not in_fence
                    continue
                if in_fence:
                    continue
                match = HEADING.match(line)
                if match:
                    slug = _slugify(match.group(1))
                    seen = counts.get(slug, 0)
                    counts[slug] = seen + 1
                    slugs.add(slug if seen == 0 else f"{slug}-{seen}")
        _ANCHORS[path] = slugs
    return _ANCHORS[path]


def _broken_links(path: str) -> list:
    broken = []
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            for match in LINK.finditer(line):
                raw = match.group(1)
                if EXTERNAL.match(raw):
                    continue
                target, _, anchor = raw.partition("#")
                if target:
                    if target.startswith("/"):
                        resolved = os.path.join(REPO_ROOT,
                                                target.lstrip("/"))
                    else:
                        resolved = os.path.join(os.path.dirname(path),
                                                target)
                    if not os.path.exists(resolved):
                        broken.append((lineno, raw, "missing file"))
                        continue
                else:
                    resolved = path
                if anchor and resolved.endswith(".md"):
                    if anchor.lower() not in _anchors(resolved):
                        broken.append((lineno, raw, "dangling anchor"))
    return broken


def _missing_references(path: str) -> list:
    """Backticked file references in ``path`` that name no existing file."""
    missing = []
    in_fence = False
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            if FENCE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for match in REFERENCE.finditer(line):
                token = match.group(1)
                if token.startswith(("/tmp", ".bench_out/")) or \
                        "*" in token or "{" in token:
                    continue
                if not any(os.path.exists(os.path.join(root, token))
                           for root in REFERENCE_ROOTS):
                    missing.append((lineno, token, "missing file reference"))
    return missing


def _module_path(parts) -> str | None:
    """Source file of the module ``parts`` names, or None."""
    base = os.path.join(SOURCE_ROOT, *parts)
    for candidate in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(candidate):
            return candidate
    return None


def _defined_names(body) -> set:
    """Names a module body binds at its own level: ``def``, ``class``,
    assignments and imports (also inside ``if``/``try``)."""
    names: set = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                names.update(leaf.id for leaf in ast.walk(target)
                             if isinstance(leaf, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", []),
                          *[handler.body
                            for handler in getattr(node, "handlers", [])]):
                names |= _defined_names(block)
    return names


def _resolves(dotted: str) -> bool:
    """Whether ``repro.…`` names a module, or a top-level object of the
    longest module prefix."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        path = _module_path(parts[:cut])
        if path is not None:
            break
    else:
        return False
    rest = parts[cut:]
    if not rest:
        return True
    if len(rest) > 1:
        return False
    with open(path, encoding="utf-8") as stream:
        tree = ast.parse(stream.read(), filename=path)
    return rest[0] in _defined_names(tree.body)


def _unresolved_names(path: str) -> list:
    """Backticked ``repro.…`` names in ``path`` that name nothing."""
    unresolved = []
    in_fence = False
    with open(path, encoding="utf-8") as stream:
        for lineno, line in enumerate(stream, start=1):
            if FENCE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for match in DOTTED.finditer(line):
                if not _resolves(match.group(1)):
                    unresolved.append((lineno, match.group(1),
                                       "unresolved name"))
    return unresolved


def main() -> int:
    """Scan every documentation file; exit 1 on any broken link."""
    paths = _doc_paths()
    if not paths:
        print("error: no markdown files found to check", file=sys.stderr)
        return 1
    referencing = set(_doc_paths(REFERENCE_GLOBS))
    failures = 0
    for path in paths:
        rel = os.path.relpath(path, REPO_ROOT)
        problems = _broken_links(path)
        if path in referencing:
            problems += _missing_references(path) + _unresolved_names(path)
        for lineno, target, reason in problems:
            print(f"{rel}:{lineno}: {reason} -> {target}",
                  file=sys.stderr)
            failures += 1
    checked = len(paths)
    if failures:
        print(f"{failures} broken link(s) or reference(s) across "
              f"{checked} file(s)",
              file=sys.stderr)
        return 1
    print(f"ok: all relative links, anchors, file references and package "
          f"names resolve "
          f"across {checked} markdown file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
