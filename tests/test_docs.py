"""Docs check: the markdown documentation must not rot.

Validators over ``docs/*.md`` and the root ``README.md``:

* relative markdown links resolve to existing files, and their
  ``#fragment`` parts resolve to actual headings (in-page anchors);
* backticked repository paths (``src/...``, ``docs/...``, layer-relative
  ``runtime/config.py``-style references) point at existing files;
* backticked ``repro.*`` dotted references import (module, or attribute
  of a module);
* fenced ``python`` code blocks at least compile;
* backticked identifiers that look like configuration knobs name real
  ``ClusterConfig`` fields (or other known public attributes), and —
  the other direction — every ``ClusterConfig`` knob is documented
  somewhere (``docs/PROTOCOLS.md`` carries the full table).
"""

from __future__ import annotations

import importlib
import re
from dataclasses import fields as dc_fields
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

DOC_FILES = sorted([*(REPO_ROOT / "docs").glob("*.md"), REPO_ROOT / "README.md"])

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_TICK_RE = re.compile(r"`([^`\n]+)`")
_MODULE_RE = re.compile(r"^repro(\.\w+)+$")
# a repo path: has a slash, no spaces/wildcards/placeholders/options
_PATH_RE = re.compile(r"^[\w.][\w./-]*/[\w./-]*$")
_FENCE_RE = re.compile(r"```(\w*)\n(.*?)```", re.DOTALL)

#: directories a bare layer-relative reference may live under (docs often
#: say ``runtime/config.py`` for ``src/repro/runtime/config.py``)
_SEARCH_BASES = ("", "src/repro")


def doc_ids():
    return [str(p.relative_to(REPO_ROOT)) for p in DOC_FILES]


@pytest.fixture(params=DOC_FILES, ids=doc_ids())
def doc(request):
    path = request.param
    assert path.exists(), f"missing doc file {path}"
    return path


def test_docs_exist():
    names = {p.name for p in DOC_FILES}
    assert "ARCHITECTURE.md" in names
    assert "BENCHMARKING.md" in names
    assert (REPO_ROOT / "README.md").exists()


def _slugify(heading: str) -> str:
    """GitHub-style heading anchor: lowercase, drop punctuation (including
    backticks/periods/slashes), spaces become hyphens."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(path: Path) -> set[str]:
    """Anchor slugs of every markdown heading (fenced code is skipped so a
    ``# comment`` inside a code block is not mistaken for a heading)."""
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    fenced = False
    for line in path.read_text().splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        m = re.match(r"^(#{1,6})\s+(.*)$", line)
        if m and not fenced:
            slug = _slugify(m.group(2))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def test_markdown_links_resolve(doc):
    text = doc.read_text()
    broken = []
    for target in _LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target, _, fragment = target.partition("#")
        if target and not (doc.parent / target).exists():
            broken.append(target)
            continue
        if fragment:
            # in-page anchor (``#x`` in this doc, ``other.md#x`` there)
            anchor_file = doc if not target else doc.parent / target
            if anchor_file.suffix == ".md" and fragment not in _anchors(anchor_file):
                broken.append(f"{target}#{fragment}")
    assert not broken, f"{doc.name}: broken links/anchors {broken}"


def test_backticked_paths_exist(doc):
    text = doc.read_text()
    missing = []
    for token in _TICK_RE.findall(text):
        token = token.strip().rstrip("/")
        if not _PATH_RE.match(token) or ".." in token:
            continue
        candidates = [doc.parent / token] + [
            REPO_ROOT / base / token if base else REPO_ROOT / token
            for base in _SEARCH_BASES
        ]
        if not any(c.exists() for c in candidates):
            missing.append(token)
    assert not missing, f"{doc.name}: dangling path references {missing}"


def test_backticked_module_references_import(doc):
    text = doc.read_text()
    broken = []
    for token in _TICK_RE.findall(text):
        token = token.strip()
        if not _MODULE_RE.match(token):
            continue
        try:
            importlib.import_module(token)
            continue
        except ImportError:
            pass
        module_name, _, attr = token.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            broken.append(token)
            continue
        if not hasattr(module, attr):
            broken.append(token)
    assert not broken, f"{doc.name}: dangling module references {broken}"


def _config_field_names() -> set[str]:
    from repro.runtime.config import ClusterConfig

    return {f.name for f in dc_fields(ClusterConfig)}


def _known_identifiers() -> set[str]:
    """Public attribute names a doc may legitimately backtick alongside the
    config knobs (probe counters, stack-spec fields, recovery records)."""
    from repro.metrics.probes import ClusterProbes, ProcessProbes, RecoveryRecord
    from repro.runtime.config import ClusterConfig, StackSpec

    known: set[str] = set()
    for cls in (ClusterConfig, StackSpec, ProcessProbes, ClusterProbes, RecoveryRecord):
        known |= {n for n in dir(cls) if not n.startswith("_")}
        for f in dc_fields(cls):
            known.add(f.name)
    return known


def test_documented_knob_references_exist(doc):
    """Backticked identifiers that look like configuration knobs (same
    ``first_segment_`` family as a real ``ClusterConfig`` field, or an
    explicit ``ClusterConfig.x``) must name an attribute that exists —
    a typo'd or removed knob must not survive in the docs."""
    config_fields = _config_field_names()
    known = _known_identifiers()
    knob_prefixes = {name.split("_", 1)[0] + "_" for name in config_fields if "_" in name}
    text = doc.read_text()
    bogus = []
    for token in _TICK_RE.findall(text):
        token = token.strip()
        m = re.match(r"^ClusterConfig\.(\w+)$", token)
        if m:
            if m.group(1) not in config_fields:
                bogus.append(token)
            continue
        # bare snake_case identifier (possibly with a ="value" suffix)
        m = re.match(r"^([a-z][a-z0-9]*(?:_[a-z0-9]+)+)(?:=.*)?$", token)
        if not m:
            continue
        ident = m.group(1)
        if any(ident.startswith(p) for p in knob_prefixes) and ident not in known:
            bogus.append(token)
    assert not bogus, f"{doc.name}: knob-like references to nothing {bogus}"


def test_every_config_knob_documented():
    """The reverse direction: every ``ClusterConfig`` field must be
    mentioned (backticked) in at least one doc — ``docs/PROTOCOLS.md``
    carries the complete knob table, so an undocumented knob means that
    table has rotted."""
    mentioned: set[str] = set()
    for doc in DOC_FILES:
        for token in _TICK_RE.findall(doc.read_text()):
            mentioned |= set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", token))
    undocumented = _config_field_names() - mentioned
    assert not undocumented, f"config knobs documented nowhere: {sorted(undocumented)}"


def test_python_code_fences_compile(doc):
    text = doc.read_text()
    for i, (lang, body) in enumerate(_FENCE_RE.findall(text)):
        if lang != "python":
            continue
        try:
            compile(body, f"{doc.name}[fence {i}]", "exec")
        except SyntaxError as exc:  # pragma: no cover - failure message
            pytest.fail(f"{doc.name} python fence {i} does not compile: {exc}")
