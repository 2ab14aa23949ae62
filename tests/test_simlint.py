"""simlint analyzer tests + the repo-wide static-analysis gates.

Three layers:

* fixture tests — every rule has a fixture file under
  ``tests/fixtures/simlint/`` with a positive hit (tagged
  ``# expect: <rule>``), a suppressed hit and a clean negative; the
  analyzer must find exactly the tagged lines and nothing else;
* behavior tests — suppression bookkeeping (unused/unknown ignores),
  ``skip-file``, hot markers, config loading, deterministic discovery;
* gate tests — simlint runs clean on ``src/`` and ``tools/`` (the tier-1
  analogue of ``python -m tools.simlint src tools``), and mypy --strict
  passes on the typed packages when mypy is installed (skipped otherwise;
  the CI image bakes only the runtime toolchain).
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # `tools` lives at the repo root
    sys.path.insert(0, str(REPO_ROOT))

from tools.simlint.config import DEFAULT_SCOPES, Config, load_config  # noqa: E402
from tools.simlint.rules import RULES  # noqa: E402
from tools.simlint.runner import iter_python_files, lint_file, lint_paths  # noqa: E402

FIXTURES = REPO_ROOT / "tests" / "fixtures" / "simlint"

#: every rule active everywhere, nothing excluded — fixtures opt in to
#: exactly the behavior they exercise
ALL_ON = Config(
    scopes={rule: ["*"] for rule in RULES},
    rng_modules=[],
    exclude=[],
)

_EXPECT_RE = re.compile(r"#\s*expect:\s*([a-z-]+)")

RULE_FIXTURES = [
    "wall_clock.py",
    "raw_random.py",
    "unordered_iter.py",
    "id_order.py",
    "env_read.py",
    "host_thread.py",
    "missing_slots.py",
    "hot_closure.py",
    "mutable_default.py",
]


def expected_hits(path: Path) -> dict[int, str]:
    """line -> rule for every ``# expect: <rule>`` tag in a fixture."""
    hits = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        m = _EXPECT_RE.search(line)
        if m:
            hits[lineno] = m.group(1)
    return hits


# --------------------------------------------------------------------- #
# fixtures: positive / suppressed / clean per rule


@pytest.mark.parametrize("name", RULE_FIXTURES)
def test_rule_fixture(name):
    path = FIXTURES / name
    expected = expected_hits(path)
    assert expected, f"fixture {name} has no # expect tags"
    findings = lint_file(path, REPO_ROOT, ALL_ON)
    unsuppressed = {f.line: f.rule for f in findings if not f.suppressed}
    assert unsuppressed == expected
    # the suppressed hit is really found *and* really suppressed
    suppressed = [f for f in findings if f.suppressed]
    assert suppressed, f"fixture {name} has no suppressed hit"
    # a suppression that fired is not double-reported as unused
    assert all(f.rule != "unused-ignore" for f in findings)


def test_fixture_rules_cover_every_real_rule():
    covered = set()
    for name in RULE_FIXTURES:
        covered.update(expected_hits(FIXTURES / name).values())
    assert covered == set(RULES) - {"unused-ignore", "syntax-error"}


# --------------------------------------------------------------------- #
# suppression bookkeeping, skip-file, syntax errors


def test_unused_and_unknown_ignores_are_findings():
    findings = lint_file(FIXTURES / "unused_ignore.py", REPO_ROOT, ALL_ON)
    by_line = {f.line: f for f in findings}
    assert set(by_line) == {2, 3}
    assert all(f.rule == "unused-ignore" for f in findings)
    assert "matches no finding" in by_line[2].message
    assert "unknown rule" in by_line[3].message


def test_unused_ignores_can_be_waived():
    config = Config(
        scopes={rule: ["*"] for rule in RULES},
        rng_modules=[],
        exclude=[],
        warn_unused_ignores=False,
    )
    assert lint_file(FIXTURES / "unused_ignore.py", REPO_ROOT, config) == []


def test_skip_file_opts_out():
    assert lint_file(FIXTURES / "skip_file.py", REPO_ROOT, ALL_ON) == []


def test_syntax_error_is_a_finding():
    findings = lint_file(FIXTURES / "syntax_error.py", REPO_ROOT, ALL_ON)
    assert len(findings) == 1
    assert findings[0].rule == "syntax-error"
    assert not findings[0].suppressed


def test_wildcard_suppression(tmp_path):
    src = "import time\nx = time.time()  # simlint: ignore[*] - fixture\n"
    f = tmp_path / "wild.py"
    f.write_text(src)
    findings = lint_file(f, tmp_path, ALL_ON)
    assert [f.rule for f in findings if not f.suppressed] == []
    assert any(f.suppressed for f in findings)


# --------------------------------------------------------------------- #
# configuration


def test_scope_restricts_rules(tmp_path):
    (tmp_path / "pkg").mkdir()
    f = tmp_path / "pkg" / "mod.py"
    f.write_text("import time\nx = time.time()\n")
    in_scope = Config(scopes={"wall-clock": ["pkg/*"]}, exclude=[])
    out_of_scope = Config(scopes={"wall-clock": ["other/*"]}, exclude=[])
    assert [x.rule for x in lint_file(f, tmp_path, in_scope)] == ["wall-clock"]
    assert lint_file(f, tmp_path, out_of_scope) == []


def test_pyproject_overlay(tmp_path):
    (tmp_path / "pyproject.toml").write_text(
        "[tool.simlint]\n"
        'exclude = ["generated/*"]\n'
        "[tool.simlint.scopes]\n"
        '"wall-clock" = ["only/here/*"]\n'
    )
    config = load_config(tmp_path)
    assert config.exclude == ["generated/*"]
    assert config.scopes["wall-clock"] == ["only/here/*"]
    # untouched rules keep their defaults
    assert config.scopes["mutable-default"] == DEFAULT_SCOPES["mutable-default"]


def test_repo_config_excludes_fixtures():
    config = load_config(REPO_ROOT)
    files = iter_python_files([REPO_ROOT / "tests"], REPO_ROOT, config)
    assert not [p for p in files if "fixtures" in p.parts]


def test_discovery_is_sorted():
    config = load_config(REPO_ROOT)
    files = iter_python_files([REPO_ROOT / "src", REPO_ROOT / "tools"], REPO_ROOT, config)
    assert files == sorted(files)
    assert any(p.name == "engine.py" for p in files)


# --------------------------------------------------------------------- #
# repo gates


def test_simlint_clean_on_src_and_tools():
    """The tier-1 analogue of ``python -m tools.simlint src tools``."""
    config = load_config(REPO_ROOT)
    # host concurrency is banned across all of src/repro, no carve-out
    assert config.scopes["host-thread"] == ["src/repro/*"]
    findings = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tools"], REPO_ROOT, config
    )
    unsuppressed = [f.render() for f in findings if not f.suppressed]
    assert unsuppressed == []


def test_no_multiprocessing_under_src(tmp_path):
    """Nothing anywhere under ``src/`` imports host process or thread
    machinery (simulations are single-threaded), and the host-thread rule
    does flag an offender when there is one."""
    everywhere = Config(scopes={"host-thread": ["*"]}, exclude=[])

    def offenders(root: Path) -> list[str]:
        return [
            path.relative_to(root).as_posix()
            for path in iter_python_files([root / "src"], root, everywhere)
            if any(
                f.rule == "host-thread" and not f.suppressed
                for f in lint_file(path, root, everywhere)
            )
        ]

    assert offenders(REPO_ROOT) == []
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text("import os\n")
    (pkg / "forks.py").write_text("from multiprocessing import Pool\n")
    assert offenders(tmp_path) == ["src/pkg/forks.py"]


def _simulator_private_uses(source: str) -> list[tuple[int, str]]:
    """``(line, attr)`` of every ``sim._attr`` / ``<obj>.sim._attr``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name == "sim":
                hits.append((node.lineno, node.attr))
    return sorted(hits)


def test_engine_internals_stay_private():
    """Only ``simulator/engine.py`` touches a Simulator's underscore
    attributes: the engine can be replaced without reading its callers."""
    probe = "a = self.sim._seq\nsim._heap.clear()\nsim.post(1.0, f)\nself._sim = sim\n"
    assert _simulator_private_uses(probe) == [(1, "_seq"), (2, "_heap")]
    src = REPO_ROOT / "src" / "repro"
    hits = {
        path.relative_to(src).as_posix(): uses
        for path in sorted(src.rglob("*.py"))
        if path != src / "simulator" / "engine.py"
        and (uses := _simulator_private_uses(path.read_text()))
    }
    assert hits == {}


def _sequence_private_uses(source: str, private: frozenset[str]) -> list[tuple[int, str]]:
    """``(line, attr)`` of every ``<obj>._attr`` read with ``_attr`` one of
    ``private`` (a name shared with another class's attribute counts too:
    the rule is by name, so the private names stay distinctive)."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in private
    )


def test_sequence_internals_stay_private():
    """Only ``core/events.py`` touches the underscore attributes of a
    ``WindowTable`` or of the ``DeterminantStore``: protocols build,
    accept and fold acks through the table's methods and read only its
    public columns, so the representation can change without reading its
    callers."""
    from repro.core import events

    private = frozenset(
        name
        for cls in (events.WindowTable, events.DeterminantStore)
        for name in cls.__slots__
        if name.startswith("_")
    )
    assert {"_holes", "_private", "_origin"} <= private
    probe = "n = seq._x\nseq.max_clock\nb = store._y[c]\n"
    assert _sequence_private_uses(probe, frozenset({"_x", "_y"})) == [
        (1, "_x"),
        (3, "_y"),
    ]
    src = REPO_ROOT / "src" / "repro"
    hits = {
        path.relative_to(src).as_posix(): uses
        for path in sorted(src.rglob("*.py"))
        if path != src / "core" / "events.py"
        and (uses := _sequence_private_uses(path.read_text(), private))
    }
    assert hits == {}


def test_ack_journal_stays_private():
    """Only ``core/event_logger.py`` (which writes an ``ElAck``) and
    ``core/protocol_base.py`` (``VProtocol.on_el_ack``, the one ack fold)
    read an ack's journal slots ``log`` / ``upto``: every protocol folds
    acks through that path, so no second adoption logic can drift from
    it."""
    from repro.core.event_logger import ElAck

    journal = frozenset(ElAck.__slots__) - {"src"}
    assert journal == {"log", "upto"}
    src = REPO_ROOT / "src" / "repro"
    allowed = {src / "core" / "event_logger.py", src / "core" / "protocol_base.py"}
    hits = {
        path.relative_to(src).as_posix(): uses
        for path in sorted(src.rglob("*.py"))
        if path not in allowed
        and (uses := _sequence_private_uses(path.read_text(), journal))
    }
    assert hits == {}


def _journal_writes(source: str) -> list[int]:
    """Lines that construct an ``ElAck`` or name an ``_ack_log``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "ElAck")
        or (isinstance(node, ast.Attribute) and node.attr == "_ack_log")
    )


def test_ack_handles_made_only_by_the_logger():
    """Only ``core/event_logger.py`` constructs an ``ElAck`` or appends to
    the ``_ack_log`` journal it hands out.  The fold max-merges journal
    slices, which is exact only while each creator's entries rise; a
    handle over any other list could break that unseen."""
    probe = "a = ElAck(el, log, 3)\nel._ack_log.append(x)\nb = ack.upto\n"
    assert _journal_writes(probe) == [1, 2]
    src = REPO_ROOT / "src" / "repro"
    hits = {
        path.relative_to(src).as_posix(): lines
        for path in sorted(src.rglob("*.py"))
        if (lines := _journal_writes(path.read_text()))
    }
    assert list(hits) == ["core/event_logger.py"]


def _defines(source: str, name: str) -> list[int]:
    """Lines where ``name`` is defined as a function or bound by an
    assignment, at any depth."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.FunctionDef) and node.name == name)
        or (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Store))
    )


def test_ack_fold_defined_once():
    """Only ``core/protocol_base.py`` defines ``on_el_ack``: a protocol
    that must act on an ack (a prune) overrides the fold steps
    ``_fold_vector`` / ``_fold_raises`` it dispatches to, so every ack
    takes the one fold path and is counted once by a hook matched by
    name."""
    probe = "class P:\n    def on_el_ack(self, a): ...\n    on_el_ack = f\n"
    assert _defines(probe, "on_el_ack") == [2, 3]
    src = REPO_ROOT / "src" / "repro"
    hits = {
        path.relative_to(src).as_posix(): lines
        for path in sorted(src.rglob("*.py"))
        if (lines := _defines(path.read_text(), "on_el_ack"))
    }
    assert list(hits) == ["core/protocol_base.py"]
    assert len(hits["core/protocol_base.py"]) == 1


def test_simlint_cli_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.simlint", "src", "tools"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout


def test_mypy_strict_on_typed_packages():
    """mypy --strict on the compiled-core on-ramp packages.

    Skipped when mypy is not installed (install via ``pip install -e
    .[dev]``); configuration lives in ``pyproject.toml``.
    """
    pytest.importorskip("mypy")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
