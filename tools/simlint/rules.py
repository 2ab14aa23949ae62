"""simlint rule catalogue and the AST visitor that applies it.

Two rule families (see ``docs/ANALYSIS.md`` for the full catalogue):

**Determinism** — violations here break the bit-identical checksum
methodology of ``docs/BENCHMARKING.md``:

* ``wall-clock``      — host clock reads (``time.time``, ``datetime.now``, …)
* ``raw-random``      — randomness outside :mod:`repro.simulator.rng`
* ``unordered-iter``  — iterating a ``set`` (hash order) or unsorted
  filesystem listings
* ``id-order``        — ``id()`` (CPython address, varies across runs)
* ``env-read``        — ``os.environ`` / ``os.getenv`` inside sim paths
* ``host-thread``     — host concurrency machinery (``threading``,
  ``multiprocessing``, ``concurrent``, ``asyncio``, ``_thread``,
  ``os.fork``) in simulated code; simulations are single-threaded by
  contract

**Hot path** — allocation discipline for the compiled-core on-ramp:

* ``missing-slots``   — classes in hot modules must declare ``__slots__``
  (dataclasses must pass ``slots=True``)
* ``hot-closure``     — no ``lambda`` / nested ``def`` inside functions
  marked ``# simlint: hot``
* ``mutable-default`` — mutable default argument values (repo-wide; they
  are shared across calls and across *ranks*, a cross-rank
  state-bleed hazard on top of the classic footgun)

The visitor is a single pass per file; rule activation per file is
decided by :class:`tools.simlint.config.Config` scopes before the walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

#: rule id -> one-line description (the ``--rules`` catalogue; ids are the
#: names accepted inside an ignore suppression's brackets)
RULES: dict[str, str] = {
    "wall-clock": "host clock read (time.time/monotonic/perf_counter, datetime.now)",
    "raw-random": "randomness not routed through repro.simulator.rng",
    "unordered-iter": "iteration over a set or unsorted filesystem listing",
    "id-order": "id() used in simulation code (address-dependent ordering)",
    "env-read": "environment read inside a simulated path",
    "host-thread": "host thread/process/async machinery inside simulated code",
    "missing-slots": "class in a hot module without __slots__",
    "hot-closure": "closure/lambda allocated inside a `# simlint: hot` function",
    "mutable-default": "mutable default argument value",
    "unused-ignore": "simlint suppression that suppresses nothing",
    "syntax-error": "file does not parse",
}

DETERMINISM_RULES = frozenset(
    ["wall-clock", "raw-random", "unordered-iter", "id-order", "env-read",
     "host-thread"]
)
HOTPATH_RULES = frozenset(["missing-slots", "hot-closure", "mutable-default"])


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    suppressed: bool = False

    def render(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}{tag}"


# --------------------------------------------------------------------- #
# name tables

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: call targets that are nondeterministic however they are used
_RAW_RANDOM_CALLS = {"os.urandom", "uuid.uuid1", "uuid.uuid4"}
_RAW_RANDOM_PREFIXES = ("random.", "secrets.")

#: numpy.random callables that are deterministic *only when seeded*
_NUMPY_SEEDED_OK = {"numpy.random.default_rng", "numpy.random.SeedSequence"}

_FS_ORDER = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}

_ENV_READS = {"os.environ", "os.getenv", "os.environb", "os.putenv"}

#: top-level modules that introduce host concurrency — any import inside
#: simulated code is a violation (simulations are single-threaded by
#: contract; host parallelism runs whole simulations in separate
#: processes, outside src/repro)
_HOST_THREAD_MODULES = {
    "threading",
    "_thread",
    "multiprocessing",
    "concurrent",
    "asyncio",
}

#: call targets that spawn host threads/processes without an import of
#: the modules above
_HOST_THREAD_CALLS = {"os.fork", "os.forkpty", "os.posix_spawn", "os.spawnv"}

#: class bases that manage their own layout (no __slots__ expected)
_SLOTS_EXEMPT_BASES = {
    "NamedTuple",
    "Protocol",
    "TypedDict",
    "Enum",
    "IntEnum",
    "StrEnum",
    "Flag",
    "IntFlag",
}

_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "Counter",
    "OrderedDict",
}

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


class _Scope:
    """One lexical scope: tracks names bound to set-valued expressions."""

    __slots__ = ("set_names", "hot")

    def __init__(self, hot: bool = False):
        self.set_names: set[str] = set()
        self.hot = hot


class RuleVisitor(ast.NodeVisitor):
    """Single-pass visitor; collects findings for the active rules."""

    def __init__(
        self,
        relpath: str,
        active: set[str],
        hot_lines: set[int],
        rng_module: bool = False,
    ):
        self.relpath = relpath
        self.active = active
        #: physical lines carrying a `# simlint: hot` marker
        self.hot_lines = hot_lines
        self.rng_module = rng_module
        self.findings: list[Finding] = []
        #: import alias -> real dotted module (e.g. np -> numpy)
        self.modules: dict[str, str] = {}
        #: from-import alias -> real dotted name (e.g. datetime -> datetime.datetime)
        self.from_names: dict[str, str] = {}
        self.scopes: list[_Scope] = [_Scope()]

    # -- plumbing ------------------------------------------------------- #

    def report(self, node: ast.AST, rule: str, message: str) -> None:
        if rule in self.active:
            self.findings.append(
                Finding(
                    self.relpath,
                    getattr(node, "lineno", 1),
                    getattr(node, "col_offset", 0) + 1,
                    rule,
                    message,
                )
            )

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted name of ``node`` with import aliases substituted.

        Only resolves chains rooted at an imported module or from-imported
        name — ``self.anything`` and local variables resolve to ``None``,
        which is what keeps e.g. ``self.sim.now`` out of the wall-clock
        rule's reach.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        if root in self.modules:
            base = self.modules[root]
        elif root in self.from_names:
            base = self.from_names[root]
        else:
            return None
        return ".".join([base, *reversed(parts)]) if parts else base

    # -- imports -------------------------------------------------------- #

    def _check_host_thread_import(self, node: ast.AST, module: str) -> None:
        if module.split(".")[0] in _HOST_THREAD_MODULES:
            self.report(
                node,
                "host-thread",
                f"import of `{module}` introduces host concurrency; "
                "simulations are single-threaded — host parallelism belongs "
                "outside src/repro (one whole simulation per worker process)",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.modules[alias.asname or alias.name.split(".")[0]] = alias.name
            if alias.name == "random" and not self.rng_module:
                self.report(
                    node,
                    "raw-random",
                    "import of stdlib `random` — use repro.simulator.rng streams",
                )
            self._check_host_thread_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        for alias in node.names:
            self.from_names[alias.asname or alias.name] = f"{module}.{alias.name}"
        if module == "random" and not self.rng_module:
            self.report(
                node,
                "raw-random",
                "import from stdlib `random` — use repro.simulator.rng streams",
            )
        self._check_host_thread_import(node, module)
        self.generic_visit(node)

    # -- determinism: name-table rules ---------------------------------- #

    def _check_resolved_use(self, node: ast.AST, dotted: str) -> None:
        if dotted in _WALL_CLOCK:
            self.report(
                node,
                "wall-clock",
                f"`{dotted}` reads the host clock; simulated time lives on "
                "`Simulator.now`",
            )
        elif dotted in _ENV_READS or dotted.startswith("os.environ."):
            self.report(
                node,
                "env-read",
                f"`{dotted}`: simulation behavior must be a pure function of "
                "(config, seed), not the environment",
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        dotted = self.resolve(node)
        if dotted is not None:
            self._check_resolved_use(node, dotted)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            dotted = self.resolve(node)
            if dotted is not None:
                self._check_resolved_use(node, dotted)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        dotted = self.resolve(func)
        if dotted is not None:
            self._check_random_call(node, dotted)
            if dotted in _HOST_THREAD_CALLS:
                self.report(
                    node,
                    "host-thread",
                    f"`{dotted}` spawns a host process from inside simulated "
                    "code; fork whole simulations outside src/repro instead",
                )
            if dotted in _FS_ORDER:
                self.report(
                    node,
                    "unordered-iter",
                    f"`{dotted}` returns entries in unsorted filesystem order; "
                    "wrap in sorted(...)",
                )
        if isinstance(func, ast.Name) and func.id == "id":
            self.report(
                node,
                "id-order",
                "id() is a CPython address — any ordering or keying derived "
                "from it varies across runs",
            )
        # list(s)/tuple(s)/iter(s)/enumerate(s) over a set expression
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple", "iter", "enumerate")
            and node.args
            and self._is_set_expr(node.args[0])
        ):
            self.report(
                node,
                "unordered-iter",
                f"{func.id}() over a set iterates in hash order; sort first",
            )
        self.generic_visit(node)

    def _check_random_call(self, node: ast.Call, dotted: str) -> None:
        if self.rng_module:
            return
        if dotted in _RAW_RANDOM_CALLS or dotted.startswith(_RAW_RANDOM_PREFIXES):
            self.report(
                node,
                "raw-random",
                f"`{dotted}` is nondeterministic; draw from a named "
                "repro.simulator.rng stream",
            )
        elif dotted.startswith("numpy.random."):
            if dotted in _NUMPY_SEEDED_OK:
                if not node.args and not node.keywords:
                    self.report(
                        node,
                        "raw-random",
                        f"unseeded `{dotted}()` draws OS entropy; pass an "
                        "explicit seed (or use repro.simulator.rng)",
                    )
            else:
                self.report(
                    node,
                    "raw-random",
                    f"`{dotted}` uses numpy's global RNG state; construct a "
                    "seeded Generator instead",
                )

    # -- determinism: set iteration ------------------------------------- #

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return any(node.id in scope.set_names for scope in reversed(self.scopes))
        return False

    def _track_assignment(self, target: ast.AST, value: ast.AST | None) -> None:
        if value is None or not isinstance(target, ast.Name):
            return
        scope = self.scopes[-1]
        if self._is_set_expr(value):
            scope.set_names.add(target.id)
        else:
            scope.set_names.discard(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._track_assignment(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._track_assignment(node.target, node.value)
        self.generic_visit(node)

    def _check_iter(self, iter_node: ast.AST) -> None:
        if self._is_set_expr(iter_node):
            self.report(
                iter_node,
                "unordered-iter",
                "iterating a set: order is hash-dependent (and seed-dependent "
                "for str members); iterate sorted(...) or an ordered structure",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in node.generators:  # type: ignore[attr-defined]
            self._check_iter(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    # -- hot path ------------------------------------------------------- #

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if "missing-slots" in self.active and not self._slots_exempt(node):
            if not self._declares_slots(node):
                self.report(
                    node,
                    "missing-slots",
                    f"class `{node.name}` in a hot module must declare "
                    "__slots__ (dataclasses: @dataclass(slots=True))",
                )
        self.scopes.append(_Scope())
        self.generic_visit(node)
        self.scopes.pop()

    def _slots_exempt(self, node: ast.ClassDef) -> bool:
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else None
            )
            if name is None:
                continue
            if name in _SLOTS_EXEMPT_BASES:
                return True
            if name.endswith(("Exception", "Error", "Warning")):
                return True
        return False

    def _declares_slots(self, node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call):
                name = deco.func
                base = name.attr if isinstance(name, ast.Attribute) else (
                    name.id if isinstance(name, ast.Name) else ""
                )
                if base == "dataclass":
                    return any(
                        kw.arg == "slots"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in deco.keywords
                    )
            else:
                base = deco.attr if isinstance(deco, ast.Attribute) else (
                    deco.id if isinstance(deco, ast.Name) else ""
                )
                if base == "dataclass":
                    return False  # bare @dataclass never sets slots
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets = [
                    t.id for t in stmt.targets if isinstance(t, ast.Name)
                ]
                if "__slots__" in targets:
                    return True
            elif isinstance(stmt, ast.AnnAssign):
                if (
                    isinstance(stmt.target, ast.Name)
                    and stmt.target.id == "__slots__"
                ):
                    return True
        return False

    def _function_is_hot(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        candidates = {node.lineno, node.lineno - 1}
        candidates.update(d.lineno for d in node.decorator_list)
        return bool(candidates & self.hot_lines)

    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._check_defaults(node.args, node)
        enclosing_hot = self.scopes[-1].hot
        hot = self._function_is_hot(node)
        if enclosing_hot:
            self.report(
                node,
                "hot-closure",
                f"nested function `{node.name}` allocates a closure per call "
                "of its hot enclosing function; hoist it to module/class level",
            )
        self.scopes.append(_Scope(hot=hot or enclosing_hot))
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_defaults(node.args, node)
        if self.scopes[-1].hot:
            self.report(
                node,
                "hot-closure",
                "lambda allocates a closure per call of its hot enclosing "
                "function; hoist it or pass args through the scheduler",
            )
        self.scopes.append(_Scope(hot=self.scopes[-1].hot))
        self.generic_visit(node)
        self.scopes.pop()

    def _check_defaults(self, args: ast.arguments, owner: ast.AST) -> None:
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            if isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
            ):
                self.report(
                    default,
                    "mutable-default",
                    "mutable default argument is shared across every call "
                    "(and every rank); default to None and allocate inside",
                )
