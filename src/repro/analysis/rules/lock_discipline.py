"""``lock-discipline``: declared lock-guarded state is only touched
under its lock.

PR 4's thread-safety audit fixed a family of double-checked-init races
by hand; this rule makes the convention checkable.  Declare guarded
state with a trailing comment on its initialising assignment::

    class ContinuousBatcher:
        def __init__(self):
            self._lock = threading.Lock()
            self._queue = deque()   # guarded by: self._lock

    _CACHE: dict = {}               # guarded by: _CACHE_LOCK

From then on every read or write of ``self._queue`` (any method of the
class) or ``_CACHE`` (anywhere in the module) must sit lexically inside
a ``with`` block on one of the named locks.  Several acceptable locks
may be listed comma-separated — a :class:`threading.Condition` wrapping
the lock counts as holding it, so the scheduler declares
``# guarded by: self._wake, self._lock``.

Deliberate escape hatches (both are conventions the serving code
already follows):

- the declaring function (usually ``__init__``) is exempt — nothing
  else can hold a reference yet;
- functions whose name ends in ``_locked`` are exempt — the suffix is
  the repo's "caller holds the lock" marker (e.g.
  ``ContinuousBatcher._classify_arrivals_locked``).

Known accepted limitation: the check is lexical.  Aliasing the object
(``m = self.metrics``) or helper indirection hides accesses; the rule
still catches the way this codebase actually regresses — a new method
reading a guarded dict without taking the lock.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import Finding, ModuleInfo, Rule, register

#: ``# guarded by: self._lock[, self._wake]`` on the declaring line(s).
GUARD_COMMENT = re.compile(r"#\s*guarded by:\s*([A-Za-z0-9_.,\s]+?)\s*$")

#: Marker suffix for "caller must hold the lock" helper functions.
LOCKED_SUFFIX = "_locked"


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover -- defensive
        return ""


def _assign_targets(stmt: ast.stmt) -> list[ast.expr]:
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        return [stmt.target]
    return []


class _Declaration:
    """One guarded name: its acceptable locks and declaration site."""

    def __init__(self, name: str, locks: tuple[str, ...], line: int):
        self.name = name
        self.locks = locks
        self.line = line


def _parse_guard(module: ModuleInfo, stmt: ast.stmt) -> tuple[str, ...] | None:
    match = module.statement_comment(stmt, GUARD_COMMENT)
    if match is None:
        return None
    locks = tuple(part.strip() for part in match.group(1).split(",")
                  if part.strip())
    return locks or None


class _AccessChecker(ast.NodeVisitor):
    """Walk one function, tracking the ``with``-held lock expressions."""

    def __init__(self, rule_id: str, module: ModuleInfo,
                 declarations: dict[str, _Declaration],
                 is_attr: bool):
        self.rule_id = rule_id
        self.module = module
        self.declarations = declarations
        self.is_attr = is_attr       # self.X declarations vs module globals
        self.held: list[str] = []
        self.findings: list[Finding] = []

    # -- lock tracking -------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        exprs = [_unparse(item.context_expr) for item in node.items]
        self.held.extend(exprs)
        self.generic_visit(node)
        del self.held[len(self.held) - len(exprs):]

    # -- function boundaries: nested defs keep the lexical lock state --------

    def _visit_function(self, node) -> None:
        if node.name.endswith(LOCKED_SUFFIX):
            return
        self.generic_visit(node)

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # -- accesses ------------------------------------------------------------

    def _check(self, name: str, node: ast.AST) -> None:
        declaration = self.declarations.get(name)
        if declaration is None:
            return
        if any(held in declaration.locks for held in self.held):
            return
        spelled = f"self.{name}" if self.is_attr else name
        self.findings.append(Finding(
            self.module.display, node.lineno, node.col_offset + 1,
            self.rule_id,
            f"{spelled} is declared guarded by "
            f"{' / '.join(declaration.locks)} (line {declaration.line}) "
            f"but is accessed without holding it",
        ))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (self.is_attr and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            self._check(node.attr, node)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if not self.is_attr:
            self._check(node.id, node)


@register
class LockDisciplineRule(Rule):
    id = "lock-discipline"
    summary = ("state declared '# guarded by: <lock>' must only be "
               "accessed inside 'with <lock>:'")

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        yield from self._check_globals(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)

    # -- class-attribute declarations ---------------------------------------

    def _check_class(self, module: ModuleInfo,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        declarations: dict[str, _Declaration] = {}
        declaring: dict[str, str] = {}       # attr -> declaring function
        for func in [n for n in cls.body
                     if isinstance(n, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))]:
            for stmt in ast.walk(func):
                if not isinstance(stmt, ast.stmt):
                    continue
                targets = _assign_targets(stmt)
                if not targets:
                    continue
                locks = None
                for target in targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        if locks is None:
                            locks = _parse_guard(module, stmt)
                        if locks:
                            declarations[target.attr] = _Declaration(
                                target.attr, locks, stmt.lineno)
                            declaring[target.attr] = func.name
        if not declarations:
            return
        for func in [n for n in cls.body
                     if isinstance(n, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))]:
            if func.name.endswith(LOCKED_SUFFIX):
                continue
            # the declaring function may touch its attribute freely
            visible = {
                name: declaration
                for name, declaration in declarations.items()
                if declaring[name] != func.name
            }
            if not visible:
                continue
            checker = _AccessChecker(self.id, module, visible, is_attr=True)
            for stmt in func.body:
                checker.visit(stmt)
            yield from checker.findings

    # -- module-level declarations ------------------------------------------

    def _check_globals(self, module: ModuleInfo) -> Iterator[Finding]:
        declarations: dict[str, _Declaration] = {}
        for stmt in module.tree.body:
            targets = _assign_targets(stmt)
            if not targets:
                continue
            locks = _parse_guard(module, stmt)
            if not locks:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    declarations[target.id] = _Declaration(
                        target.id, locks, stmt.lineno)
        if not declarations:
            return
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.endswith(LOCKED_SUFFIX):
                    continue
                checker = _AccessChecker(self.id, module, declarations,
                                         is_attr=False)
                for stmt in node.body:
                    checker.visit(stmt)
                yield from checker.findings
            elif isinstance(node, ast.ClassDef):
                for func in [n for n in node.body
                             if isinstance(n, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))]:
                    if func.name.endswith(LOCKED_SUFFIX):
                        continue
                    checker = _AccessChecker(self.id, module, declarations,
                                             is_attr=False)
                    for stmt in func.body:
                        checker.visit(stmt)
                    yield from checker.findings
