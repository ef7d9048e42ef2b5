"""RP-FORKSTATE: worker-side mutation of module globals needs a guard.

The pool workers in ``evaluation/session.py`` communicate with their task
function through a module-level dict (``_WORKER_STATE``) that the pool
initializer rebinds in each worker process.  That pattern is
fork-safe only under discipline: the parent must never read what a worker
wrote, and the initializer must fully overwrite whatever a fork inherited.
Because the discipline is invisible at the mutation site, this rule makes
it explicit — any module-level *mutable* global (dict/list/set literal or
constructor, ``defaultdict(...)``) that a worker-side function mutates must
carry a ``# fork-safe:`` comment at its definition explaining why the
mutation cannot leak between parent and workers.

Worker-side functions are matched by the same naming convention the pool
boundary uses (``_init_*worker``, ``_worker_*``, ``_enum_*``,
``_export_*delta``); mutation means subscript/attribute stores, mutator
method calls, or a ``global`` rebind inside such a function.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Tuple

from ..framework import Finding, Project, Rule, SourceFile, attribute_root
from .pickling import WORKER_NAME

__all__ = ["ForkStateRule"]

_MUTABLE_CONSTRUCTORS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
_MUTATOR_METHODS = {
    "update",
    "setdefault",
    "clear",
    "append",
    "extend",
    "add",
    "discard",
    "remove",
    "pop",
    "popitem",
    "insert",
}
_GUARD_MARKER = "# fork-safe:"


def _mutable_globals(module: SourceFile) -> Dict[str, int]:
    """Module-level names bound to a mutable container → definition line."""
    result: Dict[str, int] = {}
    for node in module.tree.body:
        targets = []
        value = None
        if isinstance(node, ast.Assign):
            targets = [t for t in node.targets if isinstance(t, ast.Name)]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target]
            value = node.value
        if value is None or not targets:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_CONSTRUCTORS
        )
        if mutable:
            for target in targets:
                result[target.id] = node.lineno
    return result


def _is_guarded(module: SourceFile, definition_line: int) -> bool:
    """A ``# fork-safe:`` comment on the definition line or anywhere in the
    contiguous comment block immediately above it."""
    if _GUARD_MARKER in module.line_text(definition_line):
        return True
    line = definition_line - 1
    while line >= 1 and module.line_text(line).lstrip().startswith("#"):
        if _GUARD_MARKER in module.line_text(line):
            return True
        line -= 1
    return False


class ForkStateRule(Rule):
    id = "RP-FORKSTATE"
    title = "worker-mutated module globals carry a fork-safety guard comment"

    def run(self, project: Project) -> Iterator[Finding]:
        for file in project.parsed():
            globals_ = _mutable_globals(file)
            if not globals_:
                continue
            for node in file.tree.body:
                if isinstance(node, ast.FunctionDef) and WORKER_NAME.match(node.name):
                    yield from self._check_worker(file, node, globals_)

    def _check_worker(
        self, module: SourceFile, func: ast.FunctionDef, globals_: Dict[str, int]
    ) -> Iterator[Finding]:
        reported: set = set()

        def report(name: str, node: ast.AST, how: str) -> Iterator[Finding]:
            if name in reported or _is_guarded(module, globals_[name]):
                return
            reported.add(name)
            yield Finding(
                path=module.relpath,
                line=node.lineno,
                rule=self.id,
                message=f"worker {func.name}() {how} module global {name} "
                "without a '# fork-safe:' comment at its definition "
                f"(line {globals_[name]})",
            )

        declared_global = {
            name
            for node in ast.walk(func)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        root = attribute_root(target)
                        if isinstance(root, ast.Name) and root.id in globals_:
                            yield from report(root.id, node, "writes into")
                    elif isinstance(target, ast.Name) and target.id in declared_global:
                        if target.id in globals_:
                            yield from report(target.id, node, "rebinds")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in _MUTATOR_METHODS:
                    root = attribute_root(node.func.value)
                    if isinstance(root, ast.Name) and root.id in globals_:
                        yield from report(root.id, node, "mutates")
