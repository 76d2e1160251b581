"""Lock-discipline rule: shared state stays behind its lock.

For every class that builds a :class:`threading.Lock` / ``RLock`` /
``Condition`` in ``__init__`` (JobQueue, FairScheduler, ServiceBackend,
EventLog, ...), the rule infers the guarded attribute set and then
flags accesses that bypass the lock:

* an attribute is **guarded** when it is accessed at least once inside
  a ``with self._lock:`` block *and* written outside ``__init__``
  somewhere — read-only configuration set up during construction is
  not guarded, however often it is read under lock;
* ``__init__`` is exempt (construction happens-before publication);
* a method named ``*_locked`` asserts by convention that its caller
  holds the lock, so its whole body counts as under-lock — the
  convention this repo already uses (``EventLog._next_seq_locked``);
* methods that call ``self._lock.acquire()`` explicitly are skipped
  entirely: hand-rolled acquire/release cannot be tracked lexically
  and guessing produces noise, not findings.

This is a lexical approximation, not a proof — it exists to catch the
easy-to-write, hard-to-reproduce kind of race where a new method reads
``self._jobs`` without taking the queue lock.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from .framework import Rule, register_rule

#: Constructors whose result is a mutual-exclusion object.
_LOCK_FACTORIES = frozenset({
    "Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})

_LOCKED_SUFFIX = "_locked"

#: Method calls that mutate their receiver in place — ``self.x.pop()``
#: is a write to the guarded container even though the attribute node
#: itself is a Load.
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "pop", "popleft",
    "popitem", "remove", "discard", "clear", "add", "update",
    "setdefault", "sort", "reverse"})


def _is_lock_factory(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) \
        else getattr(func, "id", "")
    return name in _LOCK_FACTORIES


def _self_attr(node) -> str:
    """``self.x`` -> ``"x"``, anything else -> ``""``."""
    if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return ""


@dataclass
class _Access:
    attr: str
    line: int
    under_lock: bool
    is_write: bool
    method: str


@dataclass
class _ClassInfo:
    name: str
    lock_attrs: Set[str] = field(default_factory=set)
    accesses: List[_Access] = field(default_factory=list)


class _MethodScanner(ast.NodeVisitor):
    """Collect self-attribute accesses with their lock context."""

    def __init__(self, info: _ClassInfo, method: str,
                 under_lock: bool):
        self.info = info
        self.method = method
        self.under = under_lock
        self.manual_locking = False

    def visit_With(self, node: ast.With):
        takes_lock = any(
            _self_attr(item.context_expr) in self.info.lock_attrs
            for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        was_under = self.under
        self.under = self.under or takes_lock
        for stmt in node.body:
            self.visit(stmt)
        self.under = was_under

    def _record(self, attr: str, line: int, is_write: bool):
        if attr and attr not in self.info.lock_attrs:
            self.info.accesses.append(_Access(
                attr=attr, line=line, under_lock=self.under,
                is_write=is_write, method=self.method))

    def visit_Attribute(self, node: ast.Attribute):
        self._record(_self_attr(node), node.lineno,
                     isinstance(node.ctx, (ast.Store, ast.Del)))
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript):
        # self.x[k] = v / del self.x[k]: the Attribute itself is a
        # Load, but the container is being mutated.
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            self._record(_self_attr(node.value), node.lineno, True)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in ("acquire", "release") \
                    and _self_attr(func.value) in self.info.lock_attrs:
                self.manual_locking = True
            elif func.attr in _MUTATOR_METHODS:
                self._record(_self_attr(func.value),
                             node.lineno, True)
        self.generic_visit(node)


def _scan_class(node: ast.ClassDef) -> _ClassInfo:
    info = _ClassInfo(name=node.name)
    init = next((stmt for stmt in node.body
                 if isinstance(stmt, ast.FunctionDef)
                 and stmt.name == "__init__"), None)
    if init is not None:
        for sub in ast.walk(init):
            if isinstance(sub, ast.Assign) \
                    and _is_lock_factory(sub.value):
                for target in sub.targets:
                    attr = _self_attr(target)
                    if attr:
                        info.lock_attrs.add(attr)
    if not info.lock_attrs:
        return info
    for stmt in node.body:
        if not isinstance(stmt, ast.FunctionDef) \
                or stmt.name == "__init__":
            continue
        scanner = _MethodScanner(
            info, stmt.name,
            under_lock=stmt.name.endswith(_LOCKED_SUFFIX))
        marker = len(info.accesses)
        for sub in stmt.body:
            scanner.visit(sub)
        if scanner.manual_locking:
            del info.accesses[marker:]
    return info


@register_rule
class LockDisciplineRule(Rule):
    """Guarded attributes must be accessed under their lock."""

    name = "lock-discipline"
    description = ("attributes touched under `with self._lock:` and "
                   "mutated after __init__ must always be accessed "
                   "under the lock (or from a *_locked method)")

    def check_file(self, context, file):
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            info = _scan_class(node)
            if not info.lock_attrs:
                continue
            under: Set[str] = set()
            written: Set[str] = set()
            for access in info.accesses:
                if access.under_lock:
                    under.add(access.attr)
                if access.is_write:
                    written.add(access.attr)
            guarded = under & written
            reported: Set[Tuple[str, str]] = set()
            for access in info.accesses:
                if access.under_lock or access.attr not in guarded:
                    continue
                key = (access.method, access.attr)
                if key in reported:
                    continue
                reported.add(key)
                yield self.finding(
                    file.path, access.line,
                    "%s.%s %s self.%s outside the lock that guards "
                    "it elsewhere; take the lock, or rename the "
                    "method *%s if the caller must hold it"
                    % (info.name, access.method,
                       "writes" if access.is_write else "reads",
                       access.attr, _LOCKED_SUFFIX))
