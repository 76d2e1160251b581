"""Event-kind registry rule: every emitted kind is registered.

Every kind fed to ``CampaignEvent``, ``_emit`` or ``job_event`` (and
every ``.kind == "..."`` check) must be a member of one of the kind
registries (``EVENT_KINDS`` / ``JOB_EVENT_KINDS``), and every
registered kind must actually be emitted somewhere.

Serializer parity is not a lint concern: every wire type derives
``to_dict`` and ``from_dict`` from one field declaration
(:mod:`repro.wire`), so a key cannot be emitted without being parsed.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from .framework import Rule, const_str, register_rule

#: (file, registry tuple name) triples the kind check reads.  A file
#: absent from the linted tree skips its registry (fixture trees).
KIND_REGISTRIES = (
    ("repro/campaign/api.py", "EVENT_KINDS"),
    ("repro/service/events.py", "JOB_EVENT_KINDS"),
)

#: Call shapes whose first positional argument is an event kind.
_KIND_CALL_NAMES = ("_emit", "job_event")


def _module_constants(tree: ast.Module) -> Dict[str, str]:
    """Module-level ``NAME = "literal"`` string constants."""
    constants: Dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            value = const_str(stmt.value)
            if value is not None:
                constants[stmt.targets[0].id] = value
    return constants


def _terminal_name(func) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", "")


@register_rule
class WireParityRule(Rule):
    """Event-kind registry parity."""

    name = "wire-parity"
    description = ("every emitted event kind is registered and every "
                   "registered kind emitted")

    def finalize(self, context):
        registries: Dict[str, Tuple[str, int]] = {}
        present = False
        for path, name in KIND_REGISTRIES:
            file = context.file(path)
            if file is None:
                continue
            present = True
            constants = _module_constants(file.tree)
            tuple_node = None
            for stmt in file.tree.body:
                if isinstance(stmt, ast.Assign) \
                        and len(stmt.targets) == 1 \
                        and isinstance(stmt.targets[0], ast.Name) \
                        and stmt.targets[0].id == name \
                        and isinstance(stmt.value,
                                       (ast.Tuple, ast.List, ast.Set)):
                    tuple_node = stmt
                    break
            if tuple_node is None:
                yield self.finding(
                    path, 1,
                    "expected the %s kind registry tuple in this "
                    "module" % name)
                continue
            for elt in tuple_node.value.elts:
                kind = const_str(elt)
                if kind is None and isinstance(elt, ast.Name):
                    kind = constants.get(elt.id)
                if kind is not None:
                    registries[kind] = (path, tuple_node.lineno)
        if not present:
            return

        # Global name -> kind-string map (ambiguous names dropped).
        global_constants: Dict[str, Optional[str]] = {}
        for file in context.files:
            for key, value in _module_constants(file.tree).items():
                if key in global_constants \
                        and global_constants[key] != value:
                    global_constants[key] = None
                else:
                    global_constants[key] = value

        def resolve(node) -> List[str]:
            if isinstance(node, ast.IfExp):
                return resolve(node.body) + resolve(node.orelse)
            value = const_str(node)
            if value is not None:
                return [value]
            name = _terminal_name(node) if isinstance(
                node, (ast.Name, ast.Attribute)) else ""
            value = global_constants.get(name)
            return [value] if value else []

        emitted: Set[str] = set()
        used: List[Tuple[str, str, int]] = []   # (kind, path, line)
        for file in context.files:
            for node in ast.walk(file.tree):
                if isinstance(node, ast.Call):
                    terminal = _terminal_name(node.func)
                    kind_node = None
                    if terminal in _KIND_CALL_NAMES and node.args:
                        kind_node = node.args[0]
                    elif terminal == "CampaignEvent":
                        kind_node = next(
                            (kw.value for kw in node.keywords
                             if kw.arg == "kind"), None)
                    if kind_node is None:
                        continue
                    for kind in resolve(kind_node):
                        emitted.add(kind)
                        used.append((kind, file.path,
                                     kind_node.lineno))
                elif isinstance(node, ast.Compare) \
                        and isinstance(node.left, ast.Attribute) \
                        and node.left.attr == "kind":
                    for comparator in node.comparators:
                        items = comparator.elts if isinstance(
                            comparator, (ast.Tuple, ast.List,
                                         ast.Set)) else [comparator]
                        for item in items:
                            kind = const_str(item)
                            if kind is not None:
                                used.append((kind, file.path,
                                             item.lineno))
        for kind, path, line in used:
            if kind not in registries:
                yield self.finding(
                    path, line,
                    "event kind %r is not a member of any kind "
                    "registry (EVENT_KINDS / JOB_EVENT_KINDS)" % kind)
        for kind, (path, line) in sorted(registries.items()):
            if kind not in emitted:
                yield self.finding(
                    path, line,
                    "registered event kind %r is never emitted by "
                    "any CampaignEvent/_emit/job_event call" % kind)
