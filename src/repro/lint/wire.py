"""Wire-protocol parity rule: serializers round-trip, kinds register.

Two classes of drift this catches at review time instead of in a
cross-version replay:

* **to_dict / from_dict parity** — every class that defines
  ``to_dict`` must define ``from_dict``, and every key the serializer
  can emit must be consumed by the parser (explicit ``data["k"]`` /
  ``.get`` / ``.pop`` / ``"k" in data`` access, a ``known = {...}``
  key set, or the ``cls(**data)`` + ``__dataclass_fields__`` idiom,
  which covers every dataclass field).  A key emitted but never
  parsed is a field that silently drops on the next restart-resume.
* **event-kind registry** — every kind fed to ``CampaignEvent``,
  ``_emit`` or ``job_event`` (and every ``.kind == "..."`` check)
  must be a member of one of the kind registries
  (``EVENT_KINDS`` / ``JOB_EVENT_KINDS``),
  and every registered kind must actually be emitted somewhere.

Key extraction is deliberately conservative: a serializer that builds
keys dynamically marks the class unanalyzable and the parity check is
skipped rather than guessed at.
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


def _dataclass_fields(node: ast.ClassDef) -> Optional[Set[str]]:
    """Annotated field names when ``node`` is a dataclass, else None."""
    def is_dataclass_decorator(dec) -> bool:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", "")
        return name == "dataclass"
    if not any(is_dataclass_decorator(dec)
               for dec in node.decorator_list):
        return None
    fields = set()
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            fields.add(stmt.target.id)
    return fields


def _emitted_keys(func: ast.FunctionDef) -> Tuple[Set[str], bool]:
    """Keys ``to_dict`` can emit; second value True when extraction is
    incomplete (dynamic keys) and the parity check must be skipped."""
    returned: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Return) \
                and isinstance(node.value, ast.Name):
            returned.add(node.value.id)
    keys: Set[str] = set()
    dynamic = False

    def take_dict(dict_node: ast.Dict):
        nonlocal dynamic
        for key in dict_node.keys:
            value = const_str(key)
            if value is None:
                dynamic = True
            else:
                keys.add(value)

    for node in ast.walk(func):
        if isinstance(node, ast.Return) \
                and isinstance(node.value, ast.Dict):
            take_dict(node.value)
        elif isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Dict) \
                and any(isinstance(t, ast.Name) and t.id in returned
                        for t in node.targets):
            take_dict(node.value)
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in returned:
            value = const_str(node.slice)
            if value is None:
                dynamic = True
            else:
                keys.add(value)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in returned:
            if node.func.attr == "setdefault" and node.args:
                value = const_str(node.args[0])
                keys.add(value) if value is not None else None
            elif node.func.attr == "update":
                if node.args and isinstance(node.args[0], ast.Dict):
                    take_dict(node.args[0])
                elif node.args:
                    dynamic = True
                for kw in node.keywords:
                    if kw.arg is None:
                        dynamic = True
                    else:
                        keys.add(kw.arg)
    return keys, dynamic


def _parsed_keys(func: ast.FunctionDef,
                 fields: Optional[Set[str]]) -> Tuple[Set[str], bool]:
    """Keys ``from_dict`` consumes; second value True when the parser
    accepts arbitrary keys (``cls(**data)`` over dataclass fields)."""
    keys: Set[str] = set()
    covers_fields = False
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute) \
                and node.attr == "__dataclass_fields__":
            covers_fields = True
        elif isinstance(node, ast.Call):
            if any(kw.arg is None for kw in node.keywords):
                covers_fields = True        # cls(**data)
            if isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("get", "pop") \
                    and node.args:
                value = const_str(node.args[0])
                if value is not None:
                    keys.add(value)
        elif isinstance(node, ast.Subscript) \
                and not isinstance(node.ctx, ast.Store):
            value = const_str(node.slice)
            if value is not None:
                keys.add(value)
        elif isinstance(node, ast.Compare) \
                and any(isinstance(op, (ast.In, ast.NotIn))
                        for op in node.ops):
            value = const_str(node.left)
            if value is not None:
                keys.add(value)
        elif isinstance(node, ast.Set):
            for elt in node.elts:
                value = const_str(elt)
                if value is not None:
                    keys.add(value)
    if covers_fields:
        if fields:
            keys |= fields
        else:
            return keys, True       # **data into a non-dataclass
    return keys, False


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
    """Serializer round-trip and event-kind registry parity."""

    name = "wire-parity"
    description = ("every to_dict has a from_dict covering its keys; "
                   "every emitted event kind is registered and every "
                   "registered kind emitted")

    def check_file(self, context, file):
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {stmt.name: stmt for stmt in node.body
                       if isinstance(stmt, ast.FunctionDef)}
            to_dict = methods.get("to_dict")
            if to_dict is None:
                continue
            from_dict = methods.get("from_dict")
            if from_dict is None:
                yield self.finding(
                    file.path, to_dict.lineno,
                    "class %s defines to_dict but no from_dict: the "
                    "wire form cannot round-trip" % node.name)
                continue
            emitted, dynamic = _emitted_keys(to_dict)
            if dynamic:
                continue
            parsed, parses_all = _parsed_keys(
                from_dict, _dataclass_fields(node))
            if parses_all:
                continue
            missing = sorted(emitted - parsed)
            if missing:
                yield self.finding(
                    file.path, from_dict.lineno,
                    "%s.from_dict never reads key%s %s emitted by "
                    "to_dict — the field silently drops on parse"
                    % (node.name, "" if len(missing) == 1 else "s",
                       ", ".join(repr(key) for key in missing)))

    # -- event-kind registry ----------------------------------------------

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
                    "registry (EVENT_KINDS / SHARD_EVENT_KINDS / "
                    "JOB_EVENT_KINDS)" % kind)
        for kind, (path, line) in sorted(registries.items()):
            if kind not in emitted:
                yield self.finding(
                    path, line,
                    "registered event kind %r is never emitted by "
                    "any CampaignEvent/_emit/job_event call" % kind)
