"""Frozen-oracle rule: ``uarch/reference.py`` must not drift.

The frozen :class:`~repro.uarch.reference.ReferenceProcessor` is the
differential oracle every optimisation of the fast engine is verified
against (PR 2 onwards): its value is precisely that it never changes.
This rule pins it two ways:

* the module's **AST fingerprint** (sha256 of :func:`ast.dump`, so
  comments and formatting are free but any code change fires) must
  match the committed ``data/reference_fingerprint.json``;
* only the bench harness, which builds its own unoptimized baseline
  from it, may **import** it (tests and benchmarks live outside the
  linted tree).  Production code quietly growing a dependency on the
  reference engine is how "frozen" stops being true.

A deliberate re-freeze (which should essentially never happen — the
point of the oracle is that it predates the code it checks) goes
through :func:`freeze` so the fingerprint change shows up in review
next to the code change that caused it.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os

from .framework import Rule, register_rule, resolved_imports

#: Lint-root-relative path of the frozen module.
REFERENCE_PATH = "repro/uarch/reference.py"

#: The committed fingerprint, packaged with the analyzer.
FINGERPRINT_FILE = os.path.join(os.path.dirname(__file__), "data",
                                "reference_fingerprint.json")

#: Modules allowed to import the reference engine (plus tests and
#: benchmarks, which live outside the linted tree).
ALLOWED_IMPORTERS = frozenset({
    "repro/harness/bench.py",       # unoptimized baseline + divergence
})


def fingerprint(source: str) -> str:
    """sha256 over the AST dump: whitespace/comment-insensitive,
    code-change-sensitive."""
    tree = ast.parse(source)
    return hashlib.sha256(
        ast.dump(tree, include_attributes=False).encode()).hexdigest()


def load_fingerprint(path: str = FINGERPRINT_FILE) -> dict:
    with open(path) as handle:
        return json.load(handle)


def freeze(source: str, path: str = FINGERPRINT_FILE) -> dict:
    """(Re-)commit the fingerprint of ``source``; returns the record."""
    record = {"path": REFERENCE_PATH, "sha256": fingerprint(source)}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return record


@register_rule
class FrozenOracleRule(Rule):
    """The differential oracle stays frozen and privately held."""

    name = "frozen-oracle"
    description = ("uarch/reference.py matches its committed AST "
                   "fingerprint and is imported only from sanctioned "
                   "modules")

    def check_file(self, context, file):
        if file.path != REFERENCE_PATH:
            return
        try:
            committed = load_fingerprint()
        except (OSError, ValueError):
            yield self.finding(
                file.path, 1,
                "no committed fingerprint for the frozen oracle "
                "(expected %s); run repro-ft lint --refreeze-oracle "
                "once and commit the result" % FINGERPRINT_FILE)
            return
        actual = fingerprint(file.source)
        if actual != committed.get("sha256"):
            yield self.finding(
                file.path, 1,
                "uarch/reference.py no longer matches its committed "
                "AST fingerprint — the frozen differential oracle "
                "has been edited.  Revert the change; if a re-freeze "
                "is genuinely intended, run repro-ft lint "
                "--refreeze-oracle and justify it in the PR")

    def finalize(self, context):
        target = REFERENCE_PATH[:-3].replace("/", ".")
        for file in context.files:
            if file.path in ALLOWED_IMPORTERS \
                    or file.path == REFERENCE_PATH:
                continue
            for name in resolved_imports(file):
                if name == target or name.startswith(target + "."):
                    yield self.finding(
                        file.path, 1,
                        "imports the frozen oracle (%s); only "
                        "bench and tests may depend on it" % name)
                    break
