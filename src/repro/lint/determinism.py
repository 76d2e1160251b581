"""Determinism rule: no wall-clock, entropy, or unordered iteration
inside the deterministic core.

Byte-identical replay (the chaos harness), key-for-key resume, and
adaptive/fixed-plan equivalence all assume that a trial's record is a
pure function of its key.  Anything that reads the host — wall clock,
OS entropy, the global (unseeded) RNG, object identities, set
iteration order under hash randomisation — silently breaks that
contract, usually in a way only an expensive differential run trips.

Scope: the simulator core and the spec -> trial -> record path.  The
service and resilience layers legitimately read the clock (leases,
backoff, SSE timestamps) and are deliberately out of scope; the frozen
``uarch/reference.py`` is owned by the ``frozen-oracle`` rule instead.
"""

from __future__ import annotations

import ast

from .framework import (ERROR, Rule, call_name, import_aliases,
                        register_rule)

#: Path prefixes (relative to the lint root) forming the deterministic
#: core.  Everything under them must be replay-pure.
DETERMINISTIC_PREFIXES = (
    "repro/uarch/",
    "repro/faults/",
    "repro/core/",
    "repro/isa/",
    "repro/branch/",
    "repro/program/",
    "repro/functional/",
    "repro/workloads/",
    "repro/ecc/",
)

#: Individual campaign-layer modules on the spec -> trial -> record
#: path.  The rest of ``campaign/`` (session loop, stores)
#: legitimately polls clocks and is excluded.
DETERMINISTIC_MODULES = (
    "repro/campaign/spec.py",
    "repro/campaign/outcome.py",
    "repro/campaign/golden.py",
    "repro/campaign/aggregate.py",
    "repro/campaign/adaptive.py",
    "repro/campaign/engine.py",
    "repro/campaign/checkpoint.py",
)

#: The frozen differential oracle — guarded by ``frozen-oracle``.
EXCLUDED = ("repro/uarch/reference.py",)

#: Calls that read the host clock or entropy pool.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic",
    "time.monotonic_ns", "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
    "secrets.token_bytes", "secrets.token_hex", "secrets.token_urlsafe",
    "secrets.randbits", "secrets.randbelow", "secrets.choice",
})

#: Module-level :mod:`random` functions — they draw from the global,
#: process-lifetime RNG, so results depend on everything drawn before.
GLOBAL_RANDOM_CALLS = frozenset(
    "random." + name for name in (
        "random", "randint", "randrange", "randbytes", "choice",
        "choices", "shuffle", "sample", "uniform", "getrandbits",
        "gauss", "normalvariate", "betavariate", "expovariate",
        "triangular", "vonmisesvariate", "paretovariate", "seed"))

#: Consumers for which set iteration order cannot leak into output.
_ORDER_SAFE_CALLS = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all", "set",
    "frozenset"})


def in_scope(path: str) -> bool:
    if path in EXCLUDED:
        return False
    return path in DETERMINISTIC_MODULES \
        or any(path.startswith(prefix)
               for prefix in DETERMINISTIC_PREFIXES)


def _is_set_expr(node, aliases) -> bool:
    """Whether ``node`` evaluates to a set/frozenset (order-unstable)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node, aliases)
        if name in ("set", "frozenset"):
            return True
        if name in ("sorted",):
            return False
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        # Set algebra (a | b, a - b) over set operands; only flag when
        # an operand is itself recognisably a set expression.
        return _is_set_expr(node.left, aliases) \
            or _is_set_expr(node.right, aliases)
    return False


@register_rule
class DeterminismRule(Rule):
    """Wall-clock, entropy, and iteration-order hazards in the core."""

    name = "determinism"
    description = ("no wall-clock / OS entropy / global RNG / "
                   "id()-keys / unordered set iteration in the "
                   "deterministic core")
    severity = ERROR

    def check_file(self, context, file):
        if not in_scope(file.path):
            return
        aliases = import_aliases(file.tree)
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(file, node, aliases)
            elif isinstance(node, ast.Dict):
                yield from self._check_id_keys(
                    file, (key for key in node.keys
                           if key is not None), aliases,
                    "dict key")
            elif isinstance(node, ast.DictComp):
                yield from self._check_id_keys(
                    file, (node.key,), aliases, "dict key")
            elif isinstance(node, ast.Set):
                yield from self._check_id_keys(
                    file, node.elts, aliases, "set element")
            elif isinstance(node, ast.Subscript):
                yield from self._check_id_keys(
                    file, (node.slice,), aliases, "subscript key")
            elif isinstance(node, (ast.For, ast.comprehension)):
                iter_node = node.iter
                if _is_set_expr(iter_node, aliases):
                    line = getattr(node, "lineno", iter_node.lineno)
                    yield self.finding(
                        file.path, line,
                        "iteration over a set has no stable order "
                        "under hash randomisation; wrap it in "
                        "sorted(...) before it can feed persisted "
                        "output")

    def _check_call(self, file, node, aliases):
        name = call_name(node, aliases)
        if name is None:
            return
        if name in WALL_CLOCK_CALLS:
            yield self.finding(
                file.path, node.lineno,
                "%s() reads the host clock/entropy inside the "
                "deterministic core; derive values from trial keys "
                "or pass them in from the service layer" % name)
        elif name in GLOBAL_RANDOM_CALLS:
            yield self.finding(
                file.path, node.lineno,
                "%s() draws from the global unseeded RNG; use a "
                "random.Random(seed) derived from the trial key"
                % name)
        elif name in ("random.Random", "random.SystemRandom") \
                and not node.args and not node.keywords:
            yield self.finding(
                file.path, node.lineno,
                "%s() without a seed is entropy-seeded; pass an "
                "explicit seed derived from the trial key" % name)
        elif name in ("json.dumps", "json.dump"):
            sort_keys = next(
                (kw for kw in node.keywords
                 if kw.arg == "sort_keys"), None)
            stable = sort_keys is not None and isinstance(
                sort_keys.value, ast.Constant) \
                and sort_keys.value.value is True
            if not stable:
                yield self.finding(
                    file.path, node.lineno,
                    "%s() without sort_keys=True in the deterministic "
                    "core: key order leaks into persisted bytes"
                    % name)

    def _check_id_keys(self, file, nodes, aliases, where):
        for node in nodes:
            if isinstance(node, ast.Call) \
                    and call_name(node, aliases) == "id":
                yield self.finding(
                    file.path, node.lineno,
                    "id(...) used as a %s: object identities vary "
                    "per process and cannot key anything replayable"
                    % where)
