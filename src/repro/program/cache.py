"""Decoded-program caches shared across simulations.

Two layers, both transparent to callers:

* :func:`decode_program` — a per-program table of :class:`DecodedInst`
  records, one per static instruction, with every piece of static
  metadata the pipeline's hot loop needs (opcode info flags, functional
  unit class, execution latency) resolved up front.  The timing
  simulator consults this table instead of chasing ``inst.info``
  property lookups and latency dispatch for every dynamic instance.
  Tables are memoized on the :class:`~repro.program.image.Program`
  object itself, keyed by the machine's latency parameters, so all
  trials of a campaign that share a program share one table.
* :func:`cached_workload` — a per-process cache of generated synthetic
  workloads keyed by ``(name, seed)``.  Workload generation is
  deterministic in that key and every simulator copies the data image,
  so rebuilding a program per trial would be pure waste.

:class:`LRUCache` is the one bounded, counted memo of the trial path:
the workload cache here, the golden traces of
:mod:`repro.campaign.golden` and the fault-free twins of
:mod:`repro.campaign.outcome` are all instances of it.
"""

from __future__ import annotations

from collections import OrderedDict

from ..functional.kernel import _BRANCH_CONDITIONS, _VALUE_HANDLERS
from ..isa.opcodes import OP_INFO, FuClass, Kind

#: Name of the memo attribute stashed on Program instances.
_MEMO_ATTR = "_decoded_memo"


class DecodedInst:
    """One static instruction with all hot-loop metadata precomputed.

    A flattened join of :class:`~repro.isa.instruction.Instruction`,
    its :class:`~repro.isa.opcodes.OpInfo` and the machine's latency
    table.  ``qidx`` is the issue-queue index: the ``int()`` of the
    functional-unit class the entry issues to (memory operations
    generate their address on an integer ALU).
    """

    __slots__ = ("inst", "info", "op", "rd", "rs1", "rs2", "imm", "kind",
                 "latency", "unpipelined", "qidx", "writes_reg",
                 "fp_dest", "reads_rs1", "reads_rs2", "is_mem", "is_load",
                 "is_store", "is_control", "is_branch", "is_halt",
                 "value_fn", "branch_fn")

    def __init__(self, inst, latency):
        info = OP_INFO[inst.op]
        kind = info.kind
        self.inst = inst
        self.info = info
        self.op = inst.op
        self.rd = inst.rd
        self.rs1 = inst.rs1
        self.rs2 = inst.rs2
        self.imm = inst.imm
        self.kind = kind
        self.latency = latency
        self.unpipelined = info.unpipelined
        self.qidx = int(FuClass.INT_ALU if info.is_mem else info.fu)
        self.writes_reg = info.writes_reg
        self.fp_dest = info.fp_dest
        self.reads_rs1 = info.reads_rs1
        self.reads_rs2 = info.reads_rs2
        self.is_mem = info.is_mem
        self.is_load = kind == Kind.LOAD
        self.is_store = kind == Kind.STORE
        self.is_control = info.is_control
        self.is_branch = kind == Kind.BRANCH
        self.is_halt = kind == Kind.HALT
        # Direct references to the semantic-kernel handlers, so the
        # execute path skips the per-op dict dispatch.
        self.value_fn = _VALUE_HANDLERS.get(inst.op)
        self.branch_fn = _BRANCH_CONDITIONS.get(inst.op)

    def __repr__(self):
        return "<DecodedInst %s lat=%d q=%d>" % (self.inst, self.latency,
                                                 self.qidx)


def latency_signature(config):
    """The tuple of latency parameters a decode table depends on."""
    return (config.lat_int_alu, config.lat_int_mult, config.lat_int_div,
            config.lat_fp_add, config.lat_fp_mult, config.lat_fp_div,
            config.lat_fp_sqrt, config.lat_agen)


def decode_program(program, config):
    """The :class:`DecodedInst` table for ``program`` under ``config``.

    Memoized on the program object (``Program`` is immutable), keyed by
    the config's latency signature; two machine configs that agree on
    latencies share one table.
    """
    memo = getattr(program, _MEMO_ATTR, None)
    if memo is None:
        memo = {}
        # Program is a frozen dataclass; stash the memo around its
        # immutability guard (the decode table is derived state, not a
        # field, and never observable through the public API).
        object.__setattr__(program, _MEMO_ATTR, memo)
    key = latency_signature(config)
    table = memo.get(key)
    if table is None:
        op_latency = config.op_latency
        table = [DecodedInst(inst, op_latency(inst.op))
                 for inst in program.text]
        memo[key] = table
    return table


class LRUCache:
    """A per-process LRU memo with hit/miss/eviction counters.

    ``get`` refreshes a hit; ``put`` evicts the least recently used
    entries past ``limit``.
    """

    def __init__(self, limit):
        self.limit = limit
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key, fresh=None):
        """The entry under ``key``, or ``None`` (a miss).  An entry
        that ``fresh(entry)`` rejects is stale: also a miss."""
        entry = self._entries.get(key)
        if entry is None or fresh is not None and not fresh(entry):
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key, entry):
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self):
        """Drop every entry and reset the counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def values(self):
        """The entries, least recently used first."""
        return list(self._entries.values())

    def stats(self):
        """Size, limit and hit/miss/eviction counters."""
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._entries), "limit": self.limit}


#: Generated workload programs, bounded so a long multi-cell campaign
#: cannot grow it without limit; generous enough that any realistic
#: grid's working set fits.
_WORKLOAD_CACHE = LRUCache(limit=32)


def cached_workload(name, seed=1_000_003):
    """Build (or reuse) the named synthetic workload program.

    Generation is deterministic in ``(name, seed)`` and simulators copy
    the data image into their own memory, so one shared program per
    process is safe.
    """
    key = (name, seed)
    program = _WORKLOAD_CACHE.get(key)
    if program is None:
        # Imported lazily: repro.workloads itself builds Programs, so a
        # module-level import would be circular.
        from ..workloads.generator import build_workload
        program = build_workload(name, seed=seed)
        _WORKLOAD_CACHE.put(key, program)
    return program


def workload_cache_stats():
    """Size, limit and hit/miss/eviction counters of the workload
    cache."""
    return _WORKLOAD_CACHE.stats()


def clear_caches():
    """Drop all cached workloads, with their decode tables, and reset
    the counters (for tests)."""
    _WORKLOAD_CACHE.clear()
