"""The pending-load list is program-ordered by construction.

The reference engine re-sorted ``pending_loads`` every cycle; the
optimized engine maintains gseq order at insertion (binary insert on
out-of-order address-generation completions) and never sorts.  These
tests pin both the insertion helper and the live invariant during
fault-heavy simulation."""

import pytest

from repro.core.faults import FaultConfig
from repro.faults.policy import RatePolicy
from repro.models.presets import get_model
from repro.uarch.processor import Processor
from repro.workloads.generator import build_workload


class _FakeGroup:
    def __init__(self, gseq):
        self.gseq = gseq

    def __repr__(self):
        return "<g%d>" % self.gseq


class TestAppendPendingLoad:
    def _processor(self):
        model = get_model("SS-1")
        return Processor(build_workload("gcc"), config=model.config,
                         ft=model.ft)

    @pytest.mark.parametrize("arrivals", [
        [1, 2, 3, 4],
        [4, 3, 2, 1],
        [2, 9, 4, 1, 7, 3, 8, 0, 6, 5],
        [5],
        [3, 3_000, 1_500, 2, 2_999],
    ])
    def test_insertions_keep_gseq_order(self, arrivals):
        processor = self._processor()
        for gseq in arrivals:
            processor._append_pending_load(_FakeGroup(gseq))
        observed = [g.gseq for g in processor.pending_loads]
        assert observed == sorted(arrivals)

    def test_in_order_arrivals_append_without_insert(self):
        processor = self._processor()
        for gseq in range(50):
            processor._append_pending_load(_FakeGroup(gseq))
        assert [g.gseq for g in processor.pending_loads] \
            == list(range(50))


class _OrderAuditingProcessor(Processor):
    """Asserts the program-order invariant at every scheduling point."""

    audits = 0

    def _progress_pending_loads(self, cycle):
        gseqs = [group.gseq for group in self.pending_loads]
        assert gseqs == sorted(gseqs), \
            "pending_loads out of program order at cycle %d: %r" \
            % (cycle, gseqs)
        type(self).audits += 1
        super()._progress_pending_loads(cycle)


@pytest.mark.parametrize("rate", [0.0, 20_000.0])
def test_invariant_holds_during_simulation(rate):
    """Loads progress in program order without any per-cycle sort."""
    _OrderAuditingProcessor.audits = 0
    model = get_model("SS-2")
    policy = None
    if rate:
        policy = RatePolicy(FaultConfig(rate_per_million=rate, seed=7))
    processor = _OrderAuditingProcessor(
        build_workload("gcc"), config=model.config, ft=model.ft,
        policy=policy)
    processor.run(max_instructions=1_500, max_cycles=120_000)
    assert _OrderAuditingProcessor.audits > 0
    assert processor.stats.loads_executed > 0
