"""Adaptive sampling: plan validation, scheduler behaviour, golden
equivalence with the fixed plan, and the fewer-trials payoff.

The central contract under test: an adaptive plan only ever *selects*
which pre-keyed replicates run.  With an unreachable half-width target
every cell runs to completion and the records/aggregates must be
byte-identical to the fixed plan on the saved 64-trial acceptance grid
(``tests/data/golden_spec64.json``) — serially and through a
``workers=2`` pool — while a reachable target on a high-contrast grid
must land every cell at the same target with measurably fewer trials.
"""

import json
import os

import pytest

from repro.campaign import (CELL_CONVERGED, CELL_FINISHED,
                            CampaignSession, CampaignSpec,
                            ExecutionOptions, SamplingPlan,
                            cells_to_json, open_store,
                            wilson_halfwidth)
from repro.campaign.adaptive import (CAPPED, CONVERGED, EXHAUSTED,
                                     AdaptiveScheduler)
from repro.errors import ConfigError
from repro.harness.experiment import adaptive_demo_spec

FIXTURE = os.path.join(os.path.dirname(__file__), "data",
                       "golden_spec64.json")

#: A target no binomial sample of this size can reach — the plan that
#: must degenerate to the fixed plan exactly.
UNREACHABLE = SamplingPlan.wilson(1e-9, metric="sdc_rate",
                                  min_replicates=1)


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as handle:
        payload = json.load(handle)
    payload["records_json"] = json.dumps(payload["records"],
                                         sort_keys=True)
    return payload


@pytest.fixture(scope="module")
def spec(golden):
    return CampaignSpec.from_dict(golden["spec"])


def canonical(records):
    return json.dumps(records, sort_keys=True)


# -- plan validation --------------------------------------------------------

class TestSamplingPlan:
    def test_fixed_is_not_adaptive(self):
        assert not SamplingPlan.fixed().is_adaptive
        assert not SamplingPlan().is_adaptive

    def test_wilson_is_adaptive(self):
        plan = SamplingPlan.wilson(0.05)
        assert plan.is_adaptive
        assert plan.target_halfwidth == 0.05

    @pytest.mark.parametrize("kwargs", [
        {"target_halfwidth": 0.0},
        {"target_halfwidth": -0.1},
        {"target_halfwidth": 0.6},
        {"target_halfwidth": 0.05, "metric": "ipc"},
        {"target_halfwidth": 0.05, "min_replicates": 0},
        {"target_halfwidth": 0.05, "max_replicates": 0},
        {"target_halfwidth": 0.05, "min_replicates": 8,
         "max_replicates": 4},
    ])
    def test_invalid_plans_refused(self, kwargs):
        with pytest.raises(ConfigError):
            SamplingPlan.wilson(**kwargs)

    @pytest.mark.parametrize("width", [
        "x", [1], None, True, -0.1, 0.6, float("nan"), float("inf"),
        10 ** 400])
    def test_fixed_plan_refuses_bad_target_halfwidth(self, width):
        with pytest.raises(ConfigError, match="target_halfwidth"):
            SamplingPlan(target_halfwidth=width)
        with pytest.raises(ConfigError, match="target_halfwidth"):
            SamplingPlan.from_dict({"mode": "fixed",
                                    "target_halfwidth": width})

    def test_fixed_plan_accepts_a_width_in_range(self):
        assert not SamplingPlan(target_halfwidth=0.5).is_adaptive
        assert SamplingPlan.from_dict(
            {"mode": "fixed", "target_halfwidth": 0}) \
            == SamplingPlan.fixed()

    def test_round_trips_through_dict(self):
        plan = SamplingPlan.wilson(0.07, metric="sdc_rate",
                                   min_replicates=6, max_replicates=30)
        assert SamplingPlan.from_dict(plan.to_dict()) == plan
        assert SamplingPlan.from_dict(
            SamplingPlan.fixed().to_dict()) == SamplingPlan.fixed()

    def test_unknown_fields_refused(self):
        with pytest.raises(ConfigError):
            SamplingPlan.from_dict({"mode": "wilson",
                                    "target_halfwidth": 0.1,
                                    "confidence": 0.99})

    def test_options_reject_non_plan(self):
        with pytest.raises(ConfigError):
            ExecutionOptions(sampling="wilson:0.05")

    def test_options_round_trip(self):
        options = ExecutionOptions(
            workers=2, sampling=SamplingPlan.wilson(0.1))
        assert ExecutionOptions.from_dict(options.to_dict()) == options


# -- scheduler unit behaviour -----------------------------------------------

def small_spec(**overrides):
    parameters = dict(name="adaptive-unit", workloads=("gcc",),
                      models=("SS-2",), rates_per_million=(0.0,),
                      replicates=8, instructions=250)
    parameters.update(overrides)
    return CampaignSpec(**parameters)


class TestScheduler:
    def test_requires_adaptive_plan(self):
        with pytest.raises(ConfigError):
            AdaptiveScheduler(SamplingPlan.fixed(), [], {})

    def test_selects_lowest_unrun_replicate_first(self):
        trials = list(small_spec().trials())
        scheduler = AdaptiveScheduler(UNREACHABLE, trials, {})
        assert scheduler.next_trial().key == trials[0].key
        assert scheduler.next_trial().key == trials[1].key

    def test_resumed_records_count_toward_convergence(self):
        spec = small_spec()
        trials = list(spec.trials())
        # A cell already settled by 6 stored sdc-free records under a
        # loose target: nothing of it may be scheduled again.
        records = {trial.key: {"key": trial.key,
                               "trial": trial.to_dict(),
                               "outcome": "masked",
                               "faults_injected": 0}
                   for trial in trials[:6]}
        plan = SamplingPlan.wilson(
            wilson_halfwidth(0, 6) + 1e-9, metric="sdc_rate",
            min_replicates=4)
        scheduler = AdaptiveScheduler(plan, trials, records)
        assert scheduler.next_trial() is None
        trackers = list(scheduler.trackers.values())
        assert trackers[0].closed == CONVERGED
        assert scheduler.pre_converged() == trackers

    def test_max_replicates_caps_a_cell(self):
        trials = list(small_spec().trials())
        plan = SamplingPlan.wilson(1e-9, metric="sdc_rate",
                                   min_replicates=1, max_replicates=3)
        scheduler = AdaptiveScheduler(plan, trials, {})
        scheduled = []
        while True:
            trial = scheduler.next_trial()
            if trial is None:
                break
            scheduled.append(trial)
            scheduler.record_finished(
                {"key": trial.key, "trial": trial.to_dict(),
                 "outcome": "masked", "faults_injected": 0})
        assert len(scheduled) == 3
        tracker = next(iter(scheduler.trackers.values()))
        assert tracker.closed == CAPPED

    def test_exhausted_cell_closes(self):
        trials = list(small_spec(replicates=2).trials())
        scheduler = AdaptiveScheduler(UNREACHABLE, trials, {})
        for _ in range(2):
            trial = scheduler.next_trial()
            scheduler.record_finished(
                {"key": trial.key, "trial": trial.to_dict(),
                 "outcome": "masked", "faults_injected": 0})
        assert scheduler.next_trial() is None
        tracker = next(iter(scheduler.trackers.values()))
        assert tracker.closed == EXHAUSTED

    def test_coverage_floor_guards_faulty_trials_not_all_trials(self):
        """min_replicates for metric=coverage counts the fault-struck
        trials the interval is actually computed over — a cell with
        many clean trials but a 3-fault sample must stay open."""
        spec = small_spec(replicates=12)
        trials = list(spec.trials())
        plan = SamplingPlan.wilson(0.3, metric="coverage",
                                   min_replicates=4)
        scheduler = AdaptiveScheduler(plan, trials, {})
        # 4 clean trials + 3 faulty-covered ones: halfwidth(3,3) ~0.28
        # is inside the 0.3 target, but only 3 coverage observations
        # exist — under min_replicates=4 the cell must not converge.
        for faulty in (0, 0, 0, 0, 1, 1, 1):
            trial = scheduler.next_trial()
            assert trial is not None
            scheduler.record_finished(
                {"key": trial.key, "trial": trial.to_dict(),
                 "outcome": "masked", "faults_injected": faulty})
        tracker = next(iter(scheduler.trackers.values()))
        assert tracker.faulty == 3
        assert tracker.halfwidth("coverage") <= 0.3
        assert tracker.closed is None
        # A fourth covered faulty trial completes the sample.
        trial = scheduler.next_trial()
        assert trial is not None
        scheduler.record_finished(
            {"key": trial.key, "trial": trial.to_dict(),
             "outcome": "masked", "faults_injected": 1})
        assert tracker.closed == CONVERGED

    def test_widest_interval_scheduled_after_seeding(self):
        # Two cells; feed one a clean sample (narrow interval) and the
        # other a mixed one (wide interval): the next slot must go to
        # the wide cell.
        spec = small_spec(models=("SS-1", "SS-2"))
        trials = list(spec.trials())
        plan = SamplingPlan.wilson(0.01, metric="sdc_rate",
                                   min_replicates=2)
        scheduler = AdaptiveScheduler(plan, trials, {})
        by_cell = {}
        for _ in range(4):               # seed both cells to min=2
            trial = scheduler.next_trial()
            outcome = "sdc" if trial.model == "SS-1" \
                and trial.replicate == 1 else "masked"
            scheduler.record_finished(
                {"key": trial.key, "trial": trial.to_dict(),
                 "outcome": outcome, "faults_injected": 1})
            by_cell.setdefault(trial.model, []).append(trial)
        assert {model: len(ts) for model, ts in by_cell.items()} \
            == {"SS-1": 2, "SS-2": 2}
        # SS-1 now holds 1/2 sdc (widest possible), SS-2 holds 0/2.
        assert scheduler.next_trial().model == "SS-1"

    @pytest.mark.parametrize("first_faulty", [1, 0])
    def test_no_replicate_past_projected_convergence(self, first_faulty):
        """One result landed, one in flight, a loose coverage target: a
        covered faulty landing projects the cell converged, so the
        scheduler waits for the other landing as a serial run would; a
        clean landing leaves the coverage sample short of
        min_replicates whatever lands next, so the next replicate
        starts at once."""
        trials = list(small_spec(replicates=6).trials())
        plan = SamplingPlan.wilson(0.5, metric="coverage",
                                   min_replicates=2)
        scheduler = AdaptiveScheduler(plan, trials, {})
        first, second = scheduler.next_trial(), scheduler.next_trial()
        scheduler.record_finished(
            {"key": first.key, "trial": first.to_dict(),
             "outcome": "masked", "faults_injected": first_faulty})
        extra = scheduler.next_trial()
        if not first_faulty:
            assert extra.key == trials[2].key
            return
        assert extra is None
        scheduler.record_finished(
            {"key": second.key, "trial": second.to_dict(),
             "outcome": "masked", "faults_injected": 1})
        tracker = next(iter(scheduler.trackers.values()))
        assert tracker.closed == CONVERGED
        assert scheduler.next_trial() is None

    def test_pool_refills_spread_across_cells(self):
        """Scheduling with nothing finished yet (a wide worker pool's
        initial refills): in-flight trials must count against a cell's
        ranking, or the pool would drain one cell's whole pending list
        before its first result lands."""
        spec = small_spec(models=("SS-1", "SS-2"), replicates=8)
        plan = SamplingPlan.wilson(0.01, metric="sdc_rate",
                                   min_replicates=1)
        scheduler = AdaptiveScheduler(plan, list(spec.trials()), {})
        submitted = [scheduler.next_trial() for _ in range(6)]
        per_model = {model: sum(1 for t in submitted
                                if t.model == model)
                     for model in ("SS-1", "SS-2")}
        assert per_model == {"SS-1": 3, "SS-2": 3}


# -- golden equivalence with the fixed plan ---------------------------------

class TestFixedPlanEquivalence:
    """The ISSUE's headline invariant, pinned on the saved fixture."""

    def test_serial_unreachable_target_matches_fixture(self, golden,
                                                       spec):
        session = CampaignSession(
            spec, options=ExecutionOptions(sampling=UNREACHABLE))
        result = session.run()
        assert result.executed == 64
        assert canonical(result.records) == golden["records_json"]
        assert cells_to_json(session.aggregate()) == golden["cells_json"]
        summary = result.adaptive
        assert summary.total_skipped == 0
        assert summary.converged_cells == 0
        assert all(cell["closed"] == EXHAUSTED
                   for cell in summary.cells)

    def test_worker_pool_unreachable_target_matches_fixture(
            self, golden, spec):
        session = CampaignSession(
            spec, options=ExecutionOptions(workers=2,
                                           sampling=UNREACHABLE))
        result = session.run()
        assert canonical(result.records) == golden["records_json"]
        assert cells_to_json(session.aggregate()) == golden["cells_json"]

    def test_fixed_sampling_plan_is_the_noop(self, golden, spec):
        session = CampaignSession(
            spec,
            options=ExecutionOptions(sampling=SamplingPlan.fixed()))
        result = session.run()
        assert result.adaptive is None
        assert canonical(result.records) == golden["records_json"]

    def test_resume_mid_adaptation_matches_fixture(self, golden, spec,
                                                   tmp_path):
        """--resume with an adaptive plan: stored records count toward
        every cell's interval and the completed run still lands on the
        fixture byte-for-byte when the target is unreachable."""
        store = open_store(str(tmp_path / "adaptive-resume.jsonl"))
        for record in golden["records"][:29]:
            store.append(record)
        session = CampaignSession(
            spec, options=ExecutionOptions(sampling=UNREACHABLE),
            store=store)
        result = session.resume()
        assert result.skipped == 29
        assert result.executed == 35
        assert canonical(result.records) == golden["records_json"]
        assert cells_to_json(session.aggregate()) == golden["cells_json"]

    def test_completed_cells_byte_identical_under_reachable_target(
            self, golden, spec):
        """Cells that do run to completion under a *reachable* target
        produce exactly the fixed plan's records (the adaptive layer
        selects, never perturbs)."""
        plan = SamplingPlan.wilson(0.12, metric="sdc_rate",
                                   min_replicates=4)
        result = CampaignSession(
            spec, options=ExecutionOptions(sampling=plan)).run()
        fixture_by_key = {record["key"]: record
                          for record in golden["records"]}
        assert result.records       # something ran
        for record in result.records:
            assert record == fixture_by_key[record["key"]]


# -- the payoff: fewer trials at the same target ----------------------------

class TestFewerTrials:
    TARGET = 0.13

    def plan(self):
        return SamplingPlan.wilson(self.TARGET, metric="sdc_rate",
                                   min_replicates=4)

    def test_adaptive_meets_target_with_fewer_trials(self):
        spec = adaptive_demo_spec()
        fixed = CampaignSession(spec).run()
        adaptive = CampaignSession(
            spec, options=ExecutionOptions(sampling=self.plan())).run()
        # The fixed plan runs the whole grid...
        assert fixed.executed == spec.grid_size
        # ...the adaptive plan reaches the same per-cell target with
        # measurably fewer trials.
        assert adaptive.executed < fixed.executed
        summary = adaptive.adaptive
        assert summary is not None
        assert summary.converged_cells >= 1
        assert summary.total_skipped > 0
        assert summary.total_executed == adaptive.executed
        for cell in summary.cells:
            assert cell["closed"] in (CONVERGED, EXHAUSTED)
            if cell["closed"] == CONVERGED:
                assert cell["halfwidth"] <= self.TARGET

    def test_adaptive_matches_fixed_target_reach(self):
        from repro.campaign import aggregate
        spec = adaptive_demo_spec()
        fixed = CampaignSession(spec).run()
        adaptive = CampaignSession(
            spec, options=ExecutionOptions(sampling=self.plan())).run()
        fixed_hw = {
            (c.workload, c.model, c.rate_per_million, c.mix):
                wilson_halfwidth(c.counts["sdc"], c.n)
            for c in aggregate(fixed.records)}
        adaptive_hw = {
            (cell["workload"], cell["model"],
             cell["rate_per_million"], cell["mix"]): cell["halfwidth"]
            for cell in adaptive.adaptive.cells}
        assert set(adaptive_hw) == set(fixed_hw)
        for cell_key, fixed_width in fixed_hw.items():
            if fixed_width <= self.TARGET:
                assert adaptive_hw[cell_key] <= self.TARGET

    def test_worker_pool_also_converges_early(self):
        spec = adaptive_demo_spec(replicates=16)
        adaptive = CampaignSession(
            spec, options=ExecutionOptions(
                workers=2, sampling=self.plan())).run()
        assert adaptive.executed < spec.grid_size
        assert adaptive.adaptive.converged_cells >= 1

    def test_resume_after_partial_adaptive_run(self, tmp_path):
        """Kill-and-resume mid-adaptation: the resumed session counts
        stored records and still converges without re-running them."""
        spec = adaptive_demo_spec(replicates=16)
        store = open_store(str(tmp_path / "partial.jsonl"))
        first = CampaignSession(
            spec, options=ExecutionOptions(sampling=SamplingPlan.wilson(
                self.TARGET, metric="sdc_rate", min_replicates=4,
                max_replicates=5)),
            store=store).run()
        assert 0 < len(first.records) < spec.grid_size
        resumed = CampaignSession(
            spec, options=ExecutionOptions(sampling=self.plan()),
            store=store)
        result = resumed.resume()
        assert result.skipped == len(first.records)
        # Stored records were not re-executed but count in every n.
        assert result.executed == result.adaptive.total_executed
        stored = sum(cell["n"] - cell["executed"]
                     for cell in result.adaptive.cells)
        assert stored == len(first.records)
        for cell in result.adaptive.cells:
            assert cell["closed"] in (CONVERGED, EXHAUSTED)
        assert result.executed + result.skipped == len(result.records)


# -- events -----------------------------------------------------------------

class TestAdaptiveEvents:
    def test_converged_cells_emit_cell_converged_not_finished(self):
        spec = adaptive_demo_spec(replicates=16)
        plan = SamplingPlan.wilson(0.13, metric="sdc_rate",
                                   min_replicates=4)
        session = CampaignSession(
            spec, options=ExecutionOptions(sampling=plan))
        events = []
        session.subscribe(events.append)
        result = session.run()
        converged = [event.cell for event in events
                     if event.kind == CELL_CONVERGED]
        finished = [event.cell for event in events
                    if event.kind == CELL_FINISHED]
        summary = {tuple(
            (cell["workload"], cell["model"], cell.get("machine", ""),
             cell["rate_per_million"], cell["mix"],
             cell.get("sites", ""))): cell["closed"]
            for cell in result.adaptive.cells}
        assert len(converged) == result.adaptive.converged_cells
        for cell in converged:
            assert summary[cell] == CONVERGED
        # No cell may fire both events.
        assert not (set(converged) & set(finished))

    def test_convergence_on_final_replicate_fires_only_converged(self):
        """The boundary case: a target reachable only on the cell's
        very last pending replicate.  The final trial both empties the
        cell's todo count and converges it — it must emit only
        ``cell_converged``, never both events."""
        spec = adaptive_demo_spec(replicates=16)
        # sdc_rate halfwidth on an all-one-outcome cell: hw(0,15)
        # ~= 0.1019, hw(0,16) ~= 0.0968 — a 0.099 target lands exactly
        # on the sixteenth (final) replicate.
        plan = SamplingPlan.wilson(0.099, metric="sdc_rate",
                                   min_replicates=4)
        session = CampaignSession(
            spec, options=ExecutionOptions(sampling=plan))
        events = []
        session.subscribe(events.append)
        result = session.run()
        converged = {event.cell for event in events
                     if event.kind == CELL_CONVERGED}
        finished = {event.cell for event in events
                    if event.kind == CELL_FINISHED}
        assert converged, "the boundary target must converge cells"
        assert not (converged & finished)
        # The converging replicate WAS the last pending one: no
        # replicates were skipped for at least one converged cell.
        zero_skip = [cell for cell in result.adaptive.cells
                     if cell["closed"] == CONVERGED
                     and cell["skipped"] == 0]
        assert zero_skip, "target was chosen to land on the final " \
                          "replicate of some cell"
