"""Property-based statistical invariants of the campaign layer.

The adaptive scheduler and resumed campaigns both lean on two
promises that are easy to break silently: the Wilson interval
behaves like a confidence interval (bounded, contains the sample
proportion, narrows with evidence), and aggregation is a pure function
of the record *set* — the order records arrive in must never change a
single aggregated byte.  Hypothesis hunts the corners a
hand-picked example table would miss.

Float caveat made explicit: ``aggregate`` sums IPC and recovery
penalties in record order, so order invariance is only byte-exact when
the addends are exactly representable.  The strategies therefore draw
dyadic rationals (multiples of 1/64) — small enough that every partial
sum is exact — which is precisely the guarantee the engine itself
relies on: sessions re-order records into spec-expansion order
*before* aggregating, and these properties pin the reorder-then-reduce
pipeline.
"""

import json

import pytest

pytest.importorskip(
    "hypothesis",
    reason="property suite needs the optional 'test' extra "
           "(pip install .[test])")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.aggregate import (aggregate, aggregate_structures,
                                      cells_to_json, structures_to_json,
                                      wilson_interval)
from repro.campaign.adaptive import wilson_halfwidth

# -- strategies -------------------------------------------------------------

OUTCOME_NAMES = ("masked", "detected_recovered", "sdc", "timeout")

#: Dyadic rationals: exactly representable, associatively summable.
dyadic = st.integers(min_value=0, max_value=512).map(lambda n: n / 64.0)


@st.composite
def trial_records(draw):
    """A list of plausible trial records with unique content keys."""
    count = draw(st.integers(min_value=1, max_value=24))
    records = []
    for index in range(count):
        workload = draw(st.sampled_from(("gcc", "go")))
        model = draw(st.sampled_from(("SS-1", "SS-2")))
        rate = draw(st.sampled_from((0.0, 1000.0, 20000.0)))
        faults = draw(st.integers(min_value=0, max_value=6))
        trial = {
            "workload": workload,
            "model": model,
            "rate_per_million": rate,
            "mix": draw(st.sampled_from(("default", "heavy"))),
            "replicate": index,
        }
        machine = draw(st.sampled_from(("", "rob64")))
        if machine:
            trial["machine"] = machine
        structure = draw(st.sampled_from(("", "rob_entry", "pc")))
        strikes = {}
        if structure:
            trial["sites"] = "sweep-%s" % structure
            trial["site_config"] = {"policy": "structure_sweep",
                                    "structure": structure,
                                    "strikes": 1}
            strikes = {structure: draw(st.integers(min_value=0,
                                                   max_value=2))}
        records.append({
            "key": "%016x" % (0xA5A5A5A5 + index),
            "trial": trial,
            "outcome": draw(st.sampled_from(OUTCOME_NAMES)),
            "faults_injected": faults,
            "faults_detected": min(faults,
                                   draw(st.integers(0, 6))),
            "rewinds": draw(st.integers(min_value=0, max_value=3)),
            "ipc": draw(dyadic),
            "avg_recovery_penalty": draw(dyadic),
            "site_strikes": strikes,
        })
    return records


# -- Wilson interval --------------------------------------------------------

@given(successes=st.integers(min_value=0, max_value=10_000),
       total=st.integers(min_value=0, max_value=10_000),
       z=st.floats(min_value=0.5, max_value=4.0,
                   allow_nan=False, allow_infinity=False))
def test_wilson_bounds_within_unit_interval(successes, total, z):
    successes = min(successes, total)
    low, high = wilson_interval(successes, total, z=z)
    assert 0.0 <= low <= high <= 1.0


@given(successes=st.integers(min_value=0, max_value=10_000),
       total=st.integers(min_value=1, max_value=10_000))
def test_wilson_contains_sample_proportion(successes, total):
    successes = min(successes, total)
    low, high = wilson_interval(successes, total)
    p = successes / total
    assert low <= p + 1e-12
    assert p <= high + 1e-12


def test_wilson_empty_sample_is_the_unit_interval():
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert wilson_halfwidth(0, 0) == 0.5


@given(successes=st.integers(min_value=0, max_value=500),
       total=st.integers(min_value=1, max_value=500),
       scale=st.integers(min_value=2, max_value=20))
def test_wilson_narrows_monotonically_with_n(successes, total, scale):
    """Same observed proportion, ``scale`` times the evidence: the
    interval must only ever tighten — the property the adaptive
    scheduler's stop rule is built on."""
    successes = min(successes, total)
    small = wilson_halfwidth(successes, total)
    large = wilson_halfwidth(successes * scale, total * scale)
    assert large <= small + 1e-12


@given(total=st.integers(min_value=1, max_value=2_000),
       successes=st.integers(min_value=0, max_value=2_000))
def test_wilson_halfwidth_matches_interval(successes, total):
    successes = min(successes, total)
    low, high = wilson_interval(successes, total)
    assert abs(wilson_halfwidth(successes, total)
               - (high - low) / 2.0) < 1e-15


# -- aggregation order invariance -------------------------------------------

@given(records=trial_records(), seed=st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_aggregate_invariant_under_record_order(records, seed):
    baseline = cells_to_json(aggregate(records))
    shuffled = list(records)
    seed.shuffle(shuffled)
    assert cells_to_json(aggregate(shuffled)) == baseline


@given(records=trial_records(), seed=st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_aggregate_structures_invariant_under_record_order(records,
                                                           seed):
    baseline = structures_to_json(aggregate_structures(records))
    shuffled = list(records)
    seed.shuffle(shuffled)
    assert structures_to_json(aggregate_structures(shuffled)) \
        == baseline


@given(records=trial_records())
@settings(max_examples=30)
def test_aggregate_json_is_canonical(records):
    """cells_to_json of the same cells is byte-stable (the property
    every golden-fixture comparison in this suite rests on)."""
    cells = aggregate(records)
    assert cells_to_json(cells) == cells_to_json(aggregate(records))
    json.loads(cells_to_json(cells))     # and it is valid JSON
