"""Tracing must never change answers.

The observability layer is read-only by design: the same fuzzed session,
replayed with tracing off and on, must produce byte-identical step
observations through the differential-oracle differ.
"""

import pytest

from repro import obs
from repro.oracle.diff import first_divergence
from repro.oracle.fuzzer import generate_trace
from repro.oracle.replay import REFERENCE_CONFIG, replay_trace


def _observations(trace, tracing):
    obs.TRACER.force(tracing)
    obs.TRACER.reset()
    obs.METRICS.reset()
    try:
        session = replay_trace(trace, REFERENCE_CONFIG)
    finally:
        obs.TRACER.force(None)
    return session.observations


@pytest.mark.parametrize("seed", [0, 3, 11, 42])
def test_traced_replay_observations_identical(seed):
    trace = generate_trace(seed=seed)
    untraced = _observations(trace, False)
    traced = _observations(trace, True)
    divergence = first_divergence(
        untraced, traced, left="tracing off", right="tracing on", kind="obs"
    )
    assert divergence is None
    assert len(untraced) == len(traced) == len(trace)


def test_traced_replay_actually_recorded_spans():
    """Guard the guard: the traced leg really had tracing on."""
    trace = generate_trace(seed=3)
    obs.TRACER.force(True)
    obs.TRACER.reset()
    try:
        replay_trace(trace, REFERENCE_CONFIG)
        recorded = obs.TRACER.span_count()
    finally:
        obs.TRACER.force(None)
        obs.TRACER.reset()
    assert recorded > 0


def test_programmatic_trace_block_is_also_neutral():
    trace = generate_trace(seed=7)
    baseline = replay_trace(trace, REFERENCE_CONFIG).observations
    with obs.trace():
        traced = replay_trace(trace, REFERENCE_CONFIG).observations
    assert (
        first_divergence(baseline, traced, left="plain", right="obs.trace")
        is None
    )
