"""One observability record per engine action, the same for every action.

Each of the six ``PragueEngine`` action methods feeds the obs plane through
one :func:`repro.obs.action` call.  This pins that they all do it the same
way: exactly one ``action.start``/``action.end`` pair carrying the op's
fields, one ``action.<op>`` histogram sample equal to the report's
``processing_seconds`` and, under :func:`repro.obs.trace`, one
``action.<op>`` root span and one ``engine.action.<op>`` increment.
"""

import pytest

from repro import obs
from repro.core.prague import PragueEngine
from repro.obs.histogram import HISTOGRAMS, reset_histograms
from repro.obs.recorder import RECORDER
from repro.oracle.corpus import corpus_for


def _path_engine(edges):
    """An engine over the seeded oracle corpus holding the path a-b-c-d
    drawn up to ``edges`` edges."""
    corpus = corpus_for()
    engine = PragueEngine(corpus.db, corpus.indexes, sigma=1)
    for node, label in (("a", "A"), ("b", "B"), ("c", "C"), ("d", "A")):
        engine.add_node(node, label)
    for u, v in (("a", "b"), ("b", "c"), ("c", "d"))[:edges]:
        engine.add_edge(u, v)
    engine.option_pending = False  # the gesture under test runs as drawn
    return engine


def _last_edge(engine):
    return max(engine.query.edge_id_set())


#: op name -> (engine set-up, the gesture, the fields action.end carries)
CASES = {
    "add_edge": (
        lambda: _path_engine(1),
        lambda engine: engine.add_edge("b", "c"),
        "new", {"edge", "status"},
    ),
    "enable_similarity": (
        lambda: _path_engine(2),
        lambda engine: engine.enable_similarity(),
        "simquery", {"candidates"},
    ),
    "delete_edge": (
        lambda: _path_engine(3),
        lambda engine: engine.delete_edge(_last_edge(engine)),
        "modify", {"edge", "suggested", "status"},
    ),
    "delete_edges": (
        lambda: _path_engine(3),
        lambda engine: engine.delete_edges([_last_edge(engine)]),
        "modify", {"edges", "status"},
    ),
    "relabel_node": (
        lambda: _path_engine(3),
        lambda engine: engine.relabel_node("d", "B"),
        "modify", {"relabel", "edges", "status"},
    ),
    "run": (
        lambda: _path_engine(2),
        lambda engine: engine.run(),
        "run", {"similar", "candidates", "verification_free"},
    ),
}


def _act(method):
    set_up, gesture, op, fields = CASES[method]
    engine = set_up()
    RECORDER.force(True)
    RECORDER.reset()
    reset_histograms()
    report = gesture(engine)
    events = [
        event for event in RECORDER.snapshot()
        if event["kind"] in ("action.start", "action.end")
    ]
    return report, op, fields, events


@pytest.fixture(autouse=True)
def _isolated():
    yield
    RECORDER.force(None)
    RECORDER.reset()
    reset_histograms()


@pytest.mark.parametrize("method", sorted(CASES))
def test_one_record_per_action(method):
    report, op, fields, events = _act(method)
    assert [(e["kind"], e["op"]) for e in events] == [
        ("action.start", op), ("action.end", op),
    ]
    end = events[1]
    assert set(end) - {"seq", "t_s", "kind"} == {"op", "seconds"} | fields
    assert end["seconds"] == report.processing_seconds
    histogram = HISTOGRAMS[f"action.{op}"]
    assert histogram.count == 1
    assert histogram.max == report.processing_seconds


@pytest.mark.parametrize("method", sorted(CASES))
def test_one_root_span_and_counter_per_action_under_trace(method):
    set_up, gesture, op, fields = CASES[method]
    engine = set_up()
    with obs.trace() as tracer:
        report = gesture(engine)
        counters = obs.METRICS.snapshot()["counters"]
    assert [root.name for root in tracer.roots] == [f"action.{op}"]
    (root,) = tracer.roots
    assert fields <= set(root.attrs)
    assert root.duration_seconds == pytest.approx(
        report.processing_seconds, abs=1e-9
    )
    assert {
        name: value for name, value in counters.items()
        if name.startswith("engine.action.")
    } == {f"engine.action.{op}": 1}
    assert HISTOGRAMS[f"action.{op}"].count == 1
