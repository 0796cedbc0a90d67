"""Span recording: nesting, ordering, attributes, enable/disable modes."""

import os
from unittest import mock

import pytest

from repro import obs
from repro.obs.tracer import _NOOP, Span, Tracer


class TestSpanNesting:
    def test_children_nest_under_open_parent(self):
        with obs.trace() as tracer:
            with obs.span("outer"):
                with obs.span("inner.a"):
                    pass
                with obs.span("inner.b"):
                    pass
        assert [root.name for root in tracer.roots] == ["outer"]
        (outer,) = tracer.roots
        assert [child.name for child in outer.children] == [
            "inner.a",
            "inner.b",
        ]

    def test_sequential_spans_become_separate_roots(self):
        with obs.trace() as tracer:
            with obs.span("first"):
                pass
            with obs.span("second"):
                pass
        assert [root.name for root in tracer.roots] == ["first", "second"]
        assert all(not root.children for root in tracer.roots)

    def test_deep_nesting_preserves_ancestry(self):
        with obs.trace() as tracer:
            with obs.span("a"):
                with obs.span("b"):
                    with obs.span("c"):
                        pass
        a = tracer.roots[0]
        assert a.children[0].name == "b"
        assert a.children[0].children[0].name == "c"

    def test_timings_are_monotonic_and_contained(self):
        with obs.trace() as tracer:
            with obs.span("parent"):
                with obs.span("child"):
                    pass
        parent = tracer.roots[0]
        child = parent.children[0]
        assert parent.end_s is not None and child.end_s is not None
        assert parent.start_s <= child.start_s
        assert child.end_s <= parent.end_s
        assert child.duration_seconds >= 0.0
        assert parent.duration_seconds >= child.duration_seconds

    def test_walk_yields_depth_first_preorder(self):
        with obs.trace() as tracer:
            with obs.span("a"):
                with obs.span("b"):
                    pass
                with obs.span("c"):
                    pass
        names = [(depth, s.name) for s, depth in tracer.roots[0].walk()]
        assert names == [(0, "a"), (1, "b"), (1, "c")]

    def test_span_count_counts_every_recorded_span(self):
        with obs.trace() as tracer:
            with obs.span("a"):
                with obs.span("b"):
                    pass
            with obs.span("c"):
                pass
        assert tracer.span_count() == 3

    def test_exception_inside_span_still_closes_it(self):
        with obs.trace() as tracer:
            with pytest.raises(ValueError):
                with obs.span("doomed"):
                    raise ValueError("boom")
            with obs.span("after"):
                pass
        assert [root.name for root in tracer.roots] == ["doomed", "after"]
        assert tracer.roots[0].end_s is not None


class TestAttributes:
    def test_constructor_and_set_attrs_merge(self):
        with obs.trace() as tracer:
            with obs.span("s", edge=3) as sp:
                sp.set(status="frequent", rq=7)
        attrs = tracer.roots[0].attrs
        assert attrs == {"edge": 3, "status": "frequent", "rq": 7}

    def test_add_attrs_targets_current_span(self):
        with obs.trace() as tracer:
            with obs.span("s"):
                obs.add_attrs(flag=True)
        assert tracer.roots[0].attrs == {"flag": True}

    def test_to_dict_round_trips_structure(self):
        with obs.trace() as tracer:
            with obs.span("p", k=1):
                with obs.span("q"):
                    pass
        d = tracer.roots[0].to_dict()
        assert d["name"] == "p"
        assert d["attrs"] == {"k": 1}
        assert d["children"][0]["name"] == "q"


class TestEnablement:
    def test_disabled_by_default_without_env(self):
        with mock.patch.dict(os.environ, {"REPRO_TRACE": "0"}):
            assert Tracer().enabled is False
        obs.TRACER.force(False)
        try:
            assert obs.TRACER.enabled is False
            assert obs.span("ignored") is _NOOP
        finally:
            obs.TRACER.force(None)

    def test_env_enables_at_sync(self):
        """``REPRO_TRACE=1`` at start enables a tracer; ``force(None)``
        restores that start value after an override."""
        with mock.patch.dict(os.environ, {"REPRO_TRACE": "1"}):
            tracer = Tracer()
        assert tracer.enabled is True
        tracer.force(False)
        tracer.force(None)
        assert tracer.enabled is True
        obs.TRACER.reset()
        obs.TRACER.force(True)
        try:
            with obs.span("seen"):
                pass
            assert obs.TRACER.roots[0].name == "seen"
        finally:
            obs.TRACER.force(None)
            obs.TRACER.reset()

    def test_trace_contextmanager_overrides_env_and_restores(self):
        obs.TRACER.force(False)
        try:
            with obs.trace():
                assert obs.TRACER.enabled is True
            assert obs.TRACER.enabled is False
        finally:
            obs.TRACER.force(None)

    def test_disabled_spans_record_nothing(self):
        obs.TRACER.reset()
        obs.TRACER.force(False)
        try:
            with obs.span("a"):
                with obs.span("b"):
                    pass
            assert obs.TRACER.roots == []
            assert obs.TRACER.span_count() == 0
        finally:
            obs.TRACER.force(None)

    def test_noop_handle_accepts_set(self):
        # instrumented code calls .set(...) unconditionally
        _NOOP.set(edge=1, status="x")  # must not raise
        with _NOOP as sp:
            sp.set(more=True)

    def test_span_standalone_duration(self):
        s = Span("x", {})
        s.end_s = s.start_s + 0.5
        assert s.duration_seconds == pytest.approx(0.5)


class TestThreads:
    def test_interleaved_threads_keep_separate_trees(self):
        """A span another thread opens while this one has a span open is
        that thread's root, not this span's child."""
        import threading

        a_open = threading.Event()
        b_done = threading.Event()

        def thread_a():
            with obs.span("A.root"):
                a_open.set()
                b_done.wait(5.0)

        def thread_b():
            a_open.wait(5.0)
            with obs.span("B.root"):
                pass
            b_done.set()

        with obs.trace() as tracer:
            workers = [threading.Thread(target=thread_a),
                       threading.Thread(target=thread_b)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(5.0)
        assert [root.name for root in tracer.roots] == ["A.root", "B.root"]
        assert tracer.roots[0].children == []

    def test_unwind_restores_only_the_calling_threads_depth(self):
        import threading

        opened = threading.Event()
        release = threading.Event()

        def holder():
            with obs.span("held"):
                opened.set()
                release.wait(5.0)

        with obs.trace() as tracer:
            worker = threading.Thread(target=holder)
            worker.start()
            opened.wait(5.0)
            obs.span("leaky").__enter__()
            tracer.unwind(0)
            assert tracer.current() is None
            release.set()
            worker.join(5.0)
        held = next(root for root in tracer.roots if root.name == "held")
        assert held.end_s is not None and held.children == []


class TestTimedRegions:
    def test_one_clock_read_feeds_span_and_histogram(self):
        from repro.obs.histogram import HISTOGRAMS

        with obs.trace() as tracer:
            with obs.timed("probe.region", k=1) as region:
                seconds = region.stop()
                region.set(done=True)
        (root,) = tracer.roots
        assert root.attrs == {"k": 1, "done": True}
        assert root.duration_seconds == pytest.approx(seconds, abs=1e-9)
        assert HISTOGRAMS["probe.region"].count == 1
        assert HISTOGRAMS["probe.region"].max == seconds

    def test_histogram_records_with_tracing_off(self):
        from repro.obs.histogram import HISTOGRAMS, reset_histograms

        reset_histograms()
        obs.TRACER.force(False)
        try:
            with obs.timed("probe.untraced"):
                pass
            assert HISTOGRAMS["probe.untraced"].count == 1
            assert all(
                root.name != "probe.untraced" for root in obs.TRACER.roots
            )
        finally:
            obs.TRACER.force(None)
            reset_histograms()

    def test_a_raising_region_closes_its_span_and_records_no_sample(self):
        from repro.obs.histogram import HISTOGRAMS

        with obs.trace() as tracer:
            with pytest.raises(ValueError):
                with obs.timed("probe.fails"):
                    raise ValueError("x")
            assert tracer.current() is None
        assert tracer.roots[0].end_s is not None
        assert "probe.fails" not in HISTOGRAMS
