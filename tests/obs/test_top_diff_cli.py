"""The live-monitor CLIs: ``repro top`` and ``repro trace --diff``.

``top`` renders the exporter's snapshot/event files into a terminal view;
``trace --diff`` compares two saved trace reports site-by-site.  Both are
read-only consumers of artifacts other commands produce, so the tests drive
them end-to-end: export a real session, render it; save two reports, diff
them.
"""

import json
import os
from unittest import mock

import pytest

from repro.cli import main
from repro.obs import exporter
from repro.obs.exporter import EXPORTER
from repro.obs.export import (
    diff_trace_reports,
    render_report_diff,
    render_request_bundle,
    render_top,
)


@pytest.fixture
def export_dir(tmp_path):
    """A directory populated by one real exporting session."""
    directory = tmp_path / "export"
    previous = EXPORTER.force(directory)
    try:
        with mock.patch.object(exporter, "EXPORT_INTERVAL_S", 0.0):
            assert main(["trace", "--seed", "1"]) == 0
    finally:
        EXPORTER.force(previous)
    return directory


@pytest.fixture
def two_reports(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["trace", "--seed", "1", "--json", str(a)]) == 0
    assert main(["trace", "--seed", "2", "--json", str(b)]) == 0
    return a, b


class TestTopCli:
    def test_renders_a_live_export_directory(self, export_dir, capsys):
        assert main(["top", "--dir", str(export_dir), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert f"pid {os.getpid()}" in out
        assert "actions:" in out
        assert "action.new" in out
        assert "cache hit rates:" in out
        assert "canonical cache" in out
        assert "recent events" in out

    def test_waits_politely_on_an_empty_directory(self, tmp_path, capsys):
        assert main(["top", "--dir", str(tmp_path), "--once"]) == 0
        assert "waiting" in capsys.readouterr().out

    def test_requires_a_directory_from_flag_or_env(self, capsys):
        with mock.patch.dict(os.environ, {"REPRO_OBS_EXPORT": ""}):
            assert main(["top", "--once"]) == 2
        assert "REPRO_OBS_EXPORT" in capsys.readouterr().err

    def test_env_knob_supplies_the_directory(self, export_dir, capsys):
        with mock.patch.dict(
            os.environ, {"REPRO_OBS_EXPORT": str(export_dir)}
        ):
            assert main(["top", "--once"]) == 0
        assert "repro top" in capsys.readouterr().out

    def test_frames_limit_bounds_the_loop(self, export_dir, capsys):
        assert main([
            "top", "--dir", str(export_dir),
            "--frames", "2", "--interval", "0",
        ]) == 0
        assert capsys.readouterr().out.count("repro top") == 2

    def test_render_top_tolerates_missing_sections(self):
        out = render_top(None, [], directory="/nowhere")
        assert "waiting" in out


class TestTopDegradesAgainstOlderServers:
    """Satellite regression: ``top --server`` / ``postmortem --server``
    against an ``/obs`` payload from an older server — one with no ``slo``
    or ``requests`` section — must label the gaps ``n/a``, not crash."""

    OLD_METRICS = {
        "counters": {"canonical.cache.hits": 3, "canonical.cache.misses": 1},
        "gauges": {},
        "histograms": {"action.new": {
            "count": 2, "sum_s": 0.01, "min_s": 0.001, "max_s": 0.009,
            "p50_s": 0.005, "p90_s": 0.009, "p99_s": 0.009,
        }},
        # note: no "slo" key at all — the pre-SLO payload shape
    }

    def test_missing_slo_section_renders_na(self):
        out = render_top({"metrics": self.OLD_METRICS}, [])
        assert "SLOs (rolling window): n/a" in out
        assert "not reported by this source" in out

    def test_missing_requests_section_renders_na(self):
        out = render_top({"metrics": self.OLD_METRICS}, [], requests=None)
        assert "slowest recent requests: n/a" in out

    def test_an_empty_requests_section_is_silent_not_na(self):
        # distinguish "server reported zero requests" from "server has no
        # requests surface" — only the latter earns the n/a label
        out = render_top({"metrics": self.OLD_METRICS}, [], requests=())
        assert "slowest recent requests" not in out

    def test_request_bundle_without_span_or_event_keys_renders_na(self):
        out = render_request_bundle({
            "request_id": "r-1",
            "request": {"method": "GET", "path": "/v1/x", "status": 200,
                        "duration_ms": 1.5},
            # no "spans"/"events" keys: an older /v1/requests/<id> payload
        })
        assert "correlated spans: n/a" in out
        assert "correlated events: n/a" in out

    def test_malformed_slo_entries_are_skipped_not_fatal(self):
        metrics = dict(self.OLD_METRICS)
        metrics["slo"] = {"action_latency": "bogus-not-a-dict"}
        out = render_top({"metrics": metrics}, [])
        assert "repro top" in out
        assert "bogus-not-a-dict" not in out


class TestTraceDiffCli:
    def test_diff_renders_per_site_and_counter_deltas(self, two_reports,
                                                      capsys):
        a, b = two_reports
        assert main(["trace", "--diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "trace diff:" in out
        assert str(a) in out and str(b) in out
        assert "action.new" in out
        assert "p50" in out and "p99" in out
        assert "counters that changed:" in out
        assert "SRT ledger:" in out

    def test_diff_is_covered_structurally(self, two_reports):
        a, b = two_reports
        report_a = json.loads(a.read_text())
        report_b = json.loads(b.read_text())
        diff = diff_trace_reports(report_a, report_b)
        sites = diff["histograms"]
        assert sites  # both sessions always time their actions
        row = sites["action.new"]
        assert row["count_a"] >= 1 and row["count_b"] >= 1
        for p in (50, 90, 99):
            assert f"p{p}_a_s" in row and f"p{p}_b_s" in row
            assert f"p{p}_delta_s" in row
        assert "counters" in diff and "ledger" in diff

    def test_diff_of_a_report_with_itself_is_quiet(self, two_reports,
                                                   capsys):
        a, _ = two_reports
        assert main(["trace", "--diff", str(a), str(a)]) == 0
        out = capsys.readouterr().out
        assert "counters that changed:" not in out  # nothing changed
        assert "counters: no differences" in out

    def test_new_sites_marked_new_not_divided_by_zero(self, two_reports):
        a, b = two_reports
        report_a = json.loads(a.read_text())
        report_b = json.loads(b.read_text())
        # seed 2 runs a simquery; seed 1 does not — a genuinely new site
        diff = diff_trace_reports(report_a, report_b)
        new_rows = [
            r for r in diff["histograms"].values() if r["count_a"] == 0
        ]
        assert new_rows
        assert all(r["p50_pct"] is None for r in new_rows)

    def test_one_sided_sites_are_marked_and_zero_filled(self):
        """Satellite regression: a site present in only one report is
        treated as zero on the other side and marked ``(new)``/``(gone)``
        instead of crashing or reporting a bogus percentage."""
        hist = {"count": 3, "sum_s": 0.3, "min_s": 0.05, "max_s": 0.15,
                "p50_s": 0.1, "p90_s": 0.15, "p99_s": 0.15}
        report_a = {"metrics": {"histograms": {"action.old": hist},
                                "counters": {}}}
        report_b = {"metrics": {"histograms": {"action.fresh": hist},
                                "counters": {}}}
        diff = diff_trace_reports(report_a, report_b)
        gone = diff["histograms"]["action.old"]
        fresh = diff["histograms"]["action.fresh"]
        assert gone["in_a"] and not gone["in_b"]
        assert not fresh["in_a"] and fresh["in_b"]
        assert gone["count_b"] == 0 and fresh["count_a"] == 0
        # absent side reads as zero, so deltas are well-defined numbers
        assert gone["p50_delta_s"] == pytest.approx(-0.1)
        assert fresh["p50_delta_s"] == pytest.approx(0.1)
        # no percentage fabricated against a missing baseline
        assert gone["p50_pct"] is None and fresh["p50_pct"] is None

        text = render_report_diff(diff, "a.json", "b.json")
        assert "action.old (gone)" in text
        assert "action.fresh (new)" in text

    def test_diff_rejects_non_report_artifacts(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": 2, "kind": "trajectory"}))
        with pytest.raises(ValueError):
            main(["trace", "--diff", str(bogus), str(bogus)])
