"""Post-mortem wiring: failures arrive with their flight recording attached.

Two failure paths must each produce a renderable bundle without anyone
asking for one: an oracle divergence (the bundle rides inside the sweep
manifest) and a verification-pool fallback (the bundle lands in
``REPRO_POSTMORTEM_DIR``).  Both are rendered back through
``python -m repro postmortem`` to close the loop.
"""

import json
import os
import warnings
from unittest import mock

import pytest

import repro.core.exact as exact_mod
import repro.core.verification as verif
from repro.cli import main
from repro.obs.recorder import RECORDER
from repro.oracle import check_session, generate_trace


@pytest.fixture(autouse=True)
def _recorder_on():
    RECORDER.force(True)
    RECORDER.reset()
    # Earlier fallback tests may have consumed this exception type's
    # one-bundle-per-type slot (the postmortem rate limiter); each test
    # here asserts on its own bundle, so start from a clean slate.
    verif.reset_postmortem_limiter()
    yield
    RECORDER.force(None)
    RECORDER.reset()


def _chunk_worker(payload):
    """Module-level (hence picklable) worker for the fallback test."""
    chunk, transform = payload
    return [transform(gid) for gid in chunk]


class TestPoolFallbackBundle:
    def test_fallback_writes_a_renderable_bundle(self, tmp_path, capsys):
        with mock.patch.dict(
            os.environ, {"REPRO_POSTMORTEM_DIR": str(tmp_path)}
        ):
            with pytest.warns(RuntimeWarning, match="serial"):
                out = verif._run_batch(
                    _chunk_worker,
                    lambda chunk: (chunk, lambda g: g),  # lambda: unpicklable
                    list(range(32)),
                    workers=2,
                )
        assert out == list(range(32))
        bundles = sorted(tmp_path.glob("postmortem-*.json"))
        assert len(bundles) == 1
        bundle = json.loads(bundles[0].read_text())
        assert bundle["schema"] == 2
        assert bundle["kind"] == "postmortem"
        kinds = [e["kind"] for e in bundle["events"]]
        assert "pool.run" in kinds
        assert "pool.fallback" in kinds
        fallback = next(e for e in bundle["events"]
                        if e["kind"] == "pool.fallback")
        assert "traceback" in fallback

        assert main(["postmortem", str(bundles[0])]) == 0
        rendered = capsys.readouterr().out
        assert "pool-fallback" in rendered
        assert "pool.run" in rendered

    def test_no_dir_means_no_files(self, tmp_path):
        with mock.patch.dict(os.environ, {"REPRO_POSTMORTEM_DIR": ""}):
            with pytest.warns(RuntimeWarning, match="serial"):
                verif._run_batch(
                    _chunk_worker,
                    lambda chunk: (chunk, lambda g: g),
                    list(range(8)),
                    workers=2,
                )
        assert list(tmp_path.iterdir()) == []


class TestDivergenceBundle:
    def _patched_candidate_bug(self):
        real = exact_mod._phi_upsilon_bits

        def buggy(vertex, indexes, db_bits):
            return real(vertex, indexes, db_bits) & ~1  # drop graph 0

        return mock.patch.object(exact_mod, "_phi_upsilon_bits", buggy)

    def _first_divergent_result(self, max_seed=30):
        for seed in range(max_seed):
            result = check_session(generate_trace(seed))
            if not result.ok:
                return result
        return None

    def test_divergence_embeds_a_renderable_recording(self, tmp_path,
                                                      capsys):
        with self._patched_candidate_bug():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = self._first_divergent_result()
        assert result is not None, "injected bug was not caught"
        bundle = result.flight_recording
        assert bundle is not None
        assert bundle["kind"] == "postmortem"
        assert bundle["reason"] == "oracle-divergence"
        assert bundle["seed"] == result.trace.seed
        assert bundle["divergences"]  # the verdicts ride in the bundle

        path = tmp_path / "divergence.json"
        path.write_text(json.dumps(bundle, default=str))
        assert main(["postmortem", str(path)]) == 0
        assert "oracle-divergence" in capsys.readouterr().out

    def test_clean_sessions_carry_no_recording(self):
        result = check_session(generate_trace(seed=0))
        assert result.ok
        assert result.flight_recording is None

    def test_disabled_recorder_yields_no_recording(self):
        RECORDER.force(False)
        with self._patched_candidate_bug():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = self._first_divergent_result()
        assert result is not None
        assert result.flight_recording is None
