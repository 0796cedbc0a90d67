"""Warm-pool dispatch benchmark — serial vs warm pool on one corpus.

Not a paper figure: this suite records what a pooled *Run* costs against
the in-process path (:mod:`repro.core.pool`, :mod:`repro.index.arena`).
One full-corpus ``verify_batch`` is dispatched serially and on the warm
pool (reused arena-attached workers) over identical inputs, and the answers
are asserted equal.  Whether the pool wins at this size is reported, not
gated: the per-batch dispatch floor
(:data:`repro.core.verification.POOL_MIN_CANDIDATES`) is what keeps small
batches serial.  ``repro perf`` records the smoke-scale warm dispatch as
``pool.warm_dispatch_s``.
"""

import random

import pytest

from repro.bench import emit, format_table
from repro.bench.harness import aids_db
from repro.bench.pool_warmup import _sample_query, always_pool, run_pool_warmup
from repro.core import pool as pool_mod
from repro.core.verification import verify_batch


@pytest.mark.benchmark(group="pool_warmup")
def test_pool_warmup(benchmark):
    db = aids_db()
    data = run_pool_warmup(db, smoke=False)

    rows = [
        ["serial (workers=1)", f"{data['serial_s'] * 1000:.2f}", "1.00x"],
        ["warm pool (reused workers)", f"{data['warm_s'] * 1000:.2f}",
         f"{data['warm_over_serial']:.2f}x"],
    ]
    table = format_table(
        f"Pool dispatch: |D|={data['corpus']}, workers={data['workers']} "
        f"(one-time warm spawn {data['spawn_s'] * 1000:.2f} ms)",
        ["configuration", "dispatch (ms)", "vs serial"],
        rows,
    )
    emit("pool_warmup", table, data)

    # Benchmarked op: one warm-pool dispatch (the steady-state Run action).
    query = _sample_query(db, random.Random(7), edges=4)
    ids = list(db.ids())
    with always_pool():
        verify_batch(query, ids, db, workers=4)  # spawn outside the timer
        benchmark(lambda: verify_batch(query, ids, db, workers=4))
        pool_mod.shutdown()
