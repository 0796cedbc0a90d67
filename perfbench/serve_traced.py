"""Launch ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py SPANS.json serve DB IDX --port 0

Everything after the spans path is handed to ``repro.cli.main`` unchanged.
The spans (and the canonical-code cache deltas) are written to SPANS.json
when the server shuts down.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repro.cli as cli  # noqa: E402
from repro.graph.canonical import cache_stats  # noqa: E402

import tracing  # noqa: E402


def main() -> int:
    spans = Path(sys.argv[1])
    tracer = tracing.Tracer()
    tracer.set_trace("-")
    tracing.install_engine(tracer)
    tracing.install_server(tracer)
    tracing.install_persistence(tracer, cli)
    before = cache_stats()
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.counters.update(tracing.canonical_delta(before, cache_stats()))
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
