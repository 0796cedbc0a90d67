"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload formulate --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer table, then the per-layer metrics.  Either way the answers are
checked (outside every timed window) and the last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 only when every answer was correct.

The workload runs in a child process.  This process only waits: it adopts
every process the workload leaves orphaned (the servers it stops, and the
resource trackers ``multiprocessing`` starts for shared memory, which outlive
the process that started them) and does not exit until each has ended.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("formulate", "service")
#: Seconds the orphans of a finished workload get to end before SIGKILL.
ORPHAN_GRACE_S = 30.0
#: prctl option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test only: a tiny corpus, and a corrupted answer the check must catch.
    parser.add_argument("--size", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help=argparse.SUPPRESS)
    # Set on the child that runs the workload (see ``supervise``).
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through every ``finally``: servers and pools get stopped.
    sys.exit(128 + signum)


def _children() -> list:
    """Pids of this process's live (or unreaped) children."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            out.append(int(entry))
    return out


def _reap_all(grace: float) -> None:
    """Wait for every child, adopted ones included; after ``grace`` seconds,
    SIGKILL each child still running (and each orphan that adopts in turn)
    and wait for those too."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def supervise(argv) -> int:
    """Run the workload in a child and wait for all of its descendants."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # no subreaper: orphans go to init, as without this wrapper
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--child"])

    def forward(signum, frame):
        child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        code = child.wait()
    finally:
        _reap_all(ORPHAN_GRACE_S)
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if not args.child:
        return supervise(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Run at the program's defaults: no REPRO_* knob reaches it or the
    # server it spawns.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # The same import path for this process, the server it spawns and the
    # oracle's worker processes.
    os.environ["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import common
    from repro.core import pool

    if args.size is None:
        args.size = common.CORPUS_SIZE
    module = __import__(args.workload)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        out = module.run(args, work)
    finally:
        pool.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = out["metrics"]
    if args.trace:
        import tracing

        print(tracing.render_table(metrics))
    print("phases: " + ", ".join(
        f"{name} {seconds:.1f} s" for name, seconds in out["phases"].items()
    ), file=sys.stderr)
    for problem in out["problems"]:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    correct = not out["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
