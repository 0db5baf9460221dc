"""HypeR served-path benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload whatif-sweep --seed 1 --seconds 10 --trace 0

Starts a real ``repro serve --async`` server on German-Syn (linear
regressor, default caches), drives it closed-loop from this process through
one ``HypeRClient`` on one keep-alive connection, checks a seeded sample of
the answers bitwise against an in-process ``HypeRService``, and prints a
report followed by one JSON line (the last line of standard output).

``--trace 0`` measures the end-to-end metrics: the server is set up five
times (``setup_s`` is the median), then the last one serves the timed run.
``--trace 1`` measures the per-layer metrics: the same seeded request
sequence is sent for half the time to an untraced server and for half to a
server started under ``perfbench/traced_serve.py``, which records layer spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

RUNS_DIR = ROOT / ".perfbench-runs"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so every server started is stopped
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    try:
        from perfbench import bench
    except ImportError as error:
        print(f"perfbench: cannot import the program under test: {error}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(bench.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    run_dir = RUNS_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    outcome = bench.run(
        bench.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), run_dir
    )
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rows": bench.WORKLOADS[args.workload].rows,
        **environment(),
    }
    (run_dir / "result.json").write_text(
        json.dumps({"context": context, **outcome.to_json()}, indent=2)
    )
    for key, value in context.items():
        print(f"context  {key:<22} {value}")
    for line in outcome.report:
        print(line)
    print(json.dumps(outcome.result_line()))
    # a wrong answer fails the run (after the result line says so)
    return 0 if not outcome.mismatches else 1


def environment() -> dict[str, object]:
    """What a result depends on besides the workload: host, versions, source."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


if __name__ == "__main__":
    started = time.perf_counter()
    code = main(sys.argv[1:])
    print(f"perfbench: finished in {time.perf_counter() - started:.1f}s", file=sys.stderr)
    raise SystemExit(code)
