"""Launch ``repro`` with layer spans recorded, and write them when it exits.

Usage (from the repository root)::

    python3 perfbench/traced_serve.py --spans OUT.jsonl serve --async ...

Everything after ``--spans OUT`` is the ordinary ``repro`` command line.  The
spans are written to ``OUT`` after the server has drained (SIGTERM), as JSON
lines readable by ``perfbench.run``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans OUT.jsonl <repro arguments>", file=sys.stderr)
        return 2
    out_path, repro_argv = argv[1], argv[2:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.spans import SpanRecorder, install
    from repro.cli import main as repro_main

    recorder = SpanRecorder()
    install(recorder)
    try:
        return repro_main(repro_argv)
    finally:
        recorder.dump(out_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
