"""Start ``repro.serve`` with the benchmark's span wrappers installed.

Used by traced runs of the service workloads in place of ``python -m
repro.serve``; every argument after ``--`` goes to the server's own
entry point.  Spans are written to ``--spans-out`` when the server
exits::

    python3 perfbench/launch_server.py --spans-out spans.jsonl --run-id r1 \\
        -- --socket perfbench/.run/traced.sock
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402  (needs the path set above)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--run-id", default="")
    args = parser.parse_args(argv[:split])

    recorder = layers.SpanRecorder(args.run_id)
    layers.install(recorder)
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(argv[split + 1 :])
    finally:
        recorder.write(args.spans_out)


if __name__ == "__main__":
    raise SystemExit(main())
