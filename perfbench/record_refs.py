"""Pinned scalar references for the simulation workloads.

The references of one (workload, size) are recorded once, for seeds
``0 .. RECORDED_SEEDS - 1``, as one JSON file in ``perfbench/refs/``.
A run takes its inputs from ``seed % RECORDED_SEEDS``, so every seed has
a recording and no reference is ever computed by the code under
measurement.  A seed missing from a recording is an error.

Record (or re-record) references::

    python3 perfbench/record_refs.py --workload campaign --seeds 0-31
    python3 perfbench/record_refs.py --workload long_trace --size tiny --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORDED_DIR = os.path.join(HERE, "refs")

#: Seeds with a recording; run seeds are folded into this range.
RECORDED_SEEDS = 32


def reference_path(workload: str, size: str) -> str:
    return os.path.join(RECORDED_DIR, f"{workload}-{size}.json")


def input_seed(seed: int) -> int:
    """The recorded seed whose inputs a run with ``seed`` uses."""
    return seed % RECORDED_SEEDS


def _read(path: str) -> Dict[str, object]:
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as src:
        return json.load(src)


def load_reference(workload: str, size: str, seed: int) -> Dict[str, object]:
    """The recorded reference outputs of one seed."""
    path = reference_path(workload, size)
    seeds = _read(path).get("seeds", {})
    assert isinstance(seeds, dict)
    if str(seed) not in seeds:
        raise SystemExit(
            f"no reference recorded for {workload} {size} seed {seed} in {path}; "
            f"record it with perfbench/record_refs.py"
        )
    return seeds[str(seed)]


def _parse_seeds(spec: str) -> List[int]:
    if "-" in spec:
        first, last = spec.split("-", 1)
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("campaign", "long_trace"))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--seeds", required=True, help="N, A-B or A,B,C")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import simwork

    path = reference_path(args.workload, args.size)
    recording = _read(path) or {
        "workload": args.workload, "size": args.size, "engine": "scalar", "seeds": {},
    }
    for seed in _parse_seeds(args.seeds):
        recording["seeds"][str(seed)] = simwork.reference(args.workload, args.size, seed)
        print(f"recorded {args.workload} {args.size} seed {seed}")
    os.makedirs(RECORDED_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as out:
        json.dump(recording, out, sort_keys=True)
    os.replace(tmp, path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
