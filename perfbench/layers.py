"""Per-layer spans recorded from outside the program.

The benchmark never edits ``src/``.  For a traced run it rebinds each
public function a layer is made of, on every ``repro.*`` module that
holds it, to a wrapper that records one span per call: layer name,
start, end, parent span and run id, plus the work the call did (refs,
elements, frames, bytes ...).  Spans stay in memory and are written out
when the run ends.  A layer's self time is its busy time minus the time
its direct child spans cover.

Calls that re-enter the layer they are already inside (``verdict``
calling ``snapshot``) are folded into the outer span, so ``calls``
counts what the caller asked for.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Work keys aggregated by maximum instead of sum.
PEAK_KEYS = frozenset({"state_entries"})

Work = Callable[[tuple, dict, Any, Any], Dict[str, float]]


class SpanRecorder:
    """In-memory span store for one process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: (id, parent, layer, start, end, work)
        self.spans: List[Tuple[int, Optional[int], str, float, float, Dict[str, float]]] = []
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 1

    def wrap(
        self,
        func: Callable[..., Any],
        layer: "str | Callable[[tuple, dict], Optional[str]]",
        work: Optional[Work] = None,
        before: Optional[Callable[[tuple, dict], Any]] = None,
    ) -> Callable[..., Any]:
        """A span-recording stand-in for ``func``.

        ``layer`` may be a function of the call's arguments returning the
        layer name, or ``None`` to pass the call through unrecorded.
        ``before`` runs ahead of the call; its value reaches ``work``.
        """
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = layer(args, kwargs) if callable(layer) else layer
            if name is None or (stack and stack[-1][1] == name):
                return func(*args, **kwargs)
            token = before(args, kwargs) if before is not None else None
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            counts = work(args, kwargs, result, token) if work is not None else {}
            spans.append((span_id, parent, name, start, end, counts))
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(func, "__name__", "wrapper")
        return wrapper

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, name, start, end, counts in self.spans:
                out.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "work": counts,
                        }
                    )
                    + "\n"
                )


def read_spans(path: str) -> List[Tuple[Any, Any, str, float, float, Dict[str, float]]]:
    """Spans written by :meth:`SpanRecorder.write`, their ids qualified by
    run id so that spans of several runs can be aggregated together."""
    spans = []
    with open(path, encoding="utf-8") as src:
        for line in src:
            row = json.loads(line)
            run, parent = row["run"], row["parent"]
            spans.append(
                (
                    (run, row["id"]),
                    None if parent is None else (run, parent),
                    row["name"], row["start"], row["end"], row["work"],
                )
            )
    return spans


#: (holder, attribute, original) for every rebinding, so it can be undone.
Bindings = List[Tuple[Any, str, Any]]


def _rebind(original: Any, replacement: Any, bindings: Bindings) -> None:
    """Point every ``repro.*`` module attribute bound to ``original`` at
    ``replacement``."""
    moved = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                bindings.append((module, attr, original))
                setattr(module, attr, replacement)
                moved += 1
    if not moved:  # the layer would silently read 0
        raise RuntimeError(f"no repro module holds {original!r}")


def install(recorder: SpanRecorder) -> Callable[[], None]:
    """Rebind every traced public function to a recording wrapper.

    Returns a function that restores the original bindings, so traced
    and untraced passes can alternate in one process.
    """
    # Import every module that may hold a binding before rebinding.
    import repro.harness.cells  # noqa: F401
    from repro.core import accuracy
    from repro.mrc import curve, sampling, stack
    from repro.serve import pipeline, protocol
    from repro.system import simulator, vector
    from repro.system.config import PAPER_MACHINE
    from repro.workloads import spec_analogs

    def simulate_layer(args: tuple, kwargs: dict) -> Optional[str]:
        """``system.simulator.scalar`` for calls the scalar engine runs.

        Mirrors ``simulate``'s own engine resolution, so calls that
        dispatch to the vector engine are left to the ``system.vector``
        span.
        """
        policy = args[1] if len(args) > 1 else kwargs["policy"]
        machine = args[2] if len(args) > 2 else kwargs.get("machine", PAPER_MACHINE)
        engine = kwargs.get("engine", "auto")
        if engine == "auto":
            engine = os.environ.get(simulator.ENGINE_ENV_VAR, "auto")
        if engine == "scalar" or vector.vector_ineligibility(policy, machine) is not None:
            return "system.simulator.scalar"
        return None

    def refs_of_trace(args: tuple, kwargs: dict, result: Any, token: Any) -> Dict[str, float]:
        return {"refs": len(args[0] if args else kwargs["trace"])}

    def elements(args: tuple, kwargs: dict, result: Any, token: Any) -> Dict[str, float]:
        return {"elements": len(args[0] if args else kwargs["blocks"])}

    functions: List[Tuple[Any, str, Any, Optional[Work]]] = [
        (spec_analogs, "build", "workloads.build",
         lambda a, k, r, t: {"refs": len(r)}),
        (accuracy, "measure_accuracy", "core.accuracy",
         lambda a, k, r, t: {"refs": r.cache.accesses, "misses": r.cache.misses}),
        (simulator, "simulate", simulate_layer, refs_of_trace),
        (vector, "simulate_vector", "system.vector", refs_of_trace),
        (stack, "set_lru_flags", "mrc.stack.set_lru_flags", elements),
        (stack, "stack_distances", "mrc.stack.stack_distances", elements),
        (curve, "compute_mrc", "mrc.curve",
         lambda a, k, r, t: {"refs": r.total_refs}),
        (protocol, "encode_frame", "serve.protocol",
         lambda a, k, r, t: {"frames": 1, "bytes": len(r)}),
        (protocol, "decode_frame", "serve.protocol",
         lambda a, k, r, t: {"frames": 1, "bytes": len(a[0])}),
    ]
    bindings: Bindings = []
    for module, attr, layer, work in functions:
        original = getattr(module, attr)
        _rebind(original, recorder.wrap(original, layer, work), bindings)

    pipe = pipeline.TenantPipeline
    est = sampling.ShardsEstimator
    methods: List[Tuple[type, str, str, Optional[Work], Any]] = [
        (pipe, "__init__", "serve.pipeline.init",
         lambda a, k, r, t: {"sessions": 1}, None),
        (pipe, "feed", "serve.pipeline.feed",
         lambda a, k, r, t: {"refs": r}, None),
        (est, "feed", "mrc.sampling",
         lambda a, k, r, t: {
             "total_refs": a[0].total_refs - t[0],
             "sampled_refs": a[0].sampled_refs - t[1],
             "state_entries": a[0].state_entries(),
         },
         lambda a, k: (a[0].total_refs, a[0].sampled_refs)),
        (est, "result", "mrc.sampling", None, None),
    ]
    for query in ("snapshot", "mrc", "verdict"):
        methods.append(
            (pipe, query, "serve.pipeline.query", lambda a, k, r, t: {"answers": 1}, None)
        )
    for cls, attr, layer, work, before in methods:
        original = getattr(cls, attr)
        bindings.append((cls, attr, original))
        setattr(cls, attr, recorder.wrap(original, layer, work, before))

    def uninstall() -> None:
        for holder, attr, original in reversed(bindings):
            setattr(holder, attr, original)

    return uninstall


def aggregate(
    spans: Iterable[Tuple[Any, Any, str, float, float, Dict[str, float]]],
) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Per-layer ``calls``, ``busy_s``, ``self_s`` and summed work.

    Also returns the time covered by root spans (spans with no parent),
    which is what the traced layers account for in total.
    """
    spans = list(spans)
    child_time: Dict[Any, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    layers: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    covered = 0.0
    for span_id, parent, name, start, end, counts in spans:
        row = layers[name]
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += end - start - child_time[span_id]
        for key, value in counts.items():
            row[key] = max(row[key], value) if key in PEAK_KEYS else row[key] + value
        if parent is None:
            covered += end - start
    return {name: dict(row) for name, row in layers.items()}, covered
