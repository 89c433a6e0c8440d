"""RPR070-RPR072: the cross-engine SystemStats write-set contract.

PR 7/8's vector engine is only correct because it produces a
byte-identical ``SystemStats`` to the scalar reference engine.  That
contract is enforced dynamically by the bench gate and the paired-run
tests — but a *new counter* added to the scalar path and forgotten in
the vector path only fails those gates if some test happens to assert
on it.  This checker makes the contract static, the same way the
obs-schema checker joins event emit sites against the schema table:

* ``check_module`` only *collects* — every sim-core module's parsed
  tree is kept;
* ``finalize`` builds a merged class table (so ``SystemStats()``
  constructed in ``system/vector.py`` resolves against the dataclass
  declared in ``cache/stats.py``), runs the dataflow pass per module,
  and joins three ways:

  - **RPR070** — every ``SystemStats`` counter the scalar engine writes
    (expanded through the nested ``l1``/``l2``/``timing`` dataclasses)
    must have a vector-side write at the same path, or be covered by a
    whole-object delegation like ``stats.timing = timing`` whose value
    class the vector module fills in completely; and vice versa.
  - **RPR071** — a store to a ``*Stats`` dataclass attribute that is
    not a declared field is a typo that silently loses a counter.
  - **RPR072** — the ``heartbeat_every`` / ``tick_every`` cadence
    expressions (the ``measure_boundaries()`` inputs) must be derived
    identically in both engine modules, or the two event streams
    diverge while the final stats still agree.

The checker is silent unless both engine sides are present in the run
(so single-file fixture runs of other families don't light it up).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import Checker, ModuleInfo, Violation
from repro.analysis.dataflow import (
    ClassInfo,
    DataflowAnalysis,
    Instance,
    collect_classes,
)

#: SystemStats paths the scalar engine writes that the vector engine is
#: *documented* not to: the vector engine runs no prefetching or
#: exclusion policy (``buffer.prefetch*``, ``buffer.exclusion_hits``)
#: and models the L2 tag-only, so it can never hold a dirty line
#: (``l2.writebacks`` is structurally zero in both engines).  Every
#: other buffer counter is written by its swap-always victim-cache path.
EXEMPT_PREFIXES: Tuple[str, ...] = ("buffer.prefetch",)
EXEMPT_PATHS: FrozenSet[str] = frozenset(
    {"l2.writebacks", "buffer.exclusion_hits"}
)

#: The cadence names both engines must derive the same way.
CADENCE_NAMES: Tuple[str, ...] = ("heartbeat_every", "tick_every")

_ROOT_CLASS = "SystemStats"


def _is_vector_side(module: ModuleInfo) -> bool:
    return module.rel.endswith("system/vector.py") or "engine-vector" in module.tags


def _is_scalar_engine(module: ModuleInfo) -> bool:
    return module.rel.endswith("system/simulator.py") or "engine-scalar" in module.tags


def _cadence_assignments(
    tree: ast.Module,
) -> Dict[str, List[Tuple[str, ast.AST]]]:
    """name -> [(normalized RHS dump, assignment node), ...]."""
    out: Dict[str, List[Tuple[str, ast.AST]]] = {n: [] for n in CADENCE_NAMES}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in out:
                    out[target.id].append((ast.dump(node.value), node))
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id in out
            and node.value is not None
        ):
            out[node.target.id].append((ast.dump(node.value), node))
    return out


def _calls_measure_boundaries(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name: Optional[str] = None
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            if name == "measure_boundaries":
                return True
    return False


class StatsContractChecker(Checker):
    """Cross-file join of the scalar and vector engines' stats writes."""

    name = "stats-contract"
    codes = {
        "RPR070": "SystemStats counter written by one engine but not the "
        "other — the byte-identity contract between the scalar and vector "
        "engines drifts silently",
        "RPR071": "write to an undeclared *Stats dataclass attribute "
        "(typo?) — the counter is silently lost by reset/merge/reporting",
        "RPR072": "heartbeat/sim-tick cadence derived differently in the "
        "two engine modules — measure_boundaries() boundaries (and so the "
        "event streams) diverge",
    }
    tags: Optional[FrozenSet[str]] = frozenset(
        {"simcore", "engine-scalar", "engine-vector"}
    )

    def __init__(self) -> None:
        self._modules: List[ModuleInfo] = []

    def check_module(self, module: ModuleInfo) -> Iterator[Violation]:
        self._modules.append(module)
        return iter(())

    # -- the join -------------------------------------------------------
    def finalize(self) -> Iterator[Violation]:
        modules = sorted(self._modules, key=lambda m: m.rel)
        if not modules:
            return
        table: Dict[str, ClassInfo] = {}
        for module in modules:
            for name, info in collect_classes(module.tree).items():
                table.setdefault(name, info)
        flows: Dict[str, DataflowAnalysis] = {
            m.rel: DataflowAnalysis(m.tree, extra_classes=table) for m in modules
        }

        yield from self._check_unknown_fields(modules, flows, table)

        root = table.get(_ROOT_CLASS)
        vector_modules = [m for m in modules if _is_vector_side(m)]
        scalar_modules = [m for m in modules if not _is_vector_side(m)]
        if root is None or not vector_modules or not scalar_modules:
            return
        yield from self._check_write_sets(
            root, table, flows, vector_modules, scalar_modules
        )
        yield from self._check_cadence(modules, vector_modules)

    # -- RPR071 ---------------------------------------------------------
    def _check_unknown_fields(
        self,
        modules: List[ModuleInfo],
        flows: Dict[str, DataflowAnalysis],
        table: Dict[str, ClassInfo],
    ) -> Iterator[Violation]:
        for module in modules:
            for write in flows[module.rel].attribute_writes:
                base = write.base
                if not isinstance(base, Instance):
                    continue
                info = table.get(base.cls)
                if (
                    info is None
                    or not info.is_dataclass
                    or not base.cls.endswith("Stats")
                ):
                    continue
                if (
                    write.attr in info.fields
                    or write.attr in info.methods
                    or write.attr in info.properties
                ):
                    continue
                yield module.violation(
                    self,
                    "RPR071",
                    write.node,
                    f"{base.cls}.{write.attr} is not a declared field of "
                    f"dataclass {base.cls} — the write is silently invisible "
                    "to reset/merge/reporting (typo?)",
                )

    # -- RPR070 ---------------------------------------------------------
    def _check_write_sets(
        self,
        root: ClassInfo,
        table: Dict[str, ClassInfo],
        flows: Dict[str, DataflowAnalysis],
        vector_modules: List[ModuleInfo],
        scalar_modules: List[ModuleInfo],
    ) -> Iterator[Violation]:
        # Scalar side: per-dataclass field write sets, with an anchor
        # node for each (class, field) so missing-path findings point at
        # the scalar write the vector engine fails to mirror.
        scalar_writes: Dict[str, Set[str]] = {}
        scalar_anchor: Dict[Tuple[str, str], Tuple[ModuleInfo, ast.AST]] = {}
        for module in scalar_modules:
            for write in flows[module.rel].attribute_writes:
                base = write.base
                if isinstance(base, Instance) and base.cls in table:
                    scalar_writes.setdefault(base.cls, set()).add(write.attr)
                    scalar_anchor.setdefault(
                        (base.cls, write.attr), (module, write.node)
                    )

        # Vector side: SystemStats-rooted path writes, whole-object
        # delegations, and per-class writes (to expand delegations).
        vector_paths: Dict[str, Tuple[ModuleInfo, ast.AST]] = {}
        delegated: Dict[str, str] = {}
        vector_class_writes: Dict[str, Set[str]] = {}
        vector_class_anchor: Dict[Tuple[str, str], Tuple[ModuleInfo, ast.AST]] = {}
        for module in vector_modules:
            for write in flows[module.rel].attribute_writes:
                base = write.base
                if not isinstance(base, Instance):
                    continue
                if base.cls in table:
                    vector_class_writes.setdefault(base.cls, set()).add(write.attr)
                    vector_class_anchor.setdefault(
                        (base.cls, write.attr), (module, write.node)
                    )
                if base.root != _ROOT_CLASS:
                    continue
                info = table.get(base.cls)
                field_ann = info.fields.get(write.attr) if info else None
                if field_ann in table:
                    # stats.timing = timing — delegation of a whole
                    # nested object; credit the delegate class's writes.
                    value = write.value
                    if isinstance(value, Instance) and value.cls == field_ann:
                        delegated[".".join(base.path + (write.attr,))] = field_ann
                    continue
                vector_paths[".".join(base.path + (write.attr,))] = (
                    module,
                    write.node,
                )

        def scalar_fields(info: ClassInfo) -> List[str]:
            return [f for f, ann in info.fields.items() if ann not in table]

        # Expand the scalar per-class sets over the SystemStats nesting.
        required: Dict[str, Tuple[ModuleInfo, ast.AST]] = {}
        for field_name, ann in root.fields.items():
            nested = table.get(ann) if ann is not None else None
            if nested is not None:
                for counter in scalar_fields(nested):
                    if counter in scalar_writes.get(nested.name, set()):
                        anchor = scalar_anchor[(nested.name, counter)]
                        required[f"{field_name}.{counter}"] = anchor
            elif field_name in scalar_writes.get(_ROOT_CLASS, set()):
                required[field_name] = scalar_anchor[(_ROOT_CLASS, field_name)]

        # Expand vector delegations into covered paths.
        covered: Set[str] = set(vector_paths)
        for prefix, cls_name in delegated.items():
            info = table[cls_name]
            for counter in scalar_fields(info):
                if counter in vector_class_writes.get(cls_name, set()):
                    covered.add(f"{prefix}.{counter}")

        def exempt(path: str) -> bool:
            return path in EXEMPT_PATHS or path.startswith(EXEMPT_PREFIXES)

        for path in sorted(required):
            if exempt(path) or path in covered:
                continue
            module, node = required[path]
            yield module.violation(
                self,
                "RPR070",
                node,
                f"scalar engine writes SystemStats.{path} here, but the "
                "vector engine neither writes that path nor delegates the "
                "containing object — the engines' byte-identity contract "
                "drifts silently",
            )
        for path in sorted(covered):
            if path in required or exempt(path):
                continue
            anchor2 = vector_paths.get(path)
            if anchor2 is None:
                continue  # delegated counter: anchored per-class below
            module, node = anchor2
            yield module.violation(
                self,
                "RPR070",
                node,
                f"vector engine writes SystemStats.{path}, but the scalar "
                "reference engine never writes it — dead counter or "
                "contract drift",
            )

    # -- RPR072 ---------------------------------------------------------
    def _check_cadence(
        self,
        modules: List[ModuleInfo],
        vector_modules: List[ModuleInfo],
    ) -> Iterator[Violation]:
        scalar_engines = [m for m in modules if _is_scalar_engine(m)]
        if not scalar_engines or not vector_modules:
            return
        scalar = scalar_engines[0]
        scalar_cadence = _cadence_assignments(scalar.tree)
        for vector in vector_modules:
            vector_cadence = _cadence_assignments(vector.tree)
            for name in CADENCE_NAMES:
                s_exprs = {dump for dump, _ in scalar_cadence[name]}
                v_exprs = {dump for dump, _ in vector_cadence[name]}
                if not s_exprs and not v_exprs:
                    continue
                if s_exprs == v_exprs:
                    continue
                anchor_node: ast.AST = (
                    vector_cadence[name][0][1] if vector_cadence[name] else vector.tree
                )
                yield vector.violation(
                    self,
                    "RPR072",
                    anchor_node,
                    f"cadence {name!r} is derived differently in "
                    f"{scalar.rel} and {vector.rel} — "
                    "measure_boundaries() boundaries (heartbeat/sim-tick "
                    "event cadence) must agree between engines",
                )
            if _calls_measure_boundaries(scalar.tree) and not _calls_measure_boundaries(
                vector.tree
            ):
                yield vector.violation(
                    self,
                    "RPR072",
                    vector.tree,
                    f"{vector.rel} never calls measure_boundaries() while "
                    f"{scalar.rel} does — the vector engine would emit no "
                    "heartbeat/sim-tick boundaries at all",
                )


__all__ = ["StatsContractChecker"]
