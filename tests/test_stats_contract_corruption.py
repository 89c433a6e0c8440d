"""Mutation tests for the cross-engine stats contract (RPR070/RPR072).

The acceptance bar for the checker: corrupting any single SystemStats
counter write in ``system/vector.py`` must make RPR070 fire, and
drifting a cadence constant must make RPR072 fire.  Scope tags are
derived from paths, so the relevant sources are mirrored into a
throwaway ``src/repro`` tree before mutation.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional

import pytest

from repro.analysis import all_checkers, run

REPO = Path(__file__).parent.parent
MIRRORED = (
    "src/repro/buffers/assist.py",
    "src/repro/cache/stats.py",
    "src/repro/cache/set_assoc.py",
    "src/repro/system/simulator.py",
    "src/repro/system/memory_system.py",
    "src/repro/system/timing.py",
    "src/repro/system/vector.py",
)
VECTOR = "src/repro/system/vector.py"

#: A stats-counter store in the vector engine: every receiver named
#: l1/l2/buffer/stats/timing in vector.py is (an alias into) the
#: SystemStats tree or the TimingStats object delegated into it.
_WRITE_RE = re.compile(r"^(\s*)(l1|l2|buffer|stats|timing)\.(\w+) = ")


def counter_write_lines() -> List[int]:
    lines = (REPO / VECTOR).read_text().splitlines()
    return [i for i, line in enumerate(lines) if _WRITE_RE.match(line)]


def counter_write_id(lineno: int) -> str:
    """``receiver.field`` of a write: a test id that survives edits
    elsewhere in the file, unlike its line number."""
    match = _WRITE_RE.match((REPO / VECTOR).read_text().splitlines()[lineno])
    assert match is not None
    return f"{match.group(2)}.{match.group(3)}"


def run_mirror(tmp_path: Path, vector_text: Optional[str] = None):
    paths = []
    for rel in MIRRORED:
        dst = tmp_path / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        text = (REPO / rel).read_text()
        if vector_text is not None and rel == VECTOR:
            text = vector_text
        dst.write_text(text)
        paths.append(str(dst))
    result = run(paths, all_checkers(), select=["RPR07"], root=tmp_path)
    assert result.errors == []
    return result.violations


def test_mirror_sees_enough_counter_writes():
    # Keep the mutation matrix honest: if a refactor renames the
    # receivers this list collapses and every mutation test silently
    # degenerates.
    assert len(counter_write_lines()) >= 15


def test_unmutated_mirror_is_clean(tmp_path):
    assert run_mirror(tmp_path) == []


@pytest.mark.parametrize("lineno", counter_write_lines(), ids=counter_write_id)
def test_dropping_any_counter_write_fires_rpr070(tmp_path, lineno):
    lines = (REPO / VECTOR).read_text().splitlines(keepends=True)
    mutated = _WRITE_RE.sub(r"\1\2.\3_dropped = ", lines[lineno])
    assert mutated != lines[lineno]
    lines[lineno] = mutated
    violations = run_mirror(tmp_path, "".join(lines))
    assert "RPR070" in {v.code for v in violations}, mutated


def test_cadence_drift_fires_rpr072(tmp_path):
    text = (REPO / VECTOR).read_text()
    drifted = text.replace(
        "tick_every = faults.sim_tick_every()", "tick_every = 64"
    )
    assert drifted != text
    violations = run_mirror(tmp_path, drifted)
    assert "RPR072" in {v.code for v in violations}
