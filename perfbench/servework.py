"""The service workload, ``service_stream``.

The server is ``python -m repro.serve`` in its own process on a unix
socket (or, for a traced run, the same entry point behind
``launch_server.py``), so client and server never share an interpreter
lock.  This process is the only client: a closed loop over at most
``nproc`` connections, each sending its next frame only after the reply
to the previous one — the protocol's one-ack-per-batch flow control
makes every real client wait like that.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import resource
import select
import socket
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.set_assoc import SetAssociativeCache
from repro.core.mct import MissClassificationTable
from repro.serve.protocol import FrameError, encode_frame, read_frame, write_frame
from repro.workloads import build

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(HERE, ".run")

#: Traces the sessions replay; a session adds its own tag offset, which
#: moves every address to a disjoint tag range without changing which
#: references hit, miss or conflict.
POOL_BENCHES = ("tomcatv", "gcc", "go", "swim")
OFFSET_SHIFT = 32
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class ServiceShape:
    """The traffic mix of one service workload."""

    pool_refs: int
    session_refs: int
    batch_refs: int
    #: A query follows every ``query_every``-th batch.
    query_every: int
    queries: Tuple[str, ...]
    budget_bytes: int
    cache_kb: int = 16


QUERIES = ("conflict_share", "mrc", "verdict")

SHAPES: Dict[Tuple[str, str], ServiceShape] = {
    # Long sessions, large batches, a query after every 8th batch: the
    # ingest path (decode, TenantPipeline.feed, ShardsEstimator.feed), with
    # session set-up and every query kind in turn.  The small budget makes
    # SHARDS' threshold fall early, so most refs go unsampled.
    ("service_stream", "full"): ServiceShape(
        131_072, 131_072, 4_096, 8, QUERIES, 1 << 20
    ),
    ("service_stream", "tiny"): ServiceShape(
        8_192, 8_192, 1_024, 4, QUERIES, 1 << 20
    ),
}


def build_pool(shape: ServiceShape, seed: int) -> List[np.ndarray]:
    return [
        build(bench, shape.pool_refs, seed=seed + i).addresses.astype(np.int64)
        for i, bench in enumerate(POOL_BENCHES)
    ]


def session_slice(shape: ServiceShape, index: int) -> Tuple[int, int]:
    """(pool trace, chunk) that session ``index`` replays."""
    chunks = shape.pool_refs // shape.session_refs
    return index % len(POOL_BENCHES), (index // len(POOL_BENCHES)) % chunks


def reference_counts(addresses: Sequence[int], cache_kb: int) -> Dict[str, int]:
    """Close-frame totals of a session, from a DM cache plus the MCT.

    Independent of the service's own pipeline: the library's set-
    associative cache at one way, with the MCT fed by its eviction hook
    and consulted before each fill.
    """
    geometry = CacheGeometry(size=cache_kb * 1024, assoc=1, line_size=64)
    mct = MissClassificationTable(geometry)
    cache = SetAssociativeCache(geometry, name="reference", on_evict=mct.on_evict)
    misses = conflicts = 0
    for addr in addresses:
        if cache.lookup(addr).hit:
            continue
        misses += 1
        if mct.classify(addr).is_conflict:
            conflicts += 1
        cache.fill(addr)
    return {"refs": len(addresses), "misses": misses, "conflict_misses": conflicts}


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a process, from ``/proc``."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as src:
        fields = src.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as src:
        for line in src:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Server:
    """One service process on a unix socket under ``perfbench/.run``."""

    def __init__(
        self, tag: str, lifetime_s: float, spans_path: Optional[str] = None, run_id: str = ""
    ) -> None:
        os.makedirs(RUN_DIR, exist_ok=True)
        sock = os.path.join(RUN_DIR, f"{tag}-{os.getpid()}.sock")
        # Relative to the checkout root, the server's working directory:
        # short enough for sun_path wherever the checkout lives.
        self.socket_arg = os.path.relpath(sock, ROOT)
        self.socket_path = os.path.relpath(sock)
        self._sock_abs = sock
        self.lifetime_s = lifetime_s
        self.spans_path = spans_path
        self.run_id = run_id
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> float:
        """Spawn the server; returns seconds until it listens."""
        if os.path.exists(self._sock_abs):
            os.unlink(self._sock_abs)
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "repro.serve"]
        else:
            cmd = [
                sys.executable, os.path.join(HERE, "launch_server.py"),
                "--spans-out", self.spans_path, "--run-id", self.run_id, "--",
            ]
        # --max-runtime: a server orphaned by a killed run still exits.
        cmd += ["--socket", self.socket_arg, "--max-runtime", str(self.lifetime_s)]
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL
        )
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        if not line.startswith(b"serve: listening"):
            self.kill()
            raise RuntimeError(f"server did not start: {line!r}")
        return time.perf_counter() - started

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def stop(self) -> None:
        """Send the shutdown frame and wait for the process to exit."""
        if self.proc is None:
            return
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
                conn.settimeout(STOP_TIMEOUT_S)
                conn.connect(self.socket_path)
                conn.sendall(encode_frame({"op": "shutdown"}))
                header = conn.recv(4)
                if len(header) == 4:
                    conn.recv(struct.unpack(">I", header)[0])
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self._cleanup()

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._cleanup()

    def _cleanup(self) -> None:
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
        if os.path.exists(self._sock_abs):
            os.unlink(self._sock_abs)


@dataclass
class LoadResult:
    attempted: int = 0
    failed: int = 0
    refs: int = 0
    sessions: int = 0
    elapsed_s: float = 0.0
    server_cpu_s: float = 0.0
    client_cpu_s: float = 0.0
    ack_s: List[float] = field(default_factory=list)
    answer_s: List[float] = field(default_factory=list)
    session_s: List[float] = field(default_factory=list)
    #: (session index, close-frame totals) for the output check.
    closes: List[Tuple[int, Dict[str, object]]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


async def _request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    message: Dict[str, object],
    load: LoadResult,
    latencies: Optional[List[float]],
) -> Optional[Dict[str, object]]:
    """One closed-loop round trip; returns the reply, or ``None`` after
    counting an error reply or a broken connection as failed."""
    load.attempted += 1
    sent = time.perf_counter()
    try:
        await write_frame(writer, message)
        reply = await read_frame(reader)
    except (FrameError, OSError, ConnectionError) as exc:
        reply = {"ok": False, "error": repr(exc)}
    if latencies is not None:
        latencies.append(time.perf_counter() - sent)
    if reply is None or not reply.get("ok"):
        load.failed += 1
        load.errors.append(f"{message.get('op')}: {reply!r}"[:200])
        return None
    return reply


async def _session(
    server: Server, shape: ServiceShape, pool: List[np.ndarray], index: int, load: LoadResult
) -> None:
    trace, chunk = session_slice(shape, index)
    start = chunk * shape.session_refs
    addrs = pool[trace][start : start + shape.session_refs] + (index << OFFSET_SHIFT)
    began = time.perf_counter()
    try:
        reader, writer = await asyncio.open_unix_connection(server.socket_path)
    except OSError as exc:
        load.attempted += 1
        load.failed += 1
        load.errors.append(f"session {index}: connect: {exc!r}"[:200])
        return
    try:
        opened = await _request(
            reader, writer,
            {"op": "open", "tenant": f"tenant-{index % 8}", "cache_kb": shape.cache_kb,
             "budget_bytes": shape.budget_bytes, "seed": index},
            load, None,
        )
        if opened is None:
            return
        queries = itertools.cycle(shape.queries)
        for number, first in enumerate(range(0, shape.session_refs, shape.batch_refs), 1):
            batch = addrs[first : first + shape.batch_refs].tolist()
            ack = await _request(reader, writer, {"op": "batch", "addrs": batch}, load, load.ack_s)
            if ack is None:
                return
            if ack.get("refs") != len(batch):
                load.failed += 1
                load.errors.append(f"batch ack {ack.get('refs')!r} != {len(batch)}")
                return
            load.refs += len(batch)
            if number % shape.query_every == 0:
                query = {"op": "query", "what": next(queries)}
                if await _request(reader, writer, query, load, load.answer_s) is None:
                    return
        closed = await _request(reader, writer, {"op": "close"}, load, None)
        if closed is None:
            return
        load.sessions += 1
        load.session_s.append(time.perf_counter() - began)
        # A missing total reads None and fails the reference comparison.
        load.closes.append(
            (index, {key: closed.get(key) for key in ("refs", "misses", "conflict_misses")})
        )
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (OSError, ConnectionError):
            pass


async def _drive(
    server: Server, shape: ServiceShape, pool: List[np.ndarray], seconds: float, connections: int
) -> LoadResult:
    load = LoadResult()
    numbers = itertools.count()
    started = time.perf_counter()
    deadline = started + seconds
    server_cpu = proc_cpu_seconds(server.pid)
    client_cpu = self_cpu_seconds()

    async def connection() -> None:
        while time.perf_counter() < deadline:
            await _session(server, shape, pool, next(numbers), load)

    await asyncio.gather(*(connection() for _ in range(connections)))
    load.elapsed_s = time.perf_counter() - started
    load.server_cpu_s = proc_cpu_seconds(server.pid) - server_cpu
    load.client_cpu_s = self_cpu_seconds() - client_cpu
    return load


def drive(
    server: Server, shape: ServiceShape, pool: List[np.ndarray], seconds: float, connections: int
) -> LoadResult:
    """Run the closed loop for ``seconds``; sessions in flight finish.

    With two or more CPUs the server and this client are pinned to
    different ones for the window, so the scheduler never stacks them on
    one CPU while the other idles (a run-to-run noise source otherwise).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        os.sched_setaffinity(server.pid, {cpus[0]})
        os.sched_setaffinity(0, {cpus[1]})
    try:
        return asyncio.run(_drive(server, shape, pool, seconds, connections))
    finally:
        os.sched_setaffinity(0, cpus)


def check_closes(shape: ServiceShape, pool: List[np.ndarray], load: LoadResult) -> int:
    """Compare every close frame with the reference; returns mismatches."""
    expected: Dict[Tuple[int, int], Dict[str, int]] = {}
    mismatches = 0
    for index, totals in load.closes:
        key = session_slice(shape, index)
        if key not in expected:
            start = key[1] * shape.session_refs
            addresses = pool[key[0]][start : start + shape.session_refs].tolist()
            expected[key] = reference_counts(addresses, shape.cache_kb)
        if totals != expected[key]:
            mismatches += 1
            load.errors.append(f"session {index}: close {totals} != reference {expected[key]}")
    return mismatches
