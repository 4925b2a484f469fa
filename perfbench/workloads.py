"""Seeded inputs, set-up, closed-loop clients and output audits.

Every workload serves the same 200,000 ``fb_like`` keys (value = key
rank).  Inputs are made in this process from ``--seed``; the program
under test only ever sees the generated batches.  Every answer is
checked against the rank map or a shadow key set, and a wrong answer
raises :class:`AuditError` -- it is never counted as a metric.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.bench.harness import GHZ
from repro.data.datasets import fb_like
from repro.sharding import (
    DeadlineExceeded,
    ShardedDILI,
    ShardUnavailableError,
    WorkerRemoteError,
)
from repro.sharding.worker import REPUBLISH_THRESHOLD
from repro.simulate.cache import CacheSimulator
from repro.simulate.tracer import CostTracer
from repro.workloads.generator import zipf_indices

WORKLOADS = ("sharded_read", "sharded_mixed")

N_KEYS = 200_000
#: The key set is the same in every run; ``--seed`` drives the request
#: streams.  ``fb_like``'s shape (dense vs sparse runs) is drawn from
#: its seed, and per-seed key sets moved the simulated cost alone by
#: 28% (quartile spread over five seeds), which would swamp every bound.
DATASET_SEED = 0
BATCH = 2048
WRITE_BATCH = 256
#: The writer deletes the batch it inserted this many batches earlier,
#: so the live key count stays level.
DELETE_LAG = 8
#: Rank range the writer inserts into (inside the second range shard).
HOT_SLICE = (0.60, 0.70)
ZIPF_THETA = 0.99
#: Distinct pre-generated batches per op class; clients cycle them.
POOL_BATCHES = 32
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Writes in the traced run's probe (the drain of the live batches
#: comes on top).  The untimed run's probe runs for a time instead.
PROBE_OPS = 40
#: Share of ``--seconds`` that ``sharded_read`` spends reading; the
#: write probe takes the rest.  Reads are steady within seconds; a
#: write costs 100-200 ms and its median follows the host's slow and
#: fast phases, so the writes get the longer share of the run.
READ_SHARE = 0.4
#: The ``sharded_mixed`` writer's pause after each acknowledged batch.
#: The coordinator lock does not hand over fairly: a writer that
#: re-requests it at once leaves the reader about 3 calls a second.
#: With the pause, reads arriving in the gap are served and the rest
#: wait behind a write, so the median shows the read path and the tail
#: shows the wait.
WRITER_THINK_S = 0.02
#: Writes that bring a fleet to its write steady state: the first
#: periodic republish (the hot slice lies in one shard).  From then on
#: every write also maintains the shard's in-memory plan, which
#: multiplies its cost.
WARM_WRITE_OPS = REPUBLISH_THRESHOLD // WRITE_BATCH
NUM_SHARDS = 2

#: Calls the fleet refuses; they count as failed, not as wrong.
REFUSED = (ShardUnavailableError, DeadlineExceeded, WorkerRemoteError)


class AuditError(AssertionError):
    """The program returned a wrong answer."""


def audit(ok: bool, what: str) -> None:
    if not ok:
        raise AuditError(what)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass
class WriteBatch:
    """One insert batch of the writer and its shadow state."""

    keys: np.ndarray
    values: list
    #: False once a call on the batch was refused: the fleet may have
    #: applied it in part, so its masks and read-back are not audited
    #: until an acknowledged delete makes its keys absent again.
    known: bool = True


class HotWriter:
    """Seeded insert/delete stream over the hot slice of the key range.

    Each insert batch holds ``WRITE_BATCH`` fresh keys strictly between
    two neighbouring base keys (so they are never base keys); once
    more than ``DELETE_LAG`` batches are live, every insert is followed
    by a delete of the oldest live batch.  The op sequence depends only
    on the seed and on which calls the fleet refuses, never on timing.
    ``live`` and ``deleted`` shadow the index: :meth:`next_op` applies
    its op to ``live``, :meth:`acknowledged` records a delete in
    ``deleted``, and :meth:`refused` marks the batch of a refused op
    as unknown.
    """

    def __init__(self, keys: np.ndarray, seed: int) -> None:
        n = len(keys)
        self._keys = keys
        self._gaps = np.diff(keys)
        self._ranks = np.arange(int(HOT_SLICE[0] * n), int(HOT_SLICE[1] * n))
        self._rng = np.random.default_rng([seed, 1])
        self._next = 0
        self.live: deque[WriteBatch] = deque()
        #: The batch of the last acknowledged delete.
        self.deleted: WriteBatch | None = None

    def _batch(self) -> WriteBatch:
        b = self._next
        self._next += 1
        ranks = np.sort(self._rng.choice(self._ranks, WRITE_BATCH, replace=False))
        # Distinct fractions per live batch; none equals the 1/2 that
        # absent probe keys use.
        frac = (b % 64 + 1) / 65.0
        keys = self._keys[ranks] + self._gaps[ranks] * frac
        values = [-(1 + b * WRITE_BATCH + i) for i in range(WRITE_BATCH)]
        return WriteBatch(keys, values)

    def next_op(self) -> tuple[str, WriteBatch]:
        """The next ``(kind, batch)`` write."""
        if len(self.live) > DELETE_LAG:
            return "delete", self.live.popleft()
        batch = self._batch()
        self.live.append(batch)
        return "insert", batch

    def acknowledged(self, kind: str, batch: WriteBatch) -> None:
        """The fleet answered ``kind`` on ``batch``."""
        if kind == "delete":
            self.deleted = batch

    def refused(self, kind: str, batch: WriteBatch) -> None:
        """The fleet refused ``kind`` on ``batch``: its outcome is
        unknown.  A refused delete goes back to the front of ``live``,
        so the next delete retries it."""
        batch.known = False
        if kind == "delete":
            self.live.appendleft(batch)

    def drain(self):
        """One delete per batch live now; a refused delete is retried
        by the next one."""
        for _ in range(len(self.live)):
            yield "delete", self.live.popleft()


@dataclass
class Inputs:
    workload: str
    seed: int
    keys: np.ndarray
    gets: list = field(default_factory=list)       # (keys, expected values)
    contains: list = field(default_factory=list)   # (keys, expected mask)
    sim_keys: np.ndarray | None = None
    read_mix: np.ndarray | None = None             # True: get, False: contains

    def writer(self) -> HotWriter:
        return HotWriter(self.keys, self.seed)


def make_inputs(workload: str, seed: int) -> Inputs:
    """All batches a run issues, generated from ``seed`` up front."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    keys = fb_like(N_KEYS, DATASET_SEED)
    gaps = np.diff(keys)
    n = len(keys)
    rng = np.random.default_rng([seed, 0])
    inputs = Inputs(workload, seed, keys)
    batch = BATCH
    if workload == "sharded_mixed":
        lo, hi = int(HOT_SLICE[0] * n), int(HOT_SLICE[1] * n)
        readable = np.r_[0:lo - 1, hi:n - 1]  # never written, never last
    else:
        readable = np.arange(n - 1)

    def draw(count: int) -> np.ndarray:
        return zipf_indices(len(readable), count, rng, ZIPF_THETA)

    for _ in range(POOL_BATCHES):
        ranks = readable[draw(batch)]
        inputs.gets.append((keys[ranks], ranks.tolist()))
        half = batch // 2
        present = readable[draw(half)]
        absent = readable[rng.integers(0, len(readable), batch - half)]
        probe = np.concatenate(
            [keys[present], keys[absent] + gaps[absent] / 2]
        )
        expected = np.arange(batch) < half
        order = rng.permutation(batch)
        inputs.contains.append((probe[order], expected[order]))
    inputs.sim_keys = keys[readable[draw(16_384)]]
    inputs.read_mix = rng.random(4096) < 0.5
    return inputs


# ----------------------------------------------------------------------
# Latency samples
# ----------------------------------------------------------------------


class Samples:
    """Timed calls of one or more client threads.

    ``calls[op]`` holds one ``(seconds, keys answered)`` pair per call.
    """

    def __init__(self) -> None:
        self.calls: dict[str, list[tuple[float, int]]] = {}
        self.attempted = 0
        self.failed = 0

    def timed(self, op: str, count: int, fn, *args):
        """Call ``fn`` on ``count`` keys, recording its latency; a
        refused call counts as failed and answers None."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except REFUSED:
            self.failed += 1
            result = None
        t1 = time.perf_counter()
        answered = 0 if result is None else count
        self.calls.setdefault(op, []).append((t1 - t0, answered))
        return result

    def merge(self, other: "Samples") -> None:
        for op, calls in other.calls.items():
            self.calls.setdefault(op, []).extend(calls)
        self.attempted += other.attempted
        self.failed += other.failed


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


class Target:
    """The shard fleet of one run and its state directory."""

    def __init__(self, index: ShardedDILI, state_dir: str) -> None:
        self.index = index
        self.state_dir = state_dir

    def close(self) -> None:
        """Stop and join the workers, then remove the state."""
        self.index.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def setup(inputs: Inputs, state_root: str, *, processes: bool = True):
    """Build the served index; returns ``(target, seconds)``.

    The time runs from keys in hand to the first answered request:
    fleet create (bulk load + publish) plus worker spawn.
    """
    gc.collect()
    first = inputs.gets[0][0]
    state_dir = tempfile.mkdtemp(prefix="fleet-", dir=state_root)
    t0 = time.perf_counter()
    fleet = ShardedDILI.create(
        os.path.join(state_dir, "fleet"), inputs.keys,
        num_shards=NUM_SHARDS, partition="range", tuning="none",
        processes=processes, sync=True,
    )
    target = Target(fleet, state_dir)
    fleet.get_batch(first)
    return target, time.perf_counter() - t0


def setup_median(inputs: Inputs, state_root: str):
    """Set up ``SETUPS`` times; keep the last target, return the median."""
    times = []
    target = None
    for _ in range(SETUPS):
        if target is not None:
            target.close()
        target, seconds = setup(inputs, state_root)
        times.append(seconds)
    return target, float(np.median(times))


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------


def read_get(samples: Samples, index, batch) -> None:
    keys, expected = batch
    values = samples.timed("get", len(keys), index.get_batch, keys)
    if values is not None:
        audit(list(values) == expected, "get_batch returned a wrong value")


def read_contains(samples: Samples, index, batch) -> None:
    keys, expected = batch
    mask = samples.timed("contains", len(keys), index.contains_batch, keys)
    if mask is not None:
        audit(np.array_equal(np.asarray(mask, dtype=bool), expected),
              "contains_batch returned a wrong answer")


def write_op(samples: Samples, index, writer: HotWriter, op) -> None:
    kind, batch = op
    if kind == "insert":
        mask = samples.timed("write", len(batch.keys), index.insert_batch,
                             batch.keys, batch.values)
    else:
        mask = samples.timed("write", len(batch.keys), index.delete_batch,
                             batch.keys)
    if mask is None:
        writer.refused(kind, batch)
        return
    if batch.known:
        audit(bool(np.all(mask)), f"{kind}_batch reported a missed key")
    writer.acknowledged(kind, batch)


def read_step(inputs: Inputs, samples: Samples, index, role: str,
              i: int) -> None:
    """Request ``i`` of a reader playing ``role`` (see
    :func:`client_plan`)."""
    if role == "coin":
        get, k = inputs.read_mix[i % len(inputs.read_mix)], i
    else:
        get, k = i % 2 == 0, i // 2
    if get:
        read_get(samples, index, inputs.gets[k % len(inputs.gets)])
    else:
        read_contains(samples, index, inputs.contains[k % len(inputs.contains)])


def client_plan(workload: str) -> list[str]:
    """The roles of a workload's closed-loop client threads.

    ``sharded_read`` has one reader, alternating ``get_batch`` and
    ``contains_batch``.  With two readers contending on the coordinator
    lock, how the lock was handed over changed from run to run (one run
    had contains waiting behind every get, the next almost none), and
    the medians moved by half.  Lock contention is measured on
    ``sharded_mixed``, whose reader waits behind the writer.  That
    reader picks get or contains by a seeded coin, since strict
    alternation locks into step with the writer's period and one class
    would always be the one that waits behind the write.
    """
    if workload == "sharded_read":
        return ["alternate"]
    return ["writer", "coin"]


def run_clients(inputs: Inputs, index, writer: HotWriter, *,
                seconds: float | None = None, ops: int | None = None):
    """Run the workload's client threads closed-loop.

    Stops after ``seconds`` of wall time or, with ``ops``, after each
    client issued that many requests (the traced run's fixed count).
    Returns ``(samples, start, end)`` in ``time.perf_counter`` seconds.
    """
    roles = client_plan(inputs.workload)
    results = [Samples() for _ in roles]
    errors: list[BaseException] = []
    end = None if seconds is None else time.perf_counter() + seconds

    def client(slot: int, role: str) -> None:
        samples = results[slot]
        try:
            i = 0
            while (ops is None or i < ops) and (
                end is None or time.perf_counter() < end
            ):
                if role == "writer":
                    write_op(samples, index, writer, writer.next_op())
                    time.sleep(WRITER_THINK_S)
                else:
                    read_step(inputs, samples, index, role, i)
                i += 1
        except Exception as exc:  # re-raised after the join
            errors.append(exc)

    t0 = time.perf_counter()
    threads = [
        threading.Thread(target=client, args=(slot, role), daemon=True)
        for slot, role in enumerate(roles)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    t1 = time.perf_counter()
    if errors:
        raise errors[0]
    merged = Samples()
    for samples in results:
        merged.merge(samples)
    return merged, t0, t1


def run_interleaved(inputs: Inputs, index, writer: HotWriter, ops: int):
    """The same per-client op sequences as :func:`run_clients`, issued
    round-robin from one thread, so every count repeats exactly."""
    roles = client_plan(inputs.workload)
    samples = Samples()
    for i in range(ops):
        for role in roles:
            if role == "writer":
                write_op(samples, index, writer, writer.next_op())
            else:
                read_step(inputs, samples, index, role, i)
    return samples


def warm_writes(target: Target, writer: HotWriter) -> None:
    """Untimed writes up to the fleet's first republish."""
    for _ in range(WARM_WRITE_OPS):
        write_op(Samples(), target.index, writer, writer.next_op())


def write_probe(index, writer: HotWriter, samples: Samples, *,
                seconds: float | None = None):
    """The writes after a read-only window: for ``seconds`` of wall
    time (at least one write) or, without it, ``PROBE_OPS`` writes.
    Drains, so the index ends with its base keys.  Returns the probe's
    ``(start, end)``."""
    t0 = time.perf_counter()
    done = 0
    while (done < PROBE_OPS if seconds is None
           else done == 0 or time.perf_counter() - t0 < seconds):
        write_op(samples, index, writer, writer.next_op())
        done += 1
    for op in writer.drain():
        write_op(samples, index, writer, op)
    return t0, time.perf_counter()


def audit_writes(index, writer: HotWriter) -> None:
    """Live fresh keys read back their values; the last deleted batch
    reads back absent.  Batches with a refused call are skipped."""
    for batch in writer.live:
        if batch.known:
            audit(list(index.get_batch(batch.keys)) == batch.values,
                  "an acknowledged insert does not read back")
    if writer.deleted is not None:
        audit(all(v is None for v in index.get_batch(writer.deleted.keys)),
              "an acknowledged delete still reads back")


def simulate(index, inputs: Inputs) -> tuple[float, float]:
    """Simulated ns and cache misses per lookup over the seeded sample.

    The cache is sized as ``repro.bench.harness`` sizes it (1% of the
    keys, at least 512 lines); the first 30% of the sample warms it.
    """
    tracer = CostTracer(CacheSimulator(max(512, len(inputs.keys) // 100)))
    sample = inputs.sim_keys
    split = int(len(sample) * 0.3)
    index.get_batch(sample[:split], tracer)
    tracer.reset_counters()
    index.get_batch(sample[split:], tracer)
    n = len(sample) - split
    return tracer.total_cycles / GHZ / n, tracer.cache_misses / n


def peak_rss_mb(target: Target) -> float:
    """Peak RSS (``VmHWM``) summed over this process and its workers."""
    pids = [os.getpid()]
    if target.index.processes:
        pids += [s["pid"] for s in target.index.status()["shards"]]
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0
