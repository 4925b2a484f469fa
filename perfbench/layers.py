"""The traced run: per-layer metrics from spans around public calls.

It issues a fixed number of requests, so its counts repeat exactly
for a seed, and makes three passes over the same seeded ops:

* reference -- untraced, for the tracing overhead;
* pass (a) -- wraps the request side: the ``ShardedDILI`` coordinator,
  ``ShardRouter.route`` and the ``ProcessHandle`` pipe
  (``processes=True``, the client threads of the workload);
* pass (b) -- ``processes=False`` so the shard workers run in this
  process and their layers can be wrapped:
  ``ShardWorker``, ``MmapDILI``, ``PlanStore``, ``FlatPlan``,
  ``DurableDILI``, ``WriteAheadLog``, ``DILI`` writes and ``os.fsync``.
  Its clients' ops are issued round-robin from one thread, so counts
  that depend on interleaving (overlay size at read time) repeat too.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

import numpy as np

import repro.core.dili as dili_module
from repro.core.dili import DILI
from repro.core.flat import FlatPlan
from repro.durability.durable import DurableDILI
from repro.durability.wal import WriteAheadLog
from repro.planstore.serve import MmapDILI
from repro.planstore.store import PlanStore
from repro.sharding import ShardedDILI, ShardRouter, ShardWorker
from repro.sharding.coordinator import ProcessHandle

from spans import SpanRecorder, reduce_spans
from workloads import (
    Samples,
    audit_writes,
    run_clients,
    run_interleaved,
    setup,
    simulate,
    warm_writes,
    write_probe,
)

#: Requests per client thread in each pass of the traced run.
TRACE_OPS = {"sharded_read": 120, "sharded_mixed": 40}

READS = ("get_batch", "contains_batch")
WRITES = ("insert_batch", "delete_batch")
PLAN_COUNTERS = ("plan_patches", "plan_subtree_recompiles", "plan_recompiles")


def read_wchar() -> int:
    """Bytes this process has passed to write calls (``/proc/self/io``)."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def wrap_core(rec: SpanRecorder) -> None:
    probes = {c: (lambda name: lambda d: getattr(d, name))(c)
              for c in PLAN_COUNTERS}
    rec.wrap(DILI, "bulk_load", size_arg=1)
    for verb in WRITES:
        rec.wrap(DILI, verb, size_arg=1, probes=probes)
    rec.wrap(FlatPlan, "lookup_batch", size_arg=1)
    rec.wrap(dili_module, "compile_plan", name="compile_plan")


def wrap_requests(rec: SpanRecorder, **write_options) -> None:
    rec.wrap(ShardedDILI, "create")
    rec.wrap(ShardedDILI, "__init__")
    for verb in READS:
        rec.wrap(ShardedDILI, verb, size_arg=1)
    for verb in WRITES:
        rec.wrap(ShardedDILI, verb, size_arg=1, **write_options)


def wrap_coordinator(rec: SpanRecorder) -> None:
    wrap_requests(rec)
    rec.wrap(ShardRouter, "route", size_arg=1)
    rec.wrap(ProcessHandle, "send")
    rec.wrap(ProcessHandle, "recv")


def wrap_worker_side(rec: SpanRecorder, workers: list) -> None:
    wrap_requests(rec, probes={"wchar": lambda _: read_wchar()})
    wrap_core(rec)
    rec.wrap(ShardWorker, "__init__", keep=workers)
    for verb in READS + WRITES:
        rec.wrap(ShardWorker, verb, size_arg=1)
    rec.wrap(MmapDILI, "__init__")
    rec.wrap(PlanStore, "get_batch", size_arg=1,
             marks={"overlay": lambda store: store.overlay_size})
    rec.wrap(PlanStore, "contains_batch", size_arg=1)
    rec.wrap(PlanStore, "verify")
    for verb in WRITES + ("bulk_load", "publish_plan", "publish_tail"):
        rec.wrap(DurableDILI, verb)
    rec.wrap(WriteAheadLog, "append")
    rec.wrap(os, "fsync")


# ----------------------------------------------------------------------
# Running the passes
# ----------------------------------------------------------------------


def fixed_ops(inputs, target, rec: SpanRecorder | None = None,
              *, interleaved: bool = False):
    """The traced run's op sequence, with untraced warm-up writes.

    Returns ``(samples, seconds)``; the time covers the client ops
    only, not the write probe.
    """
    ops = TRACE_OPS[inputs.workload]
    index = target.index
    writer = inputs.writer()
    untraced = rec.paused if rec is not None else contextlib.nullcontext

    mixed = inputs.workload == "sharded_mixed"
    if mixed:
        with untraced():
            warm_writes(target, writer)
    t0 = time.perf_counter()
    if interleaved:
        samples = run_interleaved(inputs, index, writer, ops)
    else:
        samples, _, _ = run_clients(inputs, index, writer, ops=ops)
    elapsed = time.perf_counter() - t0
    if mixed:
        audit_writes(index, writer)
    else:
        with untraced():
            warm_writes(target, writer)
        write_probe(index, writer, samples)
    return samples, elapsed


def dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def traced_run(inputs, state_root: str, dump_path: str | None = None):
    """Run every pass; returns ``(metrics, samples)``."""
    totals = Samples()
    extra: dict = {}

    target, _ = setup(inputs, state_root)
    try:
        _, extra["sim_misses"] = simulate(target.index, inputs)
        samples, plain_s = fixed_ops(inputs, target)
        totals.merge(samples)
    finally:
        target.close()

    rec_a = SpanRecorder()
    wrap_coordinator(rec_a)
    try:
        target, _ = setup(inputs, state_root)
        try:
            samples, traced_s = fixed_ops(inputs, target, rec_a)
            totals.merge(samples)
            extra["live_keys"] = len(target.index)
            extra["status"] = target.index.status()
            extra["disk_bytes"] = dir_bytes(target.state_dir)
        finally:
            target.close()
    finally:
        rec_a.restore()
    extra["overhead"] = traced_s / plain_s - 1.0

    rec_b = SpanRecorder()
    workers: list = []
    wrap_worker_side(rec_b, workers)
    try:
        target, _ = setup(inputs, state_root, processes=False)
        try:
            samples, _ = fixed_ops(inputs, target, rec_b, interleaved=True)
            totals.merge(samples)
            live = [w for w in workers if w.served is not None]
            extra["worker_status"] = [w.status() for w in live]
            extra["mem_bytes"] = sum(
                w.durable.index.memory_bytes() for w in live
            )
        finally:
            target.close()
    finally:
        rec_b.restore()
    if dump_path is not None:
        with open(dump_path, "w") as fh:
            json.dump({"pass_a": rec_a.spans, "pass_b": rec_b.spans}, fh)
    a, b = reduce_spans(rec_a.spans), reduce_spans(rec_b.spans)
    check_self_times(a)
    check_self_times(b)
    metrics = layer_metrics(a, b, extra)
    return metrics, totals


#: Slack for comparing ``time.perf_counter`` stamps, in seconds.
EPS = 1e-9


def check_self_times(spans: list[dict]) -> None:
    """Check the span tree that self times are computed from.

    Every child lies inside its parent's ``[start, end]`` and the
    children of one span do not overlap.  These are what make each
    span's self time non-negative and the self times plus lead of a
    request sum to the request span's duration.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["self"] < -EPS:
            raise AssertionError(f"{span['name']} has a negative self time")
        if span["parent"] is None:
            continue
        parent = by_id[span["parent"]]
        if span["start"] < parent["start"] - EPS or span["end"] > parent["end"] + EPS:
            raise AssertionError(
                f"{span['name']} escapes its parent {parent['name']}")
        children.setdefault(span["parent"], []).append(span)
    for kids in children.values():
        kids = sorted(kids, key=lambda k: k["start"])
        for before, after in zip(kids, kids[1:]):
            if after["start"] < before["end"] - EPS:
                raise AssertionError(
                    f"{before['name']} and {after['name']} overlap")


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------


class SpanView:
    """Span queries restricted by name and by request kind."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        by_id = {s["id"]: s for s in spans}
        self.root = {s["id"]: by_id[s["request"]]["name"] for s in spans}

    def select(self, name: str, under: tuple = ()) -> list[dict]:
        """Spans called ``name`` inside requests whose root ends with
        one of ``under`` (any request when empty)."""
        return [
            s for s in self.spans
            if s["name"] == name and (
                not under or self.root[s["id"]].endswith(under)
            )
        ]

    def per_key_us(self, name: str, key: str = "dur", under: tuple = ()) -> float:
        spans = self.select(name, under)
        keys = sum(s["n"] or 0 for s in spans)
        return sum(s[key] for s in spans) / keys * 1e6 if keys else 0.0

    def mean_ms(self, name: str, key: str = "dur", under: tuple = ()) -> float:
        spans = self.select(name, under)
        return float(np.mean([s[key] for s in spans])) * 1e3 if spans else 0.0

    def count(self, name: str, under: tuple = ()) -> int:
        return len(self.select(name, under))

    def total(self, name: str, key: str, under: tuple = ()) -> float:
        return float(sum(s[key] for s in self.select(name, under)))


def layer_metrics(a_spans, b_spans, extra: dict) -> dict:
    """Per-layer metrics; a layer the workload bypasses reads 0.

    ``a_spans`` come from pass (a), ``b_spans`` from pass (b).
    """
    a, b = SpanView(a_spans), SpanView(b_spans)
    m: dict[str, float] = {}

    # core
    m["core.lookup_us_per_key"] = b.per_key_us(
        "FlatPlan.lookup_batch", under=READS)
    m["core.bulk_load_s"] = b.total("DILI.bulk_load", "dur")
    m["core.plan_compile_ms"] = b.mean_ms("compile_plan")
    writes = [s for verb in WRITES for s in b.select(f"DILI.{verb}")]
    n_writes = max(len(writes), 1)
    m["core.write_ms_per_batch"] = sum(s["self"] for s in writes) / n_writes * 1e3
    for counter in PLAN_COUNTERS:
        m[f"core.{counter}_per_batch"] = sum(s[counter] for s in writes) / n_writes
    m["core.sim_misses_per_lookup"] = extra["sim_misses"]
    m["core.mem_bytes_per_key"] = extra["mem_bytes"] / extra["live_keys"]

    # planstore
    m["planstore.decode_us_per_key"] = b.per_key_us("PlanStore.get_batch", "self")
    m["planstore.contains_us_per_key"] = b.per_key_us("PlanStore.contains_batch")
    m["planstore.verify_ms"] = b.mean_ms("PlanStore.verify")
    m["planstore.open_ms"] = b.mean_ms("MmapDILI.__init__")
    reads = b.select("PlanStore.get_batch")
    m["planstore.overlay_keys"] = (
        float(np.mean([s["overlay"] for s in reads])) if reads else 0.0)
    statuses = extra["worker_status"]
    m["planstore.rung"] = float(max((s["rung"] for s in statuses), default=0))
    m["planstore.disk_bytes_per_key"] = (
        extra["disk_bytes"] / extra["live_keys"])

    # durability
    requests = [s for verb in WRITES for s in b.select(f"ShardedDILI.{verb}")]
    batches = len(requests)
    written = sum(s["n"] for s in requests)
    user_bytes = sum(
        s["n"] * (16 if s["name"].endswith("insert_batch") else 8)
        for s in requests)
    m["durability.wal_append_ms"] = b.mean_ms("WriteAheadLog.append", under=WRITES)
    m["durability.fsyncs_per_batch"] = (
        b.count("os.fsync", under=WRITES) / batches if batches else 0.0)
    m["durability.write_bytes_per_user_byte"] = (
        sum(s["wchar"] for s in requests) / user_bytes if user_bytes else 0.0)
    m["durability.publish_tail_ms"] = b.mean_ms(
        "DurableDILI.publish_tail", under=WRITES)
    m["durability.publish_plan_ms"] = b.mean_ms(
        "DurableDILI.publish_plan", under=WRITES)
    republishes = sum(s["ops"]["republishes"] for s in statuses)
    m["durability.republishes_per_1k_keys"] = (
        republishes / written * 1e3 if written else 0.0)

    # sharding
    status = extra["status"]
    m["sharding.route_us_per_key"] = a.per_key_us("ShardRouter.route")
    router = status["router"]
    m["sharding.router_corrected_frac"] = (
        router["corrected"] / router["routed"] if router["routed"] else 0.0)
    m["sharding.send_ms"] = a.mean_ms("ProcessHandle.send", under=READS)
    m["sharding.recv_ms"] = a.mean_ms("ProcessHandle.recv", under=READS)
    m["sharding.worker_ms"] = b.mean_ms("ShardWorker.get_batch")
    m["sharding.coordinator_self_ms"] = a.mean_ms("ShardedDILI.get_batch", "self")
    m["sharding.lock_wait_ms"] = float(np.mean(
        [s["lead"] * 1e3 for verb in READS
         for s in a.select(f"ShardedDILI.{verb}")] or [0.0]))
    create = a.select("ShardedDILI.create")[0]
    init = a.select("ShardedDILI.__init__")[0]
    first_read = a.select("ShardedDILI.get_batch")[0]
    m["sharding.create_s"] = create["dur"] - init["dur"]
    m["sharding.spawn_s"] = init["dur"] + first_read["dur"]
    m["sharding.restarts"] = float(status["restarts"])
    m["sharding.open_breakers"] = float(status["open_breakers"])

    m["trace.overhead_frac"] = extra["overhead"]
    return m
