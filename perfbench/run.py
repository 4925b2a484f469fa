"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sharded_read --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics over ``--seconds`` of
closed-loop traffic; ``--trace 1`` makes the traced run and reports the
per-layer metrics.  Every metric is printed by name with its unit, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong answer
from the program (see ``workloads.audit``) ends the run with exit code
1 and no result line.  See ``perfbench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    # Never measure some other installed copy of the program.
    sys.exit(f"{SRC}/repro not found: run from a checkout of the repository")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads as wl  # noqa: E402

#: End-to-end metrics (the untraced run): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "get_p50_ms": "ms",
    "contains_p50_ms": "ms",
    "write_keys_per_s": "1/s",
    "sim_ns_per_lookup": "ns",
    "rss_mb": "MB",
    "ok_ops_frac": "1",
}

#: Per-layer metrics (the traced run): name -> unit.  Times are per
#: key, per call, per write batch or per set-up, as the unit says.
_US, _CALL = "us/key", "ms/call"
PER_LAYER = {
    "core.lookup_us_per_key": _US,
    "core.bulk_load_s": "s/setup",
    "core.plan_compile_ms": _CALL,
    "core.write_ms_per_batch": "ms/batch",
    "core.plan_patches_per_batch": "count",
    "core.plan_subtree_recompiles_per_batch": "count",
    "core.plan_recompiles_per_batch": "count",
    "core.sim_misses_per_lookup": "count",
    "core.mem_bytes_per_key": "B",
    "planstore.decode_us_per_key": _US,
    "planstore.contains_us_per_key": _US,
    "planstore.verify_ms": _CALL,
    "planstore.open_ms": _CALL,
    "planstore.overlay_keys": "count",
    "planstore.rung": "count",
    "planstore.disk_bytes_per_key": "B",
    "durability.wal_append_ms": _CALL,
    "durability.fsyncs_per_batch": "count",
    "durability.write_bytes_per_user_byte": "1",
    "durability.publish_tail_ms": _CALL,
    "durability.publish_plan_ms": _CALL,
    "durability.republishes_per_1k_keys": "count",
    "sharding.route_us_per_key": _US,
    "sharding.router_corrected_frac": "1",
    "sharding.send_ms": _CALL,
    "sharding.recv_ms": _CALL,
    "sharding.worker_ms": _CALL,
    "sharding.coordinator_self_ms": _CALL,
    "sharding.lock_wait_ms": _CALL,
    "sharding.create_s": "s/setup",
    "sharding.spawn_s": "s/setup",
    "sharding.restarts": "count",
    "sharding.open_breakers": "count",
    "trace.overhead_frac": "1",
}


def p50_ms(calls) -> float:
    return float(np.median([seconds for seconds, _ in calls])) * 1e3


def keys_per_s(calls, seconds: float) -> float:
    return sum(answered for _, answered in calls) / seconds


def end_to_end(inputs: wl.Inputs, seconds: float, state_root: str):
    """The untraced run; returns ``(metrics, samples, notes)``."""
    target, setup_s = wl.setup_median(inputs, state_root)
    try:
        sim_ns, _ = wl.simulate(target.index, inputs)
        writer = inputs.writer()
        mixed = inputs.workload == "sharded_mixed"
        if mixed:
            wl.warm_writes(target, writer)
        samples, start, end = wl.run_clients(
            inputs, target.index, writer,
            seconds=seconds if mixed else seconds * wl.READ_SHARE)
        if mixed:
            write_window = (start, end)
        else:
            wl.warm_writes(target, writer)
            probe = wl.Samples()
            write_window = wl.write_probe(
                target.index, writer, probe,
                seconds=seconds * (1 - wl.READ_SHARE))
            samples.merge(probe)
        wl.audit_writes(target.index, writer)
        rss = wl.peak_rss_mb(target)
    finally:
        target.close()
    calls = samples.calls
    write_s = write_window[1] - write_window[0]
    metrics = {
        "setup_s": setup_s,
        "get_p50_ms": p50_ms(calls["get"]),
        "contains_p50_ms": p50_ms(calls["contains"]),
        "write_keys_per_s": keys_per_s(calls["write"], write_s),
        "sim_ns_per_lookup": sim_ns,
        "rss_mb": rss,
        "ok_ops_frac": 1.0 - samples.failed / samples.attempted,
    }
    notes = {op: len(op_calls) for op, op_calls in calls.items()}
    return metrics, samples, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    inputs = wl.make_inputs(args.workload, args.seed)
    state_parent = os.path.join(HERE, ".state")
    os.makedirs(state_parent, exist_ok=True)
    state_root = tempfile.mkdtemp(prefix="run-", dir=state_parent)
    try:
        if args.trace:
            dump = os.path.join(
                state_parent, f"spans-{args.workload}-{args.seed}.json")
            values, samples = layers.traced_run(inputs, state_root, dump)
            units = PER_LAYER
            print(f"spans: {dump}")
        else:
            values, samples, notes = end_to_end(inputs, args.seconds, state_root)
            units = END_TO_END
            print("samples: " + ", ".join(
                f"{op} {count} calls" for op, count in sorted(notes.items())))
    except wl.AuditError as exc:
        print(f"audit failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metric set mismatch: {sorted(missing)}")
    for name, unit in units.items():
        print(f"{name:42s} {values[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
