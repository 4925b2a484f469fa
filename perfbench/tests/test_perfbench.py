"""The benchmark's own tests, at tiny scale."""

import json
import os
import threading

import numpy as np
import pytest

import layers
import run
import workloads as wl
from repro.core.dili import DILI
from repro.sharding import ShardedDILI, ShardUnavailableError
from spans import SpanRecorder, reduce_spans

ROOT = os.path.dirname(run.HERE)

#: Per-layer metrics that are counts or sizes, not times.  The fleet's
#: bytes on disk are left out: a pickled snapshot of the same index
#: differs by a few hundred bytes between the first and a later
#: pickling in one process.
COUNTS = [
    name for name, unit in run.PER_LAYER.items()
    if (unit in ("count", "B") or name.endswith("_frac"))
    and name not in ("trace.overhead_frac", "planstore.disk_bytes_per_key")
] + ["durability.write_bytes_per_user_byte"]


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, workload, trace):
    args = ["--workload", workload, "--seed", "3", "--seconds", "0.3",
            "--trace", str(trace)]
    assert run.main(args) == 0
    out = capsys.readouterr().out
    result = last_json(out)
    units = run.PER_LAYER if trace else run.END_TO_END
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        assert any(line.split()[0] == name and line.split()[-1] == unit
                   for line in out.splitlines()), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_audit_trips_on_an_injected_wrong_value(tiny, capsys, monkeypatch):
    original = ShardedDILI.get_batch

    def wrong(self, keys, *args, **kwargs):
        values = original(self, keys, *args, **kwargs)
        values[len(values) // 2] = -7
        return values

    monkeypatch.setattr(ShardedDILI, "get_batch", wrong)
    args = ["--workload", "sharded_read", "--seed", "3", "--seconds", "0.3",
            "--trace", "0"]
    assert run.main(args) == 1
    captured = capsys.readouterr()
    assert "audit failed" in captured.err
    assert '"metrics"' not in captured.out


def test_audit_trips_on_a_wrong_membership_answer(tiny):
    inputs = wl.make_inputs("sharded_read", 5)
    index = DILI()
    index.bulk_load(inputs.keys)
    keys, expected = inputs.contains[0]
    flipped = (keys, ~expected)
    with pytest.raises(wl.AuditError):
        wl.read_contains(wl.Samples(), index, flipped)
    wl.read_contains(wl.Samples(), index, (keys, expected))


def test_writer_keeps_the_live_set_level_and_fresh(tiny):
    inputs = wl.make_inputs("sharded_mixed", 2)
    writer = inputs.writer()
    base = set(inputs.keys.tolist())
    seen_live, kinds = [], []
    for _ in range(30):
        kind, batch = writer.next_op()
        assert not base.intersection(batch.keys.tolist())
        seen_live.append(len(writer.live))
        kinds.append(kind)
    assert max(seen_live) == wl.DELETE_LAG + 1
    assert kinds[wl.DELETE_LAG:wl.DELETE_LAG + 4] == ["insert", "delete"] * 2
    assert list(writer.drain()) and not writer.live


def test_a_refused_delete_is_retried_and_not_audited(tiny):
    writer = wl.make_inputs("sharded_mixed", 2).writer()
    for _ in range(wl.DELETE_LAG + 1):
        writer.next_op()
    kind, batch = writer.next_op()
    assert kind == "delete" and batch.known
    writer.refused(kind, batch)
    again_kind, again = writer.next_op()
    assert again_kind == "delete" and again is batch and not batch.known


def test_a_refused_write_counts_as_failed_not_wrong(tiny, capsys, monkeypatch):
    """The refused insert is never applied, so auditing it as
    acknowledged would report a wrong answer."""
    original = ShardedDILI.insert_batch
    calls = []

    def refuse_one(self, keys, values=None):
        calls.append(keys)
        if len(calls) == 1:
            raise ShardUnavailableError("injected refusal", shard=1)
        return original(self, keys, values)

    monkeypatch.setattr(ShardedDILI, "insert_batch", refuse_one)
    monkeypatch.setattr(wl, "WARM_WRITE_OPS", 0)
    args = ["--workload", "sharded_mixed", "--seed", "3", "--seconds", "0.3",
            "--trace", "0"]
    assert run.main(args) == 0
    result = last_json(capsys.readouterr().out)
    assert result["correct"] is True and result["failed"] == 1


def span(i, parent, start, end):
    """A synthetic span of request 1."""
    return {"id": i, "name": f"s{i}", "parent": parent, "request": 1,
            "start": start, "end": end}


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        span(3, 2, 3.0, 4.0),
        span(2, 1, 2.0, 5.0),
        span(4, 1, 6.0, 9.0),
        span(1, None, 0.0, 10.0),
    ]
    got = {s["id"]: s for s in reduce_spans(spans)}
    assert got[1]["lead"] == 2.0
    assert got[1]["self"] == 10.0 - 3.0 - 3.0 - 2.0
    assert got[2]["self"] == 2.0 and got[2]["lead"] == 0.0
    assert got[3]["self"] == 1.0
    assert got[4]["self"] == 3.0
    assert sum(s["self"] + s["lead"] for s in got.values()) == got[1]["dur"]
    layers.check_self_times(list(got.values()))


@pytest.mark.parametrize("case, child", [
    ("overlapping children", (4.5, 7.0)),
    ("child escapes its parent", (6.0, 11.0)),
])
def test_self_time_check_trips_on_a_broken_span_tree(case, child):
    spans = [span(2, 1, 2.0, 5.0), span(4, 1, *child),
             span(1, None, 0.0, 10.0)]
    with pytest.raises(AssertionError):
        layers.check_self_times(reduce_spans(spans))


class _Toy:
    def outer(self, items):
        return self.inner(items) + 1

    def inner(self, items):
        return len(items)

    @classmethod
    def make(cls):
        return cls()


def test_recorder_nests_per_thread_and_restores():
    raw_outer, raw_make = vars(_Toy)["outer"], vars(_Toy)["make"]
    rec = SpanRecorder()
    rec.wrap(_Toy, "outer", size_arg=1)
    rec.wrap(_Toy, "inner", size_arg=1)
    rec.wrap(_Toy, "make")

    def client():
        for _ in range(50):
            assert _Toy.make().outer([1, 2, 3]) == 4

    threads = [threading.Thread(target=client) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    rec.restore()
    assert vars(_Toy)["outer"] is raw_outer and vars(_Toy)["make"] is raw_make
    spans = reduce_spans(rec.spans)
    by_id = {s["id"]: s for s in spans}
    inner = [s for s in spans if s["name"] == "_Toy.inner"]
    assert len(inner) == 200
    for s in inner:
        parent = by_id[s["parent"]]
        assert parent["name"] == "_Toy.outer"
        assert parent["thread"] == s["thread"] and s["request"] == parent["id"]
        assert s["n"] == 3
    layers.check_self_times(spans)


def test_traced_counts_repeat_exactly(tiny, tmp_path):
    def counts():
        inputs = wl.make_inputs("sharded_mixed", 4)
        metrics, _ = layers.traced_run(inputs, str(tmp_path))
        return {name: metrics[name] for name in COUNTS}

    first = counts()
    assert first == counts()
    assert first["planstore.rung"] == 1
    assert first["durability.republishes_per_1k_keys"] > 0
    assert first["durability.fsyncs_per_batch"] >= 1


def test_simulated_cost_is_deterministic(tiny):
    inputs = wl.make_inputs("sharded_read", 9)
    index = DILI()
    index.bulk_load(inputs.keys)
    assert wl.simulate(index, inputs) == wl.simulate(index, inputs)
    assert np.all(np.isfinite(wl.simulate(index, inputs)))
