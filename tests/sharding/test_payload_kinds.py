"""Sharded ``get_batch`` answers every payload kind like one ``DILI``.

Workers answer ``get_batch`` with ``(values, found)`` arrays -- int64
for a shard whose plan has the typed value column, object otherwise --
and the coordinator scatters them back into input order.  Whatever mix
of shard answers arrives, the merged list must equal the unsharded
index's, value types included, and a response whose arrays do not
match the keys it was asked about must be refused, not scattered.
"""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DILI
from repro.sharding import ShardedDILI, ShardWorker
from repro.sharding.coordinator import WorkerRemoteError

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

int64s = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MAX, -1, 0]),
)
others = st.one_of(
    st.sampled_from([INT64_MAX + 1, -(1 << 70), 10 ** 30]),
    st.booleans(),
    st.builds(np.int64, st.integers(INT64_MIN, INT64_MAX)),
    st.floats(allow_nan=False),
    st.none(),
    st.text(max_size=6),
    st.lists(st.integers(), max_size=3),
)


@st.composite
def fleets(draw):
    keys = sorted(set(draw(
        st.lists(st.integers(0, 20_000), min_size=12, max_size=150)
    )))
    # Per-region payload kind, so shards of one fleet can disagree:
    # some answer int64 arrays, others object arrays.
    cut = draw(st.integers(0, len(keys)))
    left = draw(st.sampled_from([int64s, st.one_of(int64s, others)]))
    right = draw(st.sampled_from([int64s, others]))
    values = (
        draw(st.lists(left, min_size=cut, max_size=cut))
        + draw(st.lists(right, min_size=len(keys) - cut,
                        max_size=len(keys) - cut))
    )
    num_shards = draw(st.integers(1, 3))
    return np.array(keys, dtype=np.float64), values, num_shards


def _probe(keys: np.ndarray) -> np.ndarray:
    probe = np.concatenate([keys[::-1], keys[::4] + 0.5, [-3.0, 1e9]])
    return np.random.default_rng(len(keys)).permutation(probe)


def _assert_matches_dili(keys, values, num_shards, *, processes):
    reference = DILI()
    reference.bulk_load(keys, list(values))
    probe = _probe(keys)
    want = reference.get_batch(probe)
    with tempfile.TemporaryDirectory(prefix="repro-payload-") as tmp:
        with ShardedDILI.create(
            tmp, keys, list(values), num_shards=num_shards,
            processes=processes, sync=False,
        ) as fleet:
            for got in (fleet.get_batch(probe),
                        fleet.get_batch(probe, partial=True)):
                assert got == want
                assert [type(v) for v in got] == [type(v) for v in want]


@settings(max_examples=25, deadline=None)
@given(case=fleets())
def test_in_process_fleet_equals_dili(case):
    keys, values, num_shards = case
    _assert_matches_dili(keys, values, num_shards, processes=False)


def test_process_fleet_merges_typed_and_object_shards():
    keys = np.arange(600, dtype=np.float64) * 3.0
    values = (
        list(range(200))                           # int64 column
        + [f"s{i}" for i in range(200)]            # pickle column
        + [bool(i % 2) for i in range(200)]        # pickle column
    )
    _assert_matches_dili(keys, values, 3, processes=True)


@pytest.mark.parametrize(
    "mangle",
    [
        lambda v, f, s: (v[:-1], f, s),
        lambda v, f, s: (v, f[:-1], s),
        lambda v, f, s: (v.tolist(), f, s),
        lambda v, f, s: (v, f.astype(np.int64), s),
        lambda v, f, s: (v.tolist(), s),
    ],
    ids=["short-values", "short-found", "list-values", "int-found",
         "pair"],
)
def test_mismatched_worker_answer_is_refused(monkeypatch, mangle):
    keys = np.arange(100, dtype=np.float64)
    answer = ShardWorker.get_batch

    def bad_get_batch(self, batch, record=False):
        values, found, segments = answer(self, batch, record)
        return mangle(values, found, segments)

    with tempfile.TemporaryDirectory(prefix="repro-payload-") as tmp:
        with ShardedDILI.create(
            tmp, keys, list(range(100)), num_shards=2,
            processes=False, sync=False,
        ) as fleet:
            monkeypatch.setattr(ShardWorker, "get_batch", bad_get_batch)
            with pytest.raises(WorkerRemoteError, match="does not match"):
                fleet.get_batch(keys)
            monkeypatch.setattr(ShardWorker, "get_batch", answer)
            assert fleet.get_batch(keys) == list(range(100))
