"""The plan file's value column: typed int64 or pickle, same answers.

``write_plan_file`` stores one int64 buffer when every value is an
exact ``int`` inside the int64 range, and the per-entry pickle column
otherwise.  Whichever it picks, a mmap-served ``get_batch`` must equal
the live index's -- values, misses and value *types* (``True`` stays a
``bool``, ``np.int64`` stays an ``np.int64``) -- including after
overlay writes of values the typed column cannot hold.  Files written
before the typed column existed still open at rung 1.
"""

import json
import pickle
import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DILI, DurableDILI
from repro.durability.wal import (
    OP_DELETE_BATCH,
    OP_INSERT_BATCH,
    OP_UPDATE_BATCH,
)
from repro.planstore.format import (
    BUFFER_NAMES,
    COMMIT_MARKER,
    PLAN_MAGIC,
    PLAN_VERSION,
    encode_values,
    read_plan_header,
    write_plan_file,
)
from repro.planstore.serve import MmapDILI, PlanDirectory
from repro.planstore.store import PlanStore

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1

int64s = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MAX, -1, 0, 1]),
)
big_ints = st.sampled_from(
    [INT64_MAX + 1, 1 << 64, -(1 << 70), INT64_MIN - 1, 10 ** 30]
)
others = st.one_of(
    st.booleans(),
    st.builds(np.int64, st.integers(INT64_MIN, INT64_MAX)),
    st.floats(allow_nan=False),
    st.none(),
    st.text(max_size=6),
    st.lists(st.one_of(st.integers(), st.text(max_size=3)), max_size=3),
)

#: Payload kinds; a plan draws all of its values from one of them.
KINDS = {
    "int64": int64s,
    "beyond_int64": st.one_of(int64s, big_ints),
    "bools": st.booleans(),
    "mixed": st.one_of(int64s, others),
}


@st.composite
def loaded(draw):
    keys = sorted(set(draw(
        st.lists(st.integers(0, 50_000), min_size=8, max_size=160)
    )))
    kind = draw(st.sampled_from(sorted(KINDS)))
    values = draw(st.lists(KINDS[kind], min_size=len(keys),
                           max_size=len(keys)))
    return np.array(keys, dtype=np.float64), values


def _probe(keys: np.ndarray) -> np.ndarray:
    return np.concatenate([keys, keys[::3] + 0.5, [-7.0, 1e9]])


def _typed(values) -> bool:
    return all(
        type(v) is int and INT64_MIN <= v <= INT64_MAX for v in values
    )


def _assert_same(got: list, want: list) -> None:
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


def _assert_arrays_agree(store: PlanStore, probe, want: list) -> None:
    """``arrays=True`` answers the list answer: found keys carry their
    value (same type); a key not found answers None."""
    values, found = store.get_batch(probe, arrays=True)
    assert len(values) == len(found) == len(probe)
    assert found.dtype == bool
    for value, hit, expected in zip(values.tolist(), found.tolist(), want):
        if hit:
            assert value == expected and type(value) is type(expected)
        else:
            assert expected is None


class TestColumnChoice:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=loaded())
    def test_mmap_get_batch_equals_live_index(self, tmp_path, data):
        keys, values = data
        index = DILI()
        index.bulk_load(keys, list(values))
        path = tmp_path / "p.plan"
        write_plan_file(path, index._plan())
        header = read_plan_header(path)
        assert header["value_column"] == (
            "int64" if _typed(values) else "pickle"
        )
        store = PlanStore.open(path)
        probe = _probe(keys)
        want = index.get_batch(probe)
        _assert_same(store.get_batch(probe), want)
        _assert_arrays_agree(store, probe, want)
        _assert_same(store.get_batch(keys), index.get_batch(keys))  # all hit
        store.close()

    def test_int64_bounds_take_the_typed_column(self, tmp_path):
        keys = np.arange(6, dtype=np.float64)
        values = [INT64_MIN, INT64_MAX, -1, 0, 7, -(1 << 40)]
        index = DILI()
        index.bulk_load(keys, list(values))
        path = tmp_path / "p.plan"
        write_plan_file(path, index._plan())
        names = [d["name"] for d in read_plan_header(path)["buffers"]]
        assert "value_int64" in names and "value_bytes" not in names
        got, found = PlanStore.open(path).get_batch(keys, arrays=True)
        assert got.dtype == np.int64 and found.all()
        assert got.tolist() == values

    @pytest.mark.parametrize("odd", [1 << 63, True, np.int64(3), 2.0])
    def test_one_odd_value_takes_the_pickle_column(self, tmp_path, odd):
        keys = np.arange(4, dtype=np.float64)
        values = [1, 2, odd, 4]
        index = DILI()
        index.bulk_load(keys, list(values))
        path = tmp_path / "p.plan"
        write_plan_file(path, index._plan())
        assert read_plan_header(path)["value_column"] == "pickle"
        got = PlanStore.open(path).get_batch(keys)
        _assert_same(got, values)


# ----------------------------------------------------------------------
# Overlay writes over a typed base
# ----------------------------------------------------------------------


def _enc(*args):
    return pickle.dumps(args, protocol=pickle.HIGHEST_PROTOCOL)


@st.composite
def overlay_ops(draw):
    n = draw(st.integers(8, 120))
    keys = np.arange(n, dtype=np.float64) * 10.0
    values = draw(st.lists(int64s, min_size=n, max_size=n))
    fresh = sorted(set(draw(st.lists(
        st.integers(0, 10 * n).map(lambda k: k + 0.25), max_size=12
    ))))
    fresh_values = [draw(st.one_of(int64s, big_ints, others))
                    for _ in fresh]
    chosen = draw(st.lists(st.sampled_from(keys.tolist()), max_size=10,
                           unique=True))
    cut = draw(st.integers(0, len(chosen)))
    updated, deleted = chosen[:cut], chosen[cut:]
    updated_values = [draw(st.one_of(int64s, big_ints, others))
                      for _ in updated]
    return (keys, values, fresh, fresh_values, updated, updated_values,
            deleted)


class TestOverlayOverTypedBase:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=overlay_ops())
    def test_overlay_values_of_any_type(self, tmp_path, case):
        (keys, values, fresh, fresh_values, updated, updated_values,
         deleted) = case
        index = DILI()
        index.bulk_load(keys, list(values))
        path = tmp_path / "p.plan"
        write_plan_file(path, index._plan())
        assert read_plan_header(path)["value_column"] == "int64"
        store = PlanStore.open(path)
        ops = []
        if fresh:
            index.insert_batch(fresh, list(fresh_values))
            ops.append((OP_INSERT_BATCH, _enc(fresh, list(fresh_values))))
        if updated:
            index.update_batch(updated, list(updated_values))
            ops.append(
                (OP_UPDATE_BATCH, _enc(updated, list(updated_values)))
            )
        if deleted:
            index.delete_batch(deleted)
            ops.append((OP_DELETE_BATCH, _enc(deleted)))
        store.apply_ops(ops)
        probe = np.concatenate([_probe(keys), fresh])
        want = index.get_batch(probe)
        _assert_same(store.get_batch(probe), want)
        _assert_arrays_agree(store, probe, want)
        store.close()


# ----------------------------------------------------------------------
# Files written before the typed column, and a rotten typed column
# ----------------------------------------------------------------------


def write_legacy_plan_file(path, plan, *, wal_lsn: int, generation: int):
    """Write ``plan`` in the layout that predates the typed column: a
    pickle column whatever the values, and no ``value_column`` tag."""
    value_bytes, value_offsets = encode_values(plan.values)
    buffers = [(name, np.ascontiguousarray(getattr(plan, name)))
               for name in BUFFER_NAMES]
    sorted_is_pair = (plan.sorted_keys is plan.pair_keys
                      or len(plan.dense_keys) == 0)
    if not sorted_is_pair:
        buffers.append(("sorted_keys", np.ascontiguousarray(plan.sorted_keys)))
    buffers += [("value_offsets", value_offsets), ("value_bytes", value_bytes)]
    descs, body = [], bytearray()
    for name, arr in buffers:
        body += b"\0" * (-len(body) % 8)
        descs.append({"name": name, "dtype": arr.dtype.str,
                      "offset": len(body), "count": int(arr.size),
                      "nbytes": int(arr.nbytes),
                      "crc32": zlib.crc32(arr.tobytes())})
        body += arr.tobytes()
    body += b"\0" * (-len(body) % 8)
    header = {"version": PLAN_VERSION, "wal_lsn": wal_lsn,
              "generation": generation, "depth": int(plan.depth),
              "num_pairs": int(plan.num_pairs),
              "value_count": len(plan.values),
              "sorted_is_pair": bool(sorted_is_pair), "buffers": descs}
    for _ in range(3):
        blob = json.dumps(header, sort_keys=True).encode("ascii")
        header["file_size"] = (16 + len(blob) + len(body)
                               + len(COMMIT_MARKER))
    blob = json.dumps(header, sort_keys=True).encode("ascii")
    with open(path, "wb") as fh:
        fh.write(PLAN_MAGIC + struct.pack("<II", len(blob), zlib.crc32(blob))
                 + blob + bytes(body) + COMMIT_MARKER)


@pytest.fixture()
def int_state(tmp_path):
    """A published state dir over rank payloads (the typed column)."""
    keys = np.unique(np.random.default_rng(5).uniform(0.0, 1e6, 2000))
    durable = DurableDILI(tmp_path / "state", sync=False)
    durable.bulk_load(keys, list(range(len(keys))))
    durable.publish_plan()
    yield durable, keys
    durable.close()


class TestCompatibilityAndCorruption:
    def test_legacy_pickle_layout_serves_at_rung_1(self, int_state):
        durable, keys = int_state
        plans = PlanDirectory.for_state_dir(durable.dirpath)
        gen = plans.generations()[-1]
        path = plans.base_path(gen)
        header = read_plan_header(path)
        assert header["value_column"] == "int64"
        write_legacy_plan_file(
            path, durable.index._plan(),
            wal_lsn=header["wal_lsn"], generation=gen,
        )
        legacy = read_plan_header(path)
        assert legacy["value_column"] == "pickle"  # the untagged default
        served = MmapDILI(durable.dirpath)
        assert served.rung == 1 and served.generation == gen
        probe = _probe(keys)
        want = durable.index.get_batch(probe)
        _assert_same(served.get_batch(probe), want)
        values, found = served.get_batch(probe, arrays=True)
        assert values.dtype == object
        assert found.tolist() == [w is not None for w in want]
        served.verify()
        assert not served.quarantined
        served.close()

    def test_flipped_int64_byte_is_quarantined(self, int_state):
        durable, keys = int_state
        plans = PlanDirectory.for_state_dir(durable.dirpath)
        path = plans.base_path(plans.generations()[-1])
        header = read_plan_header(path)
        (desc,) = [d for d in header["buffers"] if d["name"] == "value_int64"]
        offset = header["data_start"] + desc["offset"] + desc["nbytes"] // 2
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)[0]
            fh.seek(offset)
            fh.write(bytes([byte ^ 0xFF]))
        served = MmapDILI(durable.dirpath)
        assert served.rung == 1  # open is O(1): the flip is not seen yet
        probe = _probe(keys)
        want = durable.index.get_batch(probe)
        got = served.get_batch(probe)
        assert got == want  # zero wrong reads
        assert served.rung == 3  # caught by the lazy CRC, rebuilt
        assert [p.endswith(".quarantined") for p in served.quarantined] == [
            True
        ]
        values, found = served.get_batch(probe, arrays=True)
        assert values.tolist() == want
        assert found.tolist() == [w is not None for w in want]
        served.close()
