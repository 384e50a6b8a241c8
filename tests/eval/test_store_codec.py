"""The store's record codec, property-tested over every result kind.

Strategies are derived from the dataclass fields of each class in
``_KIND_PAYLOADS`` (non-ASCII labels, empty ``counters``, the int64
bounds, ``-0.0``, ``inf`` and ``nan`` included), and the properties go
through the public store API:

- ``put_many``, a reopen and ``get_many`` give back values that are
  pickle-byte-identical and wire-dict-identical to the input;
- any single flipped bit in a record's CRC or payload is a counted,
  quarantined miss, and no flipped bit anywhere in a segment serves a
  value;
- a type mismatch raises ``TypeError`` from ``put_many`` and writes
  nothing.
"""

import dataclasses
import json
import math
import os
import pickle
import tempfile
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import schema
from repro.arch.breakdown import DesignMetrics
from repro.eval.parallel import _KIND_PAYLOADS
from repro.eval.store import _HEADER, _RECORD, PackedSweepStore

KINDS = sorted(_KIND_PAYLOADS)
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
PAIRS = tuple[tuple[str, int], ...]

FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
INTS = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MAX, 0, -1]),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
)
TEXT = st.one_of(st.sampled_from(["", "RED", "Décodeur-层-😀"]), st.text(max_size=12))
LEAVES = {
    float: FLOATS,
    int: INTS,
    str: TEXT,
    PAIRS: st.lists(st.tuples(TEXT, INTS), max_size=4).map(tuple),
}

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def values_of(cls):
    """Instances of a result class, drawn field by field."""
    hints = typing.get_type_hints(cls)
    return st.builds(
        cls,
        **{
            f.name: values_of(hints[f.name])
            if dataclasses.is_dataclass(hints[f.name])
            else LEAVES[hints[f.name]]
            for f in dataclasses.fields(cls)
        },
    )


def leaf_paths(cls, prefix=()):
    """Every ``(attribute path, type hint)`` leaf of a result class."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if dataclasses.is_dataclass(hint):
            yield from leaf_paths(hint, prefix + (f.name,))
        else:
            yield prefix + (f.name,), hint


def with_leaf(value, path, leaf):
    """``value`` with the leaf at ``path`` replaced (no type check)."""
    head, *rest = path
    inner = with_leaf(getattr(value, head), rest, leaf) if rest else leaf
    return dataclasses.replace(value, **{head: inner})


def key_of(index: int) -> str:
    return f"{index:064x}"


def pickled(values) -> list[bytes]:
    return [pickle.dumps(value, pickle.HIGHEST_PROTOCOL) for value in values]


def wire(value) -> str:
    """The schema codec's JSON text of a value."""
    if isinstance(value, DesignMetrics):
        return json.dumps(schema.metrics_to_dict(value))
    return json.dumps(schema._encoder(type(value))(value))


@pytest.mark.parametrize("kind", KINDS)
class TestRecordCodec:
    @SETTINGS
    @given(data=st.data())
    def test_round_trip_is_byte_identical(self, kind, data):
        values = data.draw(st.lists(values_of(_KIND_PAYLOADS[kind]), min_size=1, max_size=4))
        keys = [key_of(index) for index in range(len(values))]
        with tempfile.TemporaryDirectory() as directory:
            store = PackedSweepStore(directory)
            assert store.put_many(zip(keys, values), kind=kind) == len(values)
            reopened = PackedSweepStore(directory, memory_entries=0)
            got = reopened.get_many(keys, kind=kind)
        assert reopened.disk_hits == len(values)
        assert pickled(got) == pickled(values)
        assert [wire(value) for value in got] == [wire(value) for value in values]

    @SETTINGS
    @given(data=st.data())
    def test_any_flipped_bit_is_never_served(self, kind, data):
        value = data.draw(values_of(_KIND_PAYLOADS[kind]))
        key = key_of(7)
        with tempfile.TemporaryDirectory() as directory:
            PackedSweepStore(directory).put_many([(key, value)], kind=kind)
            (segment,) = [name for name in os.listdir(directory) if name.endswith(".seg")]
            path = os.path.join(directory, segment)
            with open(path, "rb") as handle:
                data_bytes = bytearray(handle.read())
            bit = data.draw(st.integers(min_value=0, max_value=len(data_bytes) * 8 - 1))
            data_bytes[bit // 8] ^= 1 << (bit % 8)
            with open(path, "wb") as handle:
                handle.write(bytes(data_bytes))
            store = PackedSweepStore(directory, memory_entries=0)
            assert store.get_many([key], kind=kind) == [None]
            checked_from = _HEADER.size + _RECORD.size - 4  # the record's CRC
            if bit // 8 >= checked_from:
                assert (store.corrupt, store.quarantined) == (1, 1)
                assert os.listdir(os.path.join(directory, "quarantine")) == [f"{key}.bin"]
            else:
                # A header, key or length bit: the segment is skipped, the
                # record re-addressed, or cut short (a plain miss), or its
                # span no longer matches its CRC (a counted one).
                assert store.corrupt == store.quarantined <= 1

    @SETTINGS
    @given(data=st.data())
    def test_type_mismatch_raises_and_writes_nothing(self, kind, data):
        cls = _KIND_PAYLOADS[kind]
        good = data.draw(values_of(cls))
        path, hint = data.draw(st.sampled_from(list(leaf_paths(cls))))
        wrong_number = st.one_of(
            st.booleans(),
            st.integers(max_value=INT64_MIN - 1),
            st.integers(min_value=INT64_MAX + 1),
            st.floats(),
        )
        bad_leaf = {
            float: st.one_of(st.integers(), st.booleans()),
            int: wrong_number,
            str: st.one_of(st.binary(), st.integers(), st.none()),
            PAIRS: st.one_of(
                st.lists(st.tuples(TEXT, wrong_number), min_size=1, max_size=3).map(tuple),
                st.lists(st.tuples(TEXT, INTS), max_size=3),  # a list, not a tuple
            ),
        }[hint]
        bad = with_leaf(good, path, data.draw(bad_leaf))
        with tempfile.TemporaryDirectory() as directory:
            store = PackedSweepStore(directory)
            with pytest.raises(TypeError):
                store.put_many([(key_of(1), good), (key_of(2), bad)], kind=kind)
            assert os.listdir(directory) == []
            assert (len(store), store.memory_size(), store.stores) == (0, 0, 0)
