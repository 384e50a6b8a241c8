"""The batched cache plane: packed store, batched keying, hit tier.

Covers the ISSUE-5 contracts:

- ``job_keys(jobs)`` is bit-for-bit equal to the scalar
  ``[job_key(j) for j in jobs]`` across designs, folds, techs and kinds
  (hypothesis property).
- ``PackedSweepStore`` round-trips payloads, survives concurrent
  ``put_many`` writers sharing one directory, and bounds its in-memory
  LRU hit tier.
- ``run_design_jobs`` / ``run_cycle_jobs`` issue *zero* per-job cache
  calls — one batched probe plus one batched publish per run
  (call-count instrumentation).
"""

import json
import os
import pickle
import struct
import subprocess
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
import repro.eval.store as store_module
from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import CacheError, ParameterError
from repro.eval.parallel import (
    CYCLES_KIND,
    FIDELITY_KIND,
    METRICS_KIND,
    CycleStats,
    DesignJob,
    FidelityJob,
    FidelityStats,
    evaluate_design_job,
    fidelity_job_keys,
    job_key,
    job_keys,
    run_cycle_jobs,
    run_design_jobs,
)
from repro.eval.store import _HEADER, _RECORD, PackedSweepStore

SPEC = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)
TECH = default_tech()
TECH_B = TECH.with_overrides(mux_share=4)


def make_job(**overrides) -> DesignJob:
    base = dict(design="RED", spec=SPEC, tech=TECH, fold=1, layer_name="L")
    base.update(overrides)
    return DesignJob(**base)


def stats_payload(token: int, layer: str = "L") -> CycleStats:
    """A cheap-to-build payload for store-level tests."""
    return CycleStats(
        design="RED", layer=layer, fold=1, cycles=token,
        counters=(("output_pixels", token),),
    )


def synthetic_key(token: int) -> str:
    """A deterministic, well-formed 64-hex store key."""
    import hashlib

    return hashlib.sha256(f"synthetic-{token}".encode()).hexdigest()


def flip_payloads(directory) -> None:
    """Invert every payload byte of every segment record, leaving the
    segment header and the record headers (keys, lengths, CRCs) intact."""
    for segment in directory.glob("seg-*.seg"):
        data = bytearray(segment.read_bytes())
        offset = _HEADER.size
        while offset < len(data):
            _, length, _ = _RECORD.unpack_from(data, offset)
            offset += _RECORD.size
            data[offset : offset + length] = bytes(
                byte ^ 0xFF for byte in data[offset : offset + length]
            )
            offset += length
        segment.write_bytes(bytes(data))


# ----------------------------------------------------------------------
# Batched keying
# ----------------------------------------------------------------------
@st.composite
def job_lists(draw):
    """Diverse job lists: designs x folds x specs x techs x labels."""
    specs = [
        SPEC,
        DeconvSpec(3, 5, 2, 4, 4, 3, stride=2, padding=1),
        DeconvSpec(4, 4, 2, 8, 8, 2, stride=4, padding=2),
    ]
    count = draw(st.integers(min_value=0, max_value=12))
    jobs = []
    for index in range(count):
        design = draw(
            st.sampled_from(("RED", "zero-padding", "padding-free", "zp", "pf"))
        )
        fold = draw(st.sampled_from((None, "auto", 1, 2, 2.0)))
        spec = draw(st.sampled_from(specs))
        tech = draw(st.sampled_from((TECH, TECH_B)))
        jobs.append(
            DesignJob(design, spec, tech, fold=fold, layer_name=f"job{index}")
        )
    return jobs


class TestJobKeysBatched:
    @given(job_lists(), st.sampled_from((METRICS_KIND, CYCLES_KIND)))
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matches_scalar_job_key(self, jobs, kind):
        assert job_keys(jobs, kind) == [job_key(job, kind) for job in jobs]

    def test_empty_list(self):
        assert job_keys([]) == []

    def test_value_equal_tech_instances_share_segments(self):
        # Distinct-but-equal tech objects must produce the same keys the
        # identity-memoized fast path does.
        import dataclasses

        clone = dataclasses.replace(TECH)
        assert clone is not TECH
        jobs = [make_job(tech=TECH), make_job(tech=clone)]
        keys = job_keys(jobs)
        assert keys[0] == keys[1] == job_key(jobs[0])

    def test_fold_type_distinguished_like_scalar(self):
        # 2 vs 2.0 repr differently; the batched memo must not merge them.
        a, b = make_job(fold=2), make_job(fold=2.0)
        assert job_keys([a, b]) == [job_key(a), job_key(b)]
        assert job_key(a) != job_key(b)


class TestFidelityKind:
    def fidelity_payload(self, token: int, layer: str = "L") -> FidelityStats:
        return FidelityStats(
            design="RED", layer=layer, seed=token, time_s=1.0,
            rms_error=0.1 * token, mean_abs_error=0.0, max_abs_error=0.0,
            stuck_fraction=0.0,
        )

    def test_put_many_get_many_round_trip(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        entries = [(synthetic_key(i), self.fidelity_payload(i)) for i in range(5)]
        assert store.put_many(entries, kind=FIDELITY_KIND) == 5
        values = store.get_many([k for k, _ in entries], kind=FIDELITY_KIND)
        assert values == [payload for _, payload in entries]
        fresh = PackedSweepStore(tmp_path)
        assert fresh.get_many(
            [k for k, _ in entries], kind=FIDELITY_KIND
        ) == values

    def test_wrong_payload_type_rejected(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        with pytest.raises(TypeError):
            store.put_many(
                [(synthetic_key(0), stats_payload(0))], kind=FIDELITY_KIND
            )
        with pytest.raises(TypeError):
            store.put_many(
                [(synthetic_key(0), self.fidelity_payload(0))], kind=CYCLES_KIND
            )

    @given(job_lists())
    @settings(
        max_examples=20, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fidelity_keys_never_collide_with_other_kinds(self, jobs):
        fidelity = [
            FidelityJob(
                design=job.design, spec=job.spec, tech=job.tech,
                layer_name=job.layer_name,
            )
            for job in jobs
        ]
        other = set(job_keys(jobs, METRICS_KIND)) | set(job_keys(jobs, CYCLES_KIND))
        assert not other & set(fidelity_job_keys(fidelity))


# ----------------------------------------------------------------------
# Packed store fundamentals
# ----------------------------------------------------------------------
class TestPackedStoreRoundTrip:
    def test_put_many_get_many(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        entries = [(synthetic_key(i), stats_payload(i)) for i in range(5)]
        assert store.put_many(entries, kind=CYCLES_KIND) == 5
        values = store.get_many([k for k, _ in entries], kind=CYCLES_KIND)
        assert [v.cycles for v in values] == list(range(5))
        assert store.stores == 5 and store.hits == 5

    def test_fresh_open_reads_from_disk(self, tmp_path):
        first = PackedSweepStore(tmp_path)
        first.put_many([(synthetic_key(1), stats_payload(7))], kind=CYCLES_KIND)
        second = PackedSweepStore(tmp_path)
        value = second.get_many([synthetic_key(1)], kind=CYCLES_KIND)[0]
        assert value.cycles == 7
        assert second.disk_hits == 1 and second.memory_hits == 0

    def test_miss_counts(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        assert store.get_many([synthetic_key(9)], kind=CYCLES_KIND) == [None]
        assert store.misses == 1 and store.hits == 0

    def test_overwrite_wins(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        key = synthetic_key(3)
        store.put_many([(key, stats_payload(1))], kind=CYCLES_KIND)
        store.put_many([(key, stats_payload(2))], kind=CYCLES_KIND)
        assert store.get_many([key], kind=CYCLES_KIND)[0].cycles == 2
        fresh = PackedSweepStore(tmp_path)
        assert fresh.get_many([key], kind=CYCLES_KIND)[0].cycles == 2

    def test_wrong_payload_type_rejected(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        with pytest.raises(TypeError):
            store.put_many([(synthetic_key(0), stats_payload(0))])  # metrics kind

    def test_malformed_key_rejected(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        with pytest.raises(CacheError):
            store.put_many([("short", stats_payload(0))], kind=CYCLES_KIND)
        with pytest.raises(CacheError):
            store.get_many(["z" * 64], kind=CYCLES_KIND)

    def test_bad_parameters_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            PackedSweepStore(tmp_path, memory_entries=-1)

    def test_job_level_compat_api(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        job = make_job(layer_name="first")
        store.put(job, evaluate_design_job(job))
        relabelled = store.get(make_job(layer_name="second"))
        assert relabelled is not None and relabelled.layer == "second"
        same_label = store.get(make_job(layer_name="first"))
        assert same_label.layer == "first"

    def test_cross_process_publish_visible_after_miss(self, tmp_path):
        # A reader refreshes its index (one stat) when a lookup misses,
        # so another store object's publish becomes visible without
        # reopening.
        reader = PackedSweepStore(tmp_path)
        writer = PackedSweepStore(tmp_path)
        key = synthetic_key(11)
        writer.put_many([(key, stats_payload(11))], kind=CYCLES_KIND)
        assert reader.get_many([key], kind=CYCLES_KIND)[0].cycles == 11


class TestCorruptHandling:
    def test_corrupt_segment_record_counts_and_recovers(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        key = synthetic_key(5)
        store.put_many([(key, stats_payload(5))], kind=CYCLES_KIND)
        store.close()
        flip_payloads(tmp_path)
        fresh = PackedSweepStore(tmp_path)
        assert fresh.get_many([key], kind=CYCLES_KIND) == [None]
        assert fresh.corrupt == 1
        assert fresh.quarantined == 1
        # The slot is rewritable: a new publish supersedes the dead record.
        fresh.put_many([(key, stats_payload(6))], kind=CYCLES_KIND)
        assert fresh.get_many([key], kind=CYCLES_KIND)[0].cycles == 6

    def test_corrupt_entry_tombstoned_at_next_publish(self, tmp_path):
        # A publish of *other* keys writes a tombstone for an entry the
        # store observed as corrupt, so a later open does not decode
        # the bad record again.
        store = PackedSweepStore(tmp_path)
        bad, other = synthetic_key(1), synthetic_key(2)
        store.put_many([(bad, stats_payload(1))], kind=CYCLES_KIND)
        store.close()
        flip_payloads(tmp_path)
        fresh = PackedSweepStore(tmp_path)
        assert fresh.get_many([bad], kind=CYCLES_KIND) == [None]
        assert (fresh.corrupt, fresh.quarantined) == (1, 1)
        fresh.put_many([(other, stats_payload(2))], kind=CYCLES_KIND)
        reopened = PackedSweepStore(tmp_path)
        assert bad not in reopened
        assert reopened.get_many([bad], kind=CYCLES_KIND) == [None]
        assert reopened.corrupt == 0  # a clean miss now, not a re-decode

    def test_duplicate_keys_in_one_batch_decode_once(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        key = synthetic_key(4)
        store.put_many([(key, stats_payload(4))], kind=CYCLES_KIND)
        fresh = PackedSweepStore(tmp_path)  # cold tier: all disk
        values = fresh.get_many([key, key, key], kind=CYCLES_KIND)
        assert [v.cycles for v in values] == [4, 4, 4]
        assert values[0] is values[1] is values[2]  # one decode, fanned out
        assert fresh.disk_hits == 3 and fresh.memory_size() == 1

    def test_shape_skewed_payload_counts_as_corrupt(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        key = synthetic_key(6)
        store.put_many([(key, stats_payload(6))], kind=CYCLES_KIND)
        fresh = PackedSweepStore(tmp_path)  # LRU cold: forces the disk path
        assert fresh.get_many([key]) == [None]  # metrics kind: wrong class
        assert fresh.corrupt == 1


# ----------------------------------------------------------------------
# In-memory LRU hit tier
# ----------------------------------------------------------------------
class TestMemoryTier:
    def test_eviction_bound_holds(self, tmp_path):
        store = PackedSweepStore(tmp_path, memory_entries=4)
        entries = [
            (synthetic_key(i), stats_payload(i)) for i in range(10)
        ]
        store.put_many(entries, kind=CYCLES_KIND)
        assert store.memory_size() <= 4
        # Evicted entries are still served (from disk) and re-admitted.
        values = store.get_many([k for k, _ in entries], kind=CYCLES_KIND)
        assert [v.cycles for v in values] == list(range(10))
        assert store.memory_size() <= 4
        assert store.disk_hits >= 6

    def test_repeated_sweep_never_touches_disk_twice(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        keys = [synthetic_key(i) for i in range(8)]
        store.put_many(
            [(k, stats_payload(i)) for i, k in enumerate(keys)],
            kind=CYCLES_KIND,
        )
        store.get_many(keys, kind=CYCLES_KIND)
        store.get_many(keys, kind=CYCLES_KIND)
        assert store.disk_hits == 0  # put_many pre-populated the tier
        assert store.memory_hits == 16

    def test_lru_recency_order(self, tmp_path):
        store = PackedSweepStore(tmp_path, memory_entries=2)
        a, b, c = (synthetic_key(i) for i in range(3))
        store.put_many(
            [(a, stats_payload(0)), (b, stats_payload(1))], kind=CYCLES_KIND
        )
        store.get_many([a], kind=CYCLES_KIND)  # refresh a
        store.put_many([(c, stats_payload(2))], kind=CYCLES_KIND)  # evicts b
        store.get_many([a, b, c], kind=CYCLES_KIND)
        assert store.disk_hits == 1  # only b went to disk

    def test_disabled_tier(self, tmp_path):
        store = PackedSweepStore(tmp_path, memory_entries=0)
        key = synthetic_key(0)
        store.put_many([(key, stats_payload(0))], kind=CYCLES_KIND)
        store.get_many([key], kind=CYCLES_KIND)
        store.get_many([key], kind=CYCLES_KIND)
        assert store.memory_size() == 0
        assert store.disk_hits == 2


# ----------------------------------------------------------------------
# Concurrent writers
# ----------------------------------------------------------------------
def _concurrent_writer(args) -> int:
    """One worker process appending its own batches to a shared store."""
    directory, worker, batches, per_batch = args
    store = PackedSweepStore(directory)
    for batch in range(batches):
        entries = [
            (
                synthetic_key(worker * 10_000 + batch * 100 + item),
                stats_payload(worker * 10_000 + batch * 100 + item),
            )
            for item in range(per_batch)
        ]
        store.put_many(entries, kind=CYCLES_KIND)
    return batches * per_batch


class TestConcurrentWriters:
    def test_put_many_from_multiple_processes_loses_nothing(self, tmp_path):
        workers, batches, per_batch = 4, 3, 5
        with ProcessPoolExecutor(max_workers=workers) as pool:
            written = list(
                pool.map(
                    _concurrent_writer,
                    [
                        (str(tmp_path), worker, batches, per_batch)
                        for worker in range(workers)
                    ],
                )
            )
        assert sum(written) == workers * batches * per_batch
        store = PackedSweepStore(tmp_path)
        expected = [
            worker * 10_000 + batch * 100 + item
            for worker in range(workers)
            for batch in range(batches)
            for item in range(per_batch)
        ]
        values = store.get_many(
            [synthetic_key(token) for token in expected], kind=CYCLES_KIND
        )
        assert [v.cycles for v in values] == expected
        assert store.misses == 0

    def test_threads_sharing_one_store_lose_nothing(self, tmp_path):
        # More threads than cores, forced to switch often: every
        # publish lands in the shared index and on disk.
        from concurrent.futures import ThreadPoolExecutor

        store = PackedSweepStore(tmp_path, memory_entries=0)
        threads, batches, per_batch = 8, 6, 4

        def write(worker: int) -> None:
            for batch in range(batches):
                tokens = [worker * 1000 + batch * 10 + i for i in range(per_batch)]
                store.put_many(
                    [(synthetic_key(t), stats_payload(t)) for t in tokens],
                    kind=CYCLES_KIND,
                )
                store.get_many([synthetic_key(t) for t in tokens], kind=CYCLES_KIND)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for future in [pool.submit(write, w) for w in range(threads)]:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        total = threads * batches * per_batch
        assert len(store) == total and store.misses == 0
        assert store.stats()["segments"] == threads * batches
        reopened = PackedSweepStore(tmp_path, memory_entries=0)
        tokens = [
            w * 1000 + b * 10 + i
            for w in range(threads) for b in range(batches) for i in range(per_batch)
        ]
        values = reopened.get_many([synthetic_key(t) for t in tokens], kind=CYCLES_KIND)
        assert [v.cycles for v in values] == tokens


# ----------------------------------------------------------------------
# Foreign files in the store directory
# ----------------------------------------------------------------------
class TestForeignFiles:
    def test_stray_pickles_are_ignored(self, tmp_path):
        """One-pickle-per-key files are not part of the layout: the store
        neither imports nor deletes them."""
        key = job_key(make_job())
        (tmp_path / f"{key}.pkl").write_bytes(pickle.dumps(stats_payload(1)))
        (tmp_path / "notes.pkl").write_bytes(pickle.dumps({"x": 1}))
        store = PackedSweepStore(tmp_path)
        assert len(store) == 0 and key not in store
        assert len(list(tmp_path.glob("*.pkl"))) == 2

    def test_old_layout_directory_serves_misses_and_stays_untouched(self, tmp_path):
        """A directory in an older layout (per-shard ``seg-<shard>-*``
        segments of headerless pickle records beside an ``index.bin``
        and a ``.lock``) is foreign: every key is a plain miss, nothing
        is decoded, and every file stays byte-untouched, even across a
        publish."""
        entries = [(synthetic_key(i), stats_payload(i)) for i in range(6)]
        for start, shard in enumerate((0x00, 0x0A)):
            blob = b"".join(
                legacy_record(key, pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
                for key, value in entries[start::2]
            )
            (tmp_path / f"seg-{shard:02x}-legacy.seg").write_bytes(blob)
        (tmp_path / "index.bin").write_bytes(b"REDPACK1\n{garbage")
        (tmp_path / ".lock").write_bytes(b"")
        foreign = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        store = PackedSweepStore(tmp_path, memory_entries=0)
        assert len(store) == 0
        values = store.get_many([key for key, _ in entries], kind=CYCLES_KIND)
        assert values == [None] * len(entries)
        assert (store.misses, store.disk_hits) == (len(entries), 0)
        assert (store.corrupt, store.quarantined) == (0, 0)
        store.put_many([(synthetic_key(99), stats_payload(99))], kind=CYCLES_KIND)
        assert {
            name: (tmp_path / name).read_bytes() for name in foreign
        } == foreign


# ----------------------------------------------------------------------
# Hostile store files: a segment's bytes never run code
# ----------------------------------------------------------------------
class _TouchOnLoad:
    """Unpickling this object's pickle opens (creates) ``path``."""

    def __init__(self, path: Path) -> None:
        self.path = path

    def __reduce__(self):
        return (open, (str(self.path), "w"))


def legacy_record(key: str, payload: bytes) -> bytes:
    """One record in the pre-codec layout: raw key, u32 length, payload."""
    return struct.pack("<32sI", bytes.fromhex(key), len(payload)) + payload


def current_segment(kind: str, key: str, payload: bytes) -> bytes:
    """A segment in the current layout with one record whose CRC matches."""
    raw = bytes.fromhex(key)
    header = _HEADER.pack(
        store_module._MAGIC, store_module._FORMAT_VERSION, kind.encode(),
        store_module._CODECS[kind].fingerprint,
    )
    crc = zlib.crc32(payload, zlib.crc32(raw))
    return header + _RECORD.pack(raw, len(payload), crc) + payload


class TestHostileFiles:
    def hostile_payload(self, tmp_path, name: str) -> bytes:
        """A pickle whose load creates ``tmp_path/name`` (checked here on
        a second marker, so the payload provably runs code when
        unpickled)."""
        probe = tmp_path / f"{name}-probe"
        pickle.loads(pickle.dumps(_TouchOnLoad(probe))).close()
        assert probe.exists()
        return pickle.dumps(_TouchOnLoad(tmp_path / name))

    @pytest.mark.parametrize("kind", [METRICS_KIND, CYCLES_KIND, FIDELITY_KIND])
    def test_current_format_pickle_payload_is_quarantined_not_run(
        self, tmp_path, kind
    ):
        directory = tmp_path / "store"
        directory.mkdir()
        key = synthetic_key(1)
        payload = self.hostile_payload(tmp_path, "marker")
        (directory / "seg-00000000-hostile.seg").write_bytes(
            current_segment(kind, key, payload)
        )
        store = PackedSweepStore(directory, memory_entries=0)
        assert key in store  # indexed: the header and CRC are valid
        assert store.get_many([key], kind=kind) == [None]
        assert (store.corrupt, store.quarantined, store.misses) == (1, 1, 1)
        assert (directory / "quarantine" / f"{key}.bin").exists()
        assert not (tmp_path / "marker").exists()

    def test_headerless_pickle_segment_is_skipped_and_kept(self, tmp_path):
        directory = tmp_path / "store"
        directory.mkdir()
        key = synthetic_key(2)
        segment = directory / "seg-00000000-legacy.seg"
        segment.write_bytes(
            legacy_record(key, self.hostile_payload(tmp_path, "marker"))
        )
        original = segment.read_bytes()
        store = PackedSweepStore(directory, memory_entries=0)
        assert len(store) == 0 and key not in store
        assert store.get_many([key], kind=CYCLES_KIND) == [None]
        assert (store.corrupt, store.quarantined, store.misses) == (0, 0, 1)
        store.put_many([(synthetic_key(3), stats_payload(3))], kind=CYCLES_KIND)
        assert segment.read_bytes() == original
        assert not (directory / "quarantine").exists()
        assert not (tmp_path / "marker").exists()


# ----------------------------------------------------------------------
# File descriptors
# ----------------------------------------------------------------------
_FD_LIMITED_READ = """
import hashlib, json, resource, sys

soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (min(256, soft), hard))

from repro.eval.parallel import CYCLES_KIND, CycleStats
from repro.eval.store import PackedSweepStore

directory, count = sys.argv[1], int(sys.argv[2])
keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(count)]
writer = PackedSweepStore(directory, memory_entries=0)
for i, key in enumerate(keys):
    stats = CycleStats(design="RED", layer="L", fold=1, cycles=i, counters=())
    writer.put_many([(key, stats)], kind=CYCLES_KIND)
reader = PackedSweepStore(directory, memory_entries=0)
values = reader.get_many(keys, kind=CYCLES_KIND)
print(json.dumps({
    "segments": reader.stats()["segments"],
    "cycles": [None if v is None else v.cycles for v in values],
    "disk_hits": reader.disk_hits,
    "misses": reader.misses,
}))
"""


def test_reads_hold_no_descriptor_per_segment(tmp_path):
    """400 segments read in one call under a 256-descriptor limit: every
    key is a disk hit, none an unreadable miss."""
    src = str(Path(repro.__file__).resolve().parents[1])
    count = 400
    completed = subprocess.run(
        [sys.executable, "-c", _FD_LIMITED_READ, str(tmp_path), str(count)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["segments"] == count
    assert report["cycles"] == list(range(count))
    assert (report["disk_hits"], report["misses"]) == (count, 0)


# ----------------------------------------------------------------------
# Runner discipline: batch probe + batch publish only
# ----------------------------------------------------------------------
class CountingStore(PackedSweepStore):
    """Instruments the store API the runners are allowed to touch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.get_many_calls = 0
        self.put_many_calls = 0
        self.get_calls = 0
        self.put_calls = 0

    def get_many(self, keys, kind=METRICS_KIND):
        self.get_many_calls += 1
        return super().get_many(keys, kind)

    def put_many(self, entries, kind=METRICS_KIND):
        self.put_many_calls += 1
        return super().put_many(entries, kind)

    def get(self, job, kind=METRICS_KIND, *, key=None):
        self.get_calls += 1
        return super().get(job, kind, key=key)

    def put(self, job, value, kind=METRICS_KIND, *, key=None):
        self.put_calls += 1
        super().put(job, value, kind=kind, key=key)


class TestRunnerBatchDiscipline:
    def _grid(self):
        specs = (SPEC, DeconvSpec(3, 5, 2, 4, 4, 3, stride=2, padding=1))
        return [
            make_job(design=design, spec=spec, fold=None,
                     layer_name=f"{design}-{i}")
            for i, spec in enumerate(specs)
            for design in ("RED", "zero-padding", "padding-free")
        ]

    def test_run_design_jobs_zero_per_job_calls(self, tmp_path):
        store = CountingStore(tmp_path)
        jobs = self._grid()
        run_design_jobs(jobs, cache=store)  # cold: probe + publish
        assert (store.get_many_calls, store.put_many_calls) == (1, 1)
        assert (store.get_calls, store.put_calls) == (0, 0)
        run_design_jobs(jobs, cache=store)  # warm: probe only
        assert (store.get_many_calls, store.put_many_calls) == (2, 1)
        assert (store.get_calls, store.put_calls) == (0, 0)

    def test_run_cycle_jobs_zero_per_job_calls(self, tmp_path):
        store = CountingStore(tmp_path)
        jobs = self._grid()  # only RED is trace-capable
        run_cycle_jobs(jobs, cache=store)
        assert (store.get_many_calls, store.put_many_calls) == (1, 1)
        assert (store.get_calls, store.put_calls) == (0, 0)
        run_cycle_jobs(jobs, cache=store)
        assert (store.get_many_calls, store.put_many_calls) == (2, 1)
        assert (store.get_calls, store.put_calls) == (0, 0)

    def test_counting_store_passes_coercion_untouched(self, tmp_path):
        # Duck-typed stores flow through _coerce_cache unchanged, so the
        # counters above really observe the runner's traffic.
        from repro.eval.parallel import _coerce_cache

        store = CountingStore(tmp_path)
        assert _coerce_cache(store) is store


# ----------------------------------------------------------------------
# Route equivalence through the runner
# ----------------------------------------------------------------------
class TestPackedStoreThroughRunner:
    def test_cold_warm_uncached_byte_identical(self, tmp_path):
        jobs = [
            make_job(design=design, fold=None, layer_name=f"{design}-{i}")
            for i in range(2)
            for design in ("RED", "zero-padding", "padding-free")
        ]
        store = PackedSweepStore(tmp_path)
        cold = run_design_jobs(jobs, cache=store)
        warm = run_design_jobs(jobs, cache=store)
        reopened = run_design_jobs(jobs, cache=PackedSweepStore(tmp_path))
        uncached = run_design_jobs(jobs)
        digest = lambda results: [pickle.dumps(m) for m in results]  # noqa: E731
        assert (
            digest(cold) == digest(warm) == digest(reopened) == digest(uncached)
        )

    def test_cycle_stats_roundtrip_through_packed_store(self, tmp_path):
        jobs = [make_job(layer_name="a"), make_job(layer_name="b")]
        store = PackedSweepStore(tmp_path)
        cold = run_cycle_jobs(jobs, cache=store)
        warm = run_cycle_jobs(jobs, cache=store)
        assert [pickle.dumps(c) for c in cold] == [pickle.dumps(c) for c in warm]
        assert [c.layer for c in warm] == ["a", "b"]
