"""PackedSweepStore segment recovery, degraded mode, and quarantine.

Satellite coverage for the store half of the resilience plane: the
self-describing segments are the only on-disk state (a torn trailing
record is dropped, a vanished segment reads as a miss), publish
failures degrade to a counted read-only mode instead of corrupting
state, and corrupt payloads move to ``quarantine/`` rather than being
destroyed.
"""

import pytest

from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.eval.parallel import DesignJob, job_key
from repro.eval.store import PackedSweepStore
from repro.reliability import configured_failpoints
from repro.reliability.policy import RetryPolicy, no_sleep

TECH = default_tech()
JOBS = tuple(
    DesignJob(
        design,
        DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1),
        TECH,
        layer_name=f"{design}",
    )
    for design in ("RED", "zero-padding", "padding-free")
)

NO_SLEEP = RetryPolicy(max_attempts=3, sleeper=no_sleep)


@pytest.fixture(autouse=True)
def _disarmed():
    """Pin a disarmed registry for every test in this module.

    These scenarios arm their own failpoints explicitly; the ambient
    ``RED_FAILPOINTS`` matrix ``make chaos`` exports must not leak into
    the fixture stores they build between armed blocks.
    """
    with configured_failpoints(None):
        yield


def populated(tmp_path):
    """A store holding one metrics entry per job, plus the key list."""
    from repro.eval.parallel import run_design_jobs

    store = PackedSweepStore(tmp_path)
    with configured_failpoints(None):
        run_design_jobs(list(JOBS), cache=store)
    keys = [job_key(job) for job in JOBS]
    return store, keys


def reference_payloads(tmp_path, keys):
    fresh = PackedSweepStore(tmp_path, memory_entries=0)
    return fresh.get_many(keys)


class TestSegmentRecovery:
    def test_truncated_trailing_record_is_dropped(self, tmp_path):
        _, keys = populated(tmp_path)
        (segment,) = tmp_path.glob("seg-*.seg")
        data = segment.read_bytes()
        # Chop half a payload off the end: every complete record still
        # serves, and the torn one is neither served nor decoded.
        segment.write_bytes(data[:-20])
        with configured_failpoints(None):
            recovered = PackedSweepStore(tmp_path, memory_entries=0)
            values = recovered.get_many(keys)
        assert sum(value is not None for value in values) == len(keys) - 1
        assert recovered.corrupt == 0
        assert len(recovered) == len(keys) - 1

    def test_vanished_segment_reads_as_miss(self, tmp_path):
        # The index references a segment that has since vanished: the
        # lookup is a plain miss (the bytes might be fine elsewhere),
        # never a crash and never a corrupt discard.
        _, keys = populated(tmp_path)
        with configured_failpoints(None):
            skewed = PackedSweepStore(tmp_path, memory_entries=0)
            for segment in tmp_path.glob("seg-*.seg"):
                segment.unlink()
            values = skewed.get_many(keys)
        assert values == [None] * len(keys)
        assert skewed.corrupt == 0
        assert skewed.misses == len(keys)


class TestDegradedMode:
    def test_publish_exhaustion_degrades_and_memory_tier_serves(
        self, tmp_path
    ):
        store = PackedSweepStore(tmp_path, retry_policy=NO_SLEEP)
        _, keys = populated(tmp_path / "reference")
        payloads = reference_payloads(tmp_path / "reference", keys)
        entries = list(zip(keys, payloads))
        with configured_failpoints("store.put_many:io_error@1.0"):
            assert store.put_many(entries) == 0
        assert store.degraded
        assert store.degraded_puts == len(entries)
        assert store.stats()["degraded"] == 1
        # The memory tier still serves this process...
        assert store.get_many(keys) == payloads
        assert store.memory_hits == len(keys)
        # ...but nothing reached disk.
        with configured_failpoints(None):
            assert PackedSweepStore(tmp_path).get_many(keys) == [None] * len(
                keys
            )

    def test_refresh_leaves_degraded_mode(self, tmp_path):
        store = PackedSweepStore(tmp_path, retry_policy=NO_SLEEP)
        _, keys = populated(tmp_path / "reference")
        payloads = reference_payloads(tmp_path / "reference", keys)
        entries = list(zip(keys, payloads))
        with configured_failpoints("store.put_many:io_error@1.0"):
            store.put_many(entries)
        assert store.degraded
        with configured_failpoints(None):
            store.refresh()
            assert not store.degraded
            assert store.put_many(entries) == len(entries)
            assert PackedSweepStore(tmp_path, memory_entries=0).get_many(
                keys
            ) == payloads

    def test_publish_retry_eventually_succeeds(self, tmp_path):
        # rate 0.5 with five attempts: the (key, attempt)-keyed draws
        # pass within the budget for this seed, and the batch lands.
        store = PackedSweepStore(
            tmp_path, retry_policy=RetryPolicy(max_attempts=5, sleeper=no_sleep)
        )
        _, keys = populated(tmp_path / "reference")
        payloads = reference_payloads(tmp_path / "reference", keys)
        entries = list(zip(keys, payloads))
        with configured_failpoints("store.put_many:io_error@0.5", seed=1):
            written = store.put_many(entries)
        assert written == len(entries)
        assert not store.degraded
        with configured_failpoints(None):
            assert PackedSweepStore(tmp_path, memory_entries=0).get_many(
                keys
            ) == payloads

    def test_degraded_backoff_is_deterministic(self, tmp_path):
        slept = []
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.25, sleeper=slept.append
        )
        store = PackedSweepStore(tmp_path, retry_policy=policy)
        _, keys = populated(tmp_path / "reference")
        payloads = reference_payloads(tmp_path / "reference", keys)
        with configured_failpoints("store.put_many:io_error@1.0"):
            store.put_many(list(zip(keys, payloads)))
        assert slept == [0.25, 0.5]


class TestQuarantine:
    def test_packed_store_quarantines_corrupt_payloads(self, tmp_path):
        _, keys = populated(tmp_path)
        with configured_failpoints("store.get_many:corrupt@1.0"):
            store = PackedSweepStore(tmp_path, memory_entries=0)
            values = store.get_many(keys)
        assert values == [None] * len(keys)
        assert store.corrupt == len(keys)
        assert store.quarantined == len(keys)
        names = {path.name for path in (tmp_path / "quarantine").glob("*.bin")}
        assert names == {f"{key}.bin" for key in keys}

    def test_scrub_then_rewrite_recovers(self, tmp_path):
        store, keys = populated(tmp_path)
        payloads = reference_payloads(tmp_path, keys)
        with configured_failpoints("store.get_many:corrupt@1.0"):
            scrubbed = PackedSweepStore(tmp_path, memory_entries=0)
            assert scrubbed.get_many(keys) == [None] * len(keys)
        # The slots were scrubbed from the live index; rewriting them
        # publishes fresh entries that read back clean.
        with configured_failpoints(None):
            scrubbed.put_many(list(zip(keys, payloads)))
            assert scrubbed.get_many(keys) == payloads
            reopened = PackedSweepStore(tmp_path, memory_entries=0)
            assert reopened.get_many(keys) == payloads

    def test_degraded_store_skips_quarantine_writes(self, tmp_path):
        _, keys = populated(tmp_path)
        with configured_failpoints(
            "store.get_many:corrupt@1.0;store.put_many:io_error@1.0"
        ):
            store = PackedSweepStore(tmp_path, memory_entries=0,
                                     retry_policy=NO_SLEEP)
            store.put_many([])  # no-op; degraded only flips on real puts
            store.degraded = True
            store.get_many(keys)
        assert store.quarantined == len(keys)
        assert not (tmp_path / "quarantine").exists()


class TestOpenProbe:
    def test_fresh_directory_opens_writable(self, tmp_path):
        store = PackedSweepStore(tmp_path / "new")
        assert not store.degraded
        assert len(store) == 0

    def test_schema_bump_misses_old_entries(self, tmp_path, monkeypatch):
        # Every key embeds the cache schema version, so a bump is
        # deliberate invalidation: old records stay on disk, unreached.
        import repro.eval.parallel as parallel

        populated(tmp_path)
        monkeypatch.setattr(parallel, "CACHE_SCHEMA_VERSION", 5)
        keys = [job_key(job) for job in JOBS]
        with configured_failpoints(None):
            store = PackedSweepStore(tmp_path, memory_entries=0)
            assert store.get_many(keys) == [None] * len(keys)
        assert len(store) == len(JOBS) and store.corrupt == 0


def test_quarantine_files_do_not_break_reopen(tmp_path):
    _, keys = populated(tmp_path)
    with configured_failpoints("store.get_many:corrupt@1.0"):
        PackedSweepStore(tmp_path, memory_entries=0).get_many(keys)
    with configured_failpoints(None):
        reopened = PackedSweepStore(tmp_path, memory_entries=0)
        values = reopened.get_many(keys)
    # No publish happened, so no tombstone was written: the entries are
    # still live on disk and read back clean in a fresh store.
    assert all(value is not None for value in values)
