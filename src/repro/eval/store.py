"""Packed sweep store: self-describing segment files, in-memory hit tier.

Why the cache needed its own engineering pass
---------------------------------------------
Once the cold analytic plane went vectorized (~tens of thousands of
jobs per second), a directory of one pickle per entry became the
warm-path bottleneck: every hit paid one ``open``/``read`` syscall
pair, one ``pickle.loads`` and one dataclass relabel, and every store
paid one ``os.replace``.  This module is the storage tier built for
batch traffic:

- **One immutable segment per batch.**  ``put_many`` writes its whole
  batch as one new segment file (``seg-<seq>-<unique>.seg``, written as
  ``.part`` and then ``os.replace``d into place).  Records are
  self-describing (raw 32-byte key + payload length + pickled payload),
  so the segments are the store's only on-disk state: there is no
  index file and no writer lock.  Concurrent processes sharing a
  directory each add their own files, so none loses another's entries
  (``tests/eval/test_store.py``).
- **An in-memory index built from the segments.**  Opening a store
  scans every segment's record headers, oldest first by (mtime, name),
  so a key rewritten by a later batch wins; a truncated trailing record
  is dropped.  A lookup miss re-lists the directory only when its mtime
  moved (otherwise the check is one ``stat``) and scans just the
  segments it has not seen; the store adds its own publishes directly.
- **Tombstones.**  A payload that fails to decode is counted,
  quarantined and dropped from the live index; the next publish leads
  with a zero-length record for its key, so a later open does not
  decode the bad record again.
- **Reads.**  ``get_many`` opens each segment it touches once per call
  and reads the slices it needs; no file descriptor outlives the call.
- **Bounded in-memory LRU hit tier.**  Deserialized payloads are kept
  in an :class:`~collections.OrderedDict` capped at ``memory_entries``,
  so a repeated sweep never touches disk twice; ``memory_entries=0``
  disables the tier for pure disk measurements.

The layout is deliberately batch-oriented: one sweep's worth of
entries per ``put_many`` is the intended traffic shape.  A workload of
many tiny single-entry publishes accretes small segments, each of which
every later open scans; nothing compacts them.

The store is key-addressed and payload-kind aware but job-agnostic at
the batch layer: :func:`~repro.eval.parallel.job_keys` produces the
keys, and the runners of :mod:`repro.eval.parallel` drive
``get_many`` / ``put_many`` at most once each per call.  Job-level
``get``/``put`` conveniences serve tests and interactive use.
"""

from __future__ import annotations

import os
import pickle
import struct
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import CacheError, ParameterError
from repro.eval.parallel import (
    _DECODE_ERRORS,
    _KIND_PAYLOADS,
    METRICS_KIND,
    DesignJob,
    job_key,
    relabelled,
)
from repro.reliability import failpoints
from repro.reliability.policy import RetryPolicy

#: Segment record header: raw key (32), payload length (u32).  A
#: zero-length record is a tombstone: it drops the key.
_RECORD = struct.Struct("<32sI")

#: Where a payload lives: ``(segment name, offset, length)``.
Location = tuple[str, int, int]


def _key_bytes(key: str) -> bytes:
    """The raw 32 bytes behind a 64-hex-digit job key."""
    if len(key) != 64:
        raise CacheError(f"store keys are 64 hex digits, got {key!r}")
    try:
        return bytes.fromhex(key)
    except ValueError as exc:
        raise CacheError(f"store keys are 64 hex digits, got {key!r}") from exc


class PackedSweepStore:
    """Batched on-disk sweep result store with an in-memory hit tier.

    Args:
        directory: store root; created if missing.
        memory_entries: LRU hit-tier capacity in entries (``0``
            disables the tier).
        retry_policy: how transient ``OSError`` while writing a segment
            retries (defaults to the reliability plane's default
            policy).  When retries exhaust — or the store directory is
            unwritable at open — the store enters a counted read-only
            *degraded mode*: lookups keep serving (disk and memory
            tiers), new results still populate the memory tier, but
            nothing is written to disk (:attr:`degraded` /
            :attr:`degraded_puts`); ``refresh()`` re-probes writability
            and leaves degraded mode when the directory recovers.

    Statistics (``hits = memory_hits + disk_hits``, plus ``misses``,
    ``stores`` and ``corrupt``) are plain attributes.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        memory_entries: int = 65536,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if memory_entries < 0:
            raise ParameterError(
                f"memory_entries must be >= 0, got {memory_entries}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.memory_entries = memory_entries
        self.retry_policy = retry_policy or RetryPolicy()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.memory_hits = 0
        self.disk_hits = 0
        self.quarantined = 0
        self.degraded_puts = 0
        self.degraded = not os.access(self.directory, os.W_OK)
        self._lock = threading.Lock()
        #: Segment names already folded into :attr:`_index`.
        self._segments: set[str] = set()
        self._index: dict[bytes, Location] = {}
        #: Directory mtime when it was last listed (or last changed by
        #: this store's own publish).
        self._stamp: int | None = None
        self._memory: OrderedDict[str, object] = OrderedDict()
        #: Keys whose payload decoded as corrupt: the next publish
        #: writes a tombstone for each.
        self._dead: set[bytes] = set()
        with self._lock:
            self._rescan_locked()

    # ------------------------------------------------------------------
    # Batch protocol (what the runners of repro.eval.parallel speak)
    # ------------------------------------------------------------------
    def get_many(self, keys: Sequence[str], kind: str = METRICS_KIND) -> list:
        """Stored payloads per key, in key order (``None`` per miss).

        Payloads come back exactly as stored; relabelling is the
        caller's concern.  Lookups hit the LRU tier first, then the
        index and the segments; disk hits populate the tier so the next
        sweep stays in memory.  A corrupt or shape-skewed payload
        counts in :attr:`corrupt`, drops out of the live index (so the
        slot is rewritten) and reads as a miss.
        """
        expected = _KIND_PAYLOADS[kind]
        results: list = [None] * len(keys)
        # Phase 1 (tier lock): memory probes and index lookups.
        # In-batch duplicate keys share one pending slot so the payload
        # is read and decoded once.
        pending: dict[str, tuple[bytes, Location, list[int]]] = {}
        with self._lock:
            memory = self._memory
            memory_get = memory.get
            move_to_end = memory.move_to_end
            served = 0
            missed = 0
            rescanned = False
            for position, key in enumerate(keys):
                value = memory_get(key)
                # The kind check mirrors the disk path: a kind-mismatched
                # caller must not get a hit just because the tier is warm.
                if value is not None and isinstance(value, expected):
                    move_to_end(key)
                    served += 1
                    results[position] = value
                    continue
                slot = pending.get(key)
                if slot is not None:
                    slot[2].append(position)
                    continue
                raw = _key_bytes(key)
                location = self._index.get(raw)
                if location is None and not rescanned:
                    # Another process may have published since the last
                    # listing — look at most once per call.
                    rescanned = True
                    if self._rescan_locked(force=False):
                        location = self._index.get(raw)
                if location is None:
                    missed += 1
                    continue
                pending[key] = (raw, location, [position])
            self.hits += served
            self.memory_hits += served
            self.misses += missed
            if not pending:
                return results
        # Phase 2 (no lock): read and deserialize — the expensive part —
        # without serializing other threads' probes.  Segments are
        # immutable, so the locations stay valid outside the lock.
        payloads = self._read_payloads([slot[1] for slot in pending.values()])
        decoded: list[tuple[str, object, list[int]]] = []
        corrupt: list[tuple[bytes, Location]] = []
        unreadable = 0
        for (key, (raw, location, positions)), payload in zip(
            pending.items(), payloads
        ):
            if payload is None:
                # The segment could not be opened or read (transient
                # I/O, racing cleanup).  That is a plain miss — the
                # on-disk bytes may be perfectly valid, so the entry
                # must NOT be discarded as corrupt.
                unreadable += len(positions)
                continue
            payload = failpoints.corrupted("store.get_many", payload, raw)
            try:
                value = pickle.loads(payload)
            except _DECODE_ERRORS:
                value = None
            if value is None or not isinstance(value, expected):
                self._quarantine(raw, payload)
                corrupt.append((raw, location))
                continue
            decoded.append((key, value, positions))
        # Phase 3 (tier lock): publish into the memory tier + counters.
        with self._lock:
            self.misses += unreadable
            for key, value, positions in decoded:
                self.hits += len(positions)
                self.disk_hits += len(positions)
                for position in positions:
                    results[position] = value
                self._memory_insert_locked(key, value)
            for raw, location in corrupt:
                self._discard_corrupt_locked(raw, location)
        return results

    def put_many(
        self, entries: Iterable[tuple[str, object]], kind: str = METRICS_KIND
    ) -> int:
        """Persist ``(key, payload)`` pairs as one batch.

        The whole batch becomes one new segment file.  Returns the
        number of entries written.
        """
        expected = _KIND_PAYLOADS[kind]
        serialized: list[tuple[bytes, bytes]] = []
        cached: list[tuple[str, object]] = []
        for key, value in entries:
            if not isinstance(value, expected):
                raise TypeError(
                    f"cache kind {kind!r} stores {expected.__name__}, "
                    f"got {type(value).__name__}"
                )
            serialized.append(
                (_key_bytes(key), pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
            )
            cached.append((key, value))
        if not serialized:
            return 0
        published = False
        if not self.degraded:
            published = self._publish(serialized)
        with self._lock:
            # Degraded or not, the batch still serves hits from the
            # memory tier for the rest of this process's lifetime.
            for key, value in cached:
                self._memory_insert_locked(key, value)
        if not published:
            self.degraded_puts += len(cached)
            return 0
        self.stores += len(cached)
        return len(cached)

    # ------------------------------------------------------------------
    # Job-level convenience API
    # ------------------------------------------------------------------
    def get(
        self, job: DesignJob, kind: str = METRICS_KIND, *, key: str | None = None
    ):
        """Cached payload for a job, relabelled to the job's layer name."""
        value = self.get_many([key or job_key(job, kind)], kind)[0]
        if value is None:
            return None
        return relabelled(value, job.layer_name)

    def put(
        self,
        job: DesignJob,
        value,
        kind: str = METRICS_KIND,
        *,
        key: str | None = None,
    ) -> None:
        """Store one result under the job's key (a one-entry batch)."""
        self.put_many([(key or job_key(job, kind), value)], kind)

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of keys reachable through the live index."""
        with self._lock:
            return len(self._index)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._memory or _key_bytes(key) in self._index

    def memory_size(self) -> int:
        """Entries currently held by the LRU hit tier."""
        with self._lock:
            return len(self._memory)

    def stats(self) -> dict[str, int]:
        """Counter snapshot for benchmark/CI reporting."""
        return {
            "hits": self.hits,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
            "quarantined": self.quarantined,
            "degraded": int(self.degraded),
            "degraded_puts": self.degraded_puts,
            "indexed_entries": len(self),
            "memory_entries_used": self.memory_size(),
            "segments": len(self._segments),
        }

    def refresh(self) -> None:
        """Re-list the directory (picks up other writers' batches).

        Also re-probes directory writability: a store that fell into
        degraded mode leaves it here once the directory is writable
        again (the next ``put_many`` publishes normally).
        """
        with self._lock:
            self._rescan_locked()
        self.degraded = not os.access(self.directory, os.W_OK)

    def close(self) -> None:
        """Release the memory tier (idempotent)."""
        with self._lock:
            self._memory.clear()

    def __enter__(self) -> "PackedSweepStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Segment machinery
    # ------------------------------------------------------------------
    def _directory_stamp(self) -> int | None:
        try:
            return os.stat(self.directory).st_mtime_ns
        except OSError:
            return None

    def _rescan_locked(self, force: bool = True) -> bool:
        """Fold segments not seen yet into the index; ``True`` if any.

        Unless ``force``d, an unchanged directory mtime skips the
        listing.  New segments are read oldest first by (mtime, name),
        so a later record for a key overrides an earlier one and a
        tombstone drops it.
        """
        stamp = self._directory_stamp()
        if not force and stamp == self._stamp:
            return False
        fresh: list[tuple[int, str]] = []
        try:
            with os.scandir(self.directory) as listing:
                for entry in listing:
                    name = entry.name
                    if (
                        name in self._segments
                        or not name.startswith("seg-")
                        or not name.endswith(".seg")
                    ):
                        continue
                    try:
                        fresh.append((entry.stat().st_mtime_ns, name))
                    except OSError:
                        continue
        except OSError:
            return False
        self._stamp = stamp
        fresh.sort()
        for _, name in fresh:
            self._segments.add(name)
            self._index_segment_locked(name)
        return bool(fresh)

    def _index_segment_locked(self, name: str) -> None:
        """Index every complete record of one segment."""
        try:
            data = (self.directory / name).read_bytes()
        except OSError:
            return
        index = self._index
        offset = 0
        while offset + _RECORD.size <= len(data):
            raw, length = _RECORD.unpack_from(data, offset)
            offset += _RECORD.size
            if offset + length > len(data):
                break  # truncated trailing record
            if length:
                index[raw] = (name, offset, length)
            else:
                index.pop(raw, None)
            offset += length

    def _read_payloads(self, locations: list[Location]) -> list[bytes | None]:
        """Payload bytes per location, ``None`` where unreadable.

        Each segment is opened once, however many slices it serves, and
        closed before the next one is opened.
        """
        by_segment: dict[str, list[int]] = {}
        for slot, (name, _, _) in enumerate(locations):
            by_segment.setdefault(name, []).append(slot)
        payloads: list[bytes | None] = [None] * len(locations)
        for name, slots in by_segment.items():
            try:
                fd = os.open(self.directory / name, os.O_RDONLY)
            except OSError:
                continue
            try:
                for slot in slots:
                    _, offset, length = locations[slot]
                    payload = os.pread(fd, length, offset)
                    if len(payload) == length:
                        payloads[slot] = payload
            except OSError:
                pass
            finally:
                os.close(fd)
        return payloads

    def _publish(self, serialized: list[tuple[bytes, bytes]]) -> bool:
        """Write a batch as one new segment and index it.

        Tombstones for keys seen corrupt lead the segment, so a key the
        batch rewrites stays live.  Transient ``OSError`` (real or
        injected by the ``store.put_many`` failpoint) retries per
        :attr:`retry_policy` with deterministic backoff; a failed
        attempt leaves no file a scan reads.  When retries exhaust the
        store enters degraded mode and returns ``False`` — the caller
        counts the skipped batch.
        """
        with self._lock:
            dead = sorted(self._dead)
            seq = len(self._segments)
            stamp = self._stamp
        unchanged = stamp is not None and self._directory_stamp() == stamp
        records = [(raw, b"") for raw in dead] + serialized
        policy = self.retry_policy
        fail_token = serialized[0][0]
        for attempt in range(1, policy.max_attempts + 1):
            try:
                failpoints.inject("store.put_many", fail_token, attempt)
                name, locations = self._write_segment(seq, records)
                break
            except OSError:
                if attempt >= policy.max_attempts:
                    self.degraded = True
                    return False
                policy.sleeper(policy.delay_for(attempt))
        with self._lock:
            self._segments.add(name)
            for raw, offset, length in locations:
                if length:
                    self._index[raw] = (name, offset, length)
            self._dead.difference_update(dead)
            if unchanged and self._stamp == stamp:
                # Nothing foreign had landed before this write, so the
                # directory's new mtime is this store's own doing.  A
                # segment landing meanwhile is missed until the next
                # change or refresh(): at worst a recompute.
                self._stamp = self._directory_stamp()
        return True

    def _write_segment(
        self, seq: int, records: list[tuple[bytes, bytes]]
    ) -> tuple[str, list[tuple[bytes, int, int]]]:
        """One immutable segment holding a batch's records.

        ``seq`` (how many segments the writer knew) orders segments
        whose mtimes tie: a segment sorts after every one its writer
        had seen.
        """
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f"seg-{seq:08x}-", suffix=".part"
        )
        locations: list[tuple[bytes, int, int]] = []
        try:
            with os.fdopen(fd, "wb") as handle:
                offset = 0
                for raw, payload in records:
                    handle.write(_RECORD.pack(raw, len(payload)))
                    offset += _RECORD.size
                    handle.write(payload)
                    locations.append((raw, offset, len(payload)))
                    offset += len(payload)
            final = tmp[: -len(".part")] + ".seg"
            os.replace(tmp, final)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return os.path.basename(final), locations

    def _quarantine(self, raw: bytes, payload: bytes) -> None:
        """Preserve a corrupt payload under ``quarantine/<key>.bin``.

        Corrupt entries leave the lookup namespace (the live index drops
        them, the next publish tombstones them) but their bytes are kept
        for post-mortems instead of being destroyed.  Best-effort and
        read-only-safe: quarantine I/O failures never break a lookup,
        and nothing is written in degraded mode.
        """
        self.quarantined += 1
        if self.degraded:
            return
        quarantine = self.directory / "quarantine"
        try:
            quarantine.mkdir(exist_ok=True)
            (quarantine / f"{raw.hex()}.bin").write_bytes(payload)
        except OSError:
            pass

    def _discard_corrupt_locked(self, raw: bytes, location: Location) -> None:
        """Count a bad payload and drop it from the live index so the
        slot is rewritable; the next publish tombstones the key.  A key
        the index has meanwhile moved to a fresh location is left
        alone."""
        self.corrupt += 1
        self.misses += 1
        if self._index.get(raw) == location:
            del self._index[raw]
            self._dead.add(raw)

    def _memory_insert_locked(self, key: str, value: object) -> None:
        if self.memory_entries == 0:
            return
        memory = self._memory
        memory[key] = value
        memory.move_to_end(key)
        while len(memory) > self.memory_entries:
            memory.popitem(last=False)
