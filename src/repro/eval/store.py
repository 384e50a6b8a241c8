"""Packed sweep store: typed segment records, in-memory hit tier.

Why the cache needed its own engineering pass
---------------------------------------------
Once the cold analytic plane went vectorized (~tens of thousands of
jobs per second), a directory of one pickle per entry became the
warm-path bottleneck: every hit paid one ``open``/``read`` syscall
pair, one unpickle and one dataclass relabel, and every store paid one
``os.replace``.  This module is the storage tier built for
batch traffic:

- **One immutable segment per batch.**  ``put_many`` writes its whole
  batch as one new segment file (``seg-<seq>-<unique>.seg``, written as
  ``.part`` and then ``os.replace``d into place).  Segments are
  self-describing, so they are the store's only on-disk state: there
  is no index file and no writer lock.  Concurrent processes sharing a
  directory each add their own files, so none loses another's entries
  (``tests/eval/test_store.py``).
- **Segment layout.**  A segment starts with a header: magic, format
  version, payload kind and an 8-byte fingerprint of that kind's field
  layout.  Records follow, each ``key | len | crc32 | payload``: the
  raw 32-byte key, the payload length (u32), a CRC-32 over key and
  payload (u32), then the payload.  A zero-length record is a
  tombstone: it drops the key.
- **Typed payloads, no pickle.**  The payload is a struct encoding of
  the kind's result class, compiled once per class from its dataclass
  fields and type hints (nested dataclasses flatten into their
  leaves): first every ``float`` leaf as ``<d`` and every ``int`` leaf
  as ``<q``, then a u32 ref per ``str`` leaf and a u32 count per
  ``(str, int)``-pairs leaf; after that the UTF-8 bytes of each string,
  then each pair as ``<q`` value, u32 ref and UTF-8 name.  A ref is the
  byte length or, with the top bit set, the position among the
  record's distinct texts of an earlier text that is the same object
  (pickle memoizes shared strings, so sharing is part of a value's
  pickle bytes).
  ``put_many`` type-checks every leaf (exact ``float``/``int``/``str``,
  so no ``bool``, no ``int`` in a ``float`` field and no int outside
  int64) and raises ``TypeError`` before it writes anything.  Decoding
  builds the objects with ``object.__new__`` and a field-order
  ``__dict__`` fill, so a disk hit is pickle-byte-identical to the cold
  result, and nothing in a store file can run code.
- **What is skipped and what is quarantined.**  A segment whose header
  is missing or stale (another magic, format version, unknown kind or
  field layout — every pre-codec pickle segment included) is skipped at
  open: never decoded, never deleted, its keys read as plain misses.
  A record whose CRC does not match, whose payload does not decode
  exactly, or whose segment holds another kind than the one asked for
  is counted in ``corrupt``, quarantined and dropped from the live
  index.  So any flipped bit in a record's CRC or payload is a counted
  miss.  A flipped key bit re-addresses the record, and a flipped
  length bit cuts it short or breaks its CRC (and misframes the records
  after it in that segment): the keys read as misses, never as other
  values.
- **An in-memory index built from the segments.**  Opening a store
  scans every segment's record headers, oldest first by (mtime, name),
  so a key rewritten by a later batch wins; a truncated trailing record
  is dropped.  A lookup miss re-lists the directory only when its mtime
  moved (otherwise the check is one ``stat``) and scans just the
  segments it has not seen; the store adds its own publishes directly.
- **Tombstones.**  A payload that fails its check is counted,
  quarantined and dropped from the live index; the next publish leads
  with a tombstone for its key, so a later open does not decode the
  bad record again.
- **Reads.**  ``get_many`` opens each segment it touches once per call
  and reads the slices it needs; no file descriptor outlives the call.
- **Bounded in-memory LRU hit tier.**  Decoded payloads are kept in an
  :class:`~collections.OrderedDict` capped at ``memory_entries``, so a
  repeated sweep never touches disk twice; ``memory_entries=0``
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

import dataclasses
import hashlib
import os
import struct
import tempfile
import threading
import typing
import zlib
from collections import OrderedDict
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

from repro.errors import CacheError, ParameterError
from repro.eval.parallel import (
    _KIND_PAYLOADS,
    METRICS_KIND,
    DesignJob,
    job_key,
    relabelled,
)
from repro.reliability import failpoints
from repro.reliability.policy import RetryPolicy

#: Segment header: magic, format version, kind (NUL-padded ASCII) and
#: the fingerprint of the kind's field layout.
_HEADER = struct.Struct("<8sH16s8s")
_MAGIC = b"REDSEG\r\n"
#: Bump when the header or record framing changes; a segment of another
#: version is skipped at open.
_FORMAT_VERSION = 1

#: Record header: raw key (32), payload length (u32), CRC-32 of key and
#: payload (u32).  A zero-length record is a tombstone: it drops the key.
_RECORD = struct.Struct("<32sII")
_CRC = struct.Struct("<I")
#: Where a record's CRC starts, relative to the record.
_CRC_OFFSET = _RECORD.size - _CRC.size
#: One ``(str, int)`` pair's fixed part: the value and the name's ref
#: (see :func:`_text_ref`).
_PAIR = struct.Struct("<qI")
#: Flag of a text ref that points at an earlier text leaf of the record.
_ALIAS = 1 << 31

#: Where a record's checked span (CRC + payload) lives:
#: ``(segment name, offset, length)``.
Location = tuple[str, int, int]

#: Leaf type hint -> struct code of the fixed part of a payload.
_NUMBER_CODES = {float: "d", int: "q"}
_PAIRS_HINT = tuple[tuple[str, int], ...]


def _key_bytes(key: str) -> bytes:
    """The raw 32 bytes behind a 64-hex-digit job key."""
    if len(key) != 64:
        raise CacheError(f"store keys are 64 hex digits, got {key!r}")
    try:
        return bytes.fromhex(key)
    except ValueError as exc:
        raise CacheError(f"store keys are 64 hex digits, got {key!r}") from exc


def _tuple_source(items: Iterable[str]) -> str:
    """Python source of a tuple display of ``items``."""
    return "(" + "".join(f"{item}, " for item in items) + ")"


class _RecordCodec:
    """The struct encoding of one result class (see the module docstring).

    Compiled once per class from its dataclass fields and resolved type
    hints, the way :mod:`dataclasses` compiles ``__init__``: a walk
    flattens nested dataclasses into ``float``, ``int``, ``str`` and
    ``(str, int)``-pairs leaves, and straight-line ``encode`` and
    ``decode`` functions are generated from it, so a record pays no
    per-field interpretation.  ``encode`` raises ``TypeError`` on any
    leaf whose type is not exactly its hint; ``decode`` raises
    ``ValueError``, ``IndexError`` or ``struct.error`` unless its input
    is exactly one encoding.
    """

    def __init__(self, cls: type) -> None:
        self.cls = cls
        #: Class -> name in the generated code's namespace.
        self._class_names: dict[type, str] = {cls: "cls0"}
        #: Nested dataclass fields, parents first: (var, source, path, class).
        self._nodes: list[tuple[str, str, str, type]] = []
        #: Leaves: (source, path, hint) numbers, (source, path) texts/pairs.
        self._numbers: list[tuple[str, str, type]] = []
        self._texts: list[tuple[str, str]] = []
        self._pairs: list[tuple[str, str]] = []
        #: Objects to build, children first: (var, class, [(field, var)]).
        self._builds: list[tuple[str, type, list[tuple[str, str]]]] = []
        self._walk(cls, "value", "")
        self._head = struct.Struct(
            "<"
            + "".join(_NUMBER_CODES[hint] for _, _, hint in self._numbers)
            + "I" * (len(self._texts) + len(self._pairs))
        )
        namespace = {
            name: node_cls for node_cls, name in self._class_names.items()
        } | {
            "ALIAS": _ALIAS,
            "mismatch": self._mismatch,
            "new": object.__new__,
            "number_types": tuple(hint for _, _, hint in self._numbers),
            "pack": self._pack,
            "read_pairs": _read_pairs,
            "text_types": (str,) * len(self._texts),
            "unpack_from": self._head.unpack_from,
        }
        exec("\n".join(self._encode_source() + self._decode_source()), namespace)
        self.encode = namespace["encode"]
        self.decode = namespace["decode"]
        layout = ";".join(
            [f"{cls.__module__}.{cls.__qualname__}"]
            + [f"{path}:{hint.__name__}" for _, path, hint in self._numbers]
            + [f"{path}:str" for _, path in self._texts]
            + [f"{path}:pairs" for _, path in self._pairs]
            + [f"{path}:{node.__qualname__}" for _, _, path, node in self._nodes]
        )
        self.fingerprint = hashlib.sha256(layout.encode()).digest()[:8]

    def _walk(self, node_cls: type, var: str, prefix: str) -> None:
        hints = typing.get_type_hints(node_cls)
        items = []
        for field in dataclasses.fields(node_cls):
            name = field.name
            hint, path, source = hints[name], prefix + name, f"{var}.{name}"
            if dataclasses.is_dataclass(hint):
                child = f"node{len(self._nodes)}"
                self._class_names.setdefault(hint, f"cls{len(self._class_names)}")
                self._nodes.append((child, source, path, hint))
                self._walk(hint, child, path + ".")
                items.append((name, child))
            elif hint in _NUMBER_CODES:
                items.append((name, f"number{len(self._numbers)}"))
                self._numbers.append((source, path, hint))
            elif hint is str:
                items.append((name, f"text{len(self._texts)}"))
                self._texts.append((source, path))
            elif hint == _PAIRS_HINT:
                items.append((name, f"pairs{len(self._pairs)}"))
                self._pairs.append((source, path))
            else:
                raise TypeError(
                    f"the store codec cannot encode {hint!r} "
                    f"({self.cls.__name__}.{path})"
                )
        self._builds.append((var, node_cls, items))

    def _encode_source(self) -> list[str]:
        lines = [
            "def encode(value):",
            "    if type(value) is not cls0:",
            "        mismatch(value)",
        ]
        for var, source, _, node_cls in self._nodes:
            lines += [
                f"    {var} = {source}",
                f"    if type({var}) is not {self._class_names[node_cls]}:",
                "        mismatch(value)",
            ]
        numbers = _tuple_source(source for source, _, _ in self._numbers)
        texts = _tuple_source(source for source, _ in self._texts)
        pairs = _tuple_source(source for source, _ in self._pairs)
        return lines + [
            f"    numbers = {numbers}",
            "    if tuple(map(type, numbers)) != number_types:",
            "        mismatch(value)",
            f"    texts = {texts}",
            "    if tuple(map(type, texts)) != text_types:",
            "        mismatch(value)",
            f"    return pack(value, numbers, texts, {pairs})",
        ]

    def _decode_source(self) -> list[str]:
        fixed = [f"number{index}" for index in range(len(self._numbers))]
        fixed += [f"ref{index}" for index in range(len(self._texts))]
        fixed += [f"count{index}" for index in range(len(self._pairs))]
        lines = [
            "def decode(payload):",
            f"    {_tuple_source(fixed)} = unpack_from(payload)",
            f"    offset = {self._head.size}",
            "    texts = []",
        ]
        for index in range(len(self._texts)):
            lines += [
                f"    if ref{index} & ALIAS:",
                f"        text{index} = texts[ref{index} ^ ALIAS]",
                "    else:",
                f"        stop = offset + ref{index}",
                f"        text{index} = str(payload[offset:stop], 'utf-8', 'surrogatepass')",
                f"        texts.append(text{index})",
                "        offset = stop",
            ]
        for index in range(len(self._pairs)):
            lines.append(
                f"    pairs{index}, offset = "
                f"read_pairs(payload, offset, count{index}, texts)"
            )
        lines += [
            "    if offset != len(payload):",
            "        raise ValueError('the payload is not one exact encoding')",
        ]
        # Fill each object's own __dict__ in field order, as pickle's
        # BUILD does (and as fast as it).
        for var, node_cls, items in self._builds:
            lines += [
                f"    {var} = new({self._class_names[node_cls]})",
                f"    fill = {var}.__dict__",
            ]
            lines += [f"    fill[{name!r}] = {source}" for name, source in items]
        return lines + ["    return value"]

    def _pack(self, value, numbers: tuple, texts: tuple, pairs: tuple) -> bytes:
        """The payload of type-checked leaves (``pairs`` still unchecked)."""
        chunks = [b""]
        refs = []
        seen: dict[int, int] = {}
        for text in texts:
            ref, chunk = _text_ref(text, seen)
            refs.append(ref)
            chunks.append(chunk)
        for (_, path), items in zip(self._pairs, pairs):
            refs.append(self._encode_pairs(path, items, seen, chunks))
        try:
            chunks[0] = self._head.pack(*numbers, *refs)
        except struct.error:
            raise TypeError(
                f"{self.cls.__name__} holds an int outside int64: {value!r}"
            ) from None
        return b"".join(chunks)

    def _encode_pairs(
        self, path: str, items, seen: dict[int, int], chunks: list[bytes]
    ) -> int:
        """Append one pairs leaf's bytes to ``chunks``; returns its count."""
        if type(items) is not tuple:
            raise TypeError(
                f"{self.cls.__name__}.{path} must be a tuple of (str, int) "
                f"pairs, got {type(items).__name__}"
            )
        for item in items:
            if (
                type(item) is not tuple
                or len(item) != 2
                or type(item[0]) is not str
                or type(item[1]) is not int
            ):
                raise TypeError(
                    f"{self.cls.__name__}.{path} must hold (str, int) pairs, "
                    f"got {item!r}"
                )
            ref, name = _text_ref(item[0], seen)
            try:
                chunks.append(_PAIR.pack(item[1], ref))
            except struct.error:
                raise TypeError(
                    f"{self.cls.__name__}.{path} value {item[1]!r} is "
                    f"outside int64"
                ) from None
            chunks.append(name)
        return len(items)

    def _mismatch(self, value) -> typing.NoReturn:
        """Raise the ``TypeError`` naming ``value``'s first mistyped leaf."""
        cls = self.cls
        if type(value) is not cls:
            raise TypeError(
                f"the store codec encodes {cls.__name__}, "
                f"got {type(value).__name__}"
            )
        # Parents come before their children, so every path resolves.
        expected = [(path, hint) for _, _, path, hint in self._nodes]
        expected += [(path, hint) for _, path, hint in self._numbers]
        expected += [(path, str) for _, path in self._texts]
        for path, hint in expected:
            leaf = attrgetter(path)(value)
            if type(leaf) is not hint:
                raise TypeError(
                    f"{cls.__name__}.{path} must be {hint.__name__}, "
                    f"got {type(leaf).__name__} {leaf!r}"
                )
        raise TypeError(f"{cls.__name__} does not match its fields: {value!r}")


def _text_ref(text: str, seen: dict[int, int]) -> tuple[int, bytes]:
    """One text leaf as ``(u32 ref, bytes)``.

    The ref is the UTF-8 byte length, or ``_ALIAS | j`` when ``text`` is
    the very object of the record's ``j``-th distinct text leaf: pickle
    memoizes strings by identity, so keeping shared objects shared is
    what keeps a decoded value pickle-byte-identical.
    """
    alias = seen.get(id(text))
    if alias is not None:
        return _ALIAS | alias, b""
    seen[id(text)] = len(seen)
    chunk = text.encode("utf-8", "surrogatepass")
    if len(chunk) >= _ALIAS:
        raise TypeError(f"a {len(chunk)}-byte string is too long to store")
    return len(chunk), chunk


def _read_pairs(payload, offset: int, count: int, texts: list[str]):
    """One pairs leaf decoded from ``offset``, and the offset after it."""
    items = []
    for _ in range(count):
        number, ref = _PAIR.unpack_from(payload, offset)
        offset += _PAIR.size
        if ref & _ALIAS:
            name = texts[ref ^ _ALIAS]
        else:
            stop = offset + ref
            name = str(payload[offset:stop], "utf-8", "surrogatepass")
            texts.append(name)
            offset = stop
        items.append((name, number))
    return tuple(items), offset


#: The record codec of each store kind.
_CODECS: dict[str, _RecordCodec] = {
    kind: _RecordCodec(cls) for kind, cls in _KIND_PAYLOADS.items()
}


def _record_crc(raw: bytes, payload) -> int:
    """CRC-32 of a record's key followed by its payload."""
    return zlib.crc32(payload, zlib.crc32(raw))


def _segment_kind(data: bytes) -> str | None:
    """The kind a segment's header declares, ``None`` unless the header
    is present and current (magic, version, known kind, same layout)."""
    if len(data) < _HEADER.size:
        return None
    magic, version, kind, fingerprint = _HEADER.unpack_from(data)
    if magic != _MAGIC or version != _FORMAT_VERSION:
        return None
    kind = kind.rstrip(b"\0").decode("ascii", "replace")
    codec = _CODECS.get(kind)
    if codec is None or codec.fingerprint != fingerprint:
        return None
    return kind


def _decode_record(kind: str, raw: bytes, span: bytes):
    """The value in a record's checked span, ``None`` if it fails its
    CRC or does not decode exactly as ``kind``."""
    if len(span) < _CRC.size:
        return None
    (crc,) = _CRC.unpack_from(span)
    payload = span[_CRC.size:]
    if _record_crc(raw, payload) != crc:
        return None
    try:
        return _CODECS[kind].decode(payload)
    except (struct.error, ValueError, IndexError):
        return None


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
        #: Segment names already looked at (skipped ones included).
        self._segments: set[str] = set()
        #: Kind declared by each indexed segment's header.
        self._segment_kinds: dict[str, str] = {}
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
        sweep stays in memory.  A record that fails its CRC, does not
        decode, or sits in a segment of another kind counts in
        :attr:`corrupt`, is quarantined, drops out of the live index
        (so the slot is rewritten) and reads as a miss.
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
        # Phase 2 (no lock): read, check and decode — the expensive part —
        # without serializing other threads' probes.  Segments are
        # immutable, so the locations stay valid outside the lock.
        spans = self._read_spans([slot[1] for slot in pending.values()])
        segment_kinds = self._segment_kinds
        decoded: list[tuple[str, object, list[int]]] = []
        corrupt: list[tuple[bytes, Location]] = []
        unreadable = 0
        for (key, (raw, location, positions)), span in zip(
            pending.items(), spans
        ):
            if span is None:
                # The segment could not be opened or read (transient
                # I/O, racing cleanup).  That is a plain miss — the
                # on-disk bytes may be perfectly valid, so the entry
                # must NOT be discarded as corrupt.
                unreadable += len(positions)
                continue
            span = failpoints.corrupted("store.get_many", span, raw)
            value = None
            if segment_kinds.get(location[0]) == kind:
                value = _decode_record(kind, raw, span)
            if value is None:
                self._quarantine(raw, span)
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

        The whole batch becomes one new segment file.  Every payload is
        encoded before anything is written, so a value of the wrong
        class or with a mistyped field raises ``TypeError`` and leaves
        the store untouched.  Returns the number of entries written.
        """
        encode = _CODECS[kind].encode
        serialized: list[tuple[bytes, bytes]] = []
        cached: list[tuple[str, object]] = []
        for key, value in entries:
            try:
                payload = encode(value)
            except TypeError as exc:
                raise TypeError(f"cache kind {kind!r}: {exc}") from None
            serialized.append((_key_bytes(key), payload))
            cached.append((key, value))
        if not serialized:
            return 0
        published = False
        if not self.degraded:
            published = self._publish(kind, serialized)
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
        """Index every complete record of one segment.

        A segment without a current header (see :func:`_segment_kind`)
        is skipped whole: its records are neither indexed nor decoded,
        and the file stays where it is.
        """
        try:
            data = (self.directory / name).read_bytes()
        except OSError:
            return
        kind = _segment_kind(data)
        if kind is None:
            return
        self._segment_kinds[name] = kind
        index = self._index
        offset = _HEADER.size
        while offset + _RECORD.size <= len(data):
            raw, length, _ = _RECORD.unpack_from(data, offset)
            offset += _RECORD.size
            if offset + length > len(data):
                break  # truncated trailing record
            if length:
                index[raw] = (name, offset - _CRC.size, length + _CRC.size)
            else:
                index.pop(raw, None)
            offset += length

    def _read_spans(self, locations: list[Location]) -> list[bytes | None]:
        """Checked-span bytes (CRC + payload) per location, ``None``
        where unreadable.

        Each segment is opened once, however many slices it serves, and
        closed before the next one is opened.
        """
        by_segment: dict[str, list[int]] = {}
        for slot, (name, _, _) in enumerate(locations):
            by_segment.setdefault(name, []).append(slot)
        spans: list[bytes | None] = [None] * len(locations)
        for name, slots in by_segment.items():
            try:
                fd = os.open(self.directory / name, os.O_RDONLY)
            except OSError:
                continue
            try:
                for slot in slots:
                    _, offset, length = locations[slot]
                    span = os.pread(fd, length, offset)
                    if len(span) == length:
                        spans[slot] = span
            except OSError:
                pass
            finally:
                os.close(fd)
        return spans

    def _publish(self, kind: str, serialized: list[tuple[bytes, bytes]]) -> bool:
        """Write a batch of ``kind`` payloads as one new segment and index it.

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
                name, locations = self._write_segment(seq, kind, records)
                break
            except OSError:
                if attempt >= policy.max_attempts:
                    self.degraded = True
                    return False
                policy.sleeper(policy.delay_for(attempt))
        with self._lock:
            self._segments.add(name)
            self._segment_kinds[name] = kind
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
        self, seq: int, kind: str, records: list[tuple[bytes, bytes]]
    ) -> tuple[str, list[tuple[bytes, int, int]]]:
        """One immutable segment holding a batch's records.

        ``seq`` (how many segments the writer knew) orders segments
        whose mtimes tie: a segment sorts after every one its writer
        had seen.  Returns the segment name and each record's key and
        checked span (offset, length; zero for a tombstone).
        """
        chunks = [
            _HEADER.pack(
                _MAGIC, _FORMAT_VERSION, kind.encode("ascii"),
                _CODECS[kind].fingerprint,
            )
        ]
        locations: list[tuple[bytes, int, int]] = []
        offset = _HEADER.size
        pack = _RECORD.pack
        for raw, payload in records:
            size = len(payload)
            chunks.append(pack(raw, size, _record_crc(raw, payload)))
            chunks.append(payload)
            locations.append(
                (raw, offset + _CRC_OFFSET, size + _CRC.size if size else 0)
            )
            offset += _RECORD.size + size
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=f"seg-{seq:08x}-", suffix=".part"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(b"".join(chunks))
            final = tmp[: -len(".part")] + ".seg"
            os.replace(tmp, final)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return os.path.basename(final), locations

    def _quarantine(self, raw: bytes, span: bytes) -> None:
        """Preserve a corrupt record's CRC and payload under
        ``quarantine/<key>.bin``.

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
            (quarantine / f"{raw.hex()}.bin").write_bytes(span)
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
