"""Asyncio HTTP/JSON front door over the sharded evaluation plane.

One :class:`ServingServer` owns the whole vertical: admission gate ->
request thread pool -> :class:`~repro.api.service.RedService` (with a
:class:`~repro.serving.runner.ShardedRunner` injected as its
``design_runner``) -> shard supervisor -> worker processes.  The event
loop only parses bytes and routes; every blocking step (schema
validation, evaluation, shard pipes, store IO) runs on the executor —
enforced by the RED008 lint rule, which bans blocking calls inside
``async def`` bodies in this package.

Wire protocol (HTTP/1.1, JSON bodies)::

    GET  /healthz      -> 200 {"status": "ok"|"draining", shards, gate}
    GET  /readyz       -> 200 ready | 503 {"status": ...} (draining,
                          no running shard, or heartbeats dead)
    POST /v1/payload   -> any request payload from repro.api.schema
                          (``payload_from_dict`` dispatch); the
                          response is the matching result payload, or
                          an ``error_info`` envelope

Request headers: ``X-Red-Timeout-S`` propagates a per-request deadline
into the substrate's ``Deadline``/``timeout=`` plumbing;
``X-Red-Attempt`` is the client's retry counter, threaded into every
failpoint draw so retried requests re-roll deterministically.

Status mapping (taxonomy -> HTTP): draining -> 503 (permanent for this
server), overload -> 429 with ``Retry-After``, deadline -> 504, other
transients -> 503, permanent errors -> 400.  Responses to a client
that spoke ``schema_version: 1`` are rewritten through
:func:`~repro.api.schema.downgrade_payload` so old clients keep
parsing.

Graceful drain (SIGTERM): stop admitting (new requests -> 503
draining), flush in-flight work, close stores and shards, exit 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor

from repro.api.schema import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
    ErrorInfo,
    downgrade_payload,
    payload_from_dict,
)
from repro.api.service import RedService
from repro.errors import (
    DrainingError,
    EvaluationTimeoutError,
    OverloadedError,
    ParameterError,
    ReproError,
    SchemaError,
)
from repro.reliability import failpoints
from repro.reliability.policy import is_retryable
from repro.serving.admission import AdmissionGate
from repro.serving.respcache import ResponseCache
from repro.serving.runner import ShardedRunner
from repro.serving.supervisor import ShardSupervisor

#: Failpoint site armed at request admission (front-door ingress).
ACCEPT_SITE = "serving.accept"

_MAX_BODY_BYTES = 8 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024


def _status_for(exc: BaseException) -> int:
    """The HTTP status the failure taxonomy assigns to an exception."""
    if isinstance(exc, DrainingError):
        return 503
    if isinstance(exc, OverloadedError):
        return 429
    if isinstance(exc, EvaluationTimeoutError):
        return 504
    if is_retryable(exc, follow_cause=True):
        return 503
    return 400


class ServingServer:
    """The resilient sharded serving plane, one object end to end.

    Args:
        host / port: bind address (``port=0`` picks a free port;
            :attr:`port` reports the bound one after :meth:`start`).
        num_shards: supervised worker processes.
        cache_dir: parent directory for the per-shard packed stores.
        max_inflight / max_queue / retry_after_base_s: admission gate
            tuning (:class:`~repro.serving.admission.AdmissionGate`).
        fallback: reroute circuit-broken/dead shard partitions to the
            degraded in-process tier (:class:`ShardedRunner`).
        failure_threshold / cooldown_s: per-shard circuit breaker.
        respawn_budget / sleeper: shard supervisor restart contract.
        call_timeout_s: hard per-shard-call budget when a request
            carries no deadline.
        drain_timeout_s: longest :meth:`drain` waits for in-flight
            requests before tearing down anyway.
        response_cache_entries: size of the warm response tier
            (:class:`~repro.serving.respcache.ResponseCache`) memoizing
            successful evaluation responses by request bytes — sound
            because evaluation is a pure function of the payload.
            ``0`` disables the tier (every request hits the shards).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        num_shards: int = 2,
        cache_dir=None,
        max_inflight: int = 8,
        max_queue: int = 32,
        retry_after_base_s: float = 0.05,
        fallback: bool = True,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        respawn_budget: int = 2,
        sleeper=None,
        call_timeout_s: float = 60.0,
        drain_timeout_s: float = 30.0,
        response_cache_entries: int = 256,
    ) -> None:
        if not drain_timeout_s > 0:
            raise ParameterError(
                f"drain_timeout_s must be > 0, got {drain_timeout_s!r}"
            )
        self.host = host
        self._requested_port = port
        self.drain_timeout_s = drain_timeout_s
        self.gate = AdmissionGate(
            max_inflight=max_inflight,
            max_queue=max_queue,
            retry_after_base_s=retry_after_base_s,
        )
        self.supervisor = ShardSupervisor(
            num_shards=num_shards,
            cache_dir=cache_dir,
            respawn_budget=respawn_budget,
            sleeper=sleeper,
            call_timeout_s=call_timeout_s,
        )
        self._runner_kwargs = {
            "fallback": fallback,
            "failure_threshold": failure_threshold,
            "cooldown_s": cooldown_s,
        }
        self.respcache = (
            ResponseCache(response_cache_entries)
            if response_cache_entries
            else None
        )
        self.runner: ShardedRunner | None = None
        self.service: RedService | None = None
        self._pool = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="red-serve"
        )
        self._lsock: socket.socket | None = None
        self._accept_task: asyncio.Task | None = None
        self._bound_port = 0
        self._writers: set = set()
        self._handlers: set = set()
        self._drain_started = asyncio.Event()
        self._drained = False
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Set once the listening socket is bound — lets another thread
        #: (tests, the bench harness) wait for readiness.
        self.ready = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`).

        Cached at bind time: it must stay readable while (and after)
        the drain path closes the listening sockets.
        """
        return self._bound_port if self._bound_port else self._requested_port

    async def start(self) -> "ServingServer":
        """Spawn the shards and bind the listening socket."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        await loop.run_in_executor(self._pool, self.supervisor.start)
        self.runner = ShardedRunner(self.supervisor, **self._runner_kwargs)
        self.service = RedService(design_runner=self.runner)
        self._lsock = self._bind_socket()
        self._accept_task = loop.create_task(self._accept_loop(loop))
        self.ready.set()
        return self

    def _bind_socket(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self._requested_port))
        sock.listen(128)
        sock.setblocking(False)
        self._bound_port = sock.getsockname()[1]
        return sock

    async def _accept_loop(self, loop) -> None:
        """Own the accept pipeline end to end.

        Every accepted socket gets an owning, tracked task
        *synchronously* — before the next await — so drain can always
        account for it.  ``asyncio.start_server`` is deliberately not
        used: a connection it accepts just before ``Server.close()``
        may have its transport built after the close, which trips
        ``Server._attach``'s assertion and strands the accepted socket
        with no owner — the client then blocks until its own timeout.
        """
        while True:
            try:
                conn, _addr = await loop.sock_accept(self._lsock)
            except asyncio.CancelledError:
                return
            except OSError:
                if self._drain_started.is_set():
                    return
                continue
            task = loop.create_task(self._serve_connection(loop, conn))
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)

    async def _serve_connection(self, loop, conn) -> None:
        try:
            reader = asyncio.StreamReader(loop=loop)
            protocol = asyncio.StreamReaderProtocol(reader, loop=loop)
            transport, _ = await loop.connect_accepted_socket(
                lambda: protocol, conn
            )
        except asyncio.CancelledError:
            conn.close()
            raise
        except OSError:
            conn.close()
            return
        writer = asyncio.StreamWriter(transport, protocol, reader, loop)
        await self._handle_client(reader, writer)

    async def drain(self) -> None:
        """Graceful shutdown: shed, flush, stop accepting, close."""
        if self._drained:
            return
        self._drained = True
        self._drain_started.set()
        self.gate.begin_drain()
        loop = asyncio.get_running_loop()
        # In-flight requests hold gate slots; wait for the last
        # release.  The accept loop keeps running meanwhile, so a
        # connect racing the drain gets its 503 envelope instead of a
        # dead socket.
        await loop.run_in_executor(
            None, self.gate.wait_idle, self.drain_timeout_s
        )
        if self._accept_task is not None:
            self._accept_task.cancel()
            try:
                await self._accept_task
            except asyncio.CancelledError:
                pass
            self._accept_task = None
        if self._lsock is not None:
            # Closing the listener resets whatever is still in the
            # kernel backlog — refused beats waiting forever.
            self._lsock.close()
            self._lsock = None
        await self._settle_connections(loop)
        await loop.run_in_executor(None, self._close_backends)
        self._pool.shutdown(wait=True)

    async def _settle_connections(self, loop) -> None:
        """Answer or close every accepted connection before the loop dies.

        ``asyncio.run`` tears down whatever is still pending once
        :meth:`_run_async` returns; a connection task cancelled before
        its response was flushed leaves its client blocked on an
        ESTABLISHED socket that only the garbage collector will close
        — a silent hang until the client's own timeout.  Give handlers
        a short grace to write their final bytes (the gate is already
        idle, so only draining 503s and health probes remain), then
        cancel stragglers and force the FINs out.
        """
        grace = min(1.0, self.drain_timeout_s)
        deadline = loop.time() + grace
        while True:
            pending = {task for task in self._handlers if not task.done()}
            if not pending and not self._writers:
                return
            remaining = deadline - loop.time()
            if remaining <= 0 or not pending:
                break
            await asyncio.wait(pending, timeout=remaining)
        for task in tuple(self._handlers):
            task.cancel()
        pending = {task for task in self._handlers if not task.done()}
        if pending:
            await asyncio.wait(pending, timeout=grace)
        for writer in tuple(self._writers):
            self._writers.discard(writer)
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), timeout=0.25)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                transport = writer.transport
                if transport is not None:
                    transport.abort()

    def _close_backends(self) -> None:
        # Blocking teardown, executor-side: service thread pool, scatter
        # pool, shard processes and their stores.
        if self.service is not None:
            self.service.close()
        if self.runner is not None:
            self.runner.close()
        self.supervisor.stop()

    def run(self, install_signals: bool = True) -> int:
        """Blocking entry point: serve until SIGTERM/SIGINT, drain, 0.

        ``install_signals=False`` is the embedded mode (tests, bench
        harness): the loop runs in a worker thread — where signal
        handlers cannot be installed — and :meth:`request_drain` is the
        shutdown trigger instead.
        """
        return asyncio.run(self._run_async(install_signals))

    def request_drain(self) -> None:
        """Thread-safe drain trigger (what the SIGTERM handler does).

        Idempotent and safe at any lifecycle point — asking an
        already-drained server (closed loop) to drain is a no-op.
        """
        if self._loop is None:
            self._drain_started.set()
            return
        try:
            self._loop.call_soon_threadsafe(self._drain_started.set)
        except RuntimeError:
            pass  # loop already closed: the drain has happened

    async def _run_async(self, install_signals: bool = True) -> int:
        await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self._drain_started.set)
        await self._drain_started.wait()
        await self.drain()
        return 0

    # ------------------------------------------------------------------
    # HTTP plumbing (event loop side: parse and route only)
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except SchemaError as exc:
                    info = ErrorInfo.from_exception(exc, source="serving.http")
                    await self._respond(writer, 400, info.to_dict(), {}, False)
                    return
                if request is None:
                    return
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower() != "close"
                )
                status, payload, extra = await self._route(
                    method, path, headers, body
                )
                await self._respond(writer, status, payload, extra, keep_alive)
                if not keep_alive or self.gate.draining:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _read_request(self, reader):
        """One parsed HTTP/1.1 request, or ``None`` at EOF."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            raise SchemaError("request head too large") from exc
        if len(head) > _MAX_HEADER_BYTES:
            raise SchemaError("request head too large")
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise SchemaError(f"malformed request line {request_line!r}")
        method, path, _version = parts
        headers = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0") or "0"
        # Digits only: int() alone would raise on "abc" and accept "-5".
        if not (length_text.isascii() and length_text.isdigit()):
            raise SchemaError(
                f"Content-Length must be a non-negative decimal, got {length_text!r}"
            )
        length = int(length_text)
        if length > _MAX_BODY_BYTES:
            raise SchemaError(f"request body of {length} bytes exceeds the cap")
        body = await reader.readexactly(length) if length else b""
        return method, path, headers, body

    async def _route(self, method, path, headers, body):
        """Dispatch one request; returns ``(status, json_payload, extra)``."""
        loop = asyncio.get_running_loop()
        if method == "GET" and path == "/healthz":
            return 200, self._health_payload(), {}
        if method == "GET" and path == "/readyz":
            return await loop.run_in_executor(self._pool, self._readyz)
        if method == "POST" and path == "/v1/payload":
            return await self._payload(loop, headers, body)
        info = ErrorInfo(
            error_type="SchemaError",
            message=f"no route for {method} {path}",
            source="serving.route",
        )
        return 404, info.to_dict(), {}

    async def _payload(self, loop, headers, body):
        """The evaluation route: warm tier, else admit and hand off."""
        timeout_s, attempt, error = self._request_meta(headers)
        if error is not None:
            return 400, error.to_dict(), {}
        if self.respcache is not None and not self.gate.draining:
            hit = self.respcache.get(body)
            if hit is not None:
                # The ingress failpoint still draws on the warm tier:
                # chaos coverage of the front door must not shrink just
                # because the answer is memoized.
                try:
                    failpoints.inject(ACCEPT_SITE, zlib.crc32(body), attempt)
                except (ReproError, OSError) as exc:
                    info = ErrorInfo.from_exception(
                        exc, source="serving.dispatch"
                    )
                    return (
                        _status_for(exc),
                        info.to_dict(),
                        self._retry_headers(exc),
                    )
                return 200, hit, {}
        try:
            self.gate.admit()
        except (DrainingError, OverloadedError) as exc:
            info = ErrorInfo.from_exception(exc, source="serving.admission")
            return _status_for(exc), info.to_dict(), self._retry_headers(exc)
        try:
            return await loop.run_in_executor(
                self._pool, self._process, body, timeout_s, attempt
            )
        finally:
            self.gate.release()

    def _request_meta(self, headers):
        """Parse the deadline/attempt headers (400 on malformed values)."""
        timeout_s = None
        raw = headers.get("x-red-timeout-s")
        if raw is not None:
            try:
                timeout_s = float(raw)
            except ValueError:
                timeout_s = -1.0
            if not timeout_s > 0:
                return None, 0, ErrorInfo(
                    error_type="SchemaError",
                    message=f"X-Red-Timeout-S must be a positive number, got {raw!r}",
                    source="serving.headers",
                )
        try:
            attempt = int(headers.get("x-red-attempt", "0") or "0")
        except ValueError:
            attempt = -1
        if attempt < 0:
            return None, 0, ErrorInfo(
                error_type="SchemaError",
                message="X-Red-Attempt must be a non-negative integer",
                source="serving.headers",
            )
        return timeout_s, attempt, None

    @staticmethod
    def _retry_headers(exc) -> dict:
        retry_after = getattr(exc, "retry_after_s", None)
        if retry_after is None:
            return {}
        return {"Retry-After": str(max(1, round(retry_after)))}

    # ------------------------------------------------------------------
    # Executor side (blocking work lives here, never in the loop)
    # ------------------------------------------------------------------
    def _process(self, body: bytes, timeout_s, attempt: int):
        """Decode -> dispatch -> encode, entirely on a worker thread."""
        client_version = SCHEMA_VERSION
        try:
            failpoints.inject(ACCEPT_SITE, zlib.crc32(body), attempt)
            try:
                wire = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise SchemaError(f"request body is not valid JSON: {exc}") from exc
            if (
                isinstance(wire, dict)
                and wire.get("schema_version") in SUPPORTED_SCHEMA_VERSIONS
            ):
                client_version = wire["schema_version"]
            request = payload_from_dict(wire)
            self.runner.set_attempt(attempt)
            handler = self.service._handler_for(request)
            result = handler(request, timeout=timeout_s)
        except (ReproError, OSError) as exc:
            info = ErrorInfo.from_exception(exc, source="serving.dispatch")
            payload = info.to_dict()
            if client_version < SCHEMA_VERSION:
                payload = downgrade_payload(payload, client_version)
            return _status_for(exc), payload, self._retry_headers(exc)
        payload = result.to_dict()
        if client_version < SCHEMA_VERSION:
            payload = downgrade_payload(payload, client_version)
        if self.respcache is not None:
            # Only settled successes enter the warm tier; the key is the
            # raw body, so a v1 client's downgraded payload can never be
            # replayed to a v2 client.
            self.respcache.put(body, payload)
        return 200, payload, {}

    def _readyz(self):
        """Readiness: not draining, and a live heartbeat from any shard."""
        if self.gate.draining:
            info = ErrorInfo.from_exception(
                DrainingError("server is draining"), source="serving.readyz"
            )
            return 503, info.to_dict(), {}
        beats = self.supervisor.heartbeat_all()
        alive = sum(1 for beat in beats.values() if beat.get("alive"))
        payload = self._health_payload()
        payload["heartbeats"] = {str(k): v for k, v in beats.items()}
        if alive == 0:
            payload["status"] = "no-running-shard"
            return 503, payload, {}
        return 200, payload, {}

    def _health_payload(self) -> dict:
        """Liveness body: cheap, no pipe IO (loop-safe)."""
        return {
            "status": "draining" if self.gate.draining else "ok",
            "schema_version": SCHEMA_VERSION,
            "supported_schema_versions": sorted(SUPPORTED_SCHEMA_VERSIONS),
            "shards": {
                str(k): v for k, v in self.supervisor.states().items()
            },
            "gate": {
                "inflight": self.gate.inflight,
                "capacity": self.gate.capacity,
                "admitted_total": self.gate.admitted_total,
                "shed_total": self.gate.shed_total,
            },
            "degraded_calls": 0 if self.runner is None else self.runner.degraded_calls,
            "response_cache": (
                {"hits": 0, "misses": 0, "entries": 0, "max_entries": 0}
                if self.respcache is None
                else self.respcache.stats()
            ),
        }

    async def _respond(self, writer, status, payload, extra, keep_alive) -> None:
        body = json.dumps(payload).encode("utf-8")
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            429: "Too Many Requests",
            503: "Service Unavailable",
            504: "Gateway Timeout",
        }.get(status, "Error")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"X-Red-Schema-Version: {SCHEMA_VERSION}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        headers.extend(f"{name}: {value}" for name, value in extra.items())
        writer.write(("\r\n".join(headers) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()
