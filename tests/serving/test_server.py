"""End-to-end serving plane: wire protocol, negotiation, overload, drain.

Every test here talks to a real :class:`~repro.serving.server.ServingServer`
— real sockets, real forked shard processes — through the
:class:`~repro.serving.testing.ServerThread` harness, whose exit path is
byte-for-byte the SIGTERM drain.
"""

import gc
import json
import socket
import threading

import pytest

from repro.api.schema import (
    SCHEMA_VERSION,
    EvaluationRequest,
    NetworkResult,
    SweepRequest,
    SweepResult,
)
from repro.api.service import RedService
from repro.errors import ShardUnavailableError
from repro.reliability import configured_failpoints
from repro.reliability.policy import RetryPolicy, no_sleep
from repro.serving.client import ServingCallError
from repro.serving.testing import ServerThread

SWEEP = SweepRequest(strides=(1, 2, 4))
#: Generous attempts, no real sleeping — chaos rounds retry a lot.
LENIENT = RetryPolicy(max_attempts=10, base_delay_s=0.0, sleeper=no_sleep)


# Class scope, not module: only one serving plane may be alive at a
# time.  Shard processes are forked, and forking while another plane's
# threads hold locks can deadlock the child until the supervisor's call
# budget reclaims it — exactly the cross-tenant interference the
# one-plane-per-process deployment model avoids.
@pytest.fixture(scope="class")
def plane():
    with configured_failpoints(None):
        with ServerThread(num_shards=2, call_timeout_s=20.0) as running:
            yield running


def in_process_reference(request):
    service = RedService()
    try:
        with configured_failpoints(None):
            return service.sweep(request)
    finally:
        service.close()


class TestWireProtocol:
    def test_healthz_and_readyz(self, plane):
        with plane.client() as client:
            health_status, health = client.healthz()
            ready_status, ready = client.readyz()
        assert health_status == 200
        assert health["status"] == "ok"
        assert set(health["shards"].values()) == {"running"}
        assert ready_status == 200
        assert all(hb["alive"] for hb in ready["heartbeats"].values())

    def test_sweep_matches_in_process_byte_for_byte(self, plane):
        expected = in_process_reference(SWEEP)
        with plane.client() as client:
            got = client.call(SWEEP)
        assert isinstance(got, SweepResult)
        assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(
            expected.to_dict(), sort_keys=True
        )

    def test_v1_client_negotiation_round_trips(self, plane):
        with plane.client(schema_version=1) as client:
            got = client.call(SWEEP)
        assert got.schema_version == 1
        wire = got.to_dict()
        assert wire["schema_version"] == 1
        assert "retry_after_s" not in json.dumps(wire)
        # Numbers are identical to what a v2 client sees.
        expected = in_process_reference(SWEEP)
        assert [p.speedup for p in got.points] == [
            p.speedup for p in expected.points
        ]

    def test_unknown_route_is_a_404_envelope(self, plane):
        with plane.client() as client:
            status, body = client._exchange("GET", "/nope")
        assert status == 404
        assert body["kind"] == "error_info"
        assert not body["retryable"]

    def test_malformed_json_is_a_400_envelope(self, plane):
        with plane.client() as client:
            status, body = client._exchange(
                "POST", "/v1/payload", body="{not json",
                headers={"Content-Type": "application/json"},
            )
        assert status == 400
        assert body["error_type"] == "SchemaError"

    def test_bad_deadline_header_is_a_400_envelope(self, plane):
        with plane.client() as client:
            status, body = client._exchange(
                "POST", "/v1/payload", body=json.dumps(SWEEP.to_dict()),
                headers={"X-Red-Timeout-S": "banana"},
            )
        assert status == 400
        assert body["error_type"] == "SchemaError"

    @pytest.mark.parametrize("length", ("abc", "-5"))
    def test_bad_content_length_is_a_400_envelope(self, plane, length):
        """A Content-Length that is not a non-negative decimal gets a
        typed answer, never a silently closed socket (raw socket: the
        client library always sends a valid length)."""
        request = (
            "POST /v1/payload HTTP/1.1\r\n"
            "Host: localhost\r\n"
            f"Content-Length: {length}\r\n"
            "\r\n"
        ).encode("latin-1")
        with socket.create_connection(("127.0.0.1", plane.port), timeout=10.0) as sock:
            sock.sendall(request)
            response = b""
            while chunk := sock.recv(65536):
                response += chunk
        head, _, body = response.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        info = json.loads(body)
        assert info["kind"] == "error_info"
        assert info["error_type"] == "SchemaError"
        assert "Content-Length" in info["message"]

    def test_schema_error_from_payload_is_permanent(self, plane):
        with plane.client() as client:
            with pytest.raises(ServingCallError) as caught:
                client.call({"kind": "sweep_request", "schema_version": 99})
        assert caught.value.status == 400
        assert not caught.value.info.retryable


#: Bodies whose decode once raised TypeError/ValueError instead of
#: SchemaError: the exception escaped the front door and the client got
#: no response at all.
STRANDING_BODIES = {
    "designs_not_a_list": {
        "kind": "evaluation_request", "schema_version": SCHEMA_VERSION,
        "layer": "GAN_Deconv1", "designs": 5,
    },
    "unhashable_kind": {"kind": [], "schema_version": SCHEMA_VERSION},
    "batch_not_an_int": {
        **NetworkResult(
            network="SNGAN", batch=1, layers=(), designs=(),
            layer_results=(), summaries=(),
        ).to_dict(),
        "batch": "",
    },
}


class TestMalformedPayloads:
    @pytest.fixture(scope="class")
    def one_shard(self):
        with configured_failpoints(None):
            with ServerThread(num_shards=1, call_timeout_s=20.0) as running:
                yield running

    @pytest.mark.parametrize("name", sorted(STRANDING_BODIES))
    def test_gets_a_400_schema_error(self, one_shard, asyncio_errors, name):
        with one_shard.client(timeout=20.0) as client:
            status, info = client._exchange(
                "POST", "/v1/payload", body=json.dumps(STRANDING_BODIES[name]),
                headers={"Content-Type": "application/json"},
            )
        assert status == 400
        assert info["kind"] == "error_info"
        assert info["error_type"] == "SchemaError"
        gc.collect()
        assert asyncio_errors.records == []


class TestOverloadAndDeadline:
    def test_full_gate_sheds_429_with_retry_hint(self, plane):
        gate = plane.server.gate
        for _ in range(gate.capacity):
            gate.admit()
        try:
            with plane.client() as client:
                with pytest.raises(ServingCallError) as caught:
                    client.call(SWEEP)
        finally:
            for _ in range(gate.capacity):
                gate.release()
        assert caught.value.status == 429
        assert caught.value.info.error_type == "OverloadedError"
        assert caught.value.info.retryable
        assert caught.value.retry_after_s > 0

    def test_shed_request_succeeds_on_retry_after_slots_free(self, plane):
        gate = plane.server.gate
        for _ in range(gate.capacity):
            gate.admit()
        blocked = threading.Timer(
            0.05, lambda: [gate.release() for _ in range(gate.capacity)]
        )
        blocked.start()
        try:
            with plane.client() as client:
                # Real sleeps here: the retry loop must actually wait out
                # the server's retry_after_s hint for slots to free up.
                got = client.call_with_retry(
                    SWEEP,
                    retry_policy=RetryPolicy(max_attempts=20, base_delay_s=0.02),
                )
        finally:
            blocked.join()
        assert isinstance(got, SweepResult)

    def test_wire_deadline_maps_to_504(self, plane):
        # A deadline no evaluation can meet: the supervisor kills the
        # unresponsive call and the final status is the deadline's.
        with plane.client() as client:
            with pytest.raises(ServingCallError) as caught:
                client.call(EvaluationRequest(layer="FCN_Deconv2"), timeout_s=1e-6)
        assert caught.value.status == 504
        assert caught.value.info.error_type == "EvaluationTimeoutError"
        assert not caught.value.info.retryable
        # The plane recovers: shards respawn and keep serving.
        with plane.client() as client:
            got = client.call_with_retry(SWEEP, retry_policy=LENIENT)
        assert isinstance(got, SweepResult)


class TestDrain:
    def test_drain_under_load_answers_every_request(self):
        outcomes = {}
        barrier = threading.Barrier(9)

        def one_request(plane, index):
            barrier.wait()
            try:
                with plane.client(timeout=60.0) as client:
                    outcomes[index] = client.call(SWEEP)
            except (ServingCallError, ShardUnavailableError) as exc:
                outcomes[index] = exc

        with configured_failpoints(None):
            with ServerThread(
                num_shards=2, max_inflight=2, max_queue=2, call_timeout_s=20.0
            ) as plane:
                threads = [
                    threading.Thread(target=one_request, args=(plane, i))
                    for i in range(8)
                ]
                for t in threads:
                    t.start()
                barrier.wait()  # all client threads are in flight
                plane.server.request_drain()
                for t in threads:
                    t.join(timeout=120.0)
                    assert not t.is_alive(), "request hung across drain"
        assert plane.exit_code == 0
        assert len(outcomes) == 8
        for outcome in outcomes.values():
            # Complete result or typed envelope — never a hang, never
            # an unexplained connection drop mid-response.
            assert isinstance(
                outcome, (SweepResult, ServingCallError, ShardUnavailableError)
            )

    def test_drained_server_refuses_new_work_then_exits_zero(self):
        with configured_failpoints(None):
            with ServerThread(num_shards=2) as plane:
                plane.server.request_drain()
                deadline_met = plane.server.gate.wait_idle(timeout=30.0)
                assert deadline_met
                with pytest.raises(
                    (ServingCallError, ShardUnavailableError)
                ) as caught:
                    with plane.client() as client:
                        client.call(SWEEP)
                if isinstance(caught.value, ServingCallError):
                    assert caught.value.status == 503
                    assert caught.value.info.error_type == "DrainingError"
        assert plane.exit_code == 0


class TestChaos:
    def test_injected_faults_recover_byte_identical(self):
        """The tentpole invariant: crash + io_error mid-run, every
        request answered, recovered results byte-identical to fault-free.
        """
        expected = json.dumps(
            in_process_reference(SWEEP).to_dict(), sort_keys=True
        )
        spec = (
            "serving.shard_call:crash@0.3;"
            "serving.accept:io_error@0.2;"
            "serving.merge:io_error@0.1"
        )
        with configured_failpoints(spec, seed=11):
            with ServerThread(num_shards=2, respawn_budget=4) as plane:
                with plane.client(timeout=60.0) as client:
                    for _ in range(3):
                        got = client.call_with_retry(SWEEP, retry_policy=LENIENT)
                        assert (
                            json.dumps(got.to_dict(), sort_keys=True) == expected
                        )
                    ready_status, _ = client.readyz()
                assert ready_status == 200
        assert plane.exit_code == 0
