"""``served``: closed-loop clients against the socket service.

A simulation client cannot send step n+1 before it holds state n, so
the load is a closed loop: one thread, at most two connections open at
once.  Lane A cycles sessions (create, N steps, close) on one
connection to an in-thread ``SimulationService``.  Lane B sends the
same traffic through a one-shard ``ShardGateway``.  Lane C pipelines
two same-family sessions over two connections so the scheduler can
coalesce them into K=2 fleet ticks.  On this light scene the serving
machinery is most of each step, so ``serve``, scheduler, protocol and
shard changes show here and engine changes barely do.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass

from harness import Telemetry, derived_seed

from repro.experiments.table1 import PRESET_PRECISIONS
from repro.fp.context import FPContext
from repro.obs import Tracer
from repro.serve import Client, GatewayConfig, ServeClientError, \
    ServiceConfig, Session, SessionConfig
from repro.serve.client import start_in_thread
from repro.serve.protocol import decode_frame, encode_frame
from repro.serve.session import state_digest
from repro.serve.shard.gateway import start_gateway_in_thread
from repro.workloads import build

SCENARIO = "deformable"
PRECISION = dict(PRESET_PRECISIONS[SCENARIO])


@dataclass(frozen=True)
class ServedSize:
    scale: float = 0.3
    steps: int = 30
    #: distinct session seeds cycled through (reference trajectories
    #: are computed once per seed)
    seeds: int = 4
    pings: int = 5


FULL = ServedSize()
TINY = ServedSize(scale=0.2, steps=3, seeds=2, pings=2)


class _ListSink:
    """Tracer sink keeping events in memory."""

    def __init__(self) -> None:
        self.events = []

    def write(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


class _Pipe:
    """A raw NDJSON connection whose send and receive are separate, so
    one thread can keep a request in flight on each of two sockets."""

    def __init__(self, address: dict) -> None:
        self.sock = socket.create_connection(
            (address["host"], address["port"]), timeout=60.0)
        self.file = self.sock.makefile("rwb")
        self.seq = 0

    def send(self, frame: dict) -> str:
        self.seq += 1
        frame = dict(frame, id=f"p{self.seq}")
        self.file.write(encode_frame(frame))
        self.file.flush()
        return frame["id"]

    def recv(self, rid: str) -> dict:
        while True:
            line = self.file.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            response = decode_frame(line)
            if response.get("id") == rid:
                return response

    def request(self, frame: dict) -> dict:
        return self.recv(self.send(frame))

    def close(self) -> None:
        self.file.close()
        self.sock.close()


class Bench:
    def __init__(self, tel: Telemetry, seed: int, size: ServedSize,
                 workdir: str, corrupt: bool = False) -> None:
        self.tel = tel
        self.size = size
        self.workdir = workdir
        self.corrupt = corrupt
        self.session_seeds = [derived_seed(seed, "session", i)
                              for i in range(size.seeds)]
        self.reference = {}
        self.service = self.gateway = None
        self.sink = _ListSink()
        self.cycle = 0
        #: sessions lane A created on the in-thread service
        self.solo_sessions = set()

    # -- fixtures --------------------------------------------------------
    def setup(self) -> None:
        """Start the service and the one-shard gateway (shard spawn)."""
        observer = Tracer(self.sink) if self.tel.trace else None
        self.service = start_in_thread(ServiceConfig(port=0),
                                       observer=observer)
        start = time.perf_counter()
        runtime = os.path.join(self.workdir, f"rt{len(self.tel.setup)}")
        self.gateway = start_gateway_in_thread(GatewayConfig(
            port=0, shards=1, runtime_dir=runtime))
        self.tel.sample("shard.spawn", (time.perf_counter() - start) * 1e3)

    def teardown(self) -> None:
        gateway, service = self.gateway, self.service
        self.gateway = self.service = None
        try:
            if gateway is not None:
                gateway.stop()
        finally:
            if service is not None:
                service.stop()

    def lanes(self):
        return [self.solo_lane, self.gateway_lane, self.pair_lane,
                self.layer_lane]

    def _seed(self) -> int:
        self.cycle += 1
        return self.session_seeds[self.cycle % len(self.session_seeds)]

    def _reference(self, seed: int):
        """Per-step digests of an in-process ``World`` on the same
        scenario, scale, seed and precision: the independent path."""
        if seed not in self.reference:
            ctx = FPContext(dict(PRECISION), mode="jam", census=False)
            world = build(SCENARIO, ctx=ctx, scale=self.size.scale,
                          seed=seed)
            digests = []
            for _ in range(self.size.steps):
                world.step()
                digests.append(state_digest(world))
            self.reference[seed] = digests
        return self.reference[seed]

    def _create_frame(self, seed: int) -> dict:
        return {"op": "create", "scenario": SCENARIO,
                "scale": self.size.scale, "seed": seed,
                "precision": dict(PRECISION)}

    def _digest_ok(self, response: dict, want: str, where: str) -> None:
        got = response.get("digest")
        if self.corrupt:
            got = "0" * len(want)
        self.tel.check(got == want, f"{where}: digest differs from the "
                                    f"in-process World")

    # -- lanes A and B -----------------------------------------------------
    def _solo(self, handle, sample: str, span: str) -> None:
        tel, spans = self.tel, self.tel.spans
        seed = self._seed()
        want = self._reference(seed)
        client = Client(**handle.address())
        try:
            start = time.perf_counter()
            with spans.span(f"{span}.create", f"{sample}:{self.cycle}"):
                session = client.request(self._create_frame(seed))[
                    "session"]
            if handle is self.service:
                self.solo_sessions.add(session)
            tel.sample(f"{sample}.create",
                       (time.perf_counter() - start) * 1e3)
            tel.op()
            for i in range(self.size.steps):
                with spans.span(f"{span}.step", f"{session}:{i}"):
                    start = time.perf_counter()
                    response = client.step(session)
                    tel.sample(sample, (time.perf_counter() - start) * 1e3)
                tel.op()
                self._digest_ok(response, want[i], f"{sample} step {i}")
            client.close_session(session)
            tel.op()
        except ServeClientError as exc:
            tel.op(False, f"{sample}: {exc.code}: {exc.detail}")
        finally:
            client.close()

    def solo_lane(self, round_index: int) -> None:
        self._solo(self.service, "served", "Client")

    def gateway_lane(self, round_index: int) -> None:
        self._solo(self.gateway, "gateway", "gateway.Client")

    # -- lane C ------------------------------------------------------------
    def pair_lane(self, round_index: int) -> None:
        tel, spans = self.tel, self.tel.spans
        seeds = [self._seed(), self._seed()]
        wants = [self._reference(s) for s in seeds]
        address = self.service.address()
        pipes = [_Pipe(address), _Pipe(address)]
        try:
            before = pipes[0].request({"op": "stats"})
            sessions = []
            for pipe, seed in zip(pipes, seeds):
                response = pipe.request(self._create_frame(seed))
                tel.op(response.get("ok"), f"pair create: {response}")
                sessions.append(response.get("session"))
            for i in range(self.size.steps):
                with spans.span("pair.round", f"pair:{self.cycle}:{i}"):
                    start = time.perf_counter()
                    rids = [pipe.send({"op": "step", "session": sid,
                                       "steps": 1})
                            for pipe, sid in zip(pipes, sessions)]
                    responses = [pipe.recv(rid)
                                 for pipe, rid in zip(pipes, rids)]
                    tel.sample("pair", (time.perf_counter() - start) * 1e3)
                for k, response in enumerate(responses):
                    ok = bool(response.get("ok"))
                    tel.op(ok, f"pair step: {response.get('error')}")
                    if ok:
                        self._digest_ok(response, wants[k][i],
                                        f"pair step {i}")
            for pipe, sid in zip(pipes, sessions):
                response = pipe.request({"op": "close", "session": sid})
                tel.op(response.get("ok"), f"pair close: {response}")
            after = pipes[0].request({"op": "stats"})
            for key in ("batches", "fleet_batches", "fleet_sessions"):
                tel.count(f"serve.{key}", after[key] - before[key])
            tel.count("serve.pair_requests", 2 * self.size.steps)
        finally:
            for pipe in pipes:
                pipe.close()

    # -- per-layer probes (traced rounds only) ------------------------------
    def layer_lane(self, round_index: int) -> None:
        tel, spans = self.tel, self.tel.spans
        if not spans.enabled:
            return
        for handle, label in ((self.service, "serve.ping"),
                              (self.gateway.gateway.supervisor[0],
                               "shard.ping")):
            address = ({"unix_path": str(handle.socket_path)}
                       if label == "shard.ping" else handle.address())
            client = Client(**address)
            try:
                for _ in range(self.size.pings):
                    with spans.span(label):
                        start = time.perf_counter()
                        client.ping()
                        tel.sample(label,
                                   (time.perf_counter() - start) * 1e3)
            finally:
                client.close()
        seed = self._seed()
        want = self._reference(seed)
        session = Session("s1", SessionConfig(
            scenario=SCENARIO, scale=self.size.scale, seed=seed,
            precision=dict(PRECISION)))
        for i in range(self.size.steps):
            with spans.span("Session.step", f"session:{i}"):
                start = time.perf_counter()
                response = session.step(1)
                tel.sample("serve.session_step",
                           (time.perf_counter() - start) * 1e3)
            tel.check(response["digest"] == want[i],
                      f"Session.step {i}: digest differs from World")

    def server_request_ms(self):
        """Server-side wall time of lane A's step requests, from the
        service's own ``serve.request`` trace events."""
        return [event["wall"] * 1e3 for event in self.sink.events
                if event.get("kind") == "serve.request"
                and event.get("op") == "step"
                and event.get("session") in self.solo_sessions]
