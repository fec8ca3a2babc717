"""The asyncio front end: HTTP routes over the job queue, WebSocket
trace streams over the hubs.

One :class:`ReproServer` owns one :class:`~repro.server.jobs.JobQueue`
(and through it the process-wide warm compile caches) and serves:

======  =========================  ==========================================
method  path                       answer
======  =========================  ==========================================
GET     /health                    liveness + version + registry size
GET     /scenarios                 registered scenarios (``?tag=`` filters;
                                   404 on an unknown tag)
GET     /scenarios/<name>          one scenario's tags/description/defaults
POST    /jobs                      submit run/sweep/bench (202; 200 cached;
                                   429 + Retry-After when the queue is full).
                                   Run jobs accept ``from_cycle``: the job
                                   restores the deepest checkpoint at or
                                   below that cycle for its (topology,
                                   stimulus) prefix and simulates only the
                                   tail -- submitting several tails against
                                   one checkpointed prefix forks divergent
                                   runs from cycle k.  Checkpoints come from
                                   earlier jobs run with
                                   ``config.checkpoint_every``
GET     /jobs                      every job's lifecycle record
GET     /jobs/<id>                 one job's record
GET     /jobs/<id>/result          finished result (409 until done)
DELETE  /jobs/<id>                 cancel a queued job (409 if running)
GET     /jobs/<id>/trace           WebSocket upgrade: live delta stream
GET     /stats                     queue/cache/trace statistics
======  =========================  ==========================================

All request handling is async and tiny; every heavy operation happens on
the queue's worker threads.  The server can run three ways -- blocking
(:meth:`serve_forever`, the CLI path, with signal-driven graceful
shutdown), embedded in a host loop (:meth:`start`/:meth:`stop`), or on a
daemon thread (:meth:`start_in_thread`/:meth:`close`, the tests' and
``Session.serve(background=True)`` path).
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
from typing import Optional

from ..api import SimConfig, get_registry
from .jobs import Backpressure, BadSubmission, JobQueue
from .protocol import (
    OP_CLOSE,
    OP_PING,
    OP_PONG,
    ProtocolError,
    Request,
    json_response,
    read_request,
    ws_close,
    ws_frame,
    ws_handshake_response,
    ws_read_frame,
    ws_text,
)


class ReproServer:
    """The long-lived simulation service."""

    def __init__(self, config: Optional[SimConfig] = None,
                 host: str = "127.0.0.1", port: int = 8642,
                 queue_depth: int = 16, workers: int = 2,
                 retry_after: float = 1.0, trace_depth: int = 4096):
        self.host = host
        self.port = port
        self.queue = JobQueue(config=config, depth=queue_depth,
                              workers=workers, retry_after=retry_after,
                              trace_depth=trace_depth)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._connections: set = set()
        self._shutdown_summary = {"cancelled": 0, "drained": 0}

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "ReproServer":
        """Bind and start serving on the running loop (non-blocking).
        ``port=0`` picks a free port; ``self.port`` holds the real one
        after this returns."""
        self._loop = asyncio.get_running_loop()
        self.queue.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self, drain: bool = True) -> dict:
        """Stop accepting connections, cancel queued jobs and (when
        ``drain``) wait for running ones off-loop.  Returns the
        cancelled/drained counts for the shutdown log line."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # idle keep-alive connections would outlive the loop otherwise
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections,
                                 return_exceptions=True)
        loop = asyncio.get_running_loop()
        summary = await loop.run_in_executor(
            None, lambda: self.queue.shutdown(drain=drain))
        self._shutdown_summary = summary
        return summary

    def serve_forever(self) -> dict:
        """Run until SIGINT/SIGTERM, then drain and report -- the
        ``python -m repro serve`` path."""
        async def _main():
            await self.start()
            print(f"repro.server listening on "
                  f"http://{self.host}:{self.port} "
                  f"({len(get_registry())} scenarios, "
                  f"{len(self.queue._workers)} workers, "
                  f"queue depth {self.queue.depth})", flush=True)
            stop_event = asyncio.Event()
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, stop_event.set)
                except (NotImplementedError, RuntimeError):
                    pass         # non-main thread or exotic platform
            await stop_event.wait()
            return await self.stop(drain=True)

        summary = asyncio.run(_main())
        print(f"repro.server: shut down cleanly "
              f"({summary['drained']} running job(s) drained, "
              f"{summary['cancelled']} queued job(s) cancelled)",
              file=sys.stderr, flush=True)
        return summary

    def start_in_thread(self) -> "ReproServer":
        """Start on a fresh loop on a daemon thread; returns once the
        socket is bound (so ``self.port`` is usable immediately)."""
        ready = threading.Event()
        failure: list = []

        def _run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.start())
            except Exception as exc:
                failure.append(exc)
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.close()

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name="repro-server")
        self._thread.start()
        ready.wait()
        if failure:
            raise failure[0]
        return self

    def close(self, drain: bool = True) -> None:
        """Shut down a :meth:`start_in_thread` server and join it."""
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            self.queue.shutdown(drain=drain)
            return
        future = asyncio.run_coroutine_threadsafe(
            self.stop(drain=drain), loop)
        future.result(timeout=60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        self._thread = None

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- connection handling -------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as exc:
                    writer.write(json_response(400, {"error": str(exc)}))
                    await writer.drain()
                    break
                if request is None:
                    break
                if request.wants_websocket:
                    await self._serve_trace(request, reader, writer)
                    break        # a websocket consumes the connection
                try:
                    status, payload, extra = self._dispatch(request)
                except Backpressure as exc:
                    status, payload = 429, {
                        "error": str(exc),
                        "retry_after": exc.retry_after,
                    }
                    extra = (("Retry-After",
                              f"{max(1, round(exc.retry_after))}"),)
                except (BadSubmission, ProtocolError) as exc:
                    status, payload, extra = 400, {"error": str(exc)}, ()
                except KeyError as exc:   # includes UnknownScenarioError
                    status, payload, extra = (
                        404, {"error": str(exc.args[0]) if exc.args
                              else str(exc)}, ())
                writer.write(json_response(status, payload,
                                           extra_headers=extra))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    RuntimeError):
                pass

    # -- routing -------------------------------------------------------
    def _dispatch(self, request: Request):
        """Route one plain-HTTP request; returns (status, payload,
        extra_headers)."""
        method, parts = request.method, request.parts
        if parts == ("health",) and method == "GET":
            return 200, {
                "status": "ok",
                "scenarios": len(get_registry()),
                "queue": {"depth": self.queue.depth},
            }, ()
        if parts == ("scenarios",) and method == "GET":
            return 200, self._scenarios_payload(
                request.query.get("tag")), ()
        if len(parts) == 2 and parts[0] == "scenarios" and method == "GET":
            return 200, self._scenario_payload(parts[1]), ()
        if parts == ("jobs",):
            if method == "POST":
                return self._submit(request)
            if method == "GET":
                return 200, {
                    "jobs": [j.record() for j in self.queue.jobs()],
                }, ()
            return 405, {"error": f"{method} not allowed on /jobs"}, ()
        if len(parts) >= 2 and parts[0] == "jobs":
            job = self.queue.get(parts[1])
            if job is None:
                return 404, {"error": f"unknown job {parts[1]!r}"}, ()
            if len(parts) == 2:
                if method == "GET":
                    return 200, job.record(), ()
                if method == "DELETE":
                    job = self.queue.cancel(job.id)
                    if job.state == "running":
                        return 409, {
                            "error": f"job {job.id} is running and "
                                     "cannot be cancelled",
                            "state": job.state,
                        }, ()
                    return 200, job.record(), ()
                return 405, {
                    "error": f"{method} not allowed on /jobs/<id>"}, ()
            if parts[2] == "result" and method == "GET":
                if job.state != "done":
                    return 409, {
                        "error": f"job {job.id} is {job.state}, "
                                 "result not available",
                        "state": job.state,
                        "job": job.record(),
                    }, ()
                return 200, {
                    "kind": job.kind,
                    "cached": job.cached,
                    "result": job.result_payload(),
                }, ()
        if parts == ("stats",) and method == "GET":
            return 200, self.queue.stats(), ()
        return 404, {"error": f"no route for {method} {request.path}"}, ()

    def _submit(self, request: Request):
        payload = request.json()
        job = self.queue.submit(payload)
        status = 200 if job.state == "done" else 202
        return status, job.record(), ()

    @staticmethod
    def _scenarios_payload(tag: Optional[str]) -> dict:
        registry = get_registry()
        return {
            "scenarios": [
                {
                    "name": sc.name,
                    "tags": sorted(sc.tags),
                    "description": sc.description,
                }
                # an unknown tag raises UnknownScenarioError: a 404
                for sc in map(registry.get, registry.names(tag))
            ],
            "tags": registry.tags(),
        }

    @staticmethod
    def _scenario_payload(name: str) -> dict:
        sc = get_registry().get(name)      # raises UnknownScenarioError
        return {
            "name": sc.name,
            "tags": sorted(sc.tags),
            "description": sc.description,
        }

    # -- websocket trace streaming -------------------------------------
    async def _serve_trace(self, request: Request,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        parts = request.parts
        if len(parts) != 3 or parts[0] != "jobs" or parts[2] != "trace":
            writer.write(json_response(
                404, {"error": f"no websocket route for {request.path}"}))
            await writer.drain()
            return
        job = self.queue.get(parts[1])
        if job is None:
            writer.write(json_response(
                404, {"error": f"unknown job {parts[1]!r}"}))
            await writer.drain()
            return
        if job.hub is None:
            writer.write(json_response(
                409, {"error": f"job {job.id} was not submitted with "
                               "stream=true; no trace to stream"}))
            await writer.drain()
            return
        try:
            writer.write(ws_handshake_response(request))
            await writer.drain()
        except ProtocolError as exc:
            writer.write(json_response(400, {"error": str(exc)}))
            await writer.drain()
            return
        hub = job.hub
        sub = hub.subscribe(asyncio.get_running_loop())
        closer = asyncio.create_task(self._watch_client(reader, writer))
        try:
            async for delta in sub.deltas():
                if closer.done():
                    return
                writer.write(ws_text(json.dumps(
                    delta, sort_keys=True, separators=(",", ":"))))
                await writer.drain()
            end = dict(hub.end or {"type": "end"})
            end["dropped"] = sub.dropped
            end["job"] = job.id
            writer.write(ws_text(json.dumps(
                end, sort_keys=True, separators=(",", ":"))))
            writer.write(ws_close())
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            hub.unsubscribe(sub)
            closer.cancel()
            try:
                await closer
            except (asyncio.CancelledError, Exception):
                pass

    @staticmethod
    async def _watch_client(reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """Drain client frames so a close (or EOF) is noticed even
        while the stream is mid-flight; answers pings."""
        while True:
            try:
                opcode, payload = await ws_read_frame(reader)
            except ProtocolError:
                return
            if opcode == OP_CLOSE:
                return
            if opcode == OP_PING:
                writer.write(ws_frame(OP_PONG, payload))
                await writer.drain()
