"""The ``repro serve`` asyncio prediction daemon.

One long-lived process answers prediction requests over HTTP/JSON
without re-paying Python start-up, frontend compilation, kernel
profiling, or model evaluation for repeated questions:

- **two-tier cache**: rendered response bytes and all artifact layers
  live in a shared in-memory :class:`~repro.cache.hot.HotCache` above
  the persistent disk store, so a repeated request is answered from
  memory without entering the worker pool at all;
- **request coalescing**: concurrent identical requests — identity is
  a content fingerprint (canonical IR + design point + device), never
  request text — attach to the one in-flight evaluation and all
  receive its bytes (or its error);
- **bounded worker pool**: cold evaluations — every /predict answer is
  the exact analytical model's — run on a forked process pool (or
  threads, ``--executor thread``) sized by ``--jobs``; explore/suite
  requests are sharded across it and can stream NDJSON progress;
- **backpressure**: when the admission queue is full new evaluations
  are refused with ``503`` + ``Retry-After`` instead of queueing
  unboundedly (cache hits and coalesced attaches are always admitted).

The response-body contract is byte-identity with the CLI: for any
served endpoint, the body equals the stdout of the equivalent
``repro <cmd> --json`` invocation, because both sides render the same
:mod:`repro.serve.api` payload through the same canonical encoder.

The HTTP layer is a deliberately small hand-rolled HTTP/1.1 subset
(stdlib-only: ``asyncio.start_server``): request line + headers +
``Content-Length`` bodies, keep-alive, and chunked responses for the
NDJSON streams.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cache import hot_cache_payload, open_cache
from repro.cache.hot import HotCache
from repro.serve import api
from repro.serve.api import ApiError, encode_body, request_key
from repro.serve.metrics import ServerMetrics
from repro.serve.pool import WorkerPool

#: request bodies above this are refused outright (64 MiB would only
#: ever be a mistake or abuse; real specs are a few KiB)
MAX_BODY_BYTES = 8 * 1024 * 1024
DEFAULT_QUEUE_LIMIT = 64


class BusyError(Exception):
    """Admission queue full: reported as 503 + Retry-After."""


@dataclass
class ServerConfig:
    """Everything ``repro serve`` can configure."""

    host: str = "127.0.0.1"
    port: int = 8177
    jobs: Optional[int] = None
    executor: str = "auto"            # 'auto' | 'process' | 'thread'
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    hot_entries: Optional[int] = None
    cache_dir: Optional[str] = None
    no_cache: bool = False
    quiet: bool = True


class PredictionServer:
    """The serving state machine (transport-independent core +
    asyncio HTTP front)."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        store = open_cache(config.cache_dir,
                           enabled=not config.no_cache)
        self.hot = HotCache(store=store,
                            max_entries=config.hot_entries or 2048)
        self.metrics = ServerMetrics()
        shared = None if config.no_cache else self.hot
        self.pool = WorkerPool(jobs=config.jobs, mode=config.executor,
                               shared_cache=shared)
        self._inflight: Dict[str, asyncio.Future] = {}
        self._active = 0              # evaluations admitted, not done
        self._conn_tasks: set = set()
        self._server: Optional[asyncio.base_events.Server] = None
        self.port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if not self.config.quiet:
            print(f"repro serve: listening on "
                  f"http://{self.config.host}:{self.port} "
                  f"({self.pool.mode} pool, {self.pool.jobs} workers, "
                  f"queue limit {self.config.queue_limit})")

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Idle keep-alive connections sit in readline() forever; cancel
        # them so the loop can close cleanly.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks,
                                 return_exceptions=True)
        self.pool.shutdown()

    # -- core: cacheable + coalesced endpoints -------------------------

    def _with_store(self, task: dict) -> dict:
        """*task* plus the store its process worker should open."""
        return dict(task, cache_dir=self.config.cache_dir,
                    no_cache=self.config.no_cache)

    async def answer(self, endpoint: str, spec: dict
                     ) -> Tuple[bytes, str]:
        """Answer one cacheable request: returns ``(body, outcome)``
        with outcome 'hot' | 'coalesced' | 'evaluated'.

        The fast path never enters the worker pool; only a genuinely
        new evaluation consumes an admission slot, so a loaded server
        keeps answering warm and duplicate requests while refusing new
        work.
        """
        key = request_key(endpoint, spec)
        found, body = self.hot.get("response", key)
        if found:
            return body, "hot"
        inflight = self._inflight.get(key)
        if inflight is not None:
            return await asyncio.shield(inflight), "coalesced"
        if self._active >= self.config.queue_limit:
            self.metrics.rejected += 1
            raise BusyError(
                f"admission queue full "
                f"({self._active}/{self.config.queue_limit} "
                f"evaluations in flight)")
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        # Waiters with no reader left must not surface "exception never
        # retrieved" noise at GC time.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self._inflight[key] = future
        self._active += 1
        try:
            payload = await asyncio.wrap_future(
                self.pool.submit(self._with_store(
                    {"op": endpoint, "spec": spec})))
            body = encode_body(payload)
        except BaseException as exc:
            # A failed computation is never cached; every coalesced
            # waiter sees the same error.
            future.set_exception(exc)
            raise
        else:
            self._harvest_trace_paths(payload)
            self.hot.put("response", key, body, write_through=False)
            future.set_result(body)
            return body, "evaluated"
        finally:
            self._active -= 1
            self._inflight.pop(key, None)

    def _harvest_trace_paths(self, payload) -> None:
        """Pull trace-engine provenance out of a freshly evaluated
        payload into the /metrics counters: predict bodies carry
        ``traces.provenance``, suite bodies a ``trace_paths`` map."""
        if not isinstance(payload, dict):
            return
        counts: Dict[str, int] = {}
        traces = payload.get("traces")
        if isinstance(traces, dict):
            label = traces.get("provenance")
            for source, name in api.TRACE_PROVENANCE.items():
                if name == label:
                    counts[source] = counts.get(source, 0) + 1
        for source, n in (payload.get("trace_paths") or {}).items():
            counts[source] = counts.get(source, 0) + int(n)
        if counts:
            self.metrics.count_trace_paths(counts)

    # -- core: streaming endpoints -------------------------------------

    async def stream_events(self, endpoint: str, spec: dict, emit):
        """Run a sharded explore/suite evaluation, calling ``await
        emit(event_dict)`` as shards complete; the last event carries
        the assembled payload (identical to the non-streamed body)."""
        if self._active >= self.config.queue_limit:
            self.metrics.rejected += 1
            raise BusyError("admission queue full")
        self._active += 1
        try:
            tasks = api.shard_tasks(endpoint, spec)
            await emit({"event": "start", "endpoint": endpoint,
                        "shards": len(tasks)})

            async def run(task: dict):
                return task, await asyncio.wrap_future(
                    self.pool.submit(self._with_store(task)))

            results = []
            for coro in asyncio.as_completed([run(t) for t in tasks]):
                task, result = await coro
                results.append(result)
                rows = result if endpoint == "explore" else result[0][1]
                await emit({"event": "shard", "completed": len(results),
                            "total": len(tasks), **task["label"],
                            "rows": len(rows)})
            payload = api.assemble(endpoint, spec, results)
            self._harvest_trace_paths(payload)
            await emit({"event": "result", "payload": payload})
        finally:
            self._active -= 1

    # -- metrics -------------------------------------------------------

    def metrics_payload(self) -> dict:
        payload = self.metrics.payload()
        payload["queue"] = {
            "active": self._active,
            "limit": self.config.queue_limit,
            "in_flight": min(self._active, self.pool.jobs),
            "depth": max(0, self._active - self.pool.jobs),
        }
        payload["workers"] = {"mode": self.pool.mode,
                              "jobs": self.pool.jobs}
        payload["cache"] = hot_cache_payload(self.hot)
        return payload

    # -- HTTP front ----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                request = await _read_request(reader)
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            # Server shutdown cancelled this connection; finish the
            # task normally so the streams machinery sees a clean exit.
            pass
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    async def _dispatch(self, request: "_Request",
                        writer: asyncio.StreamWriter) -> bool:
        started = time.monotonic()
        method, path = request.method, request.path
        endpoint = path.lstrip("/") or "root"
        outcome = None
        try:
            if method == "GET" and path == "/healthz":
                status, body = 200, encode_body({"status": "ok"})
            elif method == "GET" and path == "/metrics":
                status, body = 200, encode_body(self.metrics_payload())
            elif method == "POST" and path in (
                    "/predict", "/predict-graph", "/explore", "/suite"):
                spec = _parse_spec(request.body)
                if spec.pop("stream", False):
                    await self._respond_stream(
                        endpoint, spec, writer, request, started)
                    return request.keep_alive
                body, outcome = await self.answer(endpoint, spec)
                status = 200
            else:
                status, body = 404, encode_body(
                    {"error": f"no route {method} {path}"})
        except ApiError as exc:
            status, body = 400, encode_body({"error": str(exc)})
        except BusyError as exc:
            status, body = 503, encode_body({"error": str(exc)})
        except Exception as exc:              # noqa: BLE001
            status, body = 500, encode_body(
                {"error": f"{type(exc).__name__}: {exc}"})
        headers = {"Retry-After": "1"} if status == 503 else None
        _write_response(writer, status, body,
                        keep_alive=request.keep_alive,
                        extra_headers=headers)
        await writer.drain()
        self.metrics.observe(endpoint, status,
                             (time.monotonic() - started) * 1e3,
                             outcome)
        return request.keep_alive

    async def _respond_stream(self, endpoint: str, spec: dict,
                              writer: asyncio.StreamWriter,
                              request: "_Request",
                              started: float) -> None:
        """Answer an explore/suite request as a chunked NDJSON stream."""
        status = 200
        head_sent = False

        async def emit(event: dict) -> None:
            nonlocal head_sent
            if not head_sent:
                _write_stream_head(writer, request.keep_alive)
                head_sent = True
            line = json.dumps(event, sort_keys=True) + "\n"
            _write_chunk(writer, line.encode("utf-8"))
            await writer.drain()

        try:
            await self.stream_events(endpoint, spec, emit)
        except Exception as exc:              # noqa: BLE001
            if isinstance(exc, ApiError):
                status = 400
            elif isinstance(exc, BusyError):
                status = 503
            else:
                status = 500
            error = {"error": f"{exc}"}
            if not head_sent:
                headers = ({"Retry-After": "1"}
                           if status == 503 else None)
                _write_response(writer, status, encode_body(error),
                                keep_alive=request.keep_alive,
                                extra_headers=headers)
                await writer.drain()
                self.metrics.observe(
                    endpoint, status,
                    (time.monotonic() - started) * 1e3)
                return
            await emit(dict(error, event="error"))
        if head_sent:
            _write_chunk(writer, b"")          # terminating chunk
            await writer.drain()
        self.metrics.observe(endpoint, status,
                             (time.monotonic() - started) * 1e3,
                             "evaluated" if status == 200 else None)


# ---------------------------------------------------------------------
# minimal HTTP/1.1 plumbing
# ---------------------------------------------------------------------

@dataclass
class _Request:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes
    keep_alive: bool


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[_Request]:
    """Parse one request off the stream; None at EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        return None
    method, target, version = parts
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length < 0 or length > MAX_BODY_BYTES:
        return None
    body = await reader.readexactly(length) if length else b""
    keep_alive = (headers.get("connection", "").lower() != "close"
                  and version.upper() != "HTTP/1.0")
    path = target.split("?", 1)[0]
    return _Request(method=method.upper(), path=path,
                    headers=headers, body=body, keep_alive=keep_alive)


def _parse_spec(body: bytes) -> dict:
    if not body:
        return {}
    try:
        spec = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ApiError(f"request body is not valid JSON: {exc}") \
            from None
    if not isinstance(spec, dict):
        raise ApiError("request body must be a JSON object")
    return spec


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            500: "Internal Server Error", 503: "Service Unavailable"}


def _write_response(writer: asyncio.StreamWriter, status: int,
                    body: bytes, keep_alive: bool = True,
                    content_type: str = "application/json",
                    extra_headers: Optional[Dict[str, str]] = None
                    ) -> None:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)


def _write_stream_head(writer: asyncio.StreamWriter,
                       keep_alive: bool) -> None:
    lines = ["HTTP/1.1 200 OK",
             "Content-Type: application/x-ndjson",
             "Transfer-Encoding: chunked",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))


def _write_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(f"{len(data):x}\r\n".encode("latin-1") + data
                 + b"\r\n")


# ---------------------------------------------------------------------
# embedding helpers (tests, benchmarks, CI smoke)
# ---------------------------------------------------------------------

class ServeHandle:
    """A daemon running on a background thread (its own event loop)."""

    def __init__(self, server: PredictionServer,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.server.config.host}:{self.port}"

    def stop(self) -> None:
        loop = self._loop

        def _shutdown() -> None:
            asyncio.ensure_future(_stop_and_halt())

        async def _stop_and_halt() -> None:
            await self.server.stop()
            loop.stop()

        loop.call_soon_threadsafe(_shutdown)
        self._thread.join(timeout=10)


def serve_in_thread(config: Optional[ServerConfig] = None
                    ) -> ServeHandle:
    """Start a daemon on an ephemeral port in a background thread and
    return its handle once it is accepting connections."""
    config = config or ServerConfig(port=0)
    started = threading.Event()
    holder: dict = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        server = PredictionServer(config)
        loop.run_until_complete(server.start())
        holder["server"], holder["loop"] = server, loop
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=runner, name="repro-serve",
                              daemon=True)
    thread.start()
    if not started.wait(timeout=30):
        raise RuntimeError("serve daemon failed to start")
    return ServeHandle(holder["server"], holder["loop"], thread)
