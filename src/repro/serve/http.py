"""JSON-over-HTTP front end on raw asyncio streams.

A deliberately small HTTP/1.1 subset — request line, headers,
``Content-Length`` bodies, keep-alive — hand-rolled on
``asyncio.start_server``: the service's protocol needs are tiny and a
framework dependency would dwarf them.  Every route is a thin
translation onto :class:`~repro.serve.service.AdvisorService`; errors
map onto status codes by exception type:

===============================================  ====
:class:`~repro.serve.scheduler.AdmissionError`    429
:class:`~repro.serve.scheduler.TenantGoneError`,
:class:`~repro.serve.service.UnknownTenantError`  404
:class:`~repro.serve.service.ServiceDrainingError`,
:class:`~repro.serve.pool.DeadlineError`           503
other :class:`~repro.errors.ReproError`,
``ValueError`` / ``KeyError`` (bad input)          400
anything else                                      500
===============================================  ====

Shed responses (429/503) carry a ``Retry-After`` header.  A request
that stalls mid-transfer after its first byte is dropped with 408
(slowloris guard; idle keep-alive connections may wait forever).
Mutating routes honor an ``Idempotency-Key`` header — a retried key
replays the recorded response, flagged ``"replayed": true`` — and
``X-Deadline-Ms`` mints a request deadline at admission that follows
the job through the scheduler and into the solver pool.

Routes::

    POST   /tenants                    create_tenant
    GET    /status                     service status
    GET    /metrics                    Prometheus exposition (all tenants)
    GET    /slo                        per-tenant SLO standing
    GET    /debug/traces               summaries of the trace ring
    GET    /debug/traces/{trace_id}    one stitched request trace
    POST   /tenants/{id}/advise        one-shot advise
    POST   /tenants/{id}/trace         feed_trace_chunk
    GET    /tenants/{id}/status        tenant status
    GET    /tenants/{id}/events        tenant event log
    DELETE /tenants/{id}               delete_tenant

Request tracing: the routes that do real work (create, advise, feed)
mint a :class:`~repro.serve.tracing.RequestTrace` at admission and pass
it down; the handler wraps response serialization in its own span and
finalizes the trace — success or error — so every traced request lands
in the debug ring and the access log exactly once.

During a drain the listener stops accepting new connections; responses
for work already admitted still flow out over their open sockets.
"""

import asyncio
import json

from repro.serve.service import retry_after_for, status_for

#: Request bodies above this are refused outright (64 MiB).
MAX_BODY = 64 << 20
#: Header block size limit.
MAX_HEADER = 64 << 10

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _HttpError(Exception):
    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


async def _read_request(reader, timeout=None):
    """Parse one request; returns (method, path, headers, body) or None
    at a clean end of stream.

    ``timeout`` is the slowloris guard: an *idle* keep-alive connection
    may wait forever for its next request, but once the first byte
    lands the rest of the request must arrive within ``timeout``
    seconds or the request fails with 408.
    """
    try:
        first = await reader.readexactly(1)
    except asyncio.IncompleteReadError:
        return None
    if timeout is None:
        return await _read_rest(reader, first)
    try:
        return await asyncio.wait_for(_read_rest(reader, first), timeout)
    except asyncio.TimeoutError:
        raise _HttpError(408, "request not received whole within %.1fs"
                         % timeout) from None


async def _read_rest(reader, first):
    try:
        head = first + await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError:
        raise _HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise _HttpError(413, "header block too large") from None
    if len(head) > MAX_HEADER:
        raise _HttpError(413, "header block too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, "malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _HttpError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _HttpError(400, "bad Content-Length") from None
    if length < 0 or length > MAX_BODY:
        raise _HttpError(413, "body too large")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def _response(status, payload, keep_alive, extra_headers=None):
    body = json.dumps(payload).encode()
    extra = "".join("%s: %s\r\n" % (name, value) for name, value in
                    (extra_headers or {}).items())
    head = (
        "HTTP/1.1 %d %s\r\n"
        "Content-Type: application/json\r\n"
        "Content-Length: %d\r\n"
        "%s"
        "Connection: %s\r\n"
        "\r\n" % (status, _REASONS.get(status, "Unknown"), len(body),
                  extra, "keep-alive" if keep_alive else "close")
    )
    return head.encode("latin-1") + body


def _json_body(body):
    if not body:
        return {}
    try:
        return json.loads(body)
    except json.JSONDecodeError as error:
        raise _HttpError(400, "request body is not JSON: %s" % error) \
            from None


class HttpFrontend:
    """The asyncio server wrapping one :class:`AdvisorService`."""

    def __init__(self, service, host=None, port=None):
        self.service = service
        self.host = host if host is not None else service.config.host
        self.port = port if port is not None else service.config.port
        self._server = None

    # -- lifecycle ------------------------------------------------------

    async def start(self):
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self):
        """Drain: stop accepting, finish admitted work, shut down."""
        if self._server is not None:
            self._server.close()
        await self.service.drain()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self):
        async with self._server:
            await self._server.serve_forever()

    # -- connection handling --------------------------------------------

    async def _handle(self, reader, writer):
        timeout = self.service.config.request_timeout_s
        try:
            while True:
                try:
                    request = await _read_request(reader, timeout=timeout)
                except _HttpError as error:
                    writer.write(_response(error.status,
                                           {"error": str(error)}, False))
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "").lower() != "close"
                trace = {}
                extra_headers = {}
                try:
                    status, payload = await self._route(method, path, body,
                                                        headers, trace)
                except _HttpError as error:
                    status, payload = error.status, {"error": str(error)}
                except Exception as error:  # noqa: BLE001 — mapped to a code
                    status = status_for(error)
                    payload = {"error": "%s" % error,
                               "kind": type(error).__name__}
                    retry_after = retry_after_for(error)
                    if retry_after is not None:
                        extra_headers["Retry-After"] = "%d" % retry_after
                rtrace = trace.get("rtrace")
                if isinstance(payload, str):
                    data = payload.encode()
                    head = (
                        "HTTP/1.1 %d %s\r\n"
                        "Content-Type: text/plain; version=0.0.4\r\n"
                        "Content-Length: %d\r\n"
                        "Connection: %s\r\n\r\n"
                        % (status, _REASONS.get(status, "Unknown"),
                           len(data),
                           "keep-alive" if keep_alive else "close")
                    ).encode("latin-1")
                    writer.write(head + data)
                elif rtrace is not None:
                    span = rtrace.start("response.serialize")
                    data = _response(status, payload, keep_alive,
                                     extra_headers)
                    rtrace.finish(span, bytes=len(data))
                    error_text = (payload.get("error")
                                  if status >= 400
                                  and isinstance(payload, dict) else None)
                    self.service.end_trace(rtrace, status, error=error_text)
                    writer.write(data)
                else:
                    writer.write(_response(status, payload, keep_alive,
                                           extra_headers))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # CancelledError here means the loop is tearing down
                # mid-close; the socket is gone either way.
                pass

    # -- routing --------------------------------------------------------

    async def _route(self, method, path, body, headers=None, trace=None):
        """Dispatch one request.  ``trace`` (a dict) receives the
        request's :class:`RequestTrace` under ``"rtrace"`` as soon as
        one is minted, so the handler can finalize it even when the
        route body raises."""
        service = self.service
        trace = trace if trace is not None else {}
        headers = headers or {}
        idem_key = headers.get("idempotency-key")
        path = path.split("?", 1)[0]
        segments = [s for s in path.split("/") if s]

        if not segments:
            raise _HttpError(404, "no route for %s" % path)

        if segments == ["status"] and method == "GET":
            return 200, service.status()
        if segments == ["metrics"] and method == "GET":
            return 200, service.metrics_text()
        if segments == ["slo"] and method == "GET":
            return 200, service.slo_report()
        if segments[0] == "debug" and len(segments) >= 2 \
                and segments[1] == "traces" and method == "GET":
            if len(segments) == 2:
                return 200, service.debug_traces()
            if len(segments) == 3:
                return 200, service.debug_trace(segments[2])
        if segments[0] == "tenants":
            if len(segments) == 1:
                if method != "POST":
                    raise _HttpError(405, "POST /tenants")
                rtrace = service.begin_trace("create_tenant")
                trace["rtrace"] = rtrace
                return 200, await service.create_tenant(
                    _json_body(body), rtrace=rtrace,
                    deadline=service.deadline_from(headers),
                    idempotency_key=idem_key,
                )
            tenant_id = segments[1]
            if len(segments) == 2:
                if method == "DELETE":
                    return 200, await service.delete_tenant(
                        tenant_id, idempotency_key=idem_key
                    )
                if method == "GET":
                    return 200, service.tenant_status(tenant_id)
                raise _HttpError(405, "GET or DELETE /tenants/{id}")
            action = segments[2]
            if len(segments) == 3:
                if action == "advise" and method == "POST":
                    payload = _json_body(body)
                    rtrace = service.begin_trace("advise",
                                                 tenant=tenant_id)
                    trace["rtrace"] = rtrace
                    return 200, await service.advise(
                        tenant_id, payload.get("options"), rtrace=rtrace,
                        deadline=service.deadline_from(headers),
                    )
                if action == "trace" and method == "POST":
                    payload = _json_body(body)
                    entries = payload.get("records", payload) \
                        if isinstance(payload, dict) else payload
                    if not isinstance(entries, list):
                        raise _HttpError(
                            400, "trace body must be a record list or "
                                 "{\"records\": [...]}"
                        )
                    rtrace = service.begin_trace("feed", tenant=tenant_id)
                    trace["rtrace"] = rtrace
                    return 200, await service.feed_trace_chunk(
                        tenant_id, entries, rtrace=rtrace,
                        idempotency_key=idem_key,
                    )
                if action == "status" and method == "GET":
                    return 200, service.tenant_status(tenant_id)
                if action == "events" and method == "GET":
                    return 200, service.tenant_events(tenant_id)
        raise _HttpError(404, "no route for %s %s" % (method, path))

