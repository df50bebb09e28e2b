"""A minimal asyncio HTTP/1.1 layer for the digital-twin service.

Stdlib only, by design: the service must boot anywhere the simulator
does, so instead of depending on ``uvicorn``/``starlette`` this module
hand-rolls the small slice of HTTP/1.1 the API needs — request-line +
header parsing, ``Content-Length`` bodies, pattern routing with
``{param}`` captures, JSON responses, and close-delimited streaming for
the server-sent-events endpoint.  Every connection serves one request
and closes (``Connection: close``), which keeps the state machine tiny;
the clients this server exists for (curl, Prometheus scrapers, the test
suite) are all fine with that.

Nothing in here knows about RunSpecs — the application layer
(:mod:`repro.server.app`) registers handlers; this module moves bytes.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Awaitable, Callable
from urllib.parse import parse_qsl, unquote, urlsplit

__all__ = [
    "HttpError",
    "Request",
    "Response",
    "EventStream",
    "json_response",
    "AsyncHttpServer",
]

#: Request body ceiling (a RunSpec JSON is a few KB; 8 MiB is generous).
MAX_BODY_BYTES = 8 * 1024 * 1024
#: Request-line / header-line length ceiling.
MAX_LINE_BYTES = 16 * 1024
MAX_HEADERS = 100


class HttpError(Exception):
    """An error with an HTTP status; handlers raise it, the server
    renders it as a JSON error body."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes
    #: ``{param}`` captures from the matched route pattern.
    params: dict[str, str] = field(default_factory=dict)

    def json(self) -> Any:
        """The body parsed as JSON (400 on absent/malformed)."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON document")
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"malformed JSON body: {exc}") from None

    def flag(self, name: str) -> bool:
        """A boolean query parameter (``?wait=1`` / ``?wait=true``)."""
        return self.query.get(name, "").lower() in ("1", "true", "yes", "on")


@dataclass
class Response:
    """A buffered response (the normal case)."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)


class EventStream:
    """A streamed response: the handler supplies an async iterator of
    byte chunks, written as they arrive under ``text/event-stream`` with
    a close-delimited body."""

    def __init__(self, chunks: AsyncIterator[bytes]):
        self.chunks = chunks


Handler = Callable[[Request], Awaitable["Response | EventStream"]]

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


def json_response(payload: Any, status: int = 200) -> Response:
    """A deterministic JSON response (sorted keys, trailing newline)."""
    body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return Response(status=status, body=body.encode("utf-8"))


def _compile(pattern: str) -> list[str]:
    """Split a route pattern into segments; ``{name}`` segments capture."""
    return [seg for seg in pattern.strip("/").split("/")]


def _match(segments: list[str], path: str) -> dict[str, str] | None:
    parts = path.strip("/").split("/")
    if len(parts) != len(segments):
        return None
    params: dict[str, str] = {}
    for seg, part in zip(segments, parts):
        if seg.startswith("{") and seg.endswith("}"):
            if not part:
                return None
            params[seg[1:-1]] = unquote(part)
        elif seg != part:
            return None
    return params


class AsyncHttpServer:
    """A route table plus the asyncio accept/parse/respond loop."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._routes: list[tuple[str, list[str], Handler]] = []
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, method: str, pattern: str, handler: Handler) -> None:
        self._routes.append((method.upper(), _compile(pattern), handler))

    def _dispatch(self, request: Request) -> Handler:
        path_matched = False
        for method, segments, handler in self._routes:
            params = _match(segments, request.path)
            if params is None:
                continue
            path_matched = True
            if method == request.method:
                request.params = params
                return handler
        if path_matched:
            raise HttpError(405, f"method {request.method} not allowed for {request.path}")
        raise HttpError(404, f"no such endpoint: {request.path}")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns (host, bound port) — with
        ``port=0`` the OS picks an ephemeral port, reported here."""
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # One connection = one request
    # ------------------------------------------------------------------
    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await asyncio.wait_for(self._read_request(reader), timeout=30.0)
            except HttpError as exc:
                await self._write_response(writer, self._error_response(exc))
                return
            except (asyncio.TimeoutError, asyncio.IncompleteReadError, ValueError):
                await self._write_response(
                    writer, self._error_response(HttpError(400, "malformed request"))
                )
                return

            try:
                handler = self._dispatch(request)
                result = await handler(request)
            except HttpError as exc:
                result = self._error_response(exc)
            except Exception as exc:  # noqa: BLE001 - a handler bug must not kill the server
                result = self._error_response(
                    HttpError(500, f"internal error: {type(exc).__name__}: {exc}")
                )

            if isinstance(result, EventStream):
                await self._write_stream(writer, result)
            else:
                await self._write_response(writer, result)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away mid-write; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Request:
        line = await reader.readline()
        if not line:
            raise HttpError(400, "empty request")
        if len(line) > MAX_LINE_BYTES:
            raise HttpError(400, "request line too long")
        try:
            method, target, version = line.decode("latin-1").strip().split(" ", 2)
        except ValueError:
            raise HttpError(400, "malformed request line") from None
        if not version.startswith("HTTP/1."):
            raise HttpError(501, f"unsupported protocol {version!r}")

        headers: dict[str, str] = {}
        for _ in range(MAX_HEADERS):
            raw = await reader.readline()
            if len(raw) > MAX_LINE_BYTES:
                raise HttpError(400, "header line too long")
            text = raw.decode("latin-1").strip()
            if not text:
                break
            name, sep, value = text.partition(":")
            if not sep:
                raise HttpError(400, f"malformed header line {text!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise HttpError(400, "too many headers")

        body = b""
        if "content-length" in headers:
            # RFC 9110 ``1*DIGIT``: int() alone would take "+3", "1_0" and
            # "-1", and str.isdigit() alone takes non-ASCII digits ("²").
            value = headers["content-length"]
            if not (value.isascii() and value.isdigit()):
                raise HttpError(400, "bad Content-Length")
            # Count digits first: int() refuses strings past 4,300 digits.
            digits = value.lstrip("0") or "0"
            if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
                raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            body = await reader.readexactly(int(digits))
        elif headers.get("transfer-encoding", "").lower() == "chunked":
            raise HttpError(501, "chunked request bodies not supported")

        split = urlsplit(target)
        query = dict(parse_qsl(split.query, keep_blank_values=True))
        return Request(
            method=method.upper(),
            path=unquote(split.path) or "/",
            query=query,
            headers=headers,
            body=body,
        )

    @staticmethod
    def _error_response(exc: HttpError) -> Response:
        return json_response({"error": exc.message, "status": exc.status}, exc.status)

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, response: Response) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        head = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            "Connection: close",
        ]
        head.extend(f"{k}: {v}" for k, v in response.headers.items())
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(response.body)
        await writer.drain()

    @staticmethod
    async def _write_stream(writer: asyncio.StreamWriter, stream: EventStream) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        async for chunk in stream.chunks:
            writer.write(chunk)
            await writer.drain()
