"""Minimal HTTP layer on the stdlib asyncio server.

The service carries no web-framework dependency. Its request handlers
face the network through :func:`serve_connection`, an
``asyncio.start_server`` callback that speaks just enough HTTP/1.1 for
the API: one request per connection (every response carries
``Connection: close``; streaming responses are close-delimited, which
is what SSE clients expect), a bounded header block, and a
``Content-Length``-framed body.

Handlers exchange plain dataclasses: a :class:`Request` in, a
:class:`Response` (buffered) or :class:`StreamResponse` (async byte
iterator, used by SSE) out.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Awaitable, Callable, Dict, Optional
from urllib.parse import parse_qs, unquote, urlsplit

__all__ = ["HttpError", "Request", "Response", "StreamResponse",
           "json_response", "serve_connection"]

#: Upper bounds keeping one bad client from ballooning server memory.
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content", 400: "Bad Request",
    404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 501: "Not Implemented",
}


class HttpError(Exception):
    """A malformed/oversized request the connection layer rejects."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """Decode the body as JSON (``None`` when empty)."""
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")

    @property
    def client_header(self) -> Optional[str]:
        """``X-Client-Id``, the out-of-band client identity spelling."""
        return self.headers.get("x-client-id")


@dataclass
class Response:
    """A buffered response."""

    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""


@dataclass
class StreamResponse:
    """A close-delimited streaming response (SSE)."""

    chunks: AsyncIterator[bytes]
    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)


def json_response(payload: Any, status: int = 200,
                  headers: Optional[Dict[str, str]] = None) -> Response:
    """A JSON body with the right content type."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    merged = {"Content-Type": "application/json"}
    if headers:
        merged.update(headers)
    return Response(status=status, headers=merged, body=body)


#: The dispatcher signature :func:`serve_connection` drives.
Dispatcher = Callable[[Request], "Awaitable[Response | StreamResponse]"]


# ---------------------------------------------------------------------------
# stdlib asyncio server
# ---------------------------------------------------------------------------


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request off the stream; ``None`` on immediate EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close before a request
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line {lines[0]!r}")
    method, target, _version = parts
    split = urlsplit(target)
    query = {key: values[-1] for key, values
             in parse_qs(split.query, keep_blank_values=True).items()}
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"body over {MAX_BODY_BYTES} bytes")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise HttpError(400, "truncated request body")
    elif headers.get("transfer-encoding"):
        raise HttpError(501, "chunked request bodies are not supported")
    return Request(method=method.upper(), path=unquote(split.path),
                   query=query, headers=headers, body=body)


def _head_bytes(status: int, headers: Dict[str, str]) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def serve_connection(dispatch: Dispatcher,
                           reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
    """Handle one connection: read a request, dispatch, respond, close."""
    try:
        try:
            request = await _read_request(reader)
            if request is None:
                return
            response = await dispatch(request)
        except HttpError as exc:
            response = json_response({"error": exc.message},
                                     status=exc.status)
        except Exception as exc:  # last-ditch; handlers map their own
            response = json_response({"error": f"internal error: {exc}"},
                                     status=500)
        if isinstance(response, StreamResponse):
            headers = {"Connection": "close", **response.headers}
            writer.write(_head_bytes(response.status, headers))
            await writer.drain()
            async for chunk in response.chunks:
                writer.write(chunk)
                await writer.drain()
        else:
            headers = {"Connection": "close",
                       "Content-Length": str(len(response.body)),
                       **response.headers}
            writer.write(_head_bytes(response.status, headers))
            writer.write(response.body)
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
        pass  # client went away mid-stream; nothing to salvage
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
