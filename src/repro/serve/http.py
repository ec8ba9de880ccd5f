"""Minimal HTTP/1.1 framing over asyncio streams.

Just enough of the protocol for the daemon's JSON endpoints: request
line + headers + ``Content-Length`` bodies in, status + JSON out, with
keep-alive.  Limits are enforced while *reading* (oversized header
blocks and bodies are rejected with typed :class:`HttpError`\\ s before
any allocation proportional to the claimed size), chunked uploads are
declined, and anything malformed maps to a 400 rather than a traceback.
"""

from __future__ import annotations

import json

#: Per-header-block ceiling (request line + all headers).
MAX_HEADER_BYTES = 16 * 1024
#: Request body ceiling.
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A protocol-level failure with the status to answer with."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


class Request:
    """One parsed request."""

    __slots__ = ("method", "path", "headers", "body", "keep_alive")

    def __init__(self, method, path, headers, body, keep_alive):
        self.method = method
        self.path = path
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive

    def json(self):
        """The body as JSON, or a 400-mapped :class:`HttpError`."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(
                400, f"request body is not valid JSON: {exc}"
            ) from None

    def __repr__(self):
        return f"Request({self.method} {self.path}, {len(self.body)}B)"


async def read_request(reader):
    """Parse one request off the stream; ``None`` on a clean EOF."""
    header_block = b""
    while b"\r\n\r\n" not in header_block:
        chunk = await reader.read(1024)
        if not chunk:
            if header_block.strip():
                raise HttpError(
                    400, "connection closed mid-request-header"
                )
            return None
        header_block += chunk
        if len(header_block) > MAX_HEADER_BYTES:
            raise HttpError(431, "request headers too large")
    head, _, remainder = header_block.partition(b"\r\n\r\n")
    lines = head.split(b"\r\n")
    try:
        request_line = lines[0].decode("latin-1")
        method, path, http_version = request_line.split(" ", 2)
    except (UnicodeDecodeError, ValueError):
        raise HttpError(400, "malformed request line") from None
    if not http_version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {http_version!r}")
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep:
            raise HttpError(400, "malformed header line")
        try:
            headers[name.decode("latin-1").strip().lower()] = (
                value.decode("latin-1").strip()
            )
        except UnicodeDecodeError:
            raise HttpError(400, "malformed header line") from None
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked request bodies are not supported")
    length_header = headers.get("content-length", "0")
    try:
        length = int(length_header)
    except ValueError:
        raise HttpError(
            400, f"invalid Content-Length {length_header!r}"
        ) from None
    if length < 0:
        raise HttpError(400, f"invalid Content-Length {length}")
    if length > MAX_BODY_BYTES:
        raise HttpError(
            413, f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit"
        )
    body = remainder
    while len(body) < length:
        chunk = await reader.read(length - len(body))
        if not chunk:
            raise HttpError(400, "connection closed mid-request-body")
        body += chunk
    if len(body) > length:
        # Pipelined extra bytes would need pushback we don't implement;
        # a JSON client never pipelines, so treat it as malformed.
        raise HttpError(400, "request body longer than Content-Length")
    keep_alive = (
        headers.get("connection", "keep-alive").lower() != "close"
        if http_version == "HTTP/1.1"
        else headers.get("connection", "").lower() == "keep-alive"
    )
    return Request(method.upper(), path, headers, body, keep_alive)


def encode_body(payload):
    """A JSON-ready payload as the UTF-8 body bytes a response carries."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def render_response(status, payload, keep_alive=True, extra_headers=()):
    """Serialize a status + JSON payload into response bytes.

    ``payload`` may be ``bytes`` already produced by :func:`encode_body`
    (the daemon renders a search answer once and re-sends it on every
    result-cache hit); only the head is built around it then.
    """
    body = payload if isinstance(payload, bytes) else encode_body(payload)
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body
