"""A minimal asyncio client for the service (tests + smoke checks).

Deliberately tiny and dependency-free: one connection per request
(mirroring the server's ``Connection: close`` contract), JSON bodies in
and out, and an SSE consumer that parses ``text/event-stream`` frames
incrementally.  This is *not* a production client — it exists so the
integration tests and ``make serve-smoke`` can exercise the real wire
protocol without pulling in an HTTP library.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Dict, Optional, Tuple

from repro.errors import ServiceError


class ServiceResponse:
    """One parsed HTTP response (status + headers + decoded body)."""

    __slots__ = ("status", "headers", "body")

    def __init__(self, status: int, headers: Dict[str, str], body: bytes):
        self.status = status
        self.headers = headers
        self.body = body

    def json(self) -> Any:
        return json.loads(self.body.decode("utf-8"))


class SseEvent:
    """One parsed SSE frame (``None`` fields when the line was absent)."""

    __slots__ = ("event_id", "event", "data")

    def __init__(self, event_id: Optional[int], event: Optional[str],
                 data: str):
        self.event_id = event_id
        self.event = event
        self.data = data

    def json(self) -> Any:
        return json.loads(self.data)


class ServiceClient:
    """Issue requests against one running :class:`SeraphService`."""

    def __init__(self, host: str, port: int, token: Optional[str] = None):
        self.host = host
        self.port = port
        self.token = token

    def _headers(self, extra: Optional[Dict[str, str]]) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        if self.token is not None:
            headers["Authorization"] = f"Bearer {self.token}"
        if extra:
            headers.update(extra)
        return headers

    async def _connect(
        self,
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        return await asyncio.open_connection(self.host, self.port)

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        body: bytes,
        headers: Dict[str, str],
    ) -> None:
        lines = [f"{method} {path} HTTP/1.1",
                 f"Host: {self.host}:{self.port}",
                 f"Content-Length: {len(body)}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    @staticmethod
    async def _read_head(
        reader: asyncio.StreamReader,
    ) -> Tuple[int, Dict[str, str]]:
        status_line = await reader.readline()
        fields = status_line.split()
        if len(fields) < 2 or not fields[1].isdigit():
            raise ServiceError(
                f"malformed response status line {status_line!r}"
            )
        status = int(fields[1])
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    async def request(
        self,
        method: str,
        path: str,
        payload: Any = None,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> ServiceResponse:
        """One request/response round trip (JSON payload or raw body)."""
        request_headers = self._headers(headers)
        if body is None:
            if payload is not None:
                body = json.dumps(payload).encode("utf-8")
                request_headers.setdefault(
                    "Content-Type", "application/json"
                )
            else:
                body = b""
        reader, writer = await self._connect()
        try:
            await self._send(writer, method, path, body, request_headers)
            status, response_headers = await self._read_head(reader)
            length = int(response_headers.get("content-length", "0") or 0)
            data = await reader.readexactly(length) if length else b""
            return ServiceResponse(status, response_headers, data)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- SSE ---------------------------------------------------------------

    async def open_sse(
        self,
        path: str,
        last_event_id: Optional[int] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """Open an emissions stream; returns the live (reader, writer)
        after the 200 response head (caller owns closing the writer)."""
        request_headers = self._headers(headers)
        if last_event_id is not None:
            request_headers["Last-Event-ID"] = str(last_event_id)
        reader, writer = await self._connect()
        await self._send(writer, "GET", path, b"", request_headers)
        status, response_headers = await self._read_head(reader)
        if status != 200:
            length = int(response_headers.get("content-length", "0") or 0)
            data = await reader.readexactly(length) if length else b""
            writer.close()
            raise RuntimeError(
                f"SSE open failed: {status} {data.decode('utf-8', 'replace')}"
            )
        return reader, writer

    @staticmethod
    async def read_event(
        reader: asyncio.StreamReader,
        include_heartbeats: bool = False,
    ) -> Optional[SseEvent]:
        """Parse the next SSE frame; ``None`` at end-of-stream.

        Comment-only frames (heartbeats) are skipped unless
        ``include_heartbeats`` — then they come back as an event named
        ``"heartbeat"`` with empty data.
        """
        while True:
            event_id: Optional[int] = None
            event: Optional[str] = None
            data_lines = []
            saw_comment = False
            while True:
                line = await reader.readline()
                if not line:
                    return None
                text = line.decode("utf-8").rstrip("\r\n")
                if not text:
                    break  # frame boundary
                if text.startswith(":"):
                    saw_comment = True
                elif text.startswith("id:"):
                    event_id = int(text[3:].strip())
                elif text.startswith("event:"):
                    event = text[6:].strip()
                elif text.startswith("data:"):
                    data_lines.append(text[5:].lstrip())
            if data_lines or event is not None:
                return SseEvent(event_id, event, "\n".join(data_lines))
            if saw_comment and include_heartbeats:
                return SseEvent(None, "heartbeat", "")
            # otherwise: heartbeat we were asked to skip; keep reading

    async def events(
        self,
        path: str,
        count: int,
        last_event_id: Optional[int] = None,
        timeout: float = 10.0,
    ) -> AsyncIterator[SseEvent]:
        """Consume exactly ``count`` data frames from one SSE stream."""
        reader, writer = await self.open_sse(path, last_event_id)
        try:
            for _ in range(count):
                frame = await asyncio.wait_for(
                    self.read_event(reader), timeout
                )
                if frame is None:
                    return
                yield frame
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
