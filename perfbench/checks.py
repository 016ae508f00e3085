"""Reading HTTP responses off a socket and checking every one of them.

A page counts only if it is 200 with an exact Content-Length, ends
with ``</html>`` and carries the requested page's title.  An image
counts only if it is 200 with an exact Content-Length, or 304 in
answer to a conditional GET.  Framing errors (a connection closed
early, a body shorter than its Content-Length, bytes left over after
the last response) raise :class:`ResponseError`; the content checks
return a reason string, or ``None`` when the response is good.
"""

from __future__ import annotations

import dataclasses
import re
from typing import BinaryIO, Dict, Optional

from workloads import PAGE_TITLES

_MAX_LINE = 65536
_TITLE_RE = re.compile(rb"<title>([^<]*)</title>")


class ResponseError(Exception):
    """A response that could not be read as one complete HTTP message."""


@dataclasses.dataclass
class Response:
    status: int
    headers: Dict[str, str]
    body: bytes

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", errors="replace")


def read_response(stream: BinaryIO) -> Response:
    """Read exactly one response, framed by its Content-Length."""
    status_line = stream.readline(_MAX_LINE)
    if not status_line:
        raise ResponseError("connection closed before the status line")
    parts = status_line.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
        raise ResponseError(f"malformed status line {status_line[:80]!r}")
    try:
        status = int(parts[1])
    except ValueError:
        raise ResponseError(f"malformed status {parts[1][:20]!r}") from None
    headers: Dict[str, str] = {}
    while True:
        line = stream.readline(_MAX_LINE)
        if not line:
            raise ResponseError("connection closed inside the headers")
        if line in (b"\r\n", b"\n"):
            break
        name, colon, value = line.partition(b":")
        if not colon:
            raise ResponseError(f"malformed header line {line[:80]!r}")
        headers[name.strip().lower().decode("latin-1")] = \
            value.strip().decode("latin-1")
    length = headers.get("content-length")
    if length is None or not length.isdigit():
        raise ResponseError(f"missing or bad Content-Length {length!r}")
    expected = int(length)
    body = stream.read(expected)
    if len(body) != expected:
        raise ResponseError(
            f"truncated body: {len(body)} of {expected} bytes"
        )
    return Response(status, headers, body)


def expect_end_of_stream(stream: BinaryIO) -> None:
    """After the last response the server closes: nothing may follow."""
    extra = stream.read(1)
    if extra:
        raise ResponseError("bytes after the last response "
                            "(Content-Length shorter than the body)")


def check_page(page: str, response: Response) -> Optional[str]:
    """Why ``response`` is not a good rendering of ``page``, or None."""
    if response.status != 200:
        return f"{page}: status {response.status}"
    body = response.body
    if not body.rstrip().endswith(b"</html>"):
        return f"{page}: body does not end with </html>"
    match = _TITLE_RE.search(body)
    expected = PAGE_TITLES[page]
    if match is None or match.group(1).decode("utf-8", "replace") != expected:
        found = match.group(1) if match else None
        return f"{page}: title {found!r}, expected {expected!r}"
    return None


def check_image(url: str, response: Response,
                sent_etag: Optional[str]) -> Optional[str]:
    """Why ``response`` is not a good answer for image ``url``, or None."""
    if response.status == 200:
        if not response.body.startswith(b"GIF89a"):
            return f"{url}: 200 without a GIF body"
        return None
    if response.status == 304 and sent_etag is not None:
        return None
    return f"{url}: status {response.status}"
