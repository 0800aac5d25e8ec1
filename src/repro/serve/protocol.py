"""The serve wire protocol: length-prefixed JSON frames.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON (one object per frame).  The framing is symmetric —
server and client use the same two functions — and deliberately boring:
kernels are small text files and verdicts are JSON reports, so there is
nothing to gain from anything cleverer, and a length prefix makes
truncation detectable (a reader can always tell a clean close at a frame
boundary from a peer dying mid-frame).

Requests carry an ``op`` field (``hello`` / ``submit`` / ``ping`` /
``stats`` / ``metrics`` / ``health`` / ``bye`` / ``shutdown``);
responses carry a ``type`` field (``hello`` / ``event`` / ``verdict`` /
``stats`` / ``metrics`` / ``health`` / ``error`` / ``ok``).
A ``metrics`` request may carry ``over`` (seconds) to narrow the
rolling-window horizon; the response bundles windowed rates/quantiles,
lifetime totals and a Prometheus text exposition.  ``health`` answers
the daemon's ok/degraded/unhealthy verdict with per-check detail.
A ``submit`` answers with a *stream*: zero or more ``event`` frames
(each wrapping one flight-recorder envelope — the same ``seq``/``t``/
``kind``/``worker`` record ``repro verify --events-out`` writes)
terminated by exactly one ``verdict`` or ``error`` frame.  A ``submit``
may carry ``deadline_ms`` (wall-clock verification budget; past it the
verdict is *partial* with ``deadline_expired: true``); an overloaded
daemon sheds with ``error``/``overloaded`` carrying ``retry_after_ms``.
A garbled or oversized frame draws a best-effort ``error``/``malformed``
reply before the daemon hangs up.  See ``docs/serve.md`` for the full
schema.
"""

from __future__ import annotations

import json
import os
import socket
import struct
from typing import Optional, Tuple, Union

#: Frame size ceiling, shared by the client and the daemon; a peer
#: announcing more is treated as malformed (protects the daemon from one
#: bad client allocating gigabytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ProtocolError(Exception):
    """A malformed, truncated or oversized frame."""


def send_message(sock: socket.socket, payload: dict) -> None:
    """Serialize ``payload`` as one frame and send it whole."""
    data = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )
    sock.sendall(_HEADER.pack(len(data)) + data)


def recv_message(sock: socket.socket) -> Optional[dict]:
    """Read one frame; ``None`` on a clean close at a frame boundary.

    Raises :class:`ProtocolError` on a peer dying mid-frame, an
    oversized announcement, or a body that is not a JSON object.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame "
            f"(ceiling {MAX_FRAME_BYTES})"
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame body: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame body is {type(payload).__name__}, expected object"
        )
    return payload


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` only when the peer closed
    before the *first* byte (a clean end of stream)."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if remaining == n:
                return None
            raise ProtocolError(
                f"connection closed {remaining} byte(s) short of a "
                f"{n}-byte read"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


#: An address is either a filesystem path (UNIX socket) or (host, port).
Address = Union[str, Tuple[str, int]]


def parse_address(text: str) -> Address:
    """Parse a ``host:port`` pair or a UNIX-socket path.

    Anything containing a path separator (or lacking a colon) is a
    UNIX-socket path; otherwise the last colon splits host from port,
    with IPv6 literals accepted in brackets (``[::1]:8000``).  A
    colon-bearing text whose port is not an integer raises
    :class:`ValueError` rather than silently becoming an AF_UNIX path —
    a socket path whose *name* contains a colon must carry a path
    separator (``./weird:name``) to disambiguate.
    """
    if os.sep in text or ":" not in text:
        return text
    host, _, port = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise ValueError(
            f"{text!r} looks like host:port but {port!r} is not an "
            f"integer port (for a UNIX-socket path containing a colon, "
            f"write it with a path separator, e.g. ./{text}; IPv6 "
            f"literals need brackets, e.g. [::1]:8000)"
        ) from None


def connect(address: Address,
            timeout: Optional[float] = None) -> socket.socket:
    """Open a client socket to ``address`` (TCP pair or UNIX path)."""
    if isinstance(address, str):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(address)
    else:
        sock = socket.create_connection(address, timeout=timeout)
    return sock
