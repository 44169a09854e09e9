"""Streaming frame decoding for the memcached ASCII protocol.

A TCP stream has no request boundaries: one ``read()`` can return half a
request, exactly one, or a dozen pipelined ones — and a storage command's
data block can itself be split anywhere, including inside its payload's
``\\r\\n`` terminator. :func:`repro.apps.memcached.protocol.parse_request`
assumes one complete request per buffer; :class:`FrameDecoder` removes
that assumption. Feed it raw socket bytes and it yields complete
:class:`Frame` objects, buffering any trailing partial request::

    decoder = FrameDecoder()
    decoder.feed(b"get a\r\nset b 0 0 5\r\nhel")   # -> [Frame(get a)]
    decoder.feed(b"lo\r\n")                        # -> [Frame(set b)]

Malformed input (bad byte counts, oversized declarations, absurdly long
request lines) becomes an error :class:`Frame` rather than an exception,
so the serving layer can answer ``CLIENT_ERROR`` and keep the connection
alive — exactly what real memcached does.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.apps.memcached.protocol import (
    CRLF,
    IncompleteRequestError,
    ProtocolError,
    parse_frame,
)

#: Longest accepted request line (real memcached: 2048; generous here).
MAX_LINE_BYTES = 8192


@dataclass
class Frame:
    """One complete request as it appeared on the wire."""

    raw: bytes
    command: bytes = b""
    args: List[bytes] = field(default_factory=list)
    payload: Optional[bytes] = None
    error: Optional[str] = None

    @property
    def key(self) -> Optional[bytes]:
        """First argument — the key for every single-key command."""
        return self.args[0] if self.args else None


class FrameDecoder:
    """Incremental splitter of a byte stream into protocol frames."""

    def __init__(self) -> None:
        self._buf = b""

    def __len__(self) -> int:
        return len(self._buf)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered while waiting for the rest of a request."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[Frame]:
        """Absorb ``data``; return every request it completed.

        The pipelined requests of one read are parsed where they lie, at
        an offset into one buffer that is trimmed once at the end, so a
        burst costs its own length and not its length per frame.
        """
        buf = self._buf + data
        pos = 0
        frames: List[Frame] = []
        while pos < len(buf):
            try:
                command, args, payload, consumed = parse_frame(buf, pos)
            except IncompleteRequestError:
                if buf.find(CRLF, pos) < 0 \
                        and len(buf) - pos > MAX_LINE_BYTES:
                    # unterminated garbage: drop it or the buffer grows
                    # without bound on a hostile/broken client
                    frames.append(Frame(raw=buf[pos:],
                                        error="request line too long"))
                    pos = len(buf)
                break
            except ProtocolError as exc:
                # resync: the parser may know exactly how many bytes the
                # malformed request occupied (request line plus its data
                # block); otherwise skip just the offending line. Either
                # way, what follows is re-examined as the next request
                # (memcached behaves the same: CLIENT_ERROR, then the
                # stream continues)
                skip = getattr(exc, "resync_bytes", 0)
                if not 0 < skip <= len(buf) - pos:
                    skip = buf.find(CRLF, pos) + len(CRLF) - pos
                frames.append(Frame(raw=buf[pos:pos + skip],
                                    error=str(exc)))
                pos += skip
                continue
            frames.append(Frame(raw=buf[pos:pos + consumed],
                                command=command, args=args, payload=payload))
            pos += consumed
        self._buf = buf[pos:]
        return frames


class FrameTooLargeError(Exception):
    """A length-prefixed frame declared a payload above the cap."""


class LengthPrefixedDecoder:
    """Incremental splitter for binary length-prefixed frames.

    The memcached-text :class:`FrameDecoder` above finds boundaries by
    parsing; binary protocols (the replication wire format) instead
    declare them: every frame is ``!BI`` — a one-byte frame type and a
    four-byte payload length — followed by the payload. This decoder is
    the generic reassembly half, shared so any future binary protocol
    gets the same split-read handling the fault injector exercises.

    ``max_payload`` bounds memory on a hostile or corrupted stream; an
    oversized declaration raises :class:`FrameTooLargeError` (a framing
    desynchronization is unrecoverable, unlike a malformed text request,
    so the connection must be dropped).
    """

    HEADER = struct.Struct("!BI")

    def __init__(self, max_payload: int = 1 << 24) -> None:
        self.max_payload = max_payload
        self._buf = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered while waiting for the rest of a frame."""
        return len(self._buf)

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        """Absorb ``data``; return completed ``(frame_type, payload)``."""
        self._buf += data
        frames: List[Tuple[int, bytes]] = []
        while len(self._buf) >= self.HEADER.size:
            ftype, length = self.HEADER.unpack_from(self._buf)
            if length > self.max_payload:
                raise FrameTooLargeError(
                    "frame type %d declares %d payload bytes (cap %d)"
                    % (ftype, length, self.max_payload))
            end = self.HEADER.size + length
            if len(self._buf) < end:
                break
            frames.append((ftype, bytes(self._buf[self.HEADER.size:end])))
            del self._buf[:end]
        return frames


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    """One length-prefixed frame as wire bytes (inverse of the decoder)."""
    return LengthPrefixedDecoder.HEADER.pack(ftype, len(payload)) + payload
