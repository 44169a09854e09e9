"""The memcached ASCII protocol (the paper's section 4.4 command set).

Implements the classic text protocol for the commands the paper lists —
get/gets, set/add/replace, delete, incr/decr, cas — over any server
object with the :class:`~repro.apps.memcached.server.HicampMemcached`
method surface. On HICAMP the point is that this layer is all a client
*needs*: the data itself is shared by reference, so "parsing" is the
only per-request software cost left.

Example::

    handler = ProtocolHandler(HicampMemcached(Machine()))
    handler.handle(b"set greeting 0 0 5\\r\\nhello\\r\\n")
    handler.handle(b"get greeting\\r\\n")
    # -> b"VALUE greeting 0 5\\r\\nhello\\r\\nEND\\r\\n"
"""

from __future__ import annotations

import binascii
from typing import List, Optional, Tuple

CRLF = b"\r\n"

#: Storage commands carry a data block after the request line.
STORAGE_COMMANDS = (b"set", b"add", b"replace", b"cas")

#: Hard cap on a declared data-block size (real memcached: 1 MB default).
MAX_VALUE_BYTES = 1 << 20


class ProtocolError(Exception):
    """Malformed request line or payload.

    ``resync_bytes``, when non-zero, tells a streaming caller how many
    bytes of the buffer the malformed request occupies — request line
    *and* its data block — so the decoder resynchronizes at the next
    pipelined request instead of misreading the payload as a command.
    """

    resync_bytes: int = 0


class IncompleteRequestError(ProtocolError):
    """The buffer ends before the request does — short, not malformed.

    A streaming caller (the asyncio serving layer) waits for more bytes;
    a complete-request caller treats it like any other protocol error.
    """


def parse_frame(data: bytes, start: int = 0
                ) -> Tuple[bytes, List[bytes], Optional[bytes], int]:
    """Parse the request that begins at ``data[start]``.

    Returns ``(command, arguments, payload, consumed)`` where
    ``consumed`` is the number of bytes the request occupied — the
    streaming decoder uses it to step through pipelined requests in one
    buffer; only the request's own bytes are looked at or copied, never
    what follows it.
    Raises :class:`IncompleteRequestError` when the bytes from ``start``
    are a valid prefix of a request (more bytes could complete it) and
    plain :class:`ProtocolError` when they can never become valid.
    """
    eol = data.find(CRLF, start)
    if eol < 0:
        raise IncompleteRequestError("unterminated request line")
    body = eol + len(CRLF)
    parts = data[start:eol].split()
    if not parts:
        raise ProtocolError("empty request")
    command, args = parts[0], parts[1:]
    if command in STORAGE_COMMANDS:
        if len(args) < 4:
            raise ProtocolError("storage command needs key flags exptime bytes")
        try:
            nbytes = int(args[3])
        except ValueError:
            raise ProtocolError("bad byte count %r" % args[3])
        if nbytes < 0:
            raise ProtocolError("negative byte count")
        if nbytes > MAX_VALUE_BYTES:
            raise ProtocolError("object too large for cache")
        end = body + nbytes
        if len(data) < end + len(CRLF):
            # data block shorter than the declared byte count: do NOT
            # truncate — either more bytes are coming (streaming) or the
            # request is rejected outright (complete-request callers)
            raise IncompleteRequestError(
                "data block shorter than declared %d bytes" % nbytes)
        if data[end:end + len(CRLF)] != CRLF:
            exc = ProtocolError("payload length mismatch")
            # the data block's real terminator is the first CRLF at or
            # after the declared length; everything up to it belongs to
            # this (malformed) request, not the next one
            terminator = data.find(CRLF, end)
            if terminator != -1:
                exc.resync_bytes = terminator + len(CRLF) - start
            raise exc
        return command, args, data[body:end], end + len(CRLF) - start
    return command, args, None, body - start


def parse_request(data: bytes) -> Tuple[bytes, List[bytes], Optional[bytes]]:
    """Split a raw request into (command, arguments, payload).

    Storage commands carry a data block whose length is announced in the
    request line; retrieval commands are a single line. ``data`` must
    hold one complete request (the streaming case is
    :class:`repro.net.framing.FrameDecoder`).
    """
    command, args, payload, _ = parse_frame(data)
    return command, args, payload


class ProtocolHandler:
    """Stateless request → response translation over a server object."""

    def __init__(self, server) -> None:
        self.server = server

    # ------------------------------------------------------------------

    def handle(self, data: bytes) -> bytes:
        """Process one complete request; returns the wire response."""
        try:
            command, args, payload = parse_request(data)
        except ProtocolError as exc:
            return b"CLIENT_ERROR %s\r\n" % str(exc).encode()
        return self.execute(command, args, payload)

    def execute(self, command: bytes, args: List[bytes],
                payload: Optional[bytes]) -> bytes:
        """Process one request that is already parsed (a decoded
        :class:`repro.net.framing.Frame`); returns the wire response."""
        handler = self.COMMANDS.get(command)
        if handler is None:
            return b"ERROR\r\n"
        try:
            return handler(self, args, payload)
        except ProtocolError as exc:
            return b"CLIENT_ERROR %s\r\n" % str(exc).encode()

    # ------------------------------------------------------------------
    # retrieval

    def value_block(self, key: bytes, with_token: bool = False) -> bytes:
        """One key's ``VALUE`` block of a retrieval response (empty when
        the key is absent); ``with_token`` adds the ``gets`` CAS token."""
        if with_token:
            got = self.server.gets(key)
            if got is None:
                return b""
            value, token = got
            return b"VALUE %s 0 %d %d\r\n%s\r\n" % (
                key, len(value), binascii.crc32(token), value)
        value = self.server.get(key)
        if value is None:
            return b""
        return b"VALUE %s 0 %d\r\n%s\r\n" % (key, len(value), value)

    def _cmd_get(self, args, payload, with_token: bool = False) -> bytes:
        out = []
        for key in args:
            out.append(self.value_block(key, with_token))
        out.append(b"END\r\n")
        return b"".join(out)

    def _cmd_gets(self, args, payload) -> bytes:
        return self._cmd_get(args, payload, with_token=True)

    # ------------------------------------------------------------------
    # storage

    def _exptime(self, args) -> int:
        try:
            return max(0, int(args[2]))
        except (ValueError, IndexError):
            raise ProtocolError("bad exptime %r" % args[2:3])

    def _store(self, method, args, payload) -> bool:
        return method(args[0], payload, exptime=self._exptime(args))

    def _cmd_set(self, args, payload) -> bytes:
        self._store(self.server.set, args, payload)
        return b"STORED\r\n"

    def _cmd_add(self, args, payload) -> bytes:
        return b"STORED\r\n" if self._store(self.server.add, args, payload) \
            else b"NOT_STORED\r\n"

    def _cmd_replace(self, args, payload) -> bytes:
        return b"STORED\r\n" \
            if self._store(self.server.replace, args, payload) \
            else b"NOT_STORED\r\n"

    def _cmd_cas(self, args, payload) -> bytes:
        if len(args) < 5:
            raise ProtocolError("cas needs a token")
        exptime = self._exptime(args)
        got = self.server.gets(args[0])
        if got is None:
            return b"NOT_FOUND\r\n"
        _, token = got
        try:
            presented = int(args[4])
        except ValueError:
            raise ProtocolError("bad cas token")
        if presented != binascii.crc32(token):
            return b"EXISTS\r\n"
        return b"STORED\r\n" \
            if self.server.cas(args[0], payload, token, exptime=exptime) \
            else b"EXISTS\r\n"

    # ------------------------------------------------------------------
    # deletion / arithmetic

    def _cmd_delete(self, args, payload) -> bytes:
        if not args:
            raise ProtocolError("delete needs a key")
        return b"DELETED\r\n" if self.server.delete(args[0]) \
            else b"NOT_FOUND\r\n"

    def _cmd_incr(self, args, payload) -> bytes:
        return self._arith(args, +1)

    def _cmd_decr(self, args, payload) -> bytes:
        return self._arith(args, -1)

    def _arith(self, args, sign) -> bytes:
        if len(args) < 2:
            raise ProtocolError("incr/decr need key and delta")
        try:
            delta = int(args[1])
        except ValueError:
            raise ProtocolError("bad delta %r" % args[1])
        result = self.server.incr(args[0], sign * delta)
        if result is None:
            return b"NOT_FOUND\r\n"
        return b"%d\r\n" % result

    def _cmd_stats(self, args, payload) -> bytes:
        stats = self.server.stats
        lines = [b"STAT %s %d\r\n" % (name.encode(), getattr(stats, name))
                 for name in ("gets", "get_hits", "sets", "deletes",
                              "cas_ops", "cas_failures")]
        lines.append(b"STAT curr_items %d\r\n" % self.server.item_count())
        extra = getattr(self.server, "extra_stats", None)
        if extra is not None:
            for name, value in sorted(extra().items()):
                lines.append(b"STAT %s %s\r\n"
                             % (name.encode(), str(value).encode()))
        lines.append(b"END\r\n")
        return b"".join(lines)

    # ------------------------------------------------------------------
    # administrative

    def _cmd_version(self, args, payload) -> bytes:
        version = getattr(self.server, "version", None)
        name = version() if version is not None else b"repro-hicamp"
        return b"VERSION %s\r\n" % name

    def _cmd_flush_all(self, args, payload) -> bytes:
        flush = getattr(self.server, "flush_all", None)
        if flush is None:
            return b"ERROR\r\n"
        flush()
        return b"OK\r\n"


#: command bytes → its ``_cmd_*`` method, found without decoding bytes
ProtocolHandler.COMMANDS = {
    name[len("_cmd_"):].encode(): method
    for name, method in vars(ProtocolHandler).items()
    if name.startswith("_cmd_")}
