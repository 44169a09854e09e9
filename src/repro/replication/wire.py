"""The replication wire format: length-prefixed, versioned binary frames.

Every frame is ``!BI`` — one frame-type byte, a four-byte payload length
— followed by the payload; reassembly over split reads is the shared
:class:`~repro.net.framing.LengthPrefixedDecoder`. Control frames carry
JSON payloads (they are rare and small); the hot frames (LINE, SEED,
ROOT_ADVANCE, ACK) use a compact binary layout.

Frame catalogue (direction, payload):

==============  =====  ==========================================================
HELLO           F → L  JSON: protocol version, line geometry, per-stream
                       content fingerprints of the follower's local segments
WELCOME         L → F  JSON: version echo, geometry, the stream table
                       (stream index → leader VSID)
LINE            L → F  u64 leader PLID + u16 word count + the words
SEED            L → F  u16 stream + u64 PLID list, the leader's deterministic
                       walk of a root both sides already hold (warm start:
                       pairs the PLID spaces without re-shipping content)
ROOT_ADVANCE    L → F  u16 stream + u64 seq + u64 leader VSID + u8 height +
                       length (sparse segments index past 2**64) + root
                       entry word — commit a new version
FULL_SYNC       L → F  JSON: stream — the delta that follows assumes the
                       follower knows nothing about this stream
RESET           L → F  JSON: reason — follower must drop its whole PLID
                       translation map (leader lost/discarded its state)
FORGET          L → F  u64 leader PLID — leader deallocated it; the follower
                       drops the translation entry and its pin
HEARTBEAT       both   JSON: monotonic counter
ACK             F → L  u16 stream + u64 seq — root advance applied
NACK            F → L  JSON: stream, missing PLID — a frame referenced a
                       line the follower does not hold (leader full-syncs)
ERROR           both   JSON: message, then the connection closes
==============  =====  ==========================================================

A word is an int (:mod:`repro.memory.line`: data, a negative reference,
a pack above ``2**64``) and a segment length is one too, so both travel
as one self-delimiting signed int: a u8 byte count, then the minimal
two's-complement big-endian bytes. A decoded word that no machine could
hold is refused.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Tuple

from repro.errors import ReplicationError
from repro.memory.line import Line, is_word

# re-exported so replication callers need only this module
from repro.net.framing import (  # noqa: F401
    FrameTooLargeError,
    LengthPrefixedDecoder,
    encode_frame,
)

#: version 2: a word is one signed int (version 1 tagged D/P/I words)
PROTOCOL_VERSION = 2

HELLO = 1
WELCOME = 2
LINE = 3
SEED = 4
ROOT_ADVANCE = 5
FULL_SYNC = 6
RESET = 7
FORGET = 8
HEARTBEAT = 9
ACK = 10
NACK = 11
ERROR = 12

FRAME_NAMES = {
    HELLO: "HELLO", WELCOME: "WELCOME", LINE: "LINE", SEED: "SEED",
    ROOT_ADVANCE: "ROOT_ADVANCE", FULL_SYNC: "FULL_SYNC", RESET: "RESET",
    FORGET: "FORGET", HEARTBEAT: "HEARTBEAT", ACK: "ACK", NACK: "NACK",
    ERROR: "ERROR",
}

_U64 = struct.Struct("!Q")
_LINE_HEAD = struct.Struct("!QH")          # leader plid, word count
_SEED_HEAD = struct.Struct("!HI")          # stream, plid count
_ADVANCE_HEAD = struct.Struct("!HQQB")     # stream, seq, vsid, height
_ACK_BODY = struct.Struct("!HQ")           # stream, seq


def _encode_int(value: int) -> bytes:
    """One int of any sign or size: a u8 byte count, then its minimal
    two's-complement big-endian bytes."""
    raw = value.to_bytes((value if value >= 0 else ~value).bit_length()
                         // 8 + 1, "big", signed=True)
    if len(raw) > 255:
        raise ReplicationError("absurd int field (%d bytes)" % len(raw))
    return bytes((len(raw),)) + raw


def _decode_int(payload: bytes, pos: int) -> Tuple[int, int]:
    """The int :func:`_encode_int` wrote at ``pos``, and the next
    position."""
    end = pos + 1 + (payload[pos] if pos < len(payload) else 0)
    if end > len(payload):
        raise ReplicationError("truncated int field at %d" % pos)
    return int.from_bytes(payload[pos + 1:end], "big", signed=True), end


# ----------------------------------------------------------------------
# hot frames: LINE / SEED / ROOT_ADVANCE / ACK / FORGET

def encode_line_payload(plid: int, line: Line) -> bytes:
    """LINE: the leader's PLID plus the line's words."""
    return (_LINE_HEAD.pack(plid, len(line))
            + b"".join([_encode_int(w) for w in line]))


def decode_line_payload(payload: bytes) -> Tuple[int, Line]:
    try:
        plid, count = _LINE_HEAD.unpack_from(payload)
    except struct.error as exc:
        raise ReplicationError("truncated LINE frame") from exc
    pos = _LINE_HEAD.size
    words = []
    for _ in range(count):
        word, pos = _decode_int(payload, pos)
        words.append(word)
    if pos != len(payload):
        raise ReplicationError("%d trailing bytes after LINE words"
                               % (len(payload) - pos))
    if not all(map(is_word, words)):
        raise ReplicationError("not a data word, reference or pack in LINE")
    return plid, tuple(words)


def encode_seed_payload(stream: int, plids: List[int]) -> bytes:
    """SEED: the leader's PLIDs in deterministic walk order."""
    return (_SEED_HEAD.pack(stream, len(plids))
            + b"".join(_U64.pack(p) for p in plids))


def decode_seed_payload(payload: bytes) -> Tuple[int, List[int]]:
    try:
        stream, count = _SEED_HEAD.unpack_from(payload)
        plids = [_U64.unpack_from(payload, _SEED_HEAD.size + 8 * i)[0]
                 for i in range(count)]
    except struct.error as exc:
        raise ReplicationError("truncated SEED frame") from exc
    return stream, plids


def encode_advance_payload(stream: int, seq: int, vsid: int, root,
                           height: int, length: int) -> bytes:
    """ROOT_ADVANCE: commit ``stream`` to a new version.

    ``root`` is the leader-side root entry (0 / a pack / a reference
    word with a leader PLID — the follower translates before applying).
    """
    return (_ADVANCE_HEAD.pack(stream, seq, vsid, height)
            + _encode_int(length) + _encode_int(root))


def decode_advance_payload(payload: bytes):
    """Returns ``(stream, seq, vsid, height, length, root_entry)``."""
    try:
        stream, seq, vsid, height = _ADVANCE_HEAD.unpack_from(payload)
    except struct.error as exc:
        raise ReplicationError("truncated ROOT_ADVANCE frame") from exc
    length, pos = _decode_int(payload, _ADVANCE_HEAD.size)
    if length < 0:
        raise ReplicationError("negative segment length")
    word, pos = _decode_int(payload, pos)
    if pos != len(payload):
        raise ReplicationError("trailing bytes after ROOT_ADVANCE root")
    if not is_word(word):
        raise ReplicationError("not a data word, reference or pack root")
    return stream, seq, vsid, height, length, word


def encode_ack_payload(stream: int, seq: int) -> bytes:
    return _ACK_BODY.pack(stream, seq)


def decode_ack_payload(payload: bytes) -> Tuple[int, int]:
    try:
        return _ACK_BODY.unpack(payload)
    except struct.error as exc:
        raise ReplicationError("truncated ACK frame") from exc


def encode_forget_payload(plid: int) -> bytes:
    return _U64.pack(plid)


def decode_forget_payload(payload: bytes) -> int:
    try:
        return _U64.unpack(payload)[0]
    except struct.error as exc:
        raise ReplicationError("truncated FORGET frame") from exc


# ----------------------------------------------------------------------
# control frames: JSON payloads

def encode_json_payload(doc: Dict) -> bytes:
    return json.dumps(doc, sort_keys=True).encode()


def decode_json_payload(payload: bytes) -> Dict:
    try:
        doc = json.loads(payload)
    except ValueError as exc:
        raise ReplicationError("undecodable control frame: %s"
                               % exc) from exc
    if not isinstance(doc, dict):
        raise ReplicationError("control frame payload is not an object")
    return doc


def hello_doc(line_bytes: int, fanout: int,
              fingerprints: Dict[int, bytes]) -> Dict:
    """The follower's handshake: geometry + what it already holds."""
    return {
        "version": PROTOCOL_VERSION,
        "line_bytes": line_bytes,
        "fanout": fanout,
        "streams": {str(s): fp.hex() for s, fp in fingerprints.items()},
    }


def welcome_doc(line_bytes: int, fanout: int,
                streams: Dict[int, int]) -> Dict:
    """The leader's handshake reply: geometry + the stream table."""
    return {
        "version": PROTOCOL_VERSION,
        "line_bytes": line_bytes,
        "fanout": fanout,
        "streams": {str(s): vsid for s, vsid in streams.items()},
    }


def check_handshake(doc: Dict, line_bytes: int, fanout: int) -> None:
    """Reject version or geometry disagreement — lines are not portable
    across different line sizes or fan-outs."""
    if doc.get("version") != PROTOCOL_VERSION:
        raise ReplicationError(
            "protocol version %r, expected %d"
            % (doc.get("version"), PROTOCOL_VERSION))
    if doc.get("line_bytes") != line_bytes or doc.get("fanout") != fanout:
        raise ReplicationError(
            "geometry mismatch: peer %r/%r vs local %d/%d"
            % (doc.get("line_bytes"), doc.get("fanout"), line_bytes, fanout))
