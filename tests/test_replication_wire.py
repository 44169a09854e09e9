"""Unit tests for the replication wire format."""

import pytest

from repro.errors import ReplicationError
from repro.memory.line import pack, pack_for, ref, ref_path
from repro.replication import ReplicationFollower, wire


def _roundtrip(word):
    """``word`` through a one-word LINE payload: (decoded, payload)."""
    payload = wire.encode_line_payload(1, (word,))
    plid, line = wire.decode_line_payload(payload)
    assert plid == 1 and len(line) == 1
    return line[0], payload


class TestWordCodec:
    """A word travels as one length-prefixed signed int."""

    def test_data_word_roundtrip(self):
        for value in (0, 1, 0xDEAD, (1 << 63) - 1, 1 << 63, (1 << 64) - 1):
            word, payload = _roundtrip(value)
            assert word == value
            # a byte count, then the minimal two's-complement bytes
            raw = value.to_bytes(value.bit_length() // 8 + 1, "big")
            assert payload[-len(raw) - 1:] == bytes((len(raw),)) + raw

    def test_reference_word_roundtrip(self):
        sent = ref(12345, (1, 0, 3))
        assert _roundtrip(sent)[0] == sent

    def test_pathless_reference_roundtrip(self):
        word, _ = _roundtrip(ref(7))
        assert word == ref(7) and ref_path(word) == b""

    def test_inline_word_roundtrip(self):
        for values in ((1, 2, 3), (1 << 63,), (0, 0x102), tuple(range(1, 9))):
            word = pack_for(values)
            assert _roundtrip(word)[0] == word

    def test_truncated_word_rejected(self):
        payload = wire.encode_line_payload(1, (ref(9, (1, 2)),))
        for cut in (1, 2, 5):
            with pytest.raises(ReplicationError):
                wire.decode_line_payload(payload[:-cut])

    def test_unknown_tag_rejected(self):
        # an int above 2**64 that is no canonical pack — the range is the
        # tag — and a reference whose path digits overflow its length
        good = pack_for((1, 2))
        for bad in (good | 1 << 40, 3 << 64, good | 1 << 88,
                    pack(2, (1, 2), 4), ~((1 << 16) << 40)):
            raw = bad.to_bytes(16, "big", signed=True)
            payload = wire.encode_line_payload(1, (0,))[:-2] \
                + bytes((16,)) + raw
            with pytest.raises(ReplicationError, match="not a data word"):
                wire.decode_line_payload(payload)
            advance = wire.encode_advance_payload(0, 1, 2, 0, 1, 5)[:-2] \
                + bytes((16,)) + raw
            with pytest.raises(ReplicationError, match="not a data word"):
                wire.decode_advance_payload(advance)


class TestPayloads:
    def test_line_roundtrip(self):
        line = (ref(4), 0, pack_for((1 << 40,)), 77)
        payload = wire.encode_line_payload(31, line)
        plid, decoded = wire.decode_line_payload(payload)
        assert plid == 31 and decoded == line

    def test_follower_refuses_a_line_of_another_length(self):
        follower = ReplicationFollower("127.0.0.1", 0)
        payload = wire.encode_line_payload(9, (1, 2, 3))
        with pytest.raises(ReplicationError, match="LINE 9 refused"):
            follower._handle_line(None, payload)
        assert follower.machine.mem.store.footprint_lines() == 0
        assert follower.plid_map == {}
        assert follower.metrics.lines_installed == 0

    def test_line_trailing_bytes_rejected(self):
        payload = wire.encode_line_payload(1, (0, 0)) + b"x"
        with pytest.raises(ReplicationError):
            wire.decode_line_payload(payload)

    def test_seed_roundtrip(self):
        payload = wire.encode_seed_payload(3, [10, 20, 30])
        assert wire.decode_seed_payload(payload) == (3, [10, 20, 30])

    def test_advance_roundtrip_plidref_root(self):
        payload = wire.encode_advance_payload(
            2, 99, 7, ref(55, (1,)), 4, 1 << 130)
        stream, seq, vsid, height, length, root = \
            wire.decode_advance_payload(payload)
        assert (stream, seq, vsid, height) == (2, 99, 7, 4)
        # sparse segments legitimately index past 2**64
        assert length == 1 << 130
        assert root == ref(55, (1,))

    def test_advance_roundtrip_zero_root(self):
        payload = wire.encode_advance_payload(0, 0, 1, 0, 0, 0)
        assert wire.decode_advance_payload(payload)[5] == 0

    def test_advance_negative_length_rejected(self):
        payload = wire.encode_advance_payload(0, 0, 1, 0, 0, -1)
        with pytest.raises(ReplicationError, match="negative"):
            wire.decode_advance_payload(payload)

    def test_ack_and_forget_roundtrip(self):
        assert wire.decode_ack_payload(
            wire.encode_ack_payload(5, 1234)) == (5, 1234)
        assert wire.decode_forget_payload(
            wire.encode_forget_payload(321)) == 321

    def test_truncated_payloads_rejected(self):
        for decode in (wire.decode_line_payload, wire.decode_seed_payload,
                       wire.decode_advance_payload, wire.decode_ack_payload,
                       wire.decode_forget_payload):
            with pytest.raises(ReplicationError):
                decode(b"\x01")


class TestFraming:
    def test_frames_reassemble_across_arbitrary_splits(self):
        stream = b"".join([
            wire.encode_frame(wire.LINE, wire.encode_line_payload(
                1, (ref(2), 0))),
            wire.encode_frame(wire.HEARTBEAT,
                              wire.encode_json_payload({"t": 1})),
            wire.encode_frame(wire.ACK, wire.encode_ack_payload(0, 7)),
        ])
        for chunk in (1, 2, 3, 5, len(stream)):
            decoder = wire.LengthPrefixedDecoder()
            frames = []
            for i in range(0, len(stream), chunk):
                frames.extend(decoder.feed(stream[i:i + chunk]))
            assert [f[0] for f in frames] == [wire.LINE, wire.HEARTBEAT,
                                              wire.ACK]
            assert decoder.pending_bytes == 0

    def test_oversized_frame_rejected(self):
        decoder = wire.LengthPrefixedDecoder()
        decoder.max_payload = 16
        with pytest.raises(wire.FrameTooLargeError):
            decoder.feed(wire.encode_frame(wire.LINE, b"x" * 17))

    def test_json_control_payloads(self):
        doc = {"version": 1, "streams": {"0": "aa"}}
        assert wire.decode_json_payload(wire.encode_json_payload(doc)) == doc
        with pytest.raises(ReplicationError):
            wire.decode_json_payload(b"not json")
        with pytest.raises(ReplicationError):
            wire.decode_json_payload(b"[1, 2]")


class TestHandshake:
    def test_accepts_matching_geometry(self):
        doc = wire.hello_doc(32, 4, {0: b"\x00" * 16})
        wire.check_handshake(doc, 32, 4)
        assert doc["streams"]["0"] == "00" * 16

    def test_rejects_version_mismatch(self):
        doc = wire.welcome_doc(32, 4, {0: 1})
        doc["version"] = 999
        with pytest.raises(ReplicationError, match="version"):
            wire.check_handshake(doc, 32, 4)

    def test_rejects_geometry_mismatch(self):
        doc = wire.hello_doc(16, 2, {})
        with pytest.raises(ReplicationError, match="geometry"):
            wire.check_handshake(doc, 32, 4)
