"""Unit tests for the replication wire format."""

import pytest

from repro.errors import ReplicationError
from repro.memory.line import Inline, ref, ref_path
from repro.replication import wire


class TestWordCodec:
    def test_data_word_roundtrip(self):
        for value in (0, 1, 0xDEAD, (1 << 64) - 1):
            blob = wire.encode_wire_word(value)
            word, pos = wire.decode_wire_word(blob, 0)
            assert word == value and pos == len(blob)

    def test_reference_word_roundtrip(self):
        sent = ref(12345, (1, 0, 3))
        blob = wire.encode_wire_word(sent)
        word, pos = wire.decode_wire_word(blob, 0)
        assert word == sent and pos == len(blob)

    def test_pathless_reference_roundtrip(self):
        blob = wire.encode_wire_word(ref(7))
        word, _ = wire.decode_wire_word(blob, 0)
        assert word == ref(7) and ref_path(word) == b""

    def test_inline_word_roundtrip(self):
        inline = Inline(width=2, values=(1, 2, 3), span=2)
        blob = wire.encode_wire_word(inline)
        word, pos = wire.decode_wire_word(blob, 0)
        assert word == inline and pos == len(blob)

    def test_truncated_word_rejected(self):
        blob = wire.encode_wire_word(ref(9, (1, 2)))
        with pytest.raises(ReplicationError):
            wire.decode_wire_word(blob[:-1], 0)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ReplicationError):
            wire.decode_wire_word(b"X" + b"\x00" * 8, 0)


class TestPayloads:
    def test_line_roundtrip(self):
        line = (ref(4), 0, Inline(width=8, values=(9,), span=1), 77)
        payload = wire.encode_line_payload(31, line)
        plid, decoded = wire.decode_line_payload(payload)
        assert plid == 31 and decoded == line

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
        decoder = wire.LengthPrefixedDecoder(max_payload=16)
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
