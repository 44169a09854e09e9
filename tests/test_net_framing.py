"""Tests for the streaming frame decoder (split and pipelined frames)."""

import pytest

from repro.apps.memcached.protocol import (
    IncompleteRequestError,
    ProtocolError,
    parse_frame,
    parse_request,
)
from repro.net.framing import MAX_LINE_BYTES, Frame, FrameDecoder


class TestParseFrameRegression:
    """Satellite: short data blocks are rejected, never truncated."""

    def test_short_data_block_is_incomplete_not_truncated(self):
        # declared 10 bytes, only 5 present: must NOT come back as b"short"
        with pytest.raises(IncompleteRequestError):
            parse_request(b"set k 0 0 10\r\nshort\r\n")

    def test_unterminated_line_is_incomplete(self):
        with pytest.raises(IncompleteRequestError):
            parse_request(b"get key")

    def test_missing_payload_terminator_is_malformed(self):
        # declared count shorter than the actual block: permanent error
        with pytest.raises(ProtocolError) as exc:
            parse_request(b"set k 0 0 3\r\nhello\r\n")
        assert not isinstance(exc.value, IncompleteRequestError)

    def test_negative_byte_count_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request(b"set k 0 0 -1\r\n\r\n")

    def test_oversized_byte_count_rejected(self):
        with pytest.raises(ProtocolError) as exc:
            parse_request(b"set k 0 0 99999999\r\n")
        assert not isinstance(exc.value, IncompleteRequestError)

    def test_consumed_covers_whole_storage_frame(self):
        raw = b"set k 0 0 5\r\nhello\r\n"
        command, args, payload, consumed = parse_frame(raw + b"get x\r\n")
        assert command == b"set" and payload == b"hello"
        assert consumed == len(raw)


class TestFrameDecoder:
    def test_single_complete_frame(self):
        frames = FrameDecoder().feed(b"get alpha\r\n")
        assert [f.command for f in frames] == [b"get"]
        assert frames[0].args == [b"alpha"]
        assert frames[0].error is None

    def test_pipelined_frames_in_one_read(self):
        data = (b"set a 0 0 1\r\nx\r\n"
                b"get a\r\n"
                b"delete a\r\n")
        frames = FrameDecoder().feed(data)
        assert [f.command for f in frames] == [b"set", b"get", b"delete"]
        assert frames[0].payload == b"x"

    def test_byte_by_byte_feed(self):
        decoder = FrameDecoder()
        request = b"set key 0 0 5\r\nhello\r\n"
        collected = []
        for i, byte in enumerate(request):
            frames = decoder.feed(bytes([byte]))
            if i < len(request) - 1:
                assert frames == []
            collected.extend(frames)
        assert len(collected) == 1
        assert collected[0].payload == b"hello"
        assert decoder.pending_bytes == 0

    def test_split_inside_payload(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"set k 0 0 6\r\nab") == []
        frames = decoder.feed(b"c\r\nd\r\nget k\r\n")
        assert frames[0].payload == b"ab" + b"c\r\nd"[:4]
        assert frames[0].payload == b"abc\r\nd"[:6]
        assert frames[1].command == b"get"

    def test_binary_payload_with_crlf_inside(self):
        value = b"a\r\nb\r\nc"
        decoder = FrameDecoder()
        frames = decoder.feed(b"set k 0 0 %d\r\n%s\r\n" % (len(value), value))
        assert frames[0].payload == value

    def test_malformed_count_yields_error_frame_and_resyncs(self):
        decoder = FrameDecoder()
        frames = decoder.feed(b"set k 0 0 zz\r\nget ok\r\n")
        assert frames[0].error is not None
        assert frames[1].command == b"get" and frames[1].args == [b"ok"]

    def test_short_declared_count_consumes_whole_bad_request(self):
        decoder = FrameDecoder()
        frames = decoder.feed(b"set k 0 0 3\r\nhello\r\n")
        # the malformed request — line AND its data block — is consumed
        # as one error frame; the payload is never misread as a command
        assert len(frames) == 1 and frames[0].error is not None
        assert decoder.pending_bytes == 0

    def test_malformed_then_pipelined_valid_frame_same_read(self):
        # Satellite regression: a malformed storage frame followed
        # immediately by a pipelined valid request in the SAME read must
        # resync onto the valid request, not onto the orphaned payload
        decoder = FrameDecoder()
        frames = decoder.feed(b"set k 0 0 4\r\nhello\r\nget a\r\n")
        assert len(frames) == 2
        assert frames[0].error is not None
        assert frames[1].command == b"get" and frames[1].args == [b"a"]
        assert decoder.pending_bytes == 0

    def test_malformed_then_valid_split_across_reads(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"set k 0 0 4\r\nhel") == []
        frames = decoder.feed(b"lo\r\nget a\r\n")
        assert [f.error is None for f in frames] == [False, True]
        assert frames[1].command == b"get"

    def test_resync_error_frame_covers_line_and_payload(self):
        bad = b"set k 0 0 4\r\nhello\r\n"
        frames = FrameDecoder().feed(bad + b"get a\r\n")
        assert frames[0].raw == bad
        assert frames[1].command == b"get"

    def test_resync_bytes_attached_by_parser(self):
        with pytest.raises(ProtocolError) as exc:
            parse_request(b"set k 0 0 4\r\nhello\r\nget a\r\n")
        assert exc.value.resync_bytes == len(b"set k 0 0 4\r\nhello\r\n")

    def test_runaway_line_is_dropped(self):
        decoder = FrameDecoder()
        frames = decoder.feed(b"x" * (MAX_LINE_BYTES + 1))
        assert len(frames) == 1 and frames[0].error is not None
        assert decoder.pending_bytes == 0

    def test_empty_line_is_error_frame(self):
        frames = FrameDecoder().feed(b"\r\nget k\r\n")
        assert frames[0].error is not None
        assert frames[1].command == b"get"

    def test_frame_key_helper(self):
        frame = Frame(raw=b"", command=b"get", args=[b"k1", b"k2"])
        assert frame.key == b"k1"
        assert Frame(raw=b"", command=b"stats").key is None

    def test_fuzzed_stream_never_loses_sync(self):
        import random
        rng = random.Random(7)
        requests = []
        for i in range(50):
            if rng.random() < 0.5:
                value = bytes(rng.randrange(256)
                              for _ in range(rng.randrange(20)))
                requests.append(b"set k%d 0 0 %d\r\n%s\r\n"
                                % (i, len(value), value))
            else:
                requests.append(b"get k%d\r\n" % i)
        stream = b"".join(requests)
        decoder = FrameDecoder()
        frames = []
        position = 0
        while position < len(stream):
            step = rng.randrange(1, 9)
            frames.extend(decoder.feed(stream[position:position + step]))
            position += step
        assert len(frames) == len(requests)
        assert all(f.error is None for f in frames)

    def test_pipelined_burst_costs_its_own_length(self, monkeypatch):
        """One read of 4 000 pipelined gets: the parser is handed one
        buffer, not a fresh copy of the remaining burst per frame (three
        whole-buffer copies per frame made a 64 KB read cost ~300 MB of
        memcpy)."""
        from repro.net import framing

        requests = [b"get key-%06d\r\n" % i for i in range(4000)]
        data = b"".join(requests)
        handed = []  # every buffer the parser was given, kept alive

        def spy(buf, *start):
            handed.append(buf)
            return parse_frame(buf, *start)

        monkeypatch.setattr(framing, "parse_frame", spy)
        decoder = FrameDecoder()
        burst = decoder.feed(data)
        distinct = {id(buf): len(buf) for buf in handed}
        assert sum(distinct.values()) <= 2 * len(data)
        assert decoder.pending_bytes == 0

        one_by_one = FrameDecoder()
        singly = [f for raw in requests for f in one_by_one.feed(raw)]
        assert burst == singly
        assert [f.raw for f in burst] == requests

    def test_partial_tail_of_a_burst_is_kept(self):
        decoder = FrameDecoder()
        frames = decoder.feed(b"get a\r\nset b 0 0 5\r\nhel")
        assert [f.raw for f in frames] == [b"get a\r\n"]
        assert decoder.pending_bytes == len(b"set b 0 0 5\r\nhel")
        frames = decoder.feed(b"lo\r\nget c\r\n")
        assert [(f.command, f.payload) for f in frames] \
            == [(b"set", b"hello"), (b"get", None)]
        assert decoder.pending_bytes == 0


class TestParseAtAnOffset:
    @pytest.mark.parametrize("request_bytes", [
        b"get a b c\r\n",
        b"set k 0 0 5\r\nhello\r\n",
        b"set k 0 0 2\r\n\r\n\r\n",
    ])
    def test_same_result_wherever_the_request_starts(self, request_bytes):
        prefix = b"delete zz\r\n"
        assert parse_frame(prefix + request_bytes + b"get x\r\n", len(prefix)) \
            == parse_frame(request_bytes)

    def test_resync_bytes_are_relative_to_the_start(self):
        prefix = b"get a\r\n"
        bad = b"set k 0 0 4\r\nhello\r\n"
        with pytest.raises(ProtocolError) as exc:
            parse_frame(prefix + bad + b"get b\r\n", len(prefix))
        assert exc.value.resync_bytes == len(bad)

    def test_short_tail_at_an_offset_is_incomplete(self):
        with pytest.raises(IncompleteRequestError):
            parse_frame(b"get a\r\nset k 0 0 5\r\nhel", len(b"get a\r\n"))
        with pytest.raises(IncompleteRequestError):
            parse_frame(b"get a\r\nget b", len(b"get a\r\n"))
