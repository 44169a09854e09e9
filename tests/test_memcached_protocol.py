"""Tests for the memcached ASCII protocol layer."""

import pytest

from repro.apps.memcached import HicampMemcached
from repro.apps.memcached.protocol import (
    ProtocolError,
    ProtocolHandler,
    parse_request,
)


@pytest.fixture
def handler(machine):
    return ProtocolHandler(HicampMemcached(machine))


class TestParsing:
    def test_retrieval_line(self):
        cmd, args, payload = parse_request(b"get alpha beta\r\n")
        assert cmd == b"get" and args == [b"alpha", b"beta"]
        assert payload is None

    def test_storage_with_payload(self):
        cmd, args, payload = parse_request(b"set k 0 0 5\r\nhello\r\n")
        assert cmd == b"set" and payload == b"hello"

    def test_binary_safe_payload(self):
        blob = bytes(range(256))
        cmd, args, payload = parse_request(
            b"set blob 0 0 256\r\n" + blob + b"\r\n")
        assert payload == blob

    def test_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request(b"set k 0 0 10\r\nshort\r\n")

    def test_unterminated_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request(b"get key")

    def test_bad_byte_count_rejected(self):
        with pytest.raises(ProtocolError):
            parse_request(b"set k 0 0 xyz\r\n\r\n")


class TestCommands:
    def test_set_get_roundtrip(self, handler):
        assert handler.handle(b"set greeting 0 0 5\r\nhello\r\n") == \
            b"STORED\r\n"
        assert handler.handle(b"get greeting\r\n") == \
            b"VALUE greeting 0 5\r\nhello\r\nEND\r\n"

    def test_get_miss(self, handler):
        assert handler.handle(b"get nothing\r\n") == b"END\r\n"

    def test_multi_get(self, handler):
        handler.handle(b"set a 0 0 1\r\nx\r\n")
        handler.handle(b"set b 0 0 1\r\ny\r\n")
        response = handler.handle(b"get a missing b\r\n")
        assert response == (b"VALUE a 0 1\r\nx\r\n"
                            b"VALUE b 0 1\r\ny\r\nEND\r\n")

    def test_add_replace(self, handler):
        assert handler.handle(b"add k 0 0 1\r\n1\r\n") == b"STORED\r\n"
        assert handler.handle(b"add k 0 0 1\r\n2\r\n") == b"NOT_STORED\r\n"
        assert handler.handle(b"replace k 0 0 1\r\n3\r\n") == b"STORED\r\n"
        assert handler.handle(b"replace nope 0 0 1\r\n4\r\n") == \
            b"NOT_STORED\r\n"

    def test_delete(self, handler):
        handler.handle(b"set k 0 0 1\r\nv\r\n")
        assert handler.handle(b"delete k\r\n") == b"DELETED\r\n"
        assert handler.handle(b"delete k\r\n") == b"NOT_FOUND\r\n"

    def test_incr_decr(self, handler):
        handler.handle(b"set n 0 0 2\r\n10\r\n")
        assert handler.handle(b"incr n 5\r\n") == b"15\r\n"
        assert handler.handle(b"decr n 3\r\n") == b"12\r\n"
        assert handler.handle(b"incr missing 1\r\n") == b"NOT_FOUND\r\n"

    def test_gets_cas_flow(self, handler):
        handler.handle(b"set k 0 0 2\r\nv1\r\n")
        response = handler.handle(b"gets k\r\n")
        token = response.split(b"\r\n")[0].split()[-1]
        assert handler.handle(
            b"cas k 0 0 2 %s\r\nv2\r\n" % token) == b"STORED\r\n"
        # stale token now
        assert handler.handle(
            b"cas k 0 0 2 %s\r\nv3\r\n" % token) == b"EXISTS\r\n"
        assert handler.handle(b"cas missing 0 0 1 5\r\nx\r\n") == \
            b"NOT_FOUND\r\n"

    def test_stats(self, handler):
        handler.handle(b"set k 0 0 1\r\nv\r\n")
        handler.handle(b"get k\r\n")
        response = handler.handle(b"stats\r\n")
        assert b"STAT gets 1" in response
        assert b"STAT curr_items 1" in response

    def test_unknown_command(self, handler):
        assert handler.handle(b"flushish\r\n") == b"ERROR\r\n"

    def test_execute_reaches_every_command_method(self, handler):
        methods = {name[len("_cmd_"):].encode()
                   for name in dir(ProtocolHandler)
                   if name.startswith("_cmd_")}
        assert set(ProtocolHandler.COMMANDS) == methods
        for command, method in ProtocolHandler.COMMANDS.items():
            assert method is getattr(ProtocolHandler,
                                     "_cmd_" + command.decode())
        handler.execute(b"set", [b"n", b"0", b"0", b"1"], b"5")
        token = handler.execute(b"gets", [b"n"], None).split()[4]
        requests = {
            b"get": ([b"n"], None, b"VALUE n 0 1\r\n5\r\nEND\r\n"),
            b"gets": ([b"n"], None, b"VALUE n 0 1 %s\r\n5\r\nEND\r\n"
                      % token),
            b"set": ([b"n", b"0", b"0", b"1"], b"6", b"STORED\r\n"),
            b"add": ([b"m", b"0", b"0", b"1"], b"1", b"STORED\r\n"),
            b"replace": ([b"m", b"0", b"0", b"1"], b"2", b"STORED\r\n"),
            b"cas": ([b"m", b"0", b"0", b"1", b"0"], b"3", b"EXISTS\r\n"),
            b"incr": ([b"n", b"4"], None, b"10\r\n"),
            b"decr": ([b"n", b"3"], None, b"7\r\n"),
            b"delete": ([b"m"], None, b"DELETED\r\n"),
            b"version": ([], None, b"VERSION repro-hicamp/1.0\r\n"),
            b"flush_all": ([], None, b"OK\r\n"),
        }
        assert set(requests) | {b"stats"} == methods
        for command, (args, payload, expected) in requests.items():
            assert handler.execute(command, args, payload) == expected, \
                command
        assert handler.execute(b"stats", [], None).startswith(b"STAT ")

    def test_non_command_names_are_errors(self, handler):
        for command in (b"bogus", b"\xff", b"handle", b"value_block",
                        b"execute", b"_cmd_get", b"GET", b""):
            assert handler.execute(command, [b"k"], None) == b"ERROR\r\n"

    def test_malformed_returns_client_error(self, handler):
        assert handler.handle(b"set k 0 0\r\n").startswith(b"CLIENT_ERROR")
        assert handler.handle(b"incr n xyz\r\n").startswith(b"CLIENT_ERROR")


class TestAdminCommands:
    def test_version(self, handler):
        response = handler.handle(b"version\r\n")
        assert response.startswith(b"VERSION ")
        assert response.endswith(b"\r\n")

    def test_flush_all_empties_cache(self, handler):
        for i in range(5):
            handler.handle(b"set k%d 0 0 1\r\nv\r\n" % i)
        assert handler.handle(b"flush_all\r\n") == b"OK\r\n"
        assert handler.handle(b"get k0\r\n") == b"END\r\n"
        assert b"STAT curr_items 0" in handler.handle(b"stats\r\n")

    def test_flush_all_then_store_again(self, handler):
        handler.handle(b"set k 0 0 1\r\na\r\n")
        handler.handle(b"flush_all\r\n")
        assert handler.handle(b"set k 0 0 1\r\nb\r\n") == b"STORED\r\n"
        assert b"VALUE k 0 1\r\nb" in handler.handle(b"get k\r\n")

    def test_stats_includes_cas_and_extra(self, handler):
        handler.handle(b"set k 0 0 2\r\nv1\r\n")
        token = handler.handle(b"gets k\r\n").split(b"\r\n")[0].split()[-1]
        handler.handle(b"cas k 0 0 2 %s\r\nv2\r\n" % token)
        # a stale token is rejected at the protocol layer, before the
        # server-level cas counter — only the applied cas is counted
        handler.handle(b"cas k 0 0 2 %s\r\nv3\r\n" % token)
        handler.handle(b"flush_all\r\n")
        response = handler.handle(b"stats\r\n")
        assert b"STAT cas_ops 1" in response
        assert b"STAT cas_failures 0" in response
        assert b"STAT flushes 1" in response
        assert b"STAT footprint_bytes" in response

    def test_managed_flush_all_clears_lru(self, machine):
        from repro.apps.memcached.eviction import ManagedMemcached
        server = ManagedMemcached(machine)
        handler = ProtocolHandler(server)
        for i in range(4):
            handler.handle(b"set k%d 0 0 1\r\nv\r\n" % i)
        handler.handle(b"flush_all\r\n")
        assert server.item_count() == 0
        assert not server._lru
        # a fresh set must not be evicted because of stale LRU entries
        assert handler.handle(b"set new 0 0 1\r\nx\r\n") == b"STORED\r\n"
        assert b"VALUE new" in handler.handle(b"get new\r\n")


class TestProtocolRobustness:
    def test_random_bytes_never_crash(self, handler):
        import random
        rng = random.Random(0)
        for _ in range(300):
            size = rng.randint(0, 40)
            blob = bytes(rng.randrange(256) for _ in range(size))
            response = handler.handle(blob + b"\r\n")
            assert response.endswith(b"\r\n")

    def test_fuzzed_command_lines(self, handler):
        import random
        rng = random.Random(1)
        verbs = [b"get", b"set", b"add", b"cas", b"delete", b"incr",
                 b"decr", b"stats", b"quit", b"flush_all"]
        for _ in range(200):
            parts = [rng.choice(verbs)]
            for _ in range(rng.randint(0, 5)):
                parts.append(b"%d" % rng.randrange(10**6))
            request = b" ".join(parts) + b"\r\n" + b"x" * rng.randint(0, 8)
            response = handler.handle(request + b"\r\n")
            assert isinstance(response, bytes) and response


class TestProtocolWithTtlServer:
    def test_exptime_honoured(self, machine):
        from repro.apps.memcached.eviction import ManagedMemcached
        server = ManagedMemcached(machine)
        handler = ProtocolHandler(server)
        assert handler.handle(b"set k 0 5 1\r\nv\r\n") == b"STORED\r\n"
        assert b"VALUE k" in handler.handle(b"get k\r\n")
        server.tick(10)  # past the 5-tick TTL
        assert handler.handle(b"get k\r\n") == b"END\r\n"

    def test_zero_exptime_means_forever(self, machine):
        from repro.apps.memcached.eviction import ManagedMemcached
        server = ManagedMemcached(machine)
        handler = ProtocolHandler(server)
        handler.handle(b"set k 0 0 1\r\nv\r\n")
        server.tick(100000)
        assert b"VALUE k" in handler.handle(b"get k\r\n")

    def test_bad_exptime_rejected(self, handler):
        assert handler.handle(b"set k 0 zz 1\r\nv\r\n").startswith(
            b"CLIENT_ERROR")

    def test_plain_server_ignores_ttl_gracefully(self, handler):
        # HicampMemcached has no TTL support; the protocol still stores
        assert handler.handle(b"set k 0 99 1\r\nv\r\n") == b"STORED\r\n"
        assert b"VALUE k" in handler.handle(b"get k\r\n")
