"""The one read routine: every ``get``/``gets`` a router answers.

``ShardRouter.answer`` answers each ``get``/``gets``, whatever its key
count, with one loop that reads each key's VALUE block from its own
shard's ``ProtocolHandler.value_block``. Pinned here: request order
and CAS tokens across shards, absent keys, error frames, memcached's
answers to a bare ``get`` and a key-less ``delete`` on both the router
and the ``ProtocolHandler.handle`` path, and one set of bytes from a
cluster leader's router and a follower front over its replica.
"""

import asyncio

from repro import Machine
from repro.apps.memcached.protocol import ProtocolHandler
from repro.apps.memcached.server import HicampMemcached
from repro.cluster.node import ClusterRouter
from repro.net.framing import FrameDecoder
from repro.net.router import ShardRouter
from repro.net.server import MemcachedServer
from repro.replication import (
    FollowerRouter,
    ReplicationFollower,
    ReplicationLeader,
)
from tests.test_net_follower import leader_fingerprints, wait_until
from tests.test_net_transport import _put

ITEMS = [(b"key-%02d" % i, b"value-%d" % (i * 7)) for i in range(12)]

#: a multi-key get and gets in an order no shard holds, absent keys and
#: a repeated key among them
READS = [b"get key-07 key-00 absent key-11 key-03 key-07\r\n",
         b"gets key-05 key-10 key-01 absent\r\n",
         b"get key-09\r\n",
         b"gets key-02\r\n",
         b"get absent other\r\n",
         b"get\r\n",
         b"gets\r\n"]


def _frame(raw: bytes):
    (frame,) = FrameDecoder().feed(raw)
    return frame


def _loaded_router(router):
    for key, value in ITEMS:
        router.servers[router.shard_index(key)].set(key, value)
    return router


def _one_shard_handler() -> ProtocolHandler:
    """The reference: one backend holding every item."""
    server = HicampMemcached(Machine())
    for key, value in ITEMS:
        server.set(key, value)
    return ProtocolHandler(server)


def test_multi_key_reads_answer_in_request_order_with_tokens():
    router = _loaded_router(ShardRouter(shard_count=4))
    assert len({router.shard_index(key) for key, _ in ITEMS}) == 4
    reference = _one_shard_handler()
    for raw in READS:
        assert router.answer(_frame(raw)) == reference.handle(raw), raw
    reply = router.answer(_frame(READS[0]))
    assert reply.startswith(b"VALUE key-07 0 8\r\nvalue-49\r\n"
                            b"VALUE key-00 0 7\r\nvalue-0\r\n")
    assert reply.count(b"VALUE key-07 ") == 2 and b"absent" not in reply
    tokens = router.answer(_frame(READS[1])).split(b"\r\n")[0:6:2]
    assert [line.split()[1] for line in tokens] \
        == [b"key-05", b"key-10", b"key-01"]
    assert all(len(line.split()) == 5 for line in tokens)


def test_absent_keys_answer_nothing_and_error_frames_count():
    router = _loaded_router(ShardRouter(shard_count=2))
    assert router.answer(_frame(b"get absent other\r\n")) == b"END\r\n"
    assert router.answer(_frame(b"gets absent\r\n")) == b"END\r\n"
    before = router.metrics.protocol_errors
    (bad,) = FrameDecoder().feed(b"set k 0 0 banana\r\n")
    assert router.answer(bad) == b"CLIENT_ERROR bad byte count b'banana'\r\n"
    assert router.metrics.protocol_errors == before + 1
    # a read is never an error frame: the routine leaves the count alone
    router.answer(_frame(READS[0]))
    assert router.metrics.protocol_errors == before + 1


def test_a_bare_get_is_an_error_and_a_keyless_delete_a_client_error():
    handler = ProtocolHandler(HicampMemcached(Machine()))
    router = ShardRouter(shard_count=2)
    empty_front = FollowerRouter(
        ReplicationFollower("127.0.0.1", 1), "127.0.0.1", 1)
    for raw in (b"get\r\n", b"gets\r\n"):
        assert handler.handle(raw) == b"ERROR\r\n"
        assert router.answer(_frame(raw)) == b"ERROR\r\n"
        assert empty_front.answer(_frame(raw)) == b"ERROR\r\n"
    assert empty_front.answer(_frame(b"get k\r\n")) == b"END\r\n"
    refused = b"CLIENT_ERROR delete needs a key\r\n"
    assert handler.handle(b"delete\r\n") == refused
    assert router.answer(_frame(b"delete\r\n")) == refused


def test_a_follower_front_and_a_cluster_router_answer_the_same_bytes():
    async def go():
        router = ClusterRouter("a", shard_count=2)
        async with MemcachedServer(port=0, router=router) as server:
            leader = ReplicationLeader(router, heartbeat_interval=None)
            await leader.start()
            follower = ReplicationFollower("127.0.0.1", leader.port,
                                           reconnect_delay=0.01)
            await follower.start()
            try:
                script = b"".join(_put(key, value) for key, value in ITEMS)
                for frame in FrameDecoder().feed(script):
                    await (await router.dispatch(frame))
                target = leader_fingerprints(leader)
                assert await wait_until(
                    lambda: follower.fingerprints() == target)
                front = FollowerRouter(follower, "127.0.0.1", server.port)
                return [(router.answer(_frame(raw)),
                         front.answer(_frame(raw))) for raw in READS]
            finally:
                await follower.stop()
                await leader.stop()

    reference = _one_shard_handler()
    for raw, (leader_reply, front_reply) in zip(READS,
                                                asyncio.run(go())):
        assert front_reply == leader_reply == reference.handle(raw), raw
