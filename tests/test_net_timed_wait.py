"""The one timed wait inside a cancellable loop: ``wait_within``.

Before Python 3.12, ``asyncio.wait_for`` returns the inner result when a
cancel lands in the loop turn that completes it, so a loop that is
stopped by cancelling it runs on. These tests make that turn happen on
every version: they complete the awaited thing and cancel the waiting
task in one synchronous step, after a seeded number of idle loop turns.
"""

import asyncio
import gc
import random

import pytest

from repro.net import server as server_module
from repro.net.server import MemcachedServer
from repro.replication import ReplicationFollower, ReplicationLeader

SEEDS = range(3)


async def idle_turns(seed):
    for _ in range(random.Random(seed).randrange(4)):
        await asyncio.sleep(0)


async def wait_until(predicate, timeout=5.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.01)


#: each way ``wait_within`` is built that this Python can run
WAYS = [server_module._wait_in_task] + (
    [server_module._wait_in_scope] if hasattr(asyncio, "timeout") else [])


@pytest.mark.parametrize("wait", WAYS)
class TestWaitWithin:
    def test_result_when_in_time(self, wait):
        async def go():
            event = asyncio.Event()
            asyncio.get_running_loop().call_soon(event.set)
            return await wait(event.wait(), 5.0)

        assert asyncio.run(go()) is True

    def test_false_on_timeout_and_the_wait_is_unwound(self, wait):
        async def go():
            unwound = []

            async def forever():
                try:
                    await asyncio.Event().wait()
                except asyncio.CancelledError:
                    unwound.append(True)
                    raise

            return await wait(forever(), 0.01), unwound

        assert asyncio.run(go()) == (False, [True])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cancel_landing_as_the_wait_completes_is_raised(self, wait, seed):
        async def go():
            event = asyncio.Event()
            waiter = asyncio.ensure_future(wait(event.wait(), 60.0))
            await idle_turns(seed)
            await asyncio.sleep(0)  # the waiter is parked
            event.set()
            waiter.cancel()
            await asyncio.wait((waiter,), timeout=2.0)
            return waiter.cancelled()

        assert asyncio.run(go())

    def test_failure_landing_with_the_cancel_is_retrieved(self, wait):
        async def go():
            loop = asyncio.get_running_loop()
            reports = []
            loop.set_exception_handler(lambda _, context: reports.append(
                context["message"]))
            failure = loop.create_future()

            async def read():
                await failure

            waiter = asyncio.ensure_future(wait(read(), 60.0))
            await asyncio.sleep(0)  # the waiter is parked
            failure.set_exception(ConnectionResetError())
            waiter.cancel()
            await asyncio.wait((waiter,), timeout=2.0)
            cancelled = waiter.cancelled()
            del waiter
            gc.collect()
            return cancelled, reports

        assert asyncio.run(go()) == (True, [])


class TestCancelledLoopsStop:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_connection_with_read_timeout(self, seed):
        async def go():
            server = MemcachedServer(port=0, shard_count=2, read_timeout=60.0)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            stop = None
            try:
                await wait_until(lambda: server._connections)
                (connection,) = server._connections
                await asyncio.sleep(0.05)  # idle, its timer armed
                await idle_turns(seed)
                # the request and the stop land in one step: the stop
                # runs in the server's next turn, before the read
                writer.write(b"version\r\n")
                stop = asyncio.ensure_future(server.shutdown())
                done, _ = await asyncio.wait((stop,), timeout=2.0)
                assert done, "the connection held the stop up"
                stop.result()
                # the stop won: the request that arrived with it is
                # never answered, and the idle timer went with it
                assert await reader.read() == b""
                assert connection._timer.cancelled()
            finally:
                writer.close()
                if stop is None:
                    await asyncio.wait_for(server.shutdown(), 2.0)

        asyncio.run(go())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_replication_sender(self, seed):
        async def go():
            server = MemcachedServer(port=0, shard_count=2)
            await server.start()
            # a heartbeat wait long enough that only the cancel ends it
            leader = ReplicationLeader(server.router, heartbeat_interval=60.0)
            await leader.start()
            follower = ReplicationFollower("127.0.0.1", leader.port,
                                           reconnect_delay=0.01)
            await follower.start()
            try:
                await wait_until(lambda: len(follower.applied_seq) == 2)
                await asyncio.sleep(0.05)  # parked in its heartbeat wait
                await idle_turns(seed)
                (session,) = leader._sessions
                (sender,) = [
                    task for task in asyncio.all_tasks()
                    if task.get_coro().__qualname__
                    == "ReplicationLeader._sender"]
                session.wake.set()
                sender.cancel()
                await asyncio.wait((sender,), timeout=2.0)
                assert sender.cancelled(), "the sender ran on after its cancel"
                await asyncio.wait_for(leader.stop(), 2.0)
                assert not leader._sessions
            finally:
                await follower.stop()
                await asyncio.wait_for(server.shutdown(), 2.0)

        asyncio.run(go())
