"""Leader session hygiene under follower churn.

Every follower connection hangs a per-session dealloc listener off the
leader machine's store; a leader that outlives hundreds of follower
connects/disconnects must not accumulate them. These tests churn
followers against one long-lived leader and assert the listener
population returns to its pre-connection baseline every time — the
regression guard for the per-session deregistration in
:meth:`ReplicationLeader._detach_session`.
"""

import asyncio
import gc
import socket
import warnings

from repro.net.server import MemcachedServer
from repro.replication import ReplicationFollower, ReplicationLeader


async def wait_until(predicate, timeout=5.0):
    loop = asyncio.get_event_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(0.01)
    return False


class LeaderStack:
    async def __aenter__(self):
        self.server = MemcachedServer(port=0, shard_count=2)
        await self.server.start()
        self.leader = ReplicationLeader(self.server.router,
                                        heartbeat_interval=None)
        await self.leader.start()
        return self

    async def __aexit__(self, *exc):
        await self.leader.stop()
        await self.server.shutdown()

    @property
    def dealloc_listeners(self):
        return self.leader.machine.mem.store.dealloc_listeners

    @property
    def commit_listeners(self):
        return self.server.router.commit_listeners


class TestSessionChurn:
    def test_listeners_return_to_baseline_after_churn(self):
        async def go():
            async with LeaderStack() as stack:
                base_dealloc = len(stack.dealloc_listeners)
                base_commit = len(stack.commit_listeners)
                for round_number in range(8):
                    follower = ReplicationFollower(
                        "127.0.0.1", stack.leader.port,
                        reconnect_delay=0.01)
                    await follower.start()
                    assert await wait_until(
                        lambda: len(stack.dealloc_listeners)
                        == base_dealloc + 1), \
                        "session %d never registered" % round_number
                    assert len(stack.leader._sessions) == 1
                    await follower.stop()
                    assert await wait_until(
                        lambda: len(stack.dealloc_listeners)
                        == base_dealloc), \
                        "session %d leaked its dealloc listener" \
                        % round_number
                    assert await wait_until(
                        lambda: not stack.leader._sessions)
                    # the commit listener is leader-wide, not
                    # per-session: churn must not touch it
                    assert len(stack.commit_listeners) == base_commit

        asyncio.run(go())

    def test_concurrent_sessions_detach_independently(self):
        async def go():
            async with LeaderStack() as stack:
                base = len(stack.dealloc_listeners)
                followers = []
                for _ in range(3):
                    follower = ReplicationFollower(
                        "127.0.0.1", stack.leader.port,
                        reconnect_delay=0.01)
                    await follower.start()
                    followers.append(follower)
                assert await wait_until(
                    lambda: len(stack.dealloc_listeners) == base + 3)
                # drop the middle one; the other two sessions stay live
                await followers[1].stop()
                assert await wait_until(
                    lambda: len(stack.dealloc_listeners) == base + 2)
                assert len(stack.leader._sessions) == 2
                for follower in (followers[0], followers[2]):
                    await follower.stop()
                assert await wait_until(
                    lambda: len(stack.dealloc_listeners) == base)

        asyncio.run(go())

    def test_leader_stop_sweeps_live_sessions(self):
        async def go():
            stack = LeaderStack()
            await stack.__aenter__()
            base = len(stack.dealloc_listeners)
            follower = ReplicationFollower(
                "127.0.0.1", stack.leader.port, reconnect_delay=0.01)
            await follower.start()
            assert await wait_until(
                lambda: len(stack.leader._sessions) == 1)
            # stop the leader while the follower is still attached
            await stack.leader.stop()
            assert not stack.leader._sessions
            assert stack.leader._on_commit not in stack.commit_listeners
            # the session's dealloc listener went with it
            assert len(stack.dealloc_listeners) == base
            await follower.stop()
            await stack.server.shutdown()

        asyncio.run(go())


class TestSenderStops:
    def test_stop_returns_when_the_cancel_lands_as_wake_fires(self):
        # the sender's timed wait is repro.net.server.wait_within;
        # tests/test_net_timed_wait.py cancels it in the very turn that
        # ``wake`` fires, here stop() races the wake
        async def go():
            server = MemcachedServer(port=0, shard_count=2)
            await server.start()
            # a heartbeat wait long enough that only the cancel ends it
            leader = ReplicationLeader(server.router,
                                       heartbeat_interval=60.0)
            await leader.start()
            follower = ReplicationFollower(
                "127.0.0.1", leader.port, reconnect_delay=0.01)
            await follower.start()
            try:
                # both streams synced: the sender is parked in its wait
                assert await wait_until(
                    lambda: len(follower.applied_seq) == 2)
                await asyncio.sleep(0.05)
                leader._sessions[0].wake.set()
                await asyncio.wait_for(leader.stop(), 2.0)
                assert not leader._sessions
            finally:
                await follower.stop()
                await server.shutdown()

        asyncio.run(go())


class TestFollowerStop:
    def test_a_cancel_of_the_caller_is_raised_and_pins_released(self):
        """``stop()`` cancels the link task and waits on it; a cancel of
        the task awaiting ``stop()`` must end that task cancelled, not
        be taken for the link's own CancelledError."""
        async def go():
            async with LeaderStack() as stack:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", stack.server.port)
                writer.write(b"set k 0 0 5\r\nvalue\r\n")
                assert await reader.readline() == b"STORED\r\n"
                writer.close()
                await writer.wait_closed()
                follower = ReplicationFollower(
                    "127.0.0.1", stack.leader.port, reconnect_delay=0.01)
                await follower.start()
                assert await wait_until(
                    lambda: sum(follower.applied_seq.values()) == 1)
                assert follower.plid_map
                stopper = asyncio.ensure_future(follower.stop())
                await asyncio.sleep(0)  # stop() waits on the link task
                stopper.cancel()
                await asyncio.wait((stopper,), timeout=2.0)
                assert stopper.cancelled()
                # the translation map's pins go either way
                assert not follower.plid_map

        asyncio.run(go())


class TestLeaderStop:
    def test_a_session_accepted_as_stop_begins_ends_with_it(self):
        """A follower connects in the turn ``stop()`` begins: asyncio
        hands the connection over, and ``stop()`` starts before the
        session task's first step. That session must end with the
        leader and leave no dealloc listener behind."""
        async def go():
            server = MemcachedServer(port=0, shard_count=2)
            await server.start()
            leader = ReplicationLeader(server.router,
                                       heartbeat_interval=None)
            dealloc = leader.machine.mem.store.dealloc_listeners
            base = len(dealloc)
            serve, stopping = leader._serve_follower, []

            def stop_as_the_session_starts(reader, writer):
                stopping.append(asyncio.ensure_future(leader.stop()))
                return serve(reader, writer)

            leader._serve_follower = stop_as_the_session_starts
            await leader.start()
            follower = ReplicationFollower(
                "127.0.0.1", leader.port, reconnect_delay=5.0)
            await follower.start()
            try:
                assert await wait_until(lambda: stopping)
                done, _ = await asyncio.wait(stopping, timeout=2.0)
                assert done, "stop() hung on a late session"
                # time for a session that outlived stop() to attach
                await asyncio.sleep(0.1)
                sessions = [task for task in asyncio.all_tasks()
                            if task.get_coro().__qualname__
                            == "ReplicationLeader._serve_follower"]
                assert not sessions and not leader._session_tasks
                assert len(dealloc) == base
            finally:
                await follower.stop()
                await server.shutdown()

        asyncio.run(go())

    def test_a_connection_accepted_as_stop_begins_is_closed(self):
        """A raw client connects, and ``stop()`` begins in the turn
        after the loop accepts it, before asyncio has made its
        transport: the leader must still refuse and close it (asyncio
        3.11's ``Server._attach`` asserted on a transport made after
        ``close()``, and the socket was left to the collector).
        ``stop()`` runs as its own task so that it starts a turn later
        on every Python, as 3.12's ``wait_for`` would run it inline."""
        async def go():
            loop = asyncio.get_running_loop()
            async with LeaderStack() as stack:
                client = socket.create_connection(
                    ("127.0.0.1", stack.leader.port))
                client.setblocking(False)
                try:
                    await asyncio.sleep(0)  # the loop's poll accepts it
                    stopping = asyncio.create_task(stack.leader.stop())
                    await asyncio.wait_for(stopping, timeout=5)
                    return await asyncio.wait_for(
                        loop.sock_recv(client, 1), timeout=5)
                finally:
                    client.close()

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            eof = asyncio.run(go())
            gc.collect()
        assert eof == b""
        assert [str(w.message) for w in caught
                if issubclass(w.category, ResourceWarning)] == []
