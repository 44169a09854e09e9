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

from repro.net.server import MemcachedServer
from repro.replication import ReplicationFollower, ReplicationLeader
from repro.replication import leader as leader_module


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


class _Python311WaitFor:
    """``asyncio`` as the leader module sees it, except that
    ``wait_for`` swallows a cancel that lands while the session's
    ``wake`` is set. Before Python 3.12 ``asyncio.wait_for`` does that
    when the cancel and the awaited event land in the same loop turn;
    this makes the race happen on every version, every time."""

    def __init__(self, sessions):
        self._sessions = sessions

    def __getattr__(self, name):
        return getattr(asyncio, name)

    async def wait_for(self, awaitable, timeout):
        try:
            return await asyncio.wait_for(awaitable, timeout)
        except asyncio.CancelledError:
            if not any(s.wake.is_set() for s in self._sessions):
                raise
            return True


class TestSenderStops:
    def test_stop_returns_when_the_cancel_lands_as_wake_fires(
            self, monkeypatch):
        sessions = []
        monkeypatch.setattr(leader_module, "asyncio",
                            _Python311WaitFor(sessions))

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
                sessions.extend(leader._sessions)
                sessions[0].wake.set()
                await asyncio.wait_for(leader.stop(), 2.0)
                assert not leader._sessions
            finally:
                await follower.stop()
                await server.shutdown()

        asyncio.run(go())
