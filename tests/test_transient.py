"""Content-addressed queue slots under racing enqueues: an iterator
register's transient stores become content-unique lines only at commit
(section 3.3), so two racing identical payloads may share one line."""


class TestQueueCoalescing:
    def test_identical_concurrent_enqueues_coalesce_but_never_lose_order(
            self, machine):
        # content-addressed identity: two racing enqueues of the SAME
        # payload may collapse into one slot with tail advanced by two;
        # dequeue must skip the hole and keep serving
        from repro.concurrency import Scheduler
        from repro.structures import HQueue
        q = HQueue.create(machine)

        def producer():
            q.enqueue(b"same-payload")
            yield

        sched = Scheduler(seed=1)
        sched.spawn("p1", producer())
        sched.spawn("p2", producer())
        sched.run()
        q.enqueue(b"tail-item")
        got = []
        while True:
            item = q.dequeue()
            if item is None:
                break
            got.append(item)
        assert got[-1] == b"tail-item"
        assert all(x in (b"same-payload", b"tail-item") for x in got)
