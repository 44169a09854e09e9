"""Cross-mode differentials: the commit strategy must be invisible.

History independence is what makes online strategy switching safe:
every commit mode lands the same canonical DAG, so a mid-stream switch
at a batch boundary cannot show up in state. These tests replay one
deterministic pipelined workload — dup-key sets the bulk path
coalesces last-wins, deletes and counters the storm-staging posture
commutes around staged runs, read fences the hop resolves early —
through every static mode and through an adaptive run that is forced
to switch strategies mid-stream, and demand identical responses plus
identical post-quiesce observables: per-shard segment fingerprints,
unique-line footprints, and the refcount multiset. A final section
pins seed-identical fuzz traces across commit modes.
"""

import asyncio
import random

from repro.net.framing import FrameDecoder
from repro.net.router import ConnectionState, ShardRouter
from repro.testing.auditors import audit_machine
from repro.testing.fuzz import EpisodeConfig, run_episode

STATIC_MODES = ("cas", "merge", "bulk")


def _chunks(seed):
    """Three deterministic request chunks (raw protocol bytes): a mixed
    warmup, a dup/delete-churning storm, then a counter-RMW tail. Gets
    ride along in every chunk so fences land inside batched runs."""
    rng = random.Random(seed)
    keys = [b"k%02d" % i for i in range(10)]

    def put(key, tag):
        value = b"v%05d" % tag
        return b"set %s 0 0 %d\r\n%s\r\n" % (key, len(value), value)

    warm = b"".join(put(k, i) for i, k in enumerate(keys))
    warm += b"set ctr 0 0 3\r\n100\r\n"
    warm += b"".join(b"get %s\r\n" % rng.choice(keys) for _ in range(4))

    storm = b""
    for i in range(60):
        roll = rng.random()
        key = rng.choice(keys)
        if roll < 0.55:
            storm += put(key, 1000 + rng.randrange(40))  # dup-heavy
        elif roll < 0.75:
            storm += b"delete %s\r\n" % key
        elif roll < 0.9:
            storm += b"get %s\r\n" % key
        else:
            storm += put(b"fresh%02d" % i, 2000 + i)

    tail = b""
    for _ in range(20):
        roll = rng.random()
        if roll < 0.4:
            tail += b"incr ctr %d\r\n" % rng.randrange(1, 9)
        elif roll < 0.6:
            tail += b"decr ctr %d\r\n" % rng.randrange(1, 5)
        elif roll < 0.8:
            tail += b"gets %s\r\n" % rng.choice(keys)
        else:
            tail += put(rng.choice(keys), 3000 + rng.randrange(20))
    return [warm, storm, tail]


async def _replay(mode, chunks, switches=None):
    """Dispatch each chunk as one pipelined burst on a single
    connection; ``switches`` forces a strategy handoff before a chunk
    (mid-stream, with that chunk's frames about to pile into the same
    shard queues the previous strategy just drained)."""
    router = ShardRouter(shard_count=3, batch_limit=8, commit_mode=mode)
    await router.start()
    conn = ConnectionState()
    responses = []
    for idx, chunk in enumerate(chunks):
        if switches and idx in switches:
            for shard in range(3):
                router.controller.force_mode(shard, switches[idx])
        futures = [await router.dispatch(frame, conn)
                   for frame in FrameDecoder().feed(chunk)]
        responses.extend([await f for f in futures])
    await router.drain()
    machine = router.machine
    machine.drain()  # quiesce deferred reclaim before observing
    store = machine.mem.store
    observed = {
        "fingerprints": [
            machine.segment_fingerprint(s.kvp.vsid).hex()
            for s in router.servers],
        "footprint_lines": machine.footprint_lines(),
        "footprint_bytes": store.footprint_bytes(),
        "refcounts": sorted(store.refcount(p)
                            for p in store.live_plids()),
        "audit": audit_machine(machine, strict=True).ok,
        "items": sum(s.item_count() for s in router.servers),
        # cmd_set counts STORED replies, however the run was coalesced
        "sets": sum(s.stats.sets for s in router.servers),
    }
    if mode == "adaptive":
        observed["switches"] = len(router.controller.switch_log)
    await router.stop()
    return responses, observed


def _run(mode, chunks, switches=None):
    return asyncio.run(_replay(mode, chunks, switches=switches))


class TestCrossModeIdentity:
    def test_static_modes_agree_on_responses_and_state(self):
        for seed in (3, 77):
            chunks = _chunks(seed)
            baseline = _run("merge", chunks)
            for mode in ("cas", "bulk", "adaptive"):
                responses, observed = _run(mode, chunks)
                observed.pop("switches", None)
                assert responses == baseline[0], mode
                assert observed == baseline[1], mode
            assert baseline[1]["audit"] and baseline[1]["items"] > 0
            # the storm chunk repeats keys inside one drained run
            assert baseline[1]["sets"] \
                == baseline[0].count(b"STORED\r\n") > baseline[1]["items"]

    def test_mid_stream_switches_are_invisible_to_state(self):
        # the storm chunk lands under forced bulk (storm-staging hop
        # active: commuted deletes, early fences, last-wins dedupe),
        # the counter tail under forced cas — responses and quiesced
        # state must still match every static mode bit for bit
        chunks = _chunks(11)
        baseline = _run("merge", chunks)
        responses, observed = _run(
            "adaptive", chunks, switches={1: "bulk", 2: "cas"})
        switch_count = observed.pop("switches")
        assert switch_count >= 2
        assert responses == baseline[0]
        assert observed == baseline[1]

    def test_every_forced_mode_agrees_under_the_storm_chunk(self):
        chunks = _chunks(29)
        results = {mode: _run("adaptive", chunks, switches={1: mode})
                   for mode in STATIC_MODES}
        first = results["cas"]
        for mode in ("merge", "bulk"):
            responses, observed = results[mode]
            observed.pop("switches")
            first[1].pop("switches", None)
            assert responses == first[0], mode
            assert observed == first[1], mode


class TestFuzzTraceIdentity:
    def test_seed_traces_identical_across_commit_modes(self):
        # the episode trace (scripts, fault plan, linearizability
        # verdict, readback) is commit-mode-independent by construction
        traces = {}
        for mode in STATIC_MODES + ("adaptive",):
            result = run_episode(
                41, EpisodeConfig(commit_mode=mode))
            assert result.failures == [], mode
            traces[mode] = result.trace
        assert len({tuple(t) for t in traces.values()}) == 1
