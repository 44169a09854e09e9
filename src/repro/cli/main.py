"""``repro`` — the command-line front end of the reproduction.

Examples::

    repro experiments --list
    repro experiments table1 figure6
    repro experiments --all --out results/
    repro memcached            # interactive protocol REPL
    repro demo                 # one-minute architecture tour
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.analysis.experiments import RUNNERS, headline_metrics

    names = list(RUNNERS) if args.all or not args.names else args.names
    unknown = [n for n in names if n not in RUNNERS]
    if unknown:
        print("unknown experiment(s): %s" % ", ".join(unknown),
              file=sys.stderr)
        print("available: %s" % ", ".join(RUNNERS), file=sys.stderr)
        return 2
    out_dir: Optional[pathlib.Path] = None
    if args.out:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    all_metrics = {}
    for name in names:
        runner = RUNNERS[name]
        kwargs = {}
        if "scale" in runner.__code__.co_varnames[:runner.__code__.co_argcount]:
            kwargs["scale"] = args.scale
        result = runner(**kwargs)
        metrics = headline_metrics(result)
        all_metrics[name] = metrics
        if args.json:
            import json
            print(json.dumps({name: metrics}, indent=2))
        else:
            print(result.text)
            print()
        if out_dir is not None:
            (out_dir / (name + ".txt")).write_text(result.text + "\n")
    if out_dir is not None:
        import json
        (out_dir / "metrics.json").write_text(
            json.dumps(all_metrics, indent=2) + "\n")
    return 0


def _cmd_experiments_list(_args: argparse.Namespace) -> int:
    from repro.analysis.experiments import RUNNERS

    for name, runner in RUNNERS.items():
        doc = (runner.__doc__ or "").strip().splitlines()[0]
        print("%-16s %s" % (name, doc))
    return 0


def _cmd_memcached(args: argparse.Namespace) -> int:
    from repro import Machine
    from repro.apps.memcached.eviction import ManagedMemcached
    from repro.apps.memcached.protocol import ProtocolHandler

    machine = Machine()
    server = ManagedMemcached(machine, quota_bytes=args.quota)
    handler = ProtocolHandler(server)
    stream = sys.stdin
    print("# repro memcached on a HICAMP machine — ASCII protocol, one "
          "request per line;\n# storage commands take the payload on the "
          "next line. Ctrl-D to quit.", file=sys.stderr)
    while True:
        line = stream.readline()
        if not line:
            break
        line = line.rstrip("\n")
        if not line:
            continue
        request = line.encode() + b"\r\n"
        command = line.split(None, 1)[0] if line.split() else ""
        if command in ("set", "add", "replace", "cas"):
            payload = stream.readline().rstrip("\n").encode()
            request += payload + b"\r\n"
        response = handler.handle(request)
        sys.stdout.write(response.decode(errors="replace"))
        sys.stdout.flush()
    print("# footprint: %d bytes in %d unique lines"
          % (machine.footprint_bytes(), machine.footprint_lines()),
          file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro import Machine
    from repro.net.server import MemcachedServer

    def backend_factory(machine: Machine):
        if args.quota is not None:
            from repro.apps.memcached.eviction import ManagedMemcached
            return ManagedMemcached(machine, quota_bytes=args.quota)
        from repro.apps.memcached import HicampMemcached
        return HicampMemcached(machine)

    async def go() -> None:
        server = MemcachedServer(
            host=args.host, port=args.port, shard_count=args.shards,
            read_timeout=args.read_timeout,
            backend_factory=backend_factory)
        await server.start()
        leader = None
        replication = ""
        if args.replicate_port is not None:
            from repro.replication import ReplicationLeader
            leader = ReplicationLeader(server.router, host=args.host,
                                       port=args.replicate_port)
            await leader.start()
            replication = ", replication on %s:%d" % (args.host, leader.port)
        print("# repro serve: HICAMP memcached on %s:%d%s "
              "(%d shards; `stats json` for metrics; Ctrl-C to stop)"
              % (args.host, server.port, replication, args.shards),
              file=sys.stderr)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            if leader is not None:
                await leader.stop()
            await server.shutdown()
            snapshot = server.router.snapshot()
            if args.metrics_json:
                pathlib.Path(args.metrics_json).write_text(
                    json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
            print("# served %d ops (%.0f ops/s), %d commit batches"
                  % (snapshot["ops_total"], snapshot["ops_per_second"],
                     snapshot["commit_batches"]), file=sys.stderr)
            if leader is not None:
                print("# replication: %s"
                      % json.dumps(leader.metrics.snapshot(),
                                   sort_keys=True), file=sys.stderr)

    try:
        asyncio.run(go())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        # the message names the address: the memcached or the
        # replication port
        print("repro serve: cannot listen: %s" % exc, file=sys.stderr)
        return 1
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.cluster import Cluster, ClusterConfig, TopologyManager

    async def go() -> None:
        cluster = Cluster(ClusterConfig(
            leaders=args.leaders, followers=args.followers,
            shards=args.shards, host=args.host, seed=args.seed))
        manager = TopologyManager(
            cluster, probe_interval=args.probe_interval,
            failure_threshold=args.failure_threshold)
        async with cluster:
            await manager.start()
            print("# repro cluster: %d leaders x %d followers "
                  "(%d shards each), epoch %d"
                  % (args.leaders, args.followers, args.shards,
                     cluster.topology.epoch), file=sys.stderr)
            for node_id in sorted(cluster.topology.nodes):
                info = cluster.topology.nodes[node_id]
                print("#   %-12s %-8s %s:%d"
                      % (node_id, info.role, info.host, info.port),
                      file=sys.stderr)
            print("# `cluster topology` on any node returns the "
                  "committed topology; Ctrl-C to stop", file=sys.stderr)
            try:
                while True:
                    await asyncio.sleep(3600)
            except asyncio.CancelledError:
                pass
            finally:
                await manager.stop()
                cluster.sample_moved()
                print("# cluster: %s"
                      % json.dumps(cluster.metrics.snapshot(),
                                   sort_keys=True), file=sys.stderr)

    try:
        asyncio.run(go())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print("repro cluster: %s" % exc, file=sys.stderr)
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if args.profile == "hi":
        from repro.testing.hi import HIConfig, run_hi

        cfg = HIConfig(schedules=args.schedules, keys=args.keys,
                       ops=args.ops)
        report = run_hi(episodes=args.episodes, seed=args.seed, cfg=cfg)
    else:
        from repro.testing import fuzz

        make = {"serving": fuzz.EpisodeConfig,
                "expiry": fuzz.expiry_config,
                "replication": fuzz.replication_config,
                "cluster": fuzz.cluster_config}[args.profile]
        cfg = make(clients=args.clients, ops_per_client=args.ops,
                   pipeline_depth=args.pipeline, key_space=args.keys,
                   shards=args.shards)
        report = fuzz.run_fuzz(
            episodes=args.episodes, seed=args.seed, cfg=cfg,
            profile=None if args.profile == "serving" else args.profile)
    print(report.render(verbose=args.verbose))
    return 0 if report.ok else 1


def _cmd_replicate_follower(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.core.persistence import load_machine, save_machine
    from repro.errors import PersistenceError
    from repro.net.server import MemcachedServer
    from repro.replication import FollowerRouter, ReplicationFollower

    machine = None
    streams = None
    if args.checkpoint:
        try:
            machine, extra = load_machine(args.checkpoint)
        except (FileNotFoundError, PersistenceError) as exc:
            print("repro replicate-follower: cannot load checkpoint: %s"
                  % exc, file=sys.stderr)
            return 1
        streams = {int(s): vsid for s, vsid in
                   extra.get("replication_streams", {}).items()}
        print("# warm start from %s (%d streams)"
              % (args.checkpoint, len(streams)), file=sys.stderr)

    async def go() -> None:
        follower = ReplicationFollower(
            args.leader_host, args.leader_port,
            machine=machine, streams=streams)
        await follower.start()
        front = MemcachedServer(
            host=args.host, port=args.port,
            router=FollowerRouter(follower, args.upstream_host,
                                  args.upstream_port))
        await front.start()
        print("# repro replicate-follower: serving snapshot reads on "
              "%s:%d, replicating from %s:%d, forwarding writes to %s:%d"
              % (args.host, front.port, args.leader_host, args.leader_port,
                 args.upstream_host, args.upstream_port), file=sys.stderr)
        try:
            await front.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await front.shutdown()
            await follower.stop()
            if args.save_checkpoint:
                save_machine(
                    follower.machine, args.save_checkpoint,
                    extra={"replication_streams":
                           {str(s): vsid
                            for s, vsid in follower.streams.items()}})
                print("# checkpoint saved to %s" % args.save_checkpoint,
                      file=sys.stderr)
            print("# replication: %s"
                  % json.dumps(follower.metrics.snapshot(), sort_keys=True),
                  file=sys.stderr)

    try:
        asyncio.run(go())
    except KeyboardInterrupt:
        pass
    except OSError as exc:
        print("repro replicate-follower: %s" % exc, file=sys.stderr)
        return 1
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    from repro.core.persistence import load_machine, save_machine
    from repro.errors import PersistenceError
    from repro.testing.auditors import audit_machine

    if args.action == "save":
        if args.source:
            try:
                machine, extra = load_machine(args.source)
            except (FileNotFoundError, PersistenceError) as exc:
                print("repro checkpoint: cannot load %s: %s"
                      % (args.source, exc), file=sys.stderr)
                return 1
        else:
            from repro import Machine
            machine = Machine()
            extra = {}
        save_machine(machine, args.path, extra=extra or None)
        print("saved %s: %d unique lines, %d bytes footprint"
              % (args.path, machine.footprint_lines(),
                 machine.footprint_bytes()))
        return 0

    try:
        machine, extra = load_machine(args.path)
    except (FileNotFoundError, PersistenceError) as exc:
        print("repro checkpoint: cannot load %s: %s" % (args.path, exc),
              file=sys.stderr)
        return 1
    report = audit_machine(machine)
    print("loaded %s: %d unique lines, %d bytes footprint, audit %s"
          % (args.path, machine.footprint_lines(),
             machine.footprint_bytes(), "ok" if report.ok else "FAILED"))
    streams = extra.get("replication_streams")
    if streams:
        print("replication streams: %s"
              % ", ".join("%s->vsid %s" % (s, v)
                          for s, v in sorted(streams.items())))
    for failure in report.failures:
        print("audit: %s" % failure, file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    import socket

    request = (b"stats json\r\n" if args.format == "json"
               else b"stats prom\r\n")
    try:
        with socket.create_connection((args.host, args.port),
                                      timeout=args.timeout) as sock:
            sock.sendall(request)
            chunks = []
            while True:
                data = sock.recv(1 << 16)
                if not data:
                    break
                chunks.append(data)
                if b"".join(chunks[-2:]).find(b"END\r\n") >= 0:
                    break
    except OSError as exc:
        print("repro metrics: cannot reach %s:%d: %s"
              % (args.host, args.port, exc), file=sys.stderr)
        return 1
    payload = b"".join(chunks)
    end = payload.rfind(b"END\r\n")
    if end >= 0:
        payload = payload[:end]
    sys.stdout.write(payload.decode(errors="replace"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.trace import load_jsonl, render_spans, to_chrome_trace

    try:
        spans = load_jsonl(args.file)
    except (FileNotFoundError, ValueError) as exc:
        print("repro trace: cannot load %s: %s" % (args.file, exc),
              file=sys.stderr)
        return 1
    if args.chrome:
        pathlib.Path(args.chrome).write_text(
            json.dumps(to_chrome_trace(spans)) + "\n")
        print("wrote %d events to %s (load in chrome://tracing or "
              "https://ui.perfetto.dev)" % (len(spans), args.chrome),
              file=sys.stderr)
        return 0
    print(render_spans(spans, limit=args.limit))
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro import Machine
    from repro.structures import HMap, HString

    machine = Machine()
    print("== content-unique lines & segments ==")
    a = HString.create(machine, b"hello, content-addressable world")
    before = machine.footprint_lines()
    b = HString.create(machine, b"hello, content-addressable world")
    print("second identical string allocated %d new lines"
          % (machine.footprint_lines() - before))
    print("equality is one root compare:", a.equals(b))

    print("\n== snapshots & copy-on-write ==")
    v = machine.create_segment(list(range(8)))
    snap = machine.snapshot(v)
    machine.write_word(v, 0, 999)
    print("live segment:", machine.read_segment(v))
    print("snapshot    :", snap.words())
    snap.release()

    print("\n== the memcached map ==")
    kv = HMap.create(machine)
    kv.put(b"k", b"v")
    print("get k ->", kv.get(b"k"))

    print("\n== DRAM traffic so far ==")
    print(machine.dram.as_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HICAMP (ASPLOS 2012) reproduction tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser(
        "experiments",
        help="regenerate the paper's tables and figures")
    p_exp.add_argument("names", nargs="*",
                       help="experiment ids (default: all); see --list")
    p_exp.add_argument("--all", action="store_true",
                       help="run every experiment")
    p_exp.add_argument("--list", action="store_true",
                       help="list available experiments and exit")
    p_exp.add_argument("--scale", type=int, default=1,
                       help="workload scale multiplier (default 1)")
    p_exp.add_argument("--out", help="directory to write rendered outputs")
    p_exp.add_argument("--json", action="store_true",
                       help="print headline metrics as JSON instead of tables")
    p_exp.set_defaults(func=_cmd_experiments)

    p_mc = sub.add_parser(
        "memcached",
        help="interactive memcached protocol REPL on a HICAMP machine")
    p_mc.add_argument("--quota", type=int, default=None,
                      help="memory quota in bytes (enables LRU eviction)")
    p_mc.set_defaults(func=_cmd_memcached)

    p_srv = sub.add_parser(
        "serve",
        help="asyncio TCP memcached server on a HICAMP machine")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=11211,
                       help="TCP port (0 picks an ephemeral port)")
    p_srv.add_argument("--shards", type=int, default=4,
                       help="independent KVP shards (default 4)")
    p_srv.add_argument("--read-timeout", type=float, default=300.0,
                       help="idle-connection timeout in seconds")
    p_srv.add_argument("--quota", type=int, default=None,
                       help="per-machine byte quota (enables LRU eviction)")
    p_srv.add_argument("--metrics-json", default=None,
                       help="write a metrics snapshot here on shutdown")
    p_srv.add_argument("--replicate-port", type=int, default=None,
                       help="also ship structural deltas to followers "
                            "from this port on --host (0 picks an "
                            "ephemeral port)")
    p_srv.set_defaults(func=_cmd_serve)

    p_cl = sub.add_parser(
        "cluster",
        help="a whole self-healing fleet in one process: sharded "
             "leaders, follower fleets, topology manager")
    cl_sub = p_cl.add_subparsers(dest="cluster_command", required=True)
    p_cls = cl_sub.add_parser(
        "serve", help="boot the fleet and serve until Ctrl-C")
    p_cls.add_argument("--leaders", type=int, default=2,
                       help="leader shards (default 2)")
    p_cls.add_argument("--followers", type=int, default=2,
                       help="followers per leader (default 2)")
    p_cls.add_argument("--shards", type=int, default=2,
                       help="KVP shards per leader (default 2)")
    p_cls.add_argument("--host", default="127.0.0.1")
    p_cls.add_argument("--seed", type=int, default=0,
                       help="hash-ring seed (placement determinism)")
    p_cls.add_argument("--probe-interval", type=float, default=0.25,
                       help="seconds between manager health-probe ticks")
    p_cls.add_argument("--failure-threshold", type=int, default=3,
                       help="consecutive probe failures before a leader "
                            "is declared dead")
    p_cls.set_defaults(func=_cmd_cluster)

    p_rf = sub.add_parser(
        "replicate-follower",
        help="replica serving local snapshot reads; writes forward "
             "to the leader")
    p_rf.add_argument("--leader-host", default="127.0.0.1")
    p_rf.add_argument("--leader-port", type=int, default=11311,
                      help="the leader's replication port")
    p_rf.add_argument("--upstream-host", default="127.0.0.1")
    p_rf.add_argument("--upstream-port", type=int, default=11211,
                      help="the leader's memcached port (write forwarding)")
    p_rf.add_argument("--host", default="127.0.0.1")
    p_rf.add_argument("--port", type=int, default=11212,
                      help="local serving port (0 picks ephemeral)")
    p_rf.add_argument("--checkpoint", default=None,
                      help="warm-start from a machine image (catches up "
                           "via deltas instead of a full sync)")
    p_rf.add_argument("--save-checkpoint", default=None,
                      help="write a machine image here on shutdown")
    p_rf.set_defaults(func=_cmd_replicate_follower)

    p_cp = sub.add_parser(
        "checkpoint",
        help="save/load machine images (gzip if the path ends in .gz)")
    p_cp.add_argument("action", choices=("save", "load"))
    p_cp.add_argument("path", help="image file path")
    p_cp.add_argument("--source", default=None,
                      help="save: copy/convert this image instead of "
                           "writing a fresh empty machine")
    p_cp.set_defaults(func=_cmd_checkpoint)

    p_fz = sub.add_parser(
        "fuzz",
        help="seeded adversarial episodes against a live server "
             "(fault injection + linearizability + invariant audits)")
    p_fz.add_argument("--profile",
                      choices=("serving", "replication", "cluster",
                               "expiry", "hi"),
                      default="serving",
                      help="serving: faulty clients against one server; "
                           "replication: the same clients against a "
                           "leader whose faulty replication link must "
                           "converge after healing; cluster: the same "
                           "clients against two leaders, one killed "
                           "mid-script, that the topology manager must "
                           "repair; expiry: TTL'd sets under commit "
                           "stalls (expired keys must not resurrect); "
                           "every one of these four checks the history "
                           "for linearizability; hi: differential "
                           "history independence over permuted "
                           "schedules")
    p_fz.add_argument("--episodes", type=int, default=10,
                      help="number of seeded episodes (default 10)")
    p_fz.add_argument("--seed", type=int, default=0,
                      help="run seed; a failure prints the episode seed "
                           "that reproduces it with --episodes 1")
    p_fz.add_argument("--clients", type=int, default=3,
                      help="concurrent scripted connections per episode")
    p_fz.add_argument("--ops", type=int, default=24,
                      help="operations per client per episode")
    p_fz.add_argument("--pipeline", type=int, default=4,
                      help="requests per pipelined batch")
    p_fz.add_argument("--keys", type=int, default=8,
                      help="shared keyspace size (contention)")
    p_fz.add_argument("--shards", type=int, default=2)
    p_fz.add_argument("--schedules", type=int, default=20,
                      help="hi profile: permuted schedules per workload "
                           "(default 20)")
    p_fz.add_argument("--verbose", action="store_true",
                      help="print the full trace of passing episodes too")
    p_fz.set_defaults(func=_cmd_fuzz)

    p_mx = sub.add_parser(
        "metrics",
        help="scrape a running server's metrics registry "
             "(Prometheus text exposition or the legacy JSON snapshot)")
    p_mx.add_argument("--host", default="127.0.0.1")
    p_mx.add_argument("--port", type=int, default=11211)
    p_mx.add_argument("--format", choices=("prom", "json"),
                      default="prom",
                      help="prom: `stats prom` exposition (default); "
                           "json: the legacy `stats json` snapshot")
    p_mx.add_argument("--timeout", type=float, default=5.0)
    p_mx.set_defaults(func=_cmd_metrics)

    p_tr = sub.add_parser(
        "trace",
        help="inspect a recorded span trace (JSONL) or convert it to "
             "Chrome trace_event format")
    p_tr.add_argument("file", help="JSONL trace file (TraceRecorder."
                                   "write_jsonl output)")
    p_tr.add_argument("--chrome", default=None,
                      help="write Chrome trace_event JSON here instead "
                           "of printing the span tree")
    p_tr.add_argument("--limit", type=int, default=0,
                      help="print at most N spans (0 = all)")
    p_tr.set_defaults(func=_cmd_trace)

    p_demo = sub.add_parser("demo", help="one-minute architecture tour")
    p_demo.set_defaults(func=_cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" \
            and None not in (args.replicate_port, args.quota):
        # a follower serves replicated maps through plain HicampMemcached,
        # which would return ManagedMemcached's deadline header as value
        parser.error("serve: --replicate-port cannot be combined with "
                     "--quota: a follower would serve the quota backend's "
                     "deadline header as value bytes")
    try:
        if args.command == "experiments" and args.list:
            return _cmd_experiments_list(args)
        return args.func(args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early — not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
