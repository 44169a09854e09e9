"""Closed-loop TCP load against the server subprocess, with an exact
per-connection oracle.

Load shape: one generator process, ``CONNECTIONS`` connections, each
keeping a sliding window of ``WINDOW`` requests outstanding (memcached
callers wait for replies, so the loop is closed: a slower server
receives less load). The server is a separate process on the same CPU
as the generator (run.py pins both; see README.md for why). Latency is
send -> last reply byte, per request.

The timed phase is a fixed number of ops in ``SLICES`` equal slices; a
host-speed sample is taken between slices and every time measured in a
slice is scaled to the reference host (hostspeed.py).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import select
import selectors
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional

from hostspeed import HostSpeed
from workloads import SLICES, Op, Sizes, preload, request_bytes, slice_ops, \
    stream

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"

WINDOW = 8
CONNECTIONS = 2
#: no reply for this long fails the run (the per-workload deadline: a
#: wedged or dead server must not hang the benchmark)
STALL_S = 30.0
SPAWN_S = 30.0
SERVER_ARGV = [sys.executable, str(HERE / "server_main.py")]


class BenchError(RuntimeError):
    """The run cannot produce a result (dead server, stalled reply)."""


def child_env() -> Dict[str, str]:
    """Environment for processes under test: this checkout's ``src``
    first, a fixed hash seed so Python-level counts repeat, and no
    bytecode cache, so that every spawn compiles what it imports and
    ``setup_s`` does not depend on who ran here before."""
    inherited = os.environ.get("PYTHONPATH")
    path = str(SRC) + (os.pathsep + inherited if inherited else "")
    return dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED="0",
                PYTHONDONTWRITEBYTECODE="1")


def first_line(proc: subprocess.Popen, timeout: float) -> bytes:
    """The child's first stdout line, or ``b""`` if it died or stayed
    silent for ``timeout`` seconds."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    return proc.stdout.readline() if ready else b""


class Server:
    """The server subprocess: spawn, port, ``/proc`` counters, stop."""

    def __init__(self, argv: Optional[List[str]] = None) -> None:
        OUT.mkdir(exist_ok=True)
        self._stderr = open(OUT / "server.stderr", "w+b")
        self.proc = subprocess.Popen(
            argv or SERVER_ARGV, stdout=subprocess.PIPE,
            stderr=self._stderr, env=child_env())
        line = first_line(self.proc, SPAWN_S)
        if not line.strip().isdigit():
            stderr = self.stderr_text()
            self.close()
            raise BenchError("server did not report a port; stderr:\n"
                             + stderr)
        self.port = int(line)

    def stderr_text(self) -> str:
        """Stop the process, so that it has said all it will; the tail
        of what it wrote to stderr."""
        self.stop()
        self._stderr.seek(0)
        return self._stderr.read().decode("utf-8", "replace")[-4000:]

    def cpu_seconds(self) -> float:
        """CPU consumed so far by every thread: the scheduler's own
        nanosecond count (``schedstat``), because the user + system
        times in ``/proc/<pid>/stat`` are sampled at the 10 ms tick."""
        tasks = Path("/proc/%d/task" % self.proc.pid)
        return sum(int((task / "schedstat").read_text().split()[0])
                   for task in tasks.iterdir()) / 1e9

    def peak_rss_mb(self) -> float:
        for line in Path("/proc/%d/status" % self.proc.pid) \
                .read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")

    def scrape(self) -> Dict:
        """``stats json`` plus the ``stats prom`` samples, in-band."""
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=STALL_S) as sock:
            body = _ask(sock, b"stats json\r\n")
            prom = _ask(sock, b"stats prom\r\n")
        snap = json.loads(body)
        samples = {}
        for line in prom.decode().splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        snap["prom"] = samples
        return snap

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def close(self) -> None:
        self.stop()
        self._stderr.close()


def _ask(sock: socket.socket, request: bytes) -> bytes:
    sock.sendall(request)
    buf = bytearray()
    while not buf.endswith(b"END\r\n"):
        data = sock.recv(1 << 16)
        if not data:
            raise BenchError("short read on %r" % request)
        buf += data
    return bytes(buf[:-len(b"END\r\n")])


class Conn:
    """One connection: window, oracle, reply checking, latency samples."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: key -> last value this connection stored, None after its delete
        self.oracle: Dict[bytes, Optional[bytes]] = {}
        self.outstanding: deque = deque()  # (kind, expected reply, t_send)
        self.latency: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.last_reply = 0.0
        self._ops: Iterator[Op] = iter(())
        self._buf = bytearray()
        self._pos = 0

    def start(self, ops: Iterable[Op]) -> None:
        """Begin a phase: a new op source and fresh latency samples."""
        self._ops = iter(ops)
        self.latency = {"set": [], "get": [], "delete": []}

    def _expect(self, op: Op) -> bytes:
        kind, key, value = op
        if kind == "set":
            self.oracle[key] = value
            return b"STORED\r\n"
        current = self.oracle.get(key)
        if kind == "delete":
            if key in self.oracle:
                self.oracle[key] = None
            return b"NOT_FOUND\r\n" if current is None else b"DELETED\r\n"
        if current is None:  # a miss is legal only after our own delete
            return b"END\r\n"
        return b"VALUE %s 0 %d\r\n%s\r\nEND\r\n" % (key, len(current),
                                                   current)

    def fill(self) -> None:
        """Top the window up; one write for everything newly sent."""
        out = []
        while len(self.outstanding) + len(out) < WINDOW:
            op = next(self._ops, None)
            if op is None:
                break
            out.append((op[0], self._expect(op), request_bytes(op)))
        if out:
            sent = time.perf_counter()
            self.outstanding.extend((kind, expected, sent)
                                    for kind, expected, _ in out)
            self.attempted += len(out)
            self.sock.sendall(b"".join(raw for _, _, raw in out))

    def feed(self, data: bytes, now: float) -> None:
        """Absorb received bytes; check and time every completed reply."""
        buf = self._buf
        buf += data
        while self.outstanding:
            kind, expected, sent = self.outstanding[0]
            eol = buf.find(b"\r\n", self._pos)
            if eol < 0:
                break
            end = eol + 2
            if kind == "get" and buf.startswith(b"VALUE ", self._pos):
                end += int(buf[buf.rfind(b" ", self._pos, eol) + 1:eol]) + 7
            if end > len(buf):
                break
            # any other reply (SERVER_ERROR, CLIENT_ERROR, a wrong or
            # missing value) is a failed op
            if buf[self._pos:end] != expected:
                self.failed += 1
            self.latency[kind].append(now - sent)
            self.outstanding.popleft()
            self._pos = end
        if self._pos == len(buf):
            buf.clear()
            self._pos = 0
        self.last_reply = now

    def live_bytes(self) -> int:
        return sum(len(k) + len(v) for k, v in self.oracle.items()
                   if v is not None)

    def close(self) -> None:
        self.sock.close()


def drive(conns: List[Conn], stall_s: float = STALL_S) -> None:
    """Run every connection's current phase to completion: until its op
    source is exhausted and every reply is in."""
    selector = selectors.DefaultSelector()
    live = 0
    for conn in conns:
        conn.fill()
        if conn.outstanding:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
            live += 1
    try:
        while live:
            events = selector.select(stall_s)
            if not events:
                raise BenchError("no reply for %g s" % stall_s)
            for key, _ in events:
                conn = key.data
                data = conn.sock.recv(1 << 16)
                now = time.perf_counter()
                if not data:
                    conn.failed += len(conn.outstanding)
                    raise BenchError("server closed the connection")
                conn.feed(data, now)
                conn.fill()
                if not conn.outstanding:
                    selector.unregister(conn.sock)
                    live -= 1
    finally:
        selector.close()


def percentile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def set_up(workload: str, seed: int, sizes: Sizes, speed: HostSpeed,
           argv: Optional[List[str]] = None):
    """Spawn the server, connect, preload: ``(server, conns, seconds)``,
    the seconds at reference-host speed."""
    speed.open()
    t0 = time.perf_counter()
    server = Server(argv)
    conns: List[Conn] = []
    try:
        for index in range(CONNECTIONS):
            conn = Conn(server.port)
            conns.append(conn)
            conn.start(preload(workload, seed, index, CONNECTIONS, sizes))
        drive(conns)
    except BaseException as exc:
        for conn in conns:
            conn.close()
        stderr = server.stderr_text()
        server.close()
        if isinstance(exc, (BenchError, OSError)):
            raise BenchError("%s; server stderr:\n%s" % (exc, stderr))
        raise
    took = time.perf_counter() - t0
    return server, conns, took * speed.scale()


def run_tcp(workload: str, seed: int, seconds: float, sizes: Sizes,
            setups: int = 1, argv: Optional[List[str]] = None) -> Dict:
    """One run of a TCP workload: set up ``setups`` times (median
    reported), time the closed loop over the op count ``seconds`` asks
    for, read everything back, and return raw measurements for
    :mod:`run` to name. Times are at reference-host speed."""
    speed = HostSpeed()
    setup_s = []
    for _ in range(setups - 1):
        server, conns, took = set_up(workload, seed, sizes, speed, argv)
        setup_s.append(took)
        for conn in conns:
            conn.close()
        server.close()
    server, conns, took = set_up(workload, seed, sizes, speed, argv)
    setup_s.append(took)
    try:
        preloaded = sum(conn.attempted for conn in conns)
        before = server.scrape()
        per_slice = slice_ops(workload, seconds, CONNECTIONS)
        streams = [stream(workload, seed, index, CONNECTIONS, sizes)
                   for index in range(CONNECTIONS)]
        latency: Dict[str, List[float]] = {"set": [], "get": [],
                                           "delete": []}
        elapsed_s = cpu_s = 0.0
        speed.open()
        for _ in range(SLICES):
            for conn, ops in zip(conns, streams):
                conn.start(itertools.islice(ops, per_slice))
            cpu0 = server.cpu_seconds()
            t0 = time.perf_counter()
            drive(conns)
            slice_s = max(conn.last_reply for conn in conns) - t0
            slice_cpu_s = server.cpu_seconds() - cpu0
            scale = speed.scale()
            elapsed_s += slice_s * scale
            cpu_s += slice_cpu_s * scale
            for conn in conns:
                for kind, samples in conn.latency.items():
                    latency[kind].extend(x * scale for x in samples)
        after = server.scrape()
        for samples in latency.values():
            samples.sort()
        timed = sum(conn.attempted for conn in conns) - preloaded
        # the read-back sweep: every key any connection ever wrote
        for conn in conns:
            conn.start([("get", key, None) for key in conn.oracle])
        drive(conns)
        return {
            "setup_s": setup_s, "elapsed_s": elapsed_s, "ops": timed,
            "latency_s": latency, "cpu_s": cpu_s,
            "peak_rss_mb": server.peak_rss_mb(),
            "live_bytes": sum(conn.live_bytes() for conn in conns),
            "before": before, "after": after,
            "reference_loop_s": speed.samples,
            "attempted": sum(conn.attempted for conn in conns),
            "failed": sum(conn.failed for conn in conns),
        }
    except (BenchError, OSError) as exc:
        raise BenchError("%s; server stderr:\n%s"
                         % (exc, server.stderr_text()))
    finally:
        for conn in conns:
            conn.close()
        server.close()
