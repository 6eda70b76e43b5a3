"""The load generator: one thread, at most two connections, select-paced.

Requests are encoded with the program's own codec and framing before a
phase starts, so the timed loop only writes prepared bytes, reads
frames, and stamps clocks; responses are decoded and checked after the
phase.  Pacing uses ``select`` timeouts (microsecond resolution, kernel
timer slack ~50 us) instead of an asyncio timer, whose ~1 ms
granularity made the open loop late by about that much at p99.

Open-loop requests are timed from when they were *due*, so a stall is
charged to every request queued behind it; the generator's own
lateness (sent - due) is reported beside the latencies.
"""

from __future__ import annotations

import json
import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field

from repro.api.codec import API_VERSION, MAX_WIRE_BYTES
from repro.net.frame import FrameDecoder, encode_frame
from repro.net.server import hello_message

clock = time.perf_counter

#: Seconds to wait for stragglers after the last request is sent.
DRAIN_TIMEOUT = 10.0


class Conn:
    """One non-blocking connection that has completed its hello."""

    def __init__(self, port: int):
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.decoder = FrameDecoder(MAX_WIRE_BYTES)
        sock.sendall(encode_frame(hello_message()))
        hello = json.loads(self._read_blocking())
        if not hello.get("ok"):
            raise ConnectionError(f"server refused hello: {hello}")
        if hello.get("api_version") != API_VERSION:
            # Requests are encoded ahead of time at the codec's version.
            raise ConnectionError(f"server negotiated {hello}")
        sock.setblocking(False)
        self.out = bytearray()
        #: (trace, slot) of requests sent and not yet answered, oldest
        #: first: the server answers each connection in order.
        self.inflight: deque = deque()
        self.answers = 0

    def _read_blocking(self) -> bytes:
        while True:
            payload = self.decoder.next_frame()
            if payload is not None:
                return payload
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.decoder.feed(chunk)

    def flush(self) -> None:
        if self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]

    def receive(self) -> list[bytes]:
        """Every complete frame readable right now (may be none)."""
        try:
            chunk = self.sock.recv(65536)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.decoder.feed(chunk)
        frames = self.decoder.frames()
        self.answers += len(frames)
        return frames

    def call(self, frame: bytes) -> bytes:
        """One blocking round trip (set-up probes, not timed traffic)."""
        self.out += frame
        while self.out:
            select.select([], [self.sock], [], 10)
            self.flush()
        while True:
            select.select([self.sock], [], [], 10)
            frames = self.receive()
            if frames:
                return frames[0]

    def close(self) -> None:
        self.sock.close()


@dataclass
class Trace:
    """What one phase observed, one entry per request, in send order."""

    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    recv: list[float | None] = field(default_factory=list)
    payload: list[bytes | None] = field(default_factory=list)
    index: list[int] = field(default_factory=list)
    #: Publishes acknowledged when each read was sent, and publishes
    #: sent when its answer arrived (the window of versions it may see).
    acked_at_send: list[int] = field(default_factory=list)
    sent_at_recv: list[int] = field(default_factory=list)
    #: Requests due but unanswered when the last one was due.
    backlog_end: int = 0
    started: float = 0.0
    ended: float = 0.0

    def add(self, due: float, now: float, index: int, acked: int) -> int:
        self.due.append(due)
        self.sent.append(now)
        self.recv.append(None)
        self.payload.append(None)
        self.index.append(index)
        self.acked_at_send.append(acked)
        self.sent_at_recv.append(-1)
        return len(self.due) - 1


@dataclass
class Publisher:
    """Paced publishes on one of the read connections, one at a time."""

    conn: Conn
    frames: list[bytes]
    period: float
    trace: Trace = field(default_factory=Trace)
    sent: int = 0
    acked: int = 0


def _answer(conn: Conn, now: float, publisher: Publisher | None) -> None:
    """Stamp every answer readable on ``conn`` onto its request's trace."""
    for payload in conn.receive():
        trace, slot = conn.inflight.popleft()
        trace.recv[slot] = now
        trace.payload[slot] = payload
        if publisher is None:
            continue
        if trace is publisher.trace:
            publisher.acked += 1
        else:
            trace.sent_at_recv[slot] = publisher.sent


def open_loop(conns: list[Conn], frames: list[bytes], offset: int,
              rate: float, seconds: float,
              publisher: Publisher | None = None) -> Trace:
    """Send ``frames`` (cycled from ``offset``) at ``rate`` per second.

    Requests take turns over ``conns``.  With a publisher, its
    publishes are due every ``period`` seconds on its connection (one
    of ``conns``); a publish still unanswered when the next is due
    delays that one (counted as lateness, never overlapped).
    """
    trace = Trace()
    total = max(1, int(rate * seconds))
    interval = 1.0 / rate
    start = clock() + 0.001
    trace.started = start
    sent = 0
    publishes = 0 if publisher is None else max(1, int(seconds
                                                       / publisher.period))
    deadline = None
    while True:
        now = clock()
        while sent < total and start + sent * interval <= now:
            slot = trace.add(start + sent * interval, now,
                             (offset + sent) % len(frames),
                             publisher.acked if publisher else 0)
            conn = conns[sent % len(conns)]
            conn.out += frames[trace.index[slot]]
            conn.inflight.append((trace, slot))
            sent += 1
        next_due = start + sent * interval if sent < total else None
        publishing = publisher is not None and publisher.sent > publisher.acked
        if publisher is not None and publisher.sent < publishes \
                and not publishing:
            pdue = start + (publisher.sent + 0.5) * publisher.period
            if pdue <= now:
                pslot = publisher.trace.add(pdue, now, publisher.sent % 2,
                                            publisher.acked)
                publisher.conn.out += publisher.frames[publisher.sent % 2]
                publisher.conn.inflight.append((publisher.trace, pslot))
                publisher.sent += 1
                publishing = True
            elif next_due is None or pdue < next_due:
                next_due = pdue
        for conn in conns:
            conn.flush()
        waiting = sum(len(conn.inflight) for conn in conns) - publishing
        if sent >= total and deadline is None:
            trace.backlog_end = waiting
            deadline = now + DRAIN_TIMEOUT
        busy = waiting or publishing or (
            publisher is not None and publisher.sent < publishes)
        if sent >= total and not busy:
            break
        if deadline is not None and now > deadline:
            break
        timeout = (next_due - now) if next_due is not None else (
            deadline - now if deadline is not None else 0.01)
        readable, writable, _ = select.select(
            [conn.sock for conn in conns],
            [conn.sock for conn in conns if conn.out], [],
            max(0.0, timeout))
        now = clock()
        for conn in conns:
            if conn.sock in writable:
                conn.flush()
            if conn.sock in readable:
                _answer(conn, now, publisher)
    return trace


def closed_loop(conn: Conn, frames: list[bytes], offset: int, depth: int,
                seconds: float, min_answers: int = 0) -> Trace:
    """Keep ``depth`` requests in flight for ``seconds``, then drain.

    Sending goes on past ``seconds`` until ``min_answers`` requests have
    been sent (at most three times as long), so a slow host still
    yields enough samples for the percentiles.  A request is due when
    the answer that freed its slot arrived, so its lateness is the
    generator's own turnaround.
    """
    trace = Trace()
    start = clock()
    trace.started = start
    stop, cap = start + seconds, start + 3 * seconds
    sent = 0
    freed = [start] * depth
    deadline = None
    while True:
        now = clock()
        sending = now < cap and (now < stop or sent < min_answers)
        while sending and len(conn.inflight) < depth:
            slot = trace.add(freed.pop(), now, (offset + sent) % len(frames),
                             0)
            conn.out += frames[trace.index[slot]]
            conn.inflight.append((trace, slot))
            sent += 1
        conn.flush()
        if not sending:
            if not conn.inflight:
                break
            if deadline is None:
                deadline = now + DRAIN_TIMEOUT
            elif now > deadline:
                break
        readable, _w, _ = select.select(
            [conn.sock], [conn.sock] if conn.out else [], [], 0.05)
        if readable:
            before = len(conn.inflight)
            now = clock()
            _answer(conn, now, None)
            freed += [now] * (before - len(conn.inflight))
    trace.ended = now
    return trace
