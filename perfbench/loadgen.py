"""Single-process open-loop load generator for ``repro serve``.

One process, one connection per tenant, one ``selectors`` loop.  Every
``place`` frame has a precomputed *due* time; the loop sends each frame
as soon as it falls due whether or not earlier replies have arrived
(open loop: independent users do not wait for each other), and a
request's sojourn is timed from its due time, so a stall in the daemon
(or in this generator) is charged to every request it delays.  How late
the generator itself sent is reported separately (``lag``).

Only the public wire protocol is used: ``open``/``place``/``metrics``/
``shutdown`` frames encoded by :func:`repro.serve.protocol.encode_frame`.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.hss.request import Request
from repro.serve.protocol import encode_frame

#: Longest wait for any single reply before it counts as unanswered.
REPLY_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class TenantSpec:
    """One tenant: its name, agent seed and fast-device capacity."""

    name: str
    seed: int
    capacity_pages: int


def trace_frames(tenant: str, trace: Sequence[Request]) -> List[Dict[str, Any]]:
    """One ``place`` frame per request of a trace, in trace order.

    Each frame keeps its request's op, page, size and timestamp; ``t``
    is the simulated device clock, not the wall clock of the schedule.
    """
    return [
        {
            "op": "place",
            "tenant": tenant,
            "id": i,
            "t": request.timestamp,
            "rw": "W" if request.is_write else "R",
            "page": request.page,
            "size": request.size,
        }
        for i, request in enumerate(trace)
    ]


@dataclass
class _Conn:
    sock: socket.socket
    tenant: str
    out: bytearray = field(default_factory=bytearray)
    inbuf: bytearray = field(default_factory=bytearray)


class OpenLoopClient:
    """Tenant connections to one daemon, driven from a single thread."""

    def __init__(self, host: str, port: int, tenants: Sequence[TenantSpec]) -> None:
        self.tenants = list(tenants)
        self.conns: Dict[str, _Conn] = {}
        self.sel = selectors.DefaultSelector()
        for spec in self.tenants:
            sock = socket.create_connection((host, port), timeout=REPLY_TIMEOUT_S)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.conns[spec.name] = _Conn(sock, spec.name)
        #: Every reply of every ``place`` frame, per tenant, keyed by id.
        self.replies: Dict[str, Dict[int, Dict[str, Any]]] = {
            spec.name: {} for spec in self.tenants
        }

    # ---------------------------------------------------------- blocking rpc
    def rpc(self, tenant: str, frame: Dict[str, Any]) -> Dict[str, Any]:
        """One synchronous round trip on ``tenant``'s connection."""
        conn = self.conns[tenant]
        conn.sock.setblocking(True)
        conn.sock.sendall(encode_frame(frame))
        while b"\n" not in conn.inbuf:
            chunk = conn.sock.recv(65536)
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            conn.inbuf += chunk
        line, _, rest = bytes(conn.inbuf).partition(b"\n")
        conn.inbuf = bytearray(rest)
        return json.loads(line)

    def open_tenants(self) -> None:
        for spec in self.tenants:
            reply = self.rpc(spec.name, {
                "op": "open", "tenant": spec.name, "seed": spec.seed,
                "capacity_pages": spec.capacity_pages,
            })
            if not reply.get("ok"):
                raise RuntimeError(f"open {spec.name} rejected: {reply}")

    # ---------------------------------------------------------- open loop
    def run_schedule(
        self, schedule: Sequence[Tuple[float, str, Dict[str, Any]]]
    ) -> Dict[str, Any]:
        """Send ``(due_offset_s, tenant, frame)`` entries on time.

        Returns per-request ``(tenant, id, due, sent, received)`` stamps
        (``received`` is None for an unanswered request) plus the
        generator's send lateness.  Frames must be in due order.
        """
        for conn in self.conns.values():
            conn.sock.setblocking(False)
            self.sel.register(conn.sock, selectors.EVENT_READ, conn)
        t0 = time.perf_counter() + 0.01
        due_at: Dict[Tuple[str, int], float] = {}
        sent_at: Dict[Tuple[str, int], float] = {}
        recv_at: Dict[Tuple[str, int], float] = {}
        lag: List[float] = []
        cursor = 0
        n = len(schedule)
        outstanding = 0
        deadline: Optional[float] = None
        try:
            while cursor < n or outstanding:
                now = time.perf_counter()
                while cursor < n and t0 + schedule[cursor][0] <= now:
                    offset, tenant, frame = schedule[cursor]
                    due = t0 + offset
                    key = (tenant, frame["id"])
                    conn = self.conns[tenant]
                    if not conn.out:
                        self.sel.modify(conn.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, conn)
                    conn.out += encode_frame(frame)
                    due_at[key] = due
                    sent_at[key] = now
                    lag.append(now - due)
                    outstanding += 1
                    cursor += 1
                if cursor < n:
                    timeout = max(0.0, t0 + schedule[cursor][0] - time.perf_counter())
                else:
                    if deadline is None:
                        deadline = time.perf_counter() + REPLY_TIMEOUT_S
                    timeout = deadline - time.perf_counter()
                    if timeout <= 0:
                        break
                for key, mask in self.sel.select(timeout):
                    conn = key.data
                    if mask & selectors.EVENT_WRITE and conn.out:
                        sent = conn.sock.send(conn.out)
                        del conn.out[:sent]
                        if not conn.out:
                            self.sel.modify(conn.sock, selectors.EVENT_READ, conn)
                    if mask & selectors.EVENT_READ:
                        chunk = conn.sock.recv(1 << 16)
                        stamp = time.perf_counter()
                        if not chunk:
                            raise ConnectionError(f"daemon closed {conn.tenant}")
                        conn.inbuf += chunk
                        while True:
                            idx = conn.inbuf.find(b"\n")
                            if idx < 0:
                                break
                            line = bytes(conn.inbuf[:idx])
                            del conn.inbuf[:idx + 1]
                            reply = json.loads(line)
                            rid = reply.get("id")
                            self.replies[conn.tenant][rid] = reply
                            recv_at[(conn.tenant, rid)] = stamp
                            outstanding -= 1
                            if deadline is not None:
                                deadline = stamp + REPLY_TIMEOUT_S
        finally:
            for conn in self.conns.values():
                self.sel.unregister(conn.sock)
                conn.sock.setblocking(True)
        stamps = [
            (key[0], key[1], due_at[key], sent_at[key], recv_at.get(key))
            for key in due_at
        ]
        return {"t0": t0, "stamps": stamps, "lag": lag}

    def close(self) -> None:
        for conn in self.conns.values():
            conn.sock.close()
        self.sel.close()


def ladder_schedule(
    frames: Dict[str, List[Dict[str, Any]]],
    rungs: Sequence[Tuple[float, float]],
    gap_s: float,
) -> Tuple[List[Tuple[float, str, Dict[str, Any]]], List[Tuple[float, float, float]]]:
    """Interleave the tenants' frames over a ladder of fixed total rates.

    ``rungs`` is ``[(rate_rps, seconds), ...]``; within a rung the
    tenants send alternately at evenly spaced due times.  ``gap_s`` of
    silence separates rungs so each starts with an empty queue.
    Returns the schedule and each rung's ``(rate, start, end)`` offsets.
    """
    names = list(frames)
    cursors = {name: 0 for name in names}
    schedule: List[Tuple[float, str, Dict[str, Any]]] = []
    spans: List[Tuple[float, float, float]] = []
    start = 0.0
    for rate, seconds in rungs:
        count = int(round(rate * seconds))
        step = 1.0 / rate
        for i in range(count):
            name = names[i % len(names)]
            schedule.append((start + i * step, name, frames[name][cursors[name]]))
            cursors[name] += 1
        spans.append((rate, start, start + count * step))
        start += count * step + gap_s
    return schedule, spans


def rung_requests_needed(rungs: Sequence[Tuple[float, float]], n_tenants: int) -> int:
    """Frames each tenant needs for the whole ladder."""
    return sum(-(-int(round(rate * seconds)) // n_tenants) for rate, seconds in rungs)
