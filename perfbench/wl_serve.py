"""The ``serve_open_loop`` workload: ``repro serve`` under open-loop load.

The daemon runs in its own process (``python -m repro serve``), so the
generator never shares its interpreter lock.  Two tenants send from one
generator process over two connections, stepping through a fixed ladder
of offered rates.  Each tenant replays a ``repro.traces`` workload
(Table 4 of the paper) with the trace's own ops, pages, sizes and
timestamps:

* ``reader`` — ``hm_1`` (5% writes); its fast device holds the trace's
  whole working set;
* ``writer`` — ``rsrch_0`` (91% writes); its fast device holds the
  paper's default 10% of the working set, so it drives eviction.

After the ladder, every served action is checked against an offline
replay of the same frames through a serial ``SibylAgent``.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from common import ROOT, child_env, cpu_seconds, median, percentile, vm_hwm_mb
from loadgen import (
    REPLY_TIMEOUT_S,
    OpenLoopClient,
    TenantSpec,
    ladder_schedule,
    rung_requests_needed,
    trace_frames,
)

#: Offered total rates (req/s) and each rung's share of ``--seconds``.
#: The first rung only warms the daemon (first training events, lazy
#: allocations) and is not reported; LOW and HIGH are the fixed rates
#: the end-to-end latency figures are read at (HIGH is about a third of
#: what the daemon serves on one CPU of a 2-core box, about 0.34 ms of
#: CPU per request, so it stays clear of saturation); the rest probe
#: for the highest rate that meets the p99 limit.
LADDER = (
    (500.0, 0.05), (400.0, 0.2), (1000.0, 0.55),
    (1500.0, 0.05), (2000.0, 0.05), (2500.0, 0.05), (3000.0, 0.05),
)
WARMUP_RUNGS = 1
LOW_RATE = 400.0
HIGH_RATE = 1000.0
#: Silence between rungs, so each starts with an empty queue.
GAP_S = 0.25
#: Sojourn p99 a rung must meet to count towards ``max_rate_rps``.
P99_LIMIT_MS = 50.0
TINY_SCALE = 0.25
DAEMON_START_TIMEOUT_S = 60.0
#: Requests per tenant the set-up probe generates.
SETUP_REQUESTS = 100


#: (tenant, trace workload, fast-device capacity as a share of the
#: trace's working set).  The writer's share is the paper's default
#: dual-HSS restriction (``repro.sim.runner.DEFAULT_DUAL_FRACTIONS``).
TENANTS = (("reader", "hm_1", 1.0), ("writer", "rsrch_0", 0.10))


def tenant_traffic(seed: int, n: int) -> Tuple[List[TenantSpec], Dict[str, List[Dict[str, Any]]]]:
    """Each tenant's spec and its first ``n`` place frames."""
    from repro.traces.stats import working_set_pages
    from repro.traces.workloads import make_trace

    specs, frames = [], {}
    for i, (name, workload, share) in enumerate(TENANTS):
        tenant_seed = len(TENANTS) * seed + i
        trace = make_trace(workload, n_requests=n, seed=tenant_seed)
        capacity = max(1, int(share * working_set_pages(trace)))
        specs.append(TenantSpec(name, seed=tenant_seed, capacity_pages=capacity))
        frames[name] = trace_frames(name, trace)
    return specs, frames


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, trace_path: Optional[str] = None) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        if trace_path:
            cmd += ["--trace", trace_path]
        self.proc = subprocess.Popen(
            cmd, cwd=str(ROOT), env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            ready = sel.select(DAEMON_START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self, client: Optional[OpenLoopClient] = None) -> None:
        """Drain and shut down (``shutdown`` op), then reap the process."""
        if client is not None and self.proc.poll() is None:
            try:
                client.rpc(client.tenants[0].name, {"op": "shutdown"})
            except (OSError, ValueError):
                pass
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15)
        self.proc.stdout.close()


class ServeOpenLoop:
    name = "serve_open_loop"

    def __init__(self, seed: int, size: str) -> None:
        self.seed = seed
        self.size = size
        self._traffic: Dict[float, Any] = {}

    def rate(self, rate: float) -> float:
        """A ladder rate at this run's input size."""
        return rate * (TINY_SCALE if self.size == "tiny" else 1.0)

    def rungs(self, seconds: float) -> List[Tuple[float, float]]:
        return [(self.rate(rate), seconds * share) for rate, share in LADDER]

    def traffic(self, seconds: float) -> Tuple[List[TenantSpec], Dict[str, List[Dict[str, Any]]]]:
        """Tenant specs and frames for a ladder of ``seconds`` (made once)."""
        if seconds not in self._traffic:
            n = rung_requests_needed(self.rungs(seconds), len(TENANTS))
            self._traffic[seconds] = tenant_traffic(self.seed, n)
        return self._traffic[seconds]

    @staticmethod
    def setup_probe(seed: int, size: str) -> None:
        """Fresh-process set-up: daemon start to the first answered place.

        The ladder's traffic is the client's input, not the daemon's
        set-up, so the probe generates only a short stretch of it.
        """
        tenants, frames = tenant_traffic(seed, SETUP_REQUESTS)
        daemon = Daemon()
        client = OpenLoopClient(*daemon.address, tenants)
        try:
            client.open_tenants()
            first = dict(frames["reader"][0], id=-1)
            reply = client.rpc("reader", first)
            if not reply.get("ok"):
                raise RuntimeError(f"first request failed: {reply}")
            print("READY", flush=True)
        finally:
            daemon.stop(client)
            client.close()

    # ------------------------------------------------------------ measure
    def ladder(self, seconds: float, trace_path: Optional[str] = None) -> Dict[str, Any]:
        tenants, frames = self.traffic(seconds)
        schedule, spans = ladder_schedule(frames, self.rungs(seconds), GAP_S)
        daemon = Daemon(trace_path)
        client = OpenLoopClient(*daemon.address, tenants)
        own_cpus = os.sched_getaffinity(0)
        try:
            if len(own_cpus) >= 2:
                # Daemon and generator on separate CPUs: the generator
                # never takes the daemon's CPU, and the daemon's threads
                # share one CPU in every run instead of a random split.
                first, second = sorted(own_cpus)[:2]
                for tid in os.listdir(f"/proc/{daemon.proc.pid}/task"):
                    os.sched_setaffinity(int(tid), {first})
                os.sched_setaffinity(0, {second})
            client.open_tenants()
            cpu0 = cpu_seconds(daemon.proc.pid)
            run = client.run_schedule(schedule)
            cpu = cpu_seconds(daemon.proc.pid) - cpu0
            metrics = client.rpc("reader", {"op": "metrics"})
            rss = vm_hwm_mb(daemon.proc.pid)
        finally:
            os.sched_setaffinity(0, own_cpus)
            daemon.stop(client)
            client.close()
        sent = {name: [] for name in frames}
        for tenant, rid, *_ in run["stamps"]:
            sent[tenant].append(rid)
        return {
            "run": run, "spans": spans, "cpu_s": cpu, "metrics": metrics,
            "rss_mb": rss, "replies": client.replies, "tenants": tenants, "frames": frames,
            "sent": {name: sorted(ids) for name, ids in sent.items()},
        }

    @staticmethod
    def rung_stats(ladder: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Sojourn (from due time) and server timing per rung."""
        run = ladder["run"]
        t0 = run["t0"]
        replies = ladder["replies"]
        out = []
        for rate, start, end in ladder["spans"][WARMUP_RUNGS:]:
            soj, wire, queue, service, unanswered = [], [], [], [], 0
            for tenant, rid, due, _sent, received in run["stamps"]:
                if not start <= due - t0 < end:
                    continue
                reply = replies[tenant].get(rid)
                if received is None or reply is None or not reply.get("ok"):
                    # A failed request misses every latency limit: it
                    # counts with the generator's give-up time.
                    unanswered += 1
                    soj.append((due - t0, REPLY_TIMEOUT_S * 1e3))
                    continue
                s = (received - due) * 1e3
                q = reply["timing"]["queue_ms"]
                v = reply["timing"]["service_ms"]
                soj.append((due - t0, s))
                queue.append(q)
                service.append(v)
                wire.append(s - q - v)
            values = [s for _, s in soj]
            answered = len(values) - unanswered
            third = (end - start) / 3.0
            head = [s for t, s in soj if t < start + third]
            tail = [s for t, s in soj if t >= end - third]
            growing = bool(head and tail) and median(tail) > 2 * median(head) + 5.0
            last = max((r for _, _, d, _, r in run["stamps"]
                        if r is not None and start <= d - t0 < end), default=t0 + end)
            out.append({
                "rate": rate, "n": answered, "unanswered": unanswered,
                "p50": percentile(values, 50), "p99": percentile(values, 99),
                "queue": queue, "service": service, "wire": wire,
                "achieved": answered / max(1e-9, last - (t0 + start)),
                "growing": growing,
            })
        return out

    def measure(self, seconds: float) -> Dict[str, Any]:
        ladder = self.ladder(seconds)
        rungs = self.rung_stats(ladder)
        low = next(r for r in rungs if r["rate"] == self.rate(LOW_RATE))
        high = next(r for r in rungs if r["rate"] == self.rate(HIGH_RATE))
        served = served_count(ladder)
        return {
            "ladder": ladder,
            "rungs": rungs,
            "e2e": {
                "sim_req_per_s": served / ladder["cpu_s"],
                "latency_p50_ms": high["p50"],
                "peak_rss_mb": ladder["rss_mb"],
            },
            "low": low,
            "high": high,
        }

    # ------------------------------------------------------------ checks
    def check(self, measured: Dict[str, Any], corrupt_replay: bool = False
              ) -> Tuple[int, int, List[str]]:
        """Compare every served reply with a serial offline replay."""
        ladder = measured["ladder"]
        problems: List[str] = []
        attempted = failed = 0
        for spec in ladder["tenants"]:
            frames = ladder["frames"][spec.name]
            ids = ladder["sent"][spec.name]
            expected = offline_replay(spec, [frames[i] for i in ids])
            if corrupt_replay and expected:
                expected[0] = dict(expected[0], action=1 - expected[0]["action"])
            replies = ladder["replies"][spec.name]
            for rid, want in zip(ids, expected):
                attempted += 1
                got = replies.get(rid)
                if got is None or not got.get("ok"):
                    failed += 1
                    problems.append(f"{spec.name} #{rid}: no ok reply ({got})")
                    continue
                if any(got[k] != want[k] for k in want):
                    failed += 1
                    if len(problems) < 5:
                        problems.append(f"{spec.name} #{rid}: served {got} != offline {want}")
        return attempted, failed, problems


def offline_replay(spec: TenantSpec, frames: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Serial reference: the same frames through one inline-training agent.

    Mirrors what a ``repro serve`` tenant opened with ``spec`` must
    compute: an H&M system whose fast device holds ``capacity_pages``,
    default hyper-parameters, and the closed-loop clock (a request is
    served no earlier than the previous one completed).
    """
    from repro.core.agent import SibylAgent
    from repro.core.hyperparams import SIBYL_DEFAULT
    from repro.hss.devices import make_devices
    from repro.hss.request import OpType, Request
    from repro.hss.system import HybridStorageSystem

    hss = HybridStorageSystem(make_devices("H&M"), [spec.capacity_pages, None])
    agent = SibylAgent(hyperparams=SIBYL_DEFAULT, head="c51", seed=spec.seed)
    agent.attach(hss)
    completion = 0.0
    out = []
    for frame in frames:
        request = Request(timestamp=float(frame["t"]), op=OpType.parse(frame["rw"]),
                          page=frame["page"], size=frame["size"])
        action = agent.place(request)
        now = max(request.timestamp, completion)
        result = hss.serve(request, action, now=now)
        completion = now + result.latency_s
        agent.feedback(request, action, result)
        out.append({"action": action, "device": result.device,
                    "latency_s": result.latency_s,
                    "eviction_time_s": result.eviction_time_s})
    return out


def hold_p99_ms(metrics: Dict[str, Any]) -> float:
    """Bucket-resolution p99 of the daemon's ``serve_hold_ms`` histogram."""
    hist = metrics["timings"].get("serve_hold_ms")
    if not hist or not hist["count"]:
        return 0.0
    rank = max(1, round(0.99 * hist["count"]))
    seen = 0
    for bound, n in sorted(((float(b), n) for b, n in hist["buckets"].items())):
        seen += n
        if seen >= rank:
            return bound
    return float(hist["max"])


def served_count(ladder: Dict[str, Any]) -> int:
    """Requests the daemon answered during the whole ladder."""
    return sum(1 for stamp in ladder["run"]["stamps"] if stamp[4] is not None)
