"""The two batch workloads: ``sibyl_seeds`` and ``figure_lineup``.

``sibyl_seeds`` packs one multi-seed Sibyl campaign per trace into a
single ``run_lanes`` call on the default, kernel-eligible ``H&M``
config.  Almost all of its time is Sibyl training and the compiled tick
kernel; the Python HSS, the baselines, the store and serve are
bypassed.

``figure_lineup`` runs a paper campaign grid through ``run_grid`` with
one worker per core (at most two) into a fresh ``CampaignStore``, then
delivers the same grid again warm from that store.  The grid holds the
Fig. 9 comparison cells of ``rsrch_0`` and ``hm_1`` (Fast-Only
reference, heuristics, RNN-HSS, the Oracle horizon search and Sibyl
seeds) and one Fig. 16 tri-hybrid cell on ``H&M&L``, whose Sibyl lanes
are kernel-ineligible and take the lockstep lane engine.  Here the
Python HSS, the baselines and the lane/runner/parallel/store layers do
the work and training is small.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
import time
from typing import Any, Dict, List, Tuple

from common import DEFAULT_SEED, cpu_with_children, digest, median, vm_hwm_mb

SIZES = {
    # lanes per campaign, requests per lane
    "sibyl_seeds": {"full": (4, 6000), "tiny": (2, 600)},
    # seeds per cell, requests per trace
    "figure_lineup": {"full": (2, 3000), "tiny": (1, 400)},
}
SEEDS_TRACES = ("rsrch_0", "hm_1")
LINEUP_TRACES = ("rsrch_0", "hm_1")
TRI_TRACE = "rsrch_0"
#: Policy runs per seed of a Fig. 9 cell: Fast-Only reference, five
#: heuristics/RNN-HSS, Sibyl, and one Oracle run per admission horizon.
FIG9_RUNS_PER_SEED = 7 + 4
#: Policy runs per seed of the Fig. 16 cell: reference, heuristic, Sibyl.
FIG16_RUNS_PER_SEED = 3


def lane_seeds(seed: int, n: int) -> Tuple[int, ...]:
    """The seed axis a benchmark seed expands to (disjoint per seed)."""
    return tuple(seed * n + i for i in range(n))


def warm_kernel() -> bool:
    """Build (if needed) and load the compiled tick kernel."""
    from repro.sim.kernels import engine_c

    return engine_c.available()


# ====================================================================
# sibyl_seeds
# ====================================================================
class SibylSeeds:
    name = "sibyl_seeds"

    def __init__(self, seed: int, size: str) -> None:
        from repro.sim.experiment import DEFAULT_WARMUP
        from repro.traces.workloads import make_trace

        self.seed = seed
        self.size = size
        self.n_lanes, self.n_requests = SIZES[self.name][size]
        self.seeds = lane_seeds(seed, self.n_lanes)
        self.warmup = DEFAULT_WARMUP
        self.traces = {
            name: [make_trace(name, n_requests=self.n_requests, seed=s) for s in self.seeds]
            for name in SEEDS_TRACES
        }

    @staticmethod
    def setup_probe(seed: int, size: str) -> None:
        """Fresh-process set-up: import, kernel, traces, warm-up run."""
        warm_kernel()
        wl = SibylSeeds(seed, size)
        wl.campaign(SEEDS_TRACES[0], lanes=1, requests=min(1000, wl.n_requests))

    def campaign(self, trace_name: str, lanes: int = 0, requests: int = 0):
        from repro.core.agent import SibylAgent
        from repro.sim.lanes import LaneSpec, run_lanes

        lanes = lanes or self.n_lanes
        specs = [
            LaneSpec(
                policy=SibylAgent(seed=s),
                trace=trace if not requests else trace[:requests],
                warmup_fraction=self.warmup,
            )
            for s, trace in zip(self.seeds[:lanes], self.traces[trace_name])
        ]
        return run_lanes(specs)

    def iteration(self) -> Dict[str, Any]:
        digests = {}
        t0 = time.perf_counter()
        cpu0 = time.process_time()
        for name in SEEDS_TRACES:
            digests[name] = [digest(r) for r in self.campaign(name)]
        cpu = time.process_time() - cpu0
        wall = time.perf_counter() - t0
        return {"wall": wall, "cpu": cpu, "digests": digests}

    def sim_requests(self) -> int:
        return len(SEEDS_TRACES) * self.n_lanes * self.n_requests

    def measure(self, seconds: float) -> Dict[str, Any]:
        iters: List[Dict[str, Any]] = []
        t_end = time.perf_counter() + seconds
        while len(iters) < 2 or time.perf_counter() < t_end:
            iters.append(self.iteration())
        # Throughput per CPU second: a box's load moves it less than wall time.
        rates = [self.sim_requests() / it["cpu"] for it in iters]
        # Latency of one campaign call, averaged over the traces within a
        # repeat: the rsrch_0 and hm_1 calls differ, so a median over
        # single calls would fall between the two and swing with both.
        calls = [it["wall"] / len(SEEDS_TRACES) for it in iters]
        return {
            "iters": iters,
            "e2e": {
                "sim_req_per_s": median(rates),
                "latency_p50_ms": median(calls) * 1e3,
                "peak_rss_mb": vm_hwm_mb(os.getpid()),
            },
            "wall_per_iter": median([it["wall"] for it in iters]),
        }

    def check(self, measured: Dict[str, Any], golden: Dict[str, Any]) -> Tuple[int, int, List[str]]:
        """(attempted, failed, problems) over every lane result."""
        from repro.core.agent import SibylAgent
        from repro.sim.runner import run_policy

        problems: List[str] = []
        attempted = failed = 0
        first = measured["iters"][0]["digests"]
        expected = golden.get(self.size, {}).get(self.name) if self.seed == DEFAULT_SEED else None
        for it in measured["iters"]:
            for name in SEEDS_TRACES:
                for lane, dg in enumerate(it["digests"][name]):
                    attempted += 1
                    bad = dg != first[name][lane]
                    if expected is not None and dg != expected[name][lane]:
                        bad = True
                    if bad:
                        failed += 1
                        problems.append(f"{name} lane {lane}: digest mismatch")
        # Bit-identity spot check: one lane per trace re-run serially.
        lane = self.seed % self.n_lanes
        for name in SEEDS_TRACES:
            attempted += 1
            serial = run_policy(
                SibylAgent(seed=self.seeds[lane]), self.traces[name][lane],
                warmup_fraction=self.warmup,
            )
            if digest(serial) != first[name][lane]:
                failed += 1
                problems.append(f"{name} lane {lane}: run_lanes != serial run_policy")
        return attempted, failed, problems

    def golden(self, measured: Dict[str, Any]) -> Dict[str, Any]:
        return measured["iters"][0]["digests"]

    def traced(self, tracer) -> Dict[str, Any]:
        """One traced iteration in the main process's domain."""
        tracer.open_domain()
        t0 = time.perf_counter()
        self.iteration()
        wall = time.perf_counter() - t0
        return {"ledgers": [tracer.close_domain()], "wall": wall}


# ====================================================================
# figure_lineup
# ====================================================================
class FigureLineup:
    name = "figure_lineup"
    warm_repeats = 5

    def __init__(self, seed: int, size: str) -> None:
        from repro.sim.experiment import DEFAULT_WARMUP

        self.seed = seed
        self.size = size
        self.n_seeds, self.n_requests = SIZES[self.name][size]
        self.seeds = lane_seeds(seed, self.n_seeds)
        self.warmup = DEFAULT_WARMUP
        self.workers = max(1, min(2, os.cpu_count() or 1))
        self.tmp_dir = None

    def cells(self):
        from repro.sim.campaign import seeded_compare_cell, seeded_tri_hybrid_cell
        from repro.sim.parallel import Cell

        common = dict(n_requests=self.n_requests, seeds=self.seeds,
                      warmup_fraction=self.warmup)
        cells = [
            Cell(key=("fig9", name), fn=seeded_compare_cell,
                 kwargs=dict(workload=name, config="H&M", **common))
            for name in LINEUP_TRACES
        ]
        cells.append(Cell(key=("fig16", TRI_TRACE), fn=seeded_tri_hybrid_cell,
                          kwargs=dict(workload=TRI_TRACE, config="H&M&L", **common)))
        return cells

    def sim_requests(self) -> int:
        per_seed = len(LINEUP_TRACES) * FIG9_RUNS_PER_SEED + FIG16_RUNS_PER_SEED
        return per_seed * self.n_seeds * self.n_requests

    @staticmethod
    def setup_probe(seed: int, size: str) -> None:
        """Fresh-process set-up: import, kernel, warm-up cell inline."""
        warm_kernel()
        wl = FigureLineup(seed, size)
        cell = wl.cells()[0]
        kwargs = dict(cell.kwargs, n_requests=min(400, wl.n_requests), seeds=wl.seeds[:1])
        cell.fn(**kwargs)

    def iteration(self, rss: List[float]) -> Dict[str, Any]:
        from repro.sim.parallel import run_grid
        from repro.sim.runner import clear_reference_cache
        from repro.store import CampaignStore

        # Forked workers inherit the main process's Fast-Only memo; start every
        # grid from the same (empty) one so each does the same work.
        clear_reference_cache()
        cells = self.cells()
        store_dir = tempfile.mkdtemp(prefix="store-", dir=self.tmp_dir)
        try:
            store = CampaignStore(store_dir)

            def on_cell(key, result):
                # Pool workers are alive until the grid returns.
                children = sum(vm_hwm_mb(p.pid) for p in multiprocessing.active_children())
                rss[:] = [max(rss[0], vm_hwm_mb(os.getpid())), max(rss[1], children)]

            t0 = time.perf_counter()
            cpu0 = cpu_with_children()
            cold = run_grid(cells, max_workers=self.workers, on_cell=on_cell, store=store)
            cpu = cpu_with_children() - cpu0  # the pool is joined by now
            wall = time.perf_counter() - t0
            warm_walls = []
            warm_digests = []
            for _ in range(self.warm_repeats):
                w0 = time.perf_counter()
                warm = run_grid(cells, max_workers=self.workers, store=store)
                warm_walls.append(time.perf_counter() - w0)
                warm_digests.append({str(k): digest(v) for k, v in warm.items()})
            store_bytes = sum(
                os.path.getsize(os.path.join(d, f))
                for d, _, files in os.walk(store_dir) for f in files
            )
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        return {
            "wall": wall,
            "cpu": cpu,
            "cold": cold,
            "digests": {str(k): digest(v) for k, v in cold.items()},
            "warm_digests": warm_digests,
            "warm_s": median(warm_walls),
            "store_bytes": store_bytes,
        }

    def measure(self, seconds: float) -> Dict[str, Any]:
        rss = [0.0, 0.0]
        iters: List[Dict[str, Any]] = []
        t_end = time.perf_counter() + seconds
        while len(iters) < 2 or time.perf_counter() < t_end:
            iters.append(self.iteration(rss))
        walls = [it["wall"] for it in iters]
        return {
            "iters": iters,
            "e2e": {
                # Per CPU second of the main process and its pool workers.
                "sim_req_per_s": median([self.sim_requests() / it["cpu"] for it in iters]),
                "latency_p50_ms": median(walls) * 1e3,
                "peak_rss_mb": rss[0] + rss[1],
            },
            "warm_rerun_s": median([it["warm_s"] for it in iters]),
            "wall_per_iter": median(walls),
        }

    def check(self, measured: Dict[str, Any], golden: Dict[str, Any]) -> Tuple[int, int, List[str]]:
        problems: List[str] = []
        attempted = failed = 0
        first = measured["iters"][0]["digests"]
        expected = golden.get(self.size, {}).get(self.name) if self.seed == DEFAULT_SEED else None
        for it in measured["iters"]:
            for key, dg in it["digests"].items():
                attempted += 1
                if dg != first[key] or (expected is not None and dg != expected[key]):
                    failed += 1
                    problems.append(f"{key}: cold digest mismatch")
                for warm in it["warm_digests"]:
                    attempted += 1
                    if warm[key] != dg:
                        failed += 1
                        problems.append(f"{key}: warm rerun != cold")
        cold = measured["iters"][0]["cold"]
        j = self.seed % self.n_seeds
        for key, config in ((("fig9", LINEUP_TRACES[0]), "H&M"), (("fig16", TRI_TRACE), "H&M&L")):
            attempted += 1
            problem = self.spot_check(cold[key], key[1], config, j)
            if problem:
                failed += 1
                problems.append(f"{key}: {problem}")
        return attempted, failed, problems

    def spot_check(self, cell: Dict[str, Any], trace_name: str, config: str, j: int) -> str:
        """Re-run seed ``j``'s Sibyl lane serially; '' when bit-identical."""
        from repro.core.agent import SibylAgent
        from repro.sim.runner import normalized_row, run_policy, run_reference
        from repro.traces.workloads import make_trace

        s = self.seeds[j]
        trace = make_trace(trace_name, n_requests=self.n_requests, seed=s)
        reference = run_reference(trace, config=config, warmup_fraction=self.warmup)
        result = run_policy(SibylAgent(seed=s), trace, config=config,
                            warmup_fraction=self.warmup)
        expected = normalized_row(result, reference)
        got = {metric: band.values[j] for metric, band in cell["Sibyl"].items()}
        if digest(got) != digest(expected):
            return f"Sibyl seed {s} differs from serial run_policy"
        return ""

    def golden(self, measured: Dict[str, Any]) -> Dict[str, Any]:
        return measured["iters"][0]["digests"]

    def traced(self, tracer) -> Dict[str, Any]:
        """One traced cold+warm iteration; cells are worker domains."""
        from layers import Ledger, install_cell_domains, read_cell_domains

        side = tempfile.mkdtemp(prefix="cells-", dir=self.tmp_dir)
        install_cell_domains(tracer, side)
        rss = [0.0, 0.0]
        tracer.open_domain()
        it = self.iteration(rss)
        ledgers = [tracer.close_domain()]
        for exported in read_cell_domains(side):
            ledger = Ledger()
            ledger.merge(exported)
            ledgers.append(ledger)
        shutil.rmtree(side, ignore_errors=True)
        return {"ledgers": ledgers, "wall": it["wall"], "workers": self.workers}
