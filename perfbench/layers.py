"""Outside-in layer timing: wrap the program's public entry points.

:class:`LayerTracer` replaces public functions and methods of the
program's layers with thin wrappers that time and count each call.  A
layer's *self* time is the time spent inside its entry points minus the
time spent inside the nested entry points of other layers, so the self
times of one accounting *domain* (the main process's measured region, or one
campaign cell in a pool worker) sum to the domain's wall time; what no
entry point covers stays on the domain's root and is reported as
unaccounted.

Per-request entry points (``HybridStorageSystem.serve``, policy
``place``) only accumulate time and counts.  Coarse spans (campaign
cell, lane batch, training event) also go to a
:class:`repro.obs.tracer.SpanTracer`, so the run's trace file loads in
Perfetto and passes ``scripts/check_trace.py``.

Nothing here changes what the program computes: every wrapper calls the
original with the original arguments (``run_lanes`` and
``run_kernel_lanes`` additionally receive an observation sink through
their public ``sink`` parameter, which is pure observation by contract).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Accounting key of the time no wrapped entry point covers.
ROOT_KEY = "unaccounted"

#: Keys whose calls also become spans (coarse: a few hundred per run).
SPAN_KEYS = {"lanes", "kernels", "core.train", "lanes.train"}


class Ledger:
    """Self time, call counts and extra counters of one domain."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.wall_s = 0.0
        self.spans: List[Dict[str, Any]] = []

    def merge(self, other: Dict[str, Any]) -> None:
        """Fold in a ledger exported by :meth:`export` (e.g. a worker's)."""
        for name in ("self_s", "calls", "counts"):
            target = getattr(self, name)
            for key, value in other[name].items():
                target[key] += value
        for key, values in other["samples"].items():
            self.samples[key].extend(values)
        self.wall_s += other["wall_s"]
        self.spans.extend(other["spans"])

    def export(self) -> Dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "samples": dict(self.samples),
            "wall_s": self.wall_s,
            "spans": list(self.spans),
        }


class LayerTracer:
    """Installs timing wrappers; accumulates into the current ledger.

    Single-threaded by design: the benchmark drives the program from
    one thread per process (pool workers are separate processes and
    open their own domain per cell).
    """

    def __init__(self, origin: Optional[float] = None) -> None:
        self.ledger: Optional[Ledger] = None
        self.stack: List[List[Any]] = []
        #: ``time.perf_counter()`` origin of span timestamps; shared by
        #: forked workers, whose monotonic clock is the same.
        self.origin = time.perf_counter() if origin is None else origin
        #: The main process's pid; a cell run in any other process is a worker's.
        self.parent_pid = os.getpid()
        self._restore: List[Callable[[], None]] = []

    # ------------------------------------------------------------ domains
    def open_domain(self) -> Ledger:
        """Start accounting into a fresh ledger with a root frame."""
        self.ledger = Ledger()
        self.stack = [[ROOT_KEY, time.perf_counter(), 0.0]]
        return self.ledger

    def close_domain(self) -> Ledger:
        """Stop accounting; the root's uncovered time is unaccounted."""
        ledger = self.ledger
        key, t0, child = self.stack[0]
        wall = time.perf_counter() - t0
        ledger.self_s[key] += wall - child
        ledger.wall_s += wall
        self.ledger = None
        self.stack = []
        return ledger

    def span(self, name: str, t0: float, t1: float, **args: Any) -> None:
        if self.ledger is not None:
            self.ledger.spans.append({
                "name": name, "cat": "perfbench", "ph": "X",
                "ts": round((t0 - self.origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": os.getpid(), "tid": 0, "args": args,
            })

    # ------------------------------------------------------------ wrapping
    def wrap(self, owner: Any, attr: str, key: str,
             hook: Optional[Callable[..., None]] = None,
             prepare: Optional[Callable[..., Any]] = None) -> None:
        """Time every call of ``owner.attr`` under ``key``.

        ``prepare(args, kwargs)`` may return replacement ``(args,
        kwargs, state)``; ``hook(ledger, args, kwargs, result, dt,
        state)`` runs after the call.  A call made while the innermost
        frame already has the same key folds into that frame.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            ledger = tracer.ledger
            stack = tracer.stack
            if ledger is None or stack[-1][0] == key:
                return original(*args, **kwargs)
            state = None
            if prepare is not None:
                args, kwargs, state = prepare(args, kwargs)
            frame = [key, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                t1 = time.perf_counter()
                dt = t1 - frame[1]
                ledger.self_s[key] += dt - frame[2]
                ledger.calls[key] += 1
                stack[-1][2] += dt
                if key in SPAN_KEYS:
                    tracer.span(key, frame[1], t1)
            if hook is not None:
                hook(ledger, args, kwargs, result, dt, state)
            return result

        self._replace(owner, attr, original, wrapper)

    def _replace(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        """Swap ``original`` for ``wrapper`` wherever ``repro`` holds it.

        ``from module import f`` copies a function reference into the
        importing module, so module functions are replaced in every
        loaded ``repro`` module that holds the same object.
        """
        setattr(owner, attr, wrapper)
        self._restore.append(lambda: setattr(owner, attr, original))
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is owner:
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, wrapper)
                    self._restore.append(
                        lambda m=module, a=alias: setattr(m, a, original)
                    )

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()


# ---------------------------------------------------------------- hooks
def _sink_prepare(args, kwargs):
    """Tee a DictSink into a call's public ``sink=`` parameter."""
    from repro.obs.sink import DictSink, combine_sinks

    stats: Dict[str, float] = {}
    kwargs = dict(kwargs)
    kwargs["sink"] = combine_sinks(DictSink(stats), kwargs.get("sink"))
    return args, kwargs, stats


def _count_into(prefix: str):
    def hook(ledger, args, kwargs, result, dt, stats):
        for name, value in stats.items():
            if not name.startswith("max_"):
                ledger.counts[f"{prefix}.{name}"] += value
    return hook


def _rows_hook(ledger, args, kwargs, result, dt, state):
    obs = args[1]
    ledger.counts["rl.infer.rows"] += obs.shape[0] if getattr(obs, "ndim", 1) > 1 else 1


def _one_row_hook(ledger, args, kwargs, result, dt, state):
    ledger.counts["rl.infer.rows"] += 1


def _train_batch_hook(ledger, args, kwargs, result, dt, state):
    ledger.counts["rl.train_batch.calls"] += 1


def _train_event_hook(ledger, args, kwargs, result, dt, state):
    ledger.samples["core.train.event_ms"].append(dt * 1e3)


def _serve_hook(ledger, args, kwargs, result, dt, state):
    if result.eviction_occurred:
        ledger.counts["hss.evictions"] += 1


def _policy_run_hook(ledger, args, kwargs, result, dt, state):
    ledger.counts["runner.runs"] += 1


def _store_get_hook(ledger, args, kwargs, result, dt, state):
    from repro.store import MISS

    ledger.counts["store.misses" if result is MISS else "store.hits"] += 1


def _store_put_hook(ledger, args, kwargs, result, dt, state):
    ledger.counts["store.put.calls"] += 1


def install_all(tracer: LayerTracer) -> LayerTracer:
    """Wrap every layer entry point the benchmark attributes time to."""
    import repro.sim.kernels as kernels
    import repro.sim.lanes as lanes
    import repro.sim.parallel as parallel
    import repro.sim.runner as runner
    import repro.sim.experiment as experiment
    import repro.sim.campaign as campaign
    from repro.baselines import (
        ArchivistPolicy, CDEPolicy, HPSPolicy, OraclePolicy, RNNHSSPolicy,
        StaticPolicy, TriHeuristicPolicy,
    )
    from repro.core.agent import SibylAgent
    from repro.hss.system import HybridStorageSystem
    from repro.rl.c51 import C51LaneStack, C51Network
    from repro.rl.dqn import DQNLaneStack, DQNNetwork
    from repro.rl.network import LaneStackTraining
    from repro.store import CampaignStore
    from repro.traces.synthetic import SyntheticTraceGenerator

    w = tracer.wrap
    # sim.kernels / sim.lanes: engine counters through the public sink.
    w(kernels, "run_kernel_lanes", "kernels",
      hook=_count_into("kernels"), prepare=_sink_prepare)
    w(lanes, "run_lanes", "lanes",
      hook=_count_into("lanes_all"), prepare=_sink_prepare)
    w(lanes, "fused_train_event", "lanes.train")
    # sim.runner and the campaign/experiment cell layer above it.
    w(runner, "run_policy", "runner")
    w(runner, "run_normalized", "runner")
    w(runner.PolicyRun, "__init__", "runner.init", hook=_policy_run_hook)

    def reference_prepare(args, kwargs):
        return args, kwargs, tracer.ledger.calls["runner"]

    def reference_hook(ledger, args, kwargs, result, dt, simulated_before):
        ledger.counts["runner.reference.calls"] += 1
        if ledger.calls["runner"] == simulated_before:
            ledger.counts["runner.reference.hits"] += 1

    w(runner, "run_reference", "runner.reference",
      hook=reference_hook, prepare=reference_prepare)
    w(experiment, "run_oracle_best", "runner")
    for name in ("run_seeded_normalized", "aggregate_seeds"):
        w(campaign, name, "campaign")
    # sim.parallel: the parent's grid call; cells are domains of their own.
    w(parallel, "run_grid", "parallel")
    # core: Sibyl's decision path and its training events.
    for name in ("place", "place_begin", "place_commit", "feedback"):
        w(SibylAgent, name, "core.place")
    w(SibylAgent, "train_begin", "core.train")
    w(SibylAgent, "train_commit", "core.train", hook=_train_event_hook)
    # rl: inference and training of the networks and lane stacks.
    for cls in (C51Network, DQNNetwork):
        w(cls, "best_action", "rl.infer", hook=_one_row_hook)
        w(cls, "best_actions", "rl.infer", hook=_rows_hook)
        w(cls, "train_batch", "rl.train", hook=_train_batch_hook)
        w(cls, "precompute_targets", "rl.train")
    for cls in (C51LaneStack, DQNLaneStack):
        w(cls, "best_actions", "rl.infer", hook=_rows_hook)
        w(cls, "train_batch", "rl.train", hook=_train_batch_hook)
    w(LaneStackTraining, "precompute_targets", "rl.train")
    # hss: one call per simulated request.
    w(HybridStorageSystem, "serve", "hss", hook=_serve_hook)
    # baselines: heuristic and oracle decisions.
    for cls in (StaticPolicy, CDEPolicy, HPSPolicy, ArchivistPolicy,
                RNNHSSPolicy, TriHeuristicPolicy):
        w(cls, "place", "baselines")
    for name in ("prepare", "attach", "place"):
        w(OraclePolicy, name, "baselines.oracle")
    # store and traces.
    w(CampaignStore, "get", "store", hook=_store_get_hook)
    w(CampaignStore, "put", "store", hook=_store_put_hook)
    for name in ("fingerprint", "begin_campaign", "finish_campaign"):
        w(CampaignStore, name, "store")
    w(SyntheticTraceGenerator, "generate", "traces")
    return tracer


def registry_counters() -> Dict[str, float]:
    """The program's own ``SIBYL_OBS`` registry counters, right now."""
    from repro.obs.metrics import registry

    return registry().snapshot()["counters"]


def count_registry(ledger: Ledger, before: Dict[str, float]) -> None:
    """Add the registry counters' growth since ``before`` to ``ledger``."""
    for name, value in registry_counters().items():
        delta = value - before.get(name, 0)
        if delta:
            ledger.counts["registry." + name] += delta


def install_cell_domains(tracer: LayerTracer, side_dir: str) -> None:
    """Make every campaign cell its own accounting domain.

    Wraps :meth:`repro.sim.parallel.Cell.run`; in a pool worker (forked
    from the traced main process, so it inherits the wrappers) each cell opens
    a fresh domain and appends its ledger to a per-process JSON-lines
    file under ``side_dir`` that the main process merges after the grid.
    """
    from repro.sim.parallel import Cell

    original = Cell.__dict__["run"]

    @functools.wraps(original)
    def run(cell):
        if tracer.ledger is not None and os.getpid() == tracer.parent_pid:
            return original(cell)  # serial path: stays in the main domain
        before = registry_counters()
        saved = (tracer.ledger, tracer.stack)
        ledger = tracer.open_domain()
        t0 = time.perf_counter()
        try:
            return original(cell)
        finally:
            t1 = time.perf_counter()
            tracer.span("parallel.cell", t0, t1, key=str(cell.key))
            ledger.samples["parallel.cell_s"].append(t1 - t0)
            tracer.close_domain()
            tracer.ledger, tracer.stack = saved
            count_registry(ledger, before)
            path = os.path.join(side_dir, f"cells-{os.getpid()}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(ledger.export()) + "\n")

    Cell.run = run
    tracer._restore.append(lambda: setattr(Cell, "run", original))


def read_cell_domains(side_dir: str) -> List[Dict[str, Any]]:
    """Every cell ledger the workers wrote under ``side_dir``."""
    out = []
    for name in sorted(os.listdir(side_dir)):
        if name.startswith("cells-") and name.endswith(".jsonl"):
            with open(os.path.join(side_dir, name), encoding="utf-8") as fh:
                out.extend(json.loads(line) for line in fh if line.strip())
    return out
