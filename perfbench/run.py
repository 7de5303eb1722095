#!/usr/bin/env python3
"""Benchmark: end-to-end and per-layer numbers for three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sibyl_seeds --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/rationale.json``):

* ``sibyl_seeds``    multi-seed Sibyl campaigns as lanes of one ``run_lanes`` call;
* ``figure_lineup``  a Fig. 9 + Fig. 16 campaign grid through ``run_grid``
  into a fresh ``CampaignStore``, then the same grid warm from the store;
* ``serve_open_loop`` ``repro serve`` in its own process under an
  open-loop rate ladder from two tenant connections.

Every run measures set-up (median of several fresh processes), then the
workload for ``--seconds``, then checks the outputs.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics from a
separate traced pass (``--trace 1``).  A full record of the run goes to
``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Tuple

import common  # first: pins BLAS threads before NumPy loads
from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    child_env,
    environment_record,
    load_golden,
    median,
    percentile,
    program_present,
    result_line,
)

WORKLOADS = ("sibyl_seeds", "figure_lineup", "serve_open_loop")
#: Fresh processes timed per run; ``setup_s`` is their median.
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 120.0
#: Largest share of a traced domain's wall that may fall outside every
#: wrapped entry point before the layer breakdown is called incomplete.
UNACCOUNTED_TOLERANCE = 0.10


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def workload_class(name: str):
    if name == "serve_open_loop":
        from wl_serve import ServeOpenLoop

        return ServeOpenLoop
    from wl_batch import FigureLineup, SibylSeeds

    return {"sibyl_seeds": SibylSeeds, "figure_lineup": FigureLineup}[name]


# ------------------------------------------------------------ set-up time
def measure_setup(workload: str, seed: int, size: str) -> List[float]:
    """Wall time from spawning a fresh interpreter to its READY line."""
    samples = []
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--size", size]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=str(ROOT), env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        ready = None
        try:
            for line in proc.stdout:
                if line.strip() == "READY":
                    ready = time.perf_counter() - t0
                    break
            proc.stdout.read()
            proc.wait(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if ready is None or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(ready)
    return samples


def setup_probe(args) -> int:
    workload_class(args.workload).setup_probe(args.seed, args.size)
    if args.workload != "serve_open_loop":  # serve reports READY before shutdown
        print("READY", flush=True)
    return 0


# ------------------------------------------------------------ per-layer
def layer_metrics(ledgers, extra: Dict[str, float]) -> Dict[str, float]:
    """Fold accounting domains into the per-layer metric set."""
    from layers import Ledger

    total = Ledger()
    for ledger in ledgers:
        total.merge(ledger.export())
    s, c, n = total.self_s, total.calls, total.counts

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {name: 0.0 for name in metric_units("per_layer")}  # bypassed layers read 0
    lanes_rows = n["lanes_all.fused_rows"] - n["kernels.fused_rows"]
    lanes_fwd = n["lanes_all.fused_forwards"] - n["kernels.fused_forwards"]
    events = total.samples["core.train.event_ms"]
    store_lookups = n["store.hits"] + n["store.misses"]
    out.update({
        "kernels.self_s": s["kernels"],
        "kernels.barriers": n["kernels.kernel_barriers"],
        "kernels.rows_per_forward": ratio(n["kernels.fused_rows"], n["kernels.fused_forwards"]),
        "core.train.events": float(len(events)),
        "core.train.self_s": s["core.train"],
        "core.train.ms_per_event.p50": median(events) if events else 0.0,
        "core.place.self_s": s["core.place"],
        "rl.train_batch.calls": n["rl.train_batch.calls"],
        "rl.train_batch.self_s": s["rl.train"],
        "rl.infer.calls": float(c["rl.infer"]),
        "rl.infer.rows": n["rl.infer.rows"],
        "rl.infer.self_s": s["rl.infer"],
        "lanes.ticks": n["lanes_all.ticks"] - n["kernels.ticks"],
        "lanes.rows_per_forward": ratio(lanes_rows, lanes_fwd),
        "lanes.fused_train_events": n["lanes_all.fused_train_events"],
        "lanes.self_s": s["lanes"] + s["lanes.train"],
        "hss.serve.calls": float(c["hss"]),
        "hss.serve.self_s": s["hss"],
        "hss.evictions": n["hss.evictions"],
        "baselines.place.calls": float(c["baselines"] + c["baselines.oracle"]),
        "baselines.self_s": s["baselines"] + s["baselines.oracle"],
        "baselines.oracle.self_s": s["baselines.oracle"],
        "runner.runs": n["runner.runs"],
        "runner.self_s": s["runner"] + s["runner.init"] + s["runner.reference"],
        "runner.reference.hit_frac": ratio(n["runner.reference.hits"], n["runner.reference.calls"]),
        "campaign.self_s": s["campaign"],
        "parallel.cells": float(len(total.samples["parallel.cell_s"])),
        "parallel.self_s": s["parallel"],
        "store.hit_frac": ratio(n["store.hits"], store_lookups),
        "store.put.calls": n["store.put.calls"],
        "store.self_s": s["store"],
        "traces.gen_s": s["traces"],
        "trace.unaccounted_frac": ratio(s["unaccounted"], total.wall_s),
        # The program's SIBYL_OBS registry must count what the engines
        # reported through the sink; a counter it never bumped reads 0.
        "obs.counter_mismatches": float(sum(
            1 for name in ("ticks", "fused_forwards", "fused_rows", "train_events",
                           "kernel_barriers")
            if n.get("registry.engine_" + name, 0.0) != n["lanes_all." + name]
        )),
    })
    out.update(extra)
    return out


def serve_layers(measured: Dict[str, Any]) -> Dict[str, float]:
    """Serve-layer figures from replies, the metrics op and the generator."""
    from wl_serve import P99_LIMIT_MS, hold_p99_ms

    high, low = measured["high"], measured["low"]
    counters = measured["ladder"]["metrics"]["counters"]
    passing = [r for r in measured["rungs"]
               if r["p99"] <= P99_LIMIT_MS and not r["growing"] and not r["unanswered"]]
    return {
        "serve.queue_ms.p50": percentile(high["queue"], 50),
        "serve.queue_ms.p99": percentile(high["queue"], 99),
        "serve.service_ms.p50": percentile(high["service"], 50),
        "serve.service_ms.p99": percentile(high["service"], 99),
        "serve.hold_ms.p99": hold_p99_ms(measured["ladder"]["metrics"]),
        "serve.trainer_occupancy": measured["ladder"]["metrics"]["trainer_occupancy"],
        "serve.rows_per_forward": counters["fused_rows"] / max(1, counters["fused_forwards"]),
        "serve.wire_ms.p50": percentile(high["wire"], 50),
        "serve.sojourn_p50_ms.low": low["p50"],
        "serve.sojourn_p99_ms.low": low["p99"],
        "serve.sojourn_p50_ms.high": high["p50"],
        "serve.sojourn_p99_ms.high": high["p99"],
        "serve.max_rate_rps": max((r["achieved"] for r in passing), default=0.0),
        "gen.lag_p99_ms": percentile(measured["ladder"]["run"]["lag"], 99) * 1e3,
        "obs.counter_mismatches": float(serve_counter_mismatches(measured["ladder"])),
    }


def serve_counter_mismatches(ladder: Dict[str, Any]) -> int:
    """Daemon counters that disagree with what the generator observed.

    Every ok place reply must be counted once as served and once in each
    of the queue and service histograms; every training event must
    have one hold sample.
    """
    metrics = ladder["metrics"]
    counters, timings = metrics["counters"], metrics["timings"]

    def count(name: str) -> int:
        return timings.get(name, {}).get("count", 0)

    ok = sum(1 for replies in ladder["replies"].values()
             for reply in replies.values() if reply.get("ok"))
    pairs = ((counters["served"], ok), (count("serve_queue_ms"), ok),
             (count("serve_service_ms"), ok), (count("serve_hold_ms"), counters["train_events"]))
    return sum(1 for a, b in pairs if a != b)


def traced_batch(wl, measured: Dict[str, Any], fault: str = "") -> Dict[str, float]:
    """A separate traced pass over one iteration of a batch workload.

    ``fault`` (self-test only) breaks the pass on purpose: ``registry-off``
    leaves the program's ``SIBYL_OBS`` registry off, ``stall`` sleeps
    in every accounting domain outside any wrapped entry point.
    """
    from layers import LayerTracer, count_registry, install_all, registry_counters
    from repro.obs.tracer import SpanTracer, set_tracer

    spans = SpanTracer(path=str(OUT_DIR / f"trace-{wl.name}.json"))
    tracer = install_all(LayerTracer())
    if fault == "stall":
        open_domain = tracer.open_domain

        def stalled_domain():
            ledger = open_domain()
            time.sleep(measured["wall_per_iter"])
            return ledger

        tracer.open_domain = stalled_domain
    previous_obs = os.environ.get("SIBYL_OBS")
    os.environ["SIBYL_OBS"] = "off" if fault == "registry-off" else "on"
    set_tracer(spans)
    before = registry_counters()
    try:
        traced = wl.traced(tracer)
        count_registry(traced["ledgers"][0], before)
    finally:
        set_tracer(None)
        os.environ["SIBYL_OBS"] = previous_obs or "off"
        tracer.uninstall()
    for ledger in traced["ledgers"]:
        for event in ledger.spans:
            spans.add_event(event)
    spans.flush()
    extra = {"obs.trace_overhead_frac": traced["wall"] / measured["wall_per_iter"] - 1.0}
    if wl.name == "figure_lineup":
        cell_s = sum(x for ledger in traced["ledgers"] for x in ledger.samples["parallel.cell_s"])
        extra["parallel.busy_frac"] = cell_s / (traced["workers"] * traced["wall"])
        extra["store.bytes_written"] = float(measured["iters"][0]["store_bytes"])
        extra["store.warm_rerun_s"] = measured["warm_rerun_s"]
    else:
        extra["traces.gen_s"] = measured["gen_s"]  # generated before the pass
    return layer_metrics(traced["ledgers"], extra)


def traced_serve(wl, measured: Dict[str, Any], seconds: float) -> Dict[str, float]:
    """Serve layers from the untraced ladder; overhead from a traced one."""
    from wl_serve import served_count

    untraced_cpu = measured["ladder"]["cpu_s"] / served_count(measured["ladder"])
    traced = wl.ladder(seconds / 2, trace_path=str(OUT_DIR / "trace-serve_open_loop.json"))
    traced_cpu = traced["cpu_s"] / served_count(traced)
    # Serve's wire time is the remainder of the sojourn, so its
    # breakdown leaves nothing unaccounted by construction.
    return layer_metrics([], dict(
        serve_layers(measured),
        **{"obs.trace_overhead_frac": traced_cpu / untraced_cpu - 1.0,
           "traces.gen_s": measured["gen_s"]},
    ))


#: Self-time metrics that partition a batch workload's traced work.
SELF_TIMES = (
    "kernels.self_s", "core.train.self_s", "core.place.self_s", "rl.train_batch.self_s",
    "rl.infer.self_s", "lanes.self_s", "hss.serve.self_s", "baselines.self_s",
    "runner.self_s", "campaign.self_s", "store.self_s", "traces.gen_s",
)


def dominant_layers(workload: str, layers: Dict[str, float]) -> Dict[str, float]:
    """Each layer's share of the traced time, largest first.

    Batch workloads: share of the summed self times, leaving out the
    main process's wait on pool workers (``parallel.self_s``), which overlaps
    the workers' own time.  Serve: share of the high-rate median
    sojourn taken by queue, service and wire time.
    """
    if workload == "serve_open_loop":
        total = layers["serve.sojourn_p50_ms.high"]
        parts = {name: layers[f"serve.{name}_ms.p50"] for name in ("queue", "service", "wire")}
    else:
        # sibyl_seeds generates its traces before the traced pass.
        parts = {name: layers[name] for name in SELF_TIMES
                 if name != "traces.gen_s" or workload == "figure_lineup"}
        total = sum(parts.values())
    shares = {name: round(value / total, 3) for name, value in parts.items() if total}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def trace_problems(layers: Dict[str, float]) -> List[str]:
    """The traced pass's two validity checks; each breach is a failure."""
    problems = []
    if layers["trace.unaccounted_frac"] > UNACCOUNTED_TOLERANCE:
        problems.append(
            f"layer self times leave {layers['trace.unaccounted_frac']:.3f} of the "
            f"traced wall unaccounted (tolerance {UNACCOUNTED_TOLERANCE})"
        )
    if layers["obs.counter_mismatches"]:
        problems.append(
            f"{layers['obs.counter_mismatches']:.0f} program counters disagree "
            "with the benchmark's own counts"
        )
    return problems


# ------------------------------------------------------------ main run
def run(args) -> Tuple[bool, int, int, Dict[str, Tuple[float, str]], Dict[str, Any]]:
    from wl_batch import warm_kernel

    record: Dict[str, Any] = {"args": vars(args)}
    kernel_ok = warm_kernel()  # gcc, if any, runs before every timed region
    record["env"] = environment_record()
    record["env"]["kernel"] = kernel_ok
    setup = measure_setup(args.workload, args.seed, args.size)
    record["setup_samples"] = setup

    cls = workload_class(args.workload)
    t0 = time.perf_counter()
    wl = cls(args.seed, args.size)
    if args.workload == "serve_open_loop":
        wl.traffic(args.seconds)
    gen_s = time.perf_counter() - t0
    run_dir = tempfile.mkdtemp(prefix="run-", dir=str(OUT_DIR))
    wl.tmp_dir = run_dir
    try:
        measured = wl.measure(args.seconds)
        measured["gen_s"] = gen_s
        if args.workload == "serve_open_loop":
            attempted, failed, problems = wl.check(measured, corrupt_replay=args.corrupt_replay)
        else:
            attempted, failed, problems = wl.check(measured, load_golden(args.golden))
            # The batch workloads measure the compiled kernel path; without
            # the kernel they would silently time the NumPy/lockstep engines.
            attempted += 1
            if not kernel_ok:
                failed += 1
                problems.append("compiled tick kernel unavailable")
        record["problems"] = problems
        if args.trace:
            if args.workload == "serve_open_loop":
                layers = traced_serve(wl, measured, args.seconds)
            else:
                layers = traced_batch(wl, measured, args.fault)
            metrics = {name: (layers[name], unit)
                       for name, unit in metric_units("per_layer").items()}
            record["dominant_layers"] = dominant_layers(args.workload, layers)
            invalid = trace_problems(layers)
            attempted += 2
            failed += len(invalid)
            problems.extend(invalid)
        else:
            e2e = dict(measured["e2e"], setup_s=median(setup))
            metrics = {name: (e2e[name], unit)
                       for name, unit in metric_units("end_to_end").items()}
        record["summary"] = {k: v for k, v in measured.items()
                             if k in ("e2e", "warm_rerun_s", "wall_per_iter", "gen_s")}
        if "iters" in measured:
            record["iter_walls"] = [it["wall"] for it in measured["iters"]]
            record["iter_cpu"] = [it["cpu"] for it in measured["iters"]]
        if args.workload == "serve_open_loop":
            record["rungs"] = [{k: v for k, v in r.items() if k not in ("queue", "service", "wire")}
                               for r in measured["rungs"]]
        record["golden"] = None if args.workload == "serve_open_loop" else wl.golden(measured)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    correct = failed == 0
    return correct, attempted, failed, metrics, record


def record_golden() -> int:
    """Write ``golden.json``: batch digests at the default seed."""
    from wl_batch import FigureLineup, SibylSeeds

    golden: Dict[str, Dict[str, Any]] = {}
    for size in ("full", "tiny"):
        golden[size] = {}
        for cls in (SibylSeeds, FigureLineup):
            wl = cls(common.DEFAULT_SEED, size)
            wl.tmp_dir = tempfile.mkdtemp(prefix="golden-", dir=str(OUT_DIR))
            try:
                golden[size][cls.name] = wl.golden(wl.measure(0.0))
            finally:
                shutil.rmtree(wl.tmp_dir, ignore_errors=True)
    with open(BENCH_DIR / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's small inputs")
    parser.add_argument("--golden", default=None,
                        help="digest file to check against (self-test)")
    parser.add_argument("--corrupt-replay", action="store_true",
                        help="flip one expected serve action (self-test)")
    parser.add_argument("--fault", choices=("registry-off", "stall"), default="",
                        help="break the traced pass of a batch workload (self-test)")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the default seed")
    args = parser.parse_args(argv)
    if not program_present():
        print(f"perfbench: no program under {common.SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    correct, attempted, failed, metrics, record = run(args)
    record.update(correct=correct, attempted=attempted, failed=failed,
                  metrics={k: v[0] for k, v in metrics.items()})
    runs = OUT_DIR / "runs"
    runs.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    with open(runs / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if "dominant_layers" in record:
        print(f"perfbench: dominant layers {record['dominant_layers']}", file=sys.stderr)
    for problem in record.get("problems", [])[:10]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
