#!/usr/bin/env python3
"""Self-test of the benchmark itself, at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every workload prints exactly the metrics ``BENCHMARK.json``
names, with their units, in both modes; that an unmodified run passes
its correctness gate; and that the gate catches faults: a corrupted
golden digest (batch workloads), a wrong expected serve action, a
program registry that counts nothing and time outside every traced
layer must show up as failed operations, never as a pass.  Exits non-zero on the
first broken expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys

from common import BENCH_DIR, OUT_DIR, ROOT, child_env, load_golden


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--size", "tiny", "--trace", str(trace),
           *extra]
    proc = subprocess.run(cmd, cwd=str(ROOT), env=child_env(), capture_output=True,
                          text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)
    print(f"ok  {message}")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sets = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in sets.items():
            result = run(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == {m["name"]: m["unit"] for m in wanted},
                   f"{workload} trace={trace}: every named metric with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} trace={trace}: correct with 0 failed of {result['attempted']}")

    OUT_DIR.mkdir(exist_ok=True)
    golden = load_golden()
    for digests in golden["tiny"]["sibyl_seeds"].values():
        digests[0] = "0" * 64
    for key in golden["tiny"]["figure_lineup"]:
        golden["tiny"]["figure_lineup"][key] = "0" * 64
    bad = OUT_DIR / "selftest-golden.json"
    bad.write_text(json.dumps(golden))
    for workload in ("sibyl_seeds", "figure_lineup"):
        result = run(workload, 0, "--golden", str(bad))
        expect(not result["correct"] and result["failed"] > 0,
               f"{workload}: corrupted digest counted as {result['failed']} failed")
    result = run("serve_open_loop", 0, "--corrupt-replay")
    expect(not result["correct"] and result["failed"] > 0,
           f"serve_open_loop: wrong served action counted as {result['failed']} failed")
    bad.unlink()
    for workload in ("sibyl_seeds", "figure_lineup"):
        result = run(workload, 1, "--fault", "registry-off")
        expect(not result["correct"] and result["metrics"]["obs.counter_mismatches"]["value"] > 0,
               f"{workload}: silent SIBYL_OBS registry counted as {result['failed']} failed")
        result = run(workload, 1, "--fault", "stall")
        expect(not result["correct"] and result["failed"] > 0,
               f"{workload}: untraced stall counted as {result['failed']} failed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
