"""Structure-of-arrays tick engine with selectable compute backends.

The lane engine's per-request cost is dominated by everything *around*
the network forward: feature extraction, the HSS serve/evict state
machine, reward computation, and replay insertion all walk per-lane
Python objects.  This package removes that ceiling for the common
configuration (a :class:`~repro.core.agent.SibylAgent` on a dual-device
LRU system with the paper's full feature set and latency reward) by
holding the per-tick state — observations, quantised feature bins,
device queue depths/utilisation, the page→device mapping, per-lane
reward accumulators — in contiguous arrays (:mod:`.soa`) and executing
the tick loop through one of two interchangeable engines:

* ``numpy`` (:mod:`.engine_numpy`) — the **bit-identity reference**: a
  straight-line transliteration of the serial ``run_policy`` loop over
  the SoA state, with the interpreter overhead (method dispatch,
  dataclass construction, per-request object traffic) shaved off.  It
  executes exactly the floating-point operations of the serial path, in
  the same order, against the same live Python objects, so equality to
  ``run_policy`` is structural, not coincidental.
* ``cext`` (:mod:`.engine_c`) — a compiled C kernel (built on demand
  with the system C compiler) that owns the whole tick loop between
  *barriers*: network inference on an action-memo miss and the periodic
  training event stay in Python, executing the identical serial code
  paths, while everything else — PCG64 exploration draws, feature
  binning, device latency models, LRU eviction, replay dedup — runs in
  C with bit-identical arithmetic.  Its Python/C interface is declared
  once, in :mod:`.abi`.

Backend selection goes through the ``SIBYL_BACKEND`` knob (parsed by
:func:`repro.sim.lanes.resolve_choice_env`):

* ``auto`` (default) — compiled kernel if the toolchain can build it,
  else **silently** the NumPy engine (the fallback must never change
  results, only wall-clock);
* ``numpy`` — force the reference engine;
* ``cext`` — require the compiled kernel (raises if unavailable);
* ``off`` — disable the SoA engine; lanes run through the lockstep
  batched engine of :mod:`repro.sim.lanes` unchanged.

Either way, results are bit-identical to serial ``run_policy`` — the
same contract the lockstep engine carries, asserted by
``tests/sim/test_soa.py``.
"""

from __future__ import annotations

from typing import List, Optional

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "resolve_backend",
    "get_backend",
    "kernel_eligible",
    "run_kernel_lanes",
]

#: Environment knob: which tick-engine backend ``run_lanes`` uses for
#: eligible Sibyl lanes (``auto`` / ``numpy`` / ``cext`` / ``off``).
BACKEND_ENV = "SIBYL_BACKEND"

#: The valid ``SIBYL_BACKEND`` values.
BACKENDS = ("auto", "numpy", "cext", "off")


def resolve_backend(default: str = "auto") -> str:
    """The backend name from ``SIBYL_BACKEND`` (validated, lowered)."""
    from ..lanes import resolve_choice_env

    return resolve_choice_env(BACKEND_ENV, default, BACKENDS)


def get_backend(name: Optional[str] = None) -> Optional[str]:
    """Resolve ``name`` (or the environment) to a concrete engine.

    Returns ``"numpy"``, ``"cext"``, or ``None`` (= engine disabled).
    ``auto`` probes the compiled kernel and falls back to the NumPy
    engine *silently* — by contract the two are bit-identical, so the
    fallback can never change a result, only wall-clock time.  An
    explicit ``cext`` request raises when the kernel cannot be built,
    because the caller asked for a specific implementation.
    """
    if name is None:
        name = resolve_backend()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; valid: {', '.join(BACKENDS)}"
        )
    if name == "off":
        return None
    if name == "numpy":
        return "numpy"
    from . import engine_c

    if engine_c.available():
        return "cext"
    if name == "cext":
        raise RuntimeError(
            "SIBYL_BACKEND=cext requested but the compiled kernel is "
            f"unavailable: {engine_c.unavailable_reason()}"
        )
    return "numpy"  # auto: silent reference fallback


def kernel_eligible(run) -> bool:
    """True when ``run`` matches the configuration the kernels compile.

    The SoA engines implement the paper's default configuration: a
    :class:`~repro.core.agent.SibylAgent` with the full feature set and
    the Eq. 1 latency reward, on a two-device HSS (SSD/HDD models) with
    a bounded fast device, an unbounded slow device, and LRU victim
    selection.  Anything else — feature ablations, tri-HSS, alternative
    rewards or selectors — takes the lockstep engine, which handles any
    policy.  The gate is deliberately exact (``type`` checks, not
    ``isinstance``): a subclass may override any hook the kernels
    inline.
    """
    from ...core.agent import SibylAgent
    from ...core.features import FEATURE_SETS
    from ...core.reward import LatencyReward
    from ...hss.eviction import LRUVictimSelector
    from ...hss.hdd import HDDDevice
    from ...hss.ssd import SSDDevice

    policy = run.policy
    if type(policy) is not SibylAgent:
        return False
    hss = run.hss
    if hss.n_devices != 2 or hss.capacity_pages[1] is not None:
        return False
    if hss.capacity_pages[0] is None:
        return False
    if type(hss.victim_selector) is not LRUVictimSelector:
        return False
    if any(type(d) not in (SSDDevice, HDDDevice) for d in hss.devices):
        return False
    if policy.extractor is None or policy.reward_fn is None:
        return False
    if policy.extractor.features is not FEATURE_SETS["all"]:
        return False
    if type(policy.reward_fn) is not LatencyReward:
        return False
    if policy.external_training or policy.train_pending:
        return False
    if len(policy.buffer) != 0 or run._index != 0:
        return False
    return True


def run_kernel_lanes(runs: List, backend: Optional[str] = None, sink=None) -> List:
    """Drive the eligible lanes of ``runs`` to completion; return the rest.

    ``backend`` overrides the environment knob.  With the engine
    disabled (``off``) every run is returned for the caller's lockstep
    path.  Lanes share no state, so they are executed one after another;
    each finishes bit-identical to a serial ``run_policy``.

    ``sink`` (an :class:`repro.obs.sink.ObservationSink`) receives the
    same tick-domain counters the lockstep engine emits — per-lane
    ``ticks``, one-row ``fused_forwards``/``fused_rows``,
    ``train_events`` — plus ``kernel_barriers``, the number of
    Python-boundary crossings (inference + train gates) the SoA engines
    paid.
    """
    engine = get_backend(backend)
    if engine is None:
        return list(runs)
    eligible = [run for run in runs if kernel_eligible(run)]
    if not eligible:
        return list(runs)
    if engine == "cext":
        from .engine_c import run_lanes_c as run_batch
    else:
        from .engine_numpy import run_lanes_numpy as run_batch
    run_batch(eligible, sink=sink)
    chosen = set(map(id, eligible))
    return [run for run in runs if id(run) not in chosen]
