"""The compiled tick engine: C hot loop, Python at the barriers.

``kernel.c`` owns the whole per-request tick — PCG64 exploration draws,
feature binning, the device latency models, LRU placement/eviction,
replay dedup — over flat arrays with dense page ids, and *suspends*
whenever serial semantics need Python:

* **inference barrier** — an action-memo miss; the caller runs
  ``inference_net.best_action`` on the mailed observation and re-enters
  (the kernel commits the memo entry and resumes mid-tick);
* **training gate** — ``seen % train_interval == 0`` with a full enough
  buffer; the caller mirrors the replay/memo state onto the live Python
  objects, drives the agent's own ``train_begin``/``train_commit``
  (identical serial code), writes the refreshed action memo back, and
  re-enters.

Everything the serial path would have mutated — RNG state, replay
contents and caches, action memo, page table, tracker, device state and
stats — is reconstructed on the live objects at the end, so the result
(and all post-run state) is bit-identical to serial ``run_policy``.
The NumPy reference proves the arithmetic; this engine re-executes it
in C with the same operations in the same order (``-ffp-contract=off``
keeps the compiler from fusing them).

The shared library is built on demand with the system C compiler into a
gitignored cache keyed by the hash of ``kernel.c`` plus the ABI header
generated from :mod:`.abi`; when no toolchain is available the backend
reports itself unavailable and ``auto`` falls back to the NumPy engine.
A cached library whose ABI digest disagrees with the table raises
instead (see :func:`_load`).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from collections import OrderedDict
from typing import List, Optional

import numpy as np

from ...hss.hdd import HDDDevice
from ...hss.ssd import SSDDevice
from ...obs.tracer import span as _span
from . import abi
from .abi import CD, CI, DD, DI, HD, HI, ST
from .soa import LaneSoA, TraceSoA

__all__ = ["available", "unavailable_reason", "run_lanes_c", "run_one_c"]

_MEMO_CAP = 1 << 16
_U64 = (1 << 64) - 1

# ------------------------------------------------------------- build
_lib = None
_build_error: Optional[str] = None
_BUILD_DIR = os.path.join(os.path.dirname(__file__), "_build")


class _BuildError(Exception):
    """No usable kernel binary: ``auto`` falls back to NumPy."""


def _source_path() -> str:
    return os.path.join(os.path.dirname(__file__), "kernel.c")


def _prune_stale_builds(build_dir: str, keep: str) -> None:
    """Remove content-hashed kernel binaries other than ``keep``.

    Every kernel.c or ABI-table edit produces a new ``kernel-<hash>.so``;
    without this, ``_build/`` accumulates one orphan per edit forever.
    In-flight temp builds (``tmp*`` from :func:`tempfile.mkdtemp`) never
    match the ``kernel-*.so`` pattern, so concurrent builders are safe.
    Failures are ignored: pruning is a courtesy, not a correctness step.
    """
    try:
        names = sorted(os.listdir(build_dir))
    except OSError:
        return
    for name in names:
        if (
            name.startswith("kernel-")
            and name.endswith(".so")
            and name != keep
        ):
            try:
                os.unlink(os.path.join(build_dir, name))
            except OSError:
                pass


def _so_path(header: str) -> str:
    """The cache path of the kernel built against ``header``."""
    try:
        with open(_source_path(), "rb") as fh:
            code = fh.read()
    except OSError as exc:
        raise _BuildError(f"kernel source unreadable: {exc}") from exc
    digest = hashlib.sha256(code + header.encode()).hexdigest()[:16]
    return os.path.join(_BUILD_DIR, f"kernel-{digest}.so")


def _build(header: str) -> str:
    """Compile ``kernel.c`` against ``header`` (the generated
    ``kernel_abi.h``) unless cached; return the ``.so`` path."""
    so_path = _so_path(header)
    if os.path.exists(so_path):
        return so_path
    try:
        os.makedirs(_BUILD_DIR, exist_ok=True)
        # Build in a private temp dir (header + .so) then rename, so
        # concurrent builders never load a half-written library.
        tmp_dir = tempfile.mkdtemp(dir=_BUILD_DIR)
        try:
            with open(os.path.join(tmp_dir, "kernel_abi.h"), "w") as fh:
                fh.write(header)
            tmp_so = os.path.join(tmp_dir, "kernel.so")
            cmd = [
                "gcc", "-O2", "-shared", "-fPIC", "-ffp-contract=off",
                "-I", tmp_dir, "-o", tmp_so, _source_path(), "-lm",
            ]
            with _span("kernel.build", cat="kernel", so=os.path.basename(so_path)):
                proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                raise _BuildError(f"compiler failed: {proc.stderr.strip()[:500]}")
            os.replace(tmp_so, so_path)
        finally:
            shutil.rmtree(tmp_dir, ignore_errors=True)
    except (OSError, subprocess.SubprocessError) as exc:
        raise _BuildError(f"build failed: {exc}") from exc
    _prune_stale_builds(_BUILD_DIR, os.path.basename(so_path))
    return so_path


def _load() -> Optional[ctypes.CDLL]:
    """Build (if needed) and load the kernel; None when unavailable.

    Raises ``RuntimeError`` when the cached library reports a different
    ABI digest than this table: that is a corrupt build cache, not a
    missing toolchain, so it must not fall back silently.
    """
    global _lib, _build_error
    if _lib is not None or _build_error is not None:
        return _lib
    try:
        so_path = _build(abi.header())
    except _BuildError as exc:
        _build_error = str(exc)
        return None
    try:
        lib = ctypes.CDLL(so_path)
    except OSError as exc:
        _build_error = f"load failed: {exc}"
        return None
    want = abi.digest()
    try:
        lib.sib_abi.restype = ctypes.c_char_p
        lib.sib_abi.argtypes = []
        got = lib.sib_abi().decode()
    except AttributeError:
        got = "none (no sib_abi export)"
    if got != want:
        raise RuntimeError(
            f"kernel ABI mismatch: {so_path} reports table digest {got}, "
            f"abi.py declares {want}; delete the stale build"
        )
    lib.sib_run.restype = ctypes.c_longlong
    lib.sib_run.argtypes = [ctypes.POINTER(ctypes.c_void_p)]
    _lib = lib
    return _lib


def available() -> bool:
    """Whether the compiled kernel can be (or has been) built."""
    return _load() is not None


def unavailable_reason() -> str:
    """Why :func:`available` is False (empty string when it isn't)."""
    if _load() is not None:
        return ""
    return _build_error or "unknown"


# ------------------------------------------------------------- helpers
def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def _rng_state_to_words(rng: np.random.Generator, words: np.ndarray) -> np.ndarray:
    st = rng.bit_generator.state
    s, inc = st["state"]["state"], st["state"]["inc"]
    words[:] = [
        (s >> 64) & _U64, s & _U64, (inc >> 64) & _U64, inc & _U64,
        int(st["has_uint32"]), int(st["uinteger"]),
    ]
    return words


def _rng_words_to_state(rng: np.random.Generator, words: np.ndarray) -> None:
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {
            "state": (int(words[0]) << 64) | int(words[1]),
            "inc": (int(words[2]) << 64) | int(words[3]),
        },
        "has_uint32": int(words[4]),
        "uinteger": int(words[5]),
    }


def _kernel_ready(run, trace: TraceSoA) -> bool:
    """Per-run preconditions beyond ``kernel_eligible``.

    The kernel assumes the cold-start state its flat mirrors encode: an
    empty page table/tracker/memo/replay and a PCG64 agent generator.
    Anything else (a resumed run, an exotic bit generator) silently
    takes the NumPy reference — same results, Python speed.
    """
    policy = run.policy
    hss = run.hss
    if trace.n == 0:
        return False
    if type(policy.rng.bit_generator).__name__ != "PCG64":
        return False
    if hss.table._location or hss.tracker._count or hss.tracker._last_access:
        return False
    if policy._pending is not None or policy._requests_seen != 0:
        return False
    if policy._action_cache or policy._cache_obs:
        return False
    buf = policy.buffer
    if buf._obs is not None or buf._free or buf._total_added != 0:
        return False
    if hss.slowest != 1 or policy.hyperparams.train_interval < 1:
        return False
    counts = policy.action_counts
    if (
        not isinstance(counts, np.ndarray)
        or counts.dtype != abi.DTYPES["action_counts"]
        or not counts.flags["C_CONTIGUOUS"]
    ):
        return False
    return True


def _seed_device(run, d: int, dd: np.ndarray, di: np.ndarray) -> None:
    """Mirror device ``d``'s model constants and live state into the
    kernel's flat blocks (exactly the values ``_device_access`` hoists)."""
    hss = run.hss
    dev = hss.devices[d]
    spec = dev.spec
    stats = dev.stats
    drow = dd[d * DD.stride:]
    irow = di[d * DI.stride:]
    drow[DD.NEXT_FREE] = dev._next_free_s
    drow[DD.BUSY] = stats.busy_time_s
    drow[DD.QWAIT] = stats.queue_wait_s
    drow[DD.UTIL] = getattr(dev, "utilization", 0.0)
    drow[DD.GC_TIME] = stats.gc_time_s
    drow[DD.ROVER] = spec.read_overhead_s
    drow[DD.WOVER] = spec.write_overhead_s
    drow[DD.RBW] = spec.read_bandwidth_bps
    drow[DD.WBW] = spec.write_bandwidth_bps
    drow[DD.BI] = dev.background_interference
    irow[DI.READS] = stats.reads
    irow[DI.WRITES] = stats.writes
    irow[DI.PR] = stats.pages_read
    irow[DI.PW] = stats.pages_written
    irow[DI.GC_EVENTS] = stats.gc_events
    ssd = hss._ssd[d]
    irow[DI.HAS_UTIL] = 0 if ssd is None else 1
    irow[DI.UTIL_CAP] = 1 if ssd is None else hss._util_cap[d]
    if isinstance(dev, HDDDevice):
        config = dev.config
        irow[DI.TYPE] = 1
        drow[DD.AVG_ROT] = config.avg_rotational_s
        drow[DD.MIN_SEEK] = config.min_seek_s
        drow[DD.SEEK_SPAN] = config.max_seek_s - config.min_seek_s
        irow[DI.HEAD] = dev._head_page
        irow[DI.TARGET] = dev.target_page
        irow[DI.SEQWIN] = config.sequential_window_pages
        irow[DI.TRACKSPAN] = config.track_span_pages
        irow[DI.CAPPAGES] = max(1, spec.capacity_pages)
    else:
        config = dev.config
        irow[DI.TYPE] = 0
        drow[DD.READ1] = dev._read_1pg_s
        drow[DD.GC_THRESH] = config.gc_threshold
        drow[DD.GC_LAT] = config.gc_latency_s
        drow[DD.GC_DENOM] = max(1e-9, 1.0 - config.gc_threshold)
        drow[DD.BUF_LAT] = config.buffered_write_latency_s
        drow[DD.TR_UNIT] = 4096.0 / spec.write_bandwidth_bps
        drow[DD.BUF_OCC] = dev._buffer_occupancy
        drow[DD.BUF_LAST] = dev._buffer_last_drain_s
        irow[DI.WSG] = dev._writes_since_gc
        irow[DI.BUFFERED] = stats.buffered_writes
        irow[DI.GC_TRIG] = config.gc_trigger_pages
        irow[DI.BUF_PAGES] = config.buffer_pages


def _writeback_device(run, d: int, dd: np.ndarray, di: np.ndarray) -> None:
    hss = run.hss
    dev = hss.devices[d]
    stats = dev.stats
    drow = dd[d * DD.stride:]
    irow = di[d * DI.stride:]
    dev._next_free_s = float(drow[DD.NEXT_FREE])
    stats.busy_time_s = float(drow[DD.BUSY])
    stats.queue_wait_s = float(drow[DD.QWAIT])
    stats.gc_time_s = float(drow[DD.GC_TIME])
    stats.reads = int(irow[DI.READS])
    stats.writes = int(irow[DI.WRITES])
    stats.pages_read = int(irow[DI.PR])
    stats.pages_written = int(irow[DI.PW])
    stats.gc_events = int(irow[DI.GC_EVENTS])
    if isinstance(dev, HDDDevice):
        dev._head_page = int(irow[DI.HEAD])
        dev.target_page = int(irow[DI.TARGET])
    else:
        dev._buffer_occupancy = float(drow[DD.BUF_OCC])
        dev._buffer_last_drain_s = float(drow[DD.BUF_LAST])
        dev._writes_since_gc = int(irow[DI.WSG])
        stats.buffered_writes = int(irow[DI.BUFFERED])
    if isinstance(dev, SSDDevice):
        dev.utilization = float(drow[DD.UTIL])


class _KernelRun:
    """One lane's kernel state: the arrays, the pointer table, the
    Python-side barrier handlers."""

    def __init__(self, run, trace: TraceSoA) -> None:
        self.run = run
        self.policy = policy = run.policy
        self.hss = hss = run.hss
        self.trace = trace
        n = trace.n

        uniq = trace.touched_pages()
        self.uniq = uniq
        n_pages = len(uniq)
        dpage = np.searchsorted(uniq, trace.pages).astype(abi.DTYPES["dpage"])

        buf = policy.buffer
        cap = buf.capacity
        # Preallocate the buffer's own storage at full capacity; the
        # kernel writes rows in place, so training-time gathers read
        # the live arrays.  (The serial path grows these geometrically;
        # the final export trims back to the serial length.)
        buf._obs = abi.array("rb_obs", (cap, 6))
        buf._next_obs = abi.array("rb_nobs", (cap, 6))
        buf._actions = abi.array("rb_act", cap)
        buf._rewards = abi.array("rb_rew", cap)
        buf._mult = abi.array("rb_mult", cap)
        rb_hashcap = _next_pow2(max(64, 2 * cap))

        hp = policy.hyperparams
        spec = policy.extractor.spec
        reward_fn = policy.reward_fn

        ci = abi.array("ci", len(CI))
        cd = abi.array("cd", len(CD))
        ci[CI.I] = 0
        ci[CI.NTOTAL] = n
        ci[CI.WARMUP] = run._warmup_end
        ci[CI.SEEN] = policy._requests_seen
        ci[CI.TRAIN_INT] = hp.train_interval
        ci[CI.BATCH] = hp.batch_size
        ci[CI.INIT_RAND] = hp.initial_random_requests
        ci[CI.CLOCK] = hss.tracker._clock
        ci[CI.CAP0] = hss.capacity_pages[0]
        ci[CI.SLACK] = hss.eviction_slack_pages
        ci[CI.HEAD0] = ci[CI.TAIL0] = ci[CI.HEAD1] = ci[CI.TAIL1] = -1
        ci[CI.RB_CAP] = cap
        ci[CI.RB_HEAD] = ci[CI.RB_TAIL] = -1
        ci[CI.RB_HASHCAP] = rb_hashcap
        ci[CI.MEMO_CAP] = _MEMO_CAP
        ci[CI.MEMO_HASHCAP] = _MEMO_CAP * 2
        ci[CI.SIZE_BINS] = spec.size_bins
        ci[CI.INTR_BINS] = spec.intr_bins
        ci[CI.CNT_BINS] = spec.cnt_bins
        ci[CI.CAP_BINS] = spec.cap_bins
        ci[CI.NDEV] = hss.n_devices
        cd[CD.COMPLETION] = run._completion_s
        cd[CD.EPS] = hp.exploration_rate
        cd[CD.UNIT] = reward_fn.unit_latency_s
        cd[CD.EVICT_COEF] = reward_fn.eviction_penalty_coefficient
        cd[CD.MAX_REWARD] = reward_fn.max_reward

        dd = abi.array("dd", 2 * DD.stride)
        di = abi.array("di", 2 * DI.stride)
        for d in range(2):
            _seed_device(run, d, dd, di)

        hi = abi.array("hi", len(HI))
        stats = hss.stats
        hi[HI.REQUESTS] = stats.requests
        hi[HI.READS] = stats.reads
        hi[HI.WRITES] = stats.writes
        hi[HI.PROMOTED] = stats.promoted_pages
        hi[HI.DEMOTED] = stats.demoted_pages
        hi[HI.EVENTS] = stats.eviction_events
        hi[HI.EVICTED] = stats.evicted_pages
        hi[HI.PLACE0] = stats.placements[0]
        hi[HI.PLACE1] = stats.placements[1]
        hd = abi.array("hd", len(HD))
        hd[HD.TOTAL_LAT] = stats.total_latency_s
        hd[HD.EVICT_TIME] = stats.eviction_time_s
        hd[HD.LAST_COMPLETION] = stats.last_completion_s

        self.arrays = {
            "ci": ci,
            "cd": cd,
            "ts": np.ascontiguousarray(trace.timestamps),
            "op": np.ascontiguousarray(trace.ops),
            "dpage": dpage,
            "size": np.ascontiguousarray(trace.sizes),
            "uniq": uniq,
            "loc": abi.array("loc", n_pages, -1),
            "lprev": abi.array("lprev", n_pages, -1),
            "lnext": abi.array("lnext", n_pages, -1),
            "cnt": abi.array("cnt", n_pages),
            "last": abi.array("last", n_pages, -1),
            "maxima": np.ascontiguousarray(
                policy.extractor._maxima_arr, dtype=abi.DTYPES["maxima"]
            ),
            "obs_mail": abi.array("obs_mail", 6),
            "pend_obs": abi.array("pend_obs", 6),
            "pend_key": abi.array("pend_key", 24),
            "action_counts": np.asarray(policy.action_counts),
            "rngst": _rng_state_to_words(policy.rng, abi.array("rngst", 6)),
            "rb_obs": buf._obs,
            "rb_nobs": buf._next_obs,
            "rb_act": buf._actions,
            "rb_rew": buf._rewards,
            "rb_mult": buf._mult,
            "rb_keys": abi.array("rb_keys", cap * 51),
            "rb_hash": abi.array("rb_hash", rb_hashcap, -1),
            "rb_fprev": abi.array("rb_fprev", cap, -1),
            "rb_fnext": abi.array("rb_fnext", cap, -1),
            "rb_free": abi.array("rb_free", cap),
            "rb_order": abi.array("rb_order", cap),
            "memo_keys": abi.array("memo_keys", _MEMO_CAP * 24),
            "memo_obs": abi.array("memo_obs", (_MEMO_CAP, 6)),
            "memo_act": abi.array("memo_act", _MEMO_CAP),
            "memo_hash": abi.array("memo_hash", _MEMO_CAP * 2, -1),
            "dd": dd,
            "di": di,
            "hi": hi,
            "hd": hd,
            "victims": abi.array("victims", n_pages + 1),
            "vsort": abi.array("vsort", n_pages + 1),
        }
        self.ptrs = abi.pack(self.arrays)

        self.ci = ci
        self.cd = cd
        self.dd = dd
        self.di = di
        self.hi = hi
        self.hd = hd
        self.gate_total: Optional[int] = None

    # ------------------------------------------------------- barriers
    def _slot_key(self, slot: int) -> bytes:
        keys = self.arrays["rb_keys"]
        return bytes(keys[slot * 51:(slot + 1) * 51])

    def _rebuild_entries(self) -> None:
        """Mirror the kernel's FIFO onto ``buffer._entries`` (the dedup
        map in insertion order), exactly as the serial adds left it."""
        buf = self.policy.buffer
        order = self.arrays["rb_order"][: int(self.ci[CI.ORDER_N])]
        entries: "OrderedDict[bytes, int]" = OrderedDict()
        for slot in order.tolist():
            entries[self._slot_key(slot)] = slot
        buf._entries = entries
        buf._order_cache = None
        buf._cdf_cache = None

    def _export_memo(self) -> None:
        """Mirror the kernel's action memo onto the agent's dicts, in
        insertion order (``_refresh_action_cache`` iterates it)."""
        policy = self.policy
        n = int(self.ci[CI.MEMO_N])
        keys = self.arrays["memo_keys"]
        obs = self.arrays["memo_obs"]
        act = self.arrays["memo_act"]
        memo = {}
        cache_obs = {}
        for k in range(n):
            key = bytes(keys[k * 24:(k + 1) * 24])
            memo[key] = int(act[k])
            cache_obs[key] = obs[k].copy()
        policy._action_cache = memo
        policy._cache_obs = cache_obs

    def _import_memo_actions(self) -> None:
        """Write the post-training action memo back into the kernel."""
        policy = self.policy
        n = int(self.ci[CI.MEMO_N])
        cache = policy._action_cache
        if len(cache) == n and n > 0:
            memo_act = self.arrays["memo_act"]
            memo_act[:n] = np.fromiter(cache.values(), dtype=memo_act.dtype, count=n)
        elif not cache:
            # _refresh_action_cache cleared an oversized memo.
            self.ci[CI.MEMO_N] = 0
            self.arrays["memo_hash"].fill(-1)

    def handle_inference(self) -> None:
        obs = self.arrays["obs_mail"]
        self.ci[CI.ACTION] = int(self.policy.inference_net.best_action(obs))

    def handle_train_gate(self) -> None:
        policy = self.policy
        _rng_words_to_state(policy.rng, self.arrays["rngst"])
        self._rebuild_entries()
        self._export_memo()
        self.gate_total = int(self.ci[CI.RB_TOTAL])
        policy.train_begin()
        policy.train_commit()
        self._import_memo_actions()
        _rng_state_to_words(policy.rng, self.arrays["rngst"])

    # -------------------------------------------------------- export
    def _trim_buffer_arrays(self) -> None:
        """Shrink the preallocated storage to the serial length (the
        geometric-growth schedule of ``_allocate``/``_grow``)."""
        buf = self.policy.buffer
        cap = buf.capacity
        slot_hi = int(self.ci[CI.RB_SLOT_HI])
        length = min(cap, 1024)
        while length < slot_hi:
            length = min(cap, 2 * length)
        if length < cap:
            for name in ("_obs", "_next_obs", "_actions", "_rewards", "_mult"):
                arr = getattr(buf, name)
                setattr(buf, name, arr[:length].copy())

    def export(self, lanes: Optional[LaneSoA], lane: int) -> None:
        run = self.run
        policy = self.policy
        hss = self.hss
        ci, cd = self.ci, self.cd

        run._completion_s = float(cd[CD.COMPLETION])
        run._index = int(ci[CI.NTOTAL])
        run.finished = True

        _rng_words_to_state(policy.rng, self.arrays["rngst"])
        policy._requests_seen = int(ci[CI.SEEN])
        if ci[CI.PENDING]:
            policy._pending = (
                self.arrays["pend_obs"].copy(),
                int(ci[CI.PEND_ACTION]),
                float(cd[CD.PEND_REWARD]),
                bytes(self.arrays["pend_key"]),
            )
        else:
            policy._pending = None
        self._export_memo()

        buf = policy.buffer
        self._rebuild_entries()
        buf._free = self.arrays["rb_free"][: int(ci[CI.RB_FREE_N])].tolist()
        buf._total_added = int(ci[CI.RB_TOTAL])
        if self.gate_total is not None and buf._total_added == self.gate_total:
            # No mutation since the last training event: the serial
            # buffer still holds the caches that event's sampling
            # built.  Reproduce them through the same code path.
            if buf._entries:
                buf.sample_slots(1, rng=np.random.default_rng(0))
        self._trim_buffer_arrays()

        tracker = hss.tracker
        uniq = self.uniq
        cnt = self.arrays["cnt"]
        last = self.arrays["last"]
        touched = np.nonzero(last >= 0)[0]
        pages = uniq[touched].tolist()
        tracker._count = dict(zip(pages, cnt[touched].tolist()))
        tracker._last_access = dict(zip(pages, last[touched].tolist()))
        tracker._clock = int(ci[CI.CLOCK])

        table = hss.table
        loc = self.arrays["loc"]
        lnext = self.arrays["lnext"]
        mapped = np.nonzero(loc >= 0)[0]
        table._location = dict(
            zip(uniq[mapped].tolist(), loc[mapped].astype(int).tolist())
        )
        for d in range(2):
            resident = table._resident[d]
            resident.clear()
            p = int(ci[CI.HEAD0 + 2 * d])
            while p >= 0:
                resident[int(uniq[p])] = None
                p = int(lnext[p])

        stats = hss.stats
        hi, hd = self.hi, self.hd
        stats.requests = int(hi[HI.REQUESTS])
        stats.reads = int(hi[HI.READS])
        stats.writes = int(hi[HI.WRITES])
        stats.promoted_pages = int(hi[HI.PROMOTED])
        stats.demoted_pages = int(hi[HI.DEMOTED])
        stats.eviction_events = int(hi[HI.EVENTS])
        stats.evicted_pages = int(hi[HI.EVICTED])
        stats.placements = [int(hi[HI.PLACE0]), int(hi[HI.PLACE1])]
        stats.total_latency_s = float(hd[HD.TOTAL_LAT])
        stats.eviction_time_s = float(hd[HD.EVICT_TIME])
        stats.last_completion_s = float(hd[HD.LAST_COMPLETION])

        for d in range(2):
            _writeback_device(run, d, self.dd, self.di)

        if lanes is not None:
            lanes.snapshot(lane, run, float(cd[CD.REWARD_SUM]))


def run_one_c(
    run, lanes: Optional[LaneSoA] = None, lane: int = 0, sink=None
) -> None:
    """Drive one eligible ``PolicyRun`` to completion through the
    compiled kernel, bit-identically to serial ``run_policy``.

    ``sink`` receives the engine counters (see ``run_kernel_lanes``);
    the barrier statuses the C loop returns are counted for free in the
    dispatch loop below, so ``kernel_barriers`` prices the Python
    boundary exactly.
    """
    lib = _load()
    trace = TraceSoA.from_run(run)
    if lib is None or not _kernel_ready(run, trace):
        from .engine_numpy import run_one_numpy

        run._iter = iter(trace.requests)
        run_one_numpy(run, lanes=lanes, lane=lane, sink=sink)
        return

    state = _KernelRun(run, trace)
    n_inference = 0
    n_train = 0
    with _span("kernel.invoke", cat="kernel", lane=lane, requests=trace.n):
        while True:
            status = lib.sib_run(state.ptrs)
            if status == ST.DONE:
                break
            if status == ST.NEED_INFERENCE:
                n_inference += 1
                state.handle_inference()
            elif status == ST.TRAIN_GATE:
                n_train += 1
                state.handle_train_gate()
            else:
                raise RuntimeError(
                    "compiled tick kernel aborted "
                    f"(err={int(state.ci[CI.ERR])}, i={int(state.ci[CI.I])})"
                )
    state.export(lanes, lane)
    if sink is not None:
        sink.count("ticks", trace.n)
        if n_inference:
            sink.count("fused_forwards", n_inference)
            sink.count("fused_rows", n_inference)
            sink.record_max("max_fused_rows", 1)
        sink.count("train_events", n_train)
        sink.count("kernel_barriers", n_inference + n_train)


def run_lanes_c(runs: List, lanes: Optional[LaneSoA] = None, sink=None) -> LaneSoA:
    """Drive every run to completion through the compiled engine."""
    if lanes is None:
        lanes = LaneSoA.for_runs(runs)
    for lane, run in enumerate(runs):
        run_one_c(run, lanes=lanes, lane=lane, sink=sink)
    return lanes
