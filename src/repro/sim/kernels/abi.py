"""The compiled kernel's ABI, declared once.

``kernel.c`` and :mod:`.engine_c` meet at one ``void **`` table of
array pointers; a few of those arrays are control and stats blocks
indexed by named slots.  Everything both sides must agree on is the
table below:

* :data:`SLOTS` — the pointer-table rows: C enum name, ``S`` struct
  field, NumPy dtype (the C element type follows from it) and
  const-ness;
* :data:`CI`, :data:`CD`, :data:`HI`, :data:`HD` — the control and
  HSS-stats blocks; :data:`DD`, :data:`DI` — the per-device blocks,
  laid out at a fixed stride; :data:`ST` — ``sib_run``'s status codes.

:func:`header` renders them as ``kernel_abi.h`` (enums, ``typedef
struct S`` and its ``sib_unpack`` from ``void **p``), which the build
writes beside the temporary ``.so`` and ``kernel.c`` includes;
:func:`pack` fills the pointer table from the same rows, checking each
array.  The compiled ``sib_abi()`` returns the :func:`digest` baked into
its header, so a library built from another table refuses to load.
Extending the kernel's envelope is adding a row here.
"""

from __future__ import annotations

import ctypes
import hashlib
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Slot", "Block", "SLOTS", "CI", "CD", "DD", "DI", "HI", "HD", "ST",
    "BLOCKS", "DTYPES", "array", "pack", "header", "digest",
]


class Slot(NamedTuple):
    """One pointer-table entry."""

    name: str  # C index enum (``P_*``)
    field: str  # ``S`` member in C, array key in :func:`pack`
    dtype: type
    const: bool = False  # the kernel only reads it


class Block:
    """One C enum: member ``NAME`` is ``<prefix>_NAME``, its position.

    Members are plain ``int`` attributes (``CI.NTOTAL``); ``len(block)``
    is the ``<prefix>_LEN`` sentinel.  A strided block repeats once per
    device at ``<prefix>_STRIDE`` and must fit inside it.
    """

    def __init__(self, prefix: str, names: str, stride: Optional[int] = None) -> None:
        self.prefix = prefix
        self.names = tuple(names.split())
        self.stride = stride
        for k, name in enumerate(self.names):
            setattr(self, name, k)

    def __len__(self) -> int:
        return len(self.names)


SLOTS: Tuple[Slot, ...] = (
    Slot("P_CTRL_I", "ci", np.int64),
    Slot("P_CTRL_D", "cd", np.float64),
    Slot("P_TS", "ts", np.float64, const=True),
    Slot("P_OP", "op", np.uint8, const=True),
    Slot("P_DPAGE", "dpage", np.int64, const=True),
    Slot("P_SIZE", "size", np.int64, const=True),
    Slot("P_UNIQ", "uniq", np.int64, const=True),
    Slot("P_LOC", "loc", np.int8),
    Slot("P_LRU_PREV", "lprev", np.int32),
    Slot("P_LRU_NEXT", "lnext", np.int32),
    Slot("P_CNT", "cnt", np.int64),
    Slot("P_LAST", "last", np.int64),
    Slot("P_MAXIMA", "maxima", np.float64, const=True),
    Slot("P_OBS_MAIL", "obs_mail", np.float64),
    Slot("P_PEND_OBS", "pend_obs", np.float64),
    Slot("P_PEND_KEY", "pend_key", np.uint8),
    Slot("P_ACTION_COUNTS", "action_counts", np.int64),
    Slot("P_RNG", "rngst", np.uint64),
    Slot("P_RB_OBS", "rb_obs", np.float64),
    Slot("P_RB_NOBS", "rb_nobs", np.float64),
    Slot("P_RB_ACT", "rb_act", np.int64),
    Slot("P_RB_REW", "rb_rew", np.float64),
    Slot("P_RB_MULT", "rb_mult", np.float64),
    Slot("P_RB_KEYS", "rb_keys", np.uint8),
    Slot("P_RB_HASH", "rb_hash", np.int32),
    Slot("P_RB_FPREV", "rb_fprev", np.int32),
    Slot("P_RB_FNEXT", "rb_fnext", np.int32),
    Slot("P_RB_FREE", "rb_free", np.int32),
    Slot("P_RB_ORDER", "rb_order", np.int64),
    Slot("P_MEMO_KEYS", "memo_keys", np.uint8),
    Slot("P_MEMO_OBS", "memo_obs", np.float64),
    Slot("P_MEMO_ACT", "memo_act", np.int32),
    Slot("P_MEMO_HASH", "memo_hash", np.int32),
    Slot("P_DEV_D", "dd", np.float64),
    Slot("P_DEV_I", "di", np.int64),
    Slot("P_HSS_I", "hi", np.int64),
    Slot("P_HSS_D", "hd", np.float64),
    Slot("P_VICTIMS", "victims", np.int32),
    Slot("P_VSORT", "vsort", np.int32),
)

#: ``ctrl_i`` slots.
CI = Block("CI", """
    STATUS I RESUMED NTOTAL WARMUP SEEN
    TRAIN_INT BATCH INIT_RAND CLOCK CAP0 SLACK
    RES0 RES1 HEAD0 TAIL0 HEAD1 TAIL1
    PENDING PEND_ACTION
    RB_CAP RB_NENT RB_HEAD RB_TAIL RB_FREE_N
    RB_TOMB RB_HASHCAP RB_TOTAL RB_SLOT_HI
    MEMO_N MEMO_CAP MEMO_HASHCAP
    ACTION ERR ORDER_N
    SIZE_BINS INTR_BINS CNT_BINS CAP_BINS NDEV
""")
#: ``ctrl_d`` slots.
CD = Block("CD", """
    COMPLETION REWARD_SUM EPS UNIT EVICT_COEF MAX_REWARD PEND_REWARD
""")
#: Per-device f64 block.
DD = Block("DD", """
    NEXT_FREE BUSY QWAIT UTIL GC_TIME
    ROVER WOVER RBW WBW BI
    READ1 GC_THRESH GC_LAT GC_DENOM BUF_LAT
    TR_UNIT BUF_OCC BUF_LAST
    AVG_ROT MIN_SEEK SEEK_SPAN
""", stride=32)
#: Per-device i64 block.
DI = Block("DI", """
    TYPE READS WRITES PR PW GC_EVENTS
    BUFFERED WSG HEAD TARGET GC_TRIG BUF_PAGES
    SEQWIN TRACKSPAN CAPPAGES HAS_UTIL UTIL_CAP
""", stride=24)
#: HSS stats, integer and float halves.
HI = Block("HI", """
    REQUESTS READS WRITES PROMOTED DEMOTED EVENTS EVICTED PLACE0 PLACE1
""")
HD = Block("HD", "TOTAL_LAT EVICT_TIME LAST_COMPLETION")
#: ``sib_run`` return codes.
ST = Block("ST", "DONE NEED_INFERENCE TRAIN_GATE ERROR")

BLOCKS: Tuple[Block, ...] = (CI, CD, DD, DI, HI, HD, ST)

_C_TYPES = {
    np.dtype(np.int8): "int8_t",
    np.dtype(np.uint8): "uint8_t",
    np.dtype(np.int32): "int32_t",
    np.dtype(np.int64): "int64_t",
    np.dtype(np.uint64): "uint64_t",
    np.dtype(np.float64): "double",
}

#: Slot field -> NumPy dtype.
DTYPES: Dict[str, np.dtype] = {slot.field: np.dtype(slot.dtype) for slot in SLOTS}


def array(field: str, shape, fill=0) -> np.ndarray:
    """A fresh array of slot ``field``'s dtype, filled with ``fill``.

    Zero fills stay lazy (``np.zeros``), so a large, mostly unused
    table such as the action memo costs no resident memory up front.
    """
    arr = np.zeros(shape, dtype=DTYPES[field])
    if fill:
        arr.fill(fill)
    return arr


def pack(arrays: Dict[str, np.ndarray], slots: Sequence[Slot] = SLOTS) -> ctypes.Array:
    """The ``void *`` table ``sib_run`` takes, one pointer per slot.

    ``arrays`` maps every slot's ``field`` to its array.  Raises
    ``ValueError`` naming the slot when an array is missing, unknown,
    of the wrong dtype or not C-contiguous — the kernel would otherwise
    read it with the wrong element size or stride.
    """
    unknown = sorted(set(arrays) - {slot.field for slot in slots})
    if unknown:
        raise ValueError(f"no kernel ABI slot for {', '.join(unknown)}")
    ptrs = (ctypes.c_void_p * len(slots))()
    for k, slot in enumerate(slots):
        arr = arrays.get(slot.field)
        where = f"kernel ABI slot {slot.name} ({slot.field})"
        if arr is None:
            raise ValueError(f"{where}: no array")
        if arr.dtype != slot.dtype:
            raise ValueError(f"{where}: dtype {arr.dtype}, expected {np.dtype(slot.dtype)}")
        if not arr.flags["C_CONTIGUOUS"]:
            raise ValueError(f"{where}: array is not C-contiguous")
        ptrs[k] = arr.ctypes.data
    return ptrs


def _enum(prefix: str, members: Sequence[str], stride: Optional[int] = None) -> str:
    lines = [f"    {name} = {k}," for k, name in enumerate(members)]
    lines.append(f"    {prefix}_LEN = {len(members)},")
    if stride is not None:
        if len(members) > stride:
            raise ValueError(
                f"ABI block {prefix}_* has {len(members)} members, "
                f"more than its stride {stride}"
            )
        lines.append(f"    {prefix}_STRIDE = {stride},")
    return "enum {\n" + "\n".join(lines) + "\n};\n"


def _body(slots: Sequence[Slot], blocks: Sequence[Block]) -> str:
    parts = [_enum("P", [slot.name for slot in slots])]
    parts += [
        _enum(block.prefix, [f"{block.prefix}_{name}" for name in block.names], block.stride)
        for block in blocks
    ]
    fields, unpack = [], []
    for slot in slots:
        ctype = ("const " if slot.const else "") + _C_TYPES[np.dtype(slot.dtype)]
        fields.append(f"    {ctype} *{slot.field};")
        unpack.append(f"    s->{slot.field} = ({ctype} *)p[{slot.name}];")
    parts.append("typedef struct {\n" + "\n".join(fields) + "\n} S;\n")
    parts.append(
        "static inline void sib_unpack(S *s, void **p) {\n"
        + "\n".join(unpack) + "\n}\n"
    )
    return "\n".join(parts)


def digest(slots: Sequence[Slot] = SLOTS, blocks: Sequence[Block] = BLOCKS) -> str:
    """Short content hash of the table, as ``sib_abi()`` reports it."""
    return hashlib.sha256(_body(slots, blocks).encode()).hexdigest()[:16]


def header(slots: Sequence[Slot] = SLOTS, blocks: Sequence[Block] = BLOCKS) -> str:
    """``kernel_abi.h`` for the table; raises if a strided block overflows."""
    return (
        "/* kernel_abi.h: generated from repro/sim/kernels/abi.py; do not edit. */\n"
        "#ifndef SIB_KERNEL_ABI_H\n#define SIB_KERNEL_ABI_H\n\n"
        "#include <stdint.h>\n\n"
        f'#define SIB_ABI_DIGEST "{digest(slots, blocks)}"\n\n'
        + _body(slots, blocks)
        + "\n#endif\n"
    )
