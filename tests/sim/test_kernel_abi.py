"""The kernel ABI table: generated header, checked pack, load-time digest.

``repro.sim.kernels.abi`` is the one declaration both ``kernel.c`` (via
the generated ``kernel_abi.h``) and ``engine_c`` (via ``abi.pack``) are
derived from.  These tests pin the three guards that stand in for a
static Python/C mirror check: a library built from another table refuses
to load, a mistyped or strided array cannot reach the kernel, and a
per-device block cannot outgrow its stride.
"""

import shutil

import numpy as np
import pytest

from repro.sim.kernels import abi, engine_c

requires_cext = pytest.mark.skipif(
    not engine_c.available(),
    reason=f"compiled kernel unavailable: {engine_c.unavailable_reason()}",
)


def _full_table():
    return {slot.field: np.zeros(4, dtype=slot.dtype) for slot in abi.SLOTS}


class TestLoadTimeDigest:
    @requires_cext
    def test_library_from_perturbed_table_refuses_to_load(self, tmp_path, monkeypatch):
        # Same names, two CI members swapped: kernel.c still compiles,
        # but every CI index would now address the wrong slot.
        names = list(abi.CI.names)
        names[1], names[2] = names[2], names[1]
        drifted = abi.Block("CI", " ".join(names))
        blocks = tuple(drifted if b is abi.CI else b for b in abi.BLOCKS)

        monkeypatch.setattr(engine_c, "_BUILD_DIR", str(tmp_path))
        monkeypatch.setattr(engine_c, "_lib", None)
        monkeypatch.setattr(engine_c, "_build_error", None)
        foreign = engine_c._build(abi.header(blocks=blocks))
        # Plant it where the real table's build is cached: a corrupt
        # cache entry, exactly what the load-time check exists for.
        cached = engine_c._so_path(abi.header())
        shutil.copy(foreign, cached)

        with pytest.raises(RuntimeError) as err:
            engine_c.available()
        message = str(err.value)
        assert abi.digest() in message
        assert abi.digest(blocks=blocks) in message
        assert cached in message
        assert engine_c._lib is None

    def test_digest_tracks_every_part_of_the_table(self):
        base = abi.digest()
        slots = list(abi.SLOTS)
        slots[7] = slots[7]._replace(dtype=np.int32)
        assert abi.digest(slots=slots) != base
        strided = abi.Block("DD", " ".join(abi.DD.names), stride=abi.DD.stride + 8)
        blocks = tuple(strided if b is abi.DD else b for b in abi.BLOCKS)
        assert abi.digest(blocks=blocks) != base
        assert f'"{base}"' in abi.header()


class TestPack:
    def test_well_formed_table_packs_in_slot_order(self):
        arrays = _full_table()
        ptrs = abi.pack(arrays)
        assert len(ptrs) == len(abi.SLOTS)
        for k, slot in enumerate(abi.SLOTS):
            assert ptrs[k] == arrays[slot.field].ctypes.data

    @pytest.mark.parametrize("slot", abi.SLOTS, ids=lambda s: s.name)
    def test_wrong_dtype_names_the_slot(self, slot):
        arrays = _full_table()
        wrong = np.float32 if np.dtype(slot.dtype) != np.float32 else np.int64
        arrays[slot.field] = np.zeros(4, dtype=wrong)
        with pytest.raises(ValueError, match=slot.name):
            abi.pack(arrays)

    @pytest.mark.parametrize("slot", abi.SLOTS, ids=lambda s: s.name)
    def test_non_contiguous_names_the_slot(self, slot):
        arrays = _full_table()
        arrays[slot.field] = np.zeros((4, 2), dtype=slot.dtype)[:, 0]
        with pytest.raises(ValueError, match=slot.name):
            abi.pack(arrays)

    def test_slot_count_mismatch_names_the_slot(self):
        arrays = _full_table()
        del arrays["vsort"]
        with pytest.raises(ValueError, match="P_VSORT"):
            abi.pack(arrays)
        arrays = _full_table()
        arrays["extra"] = np.zeros(4)
        with pytest.raises(ValueError, match="extra"):
            abi.pack(arrays)


class TestHeaderGenerator:
    @pytest.mark.parametrize("block", [abi.DD, abi.DI], ids=lambda b: b.prefix)
    def test_strided_block_outgrowing_its_stride_is_rejected(self, block):
        extra = " ".join(f"X{k}" for k in range(block.stride - len(block) + 1))
        grown = abi.Block(block.prefix, " ".join(block.names) + " " + extra,
                          stride=block.stride)
        blocks = tuple(grown if b is block else b for b in abi.BLOCKS)
        with pytest.raises(ValueError, match=f"{block.prefix}_.*stride {block.stride}"):
            abi.header(blocks=blocks)

    def test_block_filling_its_stride_exactly_is_accepted(self):
        extra = " ".join(f"X{k}" for k in range(abi.DI.stride - len(abi.DI)))
        full = abi.Block("DI", " ".join(abi.DI.names) + " " + extra,
                         stride=abi.DI.stride)
        blocks = tuple(full if b is abi.DI else b for b in abi.BLOCKS)
        assert f"DI_X0 = {len(abi.DI)}," in abi.header(blocks=blocks)
