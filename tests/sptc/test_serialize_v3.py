"""Artefact format v3: one read per array, ordinary arrays, required checksum.

Also pins the two content digests (payload checksum and adjacency
fingerprint) byte for byte, and fuzzes truncated and bit-flipped files
through both :func:`load_preprocessed` and :meth:`ArtifactCache.load`.
"""

import itertools
import struct
import zipfile

import numpy as np
import pytest

from repro.core import BitMatrix, VNMPattern, reorder
from repro.pipeline import ArtifactCache, ServingSession
from repro.pipeline import cache as cache_mod
from repro.pipeline.resilience import ArtifactCorruptError
from repro.sptc import CSRMatrix, HybridVNM
from repro.sptc import serialize
from repro.sptc.serialize import load_preprocessed, payload_checksum, save_preprocessed

PATTERN = VNMPattern(1, 2, 4)


def _graph(n=32, seed=3):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < 0.3
    mask = np.triu(mask, 1)
    mask |= mask.T
    return mask.astype(np.float64)


@pytest.fixture(scope="module")
def case():
    """A reordered graph whose 1:2:4 compression leaves a residual."""
    adj = _graph()
    perm = reorder(BitMatrix.from_dense(adj.astype(np.uint8)), PATTERN).permutation
    hybrid = HybridVNM.compress_csr(CSRMatrix.from_dense(perm.apply_to_matrix(adj)), PATTERN)
    assert hybrid.residual is not None and hybrid.residual.nnz > 0
    return adj, perm, hybrid


def _operand_arrays(operand) -> dict:
    main = operand.main if isinstance(operand, HybridVNM) else operand
    arrays = {name: getattr(main, name)
              for name in ("tile_ptr", "tile_seg", "col_ids", "values", "meta")}
    if isinstance(operand, HybridVNM) and operand.residual is not None:
        arrays.update(residual_indptr=operand.residual.indptr,
                      residual_indices=operand.residual.indices,
                      residual_data=operand.residual.data)
    return arrays


def _assert_bit_equal(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _serves_like_scipy(operand, perm, adj) -> bool:
    x = np.random.default_rng(4).integers(-8, 9, size=(adj.shape[1], 3)).astype(np.float64)
    return np.array_equal(ServingSession(operand, perm).spmm(x), adj @ x)


class TestLoadPath:
    def test_each_member_read_once(self, case, tmp_path, monkeypatch):
        _, perm, hybrid = case
        path = tmp_path / "a.npz"
        save_preprocessed(path, operand=hybrid, permutation=perm)
        reads: list[str] = []
        getitem = np.lib.npyio.NpzFile.__getitem__

        def spy(self, key):
            reads.append(key)
            return getitem(self, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", spy)
        load_preprocessed(path)
        with zipfile.ZipFile(path) as zf:
            members = sorted(name.removesuffix(".npy") for name in zf.namelist())
        assert sorted(reads) == members

    @pytest.mark.parametrize("kind", ["hybrid", "hybrid-no-residual", "vnm"])
    @pytest.mark.parametrize("with_perm", [True, False], ids=["perm", "no-perm"])
    def test_loaded_arrays_are_ordinary_and_bit_equal(self, case, tmp_path, kind, with_perm):
        adj, perm, hybrid = case
        operand = {"hybrid": hybrid,
                   "hybrid-no-residual": HybridVNM(hybrid.main, None),
                   "vnm": hybrid.main}[kind]
        stored_perm = perm if with_perm else None
        path = tmp_path / "a.npz"
        save_preprocessed(path, operand=operand, permutation=stored_perm)
        loaded, loaded_perm = load_preprocessed(path)

        assert type(loaded) is type(operand)
        if kind == "hybrid-no-residual":
            assert loaded.residual is None
        expect, got = _operand_arrays(operand), _operand_arrays(loaded)
        assert got.keys() == expect.keys()
        for name, arr in got.items():
            _assert_bit_equal(arr, expect[name])
            # Ordinary memory: not a read-only mapping or a misaligned view into one buffer.
            assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable, name
        if with_perm:
            _assert_bit_equal(loaded_perm.order, perm.order)
            # Permutation freezes its order itself; the buffer is still ordinary.
            assert loaded_perm.order.flags.c_contiguous and loaded_perm.order.flags.aligned
        else:
            assert loaded_perm is None
        if kind == "hybrid":  # lossless: serves the graph exactly
            assert _serves_like_scipy(loaded, loaded_perm,
                                      adj if with_perm else perm.apply_to_matrix(adj))


class TestChecksumRequired:
    def test_v3_artefact_without_checksum_is_quarantined(self, case, tmp_path):
        _, perm, hybrid = case
        cache = ArtifactCache(tmp_path / "cache")
        path = cache.store("k", hybrid, perm)
        with np.load(path) as npz:
            arrays = {name: npz[name] for name in npz.files if name != "checksum"}
        assert int(arrays["format_version"][0]) == serialize._FORMAT_VERSION
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ArtifactCorruptError):
            load_preprocessed(path)
        assert cache.load("k") is None
        assert cache.stats.quarantined == 1
        assert [p.name for p in cache.quarantined()] == ["k.npz"]

    def test_compressed_v2_artefact_is_quarantined_by_fsck(self, case, tmp_path):
        _, perm, hybrid = case
        cache = ArtifactCache(tmp_path / "cache")
        path = cache.store("k", hybrid, perm)
        with np.load(path) as npz:
            arrays = {name: npz[name] for name in npz.files}
        arrays["format_version"] = np.array([2])
        arrays["checksum"] = payload_checksum(arrays)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        report = cache.fsck()
        assert report["corrupt"] == ["k"] and report["ok"] == []
        assert [p.name for p in cache.quarantined()] == ["k.npz"]


class TestDigestPins:
    """Both digests must match the ``tobytes()`` formulas they replaced."""

    def test_adjacency_fingerprint_pinned(self):
        i, j = np.indices((5, 70))
        bm = BitMatrix.from_dense(((i * 7 + j * 3) % 5 == 0).astype(np.uint8))
        assert cache_mod.adjacency_fingerprint(bm) == (
            "b2676a6c0a7d3c08769771508e13b0fc472d75a690da9af6f1161a1ae68cf73f"
        )

    def test_payload_checksum_pinned(self):
        arrays = {
            "format_version": np.array([3]),
            "shape": np.array([3, 4]),
            "tile_ptr": np.array([0, 2, 3], dtype=np.int64),
            "values": np.arange(12, dtype=np.float64).reshape(3, 4) / 8,
            "meta": np.arange(6, dtype=np.uint8).reshape(3, 2).T,  # non-contiguous
            "permutation": np.array([2, 0, 1], dtype=np.int64),
            "checksum": np.zeros(32, dtype=np.uint8),
        }
        assert payload_checksum(arrays).tobytes().hex() == (
            "32d456d86d179fe4afe17fff5b40c58c30e646ed1b2d7a683ccaef010658090c"
        )


class TestCorruptionFuzz:
    @pytest.fixture
    def stored(self, case, tmp_path):
        _, perm, hybrid = case
        cache = ArtifactCache(tmp_path / "cache")
        path = cache.store("k", hybrid, perm)
        return cache, path, path.read_bytes()

    @staticmethod
    def _array_ranges(path, raw: bytes) -> dict[str, range]:
        """The file offsets of every member's array bytes (after its npy header)."""
        ranges = {}
        with zipfile.ZipFile(path) as zf:
            for info in zf.infolist():
                with zf.open(info) as member:
                    np.lib.format.read_magic(member)
                    np.lib.format.read_array_header_1_0(member)
                    npy_header = member.tell()
                # Local file header: 30 fixed bytes, then name and extra field.
                name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
                start = info.header_offset + 30 + name_len + extra_len + npy_header
                ranges[info.filename] = range(start, start + info.file_size - npy_header)
        return ranges

    def _assert_rejected(self, cache, path, raw: bytes) -> None:
        path.write_bytes(raw)
        with pytest.raises(cache_mod._CORRUPT_ERRORS):
            load_preprocessed(path)
        before = cache.stats.quarantined
        assert cache.load("k") is None
        assert cache.stats.quarantined == before + 1 and not path.exists()

    def test_truncation_is_a_quarantined_miss(self, stored):
        cache, path, raw = stored
        for length in (0, 1, 30, 200, len(raw) // 3, len(raw) // 2, len(raw) - 22, len(raw) - 1):
            self._assert_rejected(cache, path, raw[:length])

    def test_payload_bit_flip_is_a_quarantined_miss(self, stored):
        cache, path, raw = stored
        ranges = self._array_ranges(path, raw)
        assert len(ranges) == 15  # every member of a hybrid artefact with a permutation
        for arr in ranges.values():
            flipped = bytearray(raw)
            flipped[arr[len(arr) // 2]] ^= 0x01
            self._assert_rejected(cache, path, bytes(flipped))

    def test_structure_byte_flip_is_rejected_or_harmless(self, case, stored):
        """Flip each header byte of one member and of the central directory.

        A load either fails as corrupt or returns the stored artefact
        exactly.  The member is ``col_ids``, larger than zipfile's 4 KiB
        first read, so its npy header is parsed before the crc32 is
        checked.  Members share one layout, so one stands for all; array
        bytes are left to the test above, the crc32 covers them.
        """
        adj, perm, hybrid = case
        cache, path, raw = stored
        expect = _operand_arrays(hybrid)
        with zipfile.ZipFile(path) as zf:
            info = zf.getinfo("col_ids.npy")
            assert info.file_size > 4096
            central_directory = range(zf.start_dir, len(raw))
        col_ids = self._array_ranges(path, raw)["col_ids.npy"]
        structure = [*range(info.header_offset, col_ids.start), *central_directory]
        for offset, mask in itertools.product(structure, (0x01, 0xFF)):
            flipped = bytearray(raw)
            flipped[offset] ^= mask
            path.write_bytes(bytes(flipped))
            try:
                loaded, loaded_perm = load_preprocessed(path)
            except cache_mod._CORRUPT_ERRORS:
                continue
            got = _operand_arrays(loaded)
            assert got.keys() == expect.keys(), (offset, mask)
            for name, arr in got.items():
                _assert_bit_equal(arr, expect[name])
            _assert_bit_equal(loaded_perm.order, perm.order)
        path.write_bytes(raw)
        loaded = cache.load("k")
        assert loaded is not None and _serves_like_scipy(*loaded, adj)
