"""Artefact format v5: one read, one digest, verified before anything is parsed.

The file keeps its format-v3 name so the test ids of the cases that carry
over stay stable.  It covers the round trip (bit-equal, ordinary aligned
writeable arrays, narrow index arrays as views, one ``readinto``), pins the
two content digests (the file digest and the adjacency fingerprint), and
fuzzes single-byte flips, truncations and crafted headers through both
:func:`load_preprocessed` and :meth:`ArtifactCache.load`.  Leftover
zip-based artefacts of formats 2 and 3, and format-4 files, are quarantined
like any other corrupt file.
"""

import hashlib
import itertools
import json

import numpy as np
import pytest

from repro.core import BitMatrix, Permutation, VNMPattern, reorder
from repro.pipeline import ArtifactCache, ServingSession
from repro.pipeline import cache as cache_mod
from repro.pipeline.resilience import ArtifactCorruptError
from repro.sptc import CSRMatrix, HybridVNM, VNMCompressed
from repro.sptc import serialize
from repro.sptc.serialize import file_digest, load_preprocessed, save_preprocessed

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


def _layout(raw: bytes) -> tuple[dict, int]:
    """The header and data start of an intact file."""
    return serialize._header(np.frombuffer(raw, dtype=np.uint8))


def _array_ranges(raw: bytes) -> dict[str, range]:
    """The file offsets of every array's bytes."""
    header, data_start = _layout(raw)
    ranges = {}
    for name, spec in header["arrays"].items():
        start = data_start + spec["offset"]
        nbytes = int(np.prod(spec["shape"])) * np.dtype(spec["dtype"]).itemsize
        ranges[name] = range(start, start + nbytes)
    return ranges


def _redigest(raw) -> bytes:
    """``raw`` with its digest field recomputed, so the checksum passes."""
    raw = bytearray(raw)
    raw[8:40] = file_digest(raw)
    return bytes(raw)


def _rewrite_header(raw: bytes, mutate) -> bytes:
    """A re-digested copy of ``raw`` whose header went through ``mutate``.

    Array offsets count from the data start, so the data region is carried
    over unchanged after the new header and its padding.
    """
    header, data_start = _layout(raw)
    mutate(header)
    blob = json.dumps(header).encode()
    start = serialize._aligned(48 + len(blob))
    out = raw[:40] + len(blob).to_bytes(8, "little") + blob
    out += bytes(start - len(out)) + raw[data_start:]
    return _redigest(out)


class TestLoadPath:
    def test_each_member_read_once(self, case, tmp_path, monkeypatch):
        """The whole file arrives by one ``readinto``; nothing else reads it."""
        _, perm, hybrid = case
        path = tmp_path / "a.npz"
        save_preprocessed(path, operand=hybrid, permutation=perm)
        calls: list[int] = []

        class Spy:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def fileno(self):
                return self._fh.fileno()

            def readinto(self, view):
                calls.append(len(view))
                return self._fh.readinto(view)

        monkeypatch.setattr(serialize, "open", lambda *a, **k: Spy(open(*a, **k)),
                            raising=False)
        load_preprocessed(path)
        assert calls == [path.stat().st_size]

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
        main = loaded.main if isinstance(loaded, HybridVNM) else loaded
        assert (main.pattern, main.shape, main.n_live_cols) == (
            hybrid.main.pattern, hybrid.main.shape, hybrid.main.n_live_cols)
        if kind == "hybrid-no-residual":
            assert loaded.residual is None
        expect, got = _operand_arrays(operand), _operand_arrays(loaded)
        assert got.keys() == expect.keys()
        for name, arr in got.items():
            _assert_bit_equal(arr, expect[name])
            # Aligned, writeable views: usable like freshly allocated arrays.
            assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable, name
        if with_perm:
            _assert_bit_equal(loaded_perm.order, perm.order)
            # Permutation freezes its order itself; the view is still aligned.
            assert loaded_perm.order.flags.c_contiguous and loaded_perm.order.flags.aligned
        else:
            assert loaded_perm is None
        if kind == "hybrid":  # lossless: serves the graph exactly
            assert _serves_like_scipy(loaded, loaded_perm,
                                      adj if with_perm else perm.apply_to_matrix(adj))

    def test_narrow_index_arrays_load_as_views_of_one_buffer(self, case, tmp_path):
        """``col_ids`` and ``tile_seg`` stay int16 on disk and in memory: the
        load neither copies nor widens them."""
        _, perm, hybrid = case
        assert hybrid.main.col_ids.dtype == hybrid.main.tile_seg.dtype == np.int16
        path = tmp_path / "a.npz"
        save_preprocessed(path, operand=hybrid, permutation=perm)
        loaded, _ = load_preprocessed(path)

        def root(arr):
            while isinstance(arr.base, np.ndarray):
                arr = arr.base
            return arr

        main = loaded.main
        buffer = root(main.values)
        assert buffer.dtype == np.uint8 and buffer.size == path.stat().st_size
        for arr in (main.col_ids, main.tile_seg):
            assert arr.dtype == np.int16 and root(arr) is buffer

    def test_format_4_file_is_rejected(self, case, tmp_path):
        _, perm, hybrid = case
        path = tmp_path / "a.npz"
        save_preprocessed(path, operand=hybrid, permutation=perm)
        raw = bytearray(path.read_bytes())
        raw[6:8] = (4).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptError, match="version 4"):
            load_preprocessed(path)

    def test_arrays_start_on_64_byte_boundaries(self, case, tmp_path):
        _, perm, hybrid = case
        path = tmp_path / "a.npz"
        save_preprocessed(path, operand=hybrid, permutation=perm)
        raw = path.read_bytes()
        assert raw[:8] == b"\x93SOGRE" + serialize._FORMAT_VERSION.to_bytes(2, "little")
        assert raw[8:40] == hashlib.sha256(raw[40:]).digest()
        ranges = _array_ranges(raw)
        assert len(ranges) == 9
        assert all(r.start % 64 == 0 for r in ranges.values())

    def test_digest_checked_before_header_is_parsed(self, case, tmp_path, monkeypatch):
        _, perm, hybrid = case
        path = tmp_path / "a.npz"
        save_preprocessed(path, operand=hybrid, permutation=perm)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        parsed = []
        monkeypatch.setattr(serialize, "_header", lambda buf: parsed.append(buf))
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            load_preprocessed(path)
        assert parsed == []


class TestChecksumRequired:
    """Only an intact current-format file loads; leftovers of older formats are corrupt."""

    @staticmethod
    def _zip_arrays(hybrid, perm, version: int) -> dict:
        """The member arrays a zip-based (format 2 or 3) artefact held."""
        arrays = {"format_version": np.array([version]), "is_hybrid": np.array([1]),
                  "pattern": np.array([1, 2, 4, PATTERN.k]),
                  "shape": np.array(hybrid.shape),
                  "n_live_cols": np.array([hybrid.main.n_live_cols]),
                  "permutation": perm.order, **_operand_arrays(hybrid)}
        arrays["checksum"] = np.frombuffer(hashlib.sha256(b"old").digest(), np.uint8)
        return arrays

    def test_v3_artefact_without_checksum_is_quarantined(self, case, tmp_path):
        _, perm, hybrid = case
        cache = ArtifactCache(tmp_path / "cache")
        path = cache.store("k", hybrid, perm)
        arrays = self._zip_arrays(hybrid, perm, 3)
        del arrays["checksum"]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(ArtifactCorruptError, match="bad magic"):
            load_preprocessed(path)
        assert cache.load("k") is None
        assert cache.stats.quarantined == 1
        assert [p.name for p in cache.quarantined()] == ["k.npz"]

    def test_v3_artefact_is_quarantined_by_fsck_and_load(self, case, tmp_path):
        _, perm, hybrid = case
        cache = ArtifactCache(tmp_path / "cache")
        for key in ("a", "b"):
            with open(cache.store(key, hybrid, perm), "wb") as fh:
                np.savez(fh, **self._zip_arrays(hybrid, perm, 3))
        cache.store("ok", hybrid, perm)
        assert cache.load("a") is None
        report = cache.fsck()
        assert report["corrupt"] == ["b"] and report["ok"] == ["ok"]
        assert sorted(p.name for p in cache.quarantined()) == ["a.npz", "b.npz"]

    def test_compressed_v2_artefact_is_quarantined_by_fsck(self, case, tmp_path):
        _, perm, hybrid = case
        cache = ArtifactCache(tmp_path / "cache")
        path = cache.store("k", hybrid, perm)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **self._zip_arrays(hybrid, perm, 2))
        report = cache.fsck()
        assert report["corrupt"] == ["k"] and report["ok"] == []
        assert [p.name for p in cache.quarantined()] == ["k.npz"]

    def test_zeroed_digest_is_rejected(self, case, tmp_path):
        _, perm, hybrid = case
        path = tmp_path / "a.npz"
        save_preprocessed(path, operand=hybrid, permutation=perm)
        raw = bytearray(path.read_bytes())
        raw[8:40] = bytes(32)
        path.write_bytes(bytes(raw))
        with pytest.raises(ArtifactCorruptError, match="checksum"):
            load_preprocessed(path)


class TestDigestPins:
    """Both digests are part of the format: a change re-addresses or rejects
    every stored artefact, so each is pinned byte for byte."""

    def test_adjacency_fingerprint_pinned(self):
        i, j = np.indices((5, 70))
        dense = ((i * 7 + j * 3) % 5 == 0).astype(np.uint8)
        expect = "d32c79481cc1adecd4ad8e244eca4d2a54da3307819d05d38544f0c6468d8434"
        assert cache_mod.adjacency_fingerprint(BitMatrix.from_dense(dense)) == expect
        assert cache_mod.adjacency_fingerprint(CSRMatrix.from_dense(dense)) == expect

    def test_payload_checksum_pinned(self, tmp_path):
        operand = VNMCompressed(
            PATTERN, (3, 8),
            np.array([0, 2, 3, 3], dtype=np.int64),
            np.array([0, 1, 0], dtype=np.int64),
            np.arange(12, dtype=np.int64).reshape(3, 4) % 8,
            np.arange(6, dtype=np.float64).reshape(3, 1, 2) / 8,
            np.arange(12, dtype=np.uint8).reshape(3, 1, 4)[:, :, ::2],
            n_live_cols=7,
        )
        assert not operand.meta.flags.c_contiguous  # stored through a contiguous copy
        path = tmp_path / "pin.npz"
        save_preprocessed(path, operand=HybridVNM(operand, None),
                          permutation=Permutation(np.array([2, 0, 1], dtype=np.int64)))
        raw = path.read_bytes()
        assert raw[8:40].hex() == (
            "9c5f2deb875fb54dd770102750f8119d9a3c8aa002b93f7ccd19d6be77e243c8"
        )


class TestCorruptionFuzz:
    @pytest.fixture
    def stored(self, case, tmp_path):
        _, perm, hybrid = case
        cache = ArtifactCache(tmp_path / "cache")
        path = cache.store("k", hybrid, perm)
        return cache, path, path.read_bytes()

    @staticmethod
    def _assert_rejected(cache, path, raw: bytes) -> None:
        path.write_bytes(raw)
        with pytest.raises(ArtifactCorruptError):
            load_preprocessed(path)
        before = cache.stats.quarantined
        assert cache.load("k") is None
        assert cache.stats.quarantined == before + 1 and not path.exists()

    def test_truncation_is_a_quarantined_miss(self, stored):
        cache, path, raw = stored
        header, data_start = _layout(raw)
        header_end = 48 + int.from_bytes(raw[40:48], "little")
        cuts = {0, 1, 5, 6, 7, 8, 39, 40, 47, 48, header_end - 1, header_end,
                data_start - 1, data_start, len(raw) - 1}
        for arr in _array_ranges(raw).values():
            cuts |= {arr.start, arr.start + 1, arr.stop - 1}
        for length in sorted(c for c in cuts if 0 <= c < len(raw)):
            self._assert_rejected(cache, path, raw[:length])

    def test_payload_bit_flip_is_a_quarantined_miss(self, stored):
        cache, path, raw = stored
        ranges = _array_ranges(raw)
        assert len(ranges) == 9  # every array of a hybrid artefact with a permutation
        for arr in ranges.values():
            flipped = bytearray(raw)
            flipped[arr[len(arr) // 2]] ^= 0x01
            self._assert_rejected(cache, path, bytes(flipped))

    def test_structure_byte_flip_is_rejected(self, stored):
        """Every magic, version, digest, header and padding byte, flipped by
        0x01 and by 0xFF, is rejected: nothing outside the arrays is left
        unchecked.  The arrays' own bytes are the test above."""
        cache, path, raw = stored
        inside = set()
        for arr in _array_ranges(raw).values():
            inside.update(arr)
        structure = [i for i in range(len(raw)) if i not in inside]
        assert structure[:48] == list(range(48))
        for offset, mask in itertools.product(structure, (0x01, 0xFF)):
            flipped = bytearray(raw)
            flipped[offset] ^= mask
            self._assert_rejected(cache, path, bytes(flipped))


class TestCraftedHeader:
    """Headers that pass the checksum (the file is re-digested) but describe
    arrays the loader must not build."""

    @pytest.fixture
    def stored(self, case, tmp_path):
        _, perm, hybrid = case
        cache = ArtifactCache(tmp_path / "cache")
        path = cache.store("k", hybrid, perm)
        return cache, path, path.read_bytes()

    def test_identity_rewrite_still_loads(self, case, stored):
        adj, _, _ = case
        cache, path, raw = stored
        path.write_bytes(_rewrite_header(raw, lambda header: None))
        loaded = cache.load("k")
        assert loaded is not None and _serves_like_scipy(*loaded, adj)

    @pytest.mark.parametrize("mutation", [
        "object-dtype", "big-endian-dtype", "void-dtype", "negative-shape", "huge-shape",
        "offset-past-end", "misaligned-offset", "overlapping-offset", "negative-offset",
        "missing-array", "not-an-object", "bool-shape",
    ])
    def test_crafted_header_is_rejected(self, stored, mutation):
        cache, path, raw = stored

        def mutate(header):
            arrays = header["arrays"]
            if mutation == "object-dtype":
                arrays["values"]["dtype"] = "|O"
            elif mutation == "big-endian-dtype":
                arrays["values"]["dtype"] = ">f8"
            elif mutation == "void-dtype":
                arrays["values"]["dtype"] = "|V8"
            elif mutation == "negative-shape":
                arrays["col_ids"]["shape"][0] = -1
            elif mutation == "huge-shape":
                arrays["col_ids"]["shape"][0] = 2**62
            elif mutation == "offset-past-end":
                arrays["permutation"]["offset"] = 2**40
            elif mutation == "misaligned-offset":
                arrays["permutation"]["offset"] += 8
            elif mutation == "overlapping-offset":
                arrays["col_ids"]["offset"] = arrays["tile_seg"]["offset"]
            elif mutation == "negative-offset":
                arrays["tile_ptr"]["offset"] = -64
            elif mutation == "missing-array":
                del arrays["tile_ptr"]
            elif mutation == "not-an-object":
                header["arrays"] = [1, 2]
            elif mutation == "bool-shape":
                arrays["tile_ptr"]["shape"] = [True]

        path.write_bytes(_rewrite_header(raw, mutate))
        with pytest.raises(ArtifactCorruptError):
            load_preprocessed(path)
        assert cache.load("k") is None and cache.stats.quarantined == 1

    @pytest.mark.parametrize("name", serialize._INDEX_ARRAYS)
    def test_non_integer_index_array_is_rejected(self, stored, name):
        """A float (or bool) dtype of the same width passes the whitelist and
        the bounds, but an index array must hold integers."""
        cache, path, raw = stored
        same_width = {1: "|b1", 2: "<f2", 4: "<f4", 8: "<f8"}

        def mutate(header):
            spec = header["arrays"][name]
            spec["dtype"] = same_width[np.dtype(spec["dtype"]).itemsize]

        path.write_bytes(_rewrite_header(raw, mutate))
        with pytest.raises(ArtifactCorruptError, match="non-integer"):
            load_preprocessed(path)
        assert cache.load("k") is None and cache.stats.quarantined == 1

    def test_header_that_does_not_parse_is_rejected(self, stored):
        cache, path, raw = stored
        size = int.from_bytes(raw[40:48], "little")
        broken = bytearray(raw)
        broken[48:48 + size] = b"{" * size
        path.write_bytes(_redigest(broken))
        with pytest.raises(ArtifactCorruptError, match="header"):
            load_preprocessed(path)
        assert cache.load("k") is None and cache.stats.quarantined == 1

    def test_header_length_past_the_end_is_rejected(self, stored):
        cache, path, raw = stored
        broken = bytearray(raw)
        broken[40:48] = (len(raw)).to_bytes(8, "little")
        path.write_bytes(_redigest(broken))
        with pytest.raises(ArtifactCorruptError, match="header"):
            load_preprocessed(path)
