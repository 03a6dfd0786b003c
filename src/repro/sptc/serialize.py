"""On-disk persistence of preprocessing artefacts.

The reordering is an offline step whose outputs get reused "repeatedly
across many inferences" (paper §1/§4.4).  This module saves and loads those
artefacts — the vertex permutation, the chosen pattern, and the compressed
operand — as one file so a serving process never re-runs the search.  Both
the bare :class:`VNMCompressed` operand and the lossless :class:`HybridVNM`
(V:N:M main part + CSR residual) round-trip; the artifact cache in
:mod:`repro.pipeline.cache` is layered on this format.

Format version 5 is one raw file, read whole and verified once::

    offset   bytes  field
    0        6      magic  b"\\x93SOGRE"
    6        2      format version, uint16 little-endian
    8        32     sha256 of every byte from offset 40 to the end of the file
    40       8      header length H, uint64 little-endian
    48       H      JSON header (utf-8)
    D        ...    the arrays; D = 48 + H rounded up to 64, and every array
                    starts at D + its header offset, a multiple of 64

The header holds the operand's scalars (``is_hybrid``, ``pattern``,
``shape``, ``n_live_cols``) and, per array, its dtype string, shape and
offset.  Arrays are stored in their in-memory dtypes: ``col_ids`` and
``tile_seg`` in the narrowest signed integer that holds ``n_segs * m``
(:func:`repro.sptc.venom.index_dtype`; int16 while that is below 32768),
where version 4 stored int64.  :func:`save_preprocessed` streams the header
and the arrays to the file while it updates the digest, then writes the
digest into its slot: no whole-file staging buffer.  :func:`load_preprocessed` reads the file with
one ``readinto`` into an ``np.empty`` byte buffer, checks the magic and
version, verifies the digest *before* it parses the header, and only then
builds the arrays as aligned, writeable views into that buffer: no second
read, no copy, nothing unpickled.

Integrity: a truncated file, a bad magic or version, a digest mismatch, a
header that does not parse, a dtype outside the plain little-endian numeric
whitelist, an index array (tile pointers, segments, column ids, metadata,
the residual's ``indptr``/``indices``, the permutation) whose dtype is not
an integer, or an array shape or offset outside the file all raise
:class:`repro.pipeline.resilience.ArtifactCorruptError` — a ``ValueError``
subclass, so pre-taxonomy callers keep working — turning silent bit-rot
into a classified, quarantinable fault.  Older artefacts (the zip-based
``.npz`` of versions 2 and 3) fail the magic check the same way, and a
version-4 file fails the version check; the artefact cache keys on the
version, so it rebuilds rather than reads them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from ..core.patterns import VNMPattern
from ..core.permutation import Permutation
from .csr import CSRMatrix
from .hybrid import HybridVNM
from .venom import VNMCompressed

__all__ = ["save_preprocessed", "load_preprocessed", "file_digest"]

_FORMAT_VERSION = 5
_MAGIC = b"\x93SOGRE"
_DIGEST_AT = 8          # the sha256 occupies [8, 40)
_COVERED_FROM = 40      # the digest covers [40, end)
_PREAMBLE = 48          # magic + version + digest + header length
_ALIGN = 64
# Plain little-endian numeric dtypes; anything else (objects, structured,
# big-endian, strings) is a corrupt header.
_DTYPES = frozenset({"|b1", "|i1", "|u1", "<i2", "<u2", "<i4", "<u4", "<i8", "<u8",
                     "<f2", "<f4", "<f8"})
# Arrays that index other arrays: a float or bool dtype here is corrupt.
_INDEX_ARRAYS = ("tile_ptr", "tile_seg", "col_ids", "meta", "residual_indptr",
                 "residual_indices", "permutation")


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


def file_digest(buf) -> bytes:
    """The sha256 over a whole artefact file's bytes (digest field excluded)."""
    return hashlib.sha256(memoryview(buf)[_COVERED_FROM:]).digest()


def save_preprocessed(
    path,
    *,
    operand: VNMCompressed | HybridVNM,
    permutation: Permutation | None = None,
) -> None:
    """Write a compressed operand (and optionally its permutation) to ``path``."""
    residual: CSRMatrix | None = None
    is_hybrid = isinstance(operand, HybridVNM)
    if is_hybrid:
        residual = operand.residual
        operand = operand.main
    named = {name: getattr(operand, name)
             for name in ("tile_ptr", "tile_seg", "col_ids", "values", "meta")}
    if residual is not None:
        named.update(residual_indptr=residual.indptr, residual_indices=residual.indices,
                     residual_data=residual.data)
    if permutation is not None:
        named["permutation"] = permutation.order
    arrays, specs, offset = [], {}, 0
    for name, arr in named.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.str not in _DTYPES:  # a file load would refuse
            raise TypeError(f"array {name!r} has unsupported dtype {arr.dtype}")
        specs[name] = {"dtype": arr.dtype.str, "shape": list(arr.shape), "offset": offset}
        arrays.append(arr)
        offset = _aligned(offset + arr.nbytes)
    pattern = operand.pattern
    header = json.dumps({
        "is_hybrid": is_hybrid,
        "pattern": [pattern.v, pattern.n, pattern.m, pattern.k],
        "shape": [int(x) for x in operand.shape],
        "n_live_cols": int(operand.n_live_cols),
        "arrays": specs,
    }, sort_keys=True, separators=(",", ":")).encode()

    digest = hashlib.sha256()
    with open(Path(path), "wb") as fh:
        def put(chunk) -> None:
            digest.update(chunk)
            fh.write(chunk)

        fh.write(_MAGIC + _FORMAT_VERSION.to_bytes(2, "little") + bytes(32))
        put(len(header).to_bytes(8, "little"))
        put(header)
        written = _PREAMBLE + len(header)
        put(bytes(_aligned(written) - written))
        for arr in arrays:
            put(arr)
            put(bytes(_aligned(arr.nbytes) - arr.nbytes))
        fh.seek(_DIGEST_AT)
        fh.write(digest.digest())


def _read_whole(path) -> np.ndarray:
    """The file's bytes in one writeable ``uint8`` buffer, by ``readinto``."""
    with open(Path(path), "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        buf = np.empty(size, dtype=np.uint8)
        view, got = memoryview(buf), 0
        while got < size:  # one call for any regular file this format writes
            n = fh.readinto(view[got:])
            if not n:
                break
            got += n
    return buf[:got]


def _header(buf: np.ndarray) -> tuple[dict, int]:
    """The parsed JSON header of a verified file and where its data starts."""
    size = int.from_bytes(buf[_COVERED_FROM:_PREAMBLE].tobytes(), "little")
    if _PREAMBLE + size > buf.size:
        raise ValueError("header runs past the end of the file")
    return json.loads(buf[_PREAMBLE:_PREAMBLE + size].tobytes()), _aligned(_PREAMBLE + size)


def _array_views(buf: np.ndarray, specs, data_start: int) -> dict:
    """Aligned views into ``buf`` for the header's array table.

    Raises ``ValueError``/``TypeError``/``KeyError`` on any entry that is not
    a whitelisted dtype, a non-negative integer shape, and a 64-aligned
    offset whose bytes lie inside the file after the previous array's.
    """
    arrays, end = {}, data_start
    entries = sorted(specs.items(), key=lambda item: item[1]["offset"])
    for name, spec in entries:
        if spec["dtype"] not in _DTYPES:
            raise ValueError(f"array {name!r}: dtype {spec['dtype']!r} is not allowed")
        dtype = np.dtype(spec["dtype"])
        shape, offset = tuple(spec["shape"]), spec["offset"]
        if not all(type(x) is int and x >= 0 for x in (*shape, offset)):
            raise ValueError(f"array {name!r}: shape/offset must be non-negative integers")
        start = data_start + offset
        stop = start + math.prod(shape) * dtype.itemsize
        if offset % _ALIGN or start < end or stop > buf.size:
            raise ValueError(f"array {name!r}: bytes [{start}, {stop}) out of range")
        arrays[name] = buf[start:stop].view(dtype).reshape(shape)
        end = stop
    return arrays


def load_preprocessed(path) -> tuple[VNMCompressed | HybridVNM, Permutation | None]:
    """Inverse of :func:`save_preprocessed`; verifies the digest first."""
    # Lazy import: sptc sits below the pipeline package.
    from ..pipeline.resilience import ArtifactCorruptError

    def corrupt(why: str) -> ArtifactCorruptError:
        return ArtifactCorruptError(f"artefact {path}: {why}", path=str(path))

    buf = _read_whole(path)
    if buf.size < _PREAMBLE:
        raise corrupt(f"truncated ({buf.size} bytes)")
    if buf[:6].tobytes() != _MAGIC:
        raise corrupt(f"not a format-{_FORMAT_VERSION} artefact (bad magic)")
    version = int.from_bytes(buf[6:8].tobytes(), "little")
    if version != _FORMAT_VERSION:
        raise corrupt(f"unsupported format version {version}")
    if file_digest(buf) != buf[_DIGEST_AT:_COVERED_FROM].tobytes():
        raise corrupt("failed checksum verification")
    try:
        header, data_start = _header(buf)
        arrays = _array_views(buf, header["arrays"], data_start)
        for name in _INDEX_ARRAYS:
            if name in arrays and arrays[name].dtype.kind not in "iu":
                raise ValueError(f"index array {name!r} has non-integer dtype "
                                 f"{arrays[name].dtype}")
        v, n, m, k = (int(x) for x in header["pattern"])
        operand: VNMCompressed | HybridVNM = VNMCompressed(
            VNMPattern(v, n, m, k),
            tuple(int(x) for x in header["shape"]),
            arrays["tile_ptr"],
            arrays["tile_seg"],
            arrays["col_ids"],
            arrays["values"],
            arrays["meta"],
            n_live_cols=int(header["n_live_cols"]),
        )
        if header["is_hybrid"]:
            residual = None
            if "residual_indptr" in arrays:
                residual = CSRMatrix(arrays["residual_indptr"], arrays["residual_indices"],
                                     arrays["residual_data"], operand.shape)
            operand = HybridVNM(operand, residual)
        perm = Permutation(arrays["permutation"]) if "permutation" in arrays else None
    except (ValueError, TypeError, KeyError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise corrupt(f"unreadable header: {exc}") from exc
    return operand, perm
