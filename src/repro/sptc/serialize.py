"""On-disk persistence of preprocessing artefacts.

The reordering is an offline step whose outputs get reused "repeatedly
across many inferences" (paper §1/§4.4).  This module saves and loads those
artefacts — the vertex permutation, the chosen pattern, and the compressed
operand — as a single ``.npz`` so a serving process never re-runs the
search.  Both the bare :class:`VNMCompressed` operand and the lossless
:class:`HybridVNM` (V:N:M main part + CSR residual) round-trip; the artifact
cache in :mod:`repro.pipeline.cache` is layered on this format.

Format version 3 stores the arrays uncompressed (``np.savez``; still a
plain ``.npz``).  A load reads each array once, checksums those arrays and
hands the same ones to the operand: no zlib inflate, no second read, no
copy.  The cost is disk, about 11x version 2's compressed files (13.4 MB
instead of 1.19 MB for the three e2ebench stand-ins).  Any other version
raises ``ValueError``; the artefact cache keys on the version, so older
artefacts are rebuilt rather than read.

Integrity: every artefact embeds a sha256 ``checksum`` over its payload
arrays (names, dtypes, shapes, bytes).  :func:`load_preprocessed` verifies
it on every load and raises
:class:`repro.pipeline.resilience.ArtifactCorruptError` — a ``ValueError``
subclass, so pre-taxonomy callers keep working — on a mismatch, a missing
checksum, or a zip or npy header too damaged to parse, turning silent
bit-rot into a classified, quarantinable fault.
"""

from __future__ import annotations

import hashlib
import tokenize
from pathlib import Path

import numpy as np

from ..core.patterns import VNMPattern
from ..core.permutation import Permutation
from .csr import CSRMatrix
from .hybrid import HybridVNM
from .venom import VNMCompressed

__all__ = ["save_preprocessed", "load_preprocessed", "payload_checksum"]

_FORMAT_VERSION = 3


def payload_checksum(arrays: dict) -> np.ndarray:
    """sha256 over the artefact's payload arrays, as a uint8 array.

    Covers names, dtypes, shapes, and raw bytes of every array except the
    ``checksum`` entry itself, in name order — so any corruption that still
    yields a structurally loadable ``.npz`` is caught at load time.
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        if name == "checksum":
            continue
        arr = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr)  # the array's own buffer: no tobytes() copy
    return np.frombuffer(digest.digest(), dtype=np.uint8).copy()


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
    arrays = {
        "format_version": np.array([_FORMAT_VERSION]),
        "is_hybrid": np.array([int(is_hybrid)]),
        "pattern": np.array([operand.pattern.v, operand.pattern.n, operand.pattern.m,
                             operand.pattern.k]),
        "shape": np.array(operand.shape),
        "tile_ptr": operand.tile_ptr,
        "tile_seg": operand.tile_seg,
        "col_ids": operand.col_ids,
        "values": operand.values,
        "meta": operand.meta,
        "n_live_cols": np.array([operand.n_live_cols]),
    }
    if residual is not None:
        arrays["residual_indptr"] = residual.indptr
        arrays["residual_indices"] = residual.indices
        arrays["residual_data"] = residual.data
    if permutation is not None:
        arrays["permutation"] = permutation.order
    arrays["checksum"] = payload_checksum(arrays)
    # Write through a file handle: np.savez would append ".npz" to bare
    # paths, which breaks atomic-write temp names like "<key>.npz.tmp".
    with open(Path(path), "wb") as fh:
        np.savez(fh, **arrays)


def load_preprocessed(path) -> tuple[VNMCompressed | HybridVNM, Permutation | None]:
    """Inverse of :func:`save_preprocessed`; verifies the checksum first."""
    # Lazy import: sptc sits below the pipeline package.
    from ..pipeline.resilience import ArtifactCorruptError

    try:
        # Own the handle: np.load leaks its own when a damaged zip fails to parse.
        with open(Path(path), "rb") as fh, np.load(fh) as npz:
            data = {name: npz[name] for name in npz.files}
    except (tokenize.TokenError, RuntimeError) as exc:
        # Outside the ValueError family: numpy tokenizes a damaged npy header,
        # zipfile rejects an "encrypted" flag or unknown compression method.
        raise ArtifactCorruptError(f"artefact {path} is unreadable", path=str(path)) from exc
    version = int(data["format_version"][0])
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported preprocessed-file version {version}")
    if "checksum" not in data or not np.array_equal(payload_checksum(data), data["checksum"]):
        raise ArtifactCorruptError(
            f"artefact {path} failed checksum verification", path=str(path)
        )
    v, n, m, k = (int(x) for x in data["pattern"])
    operand: VNMCompressed | HybridVNM = VNMCompressed(
        VNMPattern(v, n, m, k),
        tuple(int(x) for x in data["shape"]),
        data["tile_ptr"],
        data["tile_seg"],
        data["col_ids"],
        data["values"],
        data["meta"],
        n_live_cols=int(data["n_live_cols"][0]),
    )
    if int(data["is_hybrid"][0]):
        residual = None
        if "residual_indptr" in data:
            residual = CSRMatrix(
                data["residual_indptr"],
                data["residual_indices"],
                data["residual_data"],
                operand.shape,
            )
        operand = HybridVNM(operand, residual)
    perm = Permutation(data["permutation"]) if "permutation" in data else None
    return operand, perm
