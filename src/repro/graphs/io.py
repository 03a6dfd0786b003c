"""Matrix Market I/O, written from scratch.

SuiteSparse distributes matrices in the MatrixMarket ``.mtx`` coordinate
format; this module reads and writes the subset needed for adjacency
matrices (coordinate real/pattern/integer, general or symmetric).
"""

from __future__ import annotations

import io as _io
from pathlib import Path

import numpy as np

from ..sptc.csr import CSRMatrix
from .graph import Graph

__all__ = ["read_matrix_market", "write_matrix_market", "graph_from_mtx", "graph_to_mtx"]


def read_matrix_market(path_or_file) -> tuple[CSRMatrix, bool]:
    """Parse a MatrixMarket coordinate file (``.mtx`` or ``.mtx.gz``).

    Returns ``(matrix, was_symmetric)``; symmetric inputs are expanded to
    full storage.
    """
    if isinstance(path_or_file, (str, Path)):
        if str(path_or_file).endswith(".gz"):
            import gzip

            with gzip.open(path_or_file, "rt") as f:
                return read_matrix_market(f)
        with open(path_or_file, "r") as f:
            return read_matrix_market(f)
    f = path_or_file
    header = f.readline().strip().split()
    if len(header) < 5 or header[0] != "%%MatrixMarket" or header[1] != "matrix":
        raise ValueError("not a MatrixMarket matrix file")
    layout, field, symmetry = header[2], header[3], header[4]
    if layout != "coordinate":
        raise ValueError(f"only coordinate layout is supported, got {layout}")
    if field not in ("real", "integer", "pattern"):
        raise ValueError(f"unsupported field type {field}")
    if symmetry not in ("general", "symmetric"):
        raise ValueError(f"unsupported symmetry {symmetry}")
    line = f.readline()
    while line.startswith("%"):
        line = f.readline()
    n_rows, n_cols, nnz = map(int, line.split())
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    data = np.ones(nnz, dtype=np.float64)
    for i in range(nnz):
        parts = f.readline().split()
        rows[i] = int(parts[0]) - 1
        cols[i] = int(parts[1]) - 1
        if field != "pattern":
            data[i] = float(parts[2])
    if symmetry == "symmetric":
        off = rows != cols
        rows, cols, data = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
            np.concatenate([data, data[off]]),
        )
    matrix = CSRMatrix.from_coo(rows, cols, data, (n_rows, n_cols), sum_duplicates=False)
    return matrix, symmetry == "symmetric"


def write_matrix_market(matrix: CSRMatrix, path_or_file, *, symmetric: bool = False,
                        pattern: bool = False) -> None:
    """Write a CSR matrix in MatrixMarket coordinate format (gzip if ``.gz``)."""
    if isinstance(path_or_file, (str, Path)):
        if str(path_or_file).endswith(".gz"):
            import gzip

            with gzip.open(path_or_file, "wt") as f:
                write_matrix_market(matrix, f, symmetric=symmetric, pattern=pattern)
                return
        with open(path_or_file, "w") as f:
            write_matrix_market(matrix, f, symmetric=symmetric, pattern=pattern)
            return
    f = path_or_file
    rows, cols, data = matrix.to_coo()
    if symmetric:
        keep = rows <= cols
        rows, cols, data = rows[keep], cols[keep], data[keep]
    field = "pattern" if pattern else "real"
    sym = "symmetric" if symmetric else "general"
    f.write(f"%%MatrixMarket matrix coordinate {field} {sym}\n")
    f.write(f"{matrix.shape[0]} {matrix.shape[1]} {rows.size}\n")
    for i in range(rows.size):
        if pattern:
            f.write(f"{rows[i] + 1} {cols[i] + 1}\n")
        else:
            f.write(f"{rows[i] + 1} {cols[i] + 1} {data[i]:.17g}\n")


def graph_from_mtx(path_or_file) -> Graph:
    """Load an adjacency matrix file as an undirected :class:`Graph`."""
    matrix, _ = read_matrix_market(path_or_file)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("adjacency matrix must be square")
    rows, cols, data = matrix.to_coo()
    return Graph.from_edge_list(matrix.shape[0], np.stack([rows, cols], axis=1), weights=data)


def graph_to_mtx(graph: Graph, path_or_file) -> None:
    """Write a graph's (symmetric) adjacency matrix."""
    write_matrix_market(graph.csr(), path_or_file, symmetric=True, pattern=graph.weights is None)


def graph_to_mtx_string(graph: Graph) -> str:
    buf = _io.StringIO()
    graph_to_mtx(graph, buf)
    return buf.getvalue()
