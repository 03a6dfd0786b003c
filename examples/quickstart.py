"""Quickstart: reorder a graph for Sparse Tensor Cores in ~30 lines.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import BitMatrix, VNMPattern, find_best_pattern, reorder
from repro.perf import engine
from repro.sptc import CSRMatrix, CostModel, HybridVNM, SpmmWorkload

# --- 1. a random sparse undirected graph --------------------------------------
rng = np.random.default_rng(0)
n = 512
adj = rng.random((n, n)) < 0.02
adj = adj | adj.T
np.fill_diagonal(adj, False)
bm = BitMatrix.from_dense(adj.astype(np.uint8))
print(f"graph: {n} vertices, {bm.nnz()} directed edges, density {bm.density():.2%}")

# --- 2. reorder it into a 1:2:4 sparse pattern --------------------------------
pattern = VNMPattern(1, 2, 4)  # the native Ampere 2:4 pattern
result = reorder(bm, pattern)
print(
    f"reorder to {pattern}: {result.initial_invalid_vectors} -> "
    f"{result.final_invalid_vectors} invalid segment vectors "
    f"({result.improvement_rate:.1%} removed, conforms={result.conforms})"
)
assert result.matrix.is_symmetric(), "graph reordering keeps the matrix symmetric"

# --- 3. or let the library pick the best V:N:M pattern ------------------------
best = find_best_pattern(bm)
print(f"best reachable pattern: {best.pattern}")

# --- 4. compress for the Sparse Tensor Cores and run SpMM ----------------------
reordered = best.result.matrix if best.succeeded else result.matrix
weights = reordered.to_dense().astype(np.float64)  # unweighted adjacency
csr = CSRMatrix.from_dense(weights)
compressed = HybridVNM.compress_csr(csr, best.pattern or pattern)

# One host path computes every format (scipy CSR over the operand's exact
# triplet); where the A100 would run it is the cost model's business (step 5).
features = rng.integers(-8, 8, size=(n, 128)).astype(np.float64)
out_sptc = engine.execute(compressed, features)
assert np.array_equal(out_sptc, weights @ features), "SPTC operand is lossless"

# --- 5. compare modelled A100 times -------------------------------------------
cm = CostModel()
t_csr = cm.time_csr_spmm(SpmmWorkload.from_csr(csr, 128))
t_sptc = compressed.model_time(cm, 128)
print(f"modelled SpMM time: CSR {t_csr * 1e6:.1f}us vs SPTC {t_sptc * 1e6:.1f}us "
      f"-> {t_csr / t_sptc:.2f}x speedup")
