"""Matrix Market I/O."""

import io

import numpy as np
import pytest

from repro.graphs import graph_from_mtx, graph_to_mtx, read_matrix_market, write_matrix_market
from repro.graphs.io import graph_to_mtx_string
from repro.sptc import CSRMatrix


class TestRead:
    def test_general_real(self):
        text = ("%%MatrixMarket matrix coordinate real general\n% comment\n"
                "2 3 2\n1 2 5.0\n2 1 -1.5\n")
        m, sym = read_matrix_market(io.StringIO(text))
        assert not sym
        assert m.shape == (2, 3)
        assert m.to_dense()[0, 1] == 5.0
        assert m.to_dense()[1, 0] == -1.5

    def test_symmetric_expansion(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 4.0\n3 3 1.0\n"
        m, sym = read_matrix_market(io.StringIO(text))
        assert sym
        d = m.to_dense()
        assert d[1, 0] == 4.0 and d[0, 1] == 4.0
        assert d[2, 2] == 1.0
        assert m.nnz == 3  # diagonal not duplicated

    def test_pattern_field(self):
        text = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n"
        m, _ = read_matrix_market(io.StringIO(text))
        assert m.to_dense()[0, 0] == 1.0

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO("%%NotMM matrix coordinate real general\n1 1 0\n"))

    def test_unsupported_layout_rejected(self):
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO("%%MatrixMarket matrix array real general\n"))

    def test_unsupported_field_rejected(self):
        with pytest.raises(ValueError):
            read_matrix_market(io.StringIO("%%MatrixMarket matrix coordinate complex general\n"))


class TestWrite:
    def test_roundtrip_general(self, weighted_sym_dense):
        csr = CSRMatrix.from_dense(weighted_sym_dense)
        buf = io.StringIO()
        write_matrix_market(csr, buf)
        buf.seek(0)
        back, _ = read_matrix_market(buf)
        assert np.allclose(back.to_dense(), weighted_sym_dense)

    def test_roundtrip_symmetric_halves_entries(self, weighted_sym_dense):
        csr = CSRMatrix.from_dense(weighted_sym_dense)
        buf = io.StringIO()
        write_matrix_market(csr, buf, symmetric=True)
        text = buf.getvalue()
        n_entries = int(text.splitlines()[1].split()[2])
        assert n_entries == (csr.nnz + np.count_nonzero(np.diag(weighted_sym_dense))) // 2
        buf.seek(0)
        back, _ = read_matrix_market(buf)
        assert np.allclose(back.to_dense(), weighted_sym_dense)

    def test_file_roundtrip(self, tmp_path, weighted_sym_dense):
        path = tmp_path / "m.mtx"
        csr = CSRMatrix.from_dense(weighted_sym_dense)
        write_matrix_market(csr, path)
        back, _ = read_matrix_market(path)
        assert np.allclose(back.to_dense(), weighted_sym_dense)


class TestGraphIO:
    def test_graph_roundtrip(self, small_community_graph):
        text = graph_to_mtx_string(small_community_graph)
        back = graph_from_mtx(io.StringIO(text))
        assert back.n == small_community_graph.n
        assert back.n_edges == small_community_graph.n_edges

    def test_graph_file_roundtrip(self, tmp_path, small_community_graph):
        path = tmp_path / "g.mtx"
        graph_to_mtx(small_community_graph, path)
        back = graph_from_mtx(path)
        assert back.n_edges == small_community_graph.n_edges

    def test_non_square_rejected_for_graph(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1.0\n"
        with pytest.raises(ValueError):
            graph_from_mtx(io.StringIO(text))


class TestGzip:
    def test_gz_roundtrip(self, tmp_path, small_community_graph):
        path = tmp_path / "g.mtx.gz"
        graph_to_mtx(small_community_graph, path)
        back = graph_from_mtx(path)
        assert back.n_edges == small_community_graph.n_edges
        import gzip

        with gzip.open(path, "rt") as f:
            assert f.readline().startswith("%%MatrixMarket")
