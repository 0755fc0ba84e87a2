"""Blockmodel sampling, adjacency validation, and file ingestion."""

import logging

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import TILE_CASE_ENTRIES, TILE_CASE_N, traced_peak
from dpase import (
    EdgeListError,
    LabeledGraph,
    ParameterRangeError,
    SbmParams,
    load_edge_list,
    load_labels,
    sample_block_labels,
    sample_sbm,
    validate_adjacency,
    write_edge_list,
)
from dpase import _shared, embedding, graphs

B_TWO_BLOCK = np.array([[0.3, 0.1], [0.1, 0.2]])
PI_TWO_BLOCK = np.array([0.4, 0.6])


def two_block_params() -> SbmParams:
    return SbmParams(B=B_TWO_BLOCK, pi=PI_TWO_BLOCK)


class TestSbmParams:
    def test_valid_params(self):
        params = two_block_params()
        assert params.K == 2
        assert params.B.shape == (2, 2)

    def test_rejects_asymmetric_B(self):
        with pytest.raises(ValueError, match="symmetric"):
            SbmParams(B=[[0.3, 0.1], [0.2, 0.2]], pi=[0.5, 0.5])

    def test_rejects_probabilities_outside_unit_interval(self):
        with pytest.raises(ValueError):
            SbmParams(B=[[1.3, 0.1], [0.1, 0.2]], pi=[0.5, 0.5])
        with pytest.raises(ValueError):
            SbmParams(B=[[-0.1, 0.1], [0.1, 0.2]], pi=[0.5, 0.5])
        # A NaN compares false with both bounds; on the diagonal and in a
        # symmetric pair it also passes the symmetry check.
        for B in ([[np.nan, 0.1], [0.1, 0.2]], [[0.3, np.nan], [np.nan, 0.2]]):
            with pytest.raises(ValueError, match=r"^B entries must lie in \[0, 1\]$"):
                SbmParams(B=B, pi=[0.5, 0.5])

    def test_rejects_pi_not_a_distribution(self):
        with pytest.raises(ValueError, match="sum"):
            SbmParams(B=B_TWO_BLOCK, pi=[0.4, 0.5])
        with pytest.raises(ValueError):
            SbmParams(B=B_TWO_BLOCK, pi=[1.4, -0.4])
        with pytest.raises(ValueError, match="^pi must sum to 1, got .*nan"):
            SbmParams(B=B_TWO_BLOCK, pi=[np.nan, 1.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            SbmParams(B=B_TWO_BLOCK, pi=[0.2, 0.3, 0.5])
        with pytest.raises(ValueError, match="B must be a square matrix"):
            SbmParams(B=[[0.3, 0.1]], pi=[1.0])
        with pytest.raises(ValueError, match="block count must be at least 1"):
            SbmParams(B=np.zeros((0, 0)), pi=[])

    def test_params_are_immutable(self):
        params = two_block_params()
        with pytest.raises(ValueError):
            params.B[0, 0] = 0.9


class TestValidateAdjacency:
    def test_accepts_valid_matrix(self):
        A = np.array([[0, 1], [1, 0]])
        out = validate_adjacency(A)
        assert out.dtype == bool

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            validate_adjacency(np.array([[0, 1], [0, 0]]))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            validate_adjacency(np.array([[1.0, 1], [1, 0]]))

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0 or 1"):
            validate_adjacency(np.array([[0, 0.5], [0.5, 0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            validate_adjacency(np.zeros((2, 3)))

    @pytest.mark.parametrize("rows", [1, 2, 3, 7, 100])
    def test_row_blocks_keep_each_message_and_its_precedence(self, monkeypatch, rows):
        # One fault per check, planted past the first block, and a 2 on
        # the diagonal that the symmetry and diagonal checks both precede.
        n = 9
        monkeypatch.setattr(_shared, "BLOCK_ENTRIES", rows * n)
        base = sample_sbm(two_block_params(), n, np.random.default_rng(5)).adjacency.astype(float)
        asymmetric, diagonal, non_binary = base.copy(), base.copy(), base.copy()
        asymmetric[8, 6] = 1.0 - asymmetric[6, 8]
        diagonal[7, 7] = 2.0
        non_binary[5, 8] = non_binary[8, 5] = 0.5
        for A, message in [
            (asymmetric, "symmetric"), (diagonal, "diagonal"), (non_binary, "0 or 1"),
        ]:
            with pytest.raises(ValueError, match=message):
                validate_adjacency(A)
        valid = validate_adjacency(base)
        assert valid.dtype == bool and np.array_equal(valid, base)
        assert validate_adjacency(valid) is valid

    @pytest.mark.parametrize("dtype", [bool, float])
    @pytest.mark.parametrize("i, j", TILE_CASE_ENTRIES)
    def test_one_asymmetric_entry_in_any_tile_is_rejected(self, dtype, i, j):
        A = sample_sbm(two_block_params(), TILE_CASE_N, np.random.default_rng(9)).adjacency.copy()
        A[i, j] = not A[i, j]
        with pytest.raises(ValueError, match="^adjacency matrix must be exactly symmetric$"):
            validate_adjacency(A.astype(dtype))

    @pytest.mark.parametrize("dtype", [float, int, np.int8, bool])
    def test_returns_a_bool_matrix_equal_to_the_nonzero_pattern(self, dtype):
        A = sample_sbm(two_block_params(), 30, np.random.default_rng(8)).adjacency.astype(dtype)
        out = validate_adjacency(A)
        assert out.dtype == bool
        assert np.array_equal(out, A != 0)

    def test_peak_memory_is_a_few_row_blocks(self):
        # The whole-matrix checks made n x n bool temporaries: 0.25 n^2.
        # A 256 x 256 tile comparison takes 64 KiB for its result and
        # 16 KiB of numpy iterator buffers, about 0.0105 n^2 at n = 1000;
        # an n x n bool temporary would be 0.125 n^2.
        n = 1000
        A = sample_sbm(two_block_params(), n, np.random.default_rng(6)).adjacency
        peak = traced_peak(lambda: validate_adjacency(A))
        assert peak <= 0.0125 * n * n * 8


class TestSampleSbm:
    def test_all_one_probabilities_give_complete_graph(self):
        params = SbmParams(B=[[1.0, 1.0], [1.0, 1.0]], pi=[0.5, 0.5])
        graph = sample_sbm(params, 5, np.random.default_rng(0))
        assert graph.adjacency.sum() == 2 * 10  # K5 has 10 edges
        assert np.all(np.diagonal(graph.adjacency) == 0)

    def test_all_zero_probabilities_give_empty_graph(self):
        params = SbmParams(B=[[0.0, 0.0], [0.0, 0.0]], pi=[0.5, 0.5])
        graph = sample_sbm(params, 5, np.random.default_rng(0))
        assert graph.adjacency.sum() == 0

    def test_rejects_nonpositive_vertex_count(self):
        with pytest.raises(ParameterRangeError):
            sample_sbm(two_block_params(), 0, np.random.default_rng(0))

    def test_symmetry_and_hollowness_exact(self):
        graph = sample_sbm(two_block_params(), 80, np.random.default_rng(3))
        A = graph.adjacency
        assert np.array_equal(A, A.T)
        assert np.all(np.diagonal(A) == 0)
        assert np.all((A == 0) | (A == 1))

    def test_same_seed_is_bit_identical(self):
        g1 = sample_sbm(two_block_params(), 60, np.random.default_rng(11))
        g2 = sample_sbm(two_block_params(), 60, np.random.default_rng(11))
        assert np.array_equal(g1.adjacency, g2.adjacency)
        assert np.array_equal(g1.labels, g2.labels)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 255, 256, 257, 300, 513, 1000, 1001])
    def test_bit_equal_to_upper_triangle_plus_transpose(self, n):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        graph = sample_sbm(two_block_params(), n, rng)
        A, labels = oracles.transpose_sum_sbm(B_TWO_BLOCK, PI_TWO_BLOCK, n, ref_rng)
        assert graph.adjacency.dtype == bool
        assert graph.adjacency.astype(float).tobytes() == A.tobytes()
        assert np.array_equal(graph.labels, labels)
        assert rng.random() == ref_rng.random()  # same share of the stream used

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_the_helper_thread_and_a_serial_run_give_the_same_bits(self, monkeypatch, n):
        # Chunk c always takes child stream c, so neither the thread that
        # fills a chunk nor the order of the two chunks changes a bit.
        calls, real = [], embedding._split
        monkeypatch.setattr(embedding, "_split", lambda *halves: (calls.append(1), real(*halves)))
        threaded = sample_sbm(two_block_params(), n, np.random.default_rng(n))
        assert calls == [1]
        for order in (lambda first, second: (first(), second()),
                      lambda first, second: (second(), first())):
            monkeypatch.setattr(embedding, "_split", order)
            serial = sample_sbm(two_block_params(), n, np.random.default_rng(n))
            assert np.array_equal(serial.adjacency, threaded.adjacency)
            assert np.array_equal(serial.labels, threaded.labels)

    def test_no_helper_thread_below_the_lanczos_size(self, monkeypatch):
        calls = []
        monkeypatch.setattr(embedding, "_split", lambda *halves: calls.append(1))
        sample_sbm(two_block_params(), embedding.LANCZOS_MIN_N - 1, np.random.default_rng(0))
        assert calls == []

    def test_peak_memory_is_about_one_matrix(self):
        n = 400
        peak = traced_peak(lambda: sample_sbm(two_block_params(), n, np.random.default_rng(0)))
        # A is one byte per entry, 0.125 n^2 float64, plus validate_adjacency's
        # row-block temporaries; a float64 A alone would make it 1.
        assert peak <= 0.3 * n * n * 8

    def test_labels_share_the_stream_with_label_sampler(self):
        params = two_block_params()
        graph = sample_sbm(params, 500, np.random.default_rng(21))
        labels = sample_block_labels(params, 500, np.random.default_rng(21))
        assert np.array_equal(graph.labels, labels)

    def test_edge_count_matches_the_blockmodel_given_the_labels(self):
        # Given the labels, the edge count is a sum of independent
        # Bernoulli(B[a, b]) over the vertex pairs; allow three of its
        # standard deviations. (Against pi^T B pi with only the binomial
        # error, the label draw's own variance doubles the spread.)
        n = 2000
        graph = sample_sbm(two_block_params(), n, np.random.default_rng(7))
        sizes = np.bincount(graph.labels, minlength=3)[1:]
        ordered_pairs = np.outer(sizes, sizes) - np.diag(sizes)
        mean = (ordered_pairs * B_TWO_BLOCK).sum() / 2
        var = (ordered_pairs * B_TWO_BLOCK * (1 - B_TWO_BLOCK)).sum() / 2
        assert abs(graph.adjacency.sum() / 2 - mean) < 3 * np.sqrt(var)

    def test_block_conditional_densities_match_B(self):
        n = 2000
        graph = sample_sbm(two_block_params(), n, np.random.default_rng(19))
        A, labels = graph.adjacency, graph.labels
        for a in (1, 2):
            for b in (1, 2):
                if b < a:
                    continue
                rows = labels == a
                cols = labels == b
                block = A[np.ix_(rows, cols)]
                if a == b:
                    m = rows.sum() * (rows.sum() - 1) / 2
                    edges = block.sum() / 2
                else:
                    m = rows.sum() * cols.sum()
                    edges = block.sum()
                p = B_TWO_BLOCK[a - 1, b - 1]
                stderr = np.sqrt(p * (1 - p) / m)
                assert abs(edges / m - p) < 3 * stderr, (a, b)

    def test_label_frequencies_converge_to_pi(self):
        # 30 independent draws at n=10000: every class frequency stays
        # within four standard errors of its target probability.
        params = two_block_params()
        n = 10000
        rng = np.random.default_rng(29)
        for _ in range(30):
            labels = sample_block_labels(params, n, rng)
            for cls, target in enumerate(PI_TWO_BLOCK, start=1):
                freq = (labels == cls).mean()
                bound = 4 * np.sqrt(target * (1 - target) / n)
                assert abs(freq - target) < bound


class TestEdgeListIO:
    def test_path_graph(self, tmp_path):
        path = tmp_path / "path.txt"
        path.write_text("0 1\n1 2\n")
        A = load_edge_list(path)
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(A, expected)

    def test_duplicates_collapse_and_self_loops_drop(self, tmp_path, caplog):
        path = tmp_path / "loops.txt"
        path.write_text("0 1\n1 0\n0 0\n")
        with caplog.at_level(logging.WARNING):
            A = load_edge_list(path)
        assert A.shape == (2, 2)
        assert A.sum() == 2  # single undirected edge
        assert "1 self-loop" in caplog.text

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "commented.txt"
        path.write_text("# header\n\n0 1\n# trailing\n")
        assert load_edge_list(path).sum() == 2

    def test_one_based_ids_detected(self, tmp_path):
        path = tmp_path / "onebased.txt"
        path.write_text("1 2\n2 3\n")
        A = load_edge_list(path)
        assert A.shape == (3, 3)
        assert A[0, 1] == 1 and A[1, 2] == 1

    def test_zero_anywhere_means_zero_based(self, tmp_path):
        path = tmp_path / "zerobased.txt"
        path.write_text("1 2\n0 2\n")
        A = load_edge_list(path)
        assert A.shape == (3, 3)

    def test_n_hint_fixes_size(self, tmp_path):
        path = tmp_path / "hinted.txt"
        path.write_text("0 1\n")
        A = load_edge_list(path, n_hint=5)
        assert A.shape == (5, 5)

    @pytest.mark.parametrize("text", ["0 1\n", "# no edges\n"])
    def test_negative_hint_names_file_and_hint(self, tmp_path, text):
        path = tmp_path / "hinted.txt"
        path.write_text(text)
        with pytest.raises(EdgeListError, match=r"hinted\.txt: vertex-count hint .* -1$"):
            load_edge_list(path, n_hint=-1)

    def test_id_beyond_hint_reports_line(self, tmp_path):
        path = tmp_path / "overflow.txt"
        path.write_text("0 1\n0 9\n")
        with pytest.raises(EdgeListError, match=r"overflow\.txt:2"):
            load_edge_list(path, n_hint=3)

    def test_first_out_of_range_line_in_file_order_is_reported(self, tmp_path):
        path = tmp_path / "many.txt"
        path.write_text("0 1\n2 1\n1 3\n9 0\n0 5\n")
        message = r"many\.txt:3: vertex id exceeds declared count 3$"
        with pytest.raises(EdgeListError, match=message):
            load_edge_list(path, n_hint=3)

    @pytest.mark.parametrize("last, loop_calls", [
        ("1 2\n", 0),  # all int64: the vectorized pass
        ("0 99999999999999999999\n", 1),  # an id past int64: the line loop
    ])
    def test_the_reported_number_is_the_file_line_after_comments_and_blanks(
        self, tmp_path, monkeypatch, last, loop_calls
    ):
        path = tmp_path / "commented.txt"
        path.write_text("# header\n\n0 1\n   \n# another\n\n0 9\n" + last)
        calls, real = [], graphs._parse_edge_lines
        monkeypatch.setattr(graphs, "_parse_edge_lines", lambda p: calls.append(1) or real(p))
        message = r"commented\.txt:7: vertex id exceeds declared count 3$"
        with pytest.raises(EdgeListError, match=message):
            load_edge_list(path, n_hint=3)
        assert len(calls) == loop_calls

    def test_id_past_int64_is_out_of_range(self, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("0 1\n0 99999999999999999999\n")
        with pytest.raises(EdgeListError, match=r"huge\.txt:2"):
            load_edge_list(path, n_hint=3)

    def test_one_based_duplicates_and_self_loops(self, tmp_path, caplog):
        path = tmp_path / "mixed.txt"
        path.write_text("1 2\n2 1\n3 3\n2 3\n3 2\n1 1\n3 3\n")
        with caplog.at_level(logging.WARNING):
            A = load_edge_list(path)
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(A, expected)
        assert "dropped 3 self-loop(s)" in caplog.text

    def test_non_integer_token_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\nx 2\n")
        with pytest.raises(EdgeListError, match=r"bad\.txt:2"):
            load_edge_list(path)

    def test_wrong_token_count_rejected(self, tmp_path):
        path = tmp_path / "triple.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(EdgeListError, match="expected 'u v'"):
            load_edge_list(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(EdgeListError, match="cannot read"):
            load_edge_list(tmp_path / "missing.txt")

    def test_unreadable_labels_file(self, tmp_path):
        with pytest.raises(EdgeListError, match="cannot read labels"):
            load_labels(tmp_path / "missing.labels", 3)

    def test_write_then_load_round_trip(self, tmp_path):
        graph = sample_sbm(two_block_params(), 40, np.random.default_rng(5))
        assert graph.adjacency[0].sum() > 0  # vertex 0 keeps the base detectable
        path = tmp_path / "roundtrip.txt"
        write_edge_list(graph.adjacency, path)
        back = load_edge_list(path, n_hint=40)
        assert np.array_equal(back, graph.adjacency)

    def test_write_gives_each_upper_triangle_edge_once_in_row_order(self, tmp_path):
        A = np.zeros((4, 4), dtype=bool)
        for u, v in [(0, 1), (0, 3), (2, 3)]:
            A[u, v] = A[v, u] = True
        for matrix in (A, A.astype(float)):
            path = tmp_path / "edges.txt"
            write_edge_list(matrix, path)
            assert path.read_bytes() == b"0 1\n0 3\n2 3\n"

    def test_a_plain_file_of_pairs_skips_the_line_loop(self, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError("line loop used")

        path = tmp_path / "plain.txt"
        path.write_text("0 1\n\n  1\t2 \n")
        monkeypatch.setattr(graphs, "_parse_edge_lines", refuse)
        A = load_edge_list(path)
        assert A.dtype == bool
        assert np.array_equal(A, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_whole_line_comments_skip_the_line_loop(self, tmp_path, monkeypatch):
        def refuse(path):
            raise AssertionError("line loop used")

        path = tmp_path / "headed.txt"
        path.write_text("# header\n  # indented\n0 1\n\n#\n1 2\n\t# trailing\n")
        monkeypatch.setattr(graphs, "_parse_edge_lines", refuse)
        A = load_edge_list(path)
        assert np.array_equal(A, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_a_commented_file_is_parsed_once(self, tmp_path, monkeypatch):
        calls = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return loadtxt(*args, **kwargs)

        path = tmp_path / "headed.txt"
        path.write_text("# header\n0 1\n1 2\n")
        monkeypatch.setattr(np, "loadtxt", spy)
        A = load_edge_list(path)
        assert len(calls) == 1
        assert np.array_equal(A, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])

    def test_write_peak_memory_is_a_few_row_blocks(self, tmp_path):
        # np.triu of the whole matrix and its mask took 2 n^2 bytes.
        n = 1000
        rng = np.random.default_rng(10)
        A = np.zeros((n, n), dtype=bool)
        u, v = rng.integers(0, n, size=(2, 3000))
        A[u, v] = A[v, u] = True
        np.fill_diagonal(A, False)
        path = tmp_path / "sparse.txt"
        peak = traced_peak(lambda: write_edge_list(A, path))
        assert peak <= 0.25 * n * n
        assert np.array_equal(load_edge_list(path, n_hint=n), A)


_SMALL_IDS = st.integers(0, 8).map(str)
_ODD_IDS = st.sampled_from(
    ["+5", "1_0", "1.0", "-1", "-0", "07", "x", "99999999999999999999", "9223372036854775807"]
)
_IDS = st.one_of(_SMALL_IDS, _SMALL_IDS, _SMALL_IDS, _ODD_IDS)
_PADDING = st.sampled_from(["", "", " ", "\t"])


@st.composite
def edge_list_texts(draw) -> str:
    """Small edge-list files of id pairs, blank lines, tabs and whole-line
    comments; half of them also mix in odd ids, three-token lines and a
    ``#`` after a token."""
    odd = draw(st.booleans())
    ids_of = _IDS if odd else _SMALL_IDS
    kinds = ["pair"] * 6 + ["comment", "blank"] + (["three", "inline"] if odd else [])
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            line = draw(st.sampled_from(["# header", "#", "  # indented", "\t#", "# a # b"]))
        elif kind == "inline":
            line = draw(st.sampled_from(["1 2 # x", "2#c", "0 1#", "3 #4"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", "   ", "\t"]))
        else:
            ids = [draw(ids_of) for _ in range(2 if kind == "pair" else 3)]
            separator = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
            line = draw(_PADDING) + separator.join(ids) + draw(_PADDING)
        lines.append(line)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestEdgeListOracle:
    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(text=edge_list_texts(), n_hint=st.one_of(st.none(), st.integers(-1, 8)))
    @example(text="1 2\n2 1\n3 3\n", n_hint=None)
    @example(text="0 1\n0 9\n", n_hint=3)
    @example(text="0 99999999999999999999\n", n_hint=4)
    @example(text="0 9223372036854775807\n", n_hint=None)
    @example(text="# header\n1 2\n2 3\n", n_hint=None)
    @example(text="# header\n0 1\n0 9\n", n_hint=3)
    @example(text="# only comments\n  #\n", n_hint=2)
    @example(text="0 1\n1 2 # x\n", n_hint=None)
    @example(text="# header\n2#c\n", n_hint=None)
    @example(text="# a # b\n0 1#c\n", n_hint=None)
    def test_matches_the_line_loop_oracle(self, tmp_path, caplog, text, n_hint):
        path = tmp_path / "edges.txt"
        path.write_text(text)

        def run(load):
            caplog.clear()
            with caplog.at_level(logging.INFO):
                try:
                    result = load(path, n_hint)
                except Exception as exc:  # compared by type and text below
                    result = (type(exc), str(exc))
            return result, [(r.levelname, r.getMessage()) for r in caplog.records]

        got, got_log = run(load_edge_list)
        want, want_log = run(oracles.line_loop_edge_list)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.dtype == bool and np.array_equal(got, want)
        assert got_log == want_log


class TestEdgeListAsBuilt:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=12),
        again=st.lists(st.tuples(st.integers(0, 11), st.booleans()), max_size=8),
        one_based=st.booleans(),
        extra=st.one_of(st.none(), st.integers(0, 3)),
    )
    @example(edges=[(0, 1), (2, 2)], again=[(0, True), (0, False)], one_based=False, extra=None)
    @example(edges=[(1, 2), (3, 3)], again=[(1, True)], one_based=True, extra=2)
    def test_a_loaded_graph_is_a_valid_adjacency_as_built(
        self, tmp_path, edges, again, one_based, extra
    ):
        # load_edge_list returns its matrix unchecked: duplicates, both
        # orientations of an edge and self-loops must still give an exactly
        # symmetric, hollow bool matrix, which the check returns as is.
        pairs = [(u + one_based, v + one_based) for u, v in edges]
        for i, flip in again:  # repeat drawn edges, some reversed
            u, v = pairs[i % len(pairs)]
            pairs.append((v, u) if flip else (u, v))
        path = tmp_path / "edges.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in pairs))
        ids = [i for pair in pairs for i in pair]
        offset = 0 if 0 in ids else 1  # ids are 1-based unless a 0 appears
        n = max(ids) + 1 - offset + (extra or 0)
        want = np.zeros((n, n))
        for u, v in pairs:
            if u != v:
                want[u - offset, v - offset] = want[v - offset, u - offset] = 1.0
        A = load_edge_list(path, None if extra is None else n)
        assert validate_adjacency(A) is A
        assert A.dtype == bool and np.array_equal(A, want)


class TestLoadLabels:
    def test_already_contiguous(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n1\n2\n")
        assert np.array_equal(load_labels(path, 3), [1, 1, 2])

    def test_remaps_to_first_appearance_order(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("7\n7\n9\n7\n")
        assert np.array_equal(load_labels(path, 4), [1, 1, 2, 1])

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\n2\n")
        with pytest.raises(EdgeListError, match="expected 3 labels"):
            load_labels(path, 3)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("")
        with pytest.raises(EdgeListError, match="empty"):
            load_labels(path, 3)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1\nblue\n")
        with pytest.raises(EdgeListError, match="class id"):
            load_labels(path, 2)


class TestLabeledGraph:
    def test_label_length_must_match(self):
        A = np.array([[0.0, 1], [1, 0]])
        with pytest.raises(ValueError, match="length"):
            LabeledGraph(adjacency=A, labels=[1])

    def test_labels_must_be_one_based(self):
        A = np.array([[0.0, 1], [1, 0]])
        with pytest.raises(ValueError, match="1-based"):
            LabeledGraph(adjacency=A, labels=[0, 1])

    def test_graph_is_immutable(self):
        graph = sample_sbm(two_block_params(), 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            graph.adjacency[0, 1] = 1.0
