"""Eigendecomposition, spectral embedding, and Procrustes alignment."""

import contextlib
import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.linalg import _fblas

import dpase
import oracles
from conftest import TILE_CASE_ENTRIES, TILE_CASE_N, traced_peak
from dpase import (
    PrivacyBudget,
    SbmParams,
    SimulationSource,
    ase,
    calibrate_noise,
    frobenius_distance,
    procrustes_align,
    run_privacy_grid,
    sample_sbm,
    sample_symmetric_noise,
    top_d_eigen,
)
from dpase import _shared, embedding
from dpase.cli import main
from dpase.embedding import (
    LANCZOS_MIN_N,
    PackedSymmetric,
    _check_symmetric,
    _packed,
)

B_TWO_BLOCK = np.array([[0.3, 0.1], [0.1, 0.2]])
# roots of the characteristic polynomial of B_TWO_BLOCK (quadratic formula)
B_EIGS = (0.3618033988749895, 0.13819660112501048)


def random_symmetric(n: int, rng) -> np.ndarray:
    G = rng.normal(size=(n, n))
    return (G + G.T) / 2


class TestTopDEigen:
    def test_exchange_matrix(self):
        pairs = top_d_eigen(np.array([[0.0, 1], [1, 0]]), 2)
        assert sorted(np.round(pairs.values, 12)) == [-1.0, 1.0]
        # magnitude tie ranks the positive eigenvalue first
        assert pairs.values[0] == pytest.approx(1.0)

    def test_diagonal_matrix_magnitude_order(self):
        pairs = top_d_eigen(np.diag([3.0, -5.0, 1.0]), 2)
        assert pairs.values == pytest.approx([-5.0, 3.0])

    def test_two_block_matrix_values(self):
        pairs = top_d_eigen(B_TWO_BLOCK, 2)
        assert pairs.values == pytest.approx(B_EIGS, abs=1e-12)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            top_d_eigen(np.array([[0.0, 1], [0, 0]]), 1)

    def test_rejects_non_square_input(self):
        with pytest.raises(ValueError, match="expected a square matrix"):
            top_d_eigen(np.zeros((2, 3)), 1)

    def test_rejects_dimension_out_of_range(self):
        M = np.eye(3)
        with pytest.raises(ValueError):
            top_d_eigen(M, 0)
        with pytest.raises(ValueError):
            top_d_eigen(M, 4)

    def test_rejects_non_finite(self):
        M = np.array([[0.0, np.nan], [np.nan, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            top_d_eigen(M, 1)

    def test_descending_magnitude_and_unit_columns(self):
        rng = np.random.default_rng(1)
        for n in (3, 10, 50, 200):
            M = random_symmetric(n, rng)
            d = max(1, n // 2)
            pairs = top_d_eigen(M, d)
            mags = np.abs(pairs.values)
            assert np.all(mags[:-1] >= mags[1:] - 1e-12)
            norms = np.linalg.norm(pairs.vectors, axis=0)
            assert np.allclose(norms, 1.0, atol=1e-10)

    def test_residuals_small(self):
        rng = np.random.default_rng(2)
        for n in (3, 10, 50, 200):
            M = random_symmetric(n, rng)
            pairs = top_d_eigen(M, n)
            bound = 1e-8 * max(1.0, np.linalg.norm(M))
            for i in range(n):
                r = M @ pairs.vectors[:, i] - pairs.values[i] * pairs.vectors[:, i]
                assert np.linalg.norm(r) <= bound

    def test_matches_characteristic_polynomial_roots(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            M = random_symmetric(n, rng)
            d = int(rng.integers(1, n + 1))
            pairs = top_d_eigen(M, d)
            expected = oracles.magnitude_sort(oracles.sym_eigvals(M), d)
            assert np.allclose(pairs.values, expected, atol=1e-10)

    def test_full_spectrum_sums_to_trace(self):
        rng = np.random.default_rng(4)
        for n in (2, 7, 40):
            M = random_symmetric(n, rng)
            pairs = top_d_eigen(M, n)
            assert abs(pairs.values.sum() - np.trace(M)) < 1e-8


def private_matrix(n: int, seed: int, alpha: float = 0.1) -> np.ndarray:
    """A + E for a blockmodel graph A and its noise E calibrated to
    (alpha, 0.001): a float matrix that is exactly symmetric, as every
    ``dp_ase`` input is."""
    params = SbmParams(B=B_TWO_BLOCK, pi=[0.4, 0.6])
    M = sample_symmetric_noise(
        n, calibrate_noise(n, 2, PrivacyBudget(alpha, 0.001)), np.random.default_rng(seed)
    ).dense()
    M += sample_sbm(params, n, np.random.default_rng(seed)).adjacency
    return M


class TestSymmetryCheck:
    @pytest.mark.parametrize("i, j", TILE_CASE_ENTRIES)
    def test_one_asymmetric_entry_in_any_tile_is_rejected(self, i, j):
        M = private_matrix(TILE_CASE_N, 50)
        A = M > 0.5
        M[i, j] += 1e-11
        A[i, j] = not A[i, j]
        for bad in (M, A):
            with pytest.raises(ValueError, match="^matrix is not symmetric$"):
                top_d_eigen(bad, 2)

    @pytest.mark.parametrize("i, j", TILE_CASE_ENTRIES)
    def test_asymmetry_within_tolerance_is_accepted(self, i, j):
        M = private_matrix(TILE_CASE_N, 51)
        M[i, j] += 1e-13
        assert _check_symmetric(M) is M

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_reported_ahead_of_an_asymmetry(self, value):
        # The asymmetry sits in an earlier tile pair than the bad value.
        M = private_matrix(TILE_CASE_N, 52)
        M[10, 300] += 1.0
        M[595, 590] = value
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            top_d_eigen(M, 2)

    @pytest.mark.parametrize("n", [300, LANCZOS_MIN_N])
    def test_bool_adjacency_is_decomposed_as_its_float_copy(self, n):
        params = SbmParams(B=B_TWO_BLOCK, pi=[0.4, 0.6])
        A = sample_sbm(params, n, np.random.default_rng(53)).adjacency
        assert _check_symmetric(A) is A
        packed = _packed(A)
        assert packed.data.dtype == float and np.array_equal(packed.dense(), A)
        pairs, reference = top_d_eigen(A, 2), top_d_eigen(A.astype(float), 2)
        assert np.array_equal(pairs.values, reference.values)
        assert np.array_equal(pairs.vectors, reference.vectors)

    def test_peak_memory_within_tolerance_is_one_tile(self):
        # Every tile pair differs by about 1e-13, so each one is subtracted;
        # one reused 256 x 256 float64 buffer is 0.066 n^2 at n = 1000.
        n = 1000
        M = private_matrix(n, 55)
        M += np.triu(np.full((n, n), 1e-13), 1)
        assert _check_symmetric(M) is M
        peak = traced_peak(lambda: _check_symmetric(M))
        assert peak <= 0.08 * n * n * 8

    def test_peak_memory_is_a_few_tiles(self):
        # Row blocks against column slabs took about 0.13 n^2 at n = 1000;
        # one float64 copy of the matrix would be 1.
        n = 1000
        M = private_matrix(n, 54)
        peak = traced_peak(lambda: _check_symmetric(M))
        assert peak <= 0.05 * n * n * 8


LAYOUT_SIZES = [1, 2, 3, 4, 5, 7, 255, 256, 257, 300, 301, 1000, 1001]


def without_cblas(monkeypatch) -> None:
    """Make the packed product find no ``cblas_dsymv`` or ``cblas_dgemv``
    in numpy's BLAS, so that it runs its numpy fallback."""
    real = embedding._openblas
    found = real(np.linalg._umath_linalg)
    if found is not None:
        lacking = found._replace(dsymv=None, dgemv=None)
        monkeypatch.setattr(embedding, "_openblas", lambda module: lacking
                            if module is np.linalg._umath_linalg else real(module))


class TestPackedSymmetric:
    @pytest.mark.parametrize("block_entries", [None, 7])
    @pytest.mark.parametrize("n", LAYOUT_SIZES)
    def test_every_producer_writes_lapacks_rfp_layout(self, monkeypatch, n, block_entries):
        # Packing walks row blocks of about BLOCK_ENTRIES entries; 7 makes
        # blocks of one row (n > 3) or of several short rows (n <= 3).
        # Every position is compared bit for bit with LAPACK's dtpttf.
        if block_entries is not None:
            monkeypatch.setattr(_shared, "BLOCK_ENTRIES", block_entries)
        M = random_symmetric(n, np.random.default_rng(n))
        A = M > 0
        packed = PackedSymmetric.pack(M)
        assert packed.data.tobytes() == oracles.rfp_layout(M).tobytes()
        assert np.array_equal(packed.dense(), M)
        assert PackedSymmetric.pack(A).data.tobytes() == oracles.rfp_layout(A).tobytes()
        packed.add(A)
        assert packed.data.tobytes() == oracles.rfp_layout(M + A).tobytes()
        upper = packed.dense(mirror=False)[np.triu_indices(n)]
        assert upper.tobytes() == (M + A)[np.triu_indices(n)].tobytes()
        noise = sample_symmetric_noise(n, 0.3, np.random.default_rng(n))
        E = oracles.rfp_noise(n, 0.3, np.random.default_rng(n))
        assert noise.data.tobytes() == oracles.rfp_layout(E).tobytes()

    @pytest.mark.parametrize("cblas", [True, False], ids=["cblas", "numpy"])
    @pytest.mark.parametrize("n", LAYOUT_SIZES)
    def test_matvec_agrees_with_the_dense_product(self, monkeypatch, n, cblas):
        rng = np.random.default_rng(n)
        M, v = random_symmetric(n, rng), rng.normal(size=n)
        if not cblas:
            without_cblas(monkeypatch)
        got = PackedSymmetric.pack(M).matvec(v)
        assert np.abs(got - M @ v).max() <= 1e-13 * np.linalg.norm(M, 2) * np.abs(v).max()

    def test_the_numpy_fallback_allocates_no_square_temporary(self, monkeypatch):
        # Square tiles of 256 x 256 (0.066 n^2 at n = 1000); one n x n
        # float64 temporary would be 1, and a quarter block 0.25.
        n = 1000
        rng = np.random.default_rng(57)
        packed, v = PackedSymmetric.pack(random_symmetric(n, rng)), rng.normal(size=n)
        without_cblas(monkeypatch)
        assert traced_peak(lambda: packed.matvec(v)) <= 0.1 * n * n * 8

    # -2, -3 and 2.0 ask for 1, 3 and 3.0 values, which a length check passes.
    @pytest.mark.parametrize("n, size, match", [
        (3, 5, "needs 6 float64 values"),
        (-2, 1, "non-negative integer"),
        (-3, 3, "non-negative integer"),
        (2.0, 3, "non-negative integer"),
    ])
    def test_rejects_a_bad_size_or_a_vector_of_the_wrong_length(self, n, size, match):
        with pytest.raises(ValueError, match=match):
            PackedSymmetric(n, np.zeros(size))

    def test_rejects_values_that_are_not_one_contiguous_array(self):
        # Its blocks are views of it, and BLAS reads it by address.
        with pytest.raises(ValueError, match="one contiguous array"):
            PackedSymmetric(3, np.zeros(12)[::2])

    @pytest.mark.parametrize("length", [2, 4])
    def test_matvec_rejects_a_vector_of_the_wrong_length(self, length):
        # BLAS would read past its end, or ignore its tail.
        with pytest.raises(ValueError, match=f"expected a vector of 3 values, got {length}"):
            PackedSymmetric.pack(np.eye(3)).matvec(np.ones(length))

    def test_non_finite_entry_is_rejected(self):
        data = np.zeros(6)
        data[4] = np.inf
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            top_d_eigen(PackedSymmetric(3, data), 1)

    def test_peak_memory_of_a_bool_graph_at_lanczos_size_is_about_half_a_matrix(self):
        # The packed float64 copy of A (0.5 n^2) plus the Lanczos work
        # arrays; the dense float64 copy it replaces alone would be 1.
        n = LANCZOS_MIN_N
        params = SbmParams(B=B_TWO_BLOCK, pi=[0.4, 0.6])
        A = sample_sbm(params, n, np.random.default_rng(56)).adjacency
        peak = traced_peak(lambda: ase(A, 2))
        assert peak <= 0.65 * n * n * 8


def count_eigsh_calls(monkeypatch) -> list:
    """Route scipy's eigsh through a spy; the returned list grows per call."""
    calls = []
    real = scipy.sparse.linalg.eigsh

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", spy)
    return calls


def assert_sign_rule(vectors: np.ndarray) -> None:
    lead = np.argmax(np.abs(vectors), axis=0)
    assert np.all(vectors[lead, np.arange(vectors.shape[1])] > 0)


@pytest.fixture(scope="module", params=[None, 0.1, 0.001], ids=["A", "A+E", "A+E-tight"])
def lanczos_case(request):
    """A blockmodel matrix at the Lanczos threshold, plain or privatized at
    alpha (delta = 0.001), with its dense top-10 reference."""
    n = LANCZOS_MIN_N
    params = SbmParams(B=B_TWO_BLOCK, pi=[0.4, 0.6])
    M = sample_sbm(params, n, np.random.default_rng(40)).adjacency.astype(float)
    if request.param is not None:
        scale = calibrate_noise(n, 2, PrivacyBudget(request.param, 0.001))
        M += sample_symmetric_noise(n, scale, np.random.default_rng(41)).dense()
    return M, oracles.dense_top_d(M, 10)


class TestLanczosPath:
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_matches_dense_reference_entrywise(self, monkeypatch, lanczos_case, d):
        M, (ref_values, ref_vectors) = lanczos_case
        calls = count_eigsh_calls(monkeypatch)
        pairs = top_d_eigen(M, d)
        assert len(calls) == 1
        scale = abs(ref_values[0])
        assert np.abs(pairs.values - ref_values[:d]).max() <= 1e-10 * scale
        X = pairs.vectors * np.sqrt(np.abs(pairs.values))
        X_ref = ref_vectors[:, :d] * np.sqrt(np.abs(ref_values[:d]))
        assert np.abs(X - X_ref).max() <= 1e-10 * np.abs(X_ref).max()

    def test_sign_rule_on_both_paths(self, monkeypatch, lanczos_case):
        M, _ = lanczos_case
        calls = count_eigsh_calls(monkeypatch)
        assert_sign_rule(top_d_eigen(M, 10).vectors)
        assert len(calls) == 1
        small = random_symmetric(300, np.random.default_rng(42))
        assert_sign_rule(top_d_eigen(small, 10).vectors)
        assert len(calls) == 1

    def test_repeat_calls_are_bit_identical(self, lanczos_case):
        M, _ = lanczos_case
        first, second = top_d_eigen(M, 2), top_d_eigen(M, 2)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)

    @pytest.mark.parametrize("n, d, lanczos", [
        (LANCZOS_MIN_N, 2, True),
        (LANCZOS_MIN_N - 1, 2, False),
        (LANCZOS_MIN_N, LANCZOS_MIN_N // 2, False),
    ])
    def test_dense_path_below_threshold_or_for_half_the_spectrum(
        self, monkeypatch, n, d, lanczos
    ):
        calls = count_eigsh_calls(monkeypatch)
        top_d_eigen(random_symmetric(n, np.random.default_rng(43)), d)
        assert len(calls) == int(lanczos)

    def test_basis_rule_cuts_products_past_the_blocks_and_keeps_d2(self, monkeypatch):
        # Spied at the packed product, one call per ARPACK mat-vec. At
        # ncv = 21 the d = 10 solve took 1108; d = 2 keeps the default 20.
        graph = sample_sbm(SbmParams(B=B_TWO_BLOCK, pi=[0.4, 0.6]), 2000,
                           np.random.default_rng(7))
        products = []
        matvec = PackedSymmetric.matvec

        def counting(self, v):
            products.append(1)
            return matvec(self, v)

        monkeypatch.setattr(PackedSymmetric, "matvec", counting)
        top_d_eigen(graph.adjacency, 10)
        assert len(products) <= 600
        products.clear()
        top_d_eigen(graph.adjacency, 2)
        assert len(products) == 21

    def test_non_convergence_raises_linalg_error(self, monkeypatch, lanczos_case):
        M, _ = lanczos_case

        def stuck(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stuck)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            top_d_eigen(M, 2)

    def test_importing_the_cli_leaves_scipy_sparse_unloaded(self):
        src = Path(dpase.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        probe = "import sys, dpase.cli; print('scipy.sparse' in sys.modules)"
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, check=True,
        )
        assert result.stdout.strip() == "False"


ROUTINES = ("dsytrd", "dstebz", "dstein", "dormtr")


def numpy_lapack():
    """numpy's OpenBLAS as the two-ended path finds it; skips the test if
    it lacks one of ``ROUTINES``, where that path runs ``eigh`` instead."""
    found = embedding._openblas(np.linalg._umath_linalg)
    if found is None or any(getattr(found, name) is None for name in ROUTINES):
        pytest.skip("numpy's BLAS exports no LAPACKE dsytrd, dstebz, dstein or dormtr")
    return found


def with_routines(monkeypatch, fake, names=ROUTINES) -> None:
    """Route the two-ended path's calls of each named routine through
    fake(name, real, *args)."""
    found = numpy_lapack()
    patched = found._replace(**{
        name: lambda *args, name=name: fake(name, getattr(found, name), *args)
        for name in names
    })
    monkeypatch.setattr(embedding, "_openblas", lambda module: patched)


def path_graph(n: int) -> np.ndarray:
    P = np.diag(np.ones(n - 1), 1)
    return P + P.T


def assert_matches_eigh(M: np.ndarray, ds) -> None:
    """top_d_eigen(M, d) for each d against the full ``eigh``: the same
    values, orthonormal vectors with small residuals, and, for each pair
    at least 1e-6 ||M|| from every other eigenvalue, the same line as the
    reference's vector (|V^T V_ref| is the identity)."""
    n = len(M)
    w, V = np.linalg.eigh(M)
    scale = np.abs(w).max()
    gaps = np.diff(w)
    gap = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    for d in ds:
        pairs = top_d_eigen(M, d)
        order = sorted(range(n), key=lambda i: (-abs(w[i]), w[i] < 0, i))[:d]
        assert np.abs(pairs.values - w[order]).max() <= 1e-12 * scale
        assert np.abs(pairs.vectors.T @ pairs.vectors - np.eye(d)).max() <= 1e-12
        residual = M @ pairs.vectors - pairs.vectors * pairs.values
        assert np.abs(residual).max() <= 1e-13 * scale
        apart = gap[order] >= 1e-6 * scale
        overlap = np.abs(pairs.vectors[:, apart].T @ V[:, order][:, apart])
        assert np.abs(overlap - np.eye(apart.sum())).max() <= 1e-8
        assert_sign_rule(pairs.vectors)


class TestTwoEndedPath:
    @pytest.mark.parametrize("n", [*range(3, 101), 150, 300])
    def test_matches_the_full_decomposition_for_every_d_below_half(self, n):
        assert_matches_eigh(private_matrix(n, 60 + n), range(1, (n - 1) // 2 + 1))

    def test_matches_the_full_decomposition_below_the_lanczos_size(self):
        assert_matches_eigh(private_matrix(LANCZOS_MIN_N - 1, 66), (1, 2, 10, 49))

    @pytest.mark.parametrize("n", [300, LANCZOS_MIN_N - 1])
    def test_matches_the_full_decomposition_at_the_tight_corner(self, n):
        # At alpha = delta = 0.001 the retained pairs are noise at the edges
        # of the bulk. Some sit closer than 1e-3 ||M|| to a neighbour, so
        # dstein reorthogonalizes their vectors within a cluster.
        M = private_matrix(n, 67, alpha=0.001)
        w = np.linalg.eigvalsh(M)
        ends = np.concatenate((np.diff(w[:49]), np.diff(w[-49:])))
        assert (ends < 1e-3 * np.abs(w).max()).any()
        assert_matches_eigh(M, (2, 10, 49))

    @pytest.mark.parametrize("n", [48, 160])
    def test_a_graph_in_pieces_matches_the_full_decomposition(self, n):
        # Separate components (and isolated vertices) split the tridiagonal
        # matrix into blocks, whose eigenvalues bisection lists block by
        # block; each end must still come back in ascending order.
        rng = np.random.default_rng(70)
        M = np.zeros((n, n))
        first, second = 3 * n // 8, 15 * n // 16
        for piece, scale in ((slice(0, first), 3.6), (slice(first, second), 3.0)):
            M[piece, piece] = random_symmetric(piece.stop - piece.start, rng) * scale
        w, _ = embedding._two_ends(PackedSymmetric.pack(M), 5)
        assert np.all(np.diff(w) >= 0)
        assert_matches_eigh(M, (1, 2, 5, 10))

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e150, 1e300])
    def test_a_matrix_of_extreme_magnitude_is_scaled_into_range(self, scale):
        # Unscaled, bisection underflows on the small ones (wrong values)
        # and the large ones overflow (a failed step).
        M = private_matrix(300, 69)
        pairs, scaled = top_d_eigen(M, 3), top_d_eigen(M * scale, 3)
        assert np.abs(scaled.values / scale - pairs.values).max() <= 1e-13 * abs(pairs.values[0])
        assert np.abs(scaled.vectors - pairs.vectors).max() <= 1e-10

    def test_a_bipartite_spectrum_ranks_the_positive_end_first(self):
        # A path is bipartite and already tridiagonal with a zero diagonal,
        # so bisection finds each eigenvalue at both ends exactly negated:
        # every +/- pair is an exact magnitude tie.
        M = path_graph(100)
        (top,) = top_d_eigen(M, 1).values
        pairs = top_d_eigen(M, 4)
        assert top > 0
        assert pairs.values[0] == -pairs.values[1] == top
        assert pairs.values[2] == -pairs.values[3] > 0
        # The -lambda vector is the +lambda one with every other sign flipped.
        flip = np.where(np.arange(len(M)) % 2, -1.0, 1.0)
        for plus, minus in ((0, 1), (2, 3)):
            v_plus, v_minus = pairs.vectors[:, plus], pairs.vectors[:, minus]
            assert min(np.abs(v_plus * flip - s * v_minus).max() for s in (1, -1)) <= 1e-12

    def test_a_bipartite_grid_keeps_the_positive_end_on_every_path(self, monkeypatch, tmp_path):
        # On this bipartite blockmodel the full eigh computes |lambda-| a few
        # ulps larger than lambda+ in replicate 0, while the two-ended solve
        # ties them exactly; a d = 1 embedding must keep the same end either
        # way, so the records must be the same.
        args = ["privacy-grid", "--n", "120", "--B", "0,0.3,0.3,0", "--pi", "0.5,0.5",
                "--alpha", "0.5,1", "--delta", "0.01", "--dim", "1", "--k", "3",
                "--replicates", "5", "--seed", "7", "--out"]
        numpy_lapack()
        assert main([*args, str(tmp_path / "ends.csv")]) == 0
        monkeypatch.setattr(embedding, "_openblas", lambda module: None)
        assert main([*args, str(tmp_path / "eigh.csv")]) == 0
        ends = (tmp_path / "ends.csv").read_text()
        assert ends == (tmp_path / "eigh.csv").read_text()
        first = ends.splitlines()[1].split(",")
        assert first[9:11] == ["0.541666667", "6.04566475"]  # error_ase and fnorm

    @pytest.mark.parametrize("excess, kept", [(0, 1.0), (8, 1.0), (16, -1.0)])
    def test_magnitudes_within_n_eps_of_each_other_rank_the_positive_end_first(
        self, excess, kept
    ):
        # n = 10: the margin is 10 eps max|w|, so a negative end larger by
        # 8 eps is tied with the positive one, and by 16 eps it is not.
        eps = np.finfo(float).eps
        M = np.diag([0.5, 1.0, -(1.0 + excess * eps), 0.25, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1])
        (top,) = top_d_eigen(M, 1).values
        assert np.sign(top) == kept

    @pytest.mark.parametrize("missing", [None, *ROUTINES])
    @pytest.mark.parametrize("d", [1, 2, 10])
    def test_the_fallback_without_the_routines_gives_the_same_pairs(
        self, monkeypatch, d, missing
    ):
        M = private_matrix(300, 61)
        pairs = top_d_eigen(M, d)
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *args: calls.append(1) or real(*args))
        if missing is None:
            monkeypatch.setattr(embedding, "_openblas", lambda module: None)
        else:
            lacking = numpy_lapack()._replace(**{missing: None})
            monkeypatch.setattr(embedding, "_openblas", lambda module: lacking)
        full = top_d_eigen(M, d)
        assert calls == [1]
        scale = abs(full.values[0])
        assert np.abs(pairs.values - full.values).max() <= 1e-12 * scale
        assert np.abs(pairs.vectors - full.vectors).max() <= 1e-10

    def test_reduces_once_and_back_transforms_once_with_no_full_eigh(self, monkeypatch):
        calls = []

        def spy(name, real, *args):
            calls.append(name if name != "dstebz" else (name, args[5], args[6]))  # il, iu
            if name == "dormtr":
                assert args[5] == 6  # all 2 d vectors at once
            return real(*args)

        def full(*args, **kwargs):
            raise AssertionError("np.linalg.eigh ran on the two-ended path")

        with_routines(monkeypatch, spy)
        monkeypatch.setattr(np.linalg, "eigh", full)
        n = 100
        top_d_eigen(random_symmetric(n, np.random.default_rng(62)), 3)
        assert calls == ["dsytrd", ("dstebz", 1, 3), "dstein", ("dstebz", n - 2, n), "dstein",
                         "dormtr"]

    def test_dstein_sees_a_finite_eigenvalue_buffer_of_length_n(self, monkeypatch):
        # LAPACKE_dstein NaN-checks all n entries of w, not only the d it
        # reads, so an uninitialized buffer fails at random with info = -6.
        # Every new float buffer is filled with NaN here, to make that
        # failure certain instead of random.
        seen = []
        real_empty = np.empty

        def poisoned(shape, dtype=float, **kwargs):
            out = real_empty(shape, dtype, **kwargs)
            if np.issubdtype(out.dtype, np.floating):
                out.fill(np.nan)
            return out

        def spy(name, real, *args):
            w = args[5]
            seen.append((w.shape, bool(np.isfinite(w).all())))
            return real(*args)

        M = private_matrix(300, 68)
        expected = top_d_eigen(M, 2)
        with_routines(monkeypatch, spy, names=("dstein",))
        monkeypatch.setattr(np, "empty", poisoned)
        pairs = top_d_eigen(M, 2)
        assert seen == [((300,), True)] * 2
        assert np.array_equal(pairs.values, expected.values)
        assert np.array_equal(pairs.vectors, expected.vectors)

    TWO_ENDS = ["dsytrd", "dstebz", "dstein", "dstebz", "dstein", "dormtr"]

    @pytest.mark.parametrize("n, d, missing, solved_by", [
        (3, 1, None, TWO_ENDS),
        (LANCZOS_MIN_N - 1, 2, None, TWO_ENDS),
        (LANCZOS_MIN_N - 1, (LANCZOS_MIN_N - 2) // 2, None, TWO_ENDS),
        (3, 2, None, ["eigh"]),
        (4, 2, None, ["eigh"]),
        (LANCZOS_MIN_N - 1, LANCZOS_MIN_N // 2, None, ["eigh"]),
        (LANCZOS_MIN_N, LANCZOS_MIN_N // 2, None, ["eigh"]),
        (3, 1, "dstein", ["eigh"]),
        (300, 2, "dsytrd", ["eigh"]),
        (LANCZOS_MIN_N, 2, None, ["eigsh"]),
    ])
    def test_the_size_gate(self, monkeypatch, n, d, missing, solved_by):
        # A full eigh only for half the spectrum or more, or without one of
        # the routines; ARPACK from LANCZOS_MIN_N; the two ends otherwise.
        calls = []
        with_routines(monkeypatch, lambda name, real, *args: calls.append(name) or real(*args))
        if missing is not None:
            lacking = embedding._openblas(np.linalg._umath_linalg)._replace(**{missing: None})
            monkeypatch.setattr(embedding, "_openblas", lambda module: lacking)
        for module, name in ((np.linalg, "eigh"), (scipy.sparse.linalg, "eigsh")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, real=real, **kwargs:
                                calls.append(name) or real(*args, **kwargs))
        top_d_eigen(random_symmetric(n, np.random.default_rng(63)), d)
        assert calls == solved_by

    # Each case fails one step: (routine, which of its calls, how, message).
    FAILURES = [
        ("dsytrd", 0, "info", r"dsytrd failed for pairs 1\.\.2 and 99\.\.100 at n=100: info=1"),
        ("dstebz", 0, "info", r"dstebz failed for pairs 1\.\.2 at n=100: info=1"),
        ("dstebz", 1, "count", r"dstebz failed for pairs 99\.\.100 at n=100: info=0, 1 pairs"),
        ("dstein", 1, "info", r"dstein failed for pairs 99\.\.100 at n=100: info=1"),
        ("dstein", 0, "ifail",
         r"dstein failed for pairs 1\.\.2 at n=100: info=0, unconverged \[2\]"),
        ("dormtr", 0, "info", r"dormtr failed for pairs 1\.\.2 and 99\.\.100 at n=100: info=1"),
    ]

    @staticmethod
    def failing(step: str, call: int, how: str):
        """A fake for ``with_routines`` that runs every call and spoils the
        given call (0 for the first) of the given step: a nonzero info, one
        pair too few (dstebz's m, passed by reference), or an unconverged
        second vector in dstein's ifail."""
        calls = []

        def fake(name, real, *args):
            info = real(*args)
            if name != step:
                return info
            calls.append(name)
            if len(calls) - 1 != call:
                return info
            if how == "count":
                args[10]._obj.value -= 1
            elif how == "ifail":
                args[10][1] = 2
            return 1 if how == "info" else info

        return fake

    @pytest.mark.parametrize("step, call, how, message", FAILURES,
                             ids=[f"{step}-{how}" for step, _, how, _ in FAILURES])
    def test_a_failed_step_raises_linalg_error(self, monkeypatch, step, call, how, message):
        with_routines(monkeypatch, self.failing(step, call, how))
        with pytest.raises(np.linalg.LinAlgError, match=message):
            top_d_eigen(private_matrix(100, 64), 2)

    @pytest.mark.parametrize("step", ROUTINES)
    def test_a_failed_step_tags_the_cell_eigen_error(self, monkeypatch, step):
        with_routines(monkeypatch, self.failing(step, 0, "info"))
        records = run_privacy_grid(
            SimulationSource(SbmParams(B=B_TWO_BLOCK, pi=[0.4, 0.6])),
            100, 2, [0.5], [0.01], 3, 1, 0,
        )
        assert [r.status for r in records] == ["eigen_error"]

    def test_finds_numpys_pool_whenever_numpy_reports_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in blas["name"].lower():
            pytest.skip(f"numpy's BLAS is {blas['name']}")
        assert embedding._openblas(np.linalg._umath_linalg) is not None

    def test_a_solve_runs_on_one_thread_and_restores_the_count(
        self, monkeypatch, numpy_blas_count
    ):
        seen = []

        def spy(name, real, *args):
            seen.append(numpy_blas_count())
            return real(*args)

        with_routines(monkeypatch, spy)
        top_d_eigen(private_matrix(300, 65), 2)
        assert seen == [1] * 6
        assert numpy_blas_count() == 2

    @pytest.mark.parametrize("step", ROUTINES)
    def test_a_failed_step_restores_the_count(self, monkeypatch, numpy_blas_count, step):
        seen = []
        fail = self.failing(step, 0, "info")
        with_routines(monkeypatch, lambda *args: seen.append(numpy_blas_count()) or fail(*args))
        with pytest.raises(np.linalg.LinAlgError, match=step):
            top_d_eigen(private_matrix(300, 65), 2)
        assert seen and set(seen) == {1}
        assert numpy_blas_count() == 2


def blas_count(module):
    """The getter of the thread count of the OpenBLAS that the module
    links, set to 2 while the test runs, so that a count left at 1 shows,
    and restored after it."""
    found = embedding._openblas(module)
    if found is None:
        pytest.skip(f"{module.__name__} links no OpenBLAS that exports its thread count")
    before = found.get_threads()
    found.set_threads(2)
    yield found.get_threads
    found.set_threads(before)


@pytest.fixture
def scipy_blas_count():
    yield from blas_count(_fblas)


@pytest.fixture
def numpy_blas_count():
    yield from blas_count(np.linalg._umath_linalg)


class TestScipyBlasThreads:
    def test_a_solve_runs_on_one_thread_and_restores_the_count(
        self, monkeypatch, lanczos_case, scipy_blas_count
    ):
        M, _ = lanczos_case
        seen = []
        matvec = PackedSymmetric.matvec

        def spy(self, v):
            seen.append(scipy_blas_count())
            return matvec(self, v)

        monkeypatch.setattr(PackedSymmetric, "matvec", spy)
        top_d_eigen(M, 2)
        assert seen and set(seen) == {1}
        assert scipy_blas_count() == 2

    def test_non_convergence_restores_the_count(self, monkeypatch, lanczos_case, scipy_blas_count):
        M, _ = lanczos_case
        seen = []

        def stuck(*args, **kwargs):
            seen.append(scipy_blas_count())
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stuck)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            top_d_eigen(M, 2)
        assert seen == [1]
        assert scipy_blas_count() == 2

    @pytest.mark.parametrize("pool", ["scipy", "numpy"])
    def test_results_do_not_depend_on_the_pin(self, monkeypatch, lanczos_case, pool):
        # Without scipy's pin the results are the same bit for bit. Without
        # numpy's, OpenBLAS splits each dsymv's sums over its threads, so
        # they agree to rounding: numpy's pin is what keeps the products'
        # bits independent of that pool's size.
        M, _ = lanczos_case
        pinned = top_d_eigen(M, 10)
        unpinned_found = embedding._openblas(_fblas if pool == "scipy" else np.linalg._umath_linalg)
        real = embedding._one_blas_thread
        monkeypatch.setattr(embedding, "_one_blas_thread", lambda found: contextlib.nullcontext()
                            if found is unpinned_found else real(found))
        unpinned = top_d_eigen(M, 10)
        if pool == "scipy":
            assert np.array_equal(pinned.values, unpinned.values)
            assert np.array_equal(pinned.vectors, unpinned.vectors)
        else:
            assert np.abs(pinned.values - unpinned.values).max() <= 1e-12 * abs(pinned.values[0])
            assert np.abs(pinned.vectors - unpinned.vectors).max() <= 1e-8

    def test_results_without_the_cblas_symbols_agree(self, monkeypatch, lanczos_case):
        # The numpy fallback of the packed product rounds differently, so
        # the pairs agree to the Lanczos path's own accuracy, not bitwise.
        M, _ = lanczos_case
        split = top_d_eigen(M, 10)
        without_cblas(monkeypatch)
        fallback = top_d_eigen(M, 10)
        assert np.abs(split.values - fallback.values).max() <= 1e-12 * abs(split.values[0])
        assert np.abs(split.vectors - fallback.vectors).max() <= 1e-8

    def test_products_run_on_one_thread_of_numpys_pool(
        self, monkeypatch, lanczos_case, numpy_blas_count
    ):
        M, _ = lanczos_case
        found = numpy_cblas()
        seen = []

        def spy(*args):
            seen.append((threading.current_thread() is threading.main_thread(),
                         numpy_blas_count()))
            return found.dsymv(*args)

        real, spying = embedding._openblas, found._replace(dsymv=spy)
        monkeypatch.setattr(embedding, "_openblas", lambda module: spying
                            if module is np.linalg._umath_linalg else real(module))
        top_d_eigen(M, 2)
        # One dsymv per half: the caller's and the helper's, each at one thread.
        assert seen and set(seen) == {(True, 1), (False, 1)}
        assert seen.count((True, 1)) == seen.count((False, 1))
        assert numpy_blas_count() == 2

    def test_finds_the_setter_whenever_scipy_reports_openblas(self):
        # A wheel that renames the symbols must fail here, not silently
        # lose the pin.
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in blas["name"].lower():
            pytest.skip(f"scipy's BLAS is {blas['name']}")
        assert embedding._openblas(_fblas) is not None

    # Both take the two-ended solve, which calls numpy's own LAPACK:
    # importing scipy.linalg after dpase.cli adds about 27 MB of resident
    # memory.
    @pytest.mark.parametrize("n", [60, 300])
    def test_a_dense_path_command_never_imports_scipy(self, tmp_path, n):
        # The dense path would otherwise pay scipy's import time and memory.
        src = Path(dpase.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        args = ["privacy-grid", "--n", str(n), "--B", "0.3,0.1,0.1,0.2", "--pi", "0.4,0.6",
                "--alpha", "0.1", "--delta", "0.01", "--out", str(tmp_path / "grid.csv")]
        probe = (f"import sys, threading; from dpase.cli import main; code = main({args!r}); "
                 "print(code, 'scipy' in sys.modules, threading.active_count())")
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, check=True,
        )
        # No helper thread either: only Lanczos-size products and draws split.
        assert result.stdout.split()[-3:] == ["0", "False", "1"]


def numpy_cblas():
    """numpy's OpenBLAS as the packed product finds it; skips the test if
    it lacks ``cblas_dsymv`` or ``cblas_dgemv``, where the product runs its
    numpy fallback on the calling thread."""
    found = embedding._openblas(np.linalg._umath_linalg)
    if found is None or found.dsymv is None or found.dgemv is None:
        pytest.skip("numpy's BLAS exports no cblas_dsymv or cblas_dgemv")
    return found


class TestSplitProduct:
    """The helper thread that computes half of each packed product."""

    def test_a_child_forked_after_a_solve_solves_again(self):
        # The child has no helper thread, only the parent's record of one;
        # it must start its own. The alarm ends a hung child by itself.
        src = Path(dpase.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        script = textwrap.dedent("""
            import os, signal
            import numpy as np
            from dpase import SbmParams, embedding, sample_sbm, top_d_eigen
            params = SbmParams(B=np.array([[0.3, 0.1], [0.1, 0.2]]), pi=[0.4, 0.6])
            A = sample_sbm(params, 1000, np.random.default_rng(40)).adjacency
            first = top_d_eigen(A, 2)
            parents = embedding._jobs
            assert parents is not None
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)
                again = top_d_eigen(A, 2)
                same = (np.array_equal(again.values, first.values)
                        and np.array_equal(again.vectors, first.vectors))
                os._exit(0 if same and embedding._jobs not in (None, parents) else 1)
            print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.stdout.split() == ["0"], result.stderr

    def test_a_split_after_an_interrupted_wait_waits_for_its_own_half(self):
        # Ctrl-C while the caller waits for the helper's half must not
        # leave a reply behind that a later split takes for its own: that
        # split would return while its second half is still to run. The
        # alarm ends a hung run by itself.
        src = Path(dpase.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        script = textwrap.dedent("""
            import signal, threading, time
            from dpase import embedding
            signal.alarm(60)
            embedding._split(lambda: None, lambda: None)  # the helper is running
            main = threading.main_thread().ident
            threading.Timer(0.1, signal.pthread_kill, (main, signal.SIGINT)).start()
            try:
                embedding._split(lambda: None, lambda: time.sleep(0.5))
                print("not interrupted")
            except KeyboardInterrupt:
                finished = []
                embedding._split(lambda: None, lambda: (time.sleep(0.1), finished.append(1)))
                print("finished" if finished else "NOT finished")
        """)
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.stdout.split() == ["finished"], result.stderr

    def test_a_child_forked_while_another_thread_holds_a_pin_restores_the_count(self):
        # The holding thread does not exist in the child, so its pin would
        # never end there and the pool would stay on one thread. The pool
        # is set to 2 threads first, so that a count left at 1 shows even
        # where the default is 1; the child exits with its count after a
        # pinned block of its own.
        if embedding._openblas(np.linalg._umath_linalg) is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS that exports its thread count")
        src = Path(dpase.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        script = textwrap.dedent("""
            import os, signal, threading
            import numpy as np
            from dpase import embedding
            found = embedding._openblas(np.linalg._umath_linalg)
            found.set_threads(2)
            held, release = threading.Event(), threading.Event()

            def hold():
                with embedding._one_blas_thread(found):
                    held.set()
                    release.wait()

            thread = threading.Thread(target=hold)
            thread.start()
            held.wait()
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)
                with embedding._one_blas_thread(found):
                    pass
                os._exit(found.get_threads())
            release.set()
            thread.join()
            print(found.get_threads(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """)
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                text=True, timeout=120)
        assert result.stdout.split() == ["2", "2"], result.stderr

    def test_threads_solving_at_once_get_the_serial_results(
        self, lanczos_case, numpy_blas_count, scipy_blas_count
    ):
        # More solving threads than cores, switching often. Their products
        # take the helper in turn, and the pins are counted, so both pools
        # stay on one thread until the last solve ends: an unpinned pool
        # would change the products' rounding, and a lost handoff would
        # mix two products' halves.
        M, _ = lanczos_case
        packed = _packed(M)
        dims = (10, 8, 6, 3)
        serial = [top_d_eigen(packed, d) for d in dims]
        start = threading.Barrier(len(dims))
        results, spans = [None] * len(dims), [None] * len(dims)

        def solve(i, d):
            start.wait()
            began = time.perf_counter()
            results[i] = top_d_eigen(packed, d)
            spans[i] = (began, time.perf_counter())

        threads = [threading.Thread(target=solve, args=(i, d), daemon=True)
                   for i, d in enumerate(dims)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert max(s[0] for s in spans) < min(s[1] for s in spans)  # they overlapped
        for got, expected in zip(results, serial):
            assert np.array_equal(got.values, expected.values)
            assert np.array_equal(got.vectors, expected.vectors)
        assert numpy_blas_count() == 2 and scipy_blas_count() == 2

    def test_a_failure_in_the_helpers_half_raises_in_the_caller(self, monkeypatch):
        found = numpy_cblas()
        n = 300
        rng = np.random.default_rng(58)
        M, v = random_symmetric(n, rng), rng.normal(size=n)
        packed = PackedSymmetric.pack(M)

        def failing(layout, uplo, *args):
            if uplo == 121:  # M22's upper triangle: the helper's half
                raise RuntimeError("injected into the helper's half")
            return found.dsymv(layout, uplo, *args)

        monkeypatch.setattr(embedding, "_openblas", lambda module: found._replace(dsymv=failing))
        raised = []

        def multiply():
            try:
                packed.matvec(v)
            except RuntimeError as exc:
                raised.append((str(exc), threading.current_thread().name))

        worker = threading.Thread(target=multiply, name="caller", daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert raised == [("injected into the helper's half", "caller")]
        # The helper survives and serves the next product.
        monkeypatch.undo()
        expected = M @ v
        assert np.abs(packed.matvec(v) - expected).max() <= 1e-13 * np.abs(expected).max()


class TestAse:
    def test_zero_matrix_embeds_to_zero(self):
        for d in (1, 2, 3):
            X = ase(np.zeros((4, 4)), d)
            assert X.shape == (4, d)
            assert np.all(X == 0)

    def test_exact_probability_matrix_recovers_latent_positions(self):
        # P built by block lookup is exactly symmetric and rank 2; its
        # embedding must match the true positions up to rotation.
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 2, size=60)
        P = B_TWO_BLOCK[np.ix_(idx, idx)]
        w, V = np.linalg.eigh(B_TWO_BLOCK)
        truth = (V * np.sqrt(w))[idx]
        X = ase(P, 2)
        assert procrustes_align(X, truth).aligned_distance <= 1e-8

    def test_consistency_improves_with_n(self):
        # Mean per-vertex alignment error to the true latent positions
        # shrinks as the graph grows.
        params = SbmParams(B=B_TWO_BLOCK, pi=[0.4, 0.6])
        w, V = np.linalg.eigh(B_TWO_BLOCK)
        nu = V * np.sqrt(w)

        def mean_error(n: int) -> float:
            errs = []
            for rep in range(20):
                g = sample_sbm(params, n, np.random.default_rng(100 + rep))
                truth = nu[g.labels - 1]
                d = procrustes_align(ase(g.adjacency, 2), truth).aligned_distance
                errs.append(d / np.sqrt(n))
            return float(np.mean(errs))

        assert mean_error(1000) < mean_error(250)

    def test_scaling_property(self):
        rng = np.random.default_rng(6)
        M = random_symmetric(12, rng)
        for c in (0.25, 2.0, 9.0):
            X = ase(M, 3)
            Xc = ase(c * M, 3)
            assert procrustes_align(Xc, np.sqrt(c) * X).aligned_distance <= 1e-8

    def test_shape_and_finiteness(self):
        rng = np.random.default_rng(7)
        M = random_symmetric(9, rng)
        X = ase(M, 4)
        assert X.shape == (9, 4)
        assert np.all(np.isfinite(X))


class TestProcrustes:
    def test_identity_fit(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(10, 3))
        result = procrustes_align(X, X)
        assert result.aligned_distance <= 1e-10
        assert np.allclose(result.rotation, np.eye(3), atol=1e-10)

    def test_exact_orthogonal_fit(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(8, 3))
        Q0, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        result = procrustes_align(X, X @ Q0)
        assert result.aligned_distance <= 1e-10

    def test_rotation_is_orthogonal(self):
        rng = np.random.default_rng(10)
        X, Y = rng.normal(size=(7, 2)), rng.normal(size=(7, 2))
        Q = procrustes_align(X, Y).rotation
        assert np.allclose(Q.T @ Q, np.eye(2), atol=1e-10)

    def test_aligned_distance_never_exceeds_unaligned(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            X, Y = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
            result = procrustes_align(X, Y)
            assert result.aligned_distance <= frobenius_distance(X, Y) + 1e-12

    def test_matches_grid_search_over_planar_orthogonal_maps(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            X, Y = rng.normal(size=(6, 2)), rng.normal(size=(6, 2))
            mine = procrustes_align(X, Y).aligned_distance
            grid = oracles.grid_procrustes_distance(X, Y, step=1e-5)
            assert abs(mine - grid) < 1e-4
            assert mine <= grid + 1e-12  # the SVD optimum can only be better

    def test_column_sign_flip_leaves_distance_unchanged(self):
        rng = np.random.default_rng(13)
        X, Y = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
        base = procrustes_align(X, Y).aligned_distance
        for col in range(3):
            flipped = X.copy()
            flipped[:, col] *= -1
            assert procrustes_align(flipped, Y).aligned_distance == pytest.approx(
                base, abs=1e-10
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            procrustes_align(np.zeros((3, 2)), np.zeros((4, 2)))


class TestFrobeniusDistance:
    def test_identical_inputs(self):
        X = np.ones((3, 2))
        assert frobenius_distance(X, X) == 0.0

    def test_single_entry_difference(self):
        X = np.zeros((2, 2))
        Y = np.zeros((2, 2))
        Y[1, 0] = 3.0
        assert frobenius_distance(X, Y) == 3.0

    def test_all_ones_difference(self):
        assert frobenius_distance(np.ones((2, 2)), np.zeros((2, 2))) == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frobenius_distance(np.zeros((2, 2)), np.zeros((3, 2)))
