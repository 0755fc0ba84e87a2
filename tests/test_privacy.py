"""Noise calibration, symmetric Gaussian perturbation, private embedding."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats

import oracles
from conftest import traced_peak
from dpase import embedding
from dpase import privacy as privacy_module
from dpase import (
    CalibrationError,
    NoiseScale,
    ParameterRangeError,
    PrivacyBudget,
    ase,
    calibrate_noise,
    dp_ase,
    procrustes_align,
    sample_sbm,
    sample_symmetric_noise,
    SbmParams,
)

# frozen from a 50-digit evaluation of 8 d^2 ln^2(d/delta) / (n^2 alpha^2)
BETA_SQ_N1000 = 0.1848758982383132   # n=1000, d=2, alpha=0.1, delta=0.001
BETA_SQ_N300 = 3.9924859614811767    # n=300, d=2, alpha=0.05, delta=0.01


def two_block_params() -> SbmParams:
    return SbmParams(B=[[0.3, 0.1], [0.1, 0.2]], pi=[0.4, 0.6])


class TestPrivacyBudget:
    def test_valid_budget(self):
        budget = PrivacyBudget(0.1, 0.001)
        assert budget.alpha == 0.1 and budget.delta == 0.001

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            PrivacyBudget(0.0, 0.1)
        with pytest.raises(ValueError, match="alpha"):
            PrivacyBudget(-1.0, 0.1)

    def test_delta_must_be_in_open_unit_interval(self):
        for delta in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValueError, match="delta"):
                PrivacyBudget(0.1, delta)

    def test_numpy_scalars_are_held_as_floats(self):
        budget = PrivacyBudget(np.float64(0.1), np.float32(0.5))
        assert type(budget.alpha) is float and type(budget.delta) is float
        assert (budget.alpha, budget.delta) == (0.1, 0.5)

    def test_range_errors_are_parameter_range_errors(self):
        for alpha, delta in [(-1.0, 0.1), (float("nan"), 0.1), (0.1, 1.0), (0.1, float("nan"))]:
            with pytest.raises(ParameterRangeError):
                PrivacyBudget(alpha, delta)


class TestCalibrateNoise:
    def test_reference_value_n1000(self):
        scale = calibrate_noise(1000, 2, PrivacyBudget(0.1, 0.001))
        assert scale.beta_sq == pytest.approx(BETA_SQ_N1000, rel=1e-12)

    def test_reference_value_n300(self):
        scale = calibrate_noise(300, 2, PrivacyBudget(0.05, 0.01))
        assert scale.beta_sq == pytest.approx(BETA_SQ_N300, rel=1e-12)

    def test_doubling_n_quarters_the_variance_exactly(self):
        budget = PrivacyBudget(0.1, 0.001)
        for n in (100, 250, 999):
            assert (
                calibrate_noise(2 * n, 2, budget).beta_sq
                == calibrate_noise(n, 2, budget).beta_sq / 4.0
            )

    def test_strictly_decreasing_in_alpha(self):
        alphas = [0.001, 0.01, 0.1, 1.0, 10.0]
        values = [
            calibrate_noise(200, 2, PrivacyBudget(a, 0.01)).beta_sq for a in alphas
        ]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_strictly_decreasing_in_delta(self):
        deltas = [0.0001, 0.001, 0.01, 0.1, 0.6]
        values = [
            calibrate_noise(200, 2, PrivacyBudget(0.1, d)).beta_sq for d in deltas
        ]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_rejects_bad_sizes(self):
        budget = PrivacyBudget(0.1, 0.01)
        with pytest.raises(CalibrationError):
            calibrate_noise(0, 1, budget)
        with pytest.raises(CalibrationError):
            calibrate_noise(5, 6, budget)
        with pytest.raises(CalibrationError):
            calibrate_noise(5, 0, budget)

    @pytest.mark.parametrize("alpha", [float("inf"), 1e200, 1e-160, 1e-170])
    def test_variance_outside_float_range_is_a_calibration_error(self, alpha):
        # alpha^2 overflows to inf (variance 0) or underflows so far that
        # the variance overflows, or the denominator is exactly 0.
        with pytest.raises(CalibrationError, match="floating-point range"):
            calibrate_noise(100, 2, PrivacyBudget(alpha, 0.01))

    def test_numpy_alpha_whose_square_underflows_is_a_calibration_error(self):
        # alpha^2 = 0 must take the ZeroDivisionError path, not numpy's
        # divide-by-zero warning, and the message must print plain floats.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CalibrationError, match=r"^alpha=1e-300 .* inf, outside"):
                calibrate_noise(10, 2, PrivacyBudget(np.float64(1e-300), 0.01))


class TestSampleSymmetricNoise:
    def test_exactly_symmetric(self):
        E = sample_symmetric_noise(40, 0.5, np.random.default_rng(0)).dense()
        assert np.array_equal(E, E.T)

    def test_diagonal_is_perturbed(self):
        E = sample_symmetric_noise(40, 0.5, np.random.default_rng(1)).dense()
        assert np.all(np.diagonal(E) != 0)

    def test_vanishing_variance_gives_vanishing_norm(self):
        E = sample_symmetric_noise(100, 1e-30, np.random.default_rng(2)).dense()
        assert np.linalg.norm(E) <= 1e-10

    def test_same_seed_is_bit_identical(self):
        E1 = sample_symmetric_noise(30, 0.25, np.random.default_rng(3))
        E2 = sample_symmetric_noise(30, 0.25, np.random.default_rng(3))
        assert np.array_equal(E1.data, E2.data)

    def test_distinct_seeds_differ(self):
        E1 = sample_symmetric_noise(30, 0.25, np.random.default_rng(4))
        E2 = sample_symmetric_noise(30, 0.25, np.random.default_rng(5))
        assert not np.array_equal(E1.data, E2.data)

    def test_rejects_nonpositive_variance(self):
        for scale in (0.0, -1.0, float("inf"), NoiseScale(beta_sq=float("inf"), n=10, d=2)):
            with pytest.raises(ValueError, match="positive and finite"):
                sample_symmetric_noise(10, scale, np.random.default_rng(0))

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(ValueError, match="matrix size must be at least 1, got 0"):
            sample_symmetric_noise(0, 0.25, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [2.0, 2.5, np.float64(3.0), "3"])
    def test_rejects_a_size_that_is_not_an_integer(self, n):
        # A float size would otherwise reach the generator's own TypeError.
        with pytest.raises(ValueError, match="matrix size must be an integer"):
            sample_symmetric_noise(n, 0.25, np.random.default_rng(0))

    @pytest.mark.parametrize("n", [1, 2, 7, 255, 256, 257, 300, 513, 1000])
    def test_bit_equal_to_two_stream_triangle_draw_mirrored(self, n):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        E = sample_symmetric_noise(n, 0.3, rng).dense()
        assert E.tobytes() == oracles.rfp_noise(n, 0.3, ref_rng).tobytes()
        assert rng.random() == ref_rng.random()  # same share of the stream used

    @pytest.mark.parametrize("n", [1, 2, 7, 300, 1001])
    def test_data_is_two_child_draws_in_storage_order(self, n):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        data = sample_symmetric_noise(n, 0.3, rng).data
        first, second = oracles.child_streams(ref_rng)
        half = data.size // 2
        draws = np.concatenate([first.standard_normal(half),
                                second.standard_normal(data.size - half)])
        assert data.tobytes() == (draws * math.sqrt(0.3)).tobytes()
        assert rng.random() == ref_rng.random()  # same share of the stream used

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_the_helper_thread_and_a_serial_run_give_the_same_bits(self, monkeypatch, n):
        # Chunk c always takes child stream c, so neither the thread that
        # fills a chunk nor the order of the two chunks changes a bit.
        calls, real = [], embedding._split
        monkeypatch.setattr(embedding, "_split", lambda *halves: (calls.append(1), real(*halves)))
        threaded = sample_symmetric_noise(n, 0.3, np.random.default_rng(n)).data
        assert calls == [1]
        for order in (lambda first, second: (first(), second()),
                      lambda first, second: (second(), first())):
            monkeypatch.setattr(embedding, "_split", order)
            serial = sample_symmetric_noise(n, 0.3, np.random.default_rng(n)).data
            assert serial.tobytes() == threaded.tobytes()

    def test_no_helper_thread_below_the_lanczos_size(self, monkeypatch):
        calls = []
        monkeypatch.setattr(embedding, "_split", lambda *halves: calls.append(1))
        sample_symmetric_noise(embedding.LANCZOS_MIN_N - 1, 0.3, np.random.default_rng(0))
        assert calls == []

    def test_the_two_halves_are_distinct_uncorrelated_draws(self):
        # A repeated child seed would make one half a copy of the other.
        data = sample_symmetric_noise(1000, 1.0, np.random.default_rng(30)).data
        half = data.size // 2
        first, second = data[:half], data[half:2 * half]
        assert not np.array_equal(first, second)
        assert abs(np.corrcoef(first, second)[0, 1]) < 5 / math.sqrt(half)

    def test_peak_memory_is_the_result_matrix(self):
        # The packed triangle, n (n + 1) / 2 float64 values, and nothing more.
        n = 400
        peak = traced_peak(lambda: sample_symmetric_noise(n, 0.3, np.random.default_rng(0)))
        assert peak <= 0.55 * n * n * 8

    def test_off_diagonal_variance_in_chi_square_band(self):
        # 124750 strictly-upper entries at beta_sq = 0.25: the scaled
        # sum of squares sits inside the central 99% chi-square band.
        n, beta_sq = 500, 0.25
        E = sample_symmetric_noise(n, beta_sq, np.random.default_rng(6)).dense()
        upper = E[np.triu_indices(n, k=1)]
        assert upper.size == 124750
        stat = float((upper**2).sum() / beta_sq)
        lo = scipy.stats.chi2.ppf(0.005, upper.size)
        hi = scipy.stats.chi2.ppf(0.995, upper.size)
        assert lo <= stat <= hi

    def test_upper_triangle_matches_reference_distribution(self):
        # Kolmogorov-Smirnov on the perturbation entries against
        # N(0, beta_sq); this is A_DP - A since the addition is exact
        # in infinite precision and E is what gets added.
        n, beta_sq = 300, 0.04
        E = sample_symmetric_noise(n, beta_sq, np.random.default_rng(7)).dense()
        upper = E[np.triu_indices(n, k=1)]
        result = scipy.stats.kstest(upper, "norm", args=(0.0, np.sqrt(beta_sq)))
        assert result.pvalue >= 0.001


class TestDpAse:
    def test_vanishing_noise_limit_matches_plain_embedding(self):
        graph = sample_sbm(two_block_params(), 50, np.random.default_rng(8))
        budget = PrivacyBudget(1e12, 0.001)
        assert calibrate_noise(50, 2, budget).beta_sq < 1e-20
        X_dp = dp_ase(graph.adjacency, 2, budget, np.random.default_rng(9))
        X = ase(graph.adjacency, 2)
        assert procrustes_align(X_dp, X).aligned_distance <= 1e-6

    def test_fixed_seed_reproduces_embedding(self):
        graph = sample_sbm(two_block_params(), 40, np.random.default_rng(10))
        budget = PrivacyBudget(0.5, 0.01)
        X1 = dp_ase(graph.adjacency, 2, budget, np.random.default_rng(11))
        X2 = dp_ase(graph.adjacency, 2, budget, np.random.default_rng(11))
        assert np.array_equal(X1, X2)

    def test_perturbed_matrix_is_embedded_as_is(self):
        graph = sample_sbm(two_block_params(), 40, np.random.default_rng(17))
        A, budget = graph.adjacency, PrivacyBudget(0.5, 0.01)
        scale = calibrate_noise(40, 2, budget)
        E = sample_symmetric_noise(40, scale, np.random.default_rng(18)).dense()
        X = dp_ase(A, 2, budget, np.random.default_rng(18))
        assert np.array_equal(X, ase(A + E, 2))

    def test_distinct_seeds_give_distinct_embeddings(self):
        graph = sample_sbm(two_block_params(), 40, np.random.default_rng(12))
        budget = PrivacyBudget(0.5, 0.01)
        X1 = dp_ase(graph.adjacency, 2, budget, np.random.default_rng(13))
        X2 = dp_ase(graph.adjacency, 2, budget, np.random.default_rng(14))
        assert not np.array_equal(X1, X2)

    def test_output_finite_even_when_noise_dominates(self):
        graph = sample_sbm(two_block_params(), 25, np.random.default_rng(15))
        X = dp_ase(
            graph.adjacency, 3, PrivacyBudget(0.001, 0.0001), np.random.default_rng(16)
        )
        assert X.shape == (25, 3)
        assert np.all(np.isfinite(X))

    def test_per_vertex_gap_to_plain_embedding_shrinks_with_n(self):
        # Scaled-down version of the growth experiment: the aligned
        # per-vertex distance between the private and plain embeddings
        # drops as the graph grows, averaged over replicates.
        params = two_block_params()
        budget = PrivacyBudget(0.1, 0.001)

        def mean_gap(n: int) -> float:
            gaps = []
            for rep in range(6):
                g = sample_sbm(params, n, np.random.default_rng(200 + rep))
                X = ase(g.adjacency, 2)
                X_dp = dp_ase(g.adjacency, 2, budget, np.random.default_rng(300 + rep))
                gaps.append(procrustes_align(X_dp, X).aligned_distance / np.sqrt(n))
            return float(np.mean(gaps))

        assert mean_gap(800) < mean_gap(100)

    def test_draws_its_noise_once_through_the_public_sampler(self, monkeypatch):
        # The noise that the sampler tests check is the noise that is released.
        graph = sample_sbm(two_block_params(), 40, np.random.default_rng(23))
        budget = PrivacyBudget(0.5, 0.01)
        calls, real = [], privacy_module.sample_symmetric_noise

        def spy(n, scale, rng):
            calls.append((n, scale))
            return real(n, scale, rng)

        monkeypatch.setattr(privacy_module, "sample_symmetric_noise", spy)
        dp_ase(graph.adjacency, 2, budget, np.random.default_rng(24))
        assert calls == [(40, calibrate_noise(40, 2, budget))]

    @pytest.mark.parametrize("n", [1, 2, 257])
    def test_packed_matrix_is_the_two_stream_draw_plus_the_graph(self, monkeypatch, n):
        # The released matrix reaches ``ase`` as the packed upper triangle
        # of A + E, with E drawn as two halves from two child streams;
        # every position is compared with LAPACK's RFP layout of it.
        graph = sample_sbm(two_block_params(), n, np.random.default_rng(21))
        budget = PrivacyBudget(0.3, 0.001)
        seen, real = [], privacy_module.ase

        def spy(M, d):
            seen.append(M)
            return real(M, d)

        monkeypatch.setattr(privacy_module, "ase", spy)
        rng, ref_rng = np.random.default_rng(22), np.random.default_rng(22)
        dp_ase(graph.adjacency, 1, budget, rng)
        E = oracles.rfp_noise(n, calibrate_noise(n, 1, budget).beta_sq, ref_rng)
        (packed,) = seen
        assert packed.data.tobytes() == oracles.rfp_layout(graph.adjacency + E).tobytes()
        assert rng.random() == ref_rng.random()  # same share of the stream used

    def test_peak_memory_at_lanczos_size_is_about_one_matrix(self):
        # One matrix, the packed A + E (0.5 n^2 float64), plus small blocks
        # of the input checks and the Lanczos work arrays; a dense float64
        # n x n buffer alone would make it 1.
        n = 1000
        graph = sample_sbm(two_block_params(), n, np.random.default_rng(19))
        budget = PrivacyBudget(0.1, 0.001)
        peak = traced_peak(
            lambda: dp_ase(graph.adjacency, 2, budget, np.random.default_rng(20))
        )
        assert peak <= 0.65 * n * n * 8

    def test_rejects_invalid_adjacency(self):
        bad = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError):
            dp_ase(bad, 1, PrivacyBudget(0.1, 0.01), np.random.default_rng(0))
