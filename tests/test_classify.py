"""kNN prediction, LOOCV error, and the chance-error baseline."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import traced_peak
from dpase import (
    ErrorReport,
    ParameterRangeError,
    SbmParams,
    ase,
    chance_error,
    knn_predict,
    loocv_error,
    sample_sbm,
)
from dpase import _shared, classify, embedding

# Hand-enumerated 10-point fixture. With k=1 only point 9 is classified
# correctly (its nearest neighbor is point 1 at squared distance 1);
# every other point's nearest neighbor carries the other label, and
# point 8 sits at an exact squared distance 41 from both points 4 and 5,
# exercising the ascending-index tie rule.
FIXTURE_POINTS = np.array(
    [
        [0.0, 0.0],   # 0, label 1
        [0.0, 1.0],   # 1, label 1
        [1.0, 0.0],   # 2, label 1
        [5.0, 5.0],   # 3, label 2
        [5.0, 6.0],   # 4, label 2
        [6.0, 5.0],   # 5, label 2
        [0.4, 0.4],   # 6, label 2
        [5.4, 5.4],   # 7, label 1
        [10.0, 10.0], # 8, label 1
        [0.0, 2.0],   # 9, label 1
    ]
)
FIXTURE_LABELS = np.array([1, 1, 1, 2, 2, 2, 2, 1, 1, 1])


class TestKnnPredict:
    def test_unanimous_labels_win_for_any_k(self):
        points = np.array([[0.0, 0], [1, 0], [2, 0]])
        labels = [4, 4, 4]
        for k in (1, 2, 3):
            assert knn_predict(points, labels, np.array([0.5, 0.0]), k) == 4

    def test_nearest_point_wins_at_k1(self):
        points = np.array([[0.0, 0], [10, 10]])
        labels = [1, 2]
        assert knn_predict(points, labels, np.array([1.0, 1.0]), 1) == 1

    def test_agrees_with_exhaustive_oracle_on_random_queries(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(20, 2))
        labels = rng.integers(1, 4, size=20)
        for _ in range(50):
            query = rng.normal(size=2)
            assert knn_predict(points, labels, query, 3) == oracles.brute_knn_predict(
                points, labels, query, 3
            )

    def test_distance_tie_breaks_by_index(self):
        # two training points equidistant from the query with different labels
        points = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = [2, 1]
        assert knn_predict(points, labels, np.array([0.0, 0.0]), 1) == 2

    def test_vote_tie_breaks_by_nearest_member(self):
        points = np.array([[1.0, 0.0], [-2.0, 0.0], [3.0, 0.0], [-4.0, 0.0]])
        labels = [1, 2, 1, 2]
        # k=2 neighbors: labels 1 and 2 one vote each; label 1's member is nearer
        assert knn_predict(points, labels, np.array([0.0, 0.0]), 2) == 1

    def test_invariant_under_joint_orthogonal_transforms(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            points = rng.normal(size=(15, 3))
            labels = rng.integers(1, 3, size=15)
            query = rng.normal(size=3)
            Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            before = knn_predict(points, labels, query, 3)
            after = knn_predict(points @ Q, labels, query @ Q, 3)
            assert before == after

    def test_rejects_bad_k_and_empty_training(self):
        points = np.array([[0.0, 0], [1, 1]])
        with pytest.raises(ValueError):
            knn_predict(points, [1, 2], np.zeros(2), 0)
        with pytest.raises(ValueError):
            knn_predict(points, [1, 2], np.zeros(2), 3)
        with pytest.raises(ValueError):
            knn_predict(np.zeros((0, 2)), [], np.zeros(2), 1)

    def test_rejects_mismatched_labels_and_query(self):
        points = np.array([[0.0, 0], [1, 1]])
        with pytest.raises(ValueError, match="training labels must match"):
            knn_predict(points, [1, 2, 1], np.zeros(2), 1)
        with pytest.raises(ValueError, match="does not match dimension 2"):
            knn_predict(points, [1, 2], np.zeros(3), 1)


class TestLoocvError:
    def test_separated_clusters_have_zero_error(self):
        rng = np.random.default_rng(2)
        a = rng.normal(scale=0.1, size=(20, 2))
        b = rng.normal(scale=0.1, size=(20, 2)) + 100.0
        points = np.vstack([a, b])
        labels = np.array([1] * 20 + [2] * 20)
        report = loocv_error(points, labels, 3)
        assert report.error_rate == 0.0

    def test_zero_error_holds_up_to_cluster_size_minus_one(self):
        rng = np.random.default_rng(3)
        a = rng.normal(scale=0.1, size=(8, 2))
        b = rng.normal(scale=0.1, size=(12, 2)) + 50.0
        points = np.vstack([a, b])
        labels = np.array([1] * 8 + [2] * 12)
        assert loocv_error(points, labels, 7).error_rate == 0.0

    def test_random_labels_sit_near_half(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(200, 2))
        labels = np.array([1, 2] * 100)
        report = loocv_error(points, labels, 3)
        assert abs(report.error_rate - 0.5) <= 0.1

    def test_hand_enumerated_fixture(self):
        report = loocv_error(FIXTURE_POINTS, FIXTURE_LABELS, 1)
        assert report.error_rate == 0.9
        assert report.n_evaluated == 10
        assert report.k == 1
        assert report.chance_error == pytest.approx(0.4)

    def test_matches_brute_force_oracle_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(5, 31))
            d = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3]))
            points = rng.normal(size=(n, d))
            labels = rng.integers(1, 4, size=n)
            mine = loocv_error(points, labels, k).error_rate
            assert mine == oracles.brute_loocv_error(points, labels, k)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(30, 2))
        labels = rng.integers(1, 3, size=30)
        assert loocv_error(points, labels, 3) == loocv_error(points, labels, 3)

    def test_error_rate_is_exact_fraction(self):
        report = loocv_error(FIXTURE_POINTS, FIXTURE_LABELS, 1)
        assert isinstance(report, ErrorReport)
        assert report.error_rate * report.n_evaluated == 9

    def test_rejects_k_too_large_for_leave_one_out(self):
        points = np.zeros((3, 2))
        with pytest.raises(ParameterRangeError):
            loocv_error(points, [1, 2, 1], 3)

    def test_rejects_a_vector_of_points_and_mismatched_labels(self):
        with pytest.raises(ValueError, match="points must be an"):
            loocv_error(np.zeros(3), [1, 2, 1], 1)
        with pytest.raises(ValueError, match="labels length must equal"):
            loocv_error(np.zeros((3, 2)), [1, 2], 1)

    def test_rejects_non_finite_points(self):
        points = np.array([[0.0, 0.0], [1.0, np.nan], [2.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            loocv_error(points, [1, 2, 1], 1)
        with pytest.raises(ValueError, match="finite"):
            knn_predict(points[[0, 2]], [1, 2], np.array([np.inf, 0.0]), 1)

    def test_peak_memory_is_a_few_row_blocks(self):
        # A full n x n distance matrix and its argsort would be 3 n^2.
        n = 1000
        rng = np.random.default_rng(8)
        points = rng.normal(size=(n, 2))
        labels = rng.integers(1, 3, size=n)
        peak = traced_peak(lambda: loocv_error(points, labels, 3))
        assert peak <= 0.5 * n * n * 8

    def test_seeded_case_spanning_several_default_blocks(self):
        n = 600
        assert max(classify.SWEEP_MIN_ROWS, _shared.BLOCK_ENTRIES // n) < n
        rng = np.random.default_rng(9)
        points = rng.integers(-4, 5, size=(n, 2)).astype(float)
        labels = rng.integers(1, 4, size=n)
        for k in (1, 4):
            mine = loocv_error(points, labels, k).error_rate
            assert mine == oracles.brute_loocv_error(points, labels, k)


class TestBlockRule:
    @staticmethod
    def block_rows(monkeypatch) -> list:
        """The rows of each block a LOOCV call votes on, one vote per block."""
        rows, real = [], classify._vote
        monkeypatch.setattr(classify, "_vote", lambda sq, *rest: (rows.append(len(sq)),
                                                                   real(sq, *rest))[1])
        return rows

    @pytest.mark.parametrize("n", [300, 1000, 4000])
    def test_the_sorted_sweep_walks_at_least_the_minimum_rows(self, monkeypatch, n):
        # 218 rows at n = 300 and 65 at n = 1000, as before; 32 from n = 2049 on.
        rng = np.random.default_rng(n)
        points, labels = rng.normal(size=(n, 2)), rng.integers(1, 3, size=n)
        rows = self.block_rows(monkeypatch)
        loocv_error(points, labels, 3)
        step = max(classify.SWEEP_MIN_ROWS, _shared.BLOCK_ENTRIES // n)
        assert classify.SWEEP_MIN_ROWS == 32
        assert rows == [min(step, n - start) for start in range(0, n, step)]

    def test_the_gram_filter_keeps_row_blocks(self, monkeypatch):
        n = 2000
        rng = np.random.default_rng(4)
        points, labels = rng.normal(size=(n, 10)), rng.integers(1, 3, size=n)
        rows = self.block_rows(monkeypatch)
        loocv_error(points, labels, 3)
        assert rows == [b.stop - b.start for b in _shared.row_blocks(n)]
        assert rows[0] == 32

    def test_a_seeded_n4000_case_at_the_new_block_size_matches_the_oracle(self):
        # 125 blocks of 32 sorted points; half-unit grid points tie often.
        n = 4000
        rng = np.random.default_rng(27)
        points = rng.integers(-40, 41, size=(n, 2)) * 0.5
        points[n // 2:] += 6.0
        labels = np.repeat([1, 2], n // 2)
        few = slice(0, n, 10)  # the oracle ranks as the exhaustive one does
        assert (oracles.sorted_loocv_error(points[few], labels[few], 3)
                == oracles.brute_loocv_error(points[few], labels[few], 3))
        for k in (1, 5):
            mine = loocv_error(points, labels, k).error_rate
            assert mine == oracles.sorted_loocv_error(points, labels, k)


class TestChanceError:
    def test_single_class(self):
        assert chance_error([1, 1, 1]) == 0.0

    def test_two_class_split(self):
        labels = np.array([1] * 508 + [2] * 492)
        assert chance_error(labels) == pytest.approx(0.492)

    def test_three_class_split(self):
        labels = np.array([1] * 413 + [2] * 393 + [3] * 194)
        assert chance_error(labels) == pytest.approx(0.587)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            chance_error([])


# Small integer grids put many points at equal distances, so ties at the
# k-th distance are common; the explicit example has a three-way tie at
# the cut whose members carry different labels.
_GRID = st.integers(-2, 2).map(float)


@st.composite
def grid_cases(draw, leave_one_out: bool):
    """Points, labels, a valid k and a query, all on a small integer grid.

    Some cases are degenerate for the sorted sweep: every point in one
    place, nearly every point tied on the sort axis, or a few points
    repeated. Others are hard for the Gram filter, which d reaches two
    past its gate: grid ties moved a few ulps apart, far inside the
    filter's error bound, and a cluster 1e8 away on every axis, whose
    Gram-form distances lose every digit to cancellation. The grid may
    be scaled so that squared distances overflow to inf or underflow to
    0, k often takes its largest value, and class ids may have gaps.
    """
    d = draw(st.integers(1, classify.GRAM_FILTER_MIN_D + 2))
    n = draw(st.integers(2 if leave_one_out else 1, 24))
    shape = draw(st.sampled_from(["grid", "grid", "identical", "stacked", "repeated",
                                  "near_ties", "offset"]))
    if shape == "identical":
        points = np.full((n, d), draw(_GRID))
    elif shape == "stacked":
        # Coordinate 0 takes two values 4 apart and the others stay within
        # 2, so the sweep sorts on coordinate 0 and nearly all points tie.
        first = draw(st.lists(st.sampled_from([0.0, 4.0]), min_size=n, max_size=n))
        rest = draw(st.lists(st.integers(-1, 1).map(float), min_size=n * (d - 1),
                             max_size=n * (d - 1)))
        points = np.column_stack([first, np.reshape(rest, (n, d - 1))])
    else:
        distinct = 3 if shape == "repeated" else n
        rows = draw(st.lists(st.lists(_GRID, min_size=d, max_size=d),
                             min_size=distinct, max_size=distinct))
        picks = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
        points = np.array(rows)[picks]
    if shape == "near_ties":
        ulps = draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
        points = points * (1 + np.reshape(ulps, (n, d)) * np.finfo(float).eps)
    elif shape == "offset":
        far = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        points = points + 1e8 * np.array(far, dtype=float)[:, None]
    scale = draw(st.sampled_from([1.0, 1.0, 1e155, 1e-160]))
    ids = draw(st.sampled_from([(1, 2, 3), (1, 2, 3), (-7, 3, 1_000_000)]))
    labels = draw(st.lists(st.sampled_from(ids), min_size=n, max_size=n))
    k_max = n - 1 if leave_one_out else n
    k = k_max if draw(st.booleans()) else draw(st.integers(1, k_max))
    query = draw(st.lists(_GRID, min_size=d, max_size=d))
    return points * scale, np.array(labels), k, np.array(query) * scale


class TestMultiBlockExactness:
    @settings(max_examples=300, deadline=None)
    @given(case=grid_cases(leave_one_out=True), rows=st.integers(1, 7))
    @example(
        case=(
            np.array([[0.0], [1.0], [-1.0], [0.0], [1.0]]),
            np.array([1, 2, 1, 2, 3]), 2, np.zeros(1),
        ),
        rows=2,
    ).via("ties at the cut")
    @example(
        case=(np.array([[0.0], [2e155], [-2e155], [1e155]]), np.array([1, 2, 2, 1]), 2,
              np.zeros(1)),
        rows=1,
    ).via("the point itself must not rank among neighbors at an overflowed distance")
    @example(
        case=(np.array([[0.0], [1e-160], [3e-160], [1.0]]), np.array([3, 1, 1, 3]), 1,
              np.zeros(1)),
        rows=2,
    ).via("squares that underflow to 0 tie with the point itself")
    def test_loocv_in_blocks_of_1_to_7_rows_matches_oracle(self, case, rows):
        points, labels, k, _ = case
        n = len(points)
        with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore"):
            mp.setattr(_shared, "BLOCK_ENTRIES", rows * n)
            mp.setattr(classify, "SWEEP_MIN_ROWS", 1)
            assert max(classify.SWEEP_MIN_ROWS, _shared.BLOCK_ENTRIES // n) == rows
            mine = loocv_error(points, labels, k).error_rate
        assert mine == oracles.brute_loocv_error(points, labels, k)

    @settings(max_examples=300, deadline=None)
    @given(case=grid_cases(leave_one_out=False))
    def test_knn_predict_matches_oracle(self, case):
        points, labels, k, query = case
        with np.errstate(over="ignore"):
            mine = knn_predict(points, labels, query, k)
        assert mine == oracles.brute_knn_predict(points, labels, query, k)


class TestSweepWork:
    """Distance entries evaluated per LOOCV call, counted at the kernel."""

    @staticmethod
    def entries(monkeypatch, points, labels) -> float:
        counted = [0]
        kernel = classify._sq_dists

        def counting(queries, targets):
            counted[0] += len(queries) * len(targets)
            return kernel(queries, targets)

        monkeypatch.setattr(classify, "_sq_dists", counting)
        loocv_error(points, labels, 3)
        return counted[0] / len(points) ** 2

    @staticmethod
    def sbm_embedding(n: int, seed: int):
        params = SbmParams(B=np.array([[0.3, 0.1], [0.1, 0.2]]), pi=np.array([0.4, 0.6]))
        graph = sample_sbm(params, n, np.random.default_rng(seed))
        return ase(graph.adjacency, 2), graph.labels

    def test_a_planar_embedding_prunes_most_pairs(self, monkeypatch):
        # The full row blocks evaluate n^2.
        points, labels = self.sbm_embedding(2000, 11)
        assert self.entries(monkeypatch, points, labels) <= 0.25

    def test_fifty_dimensions_cost_at_most_a_tenth_more(self, monkeypatch):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(2000, 50))
        labels = rng.integers(1, 3, size=2000)
        assert self.entries(monkeypatch, points, labels) <= 1.1

    def test_small_inputs_take_the_full_rows_only(self, monkeypatch):
        points, labels = self.sbm_embedding(300, 13)
        assert self.entries(monkeypatch, points, labels) == 1.0

    def test_fifty_dimensions_take_the_gram_filter(self, monkeypatch):
        # The sorted sweep prunes nothing here: it evaluated about 1.05 n^2.
        assert 50 >= classify.GRAM_FILTER_MIN_D
        rng = np.random.default_rng(12)
        points = rng.normal(size=(2000, 50))
        labels = rng.integers(1, 3, size=2000)
        assert self.entries(monkeypatch, points, labels) <= 0.15

    # d = 2 takes the sorted sweep, d = 10 the Gram filter; both call _vote.
    @pytest.mark.parametrize("d", [2, 10])
    def test_both_paths_run_on_one_blas_thread_and_restore_the_count(self, monkeypatch, d):
        # numpy's pool is set to 2 threads, so a count left at 1 shows.
        found = embedding._openblas()
        if found is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS that exports its thread count")
        seen = []
        vote = classify._vote

        def spy(*args):
            seen.append(found.get_threads())
            return vote(*args)

        monkeypatch.setattr(classify, "_vote", spy)
        rng = np.random.default_rng(12)
        points, labels = rng.normal(size=(300, d)), rng.integers(1, 3, size=300)
        before = found.get_threads()
        found.set_threads(2)
        try:
            report = loocv_error(points, labels, 3)
            assert seen and set(seen) == {1}
            assert found.get_threads() == 2
        finally:
            found.set_threads(before)
        assert report.error_rate == oracles.brute_loocv_error(points, labels, 3)
