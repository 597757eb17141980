import itertools

import numpy as np
import pytest

from mmvsolve import (
    DegenerateInputError,
    InvalidArgumentError,
    MeasurementMatrix,
    MmvProblem,
    SizeLimitError,
    SmoothingConfig,
    SupportSet,
    hard_threshold_rows,
    mixed_norm,
    read_matrix,
    row_norms,
    row_orthonormalize,
    row_support,
    spark,
    write_matrix,
)
from mmvsolve import core
from mmvsolve.core import (
    ROW_ORTHO_TOL,
    as_count,
    as_real,
    gram_deviation,
    rank_above,
    row_l2,
    top_k,
)


def test_row_norms_examples():
    assert np.allclose(row_norms([[3, 4], [0, 0]], 2), [5, 0])
    assert np.allclose(row_norms(np.eye(3), 1), [1, 1, 1])
    assert np.allclose(row_norms([[1, -2], [0.5, 0.5]], np.inf), [2, 0.5])


def test_row_norms_rejects_bad_order():
    with pytest.raises(InvalidArgumentError):
        row_norms([[1.0, 2.0]], 3)


def test_row_l2_of_a_stack_is_row_norms_of_each_block_bit_for_bit():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((4, 9, 3)) * np.array([1e-3, 1.0, 1e150])
    norms = row_l2(stack)
    assert norms.shape == (4, 9)
    for block, block_norms in zip(stack, norms):
        assert np.array_equal(block_norms, row_norms(block, 2))
        assert np.array_equal(block_norms, np.linalg.norm(block, axis=1))


@pytest.mark.parametrize("width", [*range(1, 41), 64, 128, 129])
def test_row_l2_is_numpys_row_sum_bit_for_bit(width):
    # the fast path (<= 8 columns, >= 128 rows) must give the bits of
    # numpy's own reduction: on matrices, stacks and F-ordered views, on
    # few and many rows, at scales whose squares overflow or underflow
    rng = np.random.default_rng(width)
    matrix = rng.standard_normal((150, width)) * np.exp(rng.standard_normal((150, width)))
    stack = rng.standard_normal((3, 50, width))
    arrays = (matrix, matrix[:37], stack, np.asfortranarray(stack), stack.transpose(1, 0, 2))
    for scale in (1.0, 1e150, 1e-150, 1e160, 1e-160):
        for X in arrays:
            with np.errstate(over="ignore", under="ignore"):
                X = X * scale
                reference = np.sqrt((X * X).sum(axis=-1))
                assert np.array_equal(row_l2(X), reference, equal_nan=True), (scale, X.shape)


def test_mixed_norm_examples():
    assert mixed_norm([[3, 4], [0, 0]], 1, 2) == pytest.approx(5)
    assert mixed_norm(np.eye(3), 1, 2) == pytest.approx(3)
    assert mixed_norm([[1, 1], [1, 1]], 2, 2) == pytest.approx(2)


def test_mixed_norm_rejects_bad_outer():
    with pytest.raises(InvalidArgumentError):
        mixed_norm([[1.0]], 3, 2)


def test_mixed_norm_zero_iff_zero_matrix():
    assert mixed_norm(np.zeros((4, 2))) == 0
    assert mixed_norm([[0, 0], [1e-150, 0]]) > 0


def test_row_norms_rejects_nonfinite():
    with pytest.raises(InvalidArgumentError):
        row_norms([[np.nan, 1.0]])


def test_norm_properties_on_random_matrices():
    rng = np.random.default_rng(42)
    for _ in range(25):
        N, L = rng.integers(1, 9), rng.integers(1, 5)
        X = rng.standard_normal((N, L))
        Y = rng.standard_normal((N, L))
        c = float(rng.normal())
        assert mixed_norm(X, 1, 2) == pytest.approx(row_norms(X, 2).sum())
        for p in (1, 2):
            for q in (1, 2, np.inf):
                assert mixed_norm(X + Y, p, q) <= mixed_norm(X, p, q) + mixed_norm(Y, p, q) + 1e-12
                assert mixed_norm(c * X, p, q) == pytest.approx(abs(c) * mixed_norm(X, p, q))


def test_hard_threshold_examples():
    out, supp = hard_threshold_rows([[3, 4], [1, 0], [0, 2]], 1)
    assert tuple(supp) == (0,)
    assert np.array_equal(out, [[3, 4], [0, 0], [0, 0]])

    X = np.arange(6.0).reshape(3, 2)
    out, supp = hard_threshold_rows(X, 3)
    assert np.array_equal(out, X)
    assert tuple(supp) == (0, 1, 2)

    out, supp = hard_threshold_rows(np.eye(2), 1)
    assert tuple(supp) == (0,)  # tie broken toward the lower index


def test_hard_threshold_picks_exactly_the_stable_argsort_rows_under_ties():
    # integer entries and repeated rows make many row norms tie exactly
    rng = np.random.default_rng(13)
    for _ in range(30):
        N, L = int(rng.integers(2, 24)), int(rng.integers(1, 4))
        pool = rng.integers(-2, 3, size=(int(rng.integers(1, 5)), L)).astype(float)
        X = pool[rng.integers(0, len(pool), size=N)]
        X[rng.random(N) < 0.3] *= -1.0  # sign flips keep the norm
        norms = row_norms(X)
        for k in range(1, N):
            want = np.sort(np.argsort(-norms, kind="stable")[:k])
            out, supp = hard_threshold_rows(X, k)
            assert tuple(supp) == tuple(want.tolist())
            expected = np.zeros_like(X)
            expected[want] = X[want]
            assert np.array_equal(out, expected)


def test_top_k_of_negated_scores_is_the_stable_argsort_of_the_k_smallest():
    rng = np.random.default_rng(17)
    for _ in range(30):
        size = int(rng.integers(1, 30))
        scores = rng.integers(0, 4, size=size) / 3.0
        for k in range(0, size + 2):
            want = np.sort(np.argsort(scores, kind="stable")[:k])
            assert np.array_equal(top_k(-scores, k), want)


@pytest.mark.parametrize("k", [-1, 2.5, float("nan"), None])
def test_hard_threshold_rejects_bad_k_values(k):
    with pytest.raises(InvalidArgumentError, match=f"k must be a positive integer, got {k!r}"):
        hard_threshold_rows(np.eye(3), k)


def test_hard_threshold_rejects_bad_k():
    with pytest.raises(InvalidArgumentError):
        hard_threshold_rows(np.eye(2), 0)


def test_hard_threshold_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        X = rng.standard_normal((7, 3))
        k = int(rng.integers(1, 8))
        once, s1 = hard_threshold_rows(X, k)
        twice, s2 = hard_threshold_rows(once, k)
        assert np.array_equal(once, twice)
        assert s1 == s2


def test_hard_threshold_is_best_k_row_approximation():
    # brute force over all supports at small N
    rng = np.random.default_rng(11)
    for _ in range(10):
        N, L = 6, 3
        X = rng.standard_normal((N, L))
        for k in (1, 2, 4):
            thresholded, _ = hard_threshold_rows(X, k)
            err = mixed_norm(X - thresholded, 1, 2)
            for S in itertools.combinations(range(N), k):
                Z = np.zeros_like(X)
                Z[list(S)] = X[list(S)]
                assert err <= mixed_norm(X - Z, 1, 2) + 1e-12


def test_row_support_examples():
    assert len(row_support(np.zeros((3, 2)), 0.0)) == 0
    assert tuple(row_support([[0, 0], [1e-12, 0], [2, 1]], 1e-9)) == (2,)
    assert tuple(row_support(np.eye(2), 0.0)) == (0, 1)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, "0.1"])
def test_row_support_rejects_a_tolerance_that_is_no_finite_nonnegative_real(tol):
    with pytest.raises(InvalidArgumentError, match=f"tol .*got {tol!r}"):
        row_support(np.eye(2), tol)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, 1.0])
def test_spark_rejects_a_relative_tolerance_outside_0_1(tol):
    with pytest.raises(InvalidArgumentError, match=f"rank_tol .*got {tol!r}"):
        spark(np.eye(3), rank_tol=tol)


def test_count_rule_takes_an_exclusive_upper_bound():
    assert as_count(3.0, "k", below=4) == 3
    for value in (4, 0, 2.5, float("nan"), float("inf"), "3"):
        with pytest.raises(InvalidArgumentError, match=r"k must be an integer in \[1, 3\]"):
            as_count(value, "k", below=4)


@pytest.mark.parametrize(
    "kwargs, ok, bad, rule",
    [
        ({}, [1e-300, 5], [0.0, -1.0], "be finite and positive"),
        ({"zero_ok": True}, [0.0, 5], [-1e-300], "be finite and nonnegative"),
        ({"below": 1}, [0.5], [0.0, 1.0], r"lie in \(0, 1\)"),
        ({"zero_ok": True, "below": 1}, [0.0, 0.5], [1.0, -1.0], r"lie in \[0, 1\)"),
    ],
)
def test_real_rule_forms(kwargs, ok, bad, rule):
    for value in ok:
        assert as_real(value, "x", **kwargs) == value
    for value in bad + [float("nan"), float("inf"), None, "0.5"]:
        with pytest.raises(InvalidArgumentError, match=f"x must {rule}, got"):
            as_real(value, "x", **kwargs)


def test_gram_deviation_is_the_certificate_of_every_operator_check():
    rng = np.random.default_rng(5)
    A = row_orthonormalize(rng.standard_normal((4, 9)))
    assert A.row_gram_scale == 1.0
    dev, c = gram_deviation(3.0 * A.entries)
    assert c == pytest.approx(9.0) and dev <= ROW_ORTHO_TOL * c
    assert MeasurementMatrix.from_entries(3.0 * A.entries).row_gram_scale == c
    M = rng.standard_normal((3, 5))
    dev, c = gram_deviation(M, 2.0)
    assert c == 2.0 and dev == np.abs(M @ M.T - 2.0 * np.eye(3)).max()
    with pytest.raises(InvalidArgumentError, match="row_gram_scale .*got None"):
        MeasurementMatrix(M, row_orthonormal=True)
    with pytest.raises(InvalidArgumentError, match="certificate fails"):
        MeasurementMatrix(M, row_orthonormal=True, row_gram_scale=1.0)


def test_from_entries_forms_the_gram_matrix_once(monkeypatch):
    calls = []

    def counting(M, c=None):
        calls.append(c)
        return gram_deviation(M, c)

    entries = 3.0 * row_orthonormalize(np.random.default_rng(5).standard_normal((4, 9))).entries
    monkeypatch.setattr(core, "gram_deviation", counting)
    A = MeasurementMatrix.from_entries(entries)
    assert calls == [None]
    assert A.row_orthonormal and A.row_gram_scale == gram_deviation(entries)[1]
    calls.clear()
    M = np.random.default_rng(6).standard_normal((3, 5))
    assert not MeasurementMatrix.from_entries(M).row_orthonormal
    assert calls == [None]
    # a certificate given by hand is still checked
    calls.clear()
    with pytest.raises(InvalidArgumentError, match="certificate fails"):
        MeasurementMatrix(M, row_orthonormal=True, row_gram_scale=1.0)
    assert calls == [1.0]


def test_support_set_validation():
    with pytest.raises(InvalidArgumentError):
        SupportSet((3, 1))
    with pytest.raises(InvalidArgumentError):
        SupportSet((1, 1))
    s = SupportSet.from_indices([4, 0, 4, 2])
    assert tuple(s) == (0, 2, 4)
    assert 2 in s and 3 not in s
    assert np.array_equal(s.mask(5), [True, False, True, False, True])
    with pytest.raises(InvalidArgumentError):
        s.mask(4)


SUPPORT_BUILDERS = {
    "SupportSet": SupportSet,
    "from_indices": SupportSet.from_indices,
    "known_support": lambda indices: SmoothingConfig(known_support=list(indices)),
}


@pytest.mark.parametrize("build", SUPPORT_BUILDERS.values(), ids=SUPPORT_BUILDERS.keys())
@pytest.mark.parametrize(
    "indices", [(1.5, 3), (0.5, 3.9), (float("nan"),), (1, float("inf")), (-1, 2), ("2",), (None,)]
)
def test_support_rejects_an_index_that_is_no_nonnegative_integer(build, indices):
    # truncating 0.5 and 3.9 would trust rows 0 and 3
    with pytest.raises(InvalidArgumentError, match="support index"):
        build(indices)


@pytest.mark.parametrize("build", SUPPORT_BUILDERS.values(), ids=SUPPORT_BUILDERS.keys())
def test_support_takes_integral_floats_and_numpy_integers_as_ints(build):
    support = build((np.int64(0), 2.0, 5))
    if isinstance(support, SmoothingConfig):
        support = support.known_support
    assert support.indices == (0, 2, 5)
    assert all(type(i) is int for i in support.indices)


@pytest.mark.parametrize(
    "build",
    [SupportSet, SupportSet.from_indices, lambda value: SmoothingConfig(known_support=value)],
    ids=SUPPORT_BUILDERS.keys(),
)
@pytest.mark.parametrize("value", [5, 2.0, None])
def test_support_rejects_a_value_that_is_no_iterable(build, value):
    with pytest.raises(InvalidArgumentError, match="iterable of integers, got"):
        build(value)


def test_spark_examples():
    assert spark(np.eye(4)) == 5
    dup = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
    assert spark(dup) == 2
    # all single columns and pairs independent, the triple is dependent
    assert spark(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])) == 3


def test_spark_matches_exhaustive_oracle():
    # independent oracle: enumerate every subset size and rank-test it
    rng = np.random.default_rng(7)

    def oracle(M, tol=1e-10):
        n, N = M.shape
        for s in range(1, N + 1):
            for cols in itertools.combinations(range(N), s):
                sv = np.linalg.svd(M[:, cols], compute_uv=False)
                rank = int((sv > tol * sv[0]).sum()) if sv[0] > 0 else 0
                if rank < s:
                    return s
        return N + 1

    for _ in range(5):
        M = rng.standard_normal((3, 6))
        assert spark(M) == oracle(M)
    # planted dependency: duplicate a column
    M = rng.standard_normal((4, 7))
    M[:, 5] = 2.0 * M[:, 2]
    assert spark(M) == oracle(M) == 2


def test_spark_invariants():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n, N = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        M = rng.standard_normal((n, N))
        s = spark(M)
        assert s >= 2
        full_rank = np.linalg.matrix_rank(M) == N
        assert (s == N + 1) == full_rank


def test_spark_refuses_large_matrices():
    with pytest.raises(SizeLimitError):
        spark(np.ones((2, 21)))


def test_row_orthonormalize_examples():
    A = row_orthonormalize(np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 3.0]]))
    assert np.allclose(A.entries, [[1, 0, 0], [0, 0, 1]])
    assert A.row_orthonormal and A.row_gram_scale == 1.0

    # already orthonormal rows come back unchanged (sign-fixed QR)
    Q = np.array([[0.6, 0.8, 0.0], [-0.8, 0.6, 0.0]])
    out = row_orthonormalize(Q)
    assert np.allclose(out.entries, Q, atol=1e-12)


def test_row_orthonormalize_random():
    rng = np.random.default_rng(23)
    M = rng.standard_normal((4, 8))
    out = row_orthonormalize(M)
    gram = out.entries @ out.entries.T
    assert np.abs(gram - np.eye(4)).max() <= 1e-10
    # same row space: original rows are reproduced by projection onto the new rows
    proj = M @ out.entries.T @ out.entries
    assert np.allclose(proj, M, atol=1e-10)


def test_row_orthonormalize_rejects_rank_deficient():
    M = np.ones((3, 5))
    with pytest.raises(DegenerateInputError):
        row_orthonormalize(M)


def test_measurement_matrix_certification():
    M = MeasurementMatrix.from_entries([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
    assert M.row_orthonormal and M.row_gram_scale == pytest.approx(2.0)
    M2 = MeasurementMatrix.from_entries([[1.0, 2.0, 0.0], [1.0, -1.0, 0.0]])
    assert not M2.row_orthonormal
    with pytest.raises(InvalidArgumentError):
        MeasurementMatrix([[1.0, 2.0]], row_orthonormal=True, row_gram_scale=1.0)


def test_measurement_matrix_flags_overdetermined():
    with pytest.warns(UserWarning):
        MeasurementMatrix.from_entries(np.eye(3)[:, :2])


def test_mmv_problem_validation():
    A = MeasurementMatrix.from_entries(np.eye(3))
    with pytest.raises(InvalidArgumentError):
        MmvProblem(A=A, B=np.zeros((2, 1)))
    with pytest.raises(InvalidArgumentError):
        MmvProblem(A=A, B=np.zeros((3, 1)), epsilon=-1.0)
    with pytest.raises(InvalidArgumentError):
        MmvProblem(A=A, B=np.zeros((3, 1)), Psi=np.ones((3, 3)))
    prob = MmvProblem(A=A, B=np.ones((3, 2)), epsilon=0.5)
    assert (prob.n, prob.N, prob.L) == (3, 3, 2)
    assert prob.phi is A.entries  # identity transform adds no copy


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_mmv_problem_rejects_non_finite_epsilon(value):
    A = MeasurementMatrix.from_entries(np.eye(3))
    with pytest.raises(InvalidArgumentError, match=f"epsilon .*got {value!r}"):
        MmvProblem(A=A, B=np.zeros((3, 1)), epsilon=value)


def test_rank_above_counts_relative_to_the_largest():
    assert rank_above(np.array([4.0, 2.0, 1e-9, 0.0]), 1e-8) == 2
    assert rank_above(np.array([4.0, 2.0, 1e-9, 0.0]), 1e-12) == 3
    assert rank_above(np.zeros(3), 1e-8) == 0
    assert rank_above(np.empty(0), 1e-8) == 0


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.standard_normal((4, 3)) * 10.0 ** rng.integers(-8, 8, size=(4, 3))
    path = tmp_path / "m.csv"
    write_matrix(path, X)
    back = read_matrix(path)
    assert np.array_equal(back, X)  # 17 significant digits round-trip exactly
    write_matrix(path, np.array([[1.5]]))
    assert read_matrix(path).shape == (1, 1)
