import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conebell.exactlinalg import (_PRIME, _as_int_rows, capped_ranks, integer_kernel_basis,
                                  modular_ranks, pivot_columns)
from conebell.scenario import Scenario, enumerate_vertices

from .reference import sympy_nullity, sympy_pivots, sympy_rank


def rank(mat):
    """Exact rank of mat from capped_ranks: every row, capped at min(shape),
    which no rank exceeds."""
    mat = np.asarray(mat)
    return int(capped_ranks(mat, np.ones((len(mat), 1), dtype=bool), min(mat.shape))[0])


def test_rank_trivial_cases():
    assert rank(np.eye(2, dtype=np.int64)) == 2
    assert rank(np.zeros((3, 4), dtype=np.int64)) == 0
    assert rank(np.zeros((0, 4), dtype=np.int64)) == 0


def test_rank_of_lifted_chsh_vertices():
    mat = enumerate_vertices(Scenario((2, 2)))
    assert mat.shape == (16, 9)
    assert rank(mat) == 9
    assert rank(mat) == sympy_rank(mat)


def test_rank_early_stop():
    # the DD's initial simplex takes the first r pivots and stops there
    mat = enumerate_vertices(Scenario((3, 2)))
    assert pivot_columns(mat, stop_at=5) == pivot_columns(mat)[:5]
    assert len(pivot_columns(mat, stop_at=5)) == 5


def test_rank_survives_large_entries():
    big = 10 ** 30
    mat = np.array([[big, 1], [1, big]], dtype=object)
    assert rank(mat) == 2
    mat2 = np.array([[big, 2 * big], [3, 6]], dtype=object)
    assert rank(mat2) == 1


def test_kernel_of_empty_system_is_identity():
    t = integer_kernel_basis(np.zeros((0, 3), dtype=object), columns=3)
    assert t.shape == (3, 3)
    assert rank(t) == 3


def test_kernel_rejects_a_wrong_column_count():
    rows = np.random.default_rng(2).integers(-2, 3, size=(3, 64))
    for mat in (rows, rows.astype(object)):
        assert integer_kernel_basis(mat, columns=64).shape == (64, 61)
        with pytest.raises(ValueError, match="expected 65 columns, got 64"):
            integer_kernel_basis(mat, columns=65)
    # an empty matrix needs its column count, and a vector is no matrix
    with pytest.raises(ValueError, match="explicit column count"):
        integer_kernel_basis(np.zeros((0, 3), dtype=object))
    with pytest.raises(ValueError, match=r"2-d matrix, got shape \(3,\)"):
        integer_kernel_basis(np.array([1, 2, 3], dtype=object))


def test_kernel_single_row():
    t = integer_kernel_basis(np.array([[1, 1, 0]], dtype=object))
    assert t.shape == (3, 2)
    assert not (np.array([[1, 1, 0]], dtype=object) @ t).any()
    # kernel is {(x, -x, z)}
    for k in range(2):
        x, y, z = (int(v) for v in t[:, k])
        assert x == -y


def test_rank_matches_float_svd_on_well_conditioned():
    rng = np.random.default_rng(3)
    for _ in range(40):
        m = rng.integers(-4, 5, size=(rng.integers(1, 7), rng.integers(1, 7)))
        assert rank(m.astype(object)) == np.linalg.matrix_rank(m.astype(float))


def test_as_int_rejects_non_integral_entries():
    assert _as_int_rows(np.array([[1.0, 2.0]])).tolist() == [[1, 2]]
    assert _as_int_rows(np.array([[1, 2]])).dtype == np.int64
    assert _as_int_rows([[2 ** 70, 1.0]]).tolist() == [[2 ** 70, 1]]
    assert _as_int_rows([], columns=3).shape == (0, 3)
    with pytest.raises(ValueError):
        _as_int_rows([[1, 0.5]])


@st.composite
def low_rank_matrices(draw):
    """int64 or object matrices, a product through a random inner dimension
    so that rank deficiency is common."""
    rows, cols, inner = (draw(st.integers(1, 6)) for _ in range(3))
    spread = draw(st.sampled_from([3, 2 ** 29, 2 ** 31]))
    left = np.array([[draw(st.integers(-spread, spread)) for _ in range(inner)]
                     for _ in range(rows)], dtype=object)
    right = np.array([[draw(st.integers(-2, 2)) for _ in range(cols)]
                      for _ in range(inner)], dtype=object)
    mat = left @ right
    return mat if draw(st.booleans()) else mat.astype(np.int64)


@st.composite
def small_matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    return np.array([[draw(st.integers(-6, 6)) for _ in range(cols)] for _ in range(rows)],
                    dtype=object)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_matrices(), low_rank_matrices()))
# the lcm of the pivots 2^31 + 11 and 2^31 - 1 times an entry 2^31 passes
# the int64 bound, so the kernel columns are scaled in Python ints
@example(np.array([[(1 << 31) + 11, 0, 1 << 31], [0, (1 << 31) - 1, 1 << 31]], dtype=np.int64))
def test_kernel_basis_properties(g):
    cols = g.shape[1]
    t = integer_kernel_basis(g)
    assert t.shape[0] == cols
    assert t.shape[1] == sympy_nullity(g, cols)
    prod = g.astype(object) @ t.astype(object)
    assert not prod.any()
    if t.shape[1]:
        assert rank(t) == t.shape[1]
        for k in range(t.shape[1]):
            assert math.gcd(*t[:, k]) == 1


@settings(max_examples=200, deadline=None)
@given(low_rank_matrices(), st.integers(1, 6))
# int64 elimination must go over to Python ints: at the first step here
# (the determinant is 2^64) ...
@example(np.array([[1 << 32, 0], [1 << 32, 1 << 32]], dtype=np.int64), 2)
# ... and partway through here, where the first step fits int64 and the
# rank is 3
@example(np.array([[68472176, 360061286, 551405440, 44546570],
                   [368109036, 1028139378, 647539946, 837047376],
                   [-685082597, -1153683341, 218154674, -509256245],
                   [367683041, 363154368, -570511307, -158581995]], dtype=np.int64), 4)
def test_pivot_columns_match_sympy(mat, stop):
    expected = sympy_pivots(mat)
    assert pivot_columns(mat) == expected
    assert rank(mat) == len(expected)
    assert pivot_columns(mat, stop_at=stop) == expected[:stop]


@st.composite
def matrix_stacks(draw):
    """(B, m, n) stacks of low-rank matrices, int64 or object, with zero
    padding rows and sometimes more rows than columns."""
    count, rows, cols = draw(st.integers(1, 4)), draw(st.integers(0, 9)), draw(st.integers(1, 6))
    spread = draw(st.sampled_from([2, 2 ** 20, 2 ** 40]))
    dtype = draw(st.sampled_from([np.int64, object]))
    stack = np.zeros((count, rows, cols), dtype=object)
    for b in range(count):
        inner = draw(st.integers(1, cols))
        used = draw(st.integers(0, rows))
        left = np.array([[draw(st.integers(-spread, spread)) for _ in range(inner)]
                         for _ in range(used)], dtype=object).reshape(used, inner)
        right = np.array([[draw(st.integers(-2, 2)) for _ in range(cols)]
                          for _ in range(inner)], dtype=object)
        stack[b, :used] = left @ right
    if dtype is np.int64 and np.abs(stack).max(initial=0) < 2 ** 62:
        stack = stack.astype(np.int64)
    return stack


def _sympy_ranks(stack):
    return [sympy_rank(mat) if mat.size else 0 for mat in stack]


@settings(max_examples=200, deadline=None)
@given(matrix_stacks())
def test_modular_ranks_match_sympy(stack):
    # a random matrix keeps its rank mod p except with probability about 1/p
    assert modular_ranks(stack).tolist() == _sympy_ranks(stack)


def test_modular_ranks_never_exceed_the_rational_rank():
    p = _PRIME
    stack = np.array([
        [[p, 0, 0], [0, 1, 0], [0, 0, 0]],            # an entry equal to p
        [[1, 1, 0], [1, 1 + p, 0], [0, 0, 1]],        # a 2x2 minor equal to p
        [[2 * p, 4 * p, 0], [3 * p, 5 * p, 0], [0, 0, 7]],  # multiples of p
        [[1, 2, 3], [2, 4, 6], [1, 0, 1]],            # singular over Q and mod p
    ], dtype=object)
    assert modular_ranks(stack).tolist() == [1, 2, 1, 2]
    assert _sympy_ranks(stack) == [2, 3, 3, 2]
    # padded with zero rows, so m > n, but too large for a float64 Gram matrix
    padded = np.concatenate([stack, np.zeros((4, 2, 3), dtype=object)], axis=1)
    assert modular_ranks(padded).tolist() == [1, 2, 1, 2]
    assert modular_ranks(stack.astype(np.int64)).tolist() == [1, 2, 1, 2]
    # a column whose squares sum to 2p: its Gram matrix is 0 mod p
    column = np.array([[[65535], [362], [5]]], dtype=np.int64)
    assert int((column[0].T @ column[0])[0, 0]) == 2 * p
    assert modular_ranks(column).tolist() == [0]


def test_modular_ranks_of_many_rows_use_the_gram_matrix():
    # 16 x 9 lifted CHSH vertices: rank 9, and the Gram matrix is exact
    mat = enumerate_vertices(Scenario((2, 2)))
    stack = np.stack([mat, mat * 0, np.vstack([mat[:5], np.zeros((11, 9), dtype=np.int64)])])
    assert modular_ranks(stack).tolist() == [9, 0, sympy_rank(mat[:5])]


@st.composite
def row_subsets(draw):
    """(matrix, members, cap): a low-rank matrix, int64 or object, with up
    to 9 rows, so subsets often have more rows than columns; membership
    columns that include an empty subset and the full one; and a cap from 0
    to min(shape), so below, at and above the full rank."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    inner = draw(st.integers(1, cols))
    spread = draw(st.sampled_from([2, 2 ** 20, 2 ** 40]))
    left = np.array([[draw(st.integers(-spread, spread)) for _ in range(inner)]
                     for _ in range(rows)], dtype=object)
    right = np.array([[draw(st.integers(-2, 2)) for _ in range(cols)]
                      for _ in range(inner)], dtype=object)
    mat = left @ right
    if draw(st.booleans()):
        mat = mat.astype(np.int64)
    picks = [[draw(st.booleans()) for _ in range(rows)] for _ in range(draw(st.integers(0, 4)))]
    members = np.array([[False] * rows, [True] * rows] + picks, dtype=bool).T
    return mat, members, draw(st.integers(0, min(rows, cols)))


@settings(max_examples=200, deadline=None)
@given(row_subsets())
def test_capped_ranks_match_sympy(case):
    mat, members, cap = case
    expected = [min(sympy_rank(mat[col]) if col.any() else 0, cap) for col in members.T]
    assert capped_ranks(mat, members, cap).tolist() == expected
    # one subset per padded stack gives the same ranks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("conebell.exactlinalg._STACK_ENTRIES", 1)
        assert capped_ranks(mat, members, cap).tolist() == expected


def test_capped_ranks_below_and_at_the_full_rank():
    mat = enumerate_vertices(Scenario((2, 2)))
    members = np.array([[True] * 16, [True] * 5 + [False] * 11, [False] * 16]).T
    assert capped_ranks(mat, members, 9).tolist() == [9, sympy_rank(mat[:5]), 0]
    assert capped_ranks(mat, members, 3).tolist() == [3, 3, 0]


def test_capped_ranks_fall_back_where_the_rank_drops_mod_p(monkeypatch):
    # every 2x2 minor of the first two rows is 0 or p, so their rank is 1
    # mod p and 2 over the rationals; the whole matrix has rank 3, 2 mod p
    p = _PRIME
    mat = np.array([[1, 1, 0], [1, 1 + p, 0], [0, 0, 1]], dtype=np.int64)
    members = np.array([[True, True, False], [True, True, True], [True, False, True]]).T
    calls = []

    def exact(rows, stop_at=None):
        calls.append(len(rows))
        return pivot_columns(rows, stop_at=stop_at)

    monkeypatch.setattr("conebell.exactlinalg.pivot_columns", exact)
    assert capped_ranks(mat, members, 2).tolist() == [2, 2, 2]
    # only the first subset's rank mod p stays below the cap
    assert calls == [2]
    assert capped_ranks(mat, members, 3).tolist() == [2, 3, 2]
    # a column whose squares sum to 2p: its Gram matrix is 0 mod p
    column = np.array([[65535], [362], [5]], dtype=np.int64)
    assert capped_ranks(column, np.ones((3, 1), dtype=bool), 1).tolist() == [1]
