import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conebell.errors import DegenerateVectorError
from conebell.exactlinalg import (as_int_matrix, as_int_vector, integer_kernel_basis,
                                  pivot_columns, primitive_normalize, rank, vector_gcd)
from conebell.scenario import Scenario, vertex_matrix

from .reference import sympy_nullity, sympy_pivots, sympy_rank


def test_rank_trivial_cases():
    assert rank(np.eye(2, dtype=np.int64)) == 2
    assert rank(np.zeros((3, 4), dtype=np.int64)) == 0
    assert rank(np.zeros((0, 4), dtype=np.int64)) == 0


def test_rank_of_lifted_chsh_vertices():
    mat = vertex_matrix(Scenario((2, 2)))
    assert mat.shape == (16, 9)
    assert rank(mat) == 9
    assert rank(mat) == sympy_rank(mat)


def test_rank_early_stop():
    mat = vertex_matrix(Scenario((3, 2)))
    assert rank(mat, stop_at=5) == 5


def test_rank_survives_large_entries():
    big = 10 ** 30
    mat = np.array([[big, 1], [1, big]], dtype=object)
    assert rank(mat) == 2
    mat2 = np.array([[big, 2 * big], [3, 6]], dtype=object)
    assert rank(mat2) == 1


matrices = st.integers(-6, 6)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.data())
def test_kernel_basis_properties(rows, cols, data):
    g = np.array([[data.draw(matrices) for _ in range(cols)] for _ in range(rows)],
                 dtype=object)
    t = integer_kernel_basis(g)
    assert t.shape[0] == cols
    assert t.shape[1] == sympy_nullity(g, cols)
    prod = g @ t
    assert not prod.any()
    if t.shape[1]:
        assert rank(t) == t.shape[1]
        for k in range(t.shape[1]):
            assert vector_gcd(t[:, k]) == 1


def test_kernel_of_empty_system_is_identity():
    t = integer_kernel_basis(np.zeros((0, 3), dtype=object), columns=3)
    assert t.shape == (3, 3)
    assert rank(t) == 3


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


def test_primitive_normalize():
    assert tuple(primitive_normalize([2, 4, -6])) == (1, 2, -3)
    assert tuple(primitive_normalize([0, 0, 5])) == (0, 0, 1)
    assert tuple(primitive_normalize([-3, 6])) == (1, -2)
    assert tuple(primitive_normalize([-3, 6], keep_orientation=True)) == (-1, 2)
    with pytest.raises(DegenerateVectorError):
        primitive_normalize([0, 0, 0])


def test_as_int_rejects_non_integral_entries():
    assert as_int_vector([2.0, -3]).tolist() == [2, -3]
    assert as_int_matrix(np.array([[1.0, 2.0]])).tolist() == [[1, 2]]
    with pytest.raises(ValueError):
        as_int_vector([1.9, 0])
    with pytest.raises(ValueError):
        as_int_matrix([[1, 0.5]])


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
