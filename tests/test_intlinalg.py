"""Tests for the exact integer linear algebra layer."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdlab.intlinalg import (
    as_zmatrix,
    cokernel,
    image_basis,
    invariant_factors,
    kernel_basis,
    minor_gcd_invariant_factors,
    snf,
    zeros,
)
from reference_routes import subgroup_equal


def assert_snf_contract(m):
    u, d, v = snf(m)
    a = as_zmatrix(m)
    assert np.array_equal(u @ a @ v, d)
    # Unimodularity: integer inverse exists iff det = +-1.
    assert abs(_det(u)) == 1
    assert abs(_det(v)) == 1
    diag = [int(d[i, i]) for i in range(min(d.shape))]
    assert all(x >= 0 for x in diag)
    for a_, b_ in zip(diag, diag[1:]):
        if a_ != 0 and b_ != 0:
            assert b_ % a_ == 0
        if a_ == 0:
            assert b_ == 0
    # Off-diagonal must vanish.
    for i in range(d.shape[0]):
        for j in range(d.shape[1]):
            if i != j:
                assert d[i, j] == 0


def _det(m):
    n = m.shape[0]
    if n == 0:
        return 1
    if n == 1:
        return int(m[0, 0])
    total = 0
    sign = 1
    for i in range(n):
        sub = np.delete(np.delete(m, i, axis=0), 0, axis=1)
        total += sign * int(m[i, 0]) * _det(sub)
        sign = -sign
    return total


def test_snf_diag_2_3():
    _, d, _ = snf([[2, 0], [0, 3]])
    assert [int(d[0, 0]), int(d[1, 1])] == [1, 6]
    assert_snf_contract([[2, 0], [0, 3]])


def test_snf_zero_matrix():
    u, d, v = snf(zeros(3, 2))
    assert np.array_equal(d, zeros(3, 2))
    assert_snf_contract(zeros(3, 2))


def test_snf_rejects_non_integer():
    with pytest.raises(ValueError, match="not an integer"):
        snf([[0.5]])


@pytest.mark.parametrize("seed", range(8))
def test_snf_random_contract(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        shape = rng.integers(1, 5, 2)
        m = rng.integers(-5, 6, shape)
        assert_snf_contract(m)


def test_invariant_factors_match_minor_gcd_oracle():
    rng = np.random.default_rng(99)
    for _ in range(200):
        shape = rng.integers(1, 5, 2)
        m = rng.integers(-5, 6, shape)
        assert invariant_factors(m) == minor_gcd_invariant_factors(m)


@pytest.mark.parametrize("rows", range(1, 6))
@pytest.mark.parametrize("cols", range(1, 7))
def test_minor_gcd_oracle_on_every_shape_up_to_5x6(rows, cols):
    # The expansion plan depends on the shape alone: each shape's plan serves a
    # random, a zero and a rank-deficient matrix (a product through Z^r with
    # r = min(rows, cols) - 1, or 1), and a matrix whose first column is zero.
    rng = np.random.default_rng(rows * 10 + cols)
    r = max(min(rows, cols) - 1, 1)
    deficient = rng.integers(-3, 4, (rows, r)) @ rng.integers(-3, 4, (r, cols))
    first_zero = rng.integers(-9, 10, (rows, cols))
    first_zero[:, 0] = 0
    for m in (rng.integers(-9, 10, (rows, cols)), np.zeros((rows, cols), dtype=int),
              deficient, first_zero):
        assert minor_gcd_invariant_factors(m) == invariant_factors(m), m.tolist()
    if min(rows, cols) > 1:
        assert len(invariant_factors(deficient)) <= r


@st.composite
def _integer_matrices(draw):
    """1x1 to 5x5 matrices with entries in [-9, 9], some rows and columns set to zero."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m = np.array(draw(st.lists(st.integers(-9, 9), min_size=rows * cols,
                               max_size=rows * cols))).reshape(rows, cols)
    m[draw(st.lists(st.integers(0, rows - 1), max_size=rows)), :] = 0
    m[:, draw(st.lists(st.integers(0, cols - 1), max_size=cols))] = 0
    return m


# In diag(2, 3), diag(4, 6) and [[2, 4], [4, 5]] the first pivot clears its
# row and column but fails to divide an entry of the rest, so the Smith form
# takes its divisibility step; in [[0, 0, 0], [0, 4, 6], [0, 6, 9]] the first
# pivot leaves a nonzero remainder in its row instead.
_STEP_EXAMPLES = [np.diag([2, 3]), np.diag([4, 6]), np.array([[2, 4], [4, 5]]),
                  np.array([[0, 0, 0], [0, 4, 6], [0, 6, 9]])]


def _with_step_examples(test):
    for m in _STEP_EXAMPLES:
        test = example(m=m)(test)
    return test


_HUGE = 2 ** 62  # the largest power of two that numpy's int64 holds


@settings(max_examples=300, deadline=None)
@given(m=_integer_matrices())
@_with_step_examples
@example(m=np.array([[2, 0, 4, 0, 6], [0, 0, 0, 0, 0], [3, 0, 9, 0, -3],
                     [0, 0, 0, 0, 0], [5, 0, 1, 0, 7]]))
@example(m=np.zeros((0, 3), dtype=int))
@example(m=np.zeros((3, 0), dtype=int))
@example(m=np.zeros((4, 4), dtype=int))
# Rank 2: the second row is twice the first, the fourth the sum of the first and third.
@example(m=np.array([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 3, 3, 5]]))
@example(m=np.array([[_HUGE, -_HUGE, 0], [-_HUGE, 3, _HUGE], [_HUGE, _HUGE, -_HUGE]]))
@example(m=np.array([[_HUGE, 2 * (_HUGE - 1)], [-_HUGE, 6]]))
def test_invariant_factors_match_minor_gcd_oracle_property(m):
    # Every route to the Smith diagonal: the elimination with no transform
    # (invariant_factors, cokernel), with both (snf), and the minor gcds.
    factors = invariant_factors(m)
    d = snf(m)[1]
    assert [d[i, i] for i in range(min(d.shape)) if d[i, i]] == factors
    assert cokernel(m) == (d.shape[0] - len(factors), [f for f in factors if f > 1])
    assert minor_gcd_invariant_factors(m) == factors


@settings(max_examples=300, deadline=None)
@given(m=_integer_matrices())
@_with_step_examples
def test_snf_contract_property(m):
    assert_snf_contract(m)


def test_kernel_image_example():
    m = [[0, 1], [0, 1]]
    k = kernel_basis(m)
    assert k.shape == (2, 1)
    assert np.array_equal(k[:, 0], as_zmatrix([[1], [0]])[:, 0])
    im = image_basis(m)
    assert im.shape == (2, 1)
    assert list(im[:, 0]) == [1, 1]


def test_kernel_of_identity_and_injective_column():
    assert kernel_basis(np.eye(3, dtype=int)).shape == (3, 0)
    assert image_basis(np.eye(3, dtype=int)).shape == (3, 3)
    # (1,1) as a map Z -> Z^2 is injective.
    assert kernel_basis([[1], [1]]).shape == (1, 0)


def test_rank_nullity():
    rng = np.random.default_rng(3)
    for _ in range(50):
        shape = rng.integers(1, 6, 2)
        m = rng.integers(-4, 5, shape)
        k = kernel_basis(m).shape[1]
        r = image_basis(m).shape[1]
        assert k + r == shape[1]


def test_kernel_vectors_annihilate():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = rng.integers(-5, 6, (3, 4))
        a = as_zmatrix(m)
        k = kernel_basis(m)
        if k.shape[1]:
            assert np.array_equal(a @ k, zeros(3, k.shape[1]))


def test_kernel_basis_is_primitive():
    # A primitive basis extends to a basis of Z^n: invariant factors all 1.
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = rng.integers(-3, 4, (2, 4))
        k = kernel_basis(m)
        if k.shape[1]:
            assert set(invariant_factors(k)) <= {1}


def test_cokernel():
    free, torsion = cokernel([[0, 1], [0, 1]])
    assert (free, torsion) == (1, [])
    free, torsion = cokernel([[2, 0], [0, 3]])
    assert (free, torsion) == (0, [6])
    free, torsion = cokernel(zeros(2, 2))
    assert (free, torsion) == (2, [])


def test_hnf_canonicalizes_subgroups():
    # Same subgroup, different generators.
    a = [[1, 1], [1, -1]]
    b = [[1, 3], [1, 1]]  # second column = first of a + ... still spans same lattice?
    # Construct b deliberately: columns (1,1) and (3,1): (3,1) = 2*(1,1) + (1,-1).
    assert subgroup_equal([[1, 3], [1, 1]], [[1, 1], [1, -1]])
    assert not subgroup_equal([[2], [0]], [[1], [0]])
    assert subgroup_equal([[1], [1]], [[-1], [-1]])


def test_hnf_drops_zero_columns():
    h = image_basis([[0, 2], [0, 0]])
    assert h.shape == (2, 1)
    assert list(h[:, 0]) == [2, 0]


_BIG = 2 ** 80  # beyond int64: the list kernels work on Python ints


def test_entries_beyond_int64_survive_every_kernel():
    m = [[_BIG, 0, 3], [0, 2 * _BIG, 6]]
    assert_snf_contract(m)
    assert invariant_factors(m) == minor_gcd_invariant_factors(m) == [1, 2 * _BIG]
    assert cokernel([[_BIG, 0], [0, 3 * _BIG]]) == (0, [_BIG, 3 * _BIG])
    assert minor_gcd_invariant_factors([[_BIG, 0], [0, 3 * _BIG]]) == [_BIG, 3 * _BIG]
    # gcd(2^80, 2^80 + 1) = 1: the row generates Z, and its kernel is one primitive vector.
    row = np.array([[_BIG, _BIG + 1]], dtype=object)
    assert image_basis(row).tolist() == [[1]]
    k = kernel_basis(row)
    assert k.shape == (2, 1) and sorted(abs(x) for x in k[:, 0]) == [_BIG, _BIG + 1]
    assert (row @ k).tolist() == [[0]]
    assert subgroup_equal([[_BIG], [1]], [[-_BIG], [-1]])
    assert not subgroup_equal([[_BIG], [0]], [[_BIG + 1], [0]])


@pytest.mark.parametrize("bad", [0.5, np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kernel", [as_zmatrix, snf, invariant_factors,
                                    minor_gcd_invariant_factors, kernel_basis, image_basis,
                                    cokernel])
def test_non_integer_entries_are_refused(kernel, bad):
    with pytest.raises(ValueError, match="not an integer"):
        kernel([[1, bad], [0, 2]])
    with pytest.raises(ValueError, match="not an integer"):
        kernel(np.array([[1, bad]], dtype=object))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_empty_shapes(shape):
    rows, cols = shape
    u, d, v = snf(zeros(rows, cols))
    assert (u.shape, d.shape, v.shape) == ((rows, rows), shape, (cols, cols))
    assert invariant_factors(zeros(rows, cols)) == [] == minor_gcd_invariant_factors(
        zeros(rows, cols))
    assert image_basis(zeros(rows, cols)).shape == (rows, 0)
    # A map from Z^cols has all of Z^cols as its kernel; Z^rows is its cokernel.
    assert np.array_equal(kernel_basis(zeros(rows, cols)), np.eye(cols, dtype=int))
    assert cokernel(zeros(rows, cols)) == (rows, [])
    assert subgroup_equal(zeros(rows, cols), zeros(rows, 0))
