from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from latgauss import exactlin as xl


def test_det_and_inverse():
    a = xl.to_fraction_mat([[2, 1], [1, 1]])
    assert xl.det(a) == 1
    inv = xl.inverse(a)
    assert xl.mat_mul(a, inv) == xl.identity(2)


def test_singular_matrix():
    a = xl.to_fraction_mat([[1, 2], [2, 4]])
    assert xl.det(a) == 0
    assert xl.inverse(a) is None
    assert xl.rank(a) == 1


def test_hnf_lower_triangular_and_index():
    t = [[2, 0], [1, 1]]
    h = xl.hnf_lower(tuple(zip(*t)))  # column lattice of t^T
    assert h[0][1] == 0  # lower triangular
    assert h[0][0] * h[1][1] == 2  # |det| preserved


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda nc: st.lists(
    st.lists(st.integers(-3, 3), min_size=nc, max_size=nc), min_size=1, max_size=6)))
def test_f2_echelon(rows):
    ech, pivots = xl.f2_echelon(rows)
    nc = len(rows[0])
    assert len(ech) == len(pivots)
    assert pivots == sorted(set(pivots)) and all(0 <= p < nc for p in pivots)
    for k, p in enumerate(pivots):  # pivot columns are unit columns
        assert [r[p] for r in ech] == [int(i == k) for i in range(len(ech))]
        assert all(x == 0 for x in ech[k][:p])  # leading ones
    # the row space is unchanged: stacking input on output keeps the rank
    assert len(xl.f2_echelon(list(rows) + ech)[0]) == len(ech)
    # the rank is the number of rows returned: 2^rank points in the span
    span = {tuple(sum(c * x for c, x in zip(cs, col)) % 2 for col in zip(*rows))
            for cs in np.ndindex(*[2] * len(rows))}
    assert len(span) == 2 ** len(ech)


def test_f2_echelon_examples():
    assert xl.f2_echelon([[1, 0], [0, 1]]) == ([(1, 0), (0, 1)], [0, 1])
    assert xl.f2_echelon([[1, 1], [1, 1]]) == ([(1, 1)], [0])
    assert xl.f2_echelon([[2, 4], [6, 8]]) == ([], [])  # all even
    assert xl.f2_echelon([[0, 1, 1], [1, 1, 0]]) == ([(1, 0, 1), (0, 1, 1)], [0, 1])


def test_solve_exact():
    a = xl.to_fraction_mat([[3, 1], [1, 2]])
    rhs = xl.to_fraction_mat([[1], [0]])
    x = xl.solve(a, rhs)
    assert x == ((Fraction(2, 5),), (Fraction(-1, 5),))
