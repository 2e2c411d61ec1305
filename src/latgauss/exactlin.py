"""Exact rational / integer linear algebra on small matrices.

Everything here works on tuples of fractions.Fraction (or ints) and is only
meant for desk-scale dimensions (d <= 12 or so).  Matrices are row-major
tuples of tuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def to_fraction_vec(v: Sequence) -> Vec:
    return tuple(Fraction(x) for x in v)


def to_fraction_mat(rows: Sequence[Sequence]) -> Mat:
    return tuple(to_fraction_vec(r) for r in rows)


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(a: Vec, c) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def norm_sq(a: Vec) -> Fraction:
    return dot(a, a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b))
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def identity(n: int) -> Mat:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def det(a: Mat) -> Fraction:
    """Determinant by fraction-free-ish Gaussian elimination."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        d *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return sign * d


def solve(a: Mat, rhs: Mat) -> Mat | None:
    """Solve a @ X = rhs exactly; None if a is singular.  rhs is a matrix
    (use a single-column matrix for a vector right-hand side)."""
    n = len(a)
    k = len(rhs[0])
    m = [list(a[i]) + list(rhs[i]) for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(m[i][n:n + k]) for i in range(n))


def inverse(a: Mat) -> Mat | None:
    return solve(a, identity(len(a)))


def rank(a: Mat) -> int:
    rows = [list(r) for r in a]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    r = 0
    for col in range(nc):
        piv = next((i for i in range(r, nr) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][col]
        for i in range(nr):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == nr:
            break
    return r


# ---------------------------------------------------------------------------
# integer normal forms


def hnf_lower(t: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Column-style Hermite normal form of a nonsingular integer matrix.

    Returns H lower-triangular with positive diagonal, columns generating the
    same integer column-lattice as t, and off-diagonal entries reduced:
    0 <= H[i][j] < H[i][i] for j > i is NOT imposed (column form); instead we
    reduce columns to the right of each pivot so residue reduction can sweep
    pivots in increasing row order.
    """
    m = [list(map(int, row)) for row in t]
    n = len(m)
    ncols = len(m[0])
    # column operations only; bring to lower-triangular with pivots on diag
    for i in range(n):
        # gcd sweep over columns j >= i using row i
        j = i
        while True:
            nz = [c for c in range(i, ncols) if m[i][c] != 0]
            if not nz:
                raise ValueError("matrix is singular; no Hermite form")
            # pick column with smallest |entry| in row i as pivot
            piv = min(nz, key=lambda c: abs(m[i][c]))
            if piv != i:
                for r in range(n):
                    m[r][i], m[r][piv] = m[r][piv], m[r][i]
            done = True
            for c in range(i + 1, ncols):
                if m[i][c] != 0:
                    q = m[i][c] // m[i][i]
                    for r in range(n):
                        m[r][c] -= q * m[r][i]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if m[i][i] < 0:
            for r in range(n):
                m[r][i] = -m[r][i]
        # reduce earlier columns against this pivot so entries in row i
        # satisfy 0 <= m[i][c] < m[i][i] for c < i
        for c in range(i):
            q = m[i][c] // m[i][i]
            if q:
                for r in range(n):
                    m[r][c] -= q * m[r][i]
    return tuple(tuple(row[:n]) for row in m)


def f2_echelon(m: Sequence[Sequence[int]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Reduced row echelon form over F_2 of an integer matrix taken mod 2.

    Returns (rows, pivots): the nonzero echelon rows as 0/1 tuples and the
    increasing pivot column of each, so len(rows) is the F_2-rank.  Every
    pivot column is a unit column of the echelon rows.
    """
    rows = [[int(x) & 1 for x in r] for r in m]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    for c in range(nc):
        r = len(pivots)
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(nr):
            if i != r and rows[i][c]:
                rows[i] = [x ^ y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return [tuple(r) for r in rows[:len(pivots)]], pivots
