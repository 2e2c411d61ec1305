"""Exact-arithmetic lattice representation and structural operations.

Bases are stored as row-stacked matrices of exact rationals.  Everything in
this module is exact: Gram-Schmidt, duals, sublattice transforms, coset
labels, towers, and random superlattices.  Floating point only enters through
the cached float matrices used by the samplers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import exactlin as xl
from ._enum import enumerate_coeffs, gso_data


class LatticeError(ValueError):
    pass


class BasisParseError(LatticeError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Basis:
    """Ordered list of linearly independent rational row vectors.

    n is the ambient dimension, d the rank (d <= n).
    """

    __slots__ = ("rows", "n", "d", "_float", "_gram", "_gso", "_key", "_orth")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = xl.to_fraction_mat(rows)
        if not self.rows:
            raise LatticeError("empty basis")
        self.d = len(self.rows)
        self.n = len(self.rows[0])
        if any(len(r) != self.n for r in self.rows):
            raise LatticeError("ragged basis rows")
        if self.d > self.n:
            raise LatticeError(f"rank {self.d} exceeds ambient dimension {self.n}")
        if xl.rank(self.rows) != self.d:
            raise LatticeError("basis rows are linearly dependent")
        self._float = None
        self._gram = None
        self._gso = None
        self._key = None
        self._orth = None

    # -- cached views -------------------------------------------------------

    @property
    def float_rows(self) -> np.ndarray:
        if self._float is None:
            self._float = np.array([[float(x) for x in r] for r in self.rows])
        return self._float

    @property
    def gram(self) -> xl.Mat:
        """Exact Gram matrix G[i][j] = <b_i, b_j>."""
        if self._gram is None:
            self._gram = tuple(tuple(xl.dot(a, b) for b in self.rows) for a in self.rows)
        return self._gram

    @property
    def key(self) -> bytes:
        if self._key is None:
            self._key = repr(self.rows).encode()
        return self._key

    def is_orthogonal(self) -> bool:
        if self._orth is None:
            g = self.gram
            self._orth = all(g[i][j] == 0 for i in range(self.d)
                             for j in range(i + 1, self.d))
        return self._orth

    # -- arithmetic ---------------------------------------------------------

    def scale(self, c) -> "Basis":
        c = Fraction(c)
        return Basis([[c * x for x in row] for row in self.rows])

    def ambient(self, coeffs: Sequence[int]) -> xl.Vec:
        out = [Fraction(0)] * self.n
        for z, row in zip(coeffs, self.rows):
            z = int(z)
            if z:
                out = [o + z * x for o, x in zip(out, row)]
        return tuple(out)

    def coeffs_of(self, vec: Sequence) -> tuple[int, ...] | None:
        """Integer coefficients expressing vec in this basis, or None."""
        target = tuple(Fraction(x) for x in vec)
        rhs = tuple((xl.dot(row, target),) for row in self.rows)
        sol = xl.solve(self.gram, rhs)
        if sol is None:
            return None
        coeffs = []
        for (c,) in sol:
            if c.denominator != 1:
                return None
            coeffs.append(int(c))
        # confirm the vector is actually in the row span
        if self.ambient(coeffs) != target:
            return None
        return tuple(coeffs)

    def __repr__(self):
        return f"Basis(n={self.n}, d={self.d})"

    def __eq__(self, other):
        return isinstance(other, Basis) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)


@dataclass(frozen=True)
class GramSchmidt:
    gs_vectors: xl.Mat
    gs_norms_sq: tuple[Fraction, ...]
    mu: xl.Mat

    @property
    def gs_norms(self) -> tuple[float, ...]:
        return tuple(math.sqrt(float(x)) for x in self.gs_norms_sq)

    @property
    def max_gs_norm(self) -> float:
        return max(self.gs_norms)


@dataclass(frozen=True)
class LatticePoint:
    coeffs: tuple[int, ...]
    basis: Basis

    @property
    def ambient(self) -> xl.Vec:
        return self.basis.ambient(self.coeffs)

    def norm_sq(self) -> Fraction:
        g = self.basis.gram
        z = self.coeffs
        return sum(z[i] * z[j] * g[i][j] for i in range(len(z)) for j in range(len(z)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


@dataclass(frozen=True)
class CosetLabel:
    residue: tuple[int, ...]
    sublattice_key: bytes

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.residue)


def gram_schmidt(basis: Basis) -> GramSchmidt:
    """Exact Gram-Schmidt orthogonalization in basis order."""
    if basis._gso is None:
        gs, nsq, mu = gso_data(basis.rows)
        basis._gso = GramSchmidt(tuple(gs), tuple(nsq), tuple(tuple(r) for r in mu))
    return basis._gso


# ---------------------------------------------------------------------------
# parsing

def parse_basis(text: str) -> Basis:
    """Parse the basis file format: first line "n d", then d rows of n
    rationals ("p" or "p/q", base 10)."""
    lines = text.splitlines()
    if not lines:
        raise BasisParseError("empty input", 1)
    head = lines[0].split()
    if len(head) != 2:
        raise BasisParseError("expected header 'n d'", 1)
    try:
        n, d = int(head[0]), int(head[1])
    except ValueError:
        raise BasisParseError("header entries must be integers", 1) from None
    if n <= 0 or d <= 0:
        raise BasisParseError("dimensions must be positive", 1)
    rows = []
    for i in range(d):
        lineno = i + 2
        if lineno - 1 >= len(lines):
            raise BasisParseError(f"expected {d} vector rows, found {i}", lineno)
        parts = lines[lineno - 1].split()
        if len(parts) != n:
            raise BasisParseError(f"expected {n} entries, found {len(parts)}", lineno)
        row = []
        for p in parts:
            try:
                row.append(Fraction(p))
            except (ValueError, ZeroDivisionError):
                raise BasisParseError(f"malformed number {p!r}", lineno) from None
        rows.append(row)
    try:
        return Basis(rows)
    except LatticeError as e:
        raise BasisParseError(str(e), d + 1) from None


def format_basis(basis: Basis) -> str:
    lines = [f"{basis.n} {basis.d}"]
    for row in basis.rows:
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reduction

def _lll(rows: list[list[Fraction]], delta: Fraction) -> list[list[Fraction]]:
    d = len(rows)
    b = [row[:] for row in rows]

    def gso():
        gs, nsq, mu = gso_data(tuple(tuple(r) for r in b))
        return [list(g) for g in gs], list(nsq), [list(m) for m in mu]

    gs, nsq, mu = gso()
    k = 1
    while k < d:
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            r = q.numerator // q.denominator
            if 2 * (q - r) > 1:  # round to nearest
                r += 1
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                gs, nsq, mu = gso()
        if nsq[k] >= (delta - mu[k][k - 1] ** 2) * nsq[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            gs, nsq, mu = gso()
            k = max(k - 1, 1)
    return b


def _hkz(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """"Exact" reduction: same lattice, first vector a shortest vector.

    LLL first, then enumeration inside the first reduced vector's length,
    then a unimodular completion placing the winner in front.  Rank <= 10.
    """
    d = len(rows)
    if d > 10:
        raise LatticeError("exact reduction profile limited to rank <= 10")
    work = Basis(_lll(rows, Fraction(99, 100)))
    if d == 1:
        return [list(work.rows[0])]
    r0 = xl.norm_sq(work.rows[0])
    zs = enumerate_coeffs(work.rows, None, r0)
    best = None
    for z in zs:
        z = tuple(int(v) for v in z)
        if all(v == 0 for v in z):
            continue
        nsq = xl.norm_sq(work.ambient(z))
        if best is None or (nsq, z) < best:
            best = (nsq, z)
    nsq, z = best
    u = _unimodular_with_first_row(z)
    new_rows = [list(work.ambient(row)) for row in u]
    # size-reduce the tail against the shortest vector (no swaps)
    v = new_rows[0]
    vn = xl.norm_sq(tuple(v))
    for i in range(1, d):
        q = xl.dot(tuple(new_rows[i]), tuple(v)) / vn
        r = q.numerator // q.denominator
        if 2 * (q - r) > 1:
            r += 1
        if r:
            new_rows[i] = [x - r * y for x, y in zip(new_rows[i], v)]
    return new_rows


def _unimodular_with_first_row(z: tuple[int, ...]) -> list[list[int]]:
    """A unimodular integer matrix whose first row is z (gcd(z) = 1)."""
    d = len(z)
    if d == 1:
        return [[int(z[0])]]
    # build u in GL_d(Z) with u @ z^T = e_1 by a euclidean sweep; then the
    # first column of u^{-1} is z, so transpose(u^{-1}) has first row z.
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    col = [int(x) for x in z]
    while True:
        nz = [i for i in range(d) if col[i] != 0]
        if len(nz) == 1:
            break
        nz.sort(key=lambda i: abs(col[i]))
        p, o = nz[0], nz[1]
        q = col[o] // col[p]
        col[o] -= q * col[p]
        u[o] = [x - q * y for x, y in zip(u[o], u[p])]
    p = next(i for i in range(d) if col[i] != 0)
    if col[p] < 0:
        col[p] = -col[p]
        u[p] = [-x for x in u[p]]
    if col[p] != 1:
        raise LatticeError("coefficient vector is not primitive")
    if p != 0:
        u[0], u[p] = u[p], u[0]
    uinv, den = int_inverse(u)
    if den != 1:
        raise LatticeError("completion is not unimodular")
    return [list(r) for r in zip(*uinv)]


def int_inverse(t: Sequence[Sequence[int]]) -> tuple[list[list[int]], int]:
    """T^{-1} of a nonsingular integer matrix as (integer matrix, denominator)."""
    frac = xl.inverse(xl.to_fraction_mat(t))
    if frac is None:
        raise LatticeError("singular integer matrix")
    den = math.lcm(*(x.denominator for row in frac for x in row))
    return [[int(x * den) for x in row] for row in frac], den


def reduce_basis(basis: Basis, profile: str = "lll") -> Basis:
    """Basis reduction.  profile "lll" uses the Lovasz condition with
    delta = 0.99; profile "exact" additionally makes the first vector a
    shortest lattice vector (rank <= 10)."""
    rows = [list(r) for r in basis.rows]
    if profile == "lll":
        return Basis(_lll(rows, Fraction(99, 100)))
    if profile == "exact":
        return Basis(_hkz(rows))
    raise LatticeError(f"unknown reduction profile {profile!r}")


# ---------------------------------------------------------------------------
# duals, sublattices, cosets

def dual_basis(basis: Basis) -> Basis:
    """Dual basis in span(L): rows b*_i with <b*_i, b_j> = delta_ij."""
    ginv = xl.inverse(basis.gram)
    if ginv is None:
        raise LatticeError("degenerate Gram matrix")
    rows = []
    for i in range(basis.d):
        row = [Fraction(0)] * basis.n
        for j in range(basis.d):
            c = ginv[i][j]
            if c:
                row = [x + c * y for x, y in zip(row, basis.rows[j])]
        rows.append(row)
    return Basis(rows)


def sublattice_transform(lat: Basis, sub: Basis) -> tuple[tuple[int, ...], ...]:
    """Integer matrix T (row-style) with sub = T @ lat; |det T| is the index.

    Raises LatticeError if sub is not a sublattice of lat with equal span.
    """
    if sub.n != lat.n or sub.d != lat.d:
        raise LatticeError("not a sublattice: dimension mismatch")
    t = []
    for row in sub.rows:
        coeffs = lat.coeffs_of(row)
        if coeffs is None:
            raise LatticeError("not a sublattice: vector outside the lattice")
        t.append(coeffs)
    return tuple(t)


def transform_index(t: Sequence[Sequence[int]]) -> int:
    """|det T|: the index of the sublattice T @ lat in lat."""
    return int(abs(xl.det(xl.to_fraction_mat(t))))


class CosetMap:
    """Canonical residue labelling for cosets of sub inside lat.

    Residues are coefficient vectors (w.r.t. lat) reduced into the
    fundamental box of the Hermite normal form of the transform matrix; the
    zero coset gets the all-zero residue.  index = number of cosets.
    """

    def __init__(self, lat: Basis, sub: Basis):
        self.lat = lat
        self.sub = sub
        t = sublattice_transform(lat, sub)
        # coefficient sublattice = integer row span of t = column span of t^T
        self.hnf = xl.hnf_lower(tuple(zip(*t)))
        self.diag = tuple(self.hnf[i][i] for i in range(len(self.hnf)))
        self.index = 1
        for x in self.diag:
            self.index *= int(x)
        self._h = np.array(self.hnf, dtype=np.int64)
        d = len(self.hnf)
        self._is_diag = all(self.hnf[i][j] == 0
                            for i in range(d) for j in range(d) if i != j)
        self._diag_arr = np.array(self.diag, dtype=np.int64)
        # mixed-radix weights for integer ids
        w = []
        acc = 1
        for x in self.diag:
            w.append(acc)
            acc *= int(x)
        self._weights = np.array(w, dtype=np.int64)

    def reduce(self, coeffs: np.ndarray) -> np.ndarray:
        """Canonical residues of coefficient vectors (m, d) -> (m, d)."""
        r = np.asarray(coeffs, dtype=np.int64)
        if r.ndim == 1:
            r = r[None, :]
        if self._is_diag:
            return np.remainder(r, self._diag_arr[None, :])
        r = r.copy()
        d = r.shape[1]
        for j in range(d):
            q = np.floor_divide(r[:, j], self.diag[j])
            nzq = q != 0
            if nzq.any():
                r[nzq] -= q[nzq, None] * self._h[:, j][None, :]
        return r

    def label_ids(self, coeffs: np.ndarray) -> np.ndarray:
        """Integer coset ids in [0, index) for coefficient vectors."""
        c = np.asarray(coeffs, dtype=np.int64)
        if c.ndim == 1:
            c = c[None, :]
        if self._is_diag and all(x == 2 for x in self.diag):
            # mod-2 residues are just the coefficient parities
            out = c[:, 0] & 1
            for j in range(1, c.shape[1]):
                out = out + ((c[:, j] & 1) << j)
            return out
        r = self.reduce(c)
        out = r[:, 0] * int(self._weights[0])
        for j in range(1, r.shape[1]):
            out += r[:, j] * int(self._weights[j])
        return out

    def residue_of_id(self, ident: int) -> tuple[int, ...]:
        out = []
        for x in self.diag:
            out.append(int(ident % x))
            ident //= int(x)
        return tuple(out)

    def label(self, coeffs: Sequence[int]) -> CosetLabel:
        r = self.reduce(np.array([list(coeffs)], dtype=np.int64))[0]
        return CosetLabel(tuple(int(x) for x in r), self.sub.key)


def coset_label(point: LatticePoint, sub: Basis) -> CosetLabel:
    """Canonical coset label of point mod sub.  point must be expressed in a
    basis of the ambient lattice containing sub."""
    cmap = CosetMap(point.basis, sub)
    return cmap.label(point.coeffs)


# ---------------------------------------------------------------------------
# towers and random superlattices

@dataclass(frozen=True)
class Tower:
    levels: tuple[Basis, ...]  # (L_0, ..., L_ell): L_0 densest, L_ell = L
    a: int
    ell: int

    def validate(self):
        n = self.levels[0].n
        for i in range(1, len(self.levels)):
            idx = transform_index(sublattice_transform(self.levels[i - 1], self.levels[i]))
            if idx != 2 ** self.a:
                raise LatticeError(f"tower index at level {i} is {idx}, wanted 2^{self.a}")
            # 2 L_{i-1} subseteq L_i
            sublattice_transform(self.levels[i], self.levels[i - 1].scale(2))
        for i in range(2, len(self.levels)):
            # L_i / 2 subseteq L_{i-2}
            sublattice_transform(self.levels[i - 2], self.levels[i].scale(Fraction(1, 2)))
        if not (n / 2 <= self.a <= n):
            raise LatticeError("tower exponent out of range")


# A lattice L' with L subseteq L' subseteq L/2 is L + (1/2) W B for the F_2
# subspace W of coefficient vectors mod 2 that it adds to L = Z^n B, and
# [L' : L] = 2^dim W.  The reduced echelon rows w_k of W with pivots p_k give
# the adapted bases below: b_{p_k} = w_k B - (non-pivot rows), so swapping
# each b_{p_k} for w_k B keeps a basis of L.

def _adapted_rows(lat: Basis, echelon, pivots, c=1) -> list[xl.Vec]:
    """Rows c * (w_k B) for the echelon rows w_k, then b_j for the non-pivot
    j: a basis of L for c = 1, and of L + (1/2) W B for c = 1/2."""
    head = [xl.vec_scale(lat.ambient(w), c) for w in echelon]
    return head + [lat.rows[j] for j in range(lat.n) if j not in pivots]


def make_tower(lat: Basis, lprev: Basis, a: int, ell: int) -> Tower:
    """Tower (L_0, ..., L_ell) with L_ell = lat and L_{ell-1} = lprev, built
    by cyclically halving a coordinates of a basis of lat adapted to lprev.

    lprev = L + (1/2) W B for an a-dimensional F_2 subspace W, read off the
    coefficients of 2 lprev in lat mod 2; the adapted basis puts the echelon
    rows w_k B of W first, so halving the first a rows gives lprev."""
    n = lat.n
    if lat.d != n or lprev.d != n:
        raise LatticeError("towers require full-rank lattices")
    if not (n / 2 <= a <= n):
        raise LatticeError(f"need n/2 <= a <= n, got a={a}, n={n}")
    if ell < 1:
        raise LatticeError("ell must be >= 1")
    # lat subseteq lprev subseteq lat/2, and [lprev : lat] = 2^dim W
    sublattice_transform(lprev, lat)
    w, pivots = xl.f2_echelon(sublattice_transform(lat, lprev.scale(2)))
    if len(w) != a:
        raise LatticeError(f"index of L in Lprev is {2 ** len(w)}, wanted 2^{a}")
    base_rows = _adapted_rows(lat, w, pivots)
    # exponent bookkeeping: level ell has exponents 0; stepping down halves a
    # coordinates cyclically starting at offset 0
    exps = [[0] * n]
    offset = 0
    for _ in range(ell):
        prev = exps[-1][:]
        for k in range(a):
            prev[(offset + k) % n] += 1
        exps.append(prev)
        offset = (offset + a) % n
    # exps[s] holds the halving exponents s steps below lat, so level i of the
    # tower (L_0 densest ... L_ell = lat) uses exps[ell - i]
    levels = []
    for i in range(ell + 1):
        e = exps[ell - i]
        rows = [xl.vec_scale(base_rows[j], Fraction(1, 2 ** e[j])) for j in range(n)]
        levels.append(Basis(rows))
    tower = Tower(tuple(levels), a, ell)
    tower.validate()
    return tower


def random_superlattice(lat: Basis, a: int, rng: np.random.Generator) -> Basis:
    """Uniformly random superlattice L' with L subset L' subseteq L/2 of
    index 2^a: L + (1/2) W B for a uniform a-dimensional subspace W of F_2^n,
    the row space of a uniform full-rank a x n binary matrix.  The basis is
    the canonical one of W's reduced echelon form."""
    n = lat.n
    if lat.d != n:
        raise LatticeError("full-rank lattice required")
    if not (n / 2 <= a < n):
        raise LatticeError(f"need n/2 <= a < n, got a={a}, n={n}")
    while True:
        w, pivots = xl.f2_echelon(rng.integers(0, 2, size=(a, n), dtype=np.int64).tolist())
        if len(w) == a:
            break
    sup = Basis(_adapted_rows(lat, w, pivots, Fraction(1, 2)))
    # sanity: index and sandwich
    if transform_index(sublattice_transform(sup, lat)) != 2 ** a:
        raise LatticeError("random superlattice has wrong index")
    sublattice_transform(lat.scale(Fraction(1, 2)), sup)
    return sup
