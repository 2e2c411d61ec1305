import math
from fractions import Fraction

import numpy as np
import pytest

from latgauss import (Basis, BasisParseError, CosetMap, LatticeError,
                      LatticePoint, coset_label, dual_basis, format_basis,
                      gram_schmidt, make_tower, parse_basis,
                      random_superlattice, reduce_basis, sublattice_transform)
from latgauss import exactlin as xl
from latgauss.stats import chi_squared_gof

from conftest import make_rng, random_basis


# -- parsing -----------------------------------------------------------------

def test_parse_identity():
    b = parse_basis("2 2\n1 0\n0 1")
    assert b.rows == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_parse_skew():
    b = parse_basis("2 2\n1 0\n1 1")
    assert b.rows[1] == (Fraction(1), Fraction(1))


def test_parse_dependent_rows():
    with pytest.raises(BasisParseError) as exc:
        parse_basis("2 2\n1 0\n2 0")
    assert "line" in str(exc.value)


def test_parse_malformed_number_reports_line():
    with pytest.raises(BasisParseError) as exc:
        parse_basis("2 2\n1 0\n1 x")
    assert "line 3" in str(exc.value)


def test_parse_rationals_roundtrip():
    b = parse_basis("2 2\n1/2 0\n1/3 2/7")
    assert parse_basis(format_basis(b)) == b


# -- gram schmidt ------------------------------------------------------------

def test_gso_identity(z3):
    gs = gram_schmidt(z3)
    assert gs.gs_vectors == z3.rows
    assert gs.gs_norms == (1.0, 1.0, 1.0)


def test_gso_projection_removes_component():
    gs = gram_schmidt(Basis([[1, 0], [1, 1]]))
    assert gs.gs_vectors == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_gso_exact_orthogonality():
    b = Basis([[2, 0], [1, 2]])
    gs = gram_schmidt(b)
    assert gs.gs_vectors[0] == (Fraction(2), Fraction(0))
    assert gs.gs_vectors[1] == (Fraction(0), Fraction(2))
    assert xl.dot(gs.gs_vectors[0], gs.gs_vectors[1]) == 0
    assert gs.gs_norms == (2.0, 2.0)


# -- reduction ---------------------------------------------------------------

def test_reduce_identity_fixed(z2):
    assert reduce_basis(z2, "lll").rows == z2.rows


def test_reduce_contains_short_vector():
    red = reduce_basis(Basis([[1, 0], [10, 1]]), "lll")
    norms = sorted(float(xl.norm_sq(r)) for r in red.rows)
    assert norms[0] == 1.0


def test_reduce_exact_profile_shortest_first():
    rng = make_rng(11)
    for _ in range(6):
        b = random_basis(rng, 5, span=5)
        red = reduce_basis(b, "exact")
        from latgauss import lambda1
        l1, _ = lambda1(b)
        assert math.isclose(math.sqrt(float(xl.norm_sq(red.rows[0]))), l1)


def test_reduce_unimodular():
    rng = make_rng(5)
    for _ in range(10):
        b = random_basis(rng, 3, span=7)
        red = reduce_basis(b, "lll")
        t = sublattice_transform(b, red)
        det = xl.det(tuple(tuple(Fraction(x) for x in r) for r in t))
        assert abs(det) == 1


# -- duals -------------------------------------------------------------------

def test_dual_identity(z3):
    assert dual_basis(z3).rows == z3.rows


def test_dual_scaling():
    d = dual_basis(Basis([[2]]))
    assert d.rows == ((Fraction(1, 2),),)


def test_dual_gram_is_inverse_gram():
    b = Basis([[2, 0], [1, 2]])
    d = dual_basis(b)
    assert d.gram == xl.inverse(b.gram)


def test_dual_involution():
    rng = make_rng(7)
    for _ in range(8):
        b = random_basis(rng, 3, span=5)
        dd = dual_basis(dual_basis(b))
        t = sublattice_transform(b, dd)
        det = xl.det(tuple(tuple(Fraction(x) for x in r) for r in t))
        assert abs(det) == 1


def test_dual_rank_deficient():
    b = Basis([[2, 0, 0], [0, 3, 0]])
    d = dual_basis(b)
    for i in range(2):
        for j in range(2):
            assert xl.dot(d.rows[i], b.rows[j]) == (1 if i == j else 0)


# -- sublattice transform / cosets --------------------------------------------

def test_transform_doubling(z2):
    t = sublattice_transform(z2, z2.scale(2))
    assert t == ((2, 0), (0, 2))


def test_transform_checkerboard_index(z2):
    cb = Basis([[1, 1], [1, -1]])
    t = sublattice_transform(z2, cb)
    det = xl.det(tuple(tuple(Fraction(x) for x in r) for r in t))
    assert abs(det) == 2
    # index by residue enumeration
    cmap = CosetMap(z2, cb)
    pts = np.array([[i, j] for i in range(4) for j in range(4)])
    assert len(np.unique(cmap.label_ids(pts))) == 2


def test_transform_identity(z2):
    assert sublattice_transform(z2, z2) == ((1, 0), (0, 1))


def test_transform_rejects_non_sublattice(z2):
    with pytest.raises(LatticeError):
        sublattice_transform(z2.scale(2), z2)


def test_coset_label_examples(z2):
    lbl = coset_label(LatticePoint((3, 5), z2), z2.scale(2))
    assert lbl.residue == (1, 1)
    lbl = coset_label(LatticePoint((4, 6), z2), z2.scale(2))
    assert lbl.residue == (0, 0)
    assert lbl.is_zero()


def test_coset_label_checkerboard(z2):
    cb = Basis([[1, 1], [1, -1]])
    l_a = coset_label(LatticePoint((1, 1), z2), cb)
    l_b = coset_label(LatticePoint((0, 0), z2), cb)
    assert l_a == l_b


def test_coset_partition_property(z2):
    rng = make_rng(3)
    cb = Basis([[1, 1], [1, -1]])
    cmap = CosetMap(z2, cb)
    for _ in range(200):
        a = rng.integers(-20, 21, size=2)
        b = rng.integers(-20, 21, size=2)
        same = cmap.label_ids(a[None])[0] == cmap.label_ids(b[None])[0]
        inside = cb.coeffs_of(z2.ambient(tuple(int(x) for x in a - b))) is not None
        assert same == inside


# -- towers ------------------------------------------------------------------

def test_make_tower_halving_schedule(z2):
    lprev = Basis([[Fraction(1, 2), 0], [0, 1]])
    tower = make_tower(z2, lprev, 1, 2)
    # bottom level is the quarter-scaled lattice from the cyclic schedule
    t = sublattice_transform(tower.levels[0],
                             Basis([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]))
    det = xl.det(tuple(tuple(Fraction(x) for x in r) for r in t))
    assert abs(det) == 1
    assert tower.levels[2] == z2


def test_make_tower_single_step(z2):
    lprev = Basis([[Fraction(1, 2), 0], [0, 1]])
    tower = make_tower(z2, lprev, 1, 1)
    assert tower.levels[1] == z2
    t = sublattice_transform(tower.levels[0], lprev)
    det = xl.det(tuple(tuple(Fraction(x) for x in r) for r in t))
    assert abs(det) == 1


def test_make_tower_rejects_bad_a(z2):
    lprev = Basis([[Fraction(1, 2), 0], [0, 1]])
    with pytest.raises(LatticeError):
        make_tower(z2, lprev, 3, 1)  # a > n


def test_make_tower_rejects_lprev_not_containing_lat(z2):
    # 2 lprev lies in Z^2 with F_2-rank 1, but lprev misses (0, 1)
    lprev = Basis([[Fraction(1, 2), 0], [0, 2]])
    with pytest.raises(LatticeError):
        make_tower(z2, lprev, 1, 1)


def test_tower_top_levels_span_lat_and_lprev():
    # skewed bases: a random basis times a random unimodular upper-triangular
    rng = make_rng(31)
    ell = 3
    for _ in range(8):
        n = int(rng.integers(2, 6))
        a = int(rng.integers((n + 1) // 2, n))
        u = np.triu(rng.integers(-5, 6, size=(n, n)), 1) + np.eye(n, dtype=np.int64)
        rows = u @ np.array(random_basis(rng, n, span=9).rows, dtype=object)
        lat = Basis(rows.tolist())
        lprev = random_superlattice(lat, a, rng)
        tower = make_tower(lat, lprev, a, ell)
        for got, want in ((tower.levels[ell - 1], lprev), (tower.levels[ell], lat)):
            t = sublattice_transform(got, want)
            assert abs(xl.det(xl.to_fraction_mat(t))) == 1


def test_tower_invariants_random():
    rng = make_rng(17)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        a = int(rng.integers((n + 1) // 2, n))
        lat = random_basis(rng, n, span=3)
        lprev = random_superlattice(lat, a, rng)
        tower = make_tower(lat, lprev, a, 3)
        tower.validate()


# -- random superlattices ------------------------------------------------------

def test_superlattice_structure(z2):
    rng = make_rng(23)
    for _ in range(40):
        sup = random_superlattice(z2, 1, rng)
        t = sublattice_transform(sup, z2)
        det = xl.det(tuple(tuple(Fraction(x) for x in r) for r in t))
        assert abs(det) == 2
        # contained in L/2: every basis vector has half-integer coordinates
        sublattice_transform(z2.scale(Fraction(1, 2)), sup)


def test_superlattice_equidistribution(z2):
    rng = make_rng(29)
    counts = {}
    trials = 3000
    for _ in range(trials):
        sup = random_superlattice(z2, 1, rng)
        counts[sup.rows] = counts.get(sup.rows, 0) + 1
    assert len(counts) == 3
    obs = np.array(list(counts.values()))
    r = chi_squared_gof(obs, np.full(3, 1 / 3))
    assert r.p_value > 0.01


def test_superlattice_equidistribution_rank3(z3):
    # the 2-dimensional subspaces of F_2^3 are the 7 superlattices of index 4
    rng = make_rng(37)
    counts = {}
    trials = 2100
    for _ in range(trials):
        sup = random_superlattice(z3, 2, rng)
        counts[sup.rows] = counts.get(sup.rows, 0) + 1
    assert len(counts) == 7
    obs = np.array(list(counts.values()))
    r = chi_squared_gof(obs, np.full(7, 1 / 7))
    assert r.p_value > 0.01


def test_superlattice_range_check(z2):
    rng = make_rng(1)
    with pytest.raises(LatticeError):
        random_superlattice(z2, 2, rng)  # a must be < n


from hypothesis import given, settings, strategies as st


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-40, 40), min_size=2, max_size=2),
       st.integers(0, 2))
def test_coset_reduce_is_canonical(z, which):
    z2 = Basis([[1, 0], [0, 1]])
    sub = [Basis([[2, 0], [0, 2]]), Basis([[1, 1], [1, -1]]),
           Basis([[2, 1], [0, 1]])][which]
    cmap = CosetMap(z2, sub)
    arr = np.array([z])
    r1 = cmap.reduce(arr)
    r2 = cmap.reduce(r1)
    assert (r1 == r2).all()  # idempotent
    # shifting by any sublattice vector leaves the label unchanged
    t = np.array(sublattice_transform(z2, sub))
    shifted = arr + t[0][None, :] - 3 * t[1][None, :]
    assert cmap.label_ids(arr)[0] == cmap.label_ids(shifted)[0]
    # residues stay inside the fundamental box
    assert (r1[0] >= 0).all()
    assert all(r1[0][j] < cmap.diag[j] for j in range(2))
