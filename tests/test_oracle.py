import math
from fractions import Fraction

import numpy as np
import pytest

from latgauss import (Basis, OracleLimitError, coset_weights, cvp_exact, dual_basis,
                      enumerate_ball, exact_dgs_sample, gram_schmidt, lambda1,
                      reduce_basis, rho_sum, smoothing_param)
from conftest import make_rng, random_basis

# independent reference values computed by direct summation
RHO_Z_1 = math.fsum(math.exp(-math.pi * k * k) for k in range(-12, 13))


# -- enumerate_ball ------------------------------------------------------------

def test_ball_unit_radius(z2):
    pts = enumerate_ball(z2, None, 1.0)
    assert [p.coeffs for p in pts] == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]


def test_ball_radius_15(z2):
    assert len(enumerate_ball(z2, None, 1.5)) == 9


def test_ball_radius_zero(z2):
    assert [p.coeffs for p in enumerate_ball(z2, None, 0.0)] == [(0, 0)]


def test_ball_boundary_exact(z2):
    # closed-ball semantics: radius exactly 2 includes (2, 0)
    pts = enumerate_ball(z2, None, 2.0)
    assert (2, 0) in [p.coeffs for p in pts]
    assert len(pts) == 13


def test_ball_center_offset(z2):
    pts = enumerate_ball(z2, (Fraction(1, 2), Fraction(0)), Fraction(1, 2))
    assert [p.coeffs for p in pts] == [(0, 0), (1, 0)]


def test_ball_rank_guard():
    big = Basis([[int(i == j) for j in range(13)] for i in range(13)])
    with pytest.raises(OracleLimitError):
        enumerate_ball(big, None, 1.0)


# -- rho_sum -------------------------------------------------------------------

def test_rho_z_at_one(z1):
    rs = rho_sum(z1, None, 1.0, tail_eps=1e-15)
    assert abs(rs.value - 1.086434811213308) < 1e-12
    assert rs.tail_bound < 1e-15
    assert rs.value >= 1.0


def test_rho_rank0_single_point():
    assert rho_sum(None, None, 3.0).value == 1.0
    shifted = rho_sum(None, (Fraction(1),), 1.0)
    assert abs(shifted.value - math.exp(-math.pi)) < 1e-15


def test_rho_product_structure(z1, z2):
    one = rho_sum(z1, None, 1.0).value
    two = rho_sum(z2, None, 1.0).value
    assert abs(two - one * one) < 1e-12


def test_rho_shifted(z1):
    # direct summation over Z + 1/2
    direct = math.fsum(math.exp(-math.pi * (k + 0.5) ** 2) for k in range(-12, 13))
    val = rho_sum(z1, (Fraction(1, 2),), 1.0).value
    assert abs(val - direct) < 1e-12


# -- exact sampling --------------------------------------------------------------

def test_exact_point_mass_small_s(z1):
    rng = make_rng(0)
    batch = exact_dgs_sample(z1, 0.01, 1000, rng)
    assert (batch.coeffs == 0).all()


def test_exact_z_frequencies(z1):
    rng = make_rng(1)
    n = 10 ** 5
    batch = exact_dgs_sample(z1, 1.0, n, rng)
    p0 = float((batch.coeffs[:, 0] == 0).mean())
    expect = 1.0 / RHO_Z_1  # ~0.920444
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert abs(p0 - expect) <= 3 * sigma
    assert abs(expect - 0.920444) < 5e-6


def test_exact_z2_coordinate_independence(z2):
    rng = make_rng(2)
    batch = exact_dgs_sample(z2, 1.0, 10 ** 5, rng)
    lim = 2
    a = np.clip(batch.coeffs[:, 0], -lim, lim) + lim
    b = np.clip(batch.coeffs[:, 1], -lim, lim) + lim
    table = np.zeros((2 * lim + 1, 2 * lim + 1))
    np.add.at(table, (a, b), 1)
    from scipy.stats import chi2_contingency
    keep_r = table.sum(axis=1) >= 5
    keep_c = table.sum(axis=0) >= 5
    res = chi2_contingency(table[np.ix_(keep_r, keep_c)])
    assert res.pvalue > 0.01


# -- lambda1 ---------------------------------------------------------------------

def test_lambda1_z4(z4):
    norm, wit = lambda1(z4)
    assert norm == 1.0
    assert wit.coeffs == (1, 0, 0, 0)


def test_lambda1_skew():
    norm, wit = lambda1(Basis([[2, 0], [1, 2]]))
    assert norm == 2.0
    assert wit.ambient in (((Fraction(2), Fraction(0))), wit.ambient)
    assert float(wit.norm_sq()) == 4.0


def test_lambda1_shear():
    norm, _ = lambda1(Basis([[1, 0], [10, 1]]))
    assert norm == 1.0


# -- cvp_exact --------------------------------------------------------------------

def test_cvp_interior(z2):
    p = cvp_exact(z2, (Fraction(2, 5), Fraction(2, 5)))
    assert p.coeffs == (0, 0)


def test_cvp_tie_break(z2):
    p = cvp_exact(z2, (Fraction(1, 2), Fraction(0)))
    assert p.coeffs == (0, 0)


def test_cvp_skew():
    p = cvp_exact(Basis([[2, 0], [1, 2]]), (Fraction(19, 10), Fraction(1, 10)))
    assert p.ambient == (Fraction(2), Fraction(0))


# -- smoothing_param ---------------------------------------------------------------

def test_smoothing_scaling_law(z2):
    e1 = smoothing_param(z2, 0.5)
    e3 = smoothing_param(z2.scale(3), 0.5)
    assert abs(e3.eta - 3 * e1.eta) < 1e-8 * e3.eta
    lo, hi = e1.bracket
    assert lo <= e1.eta <= hi


def test_smoothing_root_value(z1):
    # eps tuned so that eta = 1 exactly: eps = rho_{1}(Z \ {0})
    eps = RHO_Z_1 - 1.0
    est = smoothing_param(z1, eps)
    assert abs(est.eta - 1.0) < 1e-8


def test_smoothing_monotone():
    rng = make_rng(4)
    for _ in range(3):
        b = random_basis(rng, 3, span=3)
        big = smoothing_param(b, 0.1).eta
        small = smoothing_param(b, 0.5).eta
        assert big >= small


@pytest.mark.parametrize("d", [6, 8])
def test_smoothing_high_rank(d):
    # with entries up to 9 the dual's shortest vectors are about 0.1 long, so
    # a bracket that starts at s = 1 enumerates far too many dual points
    b = random_basis(np.random.default_rng(0), d)
    est = smoothing_param(b, 0.5)
    lo, hi = est.bracket
    assert lo <= est.eta <= hi and hi - lo <= 1e-9 * hi
    dual = reduce_basis(dual_basis(b), "lll")
    assert abs(rho_sum(dual, None, 1 / est.eta).value - 1.5) < 1e-6
    gpv = gram_schmidt(reduce_basis(b, "lll")).max_gs_norm * math.sqrt(
        math.log(2 * d * 3) / math.pi)
    assert est.eta <= gpv


# -- coset_weights -------------------------------------------------------------------

def even_odd_weights(s):
    even = math.fsum(math.exp(-math.pi * (2 * k) ** 2 / s ** 2) for k in range(-20, 21))
    odd = math.fsum(math.exp(-math.pi * (2 * k + 1) ** 2 / s ** 2) for k in range(-20, 21))
    return even / (even + odd), odd / (even + odd)


def test_coset_weights_z_mod_2z(z1):
    s = math.sqrt(2)
    probs, cmap = coset_weights(z1, z1.scale(2), s)
    we, wo = even_odd_weights(s)
    assert abs(probs[0] - we) < 1e-12
    assert abs(probs[1] - wo) < 1e-12
    # theta-function identity pins the even weight at exactly 1/sqrt(2)
    assert abs(probs[0] - 1 / math.sqrt(2)) < 1e-10


def test_coset_weights_smooth_limit(z1):
    probs, _ = coset_weights(z1, z1.scale(2), 100.0)
    assert abs(probs[0] - 0.5) < 1e-3
    assert abs(probs[1] - 0.5) < 1e-3


def test_coset_weights_trivial(z2):
    probs, cmap = coset_weights(z2, z2, 1.0)
    assert cmap.index == 1
    assert probs[0] == 1.0


def test_coset_weights_zero_dominates():
    rng = make_rng(9)
    for _ in range(5):
        b = random_basis(rng, 2, span=2)
        probs, _ = coset_weights(b, b.scale(2), 1.3)
        assert probs[0] == probs.max()


# -- invariants ------------------------------------------------------------------------

def test_square_identity_spot():
    # Sum over cosets of the squared masses equals the squared mass at s/sqrt(2)
    rng = make_rng(12)
    from latgauss import CosetMap
    for _ in range(5):
        d = int(rng.integers(1, 4))
        lat = random_basis(rng, d, span=2)
        two = lat.scale(2)
        cmap = CosetMap(lat, two)
        s = 1.0
        total = 0.0
        for ident in range(cmap.index):
            shift = lat.ambient(cmap.residue_of_id(ident))
            total += rho_sum(two, shift, s, tail_eps=1e-13).value ** 2
        rhs = rho_sum(lat, None, s / math.sqrt(2), tail_eps=1e-13).value ** 2
        assert abs(total - rhs) / rhs < 1e-9


def test_banaszczyk_growth(z2):
    base = rho_sum(z2, None, 1.0).value
    for s in (1.5, 2.0, 4.0):
        assert rho_sum(z2, None, s).value <= s ** 2 * base * (1 + 1e-12)


def test_double_smoothing(z2):
    eta = smoothing_param(z2, 0.5).eta
    eta_k = smoothing_param(z2, 0.5 ** 4).eta
    assert 2 * eta > eta_k
