import math
from fractions import Fraction

import numpy as np
import pytest

from latgauss import (Basis, CONSTANTS, SampleBatch, approx_cvp,
                      covariance_statistic, cvp_exact, decide_gapsvp,
                      exact_provider, lambda1, make_smooth_provider,
                      optimal_svp_param, solve_svp)
from latgauss import exactlin as xl
from latgauss.reductions import ReductionConstants

from conftest import make_rng, random_basis


# -- constants ------------------------------------------------------------------

def test_beta_to_twelve_digits():
    assert abs(CONSTANTS.beta - 1.320422841015000) < 1e-12


def test_svp_factor_example():
    # sqrt(2 pi e / beta^2) at n = 1, independently recomputed
    expect = math.sqrt(2 * math.pi * math.e / 2 ** 0.802)
    assert abs(optimal_svp_param(1.0, 1) - expect) < 1e-12
    assert abs(expect - 3.130) < 1e-3


def test_svp_param_homogeneity():
    # scales as lambda1 / sqrt(n)
    a = optimal_svp_param(2.0, 4)
    b = optimal_svp_param(1.0, 1)
    assert abs(a - b) < 1e-12


def test_cvp_alpha_natural_log():
    assert abs(CONSTANTS.cvp_alpha - math.sqrt(2 * math.pi / math.log(2))) < 1e-15
    # e^{-pi/alpha^2} = 1/sqrt(2)
    assert abs(math.exp(-math.pi / CONSTANTS.cvp_alpha ** 2) - 2 ** -0.5) < 1e-12


# -- solve_svp -------------------------------------------------------------------

def test_svp_z4(z4):
    res = solve_svp(z4, exact_provider, 1000, make_rng(0))
    assert not res.failed
    assert res.norm == 1.0


def test_svp_shear():
    res = solve_svp(Basis([[1, 0], [10, 1]]), exact_provider, 1000, make_rng(1))
    assert res.norm == 1.0
    assert tuple(abs(x) for x in res.point.ambient) in ((1, 0), (0, 1))


def test_svp_rank1():
    res = solve_svp(Basis([[7]]), exact_provider, 200, make_rng(2))
    assert res.norm == 7.0


def test_svp_shortest_vector_mass_floor(z4):
    # at the tuned width, the mass of the shortest shell clears 1.38^-n
    s = optimal_svp_param(1.0, 4)
    from latgauss import rho_sum
    rho = rho_sum(z4, None, s).value
    shell = 8 * math.exp(-math.pi / s ** 2)  # 8 unit vectors in Z^4
    assert shell / rho >= 1.38 ** -4


def test_svp_random_instances():
    rng = make_rng(3)
    for _ in range(8):
        lat = random_basis(rng, 4, span=9)
        l1, _ = lambda1(lat)
        res = solve_svp(lat, exact_provider, 1000, rng)
        assert abs(res.norm - l1) < 1e-9


# -- covariance ---------------------------------------------------------------------

def test_covariance_zero_batch(z2):
    batch = SampleBatch(np.zeros((50, 2), dtype=np.int64), z2, 1.0, "exact")
    st = covariance_statistic(batch)
    assert abs(st.statistic - 1 / (2 * math.pi)) < 1e-12


def test_covariance_single_spike(z2):
    batch = SampleBatch(np.array([[3, 0]]), z2, 3.0, "exact")
    st = covariance_statistic(batch)
    assert abs(st.statistic - (1 - 1 / (2 * math.pi))) < 1e-10


def test_covariance_smooth_is_small(z2):
    rng = make_rng(4)
    from latgauss import exact_dgs_sample
    batch = exact_dgs_sample(z2, 10.0, 10 ** 5, rng)
    st = covariance_statistic(batch)
    assert st.statistic < 0.01


# -- gapsvp ------------------------------------------------------------------------

def test_gapsvp_yes_side(z4):
    yes = sum(decide_gapsvp(z4, 2.0, 0.05, exact_provider, 10 ** 4, make_rng(100 + i))
              for i in range(20))
    assert yes >= 19


def test_gapsvp_underdelivery_is_yes(z4):
    def starving_provider(basis, s, count, rng):
        return SampleBatch(np.zeros((0, basis.d), dtype=np.int64), basis, s, "smooth")
    assert decide_gapsvp(z4, 0.2, 0.05, starving_provider, 100, make_rng(6))


def test_gapsvp_width_formula():
    # s = sqrt(ln(1/eps)/pi) / d
    c = ReductionConstants()
    assert abs(c.gapsvp_width(0.05, 0.2) - math.sqrt(math.log(20) / math.pi) / 0.2) < 1e-12
    assert abs(c.gapsvp_threshold(0.05, 4) - 0.05 * math.log(20) / 40) < 1e-15


def test_gapsvp_no_side_at_conservative_m(z4):
    # the no side separates once the sample count follows the conservative
    # n^5 / eps^2 rule (the desk-scale count is analyzed in docs/CONSTANTS.md)
    m = int(4 ** 5 / 0.05 ** 2)
    no = sum(not decide_gapsvp(z4, 0.2, 0.05, exact_provider, m, make_rng(200 + i))
             for i in range(5))
    assert no == 5


# -- approx_cvp -------------------------------------------------------------------

def test_cvp_target_in_lattice(z2):
    res = approx_cvp(z2, [2, 3], exact_provider, 500, make_rng(7))
    assert res.distance == 0.0
    assert res.point.ambient == (Fraction(2), Fraction(3))


def test_cvp_z2_small_target(z2):
    hits = 0
    for i in range(20):
        res = approx_cvp(z2, [Fraction(2, 5), Fraction(1, 10)], exact_provider,
                         1000, make_rng(300 + i))
        assert not res.failed
        assert res.distance <= 1.97 * math.sqrt(0.17) + 1e-9
        hits += res.point.coeffs == (0, 0)
    assert hits >= 18  # >= 90% of seeds find the true closest point


def test_cvp_rank1_symmetry():
    res = approx_cvp(Basis([[1]]), [Fraction(1, 2)], exact_provider, 500, make_rng(8))
    assert res.point.coeffs in ((0,), (1,))
    assert abs(res.distance - 0.5) < 1e-12


def test_cvp_random_rank3_bound():
    rng = make_rng(9)
    for _ in range(10):
        lat = random_basis(rng, 3, span=9)
        t = [Fraction(int(a), 10) for a in rng.integers(-60, 61, size=3)]
        exact = cvp_exact(lat, t)
        dist = math.sqrt(float(xl.norm_sq(xl.vec_sub(exact.ambient, tuple(t)))))
        res = approx_cvp(lat, t, exact_provider, 1000, rng)
        assert not res.failed
        assert res.distance <= 1.97 * dist + 1e-9


def test_cvp_honest_provider_integration(z2):
    provider = make_smooth_provider(kappa=20.0, profile="desk")
    res = approx_cvp(z2, [Fraction(2, 5), Fraction(1, 10)], provider, 12, make_rng(10))
    # the honest provider under-delivers at narrow widths, so some grid
    # points contribute nothing; the call still returns a decision
    assert res.failed or res.distance <= 1.97 * math.sqrt(0.17) + 1e-9
