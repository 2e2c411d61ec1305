"""Closed-form checks of the benchmark's reference computations.

Run with: python3 -m pytest latbench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_lambda1_of_zn_is_one(n):
    assert ref.lambda1_sq(np.eye(n, dtype=np.int64), 4) == 1


def test_lambda1_of_skewed_basis():
    # rows span Z^2 (determinant 1), so the shortest vector still has length 1
    assert ref.lambda1_sq([[7, 3], [2, 1]], 58) == 1
    # the shortest vector of this lattice, (2, 0), has squared length 4
    assert ref.lambda1_sq([[2, 0], [1, 2]], 3) is None
    # a nearly singular basis of Z^3: the unreduced box would hold ~10^12 points
    skewed = [[1, 0, 0], [1000, 1, 0], [0, 1000, 1]]
    assert ref.lambda1_sq(skewed, 1) == 1
    assert abs(round(np.linalg.det(ref.lll_reduce(skewed)))) == 1


@pytest.mark.parametrize("s", [0.3, 0.8, 1.0, 3.0])
def test_theta_identity(s):
    half = int(math.ceil(12 * s)) + 1
    k = np.arange(-half, half + 1)
    direct = math.fsum(np.exp(-math.pi * (k[:, None] ** 2 + k[None, :] ** 2) / s ** 2).ravel())
    assert direct == pytest.approx(ref.theta_z(s) ** 2, rel=1e-13)
    probs = ref.z2_shell_probs(s)
    assert math.fsum(probs.values()) == pytest.approx(1.0, rel=1e-12)
    assert probs[0] == pytest.approx(1 / ref.theta_z(s) ** 2, rel=1e-13)


def test_eta_z2():
    eta = ref.eta_z2(0.5)
    assert ref.theta_z(1 / eta) ** 2 - 1 == pytest.approx(0.5, rel=1e-9)
    assert 1.1 < math.sqrt(2) * eta < 1.25


def test_hand_worked_rank2_cvp():
    # lattice (2z1 + z2, 2z2), target (1.4, 1.1): the closest point is (1, 2)
    # at squared distance 0.4^2 + 0.9^2 = 0.97
    d2 = ref.closest_dist_sq([[2, 0], [1, 2]], [14, 11], 10, bound=2.0)
    assert d2 == pytest.approx(0.97, abs=1e-15)
    # a lattice point as target has distance 0
    assert ref.closest_dist_sq([[2, 0], [1, 2]], [30, 20], 10, bound=1.0) == 0


def test_ball_walk_matches_box():
    b = np.array([[3, 1, 0], [1, -2, 1], [0, 1, 4]])
    zs = ref.ball_coeffs(b, 40.0)
    x = zs @ b
    walk = sorted(map(tuple, zs[np.einsum("ij,ij->i", x, x) <= 40].tolist()))
    box = []
    for z in ref._box_chunks(ref._box_ranges(b, np.zeros(3), math.sqrt(40))):
        y = z @ b
        box += map(tuple, z[np.einsum("ij,ij->i", y, y) <= 40].tolist())
    assert walk == sorted(box)


def test_poisson_mass_matches_direct_sum():
    b = np.array([[3, 1, 0], [1, -2, 1], [0, 1, 4]])
    s = 6.0
    zs = ref.ball_coeffs(b, (9 * s) ** 2)
    x = zs @ b
    direct = math.fsum(np.exp(-math.pi * np.einsum("ij,ij->i", x, x) / s ** 2).tolist())
    assert ref.gaussian_mass(b, s) == pytest.approx(direct, rel=1e-12)
    assert ref.gaussian_mass(np.eye(2, dtype=np.int64), 1.3) == pytest.approx(
        ref.theta_z(1.3) ** 2, rel=1e-12)


def test_shell_probs_sum_to_one():
    b = np.array([[3, 1, 0], [1, -2, 1], [0, 1, 4]])
    edges, probs = ref.lattice_shell_probs(b, 6.0)
    assert len(probs) == len(edges) + 1
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_chi2_detects_wrong_width():
    rng = np.random.default_rng(0)
    pts = np.round(rng.normal(0, 3.0 / math.sqrt(2 * math.pi), size=(20000, 2)))
    nsq = (pts ** 2).sum(axis=1).astype(int)
    assert ref.z2_shell_pvalue(nsq, 4.0) < ref.CHI2_ALPHA
