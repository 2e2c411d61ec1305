import math

import numpy as np
import pytest

from latgauss import (Basis, PreconditionError, exact_dgs_sample,
                      klein_gpv_batch, rho_sum, sample_z, start_gauss,
                      smoothing_param, enumerate_ball, gram_schmidt,
                      reduce_basis)
from latgauss.profiles import get_profile
from latgauss.samplers import sample_z_batch
from latgauss.stats import chi_squared_counts

from conftest import make_rng, random_basis


# -- sample_z -----------------------------------------------------------------

def test_sample_z_point_mass():
    rng = make_rng(0)
    assert all(sample_z(0.0, 0.01, rng) == 0 for _ in range(200))


def test_sample_z_reflection_symmetry():
    rng = make_rng(1)
    n = 10 ** 5
    draws = np.array([sample_z(0.5, 1.0, rng) for _ in range(n)])
    p0 = (draws == 0).mean()
    p1 = (draws == 1).mean()
    sigma = math.sqrt(p1 * (1 - p1) / n)
    assert abs(p0 - p1) <= 3 * math.sqrt(2) * sigma


def test_sample_z_matches_oracle_mass(z1):
    rng = make_rng(2)
    n = 10 ** 5
    draws = np.array([sample_z(0.0, 2.0, rng) for _ in range(n)])
    expect = 1.0 / rho_sum(z1, None, 2.0).value
    p0 = (draws == 0).mean()
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert abs(p0 - expect) <= 3 * sigma


# -- sample_z_batch ---------------------------------------------------------------

def _sample_z_batch_grid(centers, s, rng, chunk_cells=1 << 24):
    """Reference: the one-shot (rows, width) grid kernel that sample_z_batch
    replaced.  Its output does not depend on chunk_cells either."""
    centers = np.asarray(centers, dtype=np.float64)
    m = centers.shape[0]
    half = int(math.ceil(12.0 * s)) + 1
    width = 2 * half + 1
    out = np.empty(m, dtype=np.int64)
    rows_per_chunk = max(1, chunk_cells // width)
    offs = np.arange(-half, half + 1)
    for start in range(0, m, rows_per_chunk):
        c = centers[start:start + rows_per_chunk]
        base = np.floor(c + 0.5).astype(np.int64)
        grid = base[:, None] + offs[None, :]
        dev = grid - c[:, None]
        w = np.exp(-math.pi * dev * dev / (s * s))
        cdf = np.cumsum(w, axis=1)
        u = rng.random(len(c)) * cdf[:, -1]
        idx = (cdf < u[:, None]).sum(axis=1)
        out[start:start + rows_per_chunk] = grid[np.arange(len(c)), idx]
    return out


def _centers(kind, m, rng):
    if kind == "half":
        return rng.integers(-50, 51, size=m) + 0.5
    if kind == "far":
        return rng.choice([-1e6, 1e6], size=m) + rng.normal(size=m) * 4
    if kind == "negative":
        return -np.abs(rng.normal(size=m)) * 30 - 0.25
    return rng.normal(size=m) * 3


@pytest.mark.parametrize("s", [0.01, 0.3, 1.0, 7.9])
@pytest.mark.parametrize("kind", ["normal", "half", "far", "negative"])
def test_sample_z_batch_matches_grid_reference(s, kind):
    width = 2 * (int(math.ceil(12.0 * s)) + 1) + 1
    block = (1 << 16) // width
    for m in (0, 1, block - 1, block + 1, 10 ** 5):
        centers = _centers(kind, m, make_rng(m))
        rng_new, rng_ref = make_rng(13), make_rng(13)
        got = sample_z_batch(centers, s, rng_new)
        # chunked only to bound the reference's memory
        want = _sample_z_batch_grid(centers, s, rng_ref, chunk_cells=1 << 20)
        assert got.dtype == want.dtype and np.array_equal(got, want), (s, kind, m)
        assert rng_new.random() == rng_ref.random(), (s, kind, m)


# -- klein/gpv ------------------------------------------------------------------

def test_klein_rank1_matches_exact():
    rng = make_rng(3)
    lat = Basis([[5]])
    kb = klein_gpv_batch(lat, 50.0, 50_000, rng)
    eb = exact_dgs_sample(lat, 50.0, 50_000, rng)
    lim = 25
    ca = np.bincount(np.clip(kb.coeffs[:, 0], -lim, lim) + lim, minlength=2 * lim + 1)
    cb = np.bincount(np.clip(eb.coeffs[:, 0], -lim, lim) + lim, minlength=2 * lim + 1)
    r = chi_squared_counts(ca, cb)
    assert r.p_value > 0.01


def test_klein_z3_matches_exact(z3):
    rng = make_rng(4)
    n = 10 ** 5
    kb = klein_gpv_batch(z3, 20.0, n, rng)
    eb = exact_dgs_sample(z3, 20.0, n, rng)
    # bucket by norm shells
    ka = np.round(kb.norms_sq_float()).astype(np.int64)
    ea = np.round(eb.norms_sq_float()).astype(np.int64)
    lim = int(ka.max() + 1)
    r = chi_squared_counts(np.bincount(ka, minlength=lim),
                           np.bincount(ea[ea < lim], minlength=lim))
    assert r.p_value > 0.01


def test_klein_basis_independence(z2):
    rng = make_rng(5)
    n = 10 ** 5
    skew = Basis([[1, 0], [1, 1]])
    k1 = klein_gpv_batch(z2, 30.0, n, rng)
    k2 = klein_gpv_batch(skew, 30.0, n, rng)
    amb2 = k2.coeffs @ np.array([[1, 0], [1, 1]])
    lim = 8
    w = 2 * lim + 1

    def counts(z):
        zc = np.clip(z, -lim, lim) + lim
        flat = np.zeros(w * w, dtype=np.int64)
        np.add.at(flat, zc[:, 0] * w + zc[:, 1], 1)
        return flat

    r = chi_squared_counts(counts(k1.coeffs), counts(amb2))
    assert r.p_value > 0.01


def test_klein_refuses_below_threshold(z2):
    rng = make_rng(6)
    with pytest.raises(PreconditionError):
        klein_gpv_batch(z2, 0.5, 10, rng, "desk")


def test_klein_skewed_exactness_near_threshold():
    # a mildly skewed rank-2 basis sampled just above the profile threshold
    rng = make_rng(7)
    lat = Basis([[2, 0], [1, 2]])
    prof = get_profile("desk")
    thr = prof.gpv_threshold(gram_schmidt(lat).max_gs_norm, 2)
    s = 1.1 * thr
    n = 10 ** 5
    kb = klein_gpv_batch(lat, s, n, rng, prof)
    eb = exact_dgs_sample(lat, s, n, rng)
    lim = 5
    w = 2 * lim + 1

    def counts(z):
        zc = np.clip(z, -lim, lim) + lim
        flat = np.zeros(w * w, dtype=np.int64)
        np.add.at(flat, zc[:, 0] * w + zc[:, 1], 1)
        return flat

    r = chi_squared_counts(counts(kb.coeffs), counts(eb.coeffs))
    assert r.p_value > 0.01


# -- start_gauss -------------------------------------------------------------------

def test_start_gauss_full_lattice(z4):
    rng = make_rng(8)
    sub, batch = start_gauss(z4, 2, 100, 100.0, rng)
    assert sub is not None and sub.d == 4
    assert len(batch) == 100
    assert not batch.degenerate


def test_start_gauss_prefix_sublattice():
    rng = make_rng(9)
    lat = Basis([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 10 ** 6]])
    sub, batch = start_gauss(lat, 2, 50, 10.0, rng)
    assert sub is not None and sub.d == 3
    # every sampled point stays in the rank-3 prefix
    assert (batch.coeffs[:, :] != 0).sum(axis=0)[2] >= 0
    assert batch.coeffs.shape[1] == 3


def test_start_gauss_degenerate_flag(z2):
    rng = make_rng(10)
    sub, batch = start_gauss(z2, 2, 7, 1e-3, rng)
    assert sub is None
    assert batch.degenerate
    assert (batch.coeffs == 0).all()
    assert len(batch) == 7


def test_start_gauss_smoothing_covers_lattice(z2):
    # when s clears the smoothing-scaled threshold the sublattice is everything
    rng = make_rng(11)
    eta = smoothing_param(z2, 0.99).eta
    r = 2
    n = 2
    s = (3 * r) ** (n / r) * math.sqrt(n * math.log(2)) * eta * 4
    sub, _ = start_gauss(z2, r, 10, s, rng)
    assert sub is not None and sub.d == 2


def test_start_gauss_short_vector_guarantee():
    rng = make_rng(12)
    prof = get_profile("desk")
    r = 2
    hits = 0
    for _ in range(20):
        lat = random_basis(rng, 4, span=4)
        gs = gram_schmidt(reduce_basis(lat, "lll"))
        s = gs.max_gs_norm * 1.2
        sub, _ = start_gauss(lat, r, 0, s, rng, prof)
        if sub is None:
            continue
        hits += 1
        radius = r ** (-4 / r) * s
        for p in enumerate_ball(lat, None, radius):
            if not p.is_zero():
                assert sub.coeffs_of(p.ambient) is not None
    assert hits > 0
