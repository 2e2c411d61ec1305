import math
from fractions import Fraction

import numpy as np
import pytest

from latgauss import (Basis, CombinerConfig, CosetMap, HonestBatch,
                      PreconditionError, SampleBatch, combine_halve,
                      exact_dgs_sample, general_dgs, general_pipeline,
                      make_tower, random_superlattice, rho_sum, smooth_dgs,
                      smoothing_param, sqrt_combine, sublattice_transform,
                      tower_pipeline, coset_weights)
from latgauss.combiners import _occurrence_positions
from latgauss.stats import chi_squared_gof

from conftest import make_rng, random_basis

RHO_Z_1 = math.fsum(math.exp(-math.pi * k * k) for k in range(-12, 13))


def z_probs(support, s=1.0):
    w = np.exp(-math.pi * np.asarray(support, dtype=float) ** 2 / s ** 2)
    rho = math.fsum(math.exp(-math.pi * k * k / s ** 2) for k in range(-40, 41))
    return w / rho


# -- same-coset pairing -----------------------------------------------------------

def occurrence_positions_reference(labels, picks, per, base_index):
    """Plain-Python listing: the k-th pick of a label takes that label's
    occurrences per*k ... per*k+per-1 in labels, or None when it has fewer."""
    where: dict[int, list[int]] = {}
    for pos, lab in enumerate(labels.tolist()):
        where.setdefault(lab, []).append(pos + base_index)
    seen: dict[int, int] = {}
    out = []
    for lab in picks.tolist():
        k = seen.get(lab, 0)
        seen[lab] = k + 1
        got = where.get(lab, [])[per * k:per * k + per]
        if len(got) < per:
            return None
        out.append(got)
    return out


@pytest.mark.parametrize("n", [2, 4, 65, 100])
@pytest.mark.parametrize("per", [1, 2])
@pytest.mark.parametrize("base_index", [0, 37])
def test_occurrence_positions_matches_reference(n, per, base_index):
    # n <= 64 and n > 64 take the two branches of _occurrence_index
    rng = make_rng(500 + n + per)
    labels = rng.integers(0, n, size=3000)
    counts = np.bincount(labels, minlength=n)
    pool = np.repeat(np.arange(n), counts // per)
    picks = rng.permutation(pool)[: 2 * len(pool) // 3]
    got = _occurrence_positions(labels, picks, n, per=per, base_index=base_index)
    want = occurrence_positions_reference(labels, picks, per, base_index)
    assert got.shape == (len(picks), per)
    assert got.tolist() == want
    # one pick more of a label than its occurrences allow
    short = np.append(rng.permutation(pool), int(np.argmin(counts)))
    assert occurrence_positions_reference(labels, short, per, base_index) is None
    assert _occurrence_positions(labels, short, n, per=per, base_index=base_index) is None


def test_occurrence_positions_empty_picks():
    # an empty pick list matches no rows
    got = _occurrence_positions(np.array([1, 0, 1]), np.zeros(0, dtype=np.int64), 2)
    assert got.shape == (0, 1)


# -- combine_halve -------------------------------------------------------------

def test_combine_halve_distribution(z1):
    rng = make_rng(0)
    inp = exact_dgs_sample(z1, math.sqrt(2), 10 ** 5, rng)
    out = combine_halve(z1, 30.0, inp, rng)
    assert len(out) > 100
    assert abs(out.param - 1.0) < 1e-12
    vals = out.coeffs[:, 0]
    support = np.arange(-4, 5)
    obs = np.array([(vals == k).sum() for k in support])
    r = chi_squared_gof(obs, z_probs(support))
    assert r.p_value > 0.01
    p0 = (vals == 0).mean()
    sigma = math.sqrt(0.9204 * 0.0796 / len(vals))
    assert abs(p0 - 1 / RHO_Z_1) <= 3.5 * sigma


def test_combine_halve_pairing_audit(z2):
    # every output is the average of two inputs from the same mod-2L coset;
    # verified indirectly: outputs are lattice points and the count bound holds
    rng = make_rng(1)
    inp = exact_dgs_sample(z2, 2.0, 50_000, rng)
    out = combine_halve(z2, 20.0, inp, rng)
    assert len(out) > 0
    cmap = CosetMap(z2, z2.scale(2))
    in_counts = np.bincount(cmap.label_ids(inp.coeffs), minlength=4)
    out_counts = np.bincount(cmap.label_ids(2 * out.coeffs), minlength=4)
    assert (2 * out_counts <= in_counts).all()


def test_combine_halve_square_coset_identity(z1):
    # the size-law denominator: sum of squared coset masses at s equals the
    # squared total mass at s/sqrt(2)
    s = math.sqrt(2)
    two = z1.scale(2)
    even = rho_sum(two, None, s, tail_eps=1e-13).value
    odd = rho_sum(two, (Fraction(1),), s, tail_eps=1e-13).value
    rhs = rho_sum(z1, None, 1.0, tail_eps=1e-13).value ** 2
    assert abs(even ** 2 + odd ** 2 - rhs) / rhs < 1e-9


def test_combine_requires_matching_basis(z1, z2):
    rng = make_rng(2)
    inp = exact_dgs_sample(z1, 2.0, 1000, rng)
    with pytest.raises(PreconditionError):
        combine_halve(z2, 20.0, inp, rng)


# -- general_pipeline ------------------------------------------------------------

def test_pipeline_ell_zero_passthrough(z1):
    rng = make_rng(3)
    inp = exact_dgs_sample(z1, 2.0, 5000, rng)
    cfg = CombinerConfig(kappa=20.0, ell=0, profile="desk")
    out = general_pipeline(z1, cfg, inp, rng)
    assert np.array_equal(out.coeffs, inp.coeffs)


def test_pipeline_two_steps(z1):
    # two halving steps from s = 2 down to 1 at kappa = 30; each step costs a
    # factor around 6*kappa/p_col, so the harness sizes the input accordingly
    rng = make_rng(4)
    inp = exact_dgs_sample(z1, 2.0, 22_000_000, rng)
    cfg = CombinerConfig(kappa=30.0, ell=2, profile="desk")
    out = general_pipeline(z1, cfg, inp, rng)
    assert len(out) > 120
    assert abs(out.param - 1.0) < 1e-12
    vals = out.coeffs[:, 0]
    support = np.arange(-4, 5)
    obs = np.array([(vals == k).sum() for k in support])
    r = chi_squared_gof(obs, z_probs(support))
    assert r.p_value > 0.01


def test_pipeline_single_step_matches_combine(z1):
    # one pipeline step is bit-for-bit one combiner call under the same seed
    inp = exact_dgs_sample(z1, 2.0, 10 ** 4, make_rng(5))
    out_a = general_pipeline(z1, CombinerConfig(kappa=20.0, ell=1, profile="desk"),
                             inp, make_rng(6))
    out_b = combine_halve(z1, 20.0, inp, make_rng(6))
    assert np.array_equal(out_a.coeffs, out_b.coeffs)


def test_pipeline_paper_profile_enforces_size(z1):
    rng = make_rng(7)
    inp = exact_dgs_sample(z1, 2.0, 100, rng)
    cfg = CombinerConfig(kappa=2.0, ell=1, profile="paper")
    with pytest.raises(PreconditionError):
        general_pipeline(z1, cfg, inp, rng)


# -- general_dgs -------------------------------------------------------------------

def test_general_dgs_below_smoothing(z2):
    # s = 0.8 sits below the smoothing width of Z^2; the combiner still
    # produces the right law (module example, kappa = 30)
    rng = make_rng(8)
    out = general_dgs(z2, 0.8, 30.0, rng, "desk", m_target=200)
    assert len(out) >= 150
    rho = math.fsum(math.exp(-math.pi * (i * i + j * j) / 0.64)
                    for i in range(-8, 9) for j in range(-8, 9))
    p0 = 1.0 / rho
    nz = (out.coeffs != 0).any(axis=1)
    r = chi_squared_gof(np.array([(~nz).sum(), nz.sum()]), np.array([p0, 1 - p0]))
    assert r.p_value > 0.01


def test_general_dgs_z1(z1):
    rng = make_rng(9)
    out = general_dgs(z1, 1.0, 20.0, rng, "desk", m_target=220)
    vals = out.coeffs[:, 0]
    support = np.arange(-4, 5)
    obs = np.array([(vals == k).sum() for k in support])
    r = chi_squared_gof(obs, z_probs(support))
    assert r.p_value > 0.01


def test_general_dgs_refuses_a_proper_seed_prefix():
    # LLL Gram-Schmidt norms 4.69, 6.91, 7.87: at s = 6 the width after the
    # capped two raising steps (12) covers only the prefix spanned by
    # (3, -2, 3), whose line misses a few percent of D_{L,6}, so the honest
    # answer is an empty batch; at s = 12 the seed covers the whole lattice
    lat = random_basis(make_rng(0), 3)
    rows = np.array(lat.rows, dtype=np.int64)
    assert len(general_dgs(lat, 6.0, 20.0, make_rng(1), "desk", m_target=64)) == 0
    out = general_dgs(lat, 12.0, 20.0, make_rng(1), "desk", m_target=64)
    assert len(out) >= 64
    off_line = np.cross(out.coeffs @ rows, np.array([3, -2, 3])).any(axis=1)
    assert off_line.any()


def test_general_dgs_huge_s_is_start_gauss_fast_path(z2):
    # far above the seed threshold no halving steps are needed, so the
    # pipeline output matches a direct seed-sampler run in distribution
    from latgauss import start_gauss
    out = general_dgs(z2, 1e6, 20.0, make_rng(10), "desk", m_target=3000)
    assert len(out) >= 3000
    _, ref = start_gauss(z2, 2, len(out), 1e6, make_rng(11), "desk")
    from latgauss.stats import chi_squared_counts
    edges = np.geomspace(1e4, 4e6, 14)
    a = np.histogram(np.sqrt(out.norms_sq_float()), bins=edges)[0]
    b = np.histogram(np.sqrt(ref.norms_sq_float()), bins=edges)[0]
    r = chi_squared_counts(a, b)
    assert r.p_value > 0.01


# -- sqrt_combine -----------------------------------------------------------------

def checkerboard():
    return Basis([[1, 1], [1, -1]])


def test_sqrt_combine_nonempty_at_example_size(z2):
    # the module-scale run: nonempty output above smoothing at kappa = 20
    rng = make_rng(12)
    inp = exact_dgs_sample(z2, 3.0, 10 ** 6, rng)
    hb = sqrt_combine(z2, checkerboard(), 20.0, inp, rng, "desk")
    assert hb.produced_m > 0
    assert abs(hb.batch.param - 3.0 * math.sqrt(2)) < 1e-12


def test_sqrt_combine_distribution(z2):
    # a larger seed batch so the output supports a two-bucket test against
    # the exact law on the sublattice (each output costs ~5e5 inputs here)
    rng = make_rng(12)
    inp = exact_dgs_sample(z2, 3.0, 12_000_000, rng)
    hb = sqrt_combine(z2, checkerboard(), 20.0, inp, rng, "desk")
    assert hb.produced_m >= 10
    out = hb.batch
    s_out = 3.0 * math.sqrt(2)
    # exact shell masses of the sublattice at sqrt(2) * s
    rho = 0.0
    inner = 0.0
    for i in range(-25, 26):
        for j in range(-25, 26):
            if (i + j) % 2 == 0:
                w = math.exp(-math.pi * (i * i + j * j) / (s_out * s_out))
                rho += w
                if i * i + j * j <= 2.000001:
                    inner += w
    p_in = inner / rho
    nsq = out.norms_sq_float()
    obs = np.array([(nsq <= 2.000001).sum(), (nsq > 2.000001).sum()])
    r = chi_squared_gof(obs, np.array([p_in, 1 - p_in]))
    assert r.p_value > 0.01


def test_sqrt_combine_pair_audit(z2):
    rng = make_rng(14)
    inp = exact_dgs_sample(z2, 3.0, 2_000_000, rng)
    hb = sqrt_combine(z2, checkerboard(), 20.0, inp, rng, "desk")
    if hb.produced_m == 0:
        pytest.skip("no output this seed")
    # outputs are sums of two inputs: all lie in the sublattice with even
    # coordinate sums, and norms are plausible for sqrt(2) * s
    amb = hb.batch.coeffs @ np.array([[1, 1], [1, -1]])
    assert ((amb.sum(axis=1) % 2) == 0).all()


def test_sqrt_combine_squared_coset_law(z2):
    # before the square-root stage, summed pairs land in d-cosets with
    # frequencies proportional to the squared coset weights at sqrt(2) s
    rng = make_rng(15)
    s = 3.0
    inp = exact_dgs_sample(z2, s, 400_000, rng)
    sub = checkerboard()
    cmap1 = CosetMap(z2, sub)
    labels = cmap1.label_ids(inp.coeffs)
    from latgauss.resamplers import ElementStream, square_sample
    res = square_sample(20.0, ElementStream(labels, cmap1.index), rng)
    assert not res.failed
    # pair and sum following the emitted labels
    pos = _occurrence_positions(labels, res.items, cmap1.index, per=2)
    ysum = inp.coeffs[pos[:, 0]] + inp.coeffs[pos[:, 1]]
    t = np.array(sublattice_transform(z2, sub))
    # d-cosets of 2 Z^2 inside the sublattice
    w = ysum @ np.linalg.inv(t.astype(float))
    w = np.round(w).astype(np.int64)
    cmap2 = CosetMap(sub, z2.scale(2))
    ids = cmap2.label_ids(w)
    obs = np.bincount(ids, minlength=cmap2.index)
    probs, _ = coset_weights(sub, z2.scale(2), s * math.sqrt(2))
    sq = probs ** 2 / (probs ** 2).sum()
    r = chi_squared_gof(obs, sq)
    assert r.p_value > 0.01


def test_sqrt_combine_rejects_bad_sublattice(z2):
    rng = make_rng(16)
    inp = exact_dgs_sample(z2, 3.0, 1000, rng)
    with pytest.raises(PreconditionError):
        sqrt_combine(z2, Basis([[3, 0], [0, 1]]), 20.0, inp, rng)  # index 3


# -- tower_pipeline ----------------------------------------------------------------

def test_tower_single_level_matches_sqrt_combine(z2):
    lprev = random_superlattice(z2, 1, make_rng(17))
    tower = make_tower(z2, lprev, 1, 1)
    inp = exact_dgs_sample(tower.levels[0], 2.2, 300_000, make_rng(18))
    hb_a = tower_pipeline(tower, 20.0, inp, make_rng(19), "desk")
    hb_b = sqrt_combine(tower.levels[0], tower.levels[1], 20.0, inp,
                        make_rng(19), "desk")
    assert hb_a.produced_m == hb_b.produced_m
    if hb_a.produced_m:
        assert np.array_equal(hb_a.batch.coeffs, hb_b.batch.coeffs)


@pytest.mark.slow
def test_tower_two_levels(z2):
    # two chained levels are only affordable at the kappa floor: each level
    # costs roughly 1.7e3 inputs per output there (vs ~5e5 at kappa = 20)
    lprev = random_superlattice(z2, 1, make_rng(20))
    tower = make_tower(z2, lprev, 1, 2)
    shat = 3.0 / 2.0
    pooled = []
    for seed in (21, 22):
        rng = make_rng(seed)
        inp = exact_dgs_sample(tower.levels[0], shat, 25_000_000, rng)
        hb = tower_pipeline(tower, 2.0, inp, rng, "desk")
        assert hb.produced_m >= 0
        if hb.produced_m:
            assert abs(hb.batch.param - 3.0) < 1e-12
            pooled.append(hb.batch.norms_sq_float())
    nsq = np.concatenate(pooled)
    assert len(nsq) >= 12
    # two-bucket comparison against the exact law of D_{Z^2, 3}
    rho = 0.0
    inner = 0.0
    for i in range(-15, 16):
        for j in range(-15, 16):
            w = math.exp(-math.pi * (i * i + j * j) / 9.0)
            rho += w
            if i * i + j * j <= 1:
                inner += w
    p_in = inner / rho
    obs = np.array([(nsq <= 1.000001).sum(), (nsq > 1.000001).sum()])
    r = chi_squared_gof(obs, np.array([p_in, 1 - p_in]))
    assert r.p_value > 0.01


def test_tower_below_smoothing_empties(z2):
    # point-mass input far below smoothing: the ratio test must abort
    empties = 0
    runs = 30
    for i in range(runs):
        rng = make_rng(24 + i)
        lprev = random_superlattice(z2, 1, rng)
        tower = make_tower(z2, lprev, 1, 1)
        inp = exact_dgs_sample(tower.levels[0], 0.05, 50_000, rng)
        hb = tower_pipeline(tower, 20.0, inp, rng, "desk")
        empties += hb.produced_m == 0
    assert empties >= 0.95 * runs


# -- smooth_dgs --------------------------------------------------------------------

def test_smooth_dgs_above_smoothing(z2):
    eta = smoothing_param(z2, 0.5).eta
    assert 3.0 > math.sqrt(2) * eta
    ok = 0
    for i in range(10):
        hb = smooth_dgs(z2, 3.0, 12, 20.0, make_rng(40 + i), "desk")
        assert hb.produced_m in (0, 12)
        ok += hb.produced_m == 12
    assert ok >= 9


def test_smooth_dgs_below_smoothing_mostly_empty(z2):
    nonzero = 0
    for i in range(10):
        hb = smooth_dgs(z2, 0.3, 12, 20.0, make_rng(60 + i), "desk")
        assert hb.produced_m in (0, 12)
        nonzero += hb.produced_m > 0
        assert hb.below_smoothing_flag or hb.produced_m > 0
    assert nonzero <= 1


def test_smooth_dgs_zero_request(z2):
    hb = smooth_dgs(z2, 3.0, 0, 20.0, make_rng(70), "desk")
    assert hb.produced_m == 0


def test_smooth_dgs_determinism(z2):
    a = smooth_dgs(z2, 3.0, 8, 20.0, make_rng(80), "desk")
    b = smooth_dgs(z2, 3.0, 8, 20.0, make_rng(80), "desk")
    assert a.produced_m == b.produced_m
    assert np.array_equal(a.batch.coeffs, b.batch.coeffs)


def test_honest_batch_invariant():
    z2 = Basis([[1, 0], [0, 1]])
    empty = SampleBatch(np.zeros((0, 2), dtype=np.int64), z2, 1.0, "smooth")
    with pytest.raises(ValueError):
        HonestBatch(empty, requested_m=5, produced_m=3)
