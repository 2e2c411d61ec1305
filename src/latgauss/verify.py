"""Seeded statistical verification suites.

Each named check mirrors one structural or distributional invariant of the
library and returns a machine-readable record.  Suites: structural,
identities, samplers, resamplers, combiners, reductions; "all" runs every
check exactly once.  Scale knobs (trials, dims) let the command line trade
runtime for power; the acceptance tests pin them at full scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from fractions import Fraction

import numpy as np

from . import exactlin as xl
from . import oracle
from .combiners import smooth_dgs
from .lattices import (Basis, CosetMap, make_tower, random_superlattice,
                       reduce_basis, dual_basis, sublattice_transform, gram_schmidt,
                       transform_index)
from .profiles import RunConfig, derive_rng, get_profile
from .reductions import (CONSTANTS, approx_cvp, covariance_statistic,
                         exact_provider, optimal_svp_param, solve_svp)
from .resamplers import (ElementStream, ProbVector, sqrt_coin, square_sample,
                         sqrt_sample, estimate_pmax, StreamExhausted)
from .samplers import SampleBatch, klein_gpv_batch, start_gauss
from .stats import chi_squared_counts, chi_squared_gof


@dataclass
class CheckRecord:
    name: str
    status: str           # pass | fail | flag
    measured: float
    threshold: float
    seed: int
    detail: str = ""

    def to_dict(self):
        return asdict(self)


def _record(name, ok, measured, threshold, seed, detail="", flag_only=False):
    status = "pass" if ok else ("flag" if flag_only else "fail")
    return CheckRecord(name, status, float(measured), float(threshold), seed, detail)


def random_basis(rng: np.random.Generator, d: int, n: int | None = None,
                 span: int = 9) -> Basis:
    n = d if n is None else n
    while True:
        rows = rng.integers(-span, span + 1, size=(d, n))
        try:
            return Basis(rows.tolist())
        except Exception:
            continue


# ---------------------------------------------------------------------------
# structural suite (lattice core)

def check_unimodularity(cfg: RunConfig, trials: int = 20):
    rng = derive_rng(cfg.seed, 1)
    lo, hi = cfg.rank_range(2, 4)
    worst = 0
    for _ in range(trials):
        d = int(rng.integers(lo, hi + 1))
        b = random_basis(rng, d, span=6)
        for profile in ("lll", "exact"):
            red = reduce_basis(b, profile)
            if transform_index(sublattice_transform(b, red)) != 1:
                worst += 1
    return [_record("lattice/unimodular-reduction", worst == 0, worst, 0, cfg.seed)]


def check_duality_involution(cfg: RunConfig, trials: int = 20):
    rng = derive_rng(cfg.seed, 2)
    lo, hi = cfg.rank_range(1, 4)
    bad = 0
    for _ in range(trials):
        d = int(rng.integers(lo, hi + 1))
        b = random_basis(rng, d, span=6)
        dd = dual_basis(dual_basis(b))
        try:
            if transform_index(sublattice_transform(b, dd)) != 1:
                bad += 1
        except Exception:
            bad += 1
    return [_record("lattice/duality-involution", bad == 0, bad, 0, cfg.seed)]


def check_coset_partition(cfg: RunConfig, trials: int = 12):
    rng = derive_rng(cfg.seed, 3)
    lo, hi = cfg.rank_range(1, 3)
    bad = 0
    for _ in range(trials):
        d = int(rng.integers(lo, hi + 1))
        lat = random_basis(rng, d, span=3)
        mults = rng.integers(1, 4, size=d)
        sub = Basis([[m * x for x in row] for m, row in zip(mults, lat.rows)])
        cmap = CosetMap(lat, sub)
        # full residue enumeration: the label count must equal the index
        grids = np.meshgrid(*[np.arange(0, 3 * int(h)) for h in cmap.diag],
                            indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        ids = cmap.label_ids(pts)
        if len(np.unique(ids)) != cmap.index:
            bad += 1
        # pairwise: equal label iff the difference lies in the sublattice
        za = rng.integers(-8, 9, size=(40, d))
        zb = rng.integers(-8, 9, size=(40, d))
        la = cmap.label_ids(za)
        lb = cmap.label_ids(zb)
        for i in range(40):
            diff = tuple(int(x) for x in (za[i] - zb[i]))
            inside = sub.coeffs_of(lat.ambient(diff)) is not None
            if inside != (la[i] == lb[i]):
                bad += 1
    return [_record("lattice/coset-partition", bad == 0, bad, 0, cfg.seed)]


def check_tower_invariants(cfg: RunConfig, trials: int = 10):
    rng = derive_rng(cfg.seed, 4)
    bad = 0
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        a = int(rng.integers((n + 1) // 2, n))
        lat = random_basis(rng, n, span=3)
        lprev = random_superlattice(lat, a, rng)
        ell = int(rng.integers(1, 4))
        try:
            tower = make_tower(lat, lprev, a, ell)
            tower.validate()
            # L_0 contains 2^{-floor(ell a / n)} L
            sc = Fraction(1, 2 ** (ell * a // n))
            sublattice_transform(tower.levels[0], lat.scale(sc))
        except Exception:
            bad += 1
    return [_record("lattice/tower-invariants", bad == 0, bad, 0, cfg.seed)]


def check_superlattice_distribution(cfg: RunConfig, trials: int = 3000):
    rng = derive_rng(cfg.seed, 5)
    z2 = Basis([[1, 0], [0, 1]])
    counts: dict = {}
    for _ in range(trials):
        sup = random_superlattice(z2, 1, rng)
        counts[sup.rows] = counts.get(sup.rows, 0) + 1
    obs = np.array(sorted(counts.values(), reverse=True))
    ok = len(obs) == 3
    r = chi_squared_gof(obs, np.full(len(obs), 1 / len(obs))) if ok else None
    p = r.p_value if (r and not r.inconclusive) else 0.0
    return [_record("lattice/superlattice-equidistribution", ok and p > cfg.chi2_alpha,
                    p, cfg.chi2_alpha, cfg.seed, f"counts={obs.tolist()}")]


# ---------------------------------------------------------------------------
# identities suite (exact oracle)

def _coset_rho_sq_sum(lat: Basis, s: float) -> float:
    two = lat.scale(2)
    cmap = CosetMap(lat, two)
    total = 0.0
    for ident in range(cmap.index):
        res = cmap.residue_of_id(ident)
        shift = lat.ambient(res)
        total += oracle.rho_sum(two, shift, s, tail_eps=1e-13).value ** 2
    return total


def check_square_identity(cfg: RunConfig, n_lattices: int = 50,
                          s_values=(0.7, 1.0, math.sqrt(2), 3.0)):
    rng = derive_rng(cfg.seed, 6)
    worst = 0.0
    lo, hi = cfg.rank_range(1, 3)
    for _ in range(n_lattices):
        d = int(rng.integers(lo, hi + 1))
        lat = random_basis(rng, d, span=2)
        for s in s_values:
            lhs = _coset_rho_sq_sum(lat, s)
            rhs = oracle.rho_sum(lat, None, s / math.sqrt(2), tail_eps=1e-13).value ** 2
            worst = max(worst, abs(lhs - rhs) / rhs)
    return [_record("oracle/square-identity", worst <= 1e-9, worst, 1e-9, cfg.seed)]


def check_banaszczyk_growth(cfg: RunConfig, trials: int = 12):
    rng = derive_rng(cfg.seed, 7)
    lo, hi = cfg.rank_range(1, 3)
    bad = 0
    for _ in range(trials):
        d = int(rng.integers(lo, hi + 1))
        lat = random_basis(rng, d, span=2)
        base = oracle.rho_sum(lat, None, 1.0).value
        for s in (1.5, 2.0, 4.0):
            grown = oracle.rho_sum(lat, None, s).value
            if grown > s ** d * base * (1 + 1e-9):
                bad += 1
    return [_record("oracle/mass-growth-bound", bad == 0, bad, 0, cfg.seed)]


def check_tail_bound(cfg: RunConfig, draws: int = 20000):
    rng = derive_rng(cfg.seed, 8)
    bad = 0
    detail = []
    for d, s in ((1, 1.0), (2, 1.5)):
        lat = random_basis(rng, d, span=2)
        batch = oracle.exact_dgs_sample(lat, s, draws, rng)
        norms = np.sqrt(batch.norms_sq_float())
        for t in (1.0, 2.0):
            bound = (math.sqrt(2 * math.pi * math.e * t * t)
                     * math.exp(-math.pi * t * t)) ** d
            emp = float((norms > t * s * math.sqrt(d)).mean())
            sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / draws)
            if emp > bound + 3 * sigma:
                bad += 1
            detail.append(f"d={d},t={t}:{emp:.4g}<={bound:.4g}")
    return [_record("oracle/tail-bound", bad == 0, bad, 0, cfg.seed, ";".join(detail))]


def check_smoothing_ratio(cfg: RunConfig, shifts: int = 100):
    rng = derive_rng(cfg.seed, 9)
    lat = random_basis(rng, 2, span=2)
    eps = 0.5
    eta = oracle.smoothing_param(lat, eps).eta
    s = eta
    rho_l = oracle.rho_sum(lat, None, s).value
    worst = math.inf
    for _ in range(shifts):
        t = [Fraction(int(a), 64) for a in rng.integers(-64, 65, size=lat.n)]
        val = oracle.rho_sum(lat, t, s).value / rho_l
        worst = min(worst, val)
    bound = (1 - eps) / (1 + eps)
    return [_record("oracle/smoothing-ratio", worst >= bound * (1 - 1e-9),
                    worst, bound, cfg.seed)]


def check_double_smoothing(cfg: RunConfig):
    z2 = Basis([[1, 0], [0, 1]])
    eta_half = oracle.smoothing_param(z2, 0.5).eta
    eta_sq = oracle.smoothing_param(z2, 0.5 ** 4).eta
    ok = 2 * eta_half > eta_sq
    return [_record("oracle/double-smoothing", ok, 2 * eta_half, eta_sq, cfg.seed)]


def check_lambda1_eta_duality(cfg: RunConfig, trials: int = 8):
    rng = derive_rng(cfg.seed, 10)
    fails = 0
    flags = 0
    beta_sq = CONSTANTS.beta_sq
    lo, hi = cfg.rank_range(2, 4)
    for _ in range(trials):
        d = int(rng.integers(lo, hi + 1))
        lat = random_basis(rng, d, span=4)
        l1, _ = oracle.lambda1(lat)
        for eps in (0.3, 0.05):
            eta_dual = oracle.smoothing_param(dual_basis(lat), eps).eta
            prod = l1 * eta_dual
            lower = math.sqrt(math.log(1 / eps) / math.pi)
            upper = math.sqrt(beta_sq * d / (2 * math.pi * math.e)) * eps ** (-1 / d)
            if not (prod > lower):
                fails += 1
            if prod > upper * 1.10:
                if d < 4:
                    flags += 1
                else:
                    fails += 1
    ok = fails == 0
    return [_record("oracle/lambda1-eta-duality", ok, fails + 0.1 * flags, 0,
                    cfg.seed, f"flags={flags}", flag_only=(fails == 0 and flags > 0))]


def check_lambda1_brute_force(cfg: RunConfig, trials: int = 50):
    rng = derive_rng(cfg.seed, 11)
    bad = 0
    for _ in range(trials):
        lat = random_basis(rng, 4, span=3)
        l1, wit = oracle.lambda1(lat)
        # exhaustive coefficient box search in reduced coordinates, where the
        # witness coefficients are small
        red = reduce_basis(lat, "lll")
        g = np.array([[float(x) for x in row] for row in red.gram])
        rng_box = np.arange(-6, 7)
        grids = np.meshgrid(*([rng_box] * 4), indexing="ij")
        zs = np.stack([x.ravel() for x in grids], axis=1)
        zs = zs[(zs != 0).any(axis=1)]
        nsq = np.einsum("ij,jk,ik->i", zs, g, zs)
        if abs(nsq.min() - l1 * l1) > 1e-6:
            bad += 1
        if abs(float(wit.norm_sq()) - l1 * l1) > 1e-9:
            bad += 1
    return [_record("oracle/lambda1-brute-force", bad == 0, bad, 0, cfg.seed)]


# ---------------------------------------------------------------------------
# samplers suite

def _support_counts(batch: SampleBatch, cmax: int = 6):
    z = np.clip(batch.coeffs, -cmax, cmax) + cmax
    width = 2 * cmax + 1
    flat = np.zeros(width ** batch.coeffs.shape[1], dtype=np.int64)
    idx = np.zeros(len(z), dtype=np.int64)
    for j in range(z.shape[1]):
        idx = idx * width + z[:, j]
    np.add.at(flat, idx, 1)
    return flat


def check_klein_exactness(cfg: RunConfig, draws: int = 100_000):
    from scipy import stats as sps  # at module level it would slow every CLI call
    rng = derive_rng(cfg.seed, 12)
    prof = get_profile(cfg.profile)
    records = []
    cases = [
        ("rank1-5Z", Basis([[5]]), 50.0),
        ("rank2-skew", Basis([[1, 0], [1, 1]]), 30.0),
        ("rank3", Basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 20.0),
    ]
    for name, lat, s in cases:
        kb = klein_gpv_batch(lat, s, draws, rng, prof)
        eb = oracle.exact_dgs_sample(lat, s, draws, rng)
        cmax = max(3, int(3 * s))
        r = chi_squared_counts(_support_counts(kb, min(cmax, 8)),
                               _support_counts(eb, min(cmax, 8)))
        ks = sps.ks_2samp(np.sqrt(kb.norms_sq_float()), np.sqrt(eb.norms_sq_float()))
        ok = (not r.inconclusive and r.p_value > cfg.chi2_alpha
              and ks.pvalue > cfg.chi2_alpha)
        records.append(_record(f"samplers/base-exactness-{name}", ok,
                               min(r.p_value or 0.0, ks.pvalue), cfg.chi2_alpha,
                               cfg.seed))
    return records


def check_klein_basis_independence(cfg: RunConfig, draws: int = 100_000):
    rng = derive_rng(cfg.seed, 13)
    prof = get_profile(cfg.profile)
    b1 = Basis([[1, 0], [0, 1]])
    b2 = Basis([[1, 0], [1, 1]])
    k1 = klein_gpv_batch(b1, 30.0, draws, rng, prof)
    k2 = klein_gpv_batch(b2, 30.0, draws, rng, prof)
    amb2 = k2.coeffs @ np.array([[1, 0], [1, 1]])
    k2n = SampleBatch(amb2, b1, 30.0, "gpv")
    r = chi_squared_counts(_support_counts(k1, 8), _support_counts(k2n, 8))
    ok = not r.inconclusive and r.p_value > cfg.chi2_alpha
    return [_record("samplers/basis-independence", ok, r.p_value or 0.0,
                    cfg.chi2_alpha, cfg.seed)]


def check_start_gauss_short_vectors(cfg: RunConfig, trials: int = 50):
    rng = derive_rng(cfg.seed, 14)
    prof = get_profile(cfg.profile)
    bad = 0
    r_param = 2
    for _ in range(trials):
        lat = random_basis(rng, 4, span=4)
        gs = gram_schmidt(reduce_basis(lat, "lll"))
        s = 0.8 * prof.prefix_threshold(1.0, 4) ** -1 * gs.gs_norms[0]
        # pick s so that typically only a prefix qualifies
        s = max(s, gs.max_gs_norm * 0.9)
        sub, _batch = start_gauss(lat, r_param, 0, s, rng, prof)
        if sub is None:
            continue
        radius = r_param ** (-4 / r_param) * s
        for p in oracle.enumerate_ball(lat, None, radius):
            if p.is_zero():
                continue
            if sub.coeffs_of(p.ambient) is None:
                bad += 1
    return [_record("samplers/start-gauss-short-vectors", bad == 0, bad, 0, cfg.seed)]


# ---------------------------------------------------------------------------
# resamplers suite

def check_prob_transforms(cfg: RunConfig, trials: int = 100):
    rng = derive_rng(cfg.seed, 15)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 17))
        p = rng.random(n) + 1e-3
        pv = ProbVector(p / p.sum())
        worst = max(worst, np.abs(pv.squared().sqrt().probs - pv.probs).max())
        worst = max(worst, np.abs(pv.sqrt().squared().probs - pv.probs).max())
    return [_record("resamplers/square-sqrt-inversion", worst <= 1e-12, worst,
                    1e-12, cfg.seed)]


def check_square_sample_size_law(cfg: RunConfig, seeds: int = 100):
    p = np.array([2 / 3, 1 / 3])
    kappa, m_in = 30.0, 10 ** 5
    bound = m_in * float(np.dot(p, p)) / (32 * kappa * p.max())
    failures = 0
    small = 0
    for i in range(seeds):
        rng = derive_rng(cfg.seed, 16, i)
        items = (rng.random(m_in) > p[0]).astype(np.int64)
        res = square_sample(kappa, ElementStream(items, 2), rng)
        if res.failed:
            failures += 1
        elif len(res) < bound:
            small += 1
    ok = small == 0 and failures == 0
    return [_record("resamplers/square-output-size-law", ok, small + failures,
                    0, cfg.seed, f"bound={bound:.1f}")]


def check_sqrt_coin_exact(cfg: RunConfig, trials: int = 100_000):
    records = []
    for j, p in enumerate((0.1, 0.5, 0.9)):
        rng = derive_rng(cfg.seed, 17, j)
        coins = rng.random((trials, 64)) < p
        hits = 0
        for row in coins:
            hits += sqrt_coin(row, 10 ** 9, rng)  # effectively unlimited tau
        emp = hits / trials
        sigma = math.sqrt(math.sqrt(p) * (1 - math.sqrt(p)) / trials)
        ok = abs(emp - math.sqrt(p)) <= 3 * sigma + (1 - p) ** 64
        records.append(_record(f"resamplers/sqrt-coin-p{p}", ok, emp,
                               math.sqrt(p), cfg.seed))
    return records


def check_conservation(cfg: RunConfig, seeds: int = 20):
    bad = 0
    for i in range(seeds):
        rng = derive_rng(cfg.seed, 18, i)
        p = np.array([0.55, 0.25, 0.2])
        items = rng.choice(3, size=40_000, p=p)
        cin = np.bincount(items, minlength=3)
        res = square_sample(20.0, ElementStream(items, 3), rng)
        if not res.failed:
            cout = np.bincount(res.items, minlength=3)
            if (2 * cout > cin).any():
                bad += 1
        rng2 = derive_rng(cfg.seed, 19, i)
        items2 = rng2.choice(3, size=200_000, p=p)
        cin2 = np.bincount(items2, minlength=3)
        res2 = sqrt_sample(20.0, 4.0, ElementStream(items2, 3), rng2)
        if not res2.failed:
            cout2 = np.bincount(res2.items, minlength=3)
            if (cout2 > cin2).any():
                bad += 1
    return [_record("resamplers/count-conservation", bad == 0, bad, 0, cfg.seed)]


def check_failure_flags(cfg: RunConfig):
    rng = derive_rng(cfg.seed, 20)
    ok = True
    res = square_sample(20.0, ElementStream(np.zeros(0, dtype=np.int64), 2), rng)
    ok &= res.failed and len(res) == 0 and res.fail_stage == "estimate"
    res = sqrt_sample(20.0, 4.0, ElementStream(np.zeros(10, dtype=np.int64), 2), rng)
    ok &= res.failed and len(res) == 0
    try:
        estimate_pmax(30.0, ElementStream(np.zeros(0, dtype=np.int64), 1), rng)
        ok = False
    except StreamExhausted:
        pass
    return [_record("resamplers/failure-flags", bool(ok), int(not ok), 0, cfg.seed)]


# ---------------------------------------------------------------------------
# combiners suite

def check_rotation_identity(cfg: RunConfig, pairs: int = 60_000):
    from scipy import stats as sps
    rng = derive_rng(cfg.seed, 21)
    z1 = Basis([[1]])
    s = math.sqrt(2)
    batch = oracle.exact_dgs_sample(z1, s, 4 * pairs, rng)
    vals = batch.coeffs[:, 0]
    x, y = vals[0::2], vals[1::2]
    same = (x & 1) == (y & 1)
    u = (x[same] + y[same])
    v = (x[same] - y[same])
    # u, v live on 2Z; bucket and test independence via a contingency table
    lim = 6
    ub = np.clip(u // 2, -lim, lim) + lim
    vb = np.clip(v // 2, -lim, lim) + lim
    table = np.zeros((2 * lim + 1, 2 * lim + 1))
    np.add.at(table, (ub, vb), 1)
    keep_r = table.sum(axis=1) >= 5
    keep_c = table.sum(axis=0) >= 5
    tbl = table[np.ix_(keep_r, keep_c)]
    chi2 = sps.chi2_contingency(tbl)
    ok = chi2.pvalue > cfg.chi2_alpha
    # marginal of u/2 should be D_{Z, s/sqrt(2)} = D_{Z,1}
    rho1 = oracle.rho_sum(z1, None, 1.0).value
    support = np.arange(-4, 5)
    probs = np.exp(-math.pi * support.astype(float) ** 2) / rho1
    obs = np.array([(u // 2 == k).sum() for k in support])
    r = chi_squared_gof(obs, probs)
    ok = ok and (not r.inconclusive) and r.p_value > cfg.chi2_alpha
    return [_record("combiners/rotation-identity", ok,
                    min(chi2.pvalue, r.p_value or 0.0), cfg.chi2_alpha, cfg.seed)]


def check_exact_conditional_law(cfg: RunConfig):
    # enumerate pairs of integers with even sum at s = sqrt(2) and compare the
    # conditional law of the average against D_{Z,1} pointwise
    s = math.sqrt(2)
    ks = np.arange(-40, 41)
    w = np.exp(-math.pi * ks.astype(float) ** 2 / (s * s))
    w /= w.sum()
    cond: dict[int, float] = {}
    for i, x in enumerate(ks):
        for j, y in enumerate(ks):
            if (x + y) % 2 == 0:
                cond[(x + y) // 2] = cond.get((x + y) // 2, 0.0) + w[i] * w[j]
    total = sum(cond.values())
    rho1 = oracle.rho_sum(Basis([[1]]), None, 1.0).value
    worst = 0.0
    for k in range(-6, 7):
        target = math.exp(-math.pi * k * k) / rho1
        worst = max(worst, abs(cond.get(k, 0.0) / total - target))
    return [_record("combiners/exact-conditional-law", worst <= 1e-9, worst,
                    1e-9, cfg.seed)]


def _z2_shell_probs(s: float, shell_edge: float = 1.0):
    lim = max(6, int(4 * s))
    rho = 0.0
    inner = 0.0
    for i in range(-lim, lim + 1):
        for j in range(-lim, lim + 1):
            wt = math.exp(-math.pi * (i * i + j * j) / (s * s))
            rho += wt
            if i * i + j * j <= shell_edge + 1e-9:
                inner += wt
    return inner / rho


def honesty_one_run(seed_parts, s: float, m: int, kappa: float, cfg: RunConfig):
    """One smooth_dgs run; returns (produced_ok, chi2_ok_or_None)."""
    rng = derive_rng(*seed_parts)
    z2 = Basis([[1, 0], [0, 1]])
    hb = smooth_dgs(z2, s, m, kappa, rng, cfg.profile)
    produced_ok = hb.produced_m in (0, m)
    chi_ok = None
    if hb.produced_m:
        p_in = _z2_shell_probs(s)
        nsq = hb.batch.norms_sq_float()
        obs = np.array([(nsq <= 1.000001).sum(), (nsq > 1.000001).sum()])
        r = chi_squared_gof(obs, np.array([p_in, 1 - p_in]))
        chi_ok = (not r.inconclusive) and r.p_value > cfg.chi2_alpha
    return produced_ok, chi_ok, hb.produced_m


def check_honesty(cfg: RunConfig, runs_per_s: int = 60, m: int = 12,
                  kappa: float = 20.0):
    records = []
    for s in (0.3, 0.8, 3.0):
        produced_bad = 0
        chi_bad = 0
        full = 0
        for i in range(runs_per_s):
            p_ok, c_ok, produced = honesty_one_run((cfg.seed, 22, int(s * 10), i),
                                                   s, m, kappa, cfg)
            produced_bad += not p_ok
            if c_ok is False:
                chi_bad += 1
            full += produced == m
        ok = produced_bad == 0 and chi_bad <= max(1, int(0.02 * runs_per_s))
        detail = f"full={full}/{runs_per_s},chi_bad={chi_bad}"
        if s == 3.0:
            ok = ok and full >= 0.95 * runs_per_s
        records.append(_record(f"combiners/honesty-s{s}", ok, full, runs_per_s,
                               cfg.seed, detail))
    return records


def check_determinism(cfg: RunConfig):
    z2 = Basis([[1, 0], [0, 1]])
    outs = []
    for _ in range(2):
        rng = derive_rng(cfg.seed, 23)
        hb = smooth_dgs(z2, 3.0, 8, 20.0, rng, cfg.profile)
        outs.append(hb.batch.coeffs.tobytes())
    ok = outs[0] == outs[1]
    return [_record("combiners/determinism", ok, int(not ok), 0, cfg.seed)]


def check_all_or_quota(cfg: RunConfig, runs: int = 30):
    z2 = Basis([[1, 0], [0, 1]])
    bad = 0
    for i in range(runs):
        rng = derive_rng(cfg.seed, 24, i)
        s = [0.5, 1.0, 3.0][i % 3]
        hb = smooth_dgs(z2, s, 6, 20.0, rng, cfg.profile)
        if hb.produced_m not in (0, 6):
            bad += 1
        if hb.produced_m and len(hb.batch) != 6:
            bad += 1
    return [_record("combiners/all-or-quota", bad == 0, bad, 0, cfg.seed)]


# ---------------------------------------------------------------------------
# reductions suite

def check_svp_exact(cfg: RunConfig, instances: int = 25, trials: int = 1000):
    bad = 0
    for i in range(instances):
        rng = derive_rng(cfg.seed, 25, i)
        lat = random_basis(rng, 4, span=9)
        l1, _ = oracle.lambda1(lat)
        res = solve_svp(lat, exact_provider, trials, rng)
        if res.failed or abs(res.norm - l1) > 1e-9:
            bad += 1
    return [_record("reductions/svp-exact-desk", bad == 0, bad, 0, cfg.seed,
                    f"instances={instances}")]


def check_covariance_separation(cfg: RunConfig, seeds: int = 100, m: int = 10 ** 4):
    """Statistic below threshold at 3*eta and above it at 0.3*eta.

    At this sample count the sampling noise of the spectral statistic sits
    above the decision threshold, so the smooth side cannot stay below it;
    the check reports the honest failure rate (see docs/CONSTANTS.md).  A
    companion record shows the same mechanics passing at the conservative
    sample count m = n^5 / eps^2.
    """
    eps = 0.05
    z4 = Basis([[int(i == j) for j in range(4)] for i in range(4)])
    eta = oracle.smoothing_param(z4, eps).eta
    thr = CONSTANTS.gapsvp_threshold(eps, 4)
    below_ok = above_ok = 0
    for i in range(seeds):
        rng = derive_rng(cfg.seed, 26, i)
        smooth = oracle.exact_dgs_sample(z4, 3 * eta, m, rng)
        rough = oracle.exact_dgs_sample(z4, 0.3 * eta, m, rng)
        below_ok += covariance_statistic(smooth).statistic < thr
        above_ok += covariance_statistic(rough).statistic >= thr
    ok = below_ok >= 0.95 * seeds and above_ok >= 0.95 * seeds
    rec = _record("reductions/covariance-separation", ok,
                  min(below_ok, above_ok), 0.95 * seeds, cfg.seed,
                  f"below={below_ok}/{seeds},above={above_ok}/{seeds},m={m}")
    # companion diagnostic at the conservative sample count
    m_big = int(4 ** 5 / eps ** 2)
    rng = derive_rng(cfg.seed, 27)
    smooth = oracle.exact_dgs_sample(z4, 3 * eta, m_big, rng)
    rough = oracle.exact_dgs_sample(z4, 0.3 * eta, m_big, rng)
    ok2 = (covariance_statistic(smooth).statistic < thr
           and covariance_statistic(rough).statistic >= thr)
    rec2 = _record("reductions/covariance-separation-conservative-m", ok2,
                   int(ok2), 1, cfg.seed, f"m={m_big}")
    return [rec, rec2]


def check_cvp_bound(cfg: RunConfig, instances: int = 25, trials: int = 1000):
    bad = 0
    failed = 0
    for i in range(instances):
        rng = derive_rng(cfg.seed, 28, i)
        lat = random_basis(rng, 3, span=9)
        t = [Fraction(int(a), 10) for a in rng.integers(-60, 61, size=3)]
        exact = oracle.cvp_exact(lat, t)
        dist = math.sqrt(float(xl.norm_sq(xl.vec_sub(exact.ambient, tuple(t)))))
        res = approx_cvp(lat, t, exact_provider, trials, rng)
        if res.failed:
            failed += 1
        elif res.distance > 1.97 * dist + 1e-9:
            bad += 1
    ok = bad == 0 and failed <= 0.05 * instances
    return [_record("reductions/cvp-approximation-bound", ok, bad + failed, 0,
                    cfg.seed, f"failed={failed}")]


def check_embedding_sanity(cfg: RunConfig):
    # points of the embedding lattice with unit last coefficient correspond
    # exactly to lattice points shifted by the target
    lat = Basis([[2, 0], [1, 2]])
    t = (Fraction(3, 4), Fraction(1, 3))
    s = Fraction(1, 2)
    radius = 2.0
    emb = Basis([[2, 0, 0], [1, 2, 0], [-t[0], -t[1], s]])
    pts = oracle.enumerate_ball(emb, None, radius)
    ok = True
    seen = set()
    for p in pts:
        z = p.coeffs
        if z[2] == 1:
            first = p.ambient[:2]
            y = tuple(a + b for a, b in zip(first, t))
            if lat.coeffs_of(y) is None:
                ok = False
            seen.add(y)
    near = oracle.enumerate_ball(lat, t, math.sqrt(radius ** 2 - float(s) ** 2))
    expect = {tuple(q.ambient) for q in near}
    ok = ok and expect == seen
    return [_record("reductions/embedding-sanity", ok, len(seen), len(expect),
                    cfg.seed)]


def check_grid_coverage(cfg: RunConfig):
    """The 1.01 grid passes within one step of the optimal width whenever the
    optimal width lies at or below the grid start."""
    bad = 0
    flagged = False
    for n in (4, 8, 10, 16, 32, 64):
        s_star = optimal_svp_param(1.0, n)
        lo_d = max(1.0, s_star)
        if s_star > 1.0 and n >= 10:
            bad += 1  # the optimum should sit below lambda1 from here on
        for d in np.geomspace(lo_d, 2 ** (n / 2), 25):
            i = round(math.log(d / s_star) / math.log(1.01))
            covered = (0 <= i <= 100 * n
                       and abs(math.log(d * 1.01 ** (-i) / s_star)) <= math.log(1.01) / 2 + 1e-12)
            if not covered:
                bad += 1
        if n < 10 and s_star > 1.0:
            flagged = True  # small-rank range restricted to d >= optimal width
    return [_record("reductions/grid-coverage", bad == 0, bad, 0, cfg.seed,
                    "small-rank range restricted" if flagged else "",
                    flag_only=False)]


# ---------------------------------------------------------------------------
# registry / runner

SUITES = {
    "structural": [check_unimodularity, check_duality_involution,
                   check_coset_partition, check_tower_invariants,
                   check_superlattice_distribution],
    "identities": [check_square_identity, check_banaszczyk_growth,
                   check_tail_bound, check_smoothing_ratio,
                   check_double_smoothing, check_lambda1_eta_duality,
                   check_lambda1_brute_force],
    "samplers": [check_klein_exactness, check_klein_basis_independence,
                 check_start_gauss_short_vectors],
    "resamplers": [check_prob_transforms, check_square_sample_size_law,
                   check_sqrt_coin_exact, check_conservation,
                   check_failure_flags],
    "combiners": [check_rotation_identity, check_exact_conditional_law,
                  check_honesty, check_determinism, check_all_or_quota],
    "reductions": [check_svp_exact, check_covariance_separation,
                   check_cvp_bound, check_embedding_sanity,
                   check_grid_coverage],
}


def run_suite(suite: str, cfg: RunConfig, scale: float = 1.0) -> list[CheckRecord]:
    """Run one suite (or "all"); scale < 1 shrinks the trial counts."""
    names = list(SUITES) if suite == "all" else [suite]
    records: list[CheckRecord] = []
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        for check in SUITES[name]:
            records.extend(_run_scaled(check, cfg, scale))
    return sorted(records, key=lambda r: r.name)


def _run_scaled(check, cfg: RunConfig, scale: float):
    import inspect
    if scale >= 1.0:
        return check(cfg)
    sig = inspect.signature(check)
    kwargs = {}
    for pname, param in sig.parameters.items():
        if pname in ("trials", "seeds", "runs", "runs_per_s", "instances",
                     "n_lattices", "draws", "pairs") and param.default is not inspect.Parameter.empty:
            kwargs[pname] = max(2, int(param.default * scale))
    return check(cfg, **kwargs)


def summarize(records: list[CheckRecord]) -> dict:
    return {
        "total": len(records),
        "pass": sum(r.status == "pass" for r in records),
        "fail": sum(r.status == "fail" for r in records),
        "flag": sum(r.status == "flag" for r in records),
    }
