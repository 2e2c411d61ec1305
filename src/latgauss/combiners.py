"""Gaussian combiners and end-to-end samplers.

combine_halve averages same-coset pairs selected through the square sampler,
stepping the parameter down by sqrt(2) while staying in the lattice.
sqrt_combine sums same-coset pairs (landing in the sublattice, parameter up
by sqrt(2)) and then corrects the residual coset weights with the square-root
sampler, guarded by the two smoothness tests.  tower_pipeline iterates that
up a tower, and smooth_dgs wraps it into an honest sampler that either
delivers the full quota or returns nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .lattices import Basis, CosetMap, Tower, int_inverse, make_tower, \
    random_superlattice, reduce_basis, sublattice_transform, gram_schmidt, transform_index
from .profiles import DESK_ELL_MAX, DESK_TOWER_ELL, SIZE_SAFETY, SMOOTH_SIZE_SAFETY, \
    Profile, get_profile
from .resamplers import ElementStream, ProbVector, square_sample, \
    sqrt_sample, ratio_check, desk_tau, _occurrence_index
from .samplers import PreconditionError, SampleBatch, prefix_rank, start_gauss

M_HARD_CAP = 300_000_000  # refuse harness sizes beyond this many base samples


@dataclass(frozen=True)
class CombinerConfig:
    kappa: float = 20.0
    ell: int = 1
    profile: str = "desk"

    def __post_init__(self):
        if self.kappa < 2:
            raise ValueError("kappa must be >= 2")
        if self.ell < 0:
            raise ValueError("ell must be >= 0")


@dataclass
class HonestBatch:
    """All-or-quota sample delivery: produced_m is 0 or requested_m."""

    batch: SampleBatch
    requested_m: int
    produced_m: int
    below_smoothing_flag: bool = False

    def __post_init__(self):
        if self.produced_m not in (0, self.requested_m):
            raise ValueError("produced_m must be 0 or requested_m")
        if self.produced_m and len(self.batch) != self.produced_m:
            raise ValueError("batch length disagrees with produced_m")

    def __len__(self):
        return self.produced_m


def _empty_batch(basis: Basis, s: float, source: str, tv: float = 0.0,
                 degenerate: bool = False) -> SampleBatch:
    return SampleBatch(np.zeros((0, basis.d), dtype=np.int64), basis, s, source,
                       claimed_tv_error=min(1.0, tv), degenerate=degenerate)


def _occurrence_positions(labels: np.ndarray, picks: np.ndarray, n: int,
                          per: int = 1, base_index: int = 0) -> np.ndarray | None:
    """Positions in labels of the occurrences per*occ(t), ..., per*occ(t)+per-1
    of the label picks[t], where occ(t) counts the earlier picks of that label.

    Returns a (len(picks), per) array shifted by base_index, or None if some
    label occurs fewer times than picks needs.  labels is scanned left to
    right in chunks, stopping once every label has its quota.
    """
    need = per * np.bincount(picks, minlength=n)
    found: list[list[np.ndarray]] = [[] for _ in range(n)]
    have = np.zeros(n, dtype=np.int64)
    chunk = 1 << 22
    for start in range(0, len(labels), chunk):
        seg = labels[start:start + chunk]
        for i in range(n):
            if have[i] >= need[i]:
                continue
            pos = np.flatnonzero(seg == i)[: need[i] - have[i]]
            if len(pos):
                found[i].append(pos + start)
                have[i] += len(pos)
        if (have >= need).all():
            break
    if (have < need).any():
        return None
    flat = np.concatenate([p for f in found for p in f] or [np.zeros(0, dtype=np.int64)])
    first = np.cumsum(need)[picks] - need[picks] + per * _occurrence_index(picks, n)
    return flat[first[:, None] + np.arange(per)] + base_index


def _same_coset_pair_sums(kappa: float, cmap: CosetMap, coeffs: np.ndarray,
                          rng: np.random.Generator,
                          prof: Profile) -> tuple[np.ndarray | None, str | None]:
    """Sums of the same-coset pairs of rows that the square sampler selects
    over the rows' coset labels: (sums, None), or (None, failed stage)."""
    labels = cmap.label_ids(coeffs)
    res = square_sample(kappa, ElementStream(labels, cmap.index), rng, prof)
    if res.failed or len(res) == 0:
        return None, "square"
    pos = _occurrence_positions(labels, res.items, cmap.index, per=2)
    if pos is None:  # cannot happen per the count-accounting guarantee
        return None, "pairing"
    return coeffs[pos[:, 0]] + coeffs[pos[:, 1]], None


def combine_halve(lat: Basis, kappa: float, batch: SampleBatch,
                  rng: np.random.Generator,
                  profile: "str | Profile | None" = None) -> SampleBatch:
    """Average same-coset pairs chosen by the square sampler: D_{L,s} at the
    input becomes D_{L, s/sqrt(2)} at the output."""
    prof = get_profile(profile)
    if batch.basis != lat:
        raise PreconditionError("input batch is not expressed in the target lattice basis")
    if kappa < 2:
        raise PreconditionError("kappa must be >= 2")
    out_s = batch.param / math.sqrt(2)
    total, _ = _same_coset_pair_sums(kappa, CosetMap(lat, lat.scale(2)), batch.coeffs,
                                     rng, prof)
    if total is None:
        return _empty_batch(lat, out_s, "combiner", batch.claimed_tv_error)
    if (total & 1).any():
        raise AssertionError("paired samples disagree mod 2L")
    tv = batch.claimed_tv_error + len(total) / math.factorial(int(kappa))
    return SampleBatch(total >> 1, lat, out_s, "combiner", claimed_tv_error=min(1.0, tv))


def general_pipeline(lat: Basis, cfg: CombinerConfig, batch: SampleBatch,
                     rng: np.random.Generator) -> SampleBatch:
    """cfg.ell sequential halving steps; the paper profile enforces the
    conservative input size and trims the output to the square-root quota."""
    prof = get_profile(cfg.profile)
    if prof.paper_rules:
        needed = (32 * cfg.kappa) ** (cfg.ell + 1) * 2 ** lat.d
        if len(batch) < needed:
            raise PreconditionError(
                f"pipeline requires {needed:.3g} input samples, got {len(batch)}")
    cur = batch
    for _ in range(cfg.ell):
        cur = combine_halve(lat, cfg.kappa, cur, rng, prof)
        if len(cur) == 0:
            return cur
    if prof.paper_rules:
        quota = int(2 ** (lat.d / 2))
        if len(cur) < quota:
            return _empty_batch(lat, cur.param, "combiner", cur.claimed_tv_error)
        cur = cur.take(quota)
    return cur


def _pow2_in(lo: float, hi: float) -> list[float]:
    out = []
    e = math.floor(math.log2(hi)) + 1
    while 2.0 ** e >= lo / 2:
        v = 2.0 ** e
        if lo <= v <= hi:
            out.append(v)
        e -= 1
    return out


def _worst_pmax_hat(p: ProbVector) -> float:
    """Largest power of two the halving estimator can return inside its
    guarantee (it never exceeds its starting value 1)."""
    cands = [c for c in _pow2_in(p.p_max, 4 * p.p_max) if c <= 1.0]
    return max(cands) if cands else 1.0


def _square_stage_yield(lat: Basis, sub: Basis, s: float, kappa: float) -> float:
    """Expected output fraction of one halving step, sized for the worst
    admissible p_max estimate."""
    try:
        probs, _ = oracle.coset_weights(lat, sub, s)
        pv = ProbVector(probs)
        return pv.p_col / (6 * kappa * _worst_pmax_hat(pv))
    except oracle.OracleLimitError:
        n = 2 ** lat.d
        return 1.0 / (6 * kappa * n)  # p_col >= 1/N and p_hat <= 1


def general_dgs(lat: Basis, s: float, kappa: float, rng: np.random.Generator,
                profile: "str | Profile | None" = None,
                m_target: int = 256) -> SampleBatch:
    """General sampler at any parameter: seed samples at a raised parameter,
    then halve down the required number of times."""
    prof = get_profile(profile)
    if not (s > 0):
        raise PreconditionError("s must be positive")
    if prof.paper_rules and kappa < lat.d:
        raise PreconditionError("this profile requires kappa >= rank")
    red = reduce_basis(lat, "lll")
    thr = prof.gpv_threshold(gram_schmidt(red).max_gs_norm, red.d)
    if prof.paper_rules:
        ell = 4 * math.ceil(math.log(max(kappa, 2)) + math.log(max(lat.d, 2)) ** 2)
    else:
        ell = next((e for e in range(DESK_ELL_MAX + 1) if 2 ** (e / 2) * s >= thr),
                   DESK_ELL_MAX)
    shat = 2 ** (ell / 2) * s
    # harness-chosen input size: invert the per-stage yield estimates
    yield_total = 1.0
    for i in range(ell):
        stage_s = shat / 2 ** (i / 2)
        yield_total *= _square_stage_yield(lat, lat.scale(2), stage_s, kappa)
    m_in = int(math.ceil(m_target * SIZE_SAFETY / yield_total))
    if prof.paper_rules:
        m_in = int((32 * kappa) ** (ell + 2) * 2 ** lat.d)
    if m_in > M_HARD_CAP:
        raise PreconditionError(
            f"required input size {m_in:.3g} exceeds the practical cap; "
            "use the desk profile or a larger parameter")
    # a proper seed prefix would put every sample on a sublattice of lat
    k = prefix_rank(red, shat, prof)
    if k < red.d:
        return _empty_batch(lat, s, "combiner", degenerate=k == 0)
    sub, batch = start_gauss(lat, 2, m_in, shat, rng, prof)
    out = general_pipeline(sub, CombinerConfig(kappa=kappa, ell=ell, profile=prof.name),
                           batch, rng)
    if len(out) == 0:
        return _empty_batch(lat, s, "combiner", out.claimed_tv_error)
    # express the points in the requested basis
    t = np.array([lat.coeffs_of(row) for row in sub.rows], dtype=np.int64)
    return SampleBatch(out.coeffs @ t, lat, out.param, out.source,
                       out.claimed_tv_error)


# ---------------------------------------------------------------------------
# square-root side

def sqrt_combine(lat: Basis, sub: Basis, kappa: float, batch: SampleBatch,
                 rng: np.random.Generator,
                 profile: "str | Profile | None" = None) -> HonestBatch:
    """Sum same-coset pairs into the sublattice and square-root-correct the
    residual coset weights; honest: any failed smoothness test yields an
    empty batch, never a wrong-distribution one."""
    prof = get_profile(profile)
    if batch.basis != lat:
        raise PreconditionError("input batch is not expressed in the base lattice")
    s = batch.param
    out_s = s * math.sqrt(2)
    n_amb = lat.d
    t_mat = sublattice_transform(lat, sub)  # sub = t @ lat
    idx = transform_index(t_mat)
    a = idx.bit_length() - 1
    if 2 ** a != idx:
        raise PreconditionError("sublattice index is not a power of two")
    if 2 ** a < 2 ** (n_amb / 2) - 1e-9:
        raise PreconditionError("sublattice index below 2^{n/2}")
    sublattice_transform(sub, lat.scale(2))  # 2L subseteq sub

    def fail(reason: str) -> HonestBatch:
        return HonestBatch(_empty_batch(sub, out_s, "smooth", batch.claimed_tv_error),
                           requested_m=0, produced_m=0, below_smoothing_flag=True)

    m_in = len(batch)
    zsum, stage = _same_coset_pair_sums(kappa, CosetMap(lat, sub), batch.coeffs, rng, prof)
    if zsum is None:
        return fail(stage)
    tinv, den = int_inverse(t_mat)
    w_num = zsum @ np.array(tinv, dtype=np.int64)
    if (w_num % den).any():
        raise AssertionError("summed pair left the sublattice")
    ys = w_num // den  # coefficients w.r.t. sub
    q = len(ys)

    # smoothness test 1: combined yield
    if q < m_in / (32 * kappa * math.sqrt(prof.t_smooth)):
        return fail("size-test")
    # smoothness test 2: coset ratio mod 2L over the first half
    cmap2 = CosetMap(sub, lat.scale(2))
    dlabels = cmap2.label_ids(ys)
    half = q // 2
    if not ratio_check(prof.t_ratio, ElementStream(dlabels[:half], cmap2.index)):
        return fail("ratio-test")
    res2 = sqrt_sample(kappa, prof.t_ratio, ElementStream(dlabels[half:], cmap2.index),
                       rng, prof)
    if res2.failed or len(res2) == 0:
        return fail("sqrt")
    emitted = res2.items
    if prof.paper_rules:
        target = int(m_in / (prof.c_sqrt * kappa ** 4))
        if len(emitted) < target or target == 0:
            return fail("quota")
        emitted = emitted[:target]
    pick = _occurrence_positions(dlabels[half:], emitted, cmap2.index, base_index=half)
    if pick is None:
        return fail("matching")
    tv = batch.claimed_tv_error + q / math.factorial(int(kappa))
    out_batch = SampleBatch(ys[pick[:, 0]], sub, out_s, "smooth",
                            claimed_tv_error=min(1.0, tv))
    return HonestBatch(out_batch, requested_m=len(out_batch), produced_m=len(out_batch))


def tower_pipeline(tower: Tower, kappa: float, batch: SampleBatch,
                   rng: np.random.Generator,
                   profile: "str | Profile | None" = None) -> HonestBatch:
    """Climb the tower with one sqrt_combine per level; the first empty
    level ends the climb.  ell == 0 returns the input."""
    prof = get_profile(profile)
    if prof.paper_rules:
        needed = (prof.c_sqrt * kappa ** 4) ** (tower.ell + 1) * 2 ** tower.a
        if len(batch) < needed:
            raise PreconditionError(
                f"tower pipeline requires {needed:.3g} input samples, got {len(batch)}")
    hb = HonestBatch(batch, requested_m=len(batch), produced_m=len(batch))
    for i in range(tower.ell):
        hb = sqrt_combine(tower.levels[i], tower.levels[i + 1], kappa, hb.batch, rng, prof)
        if hb.produced_m == 0:
            break
    return hb


def _sqrt_chain_yield(l0: Basis, l1: Basis, two_l0: Basis, shat: float,
                      kappa: float, prof: Profile) -> float:
    """Expected emitted fraction of one sqrt_combine step at width shat."""
    try:
        probs1, _ = oracle.coset_weights(l0, l1, shat)
        pv1 = ProbVector(probs1)
        sq_yield = pv1.p_col / (6 * kappa * _worst_pmax_hat(pv1))
        probs2, _ = oracle.coset_weights(l1, two_l0, shat * math.sqrt(2))
        pv2 = ProbVector(probs2)
        n2 = len(probs2)
        p2hat = _worst_pmax_hat(pv2)
        ratio = pv2.p_max / max(pv2.p_min, 1e-30)
        tau = desk_tau(kappa, n2, p2hat, ratio, prof.t_ratio)
        accept = np.sqrt(np.maximum(pv2.probs, 0) / (kappa * p2hat)).sum()
        # q' elements -> J = q' p2hat / 3 windows -> J // tau blocks per element
        emit_per_qprime = (p2hat / (3 * tau)) * accept
        return sq_yield * 0.5 * emit_per_qprime
    except oracle.OracleLimitError:
        return 1.0 / (6 * kappa * 2 ** l0.d) * 0.5 / (kappa ** 2)


def smooth_dgs(lat: Basis, s: float, m: int, kappa: float,
               rng: np.random.Generator,
               profile: "str | Profile | None" = None) -> HonestBatch:
    """Honest sampler above roughly sqrt(2) * eta_{1/2}: delivers exactly m
    samples of D_{L, s} or (legitimately, below that width) nothing."""
    prof = get_profile(profile)
    if not (s > 0):
        raise PreconditionError("s must be positive")
    if m < 0:
        raise PreconditionError("m must be >= 0")
    if prof.paper_rules and kappa < lat.d:
        raise PreconditionError("this profile requires kappa >= rank")
    n = lat.d
    if lat.n != n:
        raise PreconditionError("full-rank lattice required")
    empty = HonestBatch(_empty_batch(lat, s, "smooth"), requested_m=m,
                        produced_m=0, below_smoothing_flag=True)
    if m == 0:
        return empty
    if prof.paper_rules:
        a = min(max(int(math.ceil(n / 2 + n / max(math.log(n), 1.0))), (n + 1) // 2), n - 1)
        ell = max(1, int(math.ceil(math.log(max(n, 2)) ** 4)))
    else:
        a = min((n + 1) // 2 + 1, n - 1)
        ell = DESK_TOWER_ELL
    if a < 1:
        raise PreconditionError("lattice rank too small for a tower")
    attempts = max(1, int(kappa))
    m_base: int | None = None
    for attempt in range(attempts):
        lprev = random_superlattice(lat, a, rng)
        tower = make_tower(lat, lprev, a, ell)
        shat = 2 ** (-ell / 2) * s
        # before paying for the seed batch: a proper seed prefix would put
        # every sample on a sublattice of L_0
        l0red = reduce_basis(tower.levels[0], "lll")
        if prefix_rank(l0red, shat, prof) < l0red.d:
            continue
        if m_base is None:
            yield_total = 1.0
            for i in range(ell):
                stage_s = shat * 2 ** (i / 2)
                yield_total *= _sqrt_chain_yield(tower.levels[i], tower.levels[i + 1],
                                                 tower.levels[i].scale(2), stage_s,
                                                 kappa, prof)
            m_base = int(math.ceil(m * SMOOTH_SIZE_SAFETY / max(yield_total, 1e-12)))
        if prof.paper_rules:
            m_base = int((prof.c_sqrt * kappa ** 4) ** (ell + 1) * 2 ** a)
        if m_base > M_HARD_CAP:
            return empty  # cannot honestly deliver at feasible size
        # start_gauss reduces L_0 to l0red again, so its prefix is all of it
        sub, base = start_gauss(tower.levels[0], 2, m_base, shat, rng, prof)
        # express the seed batch in the tower's own basis of L_0
        t0 = np.array(sublattice_transform(tower.levels[0], sub), dtype=np.int64)
        base = SampleBatch(base.coeffs @ t0, tower.levels[0], base.param,
                           base.source, base.claimed_tv_error)
        hb = tower_pipeline(tower, kappa, base, rng, prof)
        if hb.produced_m >= m:
            out = hb.batch.take(m)
            out = SampleBatch(out.coeffs, out.basis, out.param, "smooth",
                              out.claimed_tv_error)
            return HonestBatch(out, requested_m=m, produced_m=m)
        if hb.produced_m > 0 or not hb.below_smoothing_flag:
            # yield shortfall rather than a failed smoothness test: try a
            # larger seed batch next attempt
            m_base = min(M_HARD_CAP, m_base * 2)
    return empty
