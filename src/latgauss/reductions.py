"""Problem-level reductions: SVP search over a parameter grid, the GapSVP
covariance test on dual samples, and approximate CVP by embedding the target
as an extra basis row.

Oracles are pluggable sample providers so the reductions can run against the
exact desk-scale sampler or the combiner pipelines interchangeably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol

import numpy as np

from . import exactlin as xl
from . import oracle as _oracle
from .lattices import Basis, LatticePoint, dual_basis, reduce_basis
from .profiles import Profile, get_profile
from .samplers import SampleBatch, PreconditionError


@dataclass(frozen=True)
class ReductionConstants:
    beta: float = 2.0 ** 0.401
    cvp_alpha: float = math.sqrt(2 * math.pi / math.log(2))
    cvp_t: float = 0.654
    cvp_gamma: float = 1.97
    gapsvp_eps: float = 0.05

    @property
    def beta_sq(self) -> float:
        return self.beta ** 2

    def svp_s_factor(self, n: int) -> float:
        """Per-lambda_1 multiplier sqrt(2 pi e / (beta^2 n))."""
        return math.sqrt(2 * math.pi * math.e / (self.beta_sq * n))

    def cvp_delta(self, n: int) -> float:
        return 1.0 / n

    def gapsvp_threshold(self, eps: float, n: int) -> float:
        return eps * math.log(1.0 / eps) / (10.0 * n)

    def gapsvp_width(self, eps: float, d: float) -> float:
        return math.sqrt(math.log(1.0 / eps) / math.pi) / d


CONSTANTS = ReductionConstants()


class DgsProvider(Protocol):
    """Batch sampler interface used by the reductions."""

    def __call__(self, basis: Basis, s: float, count: int,
                 rng: np.random.Generator) -> SampleBatch: ...


def exact_provider(basis: Basis, s: float, count: int,
                   rng: np.random.Generator) -> SampleBatch:
    return _oracle.exact_dgs_sample(basis, s, count, rng)


def make_general_provider(kappa: float = 20.0, profile: str = "desk") -> DgsProvider:
    from .combiners import general_dgs

    def provider(basis: Basis, s: float, count: int, rng: np.random.Generator):
        batch = general_dgs(basis, s, kappa, rng, profile, m_target=count)
        return batch.take(min(len(batch), count))
    return provider


def make_smooth_provider(kappa: float = 20.0, profile: str = "desk") -> DgsProvider:
    """Honest provider: under-delivery is visible as a short batch."""
    from .combiners import smooth_dgs

    def provider(basis: Basis, s: float, count: int, rng: np.random.Generator):
        hb = smooth_dgs(basis, s, count, kappa, rng, profile)
        return hb.batch
    return provider


def optimal_svp_param(lambda1_value: float, n: int,
                      constants: ReductionConstants = CONSTANTS) -> float:
    """The grid target width: shortest-vector mass is near-maximal there."""
    if lambda1_value <= 0 or n < 1:
        raise ValueError("need lambda1 > 0 and n >= 1")
    return constants.svp_s_factor(n) * lambda1_value


@dataclass
class SvpResult:
    point: LatticePoint | None
    norm: float
    failed: bool

    def __iter__(self):
        yield self.norm
        yield self.point


def solve_svp(basis: Basis, provider: DgsProvider, trials_per_param: int,
              rng: np.random.Generator, grid_steps: int | None = None) -> SvpResult:
    """Shortest-vector search: request batches along the geometric grid
    s_i = 1.01^-i * d and keep the shortest nonzero sample seen."""
    red = reduce_basis(basis, "lll")
    d0 = math.sqrt(float(xl.norm_sq(red.rows[0])))
    steps = 100 * basis.d if grid_steps is None else grid_steps
    best: tuple[Fraction, tuple[int, ...]] | None = None
    gram = basis.gram
    for i in range(steps + 1):
        s_i = d0 * 1.01 ** (-i)
        batch = provider(basis, s_i, trials_per_param, rng)
        if len(batch) == 0:
            continue
        coeffs = batch.coeffs
        nz = coeffs.any(axis=1)
        if not nz.any():
            continue
        cand = coeffs[nz]
        # float pre-screen, exact compare on the screened few
        amb = cand @ basis.float_rows
        nsq = np.einsum("ij,ij->i", amb, amb)
        cutoff = nsq.min() * (1 + 1e-9)
        if best is not None:
            cutoff = min(cutoff, float(best[0]) * (1 + 1e-9))
        for row in cand[nsq <= cutoff]:
            z = tuple(int(x) for x in row)
            exact = sum(z[a] * z[b] * gram[a][b]
                        for a in range(len(z)) for b in range(len(z)))
            if best is None or (exact, z) < best:
                best = (exact, z)
    if best is None:
        return SvpResult(None, math.inf, failed=True)
    nsq, z = best
    first = next(x for x in z if x != 0)
    if first < 0:
        z = tuple(-x for x in z)
    return SvpResult(LatticePoint(z, basis), math.sqrt(float(nsq)), failed=False)


# ---------------------------------------------------------------------------
# GapSVP

@dataclass(frozen=True)
class CovarianceStat:
    sigma_hat: np.ndarray
    statistic: float
    m: int
    s: float


def covariance_statistic(batch: SampleBatch) -> CovarianceStat:
    """Spectral distance between the scaled sample second moment and the
    isotropic target 1/(2 pi) I."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    amb = batch.ambient_float()
    m, n = amb.shape
    sigma = (amb.T @ amb) / m
    s = batch.param
    mat = np.eye(n) / (2 * math.pi) - sigma / (s * s)
    return CovarianceStat(sigma, float(np.abs(np.linalg.eigvalsh(mat)).max()), m, s)


def decide_gapsvp(basis: Basis, d: float, eps: float, provider: DgsProvider,
                  m: int, rng: np.random.Generator,
                  constants: ReductionConstants = CONSTANTS) -> bool:
    """True (yes) when the evidence says lambda_1 < d.

    Requests m dual samples at the eps-calibrated width; under-delivery or a
    covariance statistic at or above the threshold answers yes.
    """
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    if d <= 0:
        raise ValueError("d must be positive")
    s = constants.gapsvp_width(eps, d)
    dual = dual_basis(basis)
    batch = provider(dual, s, m, rng)
    if len(batch) < m:
        return True
    stat = covariance_statistic(batch)
    return stat.statistic >= constants.gapsvp_threshold(eps, basis.d)


# ---------------------------------------------------------------------------
# approximate CVP

@dataclass
class CvpResult:
    point: LatticePoint | None
    distance: float
    failed: bool


def approx_cvp(basis: Basis, target, provider: DgsProvider,
               trials_per_param: int, rng: np.random.Generator,
               constants: ReductionConstants = CONSTANTS,
               grid_steps: int | None = None,
               profile: "str | Profile | None" = None) -> CvpResult:
    """Embed the target as an extra coordinate row and harvest short samples
    whose last coordinate is +-s_j; approximation factor 1.97 at scale."""
    prof = get_profile(profile)
    t_vec = tuple(Fraction(x) for x in target)
    n = basis.d
    if basis.n != n:
        raise PreconditionError("full-rank basis required for the embedding")
    red = reduce_basis(basis, "lll")
    z0 = _oracle.babai_nearest_plane(red, t_vec)
    diff = xl.vec_sub(red.ambient(z0), t_vec)
    d_tilde = xl.norm_sq(diff)
    if d_tilde == 0:
        # the target is a lattice point
        zb = basis.coeffs_of(t_vec)
        return CvpResult(LatticePoint(zb, basis), 0.0, failed=False)
    steps = 10 * n * n if grid_steps is None else grid_steps
    best: tuple[Fraction, tuple[int, ...]] | None = None
    ratio = Fraction(n, n + 1)  # 1/(1+delta) with delta = 1/n
    # rationalize the distance estimate once so every embedding is exact
    s_rat = Fraction(math.sqrt(float(d_tilde))).limit_denominator(10 ** 9)
    if not prof.paper_rules:
        # at small rank the productive width alpha*d/sqrt(n) sits above the
        # distance estimate, so lift the top of the descending grid to it
        lift = max(1.0, (1 + 1 / n) * constants.cvp_alpha / math.sqrt(n))
        s_rat = s_rat * Fraction(lift).limit_denominator(10 ** 6)
    for j in range(1, steps + 1):
        s_rat = s_rat * ratio
        s_j = float(s_rat)
        if s_j == 0.0:
            break
        emb_rows = [list(row) + [Fraction(0)] for row in basis.rows]
        emb_rows.append([-x for x in t_vec] + [s_rat])
        emb = Basis(emb_rows)
        batch = provider(emb, s_j, trials_per_param, rng)
        if len(batch) == 0:
            continue
        coeffs = batch.coeffs
        last = coeffs[:, -1]
        keep = np.abs(last) == 1
        if not keep.any():
            continue
        cand = coeffs[keep]
        signs = cand[:, -1:]
        cand = cand * signs  # normalize the embedding coordinate to +1
        amb = cand[:, :-1] @ basis.float_rows - np.array([float(x) for x in t_vec])
        dist_sq = np.einsum("ij,ij->i", amb, amb)
        order = np.argsort(dist_sq, kind="stable")
        row = cand[order[0], :-1]
        z = tuple(int(x) for x in row)
        exact = xl.norm_sq(xl.vec_sub(basis.ambient(z), t_vec))
        if best is None or (exact, z) < best:
            best = (exact, z)
    if best is None:
        return CvpResult(None, math.inf, failed=True)
    dsq, z = best
    return CvpResult(LatticePoint(z, basis), math.sqrt(float(dsq)), failed=False)
