"""Brute-force ground truth for desk-scale verification.

Everything here is backed by exhaustive enumeration with certified truncation
radii, so the returned quantities can anchor statistical tests of the fast
samplers.  Rank guards keep the blowup explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactlin as xl
from ._enum import enumerate_coeffs
from .lattices import (Basis, CosetMap, LatticePoint, dual_basis, gram_schmidt,
                       reduce_basis, sublattice_transform)
from .samplers import SampleBatch

ENUM_RANK_LIMIT = 12
CVP_RANK_LIMIT = 10
SMOOTHING_RANK_LIMIT = 10
COSET_INDEX_LIMIT = 4096
DGS_TV_TARGET = 1e-9


class OracleLimitError(ValueError):
    pass


@dataclass(frozen=True)
class GaussParam:
    s: float

    def __post_init__(self):
        if not (self.s > 0 and math.isfinite(self.s)):
            raise ValueError("Gaussian width must be positive and finite")


def _s_value(s) -> float:
    return s.s if isinstance(s, GaussParam) else float(s)


@dataclass(frozen=True)
class RhoSum:
    value: float
    truncation_radius: float
    tail_bound: float


@dataclass(frozen=True)
class SmoothingEstimate:
    eta: float
    eps: float
    bracket: tuple[float, float]


def _tail_factor(t: float) -> float:
    """Single-dimension factor sqrt(2 pi e t^2) * exp(-pi t^2)."""
    return math.sqrt(2 * math.pi * math.e) * t * math.exp(-math.pi * t * t)


def _tail_t(d: int, budget: float) -> float:
    """Minimal t >= 0.7 with _tail_factor(t)^d <= budget."""
    lo, hi = 0.7, 1.0
    while _tail_factor(hi) ** d > budget:
        hi *= 1.5
        if hi > 64:
            raise ValueError("tail budget unreachable")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _tail_factor(mid) ** d <= budget:
            hi = mid
        else:
            lo = mid
    return hi


def _check_rank(basis: Basis, limit: int, what: str):
    if basis.d > limit:
        raise OracleLimitError(f"{what} limited to rank <= {limit}, got {basis.d}")


def enumerate_ball(basis: Basis, center, radius) -> list[LatticePoint]:
    """All lattice points in the closed ball, sorted lexicographically by
    coefficient vector."""
    _check_rank(basis, ENUM_RANK_LIMIT, "enumeration")
    if radius < 0:
        raise ValueError("radius must be >= 0")
    c = None if center is None else tuple(Fraction(x) for x in center)
    rsq = Fraction(radius) ** 2
    zs = enumerate_coeffs(basis.rows, c, rsq)
    return [LatticePoint(tuple(int(v) for v in row), basis) for row in zs]


_support_cache: dict = {}


def _ball_coeffs_cached(basis: Basis, radius_sq_f: float) -> np.ndarray:
    """Centered enumeration with caching; reuses any cached superset."""
    key = basis.key
    cached = _support_cache.get(key)
    if cached is not None:
        rsq_have, zs, nsq = cached
        if rsq_have >= radius_sq_f:
            keep = nsq <= radius_sq_f * (1 + 1e-12) + 1e-12
            return zs[keep]
    zs = enumerate_coeffs(basis.rows, None, Fraction(radius_sq_f) * (1 + Fraction(1, 10 ** 9)))
    amb = zs @ basis.float_rows
    nsq = np.einsum("ij,ij->i", amb, amb)
    if len(_support_cache) > 64:
        _support_cache.clear()
    _support_cache[key] = (radius_sq_f, zs, nsq)
    keep = nsq <= radius_sq_f * (1 + 1e-12) + 1e-12
    return zs[keep]


def rho_sum(basis: Basis | None, shift, s, tail_eps: float = 1e-12) -> RhoSum:
    """Truncated Gaussian mass sum over L + shift with a certified tail bound.

    basis None means the rank-0 lattice {0}.
    """
    s = _s_value(s)
    if tail_eps <= 0:
        raise ValueError("tail_eps must be positive")
    if basis is None:
        if shift is None:
            return RhoSum(1.0, 0.0, 0.0)
        nsq = float(sum(Fraction(x) ** 2 for x in shift))
        return RhoSum(math.exp(-math.pi * nsq / (s * s)), 0.0, 0.0)
    _check_rank(basis, ENUM_RANK_LIMIT, "rho sums")
    d = basis.d
    # rough centered estimate to scale the tail budget
    t0 = _tail_t(d, 1e-3)
    rough = _sum_shifted(basis, None, s, t0 * s * math.sqrt(d))
    rho_upper = rough / (1 - 1e-3)
    t1 = _tail_t(d, min(0.5, 0.5 * tail_eps / rho_upper))
    radius = t1 * s * math.sqrt(d)
    tail = rho_upper * _tail_factor(t1) ** d
    tail = tail / max(1e-300, 1 - _tail_factor(t1) ** d)
    shift_vec = None
    if shift is not None:
        shift_vec = tuple(Fraction(x) for x in shift)
        if all(x == 0 for x in shift_vec):
            shift_vec = None
    value = _sum_shifted(basis, shift_vec, s, radius)
    return RhoSum(value, radius, tail)


def _sum_shifted(basis: Basis, shift, s: float, radius: float) -> float:
    """fsum of rho_s over points of L + shift within the radius."""
    if shift is None:
        zs = _ball_coeffs_cached(basis, radius * radius)
        amb = zs @ basis.float_rows
        nsq = np.einsum("ij,ij->i", amb, amb)
    else:
        neg = tuple(-x for x in shift)
        zs = enumerate_coeffs(basis.rows, neg, Fraction(radius) ** 2)
        amb = zs @ basis.float_rows + np.array([float(x) for x in shift])
        nsq = np.einsum("ij,ij->i", amb, amb)
    return float(math.fsum(np.exp(-math.pi * nsq / (s * s)).tolist()))


def _dgs_support(basis: Basis, s: float):
    """Lex-sorted truncated support with CDF for exact sampling."""
    d = basis.d
    t = _tail_t(d, 0.5 * DGS_TV_TARGET)
    radius = t * s * math.sqrt(d)
    zs = _ball_coeffs_cached(basis, radius * radius)
    order = np.lexsort(zs.T[::-1])
    zs = zs[order]
    amb = zs @ basis.float_rows
    nsq = np.einsum("ij,ij->i", amb, amb)
    w = np.exp(-math.pi * nsq / (s * s))
    cdf = np.cumsum(w)
    return zs, cdf


_dgs_cache: dict = {}


def exact_dgs_sample(basis: Basis, s, count: int, rng: np.random.Generator) -> SampleBatch:
    """count i.i.d. draws within total variation 1e-9 of D_{L, s}, via
    inverse CDF over the certified truncated support."""
    s = _s_value(s)
    _check_rank(basis, ENUM_RANK_LIMIT, "exact sampling")
    key = (basis.key, s)
    if key not in _dgs_cache:
        if len(_dgs_cache) > 32:
            _dgs_cache.clear()
        _dgs_cache[key] = _dgs_support(basis, s)
    zs, cdf = _dgs_cache[key]
    u = rng.random(count) * cdf[-1]
    idx = np.searchsorted(cdf, u)
    tv = min(1.0, count * DGS_TV_TARGET)
    return SampleBatch(zs[idx], basis, s, "exact", claimed_tv_error=tv)


def lambda1(basis: Basis) -> tuple[float, LatticePoint]:
    """Exact shortest nonzero vector; ties resolved by ascending coefficient
    order (w.r.t. the input basis), sign-normalized so the first nonzero
    coefficient is positive."""
    _check_rank(basis, ENUM_RANK_LIMIT, "shortest vector")
    red = reduce_basis(basis, "lll")
    u = sublattice_transform(basis, red)  # red = u @ basis
    r0 = xl.norm_sq(red.rows[0])
    zs = enumerate_coeffs(red.rows, None, r0)
    best = None
    for row in zs:
        if not row.any():
            continue
        z_in = tuple(int(x) for x in (row @ np.array(u, dtype=np.int64)))
        nsq = LatticePoint(z_in, basis).norm_sq()
        cand = (nsq, z_in)
        if best is None or cand < best:
            best = cand
    if best is None:
        raise RuntimeError("no nonzero vector found (empty enumeration)")
    nsq, z = best
    nz = next(x for x in z if x != 0)
    if nz < 0:
        z = tuple(-x for x in z)
    return math.sqrt(float(nsq)), LatticePoint(z, basis)


def cvp_exact(basis: Basis, target) -> LatticePoint:
    """Exact closest lattice point (ties: ascending coefficient order)."""
    _check_rank(basis, CVP_RANK_LIMIT, "exact CVP")
    t = tuple(Fraction(x) for x in target)
    red = reduce_basis(basis, "lll")
    u = sublattice_transform(basis, red)
    # Babai nearest plane for an initial radius
    z0 = babai_nearest_plane(red, t)
    diff = xl.vec_sub(red.ambient(z0), t)
    r0 = xl.norm_sq(diff)
    zs = enumerate_coeffs(red.rows, t, r0)
    best = None
    umat = np.array(u, dtype=np.int64)
    for row in zs:
        z_in = tuple(int(x) for x in (row @ umat))
        diff = xl.vec_sub(basis.ambient(z_in), t)
        cand = (xl.norm_sq(diff), z_in)
        if best is None or cand < best:
            best = cand
    _, z = best
    return LatticePoint(z, basis)


def babai_nearest_plane(basis: Basis, target) -> tuple[int, ...]:
    """Exact-rational nearest-plane coefficients for the target."""
    gs = gram_schmidt(basis)
    t = list(Fraction(x) for x in target)
    d = basis.d
    z = [0] * d
    for i in range(d - 1, -1, -1):
        c = xl.dot(tuple(t), gs.gs_vectors[i]) / gs.gs_norms_sq[i]
        r = c.numerator // c.denominator
        if 2 * (c - r) > 1:
            r += 1
        z[i] = int(r)
        if r:
            t = [x - r * y for x, y in zip(t, basis.rows[i])]
    return tuple(z)


def smoothing_param(basis: Basis, eps: float) -> SmoothingEstimate:
    """Bisection for the width where the dual mass minus the origin hits eps."""
    _check_rank(basis, SMOOTHING_RANK_LIMIT, "smoothing parameter")
    if not (0 < eps < 1):
        raise ValueError("eps must lie in (0, 1)")
    red = reduce_basis(basis, "lll")
    dual = reduce_basis(dual_basis(red), "lll")

    def dual_mass(s: float) -> float:
        return rho_sum(dual, None, 1.0 / s, tail_eps=min(1e-12, eps * 1e-6)).value - 1.0

    # the dual mass decreases in s; bracket the crossing.  At the first lower
    # end, +-v for a shortest dual vector v alone carry mass 2 eps.  Below
    # the second, rho_{1/s}(L*) = det(L) s^-d rho_s(L) >= det(L) s^-d
    # (Poisson summation) exceeds 1 + eps; 0.99 keeps a margin for rounding.
    # hi is the GPV08 bound max|b~_i| sqrt(ln(2d(1 + 1/eps))/pi).
    gs = gram_schmidt(red)
    d = basis.d
    lo = max(math.sqrt(math.log(1 / eps) / math.pi) / lambda1(dual)[0],
             0.99 * (math.prod(gs.gs_norms) / (1 + eps)) ** (1 / d))
    hi = gs.max_gs_norm * math.sqrt(math.log(2 * d * (1 + 1 / eps)) / math.pi)
    if not dual_mass(lo) >= eps:
        raise RuntimeError("smoothing bracket: dual mass below eps at the lower end")
    if not dual_mass(hi) <= eps:
        raise RuntimeError("smoothing bracket: dual mass above eps at the upper end")
    while (hi - lo) > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if dual_mass(mid) >= eps:
            lo = mid
        else:
            hi = mid
    return SmoothingEstimate(0.5 * (lo + hi), eps, (lo, hi))


def coset_weights(lat: Basis, sub: Basis, s) -> tuple["np.ndarray", CosetMap]:
    """Normalized Gaussian weights of every coset of sub in lat, indexed by
    CosetMap ids (id 0 is the zero coset, which must carry maximal weight)."""
    s = _s_value(s)
    _check_rank(lat, CVP_RANK_LIMIT, "coset weights")
    cmap = CosetMap(lat, sub)
    if cmap.index > COSET_INDEX_LIMIT:
        raise OracleLimitError(f"coset index {cmap.index} exceeds {COSET_INDEX_LIMIT}")
    d = lat.d
    t = _tail_t(d, 1e-13)
    radius = t * s * math.sqrt(d)
    zs = _ball_coeffs_cached(lat, radius * radius)
    amb = zs @ lat.float_rows
    nsq = np.einsum("ij,ij->i", amb, amb)
    w = np.exp(-math.pi * nsq / (s * s))
    ids = cmap.label_ids(zs)
    sums = np.bincount(ids, weights=w, minlength=cmap.index)
    total = sums.sum()
    probs = sums / total
    if probs[0] < probs.max() - 1e-12:
        raise AssertionError("zero coset does not attain the maximal weight")
    return probs, cmap
