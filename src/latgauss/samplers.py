"""Polynomial-time discrete Gaussian samplers at large parameters.

sample_z draws a single integer from the discrete Gaussian on Z by inverse
CDF over a +-12s window (omitted mass below 2^-180).  klein_gpv_sample runs
the randomized nearest-plane procedure coefficient by coefficient; the batch
variant vectorizes it, with a product fast path for orthogonal bases where
the per-coordinate centers are identically zero and the procedure is exact.
On other bases every coordinate goes through sample_z_batch, a cache-blocked
kernel whose working memory is bounded by its block, not by rows * window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattices import Basis, LatticePoint, gram_schmidt, reduce_basis
from .profiles import TAU_Z, Profile, get_profile

Z_TAIL_MASS = 2.0 ** -180  # per-draw truncation mass at TAU_Z = 12


class PreconditionError(ValueError):
    pass


@dataclass
class SampleBatch:
    """A batch of lattice points tagged with parameter and provenance.

    Coefficients are stored row-wise against `basis`; `ambient` views are
    materialized on demand.  claimed_tv_error bounds the statistical distance
    of the joint batch distribution from the ideal product distribution.
    """

    coeffs: np.ndarray           # (m, d) int64
    basis: Basis
    param: float
    source: str                  # exact | gpv | combiner | smooth
    claimed_tv_error: float = 0.0
    degenerate: bool = False

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.int64)
        if self.coeffs.ndim != 2:
            raise ValueError("coeffs must be (m, d)")
        if self.coeffs.shape[1] != self.basis.d:
            raise ValueError("coefficient width does not match basis rank")
        if not (0.0 <= self.claimed_tv_error <= 1.0):
            raise ValueError("claimed_tv_error outside [0, 1]")

    def __len__(self):
        return self.coeffs.shape[0]

    @property
    def basis_id(self) -> bytes:
        return self.basis.key

    def points(self) -> list[LatticePoint]:
        return [LatticePoint(tuple(int(c) for c in row), self.basis) for row in self.coeffs]

    def ambient_float(self) -> np.ndarray:
        return self.coeffs @ self.basis.float_rows

    def norms_sq_float(self) -> np.ndarray:
        amb = self.ambient_float()
        return np.einsum("ij,ij->i", amb, amb)

    def take(self, m: int) -> "SampleBatch":
        return SampleBatch(self.coeffs[:m], self.basis, self.param, self.source,
                           self.claimed_tv_error, self.degenerate)


def sample_z(center: float, s: float, rng: np.random.Generator) -> int:
    """One draw from the discrete Gaussian on Z with the given center."""
    if not (s > 0):
        raise PreconditionError("s must be positive")
    lo = math.ceil(center - TAU_Z * s)
    hi = math.floor(center + TAU_Z * s)
    if lo > hi:
        return math.floor(center + 0.5)
    ks = np.arange(lo, hi + 1)
    w = np.exp(-math.pi * (ks - center) ** 2 / (s * s))
    cdf = np.cumsum(w)
    u = rng.random() * cdf[-1]
    return int(ks[int(np.searchsorted(cdf, u))])


def sample_z_batch(centers: np.ndarray, s: float, rng: np.random.Generator,
                   chunk_cells: int = 1 << 16) -> np.ndarray:
    """Vectorized sample_z with per-row centers (same s).

    Rows are drawn in blocks of about chunk_cells cells (the default keeps
    one float buffer at 512 KB, in cache).  A block is held as a
    (width, rows) array, so the CDF accumulates down axis 0 as row-to-row
    adds; its two float buffers and one bool buffer are allocated once per
    call and reused, so working memory is bounded by the block, not by
    m * width.  Each block consumes one rng.random(rows), and blocked calls
    continue a single stream, so the draws and the generator state after
    the call do not depend on chunk_cells.
    """
    centers = np.asarray(centers, dtype=np.float64)
    m = centers.shape[0]
    half = int(math.ceil(TAU_Z * s)) + 1
    width = 2 * half + 1
    out = np.empty(m, dtype=np.int64)
    block = max(1, min(m, chunk_cells // width))
    offs = np.arange(-half, half + 1, dtype=np.float64)[:, None]
    devs = np.empty(width * block)
    cdfs = np.empty(width * block)
    below = np.empty(width * block, dtype=bool)
    for start in range(0, m, block):
        c = centers[start:start + block]
        n = len(c)
        # Flat prefixes keep a short last block contiguous.
        dev = devs[:width * n].reshape(width, n)
        cdf = cdfs[:width * n].reshape(width, n)
        b = below[:width * n].reshape(width, n)
        base = np.floor(c + 0.5)
        # base + off is an integer sum rounded once, so it equals
        # float(int(base) + off); then w = ((-pi * dev) * dev) / s^2.
        np.add(base, offs, out=dev)
        np.subtract(dev, c, out=dev)
        np.multiply(dev, -math.pi, out=cdf)
        np.multiply(cdf, dev, out=cdf)
        np.divide(cdf, s * s, out=cdf)
        np.exp(cdf, out=cdf)
        # Whole-row adds, in np.cumsum's order; np.cumsum(axis=0) would scan
        # each column with a stride instead.
        for i in range(1, width):
            np.add(cdf[i - 1], cdf[i], out=cdf[i])
        u = rng.random(n) * cdf[-1]
        np.less(cdf, u, out=b)
        out[start:start + n] = base.astype(np.int64) - half + np.count_nonzero(b, axis=0)
    return out


def _shared_cdf_draws(widths_s: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draws from D_{Z, s} centered at 0 via one shared CDF."""
    half = int(math.ceil(TAU_Z * widths_s)) + 1
    ks = np.arange(-half, half + 1)
    w = np.exp(-math.pi * ks.astype(np.float64) ** 2 / (widths_s * widths_s))
    cdf = np.cumsum(w)
    u = rng.random(count) * cdf[-1]
    return ks[np.searchsorted(cdf, u)]


_joint_cache: dict = {}


def _build_alias(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias table for a finite distribution."""
    k = len(weights)
    p = weights * (k / weights.sum())
    prob = np.zeros(k)
    alias = np.zeros(k, dtype=np.int64)
    small = [i for i in range(k) if p[i] < 1.0]
    large = [i for i in range(k) if p[i] >= 1.0]
    p = p.copy()
    while small and large:
        s_i = small.pop()
        l_i = large.pop()
        prob[s_i] = p[s_i]
        alias[s_i] = l_i
        p[l_i] -= 1.0 - p[s_i]
        (small if p[l_i] < 1.0 else large).append(l_i)
    for i in large + small:
        prob[i] = 1.0
        alias[i] = i
    return prob, alias


def _orthogonal_joint_draws(gs_norms: np.ndarray, s: float, count: int,
                            rng: np.random.Generator) -> np.ndarray | None:
    """Alias-method draws over the product support of an orthogonal basis.

    One index plus one uniform per sample; None when the product table would
    be too large.
    """
    halves = [int(math.ceil(TAU_Z * s / g)) + 1 for g in gs_norms]
    widths = [2 * h + 1 for h in halves]
    total = 1
    for w in widths:
        total *= w
        if total > 1 << 16:
            return None
    key = ("joint", tuple(np.round(gs_norms, 15)), round(s, 15))
    cached = _joint_cache.get(key)
    if cached is None:
        grids = np.meshgrid(*[np.arange(-h, h + 1, dtype=np.int64) for h in halves],
                            indexing="ij")
        table = np.stack([g.ravel() for g in grids], axis=1)
        nsq = ((table * gs_norms[None, :]) ** 2).sum(axis=1)
        w = np.exp(-math.pi * nsq / (s * s))
        prob, alias = _build_alias(w)
        if len(_joint_cache) > 32:
            _joint_cache.clear()
        _joint_cache[key] = (table, prob, alias)
    else:
        table, prob, alias = cached
    idx = rng.integers(0, len(prob), size=count)
    u = rng.random(count)
    idx = np.where(u < prob[idx], idx, alias[idx])
    return table[idx]


def klein_gpv_sample(basis: Basis, s: float, rng: np.random.Generator,
                     profile: "str | Profile" = None) -> LatticePoint:
    batch = klein_gpv_batch(basis, s, 1, rng, profile)
    return batch.points()[0]


def klein_gpv_batch(basis: Basis, s: float, count: int, rng: np.random.Generator,
                    profile: "str | Profile" = None) -> SampleBatch:
    """count independent randomized-nearest-plane draws from D_{L, s}."""
    prof = get_profile(profile)
    gs = gram_schmidt(basis)
    if s < prof.gpv_threshold(gs.max_gs_norm, basis.d) * (1 - 1e-12):
        raise PreconditionError(
            f"s = {s} below threshold {prof.gpv_threshold(gs.max_gs_norm, basis.d):.6g} "
            f"(profile {prof.name})")
    d = basis.d
    zs = np.zeros((count, d), dtype=np.int64)
    gs_norms = np.array(gs.gs_norms)
    if basis.is_orthogonal():
        joint = _orthogonal_joint_draws(gs_norms, s, count, rng) if d > 1 else None
        if joint is not None:
            zs = joint
        else:
            for i in range(d):
                zs[:, i] = _shared_cdf_draws(s / gs_norms[i], count, rng)
    else:
        mu = np.array([[float(x) for x in row] for row in gs.mu])
        for i in range(d - 1, -1, -1):
            if i == d - 1:
                centers = np.zeros(count)
            else:
                centers = -(zs[:, i + 1:] @ mu[i + 1:, i])
            zs[:, i] = sample_z_batch(centers, s / gs_norms[i], rng)
    tv = min(1.0, count * d * Z_TAIL_MASS)
    return SampleBatch(zs, basis, s, "gpv", claimed_tv_error=tv)


def prefix_rank(red: Basis, s: float, prof: Profile) -> int:
    """Length of the longest prefix of red whose Gram-Schmidt norms pass the
    seed sampler's test at width s."""
    thr = prof.prefix_threshold(s, red.d) * (1 + 1e-12)
    return next((i for i, g in enumerate(gram_schmidt(red).gs_norms) if g > thr), red.d)


def start_gauss(basis: Basis, r: int, m: int, s: float, rng: np.random.Generator,
                profile: "str | Profile" = None) -> tuple[Basis | None, SampleBatch]:
    """Reduce, pick the maximal prefix with small GS norms, and sample from
    the prefix sublattice.  Returns (sublattice, batch); a zero-rank prefix
    yields (None, degenerate all-zero batch)."""
    prof = get_profile(profile)
    if basis.d < 1:
        raise PreconditionError("nonempty basis required")
    if not (2 <= r <= max(2, 8 * basis.d)):
        raise PreconditionError("reduction parameter r out of range")
    if m < 0:
        raise PreconditionError("sample count must be >= 0")
    if not (s > 0):
        raise PreconditionError("s must be positive")
    red = reduce_basis(basis, "lll")
    k = prefix_rank(red, s, prof)
    if k == 0:
        batch = SampleBatch(np.zeros((m, red.d), dtype=np.int64), red, s, "gpv",
                            degenerate=True)
        return None, batch
    sub = Basis(red.rows[:k])
    batch = klein_gpv_batch(sub, s, m, rng, prof)
    return sub, batch
