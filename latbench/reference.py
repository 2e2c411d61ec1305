"""Reference computations for the benchmark's output checks.

Nothing here imports latgauss: every expected value is computed from the
integer bases and widths alone, so a fault in the library cannot hide in
its own reference.

* Z^2 shells and eta_{1/2}(Z^2) come from the 1-D theta series
  theta_s(Z) = sum_k exp(-pi k^2 / s^2) and the identity rho(Z^2) = rho(Z)^2.
* lambda_1 and the exact closest vector are found by brute force over the
  coefficient box |z_i - c_i| <= R * ||b*_i||, where b*_i are the dual
  vectors of an LLL-reduced basis, in integer arithmetic.
* Norm-shell weights of a general lattice are summed over the lattice points
  of a ball (Fincke-Pohst walk, which bounds each coefficient by the same
  dual-vector box one level at a time); the total mass comes from Poisson
  summation, so shells beyond the enumerated radius are known by difference.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import stats

CHI2_ALPHA = 1e-6      # false alarms stay negligible over hundreds of runs
MIN_EXPECTED = 5.0     # chi-squared bins are merged up to this expected count
MAX_BOX_CHUNK = 1 << 20
MAX_BALL_NODES = 4_000_000
BALL_POINT_BUDGET = 400_000


# ---------------------------------------------------------------------------
# Z and Z^2 from the theta series

def theta_z(s: float) -> float:
    """rho_s(Z) = sum_k exp(-pi k^2 / s^2), to double precision."""
    k = np.arange(-int(math.ceil(12 * s)) - 1, int(math.ceil(12 * s)) + 2)
    return math.fsum(np.exp(-math.pi * k * k / (s * s)).tolist())


def z2_shell_probs(s: float) -> dict[int, float]:
    """P(||x||^2 = N) for x ~ D_{Z^2, s}, keyed by N."""
    half = int(math.ceil(12 * s)) + 1
    k = np.arange(-half, half + 1)
    w1 = np.exp(-math.pi * k * k / (s * s))
    nsq = (k[:, None] ** 2 + k[None, :] ** 2).ravel()
    w = np.outer(w1, w1).ravel()
    sums = np.bincount(nsq, weights=w)
    total = theta_z(s) ** 2  # rho(Z^2) = rho(Z)^2
    return {int(n): float(sums[n] / total) for n in np.flatnonzero(sums)}


def eta_z2(eps: float) -> float:
    """Smoothing parameter of Z^2: the s with rho_{1/s}(Z^2 minus 0) = eps."""
    def excess(s):
        return theta_z(1.0 / s) ** 2 - 1.0
    lo, hi = 0.05, 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# brute force over a dual-bounded coefficient box (integer arithmetic)

def lll_reduce(basis, delta=Fraction(3, 4)) -> np.ndarray:
    """Textbook LLL over exact rationals: an integer basis of the same
    lattice whose dual vectors are short, so that the coefficient box stays
    small even for a nearly singular input basis."""
    b = [[int(x) for x in row] for row in basis]
    n = len(b)

    def gso():
        stars, norms = [], []
        mu = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = [Fraction(x) for x in b[i]]
            for j in range(i):
                mu[i][j] = sum(x * y for x, y in zip(b[i], stars[j])) / norms[j]
                v = [vi - mu[i][j] * yj for vi, yj in zip(v, stars[j])]
            stars.append(v)
            norms.append(sum(x * x for x in v))
        return mu, norms

    mu, norms = gso()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                mu, norms = gso()
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = gso()
            k = max(k - 1, 1)
    return np.array(b, dtype=np.int64)


def _box_ranges(basis: np.ndarray, center: np.ndarray, radius: float):
    """Integer ranges covering every z with ||(z - c) B|| <= radius."""
    dual = np.linalg.pinv(basis.astype(np.float64))  # columns are the b*_i
    dn = np.linalg.norm(dual, axis=0)
    half = radius * dn * (1 + 1e-9) + 1e-9
    lo = np.ceil(center - half).astype(np.int64)
    hi = np.floor(center + half).astype(np.int64)
    return [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]


def _box_chunks(ranges):
    """Yield (k, d) coefficient arrays tiling the box."""
    d = len(ranges)
    split = d
    while split > 0 and math.prod(len(r) for r in ranges[split - 1:]) <= MAX_BOX_CHUNK:
        split -= 1
    split = min(split, d - 1) if d > 1 else 0
    tail = np.stack(np.meshgrid(*ranges[split:], indexing="ij"), axis=-1).reshape(-1, d - split)
    for head in itertools.product(*[r.tolist() for r in ranges[:split]]):
        block = np.empty((len(tail), d), dtype=np.int64)
        block[:, :split] = head
        block[:, split:] = tail
        yield block


def lambda1_sq(basis, bound_sq: int) -> int | None:
    """Squared length of a shortest nonzero vector of the integer basis,
    searched among vectors of squared length <= bound_sq; None if none."""
    b = lll_reduce(basis)
    best = None
    for z in _box_chunks(_box_ranges(b, np.zeros(b.shape[0]), math.sqrt(bound_sq))):
        x = z @ b
        nsq = np.einsum("ij,ij->i", x, x)
        nsq = nsq[nsq > 0]
        if len(nsq):
            m = int(nsq.min())
            best = m if best is None else min(best, m)
    return best if best is not None and best <= bound_sq else None


def closest_dist_sq(basis, target_num, den: int, bound: float) -> float:
    """Exact squared distance from target_num/den to the lattice of the
    integer basis, searched within distance bound of the target."""
    b = lll_reduce(basis)
    t_num = np.asarray(target_num, dtype=np.int64)
    center = (t_num / den) @ np.linalg.pinv(b.astype(np.float64))
    best = None
    for z in _box_chunks(_box_ranges(b, center, bound)):
        x = den * (z @ b) - t_num[None, :]
        m = int(np.einsum("ij,ij->i", x, x).min())
        best = m if best is None else min(best, m)
    if best is None:
        raise ValueError("no lattice point within the bound")
    return best / (den * den)


# ---------------------------------------------------------------------------
# Gaussian norm shells of a general lattice

def ball_coeffs(basis: np.ndarray, radius_sq: float) -> np.ndarray:
    """All z with ||z B||^2 <= radius_sq (float walk, slightly inflated; the
    caller filters with exact norms)."""
    b = np.asarray(basis, dtype=np.float64)
    d = b.shape[0]
    # B = mu @ Q with orthogonal rows of Q: Gram-Schmidt via QR of B^T
    q, r = np.linalg.qr(b.T)
    gs = np.diag(r).copy()
    mu = (r / gs[:, None]).T  # mu[i, j] = <b_i, b~_j> / ||b~_j||^2, mu[i, i] = 1
    gs_sq = gs * gs
    rsq = radius_sq * (1 + 1e-9) + 1e-9
    zs = np.zeros((1, d), dtype=np.int64)
    pnorm = np.zeros(1)
    for i in range(d - 1, -1, -1):
        ci = -(zs[:, i + 1:] @ mu[i + 1:, i]) if i < d - 1 else np.zeros(len(zs))
        ri = np.sqrt(np.maximum(rsq - pnorm, 0.0) / gs_sq[i])
        lo = np.ceil(ci - ri).astype(np.int64)
        hi = np.floor(ci + ri).astype(np.int64)
        cnt = np.maximum(hi - lo + 1, 0)
        total = int(cnt.sum())
        if total > MAX_BALL_NODES:
            raise ValueError(f"ball walk exceeds {MAX_BALL_NODES} nodes")
        idx = np.repeat(np.arange(len(zs)), cnt)
        starts = np.repeat(np.cumsum(cnt) - cnt, cnt)
        zi = lo[idx] + (np.arange(total) - starts)
        zs = zs[idx]
        zs[:, i] = zi
        dev = zi - ci[idx]
        pnorm = pnorm[idx] + dev * dev * gs_sq[i]
        keep = pnorm <= rsq
        zs, pnorm = zs[keep], pnorm[keep]
    return zs


def gaussian_mass(basis, s: float) -> float:
    """rho_s(L) by Poisson summation: s^d / det(L) * rho_{1/s}(L*)."""
    b = np.asarray(basis, dtype=np.float64)
    d = b.shape[0]
    gram = b @ b.T
    det = math.sqrt(np.linalg.det(gram))
    dual = np.linalg.solve(gram, b)
    rad_sq = 40.0 * math.log(10) / (math.pi * s * s)  # dual terms below 1e-40
    w = ball_coeffs(dual, rad_sq) @ dual
    dual_sum = math.fsum(np.exp(-math.pi * s * s * np.einsum("ij,ij->i", w, w)).tolist())
    return s ** d / det * dual_sum


def shell_edges(d: int, s: float, n_bins: int) -> np.ndarray:
    """Half-integer squared-norm edges near the continuous chi^2_d quantiles."""
    q = stats.chi2.ppf(np.arange(1, n_bins) / n_bins, d) * s * s / (2 * math.pi)
    return np.unique(np.floor(q) + 0.5)


def lattice_shell_probs(basis, s: float, n_bins: int = 12):
    """(edges, probs) for the squared norm of x ~ D_{L, s} over an integer
    basis: bin k holds edges[k-1] < N < edges[k], the last bin is open.

    Points are enumerated up to a radius that keeps the walk within
    BALL_POINT_BUDGET; bins beyond it are merged into the open last bin,
    whose weight is the Poisson total minus the enumerated ones.
    """
    b = np.asarray(basis, dtype=np.int64)
    d = b.shape[0]
    det = math.sqrt(np.linalg.det((b @ b.T).astype(np.float64)))
    vol_unit = math.pi ** (d / 2) / math.gamma(d / 2 + 1)
    r_budget_sq = (BALL_POINT_BUDGET * det / vol_unit) ** (2 / d)
    r_mass_sq = stats.chi2.ppf(1 - 1e-12, d) * s * s / (2 * math.pi)
    edges = shell_edges(d, s, n_bins)
    edges = edges[edges <= min(r_budget_sq, r_mass_sq)]
    if len(edges) == 0:
        raise ValueError("enumeration radius below the first shell edge")
    zs = ball_coeffs(b, float(edges[-1]))
    x = zs @ b
    nsq = np.einsum("ij,ij->i", x, x)
    w = np.exp(-math.pi * nsq / (s * s))
    inside = nsq < edges[-1]
    sums = np.bincount(np.searchsorted(edges, nsq[inside]), weights=w[inside],
                       minlength=len(edges))
    total = gaussian_mass(b, s)
    probs = np.append(sums / total, max(0.0, 1.0 - sums.sum() / total))
    return edges, probs


# ---------------------------------------------------------------------------
# statistical tests

def chi2_pvalue(observed, probs) -> float:
    """Goodness of fit of counts to probabilities, merging consecutive
    categories until each bin expects MIN_EXPECTED draws."""
    observed = np.asarray(observed, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    n = observed.sum()
    obs_bins, exp_bins = [], []
    acc_o = acc_e = 0.0
    for o, p in zip(observed, probs):
        acc_o += o
        acc_e += p * n
        if acc_e >= MIN_EXPECTED:
            obs_bins.append(acc_o)
            exp_bins.append(acc_e)
            acc_o = acc_e = 0.0
    if exp_bins:
        obs_bins[-1] += acc_o
        exp_bins[-1] += acc_e
    if len(exp_bins) < 2:
        return 1.0
    o = np.array(obs_bins)
    e = np.array(exp_bins)
    stat = float(((o - e) ** 2 / e).sum())
    return float(stats.chi2.sf(stat, len(e) - 1))


def z2_shell_pvalue(norms_sq, s: float) -> float:
    """Chi-squared of observed Z^2 squared norms against the theta shells;
    norms outside the table's support fall in the last category."""
    table = z2_shell_probs(s)
    keys = sorted(table)
    index = {k: i for i, k in enumerate(keys)}
    counts = np.zeros(len(keys) + 1)
    for n in np.asarray(norms_sq).tolist():
        counts[index.get(int(n), len(keys))] += 1
    probs = [table[k] for k in keys] + [0.0]
    return chi2_pvalue(counts, probs)


def sign_balance_pvalue(pos, neg) -> float:
    """x and -x must be equally likely: the smallest two-sided binomial
    p-value of the positive against the negative count on each axis,
    Bonferroni-corrected over the axes."""
    worst = 1.0
    for p, n in zip(np.asarray(pos).tolist(), np.asarray(neg).tolist()):
        if p + n:
            worst = min(worst, stats.binomtest(int(p), int(p + n), 0.5).pvalue)
    return min(1.0, worst * len(pos))
