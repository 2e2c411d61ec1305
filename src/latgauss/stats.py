"""Statistical helpers shared by the verification suites and tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Chi2Result:
    p_value: float | None
    statistic: float
    dof: int
    inconclusive: bool = False

    def passes(self, alpha: float = 0.01) -> bool:
        return (not self.inconclusive) and self.p_value > alpha


def chi_squared_gof(observed, expected_probs, min_expected: float = 5.0,
                    total: int | None = None) -> Chi2Result:
    """Goodness-of-fit p-value with small-expectation merging.

    Categories whose expected count falls below min_expected are pooled into
    a tail bucket (and, if that bucket is still light, merged into the
    smallest surviving category).  Fewer than two buckets after merging is
    reported as inconclusive rather than as a pass or fail.
    """
    obs = np.asarray(observed, dtype=np.float64)
    probs = np.asarray(expected_probs, dtype=np.float64)
    if obs.shape != probs.shape:
        raise ValueError("observed and expected shapes differ")
    n = obs.sum() if total is None else total
    if n <= 0:
        return Chi2Result(None, 0.0, 0, inconclusive=True)
    psum = probs.sum()
    if psum <= 0:
        raise ValueError("expected probabilities sum to zero")
    probs = probs / psum
    exp = probs * n
    big = exp >= min_expected
    obs_b = list(obs[big])
    exp_b = list(exp[big])
    tail_o = obs[~big].sum()
    tail_e = exp[~big].sum()
    if tail_e > 0:
        if tail_e >= min_expected or not exp_b:
            obs_b.append(tail_o)
            exp_b.append(tail_e)
        else:
            i = int(np.argmin(exp_b))
            obs_b[i] += tail_o
            exp_b[i] += tail_e
    if len(exp_b) < 2:
        return Chi2Result(None, 0.0, 0, inconclusive=True)
    obs_b = np.array(obs_b)
    exp_b = np.array(exp_b)
    stat = float(((obs_b - exp_b) ** 2 / exp_b).sum())
    dof = len(exp_b) - 1
    # imported here: at module level scipy would double `import latgauss`
    from scipy.special import gammaincc
    p = float(gammaincc(dof / 2.0, stat / 2.0))
    return Chi2Result(p, stat, dof)


def chi_squared_counts(counts_a, counts_b, min_expected: float = 5.0) -> Chi2Result:
    """Two-sample homogeneity test on two count vectors."""
    a = np.asarray(counts_a, dtype=np.float64)
    b = np.asarray(counts_b, dtype=np.float64)
    tot = a + b
    keep = tot > 0
    a, b, tot = a[keep], b[keep], tot[keep]
    na, nb = a.sum(), b.sum()
    if na == 0 or nb == 0:
        return Chi2Result(None, 0.0, 0, inconclusive=True)
    probs = tot / tot.sum()
    ra = chi_squared_gof(a, probs, min_expected)
    rb = chi_squared_gof(b, probs, min_expected)
    if ra.inconclusive or rb.inconclusive:
        return Chi2Result(None, 0.0, 0, inconclusive=True)
    stat = ra.statistic + rb.statistic
    dof = ra.dof + rb.dof
    from scipy.special import gammaincc
    p = float(gammaincc(dof / 2.0, stat / 2.0))
    return Chi2Result(p, stat, dof)


def norm_shell_probs(batch_like_probs: np.ndarray, norms_sq: np.ndarray,
                     max_shells: int = 12):
    """Group support probabilities by squared norm (rounded) into shells."""
    keys = np.round(norms_sq, 9)
    uniq = np.unique(keys)
    if len(uniq) > max_shells:
        edges = np.quantile(keys, np.linspace(0, 1, max_shells + 1)[1:-1])
        idx = np.searchsorted(edges, keys)
        uniq = np.unique(idx)
        out = np.array([batch_like_probs[idx == u].sum() for u in uniq])
        return out, lambda k: np.searchsorted(edges, np.round(k, 9))
    out = np.array([batch_like_probs[keys == u].sum() for u in uniq])

    def classify(k):
        kk = np.round(k, 9)
        pos = np.searchsorted(uniq, kk)
        pos = np.clip(pos, 0, len(uniq) - 1)
        return pos
    return out, classify
