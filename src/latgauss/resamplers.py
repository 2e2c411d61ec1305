"""Distribution transformers: Poisson toolkit, p_max estimation, the square
sampler, the square-root coin, the square-root sampler, and the ratio check.

Streams carry elements of a finite alphabet {0, ..., N-1} and are consumed
strictly left to right, so a fixed seed reproduces a run bit for bit.  The
heavy stages are vectorized over numpy arrays; window sizes, acceptance
coins, and block reductions consume the supplied generator in a fixed,
documented order (window sizes first, then acceptance coins in window-major
order, then block coins in element-major order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import SQRT_TAU_MULT, Profile, get_profile


class StreamExhausted(RuntimeError):
    """Raised when an operation needs more elements than the stream holds."""


@dataclass
class ProbVector:
    """A finite probability vector with its derived resampling quantities."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 1 or len(p) == 0:
            raise ValueError("probs must be a nonempty vector")
        if (p < -1e-15).any():
            raise ValueError("negative probability")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        self.probs = np.clip(p, 0.0, None)

    @property
    def p_max(self) -> float:
        return float(self.probs.max())

    @property
    def p_min(self) -> float:
        pos = self.probs[self.probs > 0]
        return float(pos.min())

    @property
    def p_col(self) -> float:
        return float(np.dot(self.probs, self.probs))

    @property
    def p_sqrt(self) -> float:
        return float(np.sqrt(self.probs).sum())

    def squared(self) -> "ProbVector":
        return ProbVector(self.probs ** 2 / self.p_col)

    def sqrt(self) -> "ProbVector":
        r = np.sqrt(self.probs)
        return ProbVector(r / r.sum())


class ElementStream:
    """Finite element sequence over {0..N-1} with sequential consumption."""

    def __init__(self, items, n_alphabet: int):
        self.items = np.asarray(items, dtype=np.int64)
        if self.items.ndim != 1:
            raise ValueError("stream items must be one-dimensional")
        if len(self.items) and (self.items.min() < 0 or self.items.max() >= n_alphabet):
            raise ValueError("stream element outside the alphabet")
        self.n_alphabet = int(n_alphabet)
        self.cursor = 0

    def __len__(self):
        return len(self.items)

    def remaining(self) -> int:
        return len(self.items) - self.cursor

    def take(self, r: int) -> np.ndarray:
        if r < 0:
            raise ValueError("cannot take a negative count")
        if self.cursor + r > len(self.items):
            raise StreamExhausted(
                f"needed {r} elements, stream has {self.remaining()} left")
        out = self.items[self.cursor:self.cursor + r]
        self.cursor += r
        return out


@dataclass
class ResampleResult:
    """Output of square_sample / sqrt_sample: emitted elements plus flags."""

    items: np.ndarray
    n_alphabet: int
    failed: bool = False
    fail_stage: str | None = None
    pmax_hat: float | None = None
    # indices (into the *post-estimation* consumption order) are not tracked;
    # pairing in the combiners re-derives matches from the emitted sequence.

    def stream(self) -> ElementStream:
        return ElementStream(self.items, self.n_alphabet)

    def __len__(self):
        return len(self.items)


def _empty_result(n_alphabet: int, stage: str, pmax_hat=None) -> ResampleResult:
    return ResampleResult(np.zeros(0, dtype=np.int64), n_alphabet, True, stage, pmax_hat)


# ---------------------------------------------------------------------------
# Poisson toolkit

def sample_poisson(lam: float, rng: np.random.Generator) -> int:
    """Exact Poisson draw; sequential inversion for small means, additive
    splitting into <= 30 chunks above that."""
    if lam < 0 or not math.isfinite(lam):
        raise ValueError("lambda must be finite and nonnegative")
    if lam == 0:
        return 0
    if lam > 30:
        k = int(math.ceil(lam / 30))
        return sum(sample_poisson(lam / k, rng) for _ in range(k))
    u = rng.random()
    p = math.exp(-lam)
    cum = p
    r = 0
    while u > cum:
        r += 1
        p *= lam / r
        cum += p
        if r > 10_000:  # numerically unreachable for lam <= 30
            break
    return r


def poisson_thin(stream: ElementStream, lam: float, rng: np.random.Generator,
                 windows: int = 1) -> list[np.ndarray]:
    """Repeatedly draw r ~ Pois(lam), consume r elements, and report the
    per-element occurrence counts of each window."""
    out = []
    for _ in range(windows):
        r = sample_poisson(lam, rng)
        items = stream.take(r)
        out.append(np.bincount(items, minlength=stream.n_alphabet))
    return out


def bernoulli_from_poisson(r: int, kappa: float, rng: np.random.Generator) -> int:
    """One bit equal to 1 with probability min(1, r/kappa)."""
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    if r <= 0:
        return 0
    if r >= kappa:
        return 1
    return int(rng.random() < r / kappa)


# ---------------------------------------------------------------------------
# p_max estimation

def estimate_pmax(kappa: float, stream: ElementStream, rng: np.random.Generator,
                  _diagnostics: list | None = None) -> float:
    """Halving-loop estimate of the maximal element probability.

    Draws a Pois(kappa/p) window, reads it, and accepts p once some element
    shows up at least kappa/3 times.  Raises StreamExhausted when the stream
    runs dry first.
    """
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    p = 1.0
    thresh = kappa / 3.0
    while True:
        r = sample_poisson(kappa / p, rng)
        window = stream.take(r)
        counts = np.bincount(window, minlength=stream.n_alphabet)
        if len(counts) and counts.max() >= thresh:
            if _diagnostics is not None:
                _diagnostics.append(counts)
            return p
        p /= 2.0


# ---------------------------------------------------------------------------
# shared window machinery

def _window_coins(stream: ElementStream, n_windows: int, mean: float,
                  kappa: float, rng: np.random.Generator):
    """Poissonized windows and their acceptance coins.

    Returns (ones_keys, n_windows) where ones_keys holds j * N + i for every
    (window j, element i) whose coin came up 1.  Coins exist only where the
    window count a_{i,j} is nonzero; they are drawn in (j, i) ascending order.
    """
    n = stream.n_alphabet
    sizes = rng.poisson(mean, n_windows)
    need = int(sizes.sum())
    lab = stream.take(need)
    wid = np.repeat(np.arange(n_windows, dtype=np.int64), sizes)
    key = wid * n + lab
    if n_windows * n <= 300_000_000:
        cnt = np.bincount(key, minlength=n_windows * n)
        nz = np.flatnonzero(cnt)
        a = cnt[nz]
    else:
        nz, a = np.unique(key, return_counts=True)
    accept = rng.random(len(nz)) < np.minimum(1.0, a / kappa)
    return nz[accept], n_windows


def _occurrence_index(labels: np.ndarray, n: int) -> np.ndarray:
    """occ[t] = number of prior occurrences of labels[t] in labels."""
    occ = np.empty(len(labels), dtype=np.int64)
    if n <= 64:
        for i in range(n):
            m = labels == i
            occ[m] = np.cumsum(m)[m] - 1
    else:
        order = np.argsort(labels, kind="stable")
        sorted_lab = labels[order]
        starts = np.flatnonzero(np.diff(sorted_lab, prepend=sorted_lab[0] - 1))
        seq = np.arange(len(labels)) - np.repeat(starts, np.diff(np.append(starts, len(labels))))
        occ[order] = seq
    return occ


# ---------------------------------------------------------------------------
# the square sampler

def square_sample(kappa: float, stream: ElementStream, rng: np.random.Generator,
                  profile: "str | Profile | None" = None) -> ResampleResult:
    """Transform i.i.d. draws into draws from the normalized squared
    distribution.

    Three stages: estimate p_max on the first half, coin the Poissonized
    windows, then rejection-filter a final pass of M/6 elements against the
    unused coins.  Failure (exhaustion or coin shortage) yields an empty,
    flagged result.
    """
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    n = stream.n_alphabet
    m_in = stream.remaining()
    est = ElementStream(stream.take(m_in // 2), n)
    try:
        pmax_hat = estimate_pmax(kappa, est, rng)
    except StreamExhausted:
        return _empty_result(n, "estimate")
    n_windows = int(m_in * pmax_hat / 4)
    try:
        ones, _ = _window_coins(stream, n_windows, 1.0 / pmax_hat, kappa, rng)
    except StreamExhausted:
        return _empty_result(n, "windows", pmax_hat)
    try:
        final = stream.take(m_in // 6)
    except StreamExhausted:
        return _empty_result(n, "final", pmax_hat)
    occ = _occurrence_index(final, n)
    if len(final) and occ.max() >= n_windows:
        # some element needs more coins than there are windows
        return _empty_result(n, "coins", pmax_hat)
    qkeys = occ * n + final
    accept = np.isin(qkeys, ones, assume_unique=False)
    return ResampleResult(final[accept].copy(), n, pmax_hat=pmax_hat)


# ---------------------------------------------------------------------------
# the square-root coin and sampler

def sqrt_coin(coins, tau: int, rng: np.random.Generator) -> int:
    """Claim-style square-root coin: with k zeros before the first 1 in at
    most tau coins, output 1 iff exactly half of 2k fair tosses are heads."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    k = None
    for idx, c in enumerate(coins):
        if idx >= tau:
            break
        if c:
            k = idx
            break
    if k is None:
        return 0
    if k == 0:
        return 1
    return int(rng.binomial(2 * k, 0.5) == k)


def _block_sqrt_coins(ones_j: np.ndarray, n_blocks: int, tau: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Vectorized sqrt_coin over consecutive tau-sized blocks of one
    element's coin sequence.  ones_j: sorted window indices with coin 1."""
    out = np.zeros(n_blocks, dtype=np.int8)
    if n_blocks == 0 or len(ones_j) == 0:
        return out
    starts = np.arange(n_blocks, dtype=np.int64) * tau
    pos = np.searchsorted(ones_j, starts)
    padded = np.append(ones_j, np.iinfo(np.int64).max)
    first = padded[pos]
    has = first < starts + tau
    k = np.where(has, first - starts, 0)
    out[has & (k == 0)] = 1
    todo = np.flatnonzero(has & (k > 0))
    if len(todo):
        kk = k[todo]
        heads = rng.binomial(2 * kk, 0.5)
        out[todo] = (heads == kk).astype(np.int8)
    return out


def desk_tau(kappa: float, n_alphabet: int, pmax_hat: float, ratio_hat: float,
             t_bound: float) -> int:
    """Block length for the square-root stage under the desk profile: long
    enough that the geometric coin sees its series, scaled by the observed
    skew; capped by the conservative profile value."""
    cap = int(math.ceil(kappa * kappa * t_bound))
    tau = int(math.ceil(SQRT_TAU_MULT * kappa * n_alphabet * pmax_hat
                        * max(1.0, ratio_hat)))
    return max(1, min(tau, cap))


def sqrt_sample(kappa: float, t: float, stream: ElementStream,
                rng: np.random.Generator,
                profile: "str | Profile | None" = None) -> ResampleResult:
    """Transform i.i.d. draws into draws from the normalized square-root
    distribution (alphabet ratio bounded by t).

    Pipeline: p_max estimation on the first half, Poissonized windows with
    acceptance coins, square-root coins over tau-sized blocks, then a uniform
    index loop emitting accepted elements.  The paper profile enforces the
    conservative block length, loop bound, and output quota; the desk profile
    sizes tau adaptively and emits the realized output.
    """
    if kappa < 2:
        raise ValueError("kappa must be >= 2")
    if t < 1:
        raise ValueError("t must be >= 1")
    prof = get_profile(profile)
    n = stream.n_alphabet
    m_in = stream.remaining()
    est = ElementStream(stream.take(m_in // 2), n)
    diag: list = []
    try:
        pmax_hat = estimate_pmax(kappa, est, rng, _diagnostics=diag)
    except StreamExhausted:
        return _empty_result(n, "estimate")
    if pmax_hat > 4.0 * t / n:
        return _empty_result(n, "pmax-bound", pmax_hat)
    if not prof.paper_rules and est.remaining():
        # sharpen the skew estimate on leftover estimation-half elements
        extra = est.take(min(4000, est.remaining()))
        diag.append(np.bincount(extra, minlength=n))
    n_windows = int(m_in * pmax_hat / 3)
    try:
        ones, _ = _window_coins(stream, n_windows, 1.0 / pmax_hat, kappa, rng)
    except StreamExhausted:
        return _empty_result(n, "windows", pmax_hat)

    if prof.paper_rules:
        tau = int(math.ceil(kappa * kappa * t))
    else:
        counts = diag[-1] if diag else np.ones(n)
        ratio_hat = float((counts.max() + 1.0) / (counts.min() + 1.0))
        tau = desk_tau(kappa, n, pmax_hat, ratio_hat, t)
    n_blocks = n_windows // tau
    if n_blocks == 0:
        return _empty_result(n, "blocks", pmax_hat)

    # per-element sqrt coins over tau-blocks, element-major draw order
    bstar = []
    for i in range(n):
        ones_i = ones[ones % n == i] // n
        bstar.append(_block_sqrt_coins(ones_i, n_blocks, tau, rng))

    quota = None
    if prof.paper_rules:
        quota = int(m_in / (16 * kappa ** 3 * t ** 1.5))
        if quota == 0:
            return _empty_result(n, "quota", pmax_hat)
        max_iter = int(m_in / (5 * tau))
    else:
        max_iter = n * n_blocks  # supply bound: every coin consumed once

    out = []
    ptr = [0] * n
    it = 0
    stopped = False
    chunk = 1024
    while it < max_iter and not stopped:
        todo = min(chunk, max_iter - it)
        draws = rng.integers(0, n, size=todo)
        for i in draws:
            it += 1
            i = int(i)
            if ptr[i] >= n_blocks:
                if prof.paper_rules:
                    return _empty_result(n, "bstar-exhausted", pmax_hat)
                stopped = True
                break
            if bstar[i][ptr[i]]:
                out.append(i)
            ptr[i] += 1
            if quota is not None and len(out) >= quota:
                stopped = True
                break
    items = np.array(out, dtype=np.int64)
    if quota is not None:
        if len(items) < quota:
            return _empty_result(n, "quota", pmax_hat)
        items = items[:quota]
    return ResampleResult(items, n, pmax_hat=pmax_hat)


# ---------------------------------------------------------------------------
# ratio check

def ratio_check(t: float, stream: ElementStream) -> bool:
    """yes iff t * T_min >= 2 * T_max over the whole remaining stream, with
    unseen elements counting zero."""
    if t < 1:
        raise ValueError("t must be >= 1")
    items = stream.take(stream.remaining())
    counts = np.bincount(items, minlength=stream.n_alphabet)
    tmax = int(counts.max()) if len(counts) else 0
    tmin = int(counts.min()) if len(counts) else 0
    return t * tmin >= 2 * tmax
