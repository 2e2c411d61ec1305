import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latgauss import (ElementStream, ProbVector, StreamExhausted,
                      bernoulli_from_poisson, estimate_pmax, poisson_thin,
                      ratio_check, sample_poisson, sqrt_coin, sqrt_sample,
                      square_sample)
from latgauss import resamplers
from latgauss.resamplers import _emit, _window_coins

from conftest import make_rng


# -- poisson -------------------------------------------------------------------

def test_poisson_zero_lambda():
    rng = make_rng(0)
    assert all(sample_poisson(0.0, rng) == 0 for _ in range(50))


def test_poisson_pmf_at_one():
    rng = make_rng(1)
    n = 10 ** 5
    draws = np.array([sample_poisson(1.0, rng) for _ in range(n)])
    p0 = (draws == 0).mean()
    expect = math.exp(-1)
    sigma = math.sqrt(expect * (1 - expect) / n)
    assert abs(p0 - expect) <= 3 * sigma


def test_poisson_large_mean_splitting():
    rng = make_rng(2)
    n = 4000
    draws = np.array([sample_poisson(100.0, rng) for _ in range(n)])
    assert abs(draws.mean() - 100.0) <= 3 * 10 / math.sqrt(n)
    assert abs(draws.var() - 100.0) <= 12


# -- poisson_thin -----------------------------------------------------------------

def test_thin_dispersion():
    rng = make_rng(3)
    items = rng.integers(0, 2, size=200_000)
    stream = ElementStream(items, 2)
    counts = np.array(poisson_thin(stream, 5.0, rng, windows=10_000))
    ratio = counts[:, 0].var() / counts[:, 0].mean()
    assert 0.9 <= ratio <= 1.1


def test_thin_single_element_alphabet():
    rng = make_rng(4)
    stream = ElementStream(np.zeros(300_000, dtype=np.int64), 1)
    counts = np.array(poisson_thin(stream, 4.0, rng, windows=20_000))[:, 0]
    # counts should be Poisson(4): compare the empirical pmf
    from latgauss.stats import chi_squared_gof
    lim = 14
    obs = np.bincount(np.clip(counts, 0, lim), minlength=lim + 1)
    probs = np.array([math.exp(-4) * 4.0 ** k / math.factorial(k) for k in range(lim)]
                     + [1 - sum(math.exp(-4) * 4.0 ** k / math.factorial(k) for k in range(lim))])
    r = chi_squared_gof(obs, probs)
    assert r.p_value > 0.01


def test_thin_zero_lambda():
    rng = make_rng(5)
    stream = ElementStream(np.zeros(10, dtype=np.int64), 1)
    counts = poisson_thin(stream, 0.0, rng, windows=5)
    assert all((c == 0).all() for c in counts)
    assert stream.cursor == 0


def test_thin_exhaustion_signal():
    rng = make_rng(6)
    stream = ElementStream(np.zeros(2, dtype=np.int64), 1)
    with pytest.raises(StreamExhausted):
        poisson_thin(stream, 50.0, rng)


# -- bernoulli_from_poisson ---------------------------------------------------------

def test_bernoulli_zero():
    rng = make_rng(7)
    assert all(bernoulli_from_poisson(0, 5.0, rng) == 0 for _ in range(20))


def test_bernoulli_saturates():
    rng = make_rng(8)
    assert all(bernoulli_from_poisson(7, 5.0, rng) == 1 for _ in range(20))


def test_bernoulli_composed_with_poisson():
    # lambda = 1, kappa = 5: the bit should be Bernoulli(0.2) within 1/5! = 1/120
    rng = make_rng(9)
    n = 10 ** 5
    hits = sum(bernoulli_from_poisson(sample_poisson(1.0, rng), 5.0, rng)
               for _ in range(n))
    emp = hits / n
    sigma = math.sqrt(0.2 * 0.8 / n)
    assert abs(emp - 0.2) <= 3 * sigma + 1 / 120


# -- estimate_pmax ---------------------------------------------------------------

def test_pmax_single_element():
    ok = 0
    for i in range(200):
        rng = make_rng(1000 + i)
        stream = ElementStream(np.zeros(5000, dtype=np.int64), 1)
        if estimate_pmax(30.0, stream, rng) == 1.0:
            ok += 1
    assert ok >= 198  # >= 0.99 of seeds


def test_pmax_uniform_four():
    # guarantee: the estimate lands in [p_max, 4 p_max] = [1/4, 1]; at
    # kappa = 30 the first window already trips for p = 1 often, so the
    # realized support is {1/4, 1/2, 1}
    ok = 0
    for i in range(200):
        rng = make_rng(2000 + i)
        stream = ElementStream(rng.integers(0, 4, size=50_000), 4)
        est = estimate_pmax(30.0, stream, rng)
        ok += 0.25 <= est <= 1.0
    assert ok >= 180


def test_pmax_empty_stream():
    rng = make_rng(10)
    with pytest.raises(StreamExhausted):
        estimate_pmax(30.0, ElementStream(np.zeros(0, dtype=np.int64), 1), rng)


# -- square_sample ----------------------------------------------------------------

def test_square_uniform_stays_uniform():
    rng = make_rng(11)
    items = rng.integers(0, 2, size=100_000)
    res = square_sample(30.0, ElementStream(items, 2), rng)
    assert not res.failed
    counts = np.bincount(res.items, minlength=2)
    from latgauss.stats import chi_squared_gof
    r = chi_squared_gof(counts, np.array([0.5, 0.5]))
    assert r.p_value > 0.01


def test_square_two_thirds_to_four_fifths():
    rng = make_rng(12)
    p = np.array([2 / 3, 1 / 3])
    items = (rng.random(10 ** 5) > p[0]).astype(np.int64)
    res = square_sample(30.0, ElementStream(items, 2), rng)
    assert not res.failed
    m = len(res)
    emp = np.bincount(res.items, minlength=2) / m
    sigma = math.sqrt(0.8 * 0.2 / m)
    assert abs(emp[0] - 0.8) <= 3 * sigma


def test_square_count_accounting():
    for i in range(25):
        rng = make_rng(3000 + i)
        p = np.array([0.6, 0.3, 0.1])
        items = rng.choice(3, size=60_000, p=p)
        cin = np.bincount(items, minlength=3)
        res = square_sample(25.0, ElementStream(items, 3), rng)
        if res.failed:
            continue
        cout = np.bincount(res.items, minlength=3)
        assert (2 * cout <= cin).all()


def test_square_size_law():
    p = np.array([2 / 3, 1 / 3])
    kappa, m_in = 30.0, 10 ** 5
    bound = m_in * float(p @ p) / (32 * kappa * p.max())
    for i in range(40):
        rng = make_rng(4000 + i)
        items = (rng.random(m_in) > p[0]).astype(np.int64)
        res = square_sample(kappa, ElementStream(items, 2), rng)
        assert not res.failed
        assert len(res) >= bound


def test_square_failure_flag_on_exhaustion():
    rng = make_rng(13)
    res = square_sample(20.0, ElementStream(np.zeros(3, dtype=np.int64), 1), rng)
    assert res.failed and len(res) == 0


# -- sqrt_coin ---------------------------------------------------------------------

def test_sqrt_coin_p_one():
    rng = make_rng(14)
    ones = np.ones(10, dtype=np.int64)
    assert all(sqrt_coin(ones, 10, rng) == 1 for _ in range(20))


def test_sqrt_coin_p_zero():
    rng = make_rng(15)
    zeros = np.zeros(10, dtype=np.int64)
    assert all(sqrt_coin(zeros, 10, rng) == 0 for _ in range(20))


def test_sqrt_coin_quarter():
    # sqrt(1/4) = 1/2; the truncated series misses at most (3/4)^200
    rng = make_rng(16)
    n = 10 ** 5
    hits = 0
    coins = rng.random((n, 200)) < 0.25
    for row in coins:
        hits += sqrt_coin(row, 200, rng)
    emp = hits / n
    sigma = math.sqrt(0.25 / n)
    assert abs(emp - 0.5) <= 3 * sigma + (0.75) ** 200


def test_sqrt_coin_series_reference():
    # independent check: the acceptance series sum at p = 1/4 evaluates to 1/2
    p = 0.25
    total = sum(math.comb(2 * k, k) * 4.0 ** (-k) * (1 - p) ** k * p
                for k in range(400))
    assert abs(total - 0.5) < 1e-12


# -- sqrt_sample ---------------------------------------------------------------------

def test_sqrt_uniform_stays_uniform():
    rng = make_rng(17)
    items = rng.integers(0, 2, size=400_000)
    res = sqrt_sample(20.0, 4.0, ElementStream(items, 2), rng, "desk")
    assert not res.failed
    counts = np.bincount(res.items, minlength=2)
    from latgauss.stats import chi_squared_gof
    r = chi_squared_gof(counts, np.array([0.5, 0.5]))
    assert r.p_value > 0.01


def test_sqrt_four_fifths_to_two_thirds():
    rng = make_rng(18)
    p = np.array([0.8, 0.2])
    items = (rng.random(10 ** 6) > p[0]).astype(np.int64)
    res = sqrt_sample(20.0, 4.0, ElementStream(items, 2), rng, "desk")
    assert not res.failed
    m = len(res)
    emp = np.bincount(res.items, minlength=2) / m
    sigma = math.sqrt((2 / 3) * (1 / 3) / m)
    assert abs(emp[0] - 2 / 3) <= 3 * sigma


def test_sqrt_count_accounting():
    for i in range(10):
        rng = make_rng(5000 + i)
        p = np.array([0.7, 0.3])
        items = (rng.random(300_000) > p[0]).astype(np.int64)
        cin = np.bincount(items, minlength=2)
        res = sqrt_sample(20.0, 4.0, ElementStream(items, 2), rng, "desk")
        if res.failed:
            continue
        cout = np.bincount(res.items, minlength=2)
        assert (cout <= cin).all()


def test_sqrt_pmax_bound_failure():
    # alphabet of size 16 with all mass on one element: pmax > 4t/N
    rng = make_rng(19)
    items = np.zeros(200_000, dtype=np.int64)
    res = sqrt_sample(20.0, 2.0, ElementStream(items, 16), rng, "desk")
    assert res.failed and res.fail_stage == "pmax-bound"


# -- ratio_check -------------------------------------------------------------------

def test_ratio_uniform_yes():
    ok = 0
    for i in range(200):
        rng = make_rng(6000 + i)
        items = rng.integers(0, 2, size=10 ** 4)
        ok += ratio_check(4.0, ElementStream(items, 2))
    assert ok >= 198


def test_ratio_skewed_no():
    no = 0
    for i in range(200):
        rng = make_rng(7000 + i)
        items = (rng.random(10 ** 4) > 0.9).astype(np.int64)
        no += not ratio_check(4.0, ElementStream(items, 2))
    assert no >= 198


def test_ratio_missing_element_is_no():
    stream = ElementStream(np.zeros(100, dtype=np.int64), 2)
    assert ratio_check(4.0, stream) is False


# -- ProbVector -------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=16))
def test_prob_vector_roundtrip(weights):
    p = np.array(weights)
    pv = ProbVector(p / p.sum())
    assert np.abs(pv.squared().sqrt().probs - pv.probs).max() <= 1e-12
    assert np.abs(pv.sqrt().squared().probs - pv.probs).max() <= 1e-12


def test_prob_vector_derived_quantities():
    pv = ProbVector(np.array([0.5, 0.3, 0.2]))
    assert pv.p_max == 0.5
    assert pv.p_min == 0.2
    assert abs(pv.p_col - (0.25 + 0.09 + 0.04)) < 1e-15
    assert abs(pv.p_sqrt - (math.sqrt(0.5) + math.sqrt(0.3) + math.sqrt(0.2))) < 1e-15


def test_prob_vector_rejects_bad_sum():
    with pytest.raises(ValueError):
        ProbVector(np.array([0.5, 0.6]))


def test_stream_contract():
    s = ElementStream(np.array([0, 1, 0]), 2)
    assert s.remaining() == 3
    assert list(s.take(2)) == [0, 1]
    with pytest.raises(StreamExhausted):
        s.take(2)
    with pytest.raises(ValueError):
        ElementStream(np.array([0, 2]), 2)


def test_sqrt_sample_paper_profile_quota():
    # the conservative profile: fixed block length kappa^2 t, loop bound
    # M/(5 tau), and an exact output quota M/(16 kappa^3 t^{3/2})
    rng = make_rng(20)
    m_in = 200_000
    items = rng.integers(0, 2, size=m_in)
    res = sqrt_sample(2.0, 1.0, ElementStream(items, 2), rng, "paper")
    assert not res.failed
    assert len(res) == int(m_in / (16 * 2 ** 3 * 1.0))
    counts = np.bincount(res.items, minlength=2)
    from latgauss.stats import chi_squared_gof
    assert chi_squared_gof(counts, np.array([0.5, 0.5])).p_value > 0.01


def test_sqrt_sample_paper_profile_fails_when_short():
    # too few elements for even one quota unit: the conservative profile
    # declares failure instead of emitting a partial batch
    rng = make_rng(21)
    items = rng.integers(0, 2, size=100)
    res = sqrt_sample(2.0, 1.0, ElementStream(items, 2), rng, "paper")
    assert res.failed and len(res) == 0


# -- how much of the stream each rule set reads ------------------------------------

def test_desk_rules_read_the_whole_stream():
    # the p_max estimate reads from the head of the stream and the later
    # stages take what it leaves: at most 1% goes unread
    rng = make_rng(22)
    m_in = 10 ** 6
    stream = ElementStream(rng.choice(3, size=m_in, p=[0.5, 0.3, 0.2]), 3)
    res = square_sample(20.0, stream, rng, "desk")
    assert not res.failed
    assert stream.remaining() <= 0.01 * m_in
    stream = ElementStream(rng.choice(2, size=m_in, p=[0.55, 0.45]), 2)
    res = sqrt_sample(20.0, 8.0, stream, rng, "desk")
    assert not res.failed
    assert stream.remaining() <= 0.01 * m_in


def _pin(res, rng):
    return (len(res), res.fail_stage,
            hashlib.sha256(res.items.tobytes()).hexdigest()[:16], rng.random())


def test_paper_rules_keep_their_split():
    # the paper rules set aside half the stream for the estimate and give
    # the windows and the final pass M/4 and M/6 (square) or M/3 (square
    # root): these are the exact items and the next generator value of the
    # draw-at-a-time implementation
    rng = make_rng(2024)
    items = rng.choice(3, size=120_000, p=[0.5, 0.3, 0.2])
    res = square_sample(20.0, ElementStream(items, 3), rng, "paper")
    assert _pin(res, rng) == (395, None, "262874c4334370ac", 0.14134040825954086)
    rng = make_rng(2025)
    items = rng.integers(0, 2, size=200_000)
    res = sqrt_sample(2.0, 1.0, ElementStream(items, 2), rng, "paper")
    assert _pin(res, rng) == (1562, None, "e92de06d342cfc52", 0.008036672416105617)


# -- the square-root emission loop -------------------------------------------------

def emit_reference(bstar, max_iter, quota, paper_rules, rng):
    """The draw-at-a-time loop: None when the paper rules meet a symbol
    with no coin left, else the emitted symbols (cut to the quota)."""
    n, n_blocks = bstar.shape
    out = []
    ptr = [0] * n
    it = 0
    stopped = False
    while it < max_iter and not stopped:
        draws = rng.integers(0, n, size=min(1024, max_iter - it))
        for i in draws:
            it += 1
            i = int(i)
            if ptr[i] >= n_blocks:
                if paper_rules:
                    return None
                stopped = True
                break
            if bstar[i][ptr[i]]:
                out.append(i)
            ptr[i] += 1
            if quota is not None and len(out) >= quota:
                stopped = True
                break
    items = np.array(out, dtype=np.int64)
    return items if quota is None else items[:quota]


@pytest.mark.parametrize("n,n_blocks,density,max_iter,quota,paper_rules,outcome", [
    (2, 3000, 0.3, None, None, False, "exhausted"),   # desk: supply bound
    (100, 40, 0.5, None, None, False, "exhausted"),   # n > 64 occurrence path
    (3, 2000, 0.5, 5000, 700, True, "quota"),         # paper: quota met
    (2, 600, 0.5, 5000, 550, True, "quota"),          # paper: quota met, then dry
    (3, 2000, 0.5, 5000, 10 ** 6, True, "short"),     # paper: loop bound first
    (3, 400, 0.1, 5000, 10 ** 6, True, "exhausted"),  # paper: a symbol runs dry
    (5, 900, 0.2, 2500, 60, False, "quota"),
])
def test_emit_matches_draw_at_a_time_loop(n, n_blocks, density, max_iter, quota,
                                          paper_rules, outcome):
    bstar = (make_rng(n_blocks).random((n, n_blocks)) < density).astype(np.int8)
    max_iter = n * n_blocks if max_iter is None else max_iter
    rng_a, rng_b = make_rng(31), make_rng(31)
    want = emit_reference(bstar, max_iter, quota, paper_rules, rng_a)
    got = _emit(bstar, max_iter, quota, paper_rules, rng_b)
    if outcome == "exhausted" and paper_rules:
        assert want is None and got is None
    else:
        assert got.tolist() == want.tolist()
        assert (len(got) == quota) == (outcome == "quota")
    assert rng_a.random() == rng_b.random()


# -- window coins ------------------------------------------------------------------

@pytest.mark.parametrize("n,pmax_hat", [(2, 1.0), (16, 0.25), (300, 0.5)])
def test_window_coins_dense_and_sorted_counts_agree(monkeypatch, n, pmax_hat):
    items = make_rng(40 + n).integers(0, n, size=60_000)
    runs = []
    for factor in (10 ** 9, 0):  # dense table, then sorting
        monkeypatch.setattr(resamplers, "DENSE_TABLE_FACTOR", factor)
        rng = make_rng(41)
        stream = ElementStream(items, n)
        ones, n_windows = _window_coins(stream, int(20_000 * pmax_hat), 1.0 / pmax_hat,
                                        20.0, rng)
        runs.append((ones.tolist(), n_windows, stream.cursor, rng.random()))
    assert runs[0] == runs[1]
    assert len(runs[0][0]) > 0
