import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as sps

from latgauss.stats import chi_squared_counts, chi_squared_gof

from conftest import make_rng

CLI = [sys.executable, "-m", "latgauss"]


# -- chi_squared_gof -------------------------------------------------------------

def test_gof_exact_proportions():
    obs = np.array([500, 300, 200])
    r = chi_squared_gof(obs, np.array([0.5, 0.3, 0.2]))
    assert r.p_value > 0.99


def test_gof_extreme_misfit():
    obs = np.array([10 ** 4, 0, 0, 0])
    r = chi_squared_gof(obs, np.full(4, 0.25))
    assert r.p_value < 1e-6


def test_gof_merges_small_buckets():
    obs = np.array([990, 8, 1, 1])
    probs = np.array([0.988, 0.008, 0.002, 0.002])
    r = chi_squared_gof(obs, probs, min_expected=5.0)
    assert not r.inconclusive
    assert r.dof <= 2


def test_gof_inconclusive_single_bucket():
    obs = np.array([100, 0])
    r = chi_squared_gof(obs, np.array([0.999999, 0.000001]))
    assert r.inconclusive
    assert not r.passes(0.01)


def test_gof_calibration_uniform_pvalues():
    # sampling from the expected distribution itself gives uniform p-values
    probs = np.array([0.4, 0.3, 0.2, 0.1])
    pvals = []
    for i in range(500):
        rng = make_rng(9000 + i)
        draws = rng.choice(4, size=2000, p=probs)
        obs = np.bincount(draws, minlength=4)
        pvals.append(chi_squared_gof(obs, probs).p_value)
    ks = sps.kstest(pvals, "uniform")
    assert ks.pvalue > 0.01


def test_gof_matches_scipy():
    obs = np.array([120, 80, 60, 40])
    probs = np.array([0.4, 0.27, 0.2, 0.13])
    ours = chi_squared_gof(obs, probs, min_expected=0.0)
    ref = sps.chisquare(obs, probs * obs.sum())
    assert abs(ours.p_value - ref.pvalue) < 1e-10


def test_import_leaves_scipy_unloaded():
    # scipy is imported on the first p-value, not by `import latgauss` nor
    # by the command-line module
    import latgauss
    src = os.path.dirname(os.path.dirname(latgauss.__file__))
    code = ("import sys, latgauss, latgauss.cli\n"
            "print('scipy' in sys.modules)\n"
            "from latgauss.stats import chi_squared_counts, chi_squared_gof\n"
            "print(repr(chi_squared_gof([120, 80, 60, 40], [0.4, 0.27, 0.2, 0.13],"
            " min_expected=0.0).p_value))\n"
            "print(repr(chi_squared_counts([50, 30, 20], [40, 35, 25]).p_value))\n")
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    # p-values as computed when scipy was imported with the module
    assert res.stdout.split() == ["False", "0.9980531952971372", "0.7263270966277449"]


def test_two_sample_counts():
    rng = make_rng(1)
    a = np.bincount(rng.integers(0, 5, size=5000), minlength=5)
    b = np.bincount(rng.integers(0, 5, size=5000), minlength=5)
    r = chi_squared_counts(a, b)
    assert r.p_value > 0.01


# -- CLI exit-code matrix --------------------------------------------------------


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=True)


@pytest.fixture(scope="module")
def z2_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("bases") / "z2.txt"
    p.write_text("2 2\n1 0\n0 1\n")
    return str(p)


@pytest.fixture(scope="module")
def bad_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("bases") / "bad.txt"
    p.write_text("2 2\n1 0\n2 0\n")  # dependent rows
    return str(p)


def test_cli_sample_exact_full_quota(z2_file):
    res = run_cli("sample", "--basis", z2_file, "--param", "1.0",
                  "--count", "10", "--method", "exact", "--seed", "7")
    assert res.returncode == 0
    lines = [json.loads(l) for l in res.stdout.splitlines()]
    assert len(lines) == 11
    summary = lines[-1]
    assert summary["produced"] == 10
    for rec in lines[:-1]:
        assert len(rec["coeffs"]) == 2
        assert len(rec["ambient"]) == 2


def test_cli_sample_smooth_honest_refusal(z2_file):
    res = run_cli("sample", "--basis", z2_file, "--param", "0.1",
                  "--count", "5", "--method", "smooth", "--seed", "7")
    assert res.returncode == 1
    summary = json.loads(res.stdout.splitlines()[-1])
    assert summary["produced"] == 0


def test_cli_bad_basis_exit_2(bad_file):
    res = run_cli("sample", "--basis", bad_file, "--param", "1.0",
                  "--count", "1", "--method", "exact", "--seed", "0")
    assert res.returncode == 2
    assert "line" in res.stderr


def test_cli_missing_file_exit_2():
    res = run_cli("sample", "--basis", "/nonexistent/x.txt", "--param", "1",
                  "--count", "1", "--method", "exact", "--seed", "0")
    assert res.returncode == 2


def test_cli_svp(z2_file):
    res = run_cli("svp", "--basis", z2_file, "--oracle", "exact",
                  "--seed", "1", "--trials", "200")
    assert res.returncode == 0
    rec = json.loads(res.stdout.splitlines()[0])
    assert rec["norm"] == 1.0


def test_cli_gapsvp_yes(tmp_path):
    p = tmp_path / "z4.txt"
    p.write_text("4 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    res = run_cli("gapsvp", "--basis", str(p), "--dist", "2", "--eps", "0.05",
                  "--oracle", "exact", "--seed", "1")
    assert res.returncode == 0
    assert json.loads(res.stdout.splitlines()[0])["answer"] == "yes"


def test_cli_cvp(z2_file):
    res = run_cli("cvp", "--basis", z2_file, "--target", "2/5,1/10",
                  "--oracle", "exact", "--seed", "1", "--trials", "400")
    assert res.returncode == 0
    rec = json.loads(res.stdout.splitlines()[0])
    assert rec["coeffs"] == [0, 0]


def test_cli_cvp_bad_target(z2_file):
    res = run_cli("cvp", "--basis", z2_file, "--target", "1,2,3",
                  "--oracle", "exact", "--seed", "1")
    assert res.returncode == 2


def test_cli_reproducibility(z2_file):
    args = ("sample", "--basis", z2_file, "--param", "2.0", "--count", "50",
            "--method", "gpv", "--seed", "42")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_verify_empty_report():
    res = run_cli("verify", "--suite", "structural", "--trials", "0", "--seed", "0")
    assert res.returncode == 0
    rec = json.loads(res.stdout.splitlines()[-1])
    assert rec["total"] == 0


def test_cli_verify_structural():
    res = run_cli("verify", "--suite", "structural", "--trials", "15", "--seed", "5")
    assert res.returncode == 0
    lines = [json.loads(l) for l in res.stdout.splitlines()]
    assert lines[-1]["fail"] == 0
    assert lines[-1]["total"] == len(lines) - 1
    for rec in lines[:-1]:
        assert rec["status"] in ("pass", "fail", "flag")
        assert "seed" in rec


def test_cli_bad_dims():
    res = run_cli("verify", "--suite", "structural", "--dims", "zz", "--trials", "5")
    assert res.returncode == 2
