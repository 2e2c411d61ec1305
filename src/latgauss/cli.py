"""Command-line surface: sampling, the three reductions, and the
verification suites.  Output is line-delimited JSON records; exit codes are
0 (full quota / all checks pass), 1 (honest under-delivery or a failed
check), 2 (invalid input)."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from .combiners import general_dgs, smooth_dgs
from .lattices import Basis, BasisParseError, parse_basis
from .oracle import exact_dgs_sample
from .profiles import ENV_PROFILE, RunConfig, get_profile
from .reductions import (approx_cvp, decide_gapsvp, exact_provider,
                         make_general_provider, make_smooth_provider, solve_svp)
from .samplers import PreconditionError, klein_gpv_batch
from .verify import run_suite, summarize

EXIT_OK = 0
EXIT_UNDERDELIVERY = 1
EXIT_INVALID = 2


def _emit(obj, out):
    out.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _load_basis(path: str) -> Basis:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_basis(fh.read())
    except FileNotFoundError:
        raise SystemExit2(f"basis file not found: {path}")
    except BasisParseError as e:
        raise SystemExit2(f"bad basis file {path}: {e}")


class SystemExit2(Exception):
    pass


def _batch_records(batch, out):
    rows = batch.coeffs
    amb_rows = [batch.basis.ambient(tuple(int(x) for x in row)) for row in rows]
    for row, amb in zip(rows, amb_rows):
        _emit({"coeffs": [int(x) for x in row],
               "ambient": [str(a) for a in amb]}, out)


def cmd_sample(args, out) -> int:
    basis = _load_basis(args.basis)
    rng = np.random.default_rng(args.seed)
    profile = args.profile
    kappa = args.kappa
    produced = 0
    tv = 0.0
    if args.count < 0:
        raise SystemExit2("--count must be >= 0")
    if args.param <= 0:
        raise SystemExit2("--param must be > 0")
    if args.method == "exact":
        batch = exact_dgs_sample(basis, args.param, args.count, rng)
    elif args.method == "gpv":
        try:
            batch = klein_gpv_batch(basis, args.param, args.count, rng, profile)
        except PreconditionError as e:
            raise SystemExit2(str(e))
    elif args.method == "general":
        batch = general_dgs(basis, args.param, kappa, rng, profile,
                            m_target=max(args.count, 1))
        batch = batch.take(min(len(batch), args.count))
    elif args.method == "smooth":
        hb = smooth_dgs(basis, args.param, args.count, kappa, rng, profile)
        batch = hb.batch
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit2(f"unknown method {args.method}")
    _batch_records(batch, out)
    produced = len(batch)
    tv = batch.claimed_tv_error
    _emit({"produced": produced, "requested": args.count,
           "claimed_tv_error": tv, "method": args.method,
           "param": args.param, "seed": args.seed}, out)
    return EXIT_OK if produced == args.count else EXIT_UNDERDELIVERY


def _provider_for(name: str, kappa: float, profile: str):
    if name == "exact":
        return exact_provider
    if name == "general":
        return make_general_provider(kappa, profile)
    if name == "smooth":
        return make_smooth_provider(kappa, profile)
    raise SystemExit2(f"unknown oracle {name}")


def cmd_svp(args, out) -> int:
    basis = _load_basis(args.basis)
    rng = np.random.default_rng(args.seed)
    provider = _provider_for(args.oracle, args.kappa, args.profile)
    res = solve_svp(basis, provider, args.trials, rng)
    if res.failed:
        _emit({"status": "failed"}, out)
        return EXIT_UNDERDELIVERY
    _emit({"coeffs": list(res.point.coeffs),
           "ambient": [str(a) for a in res.point.ambient],
           "norm": res.norm}, out)
    return EXIT_OK


def cmd_gapsvp(args, out) -> int:
    basis = _load_basis(args.basis)
    rng = np.random.default_rng(args.seed)
    provider = _provider_for(args.oracle, args.kappa, args.profile)
    if not (0 < args.eps < 1):
        raise SystemExit2("--eps must lie in (0, 1)")
    if args.dist <= 0:
        raise SystemExit2("--dist must be > 0")
    answer = decide_gapsvp(basis, args.dist, args.eps, provider, args.samples, rng)
    _emit({"answer": "yes" if answer else "no", "dist": args.dist,
           "eps": args.eps}, out)
    return EXIT_OK


def cmd_cvp(args, out) -> int:
    basis = _load_basis(args.basis)
    rng = np.random.default_rng(args.seed)
    provider = _provider_for(args.oracle, args.kappa, args.profile)
    try:
        target = [Fraction(tok) for tok in args.target.split(",")]
    except (ValueError, ZeroDivisionError):
        raise SystemExit2(f"malformed target {args.target!r}")
    if len(target) != basis.n:
        raise SystemExit2(f"target has {len(target)} coordinates, basis is {basis.n}-dimensional")
    res = approx_cvp(basis, target, provider, args.trials, rng, profile=args.profile)
    if res.failed:
        _emit({"status": "failed"}, out)
        return EXIT_UNDERDELIVERY
    _emit({"coeffs": list(res.point.coeffs),
           "ambient": [str(a) for a in res.point.ambient],
           "distance": res.distance}, out)
    return EXIT_OK


def cmd_verify(args, out) -> int:
    dims = None
    if args.dims:
        lo, hi = args.dims.split("..")
        dims = (int(lo), int(hi))
    cfg = RunConfig(seed=args.seed, profile=args.profile, dims=dims)
    if args.trials == 0:
        _emit({"suite": args.suite, "total": 0, "pass": 0, "fail": 0, "flag": 0}, out)
        return EXIT_OK
    scale = args.trials / 100.0
    records = run_suite(args.suite, cfg, scale=scale)
    for rec in records:
        _emit(rec.to_dict(), out)
    summary = summarize(records)
    summary["suite"] = args.suite
    _emit(summary, out)
    return EXIT_OK if summary["fail"] == 0 else EXIT_UNDERDELIVERY


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="latgauss",
        description="Discrete Gaussian sampling over lattices with exact "
                    "desk-scale verification.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, oracle=False):
        sp.add_argument("--basis", required=True, help="basis file (n d header)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--profile", default=None,
                        help=f"paper|desk (default from ${ENV_PROFILE} or desk)")
        sp.add_argument("--kappa", type=float, default=20.0)
        if oracle:
            sp.add_argument("--oracle", choices=("exact", "general", "smooth"),
                            default="exact")

    sp = sub.add_parser("sample", help="draw discrete Gaussian samples")
    common(sp)
    sp.add_argument("--param", type=float, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--method", choices=("exact", "gpv", "general", "smooth"),
                    required=True)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("svp", help="shortest vector via sampling")
    common(sp, oracle=True)
    sp.add_argument("--trials", type=int, default=1000,
                    help="samples per grid parameter")
    sp.set_defaults(func=cmd_svp)

    sp = sub.add_parser("gapsvp", help="decision gap shortest vector")
    common(sp, oracle=True)
    sp.add_argument("--dist", type=float, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--samples", type=int, default=10 ** 4)
    sp.set_defaults(func=cmd_gapsvp)

    sp = sub.add_parser("cvp", help="approximate closest vector")
    common(sp, oracle=True)
    sp.add_argument("--target", required=True, help="comma-separated rationals")
    sp.add_argument("--trials", type=int, default=1000)
    sp.set_defaults(func=cmd_cvp)

    sp = sub.add_parser("verify", help="run a statistical verification suite")
    sp.add_argument("--suite", default="all",
                    choices=("identities", "samplers", "resamplers", "combiners",
                             "reductions", "structural", "all"))
    sp.add_argument("--dims", default=None,
                    help="rank range lo..hi exercised by randomized checks")
    sp.add_argument("--trials", type=int, default=100,
                    help="scale percentage for trial counts (0 = empty report)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--profile", default=None)
    sp.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "profile", None) is None:
        args.profile = get_profile(None).name
    if getattr(args, "dims", None):
        try:
            lo, hi = args.dims.split("..")
            int(lo), int(hi)
        except ValueError:
            print(f"error: bad --dims {args.dims!r}, expected lo..hi", file=sys.stderr)
            return EXIT_INVALID
    try:
        return args.func(args, sys.stdout)
    except SystemExit2 as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
