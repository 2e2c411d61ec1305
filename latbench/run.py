#!/usr/bin/env python3
"""latgauss benchmark: one workload per process, one operation at a time.

    python3 latbench/run.py --workload honest-z2 --seed 1 --seconds 25 --trace 0

Run from the repository root.  The library is imported from ./src, never
from an installed copy.  A run repeats whole rounds of the workload's fixed
operation list until --seconds have passed, checks every output against
reference computations made without the library (reference.py), writes a
run record under latbench/out/ and prints one JSON result line last.

--trace 0 reports the end-to-end metrics; --trace 1 runs the same rounds
untraced and then traced (layertrace.py), requires identical output
digests, and reports the per-layer metrics.  Metric names and units come
from BENCHMARK.json.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

KAPPA = 20.0
PROFILE = "desk"


def import_program() -> SimpleNamespace:
    """Import latgauss from ./src; refuse any other copy."""
    if not (SRC / "latgauss" / "__init__.py").is_file():
        raise ImportError(f"no latgauss sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import latgauss
    from latgauss import combiners, lattices, profiles, reductions, samplers
    if Path(latgauss.__file__).resolve().parent != (SRC / "latgauss").resolve():
        raise ImportError(f"latgauss imported from {latgauss.__file__}, not {SRC}")
    return SimpleNamespace(combiners=combiners, lattices=lattices, profiles=profiles,
                           reductions=reductions, samplers=samplers)


def rng_for(seed: int, *key: int):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def int_rows(basis):
    """Integer matrix of a basis whose rows are integral."""
    if any(x.denominator != 1 for row in basis.rows for x in row):
        raise ValueError("basis rows are not integral")
    return np.array([[int(x) for x in row] for row in basis.rows], dtype=np.int64)


def ambient_int(batch):
    """Exact integer ambient vectors of a batch over an integral basis."""
    return batch.coeffs @ int_rows(batch.basis)


@dataclass
class Out:
    """What one operation returned: a failure flag, the values its digest
    covers, and what the checks read."""
    failed: bool
    digest: tuple
    data: object = None


@dataclass
class Op:
    label: str
    seconds: float
    out: Out | None
    error: str | None = None
    cpu_seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return self.error is not None or self.out.failed


@dataclass
class Round:
    seconds: float
    ops: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# workloads
#
# ops(r) yields (label, call, summarize) for round r.  call() is the timed
# library call; summarize(result) runs after the clock stops and keeps only
# what the digest and the checks need, so that held outputs do not add to
# the peak memory of later operations.

def sha(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


class HonestZ2:
    """smooth_dgs on Z^2, mostly above sqrt(2) * eta_{1/2}(Z^2)."""
    code = 1
    widths = (3.0, 3.0, 0.8, 3.0, 3.0, 0.3)
    deliver_s = 3.0
    m = 12

    def __init__(self, lg, seed):
        self.lg, self.seed = lg, seed
        self.z2 = lg.lattices.Basis([[1, 0], [0, 1]])

    def ops(self, r):
        for j, s in enumerate(self.widths):
            call = functools.partial(self.lg.combiners.smooth_dgs, self.z2, s, self.m, KAPPA,
                                     rng_for(self.seed, self.code, r + 1, j), PROFILE)
            yield f"smooth_dgs s={s}", call, functools.partial(self.summarize, s)

    def summarize(self, s, hb):
        x = ambient_int(hb.batch)
        failed = s == self.deliver_s and hb.produced_m != self.m
        return Out(failed, (s, hb.produced_m, sha(hb.batch.coeffs)), (s, hb.produced_m, x))

    def check(self, ops, ref):
        bad = []
        eta = ref.eta_z2(0.5)
        pooled = []
        for op in ops:
            s, produced, x = op.out.data
            if produced not in (0, self.m) or len(x) != produced:
                bad.append(f"{op.label}: delivered {len(x)} of {self.m}")
            elif s == self.deliver_s:
                pooled.append(x)
        for s in set(self.widths) - {self.deliver_s}:
            if not s < math.sqrt(2) * eta:
                bad.append(f"decline width {s} not below sqrt(2)*eta = {math.sqrt(2) * eta:.4f}")
        if not self.deliver_s > math.sqrt(2) * eta:
            bad.append(f"delivery width {self.deliver_s} not above sqrt(2)*eta")
        if pooled:
            x = np.concatenate(pooled)
            p = ref.z2_shell_pvalue((x * x).sum(axis=1), self.deliver_s)
            if p < ref.CHI2_ALPHA:
                bad.append(f"s={self.deliver_s} norm shells: chi2 p={p:.3g} over {len(x)} samples")
        return bad


class GeneralZ2:
    """general_dgs on Z^2 below smoothing."""
    code = 2
    s = 0.8
    m_target = 200

    def __init__(self, lg, seed):
        self.lg, self.seed = lg, seed
        self.z2 = lg.lattices.Basis([[1, 0], [0, 1]])

    def ops(self, r):
        call = functools.partial(self.lg.combiners.general_dgs, self.z2, self.s, KAPPA,
                                 rng_for(self.seed, self.code, r + 1, 0), PROFILE,
                                 m_target=self.m_target)
        yield f"general_dgs s={self.s}", call, self.summarize

    def summarize(self, batch):
        x = ambient_int(batch)
        return Out(len(x) < self.m_target, (len(x), sha(batch.coeffs)), (x * x).sum(axis=1))

    def check(self, ops, ref):
        if not ops:
            return []
        nsq = np.concatenate([op.out.data for op in ops])
        bad = []
        p0 = ref.z2_shell_probs(self.s)[0]
        zeros = int((nsq == 0).sum())
        p = ref.chi2_pvalue([zeros, len(nsq) - zeros], [p0, 1 - p0])
        if p < ref.CHI2_ALPHA:
            bad.append(f"P(0): {zeros}/{len(nsq)} against {p0:.4f}, chi2 p={p:.3g}")
        p = ref.z2_shell_pvalue(nsq, self.s)
        if p < ref.CHI2_ALPHA:
            bad.append(f"norm shells: chi2 p={p:.3g} over {len(nsq)} samples")
        return bad


class NearestPlane:
    """klein_gpv_batch on LLL-reduced random bases at their GPV threshold.

    The bases are a fixed corpus drawn from corpus_seed; --seed drives the
    sampling streams.  A basis's skew sets the grid width of every
    coordinate draw, and with it both the time and the peak memory of a
    call, so per-seed bases would make runs incomparable.
    """
    code = 3
    corpus_seed = 0
    ranks = (3, 4, 5, 6, 7, 8)
    draws = 100_000
    span = 9

    def __init__(self, lg, seed):
        self.lg, self.seed = lg, seed
        prof = lg.profiles.get_profile(PROFILE)
        self.cases = []
        for d in self.ranks:
            rng = rng_for(self.corpus_seed, self.code, 0, d)
            while True:
                rows = rng.integers(-self.span, self.span + 1, size=(d, d)).tolist()
                try:
                    basis = lg.lattices.Basis(rows)
                except lg.lattices.LatticeError:
                    continue
                red = lg.lattices.reduce_basis(basis, "lll")
                if not red.is_orthogonal():
                    break
            s = prof.gpv_threshold(lg.lattices.gram_schmidt(red).max_gs_norm, d)
            self.cases.append((red, s, int_rows(red)))

    def ops(self, r):
        for k, d in enumerate(self.ranks):
            basis, s, _ = self.cases[k]
            call = functools.partial(self.lg.samplers.klein_gpv_batch, basis, s, self.draws,
                                     rng_for(self.seed, self.code, r + 1, k), PROFILE)
            yield f"klein_gpv_batch d={d}", call, functools.partial(self.summarize, k)

    def summarize(self, k, batch):
        basis, s, b = self.cases[k]
        x = batch.coeffs @ b
        values, counts = np.unique(np.einsum("ij,ij->i", x, x), return_counts=True)
        signs = np.stack([(x > 0).sum(axis=0), (x < 0).sum(axis=0)])
        tagged = batch.basis == basis and batch.param == s
        return Out(len(x) != self.draws, (k, sha(batch.coeffs)),
                   (k, tagged, values, counts, signs))

    def check(self, ops, ref):
        bad = []
        pooled = {}
        for op in ops:
            k, tagged, values, counts, signs = op.out.data
            if not tagged:
                bad.append(f"{op.label}: batch tagged with another basis or width")
            pooled.setdefault(k, []).append((values, counts, signs))
        for k, parts in sorted(pooled.items()):
            basis, s, b = self.cases[k]
            edges, probs = ref.lattice_shell_probs(b, s)
            shells = np.zeros(len(probs))
            signs = 0
            for values, counts, sg in parts:
                shells += np.bincount(np.searchsorted(edges, values), weights=counts,
                                      minlength=len(probs))
                signs = signs + sg
            p = ref.chi2_pvalue(shells, probs)
            if p < ref.CHI2_ALPHA:
                bad.append(f"rank {basis.d} norm shells: chi2 p={p:.3g} "
                           f"over {shells.sum():.0f} samples")
            p = ref.sign_balance_pvalue(signs[0], signs[1])
            if p < ref.CHI2_ALPHA:
                bad.append(f"rank {basis.d} not symmetric under x -> -x: p={p:.3g}")
        return bad


class Reductions:
    """solve_svp, approx_cvp and decide_gapsvp with the exact provider.

    A round holds three SVP problems, so that its median operation is an
    SVP solve rather than whichever of two overlapping kinds lands in the
    middle.
    """
    code = 4
    pool = 64             # rounds of instances; round r uses pool slot r mod pool
    svp_per_round = 3
    trials = 1000
    svp_rank, cvp_rank, span = 4, 3, 9
    gap_eps = 0.05
    gap_dims = 4
    gap_d = (2.0, 0.2)
    cvp_gamma = 1.97

    def __init__(self, lg, seed):
        self.lg, self.seed = lg, seed
        Basis = lg.lattices.Basis
        self.gap_m = int(self.gap_dims ** 5 / self.gap_eps ** 2)
        self.z4 = Basis([[int(i == j) for j in range(self.gap_dims)]
                         for i in range(self.gap_dims)])
        self.svp, self.cvp = [], []
        for i in range(self.pool):
            rng = rng_for(seed, self.code, 0, i)
            self.svp += [self._random_basis(rng, self.svp_rank)
                         for _ in range(self.svp_per_round)]
            basis = self._random_basis(rng, self.cvp_rank)
            target = [Fraction(int(a), 10) for a in rng.integers(-60, 61, size=self.cvp_rank)]
            self.cvp.append((basis, target))

    def _random_basis(self, rng, d):
        while True:
            rows = rng.integers(-self.span, self.span + 1, size=(d, d)).tolist()
            try:
                return self.lg.lattices.Basis(rows)
            except self.lg.lattices.LatticeError:
                continue

    def ops(self, r):
        i = r % self.pool
        svp = [self.svp_per_round * i + k for k in range(self.svp_per_round)]
        plan = [("solve_svp", self.svp_call, svp[0], self.found),
                ("approx_cvp", self.cvp_call, i, self.found),
                ("solve_svp", self.svp_call, svp[1], self.found),
                (f"decide_gapsvp d={self.gap_d[0]}", self.gap_call, 0, self.answer),
                ("solve_svp", self.svp_call, svp[2], self.found),
                (f"decide_gapsvp d={self.gap_d[1]}", self.gap_call, 1, self.answer)]
        for j, (label, call, arg, summarize) in enumerate(plan):
            rng = rng_for(self.seed, self.code, r + 1, j)
            yield label, functools.partial(call, arg, rng), functools.partial(summarize, arg)

    # the provider is looked up at call time, so that a tracer sees its calls
    def svp_call(self, i, rng):
        red = self.lg.reductions
        return red.solve_svp(self.svp[i], red.exact_provider, self.trials, rng)

    def cvp_call(self, i, rng):
        red = self.lg.reductions
        basis, target = self.cvp[i]
        return red.approx_cvp(basis, target, red.exact_provider, self.trials, rng)

    def gap_call(self, j, rng):
        red = self.lg.reductions
        return red.decide_gapsvp(self.z4, self.gap_d[j], self.gap_eps, red.exact_provider,
                                 self.gap_m, rng)

    @staticmethod
    def found(i, res):
        coeffs = None if res.point is None else res.point.coeffs
        value = getattr(res, "norm", getattr(res, "distance", None))
        return Out(res.failed, (value, coeffs), (i, value, coeffs))

    def answer(self, j, ans):
        d = self.gap_d[j]
        return Out(False, (d, bool(ans)), (d, bool(ans)))

    def check(self, ops, ref):
        bad = []
        lam_z4 = math.sqrt(ref.lambda1_sq(np.eye(self.gap_dims, dtype=np.int64), 4))
        for op in ops:
            if op.label == "solve_svp":
                i, norm, coeffs = op.out.data
                b = int_rows(self.svp[i])
                x = np.array(coeffs, dtype=np.int64) @ b
                nsq = int(x @ x)
                lam_sq = ref.lambda1_sq(b, nsq)
                if abs(norm - math.sqrt(nsq)) > 1e-9 * max(1.0, norm):
                    bad.append(f"svp {i}: norm {norm} disagrees with its point")
                elif lam_sq != nsq:
                    bad.append(f"svp {i}: norm^2 {nsq} above lambda_1^2 {lam_sq}")
            elif op.label == "approx_cvp":
                i, dist, coeffs = op.out.data
                basis, target = self.cvp[i]
                b = int_rows(basis)
                t_num = np.array([int(t * 10) for t in target], dtype=np.int64)
                diff = 10 * (np.array(coeffs, dtype=np.int64) @ b) - t_num
                own = math.sqrt(int(diff @ diff)) / 10
                if abs(dist - own) > 1e-9 * max(1.0, own):
                    bad.append(f"cvp {i}: distance {dist} disagrees with its point")
                    continue
                best = math.sqrt(ref.closest_dist_sq(b, t_num, 10, dist))
                if dist > self.cvp_gamma * best + 1e-9:
                    bad.append(f"cvp {i}: distance {dist:.6g} > {self.cvp_gamma} * {best:.6g}")
            else:
                d, ans = op.out.data
                if ans != (lam_z4 < d):
                    bad.append(f"gapsvp d={d}: answered {'yes' if ans else 'no'} "
                               f"with lambda_1 = {lam_z4}")
        return bad


WORKLOADS = {"honest-z2": HonestZ2, "general-z2": GeneralZ2,
             "nearest-plane": NearestPlane, "reductions": Reductions}


# ---------------------------------------------------------------------------
# timing loop

def run_rounds(wl, seconds=None, n_rounds=None, tracer=None) -> list[Round]:
    """Whole rounds until seconds pass (at least one), or exactly n_rounds."""
    rounds = []
    t0 = time.perf_counter()
    r = 0
    while (r < n_rounds) if n_rounds is not None else (
            r == 0 or time.perf_counter() - t0 < seconds):
        rnd = Round(0.0)
        tr = time.perf_counter()
        for label, call, summarize in wl.ops(r):
            if tracer is not None:
                tracer.op = f"{r}:{label}"
            t, c = time.perf_counter(), time.process_time()
            try:
                result = call()
            except Exception:  # the run goes on; the op counts as failed
                rnd.ops.append(Op(label, time.perf_counter() - t, None,
                                  traceback.format_exc(limit=4),
                                  time.process_time() - c))
                continue
            elapsed, cpu = time.perf_counter() - t, time.process_time() - c
            rnd.ops.append(Op(label, elapsed, summarize(result), None, cpu))
            del result
        rnd.seconds = time.perf_counter() - tr
        rounds.append(rnd)
        r += 1
    return rounds


def all_ops(rounds):
    return [op for rnd in rounds for op in rnd.ops]


def round_seconds(rounds) -> float:
    """Time of one round, composed of the median time of each operation in
    the list: a rare retry or slow instance does not decide it, while every
    operation of the list still counts.  The record keeps the raw times."""
    by_label = {}
    for op in all_ops(rounds):
        by_label.setdefault(op.label, []).append(op.seconds)
    return sum(statistics.median(by_label[op.label]) for op in rounds[0].ops)


def digest(rounds) -> str:
    h = hashlib.sha256()
    for op in all_ops(rounds):
        h.update(op.label.encode())
        h.update(repr(op.error is not None).encode())
        h.update(repr(None if op.out is None else op.out.digest).encode())
    return h.hexdigest()


def clear_program_caches():
    """Empty the library's module-level memo tables, so that two passes in
    one process start from the same state."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "latgauss" and not mod_name.startswith("latgauss."):
            continue
        for name, val in list(vars(mod).items()):
            if name.endswith("_cache") and isinstance(val, dict):
                val.clear()


def layer_metrics(tr, n_rounds: int) -> dict:
    per = 1.0 / n_rounds
    c, calls = tr.counts, tr.calls

    def self_s(name):
        return tr.self_ns[name] / 1e9 * per

    coords = c["samplers.klein_gpv_batch.coords"]
    delivered = c["combiners.delivered"]
    out = {name: c[name] * per for name in (
        "samplers.start_gauss.rows", "samplers.klein_gpv_batch.rows",
        "resamplers.square_sample.in", "resamplers.square_sample.out",
        "resamplers.square_sample.failed", "resamplers.sqrt_sample.in",
        "resamplers.sqrt_sample.out", "resamplers.sqrt_sample.failed",
        "combiners.sqrt_combine.failed", "combiners.smooth_dgs.attempts",
        "lattices.label_ids.rows", "enum.enumerate_coeffs.points",
        "oracle.exact_dgs_sample.rows", "reductions.provider.rows")}
    for name in ("samplers.start_gauss", "samplers.klein_gpv_batch",
                 "resamplers.square_sample", "resamplers.sqrt_sample",
                 "combiners.combine_halve", "combiners.sqrt_combine",
                 "lattices.reduce_basis", "lattices.random_superlattice",
                 "lattices.make_tower", "lattices.label_ids",
                 "enum.enumerate_coeffs", "oracle.exact_dgs_sample",
                 "oracle.coset_weights", "reductions.solve_svp",
                 "reductions.approx_cvp", "reductions.decide_gapsvp"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("lattices.reduce_basis", "enum.enumerate_coeffs",
                 "oracle.coset_weights", "reductions.provider"):
        out[f"{name}.calls"] = calls[name] * per
    out["samplers.klein_gpv_batch.ns_per_coord"] = (
        tr.self_ns["samplers.klein_gpv_batch"] / coords if coords else 0.0)
    out["combiners.seed_draws_per_sample"] = (
        c["samplers.start_gauss.rows"] / delivered if delivered else 0.0)
    return out


# ---------------------------------------------------------------------------
# run record

def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import scipy
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def metric_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seed = args.seed % (1 << 63)

    try:
        lg = import_program()
    except ImportError as exc:
        print(f"latbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](lg, seed)
    setup_s = time.perf_counter() - T_START
    units = metric_units(args.trace)

    import reference as ref
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if not args.trace:
        rounds = run_rounds(wl, seconds=args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {"setup_s": setup_s,
                  "wall_s": round_seconds(rounds),
                  "op_p50_s": statistics.median(op.seconds for op in all_ops(rounds)),
                  "peak_rss_mb": peak_mb}
        passes = [rounds]
    else:
        from layertrace import Tracer
        clear_program_caches()
        plain = run_rounds(wl, seconds=args.seconds / 2)
        clear_program_caches()
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(wl, n_rounds=len(plain), tracer=tracer)
        finally:
            tracer.uninstall()
        values = layer_metrics(tracer, len(plain))
        values["trace.overhead_s"] = round_seconds(traced) - round_seconds(plain)
        record["digests"] = {"untraced": digest(plain), "traced": digest(traced)}
        record["spans"] = tracer.spans
        rounds = plain
        passes = [plain, traced]

    ops = [op for p in passes for op in all_ops(p)]
    failed = [op for op in ops if op.failed]
    problems = wl.check([op for op in all_ops(rounds) if not op.failed], ref)
    if args.trace and record["digests"]["untraced"] != record["digests"]["traced"]:
        problems.append("traced outputs differ from untraced outputs")
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"metrics not produced: {sorted(missing)}")
    result = {"correct": not problems, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}

    record.update(environment=environment(), result=result, problems=problems,
                  rounds=[[r.seconds, [(op.label, op.seconds, op.cpu_seconds) for op in r.ops]]
                          for r in rounds],
                  failures=[(op.label, op.error or "declined") for op in failed])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    for line in problems:
        print(f"latbench: check failed: {line}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
