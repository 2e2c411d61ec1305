"""Layer tracing from outside the library.

Tracer.install() replaces chosen public functions of latgauss modules with
timing wrappers, in every latgauss module namespace that holds them, so
calls between modules are seen too.  Each call becomes a span (name, start,
end, parent span, operation); a layer's self time is its span's duration
minus the time covered by its child spans.  Optional hooks count work at the
same boundary (rows in, rows out, failures).  uninstall() restores the
original functions.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


# (module[.class], attribute, span name, hook, pre-hook).  A hook receives
# (tracer, args, kwargs, result, before), where before is what the pre-hook
# returned; pre-hooks read inputs that the call consumes.
def _hooks():
    def start_gauss(t, a, k, r, _):
        t.counts["samplers.start_gauss.rows"] += len(r[1])

    def klein(t, a, k, r, _):
        t.counts["samplers.klein_gpv_batch.rows"] += len(r)
        t.counts["samplers.klein_gpv_batch.coords"] += len(r) * r.basis.d

    def square_pre(a, k):
        return _arg(a, k, 1, "stream").remaining()

    def square(t, a, k, r, before):
        t.counts["resamplers.square_sample.in"] += before
        t.counts["resamplers.square_sample.out"] += len(r)
        t.counts["resamplers.square_sample.failed"] += int(r.failed)

    def sqrt_pre(a, k):
        return _arg(a, k, 2, "stream").remaining()

    def sqrt(t, a, k, r, before):
        t.counts["resamplers.sqrt_sample.in"] += before
        t.counts["resamplers.sqrt_sample.out"] += len(r)
        t.counts["resamplers.sqrt_sample.failed"] += int(r.failed)

    def sqrt_combine(t, a, k, r, _):
        t.counts["combiners.sqrt_combine.failed"] += int(r.produced_m == 0)

    def delivered_general(t, a, k, r, _):
        t.counts["combiners.delivered"] += len(r)

    def delivered_smooth(t, a, k, r, _):
        t.counts["combiners.delivered"] += r.produced_m

    def superlattice(t, a, k, r, _):
        if t.inside("combiners.smooth_dgs"):
            t.counts["combiners.smooth_dgs.attempts"] += 1

    def label_ids(t, a, k, r, _):
        t.counts["lattices.label_ids.rows"] += len(r)

    def enum(t, a, k, r, _):
        t.counts["enum.enumerate_coeffs.points"] += len(r)

    def exact_dgs(t, a, k, r, _):
        t.counts["oracle.exact_dgs_sample.rows"] += len(r)

    def provider(t, a, k, r, _):
        t.counts["reductions.provider.rows"] += len(r)

    return [
        ("samplers", "start_gauss", "samplers.start_gauss", start_gauss, None),
        ("samplers", "klein_gpv_batch", "samplers.klein_gpv_batch", klein, None),
        ("resamplers", "square_sample", "resamplers.square_sample", square, square_pre),
        ("resamplers", "sqrt_sample", "resamplers.sqrt_sample", sqrt, sqrt_pre),
        ("combiners", "combine_halve", "combiners.combine_halve", None, None),
        ("combiners", "sqrt_combine", "combiners.sqrt_combine", sqrt_combine, None),
        ("combiners", "general_dgs", "combiners.general_dgs", delivered_general, None),
        ("combiners", "smooth_dgs", "combiners.smooth_dgs", delivered_smooth, None),
        ("lattices", "reduce_basis", "lattices.reduce_basis", None, None),
        ("lattices", "random_superlattice", "lattices.random_superlattice", superlattice,
         None),
        ("lattices", "make_tower", "lattices.make_tower", None, None),
        ("lattices.CosetMap", "label_ids", "lattices.label_ids", label_ids, None),
        ("_enum", "enumerate_coeffs", "enum.enumerate_coeffs", enum, None),
        ("oracle", "exact_dgs_sample", "oracle.exact_dgs_sample", exact_dgs, None),
        ("oracle", "coset_weights", "oracle.coset_weights", None, None),
        ("reductions", "exact_provider", "reductions.provider", provider, None),
        ("reductions", "solve_svp", "reductions.solve_svp", None, None),
        ("reductions", "approx_cvp", "reductions.approx_cvp", None, None),
        ("reductions", "decide_gapsvp", "reductions.decide_gapsvp", None, None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, start_ns, end_ns, parent, op)
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(float)
        self.op = None                  # current operation label
        self._stack: list[list] = []    # [span index, child ns, name]
        self._restore: list[tuple] = []

    def _wrap(self, name, fn, hook, pre):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = pre(args, kwargs) if pre else None
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            frame = [idx, 0, name]
            self._stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.op)
                self.calls[name] += 1
                self.self_ns[name] += (t1 - t0) - frame[1]
                if self._stack:
                    self._stack[-1][1] += t1 - t0
            if hook:
                hook(self, args, kwargs, result, before)
            return result
        return wrapper

    def inside(self, name: str) -> bool:
        """Whether a span of that name is open."""
        return any(frame[2] == name for frame in self._stack)

    def install(self, package: str = "latgauss"):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == package or name.startswith(package + ".")}
        for mod_name, attr, name, hook, pre in _hooks():
            owner_name, _, cls_name = mod_name.partition(".")
            owner = mods[f"{package}.{owner_name}"]
            if cls_name:
                owner = getattr(owner, cls_name)
                orig = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, orig, hook, pre))
                self._restore.append((owner, attr, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, hook, pre)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
