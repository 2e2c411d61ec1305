"""Run configuration and the constants-profile table.

Every otherwise-unnamed constant in the algorithm suite resolves here, in one
auditable place.  The "paper" profile keeps the theoretical forms (input-size
preconditions enforced, conservative block lengths); the "desk" profile keeps
every distributional mechanism identical but relaxes the purely protective
sizes so that runs finish at test scale, with correctness established by the
statistical suites instead of by worst-case bounds.  docs/CONSTANTS.md holds
the prose table.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass


# Values shared by both profiles, or read only where the paper rules are off.
TAU_Z = 12.0              # 1-D sampler window [c - TAU_Z s, c + TAU_Z s], mass < 2^-180
SQRT_TAU_MULT = 2.0       # adaptive tau = ceil(mult*kappa*N*pmax_hat*ratio_hat)
DESK_TOWER_ELL = 1        # desk tower height
DESK_ELL_MAX = 2          # desk cap on halving steps in the general sampler
# desk square sampler: the windows take this share of what the p_max
# estimate leaves, on average, and the final pass the rest (3 : 2)
DESK_WINDOW_SHARE = 0.6
# desk square-root loop: it stops at the first symbol whose coins run out,
# and the skew estimate errs towards longer blocks, so at desk sizes (a few
# thousand elements) it emits about this share of its coin supply
SQRT_LOOP_SHARE = 0.85
SIZE_SAFETY = 1.35        # halving-pipeline sizing headroom
SMOOTH_SIZE_SAFETY = 1.55  # tower sizing headroom


@dataclass(frozen=True)
class Profile:
    name: str
    # randomized nearest-plane needs s >= maxgs*sqrt(c_gpv*ln(max(d,2))); the
    # start-gauss prefix keeps gs norms <= s/sqrt(c_gpv*ln(max(d,2))), so a
    # qualifying prefix always meets the sampler precondition
    c_gpv: float
    t_smooth: float       # sqrt-combine size-test t
    t_ratio: float        # sqrt-combine ratio-check t' (= 4t)
    # the paper's rules: input-size preconditions, its tower and halving-step
    # counts, the 2^{n/2} output quota of the halving pipeline, tau =
    # ceil(kappa^2 t'), the final sqrt loop capped at M/(5 tau), and the
    # square-root output quotas; otherwise harness-sized inputs, the desk
    # counts, adaptive tau, a supply-bound loop and the realized emission
    paper_rules: bool = False

    @property
    def c_sqrt(self) -> float:
        """Sum-combiner quota divisor: its quota is M/(c_sqrt kappa^4)."""
        return 1024 * math.sqrt(self.t_smooth) * self.t_ratio ** 1.5

    def gpv_threshold(self, max_gs_norm: float, d: int) -> float:
        return max_gs_norm * math.sqrt(self.c_gpv * math.log(max(d, 2)))

    def prefix_threshold(self, s: float, d: int) -> float:
        return s / math.sqrt(self.c_gpv * math.log(max(d, 2)))


PAPER = Profile(
    name="paper",
    c_gpv=4.0,
    t_smooth=49.0,   # (1+eps)^2/(1-eps)^2 at eps = 3/4
    t_ratio=196.0,
    paper_rules=True,
)

DESK = Profile(name="desk", c_gpv=3.5, t_smooth=2.0, t_ratio=8.0)

PROFILES = {"paper": PAPER, "desk": DESK}

ENV_PROFILE = "LATGAUSS_PROFILE"


def get_profile(profile: "str | Profile | None" = None) -> Profile:
    if isinstance(profile, Profile):
        return profile
    if profile is None:
        profile = os.environ.get(ENV_PROFILE, "desk")
    try:
        return PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}") from None


@dataclass(frozen=True)
class RunConfig:
    """Seeded, reproducible run settings for the verification harness."""
    seed: int = 0
    profile: str = "desk"
    chi2_alpha: float = 0.01
    dims: tuple[int, int] | None = None  # rank range for randomized checks

    def resolved_profile(self) -> Profile:
        return get_profile(self.profile)

    def rank_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Clamp a check's default rank range by the configured dims."""
        if self.dims is None:
            return lo, hi
        dlo, dhi = self.dims
        lo2, hi2 = max(lo, dlo), min(hi, dhi)
        return (lo2, hi2) if lo2 <= hi2 else (lo, hi)


def derive_rng(seed: int, *labels: int):
    """Counter-based stream split: child streams are indexed by integer
    labels appended to the root seed (documented splitting scheme)."""
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(labels)))
