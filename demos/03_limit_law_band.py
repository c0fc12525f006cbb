#!/usr/bin/env python3
"""The limiting IPR law inside the band of height ~1/sqrt(N).

Conditioned on an eigenvalue x + i*y/sqrt(N) of a real Gaussian matrix, the
eigenvector's IPR_2 converges to an explicit law on (2, 3) parametrized by
the scaled height y: near the axis (y -> 0) it concentrates at 3, far from
it (y -> oo) at 2.  This script tabulates the law and cross-checks its
sampler against the closed-form CDF, then writes density curves to
demo_output/ipr2_density_y*.csv.
"""

import math
from pathlib import Path

import numpy as np

from eigipr import cdf_ell, density_ell, ks_distance, mean_ipr_depletion_finite_N, sample_ell
from eigipr.experiments import EmpiricalDist
from eigipr.output import write_table_csv

OUT = Path("demo_output")
OUT.mkdir(exist_ok=True)
rng = np.random.default_rng(99)

ells = np.linspace(2.0, 3.0, 402)[1:-1]
print(f"{'y':>6} {'E[IPR_2]':>10} {'median':>8} {'KS(sampler, cdf)':>18}")
for y in (0.1, 0.25, 0.5, 1.0, 2.0):
    density = density_ell(2, ells, y, 0.0)
    write_table_csv(["x", "density"], zip(ells, density), OUT / f"ipr2_density_y{y}.csv")
    xs = sample_ell(2, y, 0.0, rng, size=50_000)
    d = ks_distance(EmpiricalDist.from_samples(xs), lambda e: cdf_ell(2, e, y, 0.0))
    mean = mean_ipr_depletion_finite_N(math.inf, 2, y, 0.0)
    print(f"{y:>6.2f} {mean:>10.4f} {np.median(xs):>8.4f} {d:>18.4f}")

print(f"density curves written to {OUT}/ipr2_density_y*.csv")
