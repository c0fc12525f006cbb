#!/usr/bin/env python3
"""The same localization pattern across other matrix models.

Rotation-invariant models (induced Gaussian, sums of Haar orthogonals) and
even merely permutation-invariant ones (sums of permutation matrices) show
eigenvectors that localize near the real axis.  Sums of cycle-weighted
permutations break the invariance; their spectra grow localized spikes near
the spectral edge instead.  Writes one SVG portrait per model.
"""

from pathlib import Path

from eigipr import EnsembleSpec, RunConfig, spectrum_ipr_map
from eigipr.output import write_svg_scatter

OUT = Path("demo_output")
OUT.mkdir(exist_ok=True)

MODELS = [
    (EnsembleSpec(kind="induced_ginibre", N=400, nu=400), "induced.svg"),
    (EnsembleSpec(kind="orthogonal_sum", N=400, d=3), "orthogonal_sum.svg"),
    (EnsembleSpec(kind="permutation_sum", N=400, d=4), "permutation_sum.svg"),
    (EnsembleSpec(kind="permutation_sum", N=400, d=4, theta=8.0), "ewens_sum.svg"),
]

for spec, fname in MODELS:
    config = RunConfig(spec=spec, trials=6, q_set=(2,), seed=12, workers=4)
    write_svg_scatter(spectrum_ipr_map(config), 2, OUT / fname)
    theta = f"theta {spec.theta:g}" if spec.kind == "permutation_sum" else "-"
    print(f"{spec.kind:18s} ({theta:9s}) -> {OUT / fname}")
