#!/usr/bin/env python3
"""The same localization pattern across other matrix models.

Rotation-invariant models (induced Gaussian, sums of Haar orthogonals) and
even merely permutation-invariant ones (sums of permutation matrices) show
eigenvectors that localize near the real axis.  Sums of cycle-weighted
permutations break the invariance; their spectra grow localized spikes near
the spectral edge instead.  Writes one SVG portrait per model, spectra
rescaled into the unit disk.
"""

import dataclasses
from pathlib import Path

import numpy as np

from eigipr import EnsembleSpec, RunConfig, normalize_spectrum, spectrum_ipr_map
from eigipr.output import write_svg_scatter

OUT = Path("demo_output")
OUT.mkdir(exist_ok=True)

MODELS = [
    (EnsembleSpec(kind="induced_ginibre", N=400, nu=400), "empirical", "induced.svg"),
    (EnsembleSpec(kind="orthogonal_sum", N=400, d=3), "bulk", "orthogonal_sum.svg"),
    (EnsembleSpec(kind="permutation_sum", N=400, d=4), "bulk", "permutation_sum.svg"),
    (EnsembleSpec(kind="permutation_sum", N=400, d=4, perm_mode="ewens", theta=8.0), "bulk", "ewens_sum.svg"),
]

for spec, mode, fname in MODELS:
    config = RunConfig(spec=spec, trials=6, q_set=(2,), seed=12, workers=4)
    records = spectrum_ipr_map(config)
    lams = np.empty(len(records), dtype=complex)
    lams.real, lams.imag = records.re, records.im
    lams = normalize_spectrum(lams, mode, kind=spec.kind, d=spec.d)
    write_svg_scatter(dataclasses.replace(records, re=lams.real, im=lams.imag), 2, OUT / fname)
    print(f"{spec.kind:18s} ({spec.perm_mode if spec.kind == 'permutation_sum' else '-':8s}) -> {OUT / fname}")
