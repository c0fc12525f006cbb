#!/usr/bin/env python3
"""Spectra colored by eigenvector localization: real vs complex entries.

Real Gaussian matrices show a visibly "hot" band of localized eigenvectors
hugging the real axis; complex Gaussian matrices color uniformly because
every eigenvector looks like a uniform complex-sphere vector.  Writes two
SVG scatter plots to demo_output/.
"""

from pathlib import Path

from eigipr import EnsembleSpec, RunConfig, spectrum_ipr_map
from eigipr.output import write_svg_scatter

OUT = Path("demo_output")
OUT.mkdir(exist_ok=True)

for kind, fname in (("ginibre_real", "spectrum_real.svg"), ("ginibre_complex", "spectrum_complex.svg")):
    config = RunConfig(
        spec=EnsembleSpec(kind=kind, N=500),
        trials=8,
        q_set=(2,),
        seed=7,
        workers=4,
    )
    records = spectrum_ipr_map(config)
    write_svg_scatter(records, 2, OUT / fname)
    frac_real = records.is_real.mean()
    print(f"{kind:16s} -> {OUT / fname}  ({len(records)} eigenvalues, {frac_real:.1%} real)")

print("violet = delocalized (IPR_2 near 2), yellow = localized (IPR_2 near 3+)")
