"""Acceptance suite: every exit criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one
``criterion NN: PASS/FAIL`` line per criterion.  Every tolerance is fixed
here; nothing is calibrated at run time.  All randomness is seeded, so the
whole suite is reproducible bit for bit.
"""

import math
import os

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc
from scipy.stats import ks_2samp

from eigipr import (
    EnsembleSpec,
    RunConfig,
    cdf_ell,
    conditional_ipr,
    convergence_study,
    density_S,
    density_delta,
    density_ell,
    double_factorial_odd,
    factorial,
    g,
    g_inverse,
    ipr,
    ks_distance,
    legendre_eval,
    mean_ipr_depletion_finite_N,
    phi,
    sample_ell,
    sample_haar_orthogonal,
    spectrum_ipr_map,
    synthetic_eigvec_sample,
    uniform_sphere_sample,
)
from eigipr.experiments import EmpiricalDist

WORKERS = min(os.cpu_count() or 1, 8)

Q_GRID = (2, 3, 4)
Y_GRID = (0.1, 0.5, 1.0, 2.0)
TAU_GRID = (0.0, 0.5, 0.9)


def check(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def closed_form_density(q, ell, y):
    """Independent closed forms of the limiting IPR densities at tau = 0."""
    pref = abs(y) / (math.sqrt(math.pi) * erfc(math.sqrt(2.0) * abs(y)))
    if q == 2:
        return math.sqrt(2.0) * pref * np.exp(-2 * y * y / (3 - ell)) / (3 - ell) ** 1.5
    if q == 3:
        return 3 * math.sqrt(2.0) * pref * np.exp(-18 * y * y / (15 - ell)) / (15 - ell) ** 1.5
    root = np.sqrt(120.0 + ell)
    return (
        math.sqrt(6.0)
        / 2.0
        * pref
        * np.exp(-6 * y * y / (15 - root))
        / (root * (15 - root) ** 1.5)
    )


@pytest.fixture(scope="module")
def depletion_records():
    # elliptic tau=0, N=400, 500 trials: shared by criterion 7 and its
    # finite-size companion check
    cfg = RunConfig(
        spec=EnsembleSpec(kind="elliptic_real", N=400),
        trials=500,
        q_set=(2,),
        seed=1,
        workers=WORKERS,
    )
    return spectrum_ipr_map(cfg)


@pytest.fixture(scope="module")
def elliptic500_records():
    cfg = RunConfig(
        spec=EnsembleSpec(kind="elliptic_real", N=500),
        trials=30,
        q_set=(2,),
        seed=2,
        workers=WORKERS,
    )
    return spectrum_ipr_map(cfg)


@pytest.fixture(scope="module")
def complex500_records():
    cfg = RunConfig(
        spec=EnsembleSpec(kind="ginibre_complex", N=500),
        trials=110,
        q_set=(2,),
        seed=3,
        workers=WORKERS,
    )
    return spectrum_ipr_map(cfg)


def test_criterion_01_closed_form_densities():
    worst = 0.0
    for q in Q_GRID:
        lo, hi = factorial(q), double_factorial_odd(q)
        ells = np.linspace(lo, hi, 502)[1:-1]
        for y in Y_GRID:
            diff = np.max(np.abs(density_ell(q, ells, y, 0.0) - closed_form_density(q, ells, y)))
            worst = max(worst, float(diff))
    check(1, worst < 1e-10, f"max |density - closed form| = {worst:.3e} (tol 1e-10)")


def test_criterion_02_normalizations():
    worst = 0.0
    for y in Y_GRID:
        for tau in TAU_GRID:
            total, _ = quad(lambda d: density_delta(d, y, tau), 0.0, np.inf, limit=300)
            worst = max(worst, abs(total - 1.0))
            total, _ = quad(lambda u: density_S(u, y, tau), 1.0, np.inf, limit=300)
            worst = max(worst, abs(total - 1.0))
            for q in Q_GRID:
                lo, hi = factorial(q), double_factorial_odd(q)
                total, _ = quad(lambda e: density_ell(q, e, y, tau), lo, hi, limit=400)
                worst = max(worst, abs(total - 1.0))
    check(2, worst < 1e-8, f"max |integral - 1| = {worst:.3e} (tol 1e-8)")


def test_criterion_03_legendre_layer():
    worst_rt = 0.0
    for q in range(2, 9):
        for x in np.geomspace(1.0 + 1e-6, 1e3, 40):
            worst_rt = max(worst_rt, abs(g_inverse(q, g(q, x)) - x) / max(1.0, x))
    worst_fd = 0.0
    for q in range(2, 9):
        for x in np.geomspace(1.01, 100.0, 30):
            h = 1e-6 * x
            fd = (g(q, x + h) - g(q, x - h)) / (2.0 * h)
            worst_fd = max(worst_fd, abs(phi(q, x) - fd) / fd)
    worst_gf = 0.0
    for x, z in ((1.3, 0.3), (0.5, 0.4), (2.0, 0.2)):
        closed = (1.0 - 2.0 * x * z + z * z) ** -0.5
        partial = sum(legendre_eval(k, x) * z**k for k in range(201))
        worst_gf = max(worst_gf, abs(partial - closed))
    ok = worst_rt < 1e-10 and worst_fd < 1e-6 and worst_gf < 1e-10
    check(
        3,
        ok,
        f"round-trip {worst_rt:.3e} (tol 1e-10), phi vs FD {worst_fd:.3e} (tol 1e-6), "
        f"generating function {worst_gf:.3e} (tol 1e-10)",
    )


def test_criterion_04_exact_mean_oracle():
    rng = np.random.default_rng(41)
    rows = convergence_study(2, 0.5, 0.0, [1024], 10_000, rng)
    row = rows[0]
    gap = abs(row["mean"] - row["theory_mean"])
    ok = gap < 3 * row["stderr"]
    check(
        4,
        ok,
        f"MC mean {row['mean']:.5f} vs quadrature {row['theory_mean']:.5f}, "
        f"|gap| = {gap:.2e} < 3 SE = {3 * row['stderr']:.2e}",
    )


def test_criterion_05_fixed_amplitude_finite_size_law():
    rng = np.random.default_rng(51)
    s = 1.0 / math.sqrt(2.0)
    rows = convergence_study(2, 0.5, 0.0, [64, 256, 1024], 20_000, rng, st=(s, s))
    details = []
    ok = True
    for row in rows:
        n = row["N"]
        target = 2.0 * n / (n + 2.0)
        gap = abs(row["mean"] - target)
        ok = ok and gap < 3 * row["stderr"]
        details.append(f"N={n}: |{row['mean']:.5f} - {target:.5f}| vs 3SE {3 * row['stderr']:.1e}")
    check(5, ok, "; ".join(details))


def test_criterion_06_sampler_matches_cdf():
    rng = np.random.default_rng(61)
    details = []
    ok = True
    for q, y, tau in ((2, 0.5, 0.0), (3, 1.0, 0.0), (2, 1.0, 0.5)):
        xs = sample_ell(q, y, tau, rng, size=100_000)
        d = ks_distance(EmpiricalDist.from_samples(xs), lambda e: cdf_ell(q, e, y, tau))
        ok = ok and d < 0.01
        details.append(f"(q={q}, y={y}, tau={tau}): KS={d:.4f}")
    check(6, ok, "; ".join(details) + " (tol 0.01)")


def test_criterion_07_full_matrix_depletion_regime(depletion_records):
    """Binned matrix Monte Carlo against the asymptotic law, KS < 0.06.

    The reference CDF is the N -> oo limit.  At N = 400 the *exact*
    finite-size law already sits at KS ~= 0.073 from that limit (measured
    with 1e5 synthetic eigenvectors, noise floor 0.003), because finite-size
    fluctuations of width ~N^(-1/2) smear the jump of the limiting density
    at the lower support edge.  The pinned tolerance 0.06 is therefore
    consumed by the finite-size gap alone, and this check documents that
    gap; the companion test below verifies that the matrix data do follow
    the exact finite-size law.
    """
    dist = conditional_ipr(depletion_records, 2, 0.5, 0.1, 0.5, 400)
    d = ks_distance(dist, lambda e: cdf_ell(2, e, 0.5, 0.0))
    check(7, d < 0.06, f"KS = {d:.4f} over {dist.count} bin samples (tol 0.06)")


def test_criterion_07_companion_finite_size_law(depletion_records):
    """The matrix bin sample matches the finite-size synthetic construction."""
    dist = conditional_ipr(depletion_records, 2, 0.5, 0.1, 0.5, 400)
    rng = np.random.default_rng(71)
    synth = np.empty(40_000)
    # Blocks consume the generator as one-vector calls do, with the same bits.
    block = 1000
    for k in range(0, synth.size, block):
        vecs, _ = synthetic_eigvec_sample(400, 0.5, 0.0, rng, size=block)
        synth[k : k + block] = ipr(vecs, 2)
    d = ks_2samp(dist.values, synth).statistic
    print(
        f"criterion 07 companion: matrix bin vs finite-size construction "
        f"KS = {d:.4f} over {dist.count} samples"
    )
    assert d < 0.12


def test_criterion_08_regime_limits(elliptic500_records, complex500_records):
    n = 500
    root_n = math.sqrt(n)
    t = elliptic500_records
    reals = t.ipr[2][t.is_real]
    far = t.ipr[2][~t.is_real & (root_n * t.im > 20.0) & (np.abs(t.re) < 0.5)]
    mean_real = float(np.mean(reals))
    mean_far = float(np.mean(far))
    mean_cplx = float(np.mean(complex500_records.ipr[2]))
    bin_a = conditional_ipr(complex500_records, 2, 2.0, 0.5, 0.5, n)  # heights [1, 3]
    bin_b = conditional_ipr(complex500_records, 2, 9.0, 1.0 / 9.0, 0.5, n)  # heights [8, 10]
    m = min(bin_a.count, bin_b.count)
    rng = np.random.default_rng(81)
    sub_a = rng.choice(bin_a.values, size=m, replace=False)
    sub_b = rng.choice(bin_b.values, size=m, replace=False)
    d_bins = ks_2samp(sub_a, sub_b).statistic
    ok = (
        abs(mean_real - 3.0) < 0.1
        and abs(mean_far - 2.0) < 0.05
        and abs(mean_cplx - 2.0) < 0.05
        and d_bins < 0.05
    )
    check(
        8,
        ok,
        f"real-axis mean {mean_real:.3f} (3±0.1, {len(reals)} records); "
        f"far-axis mean {mean_far:.3f} (2±0.05, {len(far)} records); "
        f"complex mean {mean_cplx:.3f} (2±0.05); "
        f"bin-invariance KS {d_bins:.4f} over {m}+{m} (tol 0.05)",
    )


def test_criterion_09_orthogonal_moment_identities():
    rng = np.random.default_rng(91)
    n, total, chunk = 10, 1_000_000, 100_000
    o11 = np.empty(total)
    o21 = np.empty(total)
    for start in range(0, total, chunk):
        batch = sample_haar_orthogonal(n, rng, size=chunk)
        o11[start : start + chunk] = batch[:, 0, 0]
        o21[start : start + chunk] = batch[:, 1, 0]
    details = []
    ok = True
    for vals, target, label in (
        (o11**2, 1.0 / 10.0, "E[O11^2]"),
        (o11**4, 1.0 / 40.0, "E[O11^4]"),
        (o11**2 * o21**2, 1.0 / 120.0, "E[O11^2 O21^2]"),
    ):
        se = vals.std(ddof=1) / math.sqrt(total)
        gap = abs(vals.mean() - target)
        ok = ok and gap < 3 * se
        details.append(f"{label}: |{vals.mean():.6f} - {target:.6f}| vs 3SE {3 * se:.1e}")
    check(9, ok, "; ".join(details))


def test_criterion_10_concentration_proxy():
    rng = np.random.default_rng(101)
    rows = convergence_study(2, 0.5, 0.0, [256, 1024, 4096], 10_000, rng)
    stds = [row["std"] for row in rows]
    ok = stds[0] > stds[1] > stds[2]
    check(
        10,
        ok,
        "std strictly decreasing: "
        + " > ".join(f"{s:.4f} (N={r['N']})" for s, r in zip(stds, rows)),
    )


def test_criterion_11_uniform_sphere_limits():
    rng = np.random.default_rng(111)
    n, draws = 4096, 2000
    details = []
    ok = True
    for field, limit_fn in (("real", double_factorial_odd), ("complex", factorial)):
        sums = {q: 0.0 for q in Q_GRID}
        for _ in range(draws):
            u = uniform_sphere_sample(n, field, rng)
            for q in Q_GRID:
                sums[q] += ipr(u, q)
        for q in Q_GRID:
            mean = sums[q] / draws
            target = limit_fn(q)
            ok = ok and abs(mean - target) < 0.02 * target
            details.append(f"{field} q={q}: {mean:.3f} vs {target}")
    check(11, ok, "; ".join(details) + " (tol 2%)")
