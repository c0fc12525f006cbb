import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from eigipr import (
    cdf_S,
    cdf_ell,
    density_S,
    density_delta,
    density_ell,
    double_factorial_odd,
    factorial,
    g,
    g_inverse,
    ipr_limit,
    mean_ipr_depletion_finite_N,
    mean_ipr_finite_N,
    orthogonal_joint_moment,
    phi,
    sample_S,
    sample_ell,
)
from eigipr.experiments import EmpiricalDist, ks_distance


def gamma2(ell, y):
    # closed-form density of the q=2 limiting IPR level at tau=0
    pref = math.sqrt(2) * abs(y) / (math.sqrt(math.pi) * erfc(math.sqrt(2) * abs(y)))
    return pref * np.exp(-2 * y * y / (3 - ell)) / (3 - ell) ** 1.5


def gamma3(ell, y):
    pref = 3 * math.sqrt(2) * abs(y) / (math.sqrt(math.pi) * erfc(math.sqrt(2) * abs(y)))
    return pref * np.exp(-18 * y * y / (15 - ell)) / (15 - ell) ** 1.5


def gamma4(ell, y):
    pref = math.sqrt(6) * abs(y) / (2 * math.sqrt(math.pi) * erfc(math.sqrt(2) * abs(y)))
    root = np.sqrt(120 + ell)
    return pref * np.exp(-6 * y * y / (15 - root)) / (root * (15 - root) ** 1.5)


class TestDensityDelta:
    def test_vanishes_at_origin_and_below(self):
        assert density_delta(0.0, 1.0, 0.0) == 0.0
        assert density_delta(-1.0, 1.0, 0.0) == 0.0

    @pytest.mark.parametrize("y", [0.2, 1.0, 3.0])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.9])
    def test_normalized(self, y, tau):
        total, _ = quad(lambda d: density_delta(d, y, tau), 0, np.inf, limit=200)
        assert abs(total - 1.0) < 1e-8

    def test_normalizer_against_quadrature(self):
        # closed form of the normalizing integral at (y, tau) = (1, 0)
        z_closed = math.sqrt(math.pi / 2) * math.exp(2.0) * erfc(math.sqrt(2.0))
        z_quad, _ = quad(lambda d: d * np.exp(-d * d / 2) / np.sqrt(d * d + 4), 0, np.inf)
        assert abs(z_closed - z_quad) < 1e-10
        # and the implementation uses it: density * Z == unnormalized integrand
        d = 1.7
        unnorm = d * math.exp(-d * d / 2) / math.sqrt(d * d + 4)
        assert density_delta(d, 1.0, 0.0) == pytest.approx(unnorm / z_closed, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            density_delta(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            density_delta(1.0, 1.0, 1.0)


class TestDensityS:
    @pytest.mark.parametrize("y,tau", [(0.2, 0.0), (1.0, 0.5), (3.0, 0.9), (0.5, 0.0)])
    def test_normalized(self, y, tau):
        total, _ = quad(lambda u: density_S(u, y, tau), 1, np.inf, limit=200)
        assert abs(total - 1.0) < 1e-10

    def test_unit_sigma_case(self):
        # tau=0, y=1/2 makes the underlying normal standard
        u = 1.5
        direct = math.sqrt(2 / math.pi) * math.exp(-u * u / 2) / erfc(1 / math.sqrt(2))
        assert density_S(u, 0.5, 0.0) == pytest.approx(direct, rel=1e-12)

    def test_support(self):
        assert density_S(1.0, 1.0, 0.0) == 0.0
        assert density_S(0.5, 1.0, 0.0) == 0.0
        # far below the truncation point at large y: 0 without an exp overflow
        assert np.array_equal(density_S(np.array([0.0, 0.5, 1.0]), 30.0, 0.0), np.zeros(3))
        assert cdf_S(1.0, 1.0, 0.0) == 0.0
        assert cdf_S(0.3, 1.0, 0.0) == 0.0
        assert cdf_S(np.inf, 1.0, 0.0) == 1.0

    def test_cdf_matches_quadrature(self):
        for u in (1.2, 2.0, 4.0):
            val, _ = quad(lambda v: density_S(v, 0.7, 0.3), 1, u)
            assert cdf_S(u, 0.7, 0.3) == pytest.approx(val, abs=1e-10)

    def test_large_y_stays_finite(self):
        assert np.isfinite(density_S(1.0001, 50.0, 0.0))
        assert 0.0 <= cdf_S(1.001, 50.0, 0.0) <= 1.0


class TestSampleS:
    def test_support(self):
        rng = np.random.default_rng(1)
        xs = sample_S(0.3, 0.0, rng, size=5000)
        assert np.all(xs > 1.0)

    @pytest.mark.parametrize("y,tau", [(0.1, 0.0), (1.0, 0.0), (5.0, 0.5)])
    def test_ks_against_cdf(self, y, tau):
        rng = np.random.default_rng(17)
        xs = sample_S(y, tau, rng, size=100_000)
        dist = EmpiricalDist.from_samples(xs)
        d = ks_distance(dist, lambda u: cdf_S(u, y, tau))
        assert d < 0.01

    def test_concentrates_at_one_for_large_y(self):
        rng = np.random.default_rng(2)
        xs = sample_S(50.0, 0.0, rng, size=20_000)
        assert np.mean(xs > 1.1) < 0.01

    def test_scalar_mode(self):
        rng = np.random.default_rng(3)
        val = sample_S(1.0, 0.0, rng)
        assert isinstance(val, float) and val > 1.0


class TestEllLaw:
    def test_sample_support(self):
        rng = np.random.default_rng(5)
        for q in (2, 3):
            xs = sample_ell(q, 0.7, 0.0, rng, size=20_000)
            assert np.all(xs > factorial(q))
            assert np.all(xs < double_factorial_odd(q))

    def test_median_near_real_axis_limit_for_small_y(self):
        rng = np.random.default_rng(6)
        xs = sample_ell(2, 0.01, 0.0, rng, size=40_000)
        assert abs(np.median(xs) - 3.0) < 0.05

    def test_median_near_bulk_limit_for_large_y(self):
        rng = np.random.default_rng(7)
        xs = sample_ell(2, 50.0, 0.0, rng, size=40_000)
        assert abs(np.median(xs) - 2.0) < 0.05

    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, 2.0])
    def test_density_q2_matches_closed_form(self, y):
        ells = np.linspace(2.0, 3.0, 502)[1:-1]
        mine = density_ell(2, ells, y, 0.0)
        assert np.max(np.abs(mine - gamma2(ells, y))) < 1e-10

    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, 2.0])
    def test_density_q3_matches_closed_form(self, y):
        ells = np.linspace(6.0, 15.0, 502)[1:-1]
        mine = density_ell(3, ells, y, 0.0)
        assert np.max(np.abs(mine - gamma3(ells, y))) < 1e-10

    @pytest.mark.parametrize("y", [0.1, 0.5, 1.0, 2.0])
    def test_density_q4_matches_closed_form(self, y):
        ells = np.linspace(24.0, 105.0, 502)[1:-1]
        mine = density_ell(4, ells, y, 0.0)
        assert np.max(np.abs(mine - gamma4(ells, y))) < 1e-10

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("y,tau", [(0.1, 0.0), (0.5, 0.5), (2.0, 0.5)])
    def test_density_normalized(self, q, y, tau):
        lo, hi = factorial(q), double_factorial_odd(q)
        total, _ = quad(lambda e: density_ell(q, e, y, tau), lo, hi, limit=400)
        assert abs(total - 1.0) < 1e-8

    def test_density_zero_outside_support(self):
        assert density_ell(2, 1.9, 0.5, 0.0) == 0.0
        assert density_ell(2, 3.1, 0.5, 0.0) == 0.0
        assert cdf_ell(2, 1.9, 0.5, 0.0) == 0.0
        assert cdf_ell(2, 3.5, 0.5, 0.0) == 1.0

    def test_cdf_composition_identity(self):
        # cdf_ell(g(q, u)) == cdf_S(u)
        for q in (2, 3, 4):
            for u in (1.05, 1.5, 2.5, 6.0):
                lhs = cdf_ell(q, g(q, u), 0.8, 0.0)
                assert lhs == pytest.approx(cdf_S(u, 0.8, 0.0), abs=1e-12)

    def test_cdf_nondecreasing_zero_to_one(self):
        ells = np.linspace(2.0, 3.0, 200)
        vals = cdf_ell(2, ells, 0.7, 0.3)
        assert np.all(np.diff(vals) >= -1e-13)
        assert vals[0] == 0.0 and abs(vals[-1] - 1.0) < 1e-12

    def test_tau_generalization_against_sampler(self):
        # the tau-dependent change of variables must match the sampler
        rng = np.random.default_rng(11)
        q, y, tau = 2, 1.0, 0.5
        xs = sample_ell(q, y, tau, rng, size=100_000)
        d = ks_distance(
            EmpiricalDist.from_samples(xs), lambda e: cdf_ell(q, e, y, tau)
        )
        assert d < 0.01

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_array_calls_match_elementwise_calls(self, q):
        # A batched call must give the same bits as one 0-d call per point,
        # which is how a per-point caller composes cdf_ell and density_ell.
        lo, hi = factorial(q), double_factorial_odd(q)
        ells = np.concatenate([[lo - 1.0, lo, hi, hi + 1.0],
                               lo + (hi - lo) * np.array([1e-12, 0.1, 0.5, 0.9, 1 - 1e-12]),
                               np.linspace(lo, hi, 41)[1:-1]])
        inside = ells[(ells > lo) & (ells < hi)]
        x = g_inverse(q, inside)
        assert x.tobytes() == np.array([g_inverse(q, e) for e in inside]).tobytes()
        for y, tau in [(0.3, 0.0), (1.0, 0.5)]:
            cdf = np.where(ells >= hi, 1.0, 0.0)
            dens = np.zeros_like(ells)
            for i in np.flatnonzero((ells > lo) & (ells < hi)):
                xi = g_inverse(q, ells[i])
                cdf[i] = cdf_S(xi, y, tau)
                dens[i] = density_S(xi, y, tau) / abs(phi(q, xi))
            assert cdf_ell(q, ells, y, tau).tobytes() == cdf.tobytes()
            assert density_ell(q, ells, y, tau).tobytes() == dens.tobytes()
            assert np.array([cdf_ell(q, e, y, tau) for e in ells]).tobytes() == cdf.tobytes()
            assert np.array([density_ell(q, e, y, tau) for e in ells]).tobytes() == dens.tobytes()
            grid = ells[4:].reshape(-1, 2)
            assert cdf_ell(q, grid, y, tau).shape == grid.shape
            assert density_ell(q, grid, y, tau).shape == grid.shape
        assert g_inverse(q, inside.reshape(-1, 1)).shape == (inside.size, 1)
        scalar = g_inverse(q, inside[0])
        assert type(scalar) is np.float64 and isinstance(scalar, float)

    def test_no_point_in_support(self):
        lo, hi = factorial(3), double_factorial_odd(3)
        for ells, cdf in [
            (np.array([]), np.array([])),
            (np.array([0.0, lo - 1.0, lo]), np.zeros(3)),
            (np.array([hi, hi + 1.0]), np.ones(2)),
        ]:
            assert np.array_equal(cdf_ell(3, ells, 1.0, 0.0), cdf)
            assert np.array_equal(density_ell(3, ells, 1.0, 0.0), np.zeros_like(ells))
        assert g_inverse(3, np.array([])).shape == (0,)
        assert cdf_ell(3, hi + 1.0, 1.0, 0.0) == 1.0
        assert cdf_ell(3, lo, 1.0, 0.0) == 0.0
        assert density_ell(3, hi + 1.0, 1.0, 0.0) == 0.0
        # the order is checked even when no point needs g_inverse
        for q in (1, 31):
            with pytest.raises(ValueError):
                cdf_ell(q, np.array([0.0, 1e60]), 1.0, 0.0)
            with pytest.raises(ValueError):
                density_ell(q, np.array([0.0, 1e60]), 1.0, 0.0)


class TestMoments:
    @pytest.mark.parametrize(
        "N,k,j,expect",
        [
            (10, 1, 0, 1 / 10),
            (10, 2, 0, 3 / 120),
            (10, 1, 1, 1 / 120),
            (7, 0, 0, 1.0),
            (5, 0, 2, 3 / 35),
        ],
    )
    def test_orthogonal_joint_moment(self, N, k, j, expect):
        assert orthogonal_joint_moment(N, k, j) == pytest.approx(expect, rel=1e-14)

    def test_mean_ipr_finite_N_q1_is_one(self):
        for n in (10, 1000):
            assert mean_ipr_finite_N(n, 1, 0.6, 0.8) == pytest.approx(1.0, rel=1e-12)

    def test_mean_ipr_finite_N_symmetric_q2(self):
        s = t = 1 / math.sqrt(2)
        assert mean_ipr_finite_N(50, 2, s, t) == pytest.approx(25 / 13, rel=1e-12)
        for n in (64, 1024):
            assert mean_ipr_finite_N(n, 2, s, t) == pytest.approx(2 * n / (n + 2), rel=1e-12)

    def test_mean_ipr_finite_N_increases_to_limit(self):
        s, t = math.sqrt(0.8), math.sqrt(0.2)
        vals = [mean_ipr_finite_N(n, 3, s, t) for n in (10, 100, 1000, 10_000)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        # S = 1/(2 s t) = 1.25; at N = 1e9 the prefactor deficit is ~2(q-1)q/N
        assert mean_ipr_finite_N(10**9, 2, s, t) == pytest.approx(g(2, 1.25), abs=1e-8)
        assert mean_ipr_finite_N(10**9, 3, s, t) == pytest.approx(g(3, 1.25), abs=1e-7)

    def test_mean_ipr_finite_N_rejects_bad_amplitudes(self):
        with pytest.raises(ValueError):
            mean_ipr_finite_N(100, 2, 0.9, 0.9)

    def test_mean_ipr_conditional_endpoints(self):
        # the mean IPR conditioned on S is g(q, S)
        for q in (2, 3, 5):
            assert g(q, 1.0) == pytest.approx(factorial(q), rel=1e-13)
            top = double_factorial_odd(q)
            assert g(q, 1e6) == pytest.approx(top, rel=1e-4)
        with pytest.raises(ValueError):
            g(2, 0.99)

    def test_mean_ipr_conditional_mc_oracle(self):
        # E[(t^2 X^2 + s^2 Y^2)^q] for standard Gaussians X, Y
        rng = np.random.default_rng(23)
        s2, t2 = 0.8, 0.2
        xs, ys = rng.standard_normal((2, 1_000_000))
        vals = (t2 * xs**2 + s2 * ys**2) ** 2
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(g(2, 1.25) - vals.mean()) < 3 * se

    @pytest.mark.parametrize("q,regime,expect", [(2, "real_axis", 3), (2, "bulk", 2), (1, "real_axis", 1), (1, "bulk", 1), (4, "real_axis", 105)])
    def test_ipr_limit(self, q, regime, expect):
        assert ipr_limit(q, regime) == expect

    def test_ipr_limit_rejects_unknown_regime(self):
        with pytest.raises(ValueError):
            ipr_limit(2, "edge")


class TestDepletionMean:
    def test_limit_is_prefactor_free_integral(self):
        val_inf = mean_ipr_depletion_finite_N(math.inf, 2, 0.5, 0.0)
        integral, _ = quad(lambda u: g(2, u) * density_S(u, 0.5, 0.0), 1, 50, limit=200)
        assert val_inf == pytest.approx(integral, abs=1e-9)

    def test_large_y_approaches_bulk_value(self):
        n = 10_000
        target = 2 * n * n / (n * (n + 2))
        assert abs(mean_ipr_depletion_finite_N(n, 2, 50.0, 0.0) - target) < 1e-3

    def test_monotone_decreasing_in_y(self):
        vals = [mean_ipr_depletion_finite_N(math.inf, 2, y, 0.0) for y in (0.1, 0.5, 1.0, 2.0, 5.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_strict_bounds(self):
        for y in (0.1, 1.0, 10.0):
            v = mean_ipr_depletion_finite_N(math.inf, 2, y, 0.0)
            assert 2.0 < v < 3.0
