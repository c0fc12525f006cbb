import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pervector_reference as ref
import pytest
from scipy.integrate import quad
from scipy.special import erfc

import eigipr
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

    @pytest.mark.parametrize("tau", [0.0, 0.3, 0.999])
    def test_infinite_and_huge_points(self, tau):
        # The suite turns a RuntimeWarning into an error, so this also checks that nothing warns.
        got = density_delta(np.array([np.inf, -np.inf, 1e200, -1e200, 1e155, 40.0, np.nan]), 1.0, tau)
        assert got[:6].tolist() == [0.0] * 6 and not np.signbit(got[:6]).any()
        assert np.isnan(got[6])
        assert density_delta(np.inf, 1.0, tau) == 0.0

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

    # (y, tau) with a = 2 y / sqrt(1 - tau**2) = 0.42, 0.5, 2 and 11.5: from a
    # wide law of S to one crowded near its truncation point at 1.
    BRANCHES = [(0.2, 0.3), (0.25, 0.0), (1.0, 0.0), (5.0, 0.5)]

    @pytest.mark.parametrize("y", [0.02, 0.3, 1.0, 5.0, 50.0, 300.0])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.99])
    def test_inverse_transform_round_trip(self, y, tau):
        # Each sample is the inverse of cdf_S at its uniform.  Past z = 100
        # ndtri_exp's deep tail sets the error (2.2e-6 at y = 300, tau = 0.99).
        rng, u_rng = np.random.default_rng(12), np.random.default_rng(12)
        xs = sample_S(y, tau, rng, size=100_000)
        u = u_rng.random(100_000)
        z = y * math.sqrt(2.0 / (1.0 - tau * tau))
        bound = 1e-13 * (1.0 + z * z) if z <= 100.0 else 1e-5
        assert np.abs(cdf_S(xs, y, tau) - u).max() <= bound
        assert rng.bit_generator.state == u_rng.bit_generator.state

    @pytest.mark.parametrize("size", [1, 17, 163, 5000])
    @pytest.mark.parametrize("y,tau", BRANCHES)
    def test_block_equals_scalar_calls(self, y, tau, size):
        rng, one_rng = np.random.default_rng(13), np.random.default_rng(13)
        got = sample_S(y, tau, rng, size=size)
        want = [sample_S(y, tau, one_rng) for _ in range(size)]
        assert got.tobytes() == np.array(want).tobytes()
        assert rng.bit_generator.state == one_rng.bit_generator.state

    @pytest.mark.parametrize("size", [None, 1, 5000])
    @pytest.mark.parametrize("y,tau", BRANCHES)
    def test_matches_frozen_reference(self, y, tau, size):
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(20 if size is None else 3):
            got = sample_S(y, tau, rng, size=size)
            want = ref.sample_S(y, tau, ref_rng, size=size)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("size", [None, 5000])
    @pytest.mark.parametrize("y,tau", BRANCHES)
    def test_sample_ell_matches_frozen_reference(self, y, tau, size):
        rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
        got = sample_ell(3, y, tau, rng, size=size)
        want = g(3, ref.sample_S(y, tau, ref_rng, size=size))
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


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

    @pytest.mark.parametrize("q", range(2, 9))
    def test_density_continuous_at_lower_edge(self, q):
        # One ulp above q! the root S can round to exactly 1; the density there
        # is the right limit density_S(1+) / g'(1).  At y = 1, tau = 0, S is a
        # normal of sd 1/2 truncated to S > 1, and g'(1) = q! q (q - 1) / 2.
        sd = 0.5
        dens_s = math.exp(-2.0) / (sd * math.sqrt(2 * math.pi)) / (0.5 * erfc(math.sqrt(2.0)))
        limit = dens_s / (factorial(q) * q * (q - 1) / 2)
        lo = factorial(q)
        assert density_ell(q, np.nextafter(lo, np.inf), 1.0, 0.0) == pytest.approx(limit, rel=1e-12)
        # 1e-12 above q!, S - 1 is about 2e-12 / (q (q - 1)), so the density
        # is within about 1e-12 of its limit, and phi keeps full precision
        # that close to S = 1.
        assert density_ell(q, lo * (1 + 1e-12), 1.0, 0.0) == pytest.approx(limit, rel=1e-9)

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

    @pytest.mark.parametrize(
        "law, inside",
        [
            (functools.partial(cdf_ell, 2), 2.5),
            (functools.partial(density_ell, 2), 2.5),
            (functools.partial(cdf_ell, 5), 500.0),
            (functools.partial(density_ell, 5), 500.0),
            (cdf_S, 1.5),
            (density_S, 1.5),
            (density_delta, 0.5),
        ],
        ids=["cdf_ell_q2", "density_ell_q2", "cdf_ell_q5", "density_ell_q5", "cdf_S", "density_S", "density_delta"],
    )
    def test_nan_in_nan_out(self, law, inside):
        # Each law is defined on the whole line, so a NaN point is not "outside the support".
        assert math.isnan(law(math.nan, 1.0, 0.3))
        got = law(np.array([math.nan, inside, -1.0, 40.0, math.nan]), 1.0, 0.3)
        assert np.isnan(got[[0, 4]]).all() and not np.isnan(got[1:4]).any()
        # The finite points keep the bits of calls without the NaNs.
        assert got[1:4].tobytes() == law(np.array([inside, -1.0, 40.0]), 1.0, 0.3).tobytes()


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
        with pytest.raises(ValueError, match="amplitudes"):
            mean_ipr_finite_N(64, 2, math.nan, 0.5)

    @pytest.mark.parametrize("N", [1, 0, -3, 1.5, math.nan, -math.inf])
    def test_finite_N_means_reject_dimension_below_two(self, N):
        # At N = 1 the prefactor puts the mean below 1, at N = -3 above
        # (2q-1)!!, and at N = 0 it divides by zero.
        with pytest.raises(ValueError, match="N must be >= 2"):
            mean_ipr_finite_N(N, 2, 0.8, 0.6)
        with pytest.raises(ValueError, match="N must be >= 2"):
            mean_ipr_depletion_finite_N(N, 2, 0.5, 0.0)

    def test_finite_N_means_at_smallest_dimension_and_limit(self):
        assert mean_ipr_finite_N(2, 1, 0.8, 0.6) == pytest.approx(1.0, rel=1e-12)
        assert mean_ipr_finite_N(math.inf, 2, 0.8, 0.6) == pytest.approx(g(2, 1 / (2 * 0.8 * 0.6)), rel=1e-12)
        assert 1.0 <= mean_ipr_depletion_finite_N(2, 2, 0.5, 0.0) < mean_ipr_depletion_finite_N(math.inf, 2, 0.5, 0.0)

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


@functools.cache
def _mp_inverse_moments(y, tau):
    # E[S**(-2k)] for k = 0..4 at 30 digits, by mpmath quadrature in u on
    # breakpoints scaled to the law's width near S = 1: min(sigma, sigma**2).
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        sigma = mpmath.sqrt(1 - mpmath.mpf(tau) ** 2) / (2 * mpmath.mpf(y))
        width = min(sigma, sigma**2)
        pts = [1 + width * c for c in (0, 1, 10, 100)] + [mpmath.inf]

        def weight(u):
            return mpmath.exp(-(u * u - 1) / (2 * sigma**2))

        norm = mpmath.quad(weight, pts)
        return [mpmath.quad(lambda u: weight(u) / u ** (2 * k), pts) / norm for k in range(5)]


def _mp_depletion_mean(N, q, y, tau):
    # g(q, S) = q!/2**q sum_k (-1)**k C(q, k) C(2q - 2k, q) S**(-2k), the
    # Legendre expansion of q! S**-q L_q(S), integrated term by term.
    mpmath = pytest.importorskip("mpmath")
    m = _mp_inverse_moments(y, tau)
    with mpmath.workdps(30):
        mean = sum(
            mpmath.factorial(q) / 2**q * (-1) ** k * mpmath.binomial(q, k) * mpmath.binomial(2 * q - 2 * k, q) * m[k]
            for k in range(q // 2 + 1)
        )
        if N != math.inf:
            mean *= mpmath.mpf(N) ** q / mpmath.fprod(N + 2 * i for i in range(q))
        return float(mean)


class TestDepletionMean:
    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.99])
    @pytest.mark.parametrize("y", [0.02, 0.3, 1.0, 5.0, 50.0, 300.0])
    def test_against_high_precision_oracle(self, y, tau):
        # Large 2y / sqrt(1 - tau**2) crowds S at 1 in a peak of width
        # sigma**2; the mean must stay between the two limits, not collapse.
        for N in (math.inf, 400):
            for q in range(2, 9):
                pref = 1.0 if N == math.inf else math.prod(N / (N + 2 * i) for i in range(q))
                got = mean_ipr_depletion_finite_N(N, q, y, tau)
                assert got == pytest.approx(_mp_depletion_mean(N, q, y, tau), rel=1e-10)
                assert factorial(q) * pref <= got <= double_factorial_odd(q) * pref

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


def _fresh_python(probe):
    # Runs probe in a new interpreter that imports eigipr from this checkout;
    # returns its stdout.
    src = str(Path(eigipr.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.strip()


class TestImportCost:
    def test_import_leaves_out_integrate_and_optimize(self):
        # scipy.integrate pulls in scipy.optimize and scipy.sparse.linalg,
        # about a third of a fresh process's import and warm-up time.
        probe = (
            "import sys, eigipr\n"
            "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))\n"
        )
        assert _fresh_python(probe) == "[]"

    def test_scipy_waits_for_first_law_evaluation(self, tmp_path):
        # scipy.special costs more than numpy itself to import; the matrix
        # pipeline never needs it, so only evaluating or sampling a law may
        # load it.
        probe = (
            "import sys\n"
            "import numpy as np\n"
            "import eigipr, eigipr.cli\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
            "print(loaded())\n"
            "argv = ['sample-spectrum', '--ensemble', 'elliptic', '--N', '8', '--trials', '2',\n"
            f"        '--seed', '1', '--q', '2,3', '--out', {str(tmp_path / 'r.csv')!r}]\n"
            "assert eigipr.cli.main(argv) == 0\n"
            "print(loaded())\n"
            "argv = ['figure', '--ensemble', 'elliptic', '--N', '8', '--trials', '2',\n"
            f"        '--seed', '1', '--out', {str(tmp_path / 'f.svg')!r}]\n"
            "assert eigipr.cli.main(argv) == 0\n"
            "print(loaded())\n"
            "eigipr.sample_S(1.0, 0.0, np.random.default_rng(1))\n"
            "print('scipy.special' in sys.modules)\n"
            "eigipr.cdf_ell(3, 10.0, 1.0, 0.0)\n"
            "print('scipy.special' in sys.modules)\n"
        )
        assert _fresh_python(probe).splitlines() == ["[]", "[]", "[]", "True", "True"]
        assert (tmp_path / "r.csv").stat().st_size > 0
        assert (tmp_path / "f.svg").stat().st_size > 0

    def test_values_do_not_depend_on_when_scipy_loads(self):
        laws = (
            "import numpy as np\n"
            "from eigipr import cdf_S, density_S, density_delta, mean_ipr_depletion_finite_N\n"
            "from eigipr import sample_S, sample_ell, synthetic_eigvec_sample\n"
            "rng = np.random.default_rng(3)\n"
            "print(repr([sample_S(0.4, 0.3, rng), sample_S(0.4, 0.3, rng, size=3).tolist(),\n"
            "            sample_ell(3, 2.0, 0.3, rng, size=3).tolist(),\n"
            "            synthetic_eigvec_sample(5, 1.0, 0.3, rng, size=2)[0].tolist()]))\n"
            "u = np.array([0.5, 1.0, 1.2, 2.0, 7.5])\n"
            "print(repr([mean_ipr_depletion_finite_N(N, q, y, 0.3)\n"
            "            for N in (50, math.inf) for q in (2, 5) for y in (0.05, 1.0, 40.0)]))\n"
            "for y in (0.05, 1.0, 40.0):\n"
            "    print(repr([f(u, y, 0.3).tolist() for f in (cdf_S, density_S)]),\n"
            "          repr(density_delta(u - 1.0, y, 0.3).tolist()), repr(cdf_S(1.7, y, 0.0)))\n"
        )
        eager = _fresh_python("import math, scipy.special, eigipr\n" + laws)
        lazy = _fresh_python("import math, sys, eigipr\nassert 'scipy' not in sys.modules\n" + laws)
        assert eager == lazy
        assert len(eager.splitlines()) == 5
