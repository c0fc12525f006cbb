import math

import numpy as np
import pytest

from eigipr import density_ell, double_factorial_odd, factorial, g, g_inverse, legendre_eval, phi
from eigipr.legendre import _scaled_terms


def g2_closed(x):
    return 3.0 - 1.0 / x**2


def g3_closed(x):
    return 15.0 - 9.0 / x**2


def g4_closed(x):
    return 105.0 - 90.0 / x**2 + 9.0 / x**4


def g2_inv_closed(ell):
    return 1.0 / np.sqrt(3.0 - ell)


def g3_inv_closed(ell):
    return 3.0 / np.sqrt(15.0 - ell)


def g4_inv_closed(ell):
    return np.sqrt(3.0 / (15.0 - np.sqrt(120.0 + ell)))


class TestLegendreEval:
    @pytest.mark.parametrize("x", [-1.0, 0.0, 2.0])
    def test_base_cases(self, x):
        assert legendre_eval(0, x) == 1.0
        assert legendre_eval(1, x) == x

    def test_value_one_at_one(self):
        for q in range(11):
            assert legendre_eval(q, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_generating_function_converged_sum(self):
        # sum_q L_q(x) z^q = (1 - 2 x z + z^2)^(-1/2); at (x, z) = (1.3, 0.3)
        # terms decay like 0.64^q, so 80 terms are enough for full precision
        x, z = 1.3, 0.3
        closed = (1.0 - 2.0 * x * z + z * z) ** -0.5
        partial = sum(legendre_eval(q, x) * z**q for q in range(81))
        assert abs(partial - closed) < 1e-10

    def test_generating_function_second_point(self):
        x, z = 0.4, 0.25
        closed = (1.0 - 2.0 * x * z + z * z) ** -0.5
        partial = sum(legendre_eval(q, x) * z**q for q in range(121))
        assert abs(partial - closed) < 1e-12

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-1, 3, 17)
        vec = legendre_eval(5, xs)
        assert np.allclose(vec, [legendre_eval(5, float(x)) for x in xs], rtol=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            legendre_eval(-1, 0.5)


class TestG:
    @pytest.mark.parametrize("x", [1.0, 2.0, 10.0])
    def test_q2_closed_form(self, x):
        assert g(2, x) == pytest.approx(g2_closed(x), rel=1e-14)

    @pytest.mark.parametrize("x", [1.0, 1.5, 7.0])
    def test_q3_closed_form(self, x):
        assert g(3, x) == pytest.approx(g3_closed(x), rel=1e-14)

    @pytest.mark.parametrize("x", [1.0, 1.2, 4.0, 100.0])
    def test_q4_closed_form(self, x):
        assert g(4, x) == pytest.approx(g4_closed(x), rel=1e-14)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_boundary_values(self, q):
        assert g(q, 1.0) == pytest.approx(factorial(q), rel=1e-13)
        top = double_factorial_odd(q)
        assert abs(g(q, 1e6) - top) < 1e-4 * top

    @pytest.mark.parametrize("q", range(2, 9))
    def test_strictly_increasing(self, q):
        xs = np.geomspace(1.0, 1e4, 200)
        vals = g(q, xs)
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_bits_match_full_recurrence(self, q):
        # g skips the slope recurrence; M_q and the deficit keep their bits.
        x = np.concatenate([[1.0, np.nextafter(1.0, 2.0), 2.0], np.geomspace(1.0, 1e6, 2001)])
        mq, deficit, _ = _scaled_terms(q, 1.0 / (x * x), slope=True)
        full = np.where(x < 2.0, factorial(q) * mq, double_factorial_odd(q) - deficit)
        assert g(q, x).tobytes() == full.tobytes()

    @pytest.mark.parametrize("q", range(2, 9))
    def test_huge_argument_reaches_ceiling(self, q):
        # x * x overflows past about 1.3e154; that must neither warn nor move g.
        top = double_factorial_odd(q)
        assert g(q, 1e200) == top
        assert np.array_equal(g(q, np.array([1e200, 1e300, np.inf])), [top] * 3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g(2, 0.5)
        with pytest.raises(ValueError):
            g(1, 2.0)
        with pytest.raises(ValueError):
            g(31, 2.0)

    def test_nan_rejected(self):
        # g_inverse refuses NaN; so do g and phi, like any point below 1.
        for f in (g, phi):
            with pytest.raises(ValueError):
                f(2, math.nan)
            with pytest.raises(ValueError):
                f(3, np.array([2.0, math.nan]))


class TestPhi:
    @pytest.mark.parametrize("x", [1.1, 2.0, 5.0])
    def test_q2_closed_form(self, x):
        assert phi(2, x) == pytest.approx(2.0 / x**3, rel=1e-12)

    @pytest.mark.parametrize("x", [1.5, 3.0])
    def test_q3_closed_form(self, x):
        assert phi(3, x) == pytest.approx(18.0 / x**3, rel=1e-12)

    @pytest.mark.parametrize("x", [1.2, 2.5])
    def test_q4_closed_form(self, x):
        assert phi(4, x) == pytest.approx((180.0 * x**2 - 36.0) / x**5, rel=1e-12)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_matches_finite_differences(self, q):
        for x in np.geomspace(1.01, 100.0, 25):
            h = 1e-6 * x
            fd = (g(q, x + h) - g(q, x - h)) / (2.0 * h)
            assert phi(q, x) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_removable_singularity_at_one(self, q):
        # phi(q, 1) is the limit g'(1) = q! q (q-1) / 2, so the density of the
        # IPR level stays finite one ulp above q!, where g_inverse can return 1.
        assert phi(q, 1.0) == pytest.approx(phi(q, 1.0 + 1e-7), rel=1e-5)
        assert np.array_equal(phi(q, np.array([1.0, 2.0])), [phi(q, 1.0), phi(q, 2.0)])
        assert np.isfinite(density_ell(q, np.nextafter(factorial(q), np.inf), 1.0, 0.0))

    def test_closed_forms_next_to_one(self):
        # w = x**-2 = 1 is a regular point of the slope, so next to it phi keeps
        # full precision instead of dividing a cancelling difference by x - 1.
        x = 1 + 3.3e-13
        assert phi(3, x) == pytest.approx(18.0 / x**3, rel=1e-13)
        assert phi(4, x) == pytest.approx((180.0 * x**2 - 36.0) / x**5, rel=1e-13)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_huge_argument_is_flat(self, q):
        assert phi(q, 1e200) == 0.0
        assert np.array_equal(phi(q, np.array([1e200, 1e300, np.inf])), [0.0] * 3)

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            phi(2, 0.9)
        with pytest.raises(ValueError):
            phi(2, np.array([1.0, 0.9]))


class TestGInverse:
    def test_q2_closed_form(self):
        assert g_inverse(2, 2.75) == pytest.approx(2.0, rel=1e-12)
        for ell in [2.01, 2.5, 2.99]:
            assert g_inverse(2, ell) == pytest.approx(g2_inv_closed(ell), rel=1e-11)

    def test_q3_closed_form(self):
        for ell in [6.1, 10.0, 14.9]:
            assert g_inverse(3, ell) == pytest.approx(g3_inv_closed(ell), rel=1e-11)

    def test_q4_closed_form(self):
        for ell in [24.5, 60.0, 104.0]:
            assert g_inverse(4, ell) == pytest.approx(g4_inv_closed(ell), rel=1e-11)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_round_trip(self, q):
        for x in np.geomspace(1.0 + 1e-6, 1e3, 40):
            assert abs(g_inverse(q, g(q, x)) - x) <= 1e-10 * max(1.0, x)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            g_inverse(2, 2.0)  # closed lower endpoint
        with pytest.raises(ValueError):
            g_inverse(2, 3.0)  # closed upper endpoint
        with pytest.raises(ValueError):
            g_inverse(2, 1.0)
        with pytest.raises(ValueError):
            g_inverse(2, 5.0)


class TestBatchingBitwise:
    # cdf_ell and density_ell are compared bit for bit with one 0-d
    # g_inverse and phi call per point, so batching must not move a bit.
    @pytest.mark.parametrize("q", range(2, 9))
    def test_array_calls_match_0d_calls(self, q):
        lo, hi = factorial(q), double_factorial_odd(q)
        ells = np.concatenate([
            [np.nextafter(lo, np.inf), np.nextafter(hi, 0.0)],
            lo * (1 + np.array([1e-14, 1e-9])),
            hi * (1 - np.array([1e-14, 1e-9])),
            np.linspace(lo, hi, 26)[1:-1],
        ])
        x = g_inverse(q, ells)
        assert x.tobytes() == np.array([g_inverse(q, e) for e in ells]).tobytes()
        grid = ells.reshape(2, -1)
        assert g_inverse(q, grid).tobytes() == x.tobytes()
        assert g_inverse(q, grid).shape == grid.shape
        xs = np.concatenate([[1.0, np.nextafter(1.0, 2.0)], x])
        p = phi(q, xs)
        assert p.tobytes() == np.array([phi(q, v) for v in xs]).tobytes()
        assert phi(q, xs[2:].reshape(2, -1)).tobytes() == p[2:].tobytes()

    @pytest.mark.parametrize("q", range(2, 9))
    def test_one_ulp_below_upper_limit_has_finite_root(self, q):
        top = double_factorial_odd(q)
        ell = np.nextafter(top, 0.0)
        x = g_inverse(q, ell)
        assert np.isfinite(x) and x > 1e7
        assert g(q, x) == pytest.approx(ell, rel=1e-15)


class TestGInverseHighPrecision:
    # Reference roots of q! * x**(-q) * L_q(x) = ell at 60 significant digits,
    # found by bisection on a bracket that owes nothing to g_inverse.
    @staticmethod
    def _mp_root(q, ell):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            target = mpmath.mpf(ell)
            fac = mpmath.factorial(q)

            def gq(x):
                prev, cur = mpmath.mpf(1), x
                for n in range(1, q):
                    prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
                return fac * cur / x**q

            lo, hi = mpmath.mpf(1), mpmath.mpf(2)
            while gq(hi) < target:
                lo, hi = hi, 2 * hi
            for _ in range(220):
                mid = (lo + hi) / 2
                if gq(mid) < target:
                    lo = mid
                else:
                    hi = mid
            return float((lo + hi) / 2)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_near_both_ends(self, q):
        fs = np.array([1e-14, 1e-12, 1e-9, 1e-6, 1e-3])
        ells = np.concatenate([factorial(q) * (1 + fs), double_factorial_odd(q) * (1 - fs)])
        got = g_inverse(q, ells)
        ref = np.array([self._mp_root(q, e) for e in ells])
        assert np.all(np.abs(got - ref) <= 1e-15 * ref)
