r"""Exact laws for eigenvector localization near the real axis.

Conditioned on a complex eigenvalue ``x + i y / sqrt(N)`` of a real
rotation-invariant Gaussian matrix with asymmetry parameter ``tau in [0, 1)``,
three related distributions describe the associated unit eigenvector in the
large-``N`` limit:

* the block gap ``delta = sqrt(N) * (b - c)`` between the off-diagonal
  entries of the canonical 2x2 block (`density_delta`);
* the scale parameter ``S = (b + c) / (2 sqrt(b c)) >= 1``, distributed as a
  centered normal of scale ``sqrt(1 - tau**2) / (2 y)`` conditioned to exceed
  1 (`density_S`, `cdf_S`, `sample_S`);
* the limiting IPR level ``ell = g(q, S)``, supported on ``(q!, (2q-1)!!)``
  (`density_ell`, `cdf_ell`, `sample_ell`).  ``g(q, S)`` is also the limiting
  mean IPR conditioned on ``S = 1/(2 s t)``: the ``2q``-th absolute moment of
  ``t*X + i*s*Y`` for independent standard Gaussians ``X, Y``.

Densities and CDFs work elementwise: they take a scalar or an array and
return the shape of their input, with a scalar giving a ``numpy.float64``.
They are defined on the whole real line, so they return NaN at a NaN point.

All functions take ``y`` as the *scaled* imaginary part (the eigenvalue is
``x + i y / sqrt(N)``), never the raw one, with ``tau in [0, 1)`` and
``0 < y sqrt(2 / (1 - tau**2)) <= 1e150``; any other ``(y, tau)`` raises
`ValueError`.  Finite-size corrections are
available through `mean_ipr_finite_N` and `mean_ipr_depletion_finite_N`.
Normalizing constants are evaluated with the scaled complementary error
function ``erfcx`` so that large ``y`` neither overflows nor cancels.

``scipy.special`` is imported on first call by the functions that need it:
`density_delta`, the laws of ``S`` and ``ell``, the samplers (and with them
`schur.synthetic_eigvec_sample`) and `mean_ipr_depletion_finite_N`.  A run
that only samples matrices never loads it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .core import _count, double_factorial_odd, factorial
from .legendre import _check_order, g, g_inverse, phi

__all__ = [
    "cdf_S",
    "cdf_ell",
    "density_S",
    "density_delta",
    "density_ell",
    "mean_ipr_depletion_finite_N",
    "mean_ipr_finite_N",
    "orthogonal_joint_moment",
    "sample_S",
    "sample_ell",
]


def _check_y_tau(y, tau):
    if not y > 0:
        raise ValueError(f"scaled imaginary part y must be > 0, got {y}")
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"asymmetry parameter tau must be in [0, 1), got {tau}")
    # From z = y sqrt(2 / (1 - tau**2)) near 1.3e154, z*z and log_ndtr(-1/sigma) overflow.
    if not y * math.sqrt(2.0 / (1.0 - tau * tau)) <= 1e150:
        raise ValueError(f"scaled imaginary part y must be > 0, finite and at most 1e150*sqrt((1-tau**2)/2), got {y}")


def density_delta(delta, y, tau):
    """Density of the scaled block gap ``delta = sqrt(N) * (b - c)``.

    For ``delta > 0`` the density is proportional to
    ``delta * exp(-delta**2 / (2 (1 - tau**2))) / sqrt(delta**2 + 4 y**2)``,
    with normalizer ``sqrt(pi (1-tau**2) / 2) * exp(2 y**2 / (1-tau**2)) *
    erfc(y sqrt(2 / (1-tau**2)))``; it vanishes on ``delta <= 0``.
    """
    from scipy.special import erfcx

    _check_y_tau(y, tau)
    v = 1.0 - tau * tau
    z_norm = math.sqrt(math.pi * v / 2.0) * float(erfcx(y * math.sqrt(2.0 / v)))
    d = np.asarray(delta, dtype=float)
    # Clamped to [0, 40]: the density vanishes on d <= 0, and past 40 the Gaussian
    # factor is an exact 0 for every tau (40**2 / 2 > 745), so nothing overflows.
    c = np.clip(d, 0.0, 40.0)
    body = c * np.exp(-np.square(c) / (2.0 * v)) / np.sqrt(np.square(c) + 4.0 * y * y)
    return np.where(d <= 0.0, 0.0, body / z_norm)[()]


def density_S(u, y, tau):
    """Density of the scale parameter ``S``: truncated normal on ``(1, oo)``.

    ``S`` is a centered Gaussian of variance ``(1 - tau**2) / (4 y**2)``
    conditioned on being greater than 1; the density vanishes on ``u <= 1``.
    """
    from scipy.special import erfcx

    _check_y_tau(y, tau)
    v = 1.0 - tau * tau
    z = y * math.sqrt(2.0 / v)
    # exp(-2 y^2 u^2 / v) / (sqrt(pi v / (8 y^2)) erfc(z)), written so the
    # exponent is relative to the truncation point u = 1.
    norm = math.sqrt(math.pi * v / (8.0 * y * y)) * float(erfcx(z))
    u = np.asarray(u, dtype=float)
    # Clamped at the truncation point so u < 1 cannot overflow the exponent.
    body = np.exp(-z * z * (np.square(np.maximum(u, 1.0)) - 1.0))
    return np.where(u <= 1.0, 0.0, body / norm)[()]


def cdf_S(u, y, tau):
    """CDF of the scale parameter ``S``, in closed form via erfc ratios."""
    from scipy.special import erfcx

    _check_y_tau(y, tau)
    u = np.asarray(u, dtype=float)
    v = 1.0 - tau * tau
    z = y * math.sqrt(2.0 / v)
    uc = np.maximum(u, 1.0)
    # P(S > u) = erfc(u z) / erfc(z), evaluated as an erfcx ratio so both
    # tails stay finite for large y.
    tail = erfcx(uc * z) / erfcx(z) * np.exp(-z * z * (np.square(uc) - 1.0))
    return np.where(u <= 1.0, 0.0, 1.0 - np.minimum(tail, 1.0))[()]


def _S_from_log_survival(log_p, y, tau):
    """Inverse survival function of ``S``: the ``u`` with ``log P(S > u) = log_p``.

    ``u = -sigma ndtri(p ndtr(-1/sigma))`` for the normal's scale ``sigma``,
    in logs (``ndtri_exp``, ``log_ndtr``) so it keeps full precision however
    close to ``S = 1`` the law crowds, and clamped at 1 against rounding.
    The one map from survival probabilities to ``S``: `sample_S`,
    `schur.synthetic_eigvec_sample` and `mean_ipr_depletion_finite_N` all
    go through it.
    """
    from scipy.special import log_ndtr, ndtri_exp

    # Scale of the normal whose restriction to (1, oo) is the law of S.
    sigma = math.sqrt(1.0 - tau * tau) / (2.0 * y)
    return np.maximum(-sigma * ndtri_exp(log_p + log_ndtr(-1.0 / sigma)), 1.0)


def sample_S(y, tau, rng, size=None):
    """Exact sampler of the scale parameter ``S``, by inverse transform.

    Each sample takes one ``rng.random()`` value ``u`` and returns the
    inverse survival function of ``S`` at ``p = 1 - u``, evaluated in logs
    from ``log1p(-u)``.  So ``cdf_S(S) = u`` up to rounding: within
    ``1e-13 (1 + z**2)`` for ``z = y sqrt(2 / (1 - tau**2))`` up to 100, and
    within ``1e-5`` beyond, where ``ndtri_exp``'s deep tail sets the error.
    A ``size=n`` call draws as ``n`` calls without ``size`` and returns
    their bits.

    Parameters
    ----------
    y, tau : float
        Law parameters; ``y > 0``, ``tau in [0, 1)``.
    rng : numpy.random.Generator
    size : int, optional
        Number of samples; a bare float is returned when omitted.
    """
    _check_y_tau(y, tau)
    u = rng.random(1 if size is None else _count("size", size, 0))
    S = _S_from_log_survival(np.log1p(-u), y, tau)
    return float(S[0]) if size is None else S


def sample_ell(q, y, tau, rng, size=None):
    """Sample the limiting IPR level ``ell = g(q, S)``, supported on ``(q!, (2q-1)!!)``."""
    s = sample_S(y, tau, rng, size=size)
    return g(q, s)


def density_ell(q, ell, y, tau):
    """Density of the limiting IPR level of order ``q``.

    Obtained from the law of ``S`` by the change of variables through the
    increasing map ``g(q, .)``:
    ``density_S(g_inverse(q, ell)) / |phi(q, g_inverse(q, ell))|`` on the open
    support ``(q!, (2q-1)!!)``, and 0 outside.  Where the root rounds to
    ``S = 1``, ``density_S`` is taken as its right limit.
    """
    _check_y_tau(y, tau)
    q = _check_order(q)
    ell = np.asarray(ell, dtype=float)
    out = np.where(np.isnan(ell), np.nan, 0.0)
    inside = (ell > factorial(q)) & (ell < double_factorial_odd(q))
    x = g_inverse(q, ell[inside])
    # Every inside level is above q!, so a root that rounds to exactly 1 is
    # still in the closed support: take density_S's right limit there.
    out[inside] = density_S(np.maximum(x, np.nextafter(1.0, 2.0)), y, tau) / np.abs(phi(q, x))
    return out[()]


def cdf_ell(q, ell, y, tau):
    """CDF of the limiting IPR level: ``cdf_S`` composed through ``g_inverse``."""
    _check_y_tau(y, tau)
    q = _check_order(q)
    ell = np.asarray(ell, dtype=float)
    hi = double_factorial_odd(q)
    out = np.where(ell >= hi, 1.0, np.where(np.isnan(ell), np.nan, 0.0))
    inside = (ell > factorial(q)) & (ell < hi)
    out[inside] = cdf_S(g_inverse(q, ell[inside]), y, tau)
    return out[()]


def orthogonal_joint_moment(N, k, j):
    """Joint even moment ``E[O_11**(2k) * O_21**(2j)]`` of a Haar orthogonal matrix.

    Equals ``(2k-1)!! (2j-1)!! / (N (N+2) ... (N + 2(k+j) - 2))`` with the
    convention ``(-1)!! = 1``.
    """
    N = _count("matrix dimension", N, 2)
    k = _count("moment order k", k, 0)
    j = _count("moment order j", j, 0)
    num = double_factorial_odd(k) * double_factorial_odd(j)
    den = math.prod(N + 2 * i for i in range(k + j))
    return num / den


def _finite_n_prefactor(N, q):
    # N**q / (N (N+2) ... (N + 2q - 2)), written as a product of ratios so
    # that N up to 1e9 stays exact to rounding.  The finite-N means hold for
    # whole N >= 2, or math.inf for the limit; below 2 the prefactor leaves
    # the support or divides by zero.
    N = N if N == math.inf else _count("matrix dimension N", N, 2)
    return math.prod(1.0 / (1.0 + 2.0 * i / N) for i in range(q))


def mean_ipr_finite_N(N, q, s, t):
    """Exact mean IPR of ``i*s*O1 + t*O2`` at finite dimension ``N``.

    ``O1, O2`` are the first two columns of a Haar orthogonal matrix and
    ``s**2 + t**2 = 1``.  The value is
    ``N**q / (N (N+2) ... (N+2q-2)) * sum_k binom(q,k) s**(2k) t**(2(q-k))
    (2k-1)!! (2(q-k)-1)!!`` and increases to its ``N -> oo`` limit.
    ``N >= 2``, or ``math.inf`` for the limit.
    """
    q = _count("order", q, 1)
    if not abs(s * s + t * t - 1.0) <= 1e-10:
        raise ValueError("mixing amplitudes must satisfy s**2 + t**2 = 1")
    total = sum(
        math.comb(q, k)
        * s ** (2 * k)
        * t ** (2 * (q - k))
        * double_factorial_odd(k)
        * double_factorial_odd(q - k)
        for k in range(q + 1)
    )
    return _finite_n_prefactor(N, q) * total


@functools.cache
def _tanh_sinh_rule():
    # Tanh-sinh rule on the survival probability p in (0, 1) of the scale
    # parameter: p = expit(pi sinh t) at t = k h, |k| <= 70, h = 0.05, with
    # weights dp/dt * h.  The outermost nodes sit about 2e-23 from either
    # end, so the truncated mass is far below double precision.  Built once,
    # on first use, so that importing this module does not load scipy; the
    # cached arrays are read-only because every call shares them.
    # Returns (log p, weight).
    from scipy.special import expit, log_expit

    t = 0.05 * np.arange(-70, 71)
    a = np.pi * np.sinh(t)
    log_p = log_expit(a)
    weight = 0.05 * np.pi * np.cosh(t) * expit(a) * expit(-a)
    log_p.flags.writeable = weight.flags.writeable = False
    return log_p, weight


def mean_ipr_depletion_finite_N(N, q, y, tau):
    """Mean IPR at finite ``N`` conditioned on an eigenvalue ``x + i y / sqrt(N)``.

    Integrates the conditional mean ``g(q, S)`` over the law of the scale
    parameter and applies the finite-``N`` prefactor:
    ``N**q / (N (N+2) ... (N+2q-2)) * E[g(q, S)]``.

    ``E[g(q, S)]`` is the integral of ``g(q, u(p))`` over the survival
    probability ``p = P(S > u)`` on ``(0, 1)``, with ``u(p)`` the inverse
    survival function that `sample_S` also uses, evaluated in logs so it
    keeps full precision however close to ``S = 1`` the law crowds.  A fixed
    141-node tanh-sinh rule does the integral in one array call; it handles
    the logarithmic endpoint at ``p = 0`` and the narrow peak at ``S = 1``
    for large ``2 y / sqrt(1 - tau**2)`` alike.
    Against 30-digit references for ``q = 2..8``, ``y`` from 0.02 to 300 and
    ``tau`` up to 0.99 the relative error is below ``1e-10``.  Up to rounding
    the value lies between ``q!`` and ``(2q-1)!!`` times the prefactor.
    ``N >= 2``, or ``math.inf`` for the limit.
    """
    _check_y_tau(y, tau)
    q = _check_order(q)
    log_p, weight = _tanh_sinh_rule()
    return _finite_n_prefactor(N, q) * float(weight @ g(q, _S_from_log_survival(log_p, y, tau)))
