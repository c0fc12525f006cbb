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

All functions take ``y`` as the *scaled* imaginary part (the eigenvalue is
``x + i y / sqrt(N)``), never the raw one.  Finite-size corrections are
available through `mean_ipr_finite_N` and `mean_ipr_depletion_finite_N`.
Normalizing constants are evaluated with the scaled complementary error
function ``erfcx`` so that large ``y`` neither overflows nor cancels.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erfcx

from .core import double_factorial_odd, factorial
from .legendre import _check_order, g, g_inverse, phi

__all__ = [
    "cdf_S",
    "cdf_ell",
    "density_S",
    "density_delta",
    "density_ell",
    "ipr_limit",
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


def _sigma(y, tau):
    # Scale of the normal whose restriction to (1, oo) is the law of S.
    return math.sqrt(1.0 - tau * tau) / (2.0 * y)


def density_delta(delta, y, tau):
    """Density of the scaled block gap ``delta = sqrt(N) * (b - c)``.

    For ``delta > 0`` the density is proportional to
    ``delta * exp(-delta**2 / (2 (1 - tau**2))) / sqrt(delta**2 + 4 y**2)``,
    with normalizer ``sqrt(pi (1-tau**2) / 2) * exp(2 y**2 / (1-tau**2)) *
    erfc(y sqrt(2 / (1-tau**2)))``; it vanishes on ``delta <= 0``.
    """
    _check_y_tau(y, tau)
    v = 1.0 - tau * tau
    z_norm = math.sqrt(math.pi * v / 2.0) * float(erfcx(y * math.sqrt(2.0 / v)))
    d = np.asarray(delta, dtype=float)
    body = d * np.exp(-np.square(d) / (2.0 * v)) / np.sqrt(np.square(d) + 4.0 * y * y)
    return np.where(d > 0.0, body / z_norm, 0.0)[()]


def density_S(u, y, tau):
    """Density of the scale parameter ``S``: truncated normal on ``(1, oo)``.

    ``S`` is a centered Gaussian of variance ``(1 - tau**2) / (4 y**2)``
    conditioned on being greater than 1; the density vanishes on ``u <= 1``.
    """
    _check_y_tau(y, tau)
    v = 1.0 - tau * tau
    z = y * math.sqrt(2.0 / v)
    # exp(-2 y^2 u^2 / v) / (sqrt(pi v / (8 y^2)) erfc(z)), written so the
    # exponent is relative to the truncation point u = 1.
    norm = math.sqrt(math.pi * v / (8.0 * y * y)) * float(erfcx(z))
    u = np.asarray(u, dtype=float)
    # Clamped at the truncation point so u < 1 cannot overflow the exponent.
    body = np.exp(-z * z * (np.square(np.maximum(u, 1.0)) - 1.0))
    return np.where(u > 1.0, body / norm, 0.0)[()]


def cdf_S(u, y, tau):
    """CDF of the scale parameter ``S``, in closed form via erfc ratios."""
    _check_y_tau(y, tau)
    u = np.asarray(u, dtype=float)
    v = 1.0 - tau * tau
    z = y * math.sqrt(2.0 / v)
    uc = np.maximum(u, 1.0)
    # P(S > u) = erfc(u z) / erfc(z), evaluated as an erfcx ratio so both
    # tails stay finite for large y.
    tail = erfcx(uc * z) / erfcx(z) * np.exp(-z * z * (np.square(uc) - 1.0))
    return np.where(u > 1.0, 1.0 - np.minimum(tail, 1.0), 0.0)[()]


def sample_S(y, tau, rng, size=None):
    """Exact sampler of the scale parameter ``S``.

    With ``a = 2 y / sqrt(1 - tau**2)`` the truncation point of the
    standardized normal, samples use naive Gaussian rejection when
    ``a <= 0.5`` and a one-sided shifted-exponential proposal otherwise,
    whose acceptance rate is uniformly bounded below.

    Parameters
    ----------
    y, tau : float
        Law parameters; ``y > 0``, ``tau in [0, 1)``.
    rng : numpy.random.Generator
    size : int, optional
        Number of samples; a bare float is returned when omitted.
    """
    _check_y_tau(y, tau)
    scalar = size is None
    n = 1 if scalar else int(size)
    sigma = _sigma(y, tau)
    a = 1.0 / sigma
    out = np.empty(n)
    k = 0
    if a <= 0.5:
        # P(Z > a) >= P(Z > 0.5) ~ 0.309
        while k < n:
            m = 4 * (n - k) + 16
            z = rng.standard_normal(m)
            z = z[z > a][: n - k]
            out[k : k + z.size] = z
            k += z.size
    else:
        alpha = 0.5 * (a + math.sqrt(a * a + 4.0))
        while k < n:
            m = 2 * (n - k) + 16
            z = a + rng.exponential(1.0 / alpha, m)
            keep = rng.random(m) <= np.exp(-0.5 * np.square(z - alpha))
            z = z[keep][: n - k]
            out[k : k + z.size] = z
            k += z.size
    out *= sigma
    return float(out[0]) if scalar else out


def sample_ell(q, y, tau, rng, size=None):
    """Sample the limiting IPR level ``ell = g(q, S)``, supported on ``(q!, (2q-1)!!)``."""
    s = sample_S(y, tau, rng, size=size)
    return g(q, s)


def density_ell(q, ell, y, tau):
    """Density of the limiting IPR level of order ``q``.

    Obtained from the law of ``S`` by the change of variables through the
    increasing map ``g(q, .)``:
    ``density_S(g_inverse(q, ell)) / |phi(q, g_inverse(q, ell))|`` on the open
    support ``(q!, (2q-1)!!)``, and 0 outside.
    """
    _check_y_tau(y, tau)
    q = _check_order(q)
    ell = np.asarray(ell, dtype=float)
    out = np.zeros_like(ell)
    inside = (ell > factorial(q)) & (ell < double_factorial_odd(q))
    x = g_inverse(q, ell[inside])
    out[inside] = density_S(x, y, tau) / np.abs(phi(q, x))
    return out[()]


def cdf_ell(q, ell, y, tau):
    """CDF of the limiting IPR level: ``cdf_S`` composed through ``g_inverse``."""
    _check_y_tau(y, tau)
    q = _check_order(q)
    ell = np.asarray(ell, dtype=float)
    hi = double_factorial_odd(q)
    out = np.where(ell >= hi, 1.0, 0.0)
    inside = (ell > factorial(q)) & (ell < hi)
    out[inside] = cdf_S(g_inverse(q, ell[inside]), y, tau)
    return out[()]


def orthogonal_joint_moment(N, k, j):
    """Joint even moment ``E[O_11**(2k) * O_21**(2j)]`` of a Haar orthogonal matrix.

    Equals ``(2k-1)!! (2j-1)!! / (N (N+2) ... (N + 2(k+j) - 2))`` with the
    convention ``(-1)!! = 1``.
    """
    N = int(N)
    k = int(k)
    j = int(j)
    if N < 2:
        raise ValueError(f"matrix dimension must be >= 2, got {N}")
    if k < 0 or j < 0:
        raise ValueError("moment orders must be >= 0")
    num = double_factorial_odd(k) * double_factorial_odd(j)
    den = math.prod(N + 2 * i for i in range(k + j))
    return num / den


def _finite_n_prefactor(N, q):
    # N**q / (N (N+2) ... (N + 2q - 2)), written as a product of ratios so
    # that N up to 1e9 stays exact to rounding.
    return math.prod(1.0 / (1.0 + 2.0 * i / N) for i in range(q))


def mean_ipr_finite_N(N, q, s, t):
    """Exact mean IPR of ``i*s*O1 + t*O2`` at finite dimension ``N``.

    ``O1, O2`` are the first two columns of a Haar orthogonal matrix and
    ``s**2 + t**2 = 1``.  The value is
    ``N**q / (N (N+2) ... (N+2q-2)) * sum_k binom(q,k) s**(2k) t**(2(q-k))
    (2k-1)!! (2(q-k)-1)!!`` and increases to its ``N -> oo`` limit.
    """
    q = int(q)
    if q < 1:
        raise ValueError(f"order must be >= 1, got {q}")
    if abs(s * s + t * t - 1.0) > 1e-10:
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


def ipr_limit(q, regime):
    """Almost-sure IPR limit by spectral regime.

    ``regime='real_axis'`` (eigenvector uniform on the real sphere) gives
    ``(2q-1)!!``; ``regime='bulk'`` (uniform on the complex sphere) gives
    ``q!``.
    """
    q = int(q)
    if q < 1:
        raise ValueError(f"order must be >= 1, got {q}")
    if regime == "real_axis":
        return double_factorial_odd(q)
    if regime == "bulk":
        return factorial(q)
    raise ValueError(f"regime must be 'real_axis' or 'bulk', got {regime!r}")


def mean_ipr_depletion_finite_N(N, q, y, tau):
    """Mean IPR at finite ``N`` conditioned on an eigenvalue ``x + i y / sqrt(N)``.

    Integrates the conditional mean ``g(q, u)`` against the law of the scale
    parameter and applies the finite-``N`` prefactor:
    ``N**q / (N (N+2) ... (N+2q-2)) * E[g(q, S)]``.
    """
    _check_y_tau(y, tau)
    q = int(q)
    sigma = _sigma(y, tau)
    upper = 1.0 + 40.0 * sigma
    val, _ = quad(
        lambda u: g(q, u) * density_S(u, y, tau),
        1.0,
        upper,
        epsabs=1e-10,
        epsrel=1e-11,
        limit=400,
    )
    return _finite_n_prefactor(N, q) * val
