r"""Legendre polynomials and the monotone map from scale parameter to IPR level.

For integer order ``q >= 2`` the map ``g(q, x) = q! * x**(-q) * L_q(x)`` is
strictly increasing on ``[1, oo)`` and maps it onto ``[q!, (2q-1)!!)``:
``g(q, 1) = q!`` and ``g -> (2q-1)!!`` as ``x -> oo`` because the leading
coefficient of ``L_q`` is ``binom(2q, q) / 2**q``.  ``x**(-q) L_q(x)`` has only
even powers of ``1/x``, so in ``w = x**-2`` the map is a polynomial of degree
``q // 2`` that falls from ``(2q-1)!!`` at ``w = 0`` to ``q!`` at ``w = 1``.
`g_inverse` inverts it by safeguarded Newton iteration in ``w`` on the fixed
bracket ``[0, 1]``, and `phi`, the derivative in ``x``, is ``2 x**-3`` times
its slope in ``w``.

Every function works elementwise: it takes a scalar or an array and returns
the shape of its input, with a scalar giving a ``numpy.float64``.
"""

from __future__ import annotations

import numpy as np

from .core import _count, double_factorial_odd, factorial

__all__ = ["MAX_ORDER", "g", "g_inverse", "legendre_eval", "phi"]

# Largest order for which q! and the recurrence coefficients stay well inside
# exact double-precision range.
MAX_ORDER = 30


def legendre_eval(q, x):
    """Legendre polynomial ``L_q(x)`` via the three-term recurrence.

    Parameters
    ----------
    q : int
        Order, ``q >= 0``.
    x : float or ndarray
        Evaluation point(s); any real value.

    Returns
    -------
    numpy.float64 or ndarray
        ``L_q(x)`` with the shape of ``x``, satisfying the generating-function
        identity ``sum_q L_q(x) z**q = (1 - 2 x z + z**2)**(-1/2)``.
    """
    q = _count("Legendre order", q, 0)
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if q == 0:
        return prev[()]
    cur = x.copy()
    for n in range(1, q):
        prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
    return cur[()]


def _check_order(q):
    return _count("order", q, 2, MAX_ORDER)


def _scaled_terms(q, w, slope):
    # In w = x**-2, M_n(w) = L_n(x) / x**n obeys the three-term recurrence
    # (n+1) M_{n+1} = (2n+1) M_n - n w M_{n-1}, with M_0 = M_1 = 1: a
    # polynomial of degree n // 2 whose values stay O(1) for every x >= 1.
    # Alongside it the deficit W_n = (2n-1)!!/n! - M_n obeys
    # (n+1) W_{n+1} = (2n+1) W_n + n w M_{n-1} with W_0 = W_1 = 0.  All its
    # terms are positive, so q! * W_q evaluates the gap (2q-1)!! - g(q, x) to
    # full relative precision even where g is flat.  Differentiating in w,
    # with dM_n/dw = -dW_n/dw, gives the slope
    # (n+1) W'_{n+1} = (2n+1) W'_n + n (M_{n-1} - w W'_{n-1}); its subtraction
    # cancels at most about half of the first term, so the slope keeps nearly
    # full relative precision on all of [0, 1], w = 1 included.
    # Returns (M_q, q! * W_q, q! * dW_q/dw); the slope is None, and its
    # recurrence is skipped, unless asked for.
    mprev = mcur = np.ones_like(w)
    dprev = dcur = wcur = np.zeros_like(w)
    for n in range(1, q):
        if slope:
            dprev, dcur = dcur, ((2 * n + 1) * dcur + n * (mprev - w * dprev)) / (n + 1)
        t = n * w * mprev
        mprev, mcur, wcur = (
            mcur,
            ((2 * n + 1) * mcur - t) / (n + 1),
            ((2 * n + 1) * wcur + t) / (n + 1),
        )
    return mcur, factorial(q) * wcur, factorial(q) * dcur if slope else None


def _inverse_square(x):
    # w = x**-2.  x * x overflows to inf above about 1.3e154; the w = 0 that
    # follows gives g and phi the same values as the true w, whose terms are
    # far below an ulp of (2q-1)!! and underflow against x**-3.
    with np.errstate(over="ignore"):
        return 1.0 / (x * x)


def g(q, x):
    """The increasing map ``x -> q! * x**(-q) * L_q(x)`` on ``x >= 1``.

    Returns values in ``[q!, (2q-1)!!)``.  Away from 1 the value crowds the
    ceiling ``(2q-1)!!``, so there it is computed by subtracting the
    cancellation-free deficit, keeping the forward error at half an ulp.
    """
    q = _check_order(q)
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 1.0):  # NaN fails too
        raise ValueError("g is defined on x >= 1")
    mq, deficit, _ = _scaled_terms(q, _inverse_square(x), slope=False)
    return np.where(x < 2.0, factorial(q) * mq, double_factorial_odd(q) - deficit)[()]


def phi(q, x):
    """Derivative of ``g(q, .)``: ``q*q!/(x**(q+1)(1-x**2)) * (x L_{q-1}(x) - L_q(x))``.

    Defined for ``x >= 1``.  It is evaluated as ``2 x**-3 dD/dw``, the chain
    rule through ``w = x**-2`` applied to the deficit ``D(w) = (2q-1)!! - g``,
    whose slope is a polynomial in ``w``.  The singularity of the formula
    above at ``x = 1`` is removable, so ``w = 1`` is a regular point and
    ``phi(q, 1) = g'(1) = q! q (q-1) / 2`` with no special case.
    """
    q = _check_order(q)
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 1.0):
        raise ValueError("phi is defined on x >= 1")
    w = _inverse_square(x)
    return (2.0 * w / x * _scaled_terms(q, w, slope=True)[2])[()]


def g_inverse(q, ell):
    """The unique ``x >= 1`` with ``g(q, x) = ell``, element by element.

    Parameters
    ----------
    q : int
        Order in ``[2, MAX_ORDER]``.
    ell : float or ndarray
        Target level(s), each strictly inside ``(q!, (2q-1)!!)``.

    Returns
    -------
    numpy.float64 or ndarray
        Roots with the shape of ``ell``, to relative accuracy near machine
        precision.  The root is found in ``w = x**-2``, where the deficit
        ``D(w) = (2q-1)!! - g`` is a polynomial increasing from ``D(0) = 0``
        to ``D(1) = (2q-1)!! - q!``, so every root lies in the fixed bracket
        ``[0, 1]``.  Its target ``(2q-1)!! - ell`` is an exact subtraction
        near the upper limit.  Newton iteration starts from the chord
        through both ends of the bracket, which is already the root for
        ``q = 2, 3`` where ``D`` is linear, and falls back to bisection
        whenever a step leaves the shrinking bracket.  Any level below
        ``(2q-1)!!`` has a finite root ``x = w**-1/2``.  Each element follows
        its own iteration, so the result does not depend on how the levels
        are batched.
    """
    q = _check_order(q)
    ell = np.asarray(ell, dtype=float)
    lo_val = factorial(q)
    hi_val = double_factorial_odd(q)
    level = ell.ravel()
    bad = ~((lo_val < level) & (level < hi_val))
    if np.any(bad):
        raise ValueError(f"level must lie in ({lo_val}, {hi_val}), got {level[bad][0]}")

    r = hi_val - level
    out = np.empty_like(r)
    lo = np.zeros_like(r)
    hi = np.ones_like(r)
    w = r / (hi_val - lo_val)
    # Converged elements leave the active set; the rest keep iterating.
    active = np.arange(r.size)
    for _ in range(200):
        if active.size == 0:
            break
        _, deficit, slope = _scaled_terms(q, w, slope=True)
        fw = deficit - r
        right = fw > 0.0
        lo = np.where(right, lo, w)
        hi = np.where(right, w, hi)
        newton = w - fw / slope
        # A zero residual is the root; otherwise a step onto a bracket end
        # would repeat an earlier iterate, so it bisects instead.
        bracketed = (fw == 0.0) | ((lo < newton) & (newton < hi))
        wn = np.where(bracketed, newton, 0.5 * (lo + hi))
        done = np.abs(wn - w) <= 4e-16 * wn
        out[active[done]] = wn[done]
        keep = ~done
        active, w, lo, hi, r = active[keep], wn[keep], lo[keep], hi[keep], r[keep]
    out[active] = w
    return (1.0 / np.sqrt(out)).reshape(ell.shape)[()]
