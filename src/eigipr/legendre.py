r"""Legendre polynomials and the monotone map from scale parameter to IPR level.

For integer order ``q >= 2`` the map ``g(q, x) = q! * x**(-q) * L_q(x)`` is
strictly increasing on ``[1, oo)`` and maps it onto ``[q!, (2q-1)!!)``:
``g(q, 1) = q!`` and ``g -> (2q-1)!!`` as ``x -> oo`` because the leading
coefficient of ``L_q`` is ``binom(2q, q) / 2**q``.  `g_inverse` inverts the
map numerically and `phi` is its derivative.

Every function works elementwise: it takes a scalar or an array and returns
the shape of its input, with a scalar giving a ``numpy.float64``.
"""

from __future__ import annotations

import numpy as np

from .core import double_factorial_odd, factorial

__all__ = ["MAX_ORDER", "g", "g_inverse", "legendre_eval", "phi"]

# Largest order for which q! and the recurrence coefficients stay well inside
# exact double-precision range.
MAX_ORDER = 30

# Bracket-expansion ceiling for g_inverse: beyond this the target is closer
# to (2q-1)!! than double precision can resolve.
_X_SEARCH_CAP = 1e8


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
    q = int(q)
    if q < 0:
        raise ValueError(f"Legendre order must be >= 0, got {q}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if q == 0:
        return prev[()]
    cur = x.copy()
    for n in range(1, q):
        prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
    return cur[()]


def _check_order(q):
    q = int(q)
    if not 2 <= q <= MAX_ORDER:
        raise ValueError(f"order must be in [2, {MAX_ORDER}], got {q}")
    return q


def _scaled_terms(q, x):
    # M_n(x) = L_n(x) / x**n, carried through the same three-term recurrence:
    # (n+1) M_{n+1} = (2n+1) M_n - (n / x**2) M_{n-1}.  Working on M_n keeps
    # every intermediate O(1) for arbitrarily large x.  Alongside it the
    # deficit W_n = (2n-1)!!/n! - M_n obeys
    # (n+1) W_{n+1} = (2n+1) W_n + (n/x**2) M_{n-1} with W_0 = W_1 = 0.  All
    # its terms are positive, so q! * W_q evaluates the gap (2q-1)!! - g(q, x)
    # to full relative precision even where g is flat.
    # Returns (M_{q-1}, M_q, q! * W_q).
    inv2 = 1.0 / (x * x)
    mprev = mcur = np.ones_like(inv2)
    w = np.zeros_like(inv2)
    for n in range(1, q):
        t = n * inv2 * mprev
        mprev, mcur, w = (
            mcur,
            ((2 * n + 1) * mcur - t) / (n + 1),
            ((2 * n + 1) * w + t) / (n + 1),
        )
    return mprev, mcur, factorial(q) * w


def _phi_terms(q, x, mprev, mq):
    # x L_{q-1} - L_q = x**q (M_{q-1} - M_q)
    return q * factorial(q) * (mprev - mq) / (x * (1.0 - np.square(x)))


def g(q, x):
    """The increasing map ``x -> q! * x**(-q) * L_q(x)`` on ``x >= 1``.

    Returns values in ``[q!, (2q-1)!!)``.  Away from 1 the value crowds the
    ceiling ``(2q-1)!!``, so there it is computed by subtracting the
    cancellation-free deficit, keeping the forward error at half an ulp.
    """
    q = _check_order(q)
    x = np.asarray(x, dtype=float)
    if np.any(x < 1.0):
        raise ValueError("g is defined on x >= 1")
    _, mq, deficit = _scaled_terms(q, x)
    return np.where(x < 2.0, factorial(q) * mq, double_factorial_odd(q) - deficit)[()]


def phi(q, x):
    """Derivative of ``g(q, .)``: ``q*q!/(x**(q+1)(1-x**2)) * (x L_{q-1}(x) - L_q(x))``.

    Defined for ``x >= 1``.  The singularity of the formula at ``x = 1`` is
    removable, and there ``phi`` returns its limit ``g'(1) = q! q (q-1) / 2``.
    """
    q = _check_order(q)
    x = np.asarray(x, dtype=float)
    if np.any(x < 1.0):
        raise ValueError("phi is defined on x >= 1")
    mprev, mq, _ = _scaled_terms(q, x)
    out = np.full_like(x, factorial(q) * q * (q - 1) / 2.0)
    inner = x > 1.0
    out[inner] = _phi_terms(q, x[inner], mprev[inner], mq[inner])
    return out[()]


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
        Roots with the shape of ``ell``, found by Newton iteration
        safeguarded with bisection, to relative accuracy near machine
        precision.  The root is located on the deficit
        ``(2q-1)!! - g(q, x)``, which is strictly decreasing to 0 and whose
        target is an exact subtraction near the upper limit.  Each element
        follows its own iteration, so the result does not depend on how the
        levels are batched.
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
    lo = np.ones_like(r)
    hi = np.full_like(r, 2.0)
    grow = _scaled_terms(q, hi)[2] > r
    while np.any(grow):
        hi[grow] *= 2.0
        if np.any(hi > _X_SEARCH_CAP):
            raise ValueError(
                f"level {level[hi > _X_SEARCH_CAP][0]} is too close to the upper limit "
                f"{hi_val}; the preimage exceeds {_X_SEARCH_CAP:g}"
            )
        grow[grow] = _scaled_terms(q, hi[grow])[2] > r[grow]

    # Converged elements leave the active set; the rest keep iterating.
    active = np.arange(r.size)
    x = 0.5 * (lo + hi)
    for _ in range(200):
        if active.size == 0:
            break
        mprev, mq, deficit = _scaled_terms(q, x)
        fx = deficit - r
        right = fx > 0.0
        lo = np.where(right, x, lo)
        hi = np.where(right, hi, x)
        inner = x > 1.0
        deriv = np.zeros_like(x)
        deriv[inner] = _phi_terms(q, x[inner], mprev[inner], mq[inner])
        usable = (deriv > 0.0) & np.isfinite(deriv)
        newton = x + np.divide(fx, deriv, out=np.zeros_like(x), where=usable)
        bracketed = usable & (lo < newton) & (newton < hi)
        xn = np.where(bracketed, newton, 0.5 * (lo + hi))
        done = np.abs(xn - x) <= 4e-16 * xn
        out[active[done]] = xn[done]
        keep = ~done
        active, x, lo, hi, r = active[keep], xn[keep], lo[keep], hi[keep], r[keep]
    out[active] = x
    return out.reshape(ell.shape)[()]
