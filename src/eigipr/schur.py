r"""Synthetic eigenvectors built from the scale parameter of a 2x2 canonical block.

A real 2x2 matrix with non-real eigenvalues is orthogonally similar to a
unique canonical block ``[[x, b], [-c, x]]`` with ``b >= c > 0``.  Its
eigenvalues are ``x +- i sqrt(b c)``.  With ``s = sqrt(b / (b + c))`` and
``t = sqrt(c / (b + c))``, the unit vector ``(i s, t)`` is the eigenvector
of the lower eigenvalue ``x - i sqrt(b c)``; the upper eigenvalue's
eigenvector is its conjugate ``(-i s, t)``, which has the same entry moduli
and hence the same IPR.  Embedded in dimension ``N``, the vector is
``i s O1 + t O2`` for an orthonormal pair ``(O1, O2)``; this module builds
such vectors directly, without ever forming a matrix.
"""

from __future__ import annotations

import numpy as np

from . import theory
from .core import _count

__all__ = [
    "eigvec_from_block",
    "sample_stiefel_pair",
    "st_from_S",
    "synthetic_eigvec_sample",
]


def st_from_S(S):
    """Mixing amplitudes ``(s, t)`` with ``s >= t > 0`` from the scale parameter.

    Inverts ``S = 1/(2 s t)`` under ``s**2 + t**2 = 1``:
    ``s**2 = (1 + sqrt(1 - S**-2)) / 2``.  ``t`` is computed as
    ``1 / (2 S s)`` so the round trip is exact; ``S = 1`` returns
    ``(1/sqrt(2), 1/sqrt(2))``; for ``S >= 1`` the rounded ``S * S`` is at
    least 1, so the first square root never sees a negative number.  ``S``
    may be an array, with ``s`` and ``t`` computed elementwise; an empty
    array gives empty ``s`` and ``t``.
    """
    S = np.asarray(S, dtype=float)
    if not S.min(initial=np.inf) >= 1.0:
        raise ValueError(f"scale parameter must satisfy S >= 1, got {S.min()}")
    r = np.sqrt(1.0 - 1.0 / (S * S))
    s = np.sqrt(0.5 * (1.0 + r))
    t = 1.0 / (2.0 * S * s)
    return (s, t) if S.ndim else (float(s), float(t))


def _rowdot(a, b):
    """Dot product of each row of ``a`` with the same row of ``b``.

    numpy runs a ``(1, n) @ (n, 1)`` matmul through the BLAS dot of
    ``np.dot``, so each value has the bits of the 1-D call on that row.
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _gram_schmidt(g):
    """Orthonormal pair ``(O1, O2)`` from each ``(2, n)`` row of a Gaussian block, in place.

    Returns the views ``g[:, 0]`` and ``g[:, 1]``; in-place arithmetic keeps
    the bits of the out-of-place expressions and allocates no new block.
    """
    o1, o2 = g[:, 0], g[:, 1]
    o1 /= np.sqrt(_rowdot(o1, o1))[:, None]
    o2 -= _rowdot(o1, o2)[:, None] * o1
    o2 /= np.sqrt(_rowdot(o2, o2))[:, None]
    return o1, o2


def sample_stiefel_pair(n, rng, size=None):
    """Uniform orthonormal pair ``(O1, O2)`` in dimension ``n >= 2``.

    Gram-Schmidt applied to two iid standard Gaussian vectors.  With
    ``size`` given, returns ``size`` independent pairs as two ``(size, n)``
    arrays, one pair per row.  The Gaussians come from one
    ``standard_normal((size, 2, n))`` call, which consumes the generator as
    ``size`` sequential calls do, so row ``k`` has the bits of the ``k``-th
    of ``size`` calls without ``size``.
    """
    n = _count("orthonormal pair dimension", n, 2)
    rows = 1 if size is None else _count("size", size, 0)
    o1, o2 = _gram_schmidt(rng.standard_normal((rows, 2, n)))
    return (o1[0], o2[0]) if size is None else (o1, o2)


def eigvec_from_block(s, t, o1, o2):
    """Synthetic unit eigenvector ``i*s*O1 + t*O2``.

    ``(o1, o2)`` must be orthonormal to within 1e-8 and ``s**2 + t**2 = 1``;
    the entries then satisfy ``|R_j|**2 = s**2 O1_j**2 + t**2 O2_j**2``
    exactly, and ``R`` has unit norm.  ``o1`` and ``o2`` may be ``(rows, n)``
    blocks, with ``s`` and ``t`` scalars or one value per row; the checks
    then hold row by row and row ``k`` of the result is that row's vector.
    Blocks of zero rows give a ``(0, n)`` result.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if not np.abs(s * s + t * t - 1.0).max(initial=0.0) <= 1e-8:
        raise ValueError("mixing amplitudes must satisfy s**2 + t**2 = 1")
    o1 = np.asarray(o1, dtype=float)
    o2 = np.asarray(o2, dtype=float)
    b1, b2 = np.atleast_2d(o1, o2)
    norms = np.sqrt([_rowdot(b1, b1), _rowdot(b2, b2)])
    if not (np.abs(norms - 1.0).max(initial=0.0) <= 1e-8 and np.abs(_rowdot(b1, b2)).max(initial=0.0) <= 1e-8):
        raise ValueError("(o1, o2) is not an orthonormal pair")
    if o1.ndim == 2:
        s, t = s[..., None], t[..., None]
    return _assemble(s, t, o1, o2)


def _assemble(s, t, o1, o2):
    """``i*s*O1 + t*O2`` without `eigvec_from_block`'s checks.

    For pairs the caller knows to be orthonormal, such as those `_gram_schmidt`
    has just built, with amplitudes already checked; ``s`` and ``t`` must
    broadcast against ``o1`` and ``o2`` as they stand.  One complex
    allocation, each part written in place: the bits of ``1j*s*o1 + t*o2``
    except that an exactly zero part may change sign.
    """
    vec = np.empty(np.broadcast_shapes(np.shape(s), o1.shape, np.shape(t), o2.shape), dtype=complex)
    np.multiply(t, o2, out=vec.real)
    np.multiply(s, o1, out=vec.imag)
    return vec


def synthetic_eigvec_sample(n, y, tau, rng, size=None):
    """Sample an eigenvector with the law conditioned on ``lam = x + i y / sqrt(N)``.

    Draws the scale parameter ``S`` by inverse transform from one uniform,
    converts it to mixing amplitudes, draws a uniform orthonormal pair, and
    assembles ``i*s*O1 + t*O2``.  With ``size`` given, draws ``size``
    independent vectors as one ``(size, n)`` block.  The generator is
    consumed as by ``size`` sequential calls (the uniform for ``S``, then the
    pair's Gaussians, for each row in turn), and row ``k`` has the bits of
    the ``k``-th such call.  ``n``, ``y`` and ``tau`` are checked before the
    first draw.

    Returns
    -------
    (ndarray, float) or (ndarray, ndarray)
        The complex unit vector and the scale parameter ``S`` used; with
        ``size``, the ``(size, n)`` block and the ``size`` values of ``S``.
    """
    n = _count("orthonormal pair dimension", n, 2)
    theory._check_y_tau(y, tau)
    u = np.empty(1 if size is None else _count("size", size, 0))
    g = np.empty((u.size, 2, n))
    for k in range(u.size):
        u[k] = rng.random()
        rng.standard_normal(out=g[k])
    S = theory._S_from_uniform(u, y, tau)
    s, t = st_from_S(S)
    vec = _assemble(s[:, None], t[:, None], *_gram_schmidt(g))
    return (vec[0], float(S[0])) if size is None else (vec, S)
