r"""2x2 canonical-block algebra and synthetic eigenvector construction.

A real 2x2 matrix with non-real eigenvalues is orthogonally similar to a
unique canonical block ``[[x, b], [-c, x]]`` with ``b >= c > 0``.  Its
upper-half-plane eigenvalue is ``x + i sqrt(b c)`` with unit eigenvector
``(i s, t)`` where ``s = sqrt(b / (b + c))`` and ``t = sqrt(c / (b + c))``.
Embedded in dimension ``N``, the corresponding eigenvector is
``i s O1 + t O2`` for an orthonormal pair ``(O1, O2)``; this module builds
such vectors directly, without ever forming a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import theory

__all__ = [
    "BlockParams",
    "BlockSpectral",
    "block_spectral",
    "canonicalize_2x2",
    "eig2x2_general",
    "eigvec_from_block",
    "sample_stiefel_pair",
    "st_from_S",
    "synthetic_eigvec_sample",
]


@dataclass(frozen=True)
class BlockParams:
    """Canonical block ``[[x, b], [-c, x]]`` with ``b >= c > 0``."""

    x: float
    b: float
    c: float


@dataclass(frozen=True)
class BlockSpectral:
    """Spectral data of a canonical block.

    ``lam`` is the upper-half-plane eigenvalue; ``(s, t)`` the eigenvector
    mixing amplitudes with ``s**2 + t**2 = 1`` and ``s >= t > 0``; ``S =
    1/(2 s t) >= 1`` the scale parameter.
    """

    lam: complex
    s: float
    t: float
    S: float


def eig2x2_general(a, b, c, d, eigvec=False):
    """Eigenvalues (and optionally an eigenvector) of ``[[a, b], [c, d]]``.

    With ``m = (a + d)/2`` and ``p = a d - b c``, the eigenvalues are
    ``m +- sqrt(m**2 - p)``; they are complex conjugates when ``m**2 < p``.

    Parameters
    ----------
    a, b, c, d : float
        Real matrix entries.
    eigvec : bool
        When true, also return the unit eigenvector ``(lam_plus - d, c)`` of
        the leading eigenvalue; this requires ``c != 0``.

    Returns
    -------
    (lam_plus, lam_minus) or (lam_plus, lam_minus, v)
        Eigenvalues as floats (real spectrum) or complex conjugates with
        ``lam_plus`` in the closed upper-half plane.
    """
    m = 0.5 * (a + d)
    p = a * d - b * c
    disc = m * m - p
    if disc >= 0.0:
        r = math.sqrt(disc)
        lam_plus, lam_minus = m + r, m - r
    else:
        r = math.sqrt(-disc)
        lam_plus, lam_minus = complex(m, r), complex(m, -r)
    if not eigvec:
        return lam_plus, lam_minus
    if c == 0.0:
        raise ValueError("eigenvector formula requires a nonzero lower-left entry")
    v = np.array([lam_plus - d, c], dtype=complex)
    if disc < 0.0:
        # |lam_plus - d|**2 + c**2 collapses to c**2 - b*c for conjugate pairs.
        nrm = math.sqrt(c * c - b * c)
    else:
        nrm = math.hypot(abs(lam_plus - d), c)
    return lam_plus, lam_minus, v / nrm


def block_spectral(params):
    """Spectral data ``(lam, s, t, S)`` of a canonical block.

    Raises ``ValueError`` unless ``b >= c > 0`` (which implies ``b c > 0``).
    """
    x, b, c = params.x, params.b, params.c
    if not (b * c > 0.0 and b >= c and c > 0.0):
        raise ValueError(f"block parameters must satisfy b >= c > 0, got b={b}, c={c}")
    y = math.sqrt(b * c)
    s = math.sqrt(b / (b + c))
    t = math.sqrt(c / (b + c))
    return BlockSpectral(lam=complex(x, y), s=s, t=t, S=(b + c) / (2.0 * y))


def canonicalize_2x2(a, b, c, d):
    """Canonical block parameters of a 2x2 real matrix with complex spectrum.

    The canonical form preserves the half-trace ``x``, the determinant
    (``b' c' = p - m**2``) and the Frobenius norm (``b'**2 + c'**2``); those
    invariants determine ``b' >= c' > 0`` without constructing the rotation.
    """
    m = 0.5 * (a + d)
    p = a * d - b * c
    gap = p - m * m
    if gap <= 0.0:
        raise ValueError("canonical block exists only for a complex-spectrum matrix")
    frob2 = a * a + b * b + c * c + d * d - 2.0 * m * m
    ssum = math.sqrt(frob2 + 2.0 * gap)
    sdif = math.sqrt(max(frob2 - 2.0 * gap, 0.0))
    bp = 0.5 * (ssum + sdif)
    return BlockParams(x=m, b=bp, c=gap / bp)


def st_from_S(S):
    """Mixing amplitudes ``(s, t)`` with ``s >= t > 0`` from the scale parameter.

    Inverts ``S = 1/(2 s t)`` under ``s**2 + t**2 = 1``:
    ``s**2 = (1 + sqrt(1 - S**-2)) / 2``.  ``t`` is computed as
    ``1 / (2 S s)`` so the round trip is exact; ``S = 1`` returns
    ``(1/sqrt(2), 1/sqrt(2))``; for ``S >= 1`` the rounded ``S * S`` is at
    least 1, so the first square root never sees a negative number.  ``S``
    may be an array, with ``s`` and ``t`` computed elementwise.
    """
    S = np.asarray(S, dtype=float)
    if not S.min() >= 1.0:
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


def _check_dim(n):
    n = int(n)
    if n < 2:
        raise ValueError(f"need dimension >= 2 for an orthonormal pair, got {n}")
    return n


def sample_stiefel_pair(n, rng, size=None):
    """Uniform orthonormal pair ``(O1, O2)`` in dimension ``n >= 2``.

    Gram-Schmidt applied to two iid standard Gaussian vectors.  With
    ``size`` given, returns ``size`` independent pairs as two ``(size, n)``
    arrays, one pair per row.  The Gaussians come from one
    ``standard_normal((size, 2, n))`` call, which consumes the generator as
    ``size`` sequential calls do, so row ``k`` has the bits of the ``k``-th
    of ``size`` calls without ``size``.
    """
    n = _check_dim(n)
    rows = 1 if size is None else int(size)
    o1, o2 = _gram_schmidt(rng.standard_normal((rows, 2, n)))
    return (o1[0], o2[0]) if size is None else (o1, o2)


def eigvec_from_block(s, t, o1, o2):
    """Synthetic unit eigenvector ``i*s*O1 + t*O2``.

    ``(o1, o2)`` must be orthonormal to within 1e-8 and ``s**2 + t**2 = 1``;
    the entries then satisfy ``|R_j|**2 = s**2 O1_j**2 + t**2 O2_j**2``
    exactly, and ``R`` has unit norm.  ``o1`` and ``o2`` may be ``(rows, n)``
    blocks, with ``s`` and ``t`` scalars or one value per row; the checks
    then hold row by row and row ``k`` of the result is that row's vector.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.abs(s * s + t * t - 1.0).max() > 1e-8:
        raise ValueError("mixing amplitudes must satisfy s**2 + t**2 = 1")
    o1 = np.asarray(o1, dtype=float)
    o2 = np.asarray(o2, dtype=float)
    b1, b2 = np.atleast_2d(o1, o2)
    norms = np.sqrt([_rowdot(b1, b1), _rowdot(b2, b2)])
    if np.abs(norms - 1.0).max() > 1e-8 or np.abs(_rowdot(b1, b2)).max() > 1e-8:
        raise ValueError("(o1, o2) is not an orthonormal pair")
    if o1.ndim == 2:
        s, t = s[..., None], t[..., None]
    vec = 1j * s * o1
    vec += t * o2
    return vec


def synthetic_eigvec_sample(n, y, tau, rng, size=None):
    """Sample an eigenvector with the law conditioned on ``lam = x + i y / sqrt(N)``.

    Draws the scale parameter ``S``, converts it to mixing amplitudes, draws a
    uniform orthonormal pair, and assembles ``i*s*O1 + t*O2``.  With ``size``
    given, draws ``size`` independent vectors as one ``(size, n)`` block.
    The generator is consumed as by ``size`` sequential calls (``S``, then
    the pair's Gaussians, for each row in turn), and row ``k`` has the bits
    of the ``k``-th such call.

    Returns
    -------
    (ndarray, float) or (ndarray, ndarray)
        The complex unit vector and the scale parameter ``S`` used; with
        ``size``, the ``(size, n)`` block and the ``size`` values of ``S``.
    """
    n = _check_dim(n)
    rows = 1 if size is None else int(size)
    S = np.empty(rows)
    g = np.empty((rows, 2, n))
    for k in range(rows):
        S[k] = theory.sample_S(y, tau, rng)
        rng.standard_normal(out=g[k])
    s, t = st_from_S(S)
    vec = eigvec_from_block(s, t, *_gram_schmidt(g))
    return (vec[0], float(S[0])) if size is None else (vec, S)
