r"""Samplers for rotation-invariant (and related) random matrix ensembles.

================= ================================================= ==========
kind              construction                                      entries
================= ================================================= ==========
elliptic_real     ``(sqrt(1+tau) H + sqrt(1-tau) A) / sqrt(2N)``    real
ginibre_real      iid ``N(0, 1/N)``                                 real
ginibre_complex   iid complex ``N(0, 1/N)``                         complex
induced_ginibre   ``U sqrt(X X^T)``, ``X`` of shape ``N x (N+nu)``  real
orthogonal_sum    sum of ``d`` independent Haar orthogonals         real
permutation_sum   sum of ``d`` Ewens(``theta``) permutations        0/1 sums
================= ================================================= ==========

``H`` is symmetric Gaussian (off-diagonal variance 1, diagonal variance 2)
and ``A`` antisymmetric Gaussian (off-diagonal variance 1), independent, so
the elliptic family interpolates between the real Ginibre law (``tau = 0``)
and the symmetric GOE (``tau = 1``).  Every sampler is a pure function of
``(parameters, rng)``: the same generator state yields bitwise-identical
matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import _count

__all__ = [
    "KINDS",
    "EnsembleSpec",
    "ewens_permutation",
    "sample",
    "sample_elliptic",
    "sample_ginibre_complex",
    "sample_ginibre_real",
    "sample_haar_orthogonal",
    "sample_induced_ginibre",
    "sample_orthogonal_sum",
    "sample_permutation_sum",
]

# kind -> (sampler of ``(spec, rng)``, the spec fields it reads beyond ``kind`` and ``N``).
_KINDS = {
    "elliptic_real": (lambda spec, rng: sample_elliptic(spec.N, spec.tau, rng), ("tau",)),
    "ginibre_real": (lambda spec, rng: sample_ginibre_real(spec.N, rng), ()),
    "ginibre_complex": (lambda spec, rng: sample_ginibre_complex(spec.N, rng), ()),
    "induced_ginibre": (lambda spec, rng: sample_induced_ginibre(spec.N, spec.nu, rng), ("nu",)),
    "orthogonal_sum": (lambda spec, rng: sample_orthogonal_sum(spec.N, spec.d, rng), ("d",)),
    "permutation_sum": (
        lambda spec, rng: sample_permutation_sum(spec.N, spec.d, rng, spec.theta),
        ("d", "theta"),
    ),
}
KINDS = tuple(_KINDS)


def _check_theta(theta):
    if not 0.0 < theta < math.inf:
        raise ValueError(f"Ewens parameter theta must be finite and > 0, got {theta}")


def _check_tau(tau):
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")


@dataclass(frozen=True)
class EnsembleSpec:
    """Which ensemble to sample and with which parameters.

    ``tau`` applies to the elliptic kind, ``nu`` to the induced kind, ``d`` to
    the sum kinds and ``theta`` (1 for uniform permutations) to the
    permutation sum.  A field the kind does not read must keep its default:
    anything else raises `ValueError`, so a spec never describes a matrix
    other than the one sampled.  ``N``, ``nu`` and ``d`` must be whole
    numbers (kept as ints), and ``theta`` finite.
    """

    kind: str
    N: int
    tau: float = 0.0
    nu: int = 0
    d: int = 1
    theta: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        # A whole-number float is kept as the int it equals.
        object.__setattr__(self, "N", _count("matrix dimension", self.N, 2))
        object.__setattr__(self, "nu", _count("charge parameter nu", self.nu, 0))
        object.__setattr__(self, "d", _count("summand count d", self.d, 1))
        _check_tau(self.tau)
        _check_theta(self.theta)
        for f in fields(self)[2:]:  # the fields past kind and N
            value = getattr(self, f.name)
            if f.name not in _KINDS[self.kind][1] and value != f.default:
                raise ValueError(f"{self.kind} does not read {f.name}: leave it at {f.default!r}, got {value!r}")


def sample_elliptic(n, tau, rng):
    """Real elliptic Gaussian matrix ``(sqrt(1+tau) H + sqrt(1-tau) A) / sqrt(2N)``.

    ``H = (M1 + M1^T) / sqrt(2)`` and ``A = (M2 - M2^T) / sqrt(2)`` for two
    standard Gaussian draws ``M1`` then ``M2``.  The result is built in place
    in the block that first holds ``M1 + M1^T``, by the same float operations
    in the same order as the expression, so it has the expression's bits.
    Each draw is released once used: at most three ``n x n`` blocks are live
    at once.

    Parameters
    ----------
    n : int
        Dimension, ``n >= 2``.
    tau : float
        Symmetry parameter in ``[0, 1]``; 0 is real Ginibre, 1 is GOE.
    rng : numpy.random.Generator
    """
    n = _count("matrix dimension", n, 2)
    _check_tau(tau)
    root2 = math.sqrt(2.0)
    m1 = rng.standard_normal((n, n))
    m1 = m1 + m1.T  # the rebinding frees the draw
    m1 /= root2
    m1 *= math.sqrt(1.0 + tau)
    m2 = rng.standard_normal((n, n))
    m2 = m2 - m2.T
    m2 /= root2
    m2 *= math.sqrt(1.0 - tau)
    m1 += m2
    m1 /= math.sqrt(2.0 * n)
    return m1


def sample_ginibre_real(n, rng):
    """Real Gaussian matrix with iid ``N(0, 1/N)`` entries."""
    n = _count("matrix dimension", n, 2)
    return rng.standard_normal((n, n)) / math.sqrt(n)


def sample_ginibre_complex(n, rng):
    """Complex Gaussian matrix with iid symmetric ``N_C(0, 1/N)`` entries."""
    n = _count("matrix dimension", n, 2)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return z / math.sqrt(2.0 * n)


def sample_haar_orthogonal(n, rng, size=None):
    """Haar-distributed orthogonal matrix via QR of a Gaussian matrix.

    The QR factorization is made unique (hence unbiased) by flipping signs so
    the triangular factor has positive diagonal.

    Parameters
    ----------
    n : int
        Dimension, ``n >= 1``.
    rng : numpy.random.Generator
    size : int, optional
        When given, return a stack of ``size`` independent matrices with
        shape ``(size, n, n)``.
    """
    n = _count("matrix dimension", n, 1)
    shape = (n, n) if size is None else (_count("size", size, 0), n, n)
    q, r = np.linalg.qr(rng.standard_normal(shape))
    d = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    d[d == 0.0] = 1.0
    return q * d[..., None, :]


def sample_induced_ginibre(n, nu, rng):
    """Induced real Gaussian matrix ``U sqrt(X X^T)`` with charge ``nu >= 0``.

    ``X`` is ``n x (n + nu)`` with iid standard Gaussian entries (drawn
    first), ``U`` an independent Haar orthogonal (drawn second); the square
    root is taken by symmetric eigendecomposition.
    """
    n = _count("matrix dimension", n, 2)
    nu = _count("charge parameter nu", nu, 0)
    x = rng.standard_normal((n, n + nu))
    w, v = np.linalg.eigh(x @ x.T)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.T
    return sample_haar_orthogonal(n, rng) @ root


def sample_orthogonal_sum(n, d, rng):
    """Sum of ``d`` independent Haar orthogonal matrices."""
    d = _count("summand count d", d, 1)
    return sample_haar_orthogonal(n, rng, size=d).sum(axis=0)


def ewens_permutation(n, theta, rng):
    """Ewens random permutation of ``{0, ..., n-1}``: ``P(sigma)`` is proportional to ``theta**cycles``.

    Drawn by the Feller coupling (Arratia, Barbour and Tavare, *Logarithmic
    Combinatorial Structures*, EMS 2003), with array operations only.  Step
    ``i = 1..n`` closes the current cycle with probability
    ``theta / (theta + n - i)``, one ``rng.random(n)`` value per step; the last
    step always closes.  The cycles are then the consecutive runs of a
    uniform shuffle ``rng.permutation(n)`` that end at the closing steps,
    each label mapped to the next one in its run.  ``theta = 1`` is the
    uniform law.  Returns an int64 array.
    """
    n = _count("permutation size n", n, 0)
    _check_theta(theta)
    closes = rng.random(n) * (np.arange(n - 1, -1, -1) + theta) < theta
    closes[-1:] = True  # so rounding cannot leave the last cycle open
    labels = rng.permutation(n)
    ends = np.flatnonzero(closes)
    nxt = np.arange(1, n + 1)
    nxt[ends] = np.concatenate(([0], ends + 1))[:-1]  # a run's last index points back to its first
    perm = np.empty(n, dtype=np.int64)
    perm[labels] = labels[nxt]
    return perm


def sample_permutation_sum(n, d, rng, theta=1.0):
    """Sum of ``d`` independent Ewens(``theta``) permutation matrices; each row and column sums to ``d``.

    At ``theta = 1``, the uniform law, each permutation is drawn by the cheaper ``rng.permutation``.
    """
    n = _count("matrix dimension", n, 2)
    d = _count("summand count d", d, 1)
    _check_theta(theta)
    out = np.zeros((n, n))
    rows = np.arange(n)
    for _ in range(d):
        perm = rng.permutation(n) if theta == 1.0 else ewens_permutation(n, theta, rng)
        out[rows, perm] += 1.0
    return out


def sample(spec, rng):
    """Draw one matrix according to an `EnsembleSpec`."""
    return _KINDS[spec.kind][0](spec, rng)

