"""One-vector-at-a-time reference for the block sampling path.

Copies of `theory.sample_S`, `schur.st_from_S`, `sample_stiefel_pair`,
`eigvec_from_block`, `synthetic_eigvec_sample` and the
`experiments.convergence_study` loop written one draw and one vector at a
time: one ``rng.random()`` and one inverse transform per `sample_S` draw,
scalar ``math`` for the amplitudes, one ``(2, n)`` Gaussian draw,
``np.linalg.norm`` and ``np.dot`` per vector, one `ipr` call per vector.  The
block path must reproduce them bit for bit and leave the generator in the
same state.  The orthonormality checks are left out: they raise or pass, and
change no bits.  Only the exact finite-N means come from the live `theory`
module.
"""

import math

import numpy as np
from scipy.special import log_ndtr, ndtri_exp

from eigipr import ipr, theory


def sample_S(y, tau, rng, size=None):
    sigma = math.sqrt(1.0 - tau * tau) / (2.0 * y)
    out = np.empty(1 if size is None else int(size))
    for k in range(out.size):
        log_p = np.log1p(-rng.random())
        out[k] = max(-sigma * ndtri_exp(log_p + log_ndtr(-1.0 / sigma)), 1.0)
    return float(out[0]) if size is None else out


def st_from_S(S):
    r = math.sqrt(max(1.0 - 1.0 / (S * S), 0.0))
    s = math.sqrt(0.5 * (1.0 + r))
    return s, 1.0 / (2.0 * S * s)


def sample_stiefel_pair(n, rng):
    g1, g2 = rng.standard_normal((2, n))
    o1 = g1 / np.linalg.norm(g1)
    w = g2 - (o1 @ g2) * o1
    return o1, w / np.linalg.norm(w)


def eigvec_from_block(s, t, o1, o2):
    return 1j * s * o1 + t * o2


def synthetic_eigvec_sample(n, y, tau, rng):
    S = sample_S(y, tau, rng)
    s, t = st_from_S(S)
    o1, o2 = sample_stiefel_pair(n, rng)
    return eigvec_from_block(s, t, o1, o2), S


def convergence_study(q, y, tau, n_list, trials, rng, st=None):
    rows = []
    for n in n_list:
        vals = np.empty(trials)
        if st is None:
            for k in range(trials):
                vec, _ = synthetic_eigvec_sample(n, y, tau, rng)
                vals[k] = ipr(vec, q)
            target = theory.mean_ipr_depletion_finite_N(n, q, y, tau)
        else:
            s, t = st
            for k in range(trials):
                o1, o2 = sample_stiefel_pair(n, rng)
                vals[k] = ipr(eigvec_from_block(s, t, o1, o2), q)
            target = theory.mean_ipr_finite_N(n, q, s, t)
        std = float(vals.std(ddof=1))
        rows.append(
            {
                "N": n,
                "mean": float(vals.mean()),
                "std": std,
                "stderr": std / math.sqrt(trials),
                "theory_mean": float(target),
            }
        )
    return rows
