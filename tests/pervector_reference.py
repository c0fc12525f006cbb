"""One-vector-at-a-time reference for the block sampling path.

Copies of `theory.sample_S`, `schur.st_from_S`, `sample_stiefel_pair`,
`eigvec_from_block`, `synthetic_eigvec_sample` and the
`experiments.convergence_study` loop as they were before those functions drew
vectors in ``(rows, N)`` blocks and accepted a block's scale parameters at
once: a full rejection loop per `sample_S` call, scalar ``math`` for the
amplitudes, one ``(2, n)`` Gaussian draw, ``np.linalg.norm`` and ``np.dot``
per vector, one `ipr` call per vector.  The block path must reproduce them bit
for bit and leave the generator in the same state.  The orthonormality checks
are left out: they raise or pass, and change no bits.  Only the exact finite-N
means come from the live `theory` module.
"""

import math

import numpy as np

from eigipr import ipr, theory


def sample_S(y, tau, rng, size=None):
    scalar = size is None
    n = 1 if scalar else int(size)
    sigma = math.sqrt(1.0 - tau * tau) / (2.0 * y)
    a = 1.0 / sigma
    out = np.empty(n)
    k = 0
    if a <= 0.5:
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
