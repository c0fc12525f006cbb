"""Full-matrix Monte Carlo pipelines: spectra, IPR records, binned statistics.

`spectrum_ipr_map` drives the whole chain for one run configuration: sample a
matrix per trial, take its right eigenpairs, snap and conjugate-pair the
spectrum (real ensembles), and emit one `EigRecord` per retained eigenvalue.
Each trial owns an RNG stream derived from ``(seed, trial_index)``, so the
output is identical for any worker count.

Importing this module sets numpy's bundled OpenBLAS to one thread for the
whole process (see `_pin_blas_threads`): the eigensolves then run one per
pool worker instead of oversubscribing the cores, and their bits do not
depend on the worker count or on which call came first.
"""

from __future__ import annotations

import ctypes
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ensembles, schur, theory
from .core import EigRecord, ipr

__all__ = [
    "EmpiricalDist",
    "InsufficientDataError",
    "PairingError",
    "RunConfig",
    "RunError",
    "conditional_ipr",
    "convergence_study",
    "eig_right",
    "ks_distance",
    "realness_threshold",
    "spectrum_ipr_map",
    "trial_rng",
]

log = logging.getLogger(__name__)

# |Im lam| <= REALNESS_RTOL * ||G||_F snaps an eigenvalue to the real axis.
REALNESS_RTOL = 1e-10
# Contract on every eigenpair: ||G v - lam v||_2 <= RESIDUAL_RTOL * ||G||_F.
RESIDUAL_RTOL = 1e-9

VALID_ORDERS = frozenset(range(2, 9))

# Thread-count setter exported by the OpenBLAS that numpy wheels bundle
# (scipy-openblas, 64-bit integer interface).
_BLAS_SET_THREADS = "scipy_openblas_set_num_threads64_"


def _pin_blas_threads():
    """Set numpy's bundled OpenBLAS to one thread for the whole process.

    ``eig`` and ``eigh`` return different bits at different OpenBLAS thread
    counts, and the setter is process-wide, so the pin is made once, before
    any pipeline call, and never undone.  Parallelism comes only from the
    pipeline's worker pool.  When no loaded library exports the setter
    (another BLAS, another OS) this logs at debug level and does nothing.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            setter = getattr(ctypes.CDLL(path), _BLAS_SET_THREADS)
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
        return
    log.debug("no loaded library exports %s; BLAS threads left as they are", _BLAS_SET_THREADS)


_pin_blas_threads()


class RunError(RuntimeError):
    """Too many trials failed for the run to be trusted."""


class PairingError(RuntimeError):
    """A complex eigenvalue of a real matrix has no conjugate partner."""


class InsufficientDataError(RuntimeError):
    """A conditional bin holds fewer samples than the floor."""


@dataclass(frozen=True)
class RunConfig:
    """One Monte Carlo experiment: ensemble, trial count, orders, seed, bin."""

    spec: ensembles.EnsembleSpec
    trials: int
    q_set: tuple = (2,)
    seed: int = 0
    y_center: float = 0.5
    rel_width: float = 0.1
    x_window: float = 0.5
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not set(self.q_set) <= VALID_ORDERS:
            raise ValueError(f"q_set must be a subset of {sorted(VALID_ORDERS)}, got {self.q_set}")
        if not self.q_set:
            raise ValueError("q_set must not be empty")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not 0.0 < self.rel_width < 1.0:
            raise ValueError(f"rel_width must be in (0, 1), got {self.rel_width}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "q_set", tuple(sorted(self.q_set)))


def trial_rng(seed, trial):
    """Independent per-trial generator derived from ``(seed, trial_index)``."""
    return np.random.default_rng([int(seed), int(trial)])


def eig_right(mat):
    """All right eigenpairs of a square matrix, with relative residuals.

    Returns ``(w, v, res)``: eigenvalues, unit-norm eigenvector columns, and
    per-pair residuals ``||G v - lam v||_2 / ||G||_F``.  For real input the
    eigenvalues come in conjugate pairs with conjugate eigenvectors.

    The eigensolve runs on one OpenBLAS thread (pinned when this module is
    imported), so a given matrix yields the same bits whether it is called
    directly, from `spectrum_ipr_map`, or from any number of pool workers.
    """
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    w, v = np.linalg.eig(mat)
    fro = np.linalg.norm(mat, "fro")
    res = np.linalg.norm(mat @ v - v * w, axis=0) / fro
    return w, v, res


def realness_threshold(w, fro):
    """Snap near-real eigenvalues and keep one member of each conjugate pair.

    Eigenvalues with ``|Im lam| <= 1e-10 * fro`` become exactly real; the
    remaining ones are matched into conjugate pairs, of which only the
    ``Im lam > 0`` representative is retained.  Raises `PairingError` when a
    complex eigenvalue is left unpaired.

    Returns
    -------
    list of (lam, index, is_real)
        Retained eigenvalues (in the original order), the column index of
        their eigenvector, and the realness flag; the list length is
        ``r + m`` where ``N = r + 2m``.
    """
    w = np.asarray(w)
    thr = REALNESS_RTOL * fro
    out = []
    pos, neg = [], []
    for k in range(w.size):
        if abs(w[k].imag) <= thr:
            out.append((complex(w[k].real, 0.0), k, True))
        elif w[k].imag > 0:
            pos.append(k)
        else:
            neg.append(k)
    if len(pos) != len(neg):
        raise PairingError(f"{len(pos)} upper vs {len(neg)} lower half-plane eigenvalues")
    match_tol = max(thr, 1e-12)
    for kp, kn in zip(
        sorted(pos, key=lambda k: (w[k].real, w[k].imag)),
        sorted(neg, key=lambda k: (w[k].real, -w[k].imag)),
    ):
        if abs(w[kp] - w[kn].conjugate()) > match_tol * max(1.0, abs(w[kp])):
            raise PairingError(f"eigenvalue {w[kp]} has no conjugate partner")
        out.append((complex(w[kp]), kp, False))
    out.sort(key=lambda item: item[1])
    return out


def _run_trial(config, trial):
    rng = trial_rng(config.seed, trial)
    mat = ensembles.sample(config.spec, rng)
    w, v, res = eig_right(mat)
    if res.max() > RESIDUAL_RTOL:
        raise np.linalg.LinAlgError(f"eigenpair residual {res.max():.3e} above contract")
    if np.iscomplexobj(mat):
        entries = [(complex(w[k]), k, False) for k in range(w.size)]
    else:
        entries = realness_threshold(w, np.linalg.norm(mat, "fro"))
    records = []
    for idx, (lam, k, is_real) in enumerate(entries):
        vec = v[:, k]
        records.append(
            EigRecord(
                trial_id=trial,
                idx=idx,
                re_lambda=lam.real,
                im_lambda=lam.imag,
                is_real_eig=is_real,
                ipr={q: ipr(vec, q) for q in config.q_set},
                residual=float(res[k]),
            )
        )
    return records


def spectrum_ipr_map(config):
    """Run the full pipeline for every trial and return all records.

    Records are ordered by ``(trial_id, idx)`` regardless of worker count.
    Trials whose eigensolve fails are skipped and logged; more than 1% skips
    raises `RunError`.
    """
    per_trial = [None] * config.trials
    skipped = []

    def run(trial):
        try:
            per_trial[trial] = _run_trial(config, trial)
        except np.linalg.LinAlgError as exc:
            skipped.append(trial)
            log.warning("trial %d skipped: %s", trial, exc)

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            list(pool.map(run, range(config.trials)))
    else:
        for trial in range(config.trials):
            run(trial)

    if len(skipped) > 0.01 * config.trials:
        raise RunError(f"{len(skipped)}/{config.trials} trials failed the eigensolve")
    return [rec for recs in per_trial if recs is not None for rec in recs]


@dataclass(frozen=True)
class EmpiricalDist:
    """Sorted sample values with summary statistics."""

    values: np.ndarray

    @classmethod
    def from_samples(cls, xs):
        xs = np.sort(np.asarray(xs, dtype=float))
        if xs.size == 0:
            raise ValueError("empirical distribution needs at least one sample")
        return cls(values=xs)

    @property
    def count(self):
        return int(self.values.size)

    @property
    def mean(self):
        return float(self.values.mean())

    @property
    def std(self):
        return float(self.values.std(ddof=1)) if self.count > 1 else 0.0

    def quantile(self, p):
        return float(np.quantile(self.values, p))

    def summary(self):
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "q05": self.quantile(0.05),
            "q50": self.quantile(0.50),
            "q95": self.quantile(0.95),
        }


def conditional_ipr(records, q, y_center, rel_width, x_window, n_dim):
    """IPR samples of order ``q`` conditioned on a band of scaled heights.

    Keeps complex records with ``sqrt(N) * Im lam`` inside
    ``[y_center (1 - rel_width), y_center (1 + rel_width)]`` and
    ``|Re lam| <= x_window``.  Raises `InsufficientDataError` below 100
    selected samples.
    """
    lo = y_center * (1.0 - rel_width)
    hi = y_center * (1.0 + rel_width)
    root_n = math.sqrt(n_dim)
    vals = [
        rec.ipr[q]
        for rec in records
        if not rec.is_real_eig
        and lo <= root_n * rec.im_lambda <= hi
        and abs(rec.re_lambda) <= x_window
    ]
    if len(vals) < 100:
        raise InsufficientDataError(
            f"only {len(vals)} samples in bin [{lo:g}, {hi:g}]; need at least 100"
        )
    return EmpiricalDist.from_samples(vals)


def ks_distance(dist, cdf):
    """Kolmogorov-Smirnov distance between an `EmpiricalDist` and a CDF.

    ``sup_i max(i/n - F(x_i), F(x_i) - (i-1)/n)`` over the sorted samples;
    ``cdf`` must accept an ndarray.
    """
    x = dist.values
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def convergence_study(q, y, tau, n_list, trials, rng, st=None):
    """Mean and spread of synthetic-eigenvector IPRs across dimensions.

    For each ``N`` in ascending ``n_list``, draws ``trials`` synthetic
    eigenvectors (scale parameter resampled per trial, or fixed mixing
    amplitudes when ``st=(s, t)`` is given) and reports the sample mean and
    standard deviation next to the exact finite-``N`` mean.
    """
    n_list = [int(n) for n in n_list]
    if sorted(n_list) != n_list:
        raise ValueError("n_list must be ascending")
    rows = []
    for n in n_list:
        vals = np.empty(trials)
        if st is None:
            for k in range(trials):
                vec, _ = schur.synthetic_eigvec_sample(n, y, tau, rng)
                vals[k] = ipr(vec, q)
            target = theory.mean_ipr_depletion_finite_N(n, q, y, tau)
        else:
            s, t = st
            for k in range(trials):
                o1, o2 = schur.sample_stiefel_pair(n, rng)
                vals[k] = ipr(schur.eigvec_from_block(s, t, o1, o2), q)
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
