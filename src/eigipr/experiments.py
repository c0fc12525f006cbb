"""Full-matrix Monte Carlo pipelines: spectra, IPR records, binned statistics.

`spectrum_ipr_map` drives the whole chain for one run configuration: sample a
matrix per trial, take its right eigenpairs, snap and conjugate-pair the
spectrum (real ensembles), and keep one entry per retained eigenvalue in a
`Records` table of numpy columns.  Each trial owns an RNG stream derived from
``(seed, trial_index)``, so the output is identical for any worker count.

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
from .core import Records, _ascending_orders, _count, as_records, ipr

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

# Entries per block of synthetic eigenvectors in `convergence_study`: enough
# rows to spread numpy's per-call cost (at N = 1600 a block holds 10 rows),
# few enough that a block's temporaries (256 KiB for the complex block, which
# `schur._assemble` and `ipr` fill and reuse in place) stay in cache.  With
# the next block's 256 KiB of Gaussians drawn meanwhile, the study's peak
# heap at N = 4096 is 0.80 MB.  Sizes compared in BENCH_conv_block.json and
# BENCH_synthetic_blocks.json, the overlap in BENCH_conv_pipeline.json.
_BLOCK_ENTRIES = 16384

# Eigenvector columns per panel of the residual product in `eig_right`: the
# two panel buffers take 2 * 64 * 16 * N bytes (0.8 MB at N = 400) instead of
# the N x N complex products and temporaries of one whole-matrix pass.
_RESIDUAL_PANEL = 64

# Thread-count setter exported by the OpenBLAS that numpy wheels bundle
# (scipy-openblas, 64-bit integer interface).
_BLAS_SET_THREADS = "scipy_openblas_set_num_threads64_"


def _openblas():
    """The loaded library that exports `_BLAS_SET_THREADS` (numpy's bundled OpenBLAS), or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        paths = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, _BLAS_SET_THREADS):
            return lib
    return None


def _pin_blas_threads():
    """Set numpy's bundled OpenBLAS to one thread for the whole process.

    ``eig`` and ``eigh`` return different bits at different OpenBLAS thread
    counts, and the setter is process-wide, so the pin is made once, before
    any pipeline call, and never undone.  Parallelism comes only from the
    pipeline's worker pool.  When no loaded library exports the setter
    (another BLAS, another OS) this logs at debug level and does nothing.
    """
    lib = _openblas()
    if lib is None:
        log.debug("no loaded library exports %s; BLAS threads left as they are", _BLAS_SET_THREADS)
        return
    setter = getattr(lib, _BLAS_SET_THREADS)
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    setter(1)


_pin_blas_threads()


class RunError(RuntimeError):
    """Too many trials failed for the run to be trusted."""


class PairingError(RuntimeError):
    """A complex eigenvalue of a real matrix has no conjugate partner."""


class InsufficientDataError(RuntimeError):
    """A conditional bin holds fewer samples than the floor."""


# Seeds are 64-bit, as an entropy seed is: the largest one `RunConfig`, `trial_rng` and the CLI accept.
_MAX_SEED = 2**64 - 1


def _check_bin(y_center, rel_width, x_window):
    if not y_center > 0.0:
        raise ValueError(f"y_center must be > 0, got {y_center}")
    if y_center == math.inf:
        raise ValueError(f"y_center must be finite, got {y_center}")
    if not 0.0 < rel_width < 1.0:
        raise ValueError(f"rel_width must be in (0, 1), got {rel_width}")
    if not x_window > 0.0:
        raise ValueError(f"x_window must be > 0, got {x_window}")


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
        object.__setattr__(self, "trials", _count("trials", self.trials, 1))
        if not set(self.q_set) <= VALID_ORDERS:
            raise ValueError(f"q_set must be a subset of {sorted(VALID_ORDERS)}, got {self.q_set}")
        if not self.q_set:
            raise ValueError("q_set must not be empty")
        object.__setattr__(self, "seed", _count("seed", self.seed, 0, _MAX_SEED))
        _check_bin(self.y_center, self.rel_width, self.x_window)
        object.__setattr__(self, "workers", _count("workers", self.workers, 1))
        object.__setattr__(self, "q_set", _ascending_orders(self.q_set))


def trial_rng(seed, trial):
    """Independent per-trial generator derived from ``(seed, trial_index)``."""
    return np.random.default_rng([_count("seed", seed, 0, _MAX_SEED), _count("trial index", trial, 0)])


def eig_right(mat):
    """All right eigenpairs of a square matrix, with relative residuals.

    Returns ``(w, v, res)``: eigenvalues, unit-norm eigenvector columns, and
    per-pair residuals ``||G v - lam v||_2 / ||G||_F``.  For real input the
    eigenvalues come in conjugate pairs with conjugate eigenvectors.

    The residuals are formed `_RESIDUAL_PANEL` columns at a time, in two
    reused panel buffers: ``G v`` by one matrix product per panel, then
    ``lam v`` subtracted and the squared moduli summed in place.  For a real
    ``G`` and complex ``v`` the product is a real GEMM on the float view of
    ``v``, whose interleaved real and imaginary columns give ``G Re v`` and
    ``G Im v`` at once: half the flops of a complex product, and no complex
    copy of ``G``.  A complex ``G`` keeps its complex product.

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
    # For an all-real spectrum eig returns the real part of its complex
    # result, a view with a 16-byte stride; a contiguous copy halves its
    # memory and lets the complex array go.  Complex `v` is already contiguous.
    v = np.ascontiguousarray(v)
    fro = np.linalg.norm(mat, "fro")
    return w, v, _residual_norms(mat, w, v) / fro


def _residual_norms(mat, w, v):
    """``||G v_j - w_j v_j||_2`` for every column ``j`` of ``v``, one panel at a time."""
    rows, cols = v.shape
    # Real G with complex v: GEMM over the float view, two columns per vector.
    split = np.iscomplexobj(v) and not np.iscomplexobj(mat)
    real_t = v.real.dtype
    lhs = v.view(real_t) if split else v
    step = 2 if split else 1
    width = min(cols, _RESIDUAL_PANEL)
    # Flat buffers: a prefix reshaped to a narrower last panel stays contiguous.
    prod_buf = np.empty(rows * width * step, dtype=np.result_type(mat, lhs))
    lam_v_buf = np.empty(rows * width, dtype=v.dtype)
    out = np.empty(cols, dtype=real_t)
    for j in range(0, cols, width):
        k = min(j + width, cols)
        prod = prod_buf[: rows * (k - j) * step].reshape(rows, (k - j) * step)
        np.matmul(mat, lhs[:, j * step : k * step], out=prod)
        lam_v = lam_v_buf[: rows * (k - j)].reshape(rows, k - j)
        np.multiply(v[:, j:k], w[j:k], out=lam_v)
        diff = prod.view(v.dtype)
        diff -= lam_v
        parts = diff.view(real_t)
        np.square(parts, out=parts)
        sums = parts.sum(axis=0)
        if diff.dtype != real_t:  # complex columns: add the re and im halves
            sums = sums[0::2] + sums[1::2]
        np.sqrt(sums, out=out[j:k])
    return out


def realness_threshold(w, fro):
    """`_snap_and_pair` as a list of ``(lam, index, is_real)`` tuples, one per kept eigenvalue."""
    lam, keep, real = _snap_and_pair(w, fro)
    return list(zip(lam.tolist(), keep.tolist(), real.tolist()))


def _snap_and_pair(w, fro):
    """Snap near-real eigenvalues and keep one member of each conjugate pair.

    Eigenvalues with ``|Im lam| <= 1e-10 * fro`` become exactly real; the
    others are matched into conjugate pairs, of which the ``Im lam > 0``
    member is kept.  Returns the kept eigenvalues (in their original order),
    their eigenvector column indices and their realness flags, ``r + m``
    entries where ``N = r + 2m``.  Raises `PairingError` when a complex
    eigenvalue is left unpaired.
    """
    w = np.asarray(w)
    thr = REALNESS_RTOL * fro
    re, im = w.real, w.imag
    real = np.abs(im) <= thr
    upper = ~real & (im > 0)
    kept = real | upper
    # A NaN imaginary part is neither real nor upper, so it counts as lower.
    pos, neg = np.flatnonzero(upper), np.flatnonzero(~kept)
    if pos.size != neg.size:
        raise PairingError(f"{pos.size} upper vs {neg.size} lower half-plane eigenvalues")
    # Stable sorts: upper by (re, im), lower by (re, -im), so partners line up.
    pos = pos[np.lexsort((im[pos], re[pos]))]
    neg = neg[np.lexsort((-im[neg], re[neg]))]
    match_tol = max(thr, 1e-12)
    gap = np.abs(w[pos] - w[neg].conjugate())
    bad = np.flatnonzero(gap > match_tol * np.maximum(1.0, np.abs(w[pos])))
    if bad.size:
        raise PairingError(f"eigenvalue {w[pos[bad[0]]]} has no conjugate partner")
    lam = w.astype(complex)
    lam.imag[real] = 0.0
    keep = np.flatnonzero(kept)
    return lam[keep], keep, real[keep]


def _run_trial(config, trial):
    """One trial's columns, as `Records` takes them: sample, eigensolve, check the residuals, snap and pair, IPRs."""
    rng = trial_rng(config.seed, trial)
    mat = ensembles.sample(config.spec, rng)
    w, v, res = eig_right(mat)
    # Written so that a NaN residual fails the contract too.
    if not res.max() <= RESIDUAL_RTOL:
        raise np.linalg.LinAlgError(f"eigenpair residual {res.max():.3e} above contract")
    if np.iscomplexobj(mat):
        lam, keep, real = w, np.arange(w.size), np.zeros(w.size, dtype=bool)
    else:
        lam, keep, real = _snap_and_pair(w, np.linalg.norm(mat, "fro"))
    # The kept eigenvector columns, gathered once as rows; one block call per order.
    kept = v.T[keep]
    return dict(
        trial=np.full(keep.size, trial, dtype=np.int64), idx=np.arange(keep.size, dtype=np.int64), re=lam.real,
        im=lam.imag, is_real=real, residual=res[keep], ipr={q: ipr(kept, q) for q in config.q_set},
    )


def spectrum_ipr_map(config):
    """Run the full pipeline for every trial and return all records as one `Records` table.

    Each trial returns its columns, each concatenated over the kept trials
    into the one table, ordered by ``(trial, idx)`` for any worker count.
    Trials whose eigensolve fails are skipped and logged; more than 1% skips
    raises `RunError`.
    """

    def run(trial):
        try:
            return _run_trial(config, trial)
        except np.linalg.LinAlgError as exc:
            log.warning("trial %d skipped: %s", trial, exc)

    with ThreadPoolExecutor(max_workers=config.workers) as pool:
        kept = [part for part in pool.map(run, range(config.trials)) if part is not None]
    skipped = config.trials - len(kept)
    if skipped > 0.01 * config.trials:
        raise RunError(f"{skipped}/{config.trials} trials failed the eigensolve")
    columns = {name: np.concatenate([part[name] for part in kept]) for name in kept[0] if name != "ipr"}
    return Records(**columns, ipr={q: np.concatenate([part["ipr"][q] for part in kept]) for q in config.q_set})


@dataclass(frozen=True)
class EmpiricalDist:
    """Sorted sample values with summary statistics."""

    values: np.ndarray

    @classmethod
    def from_samples(cls, xs):
        xs = np.asarray(xs, dtype=float)
        # A NaN would sort last and read as F = 0 there, so one would set the KS distance to 1.
        if xs.ndim != 1 or xs.size == 0 or not np.all(np.isfinite(xs)):
            raise ValueError("empirical distribution needs a nonempty 1-D sample of finite values")
        return cls(values=np.sort(xs))

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

    ``records`` is a `Records` table or an iterable of `EigRecord` rows.
    Keeps complex records with ``sqrt(N) * Im lam`` inside
    ``[y_center (1 - rel_width), y_center (1 + rel_width)]`` and
    ``|Re lam| <= x_window``.  Raises `ValueError` for a bin `RunConfig`
    would reject or an ``n_dim`` that is not a whole number >= 2, and
    `InsufficientDataError` below 100 selected samples.
    """
    _check_bin(y_center, rel_width, x_window)
    n_dim = _count("matrix dimension", n_dim, 2)
    table = as_records(records, (q,))
    lo = y_center * (1.0 - rel_width)
    hi = y_center * (1.0 + rel_width)
    height = math.sqrt(n_dim) * table.im
    band = ~table.is_real & (lo <= height) & (height <= hi) & (np.abs(table.re) <= x_window)
    vals = table.ipr[q][band]
    if vals.size < 100:
        raise InsufficientDataError(f"only {vals.size} samples in bin [{lo:g}, {hi:g}]; need at least 100")
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

    For each ``N`` in ascending ``n_list``, draws ``trials >= 2`` synthetic
    eigenvectors (scale parameter resampled per trial, or fixed mixing
    amplitudes when ``st=(s, t)`` is given) and reports the sample mean and
    standard deviation next to the exact finite-``N`` mean.  Vectors are
    drawn in blocks of ``max(1, _BLOCK_ENTRIES // N)`` rows, with the generator
    consumed and each IPR computed bit for bit as one vector at a time.

    The calling thread draws each block's Gaussians, one generator call per
    block in both modes (each vector's ``S`` comes from the norm of its
    first Gaussian, not from a draw of its own), while one helper thread,
    started per call, orthonormalizes and assembles the block before it and
    takes its IPRs: numpy's draws release the GIL, so the two overlap on a
    second core.  At most one block is in flight, the helper drops a block's
    draws once it is assembled, and the helper's exceptions are raised here.
    The order of the draws and the arithmetic are those of one thread, so
    the rows keep their bits.
    """
    n_list = [_count("matrix dimension N", n, 2) for n in n_list]
    if sorted(n_list) != n_list:
        raise ValueError("n_list must be ascending")
    trials = _count("convergence_study needs trials >= 2 for a spread; trials", trials, 2)
    # The exact means first: they validate q and (y, tau) or (s, t) before
    # any vector is sampled, so the fixed-amplitude blocks are assembled
    # from Gram-Schmidt pairs without a second check.
    if st is None:
        targets = [theory.mean_ipr_depletion_finite_N(n, q, y, tau) for n in n_list]

        def build(g):
            return schur._build(g, y, tau)[0]

    else:
        s, t = st
        targets = [theory.mean_ipr_finite_N(n, q, s, t) for n in n_list]

        def build(g):
            o1, o2, _ = schur._gram_schmidt(g)
            return schur._assemble(s, t, o1, o2)

    def fill(out, box):
        # The box is emptied on the way into `build`, so the drawn block is freed once assembled.
        out[:] = ipr(build(box.pop()), q)

    samples = [np.empty(trials) for _ in n_list]
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = None
        for n, vals in zip(n_list, samples):
            step = max(1, _BLOCK_ENTRIES // n)
            for k in range(0, trials, step):
                box = [schur._draw(n, rng, min(step, trials - k))]
                if pending is not None:
                    pending.result()
                pending = helper.submit(fill, vals[k : k + step], box)
        if pending is not None:
            pending.result()
    rows = []
    for n, target, vals in zip(n_list, targets, samples):
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
