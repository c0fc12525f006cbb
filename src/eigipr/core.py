"""Inverse participation ratios and uniform-sphere reference sampling.

The inverse participation ratio of order ``q`` of a nonzero vector ``x`` with
``N`` entries is ``N**(q-1) * ||x||_{2q}^{2q} / ||x||_2^{2q}``.  It is 1 for
the flat vector ``(1, ..., 1)`` (pure delocalization) and ``N**(q-1)`` for a
coordinate vector (pure localization); ``q = 2`` gives the rescaled kurtosis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EigRecord",
    "Records",
    "as_records",
    "double_factorial_odd",
    "factorial",
    "ipr",
    "uniform_sphere_sample",
]


@dataclass(slots=True)
class EigRecord:
    """One eigenvalue of one sampled matrix, with its eigenvector statistics: a row of `Records`.

    ``ipr`` maps each requested order ``q`` to the eigenvector's IPR value;
    ``residual`` is the relative eigenpair residual ``||G v - lam v||_2 /
    ||G||_F``.  ``is_real_eig`` implies ``im_lambda == 0.0`` exactly.
    """

    trial_id: int
    idx: int
    re_lambda: float
    im_lambda: float
    is_real_eig: bool
    ipr: dict[int, float] = field(default_factory=dict)
    residual: float = 0.0


def _count(what, value, low=-math.inf, high=math.inf):
    """``value`` as an int: the one rule for every count, order, dimension and seed argument.

    A count is an int, a numpy integer or a float with a whole value, in
    ``[low, high]``; anything else (a bool, NaN, an infinity, 2.5) raises
    `ValueError`.  The range is checked first, so a value outside it, NaN
    too, gets ``"<what> must be >= <low>, got <value>"`` (or ``in [<low>,
    <high>]``).  An int is never converted to float, which could overflow.
    """
    if type(value) is int and low <= value <= high:
        return value
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    if isinstance(value, numbers.Integral):  # a numpy integer, compared exactly as an int
        value = int(value)
    if not low <= value <= high:
        bound = f"in [{low}, {high}]" if high < math.inf else f">= {low}" if low > -math.inf else "a number"
        raise ValueError(f"{what} must be {bound}, got {value}")
    if not (isinstance(value, int) or float(value).is_integer()):
        raise ValueError(f"{what} must be a whole number, got {value!r}")
    return int(value)


# Each `Records` column (each ``ipr`` column as "ipr"): its dtype, the numpy dtype kinds it takes, the rule it keeps.
_ID = (np.int64, "iu", "trial and idx ids must fit in int64 and not be bools")
_FLOAT = (np.float64, "iuf", "re, im, residual and ipr values must be integers or floats")
_BOOL = (np.bool_, "b", "is_real values must be bools")
_DTYPES = {"trial": _ID, "idx": _ID, "re": _FLOAT, "im": _FLOAT, "is_real": _BOOL, "residual": _FLOAT, "ipr": _FLOAT}


def _typed(label, values, dtype, kinds, rule):
    """``values`` as a column of ``dtype``, uncopied when it has it; `ValueError` stating ``rule`` otherwise."""
    col = np.asarray(values)
    kind = col.dtype.kind
    # numpy types a list as a whole, so an id list holding a bool counts as a bool column; no id is wrapped past int64.
    if dtype is np.int64 and isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, values)):
        kind = "b"
    if col.size and (kind not in kinds or dtype is np.int64 and kind == "u" and col.max() >= 2**63):
        raise ValueError(f"{rule}, got column {label} of dtype {col.dtype}")
    return col.astype(dtype, copy=False)


# Entries turned into Python scalars at a time when a table is iterated or
# written: the transient lists stay near 300 kB at any table size.
_ROW_CHUNK = 1024


@dataclass(frozen=True, eq=False)
class Records:
    """Eigenvalue records as numpy columns, one entry per eigenvalue.

    ``trial`` and ``idx`` are int64, ``re``, ``im`` and ``residual``
    float64, ``is_real`` bool, and ``ipr`` maps each order ``q``, strictly
    ascending, to a float64 column; a run builds one table.  The constructor
    types every column by one rule, keeping an array of its dtype uncopied,
    and raises `ValueError` naming the column for ids that are not integers
    in int64 (nor a bool among a list's ints), float columns that are not
    integers or floats (complex, bool) and an ``is_real`` that is not bool;
    also for an order that is not a whole number >= 1, orders that do not
    ascend, and columns of unequal lengths.  Entry ``k`` of every column
    describes the same eigenvalue; iterating yields these entries as
    `EigRecord` rows of Python scalars.  ``==`` compares two tables column
    by column, bit for bit.
    """

    trial: np.ndarray
    idx: np.ndarray
    re: np.ndarray
    im: np.ndarray
    is_real: np.ndarray
    residual: np.ndarray
    ipr: dict

    def __post_init__(self):
        orders = _ascending_orders(self.ipr)
        if orders != tuple(self.ipr):
            raise ValueError(f"IPR orders must be strictly ascending, got {list(self.ipr)}")
        for name, rule in _DTYPES.items():
            if name == "ipr":
                col = {q: _typed(f"ipr[{q}]", values, *rule) for q, values in zip(orders, self.ipr.values())}
            else:
                col = _typed(name, getattr(self, name), *rule)
            object.__setattr__(self, name, col)
        sizes = {len(col) for col in self._columns()}
        if len(sizes) > 1:
            raise ValueError(f"record columns differ in length: {sorted(sizes)}")

    def _columns(self, orders=None):
        """The columns in `EigRecord` field order, with the IPRs at ``orders`` (default: all held)."""
        ipr = self.ipr.values() if orders is None else [self.ipr[q] for q in orders]
        return [self.trial, self.idx, self.re, self.im, self.is_real, *ipr, self.residual]

    @property
    def orders(self):
        """The IPR orders held, ascending."""
        return tuple(self.ipr)

    @classmethod
    def from_rows(cls, rows, orders=None):
        """The table of an iterable of `EigRecord` rows.

        ``orders`` defaults to the IPR orders of the first row; every row
        must hold every order kept (`KeyError` otherwise), and no order may
        repeat (`ValueError`).
        """
        rows = list(rows)
        if orders is None:
            orders = rows[0].ipr if rows else ()
        return cls(
            trial=[r.trial_id for r in rows],
            idx=[r.idx for r in rows],
            re=[r.re_lambda for r in rows],
            im=[r.im_lambda for r in rows],
            is_real=[r.is_real_eig for r in rows],
            residual=[r.residual for r in rows],
            ipr={q: [r.ipr[q] for r in rows] for q in _ascending_orders(orders)},
        )

    def __len__(self):
        return len(self.re)

    def _rows(self, orders):
        """Per entry, ``(trial, idx, re, im, is_real, ipr at each of orders..., residual)`` as Python scalars."""
        cols = self._columns(orders)
        for k in range(0, len(self), _ROW_CHUNK):
            yield from zip(*(col[k : k + _ROW_CHUNK].tolist() for col in cols))

    def __iter__(self):
        orders = self.orders
        for trial, idx, re, im, is_real, *iprs, residual in self._rows(orders):
            yield EigRecord(trial, idx, re, im, is_real, dict(zip(orders, iprs)), residual)

    def __eq__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        # Every column has a fixed-width dtype, so its bytes are its bits: -0.0 != 0.0, and equal NaNs are equal.
        return self.orders == other.orders and all(
            a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(self._columns(), other._columns())
        )


def as_records(records, orders=None):
    """``records`` itself when it is a `Records` table, else `Records.from_rows` of its rows."""
    return records if isinstance(records, Records) else Records.from_rows(records, orders)


def _ascending_orders(orders):
    """IPR orders as an ascending tuple of ints; `ValueError` when an order repeats."""
    orders = tuple(sorted(_count("IPR order", q, 1) for q in orders))
    if len(set(orders)) < len(orders):
        raise ValueError(f"repeated IPR order in {orders}")
    return orders


def ipr(x, q):
    """Inverse participation ratio of order `q`, of one vector or of each row of a block.

    Parameters
    ----------
    x : array_like
        Nonzero real or complex vector with finite entries, or a 2-D array
        whose rows are such vectors.
    q : int
        Order, ``q >= 1``.  The ``q = 1`` functional is identically 1.

    Returns
    -------
    float or ndarray
        ``N**(q-1) * sum(|x_i|**(2q)) / (sum(|x_i|**2))**q`` over the last
        axis: a `float` for a vector, one value per row for a block.  Each
        value is invariant under scaling, entry permutation and global phase,
        lies in ``[1, N**(q-1)]``, and has the same bits as the call on that
        row alone.
    """
    q = _count("ipr order", q, 1)
    # C order whatever the caller's layout: numpy sums pairwise only along a
    # contiguous inner loop, so each row then gets the bits of a 1-D call.
    # `np.abs` returns a fresh array, which the steps below overwrite; integer
    # and bool magnitudes become float64, as `a / amax` would make them.
    a = np.abs(np.asarray(x), order="C")
    if a.dtype.kind in "biu":
        a = a.astype(float)
    if a.ndim not in (1, 2):
        raise ValueError(f"ipr takes a vector or a 2-D block of row vectors, got shape {a.shape}")
    n = a.shape[-1]
    if n == 0:
        raise ValueError("ipr of an empty vector")
    # One check over the row maxima: a NaN or inf entry makes its row's
    # maximum non-finite, a zero row makes its maximum 0.
    amax = a.max(axis=-1, keepdims=True)
    if not amax.max() < np.inf:
        raise ValueError("ipr of a vector with non-finite entries")
    if amax.min() == 0.0:
        raise ValueError("ipr of the zero vector")
    # Scale by the largest magnitude, then normalize, before raising to the
    # 2q-th power: extreme vectors neither overflow nor underflow.  Every
    # step works in place on `a`, with the bits of the out-of-place expressions.
    a /= amax
    np.square(a, out=a)
    a /= a.sum(axis=-1, keepdims=True)
    a **= q
    out = float(n) ** (q - 1) * a.sum(axis=-1)
    return out if out.ndim else float(out)


def uniform_sphere_sample(n, field, rng):
    """Uniform random unit vector on the real or complex sphere.

    Parameters
    ----------
    n : int
        Dimension, ``n >= 1``.
    field : {'real', 'complex'}
        Scalar field of the sphere.
    rng : numpy.random.Generator

    Returns
    -------
    ndarray
        Unit 2-norm vector; an iid standard Gaussian vector over the given
        field, normalized.
    """
    n = _count("sphere dimension", n, 1)
    if field == "real":
        v = rng.standard_normal(n)
    elif field == "complex":
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    return v / np.linalg.norm(v)


def factorial(q):
    """Exact integer ``q!`` for ``q >= 0``."""
    return math.factorial(_count("factorial order", q, 0))


def double_factorial_odd(q):
    """Exact integer ``(2q - 1)!! = 1 * 3 * ... * (2q - 1)``, with value 1 at ``q = 0``.

    This is the ``2q``-th moment of a standard real Gaussian and the
    real-sphere IPR limit of order ``q``.
    """
    return math.prod(range(1, 2 * _count("double factorial order", q, 0), 2))
