"""CSV, JSON and SVG export with locale-independent, round-trip precision.

Numeric fields are printed with 17 significant digits so parsing them back
recovers the exact double.  Writers remove their partial file when the write
fails; the path ``'-'`` means standard output.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .core import Records, _ascending_orders, _count, as_records, double_factorial_odd, factorial

__all__ = [
    "read_records_csv",
    "write_json",
    "write_records_csv",
    "write_svg_scatter",
    "write_table_csv",
]


@contextmanager
def _sink(path):
    if path == "-":
        yield sys.stdout
        return
    fh = open(path, "w", encoding="utf-8", newline="")  # a failed open removes nothing
    try:
        with fh:
            yield fh
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


# The columns of a records CSV before its ``ipr_q<q>`` columns; ``residual`` comes last.
_HEAD = ["trial", "idx", "re_lambda", "im_lambda", "is_real"]


def write_records_csv(records, path, q_set=None):
    """Write eigenvalue records, a `Records` table or an iterable of `EigRecord` rows, as CSV.

    Header: ``trial,idx,re_lambda,im_lambda,is_real,ipr_q<q>...,residual``
    with one ``ipr_q<q>`` column per requested order.  ``q_set`` defaults to
    the orders the table holds (for rows, those of the first row).  A
    repeated order raises `ValueError`, and one the records lack `KeyError`,
    before ``path`` is opened, so an existing file there is left as it was.
    """
    q_set = q_set if q_set is None else _ascending_orders(q_set)
    table = as_records(records, q_set)
    q_set = table.orders if q_set is None else q_set
    missing = sorted(set(q_set).difference(table.orders))
    if missing:
        raise KeyError(missing[0])
    # The bytes csv.writer would write: it never quotes these fields, and
    # ``{:d}`` writes the realness flag as 1 or 0.
    line = ",".join(["{}", "{}", "{:.17g}", "{:.17g}", "{:d}"] + ["{:.17g}"] * (len(q_set) + 1)) + "\r\n"
    with _sink(path) as fh:
        fh.write(",".join([*_HEAD, *(f"ipr_q{q}" for q in q_set), "residual"]) + "\r\n")
        fh.writelines(line.format(*row) for row in table._rows(q_set))


def read_records_csv(path):
    """Parse a records CSV back into a `Records` table.

    The header is checked before any row is read: the five leading columns,
    ``ipr_q<q>`` columns of distinct orders ``q >= 1`` written as ``str(q)``,
    then ``residual``.  Any other header, an ``is_real`` field other than
    ``0`` or ``1``, an id other than ``str(int)`` of an int64, and a float
    field `float` refuses or holding ``_`` or surrounding whitespace raise
    `ValueError` naming the file (and the line, for a row's number field).
    """
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        names = header[5:-1]
        orders = [int(name[5:]) for name in names if name.startswith("ipr_q") and name[5:].isdecimal()]
        exact = names == [f"ipr_q{q}" for q in orders]  # not ipr_q02, nor a non-ASCII digit
        if header[:5] != _HEAD or header[-1:] != ["residual"] or not exact or len(set(orders) - {0}) < len(names):
            raise ValueError(f"{path}: bad records CSV header (or a repeated IPR order): {','.join(header)}")
        # Each row parsed as it is read: no CSV text is kept.
        entries = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: a row does not have the header's {len(header)} fields")
            trial, idx, re, im, is_real, *numbers = row
            if is_real not in ("0", "1"):
                raise ValueError(f"{path}: is_real must be 0 or 1, got {is_real!r}")
            try:
                ids, floats = [int(trial), int(idx)], [float(x) for x in (re, im, *numbers)]
                if [str(i) for i in ids] != [trial, idx] or any("_" in x or x.strip() != x for x in row):
                    raise ValueError(f"a field is not as write_records_csv writes it: {','.join(row)}")
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            entries.append((*ids, *floats[:2], is_real == "1", *floats[2:]))
    trial, idx, re, im, is_real, *iprs, residual = list(zip(*entries)) or [()] * len(header)
    ipr = dict(sorted(zip(orders, iprs)))  # the orders are distinct, so only they are compared
    try:
        return Records(trial=trial, idx=idx, re=re, im=im, is_real=is_real, residual=residual, ipr=ipr)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json(payload, path):
    """Write ``payload`` as JSON: sorted keys, an indent of 2 and a final newline.

    The text is built before ``path`` is opened, so a payload that cannot be
    serialized raises `TypeError`, and one holding NaN or an infinity (which
    JSON cannot hold) `ValueError`; either leaves an existing file as it was.
    """
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with _sink(path) as fh:
        fh.write(text)


def write_table_csv(header, rows, path):
    """Write a header row and rows of numbers as CSV: ints as ints, other values at ``.17g``."""
    with _sink(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [v if isinstance(v, int) else format(float(v), ".17g") for v in row] for row in rows
        )


# Side of the square SVG canvas in pixels, and the radius of each point.
_SVG_SIZE = 640
_POINT_RADIUS = 2.0

# Three-stop linear color map (dark violet -> teal -> yellow); cosmetic only.
_STOPS = ((68, 1, 84), (33, 145, 140), (253, 231, 37))


def _color(t):
    t = min(max(t, 0.0), 1.0)
    if t <= 0.5:
        lo, hi, u = _STOPS[0], _STOPS[1], 2.0 * t
    else:
        lo, hi, u = _STOPS[1], _STOPS[2], 2.0 * t - 1.0
    return "#%02x%02x%02x" % tuple(round(a + (b - a) * u) for a, b in zip(lo, hi))


def write_svg_scatter(records, q, path):
    """Self-contained SVG scatter of eigenvalues colored by their order-``q`` IPR.

    ``records`` is a `Records` table holding order ``q``.  The color scale
    is linear in the IPR, clipped to ``[q!, (2q-1)!!]``: the delocalized
    floor maps to dark violet, the real-axis ceiling to yellow.
    """
    q = _count("IPR order", q, 2)
    lo, hi = factorial(q), double_factorial_odd(q)
    if not len(records):
        raise ValueError("no records to plot")
    xs, ys, vals = records.re.tolist(), records.im.tolist(), records.ipr[q].tolist()
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-30) * 1.05
    cx = 0.5 * (max(xs) + min(xs))
    cy = 0.5 * (max(ys) + min(ys))
    margin = 20.0
    scale = (_SVG_SIZE - 2 * margin) / span

    def to_px(x, y):
        return (
            0.5 * _SVG_SIZE + (x - cx) * scale,
            0.5 * _SVG_SIZE - (y - cy) * scale,
        )

    with _sink(path) as fh:
        fh.write(
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{_SVG_SIZE}" height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">\n'
            f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>\n'
        )
        y0 = to_px(0.0, 0.0)[1]
        if 0.0 <= y0 <= _SVG_SIZE:
            fh.write(
                f'<line x1="0" y1="{y0:.2f}" x2="{_SVG_SIZE}" y2="{y0:.2f}" '
                'stroke="#cccccc" stroke-width="1"/>\n'
            )
        for x, y, val in zip(xs, ys, vals):
            px, py = to_px(x, y)
            col = _color((val - lo) / (hi - lo))
            fh.write(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{_POINT_RADIUS}" fill="{col}"/>\n')
        fh.write(
            f'<rect x="0.5" y="0.5" width="{_SVG_SIZE - 1}" height="{_SVG_SIZE - 1}" '
            'fill="none" stroke="#444444"/>\n'
        )
        fh.write("</svg>\n")
