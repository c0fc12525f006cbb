import csv
import io
import math
import re

import numpy as np
import pytest

from eigipr import EigRecord, Records, output
from eigipr.output import (
    read_records_csv,
    write_json,
    write_records_csv,
    write_svg_scatter,
    write_table_csv,
)


def make_record(trial, idx, re, im, q_set=(2, 3)):
    return EigRecord(
        trial_id=trial,
        idx=idx,
        re_lambda=re,
        im_lambda=im,
        is_real_eig=(im == 0.0),
        ipr={q: 2.0 + 0.1 * q + idx for q in q_set},
        residual=1.25e-13,
    )


def csv_writer_reference(records, q_set):
    """The csv.writer loop that `write_records_csv` replaced, kept as its byte oracle."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(
        ["trial", "idx", "re_lambda", "im_lambda", "is_real"] + [f"ipr_q{q}" for q in q_set] + ["residual"]
    )
    for rec in records:
        row = [rec.trial_id, rec.idx, format(float(rec.re_lambda), ".17g"), format(float(rec.im_lambda), ".17g")]
        row.append(1 if rec.is_real_eig else 0)
        row += [format(float(rec.ipr[q]), ".17g") for q in q_set]
        row.append(format(float(rec.residual), ".17g"))
        writer.writerow(row)
    return fh.getvalue()


# The header of a records CSV with one IPR order.
_HEADER = "trial,idx,re_lambda,im_lambda,is_real,ipr_q2,residual"

# The refusal of a row field that int() or float() takes but write_records_csv never writes.
_NOT_WRITTEN = "a field is not as write_records_csv writes it"


class TestRecordsCsv:
    def test_zero_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_records_csv([], path, q_set=(2, 3, 4))
        lines = path.read_text().splitlines()
        assert lines == ["trial,idx,re_lambda,im_lambda,is_real,ipr_q2,ipr_q3,ipr_q4,residual"]

    def test_empty_table_keeps_its_orders(self, tmp_path):
        # A table knows its orders with no entries, unlike an empty list of rows.
        path = tmp_path / "empty.csv"
        write_records_csv(Records.from_rows([], orders=(3, 2)), path)
        assert path.read_text().splitlines() == ["trial,idx,re_lambda,im_lambda,is_real,ipr_q2,ipr_q3,residual"]
        back = read_records_csv(path)
        assert len(back) == 0 and back.orders == (2, 3)

    def test_round_trip_exact(self, tmp_path):
        # 17 significant digits reproduce every double exactly
        rng = np.random.default_rng(1)
        records = [
            make_record(t, i, rng.standard_normal(), abs(rng.standard_normal()))
            for t in range(3)
            for i in range(4)
        ]
        path = tmp_path / "r.csv"
        write_records_csv(records, path)
        back = read_records_csv(path)
        assert isinstance(back, Records)
        assert back == Records.from_rows(records)

    def test_nan_and_inf_read_back(self, tmp_path):
        # The writer writes nan and inf for a table holding them, so the reader takes them.
        table = Records.from_rows([EigRecord(0, 0, 0.5, 0.25, False, {2: math.nan}, -math.inf)])
        path = tmp_path / "r.csv"
        write_records_csv(table, path)
        assert path.read_text().splitlines()[1] == "0,0,0.5,0.25,0,nan,-inf"
        assert read_records_csv(path) == table

    def test_header_order_of_iprs_not_kept(self, tmp_path):
        # A CSV may list its IPR columns in any order; the table holds them ascending.
        path = tmp_path / "r.csv"
        path.write_text(
            "trial,idx,re_lambda,im_lambda,is_real,ipr_q3,ipr_q2,residual\r\n"
            "0,0,0.5,0.25,0,4.5,2.25,1e-15\r\n"
            "1,3,-0.5,0,1,14,2.5,2e-15\r\n"
        )
        table = read_records_csv(path)
        assert table.orders == (2, 3)
        assert table.ipr[2].tolist() == [2.25, 2.5] and table.ipr[3].tolist() == [4.5, 14.0]
        assert table == Records.from_rows(list(table))
        assert table == Records.from_rows(
            [
                EigRecord(0, 0, 0.5, 0.25, False, {2: 2.25, 3: 4.5}, 1e-15),
                EigRecord(1, 3, -0.5, 0.0, True, {2: 2.5, 3: 14.0}, 2e-15),
            ]
        )

    def test_repeated_order_rejected_before_open(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"keep me\n")
        table = Records.from_rows([make_record(0, 0, 1.0, 0.5)])
        with pytest.raises(ValueError, match="repeated IPR order"):
            write_records_csv(table, path, q_set=(2, 2, 3))
        assert path.read_bytes() == b"keep me\n"

    @pytest.mark.parametrize(
        "header",
        [
            "trial,idx,re_lamda,im_lambda,is_real,ipr_q2,residual",  # misspelt
            "trial,idx,re_lambda,im_lambda,is_real,ipr_2,residual",  # not ipr_q<int>
            "trial,idx,re_lambda,im_lambda,is_real,ipr_q2",  # no residual
            "trial,idx,re_lambda,im_lambda,is_real",
            "trial,idx,re_lambda,im_lambda,is_real,ipr_q2,ipr_q2,ipr_q3,residual",  # repeated order
            "trial,idx,re_lambda,im_lambda,is_real,ipr_q0,residual",  # no IPR of order 0
            "trial,idx,re_lambda,im_lambda,is_real,ipr_q02,residual",  # the writer writes ipr_q2
            "trial,idx,re_lambda,im_lambda,is_real,ipr_q\u0662,residual",  # an Arabic-Indic 2
        ],
    )
    def test_bad_header_rejected_before_rows(self, header, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(header + "\r\n" + ",".join(["1"] * len(header.split(","))) + "\r\n")
        bad_header = re.escape(f"{path}: bad records CSV header") + ".*" + re.escape(header)
        with pytest.raises(ValueError, match=bad_header):
            read_records_csv(path)

    def test_theory_table_rejected(self, tmp_path, capsys):
        from eigipr.cli import main

        path = tmp_path / "cdf.csv"
        assert main(["theory-cdf", "--q", "2", "--y", "0.5", "--grid", "2.1:2.9:5", "--out", str(path)]) == 0
        capsys.readouterr()
        with pytest.raises(ValueError, match=re.escape(f"{path}: bad records CSV header") + ".*x,cdf"):
            read_records_csv(path)

    @pytest.mark.parametrize("flag", ["true", "2", "", "01"])
    def test_is_real_other_than_0_or_1_rejected(self, flag, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(f"trial,idx,re_lambda,im_lambda,is_real,ipr_q2,residual\r\n0,0,1.0,0.0,{flag},2.0,1e-13\r\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: is_real must be 0 or 1, got {flag!r}")):
            read_records_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records_csv([make_record(0, 0, 1.0, 0.5)], path)
        with open(path, "a", newline="") as fh:
            fh.write("0,1,1.0,0.5,0,2.0\r\n")
        with pytest.raises(ValueError, match="header"):
            read_records_csv(path)

    def test_bytes_match_csv_writer(self, tmp_path, capsys):
        q_set = (2, 3, 8)
        records = [
            make_record(0, 0, -0.0, 0.0, q_set),
            make_record(7, 1, 5e-324, -0.0, q_set),
            make_record(2**62, 2, 1e-300, 1e300, q_set),
            make_record(2**63 - 1, 3, -1.0 / 3.0, 2.0 / 3.0, q_set),
        ]
        records[1].ipr[3] = 5e-324
        records[2].residual = -0.0
        expected = csv_writer_reference(records, q_set)
        path = tmp_path / "r.csv"
        write_records_csv(records, path, q_set=q_set)
        assert path.read_bytes() == expected.encode("utf-8")
        capsys.readouterr()
        write_records_csv(records, "-", q_set=q_set)
        assert capsys.readouterr().out == expected
        write_records_csv(Records.from_rows(records), path)
        assert path.read_bytes() == expected.encode("utf-8")
        # An id beyond int64 is refused before the file is opened.
        records[3].trial_id = 10**20
        with pytest.raises(ValueError, match="trial and idx ids must fit in int64"):
            write_records_csv(records, path, q_set=q_set)
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("trial, idx", [(10**20, 0), (0, -(2**63) - 1)], ids=["trial", "idx"])
    def test_id_beyond_int64_rejected(self, trial, idx, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(f"{_HEADER}\r\n{trial},{idx},1.0,0.0,1,2.0,1e-13\r\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: trial and idx ids must fit in int64")):
            read_records_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,0,1.0,0.0,0,2.0,1e-13", "invalid literal for int() with base 10: 'x'"),
            ("0,1.5,1.0,0.0,0,2.0,1e-13", "invalid literal for int() with base 10: '1.5'"),
            ("0,0,1.0,,0,2.0,1e-13", "could not convert string to float: ''"),
            ("0,0,1.0,0.0,0,two,1e-13", "could not convert string to float: 'two'"),
            ("1_0,0,1.0,0.0,0,2.0,1e-13", _NOT_WRITTEN),
            ("0, 3 ,1.0,0.0,0,2.0,1e-13", _NOT_WRITTEN),
            ("-0,0,1.0,0.0,0,2.0,1e-13", _NOT_WRITTEN),
            ("0,0,1_0.5,0.0,0,2.0,1e-13", _NOT_WRITTEN),
            ("0,0,1.0,0.0,0, 2.0,1e-13", _NOT_WRITTEN),
        ],
        ids=["trial", "idx", "im_lambda", "ipr", "trial_underscore", "idx_padded", "trial_minus_zero",
             "re_underscore", "ipr_padded"],
    )
    def test_bad_field_names_file_and_line(self, row, message, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(f"{_HEADER}\r\n0,0,1.0,0.0,1,2.0,1e-13\r\n{row}\r\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: {message}")):
            read_records_csv(path)

    def test_partial_file_removed_on_failure(self, tmp_path):
        # A missing order is found before the file is opened: what was there stays.
        path = tmp_path / "bad.csv"
        path.write_bytes(b"keep me\n")
        bad = [make_record(0, 0, 1.0, 0.0, q_set=(2,)), make_record(0, 1, 1.0, 0.0, q_set=(3,))]
        with pytest.raises(KeyError):
            write_records_csv(bad, path, q_set=(2,))
        with pytest.raises(KeyError):
            write_records_csv(Records.from_rows(bad[:1]), path, q_set=(2, 3))
        assert path.read_bytes() == b"keep me\n"
        # A write that fails part way removes its partial file.
        partial = tmp_path / "partial.csv"
        with pytest.raises(ValueError):
            write_table_csv(["x"], [(1.0,), ("not a number",)], partial)
        assert not partial.exists()

    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_json({"a": 1}, path),
            lambda path: write_records_csv([make_record(0, 0, 1.0, 0.5)], path),
            lambda path: write_table_csv(["x"], [(1.0,)], path),
            lambda path: write_svg_scatter(Records.from_rows([make_record(0, 0, 1.0, 0.5)]), 2, path),
        ],
        ids=["json", "records", "table", "svg"],
    )
    def test_failed_open_leaves_the_old_file(self, write, tmp_path, monkeypatch):
        # Only a partial file the writer made is removed: one it could not open is not its own.
        def refuse(*args, **kwargs):
            raise PermissionError("refused")

        path = tmp_path / "old"
        path.write_bytes(b"keep me\n")
        monkeypatch.setattr(output, "open", refuse, raising=False)
        with pytest.raises(PermissionError):
            write(path)
        assert path.read_bytes() == b"keep me\n"


class TestJson:
    def test_sorted_indented_with_final_newline(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        payload = {"b": [1, 2.5], "a": {"d": True, "c": None}}
        write_json(payload, path)
        want = '{\n  "a": {\n    "c": null,\n    "d": true\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        assert path.read_text() == want
        capsys.readouterr()
        write_json(payload, "-")
        assert capsys.readouterr().out == want

    def test_unserializable_payload_leaves_file(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(b"keep me\n")
        with pytest.raises(TypeError):
            write_json({"a": 1, "b": object()}, path)
        assert path.read_bytes() == b"keep me\n"

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_payload_leaves_file(self, value, tmp_path):
        # JSON has no NaN or infinity: writing Python's NaN/Infinity tokens would make an invalid file.
        path = tmp_path / "r.json"
        path.write_bytes(b"keep me\n")
        with pytest.raises(ValueError):
            write_json({"ks_distance": value}, path)
        assert path.read_bytes() == b"keep me\n"


class TestDensityCsv:
    def test_header_and_precision(self, tmp_path):
        path = tmp_path / "d.csv"
        xs = [1.0 / 3.0, 2.0 / 3.0]
        vals = [0.1 + 0.2, 1e-300]
        write_table_csv(["x", "density"], zip(xs, vals), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,density"
        parsed = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert parsed == [(xs[0], vals[0]), (xs[1], vals[1])]

    def test_ints_as_ints_and_crlf(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table_csv(["N", "mean"], [(16, 2.0), (64, np.float64(0.1))], path)
        assert path.read_bytes() == b"N,mean\r\n16,2\r\n64,0.10000000000000001\r\n"


class TestSvgScatter:
    def test_structure_and_color_clipping(self, tmp_path):
        # IPRs 2.2 to 9.2: all but the first above the (2q-1)!! = 3 ceiling.
        records = Records.from_rows([make_record(0, i, 0.1 * i, 0.05 * i, q_set=(2,)) for i in range(8)])
        path = tmp_path / "fig.svg"
        write_svg_scatter(records, 2, path)
        text = path.read_text()
        assert text.startswith("<?xml")
        assert 'version="1.1"' in text and "</svg>" in text
        assert text.count("<circle") == 8
        # values above the (2q-1)!! ceiling clip to the warm endpoint
        assert "#fde725" in text

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_svg_scatter(Records.from_rows([], orders=(2,)), 2, tmp_path / "x.svg")
