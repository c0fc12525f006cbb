import csv
import json
import math
import re

import numpy as np
import pytest

from eigipr import density_ell, double_factorial_odd, factorial
from eigipr.cli import main
from eigipr.output import read_records_csv


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestTheoryCommands:
    def test_density_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code, _, err = run_cli(
            ["theory-density", "--q", "2", "--y", "0.5", "--tau", "0",
             "--grid", "2.0:3.0:500", "--out", str(out)],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "density"]
        assert len(rows) == 500
        xs = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        assert np.allclose(vals, density_ell(2, xs, 0.5, 0.0), rtol=1e-12, atol=1e-300)
        # resolved config echoed as JSON on stderr
        cfg = json.loads(err.strip().splitlines()[0])
        assert cfg["command"] == "theory-density"
        assert cfg["params"]["y"] == 0.5

    def test_cdf_csv_monotone(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code, _, _ = run_cli(
            ["theory-cdf", "--q", "3", "--y", "1.0", "--out", str(out)], capsys
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "cdf"]
        vals = [float(r[1]) for r in rows]
        assert all(a <= b + 1e-13 for a, b in zip(vals, vals[1:]))
        assert 0.0 <= vals[0] and vals[-1] <= 1.0

    @pytest.mark.parametrize("command", ["theory-cdf", "theory-density"])
    @pytest.mark.parametrize("q", ["1", "31"])
    def test_rejects_order_outside_range(self, tmp_path, capsys, command, q):
        out = tmp_path / "o.csv"
        code, _, err = run_cli(
            [command, "--q", q, "--y", "1", "--grid", "0:2:3", "--out", str(out)], capsys
        )
        assert code == 2
        assert "order must be in" in err

    def test_sample_within_support(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run_cli(
            ["theory-sample", "--q", "2", "--y", "0.7", "--n", "500",
             "--seed", "9", "--out", str(out)],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["value"]
        vals = np.array([float(r[0]) for r in rows])
        assert vals.size == 500
        assert np.all((vals > 2.0) & (vals < 3.0))

    def test_mean_report(self, capsys):
        code, out, _ = run_cli(
            ["theory-mean", "--q", "2", "--y", "0.5", "--N", "1024"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert 2.0 < report["mean_finite_N"] < report["mean_limit"] < 3.0
        assert report["bulk_limit"] == 2.0
        assert report["real_axis_limit"] == 3.0


class TestSampleSpectrum:
    def test_records_csv_header_and_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code, _, _ = run_cli(
            ["sample-spectrum", "--ensemble", "elliptic", "--N", "60", "--tau", "0.5",
             "--trials", "3", "--q", "2,3", "--seed", "7", "--workers", "2",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["trial", "idx", "re_lambda", "im_lambda", "is_real",
                          "ipr_q2", "ipr_q3", "residual"]
        assert rows
        records = read_records_csv(out)
        # 17 significant digits round-trip exactly
        from eigipr import EnsembleSpec, RunConfig, spectrum_ipr_map

        cfg = RunConfig(
            spec=EnsembleSpec(kind="elliptic_real", N=60, tau=0.5),
            trials=3, q_set=(2, 3), seed=7, workers=2,
        )
        assert records == spectrum_ipr_map(cfg)

    def test_empty_q_defaults(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code, _, _ = run_cli(
            ["sample-spectrum", "--ensemble", "ginibre-real", "--N", "20",
             "--trials", "1", "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        header, _ = read_csv(out)
        assert "ipr_q2" in header

    def test_reproducible_from_echoed_config(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        code, _, err = run_cli(
            ["sample-spectrum", "--ensemble", "ginibre-real", "--N", "30",
             "--trials", "2", "--q", "2", "--out", str(out1)],
            capsys,
        )
        assert code == 0
        echoed = json.loads(err.strip().splitlines()[0])
        cfg_file = tmp_path / "cfg.json"
        out2 = tmp_path / "b.csv"
        echoed["params"]["out"] = str(out2)
        cfg_file.write_text(json.dumps(echoed))
        code, _, _ = run_cli(["sample-spectrum", "--config", str(cfg_file)], capsys)
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCompare:
    def test_report_structure(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            ["compare", "--ensemble", "elliptic", "--tau", "0", "--N", "120",
             "--trials", "200", "--q", "2", "--y", "2.0", "--relwidth", "0.6",
             "--seed", "7", "--out", str(out)],
            capsys,
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["n_samples"] >= 100
        assert 0.0 <= report["ks_distance"] <= 1.0
        assert report["threshold"] == 0.06
        assert isinstance(report["pass"], bool)

    def test_insufficient_data_is_runtime_error(self, capsys):
        code, _, err = run_cli(
            ["compare", "--ensemble", "elliptic", "--N", "50", "--trials", "2",
             "--q", "2", "--y", "0.5", "--seed", "3"],
            capsys,
        )
        assert code == 2
        assert "error" in err


class TestConvergence:
    def test_table(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code, _, _ = run_cli(
            ["convergence", "--q", "2", "--y", "0.5", "--N-list", "64,128",
             "--trials", "400", "--seed", "11", "--out", str(out)],
            capsys,
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["N", "mean", "std", "stderr", "theory_mean"]
        assert [int(r[0]) for r in rows] == [64, 128]

    def test_fixed_amplitudes(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        s = 1 / math.sqrt(2)
        code, _, _ = run_cli(
            ["convergence", "--q", "2", "--N-list", "64", "--trials", "500",
             "--st", f"{s},{s}", "--seed", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        _, rows = read_csv(out)
        assert float(rows[0][4]) == pytest.approx(2 * 64 / 66, rel=1e-12)


class TestFigure:
    @staticmethod
    def fills(svg_text):
        return np.array(
            [
                [int(h[i : i + 2], 16) for i in (1, 3, 5)]
                for h in re.findall(r'circle[^/]*fill="(#[0-9a-f]{6})"', svg_text)
            ]
        )

    @staticmethod
    def warm_fraction(fills):
        # red channel beyond the teal stop means the point maps near yellow
        return np.mean(fills[:, 0] > 150)

    def test_complex_ginibre_near_uniform_color(self, tmp_path, capsys):
        out = tmp_path / "c.svg"
        code, _, _ = run_cli(
            ["figure", "--ensemble", "ginibre-complex", "--N", "200", "--trials", "2",
             "--q", "2", "--seed", "5", "--out", str(out)],
            capsys,
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("<?xml")
        assert 'xmlns="http://www.w3.org/2000/svg"' in text
        fills = self.fills(text)
        assert len(fills) == 400
        # delocalized ensemble: essentially no point reaches the warm end
        assert self.warm_fraction(fills) < 0.02

    def test_real_ensemble_shows_color_gradient(self, tmp_path, capsys):
        out = tmp_path / "r.svg"
        code, _, _ = run_cli(
            ["figure", "--ensemble", "elliptic", "--N", "200", "--trials", "4",
             "--q", "2", "--seed", "6", "--out", str(out)],
            capsys,
        )
        assert code == 0
        fills = self.fills(out.read_text())
        # real spectra carry a localized warm band near the real axis
        assert self.warm_fraction(fills) > 0.03

    def test_normalized_permutation_sum(self, tmp_path, capsys):
        out = tmp_path / "p.svg"
        code, _, _ = run_cli(
            ["figure", "--ensemble", "permutation-sum", "--N", "150", "--d", "4",
             "--normalization", "bulk", "--trials", "2", "--q", "2", "--seed", "8",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "<circle" in out.read_text()


class TestUsageAndSeeds:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(["theory-density", "--y", "1", "--frobnicate", "3"], capsys)
        assert code == 1
        assert "usage error" in err

    def test_missing_required(self, capsys):
        code, _, err = run_cli(["theory-density"], capsys)
        assert code == 1
        assert "--y is required" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 1

    def test_bad_config_path(self, capsys):
        code, _, err = run_cli(
            ["theory-density", "--y", "1", "--config", "/nonexistent.json"], capsys
        )
        assert code == 1

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IPR_RMT_SEED", "424242")
        out = tmp_path / "s.csv"
        code, _, err = run_cli(
            ["theory-sample", "--q", "2", "--y", "1.0", "--n", "10", "--out", str(out)],
            capsys,
        )
        assert code == 0
        cfg = json.loads(err.strip().splitlines()[0])
        assert cfg["params"]["seed"] == 424242

    def test_defaulted_seed_echoed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("IPR_RMT_SEED", raising=False)
        out = tmp_path / "s.csv"
        code, _, err = run_cli(
            ["theory-sample", "--q", "2", "--y", "1.0", "--n", "10", "--out", str(out)],
            capsys,
        )
        assert code == 0
        cfg = json.loads(err.strip().splitlines()[0])
        assert isinstance(cfg["params"]["seed"], int)

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(json.dumps({"y": 0.5, "q": 2}))
        out = tmp_path / "d.csv"
        code, _, err = run_cli(
            ["theory-density", "--config", str(cfg_file), "--y", "1.5", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert json.loads(err.strip().splitlines()[0])["params"]["y"] == 1.5
