import csv
import json
import math
import re
import time

import numpy as np
import pytest

from eigipr import density_ell, double_factorial_odd, factorial
from eigipr.cli import _COMMANDS, main
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

    @pytest.mark.parametrize("command", ["theory-cdf", "theory-density"])
    @pytest.mark.parametrize("grid", ["2:nan:3", "2:inf:3", "-inf:3:3", "2:3:0", "2:3:-1"])
    def test_rejects_bad_grid(self, tmp_path, capsys, command, grid):
        out = tmp_path / "o.csv"
        code, _, err = run_cli([command, "--y", "1", f"--grid={grid}", "--out", str(out)], capsys)
        assert code == 1 and "bad value for --grid" in err
        assert not out.exists()

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

    @pytest.mark.parametrize("n", ["0", "1", "-3"])
    def test_mean_rejects_dimension_below_two(self, n, capsys):
        code, out, err = run_cli(["theory-mean", "--y", "0.5", "--N", n], capsys)
        assert code == 2
        assert out == ""
        assert f"N must be >= 2, got {n}" in err

    def test_mean_report_in_narrow_peak_at_one(self, capsys):
        # 2y / sqrt(1 - tau**2) ~ 700: S crowds 1 within ~2e-6, and the mean
        # must still sit at or above the bulk limit q! = 2.
        code, out, _ = run_cli(["theory-mean", "--q", "2", "--y", "50", "--tau", "0.99"], capsys)
        assert code == 0
        report = json.loads(out)
        assert 2.0 <= report["mean_limit"] < 2.001

    def test_mean_same_bytes_to_stdout_and_file(self, tmp_path, capsys):
        args = ["theory-mean", "--q", "3", "--y", "0.5", "--tau", "0.4", "--N", "100"]
        code, out, _ = run_cli([*args, "--out", "-"], capsys)
        assert code == 0
        path = tmp_path / "mean.json"
        code, to_stdout, _ = run_cli([*args, "--out", str(path)], capsys)
        assert code == 0 and to_stdout == ""
        assert path.read_bytes() == out.encode("utf-8") and out.endswith("}\n")

    @pytest.mark.parametrize(
        "command, args",
        [
            ("theory-density", []),
            ("theory-cdf", []),
            ("theory-sample", ["--seed", "1"]),
            ("theory-mean", []),
            ("theory-mean", ["--N", "64"]),
            ("convergence", ["--N-list", "8", "--trials", "4", "--seed", "1"]),
        ],
    )
    def test_infinite_height_is_runtime_error(self, command, args, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = run_cli([command, "--y", "inf", *args, "--out", str(out)], capsys)
        assert code == 2 and stdout == "" and not out.exists()
        assert err.splitlines()[-1].startswith("error: ") and "Traceback" not in err


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

    def test_repeated_order_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        import eigipr.experiments as exp

        out = tmp_path / "r.csv"
        trials = []
        monkeypatch.setattr(exp, "_run_trial", lambda c, t: trials.append(t))
        code, _, err = run_cli(
            ["sample-spectrum", "--ensemble", "elliptic", "--N", "20", "--trials", "2",
             "--q", "3,2,2", "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 2 and "repeated IPR order" in err
        assert trials == [] and not out.exists()

    def test_normalization_is_figure_only(self, tmp_path, capsys):
        # figure fits the spectrum to its canvas, so no command takes a rescaling.
        for command in ("sample-spectrum", "figure"):
            out = tmp_path / command
            code, _, err = run_cli(
                [command, "--ensemble", "elliptic", "--N", "10", "--normalization", "bulk", "--out", str(out)],
                capsys,
            )
            assert code == 1
            assert "usage error" in err
            assert not out.exists()

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--y", "0", "y_center"),
            ("--tau", "1", "tau < 1"),
            ("--xwindow", "-1", "x_window"),
            ("--y", "inf", "y_center"),
            ("--y", "1e300", "y must be > 0"),
            # The elliptic law does not apply to these kinds.
            ("--ensemble", "ginibre-complex", "ROADMAP item 4"),
            ("--ensemble", "induced", "ROADMAP item 4"),
            ("--ensemble", "orthogonal-sum", "ROADMAP item 4"),
            ("--ensemble", "permutation-sum", "ROADMAP item 4"),
        ],
    )
    def test_bad_bin_fails_before_any_trial(self, capsys, monkeypatch, flag, value, message):
        import eigipr.experiments as exp

        trials = []
        real_run = exp._run_trial
        monkeypatch.setattr(exp, "_run_trial", lambda c, t: trials.append(t) or real_run(c, t))
        args = ["compare", "--N", "400", "--trials", "210", "--seed", "3", flag, value]
        start = time.perf_counter()
        code, _, err = run_cli(args, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert message in err
        assert trials == []

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0", "-1", "1.5"])
    def test_threshold_outside_unit_interval_fails_before_any_trial(self, threshold, tmp_path, capsys, monkeypatch):
        import eigipr.experiments as exp

        trials = []
        monkeypatch.setattr(exp, "_run_trial", lambda c, t: trials.append(t))
        out = tmp_path / "report.json"
        code, _, err = run_cli(
            ["compare", "--N", "60", "--trials", "80", "--seed", "1", "--threshold", threshold, "--out", str(out)],
            capsys,
        )
        assert code == 2 and "compare needs a threshold in (0, 1]" in err
        assert trials == [] and not out.exists()

    def test_real_ginibre_only_at_tau_zero(self, tmp_path, capsys, monkeypatch):
        # The real Ginibre sampler does not read tau, while the law tested uses
        # it, so its spec refuses any other tau.
        import eigipr.experiments as exp

        out = tmp_path / "report.json"
        args = ["compare", "--ensemble", "ginibre-real", "--N", "100", "--trials", "300", "--seed", "4",
                "--relwidth", "0.2", "--xwindow", "0.9", "--out", str(out)]
        trials = []
        real_run = exp._run_trial
        monkeypatch.setattr(exp, "_run_trial", lambda c, t: trials.append(t) or real_run(c, t))
        code, _, err = run_cli([*args, "--tau", "0.5"], capsys)
        assert code == 2 and "ginibre_real does not read tau" in err and trials == []
        code, _, _ = run_cli([*args, "--tau", "0"], capsys)
        assert code == 0 and len(trials) == 300
        report = json.loads(out.read_text())
        assert report["ensemble"] == "ginibre_real" and report["n_samples"] >= 100


class TestEnsembleFields:
    @pytest.mark.parametrize(
        "command, args, message",
        [
            ("sample-spectrum", ["--ensemble", "ginibre-real", "--tau", "0.5"], "ginibre_real does not read tau"),
            ("figure", ["--ensemble", "elliptic", "--nu", "3"], "elliptic_real does not read nu"),
        ],
    )
    def test_ignored_field_fails_before_any_trial(self, command, args, message, tmp_path, capsys, monkeypatch):
        import eigipr.experiments as exp

        trials = []
        run_trial = exp._run_trial
        monkeypatch.setattr(exp, "_run_trial", lambda c, t: trials.append(t) or run_trial(c, t))
        out = tmp_path / "out"
        code, _, err = run_cli([command, *args, "--N", "10", "--trials", "2", "--out", str(out)], capsys)
        assert code == 2 and message in err
        assert trials == [] and not out.exists()


    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_theta_fails_before_any_trial(self, theta, tmp_path, capsys, monkeypatch):
        import eigipr.experiments as exp

        trials = []
        monkeypatch.setattr(exp, "_run_trial", lambda c, t: trials.append(t))
        out = tmp_path / "s.csv"
        code, _, err = run_cli(
            ["sample-spectrum", "--ensemble", "permutation-sum", "--d", "2",
             "--theta", theta, "--N", "10", "--trials", "2", "--out", str(out)],
            capsys,
        )
        assert code == 2 and f"theta must be finite and > 0, got {theta}" in err
        assert trials == [] and not out.exists()

    @pytest.mark.parametrize("command", ["sample-spectrum", "figure"])
    def test_flags_are_the_spec_fields(self, command, tmp_path, capsys):
        from dataclasses import fields

        from eigipr import EnsembleSpec

        out = tmp_path / "out"
        args = [command, "--ensemble", "elliptic", "--N", "8", "--trials", "1", "--seed", "1",
                "--out", str(out)]
        code, _, err = run_cli(args, capsys)
        assert code == 0
        params = json.loads(err.splitlines()[0])["params"]
        defaults = {f.name: f.default for f in fields(EnsembleSpec)[2:]}
        run_keys = {"ensemble", "N", "q", "trials", "seed", "workers", "out"}
        assert {k: v for k, v in params.items() if k not in run_keys} == defaults
        code, _, err = run_cli([*args, "--perm-mode", "uniform"], capsys)
        assert code == 1 and "unrecognized arguments: --perm-mode" in err


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

    @pytest.mark.parametrize("trials", ["0", "1"])
    def test_fewer_than_two_trials_is_error(self, capsys, trials):
        code, out, err = run_cli(
            ["convergence", "--N-list", "64", "--trials", trials, "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "error: convergence_study needs trials >= 2" in err


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
             "--trials", "2", "--q", "2", "--seed", "8", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "<circle" in out.read_text()

    @pytest.mark.parametrize(
        "spec, args",
        [
            (dict(kind="induced_ginibre", N=80, nu=80), ["--ensemble", "induced", "--nu", "80"]),
            (dict(kind="orthogonal_sum", N=80, d=3), ["--ensemble", "orthogonal-sum", "--d", "3"]),
        ],
        ids=["induced", "orthogonal_sum"],
    )
    def test_svg_matches_row_loop(self, spec, args, tmp_path, capsys):
        from eigipr import EnsembleSpec, Records, RunConfig, spectrum_ipr_map
        from eigipr.output import write_svg_scatter

        out = tmp_path / "n.svg"
        code, _, _ = run_cli(
            ["figure", *args, "--N", "80", "--trials", "3", "--q", "3",
             "--seed", "4", "--workers", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        # The run's rows rebuilt into a table by `Records.from_rows`: the byte oracle.
        spec = EnsembleSpec(**spec)
        rows = list(spectrum_ipr_map(RunConfig(spec=spec, trials=3, q_set=(3,), seed=4, workers=2)))
        want = tmp_path / "want.svg"
        write_svg_scatter(Records.from_rows(rows, (3,)), 3, want)
        assert out.read_bytes() == want.read_bytes()


class TestUsageAndSeeds:
    def test_unknown_flag(self, capsys):
        code, _, err = run_cli(["theory-density", "--y", "1", "--frobnicate", "3"], capsys)
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("command", ["theory-density", "theory-cdf"])
    def test_value_may_start_with_a_dash(self, command, tmp_path, capsys):
        joined, split = tmp_path / "joined.csv", tmp_path / "split.csv"
        assert run_cli([command, "--y", "1", "--grid=-1:3:3", "--out", str(joined)], capsys)[0] == 0
        assert run_cli([command, "--y", "1", "--grid", "-1:3:3", "--out", str(split)], capsys)[0] == 0
        assert split.read_bytes() == joined.read_bytes()
        code, out, _ = run_cli([command, "--y", "1", "--grid", "-1:3:3", "--out", "-"], capsys)
        assert code == 0 and out.encode() == joined.read_bytes()

    def test_negative_amplitude_as_separate_value(self, capsys):
        code, out, err = run_cli(
            ["convergence", "--st", "-0.6,0.8", "--N-list", "8", "--trials", "10", "--seed", "1"], capsys
        )
        assert code == 0
        assert json.loads(err.splitlines()[0])["params"]["st"] == [-0.6, 0.8]
        assert out.startswith("N,mean,std,stderr,theory_mean\r\n")

    @pytest.mark.parametrize("args", [["--frobnicate", "-1"], ["--N", "-1"], ["--grid"]])
    def test_unknown_flag_or_missing_value(self, args, capsys):
        # --N belongs to other commands; a flag at the end has no value.
        code, out, err = run_cli(["theory-cdf", "--y", "1", *args], capsys)
        assert code == 1 and out == ""
        assert err.startswith("usage error")

    @pytest.mark.parametrize(
        "args, prefix",
        [
            (["sample-spectrum", "--ensemble", "induced", "--N", "6", "--n", "3"], "--n"),
            (["figure", "--ensemble", "permutation-sum", "--N", "6", "--d", "2", "--th", "2"], "--th"),
            (["compare", "--N", "60", "--thr", "0.5"], "--thr"),
        ],
    )
    def test_prefix_of_a_flag_is_refused(self, args, prefix, tmp_path, capsys, monkeypatch):
        # A flag matches only by its whole name: --n is not --nu, nor --th --theta.
        import eigipr.experiments as exp

        trials = []
        monkeypatch.setattr(exp, "_run_trial", lambda c, t: trials.append(t))
        out = tmp_path / "out"
        code, stdout, err = run_cli([*args, "--trials", "2", "--seed", "1", "--out", str(out)], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith(f"usage error: unrecognized arguments: {prefix}")
        assert trials == [] and not out.exists()

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["theory-cdf", flag])
        assert exc.value.code == 0
        assert "--grid GRID" in capsys.readouterr().out

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

    @pytest.mark.parametrize(
        "content",
        ["5", '"y"', '["tau"]', '{"command": "theory-mean", "params": 5}'],
        ids=["number", "string", "list", "params-number"],
    )
    def test_config_not_an_object_is_usage_error(self, content, tmp_path, capsys):
        cfg_file = tmp_path / "c.json"
        cfg_file.write_text(content)
        code, out, err = run_cli(["theory-mean", "--y", "1", "--config", str(cfg_file)], capsys)
        assert code == 1 and out == ""
        assert err == f"usage error: config file {cfg_file} must hold a JSON object of parameters\n"

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

    def test_malformed_env_seed_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IPR_RMT_SEED", "abc")
        out = tmp_path / "s.csv"
        code, _, err = run_cli(
            ["theory-sample", "--q", "2", "--y", "1.0", "--n", "10", "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert "IPR_RMT_SEED" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", [c for c, (schema, _) in _COMMANDS.items() if "seed" in schema])
    def test_seed_outside_64_bits_is_usage_error(self, command, seed, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setitem(_COMMANDS, command, (_COMMANDS[command][0], runs.append))
        out = tmp_path / "out"
        args = [command, *self.REPLAYED[command], "--seed", seed, "--out", str(out)]
        code, stdout, err = run_cli(args, capsys)
        assert code == 1 and stdout == "" and runs == [] and not out.exists()
        assert err == f"usage error: bad value for --seed: seed must be in [0, 18446744073709551615], got {seed}\n"

    def test_env_seed_outside_64_bits_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("IPR_RMT_SEED", "-3")
        out = tmp_path / "s.csv"
        code, _, err = run_cli(["theory-sample", "--y", "1.0", "--n", "10", "--out", str(out)], capsys)
        assert code == 1 and not out.exists()
        assert err == "usage error: bad value for IPR_RMT_SEED: seed must be in [0, 18446744073709551615], got -3\n"

    @pytest.mark.parametrize("command", ["sample-spectrum", "theory-sample"])
    def test_largest_seed_runs(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        args = [command, *self.REPLAYED[command], "--seed", str(2**64 - 1), "--out", str(out)]
        code, _, err = run_cli(args, capsys)
        assert code == 0 and out.exists()
        assert json.loads(err.splitlines()[0])["params"]["seed"] == 2**64 - 1

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

    @pytest.mark.parametrize(
        "command,base,key,value",
        [
            ("sample-spectrum", {"ensemble": "elliptic", "N": 8, "trials": 2, "seed": 1}, "N", 8.7),
            ("sample-spectrum", {"ensemble": "elliptic", "N": 8, "trials": 2, "seed": 1}, "trials", 2.9),
            ("sample-spectrum", {"ensemble": "elliptic", "N": 8, "trials": 2, "seed": 1}, "q", [2.5]),
            ("sample-spectrum", {"ensemble": "elliptic", "N": 8, "trials": 2, "seed": 1}, "seed", 1.5),
            ("sample-spectrum", {"ensemble": "elliptic", "N": 8, "trials": 2, "seed": 1}, "workers", True),
            ("sample-spectrum", {"ensemble": "orthogonal-sum", "N": 8, "trials": 2, "seed": 1}, "d", 2.5),
            ("figure", {"ensemble": "elliptic", "N": 8, "trials": 2, "seed": 1}, "q", 2.5),
            ("theory-density", {"y": 1.0}, "grid", [0.0, 2.0, 3.5]),
            ("theory-sample", {"y": 1.0, "seed": 1}, "n", 10.5),
            ("theory-mean", {"y": 1.0}, "N", 64.5),
            ("compare", {"N": 20, "trials": 2, "seed": 1}, "N", float("inf")),
            ("convergence", {"trials": 4, "seed": 1}, "N_list", [8.5]),
        ],
    )
    def test_fractional_config_count_is_usage_error(self, command, base, key, value, tmp_path, capsys):
        # A number from a config file that is not a whole number is refused, never truncated.
        cfg_file, out = tmp_path / "c.json", tmp_path / "o"
        cfg_file.write_text(json.dumps(dict(base, **{key: value}, out=str(out))))
        code, stdout, err = run_cli([command, "--config", str(cfg_file)], capsys)
        assert code == 1 and stdout == ""
        assert err.startswith(f"usage error: bad value for --{key.replace('_', '-')}: ")
        assert not out.exists()

    def test_whole_float_config_count_runs_as_the_int(self, tmp_path, capsys):
        outs = []
        for n, seed in [(8, 1), (8.0, 1.0)]:
            cfg_file, out = tmp_path / "c.json", tmp_path / f"o{n}"
            cfg_file.write_text(json.dumps({"ensemble": "elliptic", "N": n, "trials": 2, "seed": seed, "out": str(out)}))
            code, _, err = run_cli(["sample-spectrum", "--config", str(cfg_file)], capsys)
            assert code == 0
            params = json.loads(err.splitlines()[0])["params"]
            assert (params["N"], params["seed"]) == (8, 1) and type(params["N"]) is int
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

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

    # A small run of every command.
    REPLAYED = {
        "sample-spectrum": ["--ensemble", "elliptic", "--N", "12", "--trials", "2"],
        "figure": ["--ensemble", "elliptic", "--N", "12", "--trials", "2"],
        "theory-density": ["--y", "0.5"],
        "theory-cdf": ["--y", "0.5"],
        "theory-sample": ["--y", "0.5", "--n", "50"],
        "theory-mean": ["--y", "0.5"],
        "compare": ["--N", "60", "--trials", "80", "--relwidth", "0.6", "--xwindow", "0.9", "--seed", "1"],
        "convergence": ["--N-list", "8", "--trials", "10"],
    }

    # Values for the optional parameters whose default is None.
    UNSET = {"grid": "-1:3:3", "st": "-0.6,0.8", "N": "64"}

    @pytest.mark.parametrize("command", REPLAYED)
    def test_split_and_joined_flags_resolve_alike(self, command, capsys, monkeypatch):
        # Every flag of the command, once as "--flag value" and once as "--flag=value".
        from eigipr import cli

        monkeypatch.setitem(cli._COMMANDS, command, (cli._COMMANDS[command][0], lambda p: 0))
        monkeypatch.setenv("IPR_RMT_SEED", "7")
        code, _, err = run_cli([command, *self.REPLAYED[command]], capsys)
        assert code == 0
        params = json.loads(err.splitlines()[0])["params"]
        texts = {
            key: self.UNSET[key] if value is None
            else ",".join(map(str, value)) if isinstance(value, list) else str(value)
            for key, value in params.items()
        }
        echoes = []
        for argv in (
            [part for key, text in texts.items() for part in (cli._flag(key), text)],
            [f"{cli._flag(key)}={text}" for key, text in texts.items()],
        ):
            code, _, err = run_cli([command, *argv], capsys)
            assert code == 0, err
            echoes.append(json.loads(err.splitlines()[0])["params"])
        assert echoes[0] == echoes[1]
        assert {k: v for k, v in echoes[0].items() if params[k] is not None} == {
            k: v for k, v in params.items() if v is not None
        }

    def test_every_command_replayed(self):
        from eigipr import cli

        assert set(self.REPLAYED) == set(cli._COMMANDS)

    @pytest.mark.parametrize("command", REPLAYED)
    def test_echoed_config_replays(self, command, tmp_path, capsys):
        # The echo writes an unset optional parameter as null, which reads back as its default.
        first, again = tmp_path / "first", tmp_path / "again"
        code, _, err = run_cli([command, *self.REPLAYED[command], "--out", str(first)], capsys)
        assert code == 0
        echoed = json.loads(err.splitlines()[0])
        echoed["params"]["out"] = str(again)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(echoed))
        code, _, err = run_cli([command, "--config", str(cfg_file)], capsys)
        assert code == 0, err
        assert again.read_bytes() == first.read_bytes()
