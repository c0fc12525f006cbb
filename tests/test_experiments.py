import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import eigipr
from eigipr import (
    EigRecord,
    EmpiricalDist,
    EnsembleSpec,
    InsufficientDataError,
    PairingError,
    RunConfig,
    conditional_ipr,
    convergence_study,
    double_factorial_odd,
    eig_right,
    factorial,
    ipr,
    ks_distance,
    mean_ipr_depletion_finite_N,
    mean_ipr_finite_N,
    realness_threshold,
    sample,
    sample_elliptic,
    spectrum_ipr_map,
    trial_rng,
)
from eigipr.experiments import RESIDUAL_RTOL


def elliptic_config(n, tau, trials, seed, q_set=(2,), workers=1, **kw):
    return RunConfig(
        spec=EnsembleSpec(kind="elliptic_real", N=n, tau=tau),
        trials=trials,
        q_set=q_set,
        seed=seed,
        workers=workers,
        **kw,
    )


def record_bits(records):
    """Every field of every record as float64 bytes, for bitwise comparison."""
    rows = [
        [r.trial_id, r.idx, r.re_lambda, r.im_lambda, r.is_real_eig, r.residual, *r.ipr.values()]
        for r in records
    ]
    return np.array(rows, dtype=float).tobytes()


class TestEigRight:
    def test_diagonal_matrix(self):
        w, v, res = eig_right(np.diag([1.0, 2.0, 3.0]))
        assert sorted(w.real) == [1.0, 2.0, 3.0]
        assert res.max() == 0.0
        assert np.allclose(np.linalg.norm(v, axis=0), 1.0)

    def test_embedded_canonical_block(self):
        x, b, c = 0.3, 2.0, 0.5
        mat = np.zeros((5, 5))
        mat[0, 0] = mat[1, 1] = x
        mat[0, 1] = b
        mat[1, 0] = -c
        w, _, _ = eig_right(mat)
        lam = x + 1j * math.sqrt(b * c)
        assert min(abs(w - lam)) < 1e-12
        assert min(abs(w - lam.conjugate())) < 1e-12

    def test_residual_contract_on_random_matrix(self):
        rng = np.random.default_rng(30)
        w, v, res = eig_right(sample_elliptic(50, 0.0, rng))
        assert res.max() <= 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            eig_right(np.ones((3, 4)))
        with pytest.raises(ValueError):
            eig_right(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestRealnessThreshold:
    def test_symmetric_matrix_all_real(self):
        rng = np.random.default_rng(31)
        mat = sample_elliptic(30, 1.0, rng)
        w, _, _ = eig_right(mat)
        entries = realness_threshold(w, np.linalg.norm(mat, "fro"))
        assert len(entries) == 30
        assert all(is_real for _, _, is_real in entries)
        assert all(lam.imag == 0.0 for lam, _, is_real in entries)

    def test_canonical_block_not_snapped(self):
        mat = np.array([[0.0, 2.0], [-0.5, 0.0]])
        w, _, _ = eig_right(mat)
        entries = realness_threshold(w, np.linalg.norm(mat, "fro"))
        assert len(entries) == 1
        lam, _, is_real = entries[0]
        assert not is_real and lam.imag > 0

    def test_count_identity(self):
        rng = np.random.default_rng(32)
        for _ in range(5):
            mat = sample_elliptic(60, 0.2, rng)
            w, _, _ = eig_right(mat)
            entries = realness_threshold(w, np.linalg.norm(mat, "fro"))
            r = sum(1 for _, _, is_real in entries if is_real)
            m = len(entries) - r
            assert r + 2 * m == 60

    def test_unpaired_eigenvalue_raises(self):
        with pytest.raises(PairingError):
            realness_threshold(np.array([1.0 + 2.0j, 5.0]), 1.0)


class TestSpectrumIprMap:
    def test_deterministic_across_worker_counts(self):
        cfg1 = elliptic_config(40, 0.3, 12, seed=7, q_set=(2, 3), workers=1)
        cfg4 = elliptic_config(40, 0.3, 12, seed=7, q_set=(2, 3), workers=4)
        assert spectrum_ipr_map(cfg1) == spectrum_ipr_map(cfg4)

    @pytest.mark.parametrize(
        "spec",
        [
            EnsembleSpec(kind="elliptic_real", N=256, tau=0.0),
            # the induced sampler takes a square root through eigh
            EnsembleSpec(kind="induced_ginibre", N=200, nu=3),
        ],
        ids=["elliptic", "induced"],
    )
    def test_bitwise_across_worker_counts_at_blas_size(self, spec):
        # N=40 above never reaches OpenBLAS's threading thresholds; these do.
        runs = [
            spectrum_ipr_map(RunConfig(spec=spec, trials=4, q_set=(2, 3), seed=23, workers=w))
            for w in (1, 2)
        ]
        assert runs[0] and record_bits(runs[0]) == record_bits(runs[1])

    def test_public_layer_calls_reproduce_pipeline(self):
        # The per-trial chain rebuilt from public calls on a thread pool, as a
        # caller that times each layer would run it, must match bit for bit.
        cfg = elliptic_config(200, 0.0, 4, seed=29, q_set=(2, 3), workers=2)

        def trial(t):
            mat = sample(cfg.spec, trial_rng(cfg.seed, t))
            w, v, res = eig_right(mat)
            assert res.max() <= RESIDUAL_RTOL
            entries = realness_threshold(w, np.linalg.norm(mat, "fro"))
            return [
                EigRecord(
                    trial_id=t,
                    idx=idx,
                    re_lambda=lam.real,
                    im_lambda=lam.imag,
                    is_real_eig=is_real,
                    ipr={q: ipr(v[:, k], q) for q in cfg.q_set},
                    residual=float(res[k]),
                )
                for idx, (lam, k, is_real) in enumerate(entries)
            ]

        with ThreadPoolExecutor(max_workers=2) as pool:
            rebuilt = [rec for recs in pool.map(trial, range(cfg.trials)) for rec in recs]
        assert record_bits(rebuilt) == record_bits(spectrum_ipr_map(cfg))

    def test_records_well_formed(self):
        records = spectrum_ipr_map(elliptic_config(40, 0.0, 6, seed=11, q_set=(2, 4)))
        assert records
        n = 40
        for rec in records:
            assert set(rec.ipr) == {2, 4}
            assert 1.0 <= rec.ipr[2] <= n
            assert 1.0 <= rec.ipr[4] <= n**3
            assert rec.residual <= 1e-9
            assert rec.is_real_eig == (rec.im_lambda == 0.0)
            assert rec.im_lambda >= 0.0
        trials = {rec.trial_id for rec in records}
        assert trials == set(range(6))

    def test_complex_ensemble_mean_ipr(self):
        cfg = RunConfig(
            spec=EnsembleSpec(kind="ginibre_complex", N=500),
            trials=4,
            q_set=(2,),
            seed=5,
            workers=4,
        )
        records = spectrum_ipr_map(cfg)
        assert len(records) == 4 * 500
        assert not any(rec.is_real_eig for rec in records)
        mean2 = np.mean([rec.ipr[2] for rec in records])
        assert abs(mean2 - 2.0) < 0.05

    def test_real_axis_mean_ipr(self):
        records = spectrum_ipr_map(elliptic_config(500, 0.0, 8, seed=21, workers=4))
        reals = [rec.ipr[2] for rec in records if rec.is_real_eig]
        assert len(reals) > 80
        assert abs(np.mean(reals) - 3.0) < 0.1


class TestConditionalIpr:
    def test_empty_bin_raises(self):
        records = spectrum_ipr_map(elliptic_config(40, 0.0, 2, seed=3))
        with pytest.raises(InsufficientDataError):
            conditional_ipr(records, 2, 1e-9, 0.5, 0.5, 40)

    def test_values_within_finite_size_slack(self):
        # the asymptotic support is (q!, (2q-1)!!); finite-size fluctuations
        # of order 1/sqrt(N) straddle both edges, so containment holds for
        # the bulk of the sample and with slack for the extremes
        records = spectrum_ipr_map(elliptic_config(200, 0.0, 120, seed=13, workers=4))
        dist = conditional_ipr(records, 2, 2.0, 0.5, 0.5, 200)
        assert dist.count >= 100
        hi = double_factorial_odd(2)
        assert dist.values[0] > 1.0  # hard IPR floor
        assert dist.quantile(0.95) < hi * 1.05
        assert dist.values[-1] < hi * 1.25


class TestKsDistance:
    def test_inverse_transform_samples(self):
        rng = np.random.default_rng(33)
        xs = -np.log1p(-rng.random(100_000))  # Exp(1) via inverse CDF
        dist = EmpiricalDist.from_samples(xs)
        d = ks_distance(dist, lambda x: 1.0 - np.exp(-x))
        assert d < 0.01

    def test_constant_samples_at_median(self):
        dist = EmpiricalDist.from_samples(np.full(1000, 1.7))
        assert ks_distance(dist, lambda x: np.full(np.shape(x), 0.5)) == pytest.approx(0.5)

    def test_range(self):
        rng = np.random.default_rng(34)
        dist = EmpiricalDist.from_samples(rng.standard_normal(100))
        d = ks_distance(dist, lambda x: np.clip(x, 0.0, 1.0))
        assert 0.0 <= d <= 1.0


class TestEmpiricalDist:
    def test_summary(self):
        dist = EmpiricalDist.from_samples([3.0, 1.0, 2.0])
        assert dist.count == 3
        assert dist.mean == pytest.approx(2.0)
        assert np.array_equal(dist.values, [1.0, 2.0, 3.0])
        s = dist.summary()
        assert s["q50"] == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalDist.from_samples([])


class TestConvergenceStudy:
    def test_fixed_amplitude_mode_matches_exact_mean(self):
        rng = np.random.default_rng(35)
        s = t = 1 / math.sqrt(2)
        rows = convergence_study(2, 0.5, 0.0, [64, 256], 4000, rng, st=(s, t))
        for row in rows:
            n = row["N"]
            assert row["theory_mean"] == pytest.approx(2 * n / (n + 2), rel=1e-12)
            assert abs(row["mean"] - 2 * n / (n + 2)) < 3 * row["stderr"]

    def test_resampled_mode_matches_quadrature_mean(self):
        rng = np.random.default_rng(36)
        rows = convergence_study(2, 0.5, 0.0, [128, 512], 3000, rng)
        for row in rows:
            target = mean_ipr_depletion_finite_N(row["N"], 2, 0.5, 0.0)
            assert row["theory_mean"] == pytest.approx(target, rel=1e-10)
            assert abs(row["mean"] - target) < 3 * row["stderr"]

    def test_rejects_unsorted_dimensions(self):
        rng = np.random.default_rng(37)
        with pytest.raises(ValueError):
            convergence_study(2, 0.5, 0.0, [512, 128], 10, rng)


class TestSkipPolicy:
    def test_run_error_above_one_percent_skips(self, monkeypatch):
        import eigipr.experiments as exp

        real_run = exp._run_trial

        def flaky(config, trial):
            if trial == 0:
                raise np.linalg.LinAlgError("induced failure")
            return real_run(config, trial)

        monkeypatch.setattr(exp, "_run_trial", flaky)
        with pytest.raises(exp.RunError):
            spectrum_ipr_map(elliptic_config(20, 0.0, 10, seed=1))


class TestRunConfigValidation:
    def test_bad_configs(self):
        spec = EnsembleSpec(kind="elliptic_real", N=10)
        with pytest.raises(ValueError):
            RunConfig(spec=spec, trials=0)
        with pytest.raises(ValueError):
            RunConfig(spec=spec, trials=1, q_set=(1,))
        with pytest.raises(ValueError):
            RunConfig(spec=spec, trials=1, q_set=())
        with pytest.raises(ValueError):
            RunConfig(spec=spec, trials=1, rel_width=1.5)
        with pytest.raises(ValueError):
            RunConfig(spec=spec, trials=1, seed=-1)
        with pytest.raises(ValueError):
            RunConfig(spec=spec, trials=1, workers=0)


class TestBlasThreads:
    def test_import_pins_openblas_to_one_thread(self):
        # A fresh interpreter, so no earlier call in this process can have set
        # it, started with two OpenBLAS threads requested, so the pin must win.
        probe = (
            "import ctypes, eigipr\n"
            "with open('/proc/self/maps') as fh:\n"
            "    paths = sorted({l.split()[-1] for l in fh if 'openblas' in l.lower()})\n"
            "for path in paths:\n"
            "    get = getattr(ctypes.CDLL(path), 'scipy_openblas_get_num_threads64_', None)\n"
            "    if get is not None:\n"
            "        get.argtypes, get.restype = [], ctypes.c_int\n"
            "        print(get())\n"
            "        break\n"
            "else:\n"
            "    print('absent')\n"
        )
        src = str(Path(eigipr.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        ).stdout.strip()
        if out == "absent":
            pytest.skip("numpy's BLAS exports no scipy_openblas_get_num_threads64_")
        assert out == "1"
