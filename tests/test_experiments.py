import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pervector_reference as ref
import pytest
from scipy.special import beta, hyp2f1

import eigipr
from eigipr import (
    EigRecord,
    EmpiricalDist,
    EnsembleSpec,
    InsufficientDataError,
    PairingError,
    Records,
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
    sample_ginibre_complex,
    spectrum_ipr_map,
    trial_rng,
)
from eigipr.experiments import _BLOCK_ENTRIES, REALNESS_RTOL, RESIDUAL_RTOL


def elliptic_config(n, tau, trials, seed, q_set=(2,), workers=1, **kw):
    return RunConfig(
        spec=EnsembleSpec(kind="elliptic_real", N=n, tau=tau),
        trials=trials,
        q_set=q_set,
        seed=seed,
        workers=workers,
        **kw,
    )


def _pairing_loop(w, fro):
    """The per-eigenvalue loop `realness_threshold` replaced, kept as its oracle."""
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


def _typed(entries):
    """Entries with every element's type and repr, so -0.0 and bool vs int count."""
    return [tuple((type(x), repr(x)) for x in entry) for entry in entries]


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

    def test_real_spectrum_eigenvectors_are_contiguous(self):
        # At tau = 1, eig returns the real part of its complex result: a view
        # with a 16-byte stride that keeps the complex array alive.
        mat = sample_elliptic(200, 1.0, np.random.default_rng(37))
        w, v, res = eig_right(mat)
        assert v.dtype == np.float64
        assert v.strides[1] == 8 and v.flags.owndata
        w0, strided = np.linalg.eig(mat)
        want = eigipr.experiments._residual_norms(mat, w0, strided) / np.linalg.norm(mat, "fro")
        assert res.tobytes() == want.tobytes()
        for q in (2, 3, 4):
            assert ipr(v.T, q).tobytes() == ipr(strided.T, q).tobytes()

    def test_residual_contract_on_random_matrix(self):
        rng = np.random.default_rng(30)
        w, v, res = eig_right(sample_elliptic(50, 0.0, rng))
        assert res.max() <= 1e-9

    @pytest.mark.parametrize(
        "mat",
        [
            sample_elliptic(200, 0.0, np.random.default_rng(32)),
            sample_elliptic(201, 0.5, np.random.default_rng(33)),
            sample_elliptic(200, 1.0, np.random.default_rng(34)),
            sample_ginibre_complex(150, np.random.default_rng(35)),
        ],
        ids=["tau0", "tau0.5", "tau1", "complex"],
    )
    def test_residuals_match_whole_matrix_formula(self, mat):
        w, v, res = eig_right(mat)
        want = np.linalg.norm(mat @ v - v * w, axis=0) / np.linalg.norm(mat, "fro")
        assert res.shape == want.shape == (mat.shape[0],)
        # Both are at rounding level (a few eps), so the rounding of the two
        # products alone moves single columns by up to about 2%; the eps/4
        # absolute slack covers that and still fails a wrong formula.
        np.testing.assert_allclose(res, want, rtol=1e-2, atol=np.finfo(float).eps / 4)
        assert res.max() <= RESIDUAL_RTOL

    @pytest.mark.parametrize("member", ["upper", "lower"])
    @pytest.mark.parametrize("part", [1.0, 1j])
    def test_perturbed_column_breaks_contract(self, monkeypatch, member, part):
        mat = sample_elliptic(70, 0.0, np.random.default_rng(36))
        w0, _ = np.linalg.eig(mat)
        pos = np.flatnonzero(w0.imag > 1e-3)[0]
        # The partner of w0[pos] is its conjugate, the lower member.
        neg = int(np.argmin(np.abs(w0 - w0[pos].conjugate())))
        k = pos if member == "upper" else neg
        real_eig = np.linalg.eig

        def perturbed(a):
            w, v = real_eig(a)
            v[:, k] += 1e-6 * part
            return w, v

        monkeypatch.setattr(np.linalg, "eig", perturbed)
        _, _, res = eig_right(mat)
        assert res[k] > RESIDUAL_RTOL
        assert np.delete(res, k).max() <= RESIDUAL_RTOL

    def test_real_matrix_transients(self):
        # The whole-matrix pass peaked at 7.8 MB here: a complex copy of G,
        # the complex product and its conj/product temporaries.
        n = 400
        mat = sample_elliptic(n, 0.0, np.random.default_rng(37))
        eig_right(mat)
        tracemalloc.start()
        try:
            eig_right(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5e6

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

    @pytest.mark.parametrize("n", [37, 100, 400])
    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.9])
    def test_matches_loop_on_elliptic_spectra(self, n, tau):
        rng = np.random.default_rng([n, int(10 * tau)])
        for _ in range(2):
            mat = sample_elliptic(n, tau, rng)
            w = np.linalg.eigvals(mat)
            fro = np.linalg.norm(mat, "fro")
            assert _typed(realness_threshold(w, fro)) == _typed(_pairing_loop(w, fro))

    def test_matches_loop_on_hand_built_spectra(self):
        spectra = [
            # tied real parts, pairs listed in different orders
            [1 + 2j, 1 - 1j, 1 + 1j, 1 - 2j, 0.5, 1 + 3j, 1 - 3j],
            # imaginary parts inside the snap threshold, of both signs and -0.0
            [complex(2.0, -0.0), complex(-0.0, 1e-12), complex(3.0, -1e-12), -1 + 0.5j, -1 - 0.5j],
            [complex(-0.0, 2.0), complex(-0.0, -2.0), complex(0.0, -0.0)],
            # a real-valued spectrum (eig returns a float array when all roots are real)
            np.array([3.0, -0.0, -1.0]),
            # conjugates off by less than the pairing tolerance
            [1 + 2j, complex(1 + 1e-13, -2.0), 4.0],
        ]
        for w in spectra:
            w = np.asarray(w)
            got = realness_threshold(w, 100.0)
            assert _typed(got) == _typed(_pairing_loop(w, 100.0))
        assert [k for _, k, _ in realness_threshold(np.asarray(spectra[0]), 100.0)] == [0, 2, 4, 5]

    @pytest.mark.parametrize(
        "w, match",
        [
            ([1.0 + 2.0j, 5.0], "1 upper vs 0 lower half-plane eigenvalues"),
            # a NaN imaginary part counts as lower half-plane
            ([complex(1.0, np.nan), 5.0], "0 upper vs 1 lower half-plane eigenvalues"),
            ([1.0 + 2.0j, 1.0 - 2.1j, 3.0 + 1.0j, 3.0 - 1.0j], r"eigenvalue \(1\+2j\) has no conjugate partner"),
        ],
    )
    def test_pairing_errors_match_loop(self, w, match):
        w = np.asarray(w)
        with pytest.raises(PairingError) as loop_err:
            _pairing_loop(w, 1.0)
        with pytest.raises(PairingError, match=match) as err:
            realness_threshold(w, 1.0)
        assert str(err.value) == str(loop_err.value)

    @staticmethod
    def mean_real_count(n):
        """Edelman, Kostlan and Shub (J. AMS 7, 1994): the mean number of real eigenvalues of real Ginibre."""
        return 0.5 + math.sqrt(2.0) * hyp2f1(1.0, -0.5, n, 0.5) / beta(n, 0.5)

    def test_mean_real_count_formula(self):
        assert abs(self.mean_real_count(1) - 1.0) < 1e-15
        assert abs(self.mean_real_count(2) - math.sqrt(2.0)) < 1e-15

    @pytest.mark.parametrize("kind, seed", [("ginibre_real", 1), ("elliptic_real", 2)])
    def test_snapped_real_count_matches_exact_mean(self, kind, seed):
        # The snap threshold against a law, not against itself: the real count
        # per trial at N = 8 has the exact mean E_8; E_7 and E_9 are refused.
        trials = 10_000
        table = spectrum_ipr_map(RunConfig(spec=EnsembleSpec(kind=kind, N=8), trials=trials, seed=seed))
        kept = np.unique(table.trial)
        counts = np.bincount(table.trial[table.is_real], minlength=trials)[kept]
        assert kept.size > 0.99 * trials
        stderr = counts.std(ddof=1) / math.sqrt(kept.size)
        z = {n: (counts.mean() - self.mean_real_count(n)) / stderr for n in (7, 8, 9)}
        assert abs(z[8]) < 5 and abs(z[7]) > 5 and abs(z[9]) > 5, z


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
        assert len(runs[0]) and runs[0] == runs[1]

    def test_public_layer_calls_reproduce_pipeline(self):
        # The per-trial chain rebuilt from public calls on a thread pool, as a
        # caller that times each layer would run it, must match bit for bit.
        cfg = elliptic_config(200, 0.0, 4, seed=29, q_set=(2, 3, 4, 8), workers=2)

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
        table = spectrum_ipr_map(cfg)
        assert Records.from_rows(rebuilt) == table
        # The table iterates into the same rows, of the same Python types.
        rows = list(table)
        assert rows == rebuilt
        assert [_typed([dataclasses.astuple(r)]) for r in rows] == [_typed([dataclasses.astuple(r)]) for r in rebuilt]

    def test_records_well_formed(self):
        records = spectrum_ipr_map(elliptic_config(40, 0.0, 6, seed=11, q_set=(2, 4)))
        assert records
        n = 40
        assert records.orders == (2, 4)
        assert np.all((1.0 <= records.ipr[2]) & (records.ipr[2] <= n))
        assert np.all((1.0 <= records.ipr[4]) & (records.ipr[4] <= n**3))
        assert np.all(records.residual <= 1e-9)
        assert np.array_equal(records.is_real, records.im == 0.0)
        assert np.all(records.im >= 0.0)
        assert set(records.trial.tolist()) == set(range(6))

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
        assert not records.is_real.any()
        mean2 = np.mean(records.ipr[2])
        assert abs(mean2 - 2.0) < 0.05

    def test_real_axis_mean_ipr(self):
        records = spectrum_ipr_map(elliptic_config(500, 0.0, 8, seed=21, workers=4))
        reals = records.ipr[2][records.is_real]
        assert len(reals) > 80
        assert abs(np.mean(reals) - 3.0) < 0.1


class TestRecords:
    @pytest.fixture(scope="class")
    def table(self):
        return spectrum_ipr_map(elliptic_config(60, 0.2, 8, seed=31, q_set=(2, 3), workers=2))

    def test_columns(self, table):
        assert len(table) == table.re.size > 0
        assert table.orders == (2, 3)
        assert table.trial.dtype == table.idx.dtype == np.int64
        assert table.is_real.dtype == bool
        assert table.re.dtype == table.im.dtype == table.residual.dtype == table.ipr[2].dtype == np.float64
        assert np.all(np.diff(table.trial) >= 0)
        assert np.array_equal(table.im == 0.0, table.is_real)

    def test_equality_is_bitwise(self, table):
        same = dataclasses.replace(table, re=table.re.copy())
        assert same == table
        zeros = np.flatnonzero(table.im == 0.0)
        flipped = table.im.copy()
        flipped[zeros[0]] = -0.0
        assert dataclasses.replace(table, im=flipped) != table
        nudged = table.ipr[3].copy()
        nudged[-1] = np.nextafter(nudged[-1], np.inf)
        assert dataclasses.replace(table, ipr={2: table.ipr[2], 3: nudged}) != table
        assert dataclasses.replace(table, ipr={2: table.ipr[2]}) != table
        nan = table.residual.copy()
        nan[0] = np.nan
        assert dataclasses.replace(table, residual=nan) == dataclasses.replace(table, residual=nan.copy())
        # A table equals only a table, never the rows it iterates into.
        assert table != list(table) and list(table) != table

    def test_orders_must_ascend(self, table):
        with pytest.raises(ValueError, match="strictly ascending"):
            dataclasses.replace(table, ipr={3: table.ipr[3], 2: table.ipr[2]})

    def test_from_rows_refuses_a_repeated_order(self, table):
        with pytest.raises(ValueError, match="repeated IPR order"):
            Records.from_rows(list(table), orders=(3, 2, 3))

    def test_from_rows_round_trip(self, table):
        assert Records.from_rows(list(table)) == table
        assert Records.from_rows(list(table), orders=(3,)).orders == (3,)

    def test_conditional_ipr_on_rows(self, table):
        args = (2, 3.0, 0.9, 0.9, 60)
        with pytest.raises(InsufficientDataError):
            conditional_ipr(table, 2, 1e-9, 0.5, 0.5, 60)
        from_table = conditional_ipr(table, *args)
        from_rows = conditional_ipr(list(table), *args)
        assert from_table.count >= 100
        assert from_table.values.tobytes() == from_rows.values.tobytes()
        assert conditional_ipr(iter(table), *args).values.tobytes() == from_table.values.tobytes()

    def test_rows_cross_chunk_boundaries(self, table, monkeypatch, tmp_path):
        from eigipr.output import write_records_csv

        whole = list(table)
        write_records_csv(table, tmp_path / "one.csv")
        monkeypatch.setattr(eigipr.core, "_ROW_CHUNK", 7)
        assert len(table) > 7 * 3
        assert list(table) == whole
        write_records_csv(table, tmp_path / "chunked.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_mismatched_column_lengths_rejected(self, table):
        with pytest.raises(ValueError, match="differ in length"):
            dataclasses.replace(table, re=table.re[:-1])


class TestConditionalIpr:
    @pytest.mark.parametrize(
        "y_center, rel_width, x_window, field",
        [
            (0.0, 0.1, 0.5, "y_center"),
            (math.nan, 0.1, 0.5, "y_center"),
            (math.inf, 0.1, 0.5, "y_center"),
            (2.0, 1.0, 0.5, "rel_width"),
            (0.5, 1.5, 0.5, "rel_width"),
            (0.5, 0.0, 0.5, "rel_width"),
            (2.0, 0.5, 0.0, "x_window"),
            (2.0, 0.5, math.nan, "x_window"),
        ],
    )
    def test_rejects_bin_before_masking(self, monkeypatch, y_center, rel_width, x_window, field):
        # The bin RunConfig would reject; without the check, rel_width = 1.5
        # builds the bin [-0.25, 1.25].  The records are never read.
        import eigipr.experiments as experiments_mod

        monkeypatch.setattr(experiments_mod, "as_records", lambda *a: pytest.fail("records read"))
        with pytest.raises(ValueError, match=field):
            conditional_ipr(None, 2, y_center, rel_width, x_window, 60)

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

    def test_sample_not_1d_rejected(self):
        # A 2-D sample would be sorted row by row, and ks_distance would fail to broadcast over it.
        with pytest.raises(ValueError, match="1-D"):
            EmpiricalDist.from_samples([[0.9, 0.1], [0.2, 0.8]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # A NaN would sort last and read as F = 0 there, setting the KS distance to 1.
        with pytest.raises(ValueError, match="finite"):
            EmpiricalDist.from_samples([2.5, 2.6, bad])


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

    @pytest.mark.parametrize("trials", [-1, 0, 1])
    def test_rejects_fewer_than_two_trials(self, trials):
        rng = np.random.default_rng(38)
        with pytest.raises(ValueError, match="trials >= 2"):
            convergence_study(2, 0.5, 0.0, [64], trials, rng)

    def test_amplitudes_checked_before_sampling(self):
        # s**2 + t**2 - 1 = 6e-10: inside eigvec_from_block's 1e-8 tolerance,
        # outside the exact mean's 1e-10, so the study must stop before it draws.
        rng = np.random.default_rng(39)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="s\\*\\*2"):
            convergence_study(2, 0.5, 0.0, [64, 128], 10, rng, st=(0.8, 0.6 + 5e-10))
        with pytest.raises(ValueError, match="s\\*\\*2"):
            convergence_study(2, 0.5, 0.0, [64, 128], 10, rng, st=(math.nan, 0.5))
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "y, st, seed",
        [
            pytest.param(0.7, None, 40, id="None"),
            pytest.param(0.7, (0.8, 0.6), 40, id="st1"),
            pytest.param(0.2, None, 54, id="y0.2"),
        ],
    )
    def test_rows_match_per_vector_loop(self, y, st, seed):
        # 201 trials per N: one block at N=2 and N=17, full blocks and a
        # shorter tail at N=100, 2-row blocks and a 1-row tail at half the
        # block size, one row per block past it.
        n_list = [2, 17, 100, _BLOCK_ENTRIES // 2, _BLOCK_ENTRIES + 1]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = convergence_study(3, y, 0.3, n_list, 201, rng, st=st)
        want = ref.convergence_study(3, y, 0.3, n_list, 201, ref_rng, st=st)
        assert json.dumps(rows) == json.dumps(want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_block_memory_bound(self):
        # 16384-entry blocks peak at 0.79 MB here and 24576-entry blocks at
        # 1.18 MB.  Without the in-place writes of `eigvec_from_block` and
        # `ipr`, 16384-entry blocks peak at 1.05 MB.  A larger block, or a
        # lost in-place write, would show in the process's peak resident
        # memory.
        rng = np.random.default_rng(41)
        convergence_study(2, 0.5, 0.0, [4096], 2, rng)  # first-call imports and caches
        tracemalloc.start()
        try:
            convergence_study(2, 0.5, 0.0, [4096], 200, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 900_000


class TestSkipPolicy:
    def test_run_error_above_one_percent_skips(self, monkeypatch):
        import eigipr.experiments as exp

        full = spectrum_ipr_map(elliptic_config(20, 0.0, 200, seed=1))
        # One failed trial of 200 is under the limit: the run's one table is the full one without its rows.
        expected = Records.from_rows([rec for rec in full if rec.trial_id != 37])
        assert 0 < len(expected) < len(full)
        real_run = exp._run_trial
        failing = None

        def flaky(config, trial):
            if trial == failing:
                raise np.linalg.LinAlgError("induced failure")
            return real_run(config, trial)

        monkeypatch.setattr(exp, "_run_trial", flaky)
        for workers in (1, 2):
            failing = 0
            with pytest.raises(exp.RunError):
                spectrum_ipr_map(elliptic_config(20, 0.0, 10, seed=1, workers=workers))
            failing = 37
            assert spectrum_ipr_map(elliptic_config(20, 0.0, 200, seed=1, workers=workers)) == expected

    def test_nan_residual_skips_trial(self, monkeypatch, caplog):
        real_eig = np.linalg.eig
        calls = []

        def nan_on_first_call(a):
            w, v = real_eig(a)
            if not calls:
                v[:, -1] = np.nan
            calls.append(None)
            return w, v

        monkeypatch.setattr(np.linalg, "eig", nan_on_first_call)
        with caplog.at_level("WARNING", logger="eigipr.experiments"):
            records = spectrum_ipr_map(elliptic_config(8, 0.0, 100, seed=2))
        assert len(calls) == 100
        assert set(records.trial.tolist()) == set(range(1, 100))
        assert "trial 0 skipped: eigenpair residual nan above contract" in caplog.text


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
        for y_center in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ValueError, match="y_center"):
                RunConfig(spec=spec, trials=1, y_center=y_center)
        for x_window in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="x_window"):
                RunConfig(spec=spec, trials=1, x_window=x_window)
        with pytest.raises(ValueError):
            RunConfig(spec=spec, trials=1, seed=-1)
        with pytest.raises(ValueError):
            RunConfig(spec=spec, trials=1, workers=0)

    def test_trial_rng_takes_the_seeds_run_config_takes(self):
        big = 2**64 - 1
        RunConfig(spec=EnsembleSpec(kind="elliptic_real", N=10), trials=1, seed=big)
        assert trial_rng(big, 3).random() != trial_rng(big - 1, 3).random()
        for seed in (-1, big + 1):
            with pytest.raises(ValueError, match=r"seed must be in \[0, 18446744073709551615\]"):
                trial_rng(seed, 0)

    @pytest.mark.parametrize("q_set", [(2, 2), (3, 2, 3)])
    def test_repeated_order_rejected(self, q_set):
        with pytest.raises(ValueError, match="repeated IPR order"):
            RunConfig(spec=EnsembleSpec(kind="elliptic_real", N=10), trials=1, q_set=q_set)


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
