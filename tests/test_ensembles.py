import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare, ks_2samp

from eigipr import (
    EnsembleSpec,
    ewens_permutation,
    sample,
    sample_elliptic,
    sample_ginibre_complex,
    sample_ginibre_real,
    sample_haar_orthogonal,
    sample_induced_ginibre,
    sample_orthogonal_sum,
    sample_permutation_sum,
)
from eigipr.ensembles import KINDS


def cycle_count(perm):
    seen = np.zeros(len(perm), dtype=bool)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def elliptic_expression(n, tau, rng):
    """The elliptic sampler as one out-of-place expression: its reference bits."""
    m1 = rng.standard_normal((n, n))
    m2 = rng.standard_normal((n, n))
    h = (m1 + m1.T) / math.sqrt(2.0)
    a = (m2 - m2.T) / math.sqrt(2.0)
    return (math.sqrt(1.0 + tau) * h + math.sqrt(1.0 - tau) * a) / math.sqrt(2.0 * n)


class TestElliptic:
    @pytest.mark.parametrize("n", [2, 3, 64, 401])
    @pytest.mark.parametrize("tau", [0.0, 0.37, 1.0])
    def test_bitwise_equal_to_expression(self, n, tau):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        got = sample_elliptic(n, tau, rng)
        want = elliptic_expression(n, tau, ref_rng)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_at_most_three_and_a_half_blocks_live(self):
        # The out-of-place expression peaks at about six n x n blocks.
        n = 400
        rng = np.random.default_rng(8)
        sample_elliptic(n, 0.3, rng)
        tracemalloc.start()
        try:
            sample_elliptic(n, 0.3, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 8 * n * n

    def test_tau_one_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        m = sample_elliptic(16, 1.0, rng)
        assert np.array_equal(m, m.T)

    def test_entry_variance_at_tau_zero(self):
        rng = np.random.default_rng(1)
        n, draws = 8, 1600  # ~1e5 entry samples
        entries = np.concatenate([sample_elliptic(n, 0.0, rng).ravel() for _ in range(draws)])
        # (i,j)/(j,i) correlations halve the effective count; stay conservative
        se = math.sqrt(2.0 / (entries.size / 2))
        assert abs(entries.var() * n - 1.0) < 3 * se

    @pytest.mark.parametrize("tau", [0.0, 0.5, 0.9])
    def test_transpose_cross_moment(self, tau):
        rng = np.random.default_rng(2)
        n, draws = 8, 2500
        prods = []
        for _ in range(draws):
            m = sample_elliptic(n, tau, rng)
            iu = np.triu_indices(n, k=1)
            prods.append(m[iu] * m.T[iu])
        prods = np.concatenate(prods) * n
        se = prods.std(ddof=1) / math.sqrt(prods.size)
        assert abs(prods.mean() - tau) < 3 * se

    def test_symmetric_antisymmetric_part_variances(self):
        rng = np.random.default_rng(3)
        n, tau, draws = 8, 0.6, 2500
        sym, asym = [], []
        for _ in range(draws):
            m = sample_elliptic(n, tau, rng)
            iu = np.triu_indices(n, k=1)
            sym.append(((m + m.T) / 2)[iu])
            asym.append(((m - m.T) / 2)[iu])
        sym = np.concatenate(sym)
        asym = np.concatenate(asym)
        for part, target in ((sym, (1 + tau) / (2 * n)), (asym, (1 - tau) / (2 * n))):
            se = math.sqrt(2.0 / part.size) * target
            assert abs(part.var() - target) < 3 * se

    def test_trace_statistic_invariant_under_conjugation(self):
        # smoke test: Tr(G^2) has the same law for G and Q G Q^T, fixed Q
        rng = np.random.default_rng(4)
        n, draws = 16, 10_000
        q = sample_haar_orthogonal(n, rng)
        t1 = np.empty(draws)
        t2 = np.empty(draws)
        for k in range(draws):
            g1 = sample_elliptic(n, 0.5, rng)
            t1[k] = np.trace(g1 @ g1)
            g2 = q @ sample_elliptic(n, 0.5, rng) @ q.T
            t2[k] = np.trace(g2 @ g2)
        assert ks_2samp(t1, t2).statistic < 0.02

    def test_domain_errors(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            sample_elliptic(8, 1.5, rng)
        with pytest.raises(ValueError):
            sample_elliptic(1, 0.5, rng)


class TestGinibre:
    def test_real_entry_variance(self):
        rng = np.random.default_rng(6)
        entries = np.concatenate([sample_ginibre_real(2, rng).ravel() for _ in range(25_000)])
        se = math.sqrt(2.0 / entries.size)
        assert abs(entries.var() * 2 - 1.0) < 3 * se

    def test_complex_second_moment_vanishes(self):
        rng = np.random.default_rng(7)
        z = np.concatenate([sample_ginibre_complex(4, rng).ravel() for _ in range(5000)])
        n = 4
        assert abs((z**2).mean()) < 3 / math.sqrt(z.size) / n
        se = math.sqrt(2.0 / z.size)
        assert abs((np.abs(z) ** 2).mean() * n - 1.0) < 3 * se

    def test_real_ginibre_matches_elliptic_zero_moments(self):
        rng = np.random.default_rng(8)
        n, draws = 6, 3000
        a = np.concatenate([sample_ginibre_real(n, rng).ravel() for _ in range(draws)])
        b = np.concatenate([sample_elliptic(n, 0.0, rng).ravel() for _ in range(draws)])
        scale = math.sqrt(n)
        a, b = a * scale, b * scale
        for p in (1, 2, 3, 4):
            ma, mb = (a**p).mean(), (b**p).mean()
            se = math.sqrt((a**p).var() / a.size + (b**p).var() / b.size)
            assert abs(ma - mb) < 3 * se + 1e-12


class TestHaarOrthogonal:
    def test_orthogonality(self):
        rng = np.random.default_rng(9)
        o = sample_haar_orthogonal(40, rng)
        assert np.abs(o.T @ o - np.eye(40)).max() < 1e-12

    def test_first_entry_moments(self):
        rng = np.random.default_rng(10)
        n, draws = 10, 100_000
        o11 = sample_haar_orthogonal(n, rng, size=draws)[:, 0, 0]
        sq = o11**2
        se2 = sq.std(ddof=1) / math.sqrt(draws)
        assert abs(sq.mean() - 1.0 / n) < 3 * se2
        se4 = (sq**2).std(ddof=1) / math.sqrt(draws)
        assert abs((sq**2).mean() - 3.0 / (n * (n + 2))) < 3 * se4

    def test_batch_shape(self):
        rng = np.random.default_rng(11)
        o = sample_haar_orthogonal(5, rng, size=7)
        assert o.shape == (7, 5, 5)
        eye = np.eye(5)
        for k in range(7):
            assert np.abs(o[k].T @ o[k] - eye).max() < 1e-12


class TestInducedGinibre:
    def test_shape_independent_of_charge(self):
        rng = np.random.default_rng(12)
        for nu in (0, 3, 10):
            assert sample_induced_ginibre(6, nu, rng).shape == (6, 6)

    def test_singular_values_match_factor(self):
        # the orthogonal factor preserves singular values: svd(G) must equal
        # sqrt(eig(X X^T)) for the X drawn first from the same stream
        seed = 13
        n, nu = 7, 2
        g = sample_induced_ginibre(n, nu, np.random.default_rng(seed))
        x = np.random.default_rng(seed).standard_normal((n, n + nu))
        expect = np.sqrt(np.sort(np.linalg.eigvalsh(x @ x.T)))[::-1]
        got = np.linalg.svd(g, compute_uv=False)
        assert np.abs(got - expect).max() < 1e-8

    def test_mean_square_frobenius(self):
        rng = np.random.default_rng(14)
        n, nu, draws = 2, 0, 10_000
        traces = np.array(
            [np.trace(m @ m.T) for m in (sample_induced_ginibre(n, nu, rng) for _ in range(draws))]
        )
        se = traces.std(ddof=1) / math.sqrt(draws)
        assert abs(traces.mean() - n * (n + nu)) < 3 * se

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            sample_induced_ginibre(6, -1, np.random.default_rng(0))


class TestSumModels:
    def test_single_orthogonal_on_unit_circle(self):
        rng = np.random.default_rng(15)
        eigs = np.linalg.eigvals(sample_orthogonal_sum(20, 1, rng))
        assert np.abs(np.abs(eigs) - 1.0).max() < 1e-8

    def test_two_orthogonals_operator_norm(self):
        rng = np.random.default_rng(16)
        m = sample_orthogonal_sum(20, 2, rng)
        assert np.linalg.norm(m, 2) <= 2.0 + 1e-12

    def test_spectrum_conjugation_closed(self):
        rng = np.random.default_rng(17)
        eigs = np.linalg.eigvals(sample_orthogonal_sum(15, 3, rng))
        eigs_sorted = np.sort_complex(eigs)
        conj_sorted = np.sort_complex(eigs.conj())
        assert np.allclose(eigs_sorted, conj_sorted, atol=1e-10)

    def test_permutation_sum_row_column_sums(self):
        rng = np.random.default_rng(18)
        for theta in (1.0, 2.5):
            m = sample_permutation_sum(30, 4, rng, theta=theta)
            assert np.array_equal(m.sum(axis=0), np.full(30, 4.0))
            assert np.array_equal(m.sum(axis=1), np.full(30, 4.0))

    def test_permutation_sum_trivial_eigenpair(self):
        rng = np.random.default_rng(19)
        m = sample_permutation_sum(25, 3, rng)
        ones = np.ones(25)
        assert np.allclose(m @ ones, 3.0 * ones)

    def test_ewens_theta_one_matches_uniform_cycles(self):
        rng = np.random.default_rng(20)
        n, draws = 20, 4000
        a = np.array([cycle_count(ewens_permutation(n, 1.0, rng)) for _ in range(draws)])
        b = np.array([cycle_count(rng.permutation(n)) for _ in range(draws)])
        lo, hi = 1, 9
        table = np.array(
            [
                np.bincount(np.clip(a, lo, hi), minlength=hi + 1)[lo:],
                np.bincount(np.clip(b, lo, hi), minlength=hi + 1)[lo:],
            ]
        )
        table = table[:, table.sum(axis=0) > 0]
        assert chi2_contingency(table).pvalue > 1e-3

    def test_ewens_theta_shifts_cycle_counts(self):
        rng = np.random.default_rng(21)
        n, draws = 30, 1500
        few = np.mean([cycle_count(ewens_permutation(n, 0.2, rng)) for _ in range(draws)])
        many = np.mean([cycle_count(ewens_permutation(n, 5.0, rng)) for _ in range(draws)])
        assert few < many

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.5])
    def test_ewens_exact_law_on_s4(self, theta):
        # P(sigma) = theta**cycles(sigma) / (theta (theta+1) (theta+2) (theta+3)) over all of S_4.
        rng = np.random.default_rng(23)
        draws = 100_000
        perms = np.array(list(itertools.permutations(range(4))))
        base = 4 ** np.arange(4)  # a permutation of S_4 as a base-4 code
        drawn = np.array([ewens_permutation(4, theta, rng) for _ in range(draws)]) @ base
        observed = (drawn[:, None] == perms @ base).sum(axis=0)
        assert observed.sum() == draws
        weights = np.array([theta ** cycle_count(p) for p in perms])
        expected = draws * weights / math.prod(theta + i for i in range(4))
        assert math.isclose(expected.sum(), draws)
        assert chisquare(observed, expected).pvalue > 1e-6

    def test_ewens_mean_cycle_count(self):
        rng = np.random.default_rng(24)
        n, theta, draws = 16, 8.0, 20_000
        counts = np.array([cycle_count(ewens_permutation(n, theta, rng)) for _ in range(draws)])
        # The cycle count is a sum of independent Bernoulli(theta / (theta + i)), i = 0..n-1.
        p = theta / (theta + np.arange(n))
        stderr = math.sqrt((p * (1.0 - p)).sum() / draws)
        assert abs(counts.mean() - p.sum()) < 5.0 * stderr

    @pytest.mark.parametrize("n", [0, 1, 2, 17])
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 8.0])
    def test_ewens_returns_a_permutation(self, n, theta):
        rng = np.random.default_rng(25)
        for _ in range(50):
            perm = ewens_permutation(n, theta, rng)
            assert perm.dtype == np.int64
            assert np.array_equal(np.sort(perm), np.arange(n))

    def test_theta_domain_error(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ValueError):
            ewens_permutation(10, 0.0, rng)
        with pytest.raises(ValueError):
            sample_permutation_sum(10, 2, rng, theta=-1.0)


class TestSpecAndDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            EnsembleSpec(kind="elliptic_real", N=12, tau=0.4),
            EnsembleSpec(kind="ginibre_real", N=12),
            EnsembleSpec(kind="ginibre_complex", N=12),
            EnsembleSpec(kind="induced_ginibre", N=12, nu=3),
            EnsembleSpec(kind="orthogonal_sum", N=12, d=3),
            EnsembleSpec(kind="permutation_sum", N=12, d=2, theta=0.7),
        ],
    )
    def test_same_seed_same_matrix(self, spec):
        m1 = sample(spec, np.random.default_rng(99))
        m2 = sample(spec, np.random.default_rng(99))
        assert np.array_equal(m1, m2)

    # One spec per kind, setting every field the kind reads away from its
    # default (the permutation sum at uniform and Ewens theta), and the direct call it is.
    DIRECT = [
        ("elliptic_real", dict(tau=0.4), lambda rng: sample_elliptic(12, 0.4, rng)),
        ("ginibre_real", {}, lambda rng: sample_ginibre_real(12, rng)),
        ("ginibre_complex", {}, lambda rng: sample_ginibre_complex(12, rng)),
        ("induced_ginibre", dict(nu=3), lambda rng: sample_induced_ginibre(12, 3, rng)),
        ("orthogonal_sum", dict(d=3), lambda rng: sample_orthogonal_sum(12, 3, rng)),
        ("permutation_sum", dict(d=3), lambda rng: sample_permutation_sum(12, 3, rng)),
        (
            "permutation_sum",
            dict(d=2, theta=0.7),
            lambda rng: sample_permutation_sum(12, 2, rng, theta=0.7),
        ),
    ]

    def test_direct_calls_cover_every_kind(self):
        assert sorted({kind for kind, _, _ in self.DIRECT}) == sorted(KINDS)

    @pytest.mark.parametrize("kind, fields, direct", DIRECT)
    def test_sample_is_the_direct_call(self, kind, fields, direct):
        got = sample(EnsembleSpec(kind=kind, N=12, **fields), np.random.default_rng(17))
        want = direct(np.random.default_rng(17))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "kind, fields, ignored",
        [
            ("ginibre_real", dict(tau=0.5), "tau"),
            ("ginibre_complex", dict(nu=3), "nu"),
            ("elliptic_real", dict(d=2), "d"),
            ("induced_ginibre", dict(theta=2.0), "theta"),
            ("orthogonal_sum", dict(theta=2.0), "theta"),
            ("permutation_sum", dict(d=2, tau=0.5), "tau"),
        ],
    )
    def test_spec_refuses_a_field_its_kind_ignores(self, kind, fields, ignored):
        with pytest.raises(ValueError, match=f"^{kind} does not read {ignored}: "):
            EnsembleSpec(kind=kind, N=10, **fields)

    def test_spec_accepts_an_ignored_field_at_its_default(self):
        EnsembleSpec(kind="ginibre_real", N=10, tau=0, nu=0, d=1, theta=1.0)
        EnsembleSpec(kind="permutation_sum", N=10, d=2, theta=1.0)
        EnsembleSpec(kind="permutation_sum", N=10, d=2, theta=2.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(kind="wishart", N=10)
        with pytest.raises(ValueError):
            EnsembleSpec(kind="elliptic_real", N=1)
        with pytest.raises(ValueError):
            EnsembleSpec(kind="elliptic_real", N=10, tau=-0.1)
        with pytest.raises(ValueError):
            EnsembleSpec(kind="permutation_sum", N=10, d=0)
        with pytest.raises(ValueError):
            EnsembleSpec(kind="permutation_sum", N=10, theta=0.0)

    @pytest.mark.parametrize(
        "fields",
        [
            dict(kind="permutation_sum", N=10, d=2, theta=math.nan),
            dict(kind="permutation_sum", N=10, d=2, theta=math.inf),
            dict(kind="orthogonal_sum", N=10, d=2.5),
            dict(kind="orthogonal_sum", N=10, d=math.nan),
            dict(kind="orthogonal_sum", N=10, d=math.inf),
            dict(kind="induced_ginibre", N=10, nu=1.5),
            dict(kind="induced_ginibre", N=10, nu=math.nan),
            dict(kind="elliptic_real", N=2.5),
            dict(kind="elliptic_real", N=math.inf),
            dict(kind="elliptic_real", N=10, tau=math.nan),
        ],
        ids=lambda f: ",".join(f"{k}={v}" for k, v in f.items() if k != "kind"),
    )
    def test_spec_refuses_non_finite_and_fractional_values(self, fields):
        with pytest.raises(ValueError):
            EnsembleSpec(**fields)

    def test_whole_number_floats_kept_as_ints(self):
        spec = EnsembleSpec(kind="orthogonal_sum", N=12.0, d=3.0)
        assert (type(spec.N), type(spec.d), type(spec.nu)) == (int, int, int)
        assert spec == EnsembleSpec(kind="orthogonal_sum", N=12, d=3)
        want = sample_orthogonal_sum(12, 3, np.random.default_rng(3))
        assert np.array_equal(sample(spec, np.random.default_rng(3)), want)

    def test_samplers_refuse_non_finite_and_fractional_values(self):
        rng = np.random.default_rng(5)
        for call in (
            lambda: ewens_permutation(10, math.nan, rng),
            lambda: ewens_permutation(10, math.inf, rng),
            lambda: ewens_permutation(2.5, 1.0, rng),
            lambda: sample_permutation_sum(10, 2.5, rng),
            lambda: sample_permutation_sum(2.5, 2, rng),
            lambda: sample_permutation_sum(0, 2, rng),
            lambda: sample_permutation_sum(1, 2, rng),
            lambda: sample_permutation_sum(10, 2, rng, theta=math.nan),
            lambda: sample_permutation_sum(10, 2, rng, theta=math.inf),
            lambda: sample_orthogonal_sum(10, 1.5, rng),
            lambda: sample_orthogonal_sum(10, math.nan, rng),
            lambda: sample_induced_ginibre(10, 1.5, rng),
            lambda: sample_induced_ginibre(10, math.nan, rng),
            lambda: sample_elliptic(2.5, 0.0, rng),
            lambda: sample_ginibre_real(math.inf, rng),
        ):
            with pytest.raises(ValueError):
                call()
