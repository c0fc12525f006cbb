import math

import numpy as np
import pervector_reference as ref
import pytest

from eigipr import (
    BlockParams,
    block_spectral,
    canonicalize_2x2,
    eig2x2_general,
    eigvec_from_block,
    ipr,
    mean_ipr_depletion_finite_N,
    sample_haar_orthogonal,
    sample_stiefel_pair,
    st_from_S,
    synthetic_eigvec_sample,
)


def rotate_block(x, b, c, angle):
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    blk = np.array([[x, b], [-c, x]])
    return rot @ blk @ rot.T


class TestEig2x2:
    def test_canonical_block_unit_eigenvalue(self):
        lam_p, lam_m = eig2x2_general(0.0, 2.0, -0.5, 0.0)
        assert lam_p == pytest.approx(1j, abs=1e-15)
        assert lam_m == pytest.approx(-1j, abs=1e-15)

    def test_diagonal_matrix(self):
        lam_p, lam_m = eig2x2_general(1.0, 0.0, 0.0, 3.0)
        assert {lam_p, lam_m} == {3.0, 1.0}

    def test_eigvec_residual_on_random_complex_spectra(self):
        rng = np.random.default_rng(8)
        found = 0
        while found < 25:
            a, b, c, d = rng.standard_normal(4)
            m, p = 0.5 * (a + d), a * d - b * c
            if m * m - p >= 0:
                continue
            found += 1
            lam_p, _, v = eig2x2_general(a, b, c, d, eigvec=True)
            mat = np.array([[a, b], [c, d]])
            assert np.linalg.norm(mat @ v - lam_p * v) <= 1e-12
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_eigvec_real_spectrum(self):
        lam_p, _, v = eig2x2_general(2.0, 1.0, 1.0, 2.0, eigvec=True)
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        assert np.linalg.norm(mat @ v - lam_p * v) <= 1e-12

    def test_eigvec_rejected_for_zero_lower_left(self):
        with pytest.raises(ValueError):
            eig2x2_general(1.0, 0.0, 0.0, 3.0, eigvec=True)


class TestBlockSpectral:
    def test_reference_block(self):
        bs = block_spectral(BlockParams(0.0, 2.0, 0.5))
        assert bs.lam == pytest.approx(1j, abs=1e-15)
        assert bs.s**2 == pytest.approx(0.8, rel=1e-14)
        assert bs.t**2 == pytest.approx(0.2, rel=1e-14)
        assert bs.S == pytest.approx(1.25, rel=1e-14)

    def test_symmetric_block(self):
        bs = block_spectral(BlockParams(1.0, 0.7, 0.7))
        assert bs.s == pytest.approx(bs.t, rel=1e-14)
        assert bs.S == pytest.approx(1.0, rel=1e-14)

    def test_ts_product_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            c = rng.uniform(0.1, 2.0)
            b = c * rng.uniform(1.0, 5.0)
            bs = block_spectral(BlockParams(rng.standard_normal(), b, c))
            assert bs.t * bs.s == pytest.approx(bs.lam.imag / (b + c), abs=1e-12)
            assert bs.s**2 + bs.t**2 == pytest.approx(1.0, abs=1e-12)

    def test_matches_general_eigensolver(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            c = rng.uniform(0.1, 2.0)
            b = c * rng.uniform(1.0, 5.0)
            x = rng.standard_normal()
            bs = block_spectral(BlockParams(x, b, c))
            lam_p, _ = eig2x2_general(x, b, -c, x)
            assert abs(bs.lam - lam_p) <= 1e-12 * max(1.0, abs(lam_p))

    def test_invariant_violations(self):
        with pytest.raises(ValueError):
            block_spectral(BlockParams(0.0, 0.5, 2.0))  # b < c
        with pytest.raises(ValueError):
            block_spectral(BlockParams(0.0, 2.0, -0.5))  # bc < 0
        with pytest.raises(ValueError):
            block_spectral(BlockParams(0.0, -0.5, -2.0))  # negative pair


class TestCanonicalize:
    def test_identity_on_canonical_input(self):
        out = canonicalize_2x2(0.3, 2.0, -0.5, 0.3)
        assert out.x == 0.3
        assert out.b == pytest.approx(2.0, rel=1e-14)
        assert out.c == pytest.approx(0.5, rel=1e-14)

    def test_rotation_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.standard_normal()
            c = rng.uniform(0.05, 2.0)
            b = c * rng.uniform(1.0, 10.0)
            mat = rotate_block(x, b, c, rng.uniform(0, 2 * math.pi))
            out = canonicalize_2x2(mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1])
            assert out.x == pytest.approx(x, abs=1e-10)
            assert out.b == pytest.approx(b, abs=1e-10)
            assert out.c == pytest.approx(c, abs=1e-10)

    def test_real_spectrum_rejected(self):
        with pytest.raises(ValueError):
            canonicalize_2x2(0.0, 1.0, 1.0, 0.0)


class TestStFromS:
    def test_symmetric_point(self):
        s, t = st_from_S(1.0)
        assert s == pytest.approx(1 / math.sqrt(2), rel=1e-15)
        assert t == pytest.approx(1 / math.sqrt(2), rel=1e-15)

    def test_reference_point(self):
        s, t = st_from_S(1.25)
        assert s * s == pytest.approx(0.8, rel=1e-13)
        assert t * t == pytest.approx(0.2, rel=1e-13)

    @pytest.mark.parametrize("S", [1.0, 1.1, 2.0, 10.0])
    def test_round_trip(self, S):
        s, t = st_from_S(S)
        assert 1.0 / (2.0 * s * t) == pytest.approx(S, rel=1e-12)
        assert s * s + t * t == pytest.approx(1.0, abs=1e-14)
        assert s >= t > 0

    def test_near_one_no_nan(self):
        s, t = st_from_S(1.0 + 1e-18)
        assert math.isfinite(s) and math.isfinite(t)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            st_from_S(0.999)
        with pytest.raises(ValueError):
            st_from_S(np.array([1.5, 0.999]))

    def test_array_has_bits_of_scalar_calls(self):
        S = np.array([1.0, 1.0 + 1e-18, 1.1, 1.25, 2.0, 10.0, 1e8])
        s, t = st_from_S(S)
        want = np.array([ref.st_from_S(x) for x in S])
        assert s.tobytes() == want[:, 0].tobytes()
        assert t.tobytes() == want[:, 1].tobytes()


class TestStiefelPair:
    def test_orthonormal(self):
        rng = np.random.default_rng(13)
        o1, o2 = sample_stiefel_pair(64, rng)
        assert abs(np.linalg.norm(o1) - 1.0) < 1e-12
        assert abs(np.linalg.norm(o2) - 1.0) < 1e-12
        assert abs(o1 @ o2) < 1e-12

    def test_joint_moment(self):
        # E[(O1)_1^2 (O2)_1^2] = 1/(N(N+2))
        rng = np.random.default_rng(14)
        n, draws = 10, 100_000
        vals = np.empty(draws)
        for k in range(draws):
            o1, o2 = sample_stiefel_pair(n, rng)
            vals[k] = o1[0] ** 2 * o2[0] ** 2
        target = 1.0 / (n * (n + 2))
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - target) < 3 * se

    def test_first_coordinate_matches_haar_column(self):
        from scipy.stats import ks_2samp

        rng = np.random.default_rng(15)
        n, draws = 8, 100_000
        a = np.empty(draws)
        for k in range(draws):
            a[k] = sample_stiefel_pair(n, rng)[0][0]
        b = sample_haar_orthogonal(n, rng, size=draws)[:, 0, 0]
        assert ks_2samp(a, b).statistic < 0.02


class TestEigvecFromBlock:
    def test_unit_norm_and_entry_identity(self):
        rng = np.random.default_rng(16)
        o1, o2 = sample_stiefel_pair(50, rng)
        s, t = st_from_S(1.4)
        r = eigvec_from_block(s, t, o1, o2)
        assert abs(np.linalg.norm(r) - 1.0) < 1e-12
        assert np.allclose(np.abs(r) ** 2, s**2 * o1**2 + t**2 * o2**2, atol=1e-15)

    def test_degenerate_amplitudes(self):
        rng = np.random.default_rng(17)
        o1, o2 = sample_stiefel_pair(20, rng)
        r = eigvec_from_block(1.0, 0.0, o1, o2)
        assert np.allclose(r.real, 0.0) and np.allclose(r.imag, o1)

    def test_rejects_non_orthonormal_pair(self):
        v = np.ones(10) / math.sqrt(10)
        with pytest.raises(ValueError):
            eigvec_from_block(0.6, 0.8, v, v)
        with pytest.raises(ValueError):
            eigvec_from_block(0.9, 0.9, v, np.eye(10)[0])

    def test_block_checks_each_row(self):
        rng = np.random.default_rng(23)
        o1, o2 = sample_stiefel_pair(10, rng, size=4)
        s, t = np.full(4, 0.6), np.full(4, 0.8)
        assert eigvec_from_block(s, t, o1, o2).shape == (4, 10)
        t[2] = 0.9
        with pytest.raises(ValueError, match="amplitudes"):
            eigvec_from_block(s, t, o1, o2)
        o2[3] = o1[3]
        with pytest.raises(ValueError, match="orthonormal"):
            eigvec_from_block(0.6, 0.8, o1, o2)


class TestSyntheticEigvec:
    def test_unit_norm_and_scale_range(self):
        rng = np.random.default_rng(18)
        vec, S = synthetic_eigvec_sample(128, 0.7, 0.0, rng)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12
        assert S > 1.0

    def test_mean_ipr_against_quadrature(self):
        rng = np.random.default_rng(19)
        n, draws = 2048, 10_000
        vals = np.empty(draws)
        for k in range(draws):
            vec, _ = synthetic_eigvec_sample(n, 0.5, 0.0, rng)
            vals[k] = ipr(vec, 2)
        target = mean_ipr_depletion_finite_N(n, 2, 0.5, 0.0)
        se = vals.std(ddof=1) / math.sqrt(draws)
        assert abs(vals.mean() - target) < 3 * se

    def test_large_y_delocalizes(self):
        rng = np.random.default_rng(20)
        n, draws = 2048, 2000
        vals = np.empty(draws)
        for k in range(draws):
            vec, _ = synthetic_eigvec_sample(n, 50.0, 0.0, rng)
            vals[k] = ipr(vec, 2)
        assert abs(vals.mean() - 2.0) < 0.02

    def test_spread_shrinks_with_dimension_at_fixed_amplitudes(self):
        rng = np.random.default_rng(21)
        s, t = st_from_S(1.3)
        stds = []
        for n in (256, 1024, 4096):
            vals = np.empty(10_000)
            for k in range(vals.size):
                o1, o2 = sample_stiefel_pair(n, rng)
                vals[k] = ipr(eigvec_from_block(s, t, o1, o2), 2)
            stds.append(vals.std(ddof=1))
        assert stds[0] > stds[1] > stds[2]

    def test_domain_errors(self):
        rng = np.random.default_rng(22)
        with pytest.raises(ValueError):
            synthetic_eigvec_sample(64, -1.0, 0.0, rng)
        with pytest.raises(ValueError):
            synthetic_eigvec_sample(64, 0.5, 1.0, rng)


# The sizes are one row, a prime, and 201, which is not a multiple of the 81
# rows that `convergence_study` draws per block at N=100.
BLOCK_NS = (2, 3, 17, 100, 400, 1600)
BLOCK_SIZES = (1, 37, 201)


class TestBlockMatchesPerVector:
    """``size=`` blocks against the one-vector-at-a-time reference: same bits, same generator state."""

    @pytest.mark.parametrize("n", BLOCK_NS)
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("y", [0.2, 1.0])  # both branches of sample_S
    def test_synthetic_eigvec_sample(self, n, size, y):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        vecs, S = synthetic_eigvec_sample(n, y, 0.3, rng, size=size)
        want = [ref.synthetic_eigvec_sample(n, y, 0.3, ref_rng) for _ in range(size)]
        assert vecs.shape == (size, n) and S.shape == (size,)
        assert vecs.tobytes() == np.array([v for v, _ in want]).tobytes()
        assert S.tobytes() == np.array([x for _, x in want]).tobytes()
        assert ipr(vecs, 3).tobytes() == np.array([ipr(v, 3) for v, _ in want]).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n", BLOCK_NS)
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    def test_sample_stiefel_pair(self, n, size):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        o1, o2 = sample_stiefel_pair(n, rng, size=size)
        want = [ref.sample_stiefel_pair(n, ref_rng) for _ in range(size)]
        assert o1.shape == o2.shape == (size, n)
        assert o1.tobytes() == np.array([a for a, _ in want]).tobytes()
        assert o2.tobytes() == np.array([b for _, b in want]).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        vecs = eigvec_from_block(0.8, 0.6, o1, o2)
        ref_vecs = [ref.eigvec_from_block(0.8, 0.6, a, b) for a, b in want]
        assert vecs.tobytes() == np.array(ref_vecs).tobytes()
        assert ipr(vecs, 2).tobytes() == np.array([ipr(v, 2) for v in ref_vecs]).tobytes()

    @pytest.mark.parametrize("n", BLOCK_NS)
    def test_without_size(self, n):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        vec, S = synthetic_eigvec_sample(n, 0.7, 0.0, rng)
        want, want_S = ref.synthetic_eigvec_sample(n, 0.7, 0.0, ref_rng)
        assert vec.shape == (n,) and type(S) is float
        assert vec.tobytes() == want.tobytes() and S == want_S
        o1, o2 = sample_stiefel_pair(n, rng)
        a, b = ref.sample_stiefel_pair(n, ref_rng)
        assert o1.shape == o2.shape == (n,)
        assert o1.tobytes() == a.tobytes() and o2.tobytes() == b.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
