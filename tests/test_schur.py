import math

import numpy as np
import pervector_reference as ref
import pytest

from eigipr import (
    eigvec_from_block,
    ipr,
    mean_ipr_depletion_finite_N,
    sample_haar_orthogonal,
    sample_stiefel_pair,
    schur,
    st_from_S,
    synthetic_eigvec_sample,
)


def rotate_block(x, b, c, angle):
    rot = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    blk = np.array([[x, b], [-c, x]])
    return rot @ blk @ rot.T


def canonicalize_2x2(a, b, c, d):
    """Canonical block ``(x, b', c')`` of ``[[a, b], [c, d]]``, a real matrix with complex spectrum.

    The canonical form ``[[x, b'], [-c', x]]`` preserves the half-trace ``x``,
    the determinant (``b' c' = p - m**2``) and the Frobenius norm
    (``b'**2 + c'**2``); those invariants determine ``b' >= c' > 0`` without
    constructing the rotation.
    """
    m = 0.5 * (a + d)
    p = a * d - b * c
    gap = p - m * m
    if gap <= 0.0:
        raise ValueError("canonical block exists only for a complex-spectrum matrix")
    frob2 = a * a + b * b + c * c + d * d - 2.0 * m * m
    ssum = math.sqrt(frob2 + 2.0 * gap)
    sdif = math.sqrt(max(frob2 - 2.0 * gap, 0.0))
    bp = 0.5 * (ssum + sdif)
    return m, bp, gap / bp


class TestCanonicalize:
    def test_identity_on_canonical_input(self):
        x, b, c = canonicalize_2x2(0.3, 2.0, -0.5, 0.3)
        assert x == 0.3
        assert b == pytest.approx(2.0, rel=1e-14)
        assert c == pytest.approx(0.5, rel=1e-14)

    def test_rotation_round_trip(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.standard_normal()
            c = rng.uniform(0.05, 2.0)
            b = c * rng.uniform(1.0, 10.0)
            mat = rotate_block(x, b, c, rng.uniform(0, 2 * math.pi))
            out = canonicalize_2x2(mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1])
            assert out == pytest.approx((x, b, c), abs=1e-10)

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
        with pytest.raises(ValueError, match="orthonormal"):
            eigvec_from_block(0.6, 0.8, v, v)
        with pytest.raises(ValueError, match="amplitudes"):
            eigvec_from_block(0.9, 0.9, v, np.eye(10)[0])
        # NaN fails every comparison, so it must fail the checks too.
        with pytest.raises(ValueError, match="amplitudes"):
            eigvec_from_block(math.nan, 0.5, v, np.eye(10)[0])
        with pytest.raises(ValueError, match="orthonormal"):
            eigvec_from_block(0.6, 0.8, np.full(10, math.nan), np.eye(10)[0])
        # Gram-Schmidt pairs pass; off unit norm by more than 1e-8 they do not.
        o1, o2 = sample_stiefel_pair(10, np.random.default_rng(27))
        eigvec_from_block(0.6, 0.8, o1, o2)
        with pytest.raises(ValueError, match="orthonormal"):
            eigvec_from_block(0.6, 0.8, o1 * (1.0 + 1e-7), o2)

    def test_lower_eigenvalue_eigenvector_of_rotated_block(self):
        # For R [[x, b], [-c, x]] R^T, i s R[:, 0] + t R[:, 1] with S = (b + c)/(2 sqrt(bc))
        # is the eigenvector of x - i sqrt(bc); its conjugate is that of x + i sqrt(bc).
        rng = np.random.default_rng(24)
        n = 2000
        x = rng.standard_normal(n)
        c = rng.uniform(0.05, 2.0, n)
        b = c * 10.0 ** rng.uniform(0.0, 3.0, n)
        angle = rng.uniform(0.0, 2.0 * math.pi, n)
        rot = np.empty((n, 2, 2))
        rot[:, 0, 0] = rot[:, 1, 1] = np.cos(angle)
        rot[:, 1, 0] = np.sin(angle)
        rot[:, 0, 1] = -rot[:, 1, 0]
        blk = np.empty((n, 2, 2))
        blk[:, 0, 0] = blk[:, 1, 1] = x
        blk[:, 0, 1], blk[:, 1, 0] = b, -c
        w, v = np.linalg.eig(rot @ blk @ rot.transpose(0, 2, 1))
        lower = np.argmin(w.imag, axis=1)
        rows = np.arange(n)
        assert np.allclose(w[rows, lower], x - 1j * np.sqrt(b * c), rtol=1e-12, atol=0.0)
        u_lower, u_upper = v[rows, :, lower], v[rows, :, 1 - lower]
        r = eigvec_from_block(*st_from_S((b + c) / (2.0 * np.sqrt(b * c))), rot[:, :, 0], rot[:, :, 1])
        assert (1.0 - np.abs(np.sum(r.conj() * u_lower, axis=1))).max() <= 1e-12
        assert (1.0 - np.abs(np.sum(r * u_upper, axis=1))).max() <= 1e-12

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

    @pytest.mark.parametrize(
        "rows, per_row",
        [(None, False), (5, True), (5, False), (0, True)],
        ids=["vector", "block-per-row-st", "block-scalar-st", "zero-rows"],
    )
    def test_bits_of_complex_expression(self, rows, per_row):
        # The result is written part by part in place; it keeps the bits of
        # the complex expression ``1j*s*o1 + t*o2``.  Gaussian entries are
        # never exactly zero, so no zero part can change its sign here.  The
        # unchecked assembly that the samplers call on their Gram-Schmidt
        # pairs, with the amplitudes shaped as they pass them, gives the same
        # bytes.
        rng = np.random.default_rng(26)
        o1, o2 = sample_stiefel_pair(33, rng, size=rows)
        if per_row:
            s, t = st_from_S(1.0 + rng.standard_exponential(rows))
            want = 1j * s[:, None] * o1 + t[:, None] * o2
            unchecked = schur._assemble(s[:, None], t[:, None], o1, o2)
        else:
            s, t = st_from_S(1.7)
            want = 1j * s * o1 + t * o2
            unchecked = schur._assemble(s, t, o1, o2)
        got = eigvec_from_block(s, t, o1, o2)
        for vec in (got, unchecked):
            assert vec.dtype == np.complex128 and vec.flags.c_contiguous
            assert vec.shape == want.shape == o1.shape
            assert vec.tobytes() == want.tobytes()


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
        # (y, tau) are checked before the first draw: a refused call leaves
        # the generator as it was, one row or a block.
        rng = np.random.default_rng(22)
        state = rng.bit_generator.state
        for size in (None, 3):
            with pytest.raises(ValueError, match="y must be > 0"):
                synthetic_eigvec_sample(64, -1.0, 0.0, rng, size=size)
            assert rng.bit_generator.state == state
            with pytest.raises(ValueError, match="tau must be in"):
                synthetic_eigvec_sample(64, 0.5, 1.0, rng, size=size)
            assert rng.bit_generator.state == state


# The sizes are one row, a prime, and 201, which is not a multiple of the 81
# rows that `convergence_study` draws per block at N=100.
BLOCK_NS = (2, 3, 17, 100, 400, 1600)
BLOCK_SIZES = (1, 37, 201)


class TestBlockMatchesPerVector:
    """``size=`` blocks against the one-vector-at-a-time reference: same bits, same generator state."""

    @pytest.mark.parametrize("n", BLOCK_NS)
    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("y", [0.2, 1.0])  # a wide law of S and a narrower one
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

    @pytest.mark.parametrize("size", [1, 17, 163, 5000])
    @pytest.mark.parametrize("tau", [0.0, 0.99])
    @pytest.mark.parametrize("y", [0.02, 0.2, 1.0, 300.0])
    def test_block_equals_one_vector_calls(self, y, tau, size):
        # The block's uniforms go through log1p as one array of `size`
        # values, each one-vector call's as an array of one.
        rng, one_rng = np.random.default_rng(size), np.random.default_rng(size)
        vecs, S = synthetic_eigvec_sample(4, y, tau, rng, size=size)
        want = [synthetic_eigvec_sample(4, y, tau, one_rng) for _ in range(size)]
        assert vecs.tobytes() == np.array([v for v, _ in want]).tobytes()
        assert S.tobytes() == np.array([x for _, x in want]).tobytes()
        assert rng.bit_generator.state == one_rng.bit_generator.state

    @pytest.mark.parametrize("y", [0.2, 1.0])
    def test_zero_rows(self, y):
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        vecs, S = synthetic_eigvec_sample(50, y, 0.3, rng, size=0)
        assert vecs.shape == (0, 50) and vecs.dtype == complex and S.shape == (0,)
        assert rng.bit_generator.state == state
        s, t = st_from_S(np.empty(0))
        assert s.shape == t.shape == (0,)
        o1, o2 = sample_stiefel_pair(50, rng, size=0)
        assert eigvec_from_block(0.8, 0.6, o1, o2).shape == (0, 50)

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
