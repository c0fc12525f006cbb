import contextlib
import io
import math

import numpy as np
import pytest

from eigipr import (
    EigRecord,
    EnsembleSpec,
    Records,
    RunConfig,
    conditional_ipr,
    convergence_study,
    density_ell,
    double_factorial_odd,
    factorial,
    g,
    g_inverse,
    ipr,
    legendre_eval,
    mean_ipr_depletion_finite_N,
    mean_ipr_finite_N,
    orthogonal_joint_moment,
    sample_ell,
    sample_haar_orthogonal,
    sample_stiefel_pair,
    synthetic_eigvec_sample,
    trial_rng,
    uniform_sphere_sample,
)
from eigipr import cli
from eigipr.core import _count
from eigipr.output import write_records_csv, write_svg_scatter


class TestIpr:
    def test_coordinate_vector_q2_gives_dimension(self):
        n = 17
        e1 = np.zeros(n)
        e1[0] = 1.0
        assert ipr(e1, 2) == pytest.approx(n, abs=1e-12)

    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_flat_vector_gives_one(self, q):
        assert ipr(np.ones(23), q) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
    def test_coordinate_vector_general_q(self, q):
        n = 11
        e1 = np.zeros(n, dtype=complex)
        e1[3] = 2.0 - 1.0j
        assert ipr(e1, q) == pytest.approx(float(n) ** (q - 1), rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        for c in [3.0, -2.5, 1e-8j, (1 + 2j) * 1e6]:
            assert ipr(c * x, 3) == pytest.approx(ipr(x, 3), rel=1e-12)

    def test_permutation_and_phase_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(30) + 1j * rng.standard_normal(30)
            perm = rng.permutation(30)
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert ipr(x[perm], 2) == pytest.approx(ipr(x, 2), rel=1e-12)
            assert ipr(phase * x, 4) == pytest.approx(ipr(x, 4), rel=1e-12)

    def test_q1_identically_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(64)
            assert ipr(x, 1) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("q", [2, 3, 8])
    def test_bounds_on_random_inputs(self, q):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 200))
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = ipr(x, q)
            assert 1.0 - 1e-12 <= v <= float(n) ** (q - 1) * (1 + 1e-12)

    def test_extreme_scales_do_not_overflow(self):
        x = np.array([1e200, 1e200, 0.0, 1e190])
        assert np.isfinite(ipr(x, 8))
        x = np.array([1e-300, 1e-300])
        assert ipr(x, 2) == pytest.approx(1.0, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ipr(np.zeros(5), 2)
        with pytest.raises(ValueError):
            ipr(np.ones(5), 0)
        with pytest.raises(ValueError):
            ipr([np.nan, 1.0], 2)
        with pytest.raises(ValueError):
            ipr([], 2)


def _rows_bitwise_equal(block, q):
    got = ipr(block, q)
    ref = np.array([ipr(np.ascontiguousarray(row), q) for row in block])
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


class TestIprBlock:
    @pytest.mark.parametrize("n", [1, 2, 37, 400])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_rows_match_vector_calls_bitwise(self, n, complex_entries):
        rng = np.random.default_rng(n)
        block = rng.standard_normal((6, n))
        if complex_entries:
            block = block + 1j * rng.standard_normal((6, n))
        block[1] *= 1e200
        block[2] *= 1e-300
        for q in range(1, 9):
            assert _rows_bitwise_equal(block, q)

    @pytest.mark.parametrize("n", [37, 400])
    def test_any_layout_matches_vector_calls_bitwise(self, n):
        # Eigenvectors are columns, so callers pass transposed (F-ordered) or
        # strided views; each row must still be summed like a 1-D vector.
        rng = np.random.default_rng(n + 1)
        v = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
        for block in (v.T, v[:, ::2].T, v.real.T):
            for q in range(2, 9):
                assert _rows_bitwise_equal(block, q)

    @pytest.mark.parametrize("shape", [(37,), (6, 37)], ids=["vector", "block"])
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_unchanged(self, shape, complex_entries, order):
        # ipr normalises in place, on the magnitudes it computed itself.
        rng = np.random.default_rng(11)
        x = rng.standard_normal(shape)
        if complex_entries:
            x = x + 1j * rng.standard_normal(shape)
        x = np.asarray(x, order=order)
        before = x.copy(order="K")
        ipr(x, 3)
        assert order == "C" or x.flags.f_contiguous
        assert x.tobytes(order="K") == before.tobytes(order="K")

    def test_integer_input_as_float(self):
        assert ipr(np.arange(1, 6), 3) == ipr(np.arange(1.0, 6.0), 3)
        assert ipr(np.array([True, False, True]), 2) == ipr([1.0, 0.0, 1.0], 2)

    def test_vector_returns_float(self):
        assert type(ipr(np.arange(1.0, 5.0), 3)) is float
        assert ipr(np.ones((3, 4)), 2).shape == (3,)

    def test_domain_errors(self):
        # One bad row fails the whole block.
        for row in (np.zeros(5), [1, 1, np.nan, 1, 1], [1, 1, np.inf, 1, 1], [1, -np.inf, 1, 1, 1]):
            block = np.ones((3, 5))
            block[1] = row
            with pytest.raises(ValueError):
                ipr(block, 2)
        with pytest.raises(ValueError):
            ipr(np.ones((3, 0)), 2)
        with pytest.raises(ValueError):
            ipr(np.ones((2, 2, 2)), 2)


class TestUniformSphere:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for field in ("real", "complex"):
            u = uniform_sphere_sample(257, field, rng)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12

    def test_real_sphere_ipr2_limit(self):
        # mean IPR_2 of real unit vectors tends to 3 (Gaussian 4th moment)
        rng = np.random.default_rng(42)
        n = 4096
        vals = [ipr(uniform_sphere_sample(n, "real", rng), 2) for _ in range(2000)]
        assert np.mean(vals) == pytest.approx(3.0, abs=0.05)

    def test_complex_sphere_ipr2_limit(self):
        rng = np.random.default_rng(43)
        n = 4096
        vals = [ipr(uniform_sphere_sample(n, "complex", rng), 2) for _ in range(2000)]
        assert np.mean(vals) == pytest.approx(2.0, abs=0.05)

    def test_domain_errors(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            uniform_sphere_sample(0, "real", rng)
        with pytest.raises(ValueError):
            uniform_sphere_sample(5, "quaternion", rng)


class TestFactorials:
    @pytest.mark.parametrize("q,expect", [(0, 1), (1, 1), (2, 3), (3, 15), (4, 105)])
    def test_double_factorial_odd(self, q, expect):
        assert double_factorial_odd(q) == expect

    def test_factorial_exact(self):
        assert factorial(0) == 1
        assert factorial(4) == 24
        assert factorial(20) == 2432902008176640000

    def test_gaussian_moment_identity(self):
        # (2q-1)!! = (2q)! / (2^q q!)
        for q in range(10):
            assert double_factorial_odd(q) == factorial(2 * q) // (2**q * factorial(q))

    def test_negative_orders_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)
        with pytest.raises(ValueError):
            double_factorial_odd(-2)


# Every argument that must be a count, as a call of the value alone.  Each
# sampler gets a fresh generator, and the SVG writer prints to a buffer.
def _rng():
    return np.random.default_rng(5)


def _svg(q):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write_svg_scatter(_TABLE, q, "-")
    return buf.getvalue()


def _records_csv(q):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write_records_csv(_TABLE, "-", q_set=(q,))
    return buf.getvalue()


_TABLE = Records.from_rows(
    [EigRecord(0, 0, 0.1, 0.2, False, {3: 1.5}, 1e-15), EigRecord(0, 1, -0.3, 0.0, True, {3: 9.0}, 1e-15)]
)
# The columns of _TABLE as plain lists.
_COLUMNS = dict(
    trial=[0, 0], idx=[0, 1], re=[0.1, -0.3], im=[0.2, 0.0], is_real=[False, True], residual=[1e-15, 1e-15],
    ipr={3: [1.5, 9.0]},
)
# 100 complex entries at scaled height 0.5 when N = 3.
_BAND = Records.from_rows([EigRecord(0, k, 0.0, 0.5 / math.sqrt(3), False, {3: 6.0 + k}, 1e-15) for k in range(100)])
_SPEC = EnsembleSpec(kind="elliptic_real", N=4)
_VEC = np.linspace(0.5, -1.0, 7)

COUNT_ARGS = {
    "core.ipr q": lambda v: ipr(_VEC, v),
    "core.uniform_sphere_sample n": lambda v: uniform_sphere_sample(v, "real", _rng()),
    "core.factorial": factorial,
    "core.double_factorial_odd": double_factorial_odd,
    "legendre.legendre_eval q": lambda v: legendre_eval(v, 0.3),
    "legendre.g q": lambda v: g(v, 1.5),
    "legendre.g_inverse q": lambda v: g_inverse(v, 7.0),
    "theory.density_ell q": lambda v: density_ell(v, 7.0, 0.5, 0.0),
    "theory.sample_ell size": lambda v: sample_ell(2, 0.5, 0.0, _rng(), size=v),
    "theory.orthogonal_joint_moment N": lambda v: orthogonal_joint_moment(v, 1, 2),
    "theory.orthogonal_joint_moment k": lambda v: orthogonal_joint_moment(4, v, 1),
    "theory.orthogonal_joint_moment j": lambda v: orthogonal_joint_moment(4, 1, v),
    "theory.mean_ipr_finite_N q": lambda v: mean_ipr_finite_N(16, v, 0.6, 0.8),
    "theory.mean_ipr_finite_N N": lambda v: mean_ipr_finite_N(v, 2, 0.6, 0.8),
    "theory.mean_ipr_depletion_finite_N N": lambda v: mean_ipr_depletion_finite_N(v, 2, 0.5, 0.0),
    "schur.sample_stiefel_pair n": lambda v: sample_stiefel_pair(v, _rng()),
    "schur.sample_stiefel_pair size": lambda v: sample_stiefel_pair(4, _rng(), size=v),
    "schur.synthetic_eigvec_sample n": lambda v: synthetic_eigvec_sample(v, 0.5, 0.0, _rng()),
    "schur.synthetic_eigvec_sample size": lambda v: synthetic_eigvec_sample(4, 0.5, 0.0, _rng(), size=v),
    "ensembles.sample_haar_orthogonal size": lambda v: sample_haar_orthogonal(4, _rng(), size=v),
    "ensembles.EnsembleSpec N": lambda v: EnsembleSpec(kind="elliptic_real", N=v),
    "experiments.RunConfig trials": lambda v: RunConfig(spec=_SPEC, trials=v),
    "experiments.RunConfig workers": lambda v: RunConfig(spec=_SPEC, trials=2, workers=v),
    "experiments.RunConfig seed": lambda v: RunConfig(spec=_SPEC, trials=2, seed=v),
    "experiments.trial_rng seed": lambda v: trial_rng(v, 5),
    "experiments.trial_rng trial": lambda v: trial_rng(5, v),
    "experiments.conditional_ipr n_dim": lambda v: conditional_ipr(_BAND, 3, 0.5, 0.1, 0.5, v),
    "experiments.convergence_study n_list": lambda v: convergence_study(2, 0.5, 0.0, [v], 4, _rng()),
    "experiments.convergence_study trials": lambda v: convergence_study(2, 0.5, 0.0, [8], v, _rng()),
    "core.Records ipr order": lambda v: Records(**{**_COLUMNS, "ipr": {v: [1.5, 9.0]}}).orders,
    "output.write_svg_scatter q": _svg,
    "output.write_records_csv q_set": _records_csv,
    "cli int parameter": cli._int,
    "cli q list": lambda v: cli._q_list([v]),
    "cli N list": lambda v: cli._int_list([v]),
    "cli grid point count": lambda v: cli._grid([0.0, 1.0, v]),
}

# Arguments that take math.inf as the N -> oo limit.
INF_IS_LIMIT = {"theory.mean_ipr_finite_N N", "theory.mean_ipr_depletion_finite_N N"}


def _canon(x):
    """``x`` in a form whose ``==`` compares bits and types: arrays by bytes, floats by hex, generators by a draw."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return (type(x).__name__, x.hex())
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, *map(_canon, x))
    if isinstance(x, dict):
        return ("dict", *((k, _canon(v)) for k, v in sorted(x.items())))
    if isinstance(x, np.random.Generator):
        return ("generator", x.random(4).tobytes())
    return (type(x).__name__, repr(x))


class TestCountRule:
    @pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, True, np.True_], ids=repr)
    @pytest.mark.parametrize("site", COUNT_ARGS)
    def test_refused(self, site, bad):
        if bad == math.inf and site in INF_IS_LIMIT:
            assert math.isfinite(COUNT_ARGS[site](bad))
            return
        with pytest.raises(ValueError):
            COUNT_ARGS[site](bad)

    @pytest.mark.parametrize("same", [3.0, np.int64(3)], ids=repr)
    @pytest.mark.parametrize("site", COUNT_ARGS)
    def test_whole_values_as_the_int(self, site, same):
        assert _canon(COUNT_ARGS[site](same)) == _canon(COUNT_ARGS[site](3))

    @pytest.mark.parametrize("value", [True, np.True_, np.bool_(False), 2.5, -0.5, math.nan, math.inf, -math.inf])
    def test_count_rule(self, value):
        with pytest.raises(ValueError):
            _count("count", value, 0)

    def test_message_names_the_floor_first(self):
        # Below the floor (NaN too) the message names the floor, even for a fractional value.
        for value, shown in [(0, "0"), (1.5, "1.5"), (math.nan, "nan"), (np.int64(-3), "-3")]:
            with pytest.raises(ValueError, match=f"^N must be >= 2, got {shown}$"):
                _count("N", value, 2)
        with pytest.raises(ValueError, match=r"^order must be in \[2, 30\], got 31$"):
            _count("order", 31, 2, 30)
        with pytest.raises(ValueError, match="^N must be a whole number, got 2.5$"):
            _count("N", 2.5, 2)
        with pytest.raises(ValueError, match="^value must be a number, got nan$"):
            _count("value", math.nan)

    def test_returns_int(self):
        for value in [3, 3.0, np.int64(3), np.uint64(3), np.float32(3.0)]:
            assert type(_count("count", value, 0)) is int and _count("count", value, 0) == 3
        big = 2**64 - 1
        assert _count("seed", big, 0, big) == big and _count("seed", np.uint64(big), 0, big) == big
        assert _count("seed", 10**30, 0) == 10**30  # never through float


class TestRecordsConstructor:
    def test_lists_give_the_typed_table(self, tmp_path):
        table = Records(**_COLUMNS)
        assert table.trial.dtype == table.idx.dtype == np.int64 and table.is_real.dtype == bool
        assert table.re.dtype == table.im.dtype == table.residual.dtype == table.ipr[3].dtype == np.float64
        assert table == _TABLE
        write_records_csv(table, tmp_path / "lists.csv")
        write_records_csv(_TABLE, tmp_path / "rows.csv")
        assert (tmp_path / "lists.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
        # An array that has its column's dtype is kept, not copied.
        re = np.array([0.1, -0.3])
        assert Records(**{**_COLUMNS, "re": re}).re is re

    @pytest.mark.parametrize("bad", [1.5, 0.7, True, 2**63, 10**20], ids=repr)
    @pytest.mark.parametrize("column, field", [("trial", "trial_id"), ("idx", "idx")])
    def test_id_outside_int64_refused(self, column, field, bad):
        # A fractional or bool id is never truncated, nor an id past int64 wrapped.
        with pytest.raises(ValueError, match="trial and idx ids must fit in int64"):
            Records(**{**_COLUMNS, column: [bad, bad]})
        row = EigRecord(0, 0, 0.1, 0.2, False, {3: 1.5}, 1e-15)
        setattr(row, field, bad)
        with pytest.raises(ValueError, match="trial and idx ids must fit in int64"):
            Records.from_rows([row])

    @pytest.mark.parametrize(
        "column, values",
        [
            pytest.param("is_real", [0.7, 2], id="is_real-float"),
            pytest.param("is_real", [1, 0], id="is_real-int"),
            pytest.param("re", [0.1 + 1j, -0.3], id="re-complex"),
            pytest.param("im", np.array([0.2j, 0.0]), id="im-complex"),
            pytest.param("residual", [1e-15j, 1e-15], id="residual-complex"),
            pytest.param("ipr", {3: [1.5 + 2j, 9.0]}, id="ipr-complex"),
            pytest.param("re", [True, False], id="re-bool"),
            pytest.param("trial", [True, 0], id="trial-bool-among-ints"),
            pytest.param("idx", (0, np.True_), id="idx-bool-among-ints"),
            pytest.param("re", [True, 1.5], id="re-bool-among-floats"),
            pytest.param("residual", (1e-15, np.False_), id="residual-bool-among-floats"),
            pytest.param("ipr", {3: [1.5, True]}, id="ipr-bool-among-floats"),
            pytest.param("im", [1, False], id="im-bool-among-ints"),
        ],
    )
    def test_column_of_another_kind_refused(self, column, values):
        # A realness is never read from a number, a complex value never loses its imaginary part,
        # and a bool is refused even when numpy types it as a number among the list's numbers.
        label = "ipr\\[3\\]" if column == "ipr" else column
        with pytest.raises(ValueError, match=f"got column {label} of dtype"):
            Records(**{**_COLUMNS, column: values})

    @pytest.mark.parametrize("column", ["trial", "idx", "re", "im", "is_real", "residual", "ipr"])
    @pytest.mark.parametrize("shape", ["scalar", "nested", "2-D"])
    def test_column_not_1d_refused(self, column, shape):
        # A table of length 2 whose column holds 2 x 2 values, or a scalar with no length, is no table.
        values = _COLUMNS[column][3] if column == "ipr" else _COLUMNS[column]
        bad = {"scalar": values[0], "nested": [values, values], "2-D": np.array([values, values]).T}[shape]
        label = "ipr\\[3\\]" if column == "ipr" else column
        with pytest.raises(ValueError, match=f"record columns must be 1-D, got column {label} of shape"):
            Records(**{**_COLUMNS, column: {3: bad} if column == "ipr" else bad})

    def test_orders_are_ascending_whole_numbers(self):
        with pytest.raises(ValueError, match="IPR order must be a whole number, got 2.5"):
            Records(**{**_COLUMNS, "ipr": {2.5: [1.0, 1.0]}})
        with pytest.raises(ValueError, match="strictly ascending"):
            Records(**{**_COLUMNS, "ipr": {3: [1.5, 9.0], 2: [1.0, 1.0]}})
        orders = Records(**{**_COLUMNS, "ipr": {2.0: [1.0, 1.0]}}).orders
        assert orders == (2,) and type(orders[0]) is int
