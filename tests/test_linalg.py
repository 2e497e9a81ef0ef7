import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spd_agg
from spd_agg import (
    NonFiniteError,
    QrFactors,
    ShapeMismatchError,
    SingularMatrixError,
    gram,
    matmul,
    qr_reduced,
    seeded_rng,
    sym_eigvals,
    symmetrize,
    vectorize,
)
from _oracles import matmul_triple_loop


def _per_matrix_oracle(a, b):
    """The triple loop applied to each matrix of a broadcast stack."""
    stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, stack + a.shape[-2:])
    b = np.broadcast_to(b, stack + b.shape[-2:])
    out = np.empty(stack + (a.shape[-2], b.shape[-1]))
    for idx in np.ndindex(stack):
        out[idx] = matmul_triple_loop(a[idx], b[idx])
    return out


def _same_bits(x, y):
    """Equal shapes and equal bits, the sign of zero included; any NaN
    matches any NaN."""
    nan = np.isnan(x)
    if x.shape != y.shape or not np.array_equal(nan, np.isnan(y)):
        return False
    bits = [np.where(nan, 0.0, z).view(np.int64) for z in (x, y)]
    return np.array_equal(*bits)


def _with_specials(x, rng):
    """x with about one entry in six replaced by +0.0, -0.0, inf, -inf or NaN."""
    x = x.copy(order="K")  # keeps a transposed view's layout
    hit = rng.uniform(size=x.shape) < 1 / 6
    x[hit] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=int(hit.sum()))
    return x


def _layout_cases():
    """One (a, b) case for every operand shape and layout the program
    hands ``matmul``: transposed views, Fortran-order parameters, 2-D operands
    broadcast against stacks, one-row and one-column outputs, k = 0 and
    non-finite entries."""
    rng = seeded_rng(41)
    draw = rng.standard_normal
    m_desk, m_c64, m_n196 = draw((3, 12, 36)), draw((2, 64, 4)), draw((1, 24, 196))
    w = np.asfortranarray(draw((12, 8)))  # QR returns W in Fortran order
    mixer = draw((12, 16))
    g = draw((3, 8, 8))
    t = draw((3, 8, 12))
    cases = [
        ("gram", m_desk, m_desk.swapaxes(-1, -2)),
        ("gram_c64n4", m_c64, m_c64.swapaxes(-1, -2)),
        ("gram_n196", m_n196, m_n196.swapaxes(-1, -2)),
        ("cov_backward", draw((3, 12, 12)), m_desk),
        ("mix_forward", mixer, draw((3, 16, 36))),
        ("mix_backward_input", mixer.T, m_desk),
        ("wt_times_stack", w.T, draw((3, 12, 12))),
        ("stack_times_w", t, w),
        ("w_times_stack_t", w, g.swapaxes(-1, -2)),
        ("tsw_times_g", t.swapaxes(-1, -2), g),
        ("wt_w", w.T, w),
        ("w_times_g", w, g),
        ("product_times_wt", draw((12, 8)), w.T),
        ("fortran_both", np.asfortranarray(draw((9, 7))), np.asfortranarray(draw((7, 5)))),
        ("synth_factor", draw((6, 6)), draw((6, 20))),
        ("one_row", draw((1, 5)), draw((5, 7))),
        ("one_row_stack", draw((3, 1, 36)), draw((36, 4))),
        ("inner_zero", draw((3, 4, 0)), draw((3, 0, 5))),
        ("inner_zero_one_column", draw((4, 0)), draw((0, 1))),
    ]
    for k in (1, 2, 3, 5, 528):
        weights = draw((k, 6))  # the dense head's W^T dz: k classes
        cases.append((f"one_column_k{k}", weights.T, draw((3, k, 1))))
    # A 2-D left operand times a stack folds the stack side by side while
    # the stack's rows are shorter than FOLD_ROWS = 64.
    cases += [
        ("fold_one_column", mixer, draw((5, 16, 1))),
        ("fold_stack_of_one", mixer, draw((1, 16, 36))),
        ("fold_rows_63", mixer, draw((3, 16, 63))),
        ("stacked_rows_64", mixer, draw((3, 16, 64))),
        ("fold_two_stack_axes", w, draw((2, 3, 8, 7))),
        ("fold_transposed_stack", mixer, draw((4, 36, 16)).swapaxes(-1, -2)),
        ("dense_logits", draw((2, 36)), draw((32, 36)).T),
        ("dense_logits_one_vector", draw((2, 36)), draw((1, 36)).T),
    ]
    specials = (
        "gram", "gram_c64n4", "cov_backward", "wt_times_stack", "one_column_k5",
        "fold_one_column", "fold_rows_63",
    )
    for name, a, b in [c for c in cases if c[0] in specials]:
        cases.append((f"{name}_specials", _with_specials(a, rng), _with_specials(b, rng)))
    return [pytest.param(a, b, id=name) for name, a, b in cases]


class TestMatmul:
    def test_identity(self):
        rng = seeded_rng(1)
        a = rng.standard_normal((2, 4))
        assert np.array_equal(matmul(np.eye(2), a), a)

    def test_hand_case(self):
        out = matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0], [1.0]]))
        assert np.array_equal(out, np.array([[2.0], [4.0]]))

    def test_matches_triple_loop_exactly(self):
        rng = seeded_rng(2)
        a = rng.standard_normal((7, 5))
        b = rng.standard_normal((5, 3))
        assert np.array_equal(matmul(a, b), matmul_triple_loop(a, b))

    def test_dimension_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeMismatchError, match="3x4.*5x2"):
            matmul(np.ones((3, 4)), np.ones((5, 2)))

    def test_associativity_property(self):
        rng = seeded_rng(3)
        for _ in range(30):
            a = rng.standard_normal((4, 6))
            b = rng.standard_normal((6, 5))
            c = rng.standard_normal((5, 3))
            left = matmul(matmul(a, b), c)
            right = matmul(a, matmul(b, c))
            assert np.linalg.norm(left - right) <= 1e-9 * max(1.0, np.linalg.norm(left))

    def test_stacked_product_matches_each_matrix_exactly(self):
        rng = seeded_rng(40)
        a = rng.standard_normal((5, 4, 6))
        b = rng.standard_normal((5, 6, 3))
        w = rng.standard_normal((6, 2))
        stacked = matmul(a, b)
        broadcast = matmul(a, w)
        assert stacked.shape == (5, 4, 3) and broadcast.shape == (5, 4, 2)
        for i in range(5):
            assert np.array_equal(stacked[i], matmul(a[i], b[i]))
            assert np.array_equal(broadcast[i], matmul(a[i], w))

    def test_stacked_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError, match="3x4.*5x2"):
            matmul(np.ones((2, 3, 4)), np.ones((2, 5, 2)))

    def test_output_finite(self):
        rng = seeded_rng(4)
        out = matmul(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("a, b", _layout_cases())
    def test_layouts_match_triple_loop_bitwise(self, a, b):
        with np.errstate(invalid="ignore"):
            got, want = matmul(a, b), _per_matrix_oracle(a, b)
        assert _same_bits(got, want)

    @pytest.mark.parametrize("stack", [(), (1,), (23,), (24,), (2, 12), (100,)])
    def test_grams_match_triple_loop_bitwise(self, stack):
        # (12, 36) maps: stacks below 2C = 24 samples go through matmul,
        # the others run with the samples innermost.
        rng = seeded_rng(42)
        m = _with_specials(rng.standard_normal(stack + (12, 36)), rng)
        with np.errstate(invalid="ignore"):
            got, want = gram(m), _per_matrix_oracle(m, m.swapaxes(-1, -2))
        assert _same_bits(got, want)

    def test_bits_without_simd_dispatch(self):
        """The layout and Gram checks above, and the ordered minibatch sum,
        which runs numpy's add loops, in a fresh process with every SIMD
        target numpy dispatches to on this CPU disabled: the bits do not
        depend on the dispatch."""
        try:
            from numpy._core import _multiarray_umath as umath
        except ImportError:  # numpy < 2
            from numpy.core import _multiarray_umath as umath
        disabled = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
        if not disabled:
            pytest.skip("numpy dispatches to no SIMD target on this CPU")
        src = str(Path(spd_agg.__file__).resolve().parents[1])
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": ",".join(disabled)}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        here = Path(__file__).resolve()
        targets = [
            *(f"{here}::TestMatmul::test_{name}_match_triple_loop_bitwise"
              for name in ("layouts", "grams")),
            f"{here.with_name('test_network.py')}::TestOrderedSum",
        ]
        script = (
            "import sys, pytest\n"
            f"from {umath.__name__} import __cpu_features__ as have\n"
            f"assert not any(have[f] for f in {disabled!r}), 'dispatch not disabled'\n"
            f"sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', *{targets!r}]))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", script], cwd=Path(__file__).resolve().parents[1],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert run.returncode == 0, run.stdout + run.stderr


class TestSymmetrize:
    def test_symmetrizes_bitwise(self):
        rng = seeded_rng(15)
        a = rng.standard_normal((5, 5))
        s = symmetrize(a)
        assert np.array_equal(s, s.T)
        assert np.array_equal(s, (a + a.T) / 2.0)


class TestQrReduced:
    def test_semi_orthogonal_input_is_fixed_point(self):
        rng = seeded_rng(5)
        q0 = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        f = qr_reduced(q0)
        assert np.linalg.norm(f.r - np.eye(3)) < 1e-10
        assert np.linalg.norm(f.q - q0) < 1e-10

    def test_scaled_axes(self):
        a = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        f = qr_reduced(a)
        assert np.allclose(f.q, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), atol=1e-12)
        assert np.allclose(f.r, np.diag([2.0, 3.0]), atol=1e-12)

    def test_random_reconstruction(self):
        rng = seeded_rng(6)
        a = rng.standard_normal((6, 4))
        f = qr_reduced(a)
        assert np.linalg.norm(f.q.T @ f.q - np.eye(4)) < 1e-10
        assert np.linalg.norm(f.q @ f.r - a) < 1e-10 * np.linalg.norm(a)

    def test_contract_property_100_random(self):
        rng = seeded_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            p = int(rng.integers(1, n + 1))
            a = rng.standard_normal((n, p))
            f = qr_reduced(a)
            assert isinstance(f, QrFactors)
            assert np.linalg.norm(f.q.T @ f.q - np.eye(p)) < 1e-10
            assert np.linalg.norm(f.q @ f.r - a) < 1e-10 * max(1.0, np.linalg.norm(a))
            assert (np.diag(f.r) > 0).all()
            assert np.array_equal(np.triu(f.r), f.r)

    def test_rank_deficient_raises(self):
        a = np.ones((5, 2))  # two identical columns
        with pytest.raises(SingularMatrixError):
            qr_reduced(a)

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            qr_reduced(np.zeros((4, 2)))

    @pytest.mark.parametrize("r22, refused", [(1e-13, True), (1e-11, False)])
    def test_rank_tolerance_is_1e_12_of_the_norm(self, r22, refused):
        # ||a||_F is 1 to within 1e-22, and |r_22| is r22: refused at or
        # below QR_RANK_TOL = 1e-12 of the norm, kept above it.
        a = np.array([[1.0, 0.0], [0.0, r22], [0.0, 0.0]])
        if refused:
            with pytest.raises(SingularMatrixError, match="column 1"):
                qr_reduced(a)
        else:
            assert np.isclose(qr_reduced(a).r[1, 1], r22, rtol=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entry_refused(self, value):
        # LAPACK gives a clean identity-like Q for this NaN, and the
        # rank check misreads an infinity as |r_jj|=inf <= inf.
        a = np.eye(4, 2)
        a[1, 1] = value
        with pytest.raises(NonFiniteError, match="qr input contains non-finite"):
            qr_reduced(a)

    def test_wide_matrix_rejected(self):
        with pytest.raises(ShapeMismatchError):
            qr_reduced(np.ones((2, 4)))


class TestSymEigvals:
    def test_diagonal(self):
        assert np.allclose(sym_eigvals(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_known_2x2(self):
        assert np.allclose(sym_eigvals(np.array([[2.0, 1.0], [1.0, 2.0]])), [1.0, 3.0])

    def test_gram_matrices_nonnegative(self):
        rng = seeded_rng(8)
        for _ in range(20):
            a = rng.standard_normal((5, 5))
            assert sym_eigvals(a.T @ a).min() >= -1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            sym_eigvals(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("fn", [sym_eigvals, vectorize], ids=lambda fn: fn.__name__)
    def test_one_symmetry_tolerance(self, fn):
        # Both read SYM_TOL = 1e-10; ||a - a^T||_F is sqrt(2) * delta.
        def near(delta):
            return np.array([[1.0, 0.0], [delta, 1.0]])

        fn(near(1e-11))
        with pytest.raises(ValueError, match="not symmetric"):
            fn(near(1e-9))

    def test_recovers_planted_spectrum(self):
        rng = seeded_rng(9)
        q = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        lam = np.sort(rng.uniform(0.1, 5.0, size=6))
        a = q @ np.diag(lam) @ q.T
        assert np.abs(sym_eigvals((a + a.T) / 2) - lam).max() < 1e-8

    def test_sum_equals_trace(self):
        rng = seeded_rng(10)
        a = rng.standard_normal((7, 7))
        a = (a + a.T) / 2
        assert abs(sym_eigvals(a).sum() - np.trace(a)) < 1e-8 * np.linalg.norm(a)


class TestSeededRng:
    def test_same_seed_identical_draws(self):
        a = seeded_rng(42).standard_normal(100)
        b = seeded_rng(42).standard_normal(100)
        assert np.array_equal(a, b)

    def test_normal_sample_mean(self):
        draws = seeded_rng(11).standard_normal(100_000)
        assert abs(draws.mean()) < 0.02

    def test_uniform_in_range(self):
        draws = seeded_rng(12).uniform(size=10_000)
        assert (draws >= 0.0).all() and (draws < 1.0).all()
