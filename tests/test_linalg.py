import numpy as np
import pytest

from spd_agg import (
    QrFactors,
    ShapeMismatchError,
    SingularMatrixError,
    matmul,
    qr_reduced,
    seeded_rng,
    sym_eigvals,
    symmetrize,
)
from _oracles import matmul_triple_loop


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
