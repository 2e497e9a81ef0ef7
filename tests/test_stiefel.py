import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spd_agg import (
    ShapeMismatchError,
    SingularMatrixError,
    StiefelPoint,
    certify,
    matmul,
    retract_step,
    seeded_rng,
    spd_relu,
    spd_relu_mask,
    stiefel_init,
    sym_eigvals,
    symmetrize,
    tangent_project,
    transform_backward_input,
    transform_backward_param,
    transform_forward,
)
from _oracles import central_diff, random_spd, random_symmetric, rel_err


class TestInit:
    def test_one_dimensional_manifold_is_sign(self):
        rng = seeded_rng(0)
        draw = seeded_rng(0).standard_normal((1, 1))[0, 0]
        w = stiefel_init(1, 1, rng)
        assert w.w[0, 0] == (1.0 if draw > 0 else -1.0)

    def test_columns_orthonormal(self):
        w = stiefel_init(8, 3, seeded_rng(1))
        assert w.orthogonality_error() < 1e-10

    def test_same_seed_identical(self):
        a = stiefel_init(6, 4, seeded_rng(2))
        b = stiefel_init(6, 4, seeded_rng(2))
        assert np.array_equal(a.w, b.w)

    def test_too_many_columns_rejected(self):
        with pytest.raises(ShapeMismatchError):
            stiefel_init(3, 5, seeded_rng(3))


class TestTransformForward:
    def test_identity_parameter_is_identity_map(self):
        k = symmetrize(random_spd(seeded_rng(4), 5))
        y, _ = transform_forward(k, StiefelPoint(np.eye(5)))
        assert np.array_equal(y, k)

    def test_identity_input_gives_gram_of_columns(self):
        w = stiefel_init(7, 3, seeded_rng(5))
        y, _ = transform_forward(np.eye(7), w)
        assert np.linalg.norm(y - np.eye(3)) < 1e-10

    def test_preserves_definiteness(self):
        rng = seeded_rng(6)
        k = symmetrize(random_spd(rng, 10))
        w = stiefel_init(10, 4, rng)
        y, _ = transform_forward(k, w)
        assert certify(y) > 0.0

    def test_definiteness_property_100_random(self):
        rng = seeded_rng(7)
        for _ in range(100):
            k = symmetrize(random_spd(rng, 9, jitter=0.1))
            w = stiefel_init(9, int(rng.integers(1, 10)), rng)
            y, _ = transform_forward(k, w)
            assert np.array_equal(y, y.T)
            assert certify(y) > 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            transform_forward(np.eye(4), StiefelPoint(np.eye(5)))

    def test_non_square_input_rejected(self):
        with pytest.raises(ShapeMismatchError, match="square"):
            transform_forward(np.ones((4, 3)), StiefelPoint(np.eye(4)))


class TestTransformBackward:
    def test_zero_upstream(self):
        rng = seeded_rng(8)
        _, tape = transform_forward(symmetrize(random_spd(rng, 6)), stiefel_init(6, 2, rng))
        assert np.array_equal(transform_backward_input(tape, np.zeros((2, 2))), np.zeros((6, 6)))
        assert np.array_equal(transform_backward_param(tape, np.zeros((2, 2))), np.zeros((6, 2)))

    def test_identity_parameter_passes_gradient_through(self):
        rng = seeded_rng(9)
        _, tape = transform_forward(symmetrize(random_spd(rng, 4)), StiefelPoint(np.eye(4)))
        g = random_symmetric(rng, 4)
        assert np.array_equal(transform_backward_input(tape, g), g)

    def test_symmetric_collapse_of_param_gradient(self):
        rng = seeded_rng(10)
        k = symmetrize(random_spd(rng, 6))
        w = stiefel_init(6, 3, rng)
        _, tape = transform_forward(k, w)
        g = random_symmetric(rng, 3)
        expected = 2.0 * matmul(matmul(k, w.w), g)
        assert np.abs(transform_backward_param(tape, g) - expected).max() < 1e-14

    def test_tape_product_transposes_to_k_w_bit_for_bit(self):
        # T = W^T K summed over the same index in the same order as K W,
        # so with K exactly symmetric T^T is K W: 2 T^T G is the partial.
        rng = seeded_rng(26)
        k = symmetrize(rng.standard_normal((4, 9, 9)))
        w = stiefel_init(9, 4, rng)
        _, tape = transform_forward(k, w)
        assert np.array_equal(tape.t.swapaxes(-1, -2), matmul(k, w.w))

    def test_input_gradient_matches_finite_differences(self):
        rng = seeded_rng(11)
        for _ in range(20):
            k = random_spd(rng, 6)
            w = stiefel_init(6, 3, rng)
            g = random_symmetric(rng, 3)
            _, tape = transform_forward(symmetrize(k), w)

            def loss(km):
                y, _ = transform_forward(symmetrize(km), w)
                return float((g * y).sum())

            numeric = central_diff(loss, k.copy(), h=1e-5)
            assert rel_err(transform_backward_input(tape, g), numeric) < 1e-6

    def test_param_gradient_matches_finite_differences(self):
        rng = seeded_rng(12)
        for _ in range(20):
            k = random_spd(rng, 6)
            w = stiefel_init(6, 3, rng)
            g = random_symmetric(rng, 3)
            _, tape = transform_forward(symmetrize(k), w)

            def loss(wm):
                y, _ = transform_forward(symmetrize(k), StiefelPoint(wm))
                return float((g * y).sum())

            numeric = central_diff(loss, w.w.copy(), h=1e-5)
            assert rel_err(transform_backward_param(tape, g), numeric) < 1e-6

    def test_shape_mismatch_rejected(self):
        rng = seeded_rng(13)
        _, tape = transform_forward(symmetrize(random_spd(rng, 5)), stiefel_init(5, 2, rng))
        with pytest.raises(ShapeMismatchError):
            transform_backward_input(tape, np.zeros((3, 3)))


@st.composite
def _compression_case(draw):
    """W (c x c') with orthonormal columns, a stack of exactly symmetric
    K, dK and G, and an arbitrary direction dW."""
    c = draw(st.integers(1, 8))
    c_prime = draw(st.integers(1, c))
    stack = draw(st.integers(1, 4))
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    w = stiefel_init(c, c_prime, rng)
    k, dk = (symmetrize(rng.standard_normal((stack, c, c))) for _ in range(2))
    g = symmetrize(rng.standard_normal((stack, c_prime, c_prime)))
    return w, k, dk, g, rng.standard_normal((c, c_prime))


class TestCompressionAdjoints:
    """<J x, G> = <x, J^T G> for both inputs of Y = W^T K W, without
    finite differences, to 1e-10 relative to a Frobenius-norm bound on
    both sides."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=_compression_case())
    def test_input_adjoint(self, case):
        w, k, dk, g, _ = case
        _, tape = transform_forward(k, w)
        lhs = float((matmul(matmul(w.w.T, dk), w.w) * g).sum())
        rhs = float((dk * transform_backward_input(tape, g)).sum())
        scale = np.linalg.norm(w.w) ** 2 * np.linalg.norm(dk) * np.linalg.norm(g)
        assert abs(lhs - rhs) <= 1e-10 * scale

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=_compression_case())
    def test_param_adjoint(self, case):
        w, k, _, g, dw = case
        _, tape = transform_forward(k, w)
        dy = matmul(matmul(dw.T, k), w.w) + matmul(matmul(w.w.T, k), dw)
        lhs = float((dy * g).sum())
        rhs = float((dw * transform_backward_param(tape, g)).sum())
        scale = 2.0 * np.prod([np.linalg.norm(a) for a in (w.w, dw, k, g)])
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestTangentProject:
    def test_square_identity_point_antisymmetrizes(self):
        rng = seeded_rng(14)
        g = rng.standard_normal((4, 4))
        assert np.array_equal(tangent_project(StiefelPoint(np.eye(4)), g), g - g.T)

    def test_normal_direction_annihilated(self):
        w = stiefel_init(6, 3, seeded_rng(15))
        assert np.abs(tangent_project(w, w.w)).max() < 1e-13

    def test_skew_symmetry_property(self):
        rng = seeded_rng(16)
        for _ in range(100):
            w = stiefel_init(8, 3, rng)
            grad = rng.standard_normal((8, 3))
            t = tangent_project(w, grad)
            wt = matmul(w.w.T, t)
            assert np.linalg.norm(wt + wt.T) < 1e-10


class TestRetractStep:
    def test_zero_gradient_is_exact_fixed_point(self):
        w = stiefel_init(7, 3, seeded_rng(17))
        w2 = retract_step(w, np.zeros((7, 3)), 0.1)
        assert w2 is w

    def test_any_step_restores_orthonormality(self):
        rng = seeded_rng(18)
        w = stiefel_init(7, 3, rng)
        for _ in range(20):
            g = tangent_project(w, rng.standard_normal((7, 3)))
            w = retract_step(w, g, 0.05)
            assert w.orthogonality_error() < 1e-10

    def test_step_restores_orthonormality_from_drift(self):
        rng = seeded_rng(25)
        drifted = StiefelPoint(stiefel_init(7, 3, rng).w + 1e-6 * rng.standard_normal((7, 3)))
        assert drifted.orthogonality_error() > 1e-8
        stepped = retract_step(drifted, rng.standard_normal((7, 3)), 1e-3)
        assert stepped.orthogonality_error() < 1e-10

    def test_descent_on_quadratic_objective(self):
        # trace(W^T A W) with A positive definite: 100 projected-gradient
        # steps must never increase the objective at a small rate.
        rng = seeded_rng(19)
        a = random_spd(rng, 8)
        w = stiefel_init(8, 3, rng)
        value = float(np.trace(matmul(matmul(w.w.T, a), w.w)))
        for _ in range(100):
            grad = 2.0 * matmul(a, w.w)
            w = retract_step(w, tangent_project(w, grad), 1e-3)
            new_value = float(np.trace(matmul(matmul(w.w.T, a), w.w)))
            assert new_value <= value + 1e-12
            value = new_value

    def test_singular_step_rejected(self):
        w = stiefel_init(5, 2, seeded_rng(20))
        with pytest.raises(SingularMatrixError):
            retract_step(w, w.w, 1.0)  # steps exactly to the zero matrix


class TestSpdRelu:
    def test_positive_matrix_unchanged(self):
        rng = seeded_rng(22)
        y = random_spd(rng, 4) + 10.0
        assert np.array_equal(spd_relu(y), y)

    def test_hand_case_stays_definite(self):
        y = np.array([[2.0, -1.0], [-1.0, 2.0]])
        z = spd_relu(y)
        assert np.array_equal(z, np.array([[2.0, 0.0], [0.0, 2.0]]))
        assert np.allclose(sym_eigvals(z), [2.0, 2.0])

    def test_symmetry_and_diagonal_preserved(self):
        rng = seeded_rng(23)
        for _ in range(50):
            y = random_spd(rng, 6, jitter=0.05)
            z = spd_relu(y)
            assert np.array_equal(z, z.T)
            assert np.array_equal(np.diag(z), np.diag(y))

    def test_mask_zero_at_exact_zeros(self):
        y = np.array([[1.0, 0.0], [0.0, -2.0]])
        assert np.array_equal(spd_relu_mask(y), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_definiteness_audit_harness(self):
        # Definiteness after the elementwise ReLU is an empirical claim;
        # record the violation rate instead of asserting it away.
        rng = seeded_rng(24)
        kept = 0
        trials = 1000
        for _ in range(trials):
            dim = int(rng.integers(2, 17))
            y = random_spd(rng, dim, jitter=0.01)
            kept += sym_eigvals(spd_relu(y)).min() > 0
        fraction = kept / trials
        assert 0.0 <= fraction <= 1.0
        print(f"\nspd_relu definiteness audit: {fraction:.3f} of {trials} stayed definite")
