import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spd_agg import (
    NonFiniteError,
    ShapeMismatchError,
    certify,
    compute_sigma,
    covariance_backward,
    covariance_forward,
    kernel_backward,
    kernel_forward,
    seeded_rng,
)
from _oracles import (
    ADJOINT_RTOL,
    adjoint_gap,
    central_diff,
    covariance_inner_products,
    kernel_backward_loop,
    kernel_entrywise,
    rel_err,
    sigma_double_loop,
)


class TestComputeSigma:
    def test_single_pair_hand_distance(self):
        m = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert compute_sigma(m) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_identical_rows_hits_floor(self):
        assert compute_sigma(np.ones((4, 3))) == 1e-12

    def test_matches_double_loop_oracle_exactly(self):
        rng = seeded_rng(0)
        m = rng.standard_normal((5, 7))
        assert compute_sigma(m) == sigma_double_loop(m)

    # N = 4, 36 and 196: below, inside and above numpy's pairwise-sum
    # block sizes.
    @pytest.mark.parametrize("side", [2, 6, 14])
    def test_stack_gives_each_sample_its_own_bits(self, side):
        x = seeded_rng(3).standard_normal((5, 12, side, side))
        stacked = compute_sigma(x)
        assert stacked.shape == (5,)
        assert stacked.tolist() == [float(compute_sigma(sample)) for sample in x]

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="two feature maps"):
            compute_sigma(np.ones((1, 5)))


class TestKernelForward:
    def test_two_map_hand_case(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]]).reshape(2, 1, 2)
        k, tape = kernel_forward(x)
        assert tape.sigma == pytest.approx(np.sqrt(2.0))
        # squared distance 2, bandwidth sqrt(2): off-diagonal exp(-1/2)
        assert k[0, 1] == pytest.approx(np.exp(-0.5), abs=1e-12)
        assert k[0, 1] == pytest.approx(0.60653, abs=1e-5)
        assert k[0, 0] == 1.0 and k[1, 1] == 1.0

    def test_identical_maps_give_all_ones(self):
        x = np.tile(np.arange(6.0).reshape(1, 2, 3), (4, 1, 1))
        k, _ = kernel_forward(x)
        assert np.array_equal(k, np.ones((4, 4)))

    def test_matrix_form_matches_entrywise_loop(self):
        rng = seeded_rng(1)
        x = rng.standard_normal((8, 4, 5))
        k, tape = kernel_forward(x)
        ref = kernel_entrywise(x.reshape(8, 20), tape.sigma)
        assert np.abs(k - ref).max() < 1e-12

    def test_diagonal_is_one(self):
        rng = seeded_rng(2)
        k, _ = kernel_forward(rng.standard_normal((5, 3, 3)))
        assert np.abs(np.diag(k) - 1.0).max() < 1e-12

    def test_symmetry_is_bitwise(self):
        """Both aggregators make exactly symmetric matrices without a
        symmetrizing pass, for one sample and for a stack, at scales
        whose products round."""
        rng = seeded_rng(3)
        for shape in ((7, 2, 4), (5, 9, 3, 3)):
            for _ in range(20):
                x = rng.standard_normal(shape) * rng.uniform(0.1, 50.0)
                for k in (kernel_forward(x)[0], covariance_forward(x)):
                    assert np.array_equal(k, k.swapaxes(-1, -2))

    def test_entries_in_unit_interval(self):
        rng = seeded_rng(4)
        for _ in range(20):
            k, _ = kernel_forward(rng.standard_normal((6, 3, 3)) * rng.uniform(0.1, 5.0))
            assert (k > 0.0).all() and (k <= 1.0).all()

    def test_forward_equivalence_property(self):
        rng = seeded_rng(5)
        for _ in range(50):
            c = int(rng.integers(2, 12))
            n = int(rng.integers(2, 20))
            m = rng.standard_normal((c, n))
            k, tape = kernel_forward(m)
            assert np.abs(k - kernel_entrywise(m, tape.sigma)).max() < 1e-12

    def test_non_finite_input_rejected(self):
        x = np.ones((3, 2, 2))
        x[1, 0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            kernel_forward(x)

    def test_too_few_maps_rejected(self):
        with pytest.raises(ValueError, match="C >= 2"):
            kernel_forward(np.ones((1, 2, 3)))

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_bad_bandwidth_rejected(self, sigma):
        x = seeded_rng(11).standard_normal((5, 3, 2, 2))
        good = compute_sigma(x)
        with pytest.raises(ValueError, match=r"^bandwidth must be finite and positive, got "):
            kernel_forward(x[0], sigma=sigma)
        with pytest.raises(ValueError, match=r"^bandwidth must be finite and positive, got "):
            kernel_forward(x, sigma=np.where(np.arange(5) == 3, sigma, good))

    @pytest.mark.parametrize(
        "stack, sigma_shape", [(None, (1,)), (5, ()), (5, (1,)), (5, (4,)), (5, (5, 1))]
    )
    def test_bandwidth_shape_must_match_stack(self, stack, sigma_shape):
        # One bandwidth per sample: a scalar for one sample, (B,) for a
        # stack of B; nothing is broadcast.
        x = seeded_rng(12).standard_normal((3, 2, 2) if stack is None else (stack, 3, 2, 2))
        message = f"bandwidth shape {sigma_shape} does not match the stack shape {x.shape[:-3]}"
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
            kernel_forward(x, sigma=np.ones(sigma_shape))


class TestKernelBackward:
    def test_zero_upstream_gives_exact_zeros(self):
        rng = seeded_rng(6)
        _, tape = kernel_forward(rng.standard_normal((4, 2, 3)))
        grad = kernel_backward(tape, np.zeros((4, 4)))
        assert np.array_equal(grad, np.zeros((4, 6)))

    def test_identical_maps_give_exact_zeros(self):
        x = np.tile(np.arange(4.0).reshape(1, 2, 2), (3, 1, 1))
        _, tape = kernel_forward(x)
        rng = seeded_rng(7)
        grad = kernel_backward(tape, rng.standard_normal((3, 3)))
        assert np.array_equal(grad, np.zeros((3, 4)))

    def test_matches_loop_form(self):
        rng = seeded_rng(8)
        m = rng.standard_normal((6, 12))
        k, tape = kernel_forward(m)
        g = rng.standard_normal((6, 6))
        g = (g + g.T) / 2
        loop = kernel_backward_loop(tape.m, k, tape.sigma, g)
        assert np.abs(kernel_backward(tape, g) - loop).max() < 1e-12

    def test_matches_finite_differences(self):
        rng = seeded_rng(9)
        for _ in range(20):
            m = rng.standard_normal((6, 12))
            _, tape = kernel_forward(m)
            g = rng.standard_normal((6, 6))
            g = (g + g.T) / 2

            def loss(mm):
                km, _ = kernel_forward(mm, sigma=tape.sigma)  # bandwidth frozen
                return float((g * km).sum())

            numeric = central_diff(loss, m.copy(), h=1e-5)
            analytic = kernel_backward(tape, g)
            assert rel_err(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("stack, c, n", [(32, 12, 36), (8, 64, 4), (3, 2, 2), (1, 64, 196)])
    def test_stack_gives_each_sample_its_own_bits(self, stack, c, n):
        rng = seeded_rng(c * n + stack)
        x = rng.standard_normal((stack, c, 1, n))
        g = rng.standard_normal((stack, c, c))
        g = g + g.swapaxes(-1, -2)
        _, tape = kernel_forward(x)
        grad = kernel_backward(tape, g)
        assert grad.shape == (stack, c, n)
        for i in range(stack):
            _, tape_i = kernel_forward(x[i])
            assert kernel_backward(tape_i, g[i]).tobytes() == grad[i].tobytes(), i

    def test_shape_mismatch_rejected(self):
        rng = seeded_rng(10)
        _, tape = kernel_forward(rng.standard_normal((4, 2, 3)))
        with pytest.raises(ShapeMismatchError):
            kernel_backward(tape, np.zeros((3, 3)))


class TestCovariance:
    def test_constant_features_give_zero(self):
        x = np.ones((3, 2, 2))
        assert np.array_equal(covariance_forward(x), np.zeros((3, 3)))

    def test_scalar_variance(self):
        x = np.array([[0.0, 2.0]]).reshape(1, 1, 2)
        assert np.allclose(covariance_forward(x), [[2.0]])

    def test_matches_inner_product_construction(self):
        rng = seeded_rng(11)
        m = rng.standard_normal((4, 10))
        assert np.abs(covariance_forward(m) - covariance_inner_products(m)).max() < 1e-12

    def test_singular_when_channels_exceed_positions(self):
        rng = seeded_rng(12)
        cov = covariance_forward(rng.standard_normal((8, 2, 2)))  # C=8 > N-1=3
        assert certify(cov) <= 1e-10

    def test_single_position_rejected(self):
        with pytest.raises(ValueError, match="two local features"):
            covariance_forward(np.ones((3, 1, 1)))

    def test_backward_matches_finite_differences(self):
        rng = seeded_rng(13)
        for _ in range(10):
            m = rng.standard_normal((5, 8))
            g = rng.standard_normal((5, 5))

            def loss(mm):
                return float((g * covariance_forward(mm)).sum())

            numeric = central_diff(loss, m.copy(), h=1e-5)
            assert rel_err(covariance_backward(m, g), numeric) < 1e-6


@st.composite
def _maps_case(draw):
    """A (B, C, H, W) stack of maps, a direction of the same shape and an
    arbitrary (not symmetric) upstream gradient per C x C matrix."""
    stack, c = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    h, w = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    m, dm = (rng.standard_normal((stack, c, h, w)) for _ in range(2))
    return m, dm, rng.standard_normal((stack, c, c))


class TestAggregationAdjoints:
    """<J x, G> = <x, J^T G> for the kernel (bandwidth frozen) and the
    covariance, at random shapes and stack sizes, to ``ADJOINT_RTOL``
    relative to a bound on the terms of both sides; J x is the
    forward-mode derivative, written out here."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=_maps_case())
    def test_kernel(self, case):
        m, dm, g = case
        sigma = compute_sigma(m)
        k, tape = kernel_forward(m, sigma=sigma)
        f, x = (a.reshape(a.shape[:2] + (-1,)) for a in (m, dm))
        # dK_ij = -K_ij (f_i - f_j).(x_i - x_j) / sigma^2
        df = f[:, :, None, :] - f[:, None, :, :]
        dx = x[:, :, None, :] - x[:, None, :, :]
        sq_sigma = (sigma * sigma)[:, None, None]
        jx = -k * (df * dx).sum(axis=-1) / sq_sigma
        gap = adjoint_gap(jx, g, [(x, kernel_backward(tape, g))])
        # Both sides regroup the terms K_ij (f_i - f_j).(x_i - x_j) G_ij / sigma^2.
        terms = k * np.linalg.norm(df, axis=-1) * np.linalg.norm(dx, axis=-1) / sq_sigma
        assert gap <= ADJOINT_RTOL * float(np.vdot(terms, np.abs(g)))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=_maps_case())
    def test_covariance(self, case):
        m, dm, g = case
        f, x = (a.reshape(a.shape[:2] + (-1,)) for a in (m, dm))
        fc, xc = (a - a.mean(axis=-1, keepdims=True) for a in (f, x))
        jx = (xc @ fc.swapaxes(-1, -2) + fc @ xc.swapaxes(-1, -2)) / (f.shape[-1] - 1)
        gap = adjoint_gap(jx, g, [(x, covariance_backward(m, g))])
        norms = np.linalg.norm(x) * np.linalg.norm(f) * np.linalg.norm(g)
        assert gap <= ADJOINT_RTOL * 2.0 * norms / (f.shape[-1] - 1)


class TestCertify:
    def test_identity(self):
        assert certify(np.eye(3)) == pytest.approx(1.0)

    def test_two_map_kernel_eigenvalue(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0]]).reshape(2, 1, 2)
        k, _ = kernel_forward(x)
        # 2x2 kernel eigenvalues are 1 +- K_01
        assert certify(k) == pytest.approx(1.0 - np.exp(-0.5), abs=1e-12)

    def test_kernel_stays_definite_when_covariance_degenerates(self):
        rng = seeded_rng(14)
        for _ in range(10):
            x = rng.standard_normal((64, 2, 2))  # C=64 >> N=4
            k, _ = kernel_forward(x)
            assert certify(k) > 0.0
            assert certify(covariance_forward(x)) <= 1e-10


def test_feature_stack_reshape_round_trip():
    rng = seeded_rng(16)
    x = rng.standard_normal((5, 3, 4))
    assert np.array_equal(x.reshape(5, 12).reshape(5, 3, 4), x)
