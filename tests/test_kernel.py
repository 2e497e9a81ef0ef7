import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spd_agg.kernel as kernel_mod
from spd_agg import (
    NonFiniteError,
    ShapeMismatchError,
    certify,
    compute_sigma,
    covariance_backward,
    covariance_forward,
    kernel_backward,
    kernel_forward,
    matmul,
    seeded_rng,
)
from spd_agg.kernel import SIGMA_FLOOR
from _oracles import (
    ADJOINT_RTOL,
    adjoint_gap,
    central_diff,
    covariance_inner_products,
    kernel_backward_formula,
    kernel_backward_gram_formula,
    kernel_backward_loop,
    kernel_entrywise,
    kernel_forward_formula,
    rel_err,
    sigma_double_loop,
)


class TestComputeSigma:
    def test_single_pair_hand_distance(self):
        # maps (0, 0) and (1, 1)
        sq = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert compute_sigma(sq) == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_identical_rows_hits_floor(self):
        assert compute_sigma(np.zeros((4, 4))) == SIGMA_FLOOR

    def test_coincident_maps_give_exactly_the_floor(self):
        # Equal rows give bit-equal g_ii, g_jj and g_ij, so exact zeros.
        row = seeded_rng(0).standard_normal((1, 1, 36))
        assert kernel_forward(np.repeat(row, 12, axis=0))[1].sigma == SIGMA_FLOOR
        stack = np.repeat(row[None] * np.array([1.0, 3.0])[:, None, None, None], 12, axis=1)
        assert kernel_forward(stack)[1].sigma.tolist() == [SIGMA_FLOOR, SIGMA_FLOOR]

    def test_small_distances_stay_above_the_floor(self):
        # Maps 2e-7 apart: the floor binds only where the maps coincide.
        sigma = kernel_forward(np.stack([np.zeros(4), np.full(4, 1e-7)]))[1].sigma
        assert SIGMA_FLOOR < sigma == pytest.approx(2e-7, rel=1e-12)

    def test_matches_double_loop_oracle_to_ulps(self):
        # The three benchmark workloads' shapes, raw and ReLU-clipped: the
        # Gram identity rounds differently from explicit differences.
        rng = seeded_rng(0)
        for shape in [(32, 12, 6, 6), (8, 64, 2, 2), (1, 64, 14, 14)]:
            raw = rng.standard_normal(shape)
            for x in (raw, np.maximum(raw, 0.0)):
                sigma = kernel_forward(x)[1].sigma
                ref = np.array([sigma_double_loop(s.reshape(shape[1], -1)) for s in x])
                assert (np.abs(sigma - ref) <= 8 * np.finfo(float).eps * ref).all(), shape

    # N = 4, 36 and 196: below, inside and above numpy's pairwise-sum
    # block sizes.
    @pytest.mark.parametrize("side", [2, 6, 14])
    def test_stack_gives_each_sample_its_own_bits(self, side):
        x = seeded_rng(3).standard_normal((5, 12, side, side))
        stacked = kernel_forward(x)[1].sigma
        assert stacked.shape == (5,)
        assert stacked.tolist() == [float(kernel_forward(sample)[1].sigma) for sample in x]
        f = x.reshape(5, 12, -1)
        sq = ((f[:, :, None, :] - f[:, None, :, :]) ** 2).sum(axis=-1)
        assert compute_sigma(sq).tolist() == [float(compute_sigma(s)) for s in sq]

    def test_single_row_rejected(self):
        with pytest.raises(ValueError, match="two feature maps"):
            compute_sigma(np.zeros((1, 1)))

    def test_negative_distances_refused_with_sample(self):
        # A (C, H, W) map stack with H == W is square-trailing but not
        # squared distances; samples 0 and 1 here have negative pairs.
        maps = seeded_rng(0).standard_normal((3, 4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^squared distances of sample 0 must be >= 0"):
                compute_sigma(maps)
            with pytest.raises(ValueError, match=r"^squared distances must be >= 0, got -1\.0$"):
                compute_sigma(-np.ones((4, 4)))
            sq = np.zeros((2, 3, 4, 4))
            sq[1, 2, 0, 3] = -0.5
            with pytest.raises(ValueError, match=r"^squared distances of sample 1, 2 must"):
                compute_sigma(sq)
        # Negative entries below the diagonal are not read.
        assert compute_sigma(np.tril(-np.ones((4, 4)))) == SIGMA_FLOOR

    def test_pair_index_shared_and_read_only(self):
        index = kernel_mod._pairs(5)
        assert kernel_mod._pairs(5) is index
        assert not index.flags.writeable
        rows, cols = np.triu_indices(5, k=1)
        assert index.tolist() == (rows * 5 + cols).tolist()

    # (6, 9) is a C x N map matrix, not squared distances.
    @pytest.mark.parametrize("shape", [(), (3,), (6, 9), (4, 2, 3)])
    def test_non_square_input_rejected(self, shape):
        with pytest.raises(ShapeMismatchError, match=r"^expected \(\.\.\., C, C\) squared"):
            compute_sigma(np.zeros(shape))


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

    def test_distances_rounding_below_zero_are_clamped(self):
        # A map scaled by 100 and a copy 1e-7 away: g_00 + g_11 - 2 g_01
        # cancels down to the rounding error of g_00 (about 3.6e5) and
        # falls below zero in about a third of draws. Clamped, K stays in
        # (0, 1] and sigma is finite; unclamped, compute_sigma refuses.
        rng = seeded_rng(13)
        negative = 0
        for _ in range(20):
            f = 100.0 * rng.standard_normal(36)
            m = np.stack([f, f + 1e-7 * rng.standard_normal(36)])
            gram = matmul(m, m.T)
            k, tape = kernel_forward(m)
            assert (k <= 1.0).all() and np.isfinite(tape.sigma)
            if gram[0, 0] + gram[1, 1] - 2.0 * gram[0, 1] < 0.0:
                negative += 1
                assert k[0, 1] == 1.0
        assert negative >= 5

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
        good = kernel_forward(x)[1].sigma
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


#: The benchmark shapes: the desk stack, a C=64, N=4 stack and one
#: C=64, N=196 sample.
BIT_SHAPES = [(32, 12, 6, 6), (8, 64, 2, 2), (64, 14, 14)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def bit_inputs(shape, seed):
    """Raw maps, ReLU-clipped maps (many coincident entries) and maps
    whose first two channels coincide."""
    raw = seeded_rng(seed).standard_normal(shape)
    twin = raw.copy()
    twin[..., 1, :, :] = twin[..., 0, :, :]
    return [raw, np.maximum(raw, 0.0), twin]


class TestBitsAgainstFormulas:
    """The in-place forward and backward do the operations of the
    formulas in ``_oracles`` in the same order."""

    @pytest.mark.parametrize("shape", BIT_SHAPES)
    def test_forward_kernel_and_bandwidth(self, shape):
        for x in bit_inputs(shape, 30):
            k, tape = kernel_forward(x)
            ref_k, ref_sigma = kernel_forward_formula(x)
            assert same_bits(k, ref_k) and same_bits(tape.sigma, ref_sigma)
            recorded = ref_sigma * 1.25
            got = kernel_forward(x, sigma=recorded)[0]
            assert same_bits(got, kernel_forward_formula(x, recorded)[0])

    @pytest.mark.parametrize("shape", BIT_SHAPES)
    def test_backward(self, shape):
        # The Gram form rounds differently from the difference form; per
        # sample, the gap stays within 8 eps of its largest |entry| (3.9
        # eps at worst here).
        rng = seeded_rng(31)
        for x in bit_inputs(shape, 32):
            k, tape = kernel_forward(x)
            g = rng.standard_normal(k.shape)
            got = kernel_backward(tape, g)
            assert same_bits(got, kernel_backward_gram_formula(tape.m, k, tape.sigma, g))
            ref = kernel_backward_formula(tape.m, k, tape.sigma, g)
            gap = np.abs(got - ref).max(axis=(-2, -1))
            assert (gap <= 8 * np.finfo(float).eps * np.abs(ref).max(axis=(-2, -1))).all()

    def test_coincident_maps_still_give_exact_zeros(self):
        x = np.repeat(seeded_rng(33).standard_normal((1, 14, 14)), 64, axis=0)
        k, tape = kernel_forward(x)
        g = seeded_rng(34).standard_normal((64, 64))
        grad = kernel_backward(tape, g)
        assert same_bits(grad, np.zeros((64, 196)))
        assert same_bits(grad, kernel_backward_formula(tape.m, k, tape.sigma, g))

    def test_caller_arrays_are_not_written(self):
        x = seeded_rng(37).standard_normal((8, 64, 2, 2))
        g = seeded_rng(38).standard_normal((8, 64, 64))
        sigma = kernel_forward(x)[1].sigma
        before = [a.tobytes() for a in (x, g, sigma)]
        k, tape = kernel_forward(x, sigma=sigma)
        assert np.shares_memory(tape.m, x)
        k_bytes = k.tobytes()
        kernel_backward(tape, g)
        assert [a.tobytes() for a in (x, g, sigma)] == before
        assert tape.k.tobytes() == k_bytes

    def test_backward_peak_memory_within_the_row_block(self):
        # The differences f_j - f_i of one C=64, N=196 sample would take
        # C x C x N x 8 bytes = 6.4 MB; the Gram form holds a few C x N
        # and C x C arrays.
        c, n = 64, 196
        _, tape = kernel_forward(seeded_rng(39).standard_normal((c, 14, 14)))
        g = seeded_rng(40).standard_normal((c, c))
        kernel_backward(tape, g)
        tracemalloc.start()
        try:
            kernel_backward(tape, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = (3 * c * n + 3 * c * c) * 8
        assert 0 < peak <= budget < c * c * n * 8


def gram_rule_inputs(c, n, seed):
    """Stacks of 2C - 1 samples (through ``matmul``) and 2C samples (with
    the samples innermost) of C maps over N positions: ReLU-clipped, with
    the first two maps coincident and the third negated to hold -0.0."""
    rng = seeded_rng(seed)
    for stack in (2 * c - 1, 2 * c):
        x = np.maximum(rng.standard_normal((stack, c, 1, n)), 0.0)
        x[:, 1] = x[:, 0]
        x[:, 2] *= -1.0
        assert np.signbit(x[:, 2][x[:, 2] == 0.0]).all()
        yield x


class TestGramRule:
    """Both sides of the 2C stack rule of ``linalg.gram`` give each sample
    the bits it gets on its own."""

    @pytest.mark.parametrize("c, n", [(12, 36), (5, 16)])
    def test_kernel(self, c, n):
        for x in gram_rule_inputs(c, n, 41):
            k, tape = kernel_forward(x)
            for i, sample in enumerate(x):
                k_i, tape_i = kernel_forward(sample)
                assert same_bits(k[i], k_i) and same_bits(tape.sigma[i], tape_i.sigma)
            assert (k[:, 0, 1] == 1.0).all()

    @pytest.mark.parametrize("c, n", [(12, 36), (5, 16)])
    def test_covariance(self, c, n):
        for x in gram_rule_inputs(c, n, 42):
            cov = covariance_forward(x)
            for i, sample in enumerate(x):
                assert same_bits(cov[i], covariance_forward(sample))


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
        k, tape = kernel_forward(m)
        sigma = tape.sigma
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
