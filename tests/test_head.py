import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spd_agg import (
    DenseParams,
    ShapeMismatchError,
    dense_logits,
    dense_softmax_ce,
    l2_normalize,
    matmul,
    l2_normalize_backward,
    power_normalize,
    power_normalize_backward,
    seeded_rng,
    vectorize,
    vectorize_backward,
)
from spd_agg.head import L2_FLOOR, _triu
from _oracles import (
    ADJOINT_RTOL,
    adjoint_gap,
    central_diff,
    dense_input_grad_formula,
    dense_logits_row_formula,
    random_symmetric,
    rel_err,
    vectorize_backward_formula,
)


def softmax_ce(v, params, label):
    """The loss and gradients of ``v`` through the whole dense layer."""
    return dense_softmax_ce(v, dense_logits(v, params), params, label)


class TestVectorize:
    def test_hand_case_2x2(self):
        v = vectorize(np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert np.allclose(v, [1.0, 2.0 * np.sqrt(2.0), 3.0])
        assert v[1] == pytest.approx(2.82843, abs=1e-5)
        assert np.dot(v, v) == pytest.approx(18.0, abs=1e-12)

    def test_identity_3x3(self):
        assert np.allclose(vectorize(np.eye(3)), [1, 0, 0, 1, 0, 1])

    def test_norm_bridge(self):
        rng = seeded_rng(0)
        y = random_symmetric(rng, 6)
        assert abs(np.linalg.norm(vectorize(y)) - np.linalg.norm(y)) < 1e-12

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            vectorize(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestVectorizeBackward:
    def test_norm_functional_recovers_matrix(self):
        # L = ||v||^2 / 2 has dL/dv = v; the reshaped gradient must be Y.
        rng = seeded_rng(1)
        y = random_symmetric(rng, 5)
        grad = vectorize_backward(vectorize(y), 5)
        assert np.abs(grad - y).max() < 1e-12

    def test_zero_gradient(self):
        assert np.array_equal(vectorize_backward(np.zeros(6), 3), np.zeros((3, 3)))

    def test_output_exactly_symmetric(self):
        rng = seeded_rng(2)
        g = vectorize_backward(rng.standard_normal(10), 4)
        assert np.array_equal(g, g.T)

    def test_adjoint_matches_finite_differences(self):
        # resolves the sqrt(2)-vs-sqrt(2)/2 slot placement operationally
        rng = seeded_rng(3)
        c = rng.standard_normal(3)
        y = random_symmetric(rng, 2)

        def loss(ym):
            return float(np.dot(c, vectorize((ym + ym.T) / 2.0)))

        numeric = central_diff(loss, y.copy(), h=1e-5)
        analytic = vectorize_backward(c, 2)
        assert rel_err(analytic, numeric) < 1e-8

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatchError):
            vectorize_backward(np.zeros(5), 3)


class TestVectorizeBackwardBits:
    """The adjoint writes each slot once into both triangles, with the bits
    of the earlier upper-plus-mirrored-lower form."""

    @pytest.mark.parametrize(
        "shape, c", [((32, 36), 8), ((2, 3, 36), 8), ((8, 528), 32), ((36,), 8), ((528,), 32)]
    )
    @pytest.mark.parametrize("special", [False, True], ids=["finite", "specials"])
    def test_bits_match_formula(self, shape, c, special):
        rng = seeded_rng(c + len(shape))
        grad = rng.standard_normal(shape)
        if special:
            # Every slot kind, on and off the diagonal: about half the slots.
            values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])
            hit = rng.random(shape) < 0.5
            grad[hit] = values[rng.integers(0, len(values), hit.sum())]
        before = grad.copy()
        got = vectorize_backward(grad, c)
        want = vectorize_backward_formula(grad, c)
        assert got.shape == want.shape == shape[:-1] + (c, c)
        assert got.tobytes() == want.tobytes()
        assert grad.tobytes() == before.tobytes()

    @pytest.mark.parametrize("c", [1, 2, 5])
    def test_slot_table(self, c):
        index, mirror, scale = _triu(c)
        rows, cols = np.triu_indices(c)
        assert np.array_equal(index, rows * c + cols)
        assert np.array_equal(mirror, cols * c + rows)
        assert np.array_equal(scale, np.where(rows == cols, 1.0, np.sqrt(2.0)))
        for a in (index, mirror, scale):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_vectorize_leaves_its_input(self):
        y = random_symmetric(seeded_rng(4), 6)
        before = y.copy()
        vectorize(y)
        assert y.tobytes() == before.tobytes()


class TestPowerNormalize:
    def test_hand_values(self):
        out, _ = power_normalize(np.array([4.0, -9.0, 0.0]))
        assert np.array_equal(out, [2.0, -3.0, 0.0])

    def test_not_idempotent(self):
        once, _ = power_normalize(np.array([16.0]))
        twice, _ = power_normalize(once)
        assert twice[0] == pytest.approx(2.0)

    def test_gradient_away_from_origin(self):
        rng = seeded_rng(4)
        v = rng.uniform(0.05, 2.0, size=8) * rng.choice([-1.0, 1.0], size=8)
        out, tape = power_normalize(v)
        upstream = rng.standard_normal(8)

        def loss(vv):
            return float(np.dot(upstream, power_normalize(vv)[0]))

        numeric = central_diff(loss, v.copy(), h=1e-6)
        analytic = power_normalize_backward(tape, upstream)
        assert rel_err(analytic, numeric) < 1e-5

    def test_slope_clamped_at_power_eps(self):
        # Below |v| = POWER_EPS = 1e-8 the slope is the one at 1e-8.
        _, tape = power_normalize(np.array([0.0, -0.0, 1e-10, -1e-10]))
        grad = np.array([1.0, 7.0, -3.0, 0.5])
        assert power_normalize_backward(tape, grad).tolist() == (grad / (2 * 1e-4)).tolist()


class TestL2Normalize:
    def test_hand_case(self):
        out, tape = l2_normalize(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8])
        assert tape.norm == pytest.approx(5.0)

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        out, _ = l2_normalize(v)
        assert np.allclose(out, v, atol=1e-12)

    def test_output_has_unit_norm(self):
        rng = seeded_rng(5)
        out, _ = l2_normalize(rng.standard_normal(9))
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_zero_vector_passes_through(self):
        v = np.zeros(4)
        out, tape = l2_normalize(v)
        assert np.array_equal(out, v)
        assert np.array_equal(l2_normalize_backward(tape, np.ones(4)), np.ones(4))

    def test_overflowing_square_norm_rescaled(self):
        # v . v overflows; tier-1 turns the warning it would raise into an error.
        v = np.array([1e200, 1.0])
        out, tape = l2_normalize(v)
        assert np.array_equal(out, [1.0, 1e-200]) and tape.norm == 1e200
        stack = np.array([[3.0, 4.0], v, [-2e300, 2e300]])
        stacked, stacked_tape = l2_normalize(stack)
        assert np.array_equal(stacked[1], out) and stacked_tape.norm[1] == tape.norm
        assert np.array_equal(stacked[0], l2_normalize(stack[0])[0])
        assert np.allclose(stacked[2], [-np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-15)

    def test_norm_above_largest_float(self):
        # ||v|| = 1.8e308 overflows even after the rescale: the unit is
        # still exact, and the backward's 1 / ||v|| rounds to zero, with
        # no warning (tier-1 turns one into an error).
        v = np.full(36, 3e307)
        out, tape = l2_normalize(v)
        assert np.array_equal(out, np.full(36, 1 / 6)) and tape.norm == np.inf
        grad = l2_normalize_backward(tape, seeded_rng(7).standard_normal(36))
        assert np.array_equal(grad, np.zeros(36))
        stack = np.stack([np.arange(36.0), v])
        stacked, stacked_tape = l2_normalize(stack)
        assert np.array_equal(stacked[1], out) and stacked_tape.norm[1] == np.inf
        assert np.array_equal(stacked[0], l2_normalize(stack[0])[0])

    @pytest.mark.parametrize("k", [1, 2, 7, 36, 136, 528, 2080])
    @pytest.mark.parametrize("stack", [1, 5, 32])
    def test_stack_matches_per_vector_norm_and_dot(self, k, stack):
        # Forward and backward of a stack against each vector written out
        # with np.linalg.norm and np.dot, bit for bit.  A stack of more
        # than one holds a zero vector (a pass-through) and one of 1e200
        # entries, whose v . v overflows.
        rng = seeded_rng(k * 100 + stack)
        v, g = rng.standard_normal((2, stack, k))
        if stack > 1:
            v[0] = 0.0
            v[1] *= 1e200
        out, tape = l2_normalize(v)
        grad = l2_normalize_backward(tape, g)
        for i in range(stack):
            with np.errstate(over="ignore"):
                norm = np.linalg.norm(v[i])
            if norm < L2_FLOOR:
                unit, norm, want = v[i], 0.0, g[i]
            else:
                if np.isinf(norm):
                    s = np.abs(v[i]).max()
                    r = np.linalg.norm(v[i] / s)
                    unit, norm = v[i] / s / r, s * r
                else:
                    unit = v[i] / norm
                want = (g[i] - unit * np.dot(unit, g[i])) / norm
            assert np.array_equal(out[i], unit) and tape.norm[i] == norm, i
            assert np.array_equal(grad[i], want), i

    def test_gradient(self):
        rng = seeded_rng(6)
        v = rng.standard_normal(7)
        _, tape = l2_normalize(v)
        upstream = rng.standard_normal(7)

        def loss(vv):
            return float(np.dot(upstream, l2_normalize(vv)[0]))

        numeric = central_diff(loss, v.copy(), h=1e-5)
        assert rel_err(l2_normalize_backward(tape, upstream), numeric) < 1e-6


@st.composite
def _vector_case(draw):
    """A stack of 1..4 vectors of length 1..12 and two more of the same shape."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 12)))
    rng = seeded_rng(draw(st.integers(0, 2**32 - 1)))
    return tuple(rng.standard_normal(shape) for _ in range(3))


class TestHeadAdjoints:
    """<J x, y> = <x, J^T y> at random shapes and stack sizes, to
    ``ADJOINT_RTOL`` relative to ||x|| ||y|| times a bound on ||J||; J x is
    the forward-mode derivative, written out here."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(c=st.integers(1, 8), stack=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_vectorize(self, c, stack, seed):
        rng = seeded_rng(seed)
        dy = (lambda a: (a + a.swapaxes(-1, -2)) / 2.0)(rng.standard_normal((stack, c, c)))
        g = rng.standard_normal((stack, c * (c + 1) // 2))
        gap = adjoint_gap(vectorize(dy), g, [(dy, vectorize_backward(g, c))])
        # vectorize is an isometry on symmetric matrices: ||J|| = 1.
        assert gap <= ADJOINT_RTOL * np.linalg.norm(dy) * np.linalg.norm(g)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=_vector_case())
    def test_power(self, case):
        v, x, g = case
        _, tape = power_normalize(v)
        slope = 1.0 / (2.0 * np.sqrt(np.abs(v)))
        jx = np.sign(v) * slope * (np.sign(v) * x)  # d sqrt(|v|) = slope * d|v|
        gap = adjoint_gap(jx, g, [(x, power_normalize_backward(tape, g))])
        assert gap <= ADJOINT_RTOL * slope.max() * np.linalg.norm(x) * np.linalg.norm(g)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=_vector_case())
    def test_l2(self, case):
        v, x, g = case
        _, tape = l2_normalize(v)
        norm = np.sqrt((v * v).sum(axis=-1, keepdims=True))
        jx = x / norm - v * (v * x).sum(axis=-1, keepdims=True) / norm**3
        gap = adjoint_gap(jx, g, [(x, l2_normalize_backward(tape, g))])
        # Each of the two terms of J is at most 1 / ||v|| in norm.
        assert gap <= ADJOINT_RTOL * 2.0 / norm.min() * np.linalg.norm(x) * np.linalg.norm(g)


class TestDenseSoftmaxCe:
    def test_uniform_two_class_loss(self):
        params = DenseParams(weights=np.zeros((2, 4)), bias=np.zeros(2))
        loss, _ = softmax_ce(np.ones(4), params, 0)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_equal_logits_any_class_count(self):
        for nc in (2, 3, 7):
            params = DenseParams(weights=np.zeros((nc, 3)), bias=np.zeros(nc))
            loss, _ = softmax_ce(np.ones(3), params, nc - 1)
            assert loss == pytest.approx(np.log(nc), abs=1e-12)

    def test_saturated_logits(self):
        params = DenseParams(weights=np.zeros((2, 1)), bias=np.array([100.0, 0.0]))
        loss, _ = softmax_ce(np.zeros(1), params, 0)
        assert 0.0 <= loss < 1e-40

    def test_label_out_of_range(self):
        params = DenseParams(weights=np.zeros((2, 3)), bias=np.zeros(2))
        with pytest.raises(ValueError, match="out of range"):
            softmax_ce(np.ones(3), params, 2)

    def test_loss_nonnegative(self):
        rng = seeded_rng(7)
        for _ in range(20):
            params = DenseParams(
                weights=rng.standard_normal((3, 5)), bias=rng.standard_normal(3)
            )
            loss, _ = softmax_ce(rng.standard_normal(5), params, int(rng.integers(3)))
            assert loss >= 0.0

    @pytest.mark.parametrize(
        "stack, classes, head_dim", [((8,), 2, 528), ((32,), 2, 36), ((), 3, 10), ((4,), 3, 1)]
    )
    def test_input_gradient_bits_match_rank1_updates(self, stack, classes, head_dim):
        # The row product dz W adds the class terms in the order of the
        # one-column W^T dz, also across zero and -0.0 weights.
        rng = seeded_rng(28)
        weights = rng.standard_normal((classes, head_dim))
        weights[0, ::3] = -0.0
        weights[-1, 1::3] = 0.0
        params = DenseParams(weights=weights, bias=rng.standard_normal(classes))
        v = rng.standard_normal(stack + (head_dim,))
        label = rng.integers(classes, size=stack)
        _, grads = softmax_ce(v, params, label)
        ref = dense_input_grad_formula(weights, grads.bias)
        assert grads.v.shape == ref.shape and grads.v.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "stack, classes, head_dim", [((), 2, 36), ((1,), 2, 36), ((100,), 2, 36), ((16,), 2, 528),
                                     ((2, 3), 3, 10), ((), 1, 5), ((4,), 1, 1)]
    )
    def test_logits_bits_match_row_product(self, stack, classes, head_dim):
        # W V^T adds the products of each score in the order of v W^T,
        # also across zero and -0.0 weights and inputs.
        rng = seeded_rng(29)
        weights = rng.standard_normal((classes, head_dim))
        weights[0, ::3] = -0.0
        weights[-1, 1::3] = 0.0
        params = DenseParams(weights=weights, bias=rng.standard_normal(classes))
        v = rng.standard_normal(stack + (head_dim,))
        v[..., ::4] = -0.0
        got = dense_logits(v, params)
        ref = dense_logits_row_formula(v, weights, params.bias)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_all_gradients_match_finite_differences(self):
        rng = seeded_rng(8)
        v = rng.standard_normal(5)
        weights = rng.standard_normal((3, 5))
        bias = rng.standard_normal(3)
        label = 1
        _, grads = softmax_ce(v, DenseParams(weights.copy(), bias.copy()), label)

        num_v = central_diff(
            lambda vv: softmax_ce(vv, DenseParams(weights, bias), label)[0], v.copy()
        )
        num_w = central_diff(
            lambda wm: softmax_ce(v, DenseParams(wm, bias), label)[0], weights.copy()
        )
        num_b = central_diff(
            lambda bb: softmax_ce(v, DenseParams(weights, bb), label)[0], bias.copy()
        )
        assert rel_err(grads.v, num_v) < 1e-6
        assert rel_err(grads.weights, num_w) < 1e-6
        assert rel_err(grads.bias, num_b) < 1e-6


class TestHeadEndToEnd:
    def test_full_head_gradient_wrt_matrix(self):
        # vectorize -> power -> l2 -> dense -> cross-entropy, differentiated
        # back to the symmetric matrix; valid where |V_i| > 1e-3.
        rng = seeded_rng(9)
        checked = 0
        trials = 0
        while checked < 5 and trials < 50:
            trials += 1
            base = rng.standard_normal((4, 4))
            y = base @ base.T + 0.5 * np.eye(4)
            if np.abs(vectorize(y)).min() <= 1e-3:
                continue
            checked += 1
            params = DenseParams(
                weights=rng.standard_normal((3, 10)), bias=rng.standard_normal(3)
            )
            label = int(rng.integers(3))

            def loss(ym):
                sym = (ym + ym.T) / 2.0
                v0 = vectorize(sym)
                v1, _ = power_normalize(v0)
                v2, _ = l2_normalize(v1)
                return softmax_ce(v2, params, label)[0]

            numeric = central_diff(loss, y.copy(), h=1e-5)

            v0 = vectorize(y)
            v1, ptape = power_normalize(v0)
            v2, ltape = l2_normalize(v1)
            _, dgrads = softmax_ce(v2, params, label)
            dv = l2_normalize_backward(ltape, dgrads.v)
            dv = power_normalize_backward(ptape, dv)
            analytic = vectorize_backward(dv, 4)
            assert rel_err(analytic, numeric) < 1e-5
        assert checked == 5

    def test_logits_match_sequential_product_bit_for_bit(self):
        # The ordered cumsum equals the zero-started rank-1 product, also
        # where every product is -0.0 (the sum is then +0.0).
        rng = seeded_rng(11)
        for _ in range(50):
            k, d = int(rng.integers(1, 4)), int(rng.integers(1, 40))
            weights = rng.standard_normal((k, d)) * rng.integers(0, 2, size=(k, d))
            weights[0] = -0.0
            params = DenseParams(weights=weights, bias=np.full(k, -0.0))
            v = np.abs(rng.standard_normal(d))  # row 0's products are all -0.0
            v[rng.integers(d)] = 0.0
            v[: int(rng.integers(d))] *= -1.0
            want = matmul(weights, v[:, None])[:, 0] + params.bias
            got = dense_logits(v, params)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_stacked_head_matches_each_vector(self):
        rng = seeded_rng(12)
        ys = np.array([random_symmetric(rng, 4) for _ in range(5)])
        params = DenseParams(weights=rng.standard_normal((3, 10)), bias=rng.standard_normal(3))
        labels = rng.integers(3, size=5)
        v = vectorize(ys)
        out, tape = l2_normalize(power_normalize(v)[0])
        loss, grads = softmax_ce(out, params, labels)
        back = l2_normalize_backward(tape, grads.v)
        for i in range(5):
            v_i = vectorize(ys[i])
            out_i, tape_i = l2_normalize(power_normalize(v_i)[0])
            loss_i, grads_i = softmax_ce(out_i, params, int(labels[i]))
            assert np.array_equal(v[i], v_i) and np.array_equal(out[i], out_i)
            assert loss[i] == loss_i
            assert np.array_equal(grads.weights[i], grads_i.weights)
            assert np.array_equal(back[i], l2_normalize_backward(tape_i, grads_i.v))

    def test_logits_are_affine(self):
        rng = seeded_rng(10)
        params = DenseParams(weights=rng.standard_normal((4, 6)), bias=rng.standard_normal(4))
        v = rng.standard_normal(6)
        assert np.allclose(dense_logits(v, params), params.weights @ v + params.bias)
