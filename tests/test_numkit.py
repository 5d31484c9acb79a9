import math

import numpy as np
import pytest

from groundedqa.numkit import (ADAM_BETA1, ADAM_BETA2, ADAM_CHUNK,
                               ADAM_EPSILON, AdamState, DimensionError,
                               adam_step, clip_grads_by_norm,
                               finite_diff_grad_check, sigmoid,
                               softmax_stable)


def _sigmoid_split_by_sign(x):
    """The sign split with boolean-mask gathers and scatters that
    `sigmoid` replaced, kept as its reference."""
    x = np.asarray(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
    def test_bitwise_equal_to_the_sign_split(self, dtype):
        past_overflow = 2 * float(np.log(np.finfo(dtype).max))
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, past_overflow,
                   -past_overflow, 1e-30, -1e-30, 30.0, -30.0]
        rng = np.random.default_rng(0)
        n = 16  # hidden width; the gate block is (8, 4n)
        values = rng.normal(0.0, 8.0, size=8 * 4 * n)
        values[:len(special)] = special
        pre = values.astype(dtype).reshape(8, 4 * n)
        x = pre[..., :3 * n]  # strided, as `_cell` passes it
        assert not x.flags.c_contiguous
        got, want = sigmoid(x), _sigmoid_split_by_sign(x)
        assert got.dtype == want.dtype == dtype
        nan = np.isnan(want)
        assert nan.sum() == 1 and np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan], want[~nan])
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert got[0, 2] == 1.0 and got[0, 3] == 0.0  # +inf and -inf


class TestSoftmax:
    def test_symmetric(self):
        assert np.allclose(softmax_stable(np.zeros(4)), 0.25, atol=1e-15)

    def test_forced_values(self):
        out = softmax_stable(np.array([0.0, math.log(3.0)]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-14)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.normal(scale=10.0, size=8)
            c = rng.normal(scale=100.0)
            assert np.max(np.abs(softmax_stable(v + c) - softmax_stable(v))) \
                < 1e-12

    def test_sums_to_one_large_magnitudes(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            v = rng.uniform(-1e6, 1e6, size=16)
            out = softmax_stable(v)
            assert abs(out.sum() - 1.0) < 1e-12
            # exp underflows at spreads past ~700, so only [0, 1] is
            # attainable in double precision at this magnitude
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_strictly_interior_at_moderate_magnitudes(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            # spreads must stay below ~ln(2/eps) ~ 36 for the max entry to
            # round strictly below 1
            out = softmax_stable(rng.uniform(-15, 15, size=16))
            assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            softmax_stable(np.array([]))


class TestAdam:
    def test_zero_grad_fixed_point(self):
        p = np.array([1.0, -2.0, 3.0])
        st = AdamState.for_param(p)
        out = adam_step(p, np.zeros(3), st)
        assert np.array_equal(out, p)
        assert np.all(st.first_moment == 0.0)
        assert np.all(st.second_moment == 0.0)
        assert st.step_count == 1

    def test_first_step_magnitude(self):
        # holds to lr*1e-6 once |g| dominates epsilon (m_hat = g, v_hat = g^2)
        for g in (0.5, -3.0, 0.1):
            p = np.array([0.0])
            st = AdamState.for_param(p, learning_rate=1e-2)
            out = adam_step(p, np.array([g]), st)
            # m_hat = g, v_hat = g^2 -> step ~ -lr * sign(g)
            assert abs(out[0] - (-1e-2 * np.sign(g))) < 1e-2 * 1e-6

    def test_matches_scalar_oracle(self):
        # independent scalar Adam, minimizing f(x) = x^2 from x = 1
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        x, m, v = 1.0, 0.0, 0.0
        oracle = []
        for t in range(1, 11):
            g = 2.0 * x
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x = x - lr * (m / (1 - b1 ** t)) / (
                math.sqrt(v / (1 - b2 ** t)) + eps)
            oracle.append(x)

        p = np.array([1.0])
        st = AdamState.for_param(p, learning_rate=0.1)
        for expected in oracle:
            p = adam_step(p, 2.0 * p, st)
            assert abs(p[0] - expected) < 1e-12

    def test_shape_mismatch(self):
        p = np.zeros(3)
        with pytest.raises(DimensionError):
            adam_step(p, np.zeros(4), AdamState.for_param(p))

    def test_rejects_an_array_it_cannot_update_in_place(self):
        p = np.zeros((4, 3))[:, 0]
        with pytest.raises(TypeError):
            adam_step(p, np.zeros(4), AdamState.for_param(p))

    def test_chunked_matches_per_element_formula_bitwise(self):
        # two full chunks and a partial one
        n = 2 * ADAM_CHUNK + 123
        rng = np.random.default_rng(4)
        p = rng.normal(size=n)
        st = AdamState.for_param(p, learning_rate=1e-3)
        x, m, v = p.tolist(), [0.0] * n, [0.0] * n
        for t in (1, 2, 3):
            grad = rng.normal(size=n)
            g = grad.tolist()
            for i in range(n):
                m[i] = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * g[i]
                v[i] = ADAM_BETA2 * v[i] + (1 - ADAM_BETA2) * g[i] * g[i]
                x[i] = x[i] - 1e-3 * (m[i] / (1 - ADAM_BETA1 ** t)) / (
                    math.sqrt(v[i] / (1 - ADAM_BETA2 ** t)) + ADAM_EPSILON)
            assert adam_step(p, grad, st) is p
            assert np.array_equal(grad, g)  # read, never written
            assert np.array_equal(p, x)
            assert np.array_equal(st.first_moment, m)
            assert np.array_equal(st.second_moment, v)

    def test_float32_matches_whole_array_float32_bitwise(self):
        n = 2 * ADAM_CHUNK + 123
        rng = np.random.default_rng(5)
        p = rng.normal(size=n).astype(np.float32)
        st = AdamState.for_param(p, learning_rate=1e-3)
        assert st.first_moment.dtype == st.second_moment.dtype == np.float32
        x, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
        for t in (1, 2, 3):
            g = rng.normal(size=n).astype(np.float32)
            # Python-float scalars keep the whole-array formula in float32
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            x = x - 1e-3 * (m / (1 - ADAM_BETA1 ** t)) / (
                np.sqrt(v / (1 - ADAM_BETA2 ** t)) + ADAM_EPSILON)
            assert x.dtype == np.float32
            assert adam_step(p, g, st) is p
            assert p.dtype == np.float32
            assert np.array_equal(p, x)
            assert np.array_equal(st.first_moment, m)
            assert np.array_equal(st.second_moment, v)

    @pytest.mark.parametrize("wrong", ["grad", "first", "second"])
    def test_dtype_mismatch_is_never_cast(self, wrong):
        p = np.zeros(3, np.float32)
        g = np.ones(3, np.float64 if wrong == "grad" else np.float32)
        st = AdamState.for_param(p)
        if wrong != "grad":
            setattr(st, f"{wrong}_moment", np.zeros(3))
        with pytest.raises(TypeError, match="float64, param is float32"):
            adam_step(p, g, st)
        assert st.step_count == 0 and not p.any()

    def test_rejects_other_float_dtypes(self):
        p = np.zeros(3, np.float16)
        with pytest.raises(TypeError, match="float32 or float64"):
            adam_step(p, np.zeros(3, np.float16), AdamState.for_param(p))


class TestClip:
    def test_below_the_bound_is_a_no_op(self):
        g = np.array([0.3, -0.4])
        assert clip_grads_by_norm(g, 1.0) == pytest.approx(0.5)
        assert np.array_equal(g, [0.3, -0.4])

    def test_clipped_norm_equals_the_bound(self):
        rng = np.random.default_rng(6)
        g = rng.normal(size=1000)
        before = g.copy()
        norm = clip_grads_by_norm(g, 0.25)
        assert norm > 0.25
        assert abs(np.linalg.norm(g) - 0.25) < 1e-12
        assert np.array_equal(g, before * (0.25 / norm))

    def test_zero_gradient_stays_zero(self):
        g = np.zeros(5)
        assert clip_grads_by_norm(g, 0.0) == 0.0
        assert np.array_equal(g, np.zeros(5))


class TestGradCheck:
    def test_linear(self):
        x = np.array([1.0, -2.0, 0.5])
        params = {"w": np.array([0.3, 0.7, -1.1])}
        res = finite_diff_grad_check(
            lambda p: float(p["w"] @ x),
            lambda p: {"w": x.copy()}, params)
        assert res.max_rel_error < 1e-10

    def test_quadratic(self):
        params = {"w": np.array([0.3, -0.7]), "b": np.array([[1.0, 2.0]])}
        res = finite_diff_grad_check(
            lambda p: float(sum((v ** 2).sum() for v in p.values())),
            lambda p: {k: 2.0 * v for k, v in p.items()}, params)
        assert res.max_rel_error < 1e-8

    def test_reports_worst_param(self):
        params = {"good": np.array([1.0]), "bad": np.array([2.0])}
        res = finite_diff_grad_check(
            lambda p: float(p["good"][0] ** 2 + p["bad"][0] ** 2),
            lambda p: {"good": 2 * p["good"], "bad": 3 * p["bad"]}, params)
        assert res.worst_param == "bad"
        assert res.max_rel_error > 0.1
