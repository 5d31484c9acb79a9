import math

import numpy as np
import pytest

from groundedqa.numkit import (AdamState, DimensionError, adam_step,
                               finite_diff_grad_check, softmax_stable)


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
