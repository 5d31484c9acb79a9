"""
Dense math kernels: stable softmax (of a vector, or row-wise), Adam,
gradient clipping and a central-difference gradient checker. Each computes
in the dtype of the arrays it is given: float32 for training, float64 (or
wider) for the checks. Everything here is a pure function of its inputs
except `adam_step` and `clip_grads_by_norm`, which update the arrays they
are given in place.
"""

from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class NumericsError(ArithmeticError):
    """A computation produced a non-finite value."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    # e = exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e)
    # below, the arithmetic of splitting by sign without its gathers and
    # scatters. min(x, -x) is -|x| that passes a NaN on with its sign.
    # The dtype is kept so callers can evaluate in extended precision.
    x = np.asarray(x)
    e = np.exp(np.minimum(x, -x))
    d = 1 + e
    return np.where(x >= 0, 1 / d, e / d)


def softmax_stable(logits: np.ndarray) -> np.ndarray:
    """Softmax with max-subtraction. Input must be a non-empty 1-d vector."""
    logits = np.asarray(logits)
    if not np.issubdtype(logits.dtype, np.floating):
        logits = logits.astype(np.float64)
    logits = logits.ravel()
    if logits.size == 0:
        raise ValueError("softmax of an empty vector")
    return softmax_rows(logits)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of a float array; each row is shifted
    by its own max."""
    ex = logits - logits.max(axis=-1, keepdims=True)
    np.exp(ex, out=ex)
    ex /= ex.sum(axis=-1, keepdims=True)
    return ex


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
ADAM_CHUNK = 1 << 14  # elements per pass of adam_step over its vectors


@dataclass
class AdamState:
    """Adam accumulator state of one parameter array."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 1e-4

    @classmethod
    def for_param(cls, param: np.ndarray,
                  learning_rate: float = 1e-4) -> "AdamState":
        # np.zeros, not zeros_like: calloc leaves the pages untouched
        # until the first step writes them
        return cls(first_moment=np.zeros(param.shape, param.dtype),
                   second_moment=np.zeros(param.shape, param.dtype),
                   learning_rate=learning_rate)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> np.ndarray:
    """
    One bias-corrected Adam update of the float32 or float64 array `param`,
    in place. Mutates `state`, reads `grad`, and returns `param`. The
    gradient and both moments must have the param's dtype: a silent cast
    would copy the whole vector every step. It walks the arrays ADAM_CHUNK
    elements at a time through two chunk-sized scratch buffers of that
    dtype, in the operation order of the textbook formula, so the result is
    bitwise that of the whole-array expressions.
    """
    if param.shape != grad.shape or param.shape != state.first_moment.shape:
        raise DimensionError(
            f"param {param.shape} vs grad {grad.shape} vs "
            f"moment {state.first_moment.shape}")
    if (param.dtype not in (np.float32, np.float64)
            or not param.flags.c_contiguous):
        raise TypeError("adam_step updates a C-contiguous float32 or "
                        "float64 array")
    for what, arr in (("grad", grad), ("first moment", state.first_moment),
                      ("second moment", state.second_moment)):
        if arr.dtype != param.dtype:
            raise TypeError(f"{what} is {arr.dtype}, param is {param.dtype}")
    state.step_count += 1
    t = state.step_count
    lr, c1, c2 = state.learning_rate, 1 - ADAM_BETA1 ** t, 1 - ADAM_BETA2 ** t
    p, g = param.reshape(-1), grad.reshape(-1)
    m = state.first_moment.reshape(-1)
    v = state.second_moment.reshape(-1)
    buf = np.empty((2, min(p.size, ADAM_CHUNK)), param.dtype)
    for lo in range(0, p.size, ADAM_CHUNK):
        hi = min(lo + ADAM_CHUNK, p.size)
        gc, mc, vc = g[lo:hi], m[lo:hi], v[lo:hi]
        s1, s2 = buf[:, :hi - lo]
        # m = b1 * m + (1 - b1) * g
        mc *= ADAM_BETA1
        mc += np.multiply(1 - ADAM_BETA1, gc, out=s1)
        # v = b2 * v + (1 - b2) * g * g
        vc *= ADAM_BETA2
        np.multiply(1 - ADAM_BETA2, gc, out=s1)
        vc += np.multiply(s1, gc, out=s1)
        # p = p - lr * (m / c1) / (sqrt(v / c2) + eps)
        np.divide(mc, c1, out=s1)
        s1 *= lr
        np.divide(vc, c2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += ADAM_EPSILON
        s1 /= s2
        p[lo:hi] -= s1
    return param


def clip_grads_by_norm(grad: np.ndarray, max_norm: float) -> float:
    """
    Scale the flat gradient vector in place so its L2 norm is <= max_norm.
    Returns the norm before clipping.
    """
    total = float(np.sqrt(grad @ grad))
    if total > max_norm:
        grad *= max_norm / total
    return total


@dataclass
class GradCheckResult:
    max_rel_error: float
    worst_param: str = ""


def finite_diff_grad_check(loss_fn, grad_fn, params: dict,
                           h: float = 1e-5) -> GradCheckResult:
    """
    Compare analytic gradients against central differences.

    loss_fn(params) -> scalar; grad_fn(params) -> dict of arrays matching
    `params` (a dict name -> float64 array). Returns the max over all scalar
    parameters of |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    analytic = grad_fn(params)
    result = GradCheckResult(max_rel_error=0.0)
    for name in sorted(params):
        p = params[name]
        g = np.asarray(analytic[name], dtype=np.float64)
        if g.shape != p.shape:
            raise DimensionError(f"gradient shape {g.shape} != param {p.shape} "
                                 f"for {name}")
        flat = p.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn(params)
            flat[i] = orig - h
            lm = loss_fn(params)
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericsError(f"non-finite loss perturbing {name}[{i}]")
            numeric = (lp - lm) / (2 * h)
            a = g.ravel()[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > result.max_rel_error:
                result.max_rel_error = rel
                result.worst_param = name
    return result
