"""
Dense float64 math kernels: stable softmax, Adam, and a
central-difference gradient checker. Everything here is a pure function of
its inputs except AdamState, which is mutated by its single writer.
"""

from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class NumericsError(ArithmeticError):
    """A computation produced a non-finite value."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    # split by sign so exp never overflows; dtype preserved so callers can
    # evaluate in extended precision
    x = np.asarray(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_stable(logits: np.ndarray) -> np.ndarray:
    """Softmax with max-subtraction. Input must be a non-empty 1-d vector."""
    logits = np.asarray(logits)
    if not np.issubdtype(logits.dtype, np.floating):
        logits = logits.astype(np.float64)
    logits = logits.ravel()
    if logits.size == 0:
        raise ValueError("softmax of an empty vector")
    shifted = logits - logits.max()
    ex = np.exp(shifted)
    return ex / ex.sum()


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Per-parameter Adam accumulator state."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    learning_rate: float = 1e-4

    @classmethod
    def for_param(cls, param: np.ndarray,
                  learning_rate: float = 1e-4) -> "AdamState":
        return cls(first_moment=np.zeros_like(param, dtype=np.float64),
                   second_moment=np.zeros_like(param, dtype=np.float64),
                   learning_rate=learning_rate)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> np.ndarray:
    """One bias-corrected Adam update. Mutates `state`, returns the new param."""
    param = np.asarray(param, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if param.shape != grad.shape or param.shape != state.first_moment.shape:
        raise DimensionError(
            f"param {param.shape} vs grad {grad.shape} vs "
            f"moment {state.first_moment.shape}")
    state.step_count += 1
    t = state.step_count
    state.first_moment = (ADAM_BETA1 * state.first_moment
                          + (1 - ADAM_BETA1) * grad)
    state.second_moment = (ADAM_BETA2 * state.second_moment
                           + (1 - ADAM_BETA2) * grad * grad)
    m_hat = state.first_moment / (1 - ADAM_BETA1 ** t)
    v_hat = state.second_moment / (1 - ADAM_BETA2 ** t)
    return param - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def clip_grads_by_norm(grads: dict, max_norm: float) -> dict:
    """Scale the whole gradient dict so its global L2 norm is <= max_norm."""
    total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


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
