"""Classifier head: symmetric-matrix vectorization, normalizations, and a
dense softmax cross-entropy layer.

The vectorizer flattens the upper triangle with sqrt(2) scaling on the
off-diagonal so the vector 2-norm equals the matrix Frobenius norm; its
backward is the exact adjoint (each off-diagonal slot receives
grad / sqrt(2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError
from .linalg import frobenius, matmul

__all__ = [
    "DenseParams",
    "DenseGrads",
    "vectorize",
    "vectorize_backward",
    "power_normalize",
    "power_normalize_backward",
    "l2_normalize",
    "l2_normalize_backward",
    "dense_logits",
    "dense_softmax_ce",
]

#: Clamp for the signed-sqrt derivative 1 / (2 sqrt(|v|)) near the origin.
POWER_EPS = 1e-8

#: Below this 2-norm the l2 step passes through unchanged.
L2_FLOOR = 1e-12

_SQRT2 = np.sqrt(2.0)


def vectorize(y: np.ndarray) -> np.ndarray:
    """Row-major upper triangle with off-diagonal entries scaled by sqrt(2).

    Off-diagonal values are read as the mean of the two symmetric slots,
    which pins down the adjoint exactly.  Requires near-symmetric input.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != y.shape[1]:
        raise ShapeMismatchError(f"vectorize input must be square, got shape {y.shape}")
    asym = frobenius(y - y.T)
    if asym > 1e-10:
        raise ValueError(f"vectorize input is not symmetric: ||y - y^T||_F = {asym:.3e}")
    avg = (y + y.T) / 2.0
    rows, cols = np.triu_indices(y.shape[0])
    return avg[rows, cols] * np.where(rows == cols, 1.0, _SQRT2)


def vectorize_backward(grad_v: np.ndarray, c_prime: int) -> np.ndarray:
    """Exact adjoint of :func:`vectorize`: a symmetric matrix whose
    off-diagonal pair slots each receive grad / sqrt(2)."""
    grad_v = np.asarray(grad_v, dtype=np.float64)
    want = c_prime * (c_prime + 1) // 2
    if grad_v.shape != (want,):
        raise ShapeMismatchError(
            f"gradient length {grad_v.shape} does not match upper-triangle size ({want},)"
        )
    rows, cols = np.triu_indices(c_prime)
    upper = np.zeros((c_prime, c_prime))
    upper[rows, cols] = np.where(rows == cols, grad_v, grad_v / _SQRT2)
    lower = upper.T.copy()
    np.fill_diagonal(lower, 0.0)
    return upper + lower


def power_normalize(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise signed square root; returns (output, tape)."""
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.sqrt(np.abs(v)), v.copy()


def power_normalize_backward(tape: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Derivative 1 / (2 sqrt(|v|)), clamped at |v| = POWER_EPS so the
    slope stays finite at zero entries."""
    return np.asarray(grad_out) / (2.0 * np.sqrt(np.maximum(np.abs(tape), POWER_EPS)))


class L2Tape(NamedTuple):
    unit: np.ndarray
    norm: float


def l2_normalize(v: np.ndarray) -> tuple[np.ndarray, L2Tape]:
    """Scale to unit 2-norm; vectors below ``L2_FLOOR`` pass through."""
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm < L2_FLOOR:
        return v.copy(), L2Tape(unit=v.copy(), norm=0.0)
    out = v / norm
    return out, L2Tape(unit=out, norm=norm)


def l2_normalize_backward(tape: L2Tape, grad_out: np.ndarray) -> np.ndarray:
    """Projection Jacobian (I - u u^T) / ||v||; identity on the pass-through."""
    g = np.asarray(grad_out, dtype=np.float64)
    if tape.norm == 0.0:
        return g.copy()
    return (g - tape.unit * float(np.dot(tape.unit, g))) / tape.norm


@dataclass
class DenseParams:
    """Fully connected classifier parameters."""

    weights: np.ndarray  # (num_classes, head_dim)
    bias: np.ndarray  # (num_classes,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[0],):
            raise ShapeMismatchError(
                f"dense shapes inconsistent: weights {self.weights.shape}, bias {self.bias.shape}"
            )


class DenseGrads(NamedTuple):
    v: np.ndarray
    weights: np.ndarray
    bias: np.ndarray


def dense_logits(v: np.ndarray, params: DenseParams) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (params.weights.shape[1],):
        raise ShapeMismatchError(
            f"input length {v.shape} does not match weight columns ({params.weights.shape[1]},)"
        )
    return matmul(params.weights, v[:, None])[:, 0] + params.bias


def dense_softmax_ce(
    v: np.ndarray, logits: np.ndarray, params: DenseParams, label: int
) -> tuple[float, DenseGrads]:
    """Softmax cross-entropy, with max subtraction, of the logits
    ``dense_logits(v, params)``.

    Returns the loss and closed-form gradients for the input vector, the
    weights, and the bias.
    """
    num_classes = params.weights.shape[0]
    if not 0 <= label < num_classes:
        raise ValueError(f"label {label} out of range for {num_classes} classes")
    zmax = float(logits.max())
    shifted = logits - zmax
    log_norm = float(np.log(np.exp(shifted).sum()))
    loss = log_norm - float(shifted[label])
    dz = np.exp(shifted - log_norm)  # softmax probabilities, minus the one-hot label
    dz[label] -= 1.0
    return loss, DenseGrads(
        v=matmul(params.weights.T, dz[:, None])[:, 0],
        weights=dz[:, None] * np.asarray(v, dtype=np.float64)[None, :],
        bias=dz,
    )
