"""Classifier head: symmetric-matrix vectorization, normalizations, and a
dense softmax cross-entropy layer.

The vectorizer flattens the upper triangle with sqrt(2) scaling on the
off-diagonal so the vector 2-norm equals the matrix Frobenius norm; its
backward is the exact adjoint (each off-diagonal slot receives
grad / sqrt(2)).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError
from .linalg import matmul

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


@functools.lru_cache(maxsize=None)
def _triu(c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major upper-triangle indices of a c x c matrix and the slot
    scale (1 on the diagonal, sqrt(2) off it), read-only as every caller
    shares them."""
    rows, cols = np.triu_indices(c)
    out = rows, cols, np.where(rows == cols, 1.0, _SQRT2)
    for a in out:
        a.flags.writeable = False
    return out


def vectorize(y: np.ndarray) -> np.ndarray:
    """Row-major upper triangle of a symmetric matrix, with off-diagonal
    entries scaled by sqrt(2), so the vector's norm is the matrix's
    Frobenius norm.

    Every producer in the chain hands over an exactly symmetric matrix;
    input further than 1e-10 from symmetric is refused.  On symmetric
    matrices :func:`vectorize_backward` is the exact adjoint.  A stack
    of matrices along leading axes gives a stack of vectors.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim < 2 or y.shape[-1] != y.shape[-2]:
        raise ShapeMismatchError(f"vectorize input must be square, got shape {y.shape}")
    diff = y - y.swapaxes(-1, -2)
    asym = float(np.sqrt((diff * diff).sum(axis=(-2, -1))).max())
    if asym > 1e-10:
        raise ValueError(f"vectorize input is not symmetric: ||y - y^T||_F = {asym:.3e}")
    c = y.shape[-1]
    rows, cols, scale = _triu(c)
    # np.take keeps a stack's vectors contiguous, as a single vector is:
    # the l2 step's BLAS reductions depend on the stride.
    return np.take(y.reshape(y.shape[:-2] + (c * c,)), rows * c + cols, axis=-1) * scale


def vectorize_backward(grad_v: np.ndarray, c_prime: int) -> np.ndarray:
    """Exact adjoint of :func:`vectorize`: a symmetric matrix whose
    off-diagonal pair slots each receive grad / sqrt(2)."""
    grad_v = np.asarray(grad_v, dtype=np.float64)
    want = c_prime * (c_prime + 1) // 2
    if grad_v.ndim < 1 or grad_v.shape[-1] != want:
        raise ShapeMismatchError(
            f"gradient length {grad_v.shape} does not match upper-triangle size ({want},)"
        )
    rows, cols, _ = _triu(c_prime)
    upper = np.zeros(grad_v.shape[:-1] + (c_prime, c_prime))
    upper[..., rows, cols] = np.where(rows == cols, grad_v, grad_v / _SQRT2)
    lower = upper.swapaxes(-1, -2).copy()
    diag = np.arange(c_prime)
    lower[..., diag, diag] = 0.0
    return upper + lower


def power_normalize(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise signed square root; returns (output, tape)."""
    v = np.asarray(v, dtype=np.float64)
    return np.sign(v) * np.sqrt(np.abs(v)), v


def power_normalize_backward(tape: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Derivative 1 / (2 sqrt(|v|)), clamped at |v| = POWER_EPS so the
    slope stays finite at zero entries."""
    return np.asarray(grad_out) / (2.0 * np.sqrt(np.maximum(np.abs(tape), POWER_EPS)))


class L2Tape(NamedTuple):
    unit: np.ndarray
    norm: np.ndarray  # 0 marks a pass-through


def _per_vector(fn, *arrays) -> np.ndarray:
    """``fn`` applied to each vector along the last axis of same-shaped
    ``arrays``, one call per vector, so a BLAS reduction gives a stacked
    vector the bits it gives the vector on its own."""
    flat = [a.reshape(-1, a.shape[-1]) for a in arrays]
    return np.array([fn(*vs) for vs in zip(*flat)]).reshape(arrays[0].shape[:-1])


def l2_normalize(v: np.ndarray) -> tuple[np.ndarray, L2Tape]:
    """Scale to unit 2-norm, each vector of a stack on its own; vectors
    below ``L2_FLOOR`` pass through."""
    v = np.asarray(v, dtype=np.float64)
    norm = _per_vector(np.linalg.norm, v)
    norm = np.where(norm < L2_FLOOR, 0.0, norm)
    out = v / np.where(norm == 0.0, 1.0, norm)[..., None]
    return out, L2Tape(unit=out, norm=norm)


def l2_normalize_backward(tape: L2Tape, grad_out: np.ndarray) -> np.ndarray:
    """Projection Jacobian (I - u u^T) / ||v||; identity on the pass-through."""
    g = np.asarray(grad_out, dtype=np.float64)
    along = _per_vector(np.dot, tape.unit, g)
    passed = tape.norm == 0.0
    out = (g - tape.unit * along[..., None]) / np.where(passed, 1.0, tape.norm)[..., None]
    return np.where(passed[..., None], g, out)


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
    """Class scores W v + b of a vector, or of each vector of a stack.

    Each score sums its products in head order with one sequential
    ``np.cumsum``; adding 0.0 gives the +0.0 a zero-started sum such as
    :func:`~spd_agg.linalg.matmul` gives when every product is -0.0.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim < 1 or v.shape[-1] != params.weights.shape[1]:
        raise ShapeMismatchError(
            f"input length {v.shape} does not match weight columns ({params.weights.shape[1]},)"
        )
    products = params.weights * v[..., None, :]
    return (np.cumsum(products, axis=-1)[..., -1] + 0.0) + params.bias


def dense_softmax_ce(
    v: np.ndarray, logits: np.ndarray, params: DenseParams, label
) -> tuple[float | np.ndarray, DenseGrads]:
    """Softmax cross-entropy, with max subtraction, of the logits
    ``dense_logits(v, params)``.

    Returns the loss and closed-form gradients for the input vector, the
    weights, and the bias.  For a stack of vectors ``label`` holds one
    label per vector, and the loss and each gradient are per vector.
    """
    num_classes = params.weights.shape[0]
    label = np.asarray(label)
    if np.any((label < 0) | (label >= num_classes)):
        raise ValueError(f"label {label} out of range for {num_classes} classes")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    loss = (log_norm - np.take_along_axis(shifted, label[..., None], axis=-1))[..., 0]
    # softmax probabilities, minus the one-hot label
    dz = np.exp(shifted - log_norm) - (np.arange(num_classes) == label[..., None])
    v = np.asarray(v, dtype=np.float64)
    return loss, DenseGrads(
        v=matmul(params.weights.T, dz[..., :, None])[..., 0],
        weights=dz[..., :, None] * v[..., None, :],
        bias=dz,
    )
