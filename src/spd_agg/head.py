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
from .linalg import SYM_TOL, matmul

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
    """The slot table of a c x c matrix: the flat row-major indices of its
    upper triangle, the flat indices of their mirror images, and the slot
    scale (1 on the diagonal, sqrt(2) off it); read-only as every caller
    shares them."""
    rows, cols = np.triu_indices(c)
    out = rows * c + cols, cols * c + rows, np.where(rows == cols, 1.0, _SQRT2)
    for a in out:
        a.flags.writeable = False
    return out


def vectorize(y: np.ndarray) -> np.ndarray:
    """Row-major upper triangle of a symmetric matrix, with off-diagonal
    entries scaled by sqrt(2), so the vector's norm is the matrix's
    Frobenius norm.

    Every producer in the chain hands over an exactly symmetric matrix;
    input further than :data:`~spd_agg.linalg.SYM_TOL` from symmetric is
    refused (the distance is taken only for input that is not exactly
    symmetric).  On symmetric matrices :func:`vectorize_backward` is the
    exact adjoint.  A stack of matrices along leading axes gives a stack
    of vectors.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim < 2 or y.shape[-1] != y.shape[-2]:
        raise ShapeMismatchError(f"vectorize input must be square, got shape {y.shape}")
    if not (y == y.swapaxes(-1, -2)).all():
        diff = y - y.swapaxes(-1, -2)
        asym = float(np.sqrt((diff * diff).sum(axis=(-2, -1))).max())
        if asym > SYM_TOL:
            raise ValueError(f"vectorize input is not symmetric: ||y - y^T||_F = {asym:.3e}")
    c = y.shape[-1]
    index, _, scale = _triu(c)
    # np.take keeps each vector of a stack contiguous: the l2 step's
    # stacked inner products take the BLAS dot only on contiguous vectors.
    return np.take(y.reshape(y.shape[:-2] + (c * c,)), index, axis=-1) * scale


def vectorize_backward(grad_v: np.ndarray, c_prime: int) -> np.ndarray:
    """Exact adjoint of :func:`vectorize`: a symmetric matrix whose
    off-diagonal pair slots each receive grad / sqrt(2), written into both
    triangles."""
    grad_v = np.asarray(grad_v, dtype=np.float64)
    want = c_prime * (c_prime + 1) // 2
    if grad_v.ndim < 1 or grad_v.shape[-1] != want:
        raise ShapeMismatchError(
            f"gradient length {grad_v.shape} does not match upper-triangle size ({want},)"
        )
    index, mirror, scale = _triu(c_prime)
    # + 0.0 turns a -0.0 slot into +0.0: the bits of the upper triangle
    # plus its mirror image with a zeroed diagonal.
    slots = grad_v / scale + 0.0
    out = np.empty(grad_v.shape[:-1] + (c_prime * c_prime,))
    out[..., index] = slots
    out[..., mirror] = slots
    return out.reshape(grad_v.shape[:-1] + (c_prime, c_prime))


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


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each pair of vectors along the last axis of
    same-shaped ``a`` and ``b``, in one call.  numpy hands each 1 x k by
    k x 1 product of contiguous vectors to the BLAS dot of ``np.dot``, so
    a stacked vector gets the bits ``np.dot`` gives it on its own."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def l2_normalize(v: np.ndarray) -> tuple[np.ndarray, L2Tape]:
    """Scale to unit 2-norm, each vector of a stack on its own; vectors
    below ``L2_FLOOR`` pass through.  A finite vector whose ``v . v``
    overflows (||v|| above about 1.3e154) is scaled by ``s = max |v|``
    first: its unit is ``(v / s) / ||v / s||`` and its norm
    ``s ||v / s||``, which may be infinite (the backward then gives zeros,
    as the Jacobian does once it underflows).  Every other vector keeps
    the bits of ``v / sqrt(v . v)``."""
    v = np.asarray(v, dtype=np.float64)
    with np.errstate(over="ignore"):
        norm = np.sqrt(_dots(v, v))
    norm = np.where(norm < L2_FLOOR, 0.0, norm)
    out = v / np.where(norm == 0.0, 1.0, norm)[..., None]
    big = np.isinf(norm)
    if big.any():
        big &= np.isfinite(v).all(axis=-1)
        s = np.where(big, np.abs(v).max(axis=-1), 1.0)[..., None]
        u = v / s
        r = np.where(big, np.sqrt(_dots(u, u)), 1.0)[..., None]
        with np.errstate(over="ignore"):
            norm = np.where(big, (s * r)[..., 0], norm)
        out = np.where(big[..., None], u / r, out)
    return out, L2Tape(unit=out, norm=norm)


def l2_normalize_backward(tape: L2Tape, grad_out: np.ndarray) -> np.ndarray:
    """Projection Jacobian (I - u u^T) / ||v||; identity on the pass-through."""
    g = np.asarray(grad_out, dtype=np.float64)
    along = _dots(tape.unit, g)
    passed = tape.norm == 0.0
    out = (g - tape.unit * along[..., None]) / np.where(passed, 1.0, tape.norm)[..., None]
    return np.where(passed[..., None], g, out)


@dataclass
class DenseParams:
    """Affine layer parameters: the dense classifier, and the 1x1 channel
    mixer, which is a dense layer at every spatial position."""

    weights: np.ndarray  # (outputs, inputs)
    bias: np.ndarray  # (outputs,)

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
    """Class scores W v + b of a vector, or of each vector of a stack,
    as one product W V^T of the weights by the stack's vectors as columns,
    so the stack, not the class count, is the inner loop.  Each score adds
    the products of the row product v W^T in the same order."""
    v = np.asarray(v, dtype=np.float64)
    width = params.weights.shape[1]
    if v.ndim < 1 or v.shape[-1] != width:
        raise ShapeMismatchError(f"input length {v.shape} does not match weight columns ({width},)")
    scores = matmul(params.weights, v.reshape(-1, width).T).T
    return scores.reshape(v.shape[:-1] + scores.shape[-1:]) + params.bias


def dense_softmax_ce(
    v: np.ndarray, logits: np.ndarray, params: DenseParams, label
) -> tuple[float | np.ndarray, DenseGrads]:
    """Softmax cross-entropy, with max subtraction, of the logits
    ``dense_logits(v, params)``.

    Returns the loss and closed-form gradients for the input vector, the
    weights, and the bias.  For a stack of vectors ``label`` holds one
    label per vector, and the loss and each gradient are per vector.  The
    input gradient W^T dz is the row product dz W, whose entries add the
    class terms in order from zero as one rank-1 update per class would.
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
        v=matmul(dz[..., None, :], params.weights)[..., 0, :],
        weights=dz[..., :, None] * v[..., None, :],
        bias=dz,
    )
