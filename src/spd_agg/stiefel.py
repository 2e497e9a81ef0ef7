"""Learnable bilinear compression Y = W^T K W with semi-orthogonal W.

A semi-orthogonal W has full column rank, so the compression maps
positive definite matrices to positive definite matrices of the target
size.  W is optimized on the set of matrices with orthonormal columns:
the Euclidean partial derivative is projected onto the tangent space at
W, a descent step is taken there, and the result is pulled back by the Q
factor of a reduced QR decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .linalg import frobenius, matmul, qr_reduced, symmetrize

__all__ = [
    "StiefelPoint",
    "TransformTape",
    "stiefel_init",
    "transform_forward",
    "transform_backward_input",
    "transform_backward_param",
    "tangent_project",
    "retract_step",
    "spd_relu",
    "spd_relu_mask",
]


@dataclass(frozen=True)
class StiefelPoint:
    """A (c, c') parameter matrix with (approximately) orthonormal columns.

    Orthonormality is maintained by :func:`retract_step`, not enforced on
    construction: gradient checkers evaluate deliberately perturbed,
    slightly off-manifold copies.
    """

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] < w.shape[1] or w.shape[1] < 1:
            raise ShapeMismatchError(
                f"parameter matrix needs rows >= cols >= 1, got shape {w.shape}"
            )
        object.__setattr__(self, "w", w)

    @property
    def rows(self) -> int:
        return self.w.shape[0]

    @property
    def cols(self) -> int:
        return self.w.shape[1]

    def orthogonality_error(self) -> float:
        """||W^T W - I||_F, the distance from exact column orthonormality."""
        return frobenius(matmul(self.w.T, self.w) - np.eye(self.cols))


@dataclass(frozen=True)
class TransformTape:
    """Forward cache for one compression, or one per matrix of a stack:
    the parameter snapshot and the product T = W^T K, all that either
    backward reads."""

    w: StiefelPoint
    t: np.ndarray


def stiefel_init(c: int, c_prime: int, rng: np.random.Generator) -> StiefelPoint:
    """Random point with orthonormal columns.

    Q factor of a standard-normal draw; with the positive-diagonal QR
    convention this is deterministic given the generator state.
    """
    if c < c_prime or c_prime < 1:
        raise ShapeMismatchError(f"need c >= c' >= 1, got c={c}, c'={c_prime}")
    return StiefelPoint(qr_reduced(rng.standard_normal((c, c_prime))).q)


def transform_forward(k, w: StiefelPoint) -> tuple[np.ndarray, TransformTape]:
    """Compress a symmetric matrix, or each matrix of a stack along
    leading axes: Y = W^T K W, explicitly symmetrized.

    For positive definite input and full-column-rank W the output is
    positive definite; orthonormal columns are full rank by construction.
    """
    k = np.asarray(k, dtype=np.float64)
    if k.ndim < 2 or k.shape[-1] != k.shape[-2]:
        raise ShapeMismatchError(f"compression input must be square, got shape {k.shape}")
    if k.shape[-1] != w.rows:
        raise ShapeMismatchError(f"input dim {k.shape[-1]} does not match parameter rows {w.rows}")
    t = matmul(w.w.T, k)
    return symmetrize(matmul(t, w.w)), TransformTape(w=w, t=t)


def _check_grad_y(tape: TransformTape, grad_y: np.ndarray) -> np.ndarray:
    grad_y = np.asarray(grad_y, dtype=np.float64)
    want = tape.t.shape[:-2] + (tape.w.cols, tape.w.cols)
    if grad_y.shape != want:
        raise ShapeMismatchError(
            f"upstream gradient shape {grad_y.shape} does not match output shape {want}"
        )
    return grad_y


def transform_backward_input(tape: TransformTape, grad_y: np.ndarray) -> np.ndarray:
    """dL/dK = W G W^T (exact for the symmetric upstream gradients the
    vectorizer produces)."""
    g = _check_grad_y(tape, grad_y)
    return matmul(matmul(tape.w.w, g), tape.w.w.T)


def transform_backward_param(tape: TransformTape, grad_y: np.ndarray) -> np.ndarray:
    """Euclidean partial dL/dW = 2 (W^T K)^T G, before any manifold
    projection (callers that want the tangent call :func:`tangent_project`).

    Requires K and G exactly symmetric, as every producer makes them
    (the aggregators, :func:`~spd_agg.head.vectorize_backward` and the
    ReLU mask): the general K^T W G + K W G^T then has two bit-identical
    terms, and the forward's T^T equals K W bit for bit.  It is formed as
    2 (G T)^T, whose entries add the products of 2 T^T G in the same
    order because G equals G^T bit for bit, with no transposed copy of T
    and C-long inner rows.
    """
    g = _check_grad_y(tape, grad_y)
    product = matmul(g, tape.t)
    product *= 2.0
    return product.swapaxes(-1, -2)


def tangent_project(w: StiefelPoint, euclid_grad: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the tangent space at W.

    grad_tan = G - W G^T W; the tangency condition is that W^T grad_tan
    is skew-symmetric.  A stack of gradients is projected one by one.
    """
    g = np.asarray(euclid_grad, dtype=np.float64)
    if g.shape[-2:] != w.w.shape:
        raise ShapeMismatchError(f"gradient shape {g.shape} does not match point shape {w.w.shape}")
    return g - matmul(w.w, matmul(g.swapaxes(-1, -2), w.w))


def retract_step(w: StiefelPoint, manifold_grad: np.ndarray, lr: float) -> StiefelPoint:
    """Descend along a tangent gradient and retract back to the manifold.

    Returns the Q factor of W - lr * grad under the positive-diagonal
    convention.  An exactly zero step returns ``w`` unchanged bit-for-bit
    (QR of an orthonormal matrix is only the identity up to rounding, so
    the fixed point is short-circuited rather than recomputed).

    Raises
    ------
    ValueError
        If ``lr`` is negative, NaN or infinite.
    NonFiniteError
        If the stepped matrix holds a NaN or an infinity.
    SingularMatrixError
        If the stepped matrix is numerically rank deficient; the step is
        rejected and the caller may shrink the learning rate.
    """
    if lr < 0.0 or not math.isfinite(lr):
        raise ValueError(f"learning rate must be finite and non-negative, got {lr}")
    g = np.asarray(manifold_grad, dtype=np.float64)
    if g.shape != w.w.shape:
        raise ShapeMismatchError(f"gradient shape {g.shape} does not match point shape {w.w.shape}")
    if lr == 0.0 or not g.any():
        return w
    with np.errstate(over="ignore", invalid="ignore"):
        stepped = w.w - lr * g
    return StiefelPoint(qr_reduced(stepped).q)


def spd_relu(y) -> np.ndarray:
    """Elementwise max(0, .) on a symmetric matrix.

    Symmetry survives exactly and positive-definite diagonals are
    untouched.  Whether definiteness itself always survives is audited
    empirically in the tests, not assumed.
    """
    return np.maximum(np.asarray(y, dtype=np.float64), 0.0)


def spd_relu_mask(y) -> np.ndarray:
    """Backward mask: 1 where the entry was strictly positive, else 0."""
    return (np.asarray(y) > 0.0).astype(np.float64)
