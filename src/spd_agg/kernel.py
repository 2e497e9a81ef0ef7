"""Aggregation of convolutional feature maps into a channel-by-channel matrix.

The main aggregator treats each channel's feature map as one point in
R^N (N spatial positions) and builds the Gaussian-kernel Gram matrix
between the maps.  The Gram matrix of a strictly positive definite
kernel over distinct points is positive definite no matter how many maps
there are relative to N, which is exactly where the classic covariance
descriptor (also provided here, as a baseline) degenerates to a singular
PSD matrix: rank(Cov) <= min(C, N-1).

Gradients are hand-derived and checked against central finite
differences in the test suite.  The bandwidth is recomputed from each
input and treated as a constant during backpropagation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError
from .linalg import matmul, sym_eigvals

__all__ = [
    "KernelTape",
    "compute_sigma",
    "kernel_forward",
    "kernel_backward",
    "covariance_forward",
    "covariance_backward",
    "certify",
]

#: Lower bound on the bandwidth; hit only when all maps coincide.
SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class KernelTape:
    """Forward cache for one kernel aggregation, or one per sample of a
    stack: maps, output, bandwidth."""

    m: np.ndarray
    k: np.ndarray
    sigma: float | np.ndarray


def as_feature_matrix(x) -> np.ndarray:
    """View a (C, H, W) feature stack — or an already flat (C, N) matrix —
    as the C x N matrix whose rows are the reshaped feature maps.  A
    (B, C, H, W) stack of samples becomes a (B, C, N) stack of matrices."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim in (3, 4):
        return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))
    if x.ndim == 2:
        return x
    raise ShapeMismatchError(
        f"expected a (C, H, W), (C, N) or (B, C, H, W) array, got shape {x.shape}"
    )


def compute_sigma(m) -> float | np.ndarray:
    """Mean Euclidean distance over all unordered pairs of feature maps;
    one bandwidth per sample for a (B, C, H, W) stack.

    Each map's distances to the later maps are taken as contiguous row
    sums, and the distances are then accumulated in row-major pair order
    by a sequential ``np.cumsum``, so the value is reproducible
    bit-for-bit and does not depend on how many samples are stacked.
    Returns the floor ``SIGMA_FLOOR`` for degenerate inputs where all
    maps coincide.
    """
    m = as_feature_matrix(m)
    c = m.shape[-2]
    if c < 2:
        raise ValueError(f"bandwidth needs at least two feature maps, got {c}")
    rows = []
    for i in range(c - 1):
        diffs = m[..., i + 1 :, :] - m[..., i : i + 1, :]
        rows.append(np.sqrt((diffs * diffs).sum(axis=-1)))
    dists = np.concatenate(rows, axis=-1)
    mean = np.cumsum(dists, axis=-1)[..., -1] / dists.shape[-1]
    return np.maximum(mean, SIGMA_FLOOR)


def kernel_forward(x, sigma: float | np.ndarray | None = None) -> tuple[np.ndarray, KernelTape]:
    """Gaussian-kernel Gram matrix between the feature maps of ``x``.

    K_ij = exp(-||f_i - f_j||^2 / (2 sigma^2)) computed densely through
    the Gram identity ||f_i - f_j||^2 = g_ii + g_jj - 2 g_ij with
    g = M M^T, so the whole matrix costs one matrix product plus
    elementwise exponentials.  Diagonal entries are exactly 1 (the
    exponent cancels identically), the result is exactly symmetric as
    computed (mirrored entries swap the operands of every product and
    sum), and all entries lie in (0, 1].

    Parameters
    ----------
    x : (C, H, W) or (C, N) array with C >= 2, N >= 2, finite entries, or
        a (B, C, H, W) stack of samples, which gives a stack of B kernel
        matrices with one bandwidth each.
    sigma : optional bandwidth override: finite and positive, a scalar
        for one sample and one per sample, shape (B,), for a stack.
        Finite-difference harnesses pass the tape value of a reference
        forward so the bandwidth stays frozen while inputs are perturbed;
        by default it is recomputed.
    """
    m = as_feature_matrix(x)
    c, n = m.shape[-2:]
    if c < 2 or n < 2:
        raise ValueError(f"kernel aggregation needs C >= 2 and N >= 2, got C={c}, N={n}")
    if not np.isfinite(m).all():
        raise NonFiniteError("kernel aggregation input contains non-finite values")
    if sigma is None:
        sigma = compute_sigma(x)
    elif np.shape(sigma) != m.shape[:-2]:
        raise ShapeMismatchError(
            f"bandwidth shape {np.shape(sigma)} does not match the stack shape {m.shape[:-2]}"
        )
    elif not (np.isfinite(sigma) & (np.asarray(sigma) > 0.0)).all():
        raise ValueError(f"bandwidth must be finite and positive, got {sigma}")
    gram = matmul(m, m.swapaxes(-1, -2))
    sq_norms = np.diagonal(gram, axis1=-2, axis2=-1)
    # Rounding can push squared distances a hair below zero; clamp so the
    # kernel never exceeds 1.
    sq_dists = np.maximum(sq_norms[..., :, None] + sq_norms[..., None, :] - 2.0 * gram, 0.0)
    scale = np.asarray(2.0 * sigma * sigma)[..., None, None]
    k = np.exp(-sq_dists / scale)
    return k, KernelTape(m=m, k=k, sigma=sigma)


def kernel_backward(tape: KernelTape, grad_k: np.ndarray) -> np.ndarray:
    """Backpropagate a kernel-matrix gradient onto the feature maps.

    With G the upstream gradient and the bandwidth held constant,

        dL/df_i = sum_j (G_ij + G_ji) * K_ij * (f_j - f_i) / sigma^2.

    The terms are added over j in order from zeros, as
    :func:`~spd_agg.linalg.matmul` adds over its inner index, each one
    stacked over samples and maps i: a stack gives each sample its own
    bits, and every temporary has the shape of ``tape.m``.  Coincident
    maps yield exact zeros.  Returns dL/dM with the shape of ``tape.m``.
    """
    grad_k = np.asarray(grad_k, dtype=np.float64)
    if grad_k.shape != tape.k.shape:
        raise ShapeMismatchError(
            f"upstream gradient shape {grad_k.shape} does not match kernel shape {tape.k.shape}"
        )
    sq_sigma = np.asarray(tape.sigma * tape.sigma)[..., None, None]
    coeff = (grad_k + grad_k.swapaxes(-1, -2)) * tape.k / sq_sigma
    out = np.zeros_like(tape.m)
    for j in range(tape.m.shape[-2]):
        out += coeff[..., :, j : j + 1] * (tape.m[..., j : j + 1, :] - tape.m)
    return out


def covariance_forward(x) -> np.ndarray:
    """Sample covariance of the per-position channel vectors.

    The columns of the reshaped map matrix are the N local features;
    normalization is by N - 1.  Returns an exactly symmetric PSD matrix (a
    stack of them for a (B, C, H, W) input), singular whenever C > N - 1.
    """
    m = as_feature_matrix(x)
    n = m.shape[-1]
    if n < 2:
        raise ValueError(f"covariance needs at least two local features, got N={n}")
    if not np.isfinite(m).all():
        raise NonFiniteError("covariance input contains non-finite values")
    centered = m - m.mean(axis=-1, keepdims=True)
    return matmul(centered, centered.swapaxes(-1, -2)) / (n - 1)


def covariance_backward(m: np.ndarray, grad_cov: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`covariance_forward` back to the feature maps."""
    m = as_feature_matrix(m)
    c, n = m.shape[-2:]
    grad_cov = np.asarray(grad_cov, dtype=np.float64)
    if grad_cov.shape != m.shape[:-2] + (c, c):
        raise ShapeMismatchError(
            f"upstream gradient shape {grad_cov.shape} does not match covariance shape "
            f"{m.shape[:-2] + (c, c)}"
        )
    centered = m - m.mean(axis=-1, keepdims=True)
    return matmul(grad_cov + grad_cov.swapaxes(-1, -2), centered) / (n - 1)


def certify(k) -> float:
    """Smallest eigenvalue of an aggregated matrix (definiteness audit)."""
    return float(sym_eigvals(k)[0])
