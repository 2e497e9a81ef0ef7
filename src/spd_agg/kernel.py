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

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError
from .linalg import gram, matmul, sym_eigvals

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


@functools.lru_cache(maxsize=None)
def _pairs(c: int) -> np.ndarray:
    """Flat row-major indices of the strict upper triangle of a c x c
    matrix, read-only as every caller shares them."""
    rows, cols = np.triu_indices(c, k=1)
    index = rows * c + cols
    index.flags.writeable = False
    return index


def compute_sigma(sq_dists) -> float | np.ndarray:
    """Mean distance between the feature maps, one per sample of a stack,
    from the clamped (..., C, C) squared distances of :func:`kernel_forward`.
    The square roots of the upper triangle are added in row-major pair
    order by a sequential ``np.cumsum`` over each sample's contiguous
    vector, so the bits do not depend on the stack size.  All maps
    coinciding give the floor ``SIGMA_FLOOR``; a negative squared distance
    is refused with ``ValueError`` naming the first sample that has one.
    """
    shape = np.shape(sq_dists)
    if len(shape) < 2 or shape[-1] != shape[-2]:
        raise ShapeMismatchError(f"expected (..., C, C) squared distances, got shape {shape}")
    c = shape[-1]
    if c < 2:
        raise ValueError(f"bandwidth needs at least two feature maps, got {c}")
    index = _pairs(c)
    pairs = np.take(np.reshape(sq_dists, shape[:-2] + (c * c,)), index, axis=-1)
    negative = (pairs < 0.0).any(axis=-1)
    if negative.any():
        first = np.argwhere(negative)[0]
        sample = f" of sample {', '.join(map(str, first))}" if first.size else ""
        raise ValueError(
            f"squared distances{sample} must be >= 0, got {pairs[tuple(first)].min()}"
        )
    mean = np.cumsum(np.sqrt(pairs), axis=-1)[..., -1] / len(index)
    return np.maximum(mean, SIGMA_FLOOR)


def kernel_forward(x, sigma: float | np.ndarray | None = None) -> tuple[np.ndarray, KernelTape]:
    """Gaussian-kernel Gram matrix between the feature maps of ``x``.

    K_ij = exp(-||f_i - f_j||^2 / (2 sigma^2)) computed densely through
    the Gram identity ||f_i - f_j||^2 = g_ii + g_jj - 2 g_ij with
    g = M M^T, so the whole matrix costs one matrix product plus
    elementwise exponentials.  Diagonal entries are exactly 1 (the
    exponent cancels identically), the result is exactly symmetric as
    computed (mirrored entries swap the operands of every product and
    sum), and all entries lie in (0, 1].  The clamped squared distances,
    the exponent d / (-2 sigma^2) (which rounds exactly as
    -d / (2 sigma^2) does) and the exponential are formed in one buffer,
    from a copy of the Gram diagonal and the Gram product doubled in
    place; the bandwidth is taken from the distances before the divide.

    Parameters
    ----------
    x : (C, H, W) or (C, N) array with C >= 2, N >= 2, finite entries, or
        a (B, C, H, W) stack of samples, which gives a stack of B kernel
        matrices with one bandwidth each.
    sigma : optional bandwidth override, finite and positive: a scalar for
        one sample, shape (B,) for a stack.  By default :func:`compute_sigma`
        takes it from K's squared distances; finite-difference harnesses
        pass a reference forward's, so it stays frozen while inputs move.
    """
    m = as_feature_matrix(x)
    c, n = m.shape[-2:]
    if c < 2 or n < 2:
        raise ValueError(f"kernel aggregation needs C >= 2 and N >= 2, got C={c}, N={n}")
    if not np.isfinite(m).all():
        raise NonFiniteError(
            "kernel aggregation input contains non-finite values", layer="kernel aggregation input"
        )
    inner = gram(m)
    sq_norms = np.diagonal(inner, axis1=-2, axis2=-1).copy()
    inner *= 2.0
    k = np.add(sq_norms[..., :, None], sq_norms[..., None, :])
    k -= inner
    # Rounding can push squared distances a hair below zero; clamp so the
    # kernel never exceeds 1.
    np.maximum(k, 0.0, out=k)
    if sigma is None:
        sigma = compute_sigma(k)
    elif np.shape(sigma) != m.shape[:-2]:
        raise ShapeMismatchError(
            f"bandwidth shape {np.shape(sigma)} does not match the stack shape {m.shape[:-2]}"
        )
    elif not (np.isfinite(sigma) & (np.asarray(sigma) > 0.0)).all():
        raise ValueError(f"bandwidth must be finite and positive, got {sigma}")
    # d / (-2 sigma^2) rounds exactly as -d / (2 sigma^2) does.
    k /= -np.asarray(2.0 * sigma * sigma)[..., None, None]
    np.exp(k, out=k)
    return k, KernelTape(m=m, k=k, sigma=sigma)


def kernel_backward(tape: KernelTape, grad_k: np.ndarray) -> np.ndarray:
    """Backpropagate a kernel-matrix gradient onto the feature maps.

    With G the upstream gradient and the bandwidth held constant,

        dL/df_i = sum_j C_ij (f_j - f_i),  C = (G + G^T) * K / sigma^2,

    which the Gram identity turns into dL/dM = C M - (sum_j C_ij) * M:
    one :func:`~spd_agg.linalg.matmul` and one sequential ``np.cumsum``
    row sum along the contiguous last axis, so a stack gives each sample
    its own bits.  C_ij is zeroed where K_ij == 1, that is where the
    forward found the maps coincident (a squared distance of 0, or below
    about 1e-16 of 2 sigma^2): those terms are exact zeros in the
    difference form, and with all maps coincident sigma sits at
    ``SIGMA_FLOOR``, where the unmasked C M and rowsum * M would cancel
    only up to rounding of about 1e24 G.  Returns dL/dM with the shape
    of ``tape.m``.
    """
    grad_k = np.asarray(grad_k, dtype=np.float64)
    if grad_k.shape != tape.k.shape:
        raise ShapeMismatchError(
            f"upstream gradient shape {grad_k.shape} does not match kernel shape {tape.k.shape}"
        )
    coeff = grad_k + grad_k.swapaxes(-1, -2)
    coeff *= tape.k
    coeff /= np.asarray(tape.sigma * tape.sigma)[..., None, None]
    coeff[tape.k == 1.0] = 0.0
    out = matmul(coeff, tape.m)
    out -= np.cumsum(coeff, axis=-1)[..., -1:] * tape.m
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
        raise NonFiniteError("covariance input contains non-finite values", layer="covariance input")
    centered = m - m.mean(axis=-1, keepdims=True)
    return gram(centered) / (n - 1)


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
