"""Dense float64 linear-algebra primitives used by every layer.

All functions operate on plain numpy arrays.  Reductions that feed
training use a fixed summation order, so repeated runs (and different
BLAS thread counts) produce bit-identical results; nothing here chases
BLAS-level throughput.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError, SingularMatrixError

__all__ = [
    "QrFactors",
    "matmul",
    "gram",
    "symmetrize",
    "qr_reduced",
    "sym_eigvals",
    "seeded_rng",
    "frobenius",
]

#: |r_jj| below this multiple of ||a||_F marks a rank-deficient column.
QR_RANK_TOL = 1e-12

#: Allowed asymmetry ||a - a^T||_F for the symmetric eigensolver.
SYM_TOL = 1e-10

#: :func:`matmul` runs a 2-D left operand times a stack whose rows are
#: shorter than this as one product over the stack laid side by side.
FOLD_ROWS = 64


class QrFactors(NamedTuple):
    """Reduced QR factors; ``r`` has a strictly positive diagonal (unique form)."""

    q: np.ndarray
    r: np.ndarray


def _as_2d(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeMismatchError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed, sequential summation order.

    Every entry has the bits of the naive ``s += a[i, k] * b[k, j]``
    triple loop.  This is ``np.einsum`` on C-contiguous copies, which
    numpy iterates i, k, j with j innermost.  On other layouts, and for
    one output column, einsum reduces k innermost in pairs, so a
    one-column product runs as column 0 of a two-column one.
    This assumes einsum's kernels do not fuse multiply-add; the bit tests
    in ``tests/test_linalg.py`` fail on a numpy build whose kernels do.
    Axes before the last two are stack axes that broadcast as in
    ``np.matmul``; a stacked product equals the products of its matrices
    bit for bit.  A 2-D ``a`` times a stack whose rows are shorter than
    :data:`FOLD_ROWS` is one product ``a`` times the stack laid side by
    side, a contiguous (k, stack, n) copy: the samples join j in the inner
    loop, and k stays outside it, so each entry adds its terms in the
    same order.  The result is a view of it with the stack axes in front.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"operands must be at least 2-D, got {a.shape} and {b.shape}")
    (m, k), (k2, n) = a.shape[-2:], b.shape[-2:]
    if k != k2:
        raise ShapeMismatchError(f"inner dimensions differ: {m}x{k} times {k2}x{n}")
    if n == 1:
        b = np.concatenate((b, b), axis=-1)
    a = np.ascontiguousarray(a)
    if a.ndim == 2 and b.ndim > 2 and n < FOLD_ROWS:
        side = np.ascontiguousarray(np.moveaxis(b, -2, 0))
        return np.moveaxis(np.einsum("ik,k...j->i...j", a, side), 0, -2)[..., :n]
    return np.einsum("...ik,...kj->...ij", a, np.ascontiguousarray(b))[..., :n]


def gram(m: np.ndarray) -> np.ndarray:
    """``M M^T`` of a matrix, or of each matrix of a stack, with the bits
    of ``matmul(m, m.swapaxes(-1, -2))``.  A stack of at least 2C samples
    (M is C x N) runs as one ``np.einsum`` on a samples-last contiguous
    copy (C, N, stack): the samples are the inner loop and k stays outside
    it, so each entry adds its k terms in order from zero.  Smaller stacks,
    whose inner loop would be too short to pay for the copy, and one
    matrix, go through :func:`matmul`.  The result is a view with the
    stack axes in front."""
    m = np.asarray(m, dtype=np.float64)
    if math.prod(m.shape[:-2]) < 2 * m.shape[-2]:
        return matmul(m, m.swapaxes(-1, -2))
    last = np.ascontiguousarray(np.moveaxis(m, (-2, -1), (0, 1)))
    return np.moveaxis(np.einsum("ik...,jk...->ij...", last, last), (0, 1), (-2, -1))


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 on the last two axes, halved in place: bit-for-bit
    symmetric, since the two mirrored sums add the same two values."""
    out = a + a.swapaxes(-1, -2)
    out /= 2.0
    return out


def qr_reduced(a: np.ndarray) -> QrFactors:
    """Reduced QR via Householder reflections, sign-fixed so diag(r) > 0.

    The positive-diagonal convention makes the factorization unique and
    the derived retraction a deterministic function.

    Raises
    ------
    NonFiniteError
        If ``a`` holds a NaN or an infinity.
    SingularMatrixError
        If any |r_jj| <= QR_RANK_TOL * ||a||_F (numerical rank deficiency).
    """
    a = _as_2d(a, "qr input")
    n, p = a.shape
    if n < p:
        raise ShapeMismatchError(f"qr_reduced needs rows >= cols, got {n}x{p}")
    if not np.isfinite(a).all():
        raise NonFiniteError("qr input contains non-finite values")
    q, r = np.linalg.qr(a, mode="reduced")
    diag = np.diag(r)
    tol = QR_RANK_TOL * frobenius(a)
    deficient = np.abs(diag) <= tol
    if deficient.any():
        j = int(np.argmax(deficient))
        raise SingularMatrixError(
            f"column {j} is numerically rank deficient: |r_jj|={abs(diag[j]):.3e} <= {tol:.3e}"
        )
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return QrFactors(q=q * signs[np.newaxis, :], r=r * signs[:, np.newaxis])


def sym_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, ascending.

    Certification-only helper (nothing on the training path depends on
    it).  Rejects inputs whose asymmetry exceeds ``SYM_TOL``.
    """
    a = _as_2d(a, "eigvals input")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatchError(f"eigvals input must be square, got {a.shape}")
    asym = frobenius(a - a.T)
    if asym > SYM_TOL:
        raise ValueError(f"matrix is not symmetric: ||a - a^T||_F = {asym:.3e} > {SYM_TOL:g}")
    return np.linalg.eigvalsh(a)


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic PCG64 stream; one seed, one bit-exact sequence."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(int(seed)))


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm as a Python float."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.float64)))
