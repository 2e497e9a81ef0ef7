"""Dense float64 linear-algebra primitives used by every layer.

All functions operate on plain numpy arrays.  Reductions that feed
training use a fixed summation order, so repeated runs (and different
BLAS thread counts) produce bit-identical results; nothing here chases
BLAS-level throughput.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError, ShapeMismatchError, SingularMatrixError

__all__ = [
    "QrFactors",
    "matmul",
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
    bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatchError(f"operands must be at least 2-D, got {a.shape} and {b.shape}")
    (m, k), (k2, n) = a.shape[-2:], b.shape[-2:]
    if k != k2:
        raise ShapeMismatchError(f"inner dimensions differ: {m}x{k} times {k2}x{n}")
    b = np.concatenate((b, b), axis=-1) if n == 1 else np.ascontiguousarray(b)
    return np.einsum("...ik,...kj->...ij", np.ascontiguousarray(a), b)[..., :n]


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
