"""Independent reference implementations and finite-difference helpers.

These deliberately recompute everything the slow, obvious way (entrywise
loops, explicit definitions) so agreement with the library is evidence,
not tautology.  :func:`run_child` runs a test's code in a fresh
interpreter, for what only a new process shows.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import spd_agg
from spd_agg.kernel import as_feature_matrix, compute_sigma
from spd_agg.linalg import matmul, seeded_rng


def matmul_triple_loop(a, b):
    """Naive product with sequential accumulation over the inner index."""
    m, kk = a.shape
    n = b.shape[1]
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            s = 0.0
            for k in range(kk):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


def sigma_double_loop(m):
    """Mean pairwise map distance, accumulated pair by pair."""
    c = m.shape[0]
    total = 0.0
    count = 0
    for i in range(c):
        for j in range(i + 1, c):
            total += np.sqrt(((m[i] - m[j]) ** 2).sum())
            count += 1
    return total / count


def kernel_entrywise(m, sigma):
    """Gaussian kernel evaluated entry by entry from explicit differences."""
    c = m.shape[0]
    k = np.empty((c, c))
    for i in range(c):
        for j in range(c):
            k[i, j] = np.exp(-((m[i] - m[j]) ** 2).sum() / (2.0 * sigma * sigma))
    return k


def kernel_backward_loop(m, k, sigma, grad_k):
    """dL/df_i = sum_j (G_ij + G_ji) K_ij (f_j - f_i) / sigma^2, per map."""
    c = m.shape[0]
    out = np.zeros_like(m)
    for i in range(c):
        for j in range(c):
            out[i] += (grad_k[i, j] + grad_k[j, i]) * k[i, j] * (m[j] - m[i]) / sigma**2
    return out


# The formulas below are the library's vectorized forms, built from fresh
# temporaries and kept verbatim: the current forms must match them bit for
# bit.  ``kernel_backward_formula`` is the earlier difference form of the
# kernel backward, which the Gram form matches to a stated bound.


def kernel_forward_formula(x, sigma=None):
    """(K, sigma) from fresh temporaries: clamped squared distances from
    the Gram identity, then exp(-d / (2 sigma^2))."""
    m = as_feature_matrix(x)
    gram = matmul(m, m.swapaxes(-1, -2))
    sq_norms = np.diagonal(gram, axis1=-2, axis2=-1)
    sq_dists = np.maximum(sq_norms[..., :, None] + sq_norms[..., None, :] - 2.0 * gram, 0.0)
    if sigma is None:
        sigma = compute_sigma(sq_dists)
    scale = np.asarray(2.0 * sigma * sigma)[..., None, None]
    return np.exp(-sq_dists / scale), sigma


def kernel_backward_formula(m, k, sigma, grad_k):
    """One stacked rank-1 update per map j, added in order from zeros."""
    sq_sigma = np.asarray(sigma * sigma)[..., None, None]
    coeff = (grad_k + grad_k.swapaxes(-1, -2)) * k / sq_sigma
    out = np.zeros_like(m)
    for j in range(m.shape[-2]):
        out += coeff[..., :, j : j + 1] * (m[..., j : j + 1, :] - m)
    return out


def kernel_backward_gram_formula(m, k, sigma, grad_k):
    """C M - (sum_j C_ij) f_i, with C zeroed where K == 1 and the row sums
    by one sequential np.cumsum."""
    sq_sigma = np.asarray(sigma * sigma)[..., None, None]
    coeff = np.where(k == 1.0, 0.0, (grad_k + grad_k.swapaxes(-1, -2)) * k / sq_sigma)
    return matmul(coeff, m) - np.cumsum(coeff, axis=-1)[..., -1:] * m


def vectorize_backward_formula(grad_v, c):
    """The upper triangle of grad (over sqrt(2) off the diagonal), plus a
    transposed copy of it whose diagonal is zeroed."""
    rows, cols = np.triu_indices(c)
    upper = np.zeros(grad_v.shape[:-1] + (c, c))
    upper[..., rows, cols] = np.where(rows == cols, grad_v, grad_v / np.sqrt(2.0))
    lower = upper.swapaxes(-1, -2).copy()
    diag = np.arange(c)
    lower[..., diag, diag] = 0.0
    return upper + lower


def transform_param_grad_formula(t, g):
    """2 T^T G, with T^T copied to C order."""
    return 2.0 * matmul(t.swapaxes(-1, -2), g)


def dense_logits_row_formula(v, weights, bias):
    """W v + b as the row product v W^T, then plus the bias."""
    return matmul(v[..., None, :], weights.T)[..., 0, :] + bias


def dense_input_grad_formula(weights, dz):
    """W^T dz as one rank-1 update per class."""
    return matmul(weights.T, dz[..., :, None])[..., 0]


def ordered_sum_formula(total, stack):
    """total + stack[0] + stack[1] + ... by one sequential np.cumsum."""
    if total is not None:
        stack = np.concatenate([total[None], stack])
    return np.cumsum(stack, axis=0)[-1]


def synth_generate_loop(num_classes, per_class, c0, h, w, seed):
    """``synth_generate`` as one draw and one full product per sample:
    (samples, labels)."""
    rng = seeded_rng(seed)
    factors = []
    for _ in range(num_classes):
        a = rng.standard_normal((c0, c0))
        factors.append(np.linalg.cholesky(matmul(a, a.T) + 0.1 * np.eye(c0)))
    samples = np.empty((num_classes * per_class, c0, h, w), dtype=np.float32)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    i = 0
    for k in range(num_classes):
        for _ in range(per_class):
            draws = matmul(factors[k], rng.standard_normal((c0, h * w)))
            # stored as float32, as on disk, so disk round-trips are exact
            samples[i] = draws.reshape(c0, h, w)
            labels[i] = k
            i += 1
    return samples, labels


def covariance_inner_products(m):
    """Covariance as pairwise inner products of centered, scaled maps."""
    c, n = m.shape
    centered = [m[i] - m[i].mean() for i in range(c)]
    cov = np.empty((c, c))
    for i in range(c):
        for j in range(c):
            cov[i, j] = np.dot(centered[i] / np.sqrt(n - 1), centered[j] / np.sqrt(n - 1))
    return cov


def central_diff(f, x, h=1e-5):
    """Entrywise central differences of a scalar function of an array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        up = f(x)
        flat_x[i] = orig - h
        down = f(x)
        flat_x[i] = orig
        flat_g[i] = (up - down) / (2.0 * h)
    return grad


def rel_err(analytic, numeric):
    """Max elementwise |a - n| / max(1, |a|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    return float((np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))).max())


def random_spd(rng, n, jitter=0.5):
    a = rng.standard_normal((n, n))
    return a @ a.T + jitter * np.eye(n)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


#: Tolerance of the adjoint properties <J x, y> = <x, J^T y>, relative
#: to a norm bound on the terms of both sides.
ADJOINT_RTOL = 1e-10


def adjoint_gap(jx, y, pairs) -> float:
    """|<J x, y> - <x, J^T y>|; ``pairs`` holds (block of x, same block
    of J^T y)."""
    return abs(float(np.vdot(jx, y)) - sum(float(np.vdot(x, g)) for x, g in pairs))


def glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def run_child(code: str, *args) -> str:
    """The standard output of ``code`` run by a fresh interpreter, as
    ``spd-agg`` runs, on this checkout's ``src/``."""
    src = Path(spd_agg.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout
