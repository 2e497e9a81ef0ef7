"""Independent forward pass of the spd-agg pipeline in plain numpy.

Nothing here imports ``spd_agg``: the benchmark checks the program's
outputs against this code, so a shared helper would let one fault hide in
both.  Where the program takes a shortcut (the Gram identity for squared
distances, a sequential rank-1 product, averaged symmetric slots), this
code takes the direct route (explicit pairwise differences, ``@``, the
upper triangle as stored).
"""

from __future__ import annotations

import numpy as np


def mean_distance_bandwidth(sq_dists: np.ndarray) -> float:
    """Mean Euclidean distance over all unordered pairs of maps."""
    upper = np.triu_indices(sq_dists.shape[0], k=1)
    return float(np.sqrt(sq_dists[upper]).mean())


def mean_squared_distance_bandwidth(sq_dists: np.ndarray) -> float:
    """The alternative convention the program does not use; the benchmark's
    self-test feeds it in as a deliberately wrong variant."""
    upper = np.triu_indices(sq_dists.shape[0], k=1)
    return float(sq_dists[upper].mean())


def head_vector(x, mix_w, mix_b, stiefel_w, bandwidth=mean_distance_bandwidth) -> np.ndarray:
    """Normalized head input for one (C0, H, W) sample.

    1x1 mixer + ReLU (skipped when ``mix_w`` is None), Gaussian kernel
    between maps, ``W^T K W``, sqrt(2)-scaled upper-triangle
    vectorization, signed square root and l2 normalization.
    """
    x = np.asarray(x, dtype=np.float64)
    m = x.reshape(x.shape[0], -1)
    if mix_w is not None:
        m = np.maximum(mix_w @ m + mix_b[:, None], 0.0)
    diffs = m[:, None, :] - m[None, :, :]
    sq_dists = (diffs * diffs).sum(axis=2)
    sigma = bandwidth(sq_dists)
    k = np.exp(-sq_dists / (2.0 * sigma * sigma))
    y = stiefel_w.T @ k @ stiefel_w
    rows, cols = np.triu_indices(y.shape[0])
    v = y[rows, cols] * np.where(rows == cols, 1.0, np.sqrt(2.0))
    v = np.sign(v) * np.sqrt(np.abs(v))
    return v / np.linalg.norm(v)


def logits(x, arrays: dict, bandwidth=mean_distance_bandwidth) -> np.ndarray:
    """Affine class scores for one sample.

    ``arrays`` holds plain numpy parameters under the checkpoint block
    names: ``mix.weights``/``mix.bias`` (optional), ``stiefel.w``,
    ``dense.weights``, ``dense.bias``.
    """
    v = head_vector(
        x, arrays.get("mix.weights"), arrays.get("mix.bias"), arrays["stiefel.w"], bandwidth
    )
    return arrays["dense.weights"] @ v + arrays["dense.bias"]


def accuracy(samples, labels, arrays: dict) -> float:
    """Fraction of samples whose reference argmax matches the label."""
    correct = sum(
        int(np.argmax(logits(x, arrays))) == int(label) for x, label in zip(samples, labels)
    )
    return correct / len(labels)


def max_logit_error(program: np.ndarray, reference: np.ndarray) -> float:
    """Largest absolute logit difference relative to the largest reference
    logit.  Relative, because a briefly trained head gives logits near
    1e-4, where an absolute tolerance would pass anything."""
    program = np.asarray(program, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = max(float(np.abs(reference).max()), np.finfo(np.float64).tiny)
    return float(np.abs(program - reference).max() / scale)
