"""Why aggregate feature maps with a Gaussian kernel instead of a covariance.

A stack of C feature maps over N spatial positions can be summarized by
the C x C covariance of its local features, but that matrix has rank at
most min(C, N - 1): with more channels than positions it is singular and
the usual geometry of definite matrices breaks down.  The Gaussian-kernel
Gram matrix between the maps is positive definite whenever the maps are
pairwise distinct, no matter how C compares to N, and it captures
nonlinear relationships between maps on top of the linear ones.

Run:  python3 demos/01_kernel_vs_covariance.py
"""

import numpy as np

from spd_agg import certify, covariance_forward, kernel_forward, seeded_rng

rng = seeded_rng(0)

# --- a comfortable regime: more positions than channels --------------------
x = rng.standard_normal((8, 6, 6))  # C=8 maps, N=36 positions
kernel, tape = kernel_forward(x)
cov = covariance_forward(x)
print("C=8, N=36 (N >> C)")
print(f"  bandwidth (mean pairwise map distance): {tape.sigma:.4f}")
print(f"  kernel     min eigenvalue: {certify(kernel):.3e}")
print(f"  covariance min eigenvalue: {certify(cov):.3e}  (nonsingular here)")

# --- the regime that motivates the kernel: C >> N --------------------------
x = rng.standard_normal((64, 2, 2))  # C=64 maps, N=4 positions
kernel, _ = kernel_forward(x)
cov = covariance_forward(x)
print("\nC=64, N=4 (C >> N)")
print(f"  kernel     min eigenvalue: {certify(kernel):.3e}  (still strictly positive)")
print(f"  covariance min eigenvalue: {certify(cov):.3e}  (rank <= N-1 = 3: singular)")

# --- kernel entries are bounded similarities -------------------------------
print("\nkernel entries lie in (0, 1], diagonal exactly 1:")
print(f"  min entry {kernel.min():.4f}, max entry {kernel.max():.4f}, "
      f"max |diag - 1| = {np.abs(np.diag(kernel) - 1).max():.1e}")

# --- the bandwidth adapts to scale ------------------------------------------
x_small = rng.standard_normal((6, 3, 3))
for scale in (0.1, 1.0, 10.0):
    print(f"  sigma at input scale {scale:>4}: {kernel_forward(x_small * scale)[1].sigma:.4f}")
print("(the kernel itself is scale-invariant: distances and bandwidth scale together)")
