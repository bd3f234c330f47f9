"""Weighted block algebras and spectral calculus.

A finite tracial algebra here is a direct sum of complex matrix blocks with
positive weights; the trace is the weighted sum of block traces.  This script
walks through traces, Schatten norms, spectral projections with the exact
complement rule, functional calculus, and projection meets.
"""

import numpy as np

from ncgl import (
    Interval,
    TracialAlgebra,
    proj_meet,
    psd_sqrt,
    schatten_norm,
    spectral_projection,
    trace,
)
from ncgl.instances import gaussian_hermitian, stream

# one 3x3 block of weight 1 next to a 2x2 block of weight 1/2
alg = TracialAlgebra(dims=(3, 2), weights=(1.0, 0.5))
print("trace of the identity:", trace(alg.identity()))

x = alg.operator([np.diag([3.0, -4.0, 0.0]), np.zeros((2, 2))])
for p in (1, 2, np.inf):
    print(f"  ||diag(3,-4,0)||_{p} =", schatten_norm(x, p))

# spectral projections: the pair (-inf, c) / [c, inf) always sums to I
a = gaussian_hermitian(alg, stream(1))
low = spectral_projection(a, Interval.below(0.0))
high = spectral_projection(a, Interval.at_least(0.0))
print("negative-part rank:", low.rank(),
      "| complement exact:", (low + high).allclose(alg.identity(), 1e-12))

# functional calculus: square root of a PSD operator squares back
psd = a @ a
root = psd_sqrt(psd)
print("sqrt squares back to within",
      f"{(root @ root - psd).entry_max():.2e}")

# meets of projections = intersection of ranges
b = gaussian_hermitian(alg, stream(2))
e = spectral_projection(a, Interval.below(0.3))
f = spectral_projection(b, Interval.below(0.3))
m = proj_meet(e, f)
print("rank(e) =", e.rank(), " rank(f) =", f.rank(),
      " rank(e ^ f) =", m.rank())
