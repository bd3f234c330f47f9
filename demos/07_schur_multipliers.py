"""Reversed-L Schur multipliers and triangular truncation.

A reversed-L pattern is constant on L-shaped hooks.  Multiplying by such a
pattern averages a matrix with a sign-flipped tangent martingale partner, so
the multiplier norm on S^p grows at most linearly in p; interlacing zero
rows and columns shows the triangular projection embeds into this class, so
the linear order is sharp.
"""

import numpy as np

from ncgl import (
    interlace_pattern,
    interlace_t,
    reversed_l_pattern,
    schur_multiply,
    schur_norm_lower,
    triangular_pattern,
    triangular_projection,
    verify_reversed_L,
)
from ncgl.schur import reversed_l_bound
from ncgl.instances import stream

rng = stream(13)

# the linking identity: m * t(A) = t(T(A)) exactly
a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
m = interlace_pattern(8)
exact = np.array_equal(schur_multiply(m, interlace_t(a)),
                       interlace_t(triangular_projection(a)))
print("interlacing identity m * t(A) = t(T(A)) exact:", exact)

# a random reversed-L pattern verified through the martingale splitting
pat = reversed_l_pattern(rng.integers(0, 2, size=7), rng.integers(0, 2, size=8))
print("pattern hooks:", pat.entries[7, :7].astype(int).tolist(),
      "diagonal:", np.diag(pat.entries).astype(int).tolist())
rep = verify_reversed_L(pat, p=4.0, trials=50, seed=2)
print(f"worst attained ratio {rep.lhs:.3f} <= theorem bound {rep.rhs:.1f}; "
      f"splitting identity deviation {rep.meta['identity_dev']:.1e}")

# numerical lower bounds on the triangular multiplier norm grow with p
pat = triangular_pattern(16)
prev = None
print(" p    attained lower bound    theorem upper bound")
for p in (4.0, 8.0, 16.0):
    val, arg = schur_norm_lower(pat, p, budget=12, restarts=2, seed=0,
                                starts=[prev] if prev is not None else None)
    print(f"{p:4.0f}   {val:8.4f}                {reversed_l_bound(p):8.1f}")
    prev = arg
