"""Cuculescu projections, their two-parameter correction, and the weak
maximal operator.

R_n cuts the martingale at a level by a recursive spectral compression; it is
the noncommutative version of the running event "stayed below the level".
The corrected family P_n^{B^k} (meets over all higher levels) is monotone in
both time and level, and its increments assemble into the staircase operator
a_N^+ that plays the role of a one-sided maximal function.
"""

import numpy as np

from ncgl import corrected_p, cuculescu_r, fubini_identity_gap, trace, weak_max
from ncgl import make_filtration, min_eigenvalue
from ncgl.instances import random_martingale, stream

filt = make_filtration("matrix_corner", outer_dim=2, dim=3)
y = random_martingale(filt, stream(5), sup_norm=2.5)

seq = cuculescu_r(y, level=1.0)
print("tau(I - R_N) at level 1:",
      round(trace(filt.algebra.identity() - seq.final()), 6))
print("monotone: min eig of R_{n-1} - R_n >= ",
      f"{min(min_eigenvalue(seq.R(n - 1) - seq.R(n)) for n in range(y.N + 1)):.1e}")

# on a classical (diagonal) algebra the recursion is the indicator of the
# running maximum staying below the level, and P coincides with R exactly
dfilt = make_filtration("rademacher", depth=4)
dy = random_martingale(dfilt, stream(6), sup_norm=2.0)
dseq = cuculescu_r(dy, 1.0)
vals = np.array([[v.data[b][0, 0].real for b in range(16)] for v in dy.values])
classical = (vals.max(axis=0) < 1.0).astype(float)
got = np.array([dseq.final().data[b][0, 0].real for b in range(16)])
print("diagonal recursion equals the classical indicator:",
      bool(np.array_equal(classical, got)))

cp = corrected_p(dy, B=2.0)
print("corrected grid spans k in", (cp.k_min, cp.k_top))

# the weak maximal operator: spectral staircase of the running maximum
wm = weak_max(y, B=2.0, sign="+")
print("a_N^+ spectrum is nonnegative:", min_eigenvalue(wm.operator) > -1e-12)
print("summation identity (geometric tail included) gap at p=4:",
      f"{fubini_identity_gap(wm, 4.0):.2e}")
