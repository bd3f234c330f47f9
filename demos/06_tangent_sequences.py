"""Tangent sequences: the weak-type counterexample and the positive results.

Two adapted sequences are tangent when their conditional spectral data agree
at every step.  Below p = 2 no comparison of tangent martingales can hold:
the sign/arrow pair drives the weak-type ratio (N+1)/(2 sqrt(N)) to infinity.
From p = 2 on, conditional square domination gives an O(p) comparison, sums
of tangent positive operators compare with O(p), and the adapted refinement
of Doob's inequality follows.
"""

from ncgl import (
    check_tangent,
    refined_doob,
    tangent_counterexample,
    verify_dominated,
    verify_positive_tangent,
)
from ncgl.applications import counterexample_pair
from ncgl.instances import (
    adapted_psd_sequence,
    arrow_martingale_pair,
    classical_tangent_positive_pair,
    stream,
)
from ncgl.filtration import make_filtration

# the counterexample: tangent martingales whose weak-type ratio
# tau(I_[1,inf)(|y|)) / tau(|x|) = (N+1)/(2 sqrt(N)) grows without bound
print("  N   tau(I_[1,inf)(|y|))   tau(|x|)    ratio")
for N in (3, 5, 7, 9, 11, 13, 25, 51, 101):
    (r,) = tangent_counterexample(N, p_grid=(1.5,))
    print(f"{N:3d}   {r.weak_y:8.1f}             {r.l1_x:8.4f}   {r.weak_y / r.l1_x:.4f}")

x, y, filt = counterexample_pair(5)
ok, dev = check_tangent(x.diffs, y.diffs, filt)
print(f"the pair is tangent (max deviation {dev:.1e})")

# arrow martingales: flipping the hook signs is a tangent transformation
a, b, gammas = arrow_martingale_pair(6, stream(10))
ok, dev = check_tangent(a.diffs, b.diffs, a.filtration)
rep = verify_dominated(a, b, p=4.0)
print(f"arrow pair with signs {gammas}: tangent={ok}, "
      f"dominated bound {rep.lhs:.3f} <= {rep.rhs:.3f}")

# sums of tangent positive operators, two trials side by side as one direct
# sum: one report per p for each trial in turn, each decided as it is alone
u, v, f = classical_tangent_positive_pair(4, 2, stream(11), stream(13))
for k, rep in enumerate(verify_positive_tangent(u, v, f, p_grid=(3.0, 4.0))):
    print(f"positive tangent sums, trial {k // 2}, p={rep.meta['p']:g}: "
          f"{rep.lhs:.3f} <= {rep.rhs:.3f} ({rep.meta['hypothesis']})")

# the adapted refinement of Doob's inequality: O(p) instead of O(p^2)
base = make_filtration("corner", dim=4)
u = adapted_psd_sequence(base, stream(12))
rep = refined_doob(u, base, p=4.0)
print(f"refined Doob p=4: {rep.lhs:.3f} <= {rep.rhs:.3f} "
      f"(constant {rep.constant:.1f})")
