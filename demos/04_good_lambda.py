"""The good-lambda machinery: testing conditions, the two distribution
inequalities, and the moment bound with explicit constants.

A triple (x_N, y, z_N) is admissible when x_N controls the future quadratic
mass of y relative to the level-1 projections and z_N dominates each squared
difference in every compression.  Admissible triples satisfy a trace bound at
level 1, a tail bound at every beta > 1, and for p > 2 the full moment
estimate with constant C_{p,B}, simplifying to 12p/sqrt(1-(1+1/p)^{2-p}) at
B = 1 + 1/p.
"""

import numpy as np

from ncgl import (
    Triple,
    check_strong_testing,
    check_testing,
    moment_constant,
    square_function,
    verify_core,
    verify_moment,
    verify_tail,
)
from ncgl.instances import stream, strong_triple_parts, triple_family

filt = triple_family(3)
x, y, z = strong_triple_parts(filt, stream(7))
t = Triple(x, y, z)

# three trials as one direct sum, x_N halved in the second and z_N in the
# third: each check gives one entry per trial, and each label says what that
# trial's bounds rest on
xs, ys, zs = strong_triple_parts(filt, stream(7), stream(7, 1), stream(7, 2))
family = Triple(xs.summand_scaled([1.0, 0.5, 1.0]), ys, zs.summand_scaled([1.0, 1.0, 0.5]))
np.set_printoptions(precision=3)
ok, mx, mz = check_strong_testing(family)
print(f"strong testing conditions: {ok} (PSD margins {mx}, {mz})")
ok, s1, s2 = check_testing(family)
print(f"trace testing conditions: {ok} (slack {s1}, least eigenvalue {s2})")
print(f"labels: {family.hypothesis}")

(rep,) = verify_core(t)
print(f"core bound: {rep.lhs:.4f} <= {rep.rhs:.4f} "
      f"({rep.meta['hypothesis']})")

for beta in (1.5, 2.0, 4.0):
    (rep,) = verify_tail(t, beta)
    print(f"tail bound at beta={beta}: tau(I-Q_N) = {rep.lhs:.4f} <= "
          f"{rep.rhs:.4f} (constant {rep.constant:.2f})")

# the moment bound on a Burkholder-Gundy triple x = z = S_N(y)
s = square_function(y)
bg = Triple(s, y, s)
for p in (3.0, 4.0):
    c_pb, simplified = moment_constant(p, 1.0 + 1.0 / p)
    reps = verify_moment(bg, p)
    print(f"p={p}: ||a+||={reps.max_plus.lhs:.3f}, ||a-||={reps.max_minus.lhs:.3f}, "
          f"||y||={reps.moment.lhs:.3f} <= C_pB*(...) = {reps.moment.rhs:.3f} "
          f"(C_pB={c_pb:.1f}, simplified={simplified:.1f})")
