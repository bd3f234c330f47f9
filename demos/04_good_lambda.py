"""The good-lambda machinery: testing conditions, the two distribution
inequalities, and the moment bound with explicit constants.

A triple (x_N, y, z_N) is admissible when x_N controls the future quadratic
mass of y relative to the level-1 projections and z_N dominates each squared
difference in every compression.  Admissible triples satisfy a trace bound at
level 1, a tail bound at every beta > 1, and for p > 2 the full moment
estimate with constant C_{p,B}, simplifying to 12p/sqrt(1-(1+1/p)^{2-p}) at
B = 1 + 1/p.
"""

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

(ok,), (mx,), (mz,) = check_strong_testing(t)  # one entry per summand
print(f"strong testing conditions: {ok} (PSD margins {mx:.1e}, {mz:.1e})")
ok, s1, s2 = check_testing(t)
print(f"trace testing conditions: {ok} (slack {s1:.3e}, least eigenvalue {s2:.3e})")

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
