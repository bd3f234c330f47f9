"""Structured filtrations, conditional expectations and martingales.

Four families cover everything downstream: the matrix-corner filtration, the
classical sign (Rademacher) algebra, their tensors, and trivial-to-full
two-level filtrations.  Every structured conditional expectation has the
defining properties of one: it is idempotent, preserves the trace and is a
bimodule map over its range.
"""

import numpy as np

from ncgl import (
    cond_exp,
    make_filtration,
    martingale_from_final,
    schatten_norm,
    square_functions,
    trace,
)
from ncgl.instances import gaussian_hermitian, stream

# the corner filtration on M_4: level k keeps the k x k corner and averages
# the remaining diagonal
filt = make_filtration("corner", dim=4)
a = filt.algebra.operator([np.arange(16.0).reshape(4, 4)])
print("corner E_1 of a 4x4 counting matrix:")
print(cond_exp(filt, 1, a).data[0].real)

# E_n is idempotent, preserves the trace, and E_n(a x b) = a E_n(x) b for
# a, b in its range (here a = E_n(y), b = E_n(z))
rng = stream(3)
worst = {"idempotence": 0.0, "trace": 0.0, "bimodule": 0.0}
for fam in ("corner", "rademacher", "matrix_corner"):
    params = {"corner": {"dim": 4}, "rademacher": {"depth": 3},
              "matrix_corner": {"outer_dim": 2, "dim": 3}}[fam]
    f = make_filtration(fam, **params)
    for _ in range(20):
        n = int(rng.integers(0, f.n_levels))
        x, y, z = (gaussian_hermitian(f.algebra, rng) for _ in range(3))
        ex, a, b = (cond_exp(f, n, v) for v in (x, y, z))
        for key, dev in (("idempotence", (cond_exp(f, n, ex) - ex).entry_max()),
                         ("trace", abs(trace(ex) - trace(x))),
                         ("bimodule", (cond_exp(f, n, a @ x @ b) - a @ ex @ b).entry_max())):
            worst[key] = max(worst[key], dev)
print("worst deviation of E_n's defining properties over 60 draws:",
      ", ".join(f"{key} {dev:.2e}" for key, dev in worst.items()))

# a martingale is the sequence of conditional expectations of its final value
m = martingale_from_final(filt, gaussian_hermitian(filt.algebra, stream(4)))
print("martingale levels:", m.N + 1)
drift = max((cond_exp(filt, n, m.values[n + 1]) - m.values[n]).entry_max()
            for n in range(m.N))
print(f"martingale property drift: {drift:.2e}")

# square functions: S_N, its conditioned version, and the diagonal p-function
S, s, z = square_functions(m, p=4.0)
print("||x_N||_2 =", round(schatten_norm(m.final, 2), 6),
      " ||S_N||_2 =", round(schatten_norm(S, 2), 6),
      " (equal by orthogonality of differences)")
print("tau(S^2) - sum ||dx_k||_2^2 =",
      f"{trace(S @ S) - sum(schatten_norm(d, 2)**2 for d in m.diffs):.2e}")
