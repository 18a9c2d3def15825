"""Scalar curvature of diagonal left-invariant metrics, computed two ways.

The closed formula is a single contraction of squared structure constants
against the eigenvalue ratios.  The independent check rebuilds the number
from Koszul's formula: frame brackets, connection coefficients, and the
trace of the curvature tensor, taken inside its contraction.  Agreement
across random metrics is the evidence that both are right.
"""

import numpy as np

import liecurv as lc

su2 = lc.build_su(2)
# Reference metric: one eighth of the negative Killing form, the round
# normalization in which the Pauli frame is orthonormal.
model = lc.binormalize(su2, lc.killing_metric(su2, 0.125))

ones = np.ones(3)
print("round reference:")
print("  closed form ->", lc.scalar_curvature_closed(model, ones).R)
print("  koszul      ->", lc.scalar_curvature_koszul(model, ones).R)

# Squash one direction: a Berger-sphere-like family.
for lam in ([1.0, 1.0, 2.0], [0.5, 0.5, 1.0], [0.2, 0.2, 0.5]):
    closed = lc.scalar_curvature_closed(model, lam).R
    koszul = lc.scalar_curvature_koszul(model, lam).R
    print(f"  lam={lam}: closed {closed:+.6f}, koszul {koszul:+.6f}, "
          f"diff {abs(closed - koszul):.2e}")

# The same connection gives the full curvature tensor; on the round
# reference all frame planes have sectional curvature one.
conn = lc.frame_connection(model, ones)
print("sectional curvatures:", [round(float(conn.riem[i, j, j, i]), 12)
                                for i in range(3) for j in range(3) if i != j])

# Random diagonal metrics on so(5): the two routes keep agreeing.
so5 = lc.build_so(5)
model5 = lc.binormalize(so5, lc.killing_metric(so5, 1.0))
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(100):
    lam = rng.uniform(0.1, 10.0, size=10)
    a = lc.scalar_curvature_closed(model5, lam).R
    b = lc.scalar_curvature_koszul(model5, lam).R
    worst = max(worst, abs(a - b) / (1 + abs(a)))
print("so(5), 100 random metrics, worst relative disagreement:", worst)

# The analytic gradient drives the rigidity search; finite differences
# confirm it.
lam = np.array([1.3, 0.8, 2.0])
grad = lc.scalar_gradient(model, lam)
h = 1e-5
fd = [(lc.scalar_curvature_closed(model, lam + h * e).R
       - lc.scalar_curvature_closed(model, lam - h * e).R) / (2 * h)
      for e in np.eye(3)]
print("gradient:", grad, "| finite differences:", np.round(fd, 8))
