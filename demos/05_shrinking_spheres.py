"""Why the constrained direction matters: shrinking metrics can shrink
scalar curvature too.

Rigidity compares the reference against *larger* metrics.  In the other
direction there is no obstruction: on SU(2), take eigenvalues
(lam, lam, 1/2) with lam < 1.  The metric is strictly below the reference,
and for small lam the scalar curvature plunges like -1/lam^2.
"""

import liecurv as lc
from liecurv.rigidity import SHRINK_CROSSOVER


def curvature_smaller(lam):
    rec = lc.su2_shrink_example(lam)
    return rec.R_g < rec.R_g0


# Every member's metric is below the reference: lam < 1 and 1/2 < 1.
print(f"{'lam':>8} {'R_g':>14} {'R_g0':>6} {'curv<ref':>9}")
for lam in (0.5, 0.3, 0.2, 0.15, 0.1, 0.05, 0.01):
    rec = lc.su2_shrink_example(lam)
    print(f"{lam:8.3f} {rec.R_g:14.4f} {rec.R_g0:6.1f} {str(rec.R_g < rec.R_g0):>9}")

print(f"\ncrossover ratio: {SHRINK_CROSSOVER:.10f}")
print("just above it:", curvature_smaller(SHRINK_CROSSOVER + 1e-6))
print("just below it:", curvature_smaller(SHRINK_CROSSOVER - 1e-6))

# The leading-order drop: lam^2 * (R_g - R_g0) approaches -1.
print("\nleading coefficient of the drop:")
for lam in (1e-2, 1e-3, 1e-4):
    rec = lc.su2_shrink_example(lam)
    print(f"  lam={lam:g}: lam^2 * (R_g - R_g0) = {lam**2 * (rec.R_g - rec.R_g0):+.6f}")
