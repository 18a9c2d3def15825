"""Numerically certify that the bi-invariant metric maximizes scalar
curvature over the constrained cone of larger diagonal metrics.

The deficit R(reference) - R(metric) splits into a Casimir part and a part
weighted by a symmetric cubic polynomial; on the box where every ratio is
at least one, both pieces are nonnegative and vanish only at the reference.
The certificate hunts for counterexamples anyway: dense sampling plus a
projected-Newton ascent from many starts at once, each start run until its
projected gradient vanishes.  Finding none (with every start converged, and
the argmax at the reference) is the numerical witness.
"""

from collections import Counter

import numpy as np

import liecurv as lc

su2 = lc.build_su(2)
model = lc.binormalize(su2, lc.killing_metric(su2, 0.125))
spec = model.spec

# The polynomial behind the certificate: zero exactly at (1, 1, 1),
# positive elsewhere on the constrained box, which the ordered five-term
# rewrite makes visible term by term.
print("gap polynomial at (1,1,1):", lc.gap_polynomial(1.0, 1.0, 1.0))
terms, total = lc.ordered_gap_terms(1.0, 1.5, 3.0)
print("ordered terms at (1, 1.5, 3):", [float(t) for t in terms], "sum", float(total))

# The deficit split, exact for every positive metric.
for lam in ([1.0, 1.0, 2.0], [2.0, 3.0, 5.0], [0.4, 1.0, 6.0]):
    gb = lc.gap_breakdown(spec, lam)
    print(f"  lam={lam}: gap {gb.gap:+.6f} = casimir {gb.casimir_part:+.6f} "
          f"+ poly {gb.poly_part:+.6f} (residual {gb.residual:.1e})")

# Full certificates.  so(5) is the largest case run here; the sphere shows
# the Casimir mechanism on its own (its coupling tensor vanishes).
print()
for name, s in (("su2", spec), ("so5", None), ("s2", None)):
    if name == "so5":
        so5 = lc.build_so(5)
        s = lc.binormalize(so5, lc.killing_metric(so5, 1.0)).spec
    elif name == "s2":
        emb = lc.SubalgebraEmbedding(parent=su2, h_basis=[[0.0, 0.0, 1.0]],
                                     blocks=([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],))
        s = lc.build_spec(emb, lc.killing_metric(su2, 0.125), name="s2")
    report = lc.verify_rigidity(s, max_lambda=10.0, n_starts=64, n_samples=10_000, seed=1)
    print(f"{name}: certified={report.certified} reference R={report.r0:.4f} "
          f"best R={report.best_r:.6f} at {np.round(report.best_lam, 8).tolist()} "
          f"(max violation {report.max_violation:.1e}, {report.wall_time:.2f}s)")
    print(f"    ascent starts: {dict(Counter(report.ascent_status))}, "
          f"at most {report.ascent_iterations.max()} Newton steps, "
          f"{report.n_evaluations} curvature evaluations")

# Structural failure mode: a central direction.  Its Killing ratio is zero,
# so stretching it costs no curvature and the certificate refuses to run.
u2_like = lc.direct_sum(su2, lc.abelian(1))
m = lc.binormalize(u2_like, lc.BiInvariantMetric(u2_like, np.diag([8.0, 8.0, 8.0, 1.0])))
flat_spec = m.spec
try:
    lc.verify_rigidity(flat_spec)
except lc.CenterPresentError as exc:
    print("\nwith a center:", exc)
