"""The 2-sphere as a quotient of SU(2), reduced to four numbers per block.

A homogeneous quotient enters the curvature formula only through block
dimensions, Killing ratios, Casimir constants and the coupling tensor of
squared brackets.  For the sphere: one block of dimension two, coupling
zero (the bracket of the block falls entirely into the subalgebra), and a
Casimir constant that exactly cancels the sum rule.
"""

import numpy as np

import liecurv as lc

su2 = lc.build_su(2)
gram = lc.killing_metric(su2, 0.125)  # the reference metric, as its Gram matrix

# Subalgebra: the third Pauli direction (a circle).  Complement: the span
# of the first two, a single invariant block.
embedding = lc.SubalgebraEmbedding(
    parent=su2,
    h_basis=[[0.0, 0.0, 1.0]],
    blocks=([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],),
)
sphere = lc.build_spec(embedding, gram, name="s2")

print("block dims:    ", sphere.block_dims)
print("killing ratios:", sphere.killing_ratios)
print("casimirs:      ", sphere.casimirs)
print("coupling:      ", sphere.coupling.ravel())
print("sum rule defect:", lc.sum_rule_defect(sphere))

# The normal metric has scalar curvature 8 (a round sphere of radius 1/2);
# stretching the block by t scales it like 1/t.
for t in (0.5, 1.0, 2.0, 4.0):
    print(f"  R at stretch {t}: {lc.scalar_curvature_closed(sphere, [t]).R}")

# The group itself is the quotient by the trivial subgroup: singleton
# blocks and vanishing Casimirs.  Its spec, built with the model, gives the
# same curvature through the same evaluator.
model = lc.binormalize(su2, gram)
group = model.spec
lam = np.array([1.0, 1.0, 2.0])
print("\ngroup-as-quotient check:",
      lc.scalar_curvature_closed(group, lam).R,
      "vs", lc.scalar_curvature_closed(model, lam).R)

# Central blocks are allowed in the data but flagged: their Killing ratio
# vanishes, which is exactly what breaks rigidity later.  Any positive-definite
# Gram matrix is bi-invariant on the abelian torus.
torus = lc.abelian(2)
flat = lc.build_spec(
    lc.SubalgebraEmbedding(parent=torus, h_basis=[], blocks=([[1.0, 0.0]], [[0.0, 1.0]])),
    np.eye(2), name="t2")
print("\ntorus killing ratios:", flat.killing_ratios,
      "| central blocks:", flat.central_blocks())
