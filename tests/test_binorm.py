import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import liecurv as lc
from test_homogeneous import _rebased


def test_round_su2_normalization_is_identity(su2, su2_model):
    assert_allclose(su2_model.c, su2.c, atol=1e-14)
    assert su2_model.c[0, 1, 2] == pytest.approx(2.0, abs=1e-14)


def test_killing_normalization_rescales_su2(su2):
    model = lc.binormalize(su2, lc.killing_metric(su2, 1.0))
    assert model.c[0, 1, 2] == pytest.approx(2.0 / np.sqrt(8.0), abs=1e-12)


def test_scaling_law_su3():
    algebra = lc.build_su(3)
    base = lc.binormalize(algebra, lc.killing_metric(algebra, 1.0))
    scaled = lc.binormalize(algebra, lc.killing_metric(algebra, 0.37))
    assert_allclose(scaled.c, base.c / np.sqrt(0.37), atol=1e-12)


def test_abelian_with_identity_gram():
    algebra = lc.abelian(2)
    model = lc.binormalize(algebra, np.eye(2))
    assert np.all(model.c == 0.0)
    assert lc.antisymmetry_defect(model.c) == 0.0


@pytest.mark.parametrize("name", ["su2", "su3", "so4", "so5"])
@pytest.mark.parametrize("scale", [1.0, 0.125])
def test_total_antisymmetry_after_normalization(name, scale):
    # skew-adjointness of every ad(x) for a bi-invariant inner product,
    # observed as total antisymmetry of the rotated constants
    algebra = lc.resolve_algebra(name)
    model = lc.binormalize(algebra, lc.killing_metric(algebra, scale))
    assert lc.antisymmetry_defect(model.c) <= 1e-10


def test_rotated_tensor_keeps_jacobi():
    algebra = lc.build_so(5)
    model = lc.binormalize(algebra, lc.killing_metric(algebra, 1.0))
    assert lc.jacobi_defect(model.c) <= 1e-10


def test_antisymmetry_defect_flags_inconsistent_tensor():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 2.0
    c[1, 2, 0] = 1.0
    assert lc.antisymmetry_defect(c) >= 1.0


def test_killing_metric_on_abelian_is_rejected():
    algebra = lc.abelian(3)
    metric = -lc.killing(algebra).K
    with pytest.raises(ValueError, match="not a metric"):
        lc.binormalize(algebra, metric)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_binormalize_refuses_a_bad_tolerance(su2, tol):
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        lc.binormalize(su2, lc.killing_metric(su2, 0.125), tol=tol)


def test_binormalize_allows_zero_tolerance(su2):
    model = lc.binormalize(su2, lc.killing_metric(su2, 0.125), tol=0.0)
    assert lc.antisymmetry_defect(model.c) == 0.0


def test_binormalize_rejects_non_invariant_gram(su2):
    metric = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="not bi-invariant-orthonormal"):
        lc.binormalize(su2, metric)


def _one_extra_bracket(name: str, eps: float) -> lc.LieAlgebra:
    """The algebra with [e0, e1] gaining eps * e0, which breaks Jacobi and
    with it the invariance of the Killing metric by about eps."""
    algebra = lc.resolve_algebra(name)
    c = algebra.c.copy()
    c[0, 1, 0] += eps
    c[1, 0, 0] -= eps
    return lc.LieAlgebra(name, algebra.dim, c)


def _singletons(algebra: lc.LieAlgebra) -> lc.SubalgebraEmbedding:
    return lc.SubalgebraEmbedding(parent=algebra, h_basis=[], blocks=tuple([row] for row in np.eye(algebra.dim)))


def _s2_over(algebra: lc.LieAlgebra) -> lc.SubalgebraEmbedding:
    return lc.SubalgebraEmbedding(parent=algebra, h_basis=[[0.0, 0.0, 1.0]],
                                  blocks=([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],))


def _flag_over(algebra: lc.LieAlgebra) -> lc.SubalgebraEmbedding:
    e = np.eye(8)
    return lc.SubalgebraEmbedding(parent=algebra, h_basis=[e[6], e[7]],
                                  blocks=(np.vstack([e[0], e[3]]), np.vstack([e[1], e[4]]), np.vstack([e[2], e[5]])))


def _skewed(algebra: lc.LieAlgebra) -> lc.SubalgebraEmbedding:
    """Singleton blocks whose second vector is not orthogonal to the first."""
    rows = np.eye(algebra.dim)
    rows[1, 0] = 1.0
    return lc.SubalgebraEmbedding(parent=algebra, h_basis=[], blocks=tuple([row] for row in rows))


QUOTIENTS = {"su2": (_singletons, _s2_over), "su3": (_singletons, _flag_over), "so5": (_singletons,)}


@pytest.mark.parametrize("name", ["su2", "su3", "so5"])
def test_groups_and_quotients_share_one_bi_invariance_check(name):
    # One rule, the model's antisymmetry at tol against the largest constant,
    # and one message, whether the metric feeds a model or a spec: for
    # singleton blocks and for quotients with a subalgebra, in the algebra's
    # own basis and in a random orthonormal one.
    small, large = _one_extra_bracket(name, 1e-10), _one_extra_bracket(name, 1e-8)
    lc.binormalize(small, lc.killing_metric(small))
    message = "^not bi-invariant-orthonormal: structure tensor is not totally antisymmetric$"
    with pytest.raises(ValueError, match=message):
        lc.binormalize(large, lc.killing_metric(large))
    lc.binormalize(large, lc.killing_metric(large), tol=1e-6)

    def build(algebra, quotient, seed):
        embedding, gram = quotient(algebra), lc.killing_metric(algebra)
        if seed is not None:
            embedding, gram = _rebased(embedding, gram, seed)
        return lc.build_spec(embedding, gram)

    for quotient in QUOTIENTS[name]:
        for seed in (None, 6):
            assert build(small, quotient, seed).s == len(quotient(small).blocks)
            with pytest.raises(ValueError, match=message):
                build(large, quotient, seed)
    # The metric is checked before the blocks' orthogonality, so it is named.
    with pytest.raises(ValueError, match=message):
        lc.build_spec(_skewed(large), lc.killing_metric(large))
    with pytest.raises(ValueError, match="^subalgebra and blocks are not mutually orthogonal$"):
        lc.build_spec(_skewed(small), lc.killing_metric(small))


def test_diagonalize_identity(su2_model):
    rotation, metric, c_rot = lc.diagonalize_metric(su2_model, np.eye(3))
    assert_allclose(metric.values, np.ones(3))
    assert_allclose(rotation, np.eye(3), atol=1e-14)
    assert_allclose(c_rot, su2_model.c, atol=1e-14)


def test_diagonalize_diagonal_input(su2_model):
    s = np.diag([0.3, 0.3, 0.5])
    rotation, metric, _ = lc.diagonalize_metric(su2_model, s)
    assert_allclose(metric.values, [0.3, 0.3, 0.5], atol=1e-14)
    assert_allclose(rotation.T @ s @ rotation, np.diag(metric.values), atol=1e-14)


def test_diagonalize_random_spd():
    algebra = lc.build_su(3)
    model = lc.binormalize(algebra, lc.killing_metric(algebra, 1.0))
    rng = np.random.default_rng(23)
    m = rng.normal(size=(8, 8))
    s = m @ m.T + 8.0 * np.eye(8)
    rotation, metric, c_rot = lc.diagonalize_metric(model, s)
    assert np.all(np.diff(metric.values) >= 0)  # ascending
    assert np.abs(rotation.T @ s @ rotation - np.diag(metric.values)).max() <= 1e-10 * np.abs(s).max()
    assert lc.antisymmetry_defect(c_rot) <= 1e-10
    assert lc.jacobi_defect(c_rot) <= 1e-10


def test_diagonalize_idempotent_on_diagonal(su2_model):
    first = lc.diagonalize_metric(su2_model, np.diag([2.0, 0.5, 1.0]))
    again = lc.diagonalize_metric(su2_model, np.diag(first.metric.values))
    assert_allclose(again.metric.values, first.metric.values, atol=1e-14)


def test_diagonalize_rejects_bad_operators(su2_model):
    with pytest.raises(ValueError, match="symmetric"):
        lc.diagonalize_metric(su2_model, np.array([[1.0, 0.5, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="positive definite"):
        lc.diagonalize_metric(su2_model, np.diag([1.0, 1.0, -0.5]))


@pytest.mark.parametrize("build, message", [
    (lambda model: lc.diagonalize_metric(model, np.eye(2)), r"must have shape \(3, 3\)"),
    (lambda model: lc.binormalize(lc.build_su(2), np.diag([8.0, np.inf, 8.0])), "gram matrix must be finite"),
], ids=["operator-shape", "infinite-gram"])
def test_metric_inputs_are_checked_when_built(su2_model, build, message):
    with pytest.raises(ValueError, match=message):
        build(su2_model)


@pytest.mark.parametrize("name", ["su2", "su3", "so4", "so5", "so7", "su5"])
def test_diagonalized_frame_evaluates_like_the_oracle(name, group_models, dense_algebras):
    # The rotated tensor and the eigenvalues, evaluated in closed form as a raw
    # tensor, agree with the Koszul route and with the operator's spectrum.
    if name in group_models:
        model = group_models[name]
    else:
        algebra = dense_algebras[name]
        model = lc.binormalize(algebra, lc.killing_metric(algebra, 1.0))
    rng = np.random.default_rng(7)
    for _ in range(3):
        m = rng.normal(size=(model.n, model.n))
        p = np.eye(model.n) + m @ m.T / model.n
        diag = lc.diagonalize_metric(model, p)
        closed = lc.scalar_curvature_closed(diag.c, diag.metric.values).R
        koszul = lc.scalar_curvature_koszul(diag.c, diag.metric.values).R
        assert abs(closed - koszul) <= 1e-12 * abs(closed)
        eigs = np.linalg.eigvalsh(p)
        assert np.abs(diag.metric.values - eigs).max() <= 1e-12 * eigs[-1]


def test_orthonormal_model_checks_antisymmetry_when_built(su2_model):
    c = su2_model.c.copy()
    c[0, 1, 2] += 0.5  # antisymmetry now fails against (1, 0, 2) and the cyclic slots
    with pytest.raises(ValueError, match="not bi-invariant-orthonormal"):
        lc.OrthonormalModel(name="skewed", c=c)


def test_orthonormal_model_checks_shape(su2_model):
    # The model and every entry point that takes a raw tensor refuse one of the wrong shape.
    for c in (np.float64(2.0), np.zeros((2, 3, 4))):
        message = rf"^structure tensor must have shape \(n, n, n\), got shape {re.escape(str(c.shape))}$"
        with pytest.raises(ValueError, match=message):
            lc.OrthonormalModel(name="short", c=c)
        for evaluate in (lc.scalar_curvature_closed, lc.scalar_curvature_koszul, lc.scalar_gradient,
                         lc.frame_curvatures):
            with pytest.raises(ValueError, match=message):
                evaluate(c, [1.0])
        for defect in (lc.jacobi_defect, lc.antisymmetry_defect):
            with pytest.raises(ValueError, match=message):
                defect(c)


def test_a_spec_is_not_a_structure_tensor(su2_model):
    # The curvature evaluators take a spec; the tensor routes refuse one by name.
    message = "^structure tensor must be a numeric array, got HomogeneousSpec$"
    for evaluate in (lc.scalar_curvature_koszul, lc.frame_curvatures):
        with pytest.raises(ValueError, match=message):
            evaluate(su2_model.spec, [1.0, 1.0, 1.0])
    for defect in (lc.jacobi_defect, lc.antisymmetry_defect):
        with pytest.raises(ValueError, match=message):
            defect(su2_model.spec)


def test_orthonormal_model_refuses_no_dimension():
    with pytest.raises(ValueError, match="^dimension n must be at least 1, got 0$"):
        lc.OrthonormalModel(name="empty", c=np.zeros((0, 0, 0)))
    with pytest.raises(ValueError, match="^dimension n must be at least 1, got 0$"):
        lc.scalar_curvature_closed(np.zeros((0, 0, 0)), [])


@pytest.mark.parametrize("scale, match", [
    (float("nan"), "finite"), (float("inf"), "finite"), (0.0, "positive"), (-2.0, "positive"),
    (float("-inf"), "positive"), (1e308, "finite gram matrix"),
])
def test_killing_metric_scale_is_finite_and_positive(su2, scale, match):
    with pytest.raises(ValueError, match=match):
        lc.killing_metric(su2, scale)


@pytest.mark.parametrize("name", ["so7", "su5"])
def test_binormalize_on_a_dense_basis_matches_the_one_step_contraction(name, dense_algebras):
    # The change of basis contracts pairwise through BLAS; the reference is
    # the same four-operand contraction as one O(n^6) loop.
    algebra = dense_algebras[name]
    metric = lc.killing_metric(algebra, 1.0)
    model = lc.binormalize(algebra, metric)
    t = np.linalg.inv(np.linalg.cholesky(metric)).T
    reference = np.einsum("ia,jb,kc,ijk->abc", t, t, metric @ t, algebra.c)
    assert np.abs(model.c - reference).max() <= 1e-13 * np.abs(reference).max()
    assert_allclose(model.spec.beta, -np.diag(np.einsum("iba,jab->ij", model.c, model.c)),
                    rtol=1e-13, atol=0.0)
