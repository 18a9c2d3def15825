import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import liecurv as lc


def test_round_su2_normalization_is_identity(su2, su2_model):
    assert_allclose(su2_model.t, np.eye(3), atol=1e-14)
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
    model = lc.binormalize(algebra, lc.BiInvariantMetric(algebra, np.eye(2)))
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
    metric = lc.BiInvariantMetric(algebra, lc.killing(algebra).B)
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
    metric = lc.BiInvariantMetric(su2, np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="not bi-invariant"):
        lc.binormalize(su2, metric)


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
    (lambda model: lc.BiInvariantMetric(lc.build_su(2), np.diag([8.0, np.inf, 8.0])), "gram matrix must be finite"),
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


def test_metric_invariance_defect_zero_for_killing(su2):
    assert lc.metric_invariance_defect(lc.killing_metric(su2, 0.125)) <= 1e-12


def test_orthonormal_model_checks_antisymmetry_when_built(su2_model):
    c = su2_model.c.copy()
    c[0, 1, 2] += 0.5  # antisymmetry now fails against (1, 0, 2) and the cyclic slots
    with pytest.raises(ValueError, match="not bi-invariant-orthonormal"):
        lc.OrthonormalModel(name="skewed", n=3, t=np.eye(3), c=c)


def test_orthonormal_model_checks_shape(su2_model):
    with pytest.raises(ValueError, match="shape"):
        lc.OrthonormalModel(name="short", n=4, t=np.eye(4), c=su2_model.c)
    # Every entry point that takes a raw tensor refuses one of the wrong shape.
    for c in (np.float64(2.0), np.zeros((2, 3, 4))):
        message = rf"^structure tensor must have shape \(n, n, n\), got shape {re.escape(str(c.shape))}$"
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
        lc.OrthonormalModel(name="empty", n=0, t=np.eye(0), c=np.zeros((0, 0, 0)))
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
    t = np.linalg.inv(np.linalg.cholesky(metric.gram)).T
    reference = np.einsum("ia,jb,kc,ijk->abc", t, t, metric.gram @ t, algebra.c)
    assert np.abs(model.c - reference).max() <= 1e-13 * np.abs(reference).max()
    assert_allclose(model.spec.beta, -np.diag(np.einsum("iba,jab->ij", model.c, model.c)),
                    rtol=1e-13, atol=0.0)
