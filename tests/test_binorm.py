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
    assert lc.antisymmetry_defect(model) == 0.0


@pytest.mark.parametrize("name", ["su2", "su3", "so4", "so5"])
@pytest.mark.parametrize("scale", [1.0, 0.125])
def test_total_antisymmetry_after_normalization(name, scale):
    # skew-adjointness of every ad(x) for a bi-invariant inner product,
    # observed as total antisymmetry of the rotated constants
    algebra = lc.resolve_algebra(name)
    model = lc.binormalize(algebra, lc.killing_metric(algebra, scale))
    assert lc.antisymmetry_defect(model) <= 1e-10


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
    (lambda model: lc.DiagonalMetric([]), "non-empty vector"),
    (lambda model: lc.DiagonalMetric(np.ones((2, 2))), "non-empty vector"),
    (lambda model: lc.diagonalize_metric(model, np.eye(2)), r"must have shape \(3, 3\)"),
    (lambda model: lc.BiInvariantMetric(lc.build_su(2), np.diag([8.0, np.inf, 8.0])), "gram matrix must be finite"),
], ids=["empty", "matrix", "operator-shape", "infinite-gram"])
def test_metric_inputs_are_checked_when_built(su2_model, build, message):
    with pytest.raises(ValueError, match=message):
        build(su2_model)


def test_diagonal_metric_requires_positive_entries():
    with pytest.raises(ValueError, match="positive"):
        lc.DiagonalMetric(np.array([1.0, 0.0, 2.0]))


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


@pytest.mark.parametrize("scale, match", [
    (float("nan"), "finite"), (float("inf"), "finite"), (0.0, "positive"), (-2.0, "positive"),
    (float("-inf"), "positive"), (1e308, "finite gram matrix"),
])
def test_killing_metric_scale_is_finite_and_positive(su2, scale, match):
    with pytest.raises(ValueError, match=match):
        lc.killing_metric(su2, scale)
