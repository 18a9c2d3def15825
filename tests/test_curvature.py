import numpy as np
import pytest
from numpy.testing import assert_allclose

import liecurv as lc


def test_round_reference_curvature(su2_model):
    ones = np.ones(3)
    assert lc.scalar_curvature_closed(su2_model, ones).R == pytest.approx(6.0, abs=1e-12)
    assert lc.scalar_curvature_koszul(su2_model, ones).R == pytest.approx(6.0, abs=1e-12)


def test_round_sphere_sectional_curvatures(su2_model):
    # every frame plane of the round reference has sectional curvature one
    conn = lc.frame_connection(su2_model, np.ones(3))
    for i in range(3):
        for j in range(3):
            if i != j:
                assert conn.riem[i, j, j, i] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lam", [0.05, 0.2, 0.5, 0.9])
def test_shrink_family_closed_form(su2_model, lam):
    vec = np.array([lam, lam, 0.5])
    expected = 8.0 / lam - 1.0 / lam ** 2
    closed = lc.scalar_curvature_closed(su2_model, vec).R
    koszul = lc.scalar_curvature_koszul(su2_model, vec).R
    assert closed == pytest.approx(expected, rel=1e-12)
    assert abs(closed - koszul) <= 1e-9 * (1.0 + abs(closed))


def test_stretched_fiber_value(su2_model):
    assert lc.scalar_curvature_closed(su2_model, [1.0, 1.0, 2.0]).R == pytest.approx(4.0, abs=1e-12)


def test_oracle_agreement_su2(su2_model):
    rng = np.random.default_rng(101)
    for _ in range(1000):
        lam = rng.uniform(0.1, 10.0, size=3)
        closed = lc.scalar_curvature_closed(su2_model, lam).R
        koszul = lc.scalar_curvature_koszul(su2_model, lam).R
        assert abs(closed - koszul) <= 1e-9 * (1.0 + abs(closed))


def test_abelian_metrics_are_flat():
    algebra = lc.abelian(3)
    model = lc.binormalize(algebra, lc.BiInvariantMetric(algebra, np.eye(3)))
    for lam in ([1.0, 2.0, 3.0], [0.1, 0.1, 9.0]):
        assert lc.scalar_curvature_closed(model, lam).R == 0.0
        assert lc.scalar_curvature_koszul(model, lam).R == 0.0


@pytest.mark.parametrize("name", ["su3", "so4"])
def test_connection_and_curvature_symmetries(name, group_models):
    model = group_models[name]
    rng = np.random.default_rng(5)
    lam = rng.uniform(0.3, 4.0, size=model.n)
    conn = lc.frame_connection(model, lam)
    scale = max(1.0, np.abs(conn.riem).max())
    # metric compatibility
    assert np.abs(conn.gamma + conn.gamma.transpose(0, 2, 1)).max() <= 1e-10
    riem = conn.riem
    assert np.abs(riem + riem.transpose(1, 0, 2, 3)).max() <= 1e-10 * scale
    assert np.abs(riem + riem.transpose(0, 1, 3, 2)).max() <= 1e-10 * scale
    assert np.abs(riem - riem.transpose(2, 3, 0, 1)).max() <= 1e-10 * scale
    bianchi = riem + riem.transpose(1, 2, 0, 3) + riem.transpose(2, 0, 1, 3)
    assert np.abs(bianchi).max() <= 1e-10 * scale


def test_frame_rotation_invariance():
    algebra = lc.build_su(3)
    model = lc.binormalize(algebra, lc.killing_metric(algebra, 1.0))
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rotated = np.einsum("ia,jb,kc,ijk->abc", q, q, q, model.c)
    lam = np.full(8, 0.7)
    r_orig = lc.scalar_curvature_closed(model.c, lam).R
    r_rot = lc.scalar_curvature_closed(rotated, lam).R
    assert abs(r_orig - r_rot) <= 1e-9 * (1.0 + abs(r_orig))


def test_reference_scaling_law():
    algebra = lc.build_su(3)
    ones = np.ones(8)
    r_base = lc.scalar_curvature_closed(
        lc.binormalize(algebra, lc.killing_metric(algebra, 1.0)), ones).R
    for t in (0.25, 2.0, 8.0):
        r_scaled = lc.scalar_curvature_closed(
            lc.binormalize(algebra, lc.killing_metric(algebra, t)), ones).R
        assert r_scaled == pytest.approx(r_base / t, rel=1e-10)


@pytest.mark.parametrize("name", ["su2", "so4"])
def test_reference_value_is_quarter_square_sum(name, group_models):
    model = group_models[name]
    r = lc.scalar_curvature_closed(model, np.ones(model.n)).R
    assert r == pytest.approx(0.25 * np.sum(model.c ** 2), abs=1e-12)


def test_gradient_at_round_reference(su2_model):
    assert_allclose(lc.scalar_gradient(su2_model, np.ones(3)), [-2.0, -2.0, -2.0], atol=1e-12)


@pytest.mark.parametrize("name", ["su2", "su3"])
def test_gradient_matches_finite_differences(name, group_models):
    model = group_models[name]
    rng = np.random.default_rng(29)
    h = 1e-5
    for _ in range(20):
        lam = rng.uniform(0.5, 5.0, size=model.n)
        grad = lc.scalar_gradient(model, lam)
        for m in range(model.n):
            up = lam.copy(); up[m] += h
            dn = lam.copy(); dn[m] -= h
            fd = (lc.scalar_curvature_closed(model, up).R
                  - lc.scalar_curvature_closed(model, dn).R) / (2.0 * h)
            assert abs(grad[m] - fd) <= 1e-6


def test_gradient_abelian_zero():
    algebra = lc.abelian(3)
    model = lc.binormalize(algebra, lc.BiInvariantMetric(algebra, np.eye(3)))
    assert np.all(lc.scalar_gradient(model, [1.0, 2.0, 3.0]) == 0.0)


def test_curvature_input_errors(su2_model):
    with pytest.raises(ValueError, match="positive"):
        lc.scalar_curvature_closed(su2_model, [1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="length"):
        lc.scalar_curvature_closed(su2_model, [1.0, 1.0])
    skewed = np.zeros((3, 3, 3))
    skewed[0, 1, 2] = 2.0
    skewed[1, 0, 2] = -2.0
    skewed[1, 2, 0] = 1.0
    skewed[2, 1, 0] = -1.0
    with pytest.raises(ValueError, match="not bi-invariant-orthonormal"):
        lc.scalar_curvature_closed(skewed, [1.0, 1.0, 1.0])


def test_result_echoes_inputs(su2_model):
    res = lc.scalar_curvature_closed(su2_model, [1.0, 1.0, 2.0])
    assert res.algebra == "su2"
    assert res.method == "closed-form"
    assert_allclose(res.lam, [1.0, 1.0, 2.0])
    assert np.isfinite(res.R)


def test_koszul_route_shares_no_curvature_kernel():
    from liecurv import curvature

    kernel = {"_block_curvature", "_block_gradient"}
    for fn in (curvature.frame_connection, curvature.scalar_curvature_koszul):
        assert not kernel & set(fn.__code__.co_names)
    for fn in (curvature.scalar_curvature_closed, curvature.scalar_gradient):
        assert kernel & set(fn.__code__.co_names)


@pytest.mark.parametrize("name", ["su2", "su3"])
def test_group_gradient_matches_singleton_block_gradient(name, group_models):
    model = group_models[name]
    spec = lc.group_as_homogeneous(model)
    rng = np.random.default_rng(43)
    for _ in range(20):
        lam = rng.uniform(0.2, 8.0, size=model.n)
        assert_allclose(lc.scalar_gradient(model, lam),
                        lc.scalar_gradient_homogeneous(spec, lam), rtol=1e-12, atol=1e-12)


def test_koszul_route_does_not_use_the_hessian():
    from liecurv import curvature

    for fn in (curvature.frame_connection, curvature.scalar_curvature_koszul):
        assert "_block_hessian" not in fn.__code__.co_names


def _asymmetric_raw_spec():
    rng = np.random.default_rng(5)
    return lc.HomogeneousSpec(name="raw", s=4, block_dims=[1, 2, 3, 1],
                              killing_ratios=rng.uniform(0.5, 2.0, 4), casimirs=np.zeros(4),
                              coupling=rng.uniform(0.0, 1.0, (4, 4, 4)), provenance="raw-file")


@pytest.mark.parametrize("which", ["su3", "flag", "raw"])
def test_block_hessian_matches_central_differences(which, group_specs, flag_spec):
    from liecurv.curvature import _block_gradient, _block_hessian

    spec = {"su3": group_specs["su3"], "flag": flag_spec, "raw": _asymmetric_raw_spec()}[which]
    beta = spec.killing_ratios * spec.block_dims
    lams = np.random.default_rng(17).uniform(1.0, 6.0, size=(4, spec.s))
    hess = _block_hessian(beta, spec.coupling, lams)
    assert hess.shape == (4, spec.s, spec.s)
    h = 1e-5
    for lam, hs in zip(lams, hess):
        steps = h * np.eye(spec.s)
        fd = np.array([(_block_gradient(beta, spec.coupling, lam + e)
                        - _block_gradient(beta, spec.coupling, lam - e)) / (2.0 * h) for e in steps])
        assert np.abs(fd - hs).max() <= 1e-8 * (1.0 + np.abs(hs).max())
        assert np.abs(hs - hs.T).max() <= 1e-12 * (1.0 + np.abs(hs).max())


def test_batched_kernels_match_single_points(group_specs):
    from liecurv.curvature import CHUNK_ENTRIES, _block_curvature, _block_gradient

    spec = group_specs["so5"]
    beta = spec.killing_ratios * spec.block_dims
    rows = 2 * CHUNK_ENTRIES // spec.s**2 + 7  # two full chunks and a partial one
    lams = np.random.default_rng(23).uniform(1.0, 10.0, size=(rows, spec.s))
    values = _block_curvature(beta, spec.coupling, lams)
    grads = lc.scalar_gradient_homogeneous(spec, lams)
    assert grads.shape == lams.shape
    for lam, r, g in zip(lams, values, grads):
        assert r == pytest.approx(lc.scalar_curvature_homogeneous(spec, lam).R, rel=1e-13, abs=1e-13)
        assert_allclose(g, _block_gradient(beta, spec.coupling, lam), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_eigenvalues_must_be_finite_and_positive(su2_model, s2_spec, bad):
    lam = np.array([bad, 1.0, 1.0])
    for evaluate in (lc.scalar_curvature_closed, lc.scalar_curvature_koszul, lc.scalar_gradient):
        with pytest.raises(ValueError, match="finite" if bad == np.inf else "positive"):
            evaluate(su2_model, lam)
    with pytest.raises(ValueError):
        lc.scalar_curvature_homogeneous(s2_spec, lam[:1])
    with pytest.raises(ValueError):
        lc.scalar_gradient_homogeneous(s2_spec, np.array([[1.0], [bad]]))
