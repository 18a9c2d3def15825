from pathlib import Path

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
    curvatures = lc.frame_curvatures(su2_model, np.ones(3))
    for i in range(3):
        for j in range(3):
            if i != j:
                assert curvatures[i, j] == pytest.approx(1.0, abs=1e-12)


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
    model = lc.binormalize(algebra, np.eye(3))
    for lam in ([1.0, 2.0, 3.0], [0.1, 0.1, 9.0]):
        assert lc.scalar_curvature_closed(model, lam).R == 0.0
        assert lc.scalar_curvature_koszul(model, lam).R == 0.0


def _reference_connection(model, lam):
    """Frame brackets, Koszul connection and the full n^4 curvature tensor
    riem[i,j,k,m] = <R(F_i, F_j) F_k, F_m>, each sum an einsum term."""
    inv_sqrt = 1.0 / np.sqrt(lam)
    cc = model.c * np.einsum("i,j,k->ijk", inv_sqrt, inv_sqrt, np.sqrt(lam))
    gamma = 0.5 * (cc - cc.transpose(2, 0, 1) + cc.transpose(1, 2, 0))
    t1 = np.einsum("jkl,ilm->ijkm", gamma, gamma)
    t3 = np.einsum("ijl,lkm->ijkm", cc, gamma)
    return gamma, t1 - t1.transpose(1, 0, 2, 3) - t3


@pytest.mark.parametrize("name", ["su3", "so4"])
def test_connection_and_curvature_symmetries(name, group_models):
    model = group_models[name]
    rng = np.random.default_rng(5)
    lam = rng.uniform(0.3, 4.0, size=model.n)
    gamma, riem = _reference_connection(model, lam)
    scale = max(1.0, np.abs(riem).max())
    assert np.abs(lc.frame_curvatures(model, lam) - np.einsum("ijji->ij", riem)).max() <= 1e-10 * scale
    # metric compatibility
    assert np.abs(gamma + gamma.transpose(0, 2, 1)).max() <= 1e-10
    assert np.abs(riem + riem.transpose(1, 0, 2, 3)).max() <= 1e-10 * scale
    assert np.abs(riem + riem.transpose(0, 1, 3, 2)).max() <= 1e-10 * scale
    assert np.abs(riem - riem.transpose(2, 3, 0, 1)).max() <= 1e-10 * scale
    bianchi = riem + riem.transpose(1, 2, 0, 3) + riem.transpose(2, 0, 1, 3)
    assert np.abs(bianchi).max() <= 1e-10 * scale


@pytest.mark.parametrize("name", ["so7", "su5"])
def test_frame_connection_on_a_dense_basis_matches_the_einsum_formula(name, dense_algebras):
    # frame_curvatures contracts to the frame planes in O(n^3); the
    # reference is the full n^4 tensor, summed term by term.
    model = lc.binormalize(dense_algebras[name], lc.killing_metric(dense_algebras[name], 1.0))
    lam = np.random.default_rng(7).uniform(0.3, 4.0, size=model.n)
    _, riem = _reference_connection(model, lam)
    scale = np.abs(riem).max()
    assert np.abs(lc.frame_curvatures(model, lam) - np.einsum("ijji->ij", riem)).max() <= 1e-12 * scale
    assert np.abs(riem + riem.transpose(1, 0, 2, 3)).max() <= 1e-12 * scale
    assert np.abs(riem + riem.transpose(0, 1, 3, 2)).max() <= 1e-12 * scale
    assert np.abs(riem - riem.transpose(2, 3, 0, 1)).max() <= 1e-12 * scale
    bianchi = riem + riem.transpose(1, 2, 0, 3) + riem.transpose(2, 0, 1, 3)
    assert np.abs(bianchi).max() <= 1e-12 * scale
    closed = lc.scalar_curvature_closed(model, lam).R
    assert abs(lc.scalar_curvature_koszul(model, lam).R - closed) <= 1e-12 * abs(closed)


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
    model = lc.binormalize(algebra, np.eye(3))
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


def test_result_is_value_and_method(su2_model):
    res = lc.scalar_curvature_closed(su2_model, [1.0, 1.0, 2.0])
    assert res == lc.CurvatureResult(R=res.R, method="closed-form")
    assert np.isfinite(res.R)


def test_koszul_route_shares_no_curvature_kernel():
    from liecurv import curvature

    kernel = {"_block_curvature", "_block_gradient"}
    for fn in (curvature.frame_curvatures, curvature.scalar_curvature_koszul):
        assert not kernel & set(fn.__code__.co_names)
    for fn in (curvature.scalar_curvature_closed, curvature.scalar_gradient):
        assert kernel & set(fn.__code__.co_names)


@pytest.mark.parametrize("name", ["su2", "su3"])
def test_group_gradient_matches_singleton_block_gradient(name, group_models):
    model = group_models[name]
    spec = model.spec
    rng = np.random.default_rng(43)
    for _ in range(20):
        lam = rng.uniform(0.2, 8.0, size=model.n)
        assert_allclose(lc.scalar_gradient(model, lam),
                        lc.scalar_gradient(spec, lam), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", ["dense-so7", "dense-su5", "su2-round"])
def test_traced_koszul_equals_the_full_tensor_trace(name, dense_algebras, su2_model):
    # The oracle sums the frame-plane curvatures; the reference traces the
    # full n^4 curvature tensor.
    if name == "su2-round":
        model, lams = su2_model, [np.ones(3)]
    else:
        algebra = dense_algebras[name.removeprefix("dense-")]
        model = lc.binormalize(algebra, lc.killing_metric(algebra, 1.0))
        lams = np.random.default_rng(53).uniform(0.1, 10.0, size=(10, model.n))
    for lam in lams:
        traced = lc.scalar_curvature_koszul(model, lam).R
        full = np.einsum("ijji->", _reference_connection(model, lam)[1])
        assert abs(traced - full) <= 1e-13 * abs(full)


def test_koszul_scalar_does_not_build_the_curvature_tensor():
    # No step of the oracle route allocates an n^4 array: on su5 the peak
    # stays below eight n^3 arrays, against n^4 = 24 n^3 for the full tensor.
    import tracemalloc

    from conftest import canonical_model
    from liecurv import curvature

    model = canonical_model("su5")
    lam = np.linspace(0.5, 3.0, model.n)
    for evaluate in (lc.frame_curvatures, lc.scalar_curvature_koszul):
        tracemalloc.start()
        try:
            evaluate(model, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * model.n ** 3 * 8
    names = set(curvature.scalar_curvature_koszul.__code__.co_names)
    assert not {name for name in names if name.startswith("_block_")}


def _oracle_model(name, dense_algebras):
    """A model named by ``name`` and its Killing scale s (metric -s K)."""
    from conftest import canonical_model, canonical_scale

    if name.startswith("dense-"):
        algebra = dense_algebras[name.removeprefix("dense-")]
        return lc.binormalize(algebra, lc.killing_metric(algebra, 1.0)), 1.0
    return canonical_model(name), canonical_scale(name)


ORACLE_ALGEBRAS = ["su2", "su3", "su4", "su5", "so5", "so7", "dense-so7", "dense-su5"]


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_gradient_is_minus_the_koszul_ricci_over_lambda(name, dense_algebras):
    # First variation of the scalar curvature along invariant metrics:
    # dR/dlam_j = -Ric(F_j, F_j) / lam_j, with Ric(F_j, F_j) = sum_i K[i,j]
    # (Besse, Einstein Manifolds, ch. 4).  An exact check, unlike differences.
    model, _ = _oracle_model(name, dense_algebras)
    for lam in np.random.default_rng(59).uniform(0.3, 4.0, size=(5, model.n)):
        grad = lc.scalar_gradient(model, lam)
        ricci = lc.frame_curvatures(model, lam).sum(axis=0)
        assert np.abs(grad + ricci / lam).max() <= 1e-12 * np.abs(grad).max()


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_reference_metric_is_einstein(name, dense_algebras):
    # At lam = 1 the metric -s K is Einstein with Ric = g / (4 s), so the
    # gradient -Ric / lam is negative in every coordinate.
    model, scale = _oracle_model(name, dense_algebras)
    ricci = lc.frame_curvatures(model, np.ones(model.n)).sum(axis=0)
    assert np.abs(ricci - 1.0 / (4.0 * scale)).max() <= 1e-12 / (4.0 * scale)


def test_koszul_route_does_not_use_the_hessian():
    from liecurv import curvature

    for fn in (curvature.frame_curvatures, curvature.scalar_curvature_koszul):
        assert "_block_hessian" not in fn.__code__.co_names


def _asymmetric_raw_spec():
    rng = np.random.default_rng(5)
    return lc.HomogeneousSpec(name="raw", block_dims=[1, 2, 3, 1],
                              killing_ratios=rng.uniform(0.5, 2.0, 4), casimirs=np.zeros(4),
                              coupling=rng.uniform(0.0, 1.0, (4, 4, 4)), provenance="raw-file")


@pytest.mark.parametrize("which", ["su3", "flag", "raw"])
def test_block_hessian_matches_central_differences(which, group_specs, flag_spec):
    from liecurv.curvature import _block_gradient, _block_hessian

    spec = {"su3": group_specs["su3"], "flag": flag_spec, "raw": _asymmetric_raw_spec()}[which]
    lams = np.random.default_rng(17).uniform(1.0, 6.0, size=(4, spec.s))
    hess = _block_hessian(spec, lams)
    assert hess.shape == (4, spec.s, spec.s)
    h = 1e-5
    for lam, hs in zip(lams, hess):
        steps = h * np.eye(spec.s)  # row e of fd: central difference of the gradient along e
        fd = (_block_gradient(spec, lam + steps) - _block_gradient(spec, lam - steps)) / (2.0 * h)
        assert np.abs(fd - hs).max() <= 1e-8 * (1.0 + np.abs(hs).max())
        assert np.abs(hs - hs.T).max() <= 1e-12 * (1.0 + np.abs(hs).max())


def test_batched_kernels_match_single_points(group_specs):
    from liecurv.curvature import CHUNK_ENTRIES, _block_curvature, _block_gradient

    spec = group_specs["so5"]
    rows = 2 * CHUNK_ENTRIES // spec.s**2 + 7  # two full chunks and a partial one
    lams = np.random.default_rng(23).uniform(1.0, 10.0, size=(rows, spec.s))
    values = _block_curvature(spec, lams)
    grads = _block_gradient(spec, lams)
    assert grads.shape == lams.shape
    for lam, r, g in zip(lams, values, grads):
        assert r == pytest.approx(lc.scalar_curvature_closed(spec, lam).R, rel=1e-13, abs=1e-13)
        assert_allclose(g, lc.scalar_gradient(spec, lam), rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_eigenvalues_must_be_finite_and_positive(su2_model, s2_spec, bad):
    lam = np.array([bad, 1.0, 1.0])
    for evaluate in (lc.scalar_curvature_closed, lc.scalar_curvature_koszul, lc.scalar_gradient):
        with pytest.raises(ValueError, match="finite" if bad == np.inf else "positive"):
            evaluate(su2_model, lam)
    with pytest.raises(ValueError):
        lc.scalar_curvature_closed(s2_spec, lam[:1])
    with pytest.raises(ValueError):
        lc.scalar_gradient(s2_spec, [bad])


def _evaluators(model, spec):
    """The three public single-point evaluators bound to a model, and the
    closed form and gradient bound to its spec."""
    return {
        "closed": lambda lam: lc.scalar_curvature_closed(model, lam),
        "gradient": lambda lam: lc.scalar_gradient(model, lam),
        "koszul": lambda lam: lc.scalar_curvature_koszul(model, lam),
        "homogeneous": lambda lam: lc.scalar_curvature_closed(spec, lam),
        "homogeneous-gradient": lambda lam: lc.scalar_gradient(spec, lam),
    }


@pytest.mark.parametrize("lam, message", [
    ([np.nan, 2.0, 3.0], "metric eigenvalues must be positive"),
    ([2.0, np.inf, 3.0], "metric eigenvalues must be finite"),
    ([2.0, 3.0, -np.inf], "metric eigenvalues must be positive"),
    ([2.0, 0.0, 3.0], "metric eigenvalues must be positive"),
    ([-1.0, 2.0, 3.0], "metric eigenvalues must be positive"),
    ([np.inf, 2.0, -1.0], "metric eigenvalues must be positive"),  # positivity is checked first
    ([1.0, 2.0], "metric eigenvalue vector must have length 3"),
    ([1.0, 2.0, 3.0, np.nan], "metric eigenvalue vector must have length 3"),
])
@pytest.mark.parametrize("which", ["closed", "gradient", "koszul", "homogeneous", "homogeneous-gradient"])
def test_every_evaluator_refuses_one_bad_eigenvalue(su2_model, group_specs, which, lam, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        _evaluators(su2_model, group_specs["su2"])[which](np.array(lam))


@pytest.mark.parametrize("which", ["closed", "gradient", "koszul", "homogeneous", "homogeneous-gradient"])
def test_a_subnormal_eigenvalue_passes_validation(su2_model, group_specs, which):
    # It is positive and finite; what it does to the curvature is the
    # caller's to judge (the CLI refuses the non-finite report, exit 2).
    evaluate = _evaluators(su2_model, group_specs["su2"])[which]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        evaluate(np.array([1e-320, 1.0, 1.0]))


def _bitwise_cases(group_models, flag_spec):
    from conftest import canonical_model

    models = {"su3": group_models["su3"], "so5": group_models["so5"], "so7": canonical_model("so7"),
              "su5": canonical_model("su5"), "so8": canonical_model("so8")}
    specs = {name: model.spec for name, model in models.items()}
    specs["flag"] = flag_spec
    return models, specs


def test_single_point_results_equal_the_row_kernels_bitwise(group_models, flag_spec, s2_spec):
    from liecurv.curvature import _block_curvature, _block_gradient

    models, specs = _bitwise_cases(group_models, flag_spec)
    specs.update(s2=s2_spec, asymmetric=_asymmetric_raw_spec(),
                 raw=lc.spec_from_file(Path(__file__).resolve().parent / "data" / "raw.spec"))
    rng = np.random.default_rng(31)
    for name, spec in specs.items():
        for lam in rng.uniform(0.1, 10.0, size=(20, spec.s)):
            row = lam[None, :]
            # The one-point kernels give a 0-d value and an (s,) gradient, the row's bits.
            r, grad = _block_curvature(spec, lam), _block_gradient(spec, lam)
            assert np.ndim(r) == 0 and grad.shape == (spec.s,)
            assert r == _block_curvature(spec, row)[0]
            assert np.all(grad == _block_gradient(spec, row)[0])
            if name in models:
                model = models[name]
                assert lc.scalar_curvature_closed(model, lam).R == _block_curvature(model.spec, row)[0]
                assert np.all(lc.scalar_gradient(model, lam) == _block_gradient(model.spec, row)[0])
            assert lc.scalar_curvature_closed(spec, lam).R == _block_curvature(spec, row)[0]
            assert np.all(lc.scalar_gradient(spec, lam) == _block_gradient(spec, row)[0])


@pytest.mark.parametrize("name", ["su3", "so5", "so7", "su5", "dense-so7", "dense-su5"])
def test_model_and_its_group_spec_are_interchangeable_kernel_operands(name, dense_algebras):
    # The model builds its group spec once and the group evaluators read it,
    # so closed and homogeneous results agree by construction.
    from conftest import canonical_model

    if name.startswith("dense-"):
        algebra = dense_algebras[name.removeprefix("dense-")]
        model = lc.binormalize(algebra, lc.killing_metric(algebra, 1.0))
    else:
        model = canonical_model(name)
    spec = model.spec
    assert spec is model.spec
    sources = ((model, "closed-form"), (model.c, "closed-form"), (spec, "homogeneous"))
    for lam in np.random.default_rng(41).uniform(0.1, 10.0, size=(20, model.n)):
        r, grad = lc.scalar_curvature_closed(model, lam).R, lc.scalar_gradient(model, lam)
        for source, method in sources:
            result = lc.scalar_curvature_closed(source, lam)
            assert (result.R, result.method) == (r, method)
            assert np.all(lc.scalar_gradient(source, lam) == grad)


def test_old_homogeneous_names_are_aliases_off_the_public_surface(su2_model):
    assert lc.scalar_curvature_homogeneous is lc.scalar_curvature_closed
    assert lc.scalar_gradient_homogeneous is lc.scalar_gradient
    assert lc.group_as_homogeneous(su2_model) is su2_model.spec
    old = {"scalar_curvature_homogeneous", "scalar_gradient_homogeneous", "group_as_homogeneous"}
    assert not old & set(lc.__all__)
    assert all(hasattr(lc, name) for name in lc.__all__)


def test_derived_first_two_coupling_is_the_symmetrized_coupling(group_models, s2_spec, flag_spec):
    _, specs = _bitwise_cases(group_models, flag_spec)  # the group specs are the models' own
    for spec in [*specs.values(), s2_spec, _asymmetric_raw_spec()]:
        a = spec.coupling
        s = a.shape[0]
        assert spec.coupling_first_two.shape == (s, s * s)
        assert np.all(spec.coupling_first_two.reshape(s, s, s) == a + a.transpose(1, 0, 2))


def test_pickled_model_evaluates_identically(dense_algebras):
    import pickle

    model = lc.binormalize(dense_algebras["su5"], lc.killing_metric(dense_algebras["su5"], 1.0))
    loaded = pickle.loads(pickle.dumps(model))
    assert np.all(loaded.c == model.c)
    for field in ("block_dims", "killing_ratios", "casimirs", "coupling", "beta", "coupling_first_two"):
        assert np.all(getattr(loaded.spec, field) == getattr(model.spec, field))
    for lam in np.random.default_rng(37).uniform(0.1, 10.0, size=(5, model.n)):
        assert lc.scalar_curvature_closed(loaded, lam).R == lc.scalar_curvature_closed(model, lam).R
        assert np.all(lc.scalar_gradient(loaded, lam) == lc.scalar_gradient(model, lam))
        assert lc.scalar_curvature_koszul(loaded, lam).R == lc.scalar_curvature_koszul(model, lam).R


def test_model_pickles_its_constructor_fields_only(dense_algebras):
    import pickle

    model = lc.binormalize(dense_algebras["su5"], lc.killing_metric(dense_algebras["su5"], 1.0))
    assert len(pickle.dumps(model)) < 1.5 * len(pickle.dumps(model.c))
    assert model.__getstate__().keys() == {"name", "c"}


def test_model_built_at_a_loose_tolerance_loads():
    # Loading does not repeat the antisymmetry check at the default tolerance.
    import pickle

    model = lc.binormalize(lc.build_su(3), lc.killing_metric(lc.build_su(3), 1.0))
    c = model.c + 1e-8 * np.random.default_rng(3).standard_normal(model.c.shape)
    with pytest.raises(ValueError, match="not totally antisymmetric"):
        lc.OrthonormalModel(name="loose", c=c)
    loose = lc.OrthonormalModel(name="loose", c=c, tol=1e-6)
    loaded = pickle.loads(pickle.dumps(loose))
    assert np.all(loaded.c == loose.c)
    assert np.all(loaded.spec.coupling_first_two == loose.spec.coupling_first_two)
