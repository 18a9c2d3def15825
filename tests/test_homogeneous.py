import json
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

import liecurv as lc


def test_su2_trivial_subalgebra_spec(group_specs):
    spec = group_specs["su2"]
    assert spec.s == 3
    assert_allclose(spec.block_dims, [1, 1, 1])
    assert_allclose(spec.casimirs, np.zeros(3), atol=1e-14)
    assert_allclose(spec.killing_ratios, [8.0, 8.0, 8.0], atol=1e-12)
    expected = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0), (2, 0, 1), (0, 2, 1)):
        expected[i, j, k] = 4.0
    assert_allclose(spec.coupling, expected, atol=1e-12)
    assert spec.provenance == "from-algebra"


def test_sphere_spec_data(s2_spec):
    assert s2_spec.s == 1
    assert s2_spec.block_dims[0] == 2
    assert s2_spec.killing_ratios[0] == pytest.approx(8.0, abs=1e-12)
    assert s2_spec.casimirs[0] == pytest.approx(4.0, abs=1e-12)
    assert np.abs(s2_spec.coupling).max() <= 1e-14


def test_sphere_scalar_curvature(s2_spec):
    assert lc.scalar_curvature_closed(s2_spec, [1.0]).R == pytest.approx(8.0, abs=1e-12)
    for t in (0.5, 1.0, 2.0):
        assert lc.scalar_curvature_closed(s2_spec, [t]).R == pytest.approx(8.0 / t, abs=1e-12)
    # strictly decreasing in the stretch
    values = [lc.scalar_curvature_closed(s2_spec, [t]).R for t in (0.5, 1.0, 2.0, 5.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_abelian_blocks_flagged_not_rejected():
    algebra = lc.abelian(2)
    metric = np.eye(2)
    embedding = lc.SubalgebraEmbedding(parent=algebra, h_basis=[],
                                       blocks=([[1.0, 0.0]], [[0.0, 1.0]]))
    spec = lc.build_spec(embedding, metric, name="torus")
    assert_allclose(spec.killing_ratios, [0.0, 0.0], atol=1e-14)
    assert np.all(spec.coupling == 0.0)
    assert spec.central_blocks() == [0, 1]


def test_group_shortcut_matches_full_construction(group_specs, su2_model):
    via_blocks = group_specs["su2"]
    shortcut = su2_model.spec
    assert_allclose(shortcut.killing_ratios, via_blocks.killing_ratios, atol=1e-12)
    assert_allclose(shortcut.coupling, via_blocks.coupling, atol=1e-12)
    assert_allclose(shortcut.block_dims, via_blocks.block_dims)
    assert_allclose(shortcut.casimirs, via_blocks.casimirs, atol=1e-14)


@pytest.mark.parametrize("name", ["su2", "su3", "so4", "so5"])
def test_group_reduction_reproduces_closed_formula(name, group_models):
    # One derivation of beta and the coupling, so the two routes agree bitwise.
    model = group_models[name]
    spec = model.spec
    rng = np.random.default_rng(37)
    for _ in range(100):
        lam = rng.uniform(0.2, 8.0, size=model.n)
        r_homog = lc.scalar_curvature_closed(spec, lam).R
        r_closed = lc.scalar_curvature_closed(model, lam).R
        assert r_homog == r_closed


def test_group_as_homogeneous_abelian():
    algebra = lc.abelian(2)
    model = lc.binormalize(algebra, np.eye(2))
    spec = model.spec
    assert np.all(spec.killing_ratios == 0.0)
    assert np.all(spec.coupling == 0.0)
    assert lc.scalar_curvature_closed(spec, [0.3, 7.0]).R == 0.0


@pytest.mark.parametrize("name", ["su3", "so4", "so5"])
def test_coupling_tensor_is_symmetric(name, group_specs):
    a = group_specs[name].coupling
    for perm in ((1, 0, 2), (0, 2, 1), (2, 1, 0)):
        assert np.abs(a - a.transpose(perm)).max() <= 1e-10


@pytest.mark.parametrize("name", ["su2", "su3", "so4", "so5"])
def test_sum_rule_for_groups(name, group_specs):
    assert lc.sum_rule_defect(group_specs[name]).max() <= 1e-9


def test_sum_rule_for_sphere(s2_spec):
    assert lc.sum_rule_defect(s2_spec).max() <= 1e-10


def test_sum_rule_detects_missing_casimir(s2_spec):
    doctored = lc.HomogeneousSpec(
        name="s2-no-casimir",
        block_dims=s2_spec.block_dims,
        killing_ratios=s2_spec.killing_ratios,
        casimirs=np.zeros(1),
        coupling=s2_spec.coupling,
        provenance="raw-file",
    )
    assert lc.sum_rule_defect(doctored)[0] == pytest.approx(16.0, abs=1e-12)


def test_central_block_in_direct_sum():
    algebra = lc.direct_sum(lc.build_su(2), lc.abelian(1))
    gram = np.diag([8.0, 8.0, 8.0, 1.0])  # invariant: killing part plus any scale on the center
    blocks = tuple([np.eye(4)[i]] for i in range(4))
    embedding = lc.SubalgebraEmbedding(parent=algebra, h_basis=[], blocks=blocks)
    spec = lc.build_spec(embedding, gram, name="u2-like")
    assert spec.killing_ratios[3] == 0.0
    assert spec.central_blocks() == [3]


def test_subalgebra_closure_required(su2):
    embedding = lc.SubalgebraEmbedding(
        parent=su2, h_basis=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
        blocks=([[0.0, 0.0, 1.0]],))
    with pytest.raises(ValueError, match="not a subalgebra"):
        lc.build_spec(embedding, lc.killing_metric(su2, 0.125))


def test_casimir_must_be_scalar_on_blocks():
    algebra = lc.build_su(3)
    e = np.eye(8)
    # one diagonal generator as the subalgebra; the remaining seven vectors
    # mix inequivalent weight spaces, so the Casimir cannot be scalar
    embedding = lc.SubalgebraEmbedding(
        parent=algebra, h_basis=[e[6]],
        blocks=(np.vstack([e[i] for i in range(8) if i != 6]),))
    with pytest.raises(ValueError, match="not irreducible-compatible"):
        lc.build_spec(embedding, lc.killing_metric(algebra, 1.0))


def test_killing_ratio_must_be_constant_on_blocks():
    algebra = lc.direct_sum(lc.build_su(2), lc.build_su(2))
    gram = np.diag([8.0, 8.0, 8.0, 16.0, 16.0, 16.0])  # different scale per factor
    e = np.eye(6)
    embedding = lc.SubalgebraEmbedding(
        parent=algebra, h_basis=[],
        blocks=(np.vstack([e[0], e[3]]), [e[1]], [e[2]], [e[4]], [e[5]]))
    with pytest.raises(ValueError, match="not irreducible-compatible"):
        lc.build_spec(embedding, gram)


def test_blocks_must_be_orthogonal(su2):
    embedding = lc.SubalgebraEmbedding(
        parent=su2, h_basis=[],
        blocks=([[1.0, 0.0, 0.0]], [[1.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="orthogonal"):
        lc.build_spec(embedding, lc.killing_metric(su2, 0.125))


def test_metric_must_be_invariant_for_the_embedded_algebra(su2):
    embedding = lc.SubalgebraEmbedding(parent=su2, h_basis=[], blocks=tuple([row] for row in np.eye(3)))
    # same dimension, but diag(1, 2, 3) is ad-invariant only for the abelian algebra
    metric = np.diag([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="not bi-invariant-orthonormal"):
        lc.build_spec(embedding, metric)
    # blocks that are not mutually orthogonal either: the metric is checked
    # first, so its failure is named, not the blocks'
    skewed = lc.SubalgebraEmbedding(parent=su2, h_basis=[],
                                    blocks=([[1.0, 0.0, 0.0]], [[1.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="not bi-invariant-orthonormal"):
        lc.build_spec(skewed, metric)
    with pytest.raises(ValueError, match="shape"):
        lc.build_spec(embedding, lc.killing_metric(lc.build_su(3)))


def test_decomposition_must_span(su2):
    embedding = lc.SubalgebraEmbedding(
        parent=su2, h_basis=[],
        blocks=([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match="span"):
        lc.build_spec(embedding, lc.killing_metric(su2, 0.125))


def test_block_invariance_required():
    algebra = lc.build_su(3)
    e = np.eye(8)
    # the subalgebra moves single root vectors out of their spans
    embedding = lc.SubalgebraEmbedding(
        parent=algebra, h_basis=[e[6]],
        blocks=tuple([e[i]] for i in range(8) if i != 6))
    with pytest.raises(ValueError, match="not invariant"):
        lc.build_spec(embedding, lc.killing_metric(algebra, 1.0))


def test_four_sphere_from_so5():
    # SO(5)/SO(4): a symmetric space, so the complement brackets fall into
    # the subalgebra and the coupling vanishes.  The normal metric is the
    # round sphere of radius sqrt(6), hence scalar curvature 12/6 = 2.
    so5 = lc.build_so(5)
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    e = np.eye(10)
    h_rows = [e[a] for a, (i, j) in enumerate(pairs) if j != 4]
    m_rows = [e[a] for a, (i, j) in enumerate(pairs) if j == 4]
    embedding = lc.SubalgebraEmbedding(parent=so5, h_basis=h_rows, blocks=(np.vstack(m_rows),))
    sphere = lc.build_spec(embedding, lc.killing_metric(so5, 1.0), name="s4")
    assert sphere.block_dims[0] == 4
    assert sphere.killing_ratios[0] == pytest.approx(1.0, abs=1e-12)
    assert sphere.casimirs[0] == pytest.approx(0.5, abs=1e-12)
    assert np.abs(sphere.coupling).max() <= 1e-12
    assert lc.scalar_curvature_closed(sphere, [1.0]).R == pytest.approx(2.0, abs=1e-12)
    assert lc.sum_rule_defect(sphere).max() <= 1e-12


def test_flag_manifold_from_su3():
    # SU(3) over its torus: three 2-dim root blocks.  With the negative
    # Killing form as reference, each root has squared length 1/3, which is
    # the Casimir constant of the torus action on its root block.
    su3 = lc.build_su(3)
    e = np.eye(8)
    embedding = lc.SubalgebraEmbedding(
        parent=su3, h_basis=[e[6], e[7]],
        blocks=(np.vstack([e[0], e[3]]), np.vstack([e[1], e[4]]), np.vstack([e[2], e[5]])))
    flag = lc.build_spec(embedding, lc.killing_metric(su3, 1.0), name="flag")
    assert_allclose(flag.block_dims, [2, 2, 2])
    assert_allclose(flag.killing_ratios, [1.0, 1.0, 1.0], atol=1e-12)
    assert_allclose(flag.casimirs, [1.0 / 3.0] * 3, atol=1e-12)
    assert flag.coupling.sum() == pytest.approx(2.0, abs=1e-12)
    assert lc.scalar_curvature_closed(flag, np.ones(3)).R == pytest.approx(2.5, abs=1e-12)
    assert lc.sum_rule_defect(flag).max() <= 1e-12
    # both deficit mechanisms are active on this space
    gb = lc.gap_breakdown(flag, [2.0, 1.5, 3.0])
    assert gb.casimir_part > 0.5 and gb.poly_part > 0.1
    assert abs(gb.gap - gb.casimir_part - gb.poly_part) <= 1e-12
    assert lc.verify_rigidity(flag, n_starts=16, n_samples=2000, seed=0).certified


def test_reference_value_specialization(group_specs, s2_spec):
    for spec in (group_specs["so4"], s2_spec):
        expected = 0.5 * float(np.sum(spec.killing_ratios * spec.block_dims)) \
            - 0.25 * float(spec.coupling.sum())
        assert lc.scalar_curvature_closed(spec, np.ones(spec.s)).R == expected


def test_homogeneous_lambda_validation(s2_spec):
    with pytest.raises(ValueError, match="length"):
        lc.scalar_curvature_closed(s2_spec, [1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        lc.scalar_curvature_closed(s2_spec, [-1.0])


def test_gradient_matches_finite_differences(s2_spec, group_specs):
    h = 1e-5
    rng = np.random.default_rng(41)
    for spec in (s2_spec, group_specs["su3"]):
        for _ in range(10):
            lam = rng.uniform(0.5, 5.0, size=spec.s)
            grad = lc.scalar_gradient(spec, lam)
            for m in range(spec.s):
                up = lam.copy(); up[m] += h
                dn = lam.copy(); dn[m] -= h
                fd = (lc.scalar_curvature_closed(spec, up).R
                      - lc.scalar_curvature_closed(spec, dn).R) / (2.0 * h)
                assert abs(grad[m] - fd) <= 1e-6


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------

def test_raw_spec_file(tmp_path):
    raw = {"s": 1, "d": [2], "b": [8.0], "c": [0.0], "A": []}
    path = tmp_path / "probe.spec"
    path.write_text(json.dumps(raw), encoding="utf-8")
    spec = lc.spec_from_file(path)
    assert spec.provenance == "raw-file"
    assert spec.name == "probe"
    # the sum rule is reported, not enforced, for raw data
    assert lc.sum_rule_defect(spec)[0] == pytest.approx(16.0)


def test_derived_spec_file(tmp_path, s2_spec):
    derived = {
        "algebra": "su2",
        "scale": 0.125,
        "h_basis": [[0.0, 0.0, 1.0]],
        "blocks": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
    }
    path = tmp_path / "s2.spec"
    path.write_text(json.dumps(derived), encoding="utf-8")
    spec = lc.spec_from_file(path)
    assert spec.provenance == "from-algebra"
    assert_allclose(spec.killing_ratios, s2_spec.killing_ratios, atol=1e-12)
    assert_allclose(spec.casimirs, s2_spec.casimirs, atol=1e-12)


def test_derived_spec_file_with_algebra_path(tmp_path):
    algebra_path = tmp_path / "alg.json"
    algebra_path.write_text(json.dumps(lc.algebra_to_dict(lc.build_su(2))), encoding="utf-8")
    derived = {
        "algebra": "alg.json",
        "scale": 0.125,
        "h_basis": [],
        "blocks": [[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]]],
    }
    path = tmp_path / "group.spec"
    path.write_text(json.dumps(derived), encoding="utf-8")
    spec = lc.spec_from_file(path)
    assert_allclose(spec.killing_ratios, [8.0, 8.0, 8.0], atol=1e-12)


def test_raw_spec_duplicate_coupling_rejected(tmp_path):
    raw = {"s": 2, "d": [1, 1], "b": [1.0, 1.0], "c": [0.0, 0.0],
           "A": [[0, 0, 1, 1.0], [0, 0, 1, 1.0]]}
    path = tmp_path / "dup.spec"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate"):
        lc.spec_from_file(path)


def test_spec_dict_requires_known_form():
    with pytest.raises(ValueError, match="raw .* or derived"):
        lc.spec_from_dict({"blocks": []})


@pytest.mark.parametrize("field", ["killing_ratios", "casimirs", "coupling"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_rejects_non_finite_data(field, bad):
    data = {"killing_ratios": np.ones(2), "casimirs": np.zeros(2), "coupling": np.zeros((2, 2, 2))}
    data[field].flat[0] = bad
    with pytest.raises(ValueError, match="finite"):
        lc.HomogeneousSpec(name="bad", block_dims=[1, 1], provenance="raw-file", **data)


@pytest.mark.parametrize("dims", [[1, np.nan], [1, np.inf], [1, 1.5], [0, 1], [1, 1e20], [1, 2.0 ** 63]])
def test_spec_rejects_bad_block_dims(dims):
    with pytest.raises(ValueError, match="positive integers"):
        lc.HomogeneousSpec(name="bad", block_dims=dims, killing_ratios=[1.0, 1.0],
                           casimirs=[0.0, 0.0], coupling=np.zeros((2, 2, 2)), provenance="raw-file")


def test_largest_exact_block_dimension_is_kept():
    spec = lc.spec_from_dict({"s": 1, "d": [2.0 ** 63 - 1024], "b": [8.0], "c": [0.0], "A": []})
    assert spec.block_dims.tolist() == [2 ** 63 - 1024]


def test_raw_spec_with_nan_is_rejected_not_certified():
    raw = {"s": 2, "d": [1, 1], "b": [float("nan"), 1.0], "c": [0.0, 0.0], "A": []}
    with pytest.raises(ValueError, match="finite"):
        lc.spec_from_dict(raw)


@pytest.mark.parametrize("change, message", [
    ({"A": 5}, "list of"),
    ({"A": [[0, 1, 1]]}, r"\[i, j, k, value\]"),
    ({"A": [7]}, r"\[i, j, k, value\]"),
    ({"A": [[0, 1, 1.7, 1.0]]}, "integer"),
    ({"A": [[0, 1, None, 1.0]]}, "number"),
    ({"A": [[0, 1, 1, "big"]]}, "number"),
    ({"A": [[True, 1, 1, 1.0]]}, "number"),
    ({"s": 2.5}, "integer"),
    ({"s": "2"}, "number"),
    ({"s": 0, "d": [], "b": [], "c": []}, "at least 1"),
    ({"d": 2}, "lists of length s"),
    ({"b": [1.0]}, "lists of length s"),
    ({"c": [0.0, {"x": 1}]}, "number"),
    ({"c": [-1.0, 0.0]}, "Casimir constants must be nonnegative"),
    ({"A": [[0, 1, 1, -1.0]]}, "coupling tensor entries must be nonnegative"),
    ({"d": [1, 1e20]}, "block dimensions must be positive integers"),
])
def test_malformed_raw_spec_is_a_value_error(change, message):
    raw = {"s": 2, "d": [1, 1], "b": [1.0, 1.0], "c": [0.0, 0.0], "A": [[0, 1, 1, 1.0]]}
    raw.update(change)
    with pytest.raises(ValueError, match=message):
        lc.spec_from_dict(raw)


def test_raw_spec_accepts_integral_floats():
    raw = {"s": 2.0, "d": [1, 2.0], "b": [1.0, 1.0], "c": [0.0, 0.0], "A": [[0, 1.0, 1, 0.5]]}
    spec = lc.spec_from_dict(raw)
    assert spec.s == 2
    assert spec.coupling[0, 1, 1] == 0.5
    assert spec.block_dims.tolist() == [1, 2]


def test_spec_must_be_an_object():
    with pytest.raises(ValueError, match="JSON object"):
        lc.spec_from_dict([1, 2])


def test_gradient_takes_one_point(group_specs):
    spec = group_specs["su3"]
    lams = np.random.default_rng(3).uniform(1.0, 5.0, size=(3, spec.s))
    assert lc.scalar_gradient(spec, lams[0]).shape == (spec.s,)
    for batch in (lams, np.ones((1, spec.s)), np.ones((2, 2, spec.s))):
        with pytest.raises(ValueError, match="length"):
            lc.scalar_gradient(spec, batch)


@pytest.mark.parametrize("field, value, message", [
    ("blocks", [[[True, 0, 0], [0, 1, 0]]], "must be a number"),
    ("blocks", [[[None, 0, 0], [0, 1, 0]]], "must be a number"),
    ("blocks", [[["1", 0, 0], [0, 1, 0]]], "must be a number"),
    ("blocks", [[[np.nan, 0, 0], [0, 1, 0]]], "must be finite"),
    ("h_basis", [[0, 0, True]], "must be a number"),
    ("h_basis", [[0, None, 1]], "must be a number"),
    ("h_basis", [[0, 0, np.inf]], "must be finite"),
])
def test_derived_spec_vectors_are_finite_numbers(field, value, message):
    derived = {"algebra": "su2", "scale": 0.125, "h_basis": [[0, 0, 1]], "blocks": [[[1, 0, 0], [0, 1, 0]]]}
    derived[field] = value
    with pytest.raises(ValueError, match=message):
        lc.spec_from_dict(derived)


@pytest.mark.parametrize("field, value, message", [
    ("blocks", [[[1, 0, 0, 0, 1, 0]]], "^block 0 vectors must have length 3$"),
    ("h_basis", [[[0, 0, 1]]], "^subalgebra must be a list of vectors of length 3$"),
    ("blocks", [[[1, 0]]], "^block 0 vectors must have length 3$"),
    ("blocks", [[[1, 0, 0], [0, 1]]], "^block 0 must be a list of vectors of length 3$"),
    ("h_basis", 5, "^subalgebra must be a list of vectors of length 3$"),
], ids=["six-numbers", "nested-h", "short-vector", "ragged-block", "scalar-h"])
def test_derived_spec_vectors_have_the_algebra_dimension(field, value, message):
    # Vectors are taken as given, never reshaped: one six-number row over
    # su2 is not e0 and e1, and a nested h is not its one vector.
    derived = {"algebra": "su2", "scale": 0.125, "h_basis": [[0, 0, 1]], "blocks": [[[1, 0, 0], [0, 1, 0]]]}
    derived[field] = value
    with pytest.raises(ValueError, match=message):
        lc.spec_from_dict(derived)
    with pytest.raises(ValueError, match=message):
        lc.SubalgebraEmbedding(parent=lc.build_su(2), h_basis=derived["h_basis"], blocks=tuple(derived["blocks"]))


@pytest.mark.parametrize("build, message", [
    (lambda: lc.HomogeneousSpec(name="short", block_dims=[1], killing_ratios=[1.0, 1.0],
                                casimirs=[0.0, 0.0], coupling=np.zeros((2, 2, 2)), provenance="raw-file"),
     "block data must all have length s"),
    (lambda: lc.HomogeneousSpec(name="flat", block_dims=[1, 1], killing_ratios=[1.0, 1.0],
                                casimirs=[0.0, 0.0], coupling=np.zeros((2, 2)), provenance="raw-file"),
     r"coupling tensor must have shape \(2, 2, 2\)"),
    (lambda: lc.HomogeneousSpec(name="empty", block_dims=[], killing_ratios=[], casimirs=[],
                                coupling=np.zeros((0, 0, 0)), provenance="raw-file"),
     "^block count s must be at least 1, got 0$"),
    (lambda: lc.SubalgebraEmbedding(parent=lc.build_su(2), h_basis=[[0.0, 0.0, 1.0]], blocks=()),
     "at least one complement block"),
    (lambda: lc.SubalgebraEmbedding(parent=lc.build_su(2), h_basis=[[0.0, 0.0, 1.0]],
                                    blocks=([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [])),
     "complement blocks must be non-empty"),
], ids=["block-data-length", "coupling-shape", "no-blocks-in-spec", "no-block", "empty-block"])
def test_spec_and_embedding_shapes_are_checked_when_built(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("blocks", [5, None, "abc"])
def test_derived_spec_blocks_must_be_a_list(blocks):
    with pytest.raises(ValueError, match="'blocks' list"):
        lc.spec_from_dict({"algebra": "su2", "blocks": blocks})


# ---------------------------------------------------------------------------
# The adapted frame: build_spec does not depend on the basis of the algebra
# ---------------------------------------------------------------------------

def _rebased(embedding, metric, seed):
    """The same quotient in the basis f_a = sum_i q[i, a] e_i, q a random
    orthogonal matrix: rotated structure constants (antisymmetrized exactly),
    Gram matrix q^T G q and coefficient vectors v q."""
    n = embedding.parent.dim
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    c = np.einsum("ia,jb,ijk,kc->abc", q, q, embedding.parent.c, q)
    algebra = lc.LieAlgebra(embedding.parent.name, n, 0.5 * (c - c.swapaxes(0, 1)))
    gram = q.T @ metric @ q
    rebased = lc.SubalgebraEmbedding(parent=algebra, h_basis=embedding.h_basis @ q,
                                     blocks=tuple(b @ q for b in embedding.blocks))
    return rebased, 0.5 * (gram + gram.T)


def _s2():
    su2 = lc.build_su(2)
    embedding = lc.SubalgebraEmbedding(parent=su2, h_basis=[[0.0, 0.0, 1.0]],
                                       blocks=([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],))
    return embedding, lc.killing_metric(su2, 0.125)


def _flag():
    su3 = lc.build_su(3)
    e = np.eye(8)
    embedding = lc.SubalgebraEmbedding(
        parent=su3, h_basis=[e[6], e[7]],
        blocks=(np.vstack([e[0], e[3]]), np.vstack([e[1], e[4]]), np.vstack([e[2], e[5]])))
    return embedding, lc.killing_metric(su3, 1.0)


def _four_sphere():
    so5 = lc.build_so(5)
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    e = np.eye(10)
    embedding = lc.SubalgebraEmbedding(
        parent=so5, h_basis=[e[a] for a, (i, j) in enumerate(pairs) if j != 4],
        blocks=(np.vstack([e[a] for a, (i, j) in enumerate(pairs) if j == 4]),))
    return embedding, lc.killing_metric(so5, 1.0)


@pytest.mark.parametrize("quotient", [_s2, _flag, _four_sphere])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rebased_embedding_gives_the_canonical_spec(quotient, seed):
    embedding, metric = quotient()
    canonical = lc.build_spec(embedding, metric)
    spec = lc.build_spec(*_rebased(embedding, metric, seed))
    assert np.array_equal(spec.block_dims, canonical.block_dims)
    for field in ("killing_ratios", "casimirs", "coupling"):
        assert_allclose(getattr(spec, field), getattr(canonical, field), rtol=0.0, atol=1e-12)


def _not_closed():
    su2 = lc.build_su(2)
    return (lc.SubalgebraEmbedding(parent=su2, h_basis=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                   blocks=([[0.0, 0.0, 1.0]],)),
            lc.killing_metric(su2, 0.125))


def _not_invariant():
    su3 = lc.build_su(3)
    e = np.eye(8)
    return (lc.SubalgebraEmbedding(parent=su3, h_basis=[e[6]],
                                   blocks=tuple([e[i]] for i in range(8) if i != 6)),
            lc.killing_metric(su3, 1.0))


def _casimir_not_scalar():
    su3 = lc.build_su(3)
    e = np.eye(8)
    return (lc.SubalgebraEmbedding(parent=su3, h_basis=[e[6]],
                                   blocks=(np.vstack([e[i] for i in range(8) if i != 6]),)),
            lc.killing_metric(su3, 1.0))


def _killing_ratio_not_constant():
    algebra = lc.direct_sum(lc.build_su(2), lc.build_su(2))
    e = np.eye(6)
    return (lc.SubalgebraEmbedding(parent=algebra, h_basis=[],
                                   blocks=(np.vstack([e[0], e[3]]), [e[1]], [e[2]], [e[4]], [e[5]])),
            np.diag([8.0, 8.0, 8.0, 16.0, 16.0, 16.0]))


def _not_orthogonal():
    su2 = lc.build_su(2)
    return (lc.SubalgebraEmbedding(parent=su2, h_basis=[],
                                   blocks=([[1.0, 0.0, 0.0]], [[1.0, 1.0, 0.0]], [[0.0, 0.0, 1.0]])),
            lc.killing_metric(su2, 0.125))


def _not_spanning():
    su2 = lc.build_su(2)
    return (lc.SubalgebraEmbedding(parent=su2, h_basis=[], blocks=([[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])),
            lc.killing_metric(su2, 0.125))


def _dependent():
    su2 = lc.build_su(2)
    return (lc.SubalgebraEmbedding(parent=su2, h_basis=[[0.0, 0.0, 1.0]],
                                   blocks=([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],)),
            lc.killing_metric(su2, 0.125))


def _repeated():
    # eps = 0 in test_ill_conditioned_spanning_vectors_still_build
    su2 = lc.build_su(2)
    return (lc.SubalgebraEmbedding(parent=su2, h_basis=[[0.0, 0.0, 1.0]],
                                   blocks=([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],)),
            lc.killing_metric(su2, 0.125))


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
def test_ill_conditioned_spanning_vectors_still_build(eps):
    # [1, 0, 0] and [1, eps, 0] span the canonical s2 plane; the frame is
    # orthonormalized without squaring their condition number 1/eps.
    su2 = lc.build_su(2)
    embedding = lc.SubalgebraEmbedding(parent=su2, h_basis=[[0.0, 0.0, 1.0]],
                                       blocks=([[1.0, 0.0, 0.0], [1.0, eps, 0.0]],))
    spec = lc.build_spec(embedding, lc.killing_metric(su2, 0.125))
    assert lc.scalar_curvature_closed(spec, [1.0]).R == pytest.approx(8.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("quotient, message", [
    (_not_closed, "h is not a subalgebra"),
    (_not_invariant, "block 0 is not invariant"),
    (_casimir_not_scalar, r"block 0 not irreducible-compatible.*\(Casimir operator not scalar"),
    (_killing_ratio_not_constant, r"block 0 not irreducible-compatible.*\(Killing ratio not constant"),
    (_not_orthogonal, "not mutually orthogonal"),
    (_not_spanning, "span dimension 2, expected 3"),
    (_dependent, "block 0 spanning vectors are linearly dependent"),
    (_repeated, "block 0 spanning vectors are linearly dependent"),
])
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_build_spec_errors_survive_a_change_of_basis(quotient, message, seed):
    embedding, metric = quotient()
    if seed is not None:
        embedding, metric = _rebased(embedding, metric, seed)
    with pytest.raises(ValueError, match=message):
        lc.build_spec(embedding, metric)


@pytest.mark.parametrize("name", ["su3", "so5"])
def test_rebased_group_spec_is_the_squared_structure_constants(name):
    # Singleton blocks along the rebased frame recover c^2 of the original basis.
    algebra = lc.resolve_algebra(name)
    blocks = tuple([row] for row in np.eye(algebra.dim))
    embedding, metric = _rebased(lc.SubalgebraEmbedding(parent=algebra, h_basis=[], blocks=blocks),
                                 lc.killing_metric(algebra, 1.0), seed=5)
    spec = lc.build_spec(embedding, metric)
    canonical = lc.binormalize(algebra, lc.killing_metric(algebra, 1.0)).spec
    assert_allclose(spec.coupling, canonical.coupling, rtol=0.0, atol=1e-12)
    assert_allclose(spec.killing_ratios, canonical.killing_ratios, rtol=0.0, atol=1e-12)
    assert np.all(spec.casimirs == 0.0)


def test_every_change_of_basis_uses_one_rotation():
    from liecurv import binorm, homogeneous

    for fn in (binorm.binormalize, binorm.diagonalize_metric, homogeneous.build_spec):
        assert "_in_frame" in fn.__code__.co_names
        assert "einsum" not in fn.__code__.co_names


def _su5_singletons():
    su5 = lc.build_su(5)
    return (lc.SubalgebraEmbedding(parent=su5, h_basis=[], blocks=tuple([row] for row in np.eye(24))),
            lc.killing_metric(su5, 1.0))


@pytest.mark.parametrize("quotient", [_s2, _flag, _su5_singletons])
def test_build_spec_builds_no_model_and_factors_once(quotient, monkeypatch):
    # One Cholesky factor for the metric and every group of rows, one
    # rotation into the adapted frame, and no OrthonormalModel.
    from liecurv import binorm, homogeneous

    embedding, gram = quotient()
    calls = Counter()

    def counted(what, fn):
        def wrapper(*args, **kwargs):
            calls[what] += 1
            return fn(*args, **kwargs)
        return wrapper

    rotation, model = counted("rotation", binorm._in_frame), counted("model", binorm.OrthonormalModel)
    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky", np.linalg.cholesky))
    monkeypatch.setattr(binorm, "OrthonormalModel", model)  # homogeneous does not import the class
    for module in (binorm, homogeneous):
        monkeypatch.setattr(module, "_in_frame", rotation)
    lc.build_spec(embedding, gram)
    assert calls == {"cholesky": 1, "rotation": 1}


def _block_data_by_loops(embedding, metric):
    """Killing ratios, Casimirs and coupling one bracket at a time, the way
    build_spec computed them before it sliced the adapted-frame tensor."""
    from liecurv.homogeneous import _orthonormal_rows

    algebra, gram = embedding.parent, metric
    L = np.linalg.cholesky(gram)
    z = _orthonormal_rows(embedding.h_basis, L, "subalgebra")
    frames = [_orthonormal_rows(b, L, "block") for b in embedding.blocks]
    b_mat = -lc.killing(algebra).K
    ratios = [np.diag(f @ b_mat @ f.T).mean() for f in frames]
    casimirs = []
    for f in frames:
        cas = np.zeros((len(f), len(f)))
        for a in z:
            act = np.array([f @ gram @ algebra.bracket(a, x) for x in f]).T
            cas -= act @ act
        casimirs.append(max(np.diag(cas).mean(), 0.0))
    coupling = np.array([[[sum(np.sum((fk @ gram @ algebra.bracket(x, y)) ** 2) for x in fi for y in fj)
                           for fk in frames] for fj in frames] for fi in frames])
    return ratios, casimirs, coupling


def _su3_group():
    su3 = lc.build_su(3)
    return (lc.SubalgebraEmbedding(parent=su3, h_basis=[], blocks=tuple([row] for row in np.eye(8))),
            lc.killing_metric(su3, 1.0))


@pytest.mark.parametrize("quotient", [_s2, _flag, _four_sphere, _su3_group])
@pytest.mark.parametrize("seed", [None, 3])
def test_sliced_block_data_match_the_bracket_loops(quotient, seed):
    embedding, metric = quotient()
    if seed is not None:
        embedding, metric = _rebased(embedding, metric, seed)
    spec = lc.build_spec(embedding, metric)
    ratios, casimirs, coupling = _block_data_by_loops(embedding, metric)
    # the summation order changed, so agreement is to a few dozen ulps
    assert_allclose(spec.killing_ratios, ratios, rtol=0.0, atol=1e-14)
    assert_allclose(spec.casimirs, casimirs, rtol=0.0, atol=1e-14)
    assert_allclose(spec.coupling, coupling, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("scale", [None, True, "0.125", [0.125], float("nan"), float("inf"), 0.0,
                                   pytest.param(10**400, id="beyond-float")])
def test_derived_spec_scale_is_a_finite_positive_number(scale):
    obj = {"algebra": "su2", "scale": scale, "h_basis": [[0.0, 0.0, 1.0]],
           "blocks": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]}
    with pytest.raises(ValueError, match="scale"):
        lc.spec_from_dict(obj)


def test_derived_spec_scale_defaults_to_one():
    obj = {"algebra": "su2", "h_basis": [[0.0, 0.0, 1.0]], "blocks": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]]}
    default, one = lc.spec_from_dict(obj), lc.spec_from_dict({**obj, "scale": 1})
    assert default.killing_ratios.tolist() == one.killing_ratios.tolist()
    assert default.casimirs.tolist() == one.casimirs.tolist()
