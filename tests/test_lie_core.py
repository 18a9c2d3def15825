import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

import liecurv as lc


# su(2) as -i times the Pauli matrices, written out: an independent reference
# for the conventions build_su(2) reproduces.
PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))
MINUS_I_PAULI = tuple(-1j * sigma for sigma in PAULI)


def pauli_algebra():
    return lc.from_matrix_basis(lc.MatrixBasis(MINUS_I_PAULI, name="su2"))


def test_pauli_structure_constants():
    expected = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        expected[i, j, k] = 2.0
        expected[j, i, k] = -2.0
    for algebra in (pauli_algebra(), lc.build_su(2)):
        assert_allclose(algebra.c, expected, atol=1e-12)


def test_bracket_pauli_cyclic():
    algebra = pauli_algebra()
    e = np.eye(3)
    assert_allclose(algebra.bracket(e[0], e[1]), [0, 0, 2], atol=1e-12)
    assert_allclose(algebra.bracket(e[1], e[2]), [2, 0, 0], atol=1e-12)
    assert_allclose(algebra.bracket(e[2], e[0]), [0, 2, 0], atol=1e-12)


def test_bracket_antisymmetric_on_equal_args():
    algebra = pauli_algebra()
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = rng.normal(size=3)
        assert_allclose(algebra.bracket(x, x), np.zeros(3), atol=1e-12)


def test_bracket_bilinear():
    algebra = lc.build_su(3)
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y, z = rng.normal(size=(3, algebra.dim))
        alpha, beta = rng.normal(size=2)
        lhs = algebra.bracket(alpha * x + beta * y, z)
        rhs = alpha * algebra.bracket(x, z) + beta * algebra.bracket(y, z)
        assert_allclose(lhs, rhs, atol=1e-12)


def test_bracket_dimension_mismatch():
    algebra = pauli_algebra()
    with pytest.raises(ValueError, match="length 3"):
        algebra.bracket([1.0, 0.0], [0.0, 1.0, 0.0])


def test_singleton_basis_is_abelian():
    basis = lc.MatrixBasis((np.diag([1j, -1j]),), name="u1")
    algebra = lc.from_matrix_basis(basis)
    assert algebra.dim == 1
    assert np.all(algebra.c == 0.0)


def test_so3_cyclic_basis_matches_matrix_arithmetic():
    # L_i = E_jk - E_kj for cyclic (i, j, k); the expected bracket signs come
    # from expanding the commutators directly.
    mats = []
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        m = np.zeros((3, 3), dtype=complex)
        m[j, k] = 1.0
        m[k, j] = -1.0
        mats.append(m)
    comm = mats[0] @ mats[1] - mats[1] @ mats[0]
    assert_allclose(comm, -mats[2], atol=1e-15)  # [L_1, L_2] = -L_3

    algebra = lc.from_matrix_basis(lc.MatrixBasis(tuple(mats), name="so3-cyclic"))
    expected = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        expected[i, j, k] = -1.0
        expected[j, i, k] = 1.0
    assert_allclose(algebra.c, expected, atol=1e-12)


@pytest.mark.parametrize("n,dim", [(2, 3), (3, 8), (4, 15)])
def test_build_su_dimensions(n, dim):
    algebra = lc.build_su(n)
    assert algebra.dim == dim
    assert lc.jacobi_defect(algebra) <= 1e-10 * np.abs(algebra.c).max()


@pytest.mark.parametrize("n,dim", [(3, 3), (4, 6), (5, 10)])
def test_build_so_dimensions(n, dim):
    algebra = lc.build_so(n)
    assert algebra.dim == dim
    assert lc.jacobi_defect(algebra) <= 1e-10 * np.abs(algebra.c).max()


def test_builder_range_errors():
    with pytest.raises(ValueError):
        lc.build_su(1)
    with pytest.raises(ValueError):
        lc.build_so(2)


def test_direct_sum_block_structure():
    a = lc.build_su(2)
    total = lc.direct_sum(a, a)
    assert total.dim == 6
    # no cross-block structure constants at all
    assert np.all(total.c[:3, 3:, :] == 0.0)
    assert np.all(total.c[:3, :3, 3:] == 0.0)
    kd = lc.killing(total)
    assert_allclose(kd.K, np.diag([-8.0] * 6), atol=1e-12)
    assert kd.center_dim == 0


def test_killing_block_structure_of_mixed_sum():
    a, b = lc.build_su(2), lc.build_so(4)
    kd = lc.killing(lc.direct_sum(a, b))
    expected = np.zeros((9, 9))
    expected[:3, :3] = lc.killing(a).K
    expected[3:, 3:] = lc.killing(b).K
    assert_allclose(kd.K, expected, atol=1e-12)


def test_killing_su2_against_trace_loop():
    algebra = pauli_algebra()
    kd = lc.killing(algebra)
    # independent route: the traces of products of explicit ad matrices
    e = np.eye(3)
    brute = np.array([[np.trace(algebra.ad(e[i]) @ algebra.ad(e[j])) for j in range(3)]
                      for i in range(3)])
    assert_allclose(kd.K, brute, atol=1e-12)
    assert_allclose(kd.K, np.diag([-8.0, -8.0, -8.0]), atol=1e-12)
    assert_allclose(kd.B, -kd.K)
    assert kd.signature == (3, 0, 0)
    assert kd.semisimple
    assert kd.center_dim == 0


def test_killing_abelian():
    kd = lc.killing(lc.abelian(1))
    assert kd.K.shape == (1, 1) and kd.K[0, 0] == 0.0
    assert not kd.semisimple
    assert kd.center_dim == 1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_su_n_semisimple(n):
    kd = lc.killing(lc.build_su(n))
    assert kd.semisimple
    assert kd.center_dim == 0
    assert kd.signature == (n * n - 1, 0, 0)


def test_abelian_summand_breaks_semisimplicity():
    algebra = lc.direct_sum(lc.build_su(2), lc.abelian(1))
    kd = lc.killing(algebra)
    assert not kd.semisimple
    assert kd.center_dim == 1
    assert kd.signature == (3, 1, 0)


@pytest.mark.parametrize("name", ["su3", "so4"])
def test_killing_ad_invariance(name):
    algebra = lc.resolve_algebra(name)
    kd = lc.killing(algebra)
    # K([e_i, e_j], e_k) + K(e_j, [e_i, e_k]) = 0 over all basis triples
    defect = np.einsum("ijm,mk->ijk", algebra.c, kd.K) + np.einsum("jm,ikm->ijk", kd.K, algebra.c)
    assert np.abs(defect).max() <= 1e-10 * np.abs(kd.K).max()


def test_jacobi_defect_zero_for_su3():
    assert lc.jacobi_defect(lc.build_su(3)) <= 1e-12


def test_jacobi_defect_of_rescaled_cyclic_bracket_is_zero():
    # in dimension 3 every double bracket of the cyclic pattern lands on
    # [e_k, e_k], so rescaling one cyclic constant cannot break Jacobi
    algebra = pauli_algebra()
    c = algebra.c.copy()
    c[0, 1, 2] = 2.1
    c[1, 0, 2] = -2.1
    perturbed = lc.LieAlgebra("su2-rescaled", 3, c)
    assert lc.jacobi_defect(perturbed) == 0.0


def test_jacobi_defect_detects_perturbation():
    algebra = pauli_algebra()
    c = algebra.c.copy()
    c[0, 1, 0] = 0.1  # off-pattern entry: [e_0, e_1] picks up an e_0 component
    c[1, 0, 0] = -0.1
    perturbed = lc.LieAlgebra("su2-perturbed", 3, c)
    assert lc.jacobi_defect(perturbed) == pytest.approx(0.2, abs=1e-12)


def test_jacobi_defect_abelian_exact_zero():
    assert lc.jacobi_defect(lc.abelian(4)) == 0.0
    assert lc.jacobi_defect(np.zeros((0, 0, 0))) == 0.0


def test_jacobi_defect_matches_the_definition_on_a_dense_perturbed_basis():
    # so5 in a seeded random orthogonal basis, antisymmetrized exactly, with
    # one bracket moved by 1e-3; the reference sums
    # c[i,j,m] c[m,k,l] + c[j,k,m] c[m,i,l] + c[k,i,m] c[m,j,l] quadruple by
    # quadruple.  The residual cancels products of size ~1 down to ~6e-4, so
    # rounding is measured against the largest product, as _negligible does.
    so5 = lc.build_so(5)
    n = so5.dim
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((n, n)))
    c = np.einsum("ijk,ia,jb,kc->abc", so5.c, q, q, q)
    c = 0.5 * (c - c.swapaxes(0, 1))
    c[0, 1, 2] += 1e-3
    c[1, 0, 2] -= 1e-3
    perturbed = lc.LieAlgebra("so5-perturbed", n, c)
    t = c.tolist()
    reference = max(
        abs(sum(t[i][j][m] * t[m][k][l] + t[j][k][m] * t[m][i][l] + t[k][i][m] * t[m][j][l]
                for m in range(n)))
        for i in range(n) for j in range(n) for k in range(n) for l in range(n))
    assert reference > 1e-4
    size = np.abs(np.einsum("ijm,mkl->ijkl", c, c)).max()
    assert abs(lc.jacobi_defect(perturbed) - reference) <= 1e-14 * size


def test_from_matrix_basis_rejects_non_closed():
    mats = MINUS_I_PAULI[:2]
    with pytest.raises(ValueError, match="not a subalgebra"):
        lc.from_matrix_basis(lc.MatrixBasis(mats, name="open"))


def test_from_matrix_basis_names_the_first_open_pair():
    # [M_0, M_1] = 0 closes; [M_0, M_2] is symmetric off the diagonal and
    # leaves the span, so it is the first pair named.
    m2 = np.zeros((3, 3), dtype=complex)
    m2[0, 1], m2[1, 0] = 1.0, -1.0
    mats = (1j * np.diag([1.0, -1.0, 0.0]), 1j * np.diag([0.0, 1.0, -1.0]), m2)
    with pytest.raises(ValueError, match=r"not a subalgebra: \[M_0, M_2\] does not expand"):
        lc.from_matrix_basis(lc.MatrixBasis(mats, name="open"))


def _su_basis(n):
    return np.stack([-1j * g for g in lc.lie_core._hermitian_generators(n)])


def _so_basis(n):
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j], m[j, i] = 1.0, -1.0
            mats.append(m)
    return np.stack(mats)


def _pairwise_constants(stack):
    """Structure constants expanded one pair i < j at a time, the reference
    for the one-pass expansion of :func:`from_matrix_basis`."""
    n = len(stack)
    gram = -np.real(np.einsum("aij,bji->ab", stack, stack))
    c = np.zeros((n, n, n))
    for i in range(n):
        for j in range(i + 1, n):
            comm = stack[i] @ stack[j] - stack[j] @ stack[i]
            c[i, j] = np.linalg.solve(gram, -np.real(np.einsum("ij,kji->k", comm, stack)))
    c[np.abs(c) <= lc.lie_core.ZERO_DROP * np.abs(c).max()] = 0.0
    rows, cols = np.triu_indices(n, 1)
    c[cols, rows] = -c[rows, cols]
    return c


@pytest.mark.parametrize("stack", [_su_basis(n) for n in range(2, 7)] + [_so_basis(n) for n in range(3, 9)],
                         ids=[f"su{n}" for n in range(2, 7)] + [f"so{n}" for n in range(3, 9)])
def test_one_pass_expansion_is_bitwise_the_pairwise_one(stack):
    c = lc.from_matrix_basis(lc.MatrixBasis(tuple(stack))).c
    reference = _pairwise_constants(stack)
    assert np.array_equal(c, reference)
    assert np.array_equal(np.signbit(c), np.signbit(reference))  # -0.0 included


@pytest.mark.parametrize("stack", [_su_basis(4), _so_basis(5)], ids=["su4", "so5"])
@pytest.mark.parametrize("seed", range(4))
def test_one_pass_expansion_of_a_non_orthogonal_basis(stack, seed):
    # A random invertible mix is not orthogonal for the trace pairing, so
    # every coefficient comes from a genuine Gram solve.
    mix = np.random.default_rng(seed).normal(size=(len(stack), len(stack)))
    mixed = np.einsum("ab,bij->aij", mix, stack)
    c = lc.from_matrix_basis(lc.MatrixBasis(tuple(mixed))).c
    comm = np.einsum("aij,bjk->abik", mixed, mixed) - np.einsum("bij,ajk->abik", mixed, mixed)
    assert np.abs(comm - np.einsum("abk,kij->abij", c, mixed)).max() <= 1e-12 * np.abs(mixed).max() ** 2
    assert np.abs(c - _pairwise_constants(mixed)).max() <= 1e-13 * np.abs(c).max()


def test_from_matrix_basis_rejects_dependent():
    m = MINUS_I_PAULI[0]
    with pytest.raises(ValueError, match="dependent basis"):
        lc.from_matrix_basis(lc.MatrixBasis((m, 2.0 * m), name="dep"))


def test_matrix_basis_rejects_non_skew():
    with pytest.raises(ValueError, match="skew-Hermitian"):
        lc.MatrixBasis((np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),))


@pytest.mark.parametrize("build, message", [
    (lambda: lc.LieAlgebra("empty", 0, np.zeros((0, 0, 0))), "dimension must be a positive integer"),
    (lambda: lc.LieAlgebra("short", 2, np.zeros((3, 3, 3))), r"must have shape \(2, 2, 2\)"),
    (lambda: lc.build_su(2).ad([1.0, 0.0]), "length 3"),
    (lambda: lc.MatrixBasis(()), "non-empty"),
    (lambda: lc.MatrixBasis((np.eye(2) * 1j, np.eye(3) * 1j)), "square and of equal size"),
    (lambda: lc.MatrixBasis((np.ones(2) * 1j,)), "square and of equal size"),
    (lambda: lc.MatrixBasis((np.complex128(0),)), "square and of equal size"),
    (lambda: lc.MatrixBasis((np.zeros((0, 0)),)), "square and of equal size"),
    (lambda: lc.abelian(0), "dim >= 1"),
    (lambda: lc.algebra_from_dict({"name": "keyless", "dim": 3}), "must define name, dim, structure_constants"),
], ids=["dim-0", "tensor-shape", "ad-length", "empty-basis", "unequal-matrices", "vector-matrix", "scalar-matrix",
        "empty-matrix", "abelian-0", "missing-key"])
def test_constructors_refuse_malformed_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def _nan_gram():
    """su(2)'s round metric with one symmetric pair of Gram entries NaN."""
    gram = lc.killing_metric(lc.build_su(2), 0.125).gram.copy()
    gram[0, 1] = gram[1, 0] = np.nan
    return gram


@pytest.mark.parametrize("build, message", [
    (lambda: lc.binormalize(lc.build_su(2), lc.BiInvariantMetric(lc.build_su(2), _nan_gram())),
     "gram matrix must be finite"),
    (lambda: lc.scalar_curvature_closed(np.full((3, 3, 3), np.nan), [1.0, 1.0, 1.0]),
     "not totally antisymmetric"),
    (lambda: lc.MatrixBasis((np.array([[1j, np.nan], [0.0, -1j]]),)), "skew-Hermitian"),
    (lambda: lc.diagonalize_metric(lc.binormalize(lc.build_su(2), lc.killing_metric(lc.build_su(2), 1.0)),
                                   np.array([[1.0, np.nan, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
     "metric operator must be symmetric"),
    (lambda: lc.build_spec(lc.SubalgebraEmbedding(lc.build_su(2), [[0.0, 0.0, 1.0]],
                                                  ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],)),
                           lc.BiInvariantMetric(lc.build_su(2), _nan_gram())),
     "gram matrix must be finite"),
    (lambda: lc.build_spec(lc.SubalgebraEmbedding(lc.build_su(2), [[0.0, 0.0, 1.0]],
                                                  ([[1.0, 0.0, 0.0], [0.0, np.nan, 0.0]],)),
                           lc.killing_metric(lc.build_su(2), 0.125)),
     "not mutually orthogonal"),
], ids=["binormalize-gram", "closed-tensor", "matrix-basis", "diagonalize-operator", "build_spec-gram",
        "build_spec-embedding"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN arithmetic before the refusal
def test_nan_data_fail_the_check_they_reach(build, message):
    # A NaN defect is never negligible: each case is refused by the check that
    # reads the NaN, not accepted, and not blamed on a later check.
    with pytest.raises(ValueError, match=message):
        build()


def test_negligible_is_the_one_rule():
    from liecurv.lie_core import DEFAULT_TOL, _negligible

    assert _negligible(DEFAULT_TOL * 4.0, 4.0)
    assert not _negligible(np.nextafter(DEFAULT_TOL * 4.0, 1.0), 4.0)
    assert _negligible(0.0, 0.0) and _negligible(1e-13, 1.0, tol=1e-12)
    assert not np.any(_negligible(np.array([np.nan, 0.0]), np.array([1.0, np.nan])))


def test_algebra_constructor_enforces_antisymmetry():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # mirror entry missing
    with pytest.raises(ValueError, match="c\\[j,i,k\\]"):
        lc.LieAlgebra("bad", 2, c)


# ---------------------------------------------------------------------------
# structure-constant files
# ---------------------------------------------------------------------------

def test_algebra_file_roundtrip(tmp_path):
    for algebra in (lc.build_su(2), lc.build_su(3), lc.build_so(5),
                    lc.direct_sum(lc.build_su(2), lc.abelian(1))):
        doc = lc.algebra_to_dict(algebra)
        n, c = algebra.dim, algebra.c
        # the entries in the order of a loop over i < j, then k
        assert doc["structure_constants"] == [[i, j, k, float(c[i, j, k])] for i in range(n)
                                              for j in range(i + 1, n) for k in range(n) if c[i, j, k] != 0.0]
        path = tmp_path / f"{algebra.name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = lc.algebra_from_file(path)
        assert loaded.name == algebra.name
        assert np.array_equal(loaded.c, algebra.c)


def test_algebra_dict_completion():
    obj = {"name": "half", "dim": 3, "structure_constants": [[0, 1, 2, 2.0]]}
    algebra = lc.algebra_from_dict(obj)
    assert algebra.c[0, 1, 2] == 2.0
    assert algebra.c[1, 0, 2] == -2.0


def test_algebra_dict_consistent_mirror_allowed():
    obj = {"name": "full", "dim": 3,
           "structure_constants": [[0, 1, 2, 2.0], [1, 0, 2, -2.0]]}
    algebra = lc.algebra_from_dict(obj)
    assert algebra.c[0, 1, 2] == 2.0


def test_algebra_dict_duplicate_rejected():
    obj = {"name": "dup", "dim": 3,
           "structure_constants": [[0, 1, 2, 2.0], [0, 1, 2, 2.0]]}
    with pytest.raises(ValueError, match="duplicate"):
        lc.algebra_from_dict(obj)


def test_algebra_dict_conflicting_mirror_rejected():
    obj = {"name": "conflict", "dim": 3,
           "structure_constants": [[0, 1, 2, 2.0], [1, 0, 2, 2.0]]}
    with pytest.raises(ValueError, match="not antisymmetric"):
        lc.algebra_from_dict(obj)


def test_algebra_dict_diagonal_rejected():
    obj = {"name": "diag", "dim": 2, "structure_constants": [[1, 1, 0, 1.0]]}
    with pytest.raises(ValueError, match="antisymmetry"):
        lc.algebra_from_dict(obj)


def test_algebra_dict_index_range():
    obj = {"name": "oob", "dim": 2, "structure_constants": [[0, 2, 0, 1.0]]}
    with pytest.raises(ValueError, match="out of range"):
        lc.algebra_from_dict(obj)


def test_resolve_algebra():
    assert lc.resolve_algebra("su3").dim == 8
    assert lc.resolve_algebra("so5").dim == 10
    with pytest.raises(ValueError, match="unknown algebra source"):
        lc.resolve_algebra("sp4")


@pytest.mark.parametrize("change, message", [
    ({"structure_constants": 5}, "structure_constants must be a list"),
    ({"structure_constants": [7]}, r"entries must be \[i, j, k, value\]"),
    ({"structure_constants": [[0, 1, 2, None]]}, "value must be a number"),
    ({"structure_constants": [[0, 1, 2, True]]}, "value must be a number"),
    ({"structure_constants": [[0, 1, 2, "2"]]}, "value must be a number"),
    ({"structure_constants": [[0, 1, 2, 10 ** 400]]}, "value is out of range"),
    ({"structure_constants": [[0, 1.7, 2, 1.0]]}, "index must be an integer"),
    ({"structure_constants": [[0, False, 2, 1.0]]}, "index must be a number"),
    ({"dim": 2.5}, "dim must be an integer"),
    ({"dim": "3"}, "dim must be a number"),
    ({"dim": float("inf")}, "dim must be an integer"),
    ({"dim": 0}, "dim must be a positive integer"),
    ({"structure_constants": [[0, 1, 2, float("nan")]]}, r"non-finite structure constant at \(0, 1, 2\)"),
    ({"structure_constants": [[0, 1, 2, float("inf")]]}, "non-finite structure constant"),
])
def test_malformed_algebra_dict_is_a_value_error(change, message):
    obj = {"name": "bad", "dim": 3, "structure_constants": [[0, 1, 2, 1.0]], **change}
    with pytest.raises(ValueError, match=message):
        lc.algebra_from_dict(obj)


def test_algebra_dict_accepts_integral_floats():
    obj = {"name": "half", "dim": 3.0, "structure_constants": [[0.0, 1, 2.0, 2]]}
    algebra = lc.algebra_from_dict(obj)
    assert algebra.dim == 3
    assert algebra.c[0, 1, 2] == 2.0 and algebra.c[1, 0, 2] == -2.0
