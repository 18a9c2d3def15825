import numpy as np
import pytest

import liecurv as lc

# Canonical reference scales: the round normalization for su2, the negative
# Killing form itself everywhere else.
CANONICAL_SCALE = {"su2": 0.125}


def canonical_scale(name: str) -> float:
    return CANONICAL_SCALE.get(name, 1.0)


def canonical_model(name: str) -> lc.OrthonormalModel:
    algebra = lc.resolve_algebra(name)
    return lc.binormalize(algebra, lc.killing_metric(algebra, canonical_scale(name)))


@pytest.fixture(scope="session")
def su2():
    return lc.build_su(2)


@pytest.fixture(scope="session")
def su2_model(su2):
    return lc.binormalize(su2, lc.killing_metric(su2, 0.125))


@pytest.fixture(scope="session")
def group_models():
    return {name: canonical_model(name) for name in ("su2", "su3", "so4", "so5")}


@pytest.fixture(scope="session")
def group_specs(group_models):
    """Trivial-subalgebra specs with singleton blocks, one per test algebra."""
    out = {}
    for name in ("su2", "su3", "so4", "so5"):
        algebra = lc.resolve_algebra(name)
        blocks = tuple([np.eye(algebra.dim)[i]] for i in range(algebra.dim))
        embedding = lc.SubalgebraEmbedding(parent=algebra, h_basis=[], blocks=blocks)
        out[name] = lc.build_spec(embedding, lc.killing_metric(algebra, canonical_scale(name)), name=name)
    return out


@pytest.fixture(scope="session")
def s2_spec(su2):
    embedding = lc.SubalgebraEmbedding(
        parent=su2, h_basis=[[0.0, 0.0, 1.0]],
        blocks=([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],),
    )
    return lc.build_spec(embedding, lc.killing_metric(su2, 0.125), name="s2")


@pytest.fixture(scope="session")
def flag_spec():
    """SU(3) over its maximal torus: three 2-dim root blocks."""
    su3 = lc.build_su(3)
    e = np.eye(8)
    embedding = lc.SubalgebraEmbedding(
        parent=su3, h_basis=[e[6], e[7]],
        blocks=(np.vstack([e[0], e[3]]), np.vstack([e[1], e[4]]), np.vstack([e[2], e[5]])))
    return lc.build_spec(embedding, lc.killing_metric(su3, 1.0), name="flag")


@pytest.fixture(scope="session")
def dense_algebras():
    """so7 and su5 in a random orthogonal basis f_a = sum_i q[i, a] e_i, where
    every structure constant is nonzero and every contraction sums over all
    its terms; antisymmetrized exactly in the first two slots, as the
    benchmark rebases."""
    rng = np.random.default_rng(2020)
    out = {}
    for name in ("so7", "su5"):
        algebra = lc.resolve_algebra(name)
        q, _ = np.linalg.qr(rng.standard_normal((algebra.dim, algebra.dim)))
        c = np.einsum("ijk,ia,jb,kc->abc", algebra.c, q, q, q, optimize=True)
        out[name] = lc.LieAlgebra(name, algebra.dim, 0.5 * (c - c.swapaxes(0, 1)))
    return out
