"""Scalar curvature of diagonal invariant metrics: one formula, one oracle.

The private kernel :func:`_block_curvature` (batched over rows of ``lams``)
and its gradient :func:`_block_gradient` hold the one block formula, used
for groups (:func:`scalar_curvature_closed`: singleton blocks, A = c^2),
for homogeneous quotients and by the certificate search.
:func:`scalar_curvature_koszul` rebuilds the same number from first
principles (frame, Koszul connection, full curvature tensor, trace) and
shares no algebra with the kernel, which makes it a genuine oracle.

Inputs are validated where they are built: :class:`OrthonormalModel` checks
total antisymmetry, ``HomogeneousSpec`` its block data.  The evaluators
check only the eigenvalue vector, plus any raw tensor passed for a model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binorm import DiagonalMetric, OrthonormalModel
from .lie_core import DEFAULT_TOL


@dataclass(frozen=True)
class CurvatureResult:
    """Scalar curvature value plus an echo of what produced it."""

    R: float
    method: str
    algebra: str
    lam: np.ndarray


@dataclass(frozen=True)
class FrameConnection:
    """Connection and curvature coefficients in a metric-orthonormal
    left-invariant frame; all entries are constants on the group."""

    gamma: np.ndarray  # gamma[i, j, k] = <nabla_{F_i} F_j, F_k>
    riem: np.ndarray   # riem[i, j, k, l] = <R(F_i, F_j) F_k, F_l>


def _model(model_or_tensor, tol: float) -> OrthonormalModel:
    """A model as given; a raw tensor is wrapped in one, whose constructor
    checks its total antisymmetry."""
    if isinstance(model_or_tensor, OrthonormalModel):
        return model_or_tensor
    c = np.asarray(model_or_tensor, dtype=float)
    n = c.shape[0]
    return OrthonormalModel(name="tensor", n=n, t=np.eye(n), c=c, tol=tol)


def _lambda_vector(lam, n: int) -> np.ndarray:
    values = lam.values if isinstance(lam, DiagonalMetric) else np.asarray(lam, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"metric eigenvalue vector must have length {n}")
    if not np.all(values > 0):
        raise ValueError("metric eigenvalues must be positive")
    return values


def _block_curvature(beta: np.ndarray, a: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """R = 1/2 sum_i beta_i / lam_i - 1/4 sum_ijk a[i,j,k] lam_k / (lam_i lam_j) per row of
    ``lams``, with beta_i = b_i d_i (for a group, beta_i = sum_jk c[i,j,k]^2)."""
    inv = 1.0 / lams
    return 0.5 * inv @ beta - 0.25 * np.einsum("ijk,mi,mj,mk->m", a, inv, inv, lams)


def _block_gradient(beta: np.ndarray, a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Gradient of :func:`_block_curvature` at one point, accumulating the
    three index roles a coordinate plays in the coupling term."""
    inv = 1.0 / lam
    inv2 = inv * inv
    e1 = inv2 * np.einsum("mjk,j,k->m", a, inv, lam)
    e2 = inv2 * np.einsum("imk,i,k->m", a, inv, lam)
    e3 = np.einsum("ijm,i,j->m", a, inv, inv)
    return -0.5 * beta * inv2 + 0.25 * (e1 + e2 - e3)


def scalar_curvature_closed(model, lam, tol: float = DEFAULT_TOL) -> CurvatureResult:
    """Closed-form scalar curvature of the diagonal metric given by ``lam``.

    At lam = (1, ..., 1) this reduces to one quarter of the sum of squared
    structure constants.  ``tol`` applies only to a raw tensor.
    """
    model = _model(model, tol)
    values = _lambda_vector(lam, model.n)
    c2 = model.c * model.c
    r = _block_curvature(c2.sum(axis=(1, 2)), c2, values[None, :])[0]
    return CurvatureResult(R=float(r), method="closed-form", algebra=model.name, lam=values.copy())


def frame_connection(model, lam, tol: float = DEFAULT_TOL) -> FrameConnection:
    """Connection and curvature tensors in the g-orthonormal frame F_i = E_i / sqrt(lam_i).

    Frame brackets give cc[i,j,k] = <[F_i, F_j], F_k>_g; Koszul's formula
    then yields gamma[i,j,k] = (cc[i,j,k] - cc[j,k,i] + cc[k,i,j]) / 2 and
    the curvature tensor follows from R(X, Y) = [nabla_X, nabla_Y] -
    nabla_[X, Y] evaluated on frame fields.
    """
    model = _model(model, tol)
    values = _lambda_vector(lam, model.n)
    inv_sqrt = 1.0 / np.sqrt(values)
    cc = model.c * np.einsum("i,j,k->ijk", inv_sqrt, inv_sqrt, np.sqrt(values))
    gamma = 0.5 * (cc - cc.transpose(2, 0, 1) + cc.transpose(1, 2, 0))
    t1 = np.einsum("jkl,ilm->ijkm", gamma, gamma)
    t3 = np.einsum("ijl,lkm->ijkm", cc, gamma)
    riem = t1 - t1.transpose(1, 0, 2, 3) - t3
    return FrameConnection(gamma=gamma, riem=riem)


def scalar_curvature_koszul(model, lam, tol: float = DEFAULT_TOL) -> CurvatureResult:
    """Scalar curvature via the full frame curvature tensor (the oracle route)."""
    model = _model(model, tol)
    values = _lambda_vector(lam, model.n)
    conn = frame_connection(model, values)
    r = np.einsum("ijji->", conn.riem)
    return CurvatureResult(R=float(r), method="koszul", algebra=model.name, lam=values.copy())


def scalar_gradient(model, lam, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Analytic gradient of the closed-form scalar curvature in ``lam``."""
    model = _model(model, tol)
    values = _lambda_vector(lam, model.n)
    c2 = model.c * model.c
    return _block_gradient(c2.sum(axis=(1, 2)), c2, values)
