"""Scalar curvature of diagonal invariant metrics: one formula, one oracle.

The private kernel :func:`_block_curvature`, its gradient
:func:`_block_gradient` and its Hessian :func:`_block_hessian` hold the one
block formula, used for groups and for homogeneous quotients.  Each takes a
``HomogeneousSpec`` and rows of ``lams``.  A group's spec is ``model.spec``
(singleton blocks, A = c^2), which :func:`scalar_curvature_closed` and
:func:`scalar_gradient` pass; the public evaluators take one point.
:func:`scalar_curvature_koszul` rebuilds the same number from first
principles (frame brackets, Koszul connection, the curvature's trace taken
inside its contraction) and shares no algebra with the kernel, which makes
it a genuine oracle.  :func:`frame_connection` assembles the full curvature
tensor from the same connection, for sectional curvatures.

Inputs are validated where they are built: :class:`OrthonormalModel` checks
total antisymmetry and ``HomogeneousSpec`` its block data, and a spec
derives the kernels' operands once.  The evaluators check only the
eigenvalue vector: its length, then one reduction each for positive and
finite values, so a single-point evaluation costs about what its kernel
costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binorm import HomogeneousSpec, OrthonormalModel
from .lie_core import _structure_tensor

# Entries of the (rows, s^2) intermediate in one matrix product of
# :func:`_block_curvature` (512 KB); 10k su(4) samples at once would need 18 MB.
CHUNK_ENTRIES = 1 << 16


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


def _model(model_or_tensor) -> OrthonormalModel:
    """A model as given; a raw (n, n, n) tensor is wrapped in one, whose
    constructor checks its total antisymmetry."""
    if isinstance(model_or_tensor, OrthonormalModel):
        return model_or_tensor
    c = _structure_tensor(model_or_tensor)
    n = c.shape[0]
    return OrthonormalModel(name="tensor", n=n, t=np.eye(n), c=c)


def _lambda_vector(lam, n: int) -> np.ndarray:
    """Validated eigenvalue vector of length ``n``, from any array-like; the
    one check each public evaluator runs once per call.

    The minimum propagates NaN, so NaN, zero, negative values and -inf all
    fail ``min > 0`` as not positive; past that, ``max < inf`` fails only
    on +inf.
    """
    values = np.asarray(lam, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"metric eigenvalue vector must have length {n}")
    if not values.min() > 0.0:
        raise ValueError("metric eigenvalues must be positive")
    if not values.max() < np.inf:
        raise ValueError("metric eigenvalues must be finite")
    return values


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise outer products, flattened: out[m, i*s + j] = x[m, i] y[m, j]."""
    return (x[:, :, None] * y[:, None, :]).reshape(len(x), -1)


def _block_curvature(spec: HomogeneousSpec, lams: np.ndarray) -> np.ndarray:
    """R = 1/2 sum_i beta_i / lam_i - 1/4 sum_ijk a[i,j,k] lam_k / (lam_i lam_j) per row of
    ``lams``.

    The three kernels read the spec's ``beta`` (beta_i = b_i d_i; for a
    group, -K[i,i] = sum_jk c[i,j,k]^2), ``coupling`` (a, shape (s, s, s);
    for a group, c^2) and ``coupling_first_two`` (a + a^T01 flattened to
    (s, s*s), the gradient's and Hessian's operand).  The coupling sum is a
    matrix product over chunks of rows, so the (rows, s^2) intermediate
    stays within CHUNK_ENTRIES however many rows come in.
    """
    s = spec.s
    a_flat = spec.coupling.reshape(s * s, s)
    inv = 1.0 / lams
    out = 0.5 * (inv @ spec.beta)
    chunk = max(1, CHUNK_ENTRIES // (s * s))
    for lo in range(0, len(lams), chunk):
        rows = slice(lo, lo + chunk)
        coupling = np.einsum("mk,mk->m", _outer(inv[rows], inv[rows]) @ a_flat, lams[rows])
        out[rows] -= 0.25 * coupling
    return out


def _block_gradient(spec: HomogeneousSpec, lams: np.ndarray) -> np.ndarray:
    """Gradient of :func:`_block_curvature` per row of ``lams``, accumulating
    the three index roles a coordinate plays in the coupling term.
    """
    s = spec.s
    inv = 1.0 / lams
    inv2 = inv * inv
    # First two slots together: first_two[m, j*s + k] u_j lam_k; last slot alone.
    e12 = inv2 * (_outer(inv, lams) @ spec.coupling_first_two.T)
    e3 = _outer(inv, inv) @ spec.coupling.reshape(s * s, s)
    return -0.5 * spec.beta * inv2 + 0.25 * (e12 - e3)


def _block_hessian(spec: HomogeneousSpec, lams: np.ndarray) -> np.ndarray:
    """Hessian of :func:`_block_curvature` per row of ``lams``, shape (m, s, s).

    With u = 1/lam and T = sum a[i,j,k] u_i u_j lam_k, H = diag(beta u^3) - T''/4
    where T''[m,n] = 2 delta_mn u_m^3 (P_m + Q_m) + u_m^2 u_n^2 (S_mn + S_nm)
    - u_m^2 (X_mn + Y_mn) - u_n^2 (X_nm + Y_nm), P_m = sum a[m,j,k] u_j lam_k,
    Q_m = sum a[i,m,k] u_i lam_k, S_mn = sum_k a[m,n,k] lam_k,
    X_mn = sum_j a[m,j,n] u_j and Y_mn = sum_i a[i,m,n] u_i.  No symmetry of
    ``a`` is assumed.
    """
    s = spec.s
    u = 1.0 / lams
    u2 = u * u
    # xy[., m, n] = X_mn + Y_mn = sum_j (a[j,m,n] + a[m,j,n]) u_j; P + Q = xy @ lam.
    xy = (u @ spec.coupling_first_two).reshape(-1, s, s)
    pq = np.einsum("bmk,bk->bm", xy, lams)
    st = (lams @ spec.coupling.reshape(s * s, s).T).reshape(-1, s, s)
    cross = u2[:, :, None] * xy
    hess = -0.25 * (u2[:, :, None] * u2[:, None, :] * (st + st.transpose(0, 2, 1))
                    - cross - cross.transpose(0, 2, 1))
    diag = np.arange(s)
    hess[:, diag, diag] += u2 * u * (spec.beta - 0.5 * pq)
    return hess


def scalar_curvature_closed(model, lam) -> CurvatureResult:
    """Closed-form scalar curvature of the diagonal metric given by ``lam``.

    At lam = (1, ..., 1) this reduces to one quarter of the sum of squared
    structure constants.
    """
    model = _model(model)
    values = _lambda_vector(lam, model.n)
    r = _block_curvature(model.spec, values[None, :])[0]
    return CurvatureResult(R=float(r), method="closed-form", algebra=model.name, lam=values.copy())


def _frame_brackets(model: OrthonormalModel, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame brackets cc[i,j,k] = <[F_i, F_j], F_k>_g in the g-orthonormal
    frame F_i = E_i / sqrt(lam_i), and the Koszul connection
    gamma[i,j,k] = (cc[i,j,k] - cc[j,k,i] + cc[k,i,j]) / 2."""
    inv_sqrt = 1.0 / np.sqrt(values)
    cc = model.c * np.einsum("i,j,k->ijk", inv_sqrt, inv_sqrt, np.sqrt(values))
    gamma = 0.5 * (cc - cc.transpose(2, 0, 1) + cc.transpose(1, 2, 0))
    return cc, gamma


def frame_connection(model, lam) -> FrameConnection:
    """Connection and curvature tensors in the g-orthonormal frame F_i = E_i / sqrt(lam_i).

    Frame brackets give cc[i,j,k] = <[F_i, F_j], F_k>_g; Koszul's formula
    then yields gamma[i,j,k] = (cc[i,j,k] - cc[j,k,i] + cc[k,i,j]) / 2 and
    the curvature tensor follows from R(X, Y) = [nabla_X, nabla_Y] -
    nabla_[X, Y] evaluated on frame fields:
    riem[i,j,k,m] = t1[i,j,k,m] - t1[j,i,k,m] - t3[i,j,k,m] with
    t1 = sum_l gamma[j,k,l] gamma[i,l,m] and t3 = sum_l cc[i,j,l] gamma[l,k,m],
    each one matrix product over reshaped tensors.
    """
    model = _model(model)
    values = _lambda_vector(lam, model.n)
    n = model.n
    cc, gamma = _frame_brackets(model, values)
    t1 = (gamma.reshape(n * n, n) @ gamma).reshape(n, n, n, n)
    t3 = (cc.reshape(n * n, n) @ gamma.reshape(n, n * n)).reshape(n, n, n, n)
    riem = t1 - t1.transpose(1, 0, 2, 3) - t3
    return FrameConnection(gamma=gamma, riem=riem)


def scalar_curvature_koszul(model, lam) -> CurvatureResult:
    """Scalar curvature sum_ij riem[i,j,j,i] from the Koszul connection (the oracle route).

    The trace of :func:`frame_connection`'s formula, taken inside the
    contraction in O(n^3) with no symmetry of cc or gamma assumed:
    sum_l (sum_j gamma[j,j,l]) (sum_i gamma[i,l,i]) - sum_ijl gamma[i,j,l] gamma[j,l,i]
    - sum_ijl cc[i,j,l] gamma[l,j,i].  The two n^3 sums are elementwise
    products reduced by ``sum``, not BLAS dot products, which OpenBLAS may
    split across threads; so the value does not depend on the thread count.
    """
    model = _model(model)
    values = _lambda_vector(lam, model.n)
    cc, gamma = _frame_brackets(model, values)
    first = np.einsum("jjl->l", gamma) @ np.einsum("ili->l", gamma)
    second = (gamma * gamma.transpose(2, 0, 1)).sum()
    third = (cc * gamma.transpose(2, 1, 0)).sum()
    r = first - second - third
    return CurvatureResult(R=float(r), method="koszul", algebra=model.name, lam=values.copy())


def scalar_gradient(model, lam) -> np.ndarray:
    """Analytic gradient of the closed-form scalar curvature in ``lam``."""
    model = _model(model)
    values = _lambda_vector(lam, model.n)
    return _block_gradient(model.spec, values[None, :])[0]
