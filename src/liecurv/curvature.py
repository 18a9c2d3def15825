"""Scalar curvature of diagonal invariant metrics: one formula, one oracle.

The private kernel :func:`_block_curvature`, its gradient
:func:`_block_gradient` and its Hessian :func:`_block_hessian` (all batched
over rows of ``lams``) hold the one block formula, used for groups
(:func:`scalar_curvature_closed`: singleton blocks, A = c^2), for
homogeneous quotients and by the certificate search.
:func:`scalar_curvature_koszul` rebuilds the same number from first
principles (frame, Koszul connection, full curvature tensor, trace) and
shares no algebra with the kernel, which makes it a genuine oracle.

Inputs are validated where they are built: :class:`OrthonormalModel` checks
total antisymmetry and derives the group's beta and coupling once,
``HomogeneousSpec`` checks its block data.  The evaluators check only the
eigenvalue vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binorm import DiagonalMetric, OrthonormalModel

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
    """A model as given; a raw tensor is wrapped in one, whose constructor
    checks its total antisymmetry."""
    if isinstance(model_or_tensor, OrthonormalModel):
        return model_or_tensor
    c = np.asarray(model_or_tensor, dtype=float)
    n = c.shape[0]
    return OrthonormalModel(name="tensor", n=n, t=np.eye(n), c=c)


def _lambda_vector(lam, n: int, batch: bool = False) -> np.ndarray:
    """Validated eigenvalue vector of length ``n``; with ``batch``, rows of them too."""
    values = lam.values if isinstance(lam, DiagonalMetric) else np.asarray(lam, dtype=float)
    if values.shape[-1:] != (n,) or values.ndim > (2 if batch else 1):
        raise ValueError(f"metric eigenvalue vector must have length {n}")
    if not np.all(values > 0):
        raise ValueError("metric eigenvalues must be positive")
    if not np.all(np.isfinite(values)):
        raise ValueError("metric eigenvalues must be finite")
    return values


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise outer products, flattened: out[m, i*s + j] = x[m, i] y[m, j]."""
    return (x[:, :, None] * y[:, None, :]).reshape(len(x), -1)


def _block_curvature(beta: np.ndarray, a: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """R = 1/2 sum_i beta_i / lam_i - 1/4 sum_ijk a[i,j,k] lam_k / (lam_i lam_j) per row of
    ``lams``, with beta_i = b_i d_i (for a group, beta_i = -K[i,i] = sum_jk c[i,j,k]^2).

    The coupling sum is a matrix product over chunks of rows, so the
    (rows, s^2) intermediate stays within CHUNK_ENTRIES however many rows
    come in.
    """
    s = a.shape[0]
    a_flat = a.reshape(s * s, s)
    inv = 1.0 / lams
    out = 0.5 * (inv @ beta)
    chunk = max(1, CHUNK_ENTRIES // (s * s))
    for lo in range(0, len(lams), chunk):
        rows = slice(lo, lo + chunk)
        coupling = np.einsum("mk,mk->m", _outer(inv[rows], inv[rows]) @ a_flat, lams[rows])
        out[rows] -= 0.25 * coupling
    return out


def _block_gradient(beta: np.ndarray, a: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Gradient of :func:`_block_curvature` per row of ``lams`` (or at one
    point), accumulating the three index roles a coordinate plays in the
    coupling term."""
    s = a.shape[0]
    lam2 = np.atleast_2d(lams)
    inv = 1.0 / lam2
    inv2 = inv * inv
    # First two slots together: (a + a^T01)[m, j, k] u_j lam_k; last slot alone.
    first_two = (a + a.transpose(1, 0, 2)).reshape(s, s * s)
    e12 = inv2 * (_outer(inv, lam2) @ first_two.T)
    e3 = _outer(inv, inv) @ a.reshape(s * s, s)
    grad = -0.5 * beta * inv2 + 0.25 * (e12 - e3)
    return grad if lams.ndim == 2 else grad[0]


def _block_hessian(beta: np.ndarray, a: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """Hessian of :func:`_block_curvature` per row of ``lams``, shape (m, s, s).

    With u = 1/lam and T = sum a[i,j,k] u_i u_j lam_k, H = diag(beta u^3) - T''/4
    where T''[m,n] = 2 delta_mn u_m^3 (P_m + Q_m) + u_m^2 u_n^2 (S_mn + S_nm)
    - u_m^2 (X_mn + Y_mn) - u_n^2 (X_nm + Y_nm), P_m = sum a[m,j,k] u_j lam_k,
    Q_m = sum a[i,m,k] u_i lam_k, S_mn = sum_k a[m,n,k] lam_k,
    X_mn = sum_j a[m,j,n] u_j and Y_mn = sum_i a[i,m,n] u_i.  No symmetry of
    ``a`` is assumed.
    """
    s = a.shape[0]
    u = 1.0 / lams
    u2 = u * u
    # xy[., m, n] = X_mn + Y_mn = sum_j (a[j,m,n] + a[m,j,n]) u_j; P + Q = xy @ lam.
    xy = (u @ (a + a.transpose(1, 0, 2)).reshape(s, s * s)).reshape(-1, s, s)
    pq = np.einsum("bmk,bk->bm", xy, lams)
    st = (lams @ a.reshape(s * s, s).T).reshape(-1, s, s)
    cross = u2[:, :, None] * xy
    hess = -0.25 * (u2[:, :, None] * u2[:, None, :] * (st + st.transpose(0, 2, 1))
                    - cross - cross.transpose(0, 2, 1))
    diag = np.arange(s)
    hess[:, diag, diag] += u2 * u * (beta - 0.5 * pq)
    return hess


def scalar_curvature_closed(model, lam) -> CurvatureResult:
    """Closed-form scalar curvature of the diagonal metric given by ``lam``.

    At lam = (1, ..., 1) this reduces to one quarter of the sum of squared
    structure constants.
    """
    model = _model(model)
    values = _lambda_vector(lam, model.n)
    r = _block_curvature(model.killing_ratios, model.coupling, values[None, :])[0]
    return CurvatureResult(R=float(r), method="closed-form", algebra=model.name, lam=values.copy())


def frame_connection(model, lam) -> FrameConnection:
    """Connection and curvature tensors in the g-orthonormal frame F_i = E_i / sqrt(lam_i).

    Frame brackets give cc[i,j,k] = <[F_i, F_j], F_k>_g; Koszul's formula
    then yields gamma[i,j,k] = (cc[i,j,k] - cc[j,k,i] + cc[k,i,j]) / 2 and
    the curvature tensor follows from R(X, Y) = [nabla_X, nabla_Y] -
    nabla_[X, Y] evaluated on frame fields.
    """
    model = _model(model)
    values = _lambda_vector(lam, model.n)
    inv_sqrt = 1.0 / np.sqrt(values)
    cc = model.c * np.einsum("i,j,k->ijk", inv_sqrt, inv_sqrt, np.sqrt(values))
    gamma = 0.5 * (cc - cc.transpose(2, 0, 1) + cc.transpose(1, 2, 0))
    t1 = np.einsum("jkl,ilm->ijkm", gamma, gamma)
    t3 = np.einsum("ijl,lkm->ijkm", cc, gamma)
    riem = t1 - t1.transpose(1, 0, 2, 3) - t3
    return FrameConnection(gamma=gamma, riem=riem)


def scalar_curvature_koszul(model, lam) -> CurvatureResult:
    """Scalar curvature via the full frame curvature tensor (the oracle route)."""
    model = _model(model)
    values = _lambda_vector(lam, model.n)
    conn = frame_connection(model, values)
    r = np.einsum("ijji->", conn.riem)
    return CurvatureResult(R=float(r), method="koszul", algebra=model.name, lam=values.copy())


def scalar_gradient(model, lam) -> np.ndarray:
    """Analytic gradient of the closed-form scalar curvature in ``lam``."""
    model = _model(model)
    values = _lambda_vector(lam, model.n)
    return _block_gradient(model.killing_ratios, model.coupling, values)
