"""Scalar curvature of diagonal invariant metrics: one formula, one oracle.

The private kernel :func:`_block_curvature`, its gradient
:func:`_block_gradient` and its Hessian :func:`_block_hessian` hold the one
block formula, used for groups and for homogeneous quotients.  Each takes a
``HomogeneousSpec`` and ``lams``: the curvature and gradient kernels one
point of shape (s,) or rows of shape (m, s), the Hessian rows.  The public
evaluators :func:`scalar_curvature_closed` and :func:`scalar_gradient` take
one point and a spec, a model or a raw structure tensor, and pass the
validated point straight to the kernels; a group is the quotient by the
trivial subgroup, whose spec is ``model.spec`` (singleton blocks, A = c^2).
:func:`scalar_curvature_koszul` rebuilds the same number from first
principles and shares no algebra with the kernel, which makes it a genuine
oracle: frame brackets give the Koszul connection, and the connection the
frame-plane sectional curvatures K of :func:`frame_curvatures` in
O(n^3).  K's sum is the scalar curvature, and its column sums, the Ricci
curvatures, give the gradient dR/dlam_j = -Ric(F_j, F_j) / lam_j.

Inputs are validated where they are built: :class:`OrthonormalModel` checks
its tensor's shape and total antisymmetry (a raw tensor is wrapped in
one), ``HomogeneousSpec`` its block data, and a spec derives the kernels'
operands once.  The evaluators check only the eigenvalue vector: its
length, then one reduction each for positive and finite values, so a
single-point evaluation costs about what its kernel costs.  A
:class:`CurvatureResult` holds the value and the route, no echo of the
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binorm import HomogeneousSpec, OrthonormalModel

# Entries of the (rows, s^2) intermediate in one matrix product of
# :func:`_block_curvature` (512 KB); 10k su(4) samples at once would need 18 MB.
CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class CurvatureResult:
    """Scalar curvature value and the route that produced it ("closed-form",
    "homogeneous" or "koszul")."""

    R: float
    method: str


def _model(model_or_tensor) -> OrthonormalModel:
    """A model as given; a raw tensor is wrapped in one, whose constructor
    checks its shape and total antisymmetry."""
    if isinstance(model_or_tensor, OrthonormalModel):
        return model_or_tensor
    return OrthonormalModel(name="tensor", c=model_or_tensor)


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
    """Outer products, flattened, of one point (s,) or row-wise of rows (m, s):
    out[i*s + j] = x[i] y[j], or out[m, i*s + j] = x[m, i] y[m, j]."""
    if x.ndim == 1:
        return np.multiply.outer(x, y).ravel()
    return (x[:, :, None] * y[:, None, :]).reshape(len(x), -1)


def _chunk_rows(s: int) -> int:
    """Rows in one matrix product of :func:`_block_curvature` on ``s`` blocks:
    its (rows, s^2) intermediate holds at most CHUNK_ENTRIES entries, or one
    row where s^2 exceeds that."""
    return max(1, CHUNK_ENTRIES // (s * s))


def _block_curvature(spec: HomogeneousSpec, lams: np.ndarray) -> np.ndarray:
    """R = 1/2 sum_i beta_i / lam_i - 1/4 sum_ijk a[i,j,k] lam_k / (lam_i lam_j) at
    one point ``lams`` of shape (s,), a 0-d value, or per row of ``lams``
    of shape (m, s).

    The three kernels read the spec's ``beta`` (beta_i = b_i d_i; for a
    group, -K[i,i] = sum_jk c[i,j,k]^2), ``coupling`` (a, shape (s, s, s);
    for a group, c^2) and ``coupling_first_two`` (a + a^T01 flattened to
    (s, s*s), the gradient's and Hessian's operand).  The coupling sum is a
    matrix product over chunks of rows, so the (rows, s^2) intermediate
    stays within CHUNK_ENTRIES however many rows come in.  One point takes
    the same products as one row (numpy's matmul sends both to its
    vector special cases) and the same ``einsum`` reduction, without the
    chunk loop, so it gives the row's bits.
    """
    s = spec.s
    a_flat = spec.coupling.reshape(s * s, s)
    inv = 1.0 / lams
    out = 0.5 * (inv @ spec.beta)
    if lams.ndim == 1:
        return out - 0.25 * np.einsum("k,k->", _outer(inv, inv) @ a_flat, lams)
    chunk = _chunk_rows(s)
    for lo in range(0, len(lams), chunk):
        rows = slice(lo, lo + chunk)
        coupling = np.einsum("mk,mk->m", _outer(inv[rows], inv[rows]) @ a_flat, lams[rows])
        out[rows] -= 0.25 * coupling
    return out


def _block_gradient(spec: HomogeneousSpec, lams: np.ndarray) -> np.ndarray:
    """Gradient of :func:`_block_curvature` at one point (s,) or per row of
    ``lams`` (m, s), accumulating the three index roles a coordinate plays
    in the coupling term.
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


def scalar_curvature_closed(source, lam) -> CurvatureResult:
    """Closed-form scalar curvature of the diagonal metric given by ``lam``.

    ``source`` is a ``HomogeneousSpec`` (``lam`` holds its block ratios;
    method "homogeneous"), or a model or raw tensor, evaluated through its
    group spec (method "closed-form").  On a group at lam = (1, ..., 1)
    this reduces to one quarter of the sum of squared structure constants.
    """
    spec = source if isinstance(source, HomogeneousSpec) else _model(source).spec
    r = _block_curvature(spec, _lambda_vector(lam, spec.s))
    method = "homogeneous" if spec is source else "closed-form"
    return CurvatureResult(R=float(r), method=method)


def frame_curvatures(model, lam) -> np.ndarray:
    """Frame-plane sectional curvatures K[i,j] = <R(F_i, F_j) F_j, F_i>_g in
    the g-orthonormal frame F_i = E_i / sqrt(lam_i), shape (n, n).

    Frame brackets give cc[i,j,k] = <[F_i, F_j], F_k>_g; Koszul's formula
    then yields gamma[i,j,k] = <nabla_{F_i} F_j, F_k> = (cc[i,j,k] -
    cc[j,k,i] + cc[k,i,j]) / 2, and R(X, Y) = [nabla_X, nabla_Y] -
    nabla_[X, Y] on frame fields gives
    K[i,j] = sum_l gamma[j,j,l] gamma[i,l,i] - gamma[i,j,l] gamma[j,l,i] - cc[i,j,l] gamma[l,j,i],
    with no symmetry of cc or gamma assumed.  The Ricci curvatures are
    Ric(F_j, F_j) = sum_i K[i,j], and the scalar curvature is K's sum.
    Each sum is a plain ``einsum``, not a BLAS product, which OpenBLAS may
    split across threads; so K does not depend on the thread count.
    """
    model = _model(model)
    values = _lambda_vector(lam, model.n)
    inv_sqrt = 1.0 / np.sqrt(values)
    cc = model.c * np.einsum("i,j,k->ijk", inv_sqrt, inv_sqrt, np.sqrt(values))
    gamma = 0.5 * (cc - cc.transpose(2, 0, 1) + cc.transpose(1, 2, 0))
    return (np.einsum("jjl,ili->ij", gamma, gamma) - np.einsum("ijl,jli->ij", gamma, gamma)
            - np.einsum("ijl,lji->ij", cc, gamma))


def scalar_curvature_koszul(model, lam) -> CurvatureResult:
    """Scalar curvature as the sum of :func:`frame_curvatures` (the oracle route)."""
    model = _model(model)
    r = frame_curvatures(model, lam).sum()
    return CurvatureResult(R=float(r), method="koszul")


def scalar_gradient(source, lam) -> np.ndarray:
    """Analytic gradient of :func:`scalar_curvature_closed` in ``lam``, for
    the same sources; the result has the shape of ``lam``."""
    spec = source if isinstance(source, HomogeneousSpec) else _model(source).spec
    return _block_gradient(spec, _lambda_vector(lam, spec.s))
