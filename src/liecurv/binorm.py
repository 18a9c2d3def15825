"""Orthonormal frames adapted to a bi-invariant metric.

Given an ad-invariant positive-definite inner product on a Lie algebra,
:func:`binormalize` re-expresses the structure constants in an orthonormal
basis (via Cholesky), where bi-invariance makes them totally antisymmetric.
Arbitrary left-invariant metrics are then handled by diagonalizing their
positive self-adjoint operator relative to the orthonormal frame
(:func:`diagonalize_metric`); the eigenvalue vector is all downstream
curvature formulas ever see.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .lie_core import DEFAULT_TOL, LieAlgebra, killing


@dataclass(frozen=True)
class BiInvariantMetric:
    """Ad-invariant inner product on a Lie algebra, as a Gram matrix.

    ``scale`` records s when the metric was built as s times the negative
    Killing form; it stays None for a general ad-invariant Gram matrix.
    """

    base: LieAlgebra
    gram: np.ndarray
    scale: float | None = None

    def __post_init__(self):
        gram = np.asarray(self.gram, dtype=float)
        n = self.base.dim
        if gram.shape != (n, n):
            raise ValueError(f"gram matrix must have shape ({n}, {n})")
        object.__setattr__(self, "gram", gram)


def killing_metric(algebra: LieAlgebra, scale: float = 1.0) -> BiInvariantMetric:
    """The metric s * B, with B the negative of the Killing form; s must be
    finite and positive."""
    if scale <= 0:
        raise ValueError("metric scale must be positive")
    if not math.isfinite(scale):
        raise ValueError(f"metric scale must be finite, got {scale}")
    return BiInvariantMetric(algebra, scale * killing(algebra).B, scale=scale)


@dataclass(frozen=True)
class OrthonormalModel:
    """Structure constants in a basis orthonormal for a bi-invariant metric.

    ``t`` maps original to orthonormal coordinates (columns are the new
    basis vectors); ``c`` is totally antisymmetric up to roundoff, checked
    here once (``tol`` relative to the largest constant) for every consumer.
    The group's curvature data are derived here once, too: ``killing_ratios``
    (minus the Killing form's diagonal, the formula's beta) and ``coupling``
    (c * c), read by the closed-form evaluators and the group's spec.
    """

    name: str
    n: int
    t: np.ndarray
    c: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL
    killing_ratios: np.ndarray = field(init=False, repr=False)
    coupling: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, tol):
        c = np.asarray(self.c, dtype=float)
        n = self.n
        if c.shape != (n, n, n):
            raise ValueError(f"structure tensor must have shape ({n}, {n}, {n})")
        if antisymmetry_defect(c) > tol * np.abs(c).max():
            raise ValueError("not bi-invariant-orthonormal: structure tensor "
                             "is not totally antisymmetric")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "killing_ratios", -np.diag(np.einsum("iba,jab->ij", c, c)))
        object.__setattr__(self, "coupling", c * c)


@dataclass(frozen=True)
class DiagonalMetric:
    """Eigenvalue ratios of a left-invariant metric relative to the
    bi-invariant reference, one per basis vector or per block."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("diagonal metric must be a non-empty vector")
        if not np.all(values > 0):
            raise ValueError("diagonal metric entries must be positive")
        object.__setattr__(self, "values", values)


def metric_invariance_defect(metric: BiInvariantMetric) -> float:
    """Largest violation of <[x, e_i], e_j> + <e_i, [x, e_j]> = 0 over basis triples."""
    c = metric.base.c
    gram = metric.gram
    d = np.einsum("xik,kj->xij", c, gram) + np.einsum("ik,xjk->xij", gram, c)
    return float(np.abs(d).max())


def check_metric(metric: BiInvariantMetric, tol: float = DEFAULT_TOL) -> None:
    """Raise unless the Gram matrix is positive definite and ad-invariant, each
    relative to its data (the largest eigenvalue; |c|max |gram|max)."""
    eigs = np.linalg.eigvalsh(0.5 * (metric.gram + metric.gram.T))
    if eigs[0] <= DEFAULT_TOL * eigs[-1]:
        raise ValueError("not a metric: gram matrix is not positive definite")
    if metric_invariance_defect(metric) > tol * np.abs(metric.base.c).max() * np.abs(metric.gram).max():
        raise ValueError("not bi-invariant: ad-invariance fails on the gram matrix")


def _in_frame(c: np.ndarray, t: np.ndarray, co: np.ndarray) -> np.ndarray:
    """Structure constants in the frame f_a = sum_i t[i, a] e_i, read off with
    ``co[k, g] = <e_k, f_g>``: out[a, b, g] = <[f_a, f_b], f_g>.  Every change
    of basis in the package is this one contraction."""
    return np.einsum("ia,jb,kc,ijk->abc", t, t, co, c)


def binormalize(algebra: LieAlgebra, metric: BiInvariantMetric, tol: float = DEFAULT_TOL) -> OrthonormalModel:
    """Rotate the structure constants into a metric-orthonormal basis.

    The change of basis comes from the Cholesky factor of the Gram matrix,
    so repeated runs are bit-for-bit reproducible.  Total antisymmetry of
    the result is the skew-adjointness of every ad(x); the model checks it.
    """
    check_metric(metric, tol)
    L = np.linalg.cholesky(metric.gram)
    t = np.linalg.inv(L).T
    c_rot = _in_frame(algebra.c, t, metric.gram @ t)
    return OrthonormalModel(name=algebra.name, n=algebra.dim, t=t, c=c_rot, tol=tol)


def antisymmetry_defect(model_or_tensor) -> float:
    """Largest violation of total antisymmetry over the three transpositions."""
    c = model_or_tensor.c if isinstance(model_or_tensor, OrthonormalModel) else np.asarray(model_or_tensor, dtype=float)
    d01 = np.abs(c + c.swapaxes(0, 1)).max()
    d12 = np.abs(c + c.swapaxes(1, 2)).max()
    d02 = np.abs(c + c.swapaxes(0, 2)).max()
    return float(max(d01, d12, d02))


class DiagonalizedMetric(NamedTuple):
    rotation: np.ndarray
    metric: DiagonalMetric
    c: np.ndarray


def diagonalize_metric(model: OrthonormalModel, operator) -> DiagonalizedMetric:
    """Diagonalize a symmetric positive-definite metric operator.

    Returns the orthogonal eigenvector matrix (columns sorted by ascending
    eigenvalue), the eigenvalues as a :class:`DiagonalMetric`, and the
    structure constants rotated into the eigenbasis.  The rotation is
    orthogonal for the reference metric, so total antisymmetry survives.
    """
    s = np.asarray(operator, dtype=float)
    n = model.n
    if s.shape != (n, n):
        raise ValueError(f"metric operator must have shape ({n}, {n})")
    if np.abs(s - s.T).max() > DEFAULT_TOL * np.abs(s).max():
        raise ValueError("metric operator must be symmetric")
    w, q = np.linalg.eigh(0.5 * (s + s.T))
    if w[0] <= DEFAULT_TOL * w[-1]:
        raise ValueError("metric operator must be positive definite")
    c_rot = _in_frame(model.c, q, q)
    return DiagonalizedMetric(rotation=q, metric=DiagonalMetric(w), c=c_rot)
