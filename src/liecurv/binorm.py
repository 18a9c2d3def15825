"""Orthonormal frames adapted to a bi-invariant metric.

Given the Gram matrix of an ad-invariant inner product on a Lie algebra,
:func:`binormalize` re-expresses the structure constants in an orthonormal
basis (via Cholesky), where bi-invariance makes them totally antisymmetric:
the package's one bi-invariance rule, checked by :class:`OrthonormalModel`
and by ``build_spec`` on a quotient's constants in its adapted frame.
Arbitrary left-invariant metrics are then handled by diagonalizing their
positive self-adjoint operator relative to the orthonormal frame
(:func:`diagonalize_metric`, which returns the rotation, the eigenvalues as
``.metric.values`` and the rotated structure constants); the eigenvalue
array is all downstream curvature formulas ever see.

:class:`HomogeneousSpec`, the curvature formula's data, is defined here so
that a model can build its group's spec (singleton blocks) once.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .lie_core import DEFAULT_TOL, LieAlgebra, _negligible, _require, _structure_tensor, _tolerance, killing

# The one bi-invariance failure, for a model's constants and a quotient's alike.
_NOT_ANTISYMMETRIC = "not bi-invariant-orthonormal: structure tensor is not totally antisymmetric"


def killing_metric(algebra: LieAlgebra, scale: float = 1.0) -> np.ndarray:
    """The Gram matrix -s * K of a reference metric, with K the Killing form;
    s must be positive, and s and -s * K finite."""
    if scale <= 0:
        raise ValueError("metric scale must be positive")
    if not np.isfinite(scale):
        raise ValueError(f"metric scale must be finite, got {scale}")
    K = killing(algebra).K
    if not np.isfinite(scale * float(np.abs(K).max())):  # exactly when -s * K is not finite
        raise ValueError(f"metric scale must be small enough for a finite gram matrix -s * K, got {scale}")
    return -scale * K


def _checked_gram(algebra: LieAlgebra, gram) -> tuple[np.ndarray, np.ndarray]:
    """A reference metric's Gram matrix as a float array, checked against the
    algebra it is used with, and its Cholesky factor L (gram = L L^T)."""
    try:
        gram = np.asarray(gram, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"gram matrix must be a numeric array, got {type(gram).__name__}") from None
    n = algebra.dim
    if gram.shape != (n, n):
        raise ValueError(f"gram matrix must have shape ({n}, {n})")
    if not np.all(np.isfinite(gram)):
        raise ValueError("gram matrix must be finite")
    eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
    if _negligible(eigs[0], eigs[-1]):
        raise ValueError("not a metric: gram matrix is not positive definite")
    return gram, np.linalg.cholesky(gram)


def _first_two(a: np.ndarray) -> np.ndarray:
    """A coupling tensor symmetrized in its first two slots, a + a^T01, flattened
    to shape (s, s*s): the operand of the curvature gradient and Hessian.  A
    sum that overflows stays infinite, without a warning when the data are
    built; the gradient it feeds comes out non-finite, as it would if summed
    on each call."""
    s = a.shape[0]
    with np.errstate(over="ignore"):
        return (a + a.transpose(1, 0, 2)).reshape(s, s * s)


@dataclass(frozen=True)
class HomogeneousSpec:
    """Everything the homogeneous scalar curvature formula consumes.

    ``coupling[i, j, k]`` sums the squared orthonormal structure constants
    of complement-component brackets between blocks i, j read off against
    block k; ``killing_ratios[i]`` is the factor relating the negative
    Killing form to the reference metric on block i (zero exactly when the
    block sits in the center); ``casimirs[i]`` is the scalar by which the
    subalgebra Casimir operator acts on block i.  Three fields are derived
    here once: the block count ``s``, the length of ``block_dims``, which
    every other datum must match; ``beta``, with beta_i = b_i d_i
    (``killing_ratios * block_dims``), the per-block coefficient of the
    1/lam_i term; and ``coupling_first_two``, the coupling symmetrized in
    its first two slots and flattened to (s, s*s).  With ``coupling``, the
    last two are what the curvature kernels read.
    """

    name: str
    s: int = field(init=False)
    block_dims: np.ndarray
    killing_ratios: np.ndarray
    casimirs: np.ndarray
    coupling: np.ndarray
    provenance: str  # "from-algebra" | "raw-file"
    beta: np.ndarray = field(init=False, repr=False)
    coupling_first_two: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = np.asarray(self.block_dims, dtype=float)
        b = np.asarray(self.killing_ratios, dtype=float)
        c = np.asarray(self.casimirs, dtype=float)
        a = np.asarray(self.coupling, dtype=float)
        s = d.size  # a block_dims that is not a vector fails the length check below
        if s < 1:
            raise ValueError(f"block count s must be at least 1, got {s}")
        if d.shape != (s,) or b.shape != (s,) or c.shape != (s,):
            raise ValueError("block data must all have length s")
        if a.shape != (s, s, s):
            raise ValueError(f"coupling tensor must have shape ({s}, {s}, {s})")
        # NaN and inf fail the range; 2^63 is the first float an int64 cannot hold.
        if not np.all((d >= 1) & (d < 2.0 ** 63) & (d == np.round(d))):
            raise ValueError("block dimensions must be positive integers")
        d = d.astype(int)
        if not all(np.all(np.isfinite(x)) for x in (b, c, a)):
            raise ValueError("Killing ratios, Casimir constants and coupling must be finite")
        if np.any(c < 0):
            raise ValueError("Casimir constants must be nonnegative")
        if np.any(a < 0):
            raise ValueError("coupling tensor entries must be nonnegative")
        for name, arr in (("s", s), ("block_dims", d), ("killing_ratios", b), ("casimirs", c), ("coupling", a),
                          ("beta", b * d), ("coupling_first_two", _first_two(a))):
            object.__setattr__(self, name, arr)

    def central_blocks(self) -> list[int]:
        """Blocks in the center: Killing ratio negligible against the largest."""
        size = np.abs(self.killing_ratios)
        return np.flatnonzero(_negligible(size, size.max())).tolist()


@dataclass(frozen=True)
class OrthonormalModel:
    """Structure constants in a basis orthonormal for a bi-invariant metric.

    ``c`` is refused unless of shape (n, n, n) by the raw-tensor rule, and
    must be totally antisymmetric up to roundoff, checked here once (at
    ``tol`` against the largest constant) for every consumer.  Two fields
    are derived from it: the dimension ``n`` and ``spec``, the group's
    curvature data, a :class:`HomogeneousSpec` of singleton blocks with no
    subalgebra: Killing ratios minus the Killing form's diagonal
    (sum_jk c[i,j,k]^2), Casimirs zero and coupling c * c.  The curvature
    kernels read it.

    A pickle holds only ``name`` and ``c``; loading derives ``n`` and
    ``spec`` from them, bitwise as built, and skips the antisymmetry check,
    which the model passed when it was built (at whatever ``tol`` it was
    given).
    """

    name: str
    n: int = field(init=False)
    c: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL
    spec: HomogeneousSpec = field(init=False, repr=False)

    def __post_init__(self, tol):
        c = np.ascontiguousarray(_structure_tensor(self.c))  # the layout a pickle restores
        if len(c) < 1:
            raise ValueError(f"dimension n must be at least 1, got {len(c)}")
        _require(antisymmetry_defect(c), np.abs(c).max(), _NOT_ANTISYMMETRIC, tol)
        self._derive(c)

    def _derive(self, c):
        n = len(c)
        spec = HomogeneousSpec(name=self.name, block_dims=np.ones(n, dtype=int),
                               killing_ratios=-np.einsum("iba,iab->i", c, c), casimirs=np.zeros(n),
                               coupling=c * c, provenance="from-algebra")
        for name, value in (("c", c), ("n", n), ("spec", spec)):
            object.__setattr__(self, name, value)

    def __getstate__(self):
        return {"name": self.name, "c": self.c}

    def __setstate__(self, state):
        object.__setattr__(self, "name", state["name"])
        self._derive(state["c"])


def _in_frame(c: np.ndarray, t: np.ndarray, co: np.ndarray) -> np.ndarray:
    """Structure constants in the frame f_a = sum_i t[i, a] e_i, read off with
    ``co[k, g] = <e_k, f_g>``: out[a, b, g] = <[f_a, f_b], f_g>.  Every change
    of basis in the package is this one contraction, in BLAS-backed pairwise
    steps (O(n^4)) rather than one O(n^6) loop."""
    return np.einsum("ia,jb,kc,ijk->abc", t, t, co, c, optimize=True)


def binormalize(algebra: LieAlgebra, gram, tol: float = DEFAULT_TOL) -> OrthonormalModel:
    """Rotate the structure constants into a metric-orthonormal basis.

    The change of basis comes from the Cholesky factor of the Gram matrix,
    so repeated runs are bit-for-bit reproducible.  The Gram matrix must be
    finite, (n, n) and positive definite (its smallest eigenvalue not
    negligible against its largest).  Bi-invariance is checked by the model:
    a metric is bi-invariant exactly when every ad(x) is skew-adjoint, that
    is when the constants in an orthonormal frame are totally antisymmetric,
    at ``tol`` against the largest.  ``tol`` must be finite and nonnegative.
    """
    _tolerance(tol, "tol")
    gram, L = _checked_gram(algebra, gram)
    t = np.linalg.inv(L).T
    return OrthonormalModel(name=algebra.name, c=_in_frame(algebra.c, t, gram @ t), tol=tol)


def antisymmetry_defect(c) -> float:
    """Largest violation of total antisymmetry of a structure tensor over the
    three transpositions."""
    c = _structure_tensor(c)
    d01 = np.abs(c + c.swapaxes(0, 1)).max()
    d12 = np.abs(c + c.swapaxes(1, 2)).max()
    d02 = np.abs(c + c.swapaxes(0, 2)).max()
    return float(max(d01, d12, d02))


class DiagonalMetric(NamedTuple):
    """Eigenvalue ratios of a left-invariant metric to the bi-invariant reference,
    ascending, as :func:`diagonalize_metric`, their only producer, checks and
    returns them; the evaluators take the array ``values`` itself."""

    values: np.ndarray


class DiagonalizedMetric(NamedTuple):
    rotation: np.ndarray
    metric: DiagonalMetric
    c: np.ndarray


def diagonalize_metric(model: OrthonormalModel, operator) -> DiagonalizedMetric:
    """Diagonalize a symmetric positive-definite metric operator.

    Returns the orthogonal eigenvector matrix (columns sorted by ascending
    eigenvalue), the eigenvalues as a :class:`DiagonalMetric`, checked
    here for shape and positive definiteness, and the structure constants
    rotated into the eigenbasis.  The rotation is orthogonal for the
    reference metric, so total antisymmetry survives.
    """
    s = np.asarray(operator, dtype=float)
    n = model.n
    if s.shape != (n, n):
        raise ValueError(f"metric operator must have shape ({n}, {n})")
    _require(np.abs(s - s.T).max(), np.abs(s).max(), "metric operator must be symmetric")
    w, q = np.linalg.eigh(0.5 * (s + s.T))
    if _negligible(w[0], w[-1]):
        raise ValueError("metric operator must be positive definite")
    c_rot = _in_frame(model.c, q, q)
    return DiagonalizedMetric(rotation=q, metric=DiagonalMetric(w), c=c_rot)
