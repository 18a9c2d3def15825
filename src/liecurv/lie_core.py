"""Finite-dimensional real Lie algebras presented by structure constants.

A :class:`LieAlgebra` is a named basis e_0, ..., e_{n-1} together with the
rank-3 tensor ``c`` of structure constants, brackets expanding as

    [e_i, e_j] = sum_k c[i, j, k] e_k.

Algebras can be built from a list of skew-Hermitian matrices and a name
(:func:`from_matrix_basis`), from the fixed generator conventions for su(n)
and so(n) (:func:`build_su`, :func:`build_so`, which go through it), from
direct sums, or from a JSON description (:func:`algebra_from_file`).  The
Killing form K, its signature, semi-simplicity and the center are all
decided numerically; a reference metric is -s K for a scale s > 0.

Every check and classification in the package asks one predicate,
:func:`_negligible`, which never passes a NaN.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ZERO_DROP = 1e-12  # from_matrix_basis zeroes structure constants negligible at this tol
DEFAULT_TOL = 1e-9


def _negligible(defect, size, tol=DEFAULT_TOL):
    """The one tolerance rule: ``defect`` is negligible when at most ``tol``
    times ``size``, the largest magnitude of the data it compares (closure,
    invariance, antisymmetry, scalar blocks, central blocks, rank and
    signature), so no verdict depends on the scale of the metric or basis.
    Elementwise; NaN is never negligible, so a check fails on NaN data."""
    return defect <= tol * size


def _require(defect, size, message: str) -> None:
    """Raise ``ValueError(message)`` unless the scalar ``defect`` is
    negligible at ``DEFAULT_TOL``, a threshold no caller moves."""
    if not _negligible(defect, size):
        raise ValueError(message)


def _tolerance(tol: float, what: str) -> None:
    """Raise unless the tolerance ``what`` is finite and nonnegative (zero is
    allowed): a negative or NaN one fails every check it decides, an
    infinite one passes them all."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{what} must be finite and nonnegative, got {tol}")


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant presentation of a real Lie algebra.

    ``c`` has shape (dim, dim, dim) and must be exactly antisymmetric in its
    first two indices.  The Jacobi identity is *not* enforced here, so that
    perturbed tensors can be constructed and measured with
    :func:`jacobi_defect`.
    """

    name: str
    dim: int
    c: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.c, dtype=float))
        n = self.dim
        if n < 1:
            raise ValueError("dimension must be a positive integer")
        if c.shape != (n, n, n):
            raise ValueError(f"structure tensor must have shape ({n}, {n}, {n})")
        if not np.array_equal(c, -c.swapaxes(0, 1)):
            raise ValueError("structure constants must satisfy c[i,j,k] == -c[j,i,k] exactly")
        object.__setattr__(self, "c", c)

    def bracket(self, x, y) -> np.ndarray:
        """Bracket of two coefficient vectors, returned as a coefficient vector."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError(f"coefficient vectors must have length {self.dim}")
        return np.einsum("i,j,ijk->k", x, y, self.c)

    def ad(self, x) -> np.ndarray:
        """Matrix of ad(x): column j holds the coefficients of [x, e_j]."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"coefficient vector must have length {self.dim}")
        return np.einsum("i,ijk->kj", x, self.c)


@dataclass(frozen=True)
class KillingData:
    """Killing form ``K`` of an algebra plus the derived structural decisions
    (a reference metric is a positive multiple of -K)."""

    K: np.ndarray
    signature: tuple[int, int, int]  # (negatives, zeros, positives)
    semisimple: bool
    center_dim: int


def from_matrix_basis(matrices, name: str = "matrix-basis") -> LieAlgebra:
    """Expand all commutators of a basis of skew-Hermitian matrices into
    structure constants.

    The matrices must be non-empty, square, of equal size and skew-Hermitian;
    they must be linearly independent, which the Gram matrix of the trace
    pairing <A, B> = -Re tr(AB) decides.  All pairs i < j are expanded at
    once, one system per pair: the coefficient vector of [M_i, M_j] solves
    that Gram system.  The expansion residual must be negligible against
    |M_i| |M_j| (the size of the commutator's terms) or the basis does not
    close under the commutator; the first such pair is named.
    """
    mats = [np.asarray(m, dtype=complex) for m in matrices]
    if not mats:
        raise ValueError("matrix basis must be non-empty")
    d = mats[0].shape[0] if mats[0].ndim == 2 else 0
    for m in mats:
        if d == 0 or m.shape != (d, d):
            raise ValueError("all basis matrices must be square and of equal size")
        _require(np.abs(m + m.conj().T).max(), np.abs(m).max(), "basis matrices must be skew-Hermitian")
    stack = np.stack(mats)
    n = len(mats)
    gram = -np.real(np.einsum("aij,bji->ab", stack, stack))
    svals = np.linalg.svd(gram, compute_uv=False)
    if _negligible(svals[-1], svals[0]):
        raise ValueError("dependent basis: trace-pairing Gram matrix is singular")
    size = np.abs(stack).max(axis=(1, 2))
    i, j = np.triu_indices(n, 1)
    comm = stack[i] @ stack[j] - stack[j] @ stack[i]
    # Each pair's pairings are summed as a lone pair's are (one basis matrix
    # at a time) and solved as one right-hand side: a batched pairing or a
    # multi-column solve moves some constants by an ulp.
    rhs = -np.real(np.stack([np.einsum("pij,ji->p", comm, m) for m in stack], axis=1))
    coef = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    residual = np.abs(comm - np.einsum("pk,kij->pij", coef, stack)).max(axis=(1, 2))
    open_pairs = np.flatnonzero(~_negligible(residual, size[i] * size[j]))
    if open_pairs.size:
        p = open_pairs[0]
        raise ValueError(f"not a subalgebra: [M_{i[p]}, M_{j[p]}] does not expand in the basis")
    c = np.zeros((n, n, n))
    c[i, j] = coef
    # Drop relative to the largest constant, then mirror the i < j half.
    c[_negligible(np.abs(c), np.abs(c).max(), ZERO_DROP)] = 0.0
    c[j, i] = -c[i, j]
    return LieAlgebra(name, n, c)


def _killing_form(algebra: LieAlgebra) -> np.ndarray:
    """The Killing form of :func:`killing` alone, for callers that read none of its flags."""
    K = np.einsum("iba,jab->ij", algebra.c, algebra.c)
    if not np.all(np.isfinite(K)):
        raise ValueError(f"Killing form of {algebra.name} overflows: structure constants are too large")
    return 0.5 * (K + K.T)  # contraction order can leave last-ulp asymmetry


def killing(algebra: LieAlgebra) -> KillingData:
    """Killing form K(e_i, e_j) = tr(ad e_i ad e_j) and structural flags.

    The signature counts negative, negligible and positive eigenvalues;
    ``semisimple`` requires no negligible one; the center is the kernel of
    x -> ad(x), counted by its negligible singular values.  Structure
    constants whose squares overflow are refused.
    """
    K = _killing_form(algebra)
    eigs = np.linalg.eigvalsh(K)
    zero = _negligible(np.abs(eigs), np.abs(eigs).max())
    signature = tuple(int(np.sum(x)) for x in (~zero & (eigs < 0), zero, ~zero & (eigs > 0)))
    svals = np.linalg.svd(algebra.c.reshape(algebra.dim, -1), compute_uv=False)
    return KillingData(
        K=K,
        signature=signature,
        semisimple=(signature[1] == 0),
        center_dim=int(np.sum(_negligible(svals, svals[0]))),
    )


def _structure_tensor(c) -> np.ndarray:
    """A raw structure tensor as a float array, refused unless numeric and of
    shape (n, n, n)."""
    try:
        c = np.asarray(c, dtype=float)
    except TypeError:
        raise ValueError(f"structure tensor must be a numeric array, got {type(c).__name__}") from None
    if c.ndim != 3 or not c.shape[0] == c.shape[1] == c.shape[2]:
        raise ValueError(f"structure tensor must have shape (n, n, n), got shape {c.shape}")
    return c


def jacobi_defect(algebra_or_tensor) -> float:
    """Largest absolute Jacobi residual over all index quadruples.

    Accepts a :class:`LieAlgebra` or a raw (n, n, n) tensor; zero for
    genuine Lie algebras.
    """
    c = algebra_or_tensor.c if isinstance(algebra_or_tensor, LieAlgebra) else _structure_tensor(algebra_or_tensor)
    n = c.shape[0]
    # r[i,j,k,l] = sum_m c[i,j,m] c[m,k,l], one matrix product; the residual
    # is r[i,j,k,l] + r[j,k,i,l] + r[k,i,j,l].
    r = (c.reshape(n * n, n) @ c.reshape(n, n * n)).reshape(n, n, n, n)
    return float(np.abs(r + r.transpose(2, 0, 1, 3) + r.transpose(1, 2, 0, 3)).max(initial=0.0))


# ---------------------------------------------------------------------------
# Built-in constructors
# ---------------------------------------------------------------------------

def _hermitian_generators(n: int) -> list[np.ndarray]:
    """Generalized Gell-Mann matrices: symmetric pairs, antisymmetric pairs,
    then diagonal generators, each normalized to tr(G^2) = 2."""
    gens = []
    for j in range(n):
        for k in range(j + 1, n):
            g = np.zeros((n, n), dtype=complex)
            g[j, k] = g[k, j] = 1.0
            gens.append(g)
    for j in range(n):
        for k in range(j + 1, n):
            g = np.zeros((n, n), dtype=complex)
            g[j, k] = -1j
            g[k, j] = 1j
            gens.append(g)
    for l in range(1, n):
        diag = np.zeros(n)
        diag[:l] = 1.0
        diag[l] = -l
        gens.append(np.diag(diag).astype(complex) * np.sqrt(2.0 / (l * (l + 1))))
    return gens


def build_su(n: int) -> LieAlgebra:
    """su(n) from skew-Hermitian generators -i G_a, dim n^2 - 1.

    For n = 2 these are -i times the Pauli matrices, with [E_1, E_2] = 2 E_3
    and its cyclic permutations (+i would flip all three brackets).
    """
    if n < 2:
        raise ValueError("build_su requires n >= 2")
    return from_matrix_basis([-1j * g for g in _hermitian_generators(n)], name=f"su{n}")


def build_so(n: int) -> LieAlgebra:
    """so(n) on the basis E_ij - E_ji, i < j, ordered lexicographically."""
    if n < 3:
        raise ValueError("build_so requires n >= 3")
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1.0
            m[j, i] = -1.0
            mats.append(m)
    return from_matrix_basis(mats, name=f"so{n}")


def abelian(dim: int) -> LieAlgebra:
    """Abelian algebra of the given dimension (all brackets vanish)."""
    if dim < 1:
        raise ValueError("abelian requires dim >= 1")
    return LieAlgebra(f"abelian{dim}", dim, np.zeros((dim, dim, dim)))


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Direct sum; cross-block structure constants are exactly zero."""
    n = a.dim + b.dim
    c = np.zeros((n, n, n))
    c[: a.dim, : a.dim, : a.dim] = a.c
    c[a.dim :, a.dim :, a.dim :] = b.c
    return LieAlgebra(f"{a.name}+{b.name}", n, c)


# ---------------------------------------------------------------------------
# Structure-constant files
# ---------------------------------------------------------------------------

def _real(value, what: str) -> float:
    """A JSON number as a float; booleans, strings, lists and null are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{what} is out of range")


def _whole_number(value, what: str) -> int:
    """A JSON number that is a finite integer (3 or 3.0, not 2.5) as an int."""
    x = _real(value, what)
    if not (math.isfinite(x) and x == round(x)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(x)


def _sparse_entries(entries, size: int, what: str) -> dict[tuple[int, int, int], float]:
    """Sparse ``[i, j, k, value]`` entries of a (size, size, size) tensor in a
    JSON file: integer indices in range, number values, no index twice."""
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{what} must be a list of [i, j, k, value] entries")
    out = {}
    for entry in entries:
        if not isinstance(entry, (list, tuple)) or len(entry) != 4:
            raise ValueError(f"{what} entries must be [i, j, k, value], got {entry}")
        index = tuple(_whole_number(v, f"{what} index") for v in entry[:3])
        if not all(0 <= x < size for x in index):
            raise ValueError(f"{what} index out of range in {index}")
        if index in out:
            raise ValueError(f"duplicate {what} entry for {index}")
        out[index] = _real(entry[3], f"{what} value")
    return out


def algebra_from_dict(obj: dict) -> LieAlgebra:
    """Build an algebra from the JSON structure-constant format.

    Expected keys: ``name``, ``dim`` and ``structure_constants`` as a list of
    ``[i, j, k, value]`` with 0-based indices.  Only i < j entries need be
    listed; the antisymmetric completion is applied.  Exact duplicates and
    mirror entries inconsistent with antisymmetry are rejected; ``dim`` and
    the indices must be integers and the values numbers.
    """
    try:
        name = str(obj["name"])
        dim = _whole_number(obj["dim"], "dim")
        entries = obj["structure_constants"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"algebra file must define name, dim, structure_constants: {exc}")
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    seen = _sparse_entries(entries, dim, "structure_constants")
    c = np.zeros((dim, dim, dim))
    for (i, j, k), value in seen.items():
        if not np.isfinite(value):
            raise ValueError(f"non-finite structure constant at ({i}, {j}, {k})")
        if i == j:
            raise ValueError(f"diagonal entry ({i}, {i}, {k}) violates antisymmetry")
        mirror = seen.get((j, i, k))
        if mirror is not None and mirror != -value:
            raise ValueError(f"entries ({i},{j},{k}) and ({j},{i},{k}) are not antisymmetric")
        c[i, j, k] = value
        c[j, i, k] = -value
    return LieAlgebra(name, dim, c)


def algebra_from_file(path: str | Path) -> LieAlgebra:
    """Load an algebra from a JSON structure-constant file."""
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_dict(json.load(fh))


def algebra_to_dict(algebra: LieAlgebra) -> dict:
    """Serialize to the structure-constant file format (i < j entries only)."""
    idx = np.argwhere(algebra.c != 0.0)  # C order: (i, j, k) lexicographic
    idx = idx[idx[:, 0] < idx[:, 1]]
    entries = [[*ijk, v] for ijk, v in zip(idx.tolist(), algebra.c[tuple(idx.T)].tolist())]
    return {"name": algebra.name, "dim": algebra.dim, "structure_constants": entries}


# Canonical spelling only: ASCII digits, no leading zero, nothing after them.
_BUILTIN_RE = re.compile(r"(su|so)([1-9][0-9]*)")


def _algebra_in(base_dir: Path, text: str) -> LieAlgebra:
    """The algebra ``text`` names: a built-in name (``su2``, ``so5``, ...)
    always means the built-in, and any other text is a file path relative
    to ``base_dir``, which a refusal names as the path it tried."""
    m = _BUILTIN_RE.fullmatch(text)
    if m:
        n = int(m.group(2))
        return build_su(n) if m.group(1) == "su" else build_so(n)
    path = base_dir / text
    if path.exists():
        return algebra_from_file(path)
    raise ValueError(f"unknown algebra source: {text!r} (not a built-in name or readable file; "
                     f"tried {str(path)!r})")


def resolve_algebra(source: str | Path) -> LieAlgebra:
    """Resolve a built-in name (``su2``, ``so5``, ...) or a file path."""
    return _algebra_in(Path(), str(source))
