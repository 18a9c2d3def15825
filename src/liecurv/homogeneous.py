"""Curvature data for compact homogeneous quotients.

A quotient is described by a subalgebra and an orthogonal block
decomposition of its complement.  :func:`build_spec` reduces that geometry
to the quadruple consumed by the scalar curvature formula: block
dimensions, the Killing-to-metric ratios, the Casimir constants of the
subalgebra action, and the tensor of summed squared structure constants of
brackets between blocks.  All four, and the closure and invariance checks,
are slices of the structure constants rotated into the adapted frame
(subalgebra first, then the blocks), cut at the block edges.  The group
itself is the case of singleton blocks with no subalgebra, whose spec an
``OrthonormalModel`` builds once (``model.spec``; the class lives in
:mod:`liecurv.binorm`).

This module builds, loads and checks specs; every evaluation lives in
:mod:`liecurv.curvature`, whose evaluators take a spec as they take a
model.  A spec validates its data (shapes, signs, finiteness) when built,
so evaluators check only lam.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binorm import (_NOT_ANTISYMMETRIC, HomogeneousSpec, OrthonormalModel, _checked_gram, _in_frame,
                     antisymmetry_defect, killing_metric)
from .curvature import scalar_curvature_closed, scalar_gradient
from .lie_core import (LieAlgebra, _negligible, _real, _require, _sparse_entries, _whole_number, killing,
                       resolve_algebra)


@dataclass(frozen=True)
class SubalgebraEmbedding:
    """A subalgebra plus an orthogonal block decomposition of its complement.

    ``h_basis`` holds coefficient vectors spanning the subalgebra (possibly
    empty for the group case); ``blocks`` holds one list of spanning
    coefficient vectors per complement block.  Each is taken only as a list
    of vectors of length ``parent.dim``, never reshaped into one.
    """

    parent: LieAlgebra
    h_basis: np.ndarray
    blocks: tuple

    def __post_init__(self):
        n = self.parent.dim
        h = _vectors(self.h_basis, n, "subalgebra")
        blocks = tuple(_vectors(b, n, f"block {i}") for i, b in enumerate(self.blocks))
        if not blocks:
            raise ValueError("at least one complement block is required")
        if any(b.shape[0] == 0 for b in blocks):
            raise ValueError("complement blocks must be non-empty")
        object.__setattr__(self, "h_basis", h)
        object.__setattr__(self, "blocks", blocks)


def _vectors(value, n: int, what: str) -> np.ndarray:
    """Coefficient vectors as a (k, n) float array (an empty list gives k = 0);
    anything but a list of vectors of length n is refused by name."""
    try:
        rows = np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # ragged or not numeric
        raise ValueError(f"{what} must be a list of vectors of length {n}") from None
    if rows.ndim == 1 and rows.size == 0:
        return rows.reshape(0, n)
    if rows.ndim != 2:
        raise ValueError(f"{what} must be a list of vectors of length {n}")
    if rows.shape[1] != n:
        raise ValueError(f"{what} vectors must have length {n}")
    return rows


def _orthonormal_rows(rows: np.ndarray, L: np.ndarray, what: str) -> np.ndarray:
    """Orthonormalize spanning rows for the metric, in order (Gram-Schmidt).

    With L the Cholesky factor of the metric's Gram matrix (gram = L L^T),
    the finite rows' whitened coordinates w = rows L have the Euclidean
    inner products of the metric.  A QR factorization w^T = Q R
    orthonormalizes them without squaring their condition number, as the
    Cholesky factor of their Gram matrix would; the result is Q^T L^-1.
    Each row is first scaled to unit largest entry, which leaves the span as
    it is.  |R[i, i]| is the distance of row i from the span of the rows
    before it; the rows are dependent when one of these is negligible
    against the largest.
    """
    k, n = rows.shape
    if k == 0:
        return rows
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"{what} spanning vectors must be finite")
    size = np.abs(rows).max(axis=1, keepdims=True)
    q, r = np.linalg.qr((rows / np.where(size > 0.0, size, 1.0) @ L).T)
    dist = np.abs(np.diag(r))
    if k > n or _negligible(dist.min(), dist.max()):
        raise ValueError(f"{what} spanning vectors are linearly dependent")
    q *= np.sign(np.diag(r))  # positive diagonal in R, so each row keeps its orientation
    return np.linalg.solve(L.T, q).T


def build_spec(embedding: SubalgebraEmbedding, gram, name: str | None = None) -> HomogeneousSpec:
    """Reduce a quotient description to homogeneous curvature data.

    The orthonormalized subalgebra and blocks, h first, form the adapted
    frame F; every datum and check is a slice, cut at the block edges, of
    cf[a, b, g] = <[F_a, F_b], F_g> (the Killing ratios: of the Killing form
    in F).  Verifies the two necessary conditions the formulas rely on
    (Casimir scalar, Killing ratio constant on each block) rather than
    irreducibility itself; failures ask the caller to refine the blocks.
    Each check is relative to its data.  The Gram matrix is checked as by
    :func:`binormalize` and factored once; after the frame's own checks, the
    metric must be invariant for the embedding's algebra by the model's rule
    and message (cf totally antisymmetric), before orthogonality is checked,
    so a bad metric is never blamed on the blocks.
    """
    algebra = embedding.parent
    gram, L = _checked_gram(algebra, gram)
    n = algebra.dim

    z = _orthonormal_rows(embedding.h_basis, L, "subalgebra")
    frames = [_orthonormal_rows(b, L, f"block {i}") for i, b in enumerate(embedding.blocks)]
    dims = np.array([f.shape[0] for f in frames], dtype=int)
    s, h = len(frames), z.shape[0]

    full = np.vstack([z] + frames)
    if full.shape[0] != n:
        raise ValueError(f"subalgebra and blocks span dimension {full.shape[0]}, expected {n}")
    cf = _in_frame(algebra.c, full.T, gram @ full.T)
    size = np.abs(cf).max()
    # Invariance gives cf[a, b, g] = -cf[a, g, b] for any vectors: sound before F is known orthonormal.
    _require(antisymmetry_defect(cf), size, _NOT_ANTISYMMETRIC)
    # Mutual orthogonality and, with the count above, completeness in one Gram check.
    _require(np.abs(full @ gram @ full.T - np.eye(n)).max(), 1.0,
             "subalgebra and blocks are not mutually orthogonal")
    edges = np.cumsum([h, *dims])
    block_of = np.repeat(np.arange(-1, s), [h, *dims])  # -1 on h

    # h must close under the bracket, and preserve each block.
    _require(np.linalg.norm(cf[:h, :h, h:], axis=2).max(initial=0.0), size,
             "h is not a subalgebra: bracket leaves its span")
    leak = np.where(block_of[h:, None] == block_of, 0.0, cf[:h, h:])
    moved = ~np.all(_negligible(np.linalg.norm(leak, axis=2), size), axis=0)
    if moved.any():
        raise ValueError(f"block {block_of[h + moved.argmax()]} is not invariant under the subalgebra action")

    # Killing ratio and Casimir constant per block, each its mean diagonal
    # entry, verified scalar against one size (a block-local one is 0 on a
    # central block); -sum_a M_a^2, M_a[g, x] = cf[a, x, g], is the Casimir.
    kf = -(full @ killing(algebra).K @ full.T)
    ksize = np.abs(kf).max()
    ratios, casimirs = np.zeros(s), np.zeros(s)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        act = cf[:h, lo:hi, lo:hi].swapaxes(1, 2)
        for out, mat, what in ((ratios, kf[lo:hi, lo:hi], "Killing ratio not constant"),
                               (casimirs, -(act @ act).sum(axis=0), "Casimir operator not scalar")):
            out[i] = np.diag(mat).mean()
            _require(np.abs(mat - out[i] * np.eye(hi - lo)).max(), ksize,
                     f"block {i} not irreducible-compatible: refine decomposition ({what} on the block)")
    casimirs = np.where(casimirs < 0.0, 0.0, casimirs)

    # Summed squared structure constants of brackets between blocks.
    coupling = cf[h:, h:, h:] ** 2
    for axis in range(3):
        coupling = np.add.reduceat(coupling, edges[:-1] - h, axis=axis)

    return HomogeneousSpec(
        name=name or f"{algebra.name}/h{h}",
        s=s,
        block_dims=dims,
        killing_ratios=ratios,
        casimirs=casimirs,
        coupling=coupling,
        provenance="from-algebra",
    )


# Old names, kept only because the benchmark in perfbench/ calls them; they
# go once its calls move to model.spec and the curvature evaluators.
scalar_curvature_homogeneous = scalar_curvature_closed
scalar_gradient_homogeneous = scalar_gradient


def group_as_homogeneous(model: OrthonormalModel) -> HomogeneousSpec:
    return model.spec


def sum_rule_defect(spec: HomogeneousSpec) -> np.ndarray:
    """Per-block residual of the coupling sum rule.

    For data built from a bi-invariant metric, summing the coupling tensor
    over its last two slots must reproduce b_i d_i - 2 c_i d_i.
    """
    lhs = spec.coupling.sum(axis=(1, 2))
    rhs = spec.block_dims * (spec.killing_ratios - 2.0 * spec.casimirs)
    return np.abs(lhs - rhs)


# ---------------------------------------------------------------------------
# Homogeneous spec files
# ---------------------------------------------------------------------------

def _numbers(value, what: str):
    """Nested JSON lists whose every entry is a number (see ``_real``)."""
    if isinstance(value, (list, tuple)):
        return [_numbers(v, what) for v in value]
    return _real(value, what)


def spec_from_dict(obj: dict, base_dir: str | Path = ".", name: str = "homogeneous-spec") -> HomogeneousSpec:
    """Load a homogeneous spec from its JSON form.

    Raw form: keys ``s``, ``d``, ``b``, ``c`` and ``A`` as sparse
    ``[i, j, k, value]`` triplets; accepted verbatim with provenance
    "raw-file" (the sum rule is reported downstream, not enforced).
    Derived form: keys ``algebra`` (built-in name or path relative to
    ``base_dir``), ``scale`` (a finite positive number, default 1),
    ``h_basis`` and ``blocks``; runs
    :func:`build_spec`.
    """
    if not isinstance(obj, dict):
        raise ValueError("homogeneous spec must be a JSON object")
    if "s" in obj:
        s = _whole_number(obj["s"], "block count s")
        if s < 1:
            raise ValueError(f"block count s must be at least 1, got {s}")
        try:
            d, b, c = obj["d"], obj["b"], obj["c"]
        except KeyError as exc:
            raise ValueError(f"raw homogeneous spec needs keys d, b, c: missing {exc}")
        if not all(isinstance(x, (list, tuple)) and len(x) == s for x in (d, b, c)):
            raise ValueError("block data d, b, c must be lists of length s")
        a = np.zeros((s, s, s))
        for index, value in _sparse_entries(obj.get("A", []), s, "coupling A").items():
            a[index] = value
        return HomogeneousSpec(
            name=name, s=s,
            block_dims=[_real(x, "block dimension") for x in d],
            killing_ratios=np.array([_real(x, "Killing ratio") for x in b]),
            casimirs=np.array([_real(x, "Casimir constant") for x in c]),
            coupling=a,
            provenance="raw-file",
        )
    if "algebra" in obj:
        source = str(obj["algebra"])
        candidate = Path(base_dir) / source
        algebra = resolve_algebra(candidate if candidate.exists() else source)
        scale = _real(obj.get("scale", 1.0), "scale")
        if not isinstance(obj.get("blocks"), (list, tuple)):
            raise ValueError("derived homogeneous spec needs a 'blocks' list")
        embedding = SubalgebraEmbedding(
            parent=algebra,
            h_basis=_numbers(obj.get("h_basis", []), "h_basis entry"),
            blocks=tuple(_numbers(b, "blocks entry") for b in obj["blocks"]),
        )
        return build_spec(embedding, killing_metric(algebra, scale), name=name)
    raise ValueError("homogeneous spec must be raw (key 's') or derived (key 'algebra')")


def spec_from_file(path: str | Path) -> HomogeneousSpec:
    """Load a homogeneous spec from a JSON file (raw or derived form)."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return spec_from_dict(obj, base_dir=path.parent, name=path.stem)
